//! The incremental campaign store's contract, end to end: a warm
//! re-run with unchanged sources executes zero work units and emits a
//! byte-identical document; editing one program re-executes only the
//! units whose structural anchor changed, anchor-replaying the rest;
//! store corruption degrades to re-execution with an error report,
//! never a panic or a changed result.

use neural_fault_injection::core::exec::ExecConfig;
use neural_fault_injection::core::{service, Orchestrator};
use std::path::PathBuf;

fn state_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nfi-incremental-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus_source(name: &str) -> String {
    neural_fault_injection::corpus::by_name(name)
        .unwrap()
        .source
        .to_string()
}

#[test]
fn warm_corpus_rerun_executes_nothing_and_matches_the_unsharded_run() {
    let dir = state_dir("warm-corpus");
    let orch = Orchestrator::new(&dir).unwrap();
    let programs = ["ecommerce", "banking"];
    for program in programs {
        let cold = orch.run_program(program, &corpus_source(program)).unwrap();
        assert_eq!(
            cold.executed, cold.units,
            "{program}: cold run executes all"
        );
    }
    for program in programs {
        let warm = orch.run_program(program, &corpus_source(program)).unwrap();
        assert_eq!(warm.executed, 0, "{program}: warm run must execute nothing");
        assert_eq!(warm.replayed, warm.units);
        // Byte-identical to a from-scratch unsharded service run.
        let spec = service::plan_campaign(program, &corpus_source(program), orch.seed).unwrap();
        let direct = service::exec_spec(&spec, &orch.machine, ExecConfig::sequential()).unwrap();
        assert_eq!(
            warm.run.encode(),
            direct.encode(),
            "{program}: warm replay diverged from a cold unsharded run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn editing_one_program_re_executes_only_its_changed_anchor_group() {
    let dir = state_dir("edit-one");
    let orch = Orchestrator::new(&dir).unwrap();
    let unchanged = "banking";
    let edited = "ecommerce";
    orch.run_program(unchanged, &corpus_source(unchanged))
        .unwrap();
    orch.run_program(edited, &corpus_source(edited)).unwrap();

    // A one-line edit: appending a fresh trailing statement changes the
    // module fingerprint and the shared top-level anchor, but leaves
    // every function-body anchor intact.
    let edited_source = format!("{}edited_marker = 1\n", corpus_source(edited));
    let untouched = orch
        .run_program(unchanged, &corpus_source(unchanged))
        .unwrap();
    let touched = orch.run_program(edited, &edited_source).unwrap();
    assert_eq!(untouched.executed, 0, "unchanged program must fully replay");
    let spec = service::plan_campaign(edited, &edited_source, orch.seed).unwrap();
    let top_level = spec
        .units
        .iter()
        .filter(|u| u.site.function.is_none())
        .count();
    assert_eq!(
        touched.executed, top_level,
        "only the edited top-level anchor group re-executes"
    );
    assert_eq!(touched.anchor_replayed, touched.units - top_level);
    assert!(
        touched.anchor_replayed > 0,
        "function units must replay across the edit"
    );
    // And the spliced document equals a from-scratch run of the edited
    // source.
    let direct = service::exec_spec(&spec, &orch.machine, ExecConfig::sequential()).unwrap();
    assert_eq!(touched.run.encode(), direct.encode());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_worker_incremental_run_is_byte_identical_to_single_worker() {
    let dir_one = state_dir("worker-1");
    let dir_four = state_dir("worker-4");
    let one = Orchestrator::new(&dir_one).unwrap();
    let four = Orchestrator {
        config: ExecConfig::with_threads(4),
        ..Orchestrator::new(&dir_four).unwrap()
    };
    let source = corpus_source("jobqueue");
    let a = one.run_program("jobqueue", &source).unwrap();
    let b = four.run_program("jobqueue", &source).unwrap();
    assert_eq!(a.run.encode(), b.run.encode());
    // Cross-warm: the four-thread store replays into a warm run that
    // still matches the sequential document.
    let warm = four.run_program("jobqueue", &source).unwrap();
    assert_eq!(warm.executed, 0);
    assert_eq!(warm.run.encode(), a.run.encode());
    let _ = std::fs::remove_dir_all(&dir_one);
    let _ = std::fs::remove_dir_all(&dir_four);
}

#[test]
fn corrupted_segment_lines_fall_back_to_re_execution_without_panicking() {
    let dir = state_dir("corrupt");
    let orch = Orchestrator::new(&dir).unwrap();
    let source = corpus_source("banking");
    let cold = orch.run_program("banking", &source).unwrap();
    let path = orch
        .store
        .segment_path("banking", cold.run.module_fp, orch.machine.fingerprint());

    // Corrupt three ways at once: garble a stored line's payload,
    // truncate the file mid-line, and leave a line of binary noise.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    // The outcome payload is an escaped JSON string, so its quotes
    // appear as `\"` in the raw segment text.
    assert!(lines[1].contains("\\\"applied\\\""), "unexpected layout");
    lines[1] = lines[1].replace("\\\"applied\\\"", "\\\"appl");
    let half = lines[2].len() / 2;
    lines[2].truncate(half);
    lines[3] = "\u{1}\u{2}garbage\u{3}".to_string();
    std::fs::write(&path, lines.join("\n")).unwrap();

    let repaired = orch.run_program("banking", &source).unwrap();
    assert!(
        repaired.store_errors.len() >= 3,
        "each corruption is reported: {:?}",
        repaired.store_errors
    );
    assert_eq!(repaired.executed, 3, "exactly the corrupt units re-execute");
    assert_eq!(repaired.replayed, repaired.units - 3);
    assert_eq!(
        repaired.run.encode(),
        cold.run.encode(),
        "repair must be byte-identical to the cold run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_segments_for_stale_fingerprints_are_pruned_on_save() {
    let dir = state_dir("prune");
    let orch = Orchestrator::new(&dir).unwrap();
    let source = corpus_source("ecommerce");
    let first = orch.run_program("ecommerce", &source).unwrap();
    let machine_fp = orch.machine.fingerprint();
    let old_segment = orch
        .store
        .segment_path("ecommerce", first.run.module_fp, machine_fp);
    assert!(old_segment.exists());

    let edited = format!("{source}edited_marker = 1\n");
    let second = orch.run_program("ecommerce", &edited).unwrap();
    let new_segment = orch
        .store
        .segment_path("ecommerce", second.run.module_fp, machine_fp);
    assert!(new_segment.exists());
    assert!(
        !old_segment.exists(),
        "stale segment of the edited program must be pruned"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

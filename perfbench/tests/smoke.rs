//! Smoke-size runs of every workload: every metric named in
//! `BENCHMARK.json` is reported with its unit, outputs pass the
//! correctness gate, and traced runs' layer waterfalls sum to their
//! wall time.

use perfbench::report::Report;
use perfbench::{run, Config, Workload, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, OnceLock};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
}

/// The release `nfi` binary `serve_mixed` drives: `$NFI_BIN` when set,
/// otherwise built once into this package's target directory.
fn nfi_binary() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Some(bin) = std::env::var_os("NFI_BIN") {
            return PathBuf::from(bin);
        }
        let target = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/nfi-under-test");
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "--quiet", "--bin", "nfi"])
            .arg("--manifest-path")
            .arg(repo_root().join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building nfi failed");
        target.join("release/nfi")
    })
    .clone()
}

/// Workloads clear and count the process-wide memo tables, so the
/// tests run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: Workload, trace: bool) -> Report {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let work_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target").join(format!(
        "perfbench-smoke-{}-{}-{}",
        workload.name(),
        u8::from(trace),
        std::process::id()
    ));
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        nfi: (workload == Workload::ServeMixed).then(nfi_binary),
        work_dir: work_dir.clone(),
        setups: 1,
    };
    let report = run(&cfg).expect("workload runs");
    let _ = std::fs::remove_dir_all(work_dir);
    assert!(report.correct, "{}: gate failed", workload.name());
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0);
    report
}

fn assert_metrics(report: &Report, expected: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(got, expected);
}

fn check_untraced(workload: Workload) {
    let report = smoke(workload, false);
    assert_metrics(&report, &END_TO_END);
    for m in &report.metrics {
        assert!(
            m.value > 0.0,
            "{} is {} on {}",
            m.name,
            m.value,
            workload.name()
        );
    }
    let last = report.result_line();
    assert!(last.starts_with("{\"correct\":true,\"attempted\":"));
}

fn check_traced(workload: Workload) -> Report {
    let report = smoke(workload, true);
    assert_metrics(&report, &PER_LAYER);
    let w = report
        .waterfall
        .as_ref()
        .expect("traced runs carry a waterfall");
    let parts: f64 = w.parts.iter().map(|(_, s)| s).sum();
    assert!(w.wall > 0.0);
    assert!((parts + w.residual() - w.wall).abs() < 1e-12);
    assert!(
        parts <= w.wall * (1.0 + 1e-9),
        "parts exceed the traced wall"
    );
    assert!(w.parts.iter().all(|(_, s)| *s >= 0.0));
    let metric = |name: &str| report.metric(name).expect(name).value;
    assert_eq!(metric("layers.wall_s"), w.wall);
    assert_eq!(metric("layers.residual_s"), w.residual());
    assert_eq!(metric("e2e.failed_share"), 0.0);
    report
}

#[test]
fn campaign_cold_reports_every_metric() {
    check_untraced(Workload::CampaignCold);
}

#[test]
fn campaign_cold_traced_waterfall_sums_and_attributes_hangs() {
    let report = check_traced(Workload::CampaignCold);
    let share = report.metric("inject.hang_share_s").unwrap().value;
    assert!(
        share > 0.5,
        "hang units should dominate faulty-suite time: {share}"
    );
    let detail = report.detail_line();
    assert!(detail.contains("\"per_program_per_pass\":{"));
    assert!(detail.contains("\"pipeline\":{"));
    assert!(detail.contains("\"traced_vs_untraced_mismatches\":0"));
}

#[test]
fn campaign_edit_reports_every_metric() {
    check_untraced(Workload::CampaignEdit);
    check_traced(Workload::CampaignEdit);
}

#[test]
fn serve_mixed_reports_every_metric() {
    check_untraced(Workload::ServeMixed);
    check_traced(Workload::ServeMixed);
}

#[test]
fn nl_session_reports_every_metric() {
    check_untraced(Workload::NlSession);
    check_traced(Workload::NlSession);
}

/// `BENCHMARK.json` names exactly the metrics the benchmark reports.
#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let listed = |section: &str| -> Vec<(String, String)> {
        let body = text.split(&format!("\"{section}\"")).nth(1).expect(section);
        let body = &body[..body.find(']').expect("array end")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let v = entry.split(&format!("\"{key}\": \"")).nth(1).expect(key);
                    v[..v.find('"').unwrap()].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |m: &[(&str, &str)]| -> Vec<(String, String)> {
        m.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    let body = text.split("\"workloads\"").nth(1).expect("workloads");
    let body = &body[..body.find(']').expect("array end")];
    let names: Vec<&str> = body
        .split("\"name\": \"")
        .skip(1)
        .map(|v| &v[..v.find('"').unwrap()])
        .collect();
    assert!(!names.is_empty());
    for name in names {
        assert!(Workload::parse(name).is_some(), "{name}");
    }
}

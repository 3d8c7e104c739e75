//! `nfi` — the neural fault injection command-line tool.
//!
//! ```text
//! nfi corpus list                         list the seed programs
//! nfi corpus show <name>                  print a seed program
//! nfi run --file <path>                   run a PyLite file + its test_* suite
//! nfi inject --program <name> --describe "<fault>"   one-shot injection
//! nfi session --program <name> --describe "<fault>" [--profile retry|crash] [--rounds N]
//! nfi dataset [--cap N] [--seed N] [--incidents] [--out PATH]
//! nfi serve --state-dir <dir> [--addr IP:PORT] [--lanes N]   fault injection as a service
//! nfi worker --addr IP:PORT [--token-file PATH]   execution node for a daemon
//! nfi store gc --state-dir <dir> [--dry-run]      prune dead store segments
//! nfi experiments [e1|e2|...|e8|all] [--quick] [--threads N]
//! ```
//!
//! Argument parsing is hand-rolled (the offline dependency set has no
//! CLI crate); every subcommand prints usage on `--help` and refuses
//! flags it does not take.

use neural_fault_injection::core::pipeline::{NeuralFaultInjector, PipelineConfig};
use neural_fault_injection::core::session::run_session;
use neural_fault_injection::inject::run_suite;
use neural_fault_injection::pylite::MachineConfig;
use neural_fault_injection::rlhf::{SimulatedTester, TargetProfile};
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
nfi — neural fault injection (DSN'24 reproduction)

USAGE:
  nfi corpus list
  nfi corpus show <name>
  nfi run --file <path>
  nfi inject (--program <name> | --file <path>) --describe \"<fault scenario>\"
  nfi session (--program <name> | --file <path>) --describe \"<fault scenario>\"
              [--profile retry|crash] [--rounds N]
  nfi dataset [--cap N] [--seed N] [--incidents] [--out PATH]
  nfi explore (--program <name> | --file <path>) --describe \"<fault>\" [--seeds N]
  nfi campaign plan (--program <name> | --file <path>) [--as <name>] [--seed N] [--out PATH]
  nfi campaign exec --plan PATH [--shard i/n] [--threads N] [--no-cache] [--out PATH]
  nfi campaign merge <run.jsonl>... [--out PATH]
  nfi campaign run --state-dir <dir> [--threads N] [--seed N] [--as <name>]
                   [--no-anchor-reuse] [--out-dir DIR] [--trace]
                   [--program <name> | --file <path> | <file>...]
  nfi serve --state-dir <dir> [--addr IP:PORT | --port N] [--workers N] [--lanes N]
            [--seed N] [--auth-token-file PATH] [--rate-limit N] [--rate-burst N]
            [--max-connections N] [--max-queue N] [--tenant-max-queued N]
            [--tenant-max-programs N] [--deadline-ms N] [--request-timeout-ms N]
            [--heartbeat-timeout-ms N] [--assignment-requeues N]
            [--assignment-timeout-ms N]
            [--log-level off|error|warn|info|debug|trace]
  nfi worker --addr IP:PORT [--token <tok> | --token-file PATH] [--name <name>]
             [--threads N]
  nfi store gc --state-dir <dir> [--dry-run]
               (--corpus | --program <name> | --file <path> | <file>...)
  nfi store inspect --state-dir <dir> [--program <name>] [--json]
  nfi experiments [e1|e2|e3|e4|e5|e6|e7|e8|all] [--quick] [--threads N]
";

fn main() -> ExitCode {
    // `NFI_LOG` tunes the structured-log level for every subcommand;
    // `nfi serve --log-level` can still override it later.
    nfi_telemetry::log::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Splits `args` into positional arguments and `--flag [value]` options.
fn parse_flags(args: &[String]) -> (Vec<&str>, HashMap<&str, &str>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(name) = a.strip_prefix("--") {
            let value = args
                .get(i + 1)
                .map(String::as_str)
                .filter(|v| !v.starts_with("--"));
            match value {
                Some(v) => {
                    flags.insert(name, v);
                    i += 2;
                }
                None => {
                    flags.insert(name, "true");
                    i += 1;
                }
            }
        } else {
            positional.push(a);
            i += 1;
        }
    }
    (positional, flags)
}

fn load_source(flags: &HashMap<&str, &str>) -> Result<String, String> {
    if let Some(name) = flags.get("program") {
        let program = neural_fault_injection::corpus::by_name(name)
            .ok_or_else(|| format!("unknown corpus program `{name}` (try `nfi corpus list`)"))?;
        Ok(program.source.to_string())
    } else if let Some(path) = flags.get("file") {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    } else {
        Err("need --program <name> or --file <path>".to_string())
    }
}

/// The flags each command takes, space-separated. Any other `--flag`
/// is refused up front, so a typo or a retired flag never runs silently
/// ignored; `None` (an unknown command or subcommand) leaves the error
/// to the command itself.
fn accepted_flags(command: &str, sub: Option<&str>) -> Option<&'static str> {
    Some(match (command, sub) {
        ("corpus", _) => "",
        ("run", _) => "program file",
        ("inject", _) => "program file describe",
        ("session", _) => "program file describe profile rounds",
        ("dataset", _) => "cap seed incidents out",
        ("explore", _) => "program file describe seeds",
        ("campaign", Some("plan")) => "program file as seed out",
        ("campaign", Some("exec")) => "plan shard threads no-cache out",
        ("campaign", Some("merge")) => "out",
        ("campaign", Some("run")) => {
            "state-dir threads seed as no-anchor-reuse out-dir trace program file"
        }
        ("serve", _) => {
            "state-dir addr port workers lanes seed auth-token-file rate-limit rate-burst \
             max-connections max-queue tenant-max-queued tenant-max-programs deadline-ms \
             request-timeout-ms heartbeat-timeout-ms assignment-requeues \
             assignment-timeout-ms log-level"
        }
        ("worker", _) => "addr port token token-file name threads",
        ("store", Some("gc")) => "state-dir dry-run corpus program file",
        ("store", Some("inspect")) => "state-dir program json",
        ("experiments", _) => "quick threads",
        _ => return None,
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("no command given".to_string());
    };
    let rest = &args[1..];
    let (positional, flags) = parse_flags(rest);
    if flags.contains_key("help") {
        println!("{USAGE}");
        return Ok(());
    }
    let sub = positional.first().copied();
    if let Some(accepted) = accepted_flags(command, sub) {
        let unknown = rest
            .iter()
            .filter_map(|a| a.strip_prefix("--"))
            .find(|flag| !accepted.split_whitespace().any(|a| a == *flag));
        if let Some(flag) = unknown {
            let name = match (command.as_str(), sub) {
                ("campaign" | "store", Some(sub)) => format!("{command} {sub}"),
                _ => command.to_string(),
            };
            return Err(format!("unknown flag `--{flag}` for `nfi {name}`"));
        }
    }
    match command.as_str() {
        "corpus" => cmd_corpus(&positional),
        "run" => cmd_run(&flags),
        "inject" => cmd_inject(&flags),
        "session" => cmd_session(&flags),
        "dataset" => cmd_dataset(&flags),
        "explore" => cmd_explore(&flags),
        "campaign" => cmd_campaign(&positional, &flags),
        "serve" => cmd_serve(&flags),
        "worker" => cmd_worker(&flags),
        "store" => cmd_store(&positional, &flags),
        "experiments" => cmd_experiments(&positional, &flags),
        "--help" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn cmd_corpus(positional: &[&str]) -> Result<(), String> {
    match positional {
        ["list"] | [] => {
            println!("{:<14} {:<16} tests  description", "name", "domain");
            for p in neural_fault_injection::corpus::all() {
                println!(
                    "{:<14} {:<16} {:<6} {}",
                    p.name,
                    p.domain,
                    p.test_names().len(),
                    p.description
                );
            }
            Ok(())
        }
        ["show", name] => {
            let p = neural_fault_injection::corpus::by_name(name)
                .ok_or_else(|| format!("unknown program `{name}`"))?;
            println!("{}", p.source);
            Ok(())
        }
        _ => Err("usage: nfi corpus [list|show <name>]".to_string()),
    }
}

fn cmd_run(flags: &HashMap<&str, &str>) -> Result<(), String> {
    let source = load_source(flags)?;
    let module = neural_fault_injection::pylite::parse(&source).map_err(|e| e.to_string())?;
    let report = run_suite(&module, &MachineConfig::default());
    if report.tests.is_empty() {
        // No tests: just run the module body.
        let mut machine = neural_fault_injection::pylite::Machine::new(MachineConfig::default());
        let out = machine.run_module(&module).map_err(|e| e.to_string())?;
        print!("{}", out.output);
        println!("status: {:?}", out.status);
        return Ok(());
    }
    for t in &report.tests {
        println!(
            "{:<30} {}",
            t.name,
            if t.passed() { "ok" } else { "FAILED" }
        );
    }
    println!("{} passed, {} failed", report.passed(), report.failed());
    Ok(())
}

fn cmd_inject(flags: &HashMap<&str, &str>) -> Result<(), String> {
    let source = load_source(flags)?;
    let description = flags
        .get("describe")
        .ok_or("need --describe \"<fault scenario>\"")?;
    let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
    let report = injector
        .inject(description, &source)
        .map_err(|e| e.to_string())?;
    println!(
        "spec: class={:?} target={:?} exception={:?}",
        report.spec.class, report.spec.target_function, report.spec.exception_kind
    );
    println!(
        "\npattern: {} ({} candidates considered)",
        report.fault.pattern, report.fault.n_candidates
    );
    println!("rationale: {}\n", report.fault.rationale);
    println!("{}", report.fault.snippet);
    println!("--- test outcome ---");
    for t in &report.experiment.tests {
        println!("{:<30} -> {}", t.name, t.mode);
    }
    println!(
        "overall: {}  activated: {}  detected: {}",
        report.experiment.overall, report.experiment.activated, report.experiment.detected
    );
    Ok(())
}

fn cmd_session(flags: &HashMap<&str, &str>) -> Result<(), String> {
    let source = load_source(flags)?;
    let description = flags
        .get("describe")
        .ok_or("need --describe \"<fault scenario>\"")?;
    let rounds: usize = flags
        .get("rounds")
        .map(|v| v.parse().map_err(|_| "bad --rounds"))
        .transpose()?
        .unwrap_or(6);
    let profile = match flags.get("profile").copied().unwrap_or("retry") {
        "retry" => TargetProfile::wants_retry(),
        "crash" => TargetProfile::wants_crashes(),
        other => return Err(format!("unknown profile `{other}` (retry|crash)")),
    };
    let module = neural_fault_injection::pylite::parse(&source).map_err(|e| e.to_string())?;
    let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
    let mut tester = SimulatedTester::new(profile, 42);
    tester.noise = 0.0;
    let result = run_session(&mut injector, description, &module, &tester, rounds)
        .map_err(|e| e.to_string())?;
    for round in &result.rounds {
        println!(
            "=== round {} — {} ===",
            round.round + 1,
            round.fault.pattern
        );
        println!("{}", round.fault.snippet);
        println!(
            "rating {:.1}  accepted {}",
            round.feedback.rating, round.feedback.accepted
        );
        if let Some(c) = &round.feedback.critique {
            println!("tester: \"{c}\"");
        }
        println!();
    }
    println!(
        "{} after {} round(s)",
        if result.accepted {
            "accepted"
        } else {
            "not accepted"
        },
        result.rounds.len()
    );
    Ok(())
}

fn cmd_dataset(flags: &HashMap<&str, &str>) -> Result<(), String> {
    let cap: usize = flags
        .get("cap")
        .map(|v| v.parse().map_err(|_| "bad --cap"))
        .transpose()?
        .unwrap_or(60);
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(7);
    let mut ds = neural_fault_injection::dataset::generate(
        neural_fault_injection::corpus::all(),
        &neural_fault_injection::dataset::DatasetConfig {
            per_program_cap: cap,
            seed,
        },
    );
    if flags.contains_key("incidents") {
        for p in neural_fault_injection::corpus::all() {
            ds.records
                .extend(neural_fault_injection::dataset::incidents::incident_training_records(p));
        }
    }
    println!("generated {} records", ds.records.len());
    for (class, count) in ds.class_counts() {
        println!("  {class:<20} {count}");
    }
    if let Some(path) = flags.get("out") {
        std::fs::write(
            path,
            neural_fault_injection::dataset::jsonl::encode_all(&ds.records),
        )
        .map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_explore(flags: &HashMap<&str, &str>) -> Result<(), String> {
    let source = load_source(flags)?;
    let description = flags
        .get("describe")
        .ok_or("need --describe \"<fault scenario>\"")?;
    let n_seeds: u64 = flags
        .get("seeds")
        .map(|v| v.parse().map_err(|_| "bad --seeds"))
        .transpose()?
        .unwrap_or(8);
    let module = neural_fault_injection::pylite::parse(&source).map_err(|e| e.to_string())?;
    let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
    let report = injector
        .inject_module(description, &module)
        .map_err(|e| e.to_string())?;
    println!("pattern: {}\n", report.fault.pattern);
    println!(
        "{}",
        neural_fault_injection::inject::render_diff(
            &neural_fault_injection::pylite::print_module(&module),
            &neural_fault_injection::pylite::print_module(&report.faulty_module),
            2,
        )
    );
    let seeds: Vec<u64> = (0..n_seeds).collect();
    let exploration = neural_fault_injection::inject::explore_schedules(
        &module,
        &report.faulty_module,
        &MachineConfig::default(),
        &seeds,
    );
    println!("--- schedule exploration over {n_seeds} seeds ---");
    for (seed, mode) in &exploration.per_seed {
        println!("seed {seed:<3} -> {mode}");
    }
    println!(
        "overall: {}  activation ratio: {:.2}  schedule-sensitive: {}",
        exploration.overall,
        exploration.activation_ratio(),
        exploration.schedule_sensitive()
    );
    Ok(())
}

/// The one shared `--threads` parser: every subcommand that takes the
/// flag goes through here, so they all reject `0` and non-numeric
/// values with the same error naming the flag (no per-command drift).
fn exec_config(flags: &HashMap<&str, &str>) -> Result<nfi_core::exec::ExecConfig, String> {
    match flags.get("threads") {
        Some(v) => {
            let threads: usize = v
                .parse()
                .map_err(|_| format!("--threads expects a positive integer, got `{v}`"))?;
            if threads == 0 {
                return Err("--threads must be at least 1, got `0`".to_string());
            }
            Ok(nfi_core::exec::ExecConfig::with_threads(threads))
        }
        None => Ok(nfi_core::exec::ExecConfig::default()),
    }
}

/// A positive-integer flag, defaulting to 1: rejects `0` and
/// non-numeric values in the same error style as `--threads`.
fn parse_positive(flags: &HashMap<&str, &str>, name: &str) -> Result<usize, String> {
    flags
        .get(name)
        .map(|v| {
            v.parse::<usize>()
                .ok()
                .filter(|&w| w > 0)
                .ok_or_else(|| format!("--{name} expects a positive integer, got `{v}`"))
        })
        .transpose()
        .map(|w| w.unwrap_or(1))
}

/// Parser for the serve hardening knobs: an unsigned integer where `0`
/// (and absence) means "off"/"unbounded" — the daemon's permissive
/// default — so every limit flag reads the same way.
fn parse_limit(flags: &HashMap<&str, &str>, name: &str) -> Result<u64, String> {
    flags
        .get(name)
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("--{name} expects an unsigned integer (0 = off), got `{v}`"))
        })
        .transpose()
        .map(|v| v.unwrap_or(0))
}

/// Validates a `--as <name>` program-name override. The name heads the
/// store segment and every run document, and under a serving daemon it
/// may carry a `tenant:` prefix — so colons are fine, but whitespace
/// and control characters would make the headers and logs ambiguous.
fn parse_as_name<'a>(flags: &HashMap<&str, &'a str>) -> Result<Option<&'a str>, String> {
    let Some(name) = flags.get("as").copied() else {
        return Ok(None);
    };
    if name.is_empty() || name == "true" {
        return Err("--as expects a program name".to_string());
    }
    if name.chars().any(|c| c.is_whitespace() || c.is_control()) {
        return Err(format!(
            "--as name `{name}` contains whitespace or control characters"
        ));
    }
    Ok(Some(name))
}

/// The one shared listen-address parser: `--addr ip:port` (strictly a
/// socket address; port `0` binds an ephemeral port, printed at
/// startup) or `--port n` as loopback shorthand. Nonsense — a
/// portless `--addr`, `--port 0`, both flags at once — is rejected up
/// front in the `--threads` error style.
fn parse_addr(flags: &HashMap<&str, &str>) -> Result<std::net::SocketAddr, String> {
    match (flags.get("addr"), flags.get("port")) {
        (Some(_), Some(_)) => Err("--addr already carries a port; drop --port".to_string()),
        (Some(a), None) => a
            .parse()
            .map_err(|_| format!("--addr expects ip:port (e.g. 127.0.0.1:8080), got `{a}`")),
        (None, Some(p)) => {
            let port: u16 = p
                .parse()
                .ok()
                .filter(|&p| p > 0)
                .ok_or_else(|| format!("--port expects a port number 1-65535, got `{p}`"))?;
            Ok(std::net::SocketAddr::from(([127, 0, 0, 1], port)))
        }
        (None, None) => Ok(std::net::SocketAddr::from(([127, 0, 0, 1], 8080))),
    }
}

/// Writes `text` to `--out PATH` when given (announcing the path), or
/// to stdout otherwise.
fn write_doc(flags: &HashMap<&str, &str>, text: &str) -> Result<(), String> {
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
            Ok(())
        }
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// Program name for a file-path target: its stem. The one derivation
/// every campaign subcommand shares, so `plan`, `exec`, and `run` head
/// their documents with identical program names for the same file.
fn file_stem_name(path: &str) -> &str {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
}

/// The one shared `--seed` parser (plan and run must agree, since the
/// seed is stamped into every work unit and thus every store key).
fn parse_seed(flags: &HashMap<&str, &str>) -> Result<u64, String> {
    flags
        .get("seed")
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--seed expects an integer, got `{v}`"))
        })
        .transpose()
        .map(|seed| seed.unwrap_or(MachineConfig::default().seed))
}

/// The sharded campaign workflow: `plan` enumerates once into a
/// portable JSONL spec, `exec` runs any `--shard i/n` of it (anywhere —
/// the spec carries the program source), `merge` unions shard runs back
/// into the one canonical document. Merging is associative and the
/// merged document is byte-identical to an unsharded `exec`.
fn cmd_campaign(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    use neural_fault_injection::core::service;
    use neural_fault_injection::sfi::{CampaignSpec, Shard};
    match positional.first().copied() {
        Some("plan") => {
            let source = load_source(flags)?;
            // --as overrides the derived name — the offline mirror of a
            // daemon tenant's namespaced `tenant:program`, so offline
            // parity runs can address the same store segment.
            let program = match parse_as_name(flags)? {
                Some(name) => name,
                None => flags
                    .get("program")
                    .copied()
                    .or_else(|| flags.get("file").map(|p| file_stem_name(p)))
                    .unwrap_or("campaign"),
            };
            let spec = service::plan_campaign(program, &source, parse_seed(flags)?)?;
            eprintln!("planned {} units for {program}", spec.units.len());
            write_doc(flags, &spec.encode())
        }
        Some("exec") => {
            let path = flags.get("plan").ok_or("need --plan <path>")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = CampaignSpec::decode(&text).map_err(|e| format!("{path}: {e}"))?;
            let shard = match flags.get("shard") {
                Some(s) => Shard::parse(s).map_err(|e| format!("--shard: {e}"))?,
                None => Shard::FULL,
            };
            let config = exec_config(flags)?
                .sharded(shard)
                .cached(!flags.contains_key("no-cache"));
            let run = service::exec_spec(&spec, &MachineConfig::default(), config)?;
            eprintln!(
                "executed shard {shard}: {} of {} units",
                run.outcomes.len(),
                run.total
            );
            write_doc(flags, &run.encode())
        }
        Some("merge") => {
            let files = &positional[1..];
            if files.is_empty() {
                return Err("usage: nfi campaign merge <run.jsonl>... [--out PATH]".to_string());
            }
            let mut runs = Vec::new();
            for path in files {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                runs.push(service::ShardRun::decode(&text).map_err(|e| format!("{path}: {e}"))?);
            }
            let merged = service::merge(&runs)?;
            eprintln!(
                "merged {} run(s): {} of {} units covered",
                runs.len(),
                merged.outcomes.len(),
                merged.total
            );
            write_doc(flags, &merged.encode())
        }
        Some("run") => cmd_campaign_run(&positional[1..], flags),
        _ => Err("usage: nfi campaign [plan|exec|merge|run]".to_string()),
    }
}

/// Resolves the campaign targets: positional files, else
/// `--program`/`--file`, else the whole corpus. Shared by `campaign
/// run` (which executes them) and `store gc` (which keeps their
/// segments live), so both commands agree on what a target's program
/// name is.
fn resolve_targets(
    files: &[&str],
    flags: &HashMap<&str, &str>,
) -> Result<Vec<(String, String)>, String> {
    let mut targets: Vec<(String, String)> = Vec::new();
    if !files.is_empty() {
        for path in files {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            targets.push((file_stem_name(path).to_string(), source));
        }
    } else if flags.contains_key("program") || flags.contains_key("file") {
        let source = load_source(flags)?;
        let name = flags
            .get("program")
            .copied()
            .or_else(|| flags.get("file").map(|p| file_stem_name(p)))
            .unwrap_or("campaign");
        targets.push((name.to_string(), source));
    } else {
        for p in neural_fault_injection::corpus::all() {
            targets.push((p.name.to_string(), p.source.to_string()));
        }
    }

    // Program names key the store and the run documents; two targets
    // sharing a name would overwrite each other's documents and
    // perpetually prune each other's store segments.
    let mut seen_names = std::collections::HashSet::new();
    for (name, _) in &targets {
        if !seen_names.insert(name.as_str()) {
            return Err(format!(
                "two targets resolve to the program name `{name}`; rename one \
                 file or run them against separate state dirs"
            ));
        }
    }
    Ok(targets)
}

/// Prints the phase breakdown of one `--trace` campaign run: the span
/// tree, indented by nesting, with per-phase durations — the offline
/// twin of the daemon's `/v1/campaigns/:id/trace` endpoint.
fn print_trace(program: &str, trace: &nfi_telemetry::Trace) {
    let spans = trace.spans();
    println!("trace {} program={program}", trace.id());
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_us, spans[i].id));
    let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    fn print_span(spans: &[nfi_telemetry::SpanRecord], order: &[usize], at: usize, depth: usize) {
        let s = &spans[at];
        println!(
            "  {:indent$}{:<24} {:>10} us  (start +{} us)",
            "",
            s.name,
            s.dur_us,
            s.start_us,
            indent = depth * 2,
        );
        for &c in order {
            if c != at && spans[c].parent == s.id {
                print_span(spans, order, c, depth + 1);
            }
        }
    }
    for &i in &order {
        // Orphans (parent dropped past the ring bound) print as roots.
        if spans[i].parent == 0 || !known.contains(&spans[i].parent) {
            print_span(&spans, &order, i, 0);
        }
    }
    let dropped = trace.dropped();
    if dropped > 0 {
        println!("  ({dropped} span(s) dropped past the ring bound)");
    }
}

/// The incremental orchestrator: plan every target, replay unchanged
/// units from the `--state-dir` store, execute only the rest in this
/// process (across `--threads`), merge, and persist. The merged
/// document per program lands in `--out-dir` (default
/// `<state-dir>/runs`) and is byte-identical to a from-scratch
/// unsharded `--threads 1` run — a warm re-run with unchanged sources
/// executes zero work units.
fn cmd_campaign_run(files: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    use neural_fault_injection::core::Orchestrator;
    let state_dir = flags.get("state-dir").ok_or("need --state-dir <dir>")?;
    let orch = Orchestrator {
        seed: parse_seed(flags)?,
        config: exec_config(flags)?,
        anchor_reuse: !flags.contains_key("no-anchor-reuse"),
        ..Orchestrator::new(state_dir)?
    };
    let mut targets = resolve_targets(files, flags)?;
    if let Some(name) = parse_as_name(flags)? {
        // Renaming only makes sense for exactly one target — with
        // several, all would collapse onto one store segment and
        // perpetually prune each other.
        let [target] = targets.as_mut_slice() else {
            return Err(format!(
                "--as {name} needs exactly one target, got {}",
                targets.len()
            ));
        };
        target.0 = name.to_string();
    }

    let out_dir = flags
        .get("out-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(state_dir).join("runs"));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;

    let want_trace = flags.contains_key("trace");
    let (mut units, mut replayed, mut executed, mut anchor_replayed) =
        (0usize, 0usize, 0usize, 0usize);
    for (name, source) in &targets {
        // `--trace` wraps each program run in its own trace so the
        // offline orchestrator produces the same phase breakdown the
        // daemon's /v1/campaigns/:id/trace endpoint would.
        let trace = want_trace.then(|| nfi_telemetry::Trace::new(nfi_telemetry::TraceId::mint()));
        let ctx = trace
            .as_ref()
            .map(|t| nfi_telemetry::trace::push_context(std::sync::Arc::clone(t), 0));
        let result = orch.run_program(name, source)?;
        drop(ctx);
        if let Some(t) = &trace {
            print_trace(name, t);
        }
        for warning in &result.store_errors {
            eprintln!("warning: {warning}");
        }
        let doc_path = out_dir.join(format!("{name}.jsonl"));
        std::fs::write(&doc_path, result.run.encode())
            .map_err(|e| format!("cannot write {}: {e}", doc_path.display()))?;
        println!(
            "run program={name} units={} replayed={} anchor_replayed={} executed={} store_errors={}",
            result.units,
            result.replayed,
            result.anchor_replayed,
            result.executed,
            result.store_errors.len(),
        );
        units += result.units;
        replayed += result.replayed;
        executed += result.executed;
        anchor_replayed += result.anchor_replayed;
    }
    println!(
        "campaign run: {} program(s), {units} units, {replayed} replayed ({anchor_replayed} via anchors), {executed} executed",
        targets.len(),
    );
    Ok(())
}

/// `nfi serve`: the fault-injection-as-a-service daemon. Jobs submitted
/// over HTTP replay from the shared `--state-dir` store and hand their
/// misses to `nfi worker` processes: `--lanes × --workers` local
/// children the daemon supervises, plus any remote workers — served
/// documents are byte-identical to an offline `nfi campaign run
/// --state-dir` over the same directory.
fn cmd_serve(flags: &HashMap<&str, &str>) -> Result<(), String> {
    use nfi_serve::{auth::AuthTokens, ServeConfig, Server};
    use std::time::Duration;
    let state_dir = flags.get("state-dir").ok_or("need --state-dir <dir>")?;
    if let Some(text) = flags.get("log-level") {
        let level = nfi_telemetry::Level::parse(text).ok_or_else(|| {
            format!("--log-level expects off|error|warn|info|debug|trace, got `{text}`")
        })?;
        nfi_telemetry::log::set_level(level);
    }
    let addr = parse_addr(flags)?;
    let workers = parse_positive(flags, "workers")?;
    let lanes = parse_positive(flags, "lanes")?;
    let auth = flags
        .get("auth-token-file")
        .map(|path| AuthTokens::load(std::path::Path::new(path)))
        .transpose()?;
    let binary =
        std::env::current_exe().map_err(|e| format!("cannot resolve the running binary: {e}"))?;
    let defaults = ServeConfig::new(state_dir, binary);
    let deadline = parse_limit(flags, "deadline-ms")?;
    let request_timeout = parse_limit(flags, "request-timeout-ms")?;
    let max_connections = parse_limit(flags, "max-connections")? as usize;
    let config = ServeConfig {
        workers,
        lanes,
        seed: parse_seed(flags)?,
        auth,
        rate_limit: parse_limit(flags, "rate-limit")?,
        rate_burst: parse_limit(flags, "rate-burst")?,
        max_connections: if max_connections > 0 {
            max_connections
        } else {
            defaults.max_connections
        },
        max_queue: parse_limit(flags, "max-queue")? as usize,
        tenant_max_queued: parse_limit(flags, "tenant-max-queued")? as usize,
        tenant_max_programs: parse_limit(flags, "tenant-max-programs")? as usize,
        default_deadline_ms: (deadline > 0).then_some(deadline),
        request_timeout: if request_timeout > 0 {
            Duration::from_millis(request_timeout)
        } else {
            defaults.request_timeout
        },
        heartbeat_timeout: match parse_limit(flags, "heartbeat-timeout-ms")? {
            0 => defaults.heartbeat_timeout,
            ms => Duration::from_millis(ms),
        },
        assignment_requeues: match flags.get("assignment-requeues") {
            Some(v) => v.parse().map_err(|_| {
                format!("--assignment-requeues expects an unsigned integer, got `{v}`")
            })?,
            None => defaults.assignment_requeues,
        },
        assignment_timeout: match parse_limit(flags, "assignment-timeout-ms")? {
            0 => defaults.assignment_timeout,
            ms => Some(Duration::from_millis(ms)),
        },
        ..defaults
    };
    let hardening = {
        let mut on = Vec::new();
        if config.auth.is_some() {
            on.push("auth".to_string());
        }
        if config.rate_limit > 0 {
            on.push(format!("{}/s rate limit", config.rate_limit));
        }
        if config.max_queue > 0 {
            on.push(format!("queue bound {}", config.max_queue));
        }
        if let Some(ms) = config.default_deadline_ms {
            on.push(format!("{ms}ms deadline"));
        }
        if let Some(t) = config.assignment_timeout {
            on.push(format!("{}ms assignment timeout", t.as_millis()));
        }
        if on.is_empty() {
            "open (no auth, no limits)".to_string()
        } else {
            on.join(", ")
        }
    };
    let server = Server::bind(addr, config)?;
    let local = server.local_addr()?;
    println!(
        "nfi serve: listening on http://{local} (state dir {state_dir}, {lanes} lane(s), \
         {} local worker(s); {hardening})",
        lanes * workers
    );
    println!(
        "  POST /v1/campaigns | GET /v1/campaigns/:id[/document|/trace] | GET /v1/metrics | GET /metrics"
    );
    println!("  POST /v1/workers[/:id/heartbeat|/:id/poll|/:id/result]  (nfi worker fleet)");
    server.run()
}

/// Resolves the worker's bearer token: `--token` verbatim, or the
/// first token line of `--token-file` (both a bare token and a
/// daemon-style `tenant:token` line are accepted, so ops can point the
/// worker at the same file the daemon loads).
fn worker_token(flags: &HashMap<&str, &str>) -> Result<Option<String>, String> {
    match (flags.get("token"), flags.get("token-file")) {
        (Some(_), Some(_)) => Err("give --token or --token-file, not both".to_string()),
        (Some(t), None) => Ok(Some((*t).to_string())),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read token file {path}: {e}"))?;
            let line = text
                .lines()
                .map(str::trim)
                .find(|l| !l.is_empty() && !l.starts_with('#'))
                .ok_or_else(|| format!("token file {path} has no token line"))?;
            let token = line.split_once(':').map(|(_, t)| t.trim()).unwrap_or(line);
            if token.is_empty() {
                return Err(format!("token file {path}: empty token"));
            }
            Ok(Some(token.to_string()))
        }
        (None, None) => Ok(None),
    }
}

/// Renders the body of one `POST /v1/workers/:id/result`: the header
/// line, then (for a success) the worker's re-anchored `NFI-SPAN`
/// trace lines and the shard document. Plan-decode and execution
/// failures travel in the header's `error` field so the scheduler can
/// requeue the assignment instead of waiting out the lease.
fn execute_assignment(
    assignment: u64,
    generation: u64,
    plan: &str,
    context: Option<&str>,
    config: nfi_core::exec::ExecConfig,
) -> String {
    use neural_fault_injection::core::service;
    use neural_fault_injection::sfi::CampaignSpec;
    let outcome = CampaignSpec::decode(plan)
        .map_err(|e| format!("assignment plan: {e}"))
        .and_then(|spec| {
            // The scheduler handed us the job's trace context in the
            // lease; record our spans under it (parent 0 — the
            // scheduler re-anchors the roots under its own assignment
            // span at import) and echo them back in the result body.
            let trace = context
                .and_then(nfi_telemetry::trace::parse_context_string)
                .map(|(id, _parent)| nfi_telemetry::Trace::new(id));
            let ctx = trace
                .as_ref()
                .map(|t| nfi_telemetry::trace::push_context(std::sync::Arc::clone(t), 0));
            let run = {
                let _span = nfi_telemetry::Span::enter("worker_exec");
                service::exec_spec(&spec, &MachineConfig::default(), config)
            };
            drop(ctx);
            run.map(|run| {
                let mut tail = String::new();
                if let Some(t) = &trace {
                    let mut lines = Vec::new();
                    let _ = t.emit_spans(&mut lines);
                    tail.push_str(&String::from_utf8_lossy(&lines));
                }
                tail.push_str(&run.encode());
                tail
            })
        });
    match outcome {
        Ok(tail) => format!(
            "{{\"kind\":\"worker_result\",\"assignment\":{assignment},\"generation\":{generation}}}\n{tail}"
        ),
        Err(e) => format!(
            "{{\"kind\":\"worker_result\",\"assignment\":{assignment},\"generation\":{generation},\"error\":\"{}\"}}\n",
            nfi_sfi::jsontext::escape(&e)
        ),
    }
}

/// How long the worker waits before retrying an unreachable daemon.
const WORKER_RETRY: std::time::Duration = std::time::Duration::from_millis(200);

/// Ends the process when its stdin is a pipe that closes. A serving
/// daemon starts its local workers on a pipe it never writes, so the
/// daemon's death, however it dies, ends them; a worker started from a
/// script (`nfi worker &` reads `/dev/null`) or a terminal is
/// unaffected.
#[cfg(unix)]
fn exit_when_stdin_pipe_closes() {
    use std::os::fd::AsFd;
    use std::os::unix::fs::FileTypeExt;
    let piped = std::io::stdin()
        .as_fd()
        .try_clone_to_owned()
        .map(std::fs::File::from)
        .and_then(|stdin| stdin.metadata())
        .is_ok_and(|meta| meta.file_type().is_fifo());
    if piped {
        std::thread::spawn(|| {
            let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
            std::process::exit(0);
        });
    }
}

#[cfg(not(unix))]
fn exit_when_stdin_pipe_closes() {}

/// `nfi worker`: an execution node for a serving daemon — the daemon's
/// own local children run this, and so can remote machines. The
/// worker registers with the scheduler at `--addr` (proving its
/// machine fingerprint matches — the precondition for byte-identical
/// shard documents), heartbeats in the background, and long-polls for
/// miss-subset assignments: decode the plan, execute it with the local
/// engine, stream the shard document back. Each of its two threads
/// keeps one keep-alive connection. The loop survives daemon restarts
/// by re-registering whenever the daemon stops recognizing it.
fn cmd_worker(flags: &HashMap<&str, &str>) -> Result<(), String> {
    use nfi_serve::client::Session;
    use nfi_sfi::jsontext::{
        escape, get_opt_str, get_opt_u64, get_str, get_u64, parse_flat_object,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let addr = parse_addr(flags)?;
    let token = worker_token(flags)?;
    let default_name = format!("worker-{}", std::process::id());
    let name = flags.get("name").copied().unwrap_or(&default_name);
    if name.is_empty()
        || name == "true"
        || name.chars().any(|c| c.is_whitespace() || c.is_control())
    {
        return Err(format!("--name `{name}` must be a single plain word"));
    }
    let config = exec_config(flags)?;
    exit_when_stdin_pipe_closes();
    let fingerprint = MachineConfig::default().fingerprint();
    let post = |session: &mut Session<std::net::SocketAddr>,
                path: &str,
                body: &str|
     -> Result<(u16, String), String> {
        let reply = session.send("POST", path, Some(body.as_bytes()), 3)?;
        Ok((reply.status, reply.text()))
    };
    let mut session = Session::new(addr, token.as_deref());
    let mut beats = Session::new(addr, token.as_deref());

    println!(
        "nfi worker: {name} -> http://{addr} ({} thread(s), fingerprint {fingerprint:016x})",
        config.threads
    );
    let mut unreachable_logged = false;
    loop {
        // Register (and re-register after every staleness signal: a
        // restarted daemon answers 404, a name takeover answers 409 on
        // the old generation — both resolve to a fresh registration).
        let body = format!(
            "{{\"kind\":\"worker_register\",\"name\":\"{}\",\"fingerprint\":\"{fingerprint:016x}\"}}",
            escape(name)
        );
        let (status, text) = match post(&mut session, "/v1/workers", &body) {
            Ok(reply) => reply,
            Err(e) => {
                if !unreachable_logged {
                    eprintln!("nfi worker: daemon unreachable ({e}); retrying");
                    unreachable_logged = true;
                }
                std::thread::sleep(Duration::from_secs(2));
                continue;
            }
        };
        if status != 200 {
            // 409 = fingerprint mismatch, 401/404 = bad or missing
            // token: configuration errors a retry loop cannot fix.
            return Err(format!("registration refused ({status}): {}", text.trim()));
        }
        unreachable_logged = false;
        let parsed = parse_flat_object(text.trim()).and_then(|fields| {
            Ok((
                get_u64(&fields, "worker")?,
                get_u64(&fields, "generation")?,
                get_u64(&fields, "heartbeat_ms")?,
            ))
        });
        let (worker, generation, heartbeat_ms) =
            parsed.map_err(|e| format!("registration reply: {e}"))?;
        let heartbeat = Duration::from_millis(heartbeat_ms.max(10));
        println!(
            "nfi worker: registered as worker {worker} (generation {generation}, \
             heartbeat every {heartbeat_ms}ms)"
        );

        // One registration epoch: a heartbeat thread keeps the lease
        // registry warm while the main thread polls and executes. The
        // epoch ends when the daemon stops recognizing this
        // (worker, generation) — then both loops wind down and the
        // outer loop registers afresh.
        let stale = AtomicBool::new(false);
        let done = AtomicBool::new(false);
        let gen_body = format!("{{\"generation\":{generation}}}");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(heartbeat);
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    let path = format!("/v1/workers/{worker}/heartbeat");
                    match post(&mut beats, &path, &gen_body) {
                        Ok((200, _)) => {}
                        Ok(_) => {
                            stale.store(true, Ordering::Relaxed);
                            break;
                        }
                        // Transient transport failure: keep beating;
                        // the poll loop owns the unreachable verdict.
                        Err(_) => {}
                    }
                }
            });
            while !stale.load(Ordering::Relaxed) {
                let path = format!("/v1/workers/{worker}/poll");
                let (status, text) = match post(&mut session, &path, &gen_body) {
                    Ok(reply) => reply,
                    Err(_) => {
                        std::thread::sleep(WORKER_RETRY);
                        continue;
                    }
                };
                if status != 200 {
                    stale.store(true, Ordering::Relaxed);
                    break;
                }
                let lease = parse_flat_object(text.trim()).and_then(|fields| {
                    Ok(match get_opt_u64(&fields, "assignment")? {
                        None => None,
                        Some(assignment) => Some((
                            assignment,
                            get_str(&fields, "plan")?,
                            get_opt_str(&fields, "context")?,
                        )),
                    })
                });
                match lease {
                    // The daemon already waited for work; ask again.
                    Ok(None) => {}
                    Ok(Some((assignment, plan, context))) => {
                        let result = execute_assignment(
                            assignment,
                            generation,
                            &plan,
                            context.as_deref(),
                            config,
                        );
                        let path = format!("/v1/workers/{worker}/result");
                        match post(&mut session, &path, &result) {
                            Ok((200, reply)) => println!(
                                "nfi worker: assignment {assignment} {}",
                                if reply.contains("duplicate") {
                                    "already covered (requeued elsewhere)"
                                } else {
                                    "done"
                                }
                            ),
                            Ok((status, reply)) => {
                                eprintln!(
                                    "nfi worker: result for assignment {assignment} \
                                     refused ({status}): {}",
                                    reply.trim()
                                );
                                stale.store(true, Ordering::Relaxed);
                            }
                            Err(e) => eprintln!(
                                "nfi worker: cannot deliver assignment {assignment}: {e} \
                                 (the scheduler will requeue it)"
                            ),
                        }
                    }
                    Err(e) => {
                        eprintln!("nfi worker: poll reply: {e}");
                        std::thread::sleep(WORKER_RETRY);
                    }
                }
            }
            done.store(true, Ordering::Relaxed);
        });
        eprintln!("nfi worker: registration went stale; re-registering");
    }
}

/// `nfi store`: state-dir maintenance. `gc` prunes segments whose
/// program is not among the targets (the same target resolution as
/// `campaign run`: positional files, `--program`/`--file`, or the
/// whole corpus) plus orphaned files; `--dry-run` only lists.
fn cmd_store(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    use neural_fault_injection::core::CampaignStore;
    match positional.first().copied() {
        Some("gc") => {
            let state_dir = flags.get("state-dir").ok_or("need --state-dir <dir>")?;
            // The generic flag parser would silently consume a
            // positional target that follows a valueless flag
            // (`--corpus extra.py` swallows `extra.py`) — on a command
            // that deletes data, refuse instead of guessing.
            for flag in ["corpus", "dry-run"] {
                if let Some(value) = flags.get(flag) {
                    if *value != "true" {
                        return Err(format!(
                            "--{flag} takes no value, but `{value}` followed it; list \
                             target files before the flags"
                        ));
                    }
                }
            }
            let store = CampaignStore::open(state_dir)?;
            // The live set must be named explicitly: defaulting to the
            // built-in corpus would silently delete the segments of
            // every custom-named program (serve submissions, --file
            // runs) — destructive from a bare invocation.
            let files = &positional[1..];
            if files.is_empty()
                && !flags.contains_key("program")
                && !flags.contains_key("file")
                && !flags.contains_key("corpus")
            {
                return Err(
                    "store gc needs the live set named explicitly: positional files, \
                     --program <name> / --file <path>, or --corpus to keep only the \
                     built-in corpus programs (everything else is removed)"
                        .to_string(),
                );
            }
            let targets = resolve_targets(files, flags)?;
            let live: std::collections::HashSet<&str> =
                targets.iter().map(|(name, _)| name.as_str()).collect();
            let dry_run = flags.contains_key("dry-run");
            let report = store.gc(&live, dry_run);
            let verb = if dry_run { "would remove" } else { "removed" };
            for (seg, reason) in &report.removed {
                println!(
                    "{verb} {} ({} bytes): {reason}",
                    seg.path.display(),
                    seg.bytes
                );
            }
            for warning in &report.errors {
                eprintln!("warning: {warning}");
            }
            println!(
                "store gc: {} segment(s) {verb} ({} bytes), {} kept, {} live program(s)",
                report.removed.len(),
                report.bytes_removed(),
                report.kept,
                live.len(),
            );
            if report.errors.is_empty() {
                Ok(())
            } else {
                // Scripts rely on the exit code: a partial sweep is a
                // failure, not a warning.
                Err(format!(
                    "store gc could not remove {} segment(s); see warnings above",
                    report.errors.len()
                ))
            }
        }
        Some("inspect") => {
            let state_dir = flags.get("state-dir").ok_or("need --state-dir <dir>")?;
            let store = CampaignStore::open(state_dir)?;
            let filter = flags.get("program").copied();
            if flags.contains_key("json") {
                // The same JSON builder the daemon's trace endpoint
                // renders through, so scripts get one escaping/format
                // discipline across both surfaces.
                use nfi_telemetry::json::JsonBuf;
                let mut j = JsonBuf::new();
                j.begin_obj();
                j.field_str("state_dir", state_dir);
                let mut shown = 0u64;
                j.key("segments").begin_arr();
                for seg in store.inspect() {
                    if let Some(want) = filter {
                        if seg.info.program.as_deref() != Some(want) {
                            continue;
                        }
                    }
                    shown += 1;
                    j.begin_obj();
                    j.field_str("path", &seg.info.path.display().to_string())
                        .field_u64("bytes", seg.info.bytes);
                    match (&seg.info.program, seg.info.module_fp, seg.info.machine_fp) {
                        (Some(program), Some(module_fp), Some(machine_fp)) => {
                            j.field_str("program", program)
                                .field_str("module_fp", &format!("{module_fp:016x}"))
                                .field_str("machine_fp", &format!("{machine_fp:016x}"))
                                .field_str("format", &seg.format.to_string())
                                .field_u64("lines", seg.lines as u64);
                            j.key("anchors").begin_arr();
                            for (anchor, count) in &seg.anchors {
                                j.begin_obj();
                                j.field_str("anchor", &format!("{anchor:016x}"))
                                    .field_u64("lines", *count as u64);
                                j.end_obj();
                            }
                            j.end_arr();
                        }
                        _ => {
                            j.key("orphan").bool_val(true);
                            j.field_str(
                                "note",
                                seg.info.note.as_deref().unwrap_or("no valid store header"),
                            );
                        }
                    }
                    j.end_obj();
                }
                j.end_arr();
                j.field_u64("shown", shown);
                if let Some(p) = filter {
                    j.field_str("program_filter", p);
                }
                j.end_obj();
                println!("{}", j.finish());
                return Ok(());
            }
            let mut shown = 0usize;
            for seg in store.inspect() {
                if let Some(want) = filter {
                    if seg.info.program.as_deref() != Some(want) {
                        continue;
                    }
                }
                shown += 1;
                match (&seg.info.program, seg.info.module_fp, seg.info.machine_fp) {
                    (Some(program), Some(module_fp), Some(machine_fp)) => {
                        println!(
                            "segment {} ({} bytes)\n  program={program} module_fp={module_fp:016x} \
                             machine_fp={machine_fp:016x} format={} lines={} anchors={}",
                            seg.info.path.display(),
                            seg.info.bytes,
                            seg.format,
                            seg.lines,
                            seg.anchors.len(),
                        );
                        for (anchor, count) in &seg.anchors {
                            println!("    anchor {anchor:016x}: {count} line(s)");
                        }
                    }
                    _ => println!(
                        "orphan {} ({} bytes): {}",
                        seg.info.path.display(),
                        seg.info.bytes,
                        seg.info.note.as_deref().unwrap_or("no valid store header"),
                    ),
                }
            }
            println!(
                "store inspect: {shown} segment(s){}",
                filter
                    .map(|p| format!(" for program {p}"))
                    .unwrap_or_default()
            );
            Ok(())
        }
        _ => Err("usage: nfi store gc --state-dir <dir> [--dry-run] \
             (--corpus | --program <name> | --file <path> | <file>...)\n\
             or:    nfi store inspect --state-dir <dir> [--program <name>] [--json]"
            .to_string()),
    }
}

fn cmd_experiments(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    use nfi_bench::experiments::*;
    use nfi_bench::render_table;
    let quick = flags.contains_key("quick");
    let exec = exec_config(flags)?;
    const NAMES: [&str; 8] = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"];
    let which = positional.first().copied().unwrap_or("all");
    if which != "all" && !NAMES.contains(&which) {
        return Err(format!(
            "unknown experiment `{which}` (expected one of {} or all)",
            NAMES.join(", ")
        ));
    }
    let want = |name: &str| which == "all" || which == name;
    if want("e1") {
        let rows = run_e1_with(
            exec,
            if quick { 8 } else { 24 },
            if quick { 6 } else { 12 },
            &[1, 2],
        );
        let (h, d) = e1_table(&rows);
        println!("{}", render_table("E1: RLHF alignment", &h, &d));
    }
    if want("e2") {
        let rows = run_e2_with(exec, if quick { 24 } else { 0 });
        let (h, d) = e2_table(&rows);
        println!("{}", render_table("E2: fault-class coverage", &h, &d));
    }
    if want("e3") {
        let rows = run_e3_with(exec, if quick { 16 } else { 48 }, 6);
        let (h, d) = e3_table(&rows);
        println!("{}", render_table("E3: tester effort", &h, &d));
    }
    if want("e4") {
        let rows = run_e4(if quick { 100 } else { 500 }, 9);
        let (h, d) = e4_table(&rows);
        println!("{}", render_table("E4: representativeness", &h, &d));
    }
    if want("e5") {
        let funnel = run_e5_with(exec, if quick { 24 } else { 0 });
        let (h, d) = e5_table(&funnel);
        println!("{}", render_table("E5: injection funnel", &h, &d));
    }
    if want("e6") {
        let sizes: &[usize] = if quick {
            &[32, 128]
        } else {
            &[64, 128, 256, 512, 1024]
        };
        let rows = run_e6_with(exec, sizes, if quick { 30 } else { 100 }, 3);
        let (h, d) = e6_table(&rows);
        println!("{}", render_table("E6: fine-tuning curve", &h, &d));
    }
    if want("e7") {
        let row = run_e7_with(exec, if quick { 12 } else { 0 });
        let (h, d) = e7_table(&row);
        println!("{}", render_table("E7: throughput", &h, &d));
    }
    if want("e8") {
        let rows = run_e8_with(exec, if quick { 8 } else { 24 }, if quick { 5 } else { 10 });
        let (h, d) = e8_table(&rows);
        println!("{}", render_table("E8: ablations", &h, &d));
    }
    Ok(())
}

//! `nl_session`: the paper's own loop. Set-up generates the SFI dataset
//! and fine-tunes the generator (§IV-1); each job is one seeded
//! scenario description taken through generate → simulated-tester
//! review → REINFORCE → critique refinement (bounded rounds), then the
//! final fault through integration and the differential experiment.

use crate::edits::Rng;
use crate::report::{
    digest, fnv, jobj, jstr, median, num, ratio, secs, JobStats, Memory, Report, Waterfall,
    FNV_START,
};
use crate::{add_time, bump, Config, Layers};
use nfi_bench::scenarios::{build_scenarios, Scenario};
use nfi_core::pipeline::{NeuralFaultInjector, PipelineConfig};
use nfi_core::run_session;
use nfi_inject::{integrate_snippet, run_experiment_cached, PatchError};
use nfi_llm::{refine_spec, GeneratedFault, TrainingRecord};
use nfi_pylite::{MachineConfig, Module};
use nfi_rlhf::{SimulatedTester, TargetProfile};
use std::collections::HashMap;
use std::time::Instant;

/// Review rounds per session before the tester's last verdict stands.
pub const MAX_ROUNDS: usize = 4;

/// Seconds one untraced cycle of every (scenario, profile) session takes
/// at the reference rate. A run is sized in whole cycles from
/// `--seconds`, at least one, so every seed runs the same work.
pub const CYCLE_S: f64 = 10.0;

/// The session layers in loop order: the parts of the traced waterfall.
const PARTS: [&str; 8] = [
    "nlp.analyze_s",
    "llm.candidates_s",
    "llm.generate_s",
    "rlhf.review_s",
    "rlhf.reinforce_s",
    "nlp.critique_s",
    "inject.integrate_s",
    "inject.experiment_s",
];

/// What the gate compares between a run and its same-seed rerun.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutcome {
    /// Scenario index in the suite.
    pub scenario: usize,
    /// Whether the tester accepted a generation.
    pub accepted: bool,
    /// Rounds taken.
    pub rounds: usize,
    /// Pattern of the final fault.
    pub pattern: String,
    /// The final snippet.
    pub snippet: String,
    /// The experiment's failure-mode key.
    pub mode: String,
}

impl SessionOutcome {
    fn digest(&self) -> u64 {
        let text = format!(
            "{}|{}|{}|{}|{}|{}",
            self.scenario, self.accepted, self.rounds, self.pattern, self.snippet, self.mode
        );
        digest(&text)
    }
}

/// One session's inputs, drawn from the seed.
struct Draw {
    scenario: usize,
    profile: TargetProfile,
    tester_seed: u64,
}

/// Sessions cycle through a seeded permutation of every (scenario,
/// tester profile) pair. A run ends on a whole cycle, so every seed runs
/// the same mix of work in a different order; only the order and the
/// testers' rating noise depend on the seed.
struct Draws {
    rng: Rng,
    order: Vec<usize>,
    scenarios: usize,
}

impl Draws {
    fn new(seed: u64, scenarios: usize) -> Draws {
        Draws {
            rng: Rng::new(seed, 0x5e55),
            order: Vec::new(),
            scenarios,
        }
    }

    /// Sessions in one cycle.
    fn cycle_len(&self) -> usize {
        2 * self.scenarios
    }

    fn next(&mut self) -> Draw {
        if self.order.is_empty() {
            self.order = (0..self.cycle_len()).collect();
            self.rng.shuffle(&mut self.order);
        }
        let pick = self.order.pop().expect("refilled above");
        Draw {
            scenario: pick / 2,
            profile: if pick.is_multiple_of(2) {
                TargetProfile::wants_retry()
            } else {
                TargetProfile::wants_crashes()
            },
            tester_seed: self.rng.next_u64(),
        }
    }
}

/// Runs one session on a fresh thread with every memo table empty, as
/// a fresh `nfi session` process would: a session, its traced twin and
/// its gate rerun then all start from the same cache state.
fn fresh(
    job: impl FnOnce() -> Result<SessionOutcome, String> + Send,
) -> Result<SessionOutcome, String> {
    crate::campaign::clear_caches();
    std::thread::scope(|s| s.spawn(job).join())
        .unwrap_or_else(|_| Err("session thread panicked".to_string()))
}

/// The final fault integrated into the pristine module, as the one-shot
/// pipeline does it.
fn integrate(module: &Module, fault: &GeneratedFault) -> Result<Module, String> {
    match integrate_snippet(module, &fault.snippet) {
        Ok(m) => Ok(m),
        Err(PatchError::EmptySnippet) => Ok(fault.module.clone()),
        Err(e) => Err(format!("integration failed: {e}")),
    }
}

/// One untraced session job.
fn session_job(
    injector: &mut NeuralFaultInjector,
    s: &Scenario,
    module: &Module,
    draw: &Draw,
) -> Result<SessionOutcome, String> {
    let tester = SimulatedTester::new(draw.profile.clone(), draw.tester_seed);
    let result = run_session(injector, &s.description, module, &tester, MAX_ROUNDS)
        .map_err(|e| e.to_string())?;
    let fault = result.final_fault().ok_or("session ran no round")?;
    let faulty = integrate(module, fault)?;
    let experiment = run_experiment_cached(module, &faulty, &injector.config().machine);
    Ok(SessionOutcome {
        scenario: draw.scenario,
        accepted: result.accepted,
        rounds: result.rounds.len(),
        pattern: fault.pattern.clone(),
        snippet: fault.snippet.clone(),
        mode: experiment.overall.key().to_string(),
    })
}

/// The same session driven one layer call at a time (the loop of
/// `nfi_core::run_session`), timing each call.
fn traced_session_job(
    injector: &mut NeuralFaultInjector,
    s: &Scenario,
    module: &Module,
    draw: &Draw,
    l: &mut Layers,
) -> Result<SessionOutcome, String> {
    let tester = SimulatedTester::new(draw.profile.clone(), draw.tester_seed);
    let t = Instant::now();
    let mut spec = nfi_nlp::analyze(&s.description, Some(module));
    add_time(l, "nlp.analyze_s", t);
    let mut last: Option<GeneratedFault> = None;
    let mut rounds = 0;
    let mut accepted = false;
    for _ in 0..MAX_ROUNDS {
        rounds += 1;
        let t = Instant::now();
        let cands = injector.llm().candidates(&spec, module);
        add_time(l, "llm.candidates_s", t);
        if cands.is_empty() {
            return Err("no fault candidate applies".to_string());
        }
        let t = Instant::now();
        let fault = injector
            .llm_mut()
            .generate(&spec, module)
            .ok_or("no fault candidate applies")?;
        add_time(l, "llm.generate_s", t);
        let t = Instant::now();
        let feedback = tester.review(&fault);
        add_time(l, "rlhf.review_s", t);
        let t = Instant::now();
        let chosen = cands
            .iter()
            .position(|c| c.pattern == fault.pattern)
            .unwrap_or(0);
        let advantage = (feedback.rating - 3.0) / 2.0;
        injector
            .llm_mut()
            .policy_mut()
            .reinforce(&cands, chosen, advantage, 0.2);
        add_time(l, "rlhf.reinforce_s", t);
        last = Some(fault);
        if feedback.accepted {
            accepted = true;
            break;
        }
        if let Some(text) = feedback.critique {
            let t = Instant::now();
            let intents = nfi_nlp::parse_critique(&text);
            spec = refine_spec(&spec, &intents);
            add_time(l, "nlp.critique_s", t);
        }
    }
    let fault = last.ok_or("session ran no round")?;
    let t = Instant::now();
    let faulty = integrate(module, &fault)?;
    add_time(l, "inject.integrate_s", t);
    let t = Instant::now();
    let experiment = run_experiment_cached(module, &faulty, &injector.config().machine);
    add_time(l, "inject.experiment_s", t);
    bump(l, "rlhf.rounds_per_session", rounds as f64);
    bump(l, "rlhf.accept_share", f64::from(u8::from(accepted)));
    Ok(SessionOutcome {
        scenario: draw.scenario,
        accepted,
        rounds,
        pattern: fault.pattern,
        snippet: fault.snippet,
        mode: experiment.overall.key().to_string(),
    })
}

/// A fine-tuned generator plus the time fine-tuning took.
struct Setup {
    injector: NeuralFaultInjector,
    fine_tune_s: f64,
    total_s: f64,
}

/// Generates the SFI dataset under the library's default configuration
/// (the one `nfi dataset` uses) and fine-tunes a fresh generator on it.
fn set_up() -> (Setup, Vec<TrainingRecord>) {
    let t = Instant::now();
    let config = nfi_dataset::DatasetConfig::default();
    let records = nfi_dataset::generate(nfi_corpus::all(), &config).to_training_records();
    let mut injector = NeuralFaultInjector::new(PipelineConfig {
        machine: MachineConfig::default(),
        ..PipelineConfig::default()
    });
    let ft = Instant::now();
    injector.fine_tune(records.clone());
    let fine_tune_s = secs(ft);
    let setup = Setup {
        injector,
        fine_tune_s,
        total_s: secs(t),
    };
    (setup, records)
}

/// `nl_session`.
///
/// # Errors
///
/// Reports failures that stop the workload from producing a result.
pub fn nl_session(cfg: &Config) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut records = Vec::new();
    for _ in 0..cfg.setups.max(2) {
        let (s, r) = set_up();
        setups.push(s);
        records = r;
    }
    let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());
    let fine_tune_s = median(&setups.iter().map(|s| s.fine_tune_s).collect::<Vec<_>>());
    let tokens: usize = records
        .iter()
        .map(|r| nfi_neural::lm::code_tokens(&r.snippet).len())
        .sum::<usize>()
        * nfi_llm::LlmConfig::default().lm_epochs;
    let mut rerun = setups.pop().ok_or("no set-up ran")?.injector;
    let mut injector = setups.pop().ok_or("no set-up ran")?.injector;
    drop(setups);

    let scenarios = build_scenarios(0);
    let mut modules: HashMap<&str, Module> = HashMap::new();
    for s in &scenarios {
        if !modules.contains_key(s.program.name) {
            modules.insert(
                s.program.name,
                s.program.module().map_err(|e| e.to_string())?,
            );
        }
    }
    let cycles = (cfg.phase_seconds() / CYCLE_S).round().max(1.0) as usize;
    let mut draws = Draws::new(cfg.seed, scenarios.len());
    // One window: consecutive sessions differ too much in cost for a
    // block of them to stand for the run; whole cycles make the window
    // the same work on every seed.
    let mut stats = JobStats::new(f64::INFINITY);
    let mut sequence = Vec::new();
    let mut outcomes: Vec<Option<SessionOutcome>> = Vec::new();
    let mut failed = 0u64;
    // The same sessions on an identically set-up generator. Traced runs
    // interleave it with the untraced one, so both see the same machine
    // conditions; untraced runs replay it afterwards, off the clock.
    let mut total = Layers::new();
    let mut traced_wall = 0.0;
    let mut mismatches = 0u64;
    let mut rerun_matches = |draw: &Draw, want: &Option<SessionOutcome>, total: &mut Layers| {
        let s = &scenarios[draw.scenario];
        let module = &modules[s.program.name];
        let rerun = &mut rerun;
        let t = Instant::now();
        let got = if cfg.trace {
            let mut l = Layers::new();
            let got = fresh(|| traced_session_job(rerun, s, module, draw, &mut l));
            for (k, v) in l {
                bump(total, k, v);
            }
            got
        } else {
            fresh(|| session_job(rerun, s, module, draw))
        };
        (got.ok() == *want, secs(t))
    };
    while sequence.len() < cycles * draws.cycle_len() {
        let draw = draws.next();
        let s = &scenarios[draw.scenario];
        let module = &modules[s.program.name];
        let injector = &mut injector;
        let t = Instant::now();
        let result = fresh(|| session_job(injector, s, module, &draw));
        let dt = secs(t);
        let outcome = match result {
            Ok(o) => {
                stats.record(dt, 1);
                Some(o)
            }
            Err(e) => {
                eprintln!("nl_session: scenario {}: {e}", draw.scenario);
                failed += 1;
                None
            }
        };
        if cfg.trace {
            let (same, dt) = rerun_matches(&draw, &outcome, &mut total);
            traced_wall += dt;
            mismatches += u64::from(!same);
        }
        outcomes.push(outcome);
        sequence.push(draw);
    }
    let mem = Memory::of(None);
    if !cfg.trace {
        for (draw, want) in sequence.iter().zip(&outcomes) {
            mismatches += u64::from(!rerun_matches(draw, want, &mut total).0);
        }
    }
    failed += mismatches;
    let attempted = sequence.len() as u64;
    let mut report = Report {
        correct: failed == 0,
        attempted,
        failed,
        ..Report::default()
    };
    if cfg.trace {
        let jobs = sequence.len() as f64;
        let waterfall = Waterfall {
            parts: PARTS
                .iter()
                .map(|p| {
                    (
                        p.to_string(),
                        ratio(total.get(p).copied().unwrap_or(0.0), jobs),
                    )
                })
                .collect(),
            wall: ratio(traced_wall, jobs),
        };
        let mut layers: Layers = total.iter().map(|(k, v)| (*k, ratio(*v, jobs))).collect();
        layers.insert("neural.fine_tune_s", fine_tune_s);
        layers.insert("neural.tokens_per_s", ratio(tokens as f64, fine_tune_s));
        layers.insert(
            "trace.overhead_share",
            ratio(traced_wall, stats.wall()) - 1.0,
        );
        crate::push_layers(&mut report, &layers, &waterfall, setup_s, mem);
    } else {
        stats.push_end_to_end(&mut report, setup_s, mem);
    }
    let accepted = outcomes.iter().flatten().filter(|o| o.accepted).count();
    let out_digest = outcomes.iter().fold(FNV_START, |h, o| {
        fnv(
            h,
            &o.as_ref().map_or(0, SessionOutcome::digest).to_le_bytes(),
        )
    });
    report.detail(
        "sessions",
        jobj(&[
            (
                "accept_share",
                num(ratio(accepted as f64, attempted as f64)),
            ),
            ("max_rounds", MAX_ROUNDS.to_string()),
            ("rerun_mismatches", mismatches.to_string()),
            ("fine_tune_records", records.len().to_string()),
            ("fine_tune_tokens", tokens.to_string()),
        ]),
    );
    report.detail("jobs", stats.detail_json());
    report.detail("output_digest", jstr(&format!("{out_digest:016x}")));
    Ok(report)
}

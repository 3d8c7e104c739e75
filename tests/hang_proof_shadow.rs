//! The VM's hang proof, checked by enumeration at the production step
//! budget.
//!
//! In shadow mode a proof does not stop the run: the machine records
//! the outcome it would have returned and runs on to its true end. This
//! test runs, in shadow mode,
//!
//! * every unit of every corpus program's cold campaign,
//! * every candidate the fine-tuned generator returns for the
//!   scenario suite's specs, and
//! * the final fault of every (scenario, tester profile) session,
//!
//! and fails if a predicted run does not end in `Hung(StepBudget)` at
//! the budget, or ends with an outcome that differs from the predicted
//! one in any field but `steps`. It also fails unless every `pipeline`
//! budget run was predicted. Every run goes through the uncached
//! reference path (`reference_run`, `run_experiment`), so no memo table
//! hides a run from the check.
//!
//! The budget runs take about 20 seconds in a release build and far
//! longer in a debug one, so debug builds skip the test:
//! `cargo test --release --test hang_proof_shadow -- --nocapture`
//! runs it and prints proven hangs against budget runs per program.

use nfi_bench::scenarios::build_scenarios;
use nfi_core::pipeline::{NeuralFaultInjector, PipelineConfig};
use nfi_core::service::{plan_campaign, reference_run};
use nfi_core::session::run_session;
use nfi_inject::{integrate_snippet, run_experiment, PatchError};
use nfi_pylite::machine::shadow::{self, ShadowRun};
use nfi_pylite::{HangKind, MachineConfig, Module, RunStatus};
use nfi_rlhf::{SimulatedTester, TargetProfile};
use std::collections::BTreeMap;

/// Tester seed for every session.
const TESTER_SEED: u64 = 907;

/// Review rounds per session, as the benchmark's session workload runs.
const MAX_ROUNDS: usize = 4;

/// Proven hangs and budget runs, per program.
#[derive(Default)]
struct Tally {
    proven: usize,
    budget: usize,
}

/// Checks every prediction in `runs` against its run and tallies them.
fn check(source: &str, program: &str, runs: &[ShadowRun], tally: &mut BTreeMap<String, Tally>) {
    let budget = MachineConfig::default().step_budget;
    let t = tally.entry(program.to_string()).or_default();
    for run in runs {
        if run.status == RunStatus::Hung(HangKind::StepBudget) {
            t.budget += 1;
        }
        let Some(at) = run.proven_at else { continue };
        t.proven += 1;
        assert_eq!(
            (&run.status, run.steps),
            (&RunStatus::Hung(HangKind::StepBudget), budget),
            "{source} `{program}`: a hang proven at step {at} ended otherwise"
        );
        assert_eq!(
            run.proven.as_deref(),
            Some(run.outcome.as_str()),
            "{source} `{program}`: the outcome at the proof (step {at}) differs from the budget run's"
        );
    }
}

/// The final fault integrated into the pristine module, as the one-shot
/// pipeline does it.
fn integrate(module: &Module, snippet: &str, mutated: &Module) -> Module {
    match integrate_snippet(module, snippet) {
        Ok(m) => m,
        Err(PatchError::EmptySnippet) => mutated.clone(),
        Err(e) => panic!("integration failed: {e}"),
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs every hang to the 2,000,000-step budget; run with --release"
)]
fn every_hang_proof_matches_its_budget_run() {
    let machine = MachineConfig::default();
    let mut campaigns = BTreeMap::new();
    for program in nfi_corpus::all() {
        let spec =
            plan_campaign(program.name, program.source, machine.seed).expect("plannable corpus");
        let (run, runs) = shadow::record(|| reference_run(&spec, &machine));
        run.expect("campaign executes");
        check("campaign", program.name, &runs, &mut campaigns);
    }

    let records = nfi_dataset::generate(nfi_corpus::all(), &nfi_dataset::DatasetConfig::default())
        .to_training_records();
    let mut injector = NeuralFaultInjector::new(PipelineConfig {
        machine: machine.clone(),
        ..PipelineConfig::default()
    });
    injector.fine_tune(records);
    let scenarios = build_scenarios(0);
    let modules: Vec<Module> = scenarios
        .iter()
        .map(|s| s.program.module().expect("corpus parses"))
        .collect();

    let mut candidates = BTreeMap::new();
    for (s, module) in scenarios.iter().zip(&modules) {
        let spec = nfi_nlp::analyze(&s.description, Some(module));
        for c in injector.llm().candidates(&spec, module) {
            let faulty = integrate(module, &c.snippet, &c.module);
            let (_, runs) = shadow::record(|| run_experiment(module, &faulty, &machine));
            check("candidate", s.program.name, &runs, &mut candidates);
        }
    }

    let mut sessions = BTreeMap::new();
    for (s, module) in scenarios.iter().zip(&modules) {
        for profile in [TargetProfile::wants_retry(), TargetProfile::wants_crashes()] {
            let tester = SimulatedTester::new(profile, TESTER_SEED);
            let result = run_session(&mut injector, &s.description, module, &tester, MAX_ROUNDS)
                .expect("session runs");
            let fault = result.final_fault().expect("a session runs a round");
            let faulty = integrate(module, &fault.snippet, &fault.module);
            let (_, runs) = shadow::record(|| run_experiment(module, &faulty, &machine));
            check("session", s.program.name, &runs, &mut sessions);
        }
    }

    println!("program      campaign (proven/budget)  candidates  sessions");
    for program in nfi_corpus::all() {
        let cell = |t: &BTreeMap<String, Tally>| {
            t.get(program.name)
                .map_or("0/0".to_string(), |t| format!("{}/{}", t.proven, t.budget))
        };
        println!(
            "{:<12} {:>24}  {:>10}  {:>8}",
            program.name,
            cell(&campaigns),
            cell(&candidates),
            cell(&sessions)
        );
    }
    // `pipeline`'s hangs are spins of one task or of two sleeping ones:
    // every one of them is proven, so the check cannot pass vacuously.
    for (label, tally) in [
        ("campaign", &campaigns),
        ("candidate", &candidates),
        ("session", &sessions),
    ] {
        let t = tally.get("pipeline");
        assert!(
            t.is_some_and(|t| t.proven > 0 && t.proven == t.budget),
            "{label}: not every `pipeline` budget run was proven ({} of {})",
            t.map_or(0, |t| t.proven),
            t.map_or(0, |t| t.budget)
        );
    }
}

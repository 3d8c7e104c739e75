//! Differential parity of the cold-path optimizations.
//!
//! The compiled-code cache and the VM hot-loop overhaul (global slot
//! resolution, scratch runnable buffer, machine reuse) are pure
//! performance changes: campaign documents and per-seed run outcomes
//! must not change by a single byte. These tests pin that contract
//! against the compile-per-run reference path across the whole seed
//! corpus.

use nfi_core::exec::ExecConfig;
use nfi_core::service::{exec_spec, plan_campaign, reference_run};
use nfi_pylite::{fingerprint, Machine, MachineConfig};
use std::rc::Rc;

/// Every corpus program's campaign document must be byte-identical
/// between cached-code execution (compile once through the process-wide
/// `CodeCache`, reused machine) and the compile-per-run reference
/// (`reference_run`: fresh machine and fresh compile for every test of
/// every unit, no cache).
///
/// Units are sampled with a fixed stride so the test stays fast while
/// still covering every program and a spread of operators; the document
/// header, outcome lines, and aggregate report line are all compared.
#[test]
fn cached_campaign_documents_match_compile_per_run_across_corpus() {
    let machine = MachineConfig::default();
    for program in nfi_corpus::all() {
        let mut spec =
            plan_campaign(program.name, program.source, machine.seed).expect("plannable corpus");
        // Keep every ~6th unit (at least 4 per program): full campaigns
        // across 12 programs would dominate the suite's wall time.
        let stride = (spec.units.len() / 4).clamp(1, 6);
        spec.units = spec.units.into_iter().step_by(stride).collect();

        let cached =
            exec_spec(&spec, &machine, ExecConfig::sequential()).expect("cached execution");
        let reference = reference_run(&spec, &machine).expect("reference execution");
        assert_eq!(
            cached.encode(),
            reference.encode(),
            "campaign document for `{}` changed under cached-code execution",
            program.name
        );
    }
}

/// The scheduler's scratch-buffer reuse and `Machine::reset` must
/// preserve seed → interleaving exactly: for every scheduler seed, a
/// reused machine (reset between runs) produces the same `RunOutcome`
/// as a fresh machine, across every corpus program.
#[test]
fn reused_machine_preserves_per_seed_outcomes_across_corpus() {
    let mut reused = Machine::new(MachineConfig::default());
    for program in nfi_corpus::all() {
        let module = program.module().expect("corpus parses");
        let code = nfi_core::cache::CodeCache::global()
            .compile(&module, fingerprint(&module))
            .expect("corpus compiles");
        for seed in 0..8u64 {
            let config = MachineConfig {
                seed,
                ..MachineConfig::default()
            };
            let mut fresh = Machine::new(config.clone());
            let fresh_out = fresh.run_module(&module).expect("corpus compiles");
            reused.reset(config);
            let reused_out = reused.run_code(Rc::clone(&code));
            assert_eq!(
                format!("{fresh_out:?}"),
                format!("{reused_out:?}"),
                "seed {seed} outcome diverged on `{}`",
                program.name
            );
        }
    }
}

//! The parallel execution engine.
//!
//! Fault-injection campaigns are embarrassingly parallel — every plan
//! application and every harness run is independent. This module fans
//! that work across a rayon work-stealing pool while keeping one hard
//! guarantee:
//!
//! > **Results are bitwise identical for every thread count.**
//!
//! Three rules make that hold:
//!
//! 1. every unit of work derives its inputs (seed, plan, scenario) from
//!    its *index*, never from shared mutable state,
//! 2. outputs are collected in input order (the pool reorders execution,
//!    not results),
//! 3. aggregation folds over that ordered collection with commutative
//!    counters ([`crate::service::StringReport`] uses `BTreeMap`
//!    counts), so the reduction is order-independent anyway.
//!
//! Campaigns run through [`crate::service::exec_units`], which maps
//! [`execute_plan`] over a spec's units with [`par_map`]; the E1–E8
//! drivers call [`par_map`] directly. `threads = 1` therefore
//! reproduces the sequential behaviour exactly, and `threads = N`
//! reproduces `threads = 1`. The parity suite in
//! `tests/parallel_parity.rs` enforces this.

use crate::cache::MutantCache;
use nfi_inject::memo::ExperimentCache;
use nfi_inject::ExperimentReport;
use nfi_pylite::{MachineConfig, Module};
use nfi_sfi::FaultPlan;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

/// Configuration for the execution engine: its thread count, the one
/// in-process parallelism knob. Which units run is the caller's
/// choice (the `accept` predicate of [`crate::service::exec_units`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads. `1` runs inline on the caller thread (exactly the
    /// old sequential behaviour); the default is the machine's available
    /// parallelism.
    pub threads: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl ExecConfig {
    /// Strictly sequential execution.
    pub fn sequential() -> Self {
        ExecConfig { threads: 1 }
    }

    /// A fixed worker count (`0` is clamped to `1`).
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads: threads.max(1),
        }
    }
}

/// Ordered parallel map: applies `f` to every item, returning results in
/// input order. With `threads = 1` this is a plain sequential iterator —
/// no pool, no thread spawn, byte-for-byte the old code path.
pub fn par_map<T: Sync, R: Send>(
    config: ExecConfig,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    par_map_indexed(config, items.len(), |i| f(&items[i]))
}

/// Ordered parallel map over indices `0..n`, for work units that derive
/// everything from their index (per-seed experiment runs, per-scenario
/// injectors).
pub fn par_map_indexed<R: Send>(
    config: ExecConfig,
    n: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    if config.threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    ThreadPoolBuilder::new()
        .num_threads(config.threads)
        .build()
        .expect("thread pool")
        .install(|| (0..n).into_par_iter().map(f).collect())
}

/// Applies one plan to a module and runs the differential experiment,
/// both through the process-wide mutant and experiment caches; `None`
/// when the plan's site is gone. This is the engine's unit of work:
/// outcomes depend only on (module, plan, machine config), never on
/// shared mutable state, so a cache hit returns what the run would
/// have.
pub fn execute_plan(
    module: &Module,
    module_fp: u64,
    plan: &FaultPlan,
    machine: &MachineConfig,
) -> Option<ExperimentReport> {
    MutantCache::global()
        .apply(module, module_fp, plan)
        .map(|mutant| {
            ExperimentCache::global().run_keyed(
                module,
                &mutant.fault.module,
                module_fp,
                mutant.module_fp,
                machine,
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_uses_available_parallelism() {
        assert!(ExecConfig::default().threads >= 1);
        assert_eq!(ExecConfig::sequential().threads, 1);
        assert_eq!(ExecConfig::with_threads(0).threads, 1);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let seq = par_map(ExecConfig::sequential(), &items, |x| x * 3);
        let par = par_map(ExecConfig::with_threads(8), &items, |x| x * 3);
        assert_eq!(seq, par);
        assert_eq!(seq[33], 99);
    }

    #[test]
    fn par_map_indexed_matches_sequential() {
        let seq = par_map_indexed(ExecConfig::sequential(), 50, |i| i * i);
        let par = par_map_indexed(ExecConfig::with_threads(4), 50, |i| i * i);
        assert_eq!(seq, par);
    }
}

//! The content-addressed mutant cache.
//!
//! Applying a fault plan is deterministic: the same operator at the
//! same site of the same module always yields the same mutant. Yet the
//! seed-state drivers re-applied identical mutants from scratch on
//! every run — each E-driver rerun, each shard re-patching what a
//! sibling already patched.
//!
//! [`MutantCache`] memoizes [`nfi_sfi::apply_plan`] behind
//! `Arc<InjectedFault>` keyed by **(module fingerprint, plan hash)**:
//!
//! * the module fingerprint ([`nfi_pylite::fingerprint()`]) addresses the
//!   *content* being mutated, so two campaigns over equal sources share
//!   entries while a one-line edit invalidates them;
//! * the plan hash ([`nfi_sfi::plan_hash`]) addresses the mutation
//!   itself (operator key + site), independent of which process or
//!   shard enumerated it.
//!
//! A hit hands back the same `Arc` the miss created — no re-patching,
//! no AST clone — which is what lets repeated campaign runs scale with
//! the cost of the *experiments* instead of the mutations.

use nfi_inject::memo::Memo;
use nfi_pylite::Module;
use nfi_sfi::{apply_plan, plan_hash, FaultPlan, InjectedFault};
use std::sync::{Arc, OnceLock};

pub use nfi_inject::codecache::{CodeCache, CODE_CACHE_CAPACITY};
pub use nfi_inject::memo::{CacheStats, SuiteCache, DEFAULT_CACHE_CAPACITY};

/// A memoized mutant: the applied fault plus the mutated module's own
/// fingerprint, computed once at miss time so warm hits never re-print
/// the AST to re-derive it (it doubles as the experiment-cache key).
#[derive(Debug, Clone)]
pub struct CachedMutant {
    /// The applied fault (module, site, provenance) behind a shared
    /// pointer — hits hand back the same allocation the miss created.
    pub fault: Arc<InjectedFault>,
    /// Fingerprint of `fault.module`.
    pub module_fp: u64,
}

/// Content-addressed memo table for applied mutants, keyed by
/// (module fingerprint, plan hash). `None` entries record stale plans
/// whose site vanished — staleness is memoized too.
pub struct MutantCache {
    memo: Memo<(u64, u64), Option<CachedMutant>>,
}

impl MutantCache {
    /// An empty cache holding at most [`DEFAULT_CACHE_CAPACITY`]
    /// mutants (tests; the shared one is [`MutantCache::global`]).
    pub fn new() -> MutantCache {
        MutantCache {
            memo: Memo::new(DEFAULT_CACHE_CAPACITY),
        }
    }

    /// The process-wide cache the execution engine and campaign service
    /// share.
    pub fn global() -> &'static MutantCache {
        static GLOBAL: OnceLock<MutantCache> = OnceLock::new();
        GLOBAL.get_or_init(MutantCache::new)
    }

    /// Applies (or replays) `plan` against `module`, whose fingerprint
    /// the caller computed once for the whole campaign.
    pub fn apply(&self, module: &Module, module_fp: u64, plan: &FaultPlan) -> Option<CachedMutant> {
        self.memo
            .get_or_insert_with((module_fp, plan_hash(plan)), || {
                apply_plan(module, plan).map(|fault| CachedMutant {
                    module_fp: nfi_pylite::fingerprint(&fault.module),
                    fault: Arc::new(fault),
                })
            })
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Drops every entry and zeroes the counters (cold-start benches).
    pub fn clear(&self) {
        self.memo.clear();
    }
}

impl Default for MutantCache {
    fn default() -> Self {
        MutantCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfi_pylite::{fingerprint, parse};
    use nfi_sfi::Campaign;

    fn module() -> Module {
        parse("def f(x):\n    log(x)\n    return x + 1\ndef test_f():\n    assert f(1) == 2\n")
            .unwrap()
    }

    #[test]
    fn hit_returns_the_same_mutant_arc() {
        let m = module();
        let fp = fingerprint(&m);
        let campaign = Campaign::full(&m);
        let cache = MutantCache::new();
        let plan = &campaign.plans()[0];
        let a = cache.apply(&m, fp, plan).expect("applies");
        let b = cache.apply(&m, fp, plan).expect("applies");
        assert!(Arc::ptr_eq(&a.fault, &b.fault), "hit must not re-patch");
        assert_eq!(a.module_fp, nfi_pylite::fingerprint(&a.fault.module));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn cached_mutants_equal_direct_application() {
        let m = module();
        let fp = fingerprint(&m);
        let campaign = Campaign::full(&m);
        let cache = MutantCache::new();
        for plan in campaign.plans() {
            let cached = cache.apply(&m, fp, plan).expect("applies");
            let direct = campaign.apply(plan).expect("applies");
            assert_eq!(
                nfi_pylite::print_module(&cached.fault.module),
                nfi_pylite::print_module(&direct.module)
            );
            assert_eq!(cached.fault.description, direct.description);
        }
    }

    #[test]
    fn distinct_modules_do_not_share_entries() {
        let a = module();
        let b =
            parse("def f(x):\n    log(x)\n    return x + 2\ndef test_f():\n    assert f(1) == 3\n")
                .unwrap();
        let campaign = Campaign::full(&a);
        let plan = &campaign.plans()[0];
        let cache = MutantCache::new();
        cache.apply(&a, fingerprint(&a), plan);
        cache.apply(&b, fingerprint(&b), plan);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn bounded_cache_evicts_but_stays_correct() {
        let m = module();
        let fp = fingerprint(&m);
        let campaign = Campaign::full(&m);
        let plans = campaign.plans();
        assert!(plans.len() > 2, "corpus module should enumerate > 2 plans");
        let cache = MutantCache { memo: Memo::new(2) };
        for plan in plans {
            cache.apply(&m, fp, plan);
        }
        let n = plans.len() as u64;
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, n));
        // The first plan was cleared: it misses and recomputes to the
        // same mutant.
        let direct = campaign.apply(&plans[0]).expect("applies");
        let replay = cache.apply(&m, fp, &plans[0]).expect("applies");
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, n + 1));
        assert_eq!(
            nfi_pylite::print_module(&replay.fault.module),
            nfi_pylite::print_module(&direct.module)
        );
    }
}

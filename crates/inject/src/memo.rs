//! Experiment memoization: content-addressed caching of differential
//! experiment runs.
//!
//! [`run_experiment`](crate::experiment::run_experiment) is
//! deterministic — the machine's scheduler, race detector, and virtual
//! clock are all seed-driven — so its result is a pure function of
//! (pristine module, faulty module, machine config).
//! Repeated drivers (schedule exploration sweeps, E-driver reruns, the
//! sequential-then-parallel benchmark pairs) therefore keep re-running
//! byte-identical experiments. This module memoizes them behind a
//! process-wide content-addressed cache keyed by
//! `(fingerprint(pristine), fingerprint(faulty), machine.fingerprint())`.
//!
//! Because the key is content-addressed, memoization can never change a
//! result — a hit returns exactly what the miss computed — so cached and
//! uncached runs are bit-identical by construction.
//!
//! The module's one bounded table, `Table`, backs all four caches: this
//! experiment cache and `nfi_core`'s mutant cache hold one behind a lock
//! ([`Memo`]); [`SuiteCache`] and [`crate::codecache::CodeCache`] hold
//! one per thread.

use crate::experiment::{run_experiment_in, run_experiment_keyed, ExperimentReport};
use crate::harness::{run_suite_in, SuiteReport};
use nfi_pylite::{fingerprint, Machine, MachineConfig, Module};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Hit/miss counters of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

/// The default entry cap for the process-wide caches: far above what
/// one corpus campaign populates (a few thousand entries), so its hit
/// rates are unchanged, while still bounding a long-lived service that
/// streams campaigns through one process.
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

/// The hits and misses of one cache, summed over every thread that
/// looks it up.
pub(crate) struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Counters {
    pub(crate) const fn new() -> Counters {
        Counters {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// The one bounded table behind all four caches: a `HashMap` that
/// empties itself when inserting a new key would pass its cap. Below
/// the cap it never forgets an entry; at the cap one `clear` stands in
/// for an eviction policy, which costs a long-lived process one cold
/// lookup per entry it still needed instead of a scan of the table on
/// every miss.
pub(crate) struct Table<K, V> {
    map: HashMap<K, V>,
    cap: usize,
}

impl<K: Eq + Hash, V: Clone> Table<K, V> {
    /// An empty table holding at most `cap` entries (at least 1).
    pub(crate) fn new(cap: usize) -> Table<K, V> {
        Table {
            map: HashMap::new(),
            cap: cap.max(1),
        }
    }

    /// The value memoized under `key`, counting the hit.
    pub(crate) fn get(&self, key: &K, counters: &Counters) -> Option<V> {
        let value = self.map.get(key).cloned();
        if value.is_some() {
            counters.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Memoizes the value a miss computed, counting the miss. A
    /// concurrent duplicate compute of a resident key overwrites it in
    /// place and never clears the table.
    pub(crate) fn insert(&mut self, key: K, value: V, counters: &Counters) {
        counters.misses.fetch_add(1, Ordering::Relaxed);
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            self.map.clear();
        }
        self.map.insert(key, value);
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }
}

/// A hit-counting memo table shared by every thread: the scaffolding
/// behind [`ExperimentCache`] and `nfi_core`'s mutant cache. Values are
/// computed outside the lock — concurrent misses on the same key
/// duplicate work once but never block the whole pool on one compute.
pub struct Memo<K, V> {
    table: Mutex<Table<K, V>>,
    counters: Counters,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo table holding at most `capacity` entries (at
    /// least 1).
    pub fn new(capacity: usize) -> Memo<K, V> {
        Memo {
            table: Mutex::new(Table::new(capacity)),
            counters: Counters::new(),
        }
    }

    /// Returns the memoized value for `key`, computing and recording it
    /// on a miss.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(value) = self
            .table
            .lock()
            .expect("memo lock")
            .get(&key, &self.counters)
        {
            return value;
        }
        let value = compute();
        self.table
            .lock()
            .expect("memo lock")
            .insert(key, value.clone(), &self.counters);
        value
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.counters.stats()
    }

    /// Drops every entry and zeroes the counters (cold-start benches).
    pub fn clear(&self) {
        self.table.lock().expect("memo lock").clear();
        self.counters.reset();
    }
}

/// A memo table for differential experiments.
pub struct ExperimentCache {
    memo: Memo<(u64, u64, u64), ExperimentReport>,
}

impl ExperimentCache {
    /// An empty cache holding at most [`DEFAULT_CACHE_CAPACITY`]
    /// reports (tests; the shared one is [`ExperimentCache::global`]).
    pub fn new() -> ExperimentCache {
        ExperimentCache {
            memo: Memo::new(DEFAULT_CACHE_CAPACITY),
        }
    }

    /// The process-wide cache.
    pub fn global() -> &'static ExperimentCache {
        static GLOBAL: OnceLock<ExperimentCache> = OnceLock::new();
        GLOBAL.get_or_init(ExperimentCache::new)
    }

    /// Runs (or replays) the experiment for pre-computed module
    /// fingerprints — the hot-loop entry point for campaign executors
    /// that already fingerprint the pristine module once per campaign.
    pub fn run_keyed(
        &self,
        pristine: &Module,
        faulty: &Module,
        pristine_fp: u64,
        faulty_fp: u64,
        config: &MachineConfig,
    ) -> ExperimentReport {
        self.memo
            .get_or_insert_with((pristine_fp, faulty_fp, config.fingerprint()), || {
                run_experiment_keyed(pristine, faulty, pristine_fp, faulty_fp, config)
            })
    }

    /// [`ExperimentCache::run_keyed`] computing misses on a
    /// caller-provided machine, so a driver sweeping many experiments on
    /// one thread (schedule exploration) keeps a single machine's
    /// allocations warm across every miss.
    pub fn run_keyed_in(
        &self,
        machine: &mut Machine,
        pristine: &Module,
        faulty: &Module,
        pristine_fp: u64,
        faulty_fp: u64,
        config: &MachineConfig,
    ) -> ExperimentReport {
        self.memo
            .get_or_insert_with((pristine_fp, faulty_fp, config.fingerprint()), || {
                run_experiment_in(machine, pristine, faulty, pristine_fp, faulty_fp, config)
            })
    }

    /// Runs (or replays) the experiment, fingerprinting both modules.
    pub fn run(
        &self,
        pristine: &Module,
        faulty: &Module,
        config: &MachineConfig,
    ) -> ExperimentReport {
        self.run_keyed(
            pristine,
            faulty,
            fingerprint(pristine),
            fingerprint(faulty),
            config,
        )
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

impl Default for ExperimentCache {
    fn default() -> Self {
        ExperimentCache::new()
    }
}

/// Per-thread entry cap of the pristine-suite memo. One entry per
/// (module, machine config) pair in flight — a whole corpus campaign
/// populates a dozen — so the bound only guards a long-lived service
/// streaming arbitrary programs through one worker thread.
pub const SUITE_CACHE_CAPACITY: usize = 1024;

static SUITE_COUNTERS: Counters = Counters::new();

thread_local! {
    static SUITE_TABLE: RefCell<Table<(u64, u64), Rc<SuiteReport>>> =
        RefCell::new(Table::new(SUITE_CACHE_CAPACITY));
}

/// A memo of pristine suite reports, keyed by
/// `(fingerprint(module), machine.fingerprint())`.
///
/// Every differential experiment runs the *same* pristine suite as its
/// baseline: within one campaign, all units share one pristine module
/// and one machine config, so the baseline half of every unit after the
/// first is a byte-identical replay. [`run_suite_in`] is deterministic
/// in `(module, config)`, so memoizing it can never change a report —
/// a hit returns exactly what the miss computed. Only the pristine side
/// of an experiment consults this table; faulty suites are unique per
/// mutant and would only fill it.
///
/// Suite reports hold `Rc`-based run outcomes and are not `Send`, so
/// like [`crate::codecache::CodeCache`] (and unlike [`Memo`]) the table
/// is **thread-local** — each executor thread warms its own — while the
/// counters are process-wide, so [`SuiteCache::stats`] sums all
/// threads.
pub struct SuiteCache {
    _priv: (),
}

static SUITE_GLOBAL: SuiteCache = SuiteCache { _priv: () };

impl SuiteCache {
    /// The process-wide cache (a zero-sized facade over thread-local
    /// tables plus global counters).
    pub fn global() -> &'static SuiteCache {
        &SUITE_GLOBAL
    }

    /// Runs (or replays) the suite for a pre-computed module
    /// fingerprint, computing misses on the caller's machine. Hits
    /// return the thread-resident report without executing anything.
    pub fn run_keyed_in(
        &self,
        machine: &mut Machine,
        module: &Module,
        module_fp: u64,
        config: &MachineConfig,
    ) -> Rc<SuiteReport> {
        let key = (module_fp, config.fingerprint());
        if let Some(report) = SUITE_TABLE.with_borrow(|t| t.get(&key, &SUITE_COUNTERS)) {
            return report;
        }
        let report = Rc::new(run_suite_in(machine, module, module_fp, config));
        SUITE_TABLE.with_borrow_mut(|t| t.insert(key, Rc::clone(&report), &SUITE_COUNTERS));
        report
    }

    /// Counters summed over all threads.
    pub fn stats(&self) -> CacheStats {
        SUITE_COUNTERS.stats()
    }

    /// Drops the calling thread's entries and zeroes the global counters
    /// (cold-start benches).
    pub fn clear(&self) {
        SUITE_TABLE.with_borrow_mut(Table::clear);
        SUITE_COUNTERS.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_experiment;
    use nfi_pylite::parse;

    const BASE: &str = "\
def price(qty):
    return qty * 10
def test_price():
    assert price(2) == 20
";

    #[test]
    fn memoized_report_matches_direct_run() {
        let pristine = parse(BASE).unwrap();
        let faulty = parse(&BASE.replace("* 10", "* 11")).unwrap();
        let config = MachineConfig::default();
        let cache = ExperimentCache::new();
        let memo = cache.run(&pristine, &faulty, &config);
        let direct = run_experiment(&pristine, &faulty, &config);
        assert_eq!(memo.activated, direct.activated);
        assert_eq!(memo.detected, direct.detected);
        assert_eq!(memo.overall, direct.overall);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn second_lookup_hits_and_replays_identically() {
        let pristine = parse(BASE).unwrap();
        let faulty = parse(&BASE.replace("* 10", "* 12")).unwrap();
        let config = MachineConfig::default();
        let cache = ExperimentCache::new();
        let first = cache.run(&pristine, &faulty, &config);
        let second = cache.run(&pristine, &faulty, &config);
        assert_eq!(first.overall, second.overall);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn different_machine_seeds_are_distinct_entries() {
        let pristine = parse(BASE).unwrap();
        let faulty = parse(&BASE.replace("* 10", "* 13")).unwrap();
        let cache = ExperimentCache::new();
        cache.run(&pristine, &faulty, &MachineConfig::default());
        cache.run(
            &pristine,
            &faulty,
            &MachineConfig {
                seed: 99,
                ..MachineConfig::default()
            },
        );
        assert_eq!(cache.stats().misses, 2);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    // Suite-cache counters are process-global and other test threads
    // touch them, so the assertions rely on `Rc` pointer identity and a
    // unique module rather than absolute counter values.
    #[test]
    fn suite_memo_replays_identically_to_direct_run() {
        let src = "\
def sm_probe(n):
    return n + 7
def test_sm_probe():
    assert sm_probe(1) == 8
";
        let module = parse(src).unwrap();
        let config = MachineConfig::default();
        let fp = fingerprint(&module);
        let cache = SuiteCache::global();
        let mut machine = Machine::new(config.clone());
        let first = cache.run_keyed_in(&mut machine, &module, fp, &config);
        let second = cache.run_keyed_in(&mut machine, &module, fp, &config);
        assert!(
            std::rc::Rc::ptr_eq(&first, &second),
            "hit must share the memoized report"
        );
        let direct = crate::harness::run_suite(&module, &config);
        assert_eq!(format!("{:?}", *first), format!("{direct:?}"));
    }

    #[test]
    fn a_fourth_key_empties_a_table_capped_at_three() {
        let counters = Counters::new();
        let mut table: Table<u64, u64> = Table::new(3);
        for k in 0..4 {
            assert_eq!(table.get(&k, &counters), None);
            table.insert(k, k * 10, &counters);
            assert!(table.map.len() <= 3, "the table passed its cap");
        }
        assert_eq!(table.map.len(), 1, "the fourth key emptied the table");
        assert_eq!(table.get(&3, &counters), Some(30));
        // An earlier key misses and recomputes an equal value.
        let k = 1;
        assert_eq!(table.get(&k, &counters), None);
        table.insert(k, k * 10, &counters);
        assert_eq!(table.get(&k, &counters), Some(10));
        assert_eq!(counters.stats(), CacheStats { hits: 2, misses: 5 });
    }

    #[test]
    fn bounded_memo_recomputes_equal_values_after_it_clears() {
        let memo: Memo<u64, u64> = Memo::new(3);
        for k in 0..3 {
            memo.get_or_insert_with(k, || k * 10);
        }
        memo.get_or_insert_with(0, || unreachable!());
        memo.get_or_insert_with(2, || unreachable!());
        // A fourth key empties the full table first.
        assert_eq!(memo.get_or_insert_with(3, || 30), 30);
        let mut recomputed = false;
        let value = memo.get_or_insert_with(1, || {
            recomputed = true;
            10
        });
        assert!(recomputed, "key 1 should have been cleared");
        assert_eq!(value, 10);
        for k in [3u64, 1] {
            memo.get_or_insert_with(k, || panic!("key {k} should be resident"));
        }
        assert_eq!(memo.stats(), CacheStats { hits: 4, misses: 5 });
    }

    #[test]
    fn memo_at_its_cap_never_forgets() {
        let memo: Memo<u64, u64> = Memo::new(1000);
        for k in 0..1000 {
            memo.get_or_insert_with(k, || k);
        }
        for k in 0..1000 {
            assert_eq!(
                memo.get_or_insert_with(k, || panic!("key {k} was dropped")),
                k
            );
        }
        assert_eq!((memo.stats().hits, memo.stats().misses), (1000, 1000));
    }

    #[test]
    fn bounded_experiment_cache_stays_within_capacity() {
        let pristine = parse(BASE).unwrap();
        let cache = ExperimentCache { memo: Memo::new(2) };
        let faulty = |factor: u32| parse(&BASE.replace("* 10", &format!("* {factor}"))).unwrap();
        let first: Vec<ExperimentReport> = [11, 12, 13, 14]
            .into_iter()
            .map(|factor| cache.run(&pristine, &faulty(factor), &MachineConfig::default()))
            .collect();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 4 });
        // A replay of the last entry is still a hit; the first was
        // cleared and recomputes to an equal report.
        let last = cache.run(&pristine, &faulty(14), &MachineConfig::default());
        let again = cache.run(&pristine, &faulty(11), &MachineConfig::default());
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 5 });
        assert_eq!(format!("{last:?}"), format!("{:?}", first[3]));
        assert_eq!(format!("{again:?}"), format!("{:?}", first[0]));
    }
}

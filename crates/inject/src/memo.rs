//! Experiment memoization: content-addressed caching of differential
//! experiment runs.
//!
//! [`run_experiment`] is deterministic — the machine's scheduler, race
//! detector, and virtual clock are all seed-driven — so its result is a
//! pure function of (pristine module, faulty module, machine config).
//! Repeated drivers (schedule exploration sweeps, E-driver reruns, the
//! sequential-then-parallel benchmark pairs) therefore keep re-running
//! byte-identical experiments. This module memoizes them behind a
//! process-wide content-addressed cache keyed by
//! `(fingerprint(pristine), fingerprint(faulty), machine.fingerprint())`.
//!
//! Because the key is content-addressed, memoization can never change a
//! result — a hit returns exactly what the miss computed — so cached and
//! uncached runs are bit-identical by construction.

use crate::experiment::{run_experiment_in, run_experiment_keyed, ExperimentReport};
use crate::harness::{run_suite_in, SuiteReport};
use nfi_pylite::{fingerprint, Machine, MachineConfig, Module};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Hit/miss counters of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entry capacity (`None` = unbounded).
    pub capacity: Option<usize>,
}

/// The default entry cap for the process-wide caches: far above what
/// the corpus-wide benches populate (a few thousand entries), so their
/// hit rates are unchanged, while still bounding a long-lived service
/// that streams campaigns through one process.
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

/// One memoized value plus the logical clock of its last use — the
/// recency key of the LRU eviction policy.
struct MemoEntry<V> {
    value: V,
    last_used: u64,
}

/// Interior table state: entries plus the monotonic use-clock. Behind
/// one mutex so a hit can bump `last_used` in place.
struct MemoMap<K, V> {
    map: HashMap<K, MemoEntry<V>>,
    clock: u64,
}

/// A generic hit-counting memo table: the shared scaffolding behind
/// [`ExperimentCache`] and `nfi_core`'s mutant cache. Values are
/// computed outside the lock — concurrent misses on the same key
/// duplicate work once but never block the whole pool on one compute.
///
/// A table built with [`Memo::bounded`] caps its entry count: once
/// full, inserting a new key evicts the least-recently-used entry
/// (exact LRU by a logical use-clock; eviction scans for the minimum,
/// which is fine at the access rates of these caches — evictions only
/// start once campaigns outgrow the default capacity).
pub struct Memo<K, V> {
    inner: Mutex<MemoMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    capacity: Option<usize>,
}

impl<K: Eq + std::hash::Hash + Clone, V: Clone> Memo<K, V> {
    /// An empty, unbounded memo table.
    pub fn new() -> Memo<K, V> {
        Memo::with_capacity(None)
    }

    /// An empty memo table holding at most `capacity` entries
    /// (clamped to at least 1), evicting least-recently-used beyond it.
    pub fn bounded(capacity: usize) -> Memo<K, V> {
        Memo::with_capacity(Some(capacity.max(1)))
    }

    fn with_capacity(capacity: Option<usize>) -> Memo<K, V> {
        Memo {
            inner: Mutex::new(MemoMap {
                map: HashMap::new(),
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity,
        }
    }

    /// Returns the memoized value for `key`, computing and recording it
    /// on a miss. On a bounded table a miss that would exceed the cap
    /// evicts the least-recently-used entry first.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        {
            let mut inner = self.inner.lock().expect("memo lock");
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return entry.value.clone();
            }
        }
        let value = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("memo lock");
        if let Some(cap) = self.capacity {
            // `>=` because the new key is about to land; a concurrent
            // duplicate compute of the same key overwrites in place and
            // must not evict anything.
            while inner.map.len() >= cap && !inner.map.contains_key(&key) {
                let Some(oldest) = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                else {
                    break;
                };
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.insert(
            key,
            MemoEntry {
                value: value.clone(),
                last_used: clock,
            },
        );
        value
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("memo lock").map.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
            capacity: self.capacity,
        }
    }

    /// Drops every entry and zeroes the counters (cold-start benches).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("memo lock");
        inner.map.clear();
        inner.clock = 0;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

impl<K: Eq + std::hash::Hash + Clone, V: Clone> Default for Memo<K, V> {
    fn default() -> Self {
        Memo::new()
    }
}

/// A memo table for differential experiments.
pub struct ExperimentCache {
    memo: Memo<(u64, u64, u64), ExperimentReport>,
}

impl ExperimentCache {
    /// An empty unbounded cache (tests; the shared one is
    /// [`ExperimentCache::global`]).
    pub fn new() -> ExperimentCache {
        ExperimentCache { memo: Memo::new() }
    }

    /// An empty cache holding at most `capacity` reports, evicting
    /// least-recently-used beyond it.
    pub fn bounded(capacity: usize) -> ExperimentCache {
        ExperimentCache {
            memo: Memo::bounded(capacity),
        }
    }

    /// The process-wide cache, bounded at [`DEFAULT_CACHE_CAPACITY`]
    /// entries so unboundedly long campaign streams cannot exhaust
    /// memory (the cap is far above what the corpus benches populate,
    /// so their hit rates are unaffected).
    pub fn global() -> &'static ExperimentCache {
        static GLOBAL: OnceLock<ExperimentCache> = OnceLock::new();
        GLOBAL.get_or_init(|| ExperimentCache::bounded(DEFAULT_CACHE_CAPACITY))
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

static SUITE_HITS: AtomicU64 = AtomicU64::new(0);
static SUITE_MISSES: AtomicU64 = AtomicU64::new(0);
static SUITE_EVICTIONS: AtomicU64 = AtomicU64::new(0);
/// Entries resident across all live threads (each thread's map
/// subtracts its length when the thread exits).
static SUITE_ENTRIES: AtomicU64 = AtomicU64::new(0);

struct SuiteEntry {
    report: std::rc::Rc<SuiteReport>,
    last_used: u64,
}

#[derive(Default)]
struct SuiteTable {
    map: HashMap<(u64, u64), SuiteEntry>,
    clock: u64,
}

impl Drop for SuiteTable {
    fn drop(&mut self) {
        SUITE_ENTRIES.fetch_sub(self.map.len() as u64, Ordering::Relaxed);
    }
}

thread_local! {
    static SUITE_TABLE: std::cell::RefCell<SuiteTable> =
        std::cell::RefCell::new(SuiteTable::default());
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
/// mutant and would just churn the LRU.
///
/// Suite reports hold `Rc`-based run outcomes and are not `Send`, so
/// like [`crate::codecache::CodeCache`] (and unlike [`Memo`]) the table
/// is **thread-local** — each executor thread warms its own — while the
/// counters are process-wide atomics so [`SuiteCache::stats`] aggregates
/// all threads. Eviction is the same exact LRU by logical use-clock,
/// applied per thread.
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
    ) -> std::rc::Rc<SuiteReport> {
        let key = (module_fp, config.fingerprint());
        let hit = SUITE_TABLE.with(|t| {
            let mut t = t.borrow_mut();
            t.clock += 1;
            let clock = t.clock;
            t.map.get_mut(&key).map(|e| {
                e.last_used = clock;
                std::rc::Rc::clone(&e.report)
            })
        });
        if let Some(report) = hit {
            SUITE_HITS.fetch_add(1, Ordering::Relaxed);
            return report;
        }
        let report = std::rc::Rc::new(run_suite_in(machine, module, module_fp, config));
        SUITE_MISSES.fetch_add(1, Ordering::Relaxed);
        SUITE_TABLE.with(|t| {
            let mut t = t.borrow_mut();
            while t.map.len() >= SUITE_CACHE_CAPACITY && !t.map.contains_key(&key) {
                let Some(oldest) = t
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                else {
                    break;
                };
                t.map.remove(&oldest);
                SUITE_ENTRIES.fetch_sub(1, Ordering::Relaxed);
                SUITE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
            }
            t.clock += 1;
            let clock = t.clock;
            if t.map
                .insert(
                    key,
                    SuiteEntry {
                        report: std::rc::Rc::clone(&report),
                        last_used: clock,
                    },
                )
                .is_none()
            {
                SUITE_ENTRIES.fetch_add(1, Ordering::Relaxed);
            }
        });
        report
    }

    /// Aggregated counters across all threads. `entries` counts every
    /// live thread's resident entries; `capacity` is the per-thread cap.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: SUITE_HITS.load(Ordering::Relaxed),
            misses: SUITE_MISSES.load(Ordering::Relaxed),
            entries: SUITE_ENTRIES.load(Ordering::Relaxed) as usize,
            evictions: SUITE_EVICTIONS.load(Ordering::Relaxed),
            capacity: Some(SUITE_CACHE_CAPACITY),
        }
    }

    /// Drops the calling thread's entries and zeroes the global counters
    /// (cold-start benches).
    pub fn clear(&self) {
        SUITE_TABLE.with(|t| {
            let mut t = t.borrow_mut();
            SUITE_ENTRIES.fetch_sub(t.map.len() as u64, Ordering::Relaxed);
            t.map.clear();
            t.clock = 0;
        });
        SUITE_HITS.store(0, Ordering::Relaxed);
        SUITE_MISSES.store(0, Ordering::Relaxed);
        SUITE_EVICTIONS.store(0, Ordering::Relaxed);
    }
}

/// [`run_experiment`] through the process-wide memo table.
pub fn run_experiment_memo(
    pristine: &Module,
    faulty: &Module,
    config: &MachineConfig,
) -> ExperimentReport {
    ExperimentCache::global().run(pristine, faulty, config)
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
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
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
    fn bounded_memo_evicts_least_recently_used() {
        let memo: Memo<u64, u64> = Memo::bounded(3);
        for k in 0..3 {
            memo.get_or_insert_with(k, || k * 10);
        }
        // Touch 0 and 2 so key 1 is the least recently used.
        memo.get_or_insert_with(0, || unreachable!());
        memo.get_or_insert_with(2, || unreachable!());
        memo.get_or_insert_with(3, || 30);
        let stats = memo.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.capacity, Some(3));
        // Key 1 was evicted (recomputes); 0, 2, 3 are still resident.
        let mut recomputed = false;
        memo.get_or_insert_with(1, || {
            recomputed = true;
            10
        });
        assert!(recomputed, "LRU key should have been evicted");
        // Re-inserting 1 evicted the then-LRU key 0; the most recently
        // used keys {2, 3, 1} are resident.
        for k in [2u64, 3, 1] {
            memo.get_or_insert_with(k, || panic!("key {k} should be resident"));
        }
        assert_eq!(memo.stats().evictions, 2);
    }

    #[test]
    fn unbounded_memo_never_evicts() {
        let memo: Memo<u64, u64> = Memo::new();
        for k in 0..1000 {
            memo.get_or_insert_with(k, || k);
        }
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.evictions), (1000, 0));
        assert_eq!(stats.capacity, None);
    }

    #[test]
    fn bounded_experiment_cache_stays_within_capacity() {
        let pristine = parse(BASE).unwrap();
        let cache = ExperimentCache::bounded(2);
        for factor in [11, 12, 13, 14] {
            let faulty = parse(&BASE.replace("* 10", &format!("* {factor}"))).unwrap();
            cache.run(&pristine, &faulty, &MachineConfig::default());
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.evictions, 2);
        // A replay of a resident entry is still a hit.
        let faulty = parse(&BASE.replace("* 10", "* 14")).unwrap();
        cache.run(&pristine, &faulty, &MachineConfig::default());
        assert_eq!(cache.stats().hits, 1);
    }
}

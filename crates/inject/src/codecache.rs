//! Content-addressed cache of compiled PyLite code objects.
//!
//! Compilation is deterministic — a module's bytecode is a pure function
//! of its AST, and the AST fingerprint (`nfi_pylite::fingerprint`) is a
//! pure function of the printed source — so a compiled [`Code`] object
//! can be shared by every run of the same module: every test of a suite,
//! every scheduler seed of an exploration sweep, every campaign replay.
//! This is the "compile once, run many" half of the cold-path overhaul;
//! without it the harness recompiled the same pristine and mutant
//! modules once *per test per seed*.
//!
//! The cache is keyed like `nfi_core`'s `MutantCache`: by module
//! fingerprint, so compiled mutants are content-addressed too — two
//! plans producing the same mutated source share one compile.
//!
//! Compiled code is `Rc`-based and therefore not `Send`, so unlike
//! [`crate::memo::Memo`] the table itself is **thread-local** (each
//! executor thread warms its own map — free of locks on the hot path),
//! while the hit/miss/eviction/entry counters are process-wide atomics
//! so `CacheStats` aggregates all threads. Eviction is the same exact
//! LRU by logical use-clock as `Memo`, applied per thread.

use crate::memo::CacheStats;
use nfi_pylite::code::Code;
use nfi_pylite::compile::compile_module;
use nfi_pylite::{Module, PyliteError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-thread entry cap of the code cache. The whole 12-program corpus
/// plus every distinct mutant of a large campaign stays well below this;
/// the bound exists so a long-lived service streaming arbitrary programs
/// through one worker thread cannot grow without limit.
pub const CODE_CACHE_CAPACITY: usize = 4096;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
/// Entries resident across all live threads (each thread's map
/// subtracts its length when the thread exits).
static ENTRIES: AtomicU64 = AtomicU64::new(0);

struct CodeEntry {
    code: Rc<Code>,
    last_used: u64,
}

#[derive(Default)]
struct ThreadTable {
    map: HashMap<u64, CodeEntry>,
    clock: u64,
}

impl Drop for ThreadTable {
    fn drop(&mut self) {
        ENTRIES.fetch_sub(self.map.len() as u64, Ordering::Relaxed);
    }
}

thread_local! {
    static TABLE: RefCell<ThreadTable> = RefCell::new(ThreadTable::default());
}

/// The process-wide compiled-code cache (a zero-sized facade over
/// thread-local tables plus global counters).
pub struct CodeCache {
    _priv: (),
}

static GLOBAL: CodeCache = CodeCache { _priv: () };

impl CodeCache {
    /// The process-wide cache.
    pub fn global() -> &'static CodeCache {
        &GLOBAL
    }

    /// Returns the compiled code for a module whose fingerprint is
    /// `module_fp`, compiling on a miss. Hits return the thread-resident
    /// `Rc<Code>` without any work. Compile errors are returned and not
    /// cached (they are rare, cheap to reproduce, and keeping them out
    /// keeps the table homogeneous).
    ///
    /// # Errors
    ///
    /// Propagates [`nfi_pylite::compile::compile_module`] errors.
    pub fn compile(&self, module: &Module, module_fp: u64) -> Result<Rc<Code>, PyliteError> {
        let hit = TABLE.with(|t| {
            let mut t = t.borrow_mut();
            t.clock += 1;
            let clock = t.clock;
            t.map.get_mut(&module_fp).map(|e| {
                e.last_used = clock;
                Rc::clone(&e.code)
            })
        });
        if let Some(code) = hit {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(code);
        }
        let code = compile_module(module)?;
        MISSES.fetch_add(1, Ordering::Relaxed);
        TABLE.with(|t| {
            let mut t = t.borrow_mut();
            while t.map.len() >= CODE_CACHE_CAPACITY && !t.map.contains_key(&module_fp) {
                let Some(oldest) = t
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                else {
                    break;
                };
                t.map.remove(&oldest);
                ENTRIES.fetch_sub(1, Ordering::Relaxed);
                EVICTIONS.fetch_add(1, Ordering::Relaxed);
            }
            t.clock += 1;
            let clock = t.clock;
            if t.map
                .insert(
                    module_fp,
                    CodeEntry {
                        code: Rc::clone(&code),
                        last_used: clock,
                    },
                )
                .is_none()
            {
                ENTRIES.fetch_add(1, Ordering::Relaxed);
            }
        });
        Ok(code)
    }

    /// Aggregated counters across all threads. `entries` counts every
    /// live thread's resident entries; `capacity` is the per-thread cap.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: HITS.load(Ordering::Relaxed),
            misses: MISSES.load(Ordering::Relaxed),
            entries: ENTRIES.load(Ordering::Relaxed) as usize,
            evictions: EVICTIONS.load(Ordering::Relaxed),
            capacity: Some(CODE_CACHE_CAPACITY),
        }
    }

    /// Drops the calling thread's entries and zeroes the global counters
    /// (cold-start benches; entries warmed by *other* threads stay
    /// resident there but are removed from the entry count they already
    /// surrendered on their thread's exit or here on ours).
    pub fn clear(&self) {
        TABLE.with(|t| {
            let mut t = t.borrow_mut();
            ENTRIES.fetch_sub(t.map.len() as u64, Ordering::Relaxed);
            t.map.clear();
            t.clock = 0;
        });
        HITS.store(0, Ordering::Relaxed);
        MISSES.store(0, Ordering::Relaxed);
        EVICTIONS.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfi_pylite::{fingerprint, parse, Machine, MachineConfig};

    // Counters are process-global and other test threads may touch them,
    // so the assertions here rely on thread-local observables (`Rc`
    // pointer identity) and per-call deltas on unique modules instead of
    // absolute counter values.

    #[test]
    fn second_compile_returns_the_same_rc() {
        let module = parse("x_cc_a = 1\nprint(x_cc_a)\n").unwrap();
        let fp = fingerprint(&module);
        let cache = CodeCache::global();
        let first = cache.compile(&module, fp).unwrap();
        let second = cache.compile(&module, fp).unwrap();
        assert!(Rc::ptr_eq(&first, &second), "hit must share the compile");
    }

    #[test]
    fn cached_code_runs_identically_to_fresh_compile() {
        let src = "def f(n):\n    return n * 3\nprint(f(14))\n";
        let module = parse(src).unwrap();
        let fp = fingerprint(&module);
        let cached = CodeCache::global().compile(&module, fp).unwrap();
        let mut m1 = Machine::new(MachineConfig::default());
        let out_cached = m1.run_code(cached);
        let mut m2 = Machine::new(MachineConfig::default());
        let out_fresh = m2.run_module(&module).unwrap();
        assert_eq!(out_cached.output, out_fresh.output);
        assert_eq!(out_cached.steps, out_fresh.steps);
    }

    #[test]
    fn distinct_modules_get_distinct_entries() {
        let a = parse("y_cc_one = 1\n").unwrap();
        let b = parse("y_cc_two = 2\n").unwrap();
        let cache = CodeCache::global();
        let ca = cache.compile(&a, fingerprint(&a)).unwrap();
        let cb = cache.compile(&b, fingerprint(&b)).unwrap();
        assert!(!Rc::ptr_eq(&ca, &cb));
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let module = parse("break\n").unwrap();
        let fp = fingerprint(&module);
        let cache = CodeCache::global();
        assert!(cache.compile(&module, fp).is_err());
        assert!(cache.compile(&module, fp).is_err());
    }

    #[test]
    fn hits_accumulate_on_repeated_compiles() {
        let module = parse("z_cc_hits = 41 + 1\n").unwrap();
        let fp = fingerprint(&module);
        let cache = CodeCache::global();
        cache.compile(&module, fp).unwrap();
        let before = cache.stats().hits;
        cache.compile(&module, fp).unwrap();
        assert!(cache.stats().hits > before);
    }
}

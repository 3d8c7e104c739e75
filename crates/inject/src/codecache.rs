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
//! while the hit/miss counters are process-wide so `CacheStats` sums
//! all threads. The table is the memo module's one bounded table.

use crate::memo::{CacheStats, Counters, Table};
use nfi_pylite::code::Code;
use nfi_pylite::compile::compile_module;
use nfi_pylite::{Module, PyliteError};
use std::cell::RefCell;
use std::rc::Rc;

/// Per-thread entry cap of the code cache. The whole 12-program corpus
/// plus every distinct mutant of a large campaign stays well below this;
/// the bound exists so a long-lived service streaming arbitrary programs
/// through one worker thread cannot grow without limit.
pub const CODE_CACHE_CAPACITY: usize = 4096;

static COUNTERS: Counters = Counters::new();

thread_local! {
    static TABLE: RefCell<Table<u64, Rc<Code>>> = RefCell::new(Table::new(CODE_CACHE_CAPACITY));
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
        if let Some(code) = TABLE.with_borrow(|t| t.get(&module_fp, &COUNTERS)) {
            return Ok(code);
        }
        let code = compile_module(module)?;
        TABLE.with_borrow_mut(|t| t.insert(module_fp, Rc::clone(&code), &COUNTERS));
        Ok(code)
    }

    /// Counters summed over all threads.
    pub fn stats(&self) -> CacheStats {
        COUNTERS.stats()
    }

    /// Drops the calling thread's entries and zeroes the global counters
    /// (cold-start benches; entries warmed by *other* threads stay
    /// resident there).
    pub fn clear(&self) {
        TABLE.with_borrow_mut(Table::clear);
        COUNTERS.reset();
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

//! The test harness: run a module's embedded `test_*` suite.
//!
//! Each test executes on fresh machine state (fresh globals, clock, and
//! detector state) so tests are isolated, exactly like the corpus
//! verification suite. The module is compiled **once per suite** through
//! the process-wide [`CodeCache`] and the compiled code re-run per test
//! on one reused machine — recompiling the same module for every test
//! used to dominate the cold path. [`run_suite_uncached`] keeps the
//! original compile-per-test path as a differential reference; both
//! paths produce byte-identical reports.

use crate::codecache::CodeCache;
use nfi_pylite::analysis::ModuleIndex;
use nfi_pylite::{fingerprint, Machine, MachineConfig, Module, RunOutcome, RunStatus};
use std::rc::Rc;

/// The outcome of one test function.
#[derive(Debug, Clone)]
pub struct TestResult {
    /// Test function name.
    pub name: String,
    /// Full run outcome (status, detectors, output).
    pub outcome: RunOutcome,
    /// Whether the module body itself failed before the test ran.
    pub module_failed: bool,
}

impl TestResult {
    /// Whether the test passed (module loaded and test completed with no
    /// failures anywhere).
    pub fn passed(&self) -> bool {
        !self.module_failed && self.outcome.clean()
    }
}

/// The outcome of a whole suite.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Per-test results, in discovery order.
    pub tests: Vec<TestResult>,
}

impl SuiteReport {
    /// Number of passing tests.
    pub fn passed(&self) -> usize {
        self.tests.iter().filter(|t| t.passed()).count()
    }

    /// Number of failing tests.
    pub fn failed(&self) -> usize {
        self.tests.len() - self.passed()
    }

    /// Whether every test passed.
    pub fn all_passed(&self) -> bool {
        self.failed() == 0
    }
}

/// The result reported for every test when the module does not even
/// compile: a module failure with an empty outcome placeholder.
fn compile_failure(name: &str) -> TestResult {
    TestResult {
        name: name.to_string(),
        outcome: RunOutcome {
            status: RunStatus::Completed,
            output: String::new(),
            races: Vec::new(),
            overflows: Vec::new(),
            leaks: Vec::new(),
            task_failures: Vec::new(),
            steps: 0,
            vtime: 0.0,
            return_value: None,
        },
        module_failed: true,
    }
}

/// Runs the module's `test_*` suite: the module is compiled once
/// (through the process-wide [`CodeCache`]) and each test runs on fresh
/// machine state.
///
/// When the module body itself fails (e.g. a module-level injected
/// fault), each test is reported as failed with `module_failed` set —
/// the suite cannot even load.
pub fn run_suite(module: &Module, config: &MachineConfig) -> SuiteReport {
    let mut machine = Machine::new(config.clone());
    run_suite_in(&mut machine, module, fingerprint(module), config)
}

/// Runs the suite on a caller-provided machine, resetting its per-run
/// state before every test. Reusing one machine across many suites (a
/// seed sweep, a campaign shard) keeps its allocations — and the
/// installed global table — warm while staying observably identical to
/// a fresh machine per test.
pub fn run_suite_in(
    machine: &mut Machine,
    module: &Module,
    module_fp: u64,
    config: &MachineConfig,
) -> SuiteReport {
    let index = ModuleIndex::build(module);
    let names = index.test_functions();
    if names.is_empty() {
        return SuiteReport { tests: Vec::new() };
    }
    let code = match CodeCache::global().compile(module, module_fp) {
        Ok(code) => code,
        Err(_) => {
            return SuiteReport {
                tests: names.iter().map(|name| compile_failure(name)).collect(),
            }
        }
    };
    let mut tests = Vec::new();
    for name in names {
        machine.reset(config.clone());
        let module_out = machine.run_code(Rc::clone(&code));
        if !matches!(module_out.status, RunStatus::Completed) {
            tests.push(TestResult {
                name: name.to_string(),
                outcome: module_out,
                module_failed: true,
            });
            continue;
        }
        match machine.call(name, vec![]) {
            Ok(outcome) => tests.push(TestResult {
                name: name.to_string(),
                outcome,
                module_failed: false,
            }),
            Err(_) => tests.push(TestResult {
                name: name.to_string(),
                outcome: module_out,
                module_failed: true,
            }),
        }
    }
    SuiteReport { tests }
}

/// The original compile-per-test path: one fresh machine *and one fresh
/// compile* per test, bypassing the [`CodeCache`]. This is the
/// differential reference the cached paths are tested against (and the
/// execution path behind campaign runs with caching disabled).
pub fn run_suite_uncached(module: &Module, config: &MachineConfig) -> SuiteReport {
    let index = ModuleIndex::build(module);
    let mut tests = Vec::new();
    for name in index.test_functions() {
        let mut machine = Machine::new(config.clone());
        let module_out = match machine.run_module(module) {
            Ok(out) => out,
            Err(_) => {
                tests.push(compile_failure(name));
                continue;
            }
        };
        if !matches!(module_out.status, RunStatus::Completed) {
            tests.push(TestResult {
                name: name.to_string(),
                outcome: module_out,
                module_failed: true,
            });
            continue;
        }
        match machine.call(name, vec![]) {
            Ok(outcome) => tests.push(TestResult {
                name: name.to_string(),
                outcome,
                module_failed: false,
            }),
            Err(_) => tests.push(TestResult {
                name: name.to_string(),
                outcome: module_out,
                module_failed: true,
            }),
        }
    }
    SuiteReport { tests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfi_pylite::parse;

    #[test]
    fn passing_suite_reports_all_green() {
        let m = parse(
            "def add(a, b):\n    return a + b\ndef test_one():\n    assert add(1, 1) == 2\ndef test_two():\n    assert add(2, 3) == 5\n",
        )
        .unwrap();
        let report = run_suite(&m, &MachineConfig::default());
        assert_eq!(report.tests.len(), 2);
        assert!(report.all_passed());
    }

    #[test]
    fn assertion_failures_are_reported() {
        let m = parse(
            "def add(a, b):\n    return a + b + 1\ndef test_one():\n    assert add(1, 1) == 2\n",
        )
        .unwrap();
        let report = run_suite(&m, &MachineConfig::default());
        assert_eq!(report.failed(), 1);
        match &report.tests[0].outcome.status {
            RunStatus::Uncaught(info) => assert_eq!(info.kind, "AssertionError"),
            other => panic!("expected assertion failure, got {other:?}"),
        }
    }

    #[test]
    fn module_level_crash_fails_every_test() {
        let m = parse("raise RuntimeError(\"boot failure\")\ndef test_one():\n    assert True\n")
            .unwrap();
        let report = run_suite(&m, &MachineConfig::default());
        assert_eq!(report.tests.len(), 1);
        assert!(report.tests[0].module_failed);
        assert!(!report.tests[0].passed());
    }

    #[test]
    fn suite_without_tests_is_empty() {
        let m = parse("x = 1\n").unwrap();
        let report = run_suite(&m, &MachineConfig::default());
        assert!(report.tests.is_empty());
        assert!(report.all_passed());
    }

    #[test]
    fn hanging_test_is_bounded_by_step_budget() {
        let m = parse("def spin():\n    while True:\n        pass\ndef test_spin():\n    spin()\n")
            .unwrap();
        let config = MachineConfig {
            step_budget: 20_000,
            ..MachineConfig::default()
        };
        let report = run_suite(&m, &config);
        assert_eq!(report.failed(), 1);
        assert!(matches!(report.tests[0].outcome.status, RunStatus::Hung(_)));
    }

    /// Every field of every test result must agree between the cached
    /// (compile-once, reused machine) and uncached (fresh machine and
    /// compile per test) paths — including detector reports, step counts,
    /// and virtual time.
    fn assert_reports_identical(a: &SuiteReport, b: &SuiteReport) {
        assert_eq!(a.tests.len(), b.tests.len());
        for (x, y) in a.tests.iter().zip(b.tests.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.module_failed, y.module_failed);
            assert_eq!(format!("{:?}", x.outcome), format!("{:?}", y.outcome));
        }
    }

    #[test]
    fn cached_suite_matches_uncached_suite() {
        let m = parse(
            "count = 0\ndef bump():\n    global count\n    count = count + 1\n    return count\ndef test_bump():\n    assert bump() == 1\ndef test_again():\n    assert bump() == 1\n",
        )
        .unwrap();
        let config = MachineConfig::default();
        assert_reports_identical(&run_suite(&m, &config), &run_suite_uncached(&m, &config));
    }

    #[test]
    fn cached_suite_matches_uncached_on_concurrency() {
        let m = parse(
            "total = 0\ndef work():\n    global total\n    for i in range(10):\n        total = total + 1\ndef test_total():\n    t1 = spawn(work)\n    t2 = spawn(work)\n    join(t1)\n    join(t2)\n    assert total == 20\n",
        )
        .unwrap();
        let config = MachineConfig {
            quantum: 3,
            ..MachineConfig::default()
        };
        assert_reports_identical(&run_suite(&m, &config), &run_suite_uncached(&m, &config));
    }

    #[test]
    fn compile_failure_placeholder_is_identical_on_both_paths() {
        let m = parse("break\ndef test_x():\n    assert True\n").unwrap();
        let config = MachineConfig::default();
        let cached = run_suite(&m, &config);
        let uncached = run_suite_uncached(&m, &config);
        assert_eq!(cached.tests.len(), 1);
        assert!(cached.tests[0].module_failed);
        assert_reports_identical(&cached, &uncached);
    }
}

//! # nfi-inject — the automated integration and testing tool
//!
//! The last stage of the paper's Fig. 1 workflow (§III-B4): it
//! "automates the process of integrating the LLM-generated faulty code
//! into the target software's codebase" and then "facilitates a
//! comprehensive suite of tests designed to activate the faults and
//! observe the software's response".
//!
//! * [`patch`] — splices reviewed snippets back into the codebase
//!   (function replacement by name, new definitions appended).
//! * [`harness`] — runs a program's embedded `test_*` suite on the
//!   PyLite machine, compiling once per suite through the
//!   content-addressed [`codecache`] and resetting one machine between
//!   tests.
//! * [`classify`] — differential failure-mode classification against
//!   the pristine program: crash / hang / silent data corruption /
//!   data race / resource leak / buffer overflow / no effect.
//! * [`experiment`] — the inject → activate → classify pipeline used by
//!   campaigns and benchmarks.
//!
//! ```
//! use nfi_inject::experiment::run_experiment;
//! use nfi_pylite::MachineConfig;
//!
//! let pristine = nfi_pylite::parse(
//!     "def double(x):\n    return x * 2\ndef test_double():\n    assert double(2) == 4\n",
//! )?;
//! // A wrong-value fault: double becomes x * 3.
//! let faulty = nfi_pylite::parse(
//!     "def double(x):\n    return x * 3\ndef test_double():\n    assert double(2) == 4\n",
//! )?;
//! let report = run_experiment(&pristine, &faulty, &MachineConfig::default());
//! assert!(report.activated);
//! assert!(report.detected);
//! # Ok::<(), nfi_pylite::PyliteError>(())
//! ```

pub mod classify;
pub mod codecache;
pub mod diff;
pub mod experiment;
pub mod explore;
pub mod harness;
pub mod memo;
pub mod patch;

pub use classify::FailureMode;
pub use codecache::{CodeCache, CODE_CACHE_CAPACITY};
pub use diff::{change_counts, diff_lines, render_diff, DiffLine};
pub use experiment::{
    run_experiment, run_experiment_cached, run_experiment_in, run_experiment_keyed,
    ExperimentReport, TestComparison,
};
pub use explore::{explore_schedules, ExplorationReport};
pub use harness::{run_suite, run_suite_in, run_suite_uncached, SuiteReport, TestResult};
pub use memo::{CacheStats, ExperimentCache, Memo, SuiteCache};
pub use patch::{integrate_snippet, replace_function, PatchError};

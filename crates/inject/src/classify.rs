//! Differential failure-mode classification.
//!
//! Classifies how an injected fault manifested by comparing the faulty
//! run of each test against the pristine run — the "observing their
//! behavior" half of software fault injection (§II).

use nfi_pylite::{RunOutcome, RunStatus};
use std::fmt;

/// How a fault manifested under a test; [`FailureMode::severity`] gives
/// the ordering (higher = more severe).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FailureMode {
    /// No observable difference from the pristine run.
    NoEffect,
    /// The run completed but took far longer in virtual time
    /// (performance failure from an injected delay).
    Slowdown,
    /// Output differs from the pristine run but no error surfaced
    /// (silent data corruption) — includes oracle-detected wrong results
    /// (assertion failures).
    WrongOutput,
    /// A resource was leaked.
    ResourceLeak,
    /// A data race was detected.
    DataRace,
    /// A buffer overflow occurred.
    BufferOverflow,
    /// An exception escaped (kind recorded).
    CrashUnhandled(String),
    /// The run hung (step budget or deadlock).
    Hang,
}

impl FailureMode {
    /// Severity rank (higher = more severe).
    pub fn severity(&self) -> u8 {
        match self {
            FailureMode::NoEffect => 0,
            FailureMode::Slowdown => 1,
            FailureMode::WrongOutput => 2,
            FailureMode::ResourceLeak => 3,
            FailureMode::DataRace => 4,
            FailureMode::BufferOverflow => 5,
            FailureMode::CrashUnhandled(_) => 6,
            FailureMode::Hang => 7,
        }
    }

    /// Stable identifier for reporting.
    pub fn key(&self) -> &'static str {
        match self {
            FailureMode::NoEffect => "no_effect",
            FailureMode::Slowdown => "slowdown",
            FailureMode::WrongOutput => "wrong_output",
            FailureMode::ResourceLeak => "resource_leak",
            FailureMode::DataRace => "data_race",
            FailureMode::BufferOverflow => "buffer_overflow",
            FailureMode::CrashUnhandled(_) => "crash",
            FailureMode::Hang => "hang",
        }
    }
}

impl fmt::Display for FailureMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureMode::CrashUnhandled(kind) => write!(f, "crash({kind})"),
            other => f.write_str(other.key()),
        }
    }
}

/// Classifies a faulty test run against its pristine counterpart.
///
/// All applicable manifestations are gathered and the most severe one is
/// reported, so a detected race outranks the assertion failure it caused
/// (mechanism over symptom), while a crash outranks an incidental race.
pub fn classify(faulty: &RunOutcome, pristine: &RunOutcome) -> FailureMode {
    // Hangs dominate: nothing else is observable.
    if let RunStatus::Hung(_) = &faulty.status {
        return FailureMode::Hang;
    }
    let mut modes = Vec::new();
    // An escaping AssertionError is the test oracle catching wrong
    // behaviour, not a crash of the system under test.
    if let RunStatus::Uncaught(info) = &faulty.status {
        if info.kind == "AssertionError" {
            modes.push(FailureMode::WrongOutput);
        } else {
            modes.push(FailureMode::CrashUnhandled(info.kind.clone()));
        }
    }
    if let Some(failure) = faulty.task_failures.first() {
        if failure.kind == "AssertionError" {
            modes.push(FailureMode::WrongOutput);
        } else {
            modes.push(FailureMode::CrashUnhandled(failure.kind.clone()));
        }
    }
    if !faulty.overflows.is_empty() {
        modes.push(FailureMode::BufferOverflow);
    }
    if !faulty.races.is_empty() {
        modes.push(FailureMode::DataRace);
    }
    if !faulty.leaks.is_empty() {
        modes.push(FailureMode::ResourceLeak);
    }
    if faulty.output != pristine.output {
        modes.push(FailureMode::WrongOutput);
    }
    // Virtual-time dilation: the run completed but took dramatically
    // longer on the virtual clock (injected stalls).
    if faulty.vtime > pristine.vtime + 10.0 {
        modes.push(FailureMode::Slowdown);
    }
    most_severe(&modes)
}

/// The most severe mode in a collection (or `NoEffect` when empty).
pub fn most_severe(modes: &[FailureMode]) -> FailureMode {
    modes
        .iter()
        .max_by_key(|m| m.severity())
        .cloned()
        .unwrap_or(FailureMode::NoEffect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfi_pylite::{Machine, MachineConfig};

    fn run(src: &str) -> RunOutcome {
        Machine::new(MachineConfig {
            step_budget: 50_000,
            ..MachineConfig::default()
        })
        .run_source(src)
        .unwrap()
    }

    #[test]
    fn classifies_crash() {
        let pristine = run("print(1)\n");
        let faulty = run("raise TimeoutError(\"t\")\n");
        assert_eq!(
            classify(&faulty, &pristine),
            FailureMode::CrashUnhandled("TimeoutError".into())
        );
    }

    #[test]
    fn classifies_assertion_as_wrong_output() {
        let pristine = run("print(1)\n");
        let faulty = run("assert 1 == 2\n");
        assert_eq!(classify(&faulty, &pristine), FailureMode::WrongOutput);
    }

    #[test]
    fn classifies_hang() {
        let pristine = run("print(1)\n");
        let faulty = run("while True:\n    pass\n");
        assert_eq!(classify(&faulty, &pristine), FailureMode::Hang);
    }

    #[test]
    fn classifies_leak() {
        let pristine = run("print(1)\n");
        let faulty = run("h = open_handle(\"c\")\nprint(1)\n");
        assert_eq!(classify(&faulty, &pristine), FailureMode::ResourceLeak);
    }

    #[test]
    fn classifies_silent_output_difference() {
        let pristine = run("print(10)\n");
        let faulty = run("print(11)\n");
        assert_eq!(classify(&faulty, &pristine), FailureMode::WrongOutput);
    }

    #[test]
    fn classifies_overflow_even_when_caught() {
        let pristine = run("print(1)\n");
        let faulty = run(
            "b = make_buffer(1)\ntry:\n    b.write(5, 1)\nexcept BufferOverflowError:\n    pass\nprint(1)\n",
        );
        assert_eq!(classify(&faulty, &pristine), FailureMode::BufferOverflow);
    }

    #[test]
    fn classifies_slowdown_from_virtual_time() {
        let pristine = run("print(1)\n");
        let faulty = run("sleep(60)\nprint(1)\n");
        assert_eq!(classify(&faulty, &pristine), FailureMode::Slowdown);
    }

    #[test]
    fn identical_runs_are_no_effect() {
        let a = run("print(1)\n");
        let b = run("print(1)\n");
        assert_eq!(classify(&a, &b), FailureMode::NoEffect);
    }

    #[test]
    fn severity_ordering() {
        assert!(FailureMode::Hang.severity() > FailureMode::CrashUnhandled("X".into()).severity());
        assert!(
            FailureMode::CrashUnhandled("X".into()).severity()
                > FailureMode::WrongOutput.severity()
        );
        assert_eq!(
            most_severe(&[
                FailureMode::WrongOutput,
                FailureMode::Hang,
                FailureMode::NoEffect
            ]),
            FailureMode::Hang
        );
        assert_eq!(most_severe(&[]), FailureMode::NoEffect);
    }
}

//! # nfi-core — the end-to-end Neural Fault Injection pipeline
//!
//! Wires the whole Fig. 1 workflow of the paper together:
//!
//! ```text
//! fault definition (NL + code)
//!   └─▶ NLP engine (nfi-nlp)        — structured FaultSpec
//!        └─▶ LLM (nfi-llm)          — candidate faulty code, policy-sampled
//!             └─▶ RLHF (nfi-rlhf)   — tester review loop refines spec + policy
//!                  └─▶ integration & testing (nfi-inject)
//!                       └─▶ failure-mode report
//! ```
//!
//! * [`pipeline::NeuralFaultInjector`] — one-shot injection: description
//!   in, [`pipeline::InjectionReport`] out, with per-stage timings.
//! * [`session`] — the iterative tester-in-the-loop session of the
//!   running example (§III-A).
//! * [`metrics`] — campaign metrics for the evaluation: coverage,
//!   representativeness (Jensen–Shannon distance to a field fault
//!   profile), and the tester-effort model.
//!
//! ```
//! use nfi_core::pipeline::{NeuralFaultInjector, PipelineConfig};
//!
//! let source = "def process_transaction(details):\n    return True\n\
//!                def test_ok():\n    assert process_transaction({})\n";
//! let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
//! let report = injector.inject(
//!     "Simulate a database timeout causing an unhandled exception in \
//!      the process transaction function.",
//!     source,
//! )?;
//! assert!(report.fault.snippet.contains("TimeoutError"));
//! # Ok::<(), nfi_core::pipeline::PipelineError>(())
//! ```

pub mod cache;
pub mod exec;
pub mod metrics;
pub mod pipeline;
pub mod service;
pub mod session;
pub mod store;

pub use cache::{CacheStats, CachedMutant, MutantCache};
pub use exec::ExecConfig;
pub use metrics::{field_profile, js_distance, EffortModel};
pub use pipeline::{InjectionReport, NeuralFaultInjector, PipelineConfig, PipelineError};
pub use service::{exec_spec, exec_units, merge, plan_campaign, ShardOutcome, ShardRun};
pub use session::{run_session, SessionResult, SessionRound};
pub use store::{
    CampaignStore, GcReport, IncrementalRun, LoadedSegment, Orchestrator, Replay, SegmentGuard,
    SegmentInfo, SegmentLocks,
};

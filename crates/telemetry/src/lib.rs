//! Dependency-free telemetry for the campaign service — the same
//! hand-rolled idiom as the HTTP stack (no tokio, no tracing).
//!
//! Three layers:
//!
//! * **spans + structured logs** ([`trace`], [`log`]): [`TraceId`]s
//!   minted at the serving edge, monotonic [`Span`]s collected into a
//!   bounded per-trace buffer, propagated to worker child processes via
//!   an env var and echoed back as stderr lines; leveled JSON-lines
//!   logging to stderr controlled by `NFI_LOG` / `--log-level`;
//! * **latency histograms** ([`hist`]): fixed-bucket log2 (HDR-lite)
//!   [`Histogram`]s with lock-free [`AtomicHistogram`] recording,
//!   mergeable across lanes, exported with p50/p90/p99, collected in a
//!   process-wide [`Registry`];
//! * **exposition** ([`prom`], [`json`]): a Prometheus text-format
//!   renderer (HELP/TYPE families, label escaping, `_bucket`/`_sum`/
//!   `_count`) and a tiny JSON builder shared by the trace endpoint and
//!   `nfi store inspect --json`.
//!
//! Everything observes; nothing alters outputs — served documents stay
//! byte-identical with telemetry on, off, or at any log level.

pub mod hist;
pub mod json;
pub mod log;
pub mod prom;
pub mod trace;

pub use hist::{AtomicHistogram, Histogram, Registry, BUCKETS};
pub use log::Level;
pub use trace::{Span, SpanRecord, Trace, TraceId};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide kill switch: when disabled, histogram recording and
/// log emission become a single relaxed load — the "telemetry off"
/// side of a telemetry-tax measurement.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns all telemetry recording on or off. On by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry recording is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide histogram registry behind `/metrics` and the
/// `latency` section of `/v1/metrics`.
pub fn registry() -> &'static Registry {
    static REGISTRY: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Histogram family names shared by recorders and exposition.
pub mod families {
    /// HTTP request duration, labeled (route, status class).
    pub const HTTP: &str = "http_request_duration";
    /// Queue wait from accept to lane start.
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// Orchestrator phase duration, labeled (phase).
    pub const PHASE: &str = "phase_duration";
}

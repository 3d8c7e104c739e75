//! The repository benchmark: four workloads over the `nfi` campaign,
//! serve and natural-language session paths, measured from outside
//! through the crates' public functions and the daemon's HTTP API.
//!
//! A run with tracing off reports the end-to-end metrics
//! ([`END_TO_END`]); a run with tracing on reports every per-layer
//! metric ([`PER_LAYER`]), whose time parts plus a residual add up to
//! the traced wall time. Every run checks its outputs against
//! from-scratch references ([`gate`]). See `README.md` for the
//! workloads and why each exists.

pub mod campaign;
pub mod edits;
pub mod gate;
pub mod report;
pub mod serve;
pub mod session;

use report::{Report, Waterfall};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Layer metric accumulator: name to value.
pub type Layers = BTreeMap<&'static str, f64>;

/// Adds the seconds since `t` to `layers[name]`.
pub fn add_time(layers: &mut Layers, name: &'static str, t: Instant) {
    bump(layers, name, t.elapsed().as_secs_f64());
}

/// Adds `v` to `layers[name]`.
pub fn bump(layers: &mut Layers, name: &'static str, v: f64) {
    *layers.entry(name).or_insert(0.0) += v;
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Offline cold campaign over the whole corpus.
    CampaignCold,
    /// Offline warm-edit loop on a warmed store.
    CampaignEdit,
    /// `nfi serve` driven by two closed-loop keep-alive clients.
    ServeMixed,
    /// Generate → review → refine sessions through the experiment.
    NlSession,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists all but `campaign_cold`,
    /// whose runs spread too widely for a bound (see `README.md`); it
    /// stays runnable for its traced cold-path waterfall.
    pub const ALL: [Workload; 4] = [
        Workload::CampaignCold,
        Workload::CampaignEdit,
        Workload::ServeMixed,
        Workload::NlSession,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignCold => "campaign_cold",
            Workload::CampaignEdit => "campaign_edit",
            Workload::ServeMixed => "serve_mixed",
            Workload::NlSession => "nl_session",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (split between the untraced and traced phases
    /// when `trace` is on).
    pub seconds: f64,
    /// Traced run: report per-layer metrics.
    pub trace: bool,
    /// The `nfi` binary (`serve_mixed` only).
    pub nfi: Option<PathBuf>,
    /// Scratch directory for state dirs and logs.
    pub work_dir: PathBuf,
    /// Set-up repetitions whose median is `setup_s`.
    pub setups: usize,
}

impl Config {
    /// Seconds of the untraced phase (all of them when tracing is off;
    /// half when on, the traced phase replaying the same jobs).
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// The end-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
];

/// The per-layer metrics, reported by every workload with tracing on
/// (0 where a workload never calls the layer). Times and counts are per
/// job; ratios and shares are over the traced phase.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("sfi.plan_s", "s"),
    ("core.store.load_s", "s"),
    ("core.store.anchor_fallback_s", "s"),
    ("pylite.parse_s", "s"),
    ("sfi.mutate_s", "s"),
    ("sfi.mutate_n", "count"),
    ("pylite.compile_s", "s"),
    ("inject.pristine_suite_s", "s"),
    ("inject.faulty_suite_s", "s"),
    ("inject.classify_s", "s"),
    ("core.service.dispatch_s", "s"),
    ("core.service.shard_codec_s", "s"),
    ("core.service.merge_s", "s"),
    ("core.service.encode_s", "s"),
    ("core.store.save_s", "s"),
    ("core.store.save_bytes", "bytes"),
    ("core.store.replay_ratio", "share"),
    ("core.store.anchor_ratio", "share"),
    ("core.store.executed_units", "count"),
    ("inject.hang_units", "count"),
    ("inject.hang_share_s", "share"),
    ("inject.hang_steps_share", "share"),
    ("pylite.vm_steps", "count"),
    ("pylite.vm_steps_per_s", "1/s"),
    ("pylite.code_cache_hit_ratio", "share"),
    ("inject.suite_cache_hit_ratio", "share"),
    ("core.cache.mutant_hit_ratio", "share"),
    ("core.cache.experiment_hit_ratio", "share"),
    ("serve.submit_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.document_ms", "ms"),
    ("serve.poll_sleep_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.queue_wait_s", "s"),
    ("serve.phase.plan_s", "s"),
    ("serve.phase.store_replay_s", "s"),
    ("serve.phase.anchor_fallback_s", "s"),
    ("serve.phase.execute_s", "s"),
    ("serve.phase.merge_s", "s"),
    ("serve.phase.persist_s", "s"),
    ("serve.dispatch_overhead_s", "s"),
    ("serve.retries", "count"),
    ("serve.shed", "count"),
    ("nlp.analyze_s", "s"),
    ("nlp.critique_s", "s"),
    ("llm.candidates_s", "s"),
    ("llm.generate_s", "s"),
    ("rlhf.review_s", "s"),
    ("rlhf.reinforce_s", "s"),
    ("rlhf.rounds_per_session", "count"),
    ("rlhf.accept_share", "share"),
    ("inject.integrate_s", "s"),
    ("inject.experiment_s", "s"),
    ("neural.fine_tune_s", "s"),
    ("neural.tokens_per_s", "1/s"),
    ("layers.wall_s", "s"),
    ("layers.residual_s", "s"),
    ("layers.residual_share", "share"),
    ("trace.overhead_share", "share"),
    ("e2e.failed_share", "share"),
    ("e2e.rss_mb", "MB"),
    ("e2e.peak_rss_mb", "MB"),
];

/// Pushes every [`PER_LAYER`] metric (0 where absent from `layers`),
/// taking the waterfall entries from `waterfall` and the peak memory of
/// the untraced phase from `mem`, and records the set-up time in the
/// detail.
pub fn push_layers(
    report: &mut Report,
    layers: &Layers,
    waterfall: &Waterfall,
    setup_s: f64,
    mem: report::Memory,
) {
    let mut all = layers.clone();
    all.insert("e2e.rss_mb", mem.rss_mb);
    all.insert("e2e.peak_rss_mb", mem.peak_rss_mb);
    all.insert("layers.wall_s", waterfall.wall);
    all.insert("layers.residual_s", waterfall.residual());
    all.insert(
        "layers.residual_share",
        report::ratio(waterfall.residual(), waterfall.wall),
    );
    for (name, unit) in PER_LAYER {
        report.push(name, all.get(name).copied().unwrap_or(0.0), unit);
    }
    report.detail("layers", waterfall.to_json());
    report.detail("setup_s", report::num(setup_s));
    report.waterfall = Some(waterfall.clone());
}

/// The machine configuration every workload runs under, recorded in
/// the output so a reader can see it is what `nfi campaign run` and
/// `nfi serve` use.
pub fn machine_detail() -> String {
    let m = nfi_pylite::MachineConfig::default();
    report::jobj(&[
        (
            "fingerprint",
            report::jstr(&format!("{:016x}", m.fingerprint())),
        ),
        ("step_budget", m.step_budget.to_string()),
        ("quantum", m.quantum.to_string()),
        ("seed", m.seed.to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .to_string(),
        ),
    ])
}

/// Runs one workload.
///
/// # Errors
///
/// Reports failures that stop the workload from producing a result.
pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let mut report = match cfg.workload {
        Workload::CampaignCold => campaign::campaign_cold(cfg)?,
        Workload::CampaignEdit => campaign::campaign_edit(cfg)?,
        Workload::ServeMixed => serve::serve_mixed(cfg)?,
        Workload::NlSession => session::nl_session(cfg)?,
    };
    if cfg.trace {
        let share = report::ratio(report.failed as f64, report.attempted as f64);
        if let Some(m) = report
            .metrics
            .iter_mut()
            .find(|m| m.name == "e2e.failed_share")
        {
            m.value = share;
        }
    }
    report.detail("workload", report::jstr(cfg.workload.name()));
    report.detail("seed", cfg.seed.to_string());
    report.detail("machine", machine_detail());
    Ok(report)
}

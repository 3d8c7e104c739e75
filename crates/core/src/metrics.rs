//! Campaign metrics, in two senses:
//!
//! * the **evaluation** metrics of the paper's comparative study —
//!   coverage, representativeness (Jensen–Shannon distance to a field
//!   fault profile), and tester effort;
//! * the **latency** summary of the long-running service —
//!   [`LatencySummary`] condenses the telemetry histograms into the
//!   `latency` section of `GET /v1/metrics` (the daemon's counters are
//!   declared in `nfi_serve::metrics`).

use nfi_sfi::FaultClass;
use nfi_telemetry::{families, hist::SeriesSnapshot, Histogram};
use std::collections::BTreeMap;

/// Latency distributions summarized from the process-wide telemetry
/// registry: HTTP request duration (all routes merged), queue wait,
/// and each orchestrator phase — the `latency` section of
/// `/v1/metrics`.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    /// HTTP request duration, every route/status series merged.
    pub http: Histogram,
    /// Accept-to-lane-start queue wait.
    pub queue_wait: Histogram,
    /// Orchestrator phase durations, keyed by phase name, sorted.
    pub phases: Vec<(String, Histogram)>,
}

impl LatencySummary {
    /// Summarizes a histogram registry snapshot (the daemon passes
    /// `nfi_telemetry::registry().snapshot()`).
    pub fn from_series(snapshot: &[SeriesSnapshot]) -> LatencySummary {
        let mut summary = LatencySummary::default();
        let mut phases: BTreeMap<String, Histogram> = BTreeMap::new();
        for series in snapshot {
            match series.family.as_str() {
                f if f == families::HTTP => summary.http.merge(&series.hist),
                f if f == families::QUEUE_WAIT => summary.queue_wait.merge(&series.hist),
                f if f == families::PHASE => {
                    let phase = series
                        .labels
                        .iter()
                        .find(|(k, _)| k == "phase")
                        .map(|(_, v)| v.clone())
                        .unwrap_or_else(|| "unknown".to_string());
                    phases.entry(phase).or_default().merge(&series.hist);
                }
                _ => {}
            }
        }
        summary.phases = phases.into_iter().collect();
        summary
    }

    fn render_hist(h: &Histogram) -> String {
        format!(
            "{{\"count\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            h.count,
            h.p50_micros(),
            h.p90_micros(),
            h.p99_micros(),
            h.max_micros,
        )
    }

    /// Renders the `latency` section value of the metrics JSON.
    pub fn render_json(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(name, h)| {
                format!(
                    "\"{}\":{}",
                    nfi_telemetry::json::escape(name),
                    Self::render_hist(h)
                )
            })
            .collect();
        format!(
            "{{\"http\":{},\"queue_wait\":{},\"phases\":{{{}}}}}",
            Self::render_hist(&self.http),
            Self::render_hist(&self.queue_wait),
            phases.join(","),
        )
    }
}

/// A synthetic *field fault profile*: the share of each fault class
/// among faults observed in deployed systems.
///
/// The shape follows the software-fault literature the paper builds on
/// (Durães & Madeira's ODC-based field study and the cloud-system
/// studies of the paper's refs 15 and 16): omission-style faults dominate, followed
/// by wrong values and mishandled errors, with concurrency/timing/
/// resource faults in a long tail. Absolute numbers are synthetic —
/// DESIGN.md records this substitution.
pub fn field_profile() -> BTreeMap<FaultClass, f64> {
    let mut m = BTreeMap::new();
    m.insert(FaultClass::Omission, 0.38);
    m.insert(FaultClass::WrongValue, 0.22);
    m.insert(FaultClass::ExceptionHandling, 0.12);
    m.insert(FaultClass::Interface, 0.08);
    m.insert(FaultClass::Concurrency, 0.08);
    m.insert(FaultClass::Timing, 0.05);
    m.insert(FaultClass::ResourceLeak, 0.04);
    m.insert(FaultClass::BufferOverflow, 0.03);
    m
}

/// Normalizes class counts into a distribution over all classes.
pub fn distribution(counts: &BTreeMap<FaultClass, usize>) -> BTreeMap<FaultClass, f64> {
    let total: usize = counts.values().sum();
    let mut m = BTreeMap::new();
    for class in FaultClass::ALL {
        let c = *counts.get(&class).unwrap_or(&0);
        m.insert(
            class,
            if total == 0 {
                0.0
            } else {
                c as f64 / total as f64
            },
        );
    }
    m
}

/// Jensen–Shannon distance (square root of the JS divergence, base-2
/// logarithm) between two class distributions. Bounded in `[0, 1]`.
pub fn js_distance(p: &BTreeMap<FaultClass, f64>, q: &BTreeMap<FaultClass, f64>) -> f64 {
    let kl = |a: &BTreeMap<FaultClass, f64>, b: &BTreeMap<FaultClass, f64>| -> f64 {
        FaultClass::ALL
            .iter()
            .map(|c| {
                let pa = *a.get(c).unwrap_or(&0.0);
                let pb = *b.get(c).unwrap_or(&0.0);
                if pa == 0.0 || pb == 0.0 {
                    0.0
                } else {
                    pa * (pa / pb).log2()
                }
            })
            .sum()
    };
    let mut mix = BTreeMap::new();
    for c in FaultClass::ALL {
        let pa = *p.get(&c).unwrap_or(&0.0);
        let pb = *q.get(&c).unwrap_or(&0.0);
        mix.insert(c, 0.5 * (pa + pb));
    }
    let js = 0.5 * kl(p, &mix) + 0.5 * kl(q, &mix);
    js.max(0.0).sqrt()
}

/// Number of distinct fault classes present in a campaign.
pub fn classes_covered(counts: &BTreeMap<FaultClass, usize>) -> usize {
    counts.values().filter(|c| **c > 0).count()
}

/// The tester-effort model used by experiment E3 (§II-3: "manual effort
/// and expertise requirements").
///
/// *Neural*: the tester writes one NL description and reviews each
/// generated round; selection, configuration, and integration are
/// automated.
///
/// *Conventional*: for each realized fault the tester must pick an
/// operator from the catalogue, inspect candidate sites to choose one
/// (one inspection interaction per `sites_per_screen` candidates), and
/// write a configuration entry; scenarios outside the predefined model
/// cost the full scan and still fail (counted but unrealized).
#[derive(Debug, Clone)]
pub struct EffortModel {
    /// Candidate sites a tester can triage in one interaction.
    pub sites_per_screen: usize,
}

impl Default for EffortModel {
    fn default() -> Self {
        EffortModel {
            sites_per_screen: 10,
        }
    }
}

impl EffortModel {
    /// Interactions for the neural workflow: one description plus one
    /// review per round.
    pub fn neural(&self, rounds: usize) -> usize {
        1 + rounds
    }

    /// Interactions for the conventional workflow on a realizable
    /// scenario: operator choice + site triage + config entry.
    pub fn conventional(&self, candidate_sites: usize) -> usize {
        let triage = candidate_sites.div_ceil(self.sites_per_screen).max(1);
        1 + triage + 1
    }

    /// Interactions wasted on a scenario the predefined model cannot
    /// express (catalogue scan + giving up).
    pub fn conventional_unrealizable(&self, catalogue_size: usize) -> usize {
        self.sites_per_screen.min(catalogue_size).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_profile_sums_to_one() {
        let total: f64 = field_profile().values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn js_distance_properties() {
        let p = field_profile();
        assert!(js_distance(&p, &p) < 1e-9, "identical distributions");
        let mut q = BTreeMap::new();
        q.insert(FaultClass::BufferOverflow, 1.0);
        let d = js_distance(&p, &q);
        assert!(d > 0.5, "disjoint-ish distributions are far: {d}");
        assert!(d <= 1.0 + 1e-9);
        // Symmetry.
        assert!((js_distance(&p, &q) - js_distance(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn distribution_normalizes_counts() {
        let mut counts = BTreeMap::new();
        counts.insert(FaultClass::Omission, 3usize);
        counts.insert(FaultClass::Timing, 1usize);
        let d = distribution(&counts);
        assert!((d[&FaultClass::Omission] - 0.75).abs() < 1e-9);
        assert!((d[&FaultClass::Timing] - 0.25).abs() < 1e-9);
        assert_eq!(d[&FaultClass::Concurrency], 0.0);
        assert_eq!(classes_covered(&counts), 2);
    }

    #[test]
    fn effort_model_favors_neural_for_complex_scenarios() {
        let e = EffortModel::default();
        assert_eq!(e.neural(1), 2);
        assert_eq!(e.conventional(25), 1 + 3 + 1);
        assert!(e.conventional(100) > e.neural(3));
        assert!(e.conventional_unrealizable(22) >= 1);
    }

    #[test]
    fn empty_distribution_is_all_zero() {
        let d = distribution(&BTreeMap::new());
        assert!(d.values().all(|v| *v == 0.0));
    }

    #[test]
    fn latency_summary_merges_routes_and_keys_phases() {
        let registry = nfi_telemetry::Registry::new();
        registry
            .histogram(families::HTTP, &[("route", "/a"), ("status", "2xx")])
            .record_micros(100);
        registry
            .histogram(families::HTTP, &[("route", "/b"), ("status", "5xx")])
            .record_micros(3_000);
        registry
            .histogram(families::QUEUE_WAIT, &[])
            .record_micros(40);
        registry
            .histogram(families::PHASE, &[("phase", "execute")])
            .record_micros(2_000_000);
        let json = LatencySummary::from_series(&registry.snapshot()).render_json();
        assert!(json.starts_with("{\"http\":{\"count\":2,"), "{json}");
        assert!(json.contains("\"queue_wait\":{\"count\":1,"), "{json}");
        assert!(
            json.contains("\"phases\":{\"execute\":{\"count\":1,"),
            "{json}"
        );
        assert!(json.contains("\"max_us\":3000}"), "{json}");
    }
}

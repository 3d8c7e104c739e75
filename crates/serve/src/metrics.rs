//! The daemon's service metrics, each declared once.
//!
//! [`METRICS`] has one row per exported number: its JSON section and
//! key, its Prometheus family and label, counter or gauge, its help
//! text, and a getter that reads the live [`ServerState`]. Both views
//! walk that table — [`render_json`] for `GET /v1/metrics` and
//! [`render_prometheus`] for `GET /metrics` — so they cannot disagree.
//!
//! One part of the pages is not rows: the latency histograms, which
//! come from the telemetry registry.

use crate::ServerState;
use nfi_core::metrics::LatencySummary;
use nfi_telemetry::{families, hist::SeriesSnapshot, prom::PromText};
use std::sync::atomic::{AtomicU64, Ordering};

/// Whether a number only grows or can also fall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A daemon-lifetime total (`_total` family).
    Counter,
    /// A current level.
    Gauge,
}

impl Kind {
    fn render(self, p: &mut PromText, family: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        match self {
            Kind::Counter => p.counter(family, help, labels, v),
            Kind::Gauge => p.gauge(family, help, labels, v as f64),
        }
    }
}

/// One exported number.
pub struct Metric {
    /// `/v1/metrics` section and key; a section's rows are contiguous.
    pub json: (&'static str, &'static str),
    /// Prometheus family, and the label telling this row apart within
    /// a shared family.
    pub prom: (&'static str, Option<(&'static str, &'static str)>),
    /// Counter or gauge.
    pub kind: Kind,
    /// The family's `# HELP` text.
    pub help: &'static str,
    /// Reads the current value.
    pub get: fn(&ServerState) -> u64,
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

const EDGE_HELP: &str = "Requests rejected at the serving edge, by reason.";
const WORKER_HELP: &str = "Worker-supervision events, by kind.";
const FLEET_EVENT_HELP: &str = "Remote-worker fleet protocol events, by kind.";
const FLEET_ASSIGN_HELP: &str = "Fleet assignment lifecycle events, by kind.";

/// Every daemon number `/v1/metrics` and `/metrics` export, in JSON
/// order.
pub const METRICS: &[Metric] = &[
    Metric {
        json: ("queue", "depth"),
        prom: ("nfi_queue_depth", None),
        kind: Kind::Gauge,
        help: "Jobs waiting in the queue.",
        get: |s| s.queue.depth() as u64,
    },
    Metric {
        json: ("queue", "lanes"),
        prom: ("nfi_queue_lanes", None),
        kind: Kind::Gauge,
        help: "Concurrent scheduler lanes.",
        get: |s| s.config.lanes as u64,
    },
    Metric {
        json: ("queue", "running"),
        prom: ("nfi_queue_running", None),
        kind: Kind::Gauge,
        help: "Jobs currently executing.",
        get: |s| s.counters.running.load(Ordering::Relaxed) as u64,
    },
    Metric {
        json: ("queue", "submitted"),
        prom: ("nfi_jobs_submitted_total", None),
        kind: Kind::Counter,
        help: "Jobs accepted since startup.",
        get: |s| load(&s.counters.submitted),
    },
    Metric {
        json: ("queue", "completed"),
        prom: ("nfi_jobs_completed_total", None),
        kind: Kind::Counter,
        help: "Jobs finished successfully.",
        get: |s| load(&s.counters.completed),
    },
    Metric {
        json: ("queue", "failed"),
        prom: ("nfi_jobs_failed_total", None),
        kind: Kind::Counter,
        help: "Jobs that ended in an error.",
        get: |s| load(&s.counters.failed),
    },
    Metric {
        json: ("store", "units"),
        prom: ("nfi_store_units_total", None),
        kind: Kind::Counter,
        help: "Campaign work units planned.",
        get: |s| load(&s.counters.units),
    },
    Metric {
        json: ("store", "replayed"),
        prom: ("nfi_store_replayed_total", None),
        kind: Kind::Counter,
        help: "Units replayed from the store.",
        get: |s| load(&s.counters.replayed),
    },
    Metric {
        json: ("store", "executed"),
        prom: ("nfi_store_executed_total", None),
        kind: Kind::Counter,
        help: "Units that had to execute.",
        get: |s| load(&s.counters.executed),
    },
    Metric {
        json: ("store", "anchor_hits"),
        prom: ("nfi_store_anchor_hits_total", None),
        kind: Kind::Counter,
        help: "Units replayed via the anchor fallback.",
        get: |s| load(&s.counters.anchor_hits),
    },
    Metric {
        json: ("store", "anchor_misses"),
        prom: ("nfi_store_anchor_misses_total", None),
        kind: Kind::Counter,
        help: "Units the anchor fallback could not cover.",
        get: |s| load(&s.counters.anchor_misses),
    },
    Metric {
        json: ("journal", "appended"),
        prom: ("nfi_journal_appended_total", None),
        kind: Kind::Counter,
        help: "Journal records appended.",
        get: |s| s.journal().appended(),
    },
    Metric {
        json: ("journal", "recovered_queued"),
        prom: ("nfi_journal_recovered_queued_total", None),
        kind: Kind::Counter,
        help: "Unfinished jobs re-enqueued at startup.",
        get: |s| s.recovered.queued,
    },
    Metric {
        json: ("journal", "recovered_finished"),
        prom: ("nfi_journal_recovered_finished_total", None),
        kind: Kind::Counter,
        help: "Finished jobs restored at startup.",
        get: |s| s.recovered.finished,
    },
    Metric {
        json: ("journal", "corrupt_lines"),
        prom: ("nfi_journal_corrupt_lines_total", None),
        kind: Kind::Counter,
        help: "Journal lines skipped as corrupt.",
        get: |s| s.recovered.corrupt,
    },
    Metric {
        json: ("journal", "compactions"),
        prom: ("nfi_journal_compactions_total", None),
        kind: Kind::Counter,
        help: "Journal compactions performed.",
        get: |s| s.journal().compactions(),
    },
    Metric {
        json: ("edge", "unauthorized"),
        prom: (
            "nfi_edge_rejections_total",
            Some(("reason", "unauthorized")),
        ),
        kind: Kind::Counter,
        help: EDGE_HELP,
        get: |s| load(&s.counters.unauthorized),
    },
    Metric {
        json: ("edge", "rate_limited"),
        prom: (
            "nfi_edge_rejections_total",
            Some(("reason", "rate_limited")),
        ),
        kind: Kind::Counter,
        help: EDGE_HELP,
        get: |s| load(&s.counters.rate_limited),
    },
    Metric {
        json: ("edge", "queue_shed"),
        prom: ("nfi_edge_rejections_total", Some(("reason", "queue_shed"))),
        kind: Kind::Counter,
        help: EDGE_HELP,
        get: |s| load(&s.counters.queue_shed),
    },
    Metric {
        json: ("edge", "connections_shed"),
        prom: (
            "nfi_edge_rejections_total",
            Some(("reason", "connections_shed")),
        ),
        kind: Kind::Counter,
        help: EDGE_HELP,
        get: |s| load(&s.counters.connections_shed),
    },
    Metric {
        json: ("edge", "timeouts"),
        prom: ("nfi_edge_rejections_total", Some(("reason", "timeout"))),
        kind: Kind::Counter,
        help: EDGE_HELP,
        get: |s| load(&s.counters.timeouts),
    },
    Metric {
        json: ("retry", "deadline_expiries"),
        prom: ("nfi_worker_events_total", Some(("kind", "deadline_expiry"))),
        kind: Kind::Counter,
        help: WORKER_HELP,
        get: |s| load(&s.counters.deadline_expiries),
    },
    Metric {
        json: ("retry", "failed_units"),
        prom: ("nfi_worker_events_total", Some(("kind", "failed_unit"))),
        kind: Kind::Counter,
        help: WORKER_HELP,
        get: |s| load(&s.fleet.events.failed_units),
    },
    Metric {
        json: ("fleet", "workers_live"),
        prom: ("nfi_fleet_workers", Some(("state", "live"))),
        kind: Kind::Gauge,
        help: "Registered workers, by liveness state.",
        // Marks timed-out workers lost first, so the gauge is current
        // even on an idle daemon.
        get: |s| s.fleet.live_workers() as u64,
    },
    Metric {
        json: ("fleet", "workers_lost"),
        prom: ("nfi_fleet_events_total", Some(("kind", "worker_lost"))),
        kind: Kind::Counter,
        help: FLEET_EVENT_HELP,
        get: |s| load(&s.fleet.events.workers_lost),
    },
    Metric {
        json: ("fleet", "registrations"),
        prom: ("nfi_fleet_events_total", Some(("kind", "registration"))),
        kind: Kind::Counter,
        help: FLEET_EVENT_HELP,
        get: |s| load(&s.fleet.events.registrations),
    },
    Metric {
        json: ("fleet", "heartbeats"),
        prom: ("nfi_fleet_events_total", Some(("kind", "heartbeat"))),
        kind: Kind::Counter,
        help: FLEET_EVENT_HELP,
        get: |s| load(&s.fleet.events.heartbeats),
    },
    Metric {
        json: ("fleet", "polls"),
        prom: ("nfi_fleet_events_total", Some(("kind", "poll"))),
        kind: Kind::Counter,
        help: FLEET_EVENT_HELP,
        get: |s| load(&s.fleet.events.polls),
    },
    Metric {
        json: ("fleet", "assignments_dispatched"),
        prom: ("nfi_fleet_assignments_total", Some(("kind", "dispatched"))),
        kind: Kind::Counter,
        help: FLEET_ASSIGN_HELP,
        get: |s| load(&s.fleet.events.dispatched),
    },
    Metric {
        json: ("fleet", "assignments_completed"),
        prom: ("nfi_fleet_assignments_total", Some(("kind", "completed"))),
        kind: Kind::Counter,
        help: FLEET_ASSIGN_HELP,
        get: |s| load(&s.fleet.events.completed),
    },
    Metric {
        json: ("fleet", "assignments_requeued"),
        prom: ("nfi_fleet_assignments_total", Some(("kind", "requeued"))),
        kind: Kind::Counter,
        help: FLEET_ASSIGN_HELP,
        get: |s| load(&s.fleet.events.requeued),
    },
    Metric {
        json: ("fleet", "assignments_failed"),
        prom: ("nfi_fleet_assignments_total", Some(("kind", "failed"))),
        kind: Kind::Counter,
        help: FLEET_ASSIGN_HELP,
        get: |s| load(&s.fleet.events.failed),
    },
    Metric {
        json: ("fleet", "duplicate_results"),
        prom: ("nfi_fleet_assignments_total", Some(("kind", "duplicate"))),
        kind: Kind::Counter,
        help: FLEET_ASSIGN_HELP,
        get: |s| load(&s.fleet.events.duplicate_results),
    },
    Metric {
        json: ("fleet", "stale_rejections"),
        prom: ("nfi_fleet_events_total", Some(("kind", "stale_rejection"))),
        kind: Kind::Counter,
        help: FLEET_EVENT_HELP,
        get: |s| load(&s.fleet.events.stale_rejections),
    },
];

/// The telemetry histogram families: (registry family, Prometheus
/// family, help).
const HISTOGRAMS: [(&str, &str, &str); 3] = [
    (
        families::HTTP,
        "nfi_http_request_duration_seconds",
        "HTTP request duration, by route and status class.",
    ),
    (
        families::QUEUE_WAIT,
        "nfi_queue_wait_seconds",
        "Job wait from accept to lane start.",
    ),
    (
        families::PHASE,
        "nfi_phase_duration_seconds",
        "Orchestrator phase duration, by phase.",
    ),
];

/// The `/v1/metrics` document: each section of [`METRICS`] as an
/// object, with two additions kept for existing consumers — the
/// derived `store.hit_rate`, and the `latency` section just before
/// `fleet` (the section added last).
pub fn render_json(state: &ServerState, histograms: &[SeriesSnapshot]) -> String {
    let mut sections: Vec<(&str, Vec<String>)> = Vec::new();
    for m in METRICS {
        let (section, key) = m.json;
        let field = format!("\"{key}\":{}", (m.get)(state));
        match sections.last_mut() {
            Some((open, fields)) if *open == section => fields.push(field),
            _ => sections.push((section, vec![field])),
        }
    }
    let mut parts = Vec::new();
    for (section, mut fields) in sections {
        if section == "store" {
            let units = load(&state.counters.units);
            let rate = if units == 0 {
                0.0
            } else {
                load(&state.counters.replayed) as f64 / units as f64
            };
            fields.push(format!("\"hit_rate\":{rate:.3}"));
        }
        if section == "fleet" {
            let latency = LatencySummary::from_series(histograms);
            parts.push(format!("\"latency\":{}", latency.render_json()));
        }
        parts.push(format!("\"{section}\":{{{}}}", fields.join(",")));
    }
    format!("{{{}}}", parts.join(","))
}

/// The `/metrics` page: every [`METRICS`] row, grouped by family in
/// the order each family first appears (the text format requires a
/// family's lines to form one group), then the latency histograms with
/// their full bucket series.
pub fn render_prometheus(state: &ServerState, histograms: &[SeriesSnapshot]) -> String {
    let mut p = PromText::new();
    let mut families: Vec<&str> = Vec::new();
    for m in METRICS {
        if !families.contains(&m.prom.0) {
            families.push(m.prom.0);
        }
    }
    for family in families {
        for m in METRICS.iter().filter(|m| m.prom.0 == family) {
            let (labels, value) = (m.prom.1.as_slice(), (m.get)(state));
            m.kind.render(&mut p, family, m.help, labels, value);
        }
    }
    for (source, family, help) in HISTOGRAMS {
        for series in histograms.iter().filter(|s| s.family == source) {
            let labels: Vec<(&str, &str)> = series
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            p.histogram(family, help, &labels, &series.hist);
        }
    }
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalOutcome;
    use crate::queue::Priority;
    use crate::{Recovered, ServeConfig, Server};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// `/v1/metrics` and `/metrics` for the numbers [`bound_state`]
    /// sets and the histograms [`histograms`] records.
    const JSON: &str = include_str!("../tests/fixtures/metrics.json");
    const PROM: &str = include_str!("../tests/fixtures/metrics.prom");

    /// A bound daemon whose 34 numbers are all distinct, so a getter
    /// that reads another row's source shows up in its value.
    fn bound_state(tag: &str) -> (Server, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("nfi-metrics-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Bound, never run: no worker is ever started from the binary.
        let config = ServeConfig {
            lanes: 2,
            ..ServeConfig::new(&dir, "nfi")
        };
        let mut server = Server::bind("127.0.0.1:0", config).unwrap();
        let s = Arc::get_mut(&mut server.state).expect("not serving yet");
        s.recovered = Recovered {
            queued: 31,
            finished: 37,
            corrupt: 41,
        };
        let journal = s.journal.get_mut().unwrap();
        for id in 0..9 {
            journal
                .record_finished(id, &JournalOutcome::Failed(String::new()))
                .unwrap();
        }
        for _ in 0..6 {
            journal.compact(&[]).unwrap();
        }
        for id in 0..3 {
            s.queue.push_for("", Priority::Normal, id);
        }
        for name in ["w1", "w2", "w3", "w4"] {
            s.fleet
                .register(name, s.orch.machine.fingerprint())
                .unwrap();
        }
        s.counters.running.store(5, Ordering::Relaxed);
        let (c, f) = (&s.counters, &s.fleet.events);
        for (counter, value) in [
            (&c.submitted, 17),
            (&c.completed, 11),
            (&c.failed, 13),
            (&c.units, 480),
            (&c.replayed, 341),
            (&c.executed, 139),
            (&c.anchor_hits, 97),
            (&c.anchor_misses, 23),
            (&c.unauthorized, 43),
            (&c.rate_limited, 47),
            (&c.queue_shed, 53),
            (&c.connections_shed, 59),
            (&c.timeouts, 61),
            (&c.deadline_expiries, 73),
            (&f.failed_units, 79),
            (&f.workers_lost, 83),
            (&f.registrations, 89),
            (&f.heartbeats, 101),
            (&f.polls, 103),
            (&f.dispatched, 107),
            (&f.completed, 109),
            (&f.requeued, 113),
            (&f.failed, 127),
            (&f.duplicate_results, 131),
            (&f.stale_rejections, 137),
        ] {
            counter.store(value, Ordering::Relaxed);
        }
        (server, dir)
    }

    fn histograms() -> Vec<SeriesSnapshot> {
        let registry = nfi_telemetry::Registry::new();
        let record = |family, labels: &[(&str, &str)], micros| {
            registry.histogram(family, labels).record_micros(micros);
        };
        let metrics = [("route", "/v1/metrics"), ("status", "2xx")];
        record(families::HTTP, &metrics, 100);
        record(families::HTTP, &metrics, 3_000);
        let campaigns = [("route", "/v1/campaigns"), ("status", "4xx")];
        record(families::HTTP, &campaigns, 250);
        record(families::QUEUE_WAIT, &[], 40);
        record(families::QUEUE_WAIT, &[], 900);
        record(families::PHASE, &[("phase", "execute")], 2_000_000);
        record(families::PHASE, &[("phase", "plan")], 1_500);
        record(families::PHASE, &[("phase", "plan")], 700);
        registry.snapshot()
    }

    #[test]
    fn every_row_reads_its_own_source() {
        let (server, dir) = bound_state("rows");
        let state = server.state();
        let values: BTreeSet<u64> = METRICS.iter().map(|m| (m.get)(&state)).collect();
        assert_eq!(values.len(), METRICS.len(), "fixture numbers are distinct");
        for m in METRICS {
            let (section, key) = m.json;
            let rendered = &JSON[JSON.find(&format!("\"{section}\":{{")).unwrap()..];
            let rendered = &rendered[..rendered.find('}').unwrap()];
            let field = format!("\"{key}\":{}", (m.get)(&state));
            assert!(
                rendered.contains(&format!("{field},")) || rendered.ends_with(&field),
                "{section}.{key} reads {field}, the fixture has {rendered}"
            );
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn both_views_match_the_captured_fixture() {
        let (server, dir) = bound_state("views");
        let state = server.state();
        assert_eq!(render_json(&state, &histograms()), JSON);
        let page = render_prometheus(&state, &histograms());
        nfi_telemetry::prom::check_conformance(&page)
            .unwrap_or_else(|e| panic!("non-conformant page: {e}\n{page}"));
        assert_eq!(page, PROM);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rows_are_unique_and_families_agree_on_kind_and_help() {
        let mut keys = BTreeSet::new();
        let mut series = BTreeSet::new();
        for m in METRICS {
            assert!(keys.insert(m.json), "{m:?}", m = m.json);
            assert!(series.insert(m.prom), "{m:?}", m = m.prom);
            for other in METRICS.iter().filter(|o| o.prom.0 == m.prom.0) {
                assert_eq!((other.kind, other.help), (m.kind, m.help), "{}", m.prom.0);
            }
            assert_eq!(m.prom.0.ends_with("_total"), m.kind == Kind::Counter);
        }
    }

    #[test]
    fn the_operations_runbook_documents_every_row() {
        let doc = include_str!("../../../docs/OPERATIONS.md");
        let reference = &doc[doc.find("## Metrics reference").unwrap()..];
        let reference = &reference[..reference.find("\n## ").unwrap()];
        for m in METRICS {
            let series = match m.prom {
                (family, Some((name, value))) => format!("{family}{{{name}=\"{value}\"}}"),
                (family, None) => family.to_string(),
            };
            let row = format!("| `{}.{}` | `{series}` |", m.json.0, m.json.1);
            assert!(reference.contains(&row), "docs/OPERATIONS.md lacks {row}");
        }
        for family in HISTOGRAMS.map(|(_, f, _)| f) {
            assert!(reference.contains(family), "docs lack {family}");
        }
    }
}

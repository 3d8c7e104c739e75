//! Fixed-bucket log2 latency histograms (HDR-lite).
//!
//! Bucket `i` counts samples whose value in microseconds is `<= 2^i`
//! (and `> 2^(i-1)` for `i > 0`); the last bucket is the `+Inf`
//! overflow. 32 buckets cover 1µs .. ~2147s with ≤ 2x relative error —
//! plenty for request, queue, and phase latencies — in 256 bytes of
//! counters, so every lane can record lock-free and snapshots merge by
//! addition.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Bucket count, including the final `+Inf` overflow bucket.
pub const BUCKETS: usize = 32;

/// Index of the bucket whose upper bound first covers `micros`.
fn bucket_index(micros: u64) -> usize {
    if micros <= 1 {
        0
    } else {
        let i = (u64::BITS - (micros - 1).leading_zeros()) as usize;
        i.min(BUCKETS - 1)
    }
}

/// Upper bound of bucket `i` in microseconds; `None` is `+Inf`.
pub fn bucket_upper_micros(i: usize) -> Option<u64> {
    if i + 1 >= BUCKETS {
        None
    } else {
        Some(1u64 << i)
    }
}

/// An owned histogram snapshot: mergeable, with percentile estimation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Per-bucket sample counts (not cumulative).
    pub counts: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in microseconds.
    pub sum_micros: u64,
    /// Largest recorded sample in microseconds.
    pub max_micros: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample of `micros`.
    pub fn record_micros(&mut self, micros: u64) {
        self.counts[bucket_index(micros)] += 1;
        self.count += 1;
        self.sum_micros = self.sum_micros.saturating_add(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Adds every sample of `other` into `self`. Merging is
    /// commutative and associative: lanes can be folded in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_micros = self.sum_micros.saturating_add(other.sum_micros);
        self.max_micros = self.max_micros.max(other.max_micros);
    }

    /// Estimated quantile `q` in `[0, 1]`, in microseconds: the upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`, clamped to the recorded maximum (which also
    /// gives the `+Inf` bucket a finite answer). 0 when empty.
    /// Monotone in `q` by construction.
    pub fn percentile_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = bucket_upper_micros(i).unwrap_or(u64::MAX);
                return upper.min(self.max_micros);
            }
        }
        self.max_micros
    }

    /// p50 in microseconds.
    pub fn p50_micros(&self) -> u64 {
        self.percentile_micros(0.50)
    }

    /// p90 in microseconds.
    pub fn p90_micros(&self) -> u64 {
        self.percentile_micros(0.90)
    }

    /// p99 in microseconds.
    pub fn p99_micros(&self) -> u64 {
        self.percentile_micros(0.99)
    }
}

/// A histogram recorded with relaxed atomics — one shared instance per
/// (family, label set), hot-path safe from any thread. `snapshot()`
/// folds it into an owned [`Histogram`] for rendering/merging.
#[derive(Debug, Default)]
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl AtomicHistogram {
    /// An empty atomic histogram.
    pub const fn new() -> Self {
        Self {
            counts: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    /// Records one sample of `micros`. A no-op while telemetry is
    /// disabled ([`crate::set_enabled`]).
    pub fn record_micros(&self, micros: u64) {
        if !crate::enabled() {
            return;
        }
        self.counts[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Records one duration sample.
    pub fn record(&self, d: Duration) {
        self.record_micros(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// An owned copy of the current counts. Buckets are loaded
    /// individually (relaxed), so a snapshot taken mid-record can be
    /// off by the in-flight sample — fine for exposition.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (dst, src) in h.counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum_micros = self.sum_micros.load(Ordering::Relaxed);
        h.max_micros = self.max_micros.load(Ordering::Relaxed);
        h
    }
}

/// One registered histogram series: a family name plus its label set.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Family name, e.g. `http_request_duration`.
    pub family: String,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The series' current histogram.
    pub hist: Histogram,
}

/// The process-wide histogram registry. Lookup takes a lock and
/// allocates, so hot paths call [`Registry::histogram`] once at setup
/// and keep the returned `&'static` handle; recording itself is
/// lock-free.
/// One registry entry: (family, labels, the live histogram).
type SeriesEntry = (String, Vec<(String, String)>, &'static AtomicHistogram);

#[derive(Debug, Default)]
pub struct Registry {
    series: Mutex<Vec<SeriesEntry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The histogram for `(family, labels)`, created on first use.
    /// The handle is `'static`: series live for the process (the
    /// label space is bounded — route templates, status classes,
    /// phase names — never raw user input).
    pub fn histogram(&self, family: &str, labels: &[(&str, &str)]) -> &'static AtomicHistogram {
        let mut series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, _, h)) = series
            .iter()
            .find(|(f, l, _)| f == family && label_eq(l, labels))
        {
            return h;
        }
        let hist: &'static AtomicHistogram = Box::leak(Box::new(AtomicHistogram::new()));
        series.push((
            family.to_string(),
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            hist,
        ));
        hist
    }

    /// Snapshots every series, sorted by (family, labels) for stable
    /// exposition order.
    pub fn snapshot(&self) -> Vec<SeriesSnapshot> {
        let series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<SeriesSnapshot> = series
            .iter()
            .map(|(family, labels, hist)| SeriesSnapshot {
                family: family.clone(),
                labels: labels.clone(),
                hist: hist.snapshot(),
            })
            .collect();
        out.sort_by(|a, b| (&a.family, &a.labels).cmp(&(&b.family, &b.labels)));
        out
    }

    /// Merges every series of `family` into one histogram (e.g. all
    /// routes of `http_request_duration`).
    pub fn merged(&self, family: &str) -> Histogram {
        let mut h = Histogram::new();
        for s in self.snapshot() {
            if s.family == family {
                h.merge(&s.hist);
            }
        }
        h
    }
}

fn label_eq(owned: &[(String, String)], borrowed: &[(&str, &str)]) -> bool {
    owned.len() == borrowed.len()
        && owned
            .iter()
            .zip(borrowed.iter())
            .all(|((ak, av), (bk, bv))| ak == bk && av == bv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // 0 and 1 land in the first bucket (le 1µs).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        // Each power of two lands exactly on its own bucket's upper
        // bound; one more spills into the next bucket.
        for i in 1..(BUCKETS - 1) {
            let bound = 1u64 << i;
            assert_eq!(bucket_index(bound), i, "le bound 2^{i} is inclusive");
            assert_eq!(bucket_index(bound + 1), i + 1, "2^{i}+1 overflows to next");
        }
        // Everything past the last finite bound is the +Inf bucket.
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_micros(BUCKETS - 1), None);
    }

    #[test]
    fn record_and_percentiles_track_samples() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 10_000] {
            h.record_micros(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum_micros, 11_106);
        assert_eq!(h.max_micros, 10_000);
        // p50 covers the 3rd sample (value 3, bucket le 4).
        assert_eq!(h.p50_micros(), 4);
        // p99 resolves to the max-clamped top bucket.
        assert_eq!(h.p99_micros(), 10_000);
    }

    #[test]
    fn percentiles_are_monotone_in_q() {
        // Property: for any sample set, q1 <= q2 implies
        // percentile(q1) <= percentile(q2). Pseudo-random samples from
        // a deterministic LCG (no external RNG dep).
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _ in 0..50 {
            let mut h = Histogram::new();
            for _ in 0..100 {
                h.record_micros(next() % 5_000_000);
            }
            let mut prev = 0u64;
            for step in 0..=20 {
                let q = step as f64 / 20.0;
                let p = h.percentile_micros(q);
                assert!(p >= prev, "percentile not monotone at q={q}");
                prev = p;
            }
            assert!(h.percentile_micros(1.0) <= h.max_micros.max(1));
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        // Property: merge(a, b) has the same counts/percentiles as
        // recording every sample into a single histogram, regardless
        // of how samples were split.
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _ in 0..20 {
            let samples: Vec<u64> = (0..200).map(|_| next() % 10_000_000).collect();
            let split = (next() % 200) as usize;
            let mut whole = Histogram::new();
            let (mut a, mut b) = (Histogram::new(), Histogram::new());
            for (i, &v) in samples.iter().enumerate() {
                whole.record_micros(v);
                if i < split {
                    a.record_micros(v);
                } else {
                    b.record_micros(v);
                }
            }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, whole, "merge differs from single-histogram recording");
            assert_eq!(ba, whole, "merge is not commutative");
        }
    }

    /// Tests toggling or depending on the process-wide enabled flag
    /// serialize here so a parallel `set_enabled(false)` can't swallow
    /// another test's samples.
    fn enabled_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn atomic_histogram_snapshot_matches_plain() {
        let _guard = enabled_guard();
        let atomic = AtomicHistogram::new();
        let mut plain = Histogram::new();
        for v in [0u64, 1, 7, 65, 4096, 123_456_789] {
            atomic.record_micros(v);
            plain.record_micros(v);
        }
        assert_eq!(atomic.snapshot(), plain);
    }

    #[test]
    fn disabled_telemetry_skips_recording() {
        let _guard = enabled_guard();
        let atomic = AtomicHistogram::new();
        crate::set_enabled(false);
        atomic.record_micros(10);
        crate::set_enabled(true);
        atomic.record_micros(10);
        assert_eq!(atomic.snapshot().count, 1, "disabled sample recorded");
    }

    #[test]
    fn registry_reuses_series_and_merges_families() {
        let _guard = enabled_guard();
        let r = Registry::new();
        let a = r.histogram("f", &[("route", "/x")]);
        let b = r.histogram("f", &[("route", "/x")]);
        assert!(std::ptr::eq(a, b), "same labels must share a series");
        let c = r.histogram("f", &[("route", "/y")]);
        assert!(!std::ptr::eq(a, c));
        a.record_micros(10);
        c.record_micros(1000);
        let merged = r.merged("f");
        assert_eq!(merged.count, 2);
        assert_eq!(r.snapshot().len(), 2);
    }
}

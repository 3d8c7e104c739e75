//! Metric records, summary statistics and the result line.

use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string (`s`, `ms`, `1/s`, `MB`, `count`, `share`, `bytes`).
    pub unit: &'static str,
}

/// What one workload run produced: the gate verdict, the job counts,
/// the metrics of the requested kind, and a free-form detail object
/// (waterfall, per-program layers, digests, machine config).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every output matched its reference.
    pub correct: bool,
    /// Jobs attempted (edits, served jobs, sessions, program runs).
    pub attempted: u64,
    /// Jobs that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Pre-rendered JSON members of the detail object.
    pub detail: Vec<(String, String)>,
    /// The traced run's layer waterfall (traced runs only).
    pub waterfall: Option<Waterfall>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    /// Appends a detail member whose value is already JSON.
    pub fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The contract's result line: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// The detail object (printed before the result line).
    pub fn detail_line(&self) -> String {
        let members: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{\"detail\":{{{}}}}}", members.join(","))
    }
}

/// A finite JSON number with all its digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    format!("\"{}\"", nfi_sfi::jsontext::escape(s))
}

/// A JSON object from `(key, json value)` members.
pub fn jobj<K: AsRef<str>>(members: &[(K, String)]) -> String {
    let inner: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", k.as_ref()))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Memory of the process doing a workload's work, from procfs (zeros
/// where procfs is unavailable).
#[derive(Debug, Clone, Copy, Default)]
pub struct Memory {
    /// Resident set size (`VmRSS`) when read, in MB.
    pub rss_mb: f64,
    /// Peak resident set size (`VmHWM`) so far, in MB.
    pub peak_rss_mb: f64,
}

impl Memory {
    /// Reads process `pid` (this process when `None`).
    pub fn of(pid: Option<u32>) -> Memory {
        let path = match pid {
            Some(pid) => format!("/proc/{pid}/status"),
            None => "/proc/self/status".to_string(),
        };
        let status = std::fs::read_to_string(path).unwrap_or_default();
        let field = |name: &str| {
            status
                .lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
                .map_or(0.0, |kb| kb / 1024.0)
        };
        Memory {
            rss_mb: field("VmRSS:"),
            peak_rss_mb: field("VmHWM:"),
        }
    }
}

/// fnv1a-64 folded over `bytes`, continuing from `hash`.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fnv1a-64 offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of one document.
pub fn digest(doc: &str) -> u64 {
    fnv(FNV_START, doc.as_bytes())
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One measurement window: the jobs that finished in it, the units
/// their documents carry, and the window's wall seconds.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Per-job latency in seconds.
    pub latencies: Vec<f64>,
    /// Experiment units delivered.
    pub units: u64,
    /// Wall seconds the window covers.
    pub wall: f64,
}

/// The job-level end-to-end metrics every workload reports, over the
/// run's windows (a cold pass, a block of consecutive jobs, a slice of
/// wall time). A shared host's speed swings between levels that last
/// seconds, so a median over windows lands on one level or the other
/// from run to run; run totals, pooled percentiles and means over
/// windows move smoothly with the mix of levels a run saw.
#[derive(Debug, Clone)]
pub struct JobStats {
    /// Windows in time order; the last one may still be filling.
    windows: Vec<Window>,
    window_s: f64,
}

impl JobStats {
    /// Stats over sequential jobs: a new window opens once the current
    /// one holds `window_s` busy seconds (infinite: only
    /// [`JobStats::close_window`] opens one).
    pub fn new(window_s: f64) -> JobStats {
        JobStats {
            windows: vec![Window::default()],
            window_s,
        }
    }

    /// Stats from windows a caller already cut (concurrent clients).
    pub fn from_windows(windows: Vec<Window>) -> JobStats {
        JobStats {
            windows,
            window_s: f64::INFINITY,
        }
    }

    /// Records one sequential job of `latency` seconds.
    pub fn record(&mut self, latency: f64, units: u64) {
        let w = self.windows.last_mut().expect("a window is open");
        w.latencies.push(latency);
        w.units += units;
        w.wall += latency;
        if w.wall >= self.window_s {
            self.close_window();
        }
    }

    /// Closes the current window and opens the next.
    pub fn close_window(&mut self) {
        if self.windows.last().is_some_and(|w| !w.latencies.is_empty()) {
            self.windows.push(Window::default());
        }
    }

    /// Busy seconds over every window.
    pub fn wall(&self) -> f64 {
        self.windows.iter().map(|w| w.wall).sum()
    }

    /// Every latency, in order.
    pub fn latencies(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.latencies.iter().copied())
            .collect()
    }

    /// Windows that count: non-empty, and — unless none is — at least
    /// half as long as the longest (drops the trailing partial window).
    fn full_windows(&self) -> Vec<&Window> {
        let longest = self.windows.iter().map(|w| w.wall).fold(0.0, f64::max);
        let full: Vec<&Window> = self
            .windows
            .iter()
            .filter(|w| !w.latencies.is_empty() && w.wall >= longest / 2.0)
            .collect();
        if full.is_empty() {
            self.windows
                .iter()
                .filter(|w| !w.latencies.is_empty())
                .collect()
        } else {
            full
        }
    }

    /// Pushes `setup_s` first, then throughput over the whole run, the
    /// p50 of every job, and the p99 within each full window averaged
    /// over windows (a cold pass holds twelve jobs, so a pooled p99 would
    /// be the run's single slowest job). Memory goes to the per-layer
    /// metrics and the detail: the daemon's resident set lands on one of
    /// two levels from run to run (allocator arenas), so no bound on it
    /// could hold.
    pub fn push_end_to_end(&self, report: &mut Report, setup_s: f64, mem: Memory) {
        let all = self.latencies();
        let units: u64 = self.windows.iter().map(|w| w.units).sum();
        let p99s: Vec<f64> = self
            .full_windows()
            .iter()
            .map(|w| percentile(&w.latencies, 0.99))
            .collect();
        report.push("setup_s", setup_s, "s");
        report.push("units_per_s", ratio(units as f64, self.wall()), "1/s");
        report.push("jobs_per_s", ratio(all.len() as f64, self.wall()), "1/s");
        report.push("job_p50_ms", percentile(&all, 0.50) * 1e3, "ms");
        report.push(
            "job_p99_ms",
            ratio(p99s.iter().sum(), p99s.len() as f64) * 1e3,
            "ms",
        );
        report.detail(
            "memory_mb",
            jobj(&[("rss", num(mem.rss_mb)), ("peak", num(mem.peak_rss_mb))]),
        );
    }

    /// The sample counts and run-level spread recorded beside the
    /// metrics.
    pub fn detail_json(&self) -> String {
        let all = self.latencies();
        let per_window: Vec<String> = self
            .full_windows()
            .iter()
            .map(|w| num(ratio(w.latencies.len() as f64, w.wall)))
            .collect();
        jobj(&[
            ("samples", all.len().to_string()),
            ("window_jobs_per_s", format!("[{}]", per_window.join(","))),
            ("windows", self.full_windows().len().to_string()),
            (
                "units",
                self.windows
                    .iter()
                    .map(|w| w.units)
                    .sum::<u64>()
                    .to_string(),
            ),
            ("wall_s", num(self.wall())),
            ("run_p50_ms", num(percentile(&all, 0.50) * 1e3)),
            ("run_p99_ms", num(percentile(&all, 0.99) * 1e3)),
            ("run_max_ms", num(percentile(&all, 1.0) * 1e3)),
        ])
    }
}

/// A layer waterfall: named parts of a traced wall time plus the
/// unattributed remainder, so `sum(parts) + residual == wall` exactly.
#[derive(Debug, Clone, Default)]
pub struct Waterfall {
    /// `(layer, seconds)` in pipeline order.
    pub parts: Vec<(String, f64)>,
    /// Traced wall seconds the parts are a breakdown of.
    pub wall: f64,
}

impl Waterfall {
    /// Wall minus the sum of the parts.
    pub fn residual(&self) -> f64 {
        self.wall - self.parts.iter().map(|(_, s)| s).sum::<f64>()
    }

    /// `{"parts": {...}, "residual": r, "wall": w}`.
    pub fn to_json(&self) -> String {
        let parts: Vec<(&str, String)> = self
            .parts
            .iter()
            .map(|(k, v)| (k.as_str(), num(*v)))
            .collect();
        jobj(&[
            ("parts", jobj(&parts)),
            ("residual", num(self.residual())),
            ("wall", num(self.wall)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.push("setup_s", 0.5, "s");
        assert_eq!(
            r.result_line(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}

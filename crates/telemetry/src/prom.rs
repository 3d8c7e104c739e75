//! Prometheus text-format exposition (version 0.0.4).
//!
//! Families are announced once with `# HELP`/`# TYPE`; histogram
//! families expand to cumulative `_bucket{le="..."}` series plus
//! `_sum`/`_count`, with bucket bounds converted from the histogram's
//! microsecond buckets to seconds (the Prometheus base unit). Label
//! values are escaped per the format spec (`\\`, `\"`, `\n`).

use crate::hist::{bucket_upper_micros, Histogram, BUCKETS};
use std::collections::BTreeMap;

/// The content type a `/metrics` response must carry.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Escapes a label value per the exposition format.
pub fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn render_labels_with_le(labels: &[(&str, &str)], le: &str) -> String {
    let mut body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    body.push(format!("le=\"{le}\""));
    format!("{{{}}}", body.join(","))
}

/// A text-format document under construction. Each family is
/// announced once, before its first series; a family re-announced with
/// a different type is a caller bug and is rejected (`debug_assert`)
/// rather than emitting a malformed page. The format requires all
/// lines of a family to form one group, so callers emit a family's
/// series together — [`check_conformance`] rejects interleaved ones.
#[derive(Debug, Default)]
pub struct PromText {
    buf: String,
    families: BTreeMap<String, &'static str>,
}

impl PromText {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: &str, help: &str, kind: &'static str) {
        if let Some(&seen) = self.families.get(name) {
            debug_assert_eq!(seen, kind, "family {name} re-announced as {kind}");
            return;
        }
        self.families.insert(name.to_string(), kind);
        self.buf
            .push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    }

    /// Emits one counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.family(name, help, "counter");
        self.buf
            .push_str(&format!("{name}{} {value}\n", render_labels(labels)));
    }

    /// Emits one gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.family(name, help, "gauge");
        self.buf
            .push_str(&format!("{name}{} {value}\n", render_labels(labels)));
    }

    /// Emits one histogram series: cumulative buckets (in seconds),
    /// `+Inf`, `_sum`, `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.family(name, help, "histogram");
        let mut cumulative = 0u64;
        for i in 0..BUCKETS {
            cumulative += h.counts[i];
            let le = match bucket_upper_micros(i) {
                Some(us) => format!("{}", us as f64 / 1e6),
                None => "+Inf".to_string(),
            };
            // Empty interior buckets are elided to keep pages small;
            // +Inf always renders so _count is checkable.
            if h.counts[i] == 0 && bucket_upper_micros(i).is_some() && cumulative != h.count {
                continue;
            }
            self.buf.push_str(&format!(
                "{name}_bucket{} {cumulative}\n",
                render_labels_with_le(labels, &le)
            ));
            if cumulative == h.count && bucket_upper_micros(i).is_some() {
                // Every later bucket repeats the total; jump to +Inf.
                self.buf.push_str(&format!(
                    "{name}_bucket{} {cumulative}\n",
                    render_labels_with_le(labels, "+Inf")
                ));
                break;
            }
        }
        self.buf.push_str(&format!(
            "{name}_sum{} {}\n",
            render_labels(labels),
            h.sum_micros as f64 / 1e6
        ));
        self.buf.push_str(&format!(
            "{name}_count{} {}\n",
            render_labels(labels),
            h.count
        ));
    }

    /// The finished page.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// A minimal conformance check over a rendered page, shared by the
/// exposition tests in every crate that renders `/metrics`: HELP/TYPE
/// announced exactly once per family, every sample's family announced
/// before use, each family's lines in one group, and histogram
/// `_bucket` series cumulative, ending in `+Inf`, and consistent with
/// `_count`.
pub fn check_conformance(page: &str) -> Result<(), String> {
    use std::collections::BTreeSet;
    // Families whose group has started, and the one being read.
    let mut grouped = BTreeSet::new();
    let mut current = String::new();
    let mut group = |fam: &str| {
        if fam != current {
            if !grouped.insert(fam.to_string()) {
                return Err(format!("family {fam} is split into more than one group"));
            }
            current = fam.to_string();
        }
        Ok(())
    };
    let mut helped = BTreeSet::new();
    let mut typed = BTreeMap::new();
    let mut bucket_last: BTreeMap<String, (u64, bool)> = BTreeMap::new(); // series -> (cumulative, saw +Inf)
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let fam = rest.split(' ').next().unwrap_or("");
            group(fam)?;
            if !helped.insert(fam.to_string()) {
                return Err(format!("duplicate HELP for {fam}"));
            }
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let fam = it.next().unwrap_or("").to_string();
            let kind = it.next().unwrap_or("").to_string();
            group(&fam)?;
            if typed.insert(fam.clone(), kind).is_some() {
                return Err(format!("duplicate TYPE for {fam}"));
            }
            if !helped.contains(&fam) {
                return Err(format!("TYPE before HELP for {fam}"));
            }
        } else if !line.is_empty() {
            let name_end = line.find(['{', ' ']).unwrap_or(line.len());
            let name = &line[..name_end];
            let fam = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .filter(|f| typed.get(*f).map(String::as_str) == Some("histogram"))
                .unwrap_or(name);
            if !typed.contains_key(fam) {
                return Err(format!("sample for unannounced family: {line}"));
            }
            group(fam)?;
            let value: f64 = line
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("unparseable value: {line}"))?;
            if name.ends_with("_bucket") {
                let series = line[..line.rfind(' ').unwrap_or(0)]
                    .replace(' ', "")
                    .split("le=\"")
                    .next()
                    .unwrap_or("")
                    .to_string();
                let entry = bucket_last.entry(series).or_insert((0, false));
                if (value as u64) < entry.0 {
                    return Err(format!("non-cumulative bucket: {line}"));
                }
                entry.0 = value as u64;
                if line.contains("le=\"+Inf\"") {
                    entry.1 = true;
                }
            } else if name.ends_with("_count")
                && typed.get(fam).map(String::as_str) == Some("histogram")
            {
                counts.insert(fam.to_string(), value as u64);
            }
        }
    }
    for (series, (last, saw_inf)) in &bucket_last {
        if !saw_inf {
            return Err(format!("bucket series without +Inf: {series}"));
        }
        let fam = series.split('{').next().unwrap_or("");
        let fam = fam.strip_suffix("_bucket").unwrap_or(fam);
        if let Some(count) = counts.get(fam) {
            if last > count {
                return Err(format!("bucket cumulative {last} exceeds _count {count}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_announce_once_and_escape_labels() {
        let mut p = PromText::new();
        p.counter(
            "nfi_requests_total",
            "Requests.",
            &[("route", "/a\"b\\c")],
            3,
        );
        p.counter("nfi_requests_total", "Requests.", &[("route", "/d")], 4);
        p.gauge("nfi_depth", "Depth.", &[], 2.0);
        let page = p.finish();
        assert_eq!(page.matches("# HELP nfi_requests_total").count(), 1);
        assert_eq!(page.matches("# TYPE nfi_requests_total").count(), 1);
        assert!(page.contains("route=\"/a\\\"b\\\\c\""), "{page}");
        assert!(page.contains("nfi_depth 2\n"));
        check_conformance(&page).unwrap();
    }

    #[test]
    fn histogram_renders_cumulative_buckets_sum_count() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 1_000, 1_000_000] {
            h.record_micros(v);
        }
        let mut p = PromText::new();
        p.histogram(
            "nfi_req_seconds",
            "Request latency.",
            &[("route", "/x")],
            &h,
        );
        let page = p.finish();
        assert!(page.contains("le=\"0.000001\"} 1\n"), "{page}");
        assert!(page.contains("le=\"0.000002\"} 2\n"), "{page}");
        assert!(page.contains("le=\"+Inf\"} 4\n"), "{page}");
        assert!(
            page.contains("nfi_req_seconds_count{route=\"/x\"} 4"),
            "{page}"
        );
        assert!(
            page.contains("nfi_req_seconds_sum{route=\"/x\"} 1.001003"),
            "{page}"
        );
        check_conformance(&page).unwrap();
    }

    #[test]
    fn empty_histogram_still_exposes_inf_and_count() {
        let mut p = PromText::new();
        p.histogram(
            "nfi_empty_seconds",
            "Never sampled.",
            &[],
            &Histogram::new(),
        );
        let page = p.finish();
        assert!(page.contains("le=\"+Inf\"} 0"), "{page}");
        assert!(page.contains("nfi_empty_seconds_count 0"), "{page}");
        check_conformance(&page).unwrap();
    }

    #[test]
    fn conformance_rejects_duplicates_and_gaps() {
        assert!(check_conformance("# HELP a x\n# HELP a x\n").is_err());
        assert!(check_conformance("b 1\n").is_err());
        assert!(check_conformance(
            "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"
        )
        .is_err());
    }

    #[test]
    fn conformance_rejects_interleaved_families() {
        let mut p = PromText::new();
        for cache in ["mutant", "code"] {
            p.counter("nfi_hits_total", "Hits.", &[("cache", cache)], 1);
            p.gauge("nfi_entries", "Entries.", &[("cache", cache)], 2.0);
        }
        let err = check_conformance(&p.finish()).unwrap_err();
        assert!(err.contains("nfi_hits_total is split"), "{err}");
        let grouped = "# HELP a x\n# TYPE a counter\na{k=\"1\"} 1\na{k=\"2\"} 2\n\
                       # HELP b x\n# TYPE b gauge\nb 3\n";
        check_conformance(grouped).unwrap();
    }
}

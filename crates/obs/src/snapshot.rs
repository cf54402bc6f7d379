//! Point-in-time metric snapshots and their JSON form.
//!
//! [`MetricsSnapshot`] is the boundary artifact of the observability
//! layer: `repro --metrics out.json` writes one, the `metrics_check` CI
//! binary validates one, and tests diff two to measure a workload. The
//! JSON writer is hand-rolled (this crate has no dependencies); output
//! is deterministic — keys sorted, buckets in bound order — so
//! snapshots diff cleanly.

use crate::hist::{bucket_bound, Histogram, BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema identifier stamped into every snapshot.
pub const SCHEMA: &str = "moloc.metrics.v1";

/// A frozen histogram: summary stats plus non-empty buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: f64,
    /// Smallest sample, 0 when empty.
    pub min: f64,
    /// Largest sample, 0 when empty.
    pub max: f64,
    /// `(upper_bound, count)` for every non-empty bucket, in bound
    /// order; an upper bound of `f64::INFINITY` is the overflow bucket.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    fn freeze(h: &Histogram) -> Self {
        let buckets = h
            .bucket_counts()
            .into_iter()
            .enumerate()
            .filter(|&(_, count)| count > 0)
            .map(|(i, count)| {
                let bound = if i < BUCKETS {
                    bucket_bound(i)
                } else {
                    f64::INFINITY
                };
                (bound, count)
            })
            .collect();
        Self {
            count: h.count(),
            sum: h.sum(),
            min: h.min().unwrap_or(0.0),
            max: h.max().unwrap_or(0.0),
            buckets,
        }
    }

    /// The mean sample, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// A frozen registry: every counter, gauge, and histogram by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-written gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub(crate) fn collect(
        counters: &std::collections::HashMap<
            &'static str,
            std::sync::Arc<std::sync::atomic::AtomicU64>,
        >,
        gauges: &std::collections::HashMap<
            &'static str,
            std::sync::Arc<std::sync::atomic::AtomicU64>,
        >,
        histograms: &std::collections::HashMap<&'static str, std::sync::Arc<Histogram>>,
    ) -> Self {
        use std::sync::atomic::Ordering;
        Self {
            counters: counters
                .iter()
                .map(|(&name, v)| (name.to_string(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: gauges
                .iter()
                .map(|(&name, v)| (name.to_string(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: histograms
                .iter()
                .map(|(&name, h)| (name.to_string(), HistogramSnapshot::freeze(h)))
                .collect(),
        }
    }

    /// Whether nothing was ever recorded or declared.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The named counter's value.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The named gauge's value.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The change from `earlier` to `self` in a named counter
    /// (saturating at 0 — counters are monotone between resets).
    pub fn counter_delta(&self, earlier: &MetricsSnapshot, name: &str) -> u64 {
        self.counter(name)
            .unwrap_or(0)
            .saturating_sub(earlier.counter(name).unwrap_or(0))
    }

    /// Serializes the snapshot as pretty-printed JSON (trailing
    /// newline included). Deterministic: keys sorted, buckets in bound
    /// order, floats in shortest round-trip form.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_string(SCHEMA));

        out.push_str("  \"counters\": {");
        write_u64_map(&mut out, &self.counters);
        out.push_str("},\n");

        out.push_str("  \"gauges\": {");
        write_u64_map(&mut out, &self.gauges);
        out.push_str("},\n");

        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                json_string(name),
                h.count,
                json_f64(h.sum),
                json_f64(h.min),
                json_f64(h.max),
            );
            for (j, &(le, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{{\"le\": {}, \"count\": {}}}", json_f64(le), count);
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn write_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    for (i, (name, value)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {}: {}", json_string(name), value);
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
}

/// A JSON string literal (metric names are ASCII identifiers, but the
/// escaper handles the general case).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `v`. JSON has no Infinity/NaN; the overflow
/// bucket's bound serializes as a large sentinel, other non-finite
/// values (which recording already filters) as 0.
fn json_f64(v: f64) -> String {
    if v == f64::INFINITY {
        return "1e308".to_string();
    }
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    // `{}` prints integral floats without a decimal point; keep them
    // unambiguously floats for schema checkers.
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.counter_add("b.counter", 7);
        r.counter_add("a.counter", 2);
        r.gauge_set("threads", 4);
        r.record("lat", 0.5);
        r.record("lat", 3.0);
        r.snapshot()
    }

    #[test]
    fn accessors_read_back_recorded_values() {
        let snap = sample();
        assert_eq!(snap.counter("a.counter"), Some(2));
        assert_eq!(snap.gauge("threads"), Some(4));
        let h = snap.histogram("lat").expect("recorded");
        assert_eq!(h.count, 2);
        assert_eq!(h.mean(), Some(1.75));
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 3.0);
        assert_eq!(h.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 2);
    }

    #[test]
    fn counter_delta_diffs_two_snapshots() {
        let r = MetricsRegistry::new();
        r.counter_add("c", 3);
        let before = r.snapshot();
        r.counter_add("c", 5);
        r.counter_add("new", 1);
        let after = r.snapshot();
        assert_eq!(after.counter_delta(&before, "c"), 5);
        assert_eq!(after.counter_delta(&before, "new"), 1);
        assert_eq!(after.counter_delta(&before, "absent"), 0);
        assert_eq!(before.counter_delta(&after, "c"), 0); // saturates
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"moloc.metrics.v1\""));
        // BTreeMap ordering: a.counter before b.counter.
        let ia = a.find("a.counter").expect("a.counter present");
        let ib = a.find("b.counter").expect("b.counter present");
        assert!(ia < ib);
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn empty_snapshot_serializes_cleanly() {
        let snap = MetricsRegistry::new().snapshot();
        assert!(snap.is_empty());
        let json = snap.to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    #[test]
    fn json_escapes_and_number_forms() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::INFINITY), "1e308");
        assert_eq!(json_f64(f64::NAN), "0");
    }

    #[test]
    fn overflow_bucket_serializes_with_sentinel_bound() {
        let r = MetricsRegistry::new();
        r.record("big", 1e12);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"le\": 1e308"), "{json}");
    }
}

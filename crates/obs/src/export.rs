//! Frozen snapshots and the three exporters (table, JSON, Prometheus).
//!
//! All output is integers in sorted key order — no floats, no hash
//! iteration — so snapshots of deterministic runs are byte-identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::events::Event;
use crate::metrics::{bucket_lower, bucket_upper, Histogram, BUCKETS};

/// A frozen view of one [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub(crate) max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub(crate) p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Non-empty buckets as `(lower_edge, upper_edge, count)`.
    pub(crate) buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    /// Freezes `hist`.
    pub(crate) fn of(hist: &Histogram) -> Self {
        let buckets = (0..BUCKETS)
            .filter_map(|i| {
                let n = hist.bucket(i);
                (n > 0).then(|| (bucket_lower(i), bucket_upper(i), n))
            })
            .collect();
        Self {
            count: hist.count(),
            sum: hist.sum(),
            max: hist.max(),
            p50: hist.p50(),
            p90: hist.p90(),
            p99: hist.p99(),
            buckets,
        }
    }
}

/// Everything the registry knew at one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Exact per-kind event totals (ring overflow never loses these).
    pub event_counts: BTreeMap<String, u64>,
    /// The buffered event trace (oldest first; may be truncated).
    pub(crate) events: Vec<Event>,
    /// Events evicted from the ring before this snapshot.
    pub(crate) events_dropped: u64,
}

/// Escapes a Prometheus label *value*: backslash, double quote, and
/// newline must be backslash-escaped per the text exposition format.
fn prometheus_escape_label(s: &str) -> String {
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

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_map(out: &mut String, map: &BTreeMap<String, u64>) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(k), v);
    }
    out.push('}');
}

impl Snapshot {
    /// A human-readable table of every instrument plus the event
    /// totals.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<42} {v:>14}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<42} {v:>14}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (ns)\n");
            let _ = writeln!(
                out,
                "  {:<42} {:>9} {:>11} {:>11} {:>11} {:>11}",
                "name", "count", "p50", "p90", "p99", "max"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<42} {:>9} {:>11} {:>11} {:>11} {:>11}",
                    name, h.count, h.p50, h.p90, h.p99, h.max
                );
            }
        }
        if !self.event_counts.is_empty() {
            out.push_str("events\n");
            for (name, v) in &self.event_counts {
                let _ = writeln!(out, "  {name:<42} {v:>14}");
            }
            if self.events_dropped > 0 {
                let _ = writeln!(
                    out,
                    "  ({} buffered, {} evicted from ring)",
                    self.events.len(),
                    self.events_dropped
                );
            }
        }
        out
    }

    /// The full snapshot as one line of JSON (hand-rolled: only string
    /// keys and integers, sorted, so the bytes are deterministic).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":");
        json_map(&mut out, &self.counters);
        out.push_str(",\"gauges\":");
        json_map(&mut out, &self.gauges);
        out.push_str(",\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                json_escape(name),
                h.count,
                h.sum,
                h.max,
                h.p50,
                h.p90,
                h.p99
            );
            for (j, (lo, hi, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lo},{hi},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("},\"event_counts\":");
        json_map(&mut out, &self.event_counts);
        let _ = write!(out, ",\"events_dropped\":{}", self.events_dropped);
        out.push('}');
        out
    }

    /// Just the per-kind event totals as JSON — the golden-file summary
    /// CI diffs across runs of a fixed seed.
    pub fn event_summary_json(&self) -> String {
        let mut out = String::new();
        json_map(&mut out, &self.event_counts);
        out
    }

    /// Prometheus text exposition: counters/gauges as-is, histograms as
    /// cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (_, hi, n) in &h.buckets {
                cumulative += n;
                let _ = writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
        }
        if !self.event_counts.is_empty() {
            let _ = writeln!(out, "# TYPE prins_events_total counter");
            for (name, v) in &self.event_counts {
                let _ = writeln!(
                    out,
                    "prins_events_total{{kind=\"{}\"}} {v}",
                    prometheus_escape_label(name)
                );
            }
        }
        // Some scrapers reject an exposition that does not end in a
        // newline; guarantee one even for an empty registry.
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> std::sync::Arc<Registry> {
        let reg = Registry::new();
        reg.counter("writes").add(10);
        reg.gauge("queue_depth").set(3);
        let h = reg.histogram("encode_nanos");
        for v in [100u64, 200, 400, 800] {
            h.record(v);
        }
        reg.events().record(
            Event::new(5, crate::EventKind::Send { writes: 2 })
                .seq(1)
                .replica(0),
        );
        reg
    }

    #[test]
    fn json_is_stable_and_integer_only() {
        let snap = sample_registry().snapshot();
        let json = snap.to_json();
        assert_eq!(json, sample_registry().snapshot().to_json());
        assert!(json.contains("\"writes\":10"));
        assert!(json.contains("\"event_counts\":{\"send\":1}"));
        assert!(!json.contains('.'), "no floats anywhere: {json}");
    }

    #[test]
    fn table_lists_every_section() {
        let table = sample_registry().snapshot().to_table();
        for needle in ["counters", "gauges", "histograms", "events", "writes"] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let text = sample_registry().snapshot().to_prometheus();
        assert!(text.contains("encode_nanos_count 4"));
        assert!(text.contains("encode_nanos_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("prins_events_total{kind=\"send\"} 1"));
    }

    #[test]
    fn prometheus_escapes_label_values_and_ends_with_newline() {
        let mut snap = sample_registry().snapshot();
        snap.event_counts
            .insert("odd\"kind\\with\nnewline".to_string(), 3);
        let text = snap.to_prometheus();
        assert!(
            text.contains("prins_events_total{kind=\"odd\\\"kind\\\\with\\nnewline\"} 3"),
            "label not escaped in:\n{text}"
        );
        assert_eq!(
            text.matches("# TYPE prins_events_total counter").count(),
            1,
            "one TYPE line for the shared metric family:\n{text}"
        );
        assert!(text.ends_with('\n'));
        // Even a registry with no instruments produces a newline-terminated
        // (non-empty) exposition.
        let empty = Registry::new().snapshot().to_prometheus();
        assert!(empty.ends_with('\n'));
    }

    #[test]
    fn event_summary_is_just_the_counts() {
        let snap = sample_registry().snapshot();
        assert_eq!(snap.event_summary_json(), "{\"send\":1}");
    }

    /// A registry carrying the buffer-pool gauges the engine publishes
    /// (`publish_gauges` in prins-core's `obs.rs`).
    fn pool_registry() -> std::sync::Arc<Registry> {
        let reg = Registry::new();
        reg.gauge("pool_hits").set(970);
        reg.gauge("pool_misses").set(30);
        reg.gauge("pool_miss_ppm").set(30_000);
        reg.gauge("pool_in_use").set(4);
        reg.gauge("pool_in_use_hwm").set(12);
        reg.gauge("engine_bytes_copied_per_write").set(8192);
        reg
    }

    #[test]
    fn table_renders_pool_gauges() {
        let table = pool_registry().snapshot().to_table();
        for needle in ["pool_in_use", "pool_in_use_hwm", "pool_miss_ppm"] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
        assert!(table.contains("engine_bytes_copied_per_write"));
    }

    #[test]
    fn json_renders_pool_gauges() {
        let json = pool_registry().snapshot().to_json();
        assert!(json.contains("\"pool_in_use\":4"));
        assert!(json.contains("\"pool_in_use_hwm\":12"));
        assert!(json.contains("\"pool_miss_ppm\":30000"));
        assert!(json.contains("\"engine_bytes_copied_per_write\":8192"));
    }

    #[test]
    fn prometheus_renders_pool_gauges() {
        let text = pool_registry().snapshot().to_prometheus();
        assert!(text.contains("# TYPE pool_in_use gauge\npool_in_use 4"));
        assert!(text.contains("pool_in_use_hwm 12"));
        assert!(text.contains("pool_miss_ppm 30000"));
    }

    #[test]
    fn event_summary_ignores_pool_gauges() {
        // The golden-file summary is event counts only; new gauges must
        // never perturb existing golden files.
        let snap = pool_registry().snapshot();
        assert_eq!(snap.event_summary_json(), "{}");
        assert!(snap.events.is_empty());
    }
}

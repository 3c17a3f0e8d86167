//! Scrape-compatible exporters for live telemetry.
//!
//! [`render_prometheus`] turns a [`MetricsSnapshot`] into the Prometheus
//! text exposition format (metric names sanitized `.` → `_`, histograms as
//! cumulative `le` buckets with log10 edges mapped back to nanoseconds).

use std::fmt::Write as _;

use crate::metrics::MetricsSnapshot;

/// Maps a dotted obs metric name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Formats a float the way Prometheus expects (`+Inf` for the open bucket).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Counters render as `counter`, gauges as `gauge`, histograms as
/// cumulative-bucket `histogram` series. Log10-scaled histograms (the
/// latency preset) convert bucket edges back to raw units (`10^edge`), so
/// `le` thresholds are in nanoseconds like the `_sum`.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for c in &snapshot.counters {
        let name = sanitize(&c.name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", c.value);
    }
    for g in &snapshot.gauges {
        let name = sanitize(&g.name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", fmt_value(g.value));
    }
    for h in &snapshot.histograms {
        let name = sanitize(&h.name);
        let log10 = h.scale == "log10";
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (i, &count) in h.counts.iter().enumerate() {
            cum += count;
            let edge = h.edges.get(i + 1).copied().unwrap_or(f64::INFINITY);
            let le = if log10 { 10f64.powf(edge) } else { edge };
            let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", fmt_value(le));
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}", fmt_value(h.sum));
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CounterValue, GaugeValue, HistogramValue};

    fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![CounterValue {
                name: "pv.serve.request.ok".to_string(),
                value: 7,
            }],
            gauges: vec![GaugeValue {
                name: "pv.serve.queue.depth".to_string(),
                value: 2.5,
            }],
            histograms: vec![HistogramValue {
                name: "pv.serve.batch_ns".to_string(),
                scale: "log10".to_string(),
                edges: vec![3.0, 4.0, 5.0],
                counts: vec![3, 1],
                count: 4,
                sum: 45_000.0,
            }],
        }
    }

    #[test]
    fn prometheus_rendering_is_scrapeable() {
        let text = render_prometheus(&snapshot());
        assert!(text.contains("# TYPE pv_serve_request_ok counter"));
        assert!(text.contains("pv_serve_request_ok 7"));
        assert!(text.contains("pv_serve_queue_depth 2.5"));
        // log10 edges map back to ns: 10^4 and 10^5, cumulative counts.
        assert!(text.contains("pv_serve_batch_ns_bucket{le=\"10000\"} 3"));
        assert!(text.contains("pv_serve_batch_ns_bucket{le=\"100000\"} 4"));
        assert!(text.contains("pv_serve_batch_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("pv_serve_batch_ns_sum 45000"));
        assert!(text.contains("pv_serve_batch_ns_count 4"));
        // Every non-comment line is `name{...} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "line: {line}");
        }
    }
}

//! Human-readable end-of-run summary.
//!
//! Rendered by the `experiments` binary after [`crate::RunGuard::finish_trace`].
//! Unlike the JSONL stream this view *does* include wall-clock metrics
//! (gauges, histograms) — it is for humans, not for byte-identity
//! comparison.

use crate::metrics::{self, MetricValue, LATENCY_BOUNDS_NS};
use crate::trace::TraceReport;
use std::fmt::Write;

/// A nanosecond quantity with a human unit (`ns`, `us`, `ms`, `s`); shared
/// with the trace analyzer so both print durations alike.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Render the end-of-run telemetry summary: events by kind, non-zero
/// counters, gauges, and histogram means with their busiest bucket.
pub fn render(report: &TraceReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== telemetry summary ===");
    let _ = writeln!(out, "events: {} emitted", report.events);
    for (kind, count) in &report.by_kind {
        let _ = writeln!(out, "  {kind:<28} {count:>8}");
    }

    let snapshot = metrics::snapshot();
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (name, value) in &snapshot {
        match value {
            MetricValue::Counter(v) if *v > 0 => counters.push((name, v)),
            MetricValue::Counter(_) => {}
            MetricValue::Gauge(v) => gauges.push((name, v)),
            MetricValue::Histogram {
                count,
                mean_ns,
                buckets,
            } if *count > 0 => histograms.push((name, count, mean_ns, buckets)),
            MetricValue::Histogram { .. } => {}
        }
    }
    if !counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, v) in counters {
            let _ = writeln!(out, "  {name:<28} {v:>8}");
        }
    }
    if !gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, v) in gauges {
            let _ = writeln!(out, "  {name:<28} {v:>8}");
        }
    }
    if !histograms.is_empty() {
        let _ = writeln!(out, "latency histograms:");
        for (name, count, mean_ns, buckets) in histograms {
            let (mode_idx, _) = buckets
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| **c)
                .unwrap_or((0, &0));
            let mode = if mode_idx < LATENCY_BOUNDS_NS.len() {
                format!("<= {}", fmt_ns(LATENCY_BOUNDS_NS[mode_idx] as f64))
            } else {
                format!("> {}", fmt_ns(*LATENCY_BOUNDS_NS.last().unwrap() as f64))
            };
            let p50 = metrics::percentile_from_buckets(buckets, 50.0);
            let p95 = metrics::percentile_from_buckets(buckets, 95.0);
            let p99 = metrics::percentile_from_buckets(buckets, 99.0);
            let _ = writeln!(
                out,
                "  {name:<28} n={count} mean={} p50={} p95={} p99={} mode_bucket={mode}",
                fmt_ns(*mean_ns),
                fmt_ns(p50 as f64),
                fmt_ns(p95 as f64),
                fmt_ns(p99 as f64),
            );
        }
    }

    // Conflict observatory (DESIGN.md §12): goodput and the hottest
    // stripes, derived purely from the registry (`tx.work.*`/`tx.wasted.*`
    // counters, `conflict.top_stripe.*` gauges published by the KPI probe)
    // so this crate stays free of txcore.
    let gauge_val = |name: &str| -> Option<f64> {
        snapshot.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    };
    let (committed, wasted) = conflict_rollup(&snapshot);
    if committed + wasted > 0 {
        let total = committed + wasted;
        let _ = writeln!(out, "conflict observatory:");
        let _ = writeln!(
            out,
            "  goodput.ratio                {:.4}  ({committed} committed / {total} total ops)",
            committed as f64 / total as f64
        );
        let _ = writeln!(out, "  wasted.ops                   {wasted:>8}");
        let mut hot = String::new();
        for i in 1..=3 {
            let stripe = gauge_val(&format!("conflict.top_stripe.{i}"));
            let count = gauge_val(&format!("conflict.top_stripe.{i}.count"));
            if let (Some(s), Some(c)) = (stripe, count) {
                if c > 0.0 {
                    if !hot.is_empty() {
                        hot.push_str(", ");
                    }
                    let _ = write!(hot, "stripe {} x{}", s as u64, c as u64);
                }
            }
        }
        if !hot.is_empty() {
            let _ = writeln!(out, "  hot stripes: {hot}");
        }
    }

    // Flight-recorder health: always printed, so a run that sampled KPIs
    // but flushed zero windows (a silently truncated trace) is visible at
    // a glance instead of just missing.
    let rec = &report.recorder;
    let _ = writeln!(out, "flight recorder:");
    let _ = writeln!(
        out,
        "  windows={} last_window_tick={} series={}",
        rec.windows, rec.last_window_tick, rec.series
    );

    // Instrumentation self-overhead: what observability itself cost.
    let oh = &report.overhead;
    if oh.events > 0 || oh.histogram_updates > 0 {
        let _ = writeln!(out, "obs.overhead:");
        let _ = writeln!(
            out,
            "  records={} bytes={} spans={} windows={} histogram_updates={}",
            oh.events, oh.bytes, oh.spans, oh.windows, oh.histogram_updates
        );
        for (sub, events, bytes) in &oh.per_subsystem {
            let _ = writeln!(out, "  {sub:<28} events={events:<8} bytes={bytes}");
        }
    }
    out
}

/// The conflict-observatory rollup (DESIGN.md §12): committed and wasted
/// transactional ops, summed over the `tx.work.*` and `tx.wasted.*`
/// counters of `snapshot`.
fn conflict_rollup(snapshot: &[(String, MetricValue)]) -> (u64, u64) {
    let sum = |prefix: &str| -> u64 {
        snapshot
            .iter()
            .filter_map(|(n, v)| match v {
                MetricValue::Counter(c) if n.starts_with(prefix) => Some(*c),
                _ => None,
            })
            .sum()
    };
    (sum("tx.work."), sum("tx.wasted."))
}

/// Render every registered metric as one JSON object (machine-readable
/// counterpart of [`render`], dumped by `experiments --metrics-out`).
///
/// Shape: `{"schema":N,"counters":{...},"conflict":{"committed_ops":..,
/// "wasted_ops":..,"goodput_ratio":..},"obs_overhead":{...},
/// "flight_recorder":{"windows":..,"last_window_tick":..,"series":..},
/// "wallclock":{"gauges":{...},"histograms":
/// {name:{"count":..,"mean_ns":..,"p50_ns":..,"p95_ns":..,"p99_ns":..,
/// "buckets":[..]}}}}`. All registered metrics are included (zeros too)
/// so consumers can diff two snapshots key-by-key; names are sorted,
/// floats use the same shortest-roundtrip encoding as the trace
/// (non-finite values become strings), so equal registries yield equal
/// bytes.
///
/// Key order is load-bearing: everything before the `"wallclock"` key is
/// logically deterministic (counters, overhead accounting, flight-recorder
/// health) and byte-identical across `--jobs` values; the
/// `wallclock` section holds gauges and histograms, whose values are
/// timing-derived. The determinism tests compare the prefix byte-for-byte
/// (crates/bench/tests/metrics_snapshot.rs).
///
/// `obs_overhead` and `flight_recorder` read the *live* trace state — call
/// this while the trace is still active (as `experiments --metrics-out`
/// does, before `finish_trace`); afterwards both are zero.
pub fn metrics_json() -> String {
    let snapshot = metrics::snapshot();
    let mut out = String::from("{\"schema\":");
    let _ = write!(out, "{}", crate::SCHEMA_VERSION);
    out.push_str(",\"counters\":{");
    let mut first = true;
    for (name, value) in &snapshot {
        if let MetricValue::Counter(v) = value {
            if !first {
                out.push(',');
            }
            first = false;
            crate::event::encode_str(&mut out, name);
            let _ = write!(out, ":{v}");
        }
    }
    // Conflict observatory rollup (DESIGN.md §12), derived from the
    // deterministic `tx.work.*`/`tx.wasted.*` counters — part of the
    // byte-compared prefix. The per-stripe heatmap is wall-clock-ordered,
    // so the top-3 stripes surface as `conflict.top_stripe.*` gauges in
    // the `wallclock` section instead.
    let (committed, wasted) = conflict_rollup(&snapshot);
    let goodput = if committed + wasted == 0 {
        1.0
    } else {
        committed as f64 / (committed + wasted) as f64
    };
    let _ = write!(
        out,
        "}},\"conflict\":{{\"committed_ops\":{committed},\"wasted_ops\":{wasted},\
         \"goodput_ratio\":"
    );
    crate::Value::from(goodput).encode(&mut out);
    let oh = crate::overhead_snapshot();
    let _ = write!(
        out,
        "}},\"obs_overhead\":{{\"events\":{},\"bytes\":{},\"spans\":{},\"windows\":{},\
         \"histogram_updates\":{},\"per_subsystem\":{{",
        oh.events, oh.bytes, oh.spans, oh.windows, oh.histogram_updates
    );
    for (i, (sub, events, bytes)) in oh.per_subsystem.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::event::encode_str(&mut out, sub);
        let _ = write!(out, ":{{\"events\":{events},\"bytes\":{bytes}}}");
    }
    // Flight-recorder health: serial-tick bookkeeping, part of the
    // deterministic prefix. Reads the *live* trace state like
    // `obs_overhead` above.
    let rec = crate::recorder_health();
    let _ = write!(
        out,
        "}}}},\"flight_recorder\":{{\"windows\":{},\"last_window_tick\":{},\"series\":{}}}",
        rec.windows, rec.last_window_tick, rec.series
    );
    out.push_str(",\"wallclock\":{\"gauges\":{");
    let mut first = true;
    for (name, value) in &snapshot {
        if let MetricValue::Gauge(v) = value {
            if !first {
                out.push(',');
            }
            first = false;
            crate::event::encode_str(&mut out, name);
            out.push(':');
            crate::Value::from(*v).encode(&mut out);
        }
    }
    out.push_str("},\"histograms\":{");
    let mut first = true;
    for (name, value) in &snapshot {
        if let MetricValue::Histogram {
            count,
            mean_ns,
            buckets,
        } = value
        {
            if !first {
                out.push(',');
            }
            first = false;
            crate::event::encode_str(&mut out, name);
            let _ = write!(out, ":{{\"count\":{count},\"mean_ns\":");
            crate::Value::from(*mean_ns).encode(&mut out);
            let _ = write!(
                out,
                ",\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"buckets\":[",
                metrics::percentile_from_buckets(buckets, 50.0),
                metrics::percentile_from_buckets(buckets, 95.0),
                metrics::percentile_from_buckets(buckets, 99.0),
            );
            for (i, b) in buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
    }
    out.push_str("}}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_report_and_metrics() {
        // Arming a traced run resets the metrics registry; holding the run
        // lock keeps our counters alive until render.
        let _serial = crate::Run::new().arm();
        let report = TraceReport {
            events: 3,
            by_kind: vec![("config.switch", 2), ("cusum.alarm", 1)],
            bytes: None,
            overhead: crate::OverheadSnapshot {
                events: 3,
                bytes: 120,
                spans: 0,
                windows: 1,
                histogram_updates: 1,
                per_subsystem: vec![("config".to_string(), 2, 80), ("cusum".to_string(), 1, 40)],
            },
            recorder: crate::RecorderHealth {
                windows: 1,
                last_window_tick: 8,
                series: 2,
            },
        };
        metrics::counter("test.summary.commits").add(7);
        metrics::gauge("test.summary.workers").set(4.0);
        metrics::histogram("test.summary.lat").record(5_000);
        let text = render(&report);
        assert!(text.contains("events: 3 emitted\n"));
        assert!(text.contains("config.switch"));
        assert!(text.contains("test.summary.commits"));
        assert!(text.contains("test.summary.workers"));
        assert!(text.contains("test.summary.lat"));
        assert!(text.contains("p50=") && text.contains("p95=") && text.contains("p99="));
        assert!(text.contains("flight recorder:"));
        assert!(text.contains("windows=1 last_window_tick=8 series=2"));
        assert!(text.contains("obs.overhead:"));
        assert!(text.contains("records=3 bytes=120 spans=0 windows=1 histogram_updates=1"));
        assert!(text.contains("config"));
    }

    #[test]
    fn metrics_json_is_flat_valid_and_stable() {
        let _serial = crate::Run::new().arm();
        metrics::counter("test.mjson.commits").add(3);
        metrics::gauge("test.mjson.load").set(1.5);
        metrics::histogram("test.mjson.lat").record(2_000);
        let a = metrics_json();
        assert!(a.starts_with(&format!("{{\"schema\":{}", crate::SCHEMA_VERSION)));
        assert!(a.contains("\"test.mjson.commits\":3"));
        assert!(a.contains("\"obs_overhead\":{\"events\":"));
        assert!(
            a.contains("\"flight_recorder\":{\"windows\":0,\"last_window_tick\":0,\"series\":0}")
        );
        // Wall-clock metrics live behind the deterministic prefix.
        let wall = a.find("\"wallclock\":").expect("wallclock section");
        let fr = a.find("\"flight_recorder\":").unwrap();
        assert!(
            a.find("\"obs_overhead\":").unwrap() < fr && fr < wall,
            "flight_recorder sits between obs_overhead and wallclock: {a}"
        );
        assert!(
            a.contains("\"series\":0},\"wallclock\":{"),
            "wallclock follows the flight recorder directly: {a}"
        );
        assert!(a[wall..].contains("\"test.mjson.load\":1.5"));
        assert!(a[wall..].contains("\"test.mjson.lat\":{\"count\":1,"));
        assert!(a[wall..].contains("\"p50_ns\":"));
        assert!(a.ends_with("}}}\n"));
        // Pure function of the registry: equal state, equal bytes.
        assert_eq!(a, metrics_json());
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(500.0), "500ns");
        assert_eq!(fmt_ns(5_000.0), "5.00us");
        assert_eq!(fmt_ns(5_000_000.0), "5.00ms");
        assert_eq!(fmt_ns(5_000_000_000.0), "5.00s");
    }
}

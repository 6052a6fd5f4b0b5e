//! Structural diff of two traces.
//!
//! The determinism contract says two runs with the same seed and
//! parameters produce byte-identical learning-path streams — the diff
//! exists to say *where* that breaks when it does: which kinds changed
//! counts, which counters drifted, and the first record where the streams
//! diverge.

use crate::spans::SpanForest;
use crate::Trace;
use std::collections::BTreeSet;
use std::fmt::Write;

/// How many diverging counters / kinds to list before eliding.
const DIFF_LIMIT: usize = 40;

/// Render a structural comparison of `a` and `b`. The boolean is true
/// when the traces are structurally identical (records and counters).
pub fn render(a: &Trace, b: &Trace) -> (String, bool) {
    let mut out = String::new();
    let mut identical = true;
    let _ = writeln!(out, "=== proteus-trace diff ===");
    let _ = writeln!(
        out,
        "A: {} records, {} counters | B: {} records, {} counters",
        a.records.len(),
        a.counters.len(),
        b.records.len(),
        b.counters.len(),
    );

    // Per-kind record counts over the union of kinds.
    let ha = a.kind_histogram();
    let hb = b.kind_histogram();
    let kinds: BTreeSet<&str> = ha.keys().chain(hb.keys()).copied().collect();
    let mut kind_diffs = 0usize;
    for kind in &kinds {
        let ca = ha.get(kind).copied().unwrap_or(0);
        let cb = hb.get(kind).copied().unwrap_or(0);
        if ca != cb {
            identical = false;
            kind_diffs += 1;
            if kind_diffs <= DIFF_LIMIT {
                let _ = writeln!(out, "  kind {kind:<28} A={ca} B={cb}");
            }
        }
    }
    if kind_diffs > DIFF_LIMIT {
        let _ = writeln!(out, "  ... ({} more kind diffs)", kind_diffs - DIFF_LIMIT);
    }
    if kind_diffs == 0 {
        let _ = writeln!(
            out,
            "  per-kind record counts: identical ({} kinds)",
            kinds.len()
        );
    }

    // Counter deltas over the union of names.
    let names: BTreeSet<&str> = a
        .counters
        .keys()
        .chain(b.counters.keys())
        .map(String::as_str)
        .collect();
    let mut counter_diffs = 0usize;
    for name in &names {
        let va = a.counter(name);
        let vb = b.counter(name);
        if va != vb {
            identical = false;
            counter_diffs += 1;
            if counter_diffs <= DIFF_LIMIT {
                let delta = vb as i128 - va as i128;
                let _ = writeln!(out, "  counter {name:<32} A={va} B={vb} ({delta:+})");
            }
        }
    }
    if counter_diffs > DIFF_LIMIT {
        let _ = writeln!(
            out,
            "  ... ({} more counter diffs)",
            counter_diffs - DIFF_LIMIT
        );
    }
    if counter_diffs == 0 && !names.is_empty() {
        let _ = writeln!(out, "  counters: identical ({} names)", names.len());
    }

    // First diverging record, comparing (seq, kind, fields) in order.
    let mut divergence = None;
    for (i, (ra, rb)) in a.records.iter().zip(&b.records).enumerate() {
        if ra.seq != rb.seq || ra.kind != rb.kind || ra.fields != rb.fields {
            divergence = Some(i);
            break;
        }
    }
    match divergence {
        Some(i) => {
            identical = false;
            let ra = &a.records[i];
            let rb = &b.records[i];
            let _ = writeln!(out, "  first divergence at record {i}:");
            let _ = writeln!(
                out,
                "    A line {}: kind={} {}",
                ra.line,
                ra.kind,
                ra.summary()
            );
            let _ = writeln!(
                out,
                "    B line {}: kind={} {}",
                rb.line,
                rb.kind,
                rb.summary()
            );
        }
        None if a.records.len() != b.records.len() => {
            identical = false;
            let (longer, n, extra) = if a.records.len() > b.records.len() {
                ("A", b.records.len(), &a.records[b.records.len()])
            } else {
                ("B", a.records.len(), &b.records[a.records.len()])
            };
            let _ = writeln!(
                out,
                "  records agree for the first {n}, then {longer} continues: kind={} {}",
                extra.kind,
                extra.summary()
            );
        }
        None => {
            let _ = writeln!(
                out,
                "  record streams: identical ({} records)",
                a.records.len()
            );
        }
    }

    // Span-level summary so gate/quiesce regressions stand out even when
    // counts happen to match.
    let fa = SpanForest::build(&a.records);
    let fb = SpanForest::build(&b.records);
    let _ = writeln!(
        out,
        "  spans: A={} ({} unclosed) B={} ({} unclosed)",
        fa.nodes.len(),
        fa.unclosed(),
        fb.nodes.len(),
        fb.unclosed(),
    );

    let _ = writeln!(
        out,
        "verdict: {}",
        if identical {
            "structurally identical"
        } else {
            "traces differ"
        }
    );
    (out, identical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trace_of;

    #[test]
    fn identical_traces_diff_clean() {
        let body = "{\"seq\":0,\"kind\":\"config.switch\",\"from\":\"a\",\"to\":\"b\"}\n\
                    {\"seq\":1,\"kind\":\"counter\",\"name\":\"c\",\"value\":3}\n";
        let (text, same) = render(&trace_of(&[body]), &trace_of(&[body]));
        assert!(same, "{text}");
        assert!(text.contains("structurally identical"));
    }

    #[test]
    fn field_divergence_is_located() {
        let a = trace_of(&["{\"seq\":0,\"kind\":\"config.switch\",\"to\":\"b\"}\n"]);
        let b = trace_of(&["{\"seq\":0,\"kind\":\"config.switch\",\"to\":\"c\"}\n"]);
        let (text, same) = render(&a, &b);
        assert!(!same);
        assert!(text.contains("first divergence at record 0"));
        assert!(text.contains("to=b"));
        assert!(text.contains("to=c"));
    }

    #[test]
    fn counter_and_length_drift_are_reported() {
        let a = trace_of(&["{\"seq\":0,\"kind\":\"counter\",\"name\":\"c\",\"value\":3}\n"]);
        let b = trace_of(&[
            "{\"seq\":0,\"kind\":\"counter\",\"name\":\"c\",\"value\":5}\n\
             {\"seq\":1,\"kind\":\"cusum.alarm\",\"metric\":\"abort\"}\n",
        ]);
        let (text, same) = render(&a, &b);
        assert!(!same);
        assert!(text.contains("counter c"));
        assert!(text.contains("(+2)"));
        assert!(text.contains("then B continues: kind=cusum.alarm"));
    }
}

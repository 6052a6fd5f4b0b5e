//! Byte-identity of every `proteus-trace` view on checked-in traces.
//!
//! Each case runs the binary on traces from `tests/fixtures/` and compares
//! its stdout, byte for byte, and its exit code against the expected output
//! in `tests/golden/<case>.out`. The expected files were produced by the
//! analyzer before its decoder and views were consolidated, so any change
//! to what a view prints shows up here. The fixtures cover windows, SLO
//! states and alerts, vtime cells and hot stripes, fig4 curves, span trees
//! with fault and switch audits, a crash-recovery audit, oracle convergence
//! and the archived schema-v2 trace.

use std::path::Path;
use std::process::Command;

/// (case, expected exit code, arguments separated by spaces). An
/// argument ending in `.jsonl` names a file in `tests/fixtures/`.
#[rustfmt::skip]
const CASES: &[(&str, i32, &str)] = &[
    ("v2_trace.report", 0, "report v2_trace.jsonl"),
    ("v2_trace.report_json", 0, "report v2_trace.jsonl --json"),
    ("v2_trace.perf", 0, "perf v2_trace.jsonl"),
    ("v2_trace.conflicts", 0, "conflicts v2_trace.jsonl"),
    ("v2_trace.conflicts_json", 0, "conflicts v2_trace.jsonl --json"),
    ("v2_trace.watch", 1, "watch v2_trace.jsonl --poll-ms 10 --idle-timeout-ms 200"),
    ("v2_trace.watch_json", 1, "watch v2_trace.jsonl --json --poll-ms 10 --idle-timeout-ms 200"),
    ("vtime_fig4.report", 0, "report vtime_fig4.jsonl"),
    ("vtime_fig4.report_json", 0, "report vtime_fig4.jsonl --json"),
    ("vtime_fig4.perf", 0, "perf vtime_fig4.jsonl"),
    ("vtime_fig4.conflicts", 0, "conflicts vtime_fig4.jsonl"),
    ("vtime_fig4.conflicts_json", 0, "conflicts vtime_fig4.jsonl --json"),
    ("vtime_fig4.watch", 0, "watch vtime_fig4.jsonl --poll-ms 10 --idle-timeout-ms 200"),
    ("vtime_fig4.watch_json", 0, "watch vtime_fig4.jsonl --json --poll-ms 10 --idle-timeout-ms 200"),
    ("slo_drill.report", 0, "report slo_drill.jsonl"),
    ("slo_drill.report_json", 0, "report slo_drill.jsonl --json"),
    ("slo_drill.perf", 0, "perf slo_drill.jsonl"),
    ("slo_drill.conflicts", 0, "conflicts slo_drill.jsonl"),
    ("slo_drill.conflicts_json", 0, "conflicts slo_drill.jsonl --json"),
    ("slo_drill.watch", 0, "watch slo_drill.jsonl --poll-ms 10 --idle-timeout-ms 200"),
    ("slo_drill.watch_json", 0, "watch slo_drill.jsonl --json --poll-ms 10 --idle-timeout-ms 200"),
    ("durable.report", 0, "report durable.jsonl"),
    ("durable.report_json", 0, "report durable.jsonl --json"),
    ("durable.perf", 0, "perf durable.jsonl"),
    ("durable.conflicts", 0, "conflicts durable.jsonl"),
    ("durable.conflicts_json", 0, "conflicts durable.jsonl --json"),
    ("durable.watch", 0, "watch durable.jsonl --poll-ms 10 --idle-timeout-ms 200"),
    ("durable.watch_json", 0, "watch durable.jsonl --json --poll-ms 10 --idle-timeout-ms 200"),
    ("table5_faults.report", 0, "report table5_faults.jsonl"),
    ("table5_faults.report_json", 0, "report table5_faults.jsonl --json"),
    ("table5_faults.perf", 0, "perf table5_faults.jsonl"),
    ("table5_faults.conflicts", 0, "conflicts table5_faults.jsonl"),
    ("table5_faults.conflicts_json", 0, "conflicts table5_faults.jsonl --json"),
    ("table5_faults.watch", 0, "watch table5_faults.jsonl --poll-ms 10 --idle-timeout-ms 200"),
    ("table5_faults.watch_json", 0, "watch table5_faults.jsonl --json --poll-ms 10 --idle-timeout-ms 200"),
    ("fig7.report", 0, "report fig7.jsonl"),
    ("fig7.report_json", 0, "report fig7.jsonl --json"),
    ("fig7.perf", 0, "perf fig7.jsonl"),
    ("fig7.conflicts", 0, "conflicts fig7.jsonl"),
    ("fig7.conflicts_json", 0, "conflicts fig7.jsonl --json"),
    ("fig7.watch", 0, "watch fig7.jsonl --poll-ms 10 --idle-timeout-ms 200"),
    ("fig7.watch_json", 0, "watch fig7.jsonl --json --poll-ms 10 --idle-timeout-ms 200"),
    ("fig7.report_eps", 0, "report --epsilon 0.01 fig7.jsonl"),
    ("vtime_fig4.report_json_eps", 0, "report --json --epsilon=0.2 vtime_fig4.jsonl"),
    ("diff.same", 0, "diff vtime_fig4.jsonl vtime_fig4.jsonl"),
    ("diff.drill_durable", 1, "diff slo_drill.jsonl durable.jsonl"),
    ("diff.v2_table5", 1, "diff v2_trace.jsonl table5_faults.jsonl"),
    ("perf_diff.same", 0, "perf-diff vtime_fig4.jsonl vtime_fig4.jsonl"),
    ("perf_diff.drill_durable", 1, "perf-diff slo_drill.jsonl durable.jsonl --noise 0.1"),
    ("perf_diff.table5_drill", 1, "perf-diff --noise=0.5 table5_faults.jsonl slo_drill.jsonl"),
];

#[test]
fn every_view_matches_its_golden_output() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let mut failures = Vec::new();
    for &(case, code, args) in CASES {
        let args: Vec<String> = args
            .split(' ')
            .map(|a| match a.ends_with(".jsonl") {
                true => dir.join("fixtures").join(a).display().to_string(),
                false => a.to_string(),
            })
            .collect();
        let out = Command::new(env!("CARGO_BIN_EXE_proteus-trace"))
            .args(&args)
            .output()
            .unwrap();
        let want = std::fs::read(dir.join("golden").join(format!("{case}.out"))).unwrap();
        if out.stdout != want {
            failures.push(format!("{case}: stdout differs from golden/{case}.out"));
        }
        if out.status.code() != Some(code) {
            failures.push(format!("{case}: exit {:?}, want {code}", out.status.code()));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

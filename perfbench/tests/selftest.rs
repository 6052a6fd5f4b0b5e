//! Self-test of the benchmark: every workload, on a tiny budget and on two
//! seeds, prints exactly the metrics `BENCHMARK.json` names, and a check
//! that expects the wrong count marks every op of the run as failed.

use perfbench::{run, Report, RunConfig, Workload};
use std::collections::BTreeSet;

/// The metric names `BENCHMARK.json` lists under `section`.
fn benchmark_names(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("name is a string").to_string())
        .collect()
}

/// A run of `workload` small enough for a debug build: minimum rounds,
/// budgets and key ranges divided by 2^10.
fn tiny(workload: Workload, seed: u64, trace: bool, check_skew: u64) -> Report {
    run(&RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace,
        shrink: 10,
        check_skew,
    })
}

#[test]
fn every_named_metric_is_printed_on_two_seeds() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected = benchmark_names(section);
        assert!(!expected.is_empty());
        for workload in Workload::ALL {
            for seed in [1, 2] {
                let report = tiny(workload, seed, trace, 0);
                let what = format!("{} seed {seed} trace {trace}", workload.name());
                assert!(report.correct(), "{what}:\n{}", report.text());
                assert_eq!(report.failed(), 0, "{what}");
                let printed: BTreeSet<String> =
                    report.metrics().into_iter().map(|m| m.name).collect();
                assert_eq!(printed, expected, "{what}");
                let (text, json) = (report.text(), report.json());
                for name in &expected {
                    assert!(
                        text.contains(&format!("{name} = ")),
                        "{what}: {name} not in text"
                    );
                    assert!(
                        json.contains(&format!("\"{name}\": {{\"value\": ")),
                        "{what}: {name} not in JSON"
                    );
                }
                assert!(
                    json.starts_with("{\"correct\": true, \"attempted\": "),
                    "{json}"
                );
                assert!(text.contains("failed_op_ratio = 0 ratio"), "{what}");
                assert!(text.contains("host: nproc="), "{what}");
            }
        }
    }
}

#[test]
fn a_wrong_expected_count_fails_every_op() {
    for workload in Workload::ALL {
        let report = tiny(workload, 3, false, 1);
        assert!(report.attempted() > 0);
        assert_eq!(
            report.failed(),
            report.attempted(),
            "{}: a failing end-of-round check must fail every op",
            workload.name()
        );
        assert!(!report.correct());
        assert!(report.json().starts_with("{\"correct\": false, "));
        assert!(report.text().contains("CHECK FAILED"));
    }
}

//! Fault-injection tests for the RecTM learning pipeline: corrupted KPI
//! samples must degrade exploration, never panic it, poison the ratings or
//! leak into a recommendation.
//!
//! Each plan is armed in an `obs::Run` that only the arming test thread
//! (and the workers started for it) can see.

use faultsim::RunFaults;
use recsys::{CfAlgorithm, DistillationNorm, Similarity, UtilityMatrix};
use rectm::{Controller, ControllerSettings, Exploration};
use smbo::Goal;

/// Training data: 12 workloads over 8 columns, peaks at columns 5 and 1
/// (mirrors the controller unit-test fixture).
fn training() -> UtilityMatrix {
    let mut rows = Vec::new();
    for i in 0..12 {
        let scale = 10f64.powi(i % 4);
        let peak = if i % 2 == 0 { 5.0 } else { 1.0 };
        rows.push(
            (0..8)
                .map(|c| {
                    let x = c as f64;
                    Some(scale * (10.0 - (x - peak).powi(2)).max(0.5))
                })
                .collect(),
        );
    }
    UtilityMatrix::from_rows(rows)
}

fn controller() -> Controller {
    Controller::fit(
        &training(),
        Goal::Maximize,
        Box::new(DistillationNorm::new()),
        CfAlgorithm::Knn {
            similarity: Similarity::Cosine,
            k: 3,
        },
        ControllerSettings::default(),
    )
}

fn truth(c: usize) -> f64 {
    3.3 * (10.0 - (c as f64 - 5.0).powi(2)).max(0.5)
}

/// A run whose plan corrupts KPI samples with `probability`.
fn run_under_plan(seed: u64, probability: f64) -> obs::Run {
    obs::Run::new().faults(faultsim::FaultPlan::new(seed).with(
        faultsim::Site::KpiCorrupt,
        faultsim::FaultSpec::with_probability(probability),
    ))
}

fn optimize_under_plan(seed: u64, probability: f64) -> Exploration {
    run_under_plan(seed, probability).scope(|| controller().optimize(&mut |c| truth(c)))
}

#[test]
fn corrupted_samples_never_reach_the_recommendation() {
    if !faultsim::enabled() {
        return;
    }
    let out = optimize_under_plan(21, 0.4);
    // Whatever was corrupted, the recommendation is a real, finite,
    // actually-measured KPI.
    assert!(out.best_kpi.is_finite());
    assert!(out
        .explored
        .iter()
        .any(|&(c, k)| c == out.recommended && k == out.best_kpi));
    for &(_, kpi) in &out.explored {
        assert!(kpi.is_finite(), "corrupt sample leaked into explored");
    }
}

#[test]
fn fully_poisoned_run_falls_back_to_the_reference() {
    if !faultsim::enabled() {
        return;
    }
    // Probability 1 with a NaN-first corruption cycle: the reference sample
    // itself is corrupted, so exploration cannot even normalize.
    let out = optimize_under_plan(2, 1.0);
    assert_eq!(
        out.recommended,
        controller().first_config(),
        "with nothing measured, recommend the known-safe reference"
    );
    assert!(out.best_kpi.is_nan());
}

#[test]
fn local_fault_streams_replay_identically() {
    if !faultsim::enabled() {
        return;
    }
    // Two optimizations under the same plan see the same per-instance fault
    // schedule — the property that keeps parx-parallel traces
    // byte-identical at every job count. Events only buffer while a trace
    // is active, so the plan and the trace share one run.
    let run = || {
        run_under_plan(77, 0.5).capture(|| {
            let out = controller().optimize(&mut |c| truth(c));
            out.emit_trace();
            out
        })
    };
    let (a, ta) = run();
    let (b, tb) = run();
    assert_eq!(a.explored, b.explored);
    assert_eq!(a.recommended, b.recommended);
    assert_eq!(ta, tb, "replayed traces must be byte-identical");
    if obs::telemetry_compiled() {
        let text = String::from_utf8(ta).unwrap();
        assert!(
            text.contains("\"kind\":\"fault.kpi_corrupt\""),
            "a 50% plan must corrupt at least one sample: {text}"
        );
        assert!(text.contains("\"kind\":\"kpi.sanitized\"") || !text.contains("\"NaN\""));
    }
}

#[test]
fn disarmed_runs_match_plain_runs_exactly() {
    if !faultsim::enabled() {
        return;
    }
    // A plan whose run has ended must leave zero residue.
    let baseline = controller().optimize(&mut |c| truth(c));
    let _ = optimize_under_plan(3, 1.0);
    let after = controller().optimize(&mut |c| truth(c));
    assert_eq!(baseline.explored, after.explored);
    assert_eq!(baseline.recommended, after.recommended);
}

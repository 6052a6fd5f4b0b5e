//! Golden-tick regression for the SLO chaos drill (DESIGN.md §13).
//!
//! With a fully deterministic fault plan (`probability: 1`, pinned
//! `after`/`max_fires`), the slo-drill's abort storm and crash outage
//! land on exact ticks, so the default specs' alerts must fire and
//! resolve on exact windows — any drift in the burn-rate math, the
//! window bookkeeping, or the drill's schedule shows up as a changed
//! tick here. The final health exposition (what `--health-out` writes)
//! must show every objective back to green.

use faultsim::{FaultPlan, FaultSpec, RunFaults, Site};

/// The storm covers ticks 64..96 (windows 8–11: occurrences 4096..6144 at
/// 64 tx/tick) and the crash lands on tick 112 (window 14).
fn drill_plan() -> FaultPlan {
    FaultPlan::new(7)
        .with(
            Site::HtmSpurious,
            FaultSpec::always().skip_first(4096).fires(2048),
        )
        .with(
            Site::CrashPoint,
            FaultSpec::always().skip_first(112).fires(1),
        )
}

/// Run the drill as `experiments --faults --slo default --trace-out
/// --health-out slo-drill` does: close the trace (counter dump and
/// overhead audit included), then read the health exposition while the
/// run is still armed. Returns the finished trace and the exposition.
fn drill_run() -> (Vec<u8>, String) {
    let mut run = obs::Run::new()
        .faults(drill_plan())
        .slo(obs::slo::default_specs())
        .trace_memory()
        .arm();
    bench::slodrill::run();
    let trace = run.finish_trace().bytes.unwrap_or_default();
    (trace, obs::slo::render_health())
}

#[test]
fn chaos_drill_fires_and_resolves_on_golden_ticks() {
    if !faultsim::enabled() {
        return;
    }
    let (trace, health) = drill_run();
    if !obs::telemetry_compiled() {
        return;
    }
    let text = String::from_utf8(trace.clone()).expect("trace is UTF-8 JSONL");

    // Abort storm: rate 1.0 over windows 8–11. The fast window (3) holds
    // two violations when window 9 closes at tick 80 -> fire; it drains
    // below threshold when window 13 closes at tick 112 -> resolve.
    for golden in [
        "\"kind\":\"alert.fire\",\"slo\":\"abort_rate\",\"window\":9,\"tick\":80,\"value\":1,",
        "\"kind\":\"alert.resolve\",\"slo\":\"abort_rate\",\"window\":13,\"tick\":112,\
         \"firing_windows\":4",
        // Crash outage: recovery.success = 0 for exactly window 14 -> the
        // min >= 1 objective fires at tick 120 and resolves two clean
        // windows later, when window 16 closes at tick 136.
        "\"kind\":\"alert.fire\",\"slo\":\"recovery\",\"window\":14,\"tick\":120,\"value\":0,",
        "\"kind\":\"alert.resolve\",\"slo\":\"recovery\",\"window\":16,\"tick\":136,\
         \"firing_windows\":2",
        // The drill's own markers explain the alerts on the dashboard.
        "\"kind\":\"drill.storm\",\"edge\":\"start\",\"tick\":64,\"aborts\":64",
        "\"kind\":\"drill.storm\",\"edge\":\"end\",\"tick\":96,\"aborts\":2",
        "\"kind\":\"drill.crash\",\"tick\":112,\"site\":\"crash_point\",\"outage_ticks\":8",
        "\"kind\":\"drill.recovery\",\"tick\":120,\"outage_ticks\":8",
    ] {
        assert!(text.contains(golden), "missing golden record {golden}");
    }

    // The storm latency (84000 ns) also breaches the p99 ceiling, on the
    // same trajectory as the abort-rate objective.
    assert!(text.contains(
        "\"kind\":\"alert.fire\",\"slo\":\"commit_latency_p99\",\"window\":9,\"tick\":80,"
    ));

    assert!(
        text.contains("\"state\":\"firing\""),
        "the storm must drive an objective into firing"
    );

    // Every alert that fired also resolved: the run ends healthy, and the
    // final health exposition says so.
    assert_eq!(
        text.matches("\"kind\":\"alert.fire\"").count(),
        text.matches("\"kind\":\"alert.resolve\"").count(),
        "the drill must end with no alert left firing"
    );
    for line in [
        "proteus_slo_state{slo=\"abort_rate\"} 0",
        "proteus_slo_state{slo=\"recovery\"} 0",
        "proteus_alert_fires_total{slo=\"abort_rate\"} 1",
        "proteus_alert_resolves_total{slo=\"recovery\"} 1",
    ] {
        assert!(
            health.lines().any(|l| l == line),
            "missing health line {line} in:\n{health}"
        );
    }

    // The whole schedule is seeded: a rerun replays the same bytes.
    assert_eq!(
        (trace, health),
        drill_run(),
        "drill trace and health must replay identically"
    );
}

#[test]
fn undisturbed_drill_stays_inside_every_objective() {
    let trace = obs::Run::new()
        .slo(obs::slo::default_specs())
        .capture(bench::slodrill::run)
        .1;
    if !obs::telemetry_compiled() {
        return;
    }
    let text = String::from_utf8(trace).expect("trace is UTF-8 JSONL");
    assert!(
        text.contains("\"kind\":\"slo.state\""),
        "armed specs must judge the healthy drill too"
    );
    assert!(
        !text.contains("\"kind\":\"alert."),
        "a healthy drill must raise no alerts"
    );
    assert!(
        !text.contains("\"state\":\"firing\""),
        "no objective may enter firing on the baseline schedule"
    );
}

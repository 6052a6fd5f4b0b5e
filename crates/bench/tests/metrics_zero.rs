//! The disabled hot path must be silent: with no trace active, the
//! metrics snapshot carries zero instrumentation overhead and zero
//! windows. No run is attached to the test thread, so nothing can
//! activate a trace under it (the `--no-default-features` build goes
//! further and compiles the recording out entirely — see obs's own
//! tests).

#![cfg(feature = "telemetry")]

#[test]
fn snapshot_outside_a_trace_holds_zero_overhead() {
    // Recording attempts while disabled must leave no residue either.
    obs::ts_record("should.be.dropped", 42.0);
    obs::ts_tick();

    let json = obs::summary::metrics_json();
    assert!(
        json.contains(
            "\"obs_overhead\":{\"events\":0,\"bytes\":0,\"spans\":0,\
             \"windows\":0,\"histogram_updates\":0,\"per_subsystem\":{}}"
        ),
        "overhead must be zero outside a trace:\n{json}"
    );
    assert!(
        json.contains("\"flight_recorder\":{\"windows\":0,\"last_window_tick\":0,\"series\":0}"),
        "no windows outside a trace:\n{json}"
    );
    assert_eq!(
        obs::overhead_snapshot(),
        obs::OverheadSnapshot::default(),
        "overhead accountant must be idle outside a trace"
    );
}

//! Coverage for the `--metrics-out` snapshot (`obs::summary::metrics_json`,
//! exactly what the `experiments` binary writes).
//!
//! The snapshot is split in two (DESIGN.md §7): a deterministic prefix
//! (schema, counters, instrumentation self-overhead, flight recorder)
//! that must be byte-identical at every `--jobs` value, then a trailing
//! `"wallclock"` section (gauges, histogram timings) that legitimately
//! varies with the worker count and the clock. The tests below pin both
//! the shape and the split.

#![cfg(feature = "telemetry")]

/// Run fig4 under a trace and snapshot the metrics *while the trace is
/// still active* (instrumentation only records inside a trace; the
/// `experiments` binary snapshots before `finish_trace` for the same
/// reason).
fn snapshot_at(jobs: usize) -> String {
    let (json, _) = obs::Run::new().capture(|| {
        parx::with_jobs(jobs, || bench::fig4::run_with(24));
        obs::summary::metrics_json()
    });
    json
}

/// The deterministic prefix: everything before the `"wallclock"` key.
fn deterministic_prefix(json: &str) -> &str {
    let at = json
        .find("\"wallclock\":")
        .expect("snapshot must end with the wallclock section");
    &json[..at]
}

#[test]
fn snapshot_has_the_documented_shape() {
    let json = snapshot_at(1);
    // Top-level key order is part of the contract: deterministic keys
    // first, wall-clock last, so consumers can split on the marker.
    let order = [
        "{\"schema\":",
        "\"counters\":{",
        "\"conflict\":{\"committed_ops\":",
        "\"obs_overhead\":{\"events\":",
        "\"flight_recorder\":{\"windows\":",
        "\"wallclock\":{\"gauges\":{",
        "\"histograms\":{",
    ];
    let mut from = 0;
    for key in order {
        let at = json[from..]
            .find(key)
            .unwrap_or_else(|| panic!("missing or out-of-order {key:?} in:\n{json}"));
        from += at;
    }
    assert!(json.ends_with("}}\n"), "snapshot is a closed JSON object");
    assert!(
        json.starts_with(&format!("{{\"schema\":{}", obs::SCHEMA_VERSION)),
        "snapshot declares the current schema"
    );
    // The overhead accountant must have seen the fig4 events.
    assert!(
        !json.contains("\"obs_overhead\":{\"events\":0,"),
        "overhead events must be non-zero under a trace:\n{json}"
    );
    assert!(
        json.contains("\"per_subsystem\":{\"fig4\":"),
        "per-subsystem attribution includes fig4:\n{json}"
    );
}

/// The conflict-observatory rollup (DESIGN.md §12) lives in the
/// deterministic prefix: fig4 is ML-only, so its snapshot carries an
/// idle ledger — zero committed/wasted ops and a goodput ratio pinned
/// to 1 (the "nothing executed means nothing wasted" convention). The
/// value-bearing path is covered by the `conflicts` trace tests, which
/// drive a transactional stage.
#[test]
fn snapshot_carries_the_conflict_rollup() {
    let json = snapshot_at(1);
    assert!(
        json.contains("\"conflict\":{\"committed_ops\":0,\"wasted_ops\":0,\"goodput_ratio\":1"),
        "an ML-only run snapshots an idle ledger:\n{json}"
    );
    let conflict_at = json.find("\"conflict\":").unwrap();
    let wallclock_at = json.find("\"wallclock\":").unwrap();
    assert!(
        conflict_at < wallclock_at,
        "the rollup belongs to the byte-compared prefix, not the wallclock tail"
    );
}

#[test]
fn deterministic_prefix_is_byte_identical_across_job_counts() {
    let s1 = snapshot_at(1);
    let s2 = snapshot_at(2);
    let s4 = snapshot_at(4);
    assert_eq!(
        deterministic_prefix(&s1),
        deterministic_prefix(&s2),
        "metrics prefix differs at jobs=2"
    );
    assert_eq!(
        deterministic_prefix(&s1),
        deterministic_prefix(&s4),
        "metrics prefix differs at jobs=4"
    );
    // And it is stable across repeated identical runs, wallclock aside.
    let again = snapshot_at(4);
    assert_eq!(deterministic_prefix(&s4), deterministic_prefix(&again));
}

//! The fastpath same-run gate as an explicitly invoked test.
//!
//! `bench::fastpath::collect` measures the new stack and its frozen
//! legacy replica in the same process on the same host, and `verdict`
//! gates new ≤ legacy on the commit-latency pairs — a host-independent
//! comparison (DESIGN.md §9). Running it here proves the conflict
//! observatory's always-on attribution (the issued-op ledger in
//! `Tx::read`/`Tx::write`, cause recording on the cold ladder) has not
//! dented the nanosecond fast path.
//!
//! The gate runs inside a run with the default SLO specs armed: the
//! engine runs only on the window-flush path and costs nothing on the
//! commit path, and this is where that claim is enforced.
//!
//! `#[ignore]`d so plain `cargo test` stays free of wall-clock
//! sensitivity; the CI `conflicts` job runs it with `-- --ignored`.

#[test]
#[ignore = "wall-clock measurement; run explicitly (CI conflicts job)"]
fn same_run_gates_pass_with_attribution_and_slo_enabled() {
    obs::Run::new().slo(obs::slo::default_specs()).scope(|| {
        let snap = bench::fastpath::collect();
        let (verdict, ok) = bench::fastpath::verdict(&snap);
        println!("{verdict}");
        assert!(
            ok,
            "fastpath same-run gates must pass with the conflict observatory \
             and the SLO engine enabled:\n{verdict}"
        );
    });
}

//! Fault-injection tests for the HTM backends.
//!
//! Each plan is armed in an `obs::Run`, which only the arming test thread
//! sees, so tests asserting exact abort counts are safe next to it.

use faultsim::RunFaults;
use htm::{CapacityPolicy, HtmGeometry, HtmSim, HybridNOrec};
use std::sync::Arc;
use txcore::{run_tx, AbortCode, ThreadCtx, TmSystem};

#[test]
fn injected_spurious_aborts_drain_budget_into_fallback() {
    if !faultsim::enabled() {
        return;
    }
    let sys = Arc::new(TmSystem::new(1 << 16));
    let tm = HtmSim::with_geometry(Arc::clone(&sys), HtmGeometry::TINY_FOR_TESTS);
    let mut ctx = ThreadCtx::new(0);
    tm.cm().set(3, CapacityPolicy::GiveUp);
    let a = sys.heap.alloc(1);
    let plan = faultsim::FaultPlan::new(7)
        .with(faultsim::Site::HtmSpurious, faultsim::FaultSpec::always());
    obs::Run::new().faults(plan).scope(|| {
        run_tx(&tm, &mut ctx, |tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)
        });
    });
    assert_eq!(sys.heap.read_raw(a), 1, "block still commits");
    let snap = ctx.stats.snapshot();
    assert_eq!(
        snap.aborts_of(AbortCode::Spurious),
        3,
        "one per budget unit"
    );
    assert_eq!(snap.fallback_commits, 1, "budget drained into the fallback");
}

#[test]
fn hybrid_degrades_to_software_path_under_spurious_storm() {
    if !faultsim::enabled() {
        return;
    }
    let sys = Arc::new(TmSystem::new(1 << 16));
    let tm = HybridNOrec::new(Arc::clone(&sys));
    let mut ctx = ThreadCtx::new(0);
    tm.cm().set(4, CapacityPolicy::GiveUp);
    let a = sys.heap.alloc(1);
    let plan = faultsim::FaultPlan::new(3)
        .with(faultsim::Site::HtmSpurious, faultsim::FaultSpec::always());
    obs::Run::new().faults(plan).scope(|| {
        run_tx(&tm, &mut ctx, |tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)
        });
    });
    assert_eq!(sys.heap.read_raw(a), 1);
    let snap = ctx.stats.snapshot();
    assert_eq!(
        snap.aborts_of(AbortCode::Spurious),
        4,
        "budget of 4 drained"
    );
    assert_eq!(snap.fallback_commits, 1, "committed on the NOrec slow path");
}

#[test]
fn probabilistic_plans_replay_identically() {
    if !faultsim::enabled() {
        return;
    }
    let run = || {
        let sys = Arc::new(TmSystem::new(1 << 16));
        let tm = HtmSim::new(Arc::clone(&sys));
        let mut ctx = ThreadCtx::new(0);
        let a = sys.heap.alloc(1);
        let plan = faultsim::FaultPlan::new(42).with(
            faultsim::Site::HtmSpurious,
            faultsim::FaultSpec::with_probability(0.3),
        );
        obs::Run::new().faults(plan).scope(|| {
            for _ in 0..200 {
                run_tx(&tm, &mut ctx, |tx| {
                    let v = tx.read(a)?;
                    tx.write(a, v + 1)
                });
            }
        });
        assert_eq!(
            sys.heap.read_raw(a),
            200,
            "all blocks commit despite faults"
        );
        ctx.stats.snapshot().aborts_of(AbortCode::Spurious)
    };
    let first = run();
    assert!(first > 0, "a 30% plan over 200 transactions must fire");
    assert_eq!(first, run(), "same seed, same fault schedule");
}

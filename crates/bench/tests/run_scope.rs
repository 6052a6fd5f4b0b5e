//! The scope of an `obs::Run`: a run's trace and fault plan reach the
//! thread that armed it and the threads the stack starts for it (the
//! `parx` pool, the `polytm` adapter), and nobody else. A bystander — a
//! sibling test's thread, say — sees nothing armed, and nothing it emits
//! lands in the run's trace.

use faultsim::{FaultPlan, FaultSpec, RunFaults, Site};
use polytm::{AdapterHandle, BackendId, PolyTm, SwitchError, TmConfig};
use std::sync::{Arc, Barrier};

/// Every switch fails while the plan is armed.
fn failing_switches() -> FaultPlan {
    FaultPlan::new(3).with(Site::SwitchApply, FaultSpec::always())
}

fn small_poly() -> Arc<PolyTm> {
    Arc::new(PolyTm::builder().heap_words(1 << 10).max_threads(2).build())
}

#[test]
fn bystander_threads_see_no_plan_and_leak_nothing_into_the_trace() {
    // The bystander exists before the run is armed and is never attached
    // to it; the barriers only order its checks inside the run's lifetime.
    // Both sides assert after the last barrier, so a failure cannot leave
    // the other side waiting.
    let opened = Barrier::new(2);
    let checked = Barrier::new(2);
    let (owner, bytes) = std::thread::scope(|s| {
        let bystander = s.spawn(|| {
            let poly = small_poly();
            opened.wait();
            let seen = (faultsim::armed(), obs::enabled());
            obs::emit("test.scope.bystander", vec![]);
            // A switch on the bystander's own runtime.
            let switched = poly.apply(&TmConfig::stm(BackendId::NOrec, 2));
            checked.wait();
            (seen, switched)
        });
        let captured = obs::Run::new().faults(failing_switches()).capture(|| {
            opened.wait();
            checked.wait();
            obs::emit("test.scope.owner", vec![]);
            (faultsim::armed(), obs::enabled())
        });
        let (seen, switched) = bystander.join().expect("bystander thread");
        assert_eq!(seen, (false, false), "bystander saw another thread's run");
        assert!(
            switched.is_ok(),
            "bystander switch was injected: {switched:?}"
        );
        captured
    });
    assert_eq!(owner, (faultsim::enabled(), obs::telemetry_compiled()));
    let text = String::from_utf8(bytes).expect("trace is UTF-8 JSONL");
    assert!(text.contains("test.scope.owner"), "{text}");
    assert!(!text.contains("test.scope.bystander"), "{text}");
}

#[test]
fn parx_workers_and_the_adapter_see_the_run() {
    let poly = small_poly();
    // Spawned before the run: the adapter picks the run up per request.
    let adapter = AdapterHandle::spawn(Arc::clone(&poly));
    let (seen, bytes) = obs::Run::new().faults(failing_switches()).capture(|| {
        let seen = parx::with_jobs(2, || {
            parx::par_map_indexed(4, |i| {
                obs::emit("test.scope.worker", vec![("i", obs::Value::U64(i as u64))]);
                (faultsim::armed(), obs::enabled())
            })
        });
        let switched = adapter.reconfigure(TmConfig::stm(BackendId::NOrec, 2));
        if faultsim::enabled() {
            assert_eq!(
                switched,
                Err(SwitchError::Injected),
                "the adapter served in the run"
            );
        }
        seen
    });
    let expected = (faultsim::enabled(), obs::telemetry_compiled());
    assert!(seen.iter().all(|&s| s == expected), "{seen:?}");
    let text = String::from_utf8(bytes).expect("trace is UTF-8 JSONL");
    assert_eq!(text.matches("test.scope.worker").count(), 4, "{text}");
    if obs::telemetry_compiled() {
        assert!(text.contains("\"kind\":\"adapter.tick\""), "{text}");
    }
    // The run is over: the same adapter serves the next request unarmed.
    adapter
        .reconfigure(TmConfig::stm(BackendId::NOrec, 2))
        .expect("no plan outside the run");
}

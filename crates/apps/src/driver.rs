//! A multi-threaded workload driver running [`TmApp`]s on PolyTM.

use polytm::{PolyTm, Worker};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txcore::util::XorShift64;
use txcore::StatsSnapshot;

/// A transactional application: performs one application-level operation
/// (one or more atomic blocks) per [`TmApp::op`] call.
pub trait TmApp: Send + Sync {
    /// Application name.
    fn name(&self) -> &'static str;

    /// Execute one operation on the calling worker thread.
    fn op(&self, poly: &PolyTm, worker: &mut Worker, rng: &mut XorShift64);
}

/// How to drive an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppWorkload {
    /// Worker threads to spawn (each binds one PolyTM slot, starting at 0).
    pub threads: usize,
    /// Wall-clock duration to run for (ignored if `ops_per_thread` is set).
    pub duration: Duration,
    /// Run a fixed number of operations per thread instead of a duration.
    pub ops_per_thread: Option<u64>,
    /// Base RNG seed (per-thread seeds derive from it).
    pub seed: u64,
}

impl Default for AppWorkload {
    fn default() -> Self {
        AppWorkload {
            threads: 4,
            duration: Duration::from_millis(100),
            ops_per_thread: None,
            seed: 1,
        }
    }
}

/// What a drive run measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveReport {
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Aggregate commit/abort counters accumulated during the run.
    pub stats: StatsSnapshot,
    /// Committed transactions per second.
    pub throughput: f64,
}

/// Run `app` on `poly` with the given workload shape and report KPIs.
///
/// The driver tolerates reconfiguration while running (threads blocked by a
/// lowered parallelism degree are released at shutdown via
/// [`PolyTm::resume_all`]).
///
/// # Panics
///
/// Panics if the workload requests more threads than the runtime supports.
pub fn drive(poly: &Arc<PolyTm>, app: &Arc<dyn TmApp>, workload: AppWorkload) -> DriveReport {
    assert!(workload.threads >= 1, "at least one thread");
    assert!(
        workload.threads <= poly.max_threads(),
        "workload threads exceed runtime capacity"
    );
    let before = poly.snapshot();
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let run = obs::RunHandle::current();
    std::thread::scope(|s| {
        for t in 0..workload.threads {
            let poly = Arc::clone(poly);
            let app = Arc::clone(app);
            let stop = Arc::clone(&stop);
            let run = &run;
            s.spawn(move || {
                let _run = run.attach();
                let mut worker = poly.register_thread(t);
                let mut rng = XorShift64::new(workload.seed ^ ((t as u64 + 1) << 24));
                match workload.ops_per_thread {
                    Some(n) => {
                        for _ in 0..n {
                            app.op(&poly, &mut worker, &mut rng);
                        }
                    }
                    None => {
                        while !stop.load(Ordering::Relaxed) {
                            app.op(&poly, &mut worker, &mut rng);
                        }
                    }
                }
            });
        }
        if workload.ops_per_thread.is_none() {
            std::thread::sleep(workload.duration);
            stop.store(true, Ordering::SeqCst);
            // Release any threads parked by a lowered parallelism degree so
            // they can observe the stop flag.
            poly.resume_all();
        }
    });
    let elapsed = started.elapsed();
    let stats = poly.snapshot().since(&before);
    DriveReport {
        elapsed,
        stats,
        throughput: stats.commits as f64 / elapsed.as_secs_f64().max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txcore::TxResult;

    struct CounterApp {
        addr: txcore::Addr,
    }

    impl TmApp for CounterApp {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn op(&self, poly: &PolyTm, worker: &mut Worker, _rng: &mut XorShift64) {
            let addr = self.addr;
            poly.run_tx(worker, |tx| -> TxResult<()> {
                let v = tx.read(addr)?;
                tx.write(addr, v + 1)
            });
        }
    }

    #[test]
    fn fixed_op_count_runs_exactly() {
        let poly = Arc::new(PolyTm::builder().heap_words(256).max_threads(3).build());
        let addr = poly.system().heap.alloc(1);
        let app: Arc<dyn TmApp> = Arc::new(CounterApp { addr });
        let report = drive(
            &poly,
            &app,
            AppWorkload {
                threads: 3,
                ops_per_thread: Some(100),
                ..AppWorkload::default()
            },
        );
        assert_eq!(report.stats.commits, 300);
        assert_eq!(poly.system().heap.read_raw(addr), 300);
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn timed_run_terminates_even_with_reduced_parallelism() {
        let poly = Arc::new(PolyTm::builder().heap_words(256).max_threads(4).build());
        poly.apply(&polytm::TmConfig::stm(polytm::BackendId::NOrec, 2))
            .unwrap();
        let addr = poly.system().heap.alloc(1);
        let app: Arc<dyn TmApp> = Arc::new(CounterApp { addr });
        let report = drive(
            &poly,
            &app,
            AppWorkload {
                threads: 4, // two of them are gated off
                duration: Duration::from_millis(50),
                ..AppWorkload::default()
            },
        );
        assert!(report.stats.commits > 0);
        assert_eq!(
            poly.system().heap.read_raw(addr),
            report.stats.commits,
            "no lost updates"
        );
    }
}

//! Table 4: steady-state overhead of PolyTM vs bare TM backends, including
//! the dual-code-path ablation (HTM-opt vs HTM-naive).
//!
//! Measured on the real stack: each cell runs a fixed number of short
//! hash-map transactions per thread and compares ops/s of the bare backend
//! (direct `run_tx`) against the same backend behind PolyTM's thread gate
//! and dispatch.

use crate::harness::print_table;
use apps::structures::RedBlackTree;
use htm::HtmSim;
use polytm::{BackendId, PolyTm, ThreadGate, TmConfig};
use std::sync::Arc;
use std::time::Instant;
use stm::{NOrec, SwissTm, TinyStm, Tl2};
use txcore::util::XorShift64;
use txcore::{run_tx, ThreadCtx, TmBackend, TmSystem, TxResult};

const KEYS: u64 = 4096;
/// Repetitions per cell; the best run is kept (single-core scheduler noise
/// only ever slows a run down).
const REPS: usize = 3;

fn tree_op(
    backend: &dyn TmBackend,
    ctx: &mut ThreadCtx,
    heap: &txcore::Heap,
    tree: &RedBlackTree,
    rng: &mut XorShift64,
) {
    let key = rng.next_below(KEYS);
    if rng.next_below(10) < 7 {
        run_tx(backend, ctx, |tx| tree.get(tx, key));
    } else {
        let v = rng.next_u64();
        run_tx(backend, ctx, |tx| -> TxResult<()> {
            tree.insert(tx, heap, key, v)?;
            Ok(())
        });
    }
}

fn populate(sys: &Arc<TmSystem>) -> RedBlackTree {
    let tree = RedBlackTree::create(&sys.heap);
    let tm = Tl2::new(Arc::clone(sys));
    let mut ctx = ThreadCtx::new(0);
    for k in 0..KEYS {
        run_tx(&tm, &mut ctx, |tx| tree.insert(tx, &sys.heap, k, k));
    }
    tree
}

/// Ops/s of the bare backend, optionally routed through a standalone
/// thread gate (the "PolyTM instrumentation without PolyTM" ablation).
fn bare_ops_per_sec(
    make: &dyn Fn(Arc<TmSystem>) -> Arc<dyn TmBackend>,
    threads: usize,
    ops: u64,
    with_gate: bool,
) -> f64 {
    let sys = Arc::new(TmSystem::new(1 << 21));
    let tree = populate(&sys);
    let backend = make(Arc::clone(&sys));
    let gate = ThreadGate::new(threads);
    let mut best = 0.0f64;
    let run = obs::RunHandle::current();
    for rep in 0..REPS {
        let started = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let backend = Arc::clone(&backend);
                let sys = Arc::clone(&sys);
                let gate = &gate;
                let tree = &tree;
                let run = &run;
                s.spawn(move || {
                    let _run = run.attach();
                    let mut ctx = ThreadCtx::new(t);
                    let mut rng = XorShift64::new(0xAB ^ ((rep as u64) << 40) ^ (t as u64 + 1));
                    for _ in 0..ops {
                        if with_gate {
                            gate.enter(t);
                        }
                        tree_op(backend.as_ref(), &mut ctx, &sys.heap, tree, &mut rng);
                        if with_gate {
                            gate.exit(t);
                        }
                    }
                });
            }
        });
        best = best.max((threads as u64 * ops) as f64 / started.elapsed().as_secs_f64());
    }
    best
}

/// Ops/s through the full PolyTM runtime in the given configuration.
fn poly_ops_per_sec(config: TmConfig, ops: u64) -> f64 {
    let poly = Arc::new(
        PolyTm::builder()
            .heap_words(1 << 21)
            .max_threads(config.threads)
            .initial_config(config)
            .build(),
    );
    let tree = populate(poly.system());
    let mut best = 0.0f64;
    let run = obs::RunHandle::current();
    for rep in 0..REPS {
        let started = Instant::now();
        std::thread::scope(|s| {
            for t in 0..config.threads {
                let poly = Arc::clone(&poly);
                let tree = &tree;
                let run = &run;
                s.spawn(move || {
                    let _run = run.attach();
                    let mut worker = poly.register_thread(t);
                    let mut rng = XorShift64::new(0xAB ^ ((rep as u64) << 40) ^ (t as u64 + 1));
                    let heap = &poly.system().heap;
                    for _ in 0..ops {
                        let key = rng.next_below(KEYS);
                        if rng.next_below(10) < 7 {
                            poly.run_tx(&mut worker, |tx| tree.get(tx, key));
                        } else {
                            let v = rng.next_u64();
                            poly.run_tx(&mut worker, |tx| -> TxResult<()> {
                                tree.insert(tx, heap, key, v)?;
                                Ok(())
                            });
                        }
                    }
                });
            }
        });
        best = best.max((config.threads as u64 * ops) as f64 / started.elapsed().as_secs_f64());
    }
    best
}

/// Run Table 4 with `ops` operations per thread (more = less noise).
pub fn run_with(ops: u64) {
    let threads_list = [1usize, 2, 4];
    let mut rows = Vec::new();
    type Maker = (
        &'static str,
        BackendId,
        fn(Arc<TmSystem>) -> Arc<dyn TmBackend>,
    );
    let makers: [Maker; 5] = [
        ("TL2", BackendId::Tl2, |s| Arc::new(Tl2::new(s))),
        ("NOrec", BackendId::NOrec, |s| Arc::new(NOrec::new(s))),
        ("Swiss", BackendId::SwissTm, |s| Arc::new(SwissTm::new(s))),
        ("Tiny", BackendId::TinyStm, |s| Arc::new(TinyStm::new(s))),
        ("HTM-opt", BackendId::Htm, |s| Arc::new(HtmSim::new(s))),
    ];
    for &threads in &threads_list {
        let mut row = vec![threads.to_string()];
        for (_, id, make) in &makers {
            let bare = bare_ops_per_sec(make, threads, ops, false);
            let cfg = TmConfig {
                backend: *id,
                threads,
                htm: id.is_hardware().then_some(polytm::HtmSetting::DEFAULT),
                durability: txcore::DurabilityMode::Volatile,
            };
            let poly = poly_ops_per_sec(cfg, ops);
            let overhead = ((bare - poly) / bare * 100.0).max(0.0);
            row.push(format!("{overhead:.1}"));
        }
        // HTM-naive: the fully-instrumented code path behind the gate,
        // relative to the bare optimized HTM.
        let bare_opt = bare_ops_per_sec(&|s| Arc::new(HtmSim::new(s)), threads, ops, false);
        let naive = bare_ops_per_sec(&|s| Arc::new(HtmSim::new_naive(s)), threads, ops, true);
        let overhead = ((bare_opt - naive) / bare_opt * 100.0).max(0.0);
        row.push(format!("{overhead:.1}"));
        rows.push(row);
    }
    print_table(
        "Table 4 — PolyTM overhead (%) vs bare backends (red-black-tree mix)",
        &[
            "#threads",
            "TL2",
            "NOrec",
            "Swiss",
            "Tiny",
            "HTM-opt",
            "HTM-naive",
        ],
        &rows,
    );
    println!(
        "(Shape target: single-digit overheads everywhere except HTM-naive,\n\
         which pays the full instrumented path — the dual-path ablation.)"
    );
}

/// Run Table 4 with the default measurement size.
pub fn run() {
    run_with(30_000);
}

#[cfg(test)]
mod tests {
    #[test]
    fn table4_smoke() {
        super::run_with(500);
    }
}

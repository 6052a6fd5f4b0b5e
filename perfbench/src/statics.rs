//! The two static workloads: Memcached-lite and TPC-C-lite on PolyTM's
//! default configuration (TL2, [`WORKERS`] threads), each op sent through
//! the application's own `TmApp::op`.

use crate::stats::mix;
use crate::trace::ThreadLog;
use crate::{checked, runtime, shrunk, Round, RunConfig, Workload, WORKERS};
use proteustm::apps::systems::{Memcached, TpcC};
use proteustm::apps::TmApp;
use proteustm::txcore::util::XorShift64;
use proteustm::PolyTm;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Memcached-lite: 16 Ki keys, 90% gets.
const MC_KEYS: u64 = 16 * 1024;
const MC_GET_PCT: u64 = 90;
/// TPC-C-lite: 4 warehouses, 10 order lines per New-Order.
const TPCC_WAREHOUSES: u64 = 4;
const TPCC_ORDER_LINES: u64 = 10;

/// Timed ops per worker and round. A fixed budget rather than a duration:
/// aborted attempts leak heap words, so a budget bounds the heap a round
/// needs.
fn ops_per_worker(w: Workload) -> u64 {
    match w {
        Workload::Memcached => 200_000,
        _ => 100_000,
    }
}

/// Heap words the application's tables take, with room to spare: the
/// cache's buckets plus one 3-word entry per key; TPC-C's four tables.
fn table_words(w: Workload) -> u64 {
    match w {
        Workload::Memcached => 1 << 17,
        _ => 1 << 14,
    }
}

/// Upper bound on heap words an op allocates, leaks of aborted attempts
/// included. Measured `txcore.heap_words_per_op` is about 0.04 for
/// Memcached-lite (only sets of new keys allocate) and 0 for TPC-C-lite;
/// the bound keeps a margin of more than 20×.
const WORDS_PER_OP: u64 = 1;

/// One round: build the runtime, populate and warm the application, then
/// run the timed budget and check the results.
pub fn round(cfg: &RunConfig, index: usize, traced: bool) -> Round {
    let per_worker = shrunk(ops_per_worker(cfg.workload), cfg.shrink);
    let warm_per_worker = per_worker / 2;
    let total = per_worker * WORKERS as u64;
    let heap_words = table_words(cfg.workload) + (total + warm_per_worker * 2) * WORDS_PER_OP;

    let setup = Instant::now();
    let proteus = runtime(heap_words as usize);
    let train = setup.elapsed();
    let poly = proteus.poly();
    let sys = poly.system();
    let (app, tpcc): (Arc<dyn TmApp>, Option<Arc<TpcC>>) = match cfg.workload {
        Workload::Memcached => (Arc::new(Memcached::setup(sys, MC_KEYS, MC_GET_PCT)), None),
        _ => {
            let db = Arc::new(TpcC::setup(sys, TPCC_WAREHOUSES, TPCC_ORDER_LINES));
            (db.clone(), Some(db))
        }
    };
    let stream = mix(cfg.seed ^ mix(index as u64));
    drive(poly, app.as_ref(), warm_per_worker, mix(stream ^ 1), false);
    let populate = setup.elapsed() - train;

    let mut r = Round::start(poly, traced, total);
    r.train = train;
    r.populate = populate;
    let logs = drive(poly, app.as_ref(), per_worker, mix(stream ^ 2), traced);
    r.finish(poly, logs);

    // Every op is exactly one transaction.
    let expected = total + cfg.check_skew;
    let commits = r.stats.commits;
    let mut problems = vec![checked("commit count", || {
        if commits == expected {
            Ok(())
        } else {
            Err(format!("{commits} commits for {expected} ops"))
        }
    })];
    if let Some(db) = tpcc {
        problems.push(checked("money conservation", || {
            db.check_money_conservation(sys);
            Ok(())
        }));
    }
    r.end_checks(problems);
    r
}

/// Run `ops` ops of `app` on each of [`WORKERS`] threads. Thread `t`
/// draws its ops from a generator seeded with `mix(seed ^ t)`.
fn drive(poly: &PolyTm, app: &dyn TmApp, ops: u64, seed: u64, traced: bool) -> Vec<ThreadLog> {
    let epoch = Instant::now();
    thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|t| {
                s.spawn(move || {
                    let mut worker = poly.register_thread(t);
                    let mut rng = XorShift64::new(mix(seed ^ t as u64));
                    let mut log = ThreadLog::new(t, traced, epoch, ops);
                    for n in 0..ops {
                        let span = log.sample(n);
                        log.op(span, |_| app.op(poly, &mut worker, &mut rng));
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a worker thread panicked"))
            .collect()
    })
}

//! End-to-end benchmark of the ProteusTM stack.
//!
//! Three closed-loop workloads run from one process on [`WORKERS`] worker
//! threads through the `ProteusTm` facade, `PolyTm::run_tx`, the `stm`
//! backends and `txcore`:
//!
//! * `memcached` — Memcached-lite, the shortest transactions in the repo:
//!   the fixed per-transaction cost (gate, dispatch, begin, commit, stats
//!   fold) dominates, and shared hit/miss counters keep aborts frequent;
//! * `tpcc` — TPC-C-lite, long update transactions (~40 accesses, half of
//!   them writes): barriers, commit-time locking, write-back and
//!   validation dominate;
//! * `adaptive` — the paper's online loop (RecTM exploration, Monitor,
//!   live `PolyTm::apply`) over a phased red-black tree dominated by
//!   read-only transactions with deep read sets.
//!
//! A run repeats *rounds* until its time budget is spent. Each round builds
//! a fresh runtime, populates and warms it (timed as set-up), runs a fixed
//! op budget (timed), and checks the results. End-to-end metrics are
//! medians over untraced rounds; a traced run alternates untraced and
//! traced rounds and reports per-layer metrics from the traced ones, plus
//! the tracing overhead between the two.

mod adaptive;
mod host;
mod report;
mod statics;
mod stats;
mod trace;

use host::Host;
pub use report::{Metric, Report};

use proteustm::txcore::StatsSnapshot;
use proteustm::{Kpi, PolyTm, ProteusTm};
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};
use trace::{BlockTimes, Span, ThreadLog};

/// Worker threads every workload runs on.
pub const WORKERS: usize = 2;

/// Rounds of each kind a run makes at least, whatever its time budget.
const MIN_ROUNDS: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Memcached-lite, 90% gets over 16 Ki keys.
    Memcached,
    /// TPC-C-lite, 51/49 New-Order/Payment over 4 warehouses.
    Tpcc,
    /// The live self-tuning loop over a phased red-black tree.
    Adaptive,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Memcached, Workload::Tpcc, Workload::Adaptive];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Memcached => "memcached",
            Workload::Tpcc => "tpcc",
            Workload::Adaptive => "adaptive",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed every op stream derives from.
    pub seed: u64,
    /// Time budget: rounds repeat until it is spent.
    pub seconds: f64,
    /// Report per-layer metrics from traced rounds instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Divide op budgets and key ranges by `2^shrink` (0 = full size).
    pub shrink: u32,
    /// Added to the value each end-of-round check expects. Always 0 except
    /// in the self-test, which uses it to show that a failing check counts
    /// the round's ops as failed.
    pub check_skew: u64,
}

/// `n / 2^shrink`, at least 16.
pub(crate) fn shrunk(n: u64, shrink: u32) -> u64 {
    (n >> shrink).max(16)
}

/// The managed runtime every workload runs on: ProteusTM trained off-line
/// for throughput over a [`WORKERS`]-thread space, starting on PolyTM's
/// default configuration (TL2, all threads).
pub(crate) fn runtime(heap_words: usize) -> ProteusTm {
    ProteusTm::builder()
        .heap_words(heap_words)
        .max_threads(WORKERS)
        .kpi(Kpi::Throughput)
        .build()
}

/// Run one result check, catching a panic as a failure.
pub(crate) fn checked(
    name: &str,
    check: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    match panic::catch_unwind(AssertUnwindSafe(check)) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("{name}: {e}")),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            Err(format!("{name}: panicked: {msg}"))
        }
    }
}

/// What one round — set-up plus one fixed op budget — measured.
#[derive(Debug, Default)]
pub(crate) struct Round {
    /// Whether this round was traced.
    pub traced: bool,
    /// Ops attempted.
    pub ops: u64,
    /// Ops whose check failed (all of them when an end-of-round check
    /// failed).
    pub failed: u64,
    /// Why checks failed.
    pub problems: Vec<String>,
    /// Wall time of the op budget, first op start to last op end.
    pub wall: Duration,
    /// `ProteusTm` construction, off-line training included.
    pub train: Duration,
    /// Population and warm-up.
    pub populate: Duration,
    /// Median op latency, ns.
    pub p50_ns: f64,
    /// 99th-percentile op latency, ns.
    pub p99_ns: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Sum of op latencies over all threads, ns.
    pub op_busy_ns: u64,
    /// Commit/abort counter deltas over the budget.
    pub stats: StatsSnapshot,
    /// Heap words allocated during the budget.
    pub heap_words: u64,
    /// Serial-irrevocable escapes during the budget.
    pub serial_escapes: u64,
    /// Quiescence epochs during the budget.
    pub quiescence_epochs: u64,
    /// Busy time inside benchmark-owned `run_tx` calls (traced `adaptive`).
    pub blocks: BlockTimes,
    /// What the adapter did (`adaptive`).
    pub tuner: adaptive::Tuner,
    /// Per-phase counters (`adaptive`).
    pub phases: Vec<adaptive::Phase>,
    /// Median cost of an empty `run_tx` after the budget (traced rounds).
    pub empty_tx_ns: f64,
    /// Sampled spans (traced rounds).
    pub spans: Vec<Span>,
    before: StatsSnapshot,
    heap_before: u64,
    escapes_before: u64,
    epochs_before: u64,
}

impl Round {
    /// Snapshot the runtime's counters as the timed budget starts.
    pub(crate) fn start(poly: &PolyTm, traced: bool, ops: u64) -> Round {
        Round {
            traced,
            ops,
            before: poly.snapshot(),
            heap_before: poly.system().heap.allocated() as u64,
            escapes_before: poly.serial_escapes(),
            epochs_before: poly.quiescence_epochs(),
            ..Round::default()
        }
    }

    /// Fold the workers' logs and the counter deltas in once the budget
    /// has run, and time an empty transaction in a traced round.
    pub(crate) fn finish(&mut self, poly: &PolyTm, logs: Vec<ThreadLog>) {
        self.stats = poly.snapshot().since(&self.before);
        self.heap_words = poly.system().heap.allocated() as u64 - self.heap_before;
        self.serial_escapes = poly.serial_escapes() - self.escapes_before;
        self.quiescence_epochs = poly.quiescence_epochs() - self.epochs_before;
        let mut latencies = Vec::with_capacity(self.ops as usize);
        let (mut first, mut last) = (None::<Instant>, None::<Instant>);
        for log in logs {
            latencies.extend_from_slice(&log.latencies);
            if let Some((s, e)) = log.window {
                first = Some(first.map_or(s, |f| f.min(s)));
                last = Some(last.map_or(e, |l| l.max(e)));
            }
            self.blocks.add(&log.blocks);
            self.spans.extend(log.spans);
        }
        if let (Some(s), Some(e)) = (first, last) {
            self.wall = e - s;
        }
        self.samples = latencies.len() as u64;
        self.op_busy_ns = latencies.iter().sum();
        self.p50_ns = stats::quantile(&mut latencies, 0.50);
        self.p99_ns = stats::quantile(&mut latencies, 0.99);
        if self.traced {
            self.empty_tx_ns = empty_tx_ns(poly);
        }
    }

    /// Count every op of the round as failed if any end-of-round check
    /// failed.
    pub(crate) fn end_checks(&mut self, results: Vec<Result<(), String>>) {
        for r in results {
            if let Err(e) = r {
                self.problems.push(e);
                self.failed = self.ops;
            }
        }
    }
}

/// Median time of one `run_tx` with an empty block on `poly`'s current
/// configuration: the fixed per-transaction cost.
fn empty_tx_ns(poly: &PolyTm) -> f64 {
    const BATCH: u64 = 1000;
    let mut worker = poly.register_thread(0);
    let per_call = (0..25).map(|_| {
        let start = Instant::now();
        for _ in 0..BATCH {
            poly.run_tx(&mut worker, |_| Ok(()));
        }
        start.elapsed().as_nanos() as f64 / BATCH as f64
    });
    stats::median(per_call)
}

/// Run `cfg` to completion.
pub fn run(cfg: &RunConfig) -> Report {
    let mut host = Host::capture(WORKERS);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let mut rounds: Vec<Round> = Vec::new();
    let count =
        |rounds: &[Round], traced: bool| rounds.iter().filter(|r| r.traced == traced).count();
    let mut index = 0;
    loop {
        let enough = count(&rounds, false) >= MIN_ROUNDS
            && (!cfg.trace || count(&rounds, true) >= MIN_ROUNDS);
        if enough && started.elapsed() >= budget {
            break;
        }
        let traced = cfg.trace && index % 2 == 1;
        let round = match cfg.workload {
            Workload::Adaptive => adaptive::round(cfg, index, traced),
            _ => statics::round(cfg, index, traced),
        };
        rounds.push(round);
        index += 1;
    }
    host.finish();
    Report::new(cfg, host, rounds)
}

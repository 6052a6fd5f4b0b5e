//! The `adaptive` workload: ProteusTM's online loop (paper Fig. 2) over a
//! phased red-black tree whose ops the benchmark generates itself.
//!
//! Phase A is read-mostly over a large tree (10% updates over 2^20 keys,
//! prefilled to half, ~24 MiB of nodes); phase B is update-heavy over 64
//! hot keys; then phase A again. Both workers claim ops from one shared
//! budget in [`CHUNK`]s, so a slot parked by a 1-thread configuration never
//! stalls a phase. The main thread is the adapter: it optimizes once, then
//! feeds one KPI sample per window to the Monitor and re-optimizes on an
//! alarm, as `ProteusTm::run_managed` does — but while the workers keep
//! running.

use crate::stats::mix;
use crate::trace::{nanos, SpanKind, ThreadLog};
use crate::{checked, runtime, shrunk, Round, RunConfig, WORKERS};
use proteustm::apps::structures::RedBlackTree;
use proteustm::polytm::Worker;
use proteustm::txcore::{StatsSnapshot, Tx, TxResult};
use proteustm::{PolyTm, ProteusTm, TmConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Phase A key range and prefill.
const KEYS: u64 = 1 << 20;
/// Phase B key range.
const HOT_KEYS: u64 = 64;
/// Ops claimed from the shared budget at a time (phase budgets are
/// multiples of it, so exactly one claim starts each phase).
const CHUNK: u64 = 32;
/// One Monitor window / one exploration window.
const WINDOW: Duration = Duration::from_millis(10);
/// Upper bound on heap words per op: a 6-word node per insert attempt that
/// reaches a leaf, aborted attempts included. Measured
/// `txcore.heap_words_per_op` is about 0.6, nearly all of it phase B's
/// inserts (40% of its ops); the bound keeps a margin of more than 6×.
const WORDS_PER_OP: u64 = 4;
/// Heap words a tree node takes.
const NODE_WORDS: u64 = 6;

/// One phase of the op stream.
#[derive(Debug, Clone, Copy)]
struct PhaseSpec {
    name: &'static str,
    ops: u64,
    update_pct: u64,
    keys: u64,
}

fn phases(shrink: u32) -> [PhaseSpec; 3] {
    let ops = |n: u64| shrunk(n, shrink).div_ceil(CHUNK) * CHUNK;
    let a = |name, n| PhaseSpec {
        name,
        ops: ops(n),
        update_pct: 10,
        keys: shrunk(KEYS, shrink),
    };
    [
        a("phase_a1", 300_000),
        PhaseSpec {
            name: "phase_b",
            ops: ops(400_000),
            update_pct: 80,
            keys: HOT_KEYS,
        },
        a("phase_a2", 300_000),
    ]
}

/// Snapshot taken when the op stream entered a phase.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    stats: StatsSnapshot,
}

/// What one phase of a round measured.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Phase name (`phase_a1`, `phase_b`, `phase_a2`).
    pub name: &'static str,
    /// Wall time from entering the phase to entering the next.
    pub wall: Duration,
    /// Counter deltas over the phase.
    pub stats: StatsSnapshot,
}

/// What the adapter did in one round.
#[derive(Debug, Clone, Default)]
pub struct Tuner {
    /// `ProteusTm::optimize` calls.
    pub rounds: u64,
    /// Configurations explored across those calls.
    pub explorations: u64,
    /// Monitor alarms.
    pub alarms: u64,
    /// Time inside exploration windows.
    pub explore_ns: u64,
    /// Time inside `optimize` calls.
    pub optimize_ns: u64,
    /// Time inside `Monitor::observe`.
    pub observe_ns: u64,
    /// `Monitor::observe` calls.
    pub observes: u64,
    /// `<phase>: <config>` for each configuration an optimize call chose.
    pub chosen: Vec<String>,
}

/// Per-worker outcome counts, for the result checks.
#[derive(Debug, Default)]
struct Outcomes {
    inserted: u64,
    removed: u64,
    bad_lookups: u64,
}

/// The op stream shared by both workers.
struct Stream {
    tree: RedBlackTree,
    phases: [PhaseSpec; 3],
    total: u64,
    seed: u64,
    next: AtomicU64,
    marks: Mutex<Vec<Mark>>,
}

impl Stream {
    fn phase_of(&self, op: u64) -> usize {
        let mut end = 0;
        for (i, p) in self.phases.iter().enumerate() {
            end += p.ops;
            if op < end {
                return i;
            }
        }
        self.phases.len() - 1
    }

    fn claimed_all(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.total
    }

    /// Worker loop: claim chunks until the budget is spent.
    fn work(&self, poly: &PolyTm, log: &mut ThreadLog) -> Outcomes {
        let mut worker = poly.register_thread(log.thread);
        let mut out = Outcomes::default();
        let boundaries = [self.phases[0].ops, self.phases[0].ops + self.phases[1].ops];
        loop {
            let start = self.next.fetch_add(CHUNK, Ordering::Relaxed);
            if start >= self.total {
                return out;
            }
            if boundaries.contains(&start) {
                let mark = Mark {
                    at: Instant::now(),
                    stats: poly.snapshot(),
                };
                self.marks.lock().expect("marks lock poisoned").push(mark);
            }
            for op in start..start + CHUNK {
                let span = log.sample(op);
                log.op(span, |log| {
                    self.op(poly, &mut worker, log, span, op, &mut out)
                });
            }
        }
    }

    /// Run op number `op`: a lookup through `run_read_tx`, or an insert
    /// or remove through `run_tx`. Its kind and key derive from the seed
    /// and `op` alone.
    fn op(
        &self,
        poly: &PolyTm,
        worker: &mut Worker,
        log: &mut ThreadLog,
        span: Option<u64>,
        op: u64,
        out: &mut Outcomes,
    ) {
        let spec = self.phases[self.phase_of(op)];
        let h = mix(self.seed ^ op);
        let key = (h >> 32) % spec.keys;
        let tree = self.tree;
        let heap = &poly.system().heap;
        if h % 100 >= spec.update_pct {
            let got = exec(poly, worker, true, log, span, |tx| tree.get(tx, key));
            if got.is_some_and(|v| v != key) {
                out.bad_lookups += 1;
            }
        } else if (h >> 16) & 1 == 0 {
            if exec(poly, worker, false, log, span, |tx| {
                tree.insert(tx, heap, key, key)
            }) {
                out.inserted += 1;
            }
        } else if exec(poly, worker, false, log, span, |tx| tree.remove(tx, key)) {
            out.removed += 1;
        }
    }
}

/// Run `f` as one transaction (read-only-declared when `read_only`). In a
/// traced round, time the call and each block attempt, and record spans for
/// a sampled op.
fn exec<T>(
    poly: &PolyTm,
    worker: &mut Worker,
    read_only: bool,
    log: &mut ThreadLog,
    span: Option<u64>,
    mut f: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
) -> T {
    if !log.traced {
        return if read_only {
            poly.run_read_tx(worker, f)
        } else {
            poly.run_tx(worker, f)
        };
    }
    let mut attempts = 0;
    let mut attempt_ns = 0;
    let mut attempt_spans = Vec::new();
    let block = |tx: &mut Tx<'_>| {
        let start = Instant::now();
        let r = f(tx);
        let end = Instant::now();
        attempts += 1;
        attempt_ns += nanos(start, end);
        if span.is_some() {
            attempt_spans.push((start, end));
        }
        r
    };
    let start = Instant::now();
    let out = if read_only {
        poly.run_read_tx(worker, block)
    } else {
        poly.run_tx(worker, block)
    };
    let end = Instant::now();
    log.blocks.calls += 1;
    log.blocks.attempts += attempts;
    log.blocks.run_tx_ns += nanos(start, end);
    log.blocks.attempt_ns += attempt_ns;
    if let Some(op) = span {
        log.push_span(op, SpanKind::RunTx, start, end);
        for (s, e) in attempt_spans {
            log.push_span(op, SpanKind::Attempt, s, e);
        }
    }
    out
}

/// The adapter's state across one round.
struct Adapter<'a> {
    proteus: &'a ProteusTm,
    stream: &'a Stream,
    probe: proteustm::polytm::KpiProbe,
    last_kpi: f64,
    tuner: Tuner,
}

impl Adapter<'_> {
    /// Sleep through one window and return its throughput, or `None` once
    /// the op budget is fully claimed.
    fn window(&mut self, threads: usize) -> Option<f64> {
        if self.stream.claimed_all() {
            return None;
        }
        self.probe.sample(threads);
        thread::sleep(WINDOW);
        let kpi = self.probe.sample(threads).throughput;
        self.last_kpi = kpi;
        Some(kpi)
    }

    fn optimize(&mut self) {
        let phase = self.stream.phases[self
            .stream
            .phase_of(self.stream.next.load(Ordering::Relaxed))]
        .name;
        let proteus = self.proteus;
        let start = Instant::now();
        let outcome = proteus.optimize(&mut |cfg: &TmConfig| {
            let window = Instant::now();
            let kpi = self.window(cfg.threads).unwrap_or(self.last_kpi);
            self.tuner.explore_ns += nanos(window, Instant::now());
            kpi
        });
        self.tuner.optimize_ns += nanos(start, Instant::now());
        self.tuner.rounds += 1;
        self.tuner.explorations += outcome.exploration.len() as u64;
        self.tuner
            .chosen
            .push(format!("{phase}: {}", outcome.chosen));
    }

    /// Optimize once, then watch the KPI and re-optimize on each alarm
    /// until the budget is claimed.
    fn run(&mut self) {
        let mut monitor = self.proteus.monitor();
        self.optimize();
        while let Some(kpi) = self.window(self.proteus.poly().parallelism()) {
            let start = Instant::now();
            let alarm = monitor.observe(kpi);
            self.tuner.observe_ns += nanos(start, Instant::now());
            self.tuner.observes += 1;
            if alarm {
                self.tuner.alarms += 1;
                self.optimize();
            }
        }
    }
}

/// One round: train ProteusTM, prefill the tree, run the phased budget
/// under the live adapter, and check the tree.
pub fn round(cfg: &RunConfig, index: usize, traced: bool) -> Round {
    let phases = phases(cfg.shrink);
    let total: u64 = phases.iter().map(|p| p.ops).sum();
    let keys = phases[0].keys;
    let prefill = keys / 2;
    let heap_words = (prefill + 2) * NODE_WORDS + total * WORDS_PER_OP;
    let seed = mix(cfg.seed ^ mix(index as u64));

    let setup = Instant::now();
    let proteus = runtime(heap_words as usize);
    let train = setup.elapsed();
    let poly = proteus.poly();
    let heap = &poly.system().heap;
    let tree = RedBlackTree::create(heap);
    // A seeded random half of the key range, inserted in random order.
    let mut order: Vec<u64> = (0..keys).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (mix(seed ^ i as u64) % (i as u64 + 1)) as usize);
    }
    // One thread: every insert updates the tree's size word, so a second
    // inserting thread only adds conflicts.
    {
        let mut worker = poly.register_thread(0);
        for &key in &order[..prefill as usize] {
            poly.run_tx(&mut worker, |tx| tree.insert(tx, heap, key, key));
        }
    }
    let populate = setup.elapsed() - train;

    let stream = Stream {
        tree,
        phases,
        total,
        seed: mix(seed ^ 3),
        next: AtomicU64::new(0),
        marks: Mutex::new(Vec::new()),
    };
    let mut r = Round::start(poly, traced, total);
    r.train = train;
    r.populate = populate;
    let first = Mark {
        at: Instant::now(),
        stats: poly.snapshot(),
    };
    let epoch = first.at;
    let mut adapter = Adapter {
        proteus: &proteus,
        stream: &stream,
        probe: poly.probe(),
        last_kpi: 0.0,
        tuner: Tuner::default(),
    };
    let (logs, outcomes): (Vec<ThreadLog>, Vec<Outcomes>) = thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|t| {
                let stream = &stream;
                s.spawn(move || {
                    let mut log = ThreadLog::new(t, traced, epoch, total / WORKERS as u64);
                    let out = stream.work(poly, &mut log);
                    (log, out)
                })
            })
            .collect();
        adapter.run();
        // Release a slot a 1-thread configuration parked, so it can finish
        // the chunk it claimed.
        poly.resume_all();
        workers
            .into_iter()
            .map(|w| w.join().expect("a worker thread panicked"))
            .unzip()
    });
    let last = Mark {
        at: Instant::now(),
        stats: poly.snapshot(),
    };
    r.finish(poly, logs);
    r.tuner = adapter.tuner;

    let mut marks = stream.marks.into_inner().expect("marks lock poisoned");
    marks.sort_by_key(|m| m.at);
    marks.insert(0, first);
    marks.push(last);
    r.phases = phases
        .iter()
        .zip(marks.windows(2))
        .map(|(p, w)| Phase {
            name: p.name,
            wall: w[1].at - w[0].at,
            stats: w[1].stats.since(&w[0].stats),
        })
        .collect();

    let inserted: u64 = outcomes.iter().map(|o| o.inserted).sum();
    let removed: u64 = outcomes.iter().map(|o| o.removed).sum();
    let bad_lookups: u64 = outcomes.iter().map(|o| o.bad_lookups).sum();
    r.failed += bad_lookups;
    let mut worker = poly.register_thread(0);
    let len = poly.run_read_tx(&mut worker, |tx| tree.len(tx));
    let problems = vec![
        checked("tree size", || {
            let expected = (prefill + inserted + cfg.check_skew).checked_sub(removed);
            if expected == Some(len) {
                Ok(())
            } else {
                Err(format!(
                    "{len} keys after {prefill} prefilled, {inserted} inserted, {removed} removed"
                ))
            }
        }),
        checked("red-black invariants", || {
            let seen = tree.check_invariants(heap) as u64;
            if seen == len {
                Ok(())
            } else {
                Err(format!("walk saw {seen} keys, header says {len}"))
            }
        }),
    ];
    r.end_checks(problems);
    r
}

//! What a worker thread records while it runs ops: the latency of every
//! op, busy times of the layers the benchmark calls into, and — in traced
//! rounds — spans for a fixed 1-in-[`SPAN_EVERY`] sample of ops.
//!
//! Spans nest op → `run_tx` → block attempt, and the spans of one op share
//! its id. They stay in memory until the run ends and are then written as
//! JSON lines.

use std::io::{self, Write};
use std::time::Instant;

/// One op in this many is sampled for spans (by op number, so the same ops
/// are sampled on every run with the same seed).
pub const SPAN_EVERY: u64 = 1024;

/// The layer boundary a span brackets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One application op, as the benchmark calls it.
    Op,
    /// One `PolyTm::run_tx`/`run_read_tx` call (child of `Op`).
    RunTx,
    /// One invocation of the atomic block (child of `RunTx`).
    Attempt,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::RunTx => "run_tx",
            SpanKind::Attempt => "attempt",
        }
    }

    fn parent(self) -> &'static str {
        match self {
            SpanKind::Op => "",
            SpanKind::RunTx => "op",
            SpanKind::Attempt => "run_tx",
        }
    }
}

/// A recorded span; times are nanoseconds since the round's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Id of the op the span belongs to.
    pub op: u64,
    /// Which layer boundary it brackets.
    pub kind: SpanKind,
    /// Worker thread slot.
    pub thread: usize,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// Busy time inside `run_tx` calls the benchmark makes itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockTimes {
    /// `run_tx`/`run_read_tx` calls.
    pub calls: u64,
    /// Atomic-block invocations across those calls (commits + aborts).
    pub attempts: u64,
    /// Time inside the calls.
    pub run_tx_ns: u64,
    /// Time inside block invocations.
    pub attempt_ns: u64,
}

impl BlockTimes {
    /// Element-wise sum.
    pub fn add(&mut self, other: &BlockTimes) {
        self.calls += other.calls;
        self.attempts += other.attempts;
        self.run_tx_ns += other.run_tx_ns;
        self.attempt_ns += other.attempt_ns;
    }
}

/// One worker's record of a round's timed budget.
#[derive(Debug)]
pub struct ThreadLog {
    /// Worker thread slot.
    pub thread: usize,
    /// Whether this is a traced round (spans and block times recorded).
    pub traced: bool,
    /// Time origin shared by every thread of the round.
    pub epoch: Instant,
    /// Latency of each op, ns.
    pub latencies: Vec<u64>,
    /// When the first op started and the last one ended.
    pub window: Option<(Instant, Instant)>,
    /// Busy time inside `run_tx` (traced rounds, benchmark-owned blocks).
    pub blocks: BlockTimes,
    /// Sampled spans (traced rounds).
    pub spans: Vec<Span>,
}

impl ThreadLog {
    /// An empty log with room for `ops` latencies.
    pub fn new(thread: usize, traced: bool, epoch: Instant, ops: u64) -> Self {
        ThreadLog {
            thread,
            traced,
            epoch,
            latencies: Vec::with_capacity(ops as usize),
            window: None,
            blocks: BlockTimes::default(),
            spans: Vec::new(),
        }
    }

    /// The span id of op number `n`, if a traced round samples it.
    pub fn sample(&self, n: u64) -> Option<u64> {
        (self.traced && n.is_multiple_of(SPAN_EVERY)).then_some(((self.thread as u64) << 48) | n)
    }

    /// Run one op, timing it and, when `span` is set, recording its span.
    #[inline]
    pub fn op<R>(&mut self, span: Option<u64>, f: impl FnOnce(&mut Self) -> R) -> R {
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.latencies.push(nanos(start, end));
        self.window = Some((self.window.map_or(start, |w| w.0), end));
        if let Some(op) = span {
            self.push_span(op, SpanKind::Op, start, end);
        }
        out
    }

    /// Record a span of op `op`.
    pub fn push_span(&mut self, op: u64, kind: SpanKind, start: Instant, end: Instant) {
        self.spans.push(Span {
            op,
            kind,
            thread: self.thread,
            start_ns: nanos(self.epoch, start),
            end_ns: nanos(self.epoch, end),
        });
    }
}

/// Whole nanoseconds from `a` to `b`.
pub fn nanos(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Write `spans` of round `round` as JSON lines.
pub fn write_spans(out: &mut impl Write, round: usize, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"round\":{round},\"op\":{},\"span\":\"{}\",\"parent\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.op,
            s.kind.name(),
            s.kind.parent(),
            s.thread,
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}

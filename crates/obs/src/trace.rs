//! The JSONL trace of a [`Run`]: emit events into it, close it.
//!
//! A trace belongs to the run that opened it. Arming a run with a trace
//! zeroes the metrics registry and every time series, and each trace
//! numbers its records from `seq == 0`, so every captured stream is
//! self-contained — a precondition for the byte-identity determinism tests.
//!
//! [`RunGuard::finish_trace`](crate::RunGuard::finish_trace) appends a
//! sorted dump of non-zero counters to the stream;
//! [`Run::capture`] deliberately does **not** (counters are process-wide,
//! so another thread's increments would leak into the capture), which is
//! what makes it safe to compare two captures byte-for-byte.

use crate::event::{Event, PendingEvent, Value};
use crate::metrics;
use crate::run::{lock, with_run, Run};
use crate::timeseries;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::Ordering;

pub(crate) enum Sink {
    File(BufWriter<File>),
    Memory(Vec<u8>),
}

/// One run's open trace: the sink plus everything assigned or counted on
/// the emit path.
pub(crate) struct TraceState {
    sink: Sink,
    seq: u64,
    /// Next span id to hand out (ids are 1-based; 0 means "no span").
    span_next: u64,
    /// Ids of the currently open *scoped* spans, innermost last. Detached
    /// spans (see [`span_begin_detached`]) never enter this stack.
    span_stack: Vec<u64>,
    /// `(records, bytes)` per kind, trailing newlines included: every line
    /// written after the schema header, counted once. The report and the
    /// overhead audit are derived from it. Keys are the `&'static` kind
    /// strings, so this costs no allocation on the emit path.
    tally: BTreeMap<&'static str, (u64, u64)>,
    /// Flight-recorder health: tick of the most recent window flush.
    last_window_tick: u64,
    /// Flight-recorder health: every series name that appeared in a
    /// flushed window.
    window_series: BTreeSet<String>,
}

impl TraceState {
    /// A fresh trace over `sink`, its schema header already written.
    pub(crate) fn new(mut sink: Sink) -> TraceState {
        // Schema header: always the first line of a telemetry-enabled
        // trace, outside the event sequence (no seq number, not counted in
        // the report). `proteus-trace` refuses streams whose header is
        // missing or names a schema it does not understand. A feature-off
        // build emits no header so feature-off captures stay byte-empty.
        if cfg!(feature = "telemetry") {
            write_line(
                &mut sink,
                &format!(
                    "{{\"kind\":\"trace.meta\",\"schema\":{}}}",
                    crate::SCHEMA_VERSION
                ),
            );
        }
        TraceState {
            sink,
            seq: 0,
            span_next: 1,
            span_stack: Vec::new(),
            tally: BTreeMap::new(),
            last_window_tick: 0,
            window_series: BTreeSet::new(),
        }
    }

    /// Records of `kind` written so far.
    fn records(&self, kind: &str) -> u64 {
        self.tally.get(kind).map_or(0, |&(n, _)| n)
    }
}

/// Zero the process-wide registries a trace reports from (metrics, time
/// series). Called when a run with a trace is armed.
pub(crate) fn reset_registries() {
    metrics::reset();
    timeseries::reset_all();
}

/// Call `f` with the open trace of this thread's run; `None` when there is
/// no run or it has no open trace.
fn with_trace<R>(f: impl FnOnce(&mut TraceState) -> R) -> Option<R> {
    with_run(|run| lock(&run.trace).as_mut().map(f)).flatten()
}

/// Event kind opening a logical span. Emitting this kind (directly, via
/// [`crate::span!`], or by replaying a buffered [`PendingEvent`]) makes the
/// trace assign the record a fresh `id` field (and a `parent` field when
/// another scoped span is open) and push it on the scoped-span stack.
pub const SPAN_BEGIN: &str = "span.begin";

/// Event kind closing the innermost scoped span: the trace pops the stack
/// and attaches the popped `id`, pairing the record with its
/// [`SPAN_BEGIN`]. Detached spans close via [`span_end_detached`] instead.
pub const SPAN_END: &str = "span.end";

/// Event kind of one flushed time-series window (schema v3): fields
/// `series`, `window` (0-based index), `tick` (tick at flush), `n`,
/// `mean`, `min`, `max`, `last`. Emitted from serial code only — either a
/// [`ts_tick`] crossing a window boundary or the end-of-trace partial
/// flush.
pub const METRICS_WINDOW: &str = "metrics.window";

/// Advance the run's KPI sample tick. Call from **serial driver code
/// only** (DESIGN.md §7, rule 1): crossing a
/// [`crate::TICKS_PER_WINDOW`] boundary flushes every non-empty
/// [`crate::TsSeries`] as `metrics.window` records, which assigns sequence
/// numbers. No-op when no trace is active.
pub fn ts_tick() {
    if !crate::enabled() {
        return;
    }
    with_run(|run| {
        let t = run.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if t.is_multiple_of(timeseries::TICKS_PER_WINDOW) {
            flush_windows(run, t);
        }
    });
}

/// Flush the current window of every non-empty series, in name order.
/// Emits nothing when no series has pending samples (so traces without
/// KPI sample points stay byte-for-byte as they were under schema v2).
/// After the `metrics.window` records, the armed SLO engine (if any)
/// evaluates the same drained aggregates and appends its `slo.state` /
/// `alert.*` records — still on the serial flush path, so the whole
/// block inherits the byte-identity guarantee.
fn flush_windows(run: &Run, tick: u64) {
    let drained = timeseries::drain_windows();
    if drained.is_empty() {
        return;
    }
    let window = run.window_next.fetch_add(1, Ordering::Relaxed);
    {
        // Recorder-health bookkeeping, under its own short trace section
        // (emit re-locks per record, and the SLO engine takes its lock
        // before the trace's — never hold the trace lock across either).
        let mut state = lock(&run.trace);
        if let Some(state) = state.as_mut() {
            state.last_window_tick = tick;
            for (name, _) in &drained {
                if !state.window_series.contains(name) {
                    state.window_series.insert(name.clone());
                }
            }
        }
    }
    for (name, agg) in &drained {
        emit_in(
            run,
            METRICS_WINDOW,
            vec![
                ("series", Value::Str(name.clone())),
                ("window", Value::U64(window)),
                ("tick", Value::U64(tick)),
                ("n", Value::U64(agg.n)),
                ("mean", Value::F64(agg.sum / agg.n as f64)),
                ("min", Value::F64(agg.min)),
                ("max", Value::F64(agg.max)),
                ("last", Value::F64(agg.last)),
            ],
        );
    }
    crate::slo::evaluate_window(run, window, tick, &drained);
}

/// Emit one event into the trace of this thread's run.
///
/// Prefer the [`crate::event!`] macro, which guards field construction
/// behind [`crate::enabled`]. Calling this with no active trace is a
/// silent no-op.
///
/// The kinds [`SPAN_BEGIN`] and [`SPAN_END`] are special: span ids (and
/// parent links) are assigned here, under the same lock that assigns
/// sequence numbers. Buffered span records therefore get their ids at
/// *replay* time, which keeps them deterministic for the same reason
/// replayed sequence numbers are (DESIGN.md §7, rule 1).
pub fn emit(kind: &'static str, fields: Vec<(&'static str, Value)>) {
    with_run(|run| emit_in(run, kind, fields));
}

/// [`emit`] into `run`'s trace.
pub(crate) fn emit_in(run: &Run, kind: &'static str, fields: Vec<(&'static str, Value)>) {
    let mut state = lock(&run.trace);
    let Some(state) = state.as_mut() else {
        return;
    };
    let fields = if kind == SPAN_BEGIN {
        let id = state.span_next;
        state.span_next += 1;
        let parent = state.span_stack.last().copied();
        state.span_stack.push(id);
        span_fields(id, parent, fields)
    } else if kind == SPAN_END {
        match state.span_stack.pop() {
            Some(id) => span_fields(id, None, fields),
            // Unbalanced end (a bug in the instrumentation site): keep the
            // record, id-less, so the analyzer can flag it.
            None => fields,
        }
    } else {
        fields
    };
    emit_locked(state, kind, fields);
}

/// Prepend `id` (and `parent`, when present) to a span record's fields.
fn span_fields(
    id: u64,
    parent: Option<u64>,
    fields: Vec<(&'static str, Value)>,
) -> Vec<(&'static str, Value)> {
    let mut out = Vec::with_capacity(fields.len() + 2);
    out.push(("id", Value::U64(id)));
    if let Some(p) = parent {
        out.push(("parent", Value::U64(p)));
    }
    out.extend(fields);
    out
}

/// Open a *detached* span: one that outlives the current call stack (e.g.
/// a Monitor alarm window spanning many `observe` calls). The span gets an
/// id and a parent link like a scoped span but is **not** pushed on the
/// scoped-span stack, so scoped spans opened and closed while it is live
/// nest correctly. Returns the id to pass to [`span_end_detached`], or `0`
/// when no trace is active.
pub fn span_begin_detached(fields: Vec<(&'static str, Value)>) -> u64 {
    with_trace(|state| {
        let id = state.span_next;
        state.span_next += 1;
        let parent = state.span_stack.last().copied();
        let fields = span_fields(id, parent, fields);
        emit_locked(state, SPAN_BEGIN, fields);
        id
    })
    .unwrap_or(0)
}

/// Close a detached span by id (from [`span_begin_detached`]). No-op when
/// `id` is 0 or no trace is active, so callers can store the id
/// unconditionally.
pub fn span_end_detached(id: u64, fields: Vec<(&'static str, Value)>) {
    if id == 0 {
        return;
    }
    with_trace(|state| emit_locked(state, SPAN_END, span_fields(id, None, fields)));
}

/// Subsystem a kind belongs to for overhead accounting: the prefix before
/// the first `.` (`"quiesce.drain"` → `"quiesce"`, `"counter"` →
/// `"counter"`). Kinds are `&'static str`, so the prefix is too — no
/// allocation on the emit path.
fn subsystem_of(kind: &'static str) -> &'static str {
    match kind.find('.') {
        Some(i) => &kind[..i],
        None => kind,
    }
}

/// Number, encode, count and write one record: the only way a line after
/// the schema header enters the stream.
fn emit_locked(state: &mut TraceState, kind: &'static str, fields: Vec<(&'static str, Value)>) {
    let json = Event {
        seq: state.seq,
        kind,
        fields,
    }
    .to_json();
    state.seq += 1;
    let tally = state.tally.entry(kind).or_insert((0, 0));
    tally.0 += 1;
    tally.1 += json.len() as u64 + 1; // trailing newline
    write_line(&mut state.sink, &json);
}

/// Replay events that were buffered off the serial path (see
/// [`PendingEvent`]) into the active trace, in slice order.
///
/// Sequence numbers are assigned here, at replay time, so the stream stays
/// deterministic as long as the *replay* happens from serial driver code —
/// the buffering itself may occur inside `parx` workers. No-op when no
/// trace is active.
///
/// ```
/// let ((), bytes) = obs::Run::new().capture(|| {
///     // Imagine this Vec came back from a parallel worker.
///     let buffered = vec![obs::pending_event!("demo.buffered", "i" => 1u64)];
///     obs::emit_pending(&buffered);
/// });
/// if obs::telemetry_compiled() {
///     assert!(String::from_utf8(bytes).unwrap().contains("demo.buffered"));
/// }
/// ```
pub fn emit_pending(events: &[PendingEvent]) {
    for e in events {
        emit(e.kind, e.fields.clone());
    }
}

fn write_line(sink: &mut Sink, json: &str) {
    match sink {
        Sink::File(w) => {
            let _ = w.write_all(json.as_bytes());
            let _ = w.write_all(b"\n");
        }
        Sink::Memory(buf) => {
            buf.extend_from_slice(json.as_bytes());
            buf.push(b'\n');
        }
    }
}

/// Instrumentation self-overhead: what the observability layer itself
/// cost, counted at the emit path (DESIGN.md §7). Covers every record
/// written through the event path plus the counter dump; the one-line
/// schema header and the trailing `obs.overhead` records themselves are
/// excluded (the snapshot is taken before they are written).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverheadSnapshot {
    /// Records emitted (events + spans + windows + counter-dump lines).
    pub events: u64,
    /// JSONL bytes written, trailing newlines included.
    pub bytes: u64,
    /// `span.begin` records among them.
    pub spans: u64,
    /// `metrics.window` records among them.
    pub windows: u64,
    /// Histogram observations recorded since the trace started.
    pub histogram_updates: u64,
    /// `(subsystem, events, bytes)` rows, sorted by subsystem — the kind
    /// prefix before the first `.`.
    pub per_subsystem: Vec<(String, u64, u64)>,
}

fn overhead_of(state: &TraceState) -> OverheadSnapshot {
    let mut subsystems: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (kind, (n, b)) in &state.tally {
        let sub = subsystems.entry(subsystem_of(kind)).or_insert((0, 0));
        sub.0 += n;
        sub.1 += b;
    }
    OverheadSnapshot {
        events: subsystems.values().map(|&(n, _)| n).sum(),
        bytes: subsystems.values().map(|&(_, b)| b).sum(),
        spans: state.records(SPAN_BEGIN),
        windows: state.records(METRICS_WINDOW),
        histogram_updates: metrics::histogram_update_total(),
        per_subsystem: subsystems
            .into_iter()
            .map(|(k, (n, b))| (k.to_string(), n, b))
            .collect(),
    }
}

/// Live overhead accounting for the active trace (zeros when none is
/// active). The metrics snapshot (`obs::summary::metrics_json`) embeds
/// this, which is why it exists separately from [`TraceReport`].
pub fn overhead_snapshot() -> OverheadSnapshot {
    with_trace(|s| overhead_of(s)).unwrap_or_default()
}

/// Flight-recorder health: did the windowed KPI layer actually run, and
/// how far did it get? A trace whose run sampled KPIs but shows zero
/// windows (or a stale `last_window_tick`) was silently truncated —
/// exactly the failure the summary surfaces this for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecorderHealth {
    /// Non-empty window flushes (each may carry several series records).
    pub windows: u64,
    /// Sample tick of the most recent flush (0 when none happened).
    pub last_window_tick: u64,
    /// Distinct series that appeared in at least one flushed window.
    pub series: u64,
}

fn recorder_of(run: &Run, state: &TraceState) -> RecorderHealth {
    RecorderHealth {
        windows: run.window_next.load(Ordering::Relaxed),
        last_window_tick: state.last_window_tick,
        series: state.window_series.len() as u64,
    }
}

/// Live flight-recorder health for the active trace (zeros when none is
/// active). Embedded in the metrics snapshot and the end-of-trace
/// summary.
pub fn recorder_health() -> RecorderHealth {
    with_run(|run| lock(&run.trace).as_ref().map(|s| recorder_of(run, s)))
        .flatten()
        .unwrap_or_default()
}

/// End-of-trace accounting returned by
/// [`RunGuard::finish_trace`](crate::RunGuard::finish_trace).
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Total events emitted (excluding the trailing counter dump).
    pub events: u64,
    /// Events per kind, sorted by kind.
    pub by_kind: Vec<(&'static str, u64)>,
    /// The JSONL bytes, for memory-sink traces only.
    pub bytes: Option<Vec<u8>>,
    /// Instrumentation self-overhead accounting.
    pub overhead: OverheadSnapshot,
    /// Flight-recorder health (windows flushed, last tick, series seen).
    pub recorder: RecorderHealth,
}

/// Close `run`'s trace; see
/// [`RunGuard::finish_trace`](crate::RunGuard::finish_trace).
pub(crate) fn end(run: &Run, dump_counters: bool) -> TraceReport {
    // Flush the partial window first: flushing emits records, which needs
    // the trace state still in place.
    if lock(&run.trace).is_some() {
        flush_windows(run, run.tick.load(Ordering::Relaxed));
    }
    let taken = lock(&run.trace).take();
    let Some(mut state) = taken else {
        return TraceReport::default();
    };
    // `TraceReport::{events, by_kind}` keep their historical meaning
    // (records emitted before the dump); the overhead audit counts the
    // dump lines too.
    let by_kind: Vec<(&'static str, u64)> = state
        .tally
        .iter()
        .map(|(&kind, &(n, _))| (kind, n))
        .collect();
    if dump_counters {
        for (name, value) in metrics::counter_snapshot() {
            emit_locked(
                &mut state,
                "counter",
                vec![("name", Value::Str(name)), ("value", Value::U64(value))],
            );
        }
    }
    let overhead = overhead_of(&state);
    if dump_counters {
        // The overhead audit rides in the stream too, after the snapshot
        // is taken (so it does not count itself).
        for (name, events, bytes) in &overhead.per_subsystem {
            emit_locked(
                &mut state,
                "obs.overhead",
                vec![
                    ("subsystem", Value::Str(name.clone())),
                    ("events", Value::U64(*events)),
                    ("bytes", Value::U64(*bytes)),
                ],
            );
        }
        emit_locked(
            &mut state,
            "obs.overhead",
            vec![
                ("subsystem", Value::Str("total".to_string())),
                ("events", Value::U64(overhead.events)),
                ("bytes", Value::U64(overhead.bytes)),
                ("spans", Value::U64(overhead.spans)),
                ("windows", Value::U64(overhead.windows)),
                ("histogram_updates", Value::U64(overhead.histogram_updates)),
            ],
        );
    }
    let recorder = recorder_of(run, &state);
    let bytes = match state.sink {
        Sink::File(mut w) => {
            let _ = w.flush();
            None
        }
        Sink::Memory(buf) => Some(buf),
    };
    TraceReport {
        events: by_kind.iter().map(|&(_, n)| n).sum(),
        by_kind,
        bytes,
        overhead,
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture_trace<T>(f: impl FnOnce() -> T) -> (T, Vec<u8>) {
        Run::new().capture(f)
    }

    #[test]
    fn capture_is_byte_stable_and_self_contained() {
        let run = || {
            crate::event!("test.trace", "step" => 0u64);
            crate::event!("test.trace", "step" => 1u64, "label" => "x");
            "done"
        };
        let (out, a) = capture_trace(run);
        let (_, b) = capture_trace(run);
        assert_eq!(out, "done");
        assert_eq!(a, b, "identical runs must capture identical bytes");
        if crate::telemetry_compiled() {
            let text = String::from_utf8(a).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 3);
            assert_eq!(
                lines[0],
                format!(
                    "{{\"kind\":\"trace.meta\",\"schema\":{}}}",
                    crate::SCHEMA_VERSION
                ),
                "first line must be the schema header"
            );
            assert!(lines[1].starts_with("{\"seq\":0,\"kind\":\"test.trace\""));
            assert!(lines[2].contains("\"label\":\"x\""));
        } else {
            assert!(a.is_empty());
        }
    }

    #[test]
    fn scoped_spans_get_nested_ids_at_emit_time() {
        let ((), bytes) = capture_trace(|| {
            emit(SPAN_BEGIN, vec![("name", Value::from("outer"))]);
            emit(SPAN_BEGIN, vec![("name", Value::from("inner"))]);
            emit("test.span.body", vec![]);
            emit(SPAN_END, vec![("name", Value::from("inner"))]);
            emit(SPAN_END, vec![("name", Value::from("outer"))]);
        });
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"kind\":\"span."))
            .collect();
        assert!(lines[0].contains("\"id\":1") && lines[0].contains("\"name\":\"outer\""));
        assert!(!lines[0].contains("\"parent\""), "root span has no parent");
        assert!(
            lines[1].contains("\"id\":2") && lines[1].contains("\"parent\":1"),
            "inner span must link to outer: {}",
            lines[1]
        );
        assert!(lines[2].contains("\"id\":2"), "LIFO end pairs inner first");
        assert!(lines[3].contains("\"id\":1"));
    }

    #[test]
    fn detached_spans_do_not_disturb_scoped_nesting() {
        let ((), bytes) = capture_trace(|| {
            let win = span_begin_detached(vec![("name", Value::from("window"))]);
            emit(SPAN_BEGIN, vec![("name", Value::from("scoped"))]);
            emit(SPAN_END, vec![("name", Value::from("scoped"))]);
            span_end_detached(win, vec![("name", Value::from("window"))]);
        });
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"kind\":\"span."))
            .collect();
        assert!(lines[0].contains("\"id\":1") && lines[0].contains("window"));
        // The scoped span opened while the detached one is live must NOT
        // treat it as an enclosing scope.
        assert!(
            lines[1].contains("\"id\":2") && !lines[1].contains("\"parent\""),
            "detached spans are not scope parents: {}",
            lines[1]
        );
        assert!(lines[2].contains("\"id\":2"));
        assert!(lines[3].contains("\"id\":1") && lines[3].contains("window"));
    }

    #[test]
    fn detached_span_id_zero_is_a_noop() {
        let ((), bytes) = capture_trace(|| {
            span_end_detached(0, vec![("name", Value::from("ghost"))]);
        });
        assert!(!String::from_utf8(bytes).unwrap().contains("ghost"));
    }

    #[test]
    fn unbalanced_span_end_keeps_the_record_without_id() {
        let ((), bytes) = capture_trace(|| {
            emit(SPAN_END, vec![("name", Value::from("orphan"))]);
        });
        if crate::telemetry_compiled() {
            let text = String::from_utf8(bytes).unwrap();
            let line = text.lines().find(|l| l.contains("orphan")).unwrap();
            assert!(!line.contains("\"id\""));
        }
    }

    #[test]
    fn finish_trace_dumps_counters() {
        let mut run = Run::new().trace_memory().arm();
        crate::metrics::counter("test.trace.finish").inc();
        emit("test.finish", vec![]);
        let report = run.finish_trace();
        assert_eq!(report.events, 1);
        assert_eq!(report.by_kind, vec![("test.finish", 1)]);
        let text = String::from_utf8(report.bytes.unwrap()).unwrap();
        assert!(
            text.contains("\"kind\":\"counter\",\"name\":\"test.trace.finish\",\"value\":1"),
            "missing counter dump in: {text}"
        );
    }

    #[test]
    fn emit_without_trace_is_a_noop() {
        // No run is attached to this thread, so the emit goes nowhere —
        // not even into a run another test thread has armed.
        emit("test.orphan", vec![]);
        assert_eq!(overhead_snapshot(), OverheadSnapshot::default());
        // A run without a trace swallows emits too.
        let mut run = Run::new().arm();
        emit("test.orphan", vec![]);
        let report = run.finish_trace();
        assert_eq!(report.events, 0);
        assert!(report.bytes.is_none());
    }

    #[test]
    fn file_sink_writes_jsonl() {
        let path = std::env::temp_dir().join("obs_trace_test.jsonl");
        let mut run = Run::new().trace_file(&path).unwrap().arm();
        emit("test.file", vec![("ok", Value::Bool(true))]);
        let report = run.finish_trace();
        assert_eq!(report.events, 1);
        assert!(report.bytes.is_none());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"kind\":\"test.file\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ticks_flush_windows_and_partial_windows_flush_at_end() {
        let run = || {
            let s = crate::ts_series("test.ts.kpi");
            for i in 0..timeseries::TICKS_PER_WINDOW {
                s.record(i as f64);
                ts_tick();
            }
            // One more sample without a full window: must flush at end.
            s.record(100.0);
            ts_tick();
        };
        let (_, a) = capture_trace(run);
        let (_, b) = capture_trace(run);
        assert_eq!(a, b, "window records must be byte-stable");
        if crate::telemetry_compiled() {
            let text = String::from_utf8(a).unwrap();
            let windows: Vec<&str> = text
                .lines()
                .filter(|l| l.contains("\"kind\":\"metrics.window\""))
                .collect();
            assert_eq!(windows.len(), 2, "one full + one partial window: {text}");
            assert!(windows[0].contains("\"series\":\"test.ts.kpi\""));
            assert!(windows[0].contains("\"window\":0"));
            assert!(windows[0].contains("\"n\":8"));
            assert!(windows[0].contains("\"mean\":3.5"));
            assert!(windows[0].contains("\"min\":0"));
            assert!(windows[0].contains("\"max\":7"));
            assert!(windows[1].contains("\"window\":1"));
            assert!(windows[1].contains("\"n\":1"));
            assert!(windows[1].contains("\"last\":100"));
        }
    }

    #[test]
    fn empty_series_emit_no_window_records() {
        let ((), bytes) = capture_trace(|| {
            // Ticks advance but nothing was recorded: the stream must stay
            // exactly as it was under schema v2 (no metrics.window lines).
            for _ in 0..20 {
                ts_tick();
            }
        });
        assert!(!String::from_utf8(bytes).unwrap().contains("metrics.window"));
    }

    #[test]
    fn no_trace_means_zero_windows_and_zero_overhead() {
        // Without an active trace, sampling and ticking are no-ops...
        crate::ts_record("test.ts.orphan", 9.0);
        ts_tick();
        assert_eq!(overhead_snapshot(), OverheadSnapshot::default());
        // ...and nothing leaks into the next trace.
        let ((), bytes) = capture_trace(|| {});
        let text = String::from_utf8(bytes).unwrap();
        assert!(!text.contains("metrics.window"));
        assert!(!text.contains("test.ts.orphan"));
    }

    #[test]
    fn overhead_accounting_matches_the_stream() {
        let mut run = Run::new().trace_memory().arm();
        emit("test.oh.alpha", vec![("x", Value::U64(1))]);
        emit("quiesce.fake", vec![]);
        emit(SPAN_BEGIN, vec![("name", Value::from("test.oh.span"))]);
        emit(SPAN_END, vec![("name", Value::from("test.oh.span"))]);
        // Flushed as one partial window at finish (a no-op without the
        // `telemetry` feature, where recording is compiled out).
        crate::ts_series("test.oh.kpi").record(1.0);
        crate::metrics::counter("test.oh.counter").inc();
        crate::metrics::histogram("test.oh.hist").record(500);
        let live = overhead_snapshot();
        assert_eq!(live.events, 4);
        assert_eq!(live.histogram_updates, 1);
        let report = run.finish_trace();
        let text = String::from_utf8(report.bytes.unwrap()).unwrap();
        let kind_of = |l: &str| -> String {
            let at = l.find("\"kind\":\"").expect("every line has a kind") + 8;
            l[at..].split('"').next().unwrap().to_string()
        };
        let field = |l: &str, key: &str| -> u64 {
            let pat = format!("\"{key}\":");
            let at = l.find(&pat).unwrap_or_else(|| panic!("{key} in {l}")) + pat.len();
            let digits: String = l[at..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap()
        };
        // The audit covers every line except the header and the
        // obs.overhead trailer (the snapshot is taken before the trailer
        // is written).
        let (trailer, accounted): (Vec<&str>, Vec<&str>) = text
            .lines()
            .filter(|l| kind_of(l) != "trace.meta")
            .partition(|l| kind_of(l) == "obs.overhead");
        let bytes_of = |lines: &[&str]| lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        assert_eq!(report.overhead.bytes, bytes_of(&accounted), "in: {text}");
        assert_eq!(report.overhead.events, accounted.len() as u64);
        let windows = u64::from(crate::telemetry_compiled());
        // 4 events + the window + 1 counter-dump line.
        assert_eq!(report.overhead.events, 5 + windows);
        let count = |kind: &str| accounted.iter().filter(|l| kind_of(l) == kind).count() as u64;
        assert_eq!(report.overhead.spans, count(SPAN_BEGIN));
        assert_eq!(report.overhead.spans, 1);
        assert_eq!(report.overhead.windows, count(METRICS_WINDOW));
        assert_eq!(report.overhead.windows, windows);
        // Every subsystem row matches the lines of its kinds...
        for (sub, events, bytes) in &report.overhead.per_subsystem {
            let lines: Vec<&str> = accounted
                .iter()
                .copied()
                .filter(|l| kind_of(l).split('.').next() == Some(sub.as_str()))
                .collect();
            assert_eq!(*events, lines.len() as u64, "{sub} in: {text}");
            assert_eq!(*bytes, bytes_of(&lines), "{sub} in: {text}");
        }
        let subs: Vec<&str> = report
            .overhead
            .per_subsystem
            .iter()
            .map(|(n, _, _)| n.as_str())
            .collect();
        let mut expected = vec!["counter", "metrics", "quiesce", "span", "test"];
        if windows == 0 {
            expected.retain(|s| *s != "metrics");
        }
        assert_eq!(subs, expected);
        // ...and rides in the finished stream, where the total row is the
        // sum of the subsystem rows.
        let (total, rows): (Vec<&str>, Vec<&str>) = trailer
            .iter()
            .partition(|l| l.contains("\"subsystem\":\"total\""));
        assert_eq!(rows.len(), subs.len());
        assert_eq!(total.len(), 1);
        for key in ["events", "bytes"] {
            let sum: u64 = rows.iter().map(|l| field(l, key)).sum();
            assert_eq!(field(total[0], key), sum, "{key} in: {text}");
        }
        assert!(text.contains("\"kind\":\"obs.overhead\",\"subsystem\":\"quiesce\""));
        assert_eq!(field(total[0], "spans"), 1);
        assert_eq!(field(total[0], "windows"), windows);
        assert_eq!(field(total[0], "histogram_updates"), 1);
    }
}

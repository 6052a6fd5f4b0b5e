//! The run context: [`Run`] and the thread-local attachment behind
//! every hot-path guard.

use crate::slo::{Engine, SloSpec};
use crate::trace::{self, Sink, TraceReport, TraceState};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Flag bit: the run has an open trace.
const TRACE: u8 = 1;
/// Flag bit: the run carries fault-injection state.
const FAULTS: u8 = 2;

/// Admits one armed [`Run`] at a time.
static RUN_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// The flags of the run attached to this thread (0 when none): the
    /// single load behind every hot-path guard.
    static FLAGS: Cell<u8> = const { Cell::new(0) };
    /// The run attached to this thread.
    static CURRENT: RefCell<Option<Arc<Run>>> = const { RefCell::new(None) };
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Everything a traced, fault-injected or SLO-evaluated execution arms.
///
/// A run holds the JSONL trace (sink, sequence numbers, span stack,
/// overhead accounting), the SLO engine, the flight-recorder window clock
/// and — as an opaque slot filled by `faultsim` — the fault plan. It is
/// built by value, then armed by exactly one guard:
///
/// * **One run at a time.** [`Run::arm`] takes a process-wide lock that
///   the returned [`RunGuard`] holds until it drops, so two runs never
///   interleave their streams, windows or fault counters.
/// * **Thread-scoped visibility.** The guard attaches the run to the
///   arming thread only. Other threads see it only when they are started
///   for it: a spawn point captures [`RunHandle::current`] and the new
///   thread calls [`RunHandle::attach`] (the `parx` pool, the `polytm`
///   adapter, the `apps` driver and the bench drivers do this). Any other
///   thread — a sibling test, say — sees no trace and no fault plan, and
///   nothing it emits reaches the run.
/// * **Cheap when off.** [`crate::enabled`] and `faultsim::armed` read one
///   thread-local byte of flags.
///
/// ```
/// let (out, bytes) = obs::Run::new().capture(|| {
///     obs::event!("demo.tick", "step" => 1u64);
///     7
/// });
/// assert_eq!(out, 7);
/// if obs::telemetry_compiled() {
///     assert!(String::from_utf8(bytes).unwrap().contains("demo.tick"));
/// }
/// // Outside the run nothing is armed.
/// assert!(!obs::enabled());
/// ```
pub struct Run {
    flags: AtomicU8,
    pub(crate) trace: Mutex<Option<TraceState>>,
    pub(crate) slo: Mutex<Engine>,
    /// Flight-recorder sample tick (advanced by [`crate::ts_tick`]).
    pub(crate) tick: AtomicU64,
    /// Index the next flushed window gets.
    pub(crate) window_next: AtomicU64,
    fault_state: Option<Box<dyn Any + Send + Sync>>,
}

impl Default for Run {
    fn default() -> Self {
        Run::new()
    }
}

impl fmt::Debug for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let flags = self.flags.load(Ordering::Relaxed);
        f.debug_struct("Run")
            .field("trace", &(flags & TRACE != 0))
            .field("faults", &(flags & FAULTS != 0))
            .field("tick", &self.tick.load(Ordering::Relaxed))
            .finish()
    }
}

impl Run {
    /// An empty run: no trace, no SLO specs, no fault state. Arming it
    /// still takes the run lock, which is how code that must not overlap
    /// any run (e.g. a metrics-registry reader) serializes.
    pub fn new() -> Run {
        Run {
            flags: AtomicU8::new(0),
            trace: Mutex::new(None),
            slo: Mutex::new(Engine::default()),
            tick: AtomicU64::new(0),
            window_next: AtomicU64::new(0),
            fault_state: None,
        }
    }

    fn with_sink(self, sink: Sink) -> Run {
        *lock(&self.trace) = Some(TraceState::new(sink));
        self.flags.fetch_or(TRACE, Ordering::Relaxed);
        self
    }

    /// Trace into memory; the bytes come back from
    /// [`RunGuard::finish_trace`] (or [`Run::capture`]).
    pub fn trace_memory(self) -> Run {
        self.with_sink(Sink::Memory(Vec::new()))
    }

    /// Trace JSONL into `path`, truncating it.
    ///
    /// # Errors
    ///
    /// The error from creating the file.
    pub fn trace_file(self, path: &Path) -> io::Result<Run> {
        let file = File::create(path)?;
        Ok(self.with_sink(Sink::File(BufWriter::new(file))))
    }

    /// Evaluate `specs` as each flight-recorder window closes (see
    /// [`crate::slo`]). An empty set leaves the engine disarmed.
    pub fn slo(self, specs: Vec<SloSpec>) -> Run {
        *lock(&self.slo) = Engine::new(specs);
        self
    }

    /// Attach fault-injection state (`faultsim` stores its per-run
    /// injector here; the type is opaque to this crate).
    pub fn with_fault_state<T: Any + Send + Sync>(mut self, state: T) -> Run {
        self.fault_state = Some(Box::new(state));
        self.flags.fetch_or(FAULTS, Ordering::Relaxed);
        self
    }

    /// The fault state attached with [`Run::with_fault_state`], if it has
    /// type `T`.
    pub fn fault_state<T: Any>(&self) -> Option<&T> {
        self.fault_state.as_deref()?.downcast_ref()
    }

    /// Arm the run on this thread. Blocks while another run is armed;
    /// disarms when the returned guard drops (also on panic).
    ///
    /// A run with a trace starts from a clean slate: the metrics registry
    /// and every time series are zeroed, and the stream starts at
    /// `seq == 0`, so each stream is self-contained.
    ///
    /// # Panics
    ///
    /// Panics if a run is already attached to this thread: nesting would
    /// deadlock on the run lock.
    pub fn arm(self) -> RunGuard {
        assert!(
            CURRENT.with(|c| c.borrow().is_none()),
            "a Run is already attached to this thread; runs do not nest"
        );
        let lock = lock(&RUN_LOCK);
        if self.flags.load(Ordering::Relaxed) & TRACE != 0 {
            trace::reset_registries();
        }
        let run = Arc::new(self);
        RunGuard {
            _attached: RunHandle(Some(Arc::clone(&run))).attach(),
            run,
            _lock: lock,
        }
    }

    /// Arm the run around `f`.
    pub fn scope<T>(self, f: impl FnOnce() -> T) -> T {
        let _run = self.arm();
        f()
    }

    /// Arm the run with an in-memory trace around `f`, returning `f`'s
    /// result and the JSONL bytes. Unlike [`RunGuard::finish_trace`] no
    /// counter dump is appended: counters are process-wide, and a
    /// byte-compared capture must not depend on other threads' increments.
    pub fn capture<T>(self, f: impl FnOnce() -> T) -> (T, Vec<u8>) {
        let run = self.trace_memory().arm();
        let out = f();
        let bytes = run.end_trace(false).bytes.unwrap_or_default();
        (out, bytes)
    }
}

/// The armed [`Run`]: holds the run lock and keeps the run attached to
/// the arming thread until dropped.
#[derive(Debug)]
#[must_use = "the run disarms when its guard drops"]
pub struct RunGuard {
    // Field order is drop order: detach, release the run, then unlock.
    _attached: Attached,
    run: Arc<Run>,
    _lock: MutexGuard<'static, ()>,
}

impl RunGuard {
    fn end_trace(&self, dump_counters: bool) -> TraceReport {
        let report = trace::end(&self.run, dump_counters);
        self.run.flags.fetch_and(!TRACE, Ordering::Relaxed);
        FLAGS.with(|f| f.set(f.get() & !TRACE));
        report
    }

    /// Close the trace: flush the partial window, append the sorted
    /// counter dump and the `obs.overhead` audit, flush the sink and
    /// return the accounting. The rest of the run (SLO engine, fault
    /// state) stays armed until the guard drops, so the final engine state
    /// can still be read. An empty report when the run has no trace.
    pub fn finish_trace(&mut self) -> TraceReport {
        self.end_trace(true)
    }
}

/// A cloneable reference to a run (or to none), passed to threads started
/// on a run's behalf. See [`RunHandle::attach`].
#[derive(Clone, Debug, Default)]
pub struct RunHandle(Option<Arc<Run>>);

impl RunHandle {
    /// The run attached to the calling thread (empty when none).
    pub fn current() -> RunHandle {
        RunHandle(CURRENT.with(|c| c.borrow().clone()))
    }

    /// Attach this handle's run to the calling thread until the returned
    /// guard drops, which restores whatever was attached before. An empty
    /// handle detaches. Spawn points use it so a worker sees the run of
    /// the thread that started it:
    ///
    /// ```
    /// let ((), bytes) = obs::Run::new().capture(|| {
    ///     let run = obs::RunHandle::current();
    ///     std::thread::scope(|s| {
    ///         s.spawn(|| {
    ///             let _run = run.attach();
    ///             obs::event!("demo.worker");
    ///         });
    ///     });
    /// });
    /// if obs::telemetry_compiled() {
    ///     assert!(String::from_utf8(bytes).unwrap().contains("demo.worker"));
    /// }
    /// ```
    pub fn attach(&self) -> Attached {
        let flags = self
            .0
            .as_ref()
            .map_or(0, |run| run.flags.load(Ordering::Relaxed));
        Attached {
            prev: CURRENT.with(|c| c.replace(self.0.clone())),
            prev_flags: FLAGS.with(|f| f.replace(flags)),
            _not_send: PhantomData,
        }
    }
}

/// Guard returned by [`RunHandle::attach`]; restores the thread's previous
/// run on drop. Not `Send`: it belongs to the thread it attached.
#[derive(Debug)]
#[must_use = "the run detaches when this guard drops"]
pub struct Attached {
    prev: Option<Arc<Run>>,
    prev_flags: u8,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Attached {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
        FLAGS.with(|f| f.set(self.prev_flags));
    }
}

/// Whether the run attached to this thread has an open trace.
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
#[inline(always)]
pub(crate) fn tracing() -> bool {
    FLAGS.with(Cell::get) & TRACE != 0
}

/// Whether the run attached to this thread carries fault state — the
/// single-load guard behind `faultsim::armed`.
#[inline(always)]
pub fn faults_armed() -> bool {
    FLAGS.with(Cell::get) & FAULTS != 0
}

/// Call `f` with the run attached to this thread; `None` when there is
/// none.
pub fn with_run<R>(f: impl FnOnce(&Run) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_deref().map(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bystander_threads_see_nothing_and_spawned_threads_see_the_run() {
        let ((), bytes) = Run::new().capture(|| {
            let run = RunHandle::current();
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert!(!crate::enabled(), "a thread nobody attached sees no trace");
                    crate::emit("test.run.bystander", vec![]);
                });
                s.spawn(|| {
                    let _run = run.attach();
                    crate::emit("test.run.attached", vec![]);
                    assert_eq!(crate::enabled(), crate::telemetry_compiled());
                });
            });
        });
        let text = String::from_utf8(bytes).unwrap();
        assert!(!text.contains("test.run.bystander"), "{text}");
        assert!(text.contains("test.run.attached"), "{text}");
    }

    #[test]
    fn attach_restores_the_previous_run() {
        let _run = Run::new().trace_memory().arm();
        let traced = tracing();
        {
            let _none = RunHandle::default().attach();
            assert!(!tracing());
            assert!(with_run(|_| ()).is_none());
        }
        assert_eq!(tracing(), traced);
        assert!(with_run(|_| ()).is_some());
    }

    #[test]
    fn finish_trace_disarms_tracing_but_keeps_the_run() {
        let mut run = Run::new().trace_memory().arm();
        crate::emit("test.run.finish", vec![]);
        let report = run.finish_trace();
        assert_eq!(report.events, 1);
        assert!(!tracing());
        assert!(with_run(|_| ()).is_some(), "the run stays armed");
        assert_eq!(run.finish_trace().events, 0, "a second finish is empty");
    }

    #[test]
    fn fault_state_is_typed_and_sets_the_flag() {
        let _run = Run::new().with_fault_state(7u32).arm();
        assert!(faults_armed());
        assert_eq!(with_run(|r| r.fault_state::<u32>().copied()), Some(Some(7)));
        assert_eq!(with_run(|r| r.fault_state::<u64>().is_some()), Some(false));
    }

    #[test]
    #[should_panic(expected = "runs do not nest")]
    fn nested_arm_panics_instead_of_deadlocking() {
        let _outer = Run::new().arm();
        let _inner = Run::new().arm();
    }
}

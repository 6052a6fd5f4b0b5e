//! The dedicated adapter thread (paper §4: "a dedicated adapter thread to
//! change the TM configuration").
//!
//! Reconfiguration requests are sent over a channel; the adapter applies
//! them with the quiescence machinery and reports the measured latency back
//! to the requester (the data of Table 5). Each request carries the
//! requester's [`obs::Run`], which the adapter attaches while serving it:
//! a switch is traced (and fault-injected) in the run that asked for it.
//!
//! The adapter is the single point whose death would freeze the whole
//! adaptation loop, so it is hardened: a panic while applying a switch is
//! contained with [`std::panic::catch_unwind`] and surfaced to the
//! requester as [`ReconfigError::AdapterPanicked`], and a dead adapter
//! thread is respawned transparently on the next request instead of
//! propagating the failure into the caller.

use crate::config::TmConfig;
use crate::runtime::{PolyTm, ReconfigError};
use parking_lot::Mutex;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A reconfiguration request, as carried on the adapter's channel.
#[derive(Debug)]
pub struct ReconfigRequest {
    config: TmConfig,
    run: obs::RunHandle,
    reply: mpsc::Sender<Result<Duration, ReconfigError>>,
}

enum Command {
    Reconfig(ReconfigRequest),
    Stop,
}

#[derive(Debug)]
struct Inner {
    /// Bumped on every successful respawn, so concurrent requesters that
    /// both saw the same dead adapter respawn it once, not twice (joining
    /// a live replacement would deadlock).
    generation: u64,
    tx: mpsc::Sender<Command>,
    join: Option<JoinHandle<()>>,
}

/// Handle to a running adapter thread; dropping it stops the thread.
#[derive(Debug)]
pub struct AdapterHandle {
    poly: Arc<PolyTm>,
    inner: Mutex<Inner>,
    restarts: AtomicU64,
    panics: Arc<AtomicU64>,
}

/// The adapter's service loop, one instance per (re)spawn.
fn serve(poly: &Arc<PolyTm>, panics: &AtomicU64, rx: &mpsc::Receiver<Command>) {
    let mut ticks: u64 = 0;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Reconfig(req) => {
                let _run = req.run.attach();
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    // Fault injection: the adapter panics mid-request.
                    // `resume_unwind` skips the global panic hook, so the
                    // injected unwind does not spam stderr.
                    if faultsim::armed() && faultsim::should_fire(faultsim::Site::AdapterPanic) {
                        if obs::enabled() {
                            obs::counter("fault.fired.adapter_panic").inc();
                        }
                        std::panic::resume_unwind(Box::new("injected adapter panic"));
                    }
                    poly.apply(&req.config)
                }));
                let result = outcome.unwrap_or_else(|_| {
                    // Contained: the adapter lives on and the requester
                    // gets a typed, retryable error.
                    panics.fetch_add(1, Ordering::Relaxed);
                    if obs::enabled() {
                        obs::counter("polytm.adapter.panics_contained").inc();
                        obs::event!("recovery.adapter_contained", "tick" => ticks);
                    }
                    Err(ReconfigError::AdapterPanicked)
                });
                if obs::enabled() {
                    obs::event!(
                        "adapter.tick",
                        "tick" => ticks,
                        "config" => req.config.to_string(),
                        "ok" => result.is_ok(),
                    );
                    obs::counter("polytm.adapter.ticks").inc();
                }
                ticks += 1;
                // The requester may have given up; ignore.
                let _ = req.reply.send(result);
            }
            Command::Stop => break,
        }
    }
}

fn spawn_thread(
    poly: Arc<PolyTm>,
    panics: Arc<AtomicU64>,
) -> std::io::Result<(mpsc::Sender<Command>, JoinHandle<()>)> {
    let (tx, rx) = mpsc::channel::<Command>();
    let join = std::thread::Builder::new()
        .name("polytm-adapter".into())
        .spawn(move || serve(&poly, &panics, &rx))?;
    Ok((tx, join))
}

impl AdapterHandle {
    /// Spawn an adapter thread serving `poly`.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn the thread (resource exhaustion at
    /// startup — unrecoverable by the runtime); use
    /// [`AdapterHandle::try_spawn`] to handle that case.
    pub fn spawn(poly: Arc<PolyTm>) -> Self {
        Self::try_spawn(poly).expect("failed to spawn adapter thread")
    }

    /// Spawn an adapter thread, surfacing thread-creation failure instead
    /// of panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`std::io::Error`] from the failed thread spawn.
    pub fn try_spawn(poly: Arc<PolyTm>) -> std::io::Result<Self> {
        let panics = Arc::new(AtomicU64::new(0));
        let (tx, join) = spawn_thread(Arc::clone(&poly), Arc::clone(&panics))?;
        Ok(AdapterHandle {
            poly,
            inner: Mutex::new(Inner {
                generation: 0,
                tx,
                join: Some(join),
            }),
            restarts: AtomicU64::new(0),
            panics,
        })
    }

    /// Replace a dead adapter thread, if nobody else has done so already
    /// (`seen` is the generation the caller observed the failure under).
    fn respawn(&self, seen: u64) {
        let mut inner = self.inner.lock();
        if inner.generation != seen {
            return; // another requester already respawned it
        }
        // The old thread is gone (its receiver hung up); reap it.
        if let Some(j) = inner.join.take() {
            let _ = j.join();
        }
        if let Ok((tx, join)) = spawn_thread(Arc::clone(&self.poly), Arc::clone(&self.panics)) {
            inner.tx = tx;
            inner.join = Some(join);
            inner.generation += 1;
            self.restarts.fetch_add(1, Ordering::Relaxed);
            if obs::enabled() {
                obs::counter("polytm.adapter.restarts").inc();
                obs::event!("recovery.adapter_restart", "generation" => inner.generation);
            }
        }
    }

    /// Ask the adapter to apply `config`, blocking until done; returns the
    /// reconfiguration latency.
    ///
    /// Never panics: a dead adapter thread is respawned and the request
    /// retried once; if the adapter still cannot serve, the caller gets
    /// [`ReconfigError::AdapterUnavailable`] and may fall back to calling
    /// [`PolyTm::apply`] directly.
    ///
    /// # Errors
    ///
    /// Propagates [`ReconfigError`] from the runtime;
    /// [`ReconfigError::AdapterPanicked`] if the adapter panicked applying
    /// this request, [`ReconfigError::AdapterUnavailable`] if the adapter
    /// thread could not be revived.
    pub fn reconfigure(&self, config: TmConfig) -> Result<Duration, ReconfigError> {
        for _ in 0..2 {
            let (reply_tx, reply_rx) = mpsc::channel();
            let (sent, seen) = {
                let inner = self.inner.lock();
                let req = ReconfigRequest {
                    config,
                    run: obs::RunHandle::current(),
                    reply: reply_tx,
                };
                (
                    inner.tx.send(Command::Reconfig(req)).is_ok(),
                    inner.generation,
                )
            };
            if !sent {
                self.respawn(seen);
                continue;
            }
            match reply_rx.recv() {
                Ok(result) => return result,
                // The adapter died mid-request without replying.
                Err(_) => self.respawn(seen),
            }
        }
        Err(ReconfigError::AdapterUnavailable)
    }

    /// Times the adapter thread has been respawned after dying.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Panics contained inside the adapter (the thread survived these).
    pub fn panics_contained(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

impl Drop for AdapterHandle {
    fn drop(&mut self) {
        let mut inner = self.inner.lock();
        let _ = inner.tx.send(Command::Stop);
        if let Some(j) = inner.join.take() {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackendId;

    #[test]
    fn adapter_applies_configs_and_reports_latency() {
        let poly = Arc::new(PolyTm::builder().heap_words(1 << 10).max_threads(2).build());
        let adapter = AdapterHandle::spawn(Arc::clone(&poly));
        let latency = adapter
            .reconfigure(TmConfig::stm(BackendId::SwissTm, 1))
            .unwrap();
        assert!(latency < Duration::from_secs(1));
        assert_eq!(poly.current_config().backend, BackendId::SwissTm);
        assert_eq!(poly.parallelism(), 1);
    }

    #[test]
    fn adapter_propagates_errors() {
        let poly = Arc::new(PolyTm::builder().heap_words(64).max_threads(1).build());
        let adapter = AdapterHandle::spawn(Arc::clone(&poly));
        assert!(adapter
            .reconfigure(TmConfig::stm(BackendId::Tl2, 5))
            .is_err());
    }

    #[test]
    fn adapter_shuts_down_cleanly_on_drop() {
        let poly = Arc::new(PolyTm::builder().heap_words(64).max_threads(1).build());
        let adapter = AdapterHandle::spawn(poly);
        drop(adapter); // must not hang
    }
}

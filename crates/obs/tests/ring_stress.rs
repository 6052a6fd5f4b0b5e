//! Stress tests for the bounded [`obs::EventRing`]: wraparound accounting
//! and concurrent push/reset interleavings. These exercise the ring
//! directly (not through a trace) so they are free to hammer it from many
//! threads without touching the global trace state.

use obs::{Event, EventRing, Value};

fn ev(seq: u64) -> Event {
    Event {
        seq,
        kind: "stress",
        fields: vec![("i", Value::U64(seq))],
    }
}

#[test]
fn wraparound_many_laps_keeps_only_the_newest_window() {
    let ring = EventRing::new(8);
    const TOTAL: u64 = 8 * 25 + 3; // many full laps plus a partial one
    for i in 0..TOTAL {
        ring.push(ev(i));
    }
    let kept = ring.drain();
    let seqs: Vec<u64> = kept.iter().map(|e| e.seq).collect();
    let expect: Vec<u64> = (TOTAL - 8..TOTAL).collect();
    assert_eq!(seqs, expect, "ring must hold exactly the newest window");
    assert_eq!(
        ring.dropped(),
        TOTAL - 8,
        "every displaced event counts as a drop"
    );
}

#[test]
fn wraparound_accounting_is_exact_at_capacity_boundaries() {
    for cap in [1usize, 2, 3, 7] {
        let ring = EventRing::new(cap);
        let total = cap as u64 * 3;
        for i in 0..total {
            ring.push(ev(i));
        }
        assert_eq!(ring.drain().len(), cap);
        assert_eq!(ring.dropped(), total - cap as u64, "capacity {cap}");
    }
}

#[test]
fn concurrent_push_and_reset_never_deadlock_or_resurrect() {
    // Writers hammer the ring while a resetter repeatedly wipes it; after
    // the final reset the ring must be empty with zeroed accounting, and
    // nothing may deadlock even though reset blocks per slot.
    let ring = EventRing::new(16);
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 2_000;
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let ring = &ring;
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    ring.push(ev(t * PER_WRITER + i));
                }
            });
        }
        let ring = &ring;
        s.spawn(move || {
            for _ in 0..50 {
                ring.reset();
                std::thread::yield_now();
            }
        });
    });
    // A mid-run drain can only ever see events, never panic; the final
    // reset leaves a clean slate.
    let _ = ring.drain();
    ring.reset();
    assert!(ring.drain().is_empty());
    assert_eq!(ring.dropped(), 0);
}

#[test]
fn concurrent_pushes_after_reset_restart_from_slot_zero() {
    let ring = EventRing::new(4);
    for i in 0..10 {
        ring.push(ev(i));
    }
    ring.reset();
    // Post-reset pushes must land as if the ring were new.
    for i in 100..103 {
        ring.push(ev(i));
    }
    let seqs: Vec<u64> = ring.drain().iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![100, 101, 102]);
    assert_eq!(ring.dropped(), 0);
}

#[test]
fn trace_emit_concurrent_with_ring_drain_stays_consistent() {
    // The global ring mirrors trace emission; draining while a capture is
    // live must never corrupt the stream (the JSONL bytes are the source
    // of truth and never drop).
    let ((), bytes) = obs::Run::new().capture(|| {
        std::thread::scope(|s| {
            let drainer = s.spawn(|| {
                for _ in 0..20 {
                    let _ = obs::recent_events();
                    std::thread::yield_now();
                }
            });
            for i in 0..200u64 {
                obs::emit("stress.emit", vec![("i", Value::U64(i))]);
            }
            drainer.join().unwrap();
        });
    });
    let text = String::from_utf8(bytes).unwrap();
    assert_eq!(
        text.matches("\"kind\":\"stress.emit\"").count(),
        200,
        "the JSONL stream must not drop events regardless of ring activity"
    );
}

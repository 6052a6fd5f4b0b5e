//! A process-wide registry of named counters, gauges and fixed-bucket
//! latency histograms.
//!
//! Registration leaks one small allocation per distinct name (names form a
//! small closed set), which lets hot paths hold `&'static` handles and
//! update them with a single relaxed atomic RMW.
//!
//! Determinism contract: **counters** on the learning path must hold
//! logically deterministic values (they are dumped into the JSONL trace at
//! [`crate::RunGuard::finish_trace`]); anything derived from wall-clock time belongs
//! in **gauges** or **histograms**, which only ever appear in the
//! human-readable summary.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins gauge storing an `f64`.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// Upper bounds (inclusive, in nanoseconds) of the fixed histogram
/// buckets; values beyond the last bound land in an overflow bucket.
pub const LATENCY_BOUNDS_NS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    256_000_000,
    1_000_000_000,
    4_000_000_000,
];

/// A fixed-bucket latency histogram over [`LATENCY_BOUNDS_NS`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BOUNDS_NS.len() + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation (nanoseconds).
    #[inline]
    pub fn record(&self, ns: u64) {
        let idx = LATENCY_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(LATENCY_BOUNDS_NS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Per-bucket counts, in [`LATENCY_BOUNDS_NS`] order plus the overflow
    /// bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimated `q`-th percentile (0–100) in nanoseconds.
    ///
    /// See [`percentile_from_buckets`] for the estimation rules; 0 when
    /// the histogram is empty.
    pub fn percentile(&self, q: f64) -> u64 {
        percentile_from_buckets(&self.bucket_counts(), q)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// Estimate the `q`-th percentile (0–100) from fixed-bucket counts laid
/// out as [`LATENCY_BOUNDS_NS`] buckets plus a trailing overflow bucket.
///
/// The estimate interpolates linearly inside the bucket containing the
/// rank-`⌈q·n/100⌉` observation, assuming observations spread uniformly
/// between the bucket's bounds; an observation landing in the unbounded
/// overflow bucket reports the last finite bound. An empty histogram
/// reports 0. The result is a pure function of the counts, so equal
/// snapshots yield equal percentiles.
pub fn percentile_from_buckets(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 100.0);
    let rank = ((q / 100.0 * total as f64).ceil() as u64).max(1);
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        if cum >= rank {
            if i >= LATENCY_BOUNDS_NS.len() {
                return LATENCY_BOUNDS_NS[LATENCY_BOUNDS_NS.len() - 1];
            }
            let lower = if i == 0 { 0 } else { LATENCY_BOUNDS_NS[i - 1] };
            let upper = LATENCY_BOUNDS_NS[i];
            let into = (rank - (cum - c)) as f64 / c as f64;
            return lower + ((upper - lower) as f64 * into).round() as u64;
        }
    }
    LATENCY_BOUNDS_NS[LATENCY_BOUNDS_NS.len() - 1]
}

enum Metric {
    C(&'static Counter),
    G(&'static Gauge),
    H(&'static Histogram),
}

static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<String, Metric>> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// Look up (or register) the counter `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::C(Box::leak(Box::default())))
    {
        Metric::C(c) => c,
        _ => panic!("metric {name:?} is not a counter"),
    }
}

/// Look up (or register) the gauge `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::G(Box::leak(Box::default())))
    {
        Metric::G(g) => g,
        _ => panic!("metric {name:?} is not a gauge"),
    }
}

/// Look up (or register) the histogram `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::H(Box::leak(Box::default())))
    {
        Metric::H(h) => h,
        _ => panic!("metric {name:?} is not a histogram"),
    }
}

/// A point-in-time copy of one metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram count, mean (ns), and per-bucket counts.
    Histogram {
        /// Observations recorded.
        count: u64,
        /// Mean observation in nanoseconds.
        mean_ns: f64,
        /// Counts per [`LATENCY_BOUNDS_NS`] bucket plus overflow.
        buckets: Vec<u64>,
    },
}

/// Snapshot every registered metric, sorted by name.
pub fn snapshot() -> Vec<(String, MetricValue)> {
    registry()
        .iter()
        .map(|(name, m)| {
            let v = match m {
                Metric::C(c) => MetricValue::Counter(c.get()),
                Metric::G(g) => MetricValue::Gauge(g.get()),
                Metric::H(h) => MetricValue::Histogram {
                    count: h.count(),
                    mean_ns: h.mean_ns(),
                    buckets: h.bucket_counts(),
                },
            };
            (name.clone(), v)
        })
        .collect()
}

/// Counter names and values, sorted by name, skipping zeros. This is what
/// [`crate::RunGuard::finish_trace`] dumps into the JSONL stream.
pub fn counter_snapshot() -> Vec<(String, u64)> {
    registry()
        .iter()
        .filter_map(|(name, m)| match m {
            Metric::C(c) if c.get() > 0 => Some((name.clone(), c.get())),
            _ => None,
        })
        .collect()
}

/// Non-zero counters whose name starts with `prefix`, sorted by name.
/// Used by KPI sample points that fan one logical quantity out over a
/// name family (e.g. per-backend commit counters `tx.commit.*`).
pub fn counters_with_prefix(prefix: &str) -> Vec<(String, u64)> {
    registry()
        .iter()
        .filter_map(|(name, m)| match m {
            Metric::C(c) if name.starts_with(prefix) && c.get() > 0 => {
                Some((name.clone(), c.get()))
            }
            _ => None,
        })
        .collect()
}

/// Total observations across all registered histograms. Histograms are
/// zeroed at trace start, so during a trace this is the trace's own
/// histogram-update count — part of the instrumentation self-overhead
/// audit ([`crate::OverheadSnapshot`]).
pub fn histogram_update_total() -> u64 {
    registry()
        .values()
        .map(|m| match m {
            Metric::H(h) => h.count(),
            _ => 0,
        })
        .sum()
}

/// Zero every registered metric (registrations are kept, so `&'static`
/// handles stay valid). Called when a [`crate::Run`] with a trace is armed,
/// so each trace reports only its own run.
pub fn reset() {
    for m in registry().values() {
        match m {
            Metric::C(c) => c.reset(),
            Metric::G(g) => g.reset(),
            Metric::H(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        // Arming a traced run resets the registry; hold the run lock so
        // values survive until the assertions.
        let _serial = crate::Run::new().arm();
        let c = counter("test.metrics.counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = gauge("test.metrics.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        // Same name returns the same handle.
        assert_eq!(counter("test.metrics.counter").get(), 5);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let _serial = crate::Run::new().arm();
        let h = histogram("test.metrics.hist");
        h.record(500); // bucket 0 (<= 1us)
        h.record(2_000); // bucket 1
        h.record(10_000_000_000); // overflow
        assert_eq!(h.count(), 3);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[LATENCY_BOUNDS_NS.len()], 1);
        assert!(h.mean_ns() > 0.0);
    }

    #[test]
    fn percentiles_of_empty_histogram_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(percentile_from_buckets(&[], 50.0), 0);
    }

    #[test]
    fn percentiles_of_single_sample_agree_across_quantiles() {
        let h = Histogram::default();
        h.record(500); // bucket 0: (0, 1000]
        let p50 = h.percentile(50.0);
        assert_eq!(p50, h.percentile(95.0));
        assert_eq!(p50, h.percentile(99.0));
        assert!(p50 > 0 && p50 <= LATENCY_BOUNDS_NS[0]);
    }

    #[test]
    fn percentiles_with_all_samples_in_one_bucket_stay_in_its_bounds() {
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(2_000); // bucket 1: (1000, 4000]
        }
        for q in [1.0, 50.0, 95.0, 99.0, 100.0] {
            let p = h.percentile(q);
            assert!(
                p > LATENCY_BOUNDS_NS[0] && p <= LATENCY_BOUNDS_NS[1],
                "p{q} = {p} escaped the only populated bucket"
            );
        }
        // And they order correctly within the bucket.
        assert!(h.percentile(50.0) <= h.percentile(95.0));
        assert!(h.percentile(95.0) <= h.percentile(99.0));
    }

    #[test]
    fn percentile_interpolates_across_buckets() {
        // 90 fast samples, 10 slow ones: p50 stays in the fast bucket,
        // p95/p99 land in the slow one.
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(500);
        }
        for _ in 0..10 {
            h.record(100_000); // bucket 4: (64k, 256k]
        }
        assert!(h.percentile(50.0) <= LATENCY_BOUNDS_NS[0]);
        assert!(h.percentile(95.0) > LATENCY_BOUNDS_NS[3]);
        assert!(h.percentile(95.0) <= h.percentile(99.0));
    }

    #[test]
    fn percentile_of_overflow_reports_last_bound() {
        let h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(
            h.percentile(50.0),
            LATENCY_BOUNDS_NS[LATENCY_BOUNDS_NS.len() - 1]
        );
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn type_confusion_panics() {
        gauge("test.metrics.confused");
        counter("test.metrics.confused");
    }

    #[test]
    fn prefix_scan_filters_and_sorts() {
        let _serial = crate::Run::new().arm();
        counter("test.prefix.b").add(2);
        counter("test.prefix.a").inc();
        let _zero = counter("test.prefix.zero");
        counter("test.other").inc();
        let got = counters_with_prefix("test.prefix.");
        assert_eq!(
            got,
            vec![
                ("test.prefix.a".to_string(), 1),
                ("test.prefix.b".to_string(), 2)
            ]
        );
    }

    #[test]
    fn counter_snapshot_skips_zeros_and_sorts() {
        let _serial = crate::Run::new().arm();
        counter("test.snap.zzz").inc();
        counter("test.snap.aaa").inc();
        let _zero = counter("test.snap.zero");
        let snap = counter_snapshot();
        let names: Vec<&str> = snap
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("test.snap."))
            .collect();
        assert_eq!(names, vec!["test.snap.aaa", "test.snap.zzz"]);
    }
}

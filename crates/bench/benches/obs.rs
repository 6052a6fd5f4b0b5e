//! Telemetry overhead micro-bench (ISSUE 2 acceptance criterion: < 5%).
//!
//! Measures an instrumented transaction-style hot loop in three regimes:
//!
//! * `guard_inactive` — telemetry compiled in but no trace active, which
//!   is the default production regime: each site costs one relaxed load.
//! * `guard_active` — a trace is live, so counter sites actually pay
//!   their atomic increments (events stay off the hot path by design).
//! * `baseline` — the same loop with no instrumentation at all, i.e. the
//!   code shape of a `--no-default-features` build.
//!
//! Compare `guard_inactive` against `baseline` for the overhead claim; to
//! cross-check against a truly compiled-out build, run this bench with
//! `--no-default-features` and compare the `guard_inactive` numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const ITERS: u64 = 256;

fn workload(x: u64) -> u64 {
    // A dependent-chain mix sized like a *small* transaction body (tens of
    // heap accesses + validation); instrumentation fires once per body,
    // exactly like the per-commit/per-abort counter sites in `txcore`.
    let mut acc = x;
    for i in 0..64u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        acc ^= acc >> 29;
    }
    acc
}

fn bench_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");

    group.bench_function("baseline", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..ITERS {
                acc ^= workload(black_box(i));
            }
            acc
        })
    });

    group.bench_function("guard_inactive", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..ITERS {
                acc ^= workload(black_box(i));
                if obs::enabled() {
                    obs::counter("bench.obs.commit").inc();
                }
            }
            acc
        })
    });

    let commit = obs::counter("bench.obs.commit");
    group.bench_function("guard_active", |b| {
        let ((), _) = obs::Run::new().capture(|| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in 0..ITERS {
                    acc ^= workload(black_box(i));
                    if obs::enabled() {
                        commit.inc();
                    }
                }
                acc
            })
        });
    });

    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(30)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_obs
);
criterion_main!(benches);

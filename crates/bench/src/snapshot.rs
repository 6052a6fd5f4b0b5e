//! `experiments bench-snapshot` — the perf-regression gate.
//!
//! Runs the fig4/fig5 quick pipelines twice each (untraced for a clean
//! wall-clock, then traced in memory for the flight-recorder aggregates),
//! writes a structured `BENCH_perf.json`, and compares it against the
//! checked-in baseline:
//!
//! - **Deterministic keys** (trace record/byte counts, window counts,
//!   per-series means) are byte-identical at every `--jobs` value, so any
//!   drift is a real behaviour change, not noise. Integer counts must
//!   match the baseline exactly; float aggregates (and the byte totals
//!   derived from their formatting) get a hair of relative tolerance so a
//!   different host's libm cannot trip the gate on the last bit.
//! - **Wall-clock keys** (`*.wall_*_ns`) are gated by a relative noise
//!   band (`--noise`, default 0.5), one-sided: only a slowdown fails.
//!   When the baseline was recorded on a host with a different core
//!   count, wall-clock gating is skipped entirely. `*.overhead_pct` is a
//!   ratio of two millisecond-scale wall clocks and swings several-fold
//!   run to run on the quick pipelines, so it is reported but never
//!   gated.
//! - **Virtual-time keys** (`vtime.*`, in the `BENCH_vtime.json`
//!   section) are exact integers on a simulated clock: byte-identical on
//!   every host, so they are gated exactly — no noise band, no tolerance,
//!   no skip when the baseline came from a different machine.
//!
//! The snapshot file is a *flat* JSON object (dotted keys, one per line,
//! sorted) in the same dialect `tracetool::json::parse_object` reads, so
//! the gate needs no external JSON parser.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// One snapshot value: the flat JSON file only ever holds numbers and
/// strings.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// Unsigned integer (counts, byte totals).
    U(u64),
    /// Float (means, percentages).
    F(f64),
    /// String (host info, tool tag).
    S(String),
}

impl Val {
    /// Numeric view of the value, for gating; `None` for strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Val::U(v) => Some(*v as f64),
            Val::F(v) => Some(*v),
            Val::S(_) => None,
        }
    }
}

/// Arguments of the `bench-snapshot` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotArgs {
    /// `--out PATH`: where to write the snapshot (default `BENCH_perf.json`).
    pub out: PathBuf,
    /// `--baseline PATH`: the checked-in reference
    /// (default `BENCH_perf_baseline.json`).
    pub baseline: PathBuf,
    /// `--noise F`: relative wall-clock noise band (default 0.5).
    pub noise: f64,
    /// `--update-baseline`: also write the snapshot to the baseline path
    /// (and pass the gate trivially).
    pub update_baseline: bool,
}

impl Default for SnapshotArgs {
    fn default() -> Self {
        SnapshotArgs {
            out: PathBuf::from("BENCH_perf.json"),
            baseline: PathBuf::from("BENCH_perf_baseline.json"),
            noise: 0.5,
            update_baseline: false,
        }
    }
}

impl SnapshotArgs {
    /// Parse the subcommand's extra flags (everything the shared
    /// [`crate::opts::Options`] parser left in `targets` after
    /// `bench-snapshot` itself, plus unknown `--flags` re-scanned here).
    pub fn parse(args: &[String]) -> Result<SnapshotArgs, String> {
        let mut out = SnapshotArgs::default();
        let mut iter = args.iter();
        while let Some(a) = iter.next() {
            let take = |iter: &mut std::slice::Iter<'_, String>, flag: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} expects a value"))
            };
            match a.as_str() {
                "--out" => out.out = PathBuf::from(take(&mut iter, "--out")?),
                "--baseline" => out.baseline = PathBuf::from(take(&mut iter, "--baseline")?),
                "--noise" => {
                    out.noise = take(&mut iter, "--noise")?
                        .parse::<f64>()
                        .ok()
                        .filter(|n| n.is_finite() && *n >= 0.0)
                        .ok_or("--noise expects a non-negative number")?;
                }
                "--update-baseline" => out.update_baseline = true,
                other => {
                    if let Some(v) = other.strip_prefix("--out=") {
                        out.out = PathBuf::from(v);
                    } else if let Some(v) = other.strip_prefix("--baseline=") {
                        out.baseline = PathBuf::from(v);
                    } else if let Some(v) = other.strip_prefix("--noise=") {
                        out.noise = v
                            .parse::<f64>()
                            .ok()
                            .filter(|n| n.is_finite() && *n >= 0.0)
                            .ok_or("--noise expects a non-negative number")?;
                    } else {
                        return Err(format!("bench-snapshot: unknown argument {other:?}"));
                    }
                }
            }
        }
        Ok(out)
    }
}

/// The benchmark stages: small fixed corpora (this is a perf smoke, not a
/// statistics run), the same sizes at every invocation so the
/// deterministic keys are comparable across commits.
fn stages() -> Vec<(&'static str, fn())> {
    vec![
        ("fig4", || crate::fig4::run_with(24)),
        ("fig5", || crate::fig5::run_with(12)),
    ]
}

/// Run the pipelines and collect the flat snapshot map.
pub fn collect() -> Result<BTreeMap<String, Val>, String> {
    let mut snap: BTreeMap<String, Val> = BTreeMap::new();
    snap.insert("schema".into(), Val::U(obs::SCHEMA_VERSION as u64));
    snap.insert("tool".into(), Val::S("experiments bench-snapshot".into()));
    snap.insert(
        "host.cores".into(),
        Val::U(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
    );
    snap.insert("host.os".into(), Val::S(std::env::consts::OS.into()));
    snap.insert("jobs".into(), Val::U(parx::jobs() as u64));
    for (name, f) in stages() {
        // Untraced first: a clean wall-clock with instrumentation compiled
        // in but disabled (the hot-path cost we actually ship).
        let t0 = Instant::now();
        f();
        let wall_plain = t0.elapsed().as_nanos() as u64;

        let mut run = obs::Run::new().trace_memory().arm();
        let t0 = Instant::now();
        f();
        let wall_traced = t0.elapsed().as_nanos() as u64;
        let report = run.finish_trace();
        drop(run);

        let bytes = report.bytes.as_deref().unwrap_or_default();
        let text = std::str::from_utf8(bytes).map_err(|e| format!("{name}: trace: {e}"))?;
        let trace = tracetool::parse_trace(text).map_err(|e| format!("{name}: {e}"))?;

        snap.insert(format!("{name}.wall_plain_ns"), Val::U(wall_plain));
        snap.insert(format!("{name}.wall_traced_ns"), Val::U(wall_traced));
        snap.insert(
            format!("{name}.overhead_pct"),
            Val::F(if wall_plain > 0 {
                100.0 * (wall_traced as f64 - wall_plain as f64) / wall_plain as f64
            } else {
                0.0
            }),
        );
        snap.insert(format!("{name}.trace.events"), Val::U(report.events));
        let oh = &report.overhead;
        snap.insert(format!("{name}.obs.events"), Val::U(oh.events));
        snap.insert(format!("{name}.obs.bytes"), Val::U(oh.bytes));
        snap.insert(format!("{name}.obs.spans"), Val::U(oh.spans));
        snap.insert(format!("{name}.obs.windows"), Val::U(oh.windows));
        snap.insert(
            format!("{name}.obs.histogram_updates"),
            Val::U(oh.histogram_updates),
        );
        for (series, points) in tracetool::perf::windows_by_series(&trace) {
            let samples: u64 = points.iter().map(|p| p.n).sum();
            snap.insert(
                format!("{name}.series.{series}.windows"),
                Val::U(points.len() as u64),
            );
            snap.insert(format!("{name}.series.{series}.samples"), Val::U(samples));
            snap.insert(
                format!("{name}.series.{series}.mean"),
                Val::F(tracetool::perf::overall_mean(&points)),
            );
        }
    }
    Ok(snap)
}

/// Encode the snapshot as flat JSON, one key per line, sorted.
pub fn render(snap: &BTreeMap<String, Val>) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in snap.iter().enumerate() {
        let _ = write!(out, "\"{k}\": ");
        match v {
            Val::U(n) => {
                let _ = write!(out, "{n}");
            }
            // Rust's shortest-roundtrip float formatting: deterministic,
            // and re-read losslessly by tracetool's parser. Keep a
            // fractional part so integral floats parse back as floats.
            Val::F(f) if f.is_finite() => {
                let s = format!("{f}");
                let _ = write!(out, "{s}");
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Val::F(f) => {
                let _ = write!(out, "\"{f}\"");
            }
            Val::S(s) => {
                let _ = write!(out, "{:?}", s);
            }
        }
        out.push_str(if i + 1 < snap.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Parse a snapshot file previously written by [`render`].
pub fn parse(text: &str) -> Result<BTreeMap<String, Val>, String> {
    let mut out = BTreeMap::new();
    for (k, v) in tracetool::json::parse_object(text)? {
        let val = match v {
            tracetool::json::JsonValue::U64(n) => Val::U(n),
            tracetool::json::JsonValue::I64(n) => Val::F(n as f64),
            tracetool::json::JsonValue::F64(f) => Val::F(f),
            tracetool::json::JsonValue::Str(s) => Val::S(s),
            other => return Err(format!("snapshot key {k:?}: unexpected value {other:?}")),
        };
        out.insert(k, val);
    }
    Ok(out)
}

/// How a key is gated against the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KeyClass {
    /// Context only (host info, tool tag, job count, overhead ratios):
    /// reported, never gated.
    Context,
    /// Wall-clock: one-sided relative noise band.
    Wall,
    /// Deterministic count: must match the baseline exactly.
    Exact,
    /// Deterministic float aggregate (and the byte totals derived from
    /// float formatting): a hair of relative tolerance absorbs last-bit
    /// libm differences across hosts; any real regression is orders of
    /// magnitude larger.
    NearExact,
}

const NEAR_EXACT_RTOL: f64 = 1e-6;

fn classify(key: &str) -> KeyClass {
    // Virtual-time keys first: every `vtime.*` / `durable.*` value is an
    // exact integer on a simulated clock, identical on every host by
    // construction. They are always gated exactly — no noise band, no
    // near-exact float tolerance (even for suffixes like `.mean` that
    // would soften other sections), and no skip-on-core-mismatch (their
    // sections carry no host context at all, so the wall-clock skip
    // cannot apply).
    if key.starts_with("vtime.") || key.starts_with("durable.") {
        return KeyClass::Exact;
    }
    if key.starts_with("host.")
        || key == "tool"
        || key == "jobs"
        // Traced-over-plain ratio of two tiny wall clocks: too noisy on
        // the quick pipelines to gate even with a generous band.
        || key.ends_with(".overhead_pct")
    {
        KeyClass::Context
    } else if key.contains(".wall_") {
        KeyClass::Wall
    } else if key.ends_with(".mean") || key.ends_with(".bytes") {
        KeyClass::NearExact
    } else {
        KeyClass::Exact
    }
}

/// Compare `current` against `baseline`. Returns the human-readable
/// verdict text and whether the gate passed.
pub fn compare(
    current: &BTreeMap<String, Val>,
    baseline: &BTreeMap<String, Val>,
    noise: f64,
) -> (String, bool) {
    let mut out = String::new();
    let mut failures = 0usize;
    // Wall-clock numbers are only comparable between runs with the same
    // parallelism: a different host or a different --jobs value changes
    // both the wall time and the overhead ratio legitimately.
    let skip_wall = current.get("host.cores") != baseline.get("host.cores")
        || current.get("jobs") != baseline.get("jobs");
    if skip_wall {
        let _ = writeln!(
            out,
            "note: baseline host.cores/jobs differ from this run; \
             wall-clock keys are reported but not gated"
        );
    }
    let keys: std::collections::BTreeSet<&String> = current.keys().chain(baseline.keys()).collect();
    for key in keys {
        let class = classify(key);
        match (current.get(key), baseline.get(key)) {
            (Some(cur), Some(base)) => match class {
                KeyClass::Context => {
                    if cur != base {
                        let _ = writeln!(out, "  note  {key}: {cur:?} (baseline {base:?})");
                    }
                }
                KeyClass::Exact => {
                    if cur != base {
                        failures += 1;
                        let _ = writeln!(
                            out,
                            "  FAIL  {key}: {cur:?} != baseline {base:?} (deterministic key)"
                        );
                    }
                }
                KeyClass::NearExact => {
                    let near = match (cur.as_f64(), base.as_f64()) {
                        (Some(c), Some(b)) => (c - b).abs() <= b.abs().max(1.0) * NEAR_EXACT_RTOL,
                        _ => cur == base,
                    };
                    if !near {
                        failures += 1;
                        let _ = writeln!(
                            out,
                            "  FAIL  {key}: {cur:?} != baseline {base:?} (deterministic \
                             aggregate, tolerance {NEAR_EXACT_RTOL:e})"
                        );
                    }
                }
                KeyClass::Wall => {
                    let (Some(c), Some(b)) = (cur.as_f64(), base.as_f64()) else {
                        failures += 1;
                        let _ = writeln!(out, "  FAIL  {key}: non-numeric wall-clock value");
                        continue;
                    };
                    // One-sided: only a slowdown beyond the band fails.
                    let allowed = b.abs().max(1.0) * noise;
                    let over = c - b;
                    if !skip_wall && over > allowed {
                        failures += 1;
                        let _ = writeln!(
                            out,
                            "  FAIL  {key}: {c:.0} exceeds baseline {b:.0} by more than \
                             the noise band (+{allowed:.0})"
                        );
                    } else if over > allowed {
                        let _ =
                            writeln!(out, "  note  {key}: {c:.0} vs baseline {b:.0} (not gated)");
                    }
                }
            },
            (Some(cur), None) => {
                if matches!(class, KeyClass::Exact | KeyClass::NearExact) {
                    failures += 1;
                    let _ = writeln!(
                        out,
                        "  FAIL  {key}: new deterministic key {cur:?} not in baseline (update it)"
                    );
                }
            }
            (None, Some(base)) => {
                if matches!(class, KeyClass::Exact | KeyClass::NearExact) {
                    failures += 1;
                    let _ = writeln!(
                        out,
                        "  FAIL  {key}: baseline key {base:?} missing from this run"
                    );
                }
            }
            (None, None) => unreachable!("key came from one of the maps"),
        }
    }
    let ok = failures == 0;
    let _ = writeln!(
        out,
        "perf gate: {} ({} deterministic+wall checks failed, noise band {:.0}%)",
        if ok { "PASS" } else { "FAIL" },
        failures,
        noise * 100.0,
    );
    (out, ok)
}

/// Compare a freshly collected section against its checked-in baseline
/// file, if one exists. Shared by the fig4/fig5 and fastpath sections.
fn gate_against_baseline(
    snap: &BTreeMap<String, Val>,
    baseline: &PathBuf,
    noise: f64,
) -> Result<bool, String> {
    let baseline_text = match std::fs::read_to_string(baseline) {
        Ok(t) => t,
        Err(e) => {
            println!(
                "no baseline at {} ({e}); run with --update-baseline to record one",
                baseline.display()
            );
            return Ok(true);
        }
    };
    let base = parse(&baseline_text)
        .map_err(|e| format!("invalid baseline {}: {e}", baseline.display()))?;
    let (verdict, ok) = compare(snap, &base, noise);
    print!("{verdict}");
    Ok(ok)
}

/// Run the whole subcommand. Returns `true` when every gate passed.
///
/// Besides the fig4/fig5 snapshot at `--out`, a second section of
/// single-op fast-path latencies ([`crate::fastpath`]) is written next to
/// it as `BENCH_fastpath.json` (baseline `BENCH_fastpath_baseline.json`
/// next to `--baseline`). The fastpath section carries its own *same-run*
/// gate — the shipping commit path must beat the in-process legacy
/// replica — on top of the usual baseline comparison.
///
/// A third section, the virtual-time scalability report
/// ([`crate::vtime`]), is written as `BENCH_vtime.json` (baseline
/// `BENCH_vtime_baseline.json`). Its values live on a simulated clock,
/// so this section is gated **exactly** — every key byte-for-byte, with
/// no noise band and no cross-host skip.
///
/// A fourth section, the durability-tax report ([`crate::durable`]), is
/// written as `BENCH_durable.json` (baseline
/// `BENCH_durable_baseline.json`) and gated under the same exact regime
/// as vtime: log traffic, fsync counts and the crash-recovery drill are
/// modeled integers, byte-identical everywhere.
pub fn run(args: &SnapshotArgs) -> Result<bool, String> {
    // The nanosecond probes run first, in a pristine process: the fig
    // pipelines leave behind a warmed allocator whose hot size classes
    // flatter exactly the per-commit allocation the legacy replica is
    // supposed to be charged for.
    println!("== bench-snapshot: fastpath single-op latencies ==");
    let fsnap = crate::fastpath::collect();

    println!("== bench-snapshot: fig4/fig5 quick pipelines, plain + traced ==");
    let snap = collect()?;
    let text = render(&snap);
    std::fs::write(&args.out, &text)
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    println!("snapshot written to {}", args.out.display());

    let ftext = render(&fsnap);
    let fout = args.out.with_file_name("BENCH_fastpath.json");
    let fbaseline = args.baseline.with_file_name("BENCH_fastpath_baseline.json");
    std::fs::write(&fout, &ftext).map_err(|e| format!("cannot write {}: {e}", fout.display()))?;
    println!("fastpath snapshot written to {}", fout.display());
    // The same-run gate holds even under --update-baseline: a regression
    // must not be silently recorded as the new normal.
    let (fverdict, fok) = crate::fastpath::verdict(&fsnap);
    print!("{fverdict}");

    println!("== bench-snapshot: virtual-time scalability (exact cross-host) ==");
    let vsnap = crate::vtime::collect();
    let vtext = render(&vsnap);
    let vout = args.out.with_file_name("BENCH_vtime.json");
    let vbaseline = args.baseline.with_file_name("BENCH_vtime_baseline.json");
    std::fs::write(&vout, &vtext).map_err(|e| format!("cannot write {}: {e}", vout.display()))?;
    println!("vtime snapshot written to {}", vout.display());

    println!("== bench-snapshot: durability tax + crash-recovery drill (exact cross-host) ==");
    let dsnap = crate::durable::collect();
    let dtext = render(&dsnap);
    let dout = args.out.with_file_name("BENCH_durable.json");
    let dbaseline = args.baseline.with_file_name("BENCH_durable_baseline.json");
    std::fs::write(&dout, &dtext).map_err(|e| format!("cannot write {}: {e}", dout.display()))?;
    println!("durable snapshot written to {}", dout.display());

    if args.update_baseline {
        std::fs::write(&args.baseline, &text)
            .map_err(|e| format!("cannot write {}: {e}", args.baseline.display()))?;
        println!("baseline updated at {}", args.baseline.display());
        std::fs::write(&fbaseline, &ftext)
            .map_err(|e| format!("cannot write {}: {e}", fbaseline.display()))?;
        println!("fastpath baseline updated at {}", fbaseline.display());
        std::fs::write(&vbaseline, &vtext)
            .map_err(|e| format!("cannot write {}: {e}", vbaseline.display()))?;
        println!("vtime baseline updated at {}", vbaseline.display());
        std::fs::write(&dbaseline, &dtext)
            .map_err(|e| format!("cannot write {}: {e}", dbaseline.display()))?;
        println!("durable baseline updated at {}", dbaseline.display());
        return Ok(fok);
    }
    let ok = gate_against_baseline(&snap, &args.baseline, args.noise)?;
    let f_base_ok = gate_against_baseline(&fsnap, &fbaseline, args.noise)?;
    let v_ok = gate_against_baseline(&vsnap, &vbaseline, args.noise)?;
    let d_ok = gate_against_baseline(&dsnap, &dbaseline, args.noise)?;
    Ok(ok && fok && f_base_ok && v_ok && d_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> BTreeMap<String, Val> {
        let mut m = BTreeMap::new();
        m.insert("host.cores".into(), Val::U(8));
        m.insert("fig4.obs.events".into(), Val::U(100));
        m.insert("fig4.wall_plain_ns".into(), Val::U(1_000_000));
        m.insert("fig4.overhead_pct".into(), Val::F(2.0));
        m.insert("fig4.series.fig4.mape.mean".into(), Val::F(0.25));
        m
    }

    #[test]
    fn identical_snapshots_pass() {
        let m = base();
        let (text, ok) = compare(&m, &m, 0.5);
        assert!(ok, "{text}");
        assert!(text.contains("PASS"));
    }

    #[test]
    fn deterministic_drift_fails_even_within_noise() {
        let b = base();
        let mut c = base();
        c.insert("fig4.obs.events".into(), Val::U(101));
        let (text, ok) = compare(&c, &b, 0.5);
        assert!(!ok);
        assert!(text.contains("fig4.obs.events"), "{text}");
    }

    #[test]
    fn float_aggregates_get_last_bit_tolerance_but_real_drift_fails() {
        let b = base();
        let mut c = base();
        // One ulp-ish wobble: inside the near-exact tolerance.
        c.insert("fig4.series.fig4.mape.mean".into(), Val::F(0.25 + 1e-9));
        let (text, ok) = compare(&c, &b, 0.5);
        assert!(ok, "{text}");
        // A real change in the aggregate: fails even inside wall noise.
        c.insert("fig4.series.fig4.mape.mean".into(), Val::F(0.26));
        let (text, ok) = compare(&c, &b, 0.5);
        assert!(!ok);
        assert!(text.contains("fig4.series.fig4.mape.mean"), "{text}");
    }

    #[test]
    fn wall_clock_noise_is_tolerated_but_big_slowdowns_fail() {
        let b = base();
        let mut c = base();
        // +30% wall: inside the 50% band.
        c.insert("fig4.wall_plain_ns".into(), Val::U(1_300_000));
        let (text, ok) = compare(&c, &b, 0.5);
        assert!(ok, "{text}");
        // +80% wall: outside it.
        c.insert("fig4.wall_plain_ns".into(), Val::U(1_800_000));
        let (text, ok) = compare(&c, &b, 0.5);
        assert!(!ok);
        assert!(text.contains("fig4.wall_plain_ns"), "{text}");
        // A speedup never fails, no matter how large.
        c.insert("fig4.wall_plain_ns".into(), Val::U(100));
        let (text, ok) = compare(&c, &b, 0.5);
        assert!(ok, "{text}");
    }

    #[test]
    fn overhead_pct_is_reported_but_never_gated() {
        let b = base();
        let mut c = base();
        c.insert("fig4.overhead_pct".into(), Val::F(80.0));
        let (text, ok) = compare(&c, &b, 0.5);
        assert!(ok, "{text}");
        assert!(text.contains("fig4.overhead_pct"), "{text}");
    }

    #[test]
    fn differing_core_counts_skip_wall_gating() {
        let b = base();
        let mut c = base();
        c.insert("host.cores".into(), Val::U(4));
        c.insert("fig4.wall_plain_ns".into(), Val::U(10_000_000));
        let (text, ok) = compare(&c, &b, 0.5);
        assert!(ok, "{text}");
        assert!(
            text.contains("not gated") || text.contains("wall-clock keys"),
            "{text}"
        );
    }

    #[test]
    fn missing_deterministic_keys_fail_in_both_directions() {
        let b = base();
        let mut c = base();
        c.remove("fig4.obs.events");
        assert!(!compare(&c, &b, 0.5).1, "baseline key missing from run");
        let mut c = base();
        c.insert("fig5.obs.events".into(), Val::U(7));
        assert!(
            !compare(&c, &b, 0.5).1,
            "new deterministic key not in baseline"
        );
    }

    #[test]
    fn vtime_keys_always_classify_exact() {
        // Even suffixes that soften other sections (`.mean`, `.bytes`)
        // and the wall marker stay exact under the vtime prefix.
        for key in [
            "vtime.machine-a.tl2.t8.tx_per_sec",
            "vtime.machine-b.switch.latency_ns",
            "vtime.machine-a.htm.t4.mean",
            "vtime.machine-a.htm.t4.bytes",
            "vtime.machine-a.wall_plain_ns",
            "vtime.seed",
        ] {
            assert_eq!(classify(key), KeyClass::Exact, "{key}");
        }
    }

    #[test]
    fn durable_keys_always_classify_exact() {
        for key in [
            "durable.machine-a.strict.t8.tx_per_sec",
            "durable.machine-b.drill.recovery_ns",
            "durable.machine-a.buffered.t4.mean",
            "durable.machine-a.buffered.t4.bytes",
            "durable.machine-a.wall_plain_ns",
            "durable.seed",
        ] {
            assert_eq!(classify(key), KeyClass::Exact, "{key}");
        }
    }

    #[test]
    fn vtime_drift_fails_exactly_even_cross_host_and_inside_noise() {
        let mut b = base();
        b.insert("vtime.machine-a.tl2.t8.virtual_ns".into(), Val::U(83_484));
        let mut c = b.clone();
        // A different host and a huge noise band: wall keys would be
        // skipped, but the vtime key must still be gated to the byte.
        c.insert("host.cores".into(), Val::U(4));
        c.insert("vtime.machine-a.tl2.t8.virtual_ns".into(), Val::U(83_485));
        let (text, ok) = compare(&c, &b, 10.0);
        assert!(!ok, "{text}");
        assert!(text.contains("vtime.machine-a.tl2.t8.virtual_ns"), "{text}");
        // Byte-identical vtime keys pass regardless of the host change.
        c.insert("vtime.machine-a.tl2.t8.virtual_ns".into(), Val::U(83_484));
        let (text, ok) = compare(&c, &b, 10.0);
        assert!(ok, "{text}");
    }

    #[test]
    fn render_parse_roundtrip_is_lossless() {
        let mut m = base();
        m.insert("tool".into(), Val::S("experiments bench-snapshot".into()));
        let text = render(&m);
        let back = parse(&text).unwrap();
        assert_eq!(m, back);
        // And the rendering itself is stable.
        assert_eq!(text, render(&back));
    }

    #[test]
    fn snapshot_args_parse_both_spellings() {
        let a = SnapshotArgs::parse(&[
            "--out".into(),
            "x.json".into(),
            "--baseline=y.json".into(),
            "--noise".into(),
            "0.2".into(),
        ])
        .unwrap();
        assert_eq!(a.out, PathBuf::from("x.json"));
        assert_eq!(a.baseline, PathBuf::from("y.json"));
        assert!((a.noise - 0.2).abs() < 1e-12);
        assert!(!a.update_baseline);
        assert!(SnapshotArgs::parse(&["--noise".into(), "-1".into()]).is_err());
        assert!(SnapshotArgs::parse(&["bogus".into()]).is_err());
    }
}

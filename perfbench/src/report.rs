//! Folding rounds into named metrics, and printing them.

use crate::stats::{median, ratio};
use crate::trace::write_spans;
use crate::{Host, Round, RunConfig, Workload};
use proteustm::txcore::{AbortCode, StatsSnapshot};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value; 0 when the metric does not apply to the workload.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Whether the metric applies to this workload.
    pub applies: bool,
}

fn metric(name: impl Into<String>, unit: &'static str, value: Option<f64>) -> Metric {
    let value = value.filter(|v| v.is_finite());
    Metric {
        name: name.into(),
        value: value.unwrap_or(0.0),
        unit,
        applies: value.is_some(),
    }
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Report {
    workload: Workload,
    seed: u64,
    trace: bool,
    host: Host,
    rounds: Vec<Round>,
}

/// Committed ops per second of one round's budget.
fn commits_per_s(r: &Round) -> f64 {
    ratio((r.ops - r.failed) as f64, r.wall.as_secs_f64())
}

/// Set-up time of one round: construction, training, population, warm-up.
fn setup_s(r: &Round) -> f64 {
    (r.train + r.populate).as_secs_f64()
}

impl Report {
    pub(crate) fn new(cfg: &RunConfig, host: Host, rounds: Vec<Round>) -> Report {
        Report {
            workload: cfg.workload,
            seed: cfg.seed,
            trace: cfg.trace,
            host,
            rounds,
        }
    }

    /// Ops attempted across every round.
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    /// Ops whose check failed across every round.
    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum()
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.attempted() > 0
    }

    fn rounds(&self, traced: bool) -> impl Iterator<Item = &Round> + Clone {
        self.rounds.iter().filter(move |r| r.traced == traced)
    }

    /// The end-to-end metrics, from untraced rounds.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let rounds = self.rounds(false);
        vec![
            metric(
                "commits_per_s",
                "1/s",
                Some(median(rounds.clone().map(commits_per_s))),
            ),
            metric(
                "op_p50_ns",
                "ns",
                Some(median(rounds.clone().map(|r| r.p50_ns))),
            ),
            metric(
                "op_p99_ns",
                "ns",
                Some(median(rounds.clone().map(|r| r.p99_ns))),
            ),
            metric("setup_s", "s", Some(median(rounds.map(setup_s)))),
        ]
    }

    /// The per-layer metrics, from traced rounds.
    pub fn per_layer(&self) -> Vec<Metric> {
        let traced: Vec<&Round> = self.rounds(true).collect();
        let n = traced.len() as f64;
        let sum = |f: &dyn Fn(&Round) -> u64| traced.iter().map(|r| f(r)).sum::<u64>() as f64;
        let per_round = |f: &dyn Fn(&Round) -> u64| Some(ratio(sum(f), n));
        let stats = traced
            .iter()
            .fold(StatsSnapshot::default(), |acc, r| acc.merge(&r.stats));
        let ops = sum(&|r| r.ops);
        let busy = sum(&|r| r.op_busy_ns);
        let empty_tx = median(traced.iter().map(|r| r.empty_tx_ns));
        let calls = sum(&|r| r.blocks.calls);
        // Only `adaptive` owns its atomic blocks, and only it runs the tuner.
        let owned = |v: f64| (calls > 0.0).then_some(v);
        let tuned = |v: f64| (self.workload == Workload::Adaptive).then_some(v);
        let explorations = sum(&|r| r.tuner.explorations);
        let untraced_cps = median(self.rounds(false).map(commits_per_s));
        let traced_cps = median(traced.iter().map(|r| commits_per_s(r)));
        let abort_ratio = |s: &StatsSnapshot| {
            ratio(
                s.total_aborts() as f64,
                (s.commits + s.total_aborts()) as f64,
            )
        };

        let mut m = vec![
            metric("apps.op_ns", "ns", Some(ratio(busy, ops))),
            metric("polytm.empty_tx_ns", "ns", Some(empty_tx)),
            metric(
                "polytm.fixed_share",
                "ratio",
                Some(ratio(stats.commits as f64 * empty_tx, busy)),
            ),
            metric(
                "polytm.run_tx_ns",
                "ns",
                owned(ratio(sum(&|r| r.blocks.run_tx_ns), calls)),
            ),
            metric(
                "polytm.tx_self_ns",
                "ns",
                owned(ratio(
                    sum(&|r| r.blocks.run_tx_ns) - sum(&|r| r.blocks.attempt_ns),
                    calls,
                )),
            ),
            metric(
                "polytm.serial_escapes",
                "count/round",
                per_round(&|r| r.serial_escapes),
            ),
            metric(
                "polytm.quiescence_epochs",
                "count/round",
                per_round(&|r| r.quiescence_epochs),
            ),
            metric(
                "txcore.commits",
                "count/round",
                per_round(&|r| r.stats.commits),
            ),
            metric(
                "txcore.aborts",
                "count/round",
                per_round(&|r| r.stats.total_aborts()),
            ),
            metric("txcore.abort_ratio", "ratio", Some(abort_ratio(&stats))),
            metric("txcore.goodput_ratio", "ratio", Some(stats.goodput_ratio())),
        ];
        for code in [
            AbortCode::Conflict,
            AbortCode::Capacity,
            AbortCode::Fallback,
            AbortCode::Mode,
        ] {
            m.push(metric(
                format!("txcore.aborts.{}", code.slug()),
                "count/round",
                per_round(&|r| r.stats.aborts_of(code)),
            ));
        }
        m.extend([
            metric(
                "txcore.reads_per_commit",
                "count/commit",
                Some(ratio(stats.committed_reads as f64, stats.commits as f64)),
            ),
            metric(
                "txcore.writes_per_commit",
                "count/commit",
                Some(ratio(stats.committed_writes as f64, stats.commits as f64)),
            ),
            metric(
                "txcore.attempts_per_tx",
                "count/tx",
                owned(ratio(sum(&|r| r.blocks.attempts), calls)),
            ),
            metric(
                "txcore.heap_words_per_op",
                "words/op",
                Some(ratio(sum(&|r| r.heap_words), ops)),
            ),
            metric(
                "rectm.optimize_rounds",
                "count/round",
                tuned(ratio(sum(&|r| r.tuner.rounds), n)),
            ),
            metric(
                "rectm.explorations",
                "count/round",
                tuned(ratio(explorations, n)),
            ),
            metric(
                "rectm.monitor_alarms",
                "count/round",
                tuned(ratio(sum(&|r| r.tuner.alarms), n)),
            ),
            metric(
                "rectm.explore_share",
                "ratio",
                tuned(ratio(
                    sum(&|r| r.tuner.explore_ns),
                    sum(&|r| r.wall.as_nanos() as u64),
                )),
            ),
            metric(
                "rectm.decide_ns",
                "ns",
                tuned(ratio(
                    sum(&|r| r.tuner.optimize_ns) - sum(&|r| r.tuner.explore_ns),
                    explorations,
                )),
            ),
            metric(
                "rectm.observe_ns",
                "ns",
                tuned(ratio(
                    sum(&|r| r.tuner.observe_ns),
                    sum(&|r| r.tuner.observes),
                )),
            ),
            metric(
                "setup.train_s",
                "s",
                Some(median(self.rounds.iter().map(|r| r.train.as_secs_f64()))),
            ),
            metric(
                "setup.populate_s",
                "s",
                Some(median(self.rounds.iter().map(|r| r.populate.as_secs_f64()))),
            ),
            metric(
                "trace.overhead_pct",
                "%",
                Some(100.0 * ratio(untraced_cps - traced_cps, untraced_cps)),
            ),
        ]);
        for name in ["phase_a1", "phase_b", "phase_a2"] {
            let phases: Vec<_> = traced
                .iter()
                .flat_map(|r| r.phases.iter().filter(|p| p.name == name))
                .collect();
            let s = phases
                .iter()
                .fold(StatsSnapshot::default(), |acc, p| acc.merge(&p.stats));
            let wall: f64 = phases.iter().map(|p| p.wall.as_secs_f64()).sum();
            let present = |v: f64| (!phases.is_empty()).then_some(v);
            m.extend([
                metric(
                    format!("apps.{name}.commits_per_s"),
                    "1/s",
                    present(ratio(s.commits as f64, wall)),
                ),
                metric(
                    format!("txcore.{name}.abort_ratio"),
                    "ratio",
                    present(abort_ratio(&s)),
                ),
                metric(
                    format!("txcore.{name}.goodput_ratio"),
                    "ratio",
                    present(s.goodput_ratio()),
                ),
                metric(
                    format!("txcore.{name}.reads_per_commit"),
                    "count/commit",
                    present(ratio(s.committed_reads as f64, s.commits as f64)),
                ),
                metric(
                    format!("txcore.{name}.writes_per_commit"),
                    "count/commit",
                    present(ratio(s.committed_writes as f64, s.commits as f64)),
                ),
            ]);
        }
        m
    }

    /// The metrics this run reports: per-layer in a traced run, end-to-end
    /// otherwise.
    pub fn metrics(&self) -> Vec<Metric> {
        if self.trace {
            self.per_layer()
        } else {
            self.end_to_end()
        }
    }

    /// The human-readable report (everything but the final JSON line).
    pub fn text(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        let untraced: Vec<&Round> = self.rounds(false).collect();
        let traced = self.rounds(true).count();
        let _ = writeln!(
            w,
            "workload: {} seed={} trace={} rounds={} untraced + {traced} traced",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            untraced.len()
        );
        let _ = writeln!(w, "{}", self.host);
        if let Some(r) = untraced.first() {
            let _ = writeln!(
                w,
                "op budget: {} ops/round; latency samples: {} over {} untraced rounds (percentiles are medians of per-round values)",
                r.ops,
                untraced.iter().map(|r| r.samples).sum::<u64>(),
                untraced.len()
            );
        }
        for (i, r) in self.rounds.iter().enumerate() {
            if !r.tuner.chosen.is_empty() {
                let _ = writeln!(
                    w,
                    "round {i} chosen configurations: {}",
                    r.tuner.chosen.join(", ")
                );
            }
            for p in &r.problems {
                let _ = writeln!(w, "round {i} CHECK FAILED: {p}");
            }
        }
        let _ = writeln!(
            w,
            "failed_op_ratio = {} ratio ({} of {} ops)",
            ratio(self.failed() as f64, self.attempted() as f64),
            self.failed(),
            self.attempted()
        );
        for m in self.metrics() {
            if m.applies {
                let _ = writeln!(w, "{} = {} {}", m.name, m.value, m.unit);
            } else {
                let _ = writeln!(w, "{} = n/a on {}", m.name, self.workload.name());
            }
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }

    /// Write the sampled spans of every traced round to
    /// `dir/spans-<workload>-<seed>.jsonl`; returns the file written, if
    /// any spans were recorded.
    pub fn write_spans(&self, dir: &Path) -> io::Result<Option<PathBuf>> {
        if !self.rounds.iter().any(|r| !r.spans.is_empty()) {
            return Ok(None);
        }
        fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "spans-{}-{}.jsonl",
            self.workload.name(),
            self.seed
        ));
        let mut out = BufWriter::new(fs::File::create(&path)?);
        for (i, r) in self.rounds.iter().enumerate() {
            write_spans(&mut out, i, &r.spans)?;
        }
        out.flush()?;
        Ok(Some(path))
    }
}

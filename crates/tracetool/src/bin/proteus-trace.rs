//! `proteus-trace` — decision-quality analyzer for ProteusTM JSONL traces.
//!
//! ```text
//! proteus-trace report <trace.jsonl> [--epsilon E] [--json]
//! proteus-trace diff <a.jsonl> <b.jsonl>
//! proteus-trace perf <trace.jsonl>
//! proteus-trace perf-diff <a.jsonl> <b.jsonl> [--noise F]
//! proteus-trace conflicts <trace.jsonl> [--json]
//! proteus-trace watch <trace.jsonl> [--json] [--poll-ms N] [--idle-timeout-ms N]
//! ```
//!
//! Exit codes: `report`, `perf` and `conflicts` exit 0 on success, 1 on
//! schema violations, empty traces, or I/O errors. `diff` exits 0 when the
//! traces are structurally identical, 1 when they differ or fail to parse.
//! `perf-diff` exits 0 when no KPI degraded beyond the noise band, 1 on a
//! regression or a parse failure. `watch` exits 0 once the end-of-trace
//! trailer arrives, 1 on a parse error or when the file stops growing
//! before the trailer (idle timeout). Missing or unknown subcommands,
//! missing or extra operands and bad flag values exit 2.

use std::io::Write as _;
use std::process::ExitCode;
use tracetool::{conflicts, diff, perf, report, watch, Trace};

const USAGE: &str = "usage:
  proteus-trace report <trace.jsonl> [--epsilon E] [--json]   single-trace report
  proteus-trace diff <a.jsonl> <b.jsonl>                      structural comparison
  proteus-trace perf <trace.jsonl>                            KPI time-series & overhead audit
  proteus-trace perf-diff <a.jsonl> <b.jsonl> [--noise F]     window-by-window KPI gate
  proteus-trace conflicts <trace.jsonl> [--json]              abort attribution & hot stripes
  proteus-trace watch <trace.jsonl> [--json] [--poll-ms N] [--idle-timeout-ms N]
                                                              follow-mode dashboard (SLO gauges,
                                                              sparklines, alerts; schema v4)

The trace must start with a {\"kind\":\"trace.meta\",\"schema\":N} header
(written when an obs::Run with a trace is armed); schemas outside the
supported range are rejected.";

/// Print `msg` on stderr and yield exit code `code`.
fn fail(msg: impl std::fmt::Display, code: u8) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(code)
}

/// One subcommand's arguments: operands, `--json`, and valued flags.
struct Cli {
    operands: Vec<String>,
    json: bool,
    /// `(flag, value)` in command-line order; `None` when the value is missing.
    values: Vec<(&'static str, Option<String>)>,
}

impl Cli {
    /// Split `args`. `json` says whether `--json` is a flag here; `valued`
    /// names the flags taking a value (`--flag V` or `--flag=V`). Every
    /// other argument is an operand.
    fn parse(args: &[String], json: bool, valued: &[&'static str]) -> Cli {
        let mut cli = Cli {
            operands: Vec::new(),
            json: false,
            values: Vec::new(),
        };
        let mut args = args.iter();
        'args: while let Some(arg) = args.next() {
            for &flag in valued {
                if arg == flag {
                    cli.values.push((flag, args.next().cloned()));
                    continue 'args;
                }
                if let Some(v) = arg.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
                    cli.values.push((flag, Some(v.to_string())));
                    continue 'args;
                }
            }
            if json && arg == "--json" {
                cli.json = true;
            } else {
                cli.operands.push(arg.clone());
            }
        }
        cli
    }

    /// The last value of `flag` (`default` when absent); every occurrence
    /// must parse, as `what` says.
    fn value<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        what: &str,
    ) -> Result<T, ExitCode> {
        let mut given = self.values.iter().filter(|(f, _)| *f == flag);
        given.try_fold(default, |_, (_, v)| {
            let parsed = v.as_deref().and_then(|v| v.parse().ok());
            parsed.ok_or_else(|| fail(format!("{flag} needs {what} argument"), 2))
        })
    }

    /// Exactly `N` operands, or a usage error.
    fn operands<const N: usize>(&self) -> Result<&[String; N], ExitCode> {
        if let Some(extra) = self.operands.get(N) {
            return Err(fail(format!("unexpected argument {extra:?}\n{USAGE}"), 2));
        }
        self.operands
            .as_slice()
            .try_into()
            .map_err(|_| fail(USAGE, 2))
    }
}

/// Read and parse every trace, reporting each failure (exit 1). With
/// `need_records`, a trace holding only its header is a failure too.
fn load<const N: usize>(paths: &[String; N], need_records: bool) -> Result<[Trace; N], ExitCode> {
    let loaded = paths.each_ref().map(|path| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let trace = tracetool::parse_trace(&text).map_err(|e| format!("{path}: {e}"))?;
        if need_records && trace.records.is_empty() && trace.counters.is_empty() {
            return Err(format!(
                "{path}: trace holds a header but no records — nothing to report"
            ));
        }
        Ok(trace)
    });
    let errors: Vec<String> = loaded
        .iter()
        .filter_map(|r| r.as_ref().err().map(|e| format!("error: {e}")))
        .collect();
    if !errors.is_empty() {
        return Err(fail(errors.join("\n"), 1));
    }
    Ok(loaded.map(Result::unwrap))
}

/// Print `text`; exit 0 when `ok`, else 1.
fn verdict((text, ok): (String, bool)) -> ExitCode {
    print!("{text}");
    ExitCode::from(u8::from(!ok))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = args.split_first() else {
        return fail(USAGE, 2);
    };
    run(sub, rest).unwrap_or_else(|code| code)
}

fn run(sub: &str, rest: &[String]) -> Result<ExitCode, ExitCode> {
    let code = match sub {
        "report" => {
            let cli = Cli::parse(rest, true, &["--epsilon"]);
            let epsilon = cli.value("--epsilon", 0.05, "a numeric")?;
            let [trace] = load(cli.operands()?, true)?;
            print!(
                "{}",
                match cli.json {
                    true => report::render_json(&trace, epsilon),
                    false => report::render(&trace, epsilon),
                }
            );
            ExitCode::SUCCESS
        }
        "diff" => {
            let [a, b] = load(Cli::parse(rest, false, &[]).operands()?, false)?;
            verdict(diff::render(&a, &b))
        }
        "perf" => {
            let [trace] = load(Cli::parse(rest, false, &[]).operands()?, false)?;
            print!("{}", perf::render(&trace));
            ExitCode::SUCCESS
        }
        "perf-diff" => {
            let cli = Cli::parse(rest, false, &["--noise"]);
            let noise = cli.value("--noise", 0.05, "a numeric")?;
            let [a, b] = load(cli.operands()?, false)?;
            verdict(perf::render_diff(&a, &b, noise))
        }
        "conflicts" => {
            let cli = Cli::parse(rest, true, &[]);
            let [trace] = load(cli.operands()?, true)?;
            print!(
                "{}",
                match cli.json {
                    true => conflicts::render_json(&trace),
                    false => conflicts::render(&trace),
                }
            );
            ExitCode::SUCCESS
        }
        "watch" => {
            let cli = Cli::parse(rest, true, &["--poll-ms", "--idle-timeout-ms"]);
            let poll_ms = cli.value("--poll-ms", 50, "an integer")?;
            let idle_timeout_ms = cli.value("--idle-timeout-ms", 15_000, "an integer")?;
            let [path] = cli.operands()?;
            let mode = match cli.json {
                true => watch::Mode::Json,
                false => watch::Mode::Plain,
            };
            run_watch(path, mode, poll_ms, idle_timeout_ms)
                .map_err(|e| fail(format!("error: {e}"), 1))?;
            ExitCode::SUCCESS
        }
        _ => return Err(fail(format!("unknown subcommand {sub:?}\n{USAGE}"), 2)),
    };
    Ok(code)
}

/// Tail `path`, rendering dashboard frames as windows seal. Returns once
/// the end-of-trace trailer arrives; errors when the file stops growing
/// for `idle_timeout_ms` first (the writer died or never materialized),
/// or on a parse error.
fn run_watch(
    path: &str,
    mode: watch::Mode,
    poll_ms: u64,
    idle_timeout_ms: u64,
) -> Result<(), String> {
    use std::io::{Read as _, Seek as _};

    let mut watcher = watch::Watcher::new(mode);
    let mut offset = 0u64;
    let mut pending: Vec<u8> = Vec::new();
    let mut idle = std::time::Instant::now();
    let show = |frames: Vec<String>| {
        let mut out = std::io::stdout().lock();
        for frame in frames {
            let _ = out.write_all(frame.as_bytes());
            let _ = out.flush();
        }
    };
    loop {
        let mut grew = false;
        if let Ok(mut file) = std::fs::File::open(path) {
            let len = file.metadata().map_err(|e| format!("{path}: {e}"))?.len();
            if len > offset {
                file.seek(std::io::SeekFrom::Start(offset))
                    .and_then(|_| (&mut file).take(len - offset).read_to_end(&mut pending))
                    .map_err(|e| format!("{path}: {e}"))?;
                offset = len;
                grew = true;
            }
        }
        if grew {
            idle = std::time::Instant::now();
            // Hand the watcher every complete UTF-8 character; it buffers
            // partial lines itself.
            let valid = match std::str::from_utf8(&pending) {
                Ok(text) => text.len(),
                Err(e) if e.error_len().is_none() => e.valid_up_to(),
                Err(_) => return Err(format!("{path}: trace is not valid UTF-8")),
            };
            let text = std::str::from_utf8(&pending[..valid]).expect("validated above");
            show(watcher.feed(text).map_err(|e| format!("{path}: {e}"))?);
            pending.drain(..valid);
            if watcher.done() {
                return Ok(());
            }
        } else if idle.elapsed() >= std::time::Duration::from_millis(idle_timeout_ms) {
            // Flush whatever is open so a truncated trace still shows its
            // last window, then report the stall.
            show(watcher.finish());
            return Err(format!(
                "{path}: no end-of-trace trailer after {idle_timeout_ms}ms idle \
                 (writer gone?)"
            ));
        } else {
            std::thread::sleep(std::time::Duration::from_millis(poll_ms));
        }
    }
}

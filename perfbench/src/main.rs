//! Command-line entry point of the end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <memcached|tpcc|adaptive> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). A traced run also writes its sampled spans under
//! `.bench_out/`.

use perfbench::{run, RunConfig, Workload};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <memcached|tpcc|adaptive> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: Workload::Memcached,
        seed: 1,
        seconds: 10.0,
        trace: false,
        shrink: 0,
        check_skew: 0,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds >= 0.0 && cfg.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    print!("{}", report.text());
    match report.write_spans(Path::new(".bench_out")) {
        Ok(Some(path)) => println!("spans written to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

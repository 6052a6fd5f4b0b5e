//! The host context printed with every result, so that a run made on a
//! loaded or differently sized machine can be recognised afterwards.

use std::fmt;
use std::fs;
use std::path::Path;

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// Worker threads the workloads run on.
    pub workers: usize,
    /// 1-minute load average when the run started.
    pub load_start: Option<f64>,
    /// 1-minute load average when the run ended.
    pub load_end: Option<f64>,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Revision of the checkout the run was started from.
    pub revision: String,
}

impl Host {
    /// Capture everything but the end-of-run load average.
    pub fn capture(workers: usize) -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers,
            load_start: load_average(),
            load_end: None,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            revision: git_revision(Path::new(".git")),
        }
    }

    /// Record the load average at the end of the run.
    pub fn finish(&mut self) {
        self.load_end = load_average();
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let load = |l: Option<f64>| l.map_or("n/a".to_string(), |l| format!("{l:.2}"));
        write!(
            f,
            "host: nproc={} workers={} load1_start={} load1_end={} profile={} revision={}",
            self.nproc,
            self.workers,
            load(self.load_start),
            load(self.load_end),
            self.profile,
            self.revision
        )
    }
}

/// The 1-minute load average, where the platform exposes one.
fn load_average() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The commit `HEAD` names in the git directory `git`, read from its files
/// so that no process is started; `unknown` outside a git checkout.
fn git_revision(git: &Path) -> String {
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head; // detached HEAD holds the hash itself
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

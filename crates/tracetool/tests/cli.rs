//! Exit-code contract of the `proteus-trace` binary: missing/unknown
//! subcommands, bad operands and bad flag values exit 2 (usage errors),
//! analysis failures exit 1, and `watch` distinguishes a completed trace
//! (0) from a stalled one (1).

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_proteus-trace"))
}

fn complete_trace() -> String {
    let mut t = format!(
        "{{\"kind\":\"trace.meta\",\"schema\":{}}}\n",
        obs::SCHEMA_VERSION
    );
    t.push_str(
        "{\"seq\":0,\"kind\":\"metrics.window\",\"series\":\"kpi.x\",\"window\":0,\
         \"tick\":8,\"n\":8,\"mean\":0.5,\"min\":0,\"max\":1,\"last\":1}\n",
    );
    t.push_str(
        "{\"seq\":1,\"kind\":\"obs.overhead\",\"subsystem\":\"total\",\"events\":1,\
         \"bytes\":10}\n",
    );
    t
}

fn tmp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("proteus_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn no_subcommand_prints_usage_and_exits_2() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for sub in ["report", "diff", "perf", "perf-diff", "conflicts", "watch"] {
        assert!(
            stderr.contains(&format!("proteus-trace {sub} ")),
            "usage must list {sub}: {stderr}"
        );
    }
}

#[test]
fn unknown_subcommand_names_itself_and_exits_2() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown subcommand \"frobnicate\""),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn every_subcommand_rejects_missing_operands_with_2() {
    for sub in ["report", "diff", "perf", "perf-diff", "conflicts", "watch"] {
        let out = bin().arg(sub).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{sub} without operands");
    }
}

#[test]
fn unreadable_trace_exits_1() {
    for sub in ["report", "perf", "conflicts"] {
        let out = bin()
            .args([sub, "/nonexistent/trace.jsonl"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{sub} on a missing file");
        assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
    }
}

#[test]
fn watch_on_a_complete_trace_renders_frames_and_exits_0() {
    let path = tmp("complete.jsonl", &complete_trace());
    let out = bin()
        .args(["watch", path.to_str().unwrap(), "--idle-timeout-ms", "5000"])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("frame 1  window 0  tick 8"), "{stdout}");
    assert!(stdout.contains("kpi.x"), "{stdout}");
}

#[test]
fn watch_json_twin_is_one_object_per_frame() {
    let path = tmp("json.jsonl", &complete_trace());
    let out = bin()
        .args([
            "watch",
            path.to_str().unwrap(),
            "--json",
            "--idle-timeout-ms",
            "5000",
        ])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("{\"frame\":1,\"window\":0,\"tick\":8,"),
        "{stdout}"
    );
}

#[test]
fn watch_without_trailer_times_out_with_1() {
    // Header + one window but no obs.overhead total: the writer "died".
    let truncated: String = complete_trace()
        .lines()
        .filter(|l| !l.contains("obs.overhead"))
        .map(|l| format!("{l}\n"))
        .collect();
    let path = tmp("stalled.jsonl", &truncated);
    let out = bin()
        .args([
            "watch",
            path.to_str().unwrap(),
            "--poll-ms",
            "10",
            "--idle-timeout-ms",
            "200",
        ])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("trailer"));
    // The open window is still flushed before exiting, so a truncated
    // trace shows its last frame.
    assert!(String::from_utf8_lossy(&out.stdout).contains("frame 1"));
}

#[test]
fn watch_rejects_bad_schema_with_1() {
    let path = tmp("schema.jsonl", "{\"kind\":\"trace.meta\",\"schema\":99}\n");
    let out = bin()
        .args(["watch", path.to_str().unwrap(), "--idle-timeout-ms", "5000"])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema"));
}

#[test]
fn report_rejects_unknown_schemas_and_empty_files_with_1() {
    let bad = tmp(
        "schema999.jsonl",
        "{\"kind\":\"trace.meta\",\"schema\":999}\n",
    );
    let empty = tmp("empty.jsonl", "");
    for path in [&bad, &empty] {
        let out = bin()
            .args(["report", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{path:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{path:?}");
    }
    let _ = std::fs::remove_file(&bad);
    let _ = std::fs::remove_file(&empty);
}

#[test]
fn archived_v2_trace_reports_and_perf_degrades_gracefully() {
    let v2 = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v2_trace.jsonl");
    let report = bin().args(["report", v2]).output().unwrap();
    assert_eq!(report.status.code(), Some(0), "{report:?}");
    assert!(!report.stdout.is_empty());
    let perf = bin().args(["perf", v2]).output().unwrap();
    assert_eq!(perf.status.code(), Some(0), "{perf:?}");
    assert!(String::from_utf8_lossy(&perf.stdout).contains("no metrics.window records"));
}

#[test]
fn header_only_traces_fail_the_views_that_need_records() {
    let path = tmp(
        "header_only.jsonl",
        "{\"kind\":\"trace.meta\",\"schema\":4}\n",
    );
    let p = path.to_str().unwrap();
    for (sub, code) in [("report", 1), ("conflicts", 1), ("perf", 0)] {
        let out = bin().args([sub, p]).output().unwrap();
        assert_eq!(out.status.code(), Some(code), "{sub}: {out:?}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bad_flag_values_and_extra_operands_exit_2() {
    let path = tmp("flags.jsonl", &complete_trace());
    let p = path.to_str().unwrap();
    for args in [
        vec!["report", p, "--epsilon"],
        vec!["report", p, "--epsilon", "lots"],
        vec!["report", p, "--epsilon=0.1", "--epsilon=x"],
        vec!["perf-diff", p, p, "--noise="],
        vec!["watch", p, "--poll-ms", "1.5"],
        vec!["watch", p, "--idle-timeout-ms=-1"],
        vec!["report", p, p],
        vec!["perf", p, "--json"],
        vec!["diff", p, p, p],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    // Both flag spellings are accepted.
    for args in [
        vec!["report", p, "--epsilon", "0.1", "--json"],
        vec!["report", "--epsilon=0.1", p],
        vec!["perf-diff", "--noise", "0.2", p, p],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
    }
    let _ = std::fs::remove_file(&path);
}

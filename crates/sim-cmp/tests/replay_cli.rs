//! End-to-end checks of `simcmp --record-trace` / `--replay`: flag
//! conflicts, bad directories, stdout purity, and the record→replay
//! round trip through a temp directory.

use sim_base::json::parse;
use std::path::PathBuf;
use std::process::{Command, Output};

const PROGRAM: &str = "\
    li r1, 0x8000\n\
    li r2, 7\n\
    st r2, 0(r1)\n\
    ld r3, 0(r1)\n\
    li r1, 1\n\
    barw r1\n\
spin:\n\
    barr r2\n\
    bne r2, r0, spin\n\
    halt\n";

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("simcmp_replay_cli_{}_{name}", std::process::id()));
    p
}

/// Writes the test program and runs simcmp with `args` appended.
fn simcmp(prog: Option<&PathBuf>, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_simcmp"));
    if let Some(p) = prog {
        cmd.arg(p);
    }
    cmd.args(args).output().expect("simcmp runs")
}

fn prog_file(name: &str) -> PathBuf {
    let p = tmp(name);
    std::fs::write(&p, PROGRAM).unwrap();
    p
}

fn assert_dies(out: &Output, needle: &str) {
    assert!(
        !out.status.success(),
        "expected failure, got success (stderr: {})",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "stderr missing {needle:?}:\n{stderr}"
    );
}

#[test]
fn record_and_replay_are_mutually_exclusive() {
    let prog = prog_file("conflict.s");
    let dir = tmp("conflict_dir");
    let out = simcmp(
        Some(&prog),
        &[
            "--cores",
            "4",
            "--record-trace",
            dir.to_str().unwrap(),
            "--replay",
            dir.to_str().unwrap(),
        ],
    );
    assert_dies(&out, "mutually exclusive");
    let _ = std::fs::remove_file(&prog);
}

#[test]
fn record_refuses_event_tracing() {
    let prog = prog_file("rec_trace.s");
    let dir = tmp("rec_trace_dir");
    let json = tmp("rec_trace.json");
    let out = simcmp(
        Some(&prog),
        &[
            "--cores",
            "4",
            "--record-trace",
            dir.to_str().unwrap(),
            "--trace",
            json.to_str().unwrap(),
        ],
    );
    assert_dies(&out, "--record-trace cannot be combined with --trace");
    let _ = std::fs::remove_file(&prog);
}

#[test]
fn replay_takes_no_program_files() {
    let prog = prog_file("replay_prog.s");
    let dir = tmp("replay_prog_dir");
    let out = simcmp(Some(&prog), &["--replay", dir.to_str().unwrap()]);
    assert_dies(&out, "--replay takes no program files");
    let _ = std::fs::remove_file(&prog);
}

#[test]
fn replay_of_missing_dir_fails_cleanly() {
    let dir = tmp("missing_dir");
    let out = simcmp(None, &["--replay", dir.to_str().unwrap()]);
    assert_dies(&out, "--replay");
    // A structured error, not a panic backtrace.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "missing dir must not panic:\n{stderr}"
    );
}

#[test]
fn record_into_unwritable_path_fails_cleanly() {
    // A path *under a regular file* cannot be created by any process,
    // root included, so the recorder's directory write must die with
    // its structured message.
    let blocker = tmp("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let dir = blocker.join("traces");
    let prog = prog_file("unwritable.s");
    let out = simcmp(
        Some(&prog),
        &["--cores", "4", "--record-trace", dir.to_str().unwrap()],
    );
    assert_dies(&out, "--record-trace");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "unwritable dir must not panic:\n{stderr}"
    );
    let _ = std::fs::remove_file(&blocker);
    let _ = std::fs::remove_file(&prog);
}

#[test]
fn replay_rejects_mismatched_core_count() {
    let prog = prog_file("core_mismatch.s");
    let dir = tmp("core_mismatch_dir");
    let rec = simcmp(
        Some(&prog),
        &["--cores", "4", "--record-trace", dir.to_str().unwrap()],
    );
    assert!(rec.status.success(), "recording failed");
    let out = simcmp(None, &["--cores", "8", "--replay", dir.to_str().unwrap()]);
    assert_dies(&out, "the trace set holds 4 cores");
    let _ = std::fs::remove_file(&prog);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn record_replay_round_trip_is_bit_identical_and_stdout_stays_pure() {
    let prog = prog_file("round_trip.s");
    let dir = tmp("round_trip_dir");

    // Record with --json: stdout must be exactly the report document.
    let rec = simcmp(
        Some(&prog),
        &[
            "--cores",
            "4",
            "--json",
            "--sched-stats",
            "--record-trace",
            dir.to_str().unwrap(),
        ],
    );
    assert!(
        rec.status.success(),
        "recording failed: {}",
        String::from_utf8_lossy(&rec.stderr)
    );
    let rec_stdout = String::from_utf8(rec.stdout).unwrap();
    let rec_json = parse(rec_stdout.trim())
        .unwrap_or_else(|e| panic!("record stdout is not pure JSON ({e}):\n{rec_stdout}"));
    assert!(rec_json.get("cycles").is_some(), "report JSON has cycles");
    assert!(
        dir.join("manifest.json").is_file(),
        "recording wrote no manifest"
    );

    // Replay the directory (no program files, core count derived from
    // the manifest): the JSON report must be byte-identical, and the
    // diagnostics must stay on stderr.
    let rep = simcmp(
        None,
        &["--json", "--sched-stats", "--replay", dir.to_str().unwrap()],
    );
    assert!(
        rep.status.success(),
        "replay failed: {}",
        String::from_utf8_lossy(&rep.stderr)
    );
    let rep_stdout = String::from_utf8(rep.stdout).unwrap();
    parse(rep_stdout.trim())
        .unwrap_or_else(|e| panic!("replay stdout is not pure JSON ({e}):\n{rep_stdout}"));
    assert_eq!(
        rec_stdout, rep_stdout,
        "replay report JSON differs from the recorded run's"
    );
    let rep_stderr = String::from_utf8_lossy(&rep.stderr);
    assert!(
        rep_stderr.contains("skip:") && rep_stderr.contains("active sets:"),
        "sched-stats diagnostics missing from replay stderr:\n{rep_stderr}"
    );

    let _ = std::fs::remove_file(&prog);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file of a trace directory, by name.
fn dir_contents(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn recording_honours_the_engine_flag_and_traces_do_not_depend_on_it() {
    let prog = prog_file("rec_flags.s");
    let record = |flags: &[&str]| {
        let dir = tmp(&format!("rec_flags_dir{}", flags.concat()));
        let mut args = vec!["--cores", "4", "--json", "--sched-stats"];
        args.extend(flags);
        args.extend(["--record-trace", dir.to_str().unwrap()]);
        let out = simcmp(Some(&prog), &args);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "recording {flags:?} failed: {stderr}");
        let files = dir_contents(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        (files, out.stdout, stderr)
    };
    let (files, report, stderr) = record(&[]);
    assert_eq!(files.len(), 5, "manifest + one trace per core");
    assert!(
        !stderr.contains(" 0 skips") && !stderr.contains(" 0 stall steps"),
        "default recording neither jumped nor parked:\n{stderr}"
    );
    let (f, r, stderr) = record(&["--no-active-set"]);
    assert!(f == files, "--no-active-set: trace directory differs");
    assert_eq!(r, report, "--no-active-set: --json report differs");
    // The dense tick neither jumps the clock nor parks a core.
    assert!(
        stderr.contains("skip: 0 attempts, 0 skips (0 cycles)")
            && stderr.contains("0 stall steps and 0 spin steps elided"),
        "--no-active-set dropped:\n{stderr}"
    );
    let _ = std::fs::remove_file(&prog);
}

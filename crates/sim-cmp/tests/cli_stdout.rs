//! Regression: machine-readable stdout must stay machine-readable.
//! `--json` pipelines (`simcmp … --json | jq`) break if any diagnostic
//! — in particular `--sched-stats` — leaks onto stdout, so everything
//! except the report JSON and `--peek` lines goes to stderr.

use sim_base::json::parse;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

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

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("simcmp_cli_stdout_{}_{name}", std::process::id()));
    p
}

/// Runs `simcmp` on [`PROGRAM`] with `args`.
fn simcmp(args: &[&str]) -> std::process::Output {
    simcmp_on(PROGRAM, args)
}

/// Runs `simcmp` on the assembly `source` with `args`. Tests run as
/// parallel threads, so every call writes a program file of its own.
fn simcmp_on(source: &str, args: &[&str]) -> std::process::Output {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let prog = tmp(&format!("prog{}.s", CALLS.fetch_add(1, Ordering::Relaxed)));
    std::fs::write(&prog, source).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_simcmp"))
        .arg(&prog)
        .args(args)
        .output()
        .expect("simcmp runs");
    let _ = std::fs::remove_file(&prog);
    out
}

fn run(args: &[&str]) -> (String, String) {
    let out = simcmp(args);
    assert!(out.status.success(), "simcmp exited with {}", out.status);
    (
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn json_with_sched_stats_keeps_stdout_pure() {
    let (stdout, stderr) = run(&["--cores", "4", "--json", "--sched-stats"]);
    // The whole of stdout must be one valid JSON document — no
    // diagnostics interleaved before, after, or inside it.
    let rep = parse(stdout.trim()).unwrap_or_else(|e| {
        panic!("stdout is not pure JSON ({e}):\n{stdout}");
    });
    assert!(rep.get("cycles").is_some(), "report JSON has cycles");
    // Nothing but the report: stdout is exactly what --json alone prints.
    let (plain, _) = run(&["--cores", "4", "--json"]);
    assert_eq!(stdout, plain, "--sched-stats changed stdout");
    // The diagnostics still appear — on stderr, the NoC's included.
    assert!(
        stderr.contains("skip:") && stderr.contains("active sets:"),
        "sched-stats diagnostics missing from stderr:\n{stderr}"
    );
    let noc = stderr
        .lines()
        .find(|l| l.starts_with("noc: "))
        .unwrap_or_else(|| panic!("no noc: line on stderr:\n{stderr}"));
    let words: Vec<&str> = noc.split_whitespace().collect();
    assert!(
        matches!(
            words[..],
            ["noc:", v, "router", "visits,", t, "flits", "passed", "through", "idle", "routers"]
                if v.parse::<u64>().is_ok() && t.parse::<u64>().is_ok()
        ),
        "{noc}"
    );
}

/// The multi-worker engine, the never-jumping sparse tick and the
/// trace-driven engine are gone and so are their flags: asking for any
/// of them is a usage error, not a silently default run.
#[test]
fn removed_engine_flags_are_unknown_options() {
    for removed in [
        &["--workers", "4"][..],
        &["--no-skip"],
        &["--record-trace", "traces"],
        &["--replay", "traces"],
    ] {
        let mut args = vec!["--cores", "8", "--json"];
        args.extend(removed);
        let out = simcmp(&args);
        assert_eq!(out.status.code(), Some(1), "{}", out.status);
        assert!(out.stdout.is_empty(), "a report was printed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let unknown = format!("unknown option {}", removed[0]);
        assert!(stderr.contains(&unknown), "{stderr}");
    }
}

/// A core count no mesh can hold and a zero progress interval used to
/// reach an `assert!` in `Mesh2D::squarest` / `run_with_progress`; each
/// is a usage error naming its flag.
#[test]
fn out_of_range_cores_and_progress_are_named_usage_errors() {
    for (flag, value) in [("--cores", "0"), ("--cores", "70000"), ("--progress", "0")] {
        let out = simcmp(&[flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}

/// Memory is word-addressed: a `--poke` or `--peek` address off an
/// 8-byte boundary used to reach the memory system's `unaligned poke` /
/// `unaligned peek` assertions (after printing the report, for a peek).
/// Each is a usage error naming the flag and the address, before any
/// run.
#[test]
fn unaligned_poke_and_peek_are_named_usage_errors() {
    for (args, named) in [
        (&["--poke", "0x7=1"][..], "--poke address 0x7"),
        (&["--peek", "0x7"], "--peek address 0x7"),
        (&["--peek", "12"], "--peek address 12"),
    ] {
        let out = simcmp(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: a report was printed");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let (stdout, _) = run(&["--poke", "0x9008=5", "--peek", "0x9008"]);
    assert_eq!(stdout, "[0x9008] = 5\n");
}

/// A `--config` file is the whole machine: its mesh sets the core
/// count, and a field the simulator cannot build is a usage error
/// naming the field, not a panic or a silent clamp. The cases: the three
/// `noc` values that used to reach an `assert!` in the NoC's
/// constructor, a zero router latency (a stale-arrival panic in debug
/// builds, silently one cycle in release ones), router and link
/// latencies whose sum overflows 32 bits, an `issue_width` that used to
/// saturate to 255, line sizes other than the protocol's 64 bytes
/// (128-byte L1 lines used to index past `LineData`), G-line context
/// counts and line latencies large enough to abort on allocation, and
/// nesting deep enough to overflow the parser's stack.
#[test]
fn config_file_sets_the_machine_and_bad_noc_fields_are_named() {
    use sim_base::config::CmpConfig;
    use sim_base::json::ToJson;
    let path = tmp("machine.json");
    let mut cfg = CmpConfig::icpp2010_with_cores(8);
    cfg.noc.vc_buffer_flits = 2;
    cfg.noc.link_bytes = 16;
    std::fs::write(&path, cfg.to_json().pretty()).unwrap();
    let (stdout, _) = run(&["--config", path.to_str().unwrap(), "--json"]);
    let rep = parse(stdout.trim()).expect("report JSON");
    let cores = rep.get("per_core").and_then(|c| c.as_arr()).map(<[_]>::len);
    assert_eq!(cores, Some(8), "{stdout}");

    let with = |edit: fn(&mut CmpConfig)| {
        let mut cfg = CmpConfig::icpp2010();
        edit(&mut cfg);
        cfg.to_json().pretty()
    };
    let table1 = with(|_| {});
    let issue_300 = table1.replace("\"issue_width\": 2", "\"issue_width\": 300");
    assert_ne!(issue_300, table1);
    for (text, named) in [
        (with(|c| c.noc.vc_buffer_flits = 0), "noc.vc_buffer_flits"),
        (with(|c| c.noc.vc_buffer_flits = 256), "noc.vc_buffer_flits"),
        (with(|c| c.noc.link_bytes = 0), "noc.link_bytes"),
        (with(|c| c.noc.router_latency = 0), "noc.router_latency"),
        (
            with(|c| (c.noc.router_latency, c.noc.link_latency) = (u32::MAX, 2)),
            "noc.link_latency",
        ),
        (issue_300, "core.issue_width"),
        (with(|c| c.l1.line_bytes = 128), "l1.line_bytes"),
        (with(|c| c.l2.line_bytes = 32), "l2.line_bytes"),
        (with(|c| c.gline.contexts = 4_000_000_000), "gline.contexts"),
        (
            with(|c| c.gline.line_latency = 4_000_000_000),
            "gline.line_latency",
        ),
        ("[".repeat(50_000), "nesting"),
    ] {
        std::fs::write(&path, &text).unwrap();
        let out = simcmp(&["--config", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{named}: {stderr}");
        assert!(stderr.contains(named), "{named}: {stderr}");
        assert!(!stderr.contains("panicked"), "{named}: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

/// A malformed program is a run that does not halt (exit 2) with the
/// fault named — core, pc and what went wrong, in the reference
/// interpreter's words — never a panic, and the dense engine names the
/// same fault.
#[test]
fn program_faults_are_named_errors() {
    for (source, fault) in [
        (
            "barw r0\nhalt\n",
            "core0 faulted at pc 0: barw with a zero value",
        ),
        (
            "barctx 3\nhalt\n",
            "core0 faulted at pc 0: barctx 3 but the network has 1 context(s)",
        ),
        (
            "li r1, 1000\njalr r0, r1\nhalt\n",
            "core0 faulted at pc 1: control transfer to bad pc 1000",
        ),
        (
            "li r1, 3\nld r2, 0(r1)\nhalt\n",
            "core0 faulted at pc 1: unaligned access at 0x3",
        ),
        (
            "li r1, 3\nst r1, 0(r1)\nhalt\n",
            "core0 faulted at pc 1: unaligned access at 0x3",
        ),
    ] {
        let mut stderrs = Vec::new();
        for engine in [&[][..], &["--no-active-set"]] {
            let mut args = vec!["--cores", "4", "--json"];
            args.extend(engine);
            let out = simcmp_on(source, &args);
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            assert_eq!(
                out.status.code(),
                Some(2),
                "{source:?} {engine:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{source:?}: a report was printed");
            assert!(stderr.contains(fault), "{source:?} {engine:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{source:?}: {stderr}");
            stderrs.push(stderr);
        }
        assert_eq!(stderrs[0], stderrs[1], "{source:?}: the engines disagree");
    }
}

//! `simcmp` — assemble and run programs on the simulated CMP.
//!
//! ```text
//! simcmp PROGRAM.s [PROGRAM2.s …] [options]
//!
//!   One program file: every core runs it (SPMD).
//!   N program files:  core i runs the i-th file; N must equal --cores.
//!
//! Options:
//!   --cores N          number of cores (default 4; mesh is the squarest
//!                      factorization)
//!   --mesh RxC         explicit mesh geometry, e.g. --mesh 16x16 (the
//!                      core count is R*C; combined with --cores the two
//!                      must agree). Meshes beyond the flat G-line budget
//!                      automatically use the two-level clustered barrier
//!                      network, traced or not
//!   --gl-transmitters N  transmitters per G-line (default 7; sets the
//!                      flat-network limit and the clustered network's
//!                      cluster dimension N+1)
//!   --config FILE      machine parameters from a JSON file (the
//!                      sections mesh, core, l1, l2, noc, mem, gline of
//!                      `CmpConfig`) in place of the paper's Table 1;
//!                      its mesh stands unless --cores or --mesh is
//!                      given, and --gl-transmitters still overrides
//!   --max-cycles N     deadlock guard (default 100_000_000)
//!   --poke ADDR=VAL    pre-load a memory word (repeatable; hex or dec;
//!                      ADDR 8-byte aligned)
//!   --peek ADDR        print a memory word after the run (repeatable;
//!                      ADDR 8-byte aligned)
//!   --json             print the full report as JSON
//!   --breakdown        print the per-category cycle breakdown
//!   --progress N       print a status line every N cycles
//!   --no-active-set    run the dense reference engine: visit every
//!                      router/home/core every cycle and never jump the
//!                      clock (the report, --peek output and --trace
//!                      file are bit-identical either way)
//!   --sched-stats      print scheduler diagnostics after the run:
//!                      clock jumps evaluated/taken, the mean
//!                      active-set occupancy per subsystem, the core
//!                      steps run vs. elided, and the NoC's router
//!                      visits vs. flits passed through idle routers
//!   --trace FILE       stream every event to a Chrome trace_event
//!                      JSON file (open in about://tracing or Perfetto);
//!                      the file is opened before the run and finished
//!                      whether or not the run halts
//!   --trace-last N     keep the last N events in a ring and print them
//!                      to stderr after the run, whether or not it halts
//! ```
//!
//! Exit code 0 on success, 1 on usage, assembly or config errors or a
//! failed `--trace` write, 2 on a run that does not halt: a program
//! fault (`barw` of zero, `barctx` past the network's contexts, a jump
//! outside the program, an unaligned `ld`/`st`/`amo*` — named with the
//! faulting core and pc) or the `--max-cycles` deadlock guard.

use sim_base::config::CmpConfig;
use sim_base::json::ToJson;
use sim_base::stats::TimeCat;
use sim_base::trace::{ChromeSink, RingSink, Tracer};
use sim_base::Mesh2D;
use sim_cmp::System;
use sim_isa::{assemble, Program};
use std::fs::File;

fn parse_num(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Parses a `--poke`/`--peek` address: a number on an 8-byte boundary,
/// the machine's word size.
fn parse_addr(flag: &str, s: &str) -> u64 {
    let a = parse_num(s).unwrap_or_else(|| die(&format!("bad {flag} address {s}")));
    if !a.is_multiple_of(8) {
        die(&format!("{flag} address {s} is not 8-byte aligned"));
    }
    a
}

fn die(msg: &str) -> ! {
    eprintln!("simcmp: {msg}");
    std::process::exit(1);
}

/// Parses `RxC` (e.g. `16x16`) into nonzero mesh dimensions.
fn parse_mesh(s: &str) -> Option<(u16, u16)> {
    let (r, c) = s.split_once(['x', 'X'])?;
    let (r, c) = (r.parse().ok()?, c.parse().ok()?);
    (r > 0 && c > 0).then_some((r, c))
}

/// Reads a `--config` file, exiting with the parser's or the
/// validator's named-field diagnostic if it does not hold a machine.
fn read_config(path: &str) -> CmpConfig {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    sim_base::json::parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|v| CmpConfig::from_json(&v))
        .unwrap_or_else(|e| die(&format!("--config {path}: {e}")))
}

/// Builds the run configuration from the `--config` file (Table 1
/// without one) and the geometry flags, exiting with a named-field
/// diagnostic instead of a panic on an inconsistent request.
fn build_config(
    base: Option<CmpConfig>,
    cores: usize,
    cores_explicit: bool,
    mesh: Option<(u16, u16)>,
    gl_transmitters: Option<u32>,
) -> CmpConfig {
    let mut cfg = base.unwrap_or_else(CmpConfig::icpp2010);
    match mesh {
        Some((r, c)) => {
            let n = r as usize * c as usize;
            if cores_explicit && n != cores {
                die(&format!(
                    "--mesh {r}x{c} is {n} cores but the run has {cores} cores"
                ));
            }
            cfg.mesh = Mesh2D::new(r, c);
        }
        None if cores_explicit || base.is_none() => cfg.mesh = Mesh2D::squarest(cores),
        None => {}
    }
    if let Some(t) = gl_transmitters {
        cfg.gline.max_transmitters = t;
    }
    cfg.validate().unwrap_or_else(|e| die(&e));
    cfg
}

/// Everything main() parsed that the run loop needs.
struct Opts {
    max_cycles: u64,
    pokes: Vec<(u64, u64)>,
    peeks: Vec<u64>,
    json: bool,
    breakdown: bool,
    progress: Option<u64>,
    cores: usize,
    no_active_set: bool,
    sched_stats: bool,
}

/// Where the events of the run go: nowhere, a Chrome trace file
/// (`--trace`) or a ring printed after the run (`--trace-last`).
enum Sink {
    None,
    Chrome(String),
    Ring(usize),
}

/// Builds and runs the machine, prints the report (or why the run did
/// not halt), then writes or prints the events — on every outcome, so
/// a deadlocked or faulting run keeps its trace. Exits 2 when the run
/// did not halt.
fn run(cfg: CmpConfig, progs: Vec<Program>, sink: Sink, opts: &Opts) {
    // Open the trace file first: an unwritable path fails before the
    // run, not after it.
    let tracer = match &sink {
        Sink::None => Tracer::default(),
        Sink::Chrome(path) => {
            let file = File::create(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            Tracer::new(ChromeSink::new(file))
        }
        Sink::Ring(last) => Tracer::new(RingSink::new(*last)),
    };
    let mut sys = System::new(cfg, progs);
    sys.set_active_set_enabled(!opts.no_active_set);
    sys.set_trace(tracer);
    for &(a, v) in &opts.pokes {
        sys.poke_word(a, v);
    }
    let outcome = match opts.progress {
        Some(every) => sys.run_with_progress(opts.max_cycles, every, |rep| {
            eprintln!(
                "[cycle {:>10}] {} instructions, {} NoC messages, {} GL barriers",
                rep.cycles,
                rep.instructions,
                rep.traffic.total(),
                rep.gl_barriers
            );
        }),
        None => sys.run(opts.max_cycles),
    };
    let halted = finish(&sys, outcome, opts);
    let tracer = sys.take_trace();
    match sink {
        Sink::None => {}
        Sink::Chrome(path) => {
            let count = tracer
                .with_sink(|s: &mut ChromeSink<File>| s.finish())
                .unwrap_or_else(|e| die(&format!("--trace {path}: {e}")));
            eprintln!("wrote {count} events to {path}");
        }
        Sink::Ring(_) => tracer.with_sink(|s: &mut RingSink| {
            eprintln!(
                "--- last {} of {} events ---\n{}",
                s.len(),
                s.total_seen(),
                s.dump()
            );
        }),
    }
    if !halted {
        std::process::exit(2);
    }
}

/// Prints the report (or the deadlock diagnostic) for a finished run.
/// Returns whether the run halted.
fn finish(sys: &System, outcome: Result<u64, String>, opts: &Opts) -> bool {
    match outcome {
        Ok(cycles) => {
            let rep = sys.report();
            if opts.json {
                println!("{}", rep.to_json().pretty());
            } else {
                eprintln!(
                    "halted after {cycles} cycles ({} instructions, IPC {:.2})",
                    rep.instructions,
                    rep.instructions as f64 / (cycles.max(1) as f64 * opts.cores as f64)
                );
                eprintln!(
                    "L1: {} hits / {} misses; NoC messages: {}; GL barriers: {}",
                    rep.l1_hits,
                    rep.l1_misses,
                    rep.traffic.total(),
                    rep.gl_barriers
                );
                if opts.breakdown {
                    for cat in TimeCat::ALL {
                        eprintln!(
                            "  {:<8} {:>6.2}%",
                            cat.label(),
                            100.0 * rep.time_fraction(cat)
                        );
                    }
                }
            }
            if opts.sched_stats {
                let skip = sys.skip_stats();
                let core = sys.core_sched_stats();
                let mem = sys.mem_sched_stats();
                let noc = sys.noc_sched_stats();
                eprintln!(
                    "skip: {} attempts, {} skips ({} cycles)",
                    skip.attempts, skip.skips, skip.cycles_skipped
                );
                eprintln!(
                    "active sets: {:.2} cores, {:.2} homes, {:.2} routers (mean per ticked cycle)",
                    core.mean_active_cores(),
                    mem.mean_busy_homes(),
                    noc.mean_active_routers()
                );
                eprintln!(
                    "core steps: {} run, {} stall steps and {} spin steps elided",
                    core.core_steps, core.parked_steps, core.spin_parked_steps
                );
                eprintln!(
                    "noc: {} router visits, {} flits passed through idle routers",
                    noc.router_visits, noc.transits
                );
            }
            for &a in &opts.peeks {
                println!("[0x{a:x}] = {}", sys.peek_word(a));
            }
            true
        }
        Err(e) => {
            eprintln!("simcmp: {e}");
            false
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: simcmp PROGRAM.s [PROGRAM2.s …] [--cores N] [--mesh RxC]");
        eprintln!("              [--gl-transmitters N] [--config FILE] [--max-cycles N]");
        eprintln!("              [--poke ADDR=VAL]… [--peek ADDR]… [--json] [--breakdown]");
        eprintln!("              [--progress N] [--no-active-set] [--sched-stats]");
        eprintln!("              [--trace FILE] [--trace-last N]");
        std::process::exit(if args.is_empty() { 1 } else { 0 });
    }

    let mut files = Vec::new();
    let mut cores = 4usize;
    let mut cores_explicit = false;
    let mut max_cycles = 100_000_000u64;
    let mut pokes: Vec<(u64, u64)> = Vec::new();
    let mut peeks: Vec<u64> = Vec::new();
    let mut json = false;
    let mut breakdown = false;
    let mut progress: Option<u64> = None;
    let mut no_active_set = false;
    let mut sched_stats = false;
    let mut mesh: Option<(u16, u16)> = None;
    let mut gl_transmitters: Option<u32> = None;
    let mut base: Option<CmpConfig> = None;
    let mut trace_file: Option<String> = None;
    let mut trace_last: Option<usize> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cores" => {
                cores = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| (1..=u16::MAX as usize).contains(n))
                    .unwrap_or_else(|| die("--cores needs a number between 1 and 65535"));
                cores_explicit = true;
            }
            "--mesh" => {
                mesh = Some(
                    it.next()
                        .as_deref()
                        .and_then(parse_mesh)
                        .unwrap_or_else(|| die("--mesh needs RxC with nonzero dimensions")),
                );
            }
            "--gl-transmitters" => {
                gl_transmitters = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--gl-transmitters needs a number")),
                );
            }
            "--config" => {
                let path = it
                    .next()
                    .unwrap_or_else(|| die("--config needs a file name"));
                base = Some(read_config(&path));
            }
            "--max-cycles" => {
                max_cycles = it
                    .next()
                    .and_then(|v| parse_num(&v))
                    .unwrap_or_else(|| die("--max-cycles needs a number"));
            }
            "--poke" => {
                let spec = it.next().unwrap_or_else(|| die("--poke needs ADDR=VAL"));
                let (a, v) = spec
                    .split_once('=')
                    .unwrap_or_else(|| die("--poke needs ADDR=VAL"));
                pokes.push((
                    parse_addr("--poke", a),
                    parse_num(v).unwrap_or_else(|| die("bad poke value")),
                ));
            }
            "--peek" => {
                let a = it.next().unwrap_or_else(|| die("--peek needs ADDR"));
                peeks.push(parse_addr("--peek", &a));
            }
            "--json" => json = true,
            "--breakdown" => breakdown = true,
            "--no-active-set" => no_active_set = true,
            "--sched-stats" => sched_stats = true,
            "--progress" => {
                progress = Some(
                    it.next()
                        .and_then(|v| parse_num(&v))
                        .filter(|&every| every > 0)
                        .unwrap_or_else(|| die("--progress needs a nonzero cycle count")),
                );
            }
            "--trace" => {
                trace_file = Some(
                    it.next()
                        .unwrap_or_else(|| die("--trace needs a file name")),
                );
            }
            "--trace-last" => {
                trace_last = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--trace-last needs an event count")),
                );
            }
            f if !f.starts_with("--") => files.push(f.to_string()),
            other => die(&format!("unknown option {other}")),
        }
    }
    if trace_file.is_some() && trace_last.is_some() {
        die("--trace and --trace-last are mutually exclusive");
    }
    let sink = match (trace_file, trace_last) {
        (Some(path), _) => Sink::Chrome(path),
        (None, Some(last)) => Sink::Ring(last),
        (None, None) => Sink::None,
    };

    if files.is_empty() {
        die("no program files given");
    }

    let sources: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap_or_else(|e| die(&format!("{f}: {e}"))))
        .collect();
    let progs: Vec<Program> = sources
        .iter()
        .zip(&files)
        .map(|(src, f)| match assemble(src) {
            Ok(p) => p,
            Err(e) => die(&format!("{f}: {e}")),
        })
        .collect();

    let cfg = build_config(base, cores, cores_explicit, mesh, gl_transmitters);
    let cores = cfg.num_cores();
    let progs = if progs.len() == 1 {
        vec![progs[0].clone(); cores]
    } else if progs.len() == cores {
        progs
    } else {
        die(&format!(
            "{} program files but the run has {cores} cores",
            progs.len()
        ));
    };

    let opts = Opts {
        max_cycles,
        pokes,
        peeks,
        json,
        breakdown,
        progress,
        cores,
        no_active_set,
        sched_stats,
    };

    run(cfg, progs, sink, &opts);
}

//! `glbench` command line. See `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use glbench::compare::{self, print_metrics};
use glbench::metrics::{driver_per_layer, END_TO_END, RUN_SECONDS};
use glbench::probe::{self, ProbeCosts};
use glbench::result::{write_json, Metrics, ResultFile, WorkloadResult};
use glbench::runner::{self, Options};
use glbench::span::{self, Tracer};
use glbench::{clock, metrics, out_dir, workload};
use sim_base::json::Json;

const USAGE: &str = "\
usage: glbench run --all [--seed S] [--smoke] [--out FILE]
       glbench run --workload W [--seed S] [--seconds N] [--trace 0|1]
                   [--smoke] [--out FILE]
       glbench trace --workload W [--seed S] [--seconds N] [--smoke]
       glbench probe [--seed S] [--smoke] [--out FILE]
       glbench compare OLD.json NEW.json
       glbench agree A.json B.json
       glbench manifest";

/// Parsed `--flag [value]` arguments and positionals.
struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(flag) => {
                    let value = it.next_if(|v| !v.starts_with("--")).cloned();
                    args.flags.push((flag.to_string(), value));
                }
                None => args.positional.push(a.clone()),
            }
        }
        args
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("--{flag} needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{flag}: `{v}` is not a valid number")),
        }
    }

    fn switch(&self, flag: &str) -> Result<Option<bool>, String> {
        match self.number::<u8>(flag)? {
            None => Ok(None),
            Some(0) => Ok(Some(false)),
            Some(1) => Ok(Some(true)),
            Some(_) => Err(format!("--{flag} takes 0 or 1")),
        }
    }
}

/// The line the benchmark driver reads: the bounded end-to-end metrics
/// of an untraced run, or every per-layer metric and `paper_err` of a
/// traced one (zero where a metric does not apply to the workload).
fn driver_line(w: &WorkloadResult, traced: bool) -> Json {
    let value =
        |v: f64, unit: &str| Json::obj([("value", Json::from(v)), ("unit", Json::from(unit))]);
    let metrics: Vec<(&str, Json)> = if traced {
        driver_per_layer()
            .map(|(name, unit, _)| {
                let found = w.per_layer(name).or_else(|| w.end_to_end(name));
                (name, value(found.map_or(0.0, |s| s.value), unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.bound.is_some())
            .filter_map(|m| Some((m.name, value(w.end_to_end(m.name)?.value, m.unit))))
            .collect()
    };
    Json::obj([
        ("correct", Json::from(w.failed == 0)),
        ("attempted", Json::from(w.attempted)),
        ("failed", Json::from(w.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn add_attribution(w: &mut WorkloadResult, probes: &Metrics) {
    if let Some(costs) = ProbeCosts::from_metrics(probes) {
        w.per_layer.extend(runner::attribution(w, &costs));
    }
}

/// `run --workload W` and `trace --workload W`: the second is the first
/// with `--trace 1` and without the probes.
fn run_workload(args: &Args, name: &str, trace_only: bool) -> Result<ExitCode, String> {
    let def = workload::find(name).ok_or_else(|| {
        let names: Vec<_> = workload::ALL.iter().map(|d| d.name).collect();
        format!(
            "unknown workload `{name}`; the workloads are {}",
            names.join(", ")
        )
    })?;
    let trace = trace_only || args.switch("trace")?.unwrap_or(false);
    let opts = Options {
        seed: args.number("seed")?.unwrap_or(0),
        smoke: args.has("smoke"),
        seconds: args.number("seconds")?.unwrap_or(RUN_SECONDS as f64),
        trace,
    };

    println!(
        "workload {} — seed {}{}{}",
        def.name,
        opts.seed,
        if def.seeded {
            ""
        } else {
            " (no random input: the seed changes nothing)"
        },
        if opts.smoke {
            " — smoke sizes, timings not comparable"
        } else {
            ""
        }
    );
    let mut tr = Tracer::new(trace);
    let mut result = runner::run(def, &opts, &mut tr);
    let mut probes = Metrics::new();
    if trace && !trace_only {
        probes = probe::run(&mut tr, opts.seed, probe_samples(opts.smoke));
        add_attribution(&mut result, &probes);
        result.per_layer.extend(probes.iter().cloned());
    }
    print_metrics(
        "end-to-end (timings: sum of each simulation's fastest sample; in brackets, the same over each half of the samples)",
        &result.end_to_end,
    );
    print_metrics("per-layer (traced passes, probes)", &result.per_layer);
    if trace {
        let path = out_dir().join(format!("trace.{}.json", def.name));
        write_json(&path, &span::chrome_json(tr.spans()))?;
        println!("trace written to {}", path.display());
    }
    let line = driver_line(&result, trace);
    let failed = result.failed;
    if let Some(out) = args.value("out") {
        let file = ResultFile {
            seed: opts.seed,
            smoke: opts.smoke,
            host: Json::Null,
            workloads: vec![result],
            probes,
        };
        file.write(Path::new(out))?;
    } else {
        // Without a result file, the last line is the machine-readable
        // result the benchmark driver reads.
        println!("{}", line.dump());
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn probe_samples(smoke: bool) -> usize {
    if smoke {
        probe::SMOKE_SAMPLES
    } else {
        probe::SAMPLES
    }
}

/// Starts this program again with `args` and waits for it: one process
/// per workload, so `peak_rss_mb` is that workload's own.
fn child(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let status = Command::new(exe)
        .args(args)
        .status()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    Ok(status.success())
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("seed")?.unwrap_or(0);
    let smoke = args.has("smoke");
    let started = clock::now();
    let mut ok = true;
    // Runs `glbench <command> <extra> --seed S [--smoke] --out <part>` in
    // a process of its own and reads back what it measured.
    let mut part = |command: &str, extra: &[&str]| -> Result<ResultFile, String> {
        let path = out_dir().join(format!("part-{}.json", std::process::id()));
        let mut a: Vec<String> = vec![command.into()];
        a.extend(extra.iter().map(|s| s.to_string()));
        a.extend(["--seed".into(), seed.to_string()]);
        if smoke {
            a.push("--smoke".into());
        }
        a.extend(["--out".into(), path.display().to_string()]);
        ok &= child(&a)?;
        let file = ResultFile::read(&path);
        let _ = std::fs::remove_file(&path);
        file
    };

    // End-to-end metrics from untraced runs, per-layer metrics from
    // traced ones, the probes once; each in its own process.
    let mut file = ResultFile {
        seed,
        smoke,
        host: clock::host_json(),
        workloads: Vec::new(),
        probes: Vec::new(),
    };
    for def in &workload::ALL {
        file.workloads
            .extend(part("run", &["--workload", def.name, "--trace", "0"])?.workloads);
    }
    for w in &mut file.workloads {
        let traced = part("trace", &["--workload", w.name.as_str()])?
            .workloads
            .pop()
            .ok_or("a traced run measured nothing")?;
        w.attempted += traced.attempted;
        w.failed += traced.failed;
        w.failures.extend(traced.failures);
        w.per_layer = traced.per_layer;
        w.sims = traced.sims;
    }
    file.probes = part("probe", &[])?.probes;

    println!("attribution estimate (a model: in-run count x isolated unit cost / wall_s)");
    for w in &mut file.workloads {
        let before = w.per_layer.len();
        add_attribution(w, &file.probes);
        for (name, s) in &w.per_layer[before..] {
            println!("  {:<14} {name:<28} {:>8.3}", w.name, s.value);
        }
    }
    let out = args
        .value("out")
        .map_or_else(|| out_dir().join("result.json"), PathBuf::from);
    file.write(&out)?;
    let failed: u64 = file.workloads.iter().map(|w| w.failed).sum();
    let attempted: u64 = file.workloads.iter().map(|w| w.attempted).sum();
    println!(
        "{} workloads, {failed} of {attempted} simulations failed, {:.1} s; result written to {}",
        file.workloads.len(),
        started.elapsed_s(),
        out.display()
    );
    Ok(if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn probe_only(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed")?.unwrap_or(0);
    let smoke = args.has("smoke");
    let probes = probe::run(&mut Tracer::new(false), seed, probe_samples(smoke));
    print_metrics("isolated-layer probes (host ns per call)", &probes);
    if let Some(out) = args.value("out") {
        let file = ResultFile {
            seed,
            smoke,
            host: Json::Null,
            workloads: Vec::new(),
            probes,
        };
        file.write(Path::new(out))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn two_files(args: &Args) -> Result<(ResultFile, ResultFile), String> {
    match args.positional.as_slice() {
        [a, b] => Ok((
            ResultFile::read(Path::new(a))?,
            ResultFile::read(Path::new(b))?,
        )),
        _ => Err("expected two result files".into()),
    }
}

fn dispatch(raw: &[String]) -> Result<ExitCode, String> {
    let Some((command, rest)) = raw.split_first() else {
        return Err("no command".into());
    };
    let args = Args::parse(rest);
    match command.as_str() {
        "run" if args.has("all") => run_all(&args),
        "run" | "trace" => {
            let name = args
                .value("workload")
                .ok_or("--workload W (or --all) is required")?;
            run_workload(&args, name, command == "trace")
        }
        "probe" => probe_only(&args),
        "compare" | "agree" => {
            let (a, b) = two_files(&args)?;
            let report = if command == "compare" {
                compare::compare(&a, &b)
            } else {
                compare::agree(&a, &b)
            };
            for line in &report.lines {
                println!("{line}");
            }
            println!(
                "{} worse or differing, {} unresolved",
                report.worse, report.unresolved
            );
            // `compare` informs; `agree` is a gate.
            Ok(if command == "agree" && report.worse > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "manifest" => {
            println!("{}", metrics::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("glbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

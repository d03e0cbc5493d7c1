//! The only place the benchmark reads the host: the monotonic clock,
//! `/proc`, and the toolchain/commit provenance of a run.
//!
//! `simlint` (run from the repo root) forbids wall-clock reads outside
//! `crates/bench/`, so every one of them is confined to this file behind
//! an escape with its rationale.

use std::process::Command;
use std::time::Instant;

use sim_base::json::Json;

/// A point on the host's monotonic clock.
#[derive(Clone, Copy, Debug)]
pub struct Stamp(Instant);

/// Reads the host clock.
pub fn now() -> Stamp {
    // simlint: allow(wall-clock) — measuring host time is this program's
    // purpose; nothing read here reaches a simulation.
    Stamp(Instant::now())
}

impl Stamp {
    /// Host seconds since this stamp was taken.
    pub fn elapsed_s(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Host seconds from `earlier` to this stamp.
    pub fn since_s(self, earlier: Stamp) -> f64 {
        self.0.duration_since(earlier.0).as_secs_f64()
    }
}

/// Times one call, in host seconds.
pub fn time_s<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = now();
    let out = f();
    (out, t.elapsed_s())
}

/// Peak resident set (`VmHWM`) of this process in MB, or `None` where
/// `/proc/self/status` does not exist or does not have the field.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and with what a result was measured: logical CPUs, CPU model,
/// compiler and commit. Fields the host cannot answer are `null` (the
/// driver's checkout, for one, is not a git repository).
pub fn host_json() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|m| m.trim().to_string())
    });
    let opt = |s: Option<String>| s.map_or(Json::Null, Json::from);
    Json::obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("cpu_model", opt(cpu_model)),
        ("rustc", opt(command_line("rustc", &["--version"]))),
        (
            "commit",
            opt(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

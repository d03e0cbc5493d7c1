//! # glbench — the repo benchmark
//!
//! Five named workloads, end-to-end and per-layer metrics, output
//! checks, a traced run and a comparator for the G-line CMP simulator.
//! See `README.md` in this directory for what each workload stresses and
//! how the metrics interact; `BENCHMARK.json` at the repo root is the
//! contract later changes are judged against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod compare;
pub mod metrics;
pub mod probe;
pub mod result;
pub mod runner;
pub mod span;
pub mod stats;
pub mod sut;
pub mod workload;

/// Where result files, traces and scratch trace sets go: `out/` beside
/// this package's manifest (ignored by git), wherever the benchmark is
/// started from.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

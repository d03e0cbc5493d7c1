//! The five named workloads. Names are fixed: later issues cite them.
//!
//! One *operation* is one simulation; a *pass* runs every simulation of
//! the workload once. The seed reaches only the input generators — the
//! program under test receives the generated programs and nothing else.

use crate::sut::{Gen, Kind, SimSpec};

/// How a workload drives its simulations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Construct, `run`, `report`.
    Exec,
    /// `run_recorded` once, `write_dir` → `read_dir` through a temporary
    /// directory, then `System::replay(..).run` this many times.
    RecordReplay {
        /// Replays per recording.
        replays: usize,
    },
}

/// One workload: its simulations and why it is in the benchmark.
pub struct Def {
    /// Fixed name.
    pub name: &'static str,
    /// Why this workload: what it stresses (one line; also the `why` of
    /// `BENCHMARK.json`).
    pub why: &'static str,
    /// How the simulations are driven.
    pub mode: Mode,
    /// Whether `--seed` changes the inputs. The two sweeps have no random
    /// input; their output says so.
    pub seeded: bool,
    /// Check Figure 5's ordering (GL < DSW < CSW cycles per barrier at
    /// two cores and up) among the simulations of one core count.
    pub ordered: bool,
    /// The simulations, for a seed, at full or smoke size.
    pub specs: fn(seed: u64, smoke: bool) -> Vec<SimSpec>,
}

/// Cores of the paper's Table-1 machine.
const PAPER_CORES: usize = 32;

/// Arrival stagger of the imbalanced programs. The seed moves it by at
/// most 2 %: simulated cycles are proportional to it while host time is
/// not, so a wider range would show up as run-to-run spread of
/// `sim_cycles_per_s` between seeds rather than as a property of the
/// code under test.
fn stagger(seed: u64) -> u32 {
    1000 + (seed % 21) as u32
}

fn spec(name: String, cores: usize, kind: Kind, gen: Gen, div: u64) -> SimSpec {
    SimSpec {
        name,
        cores,
        kind,
        gen,
        div,
    }
}

fn paper_eval(seed: u64, smoke: bool) -> Vec<SimSpec> {
    let mut gens = vec![
        ("kernel2", Gen::Kernel2),
        ("kernel3", Gen::Kernel3),
        ("kernel6", Gen::Kernel6),
        ("unstructured", Gen::Unstructured(seed)),
        ("ocean", Gen::Ocean(seed)),
        ("em3d", Gen::Em3d(seed)),
    ];
    if smoke {
        gens.retain(|&(_, g)| g != Gen::Kernel6);
    }
    let div = if smoke { 4 } else { 1 };
    gens.iter()
        .flat_map(|&(name, gen)| {
            [Kind::Dsw, Kind::Gl].map(|kind| {
                spec(
                    format!("{name}.{}", kind.label()),
                    PAPER_CORES,
                    kind,
                    gen,
                    div,
                )
            })
        })
        .collect()
}

fn barrier_sweep(_seed: u64, smoke: bool) -> Vec<SimSpec> {
    let iters = if smoke { 6 } else { 25 };
    [1usize, 2, 4, 8, 16, 32]
        .iter()
        .flat_map(|&n| {
            [Kind::Csw, Kind::Dsw, Kind::Gl].map(|kind| {
                spec(
                    format!("n{n}.{}", kind.label()),
                    n,
                    kind,
                    Gen::Synthetic { iters },
                    1,
                )
            })
        })
        .collect()
}

fn scale_sweep(_seed: u64, smoke: bool) -> Vec<SimSpec> {
    let (iters, max_cores) = if smoke { (2, 256) } else { (8, 1024) };
    [32usize, 64, 256, 1024]
        .iter()
        .filter(|&&n| n <= max_cores)
        .flat_map(|&n| {
            [Kind::Dsw, Kind::Gl].map(|kind| {
                spec(
                    format!("n{n}.{}", kind.label()),
                    n,
                    kind,
                    Gen::Synthetic { iters },
                    1,
                )
            })
        })
        .collect()
}

fn wait_skip(seed: u64, smoke: bool) -> Vec<SimSpec> {
    // Iteration counts sized so each kind costs a similar host time.
    let div = if smoke { 4 } else { 1 };
    [(Kind::Gl, 2000u64), (Kind::Dsw, 200), (Kind::Csw, 50)]
        .iter()
        .map(|&(kind, iters)| {
            let gen = Gen::Imbalanced {
                iters: iters / div,
                stagger: stagger(seed),
            };
            spec(
                format!("imbalanced.{}", kind.label()),
                PAPER_CORES,
                kind,
                gen,
                1,
            )
        })
        .collect()
}

/// The six programs of `synthetic::barrier_matrix(32, iters, stagger)`:
/// contended and imbalanced, for every barrier kind.
fn trace_replay(seed: u64, smoke: bool) -> Vec<SimSpec> {
    let iters = if smoke { 1 } else { 6 };
    [Kind::Gl, Kind::Csw, Kind::Dsw]
        .iter()
        .flat_map(|&kind| {
            [
                spec(
                    format!("contended.{}", kind.label()),
                    PAPER_CORES,
                    kind,
                    Gen::Synthetic { iters },
                    1,
                ),
                spec(
                    format!("imbalanced.{}", kind.label()),
                    PAPER_CORES,
                    kind,
                    Gen::Imbalanced {
                        iters,
                        stagger: stagger(seed),
                    },
                    1,
                ),
            ]
        })
        .collect()
}

/// Every workload, in the order they run.
pub static ALL: [Def; 5] = [
    Def {
        name: "paper_eval",
        why: "Fig. 6/7 + Table 2 set, 12 sims on the 32-core machine: what regenerating the paper costs; memory-bound, so core stepping, sim-mem and sim-noc do the work and the skip scheduler almost none",
        mode: Mode::Exec,
        seeded: true,
        ordered: false,
        specs: paper_eval,
    },
    Def {
        name: "barrier_sweep",
        why: "Fig. 5, 1-32 cores x CSW/DSW/GL, back-to-back barriers with simultaneous arrival: the hot-spot regime (one directory line, invalidation storms, spin parking); about 1 % of cycles skip",
        mode: Mode::Exec,
        seeded: false,
        ordered: true,
        specs: barrier_sweep,
    },
    Def {
        name: "scale_sweep",
        why: "32-1024 cores x DSW/GL, clustered G-lines beyond 8x8: the only workload where machine size dominates (sharer sets, 32x32 mesh, O(N) scans, host memory); carries the 1024-core DSW point",
        mode: Mode::Exec,
        seeded: false,
        ordered: false,
        specs: scale_sweep,
    },
    Def {
        name: "wait_skip",
        why: "staggered arrival at 32 cores, wait-dominated: over 95 % of cycles are skipped and the GL run sends no NoC message, so the skip/active-set scheduler, core stepping and gline-core do the work",
        mode: Mode::Exec,
        seeded: true,
        ordered: false,
        specs: wait_skip,
    },
    Def {
        name: "trace_replay",
        why: "record once, write/read the trace set, replay 3x for six barrier programs: recording forces the dense tick and replay swaps ISA execution for the trace cursor, so it guards those paths",
        mode: Mode::RecordReplay { replays: 3 },
        seeded: true,
        ordered: false,
        specs: trace_replay,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Def> {
    ALL.iter().find(|d| d.name == name)
}

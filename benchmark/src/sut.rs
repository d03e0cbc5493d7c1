//! The adapter: every call the benchmark makes into the program under
//! test lives in this file, so a change to the program's constructors or
//! entry points costs the benchmark one file. `README.md` lists the entry
//! points used. Nothing here reads a clock; callers time these functions
//! from outside.

use std::hash::Hasher;
use std::path::Path;

use gline_core::{BarrierHw, BarrierNetwork, ClusteredBarrierNetwork};
use sim_base::config::{CmpConfig, GlineConfig};
use sim_base::fxmap::FxHasher;
use sim_base::json::ToJson;
use sim_base::stats::MsgClass;
use sim_base::{CoreId, Mesh2D};
use sim_cmp::{System, SystemReport};
use sim_isa::inst::AmoOp;
use sim_isa::interp::RefCmp;
use sim_isa::Program;
use sim_mem::{CoreReq, MemorySystem};
use sim_noc::{Message, Noc};
use workloads::common::Workload;
use workloads::{em3d, livermore, ocean, synthetic, unstructured};

pub use sim_cmp::runtime::BarrierKind as Kind;

/// Deadlock guard handed to every run; no workload comes near it.
const MAX_CYCLES: u64 = 20_000_000_000;

/// Which program generator makes a simulation's input. The six
/// benchmark entries use the `Scale::Quick` sizes of
/// `bench::experiments::benchmarks`; `div` shrinks them for smoke runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gen {
    /// Livermore kernel 2.
    Kernel2,
    /// Livermore kernel 3.
    Kernel3,
    /// Livermore kernel 6.
    Kernel6,
    /// UNSTRUCTURED with this generator seed XOR-ed in.
    Unstructured(u64),
    /// OCEAN, likewise.
    Ocean(u64),
    /// EM3D, likewise.
    Em3d(u64),
    /// `synthetic::build`: `iters` × 4 back-to-back barriers.
    Synthetic {
        /// Loop iterations.
        iters: u64,
    },
    /// `synthetic::build_imbalanced`: core `c` computes `c × stagger`
    /// cycles before each barrier.
    Imbalanced {
        /// Loop iterations.
        iters: u64,
        /// Per-core arrival stagger in cycles.
        stagger: u32,
    },
}

/// One simulation of a workload: what to generate, for how many cores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimSpec {
    /// Unique within its workload; names the per-simulation result row.
    pub name: String,
    /// Core count of the machine (Table-1 parameters otherwise).
    pub cores: usize,
    /// Barrier implementation baked into the programs.
    pub kind: Kind,
    /// Input generator.
    pub gen: Gen,
    /// Divisor applied to the benchmark entries' iteration counts
    /// (1 = the sizes the results are quoted at).
    pub div: u64,
}

/// A generated input, opaque to the rest of the benchmark.
pub struct Built(Workload);

/// Generates the programs and memory image of `spec`.
pub fn build(spec: &SimSpec) -> Built {
    let (n, kind, d) = (spec.cores, spec.kind, spec.div.max(1));
    let per = |x: u64| (x / d).max(1);
    Built(match spec.gen {
        Gen::Kernel2 => livermore::kernel2(n, kind, livermore::KernelParams::scaled(1024, per(40))),
        Gen::Kernel3 => livermore::kernel3(n, kind, livermore::KernelParams::scaled(1024, per(40))),
        Gen::Kernel6 => livermore::kernel6(n, kind, livermore::KernelParams::scaled(128, per(2))),
        Gen::Unstructured(seed) => {
            let mut p = unstructured::UnstructuredParams::scaled(256, 768, per(8));
            p.seed ^= seed;
            unstructured::build(n, kind, p)
        }
        Gen::Ocean(seed) => {
            let mut p = ocean::OceanParams::scaled(66, per(6));
            p.seed ^= seed;
            ocean::build(n, kind, p)
        }
        Gen::Em3d(seed) => {
            let mut p = em3d::Em3dParams::scaled(1024, per(20));
            p.seed ^= seed;
            em3d::build(n, kind, p)
        }
        Gen::Synthetic { iters } => synthetic::build(n, kind, iters),
        Gen::Imbalanced { iters, stagger } => synthetic::build_imbalanced(n, kind, iters, stagger),
    })
}

impl Built {
    /// Static instructions over all cores' programs.
    pub fn static_instrs(&self) -> u64 {
        self.0.progs.iter().map(|p| p.insts().len() as u64).sum()
    }

    /// Barrier episodes each core executes.
    pub fn barriers_per_core(&self) -> u64 {
        self.0.barriers_per_core
    }
}

/// The Table-1 machine scaled to `cores`, validated.
fn config(cores: usize) -> Result<CmpConfig, String> {
    let cfg = CmpConfig::icpp2010_with_cores(cores);
    cfg.validate()?;
    Ok(cfg)
}

/// A constructed machine: the flat G-line network where it fits, the
/// clustered one beyond the transmitter budget.
pub enum Machine {
    /// Flat single-level barrier network (≤ 8×8).
    Flat(System),
    /// Two-level clustered barrier network.
    Clustered(System<ClusteredBarrierNetwork>),
}

/// Runs `$body` with `$sys` bound to whichever system `$m` holds.
macro_rules! on_system {
    ($m:expr, $sys:ident => $body:expr) => {
        match $m {
            Machine::Flat($sys) => $body,
            Machine::Clustered($sys) => $body,
        }
    };
}

/// Validates the configuration and instantiates `built` on it, memory
/// image poked, caches cold, statistics collecting from cycle 0.
pub fn construct(built: &Built, cores: usize) -> Result<Machine, String> {
    let cfg = config(cores)?;
    Ok(if cfg.needs_clustered_gline() {
        let hw = ClusteredBarrierNetwork::new(cfg.mesh, cfg.gline);
        Machine::Clustered(built.0.into_system_with_hw(cfg, hw))
    } else {
        Machine::Flat(built.0.into_system(cfg))
    })
}

/// A machine that replays `set` instead of executing programs. Replay
/// is used on flat-network machines only.
pub fn construct_replay(set: &Traces, cores: usize) -> Result<Machine, String> {
    Ok(Machine::Flat(System::replay(config(cores)?, set)))
}

impl Machine {
    /// Runs to completion on the serial engine with the default
    /// skip + active-set scheduler. Returns the simulated cycles.
    pub fn run(&mut self) -> Result<u64, String> {
        on_system!(self, s => s.run(MAX_CYCLES))
    }

    /// Runs to completion on the dense recording engine, returning the
    /// cycles and the recorded trace set.
    pub fn run_recorded(&mut self, built: &Built) -> Result<(u64, Traces), String> {
        let (cycles, cores) = on_system!(self, s => s.run_recorded(MAX_CYCLES))?;
        let set = Traces {
            cores,
            pokes: built.0.pokes.clone(),
            workload: built.0.name.clone(),
        };
        Ok((cycles, set))
    }

    /// The finished run's report.
    pub fn report(&self) -> Report {
        Report(on_system!(self, s => s.report()))
    }

    /// Scheduler counters of the finished run, which the report leaves
    /// out.
    pub fn sched(&self) -> Sched {
        on_system!(self, s => {
            let (skip, core, mem, noc) = (
                s.skip_stats(),
                s.core_sched_stats(),
                s.mem_sched_stats(),
                s.noc_sched_stats(),
            );
            Sched {
                ticks: core.ticks,
                core_steps: core.core_steps,
                parked_steps: core.parked_steps,
                spin_parked_steps: core.spin_parked_steps,
                skip_attempts: skip.attempts,
                skips: skip.skips,
                cycles_skipped: skip.cycles_skipped,
                skip_backed_off: skip.backed_off,
                home_visits: mem.home_visits,
                delivery_visits: mem.delivery_visits,
                router_visits: noc.router_visits,
                inject_visits: noc.inject_visits,
                mem_ticks: mem.ticks,
                noc_ticks: noc.ticks,
            }
        })
    }
}

/// Scheduler counters of one run (`skip_stats`, `core_sched_stats`,
/// `mem_sched_stats`, `noc_sched_stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct Sched {
    pub ticks: u64,
    pub core_steps: u64,
    pub parked_steps: u64,
    pub spin_parked_steps: u64,
    pub skip_attempts: u64,
    pub skips: u64,
    pub cycles_skipped: u64,
    pub skip_backed_off: u64,
    pub home_visits: u64,
    pub delivery_visits: u64,
    pub router_visits: u64,
    pub inject_visits: u64,
    pub mem_ticks: u64,
    pub noc_ticks: u64,
}

/// Fieldwise `+=` for the counter structs.
macro_rules! add_fields {
    ($ty:ty { $($f:ident),* }) => {
        impl std::ops::AddAssign for $ty {
            fn add_assign(&mut self, o: $ty) {
                $(self.$f += o.$f;)*
            }
        }
    };
}

add_fields!(Sched {
    ticks,
    core_steps,
    parked_steps,
    spin_parked_steps,
    skip_attempts,
    skips,
    cycles_skipped,
    skip_backed_off,
    home_visits,
    delivery_visits,
    router_visits,
    inject_visits,
    mem_ticks,
    noc_ticks
});

add_fields!(ReportCounts {
    cycles,
    instructions,
    l1_hits,
    l1_misses,
    l2_hits,
    l2_misses,
    msgs_request,
    msgs_reply,
    msgs_coherence,
    flit_hops,
    gl_barriers,
    gl_signals,
    gl_latency_cycles
});

/// A run's `SystemReport`.
#[derive(Clone, Debug, PartialEq)]
pub struct Report(SystemReport);

/// The report fields the benchmark turns into counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[allow(missing_docs)]
pub struct ReportCounts {
    pub cycles: u64,
    pub instructions: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub msgs_request: u64,
    pub msgs_reply: u64,
    pub msgs_coherence: u64,
    pub flit_hops: u64,
    pub gl_barriers: u64,
    pub gl_signals: u64,
    /// Sum of the barrier latencies (mean × episodes), so it adds up.
    pub gl_latency_cycles: f64,
}

impl Report {
    /// G-line barrier episodes completed in hardware.
    pub fn gl_barriers(&self) -> u64 {
        self.0.gl_barriers
    }

    /// The counters.
    pub fn counts(&self) -> ReportCounts {
        let r = &self.0;
        ReportCounts {
            cycles: r.cycles,
            instructions: r.instructions,
            l1_hits: r.l1_hits,
            l1_misses: r.l1_misses,
            l2_hits: r.l2_hits,
            l2_misses: r.l2_misses,
            msgs_request: r.traffic[MsgClass::Request],
            msgs_reply: r.traffic[MsgClass::Reply],
            msgs_coherence: r.traffic[MsgClass::Coherence],
            flit_hops: r.flit_hops,
            gl_barriers: r.gl_barriers,
            gl_signals: r.gl_signals,
            gl_latency_cycles: r.gl_mean_latency * r.gl_barriers as f64,
        }
    }

    /// Feeds every field of the report to `h` (through its JSON form,
    /// which spells all of them out).
    pub fn hash_into(&self, h: &mut FxHasher) {
        h.write(self.0.to_json().dump().as_bytes());
    }

    /// Names the first field in which `other` differs, with both values.
    pub fn first_difference(&self, other: &Report) -> Option<String> {
        let (a, b) = (&self.0, &other.0);
        macro_rules! field {
            ($($f:ident),*) => {
                $(if a.$f != b.$f {
                    return Some(format!(
                        concat!(stringify!($f), ": {:?} vs {:?}"), a.$f, b.$f
                    ));
                })*
            };
        }
        field!(cycles);
        if a.per_core.len() != b.per_core.len() {
            return Some(format!(
                "per_core.len: {} vs {}",
                a.per_core.len(),
                b.per_core.len()
            ));
        }
        if let Some(i) = (0..a.per_core.len()).find(|&i| a.per_core[i] != b.per_core[i]) {
            return Some(format!(
                "per_core[{i}]: {:?} vs {:?}",
                a.per_core[i], b.per_core[i]
            ));
        }
        field!(
            total_time,
            traffic,
            flit_hops,
            gl_barriers,
            gl_mean_latency,
            gl_signals,
            instructions,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses
        );
        None
    }
}

/// A fresh report-fingerprint hasher.
pub fn fingerprint_hasher() -> FxHasher {
    FxHasher::default()
}

// ---------------------------------------------------------------------
// sim-trace
// ---------------------------------------------------------------------

/// A recorded trace set, opaque to the rest of the benchmark.
pub use sim_trace::TraceSet as Traces;

/// `sim_trace::write_dir`.
pub fn write_traces(dir: &Path, set: &Traces) -> Result<(), String> {
    sim_trace::write_dir(dir, set).map_err(|e| e.to_string())
}

/// `sim_trace::read_dir`.
pub fn read_traces(dir: &Path) -> Result<Traces, String> {
    sim_trace::read_dir(dir).map_err(|e| e.to_string())
}

/// Encodes every core trace of `set` with `sim_trace::encode_core`.
pub fn encode_traces(set: &Traces) -> Vec<Vec<u8>> {
    set.cores.iter().map(sim_trace::encode_core).collect()
}

/// Decodes `blobs` with `sim_trace::decode_core`; true when they decode
/// back to the traces of `set`.
pub fn decode_traces(blobs: &[Vec<u8>], set: &Traces) -> Result<bool, String> {
    let mut same = blobs.len() == set.cores.len();
    for (blob, want) in blobs.iter().zip(&set.cores) {
        let got = sim_trace::decode_core(blob).map_err(|e| e.to_string())?;
        same &= got == *want;
    }
    Ok(same)
}

// ---------------------------------------------------------------------
// Isolated layers, for the probes
// ---------------------------------------------------------------------

/// A bare `sim-mem` hierarchy (with its NoC) driven the way a core
/// drives it: `request`, then `tick` until `poll` answers.
pub struct MemProbe {
    mem: MemorySystem,
}

impl MemProbe {
    /// The Table-1 memory system scaled to `cores`.
    pub fn new(cores: usize) -> MemProbe {
        let cfg = config(cores).expect("probe configurations are valid");
        MemProbe {
            mem: MemorySystem::new(&cfg),
        }
    }

    fn complete(&mut self, cores: impl Iterator<Item = usize>, req: CoreReq) {
        let mut waiting: Vec<usize> = cores.collect();
        for &c in &waiting {
            self.mem.request(CoreId::from(c), req);
        }
        while !waiting.is_empty() {
            self.mem.tick();
            waiting.retain(|&c| self.mem.poll(CoreId::from(c)).is_none());
        }
    }

    /// `core` loads the word at `addr`; returns once it has its answer.
    pub fn load(&mut self, core: usize, addr: u64) {
        self.complete(core..core + 1, CoreReq::Load { addr });
    }

    /// Every `step`-th core of `cores` loads `addr` at once; returns
    /// once all have their answers.
    pub fn load_all(&mut self, cores: std::ops::Range<usize>, step: usize, addr: u64) {
        self.complete(cores.step_by(step), CoreReq::Load { addr });
    }

    /// `core` stores to `addr` (invalidating every sharer).
    pub fn store(&mut self, core: usize, addr: u64, value: u64) {
        self.complete(core..core + 1, CoreReq::Store { addr, value });
    }

    /// `core` does an atomic fetch-and-add on `addr`.
    pub fn amo_add(&mut self, core: usize, addr: u64) {
        self.complete(
            core..core + 1,
            CoreReq::Amo {
                addr,
                op: AmoOp::Add,
                operand: 1,
            },
        );
    }

    /// One cycle with nothing requested.
    pub fn tick(&mut self) {
        self.mem.tick();
    }

    /// Messages the hierarchy has sent across its NoC so far.
    pub fn noc_msgs(&self) -> u64 {
        self.mem.noc_stats().total_messages()
    }
}

/// A bare `sim-noc` mesh.
pub struct NocProbe {
    noc: Noc<u32>,
    tiles: usize,
}

impl NocProbe {
    /// A `rows × cols` mesh with the Table-1 router parameters.
    pub fn new(rows: u16, cols: u16) -> NocProbe {
        let mesh = Mesh2D::new(rows, cols);
        NocProbe {
            noc: Noc::new(mesh, CmpConfig::icpp2010().noc),
            tiles: mesh.num_tiles(),
        }
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Sends one control message per `(src, dst)` pair, ticks until the
    /// network is idle and receives them all. Returns how many arrived.
    pub fn drain(&mut self, pairs: &[(u32, u32)]) -> usize {
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            self.noc.send(Message {
                src: CoreId::from(src as usize),
                dst: CoreId::from(dst as usize),
                class: MsgClass::ALL[i % MsgClass::ALL.len()],
                payload_bytes: 0,
                payload: i as u32,
            });
        }
        while !self.noc.is_idle() {
            self.noc.tick();
        }
        let mut got = 0;
        for t in 0..self.tiles {
            while self.noc.recv(CoreId::from(t)).is_some() {
                got += 1;
            }
        }
        got
    }

    /// One cycle with nothing in flight.
    pub fn tick(&mut self) {
        self.noc.tick();
    }
}

/// A bare G-line barrier network.
pub enum GlineProbe {
    /// The flat network.
    Flat(BarrierNetwork, Vec<u64>),
    /// The two-level clustered network.
    Clustered(ClusteredBarrierNetwork, Vec<u64>),
}

impl GlineProbe {
    /// The flat network when `rows × cols` fits the transmitter budget,
    /// the clustered one otherwise.
    pub fn new(rows: u16, cols: u16) -> GlineProbe {
        let mesh = Mesh2D::new(rows, cols);
        let cfg = CmpConfig {
            mesh,
            ..CmpConfig::icpp2010()
        };
        let arrivals = vec![0; mesh.num_tiles()];
        if cfg.needs_clustered_gline() {
            GlineProbe::Clustered(
                ClusteredBarrierNetwork::new(mesh, GlineConfig::default()),
                arrivals,
            )
        } else {
            GlineProbe::Flat(BarrierNetwork::new(mesh, GlineConfig::default()), arrivals)
        }
    }

    /// One barrier episode with every core arriving at once
    /// (`run_single_barrier`). Returns its latency in cycles.
    pub fn episode(&mut self) -> u64 {
        match self {
            GlineProbe::Flat(hw, arr) => hw.run_single_barrier(arr),
            GlineProbe::Clustered(hw, arr) => hw.run_single_barrier(arr),
        }
    }

    /// One cycle with no core at the barrier.
    pub fn tick(&mut self) {
        match self {
            GlineProbe::Flat(hw, _) => BarrierHw::tick(hw),
            GlineProbe::Clustered(hw, _) => BarrierHw::tick(hw),
        }
    }
}

/// `sim_isa::assemble`.
pub fn assemble(src: &str) -> Result<Program, String> {
    sim_isa::assemble(src).map_err(|e| e.to_string())
}

/// Runs `prog` on one core of the reference interpreter
/// (`interp::RefCmp::run`). Returns the instructions executed.
pub fn interpret(prog: &Program) -> Result<u64, String> {
    let mut m = RefCmp::new(1, 64);
    m.run(&[prog], 100_000_000).map_err(|e| format!("{e:?}"))
}

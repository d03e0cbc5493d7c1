//! Isolated-layer probes: host time of each layer's public functions,
//! driven with nothing else running. They give the unit costs behind the
//! attribution model and a per-layer number that moves when, and only
//! when, that layer's code changes.

use sim_base::rng::SplitMix64;

use crate::clock;
use crate::result::Metrics;
use crate::span::Tracer;
use crate::stats::Summary;
use crate::sut::{self, GlineProbe, MemProbe, NocProbe};

/// Samples per probe.
pub const SAMPLES: usize = 1000;
/// Samples per probe in a smoke run, which only checks that they run.
pub const SMOKE_SAMPLES: usize = 20;

/// Messages per NoC drain.
const DRAIN_MSGS: usize = 1024;

/// Base of the probes' data; any line-aligned address does.
const DATA: u64 = 0x10_0000;
const LINE: u64 = 64;

/// Unit costs the attribution model needs, in host nanoseconds (and
/// the NoC messages behind one remote L2 hit).
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)]
pub struct ProbeCosts {
    pub l1_hit_ns: f64,
    pub remote_l2_hit_ns: f64,
    pub remote_l2_hit_msgs: f64,
    pub drain_ns_per_msg_4x8: f64,
    pub drain_ns_per_msg_32x32: f64,
    pub flat_episode_ns: f64,
    pub clustered_episode_ns: f64,
}

impl ProbeCosts {
    /// Picks the unit costs out of a probe run's medians.
    pub fn from_metrics(probes: &Metrics) -> Option<ProbeCosts> {
        let get = |name: &str| probes.iter().find(|(n, _)| n == name).map(|(_, s)| s.value);
        Some(ProbeCosts {
            l1_hit_ns: get("sim_mem.probe.l1_hit_ns")?,
            remote_l2_hit_ns: get("sim_mem.probe.remote_l2_hit_ns")?,
            remote_l2_hit_msgs: get("sim_mem.probe.remote_l2_hit_msgs")?,
            drain_ns_per_msg_4x8: get("sim_noc.probe.drain_ns_per_msg_4x8")?,
            drain_ns_per_msg_32x32: get("sim_noc.probe.drain_ns_per_msg_32x32")?,
            flat_episode_ns: get("gline_core.probe.flat_episode_ns")?,
            clustered_episode_ns: get("gline_core.probe.clustered_episode_ns")?,
        })
    }
}

struct Probes<'a> {
    tr: &'a mut Tracer,
    samples: usize,
    out: Metrics,
}

impl Probes<'_> {
    /// Takes the samples of one probe: each is the host time of `batch`
    /// calls of `op`, in nanoseconds per unit of work (a call does
    /// `units` of them). A tenth as many untimed calls go first.
    fn probe(&mut self, name: &str, batch: usize, units: f64, op: impl FnMut()) {
        self.probe_n(name, self.samples, batch, units, op);
    }

    fn probe_n(&mut self, name: &str, n: usize, batch: usize, units: f64, mut op: impl FnMut()) {
        let open = self.tr.enter(name, None);
        for _ in 0..(n * batch).div_ceil(10) {
            op();
        }
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                let ((), s) = clock::time_s(|| {
                    for _ in 0..batch {
                        op();
                    }
                });
                s * 1e9 / (batch as f64 * units)
            })
            .collect();
        self.tr.exit(open);
        self.out
            .push((name.to_string(), Summary::with_p99(&samples)));
    }

    fn layer(&mut self, layer: &str, body: impl FnOnce(&mut Self)) {
        let open = self.tr.enter(&format!("probe:{layer}"), None);
        body(self);
        self.tr.exit(open);
    }
}

fn random_pairs(rng: &mut SplitMix64, tiles: usize) -> Vec<(u32, u32)> {
    (0..DRAIN_MSGS)
        .map(|_| {
            let src = rng.next_below(tiles as u64);
            // Never the sender's own tile: that path bypasses the mesh.
            let dst = (src + 1 + rng.next_below(tiles as u64 - 1)) % tiles as u64;
            (src as u32, dst as u32)
        })
        .collect()
}

/// Runs every probe, `samples` samples each. `seed` picks the NoC
/// traffic pattern.
pub fn run(tr: &mut Tracer, seed: u64, samples: usize) -> Metrics {
    let mut p = Probes {
        tr,
        samples,
        out: Vec::new(),
    };
    let mut rng = SplitMix64::new(seed);

    p.layer("sim_mem", |p| {
        let mut mem = MemProbe::new(32);
        mem.load(0, DATA);
        p.probe("sim_mem.probe.l1_hit_ns", 64, 1.0, || mem.load(0, DATA));

        // Twice the L1's 512 lines, swept in order: every load misses
        // the L1 and, after the first sweep, hits an L2 bank, 31 times
        // in 32 a remote one.
        let lines = 1024;
        let mut next = 0;
        for i in 0..lines {
            mem.load(0, DATA + LINE * (1 + i));
        }
        let (msgs, loads) = (mem.noc_msgs(), std::cell::Cell::new(0u64));
        p.probe("sim_mem.probe.remote_l2_hit_ns", 16, 1.0, || {
            mem.load(0, DATA + LINE * (1 + next));
            next = (next + 1) % lines;
            loads.set(loads.get() + 1);
        });
        // A count, not a time: it repeats exactly.
        let per_hit = (mem.noc_msgs() - msgs) as f64 / loads.get() as f64;
        p.out.push((
            "sim_mem.probe.remote_l2_hit_msgs".into(),
            Summary::exact(per_hit),
        ));

        let mut turn = 0;
        p.probe("sim_mem.probe.amo_pingpong_ns", 8, 1.0, || {
            mem.amo_add([0, 31][turn], DATA);
            turn ^= 1;
        });

        p.probe("sim_mem.probe.inval_storm_32_ns", 1, 1.0, || {
            mem.load_all(0..32, 1, DATA);
            mem.store(0, DATA, 1);
        });

        let mut idle = MemProbe::new(32);
        p.probe("sim_mem.probe.idle_tick_ns", 1024, 1.0, || idle.tick());

        // 64 sharers spread over a 1024-core machine overflow the
        // directory's pointers into the coarse vector; the store then
        // fans invalidations out to every core of every marked granule.
        // One sample is a whole storm of some thousand messages and
        // costs milliseconds, so this probe alone takes a twentieth of
        // the samples.
        let mut big = MemProbe::new(1024);
        let n = p.samples.div_ceil(20);
        p.probe_n("sim_mem.probe.inval_storm_1024_ns", n, 1, 1.0, || {
            big.load_all(0..1024, 16, DATA);
            big.store(1, DATA, 1);
        });
    });

    p.layer("sim_noc", |p| {
        for (rows, cols) in [(4, 8), (32, 32)] {
            let mut noc = NocProbe::new(rows, cols);
            let pairs = random_pairs(&mut rng, noc.tiles());
            p.probe(
                &format!("sim_noc.probe.drain_ns_per_msg_{rows}x{cols}"),
                1,
                DRAIN_MSGS as f64,
                || assert_eq!(noc.drain(&pairs), DRAIN_MSGS, "every message arrives"),
            );
            p.probe(
                &format!("sim_noc.probe.idle_tick_ns_{rows}x{cols}"),
                1024,
                1.0,
                || noc.tick(),
            );
        }
    });

    p.layer("gline_core", |p| {
        let mut flat = GlineProbe::new(4, 8);
        p.probe("gline_core.probe.flat_episode_ns", 16, 1.0, || {
            flat.episode();
        });
        let mut clustered = GlineProbe::new(32, 32);
        p.probe("gline_core.probe.clustered_episode_ns", 4, 1.0, || {
            clustered.episode();
        });
        p.probe("gline_core.probe.idle_tick_ns", 1024, 1.0, || flat.tick());
    });

    p.layer("sim_isa", |p| {
        // A counted loop: 64 instructions per trip, then halt.
        let mut src = String::from("    li r1, 1000\nloop:\n");
        for _ in 0..62 {
            src.push_str("    addi r2, r2, 1\n");
        }
        src.push_str("    addi r1, r1, -1\n    bne r1, r0, loop\n    halt\n");
        let lines = src.lines().count() as f64;
        let prog = sut::assemble(&src).expect("the probe program assembles");
        let instrs = sut::interpret(&prog).expect("the probe program halts") as f64;
        p.probe("sim_isa.probe.interp_ns_per_instr", 1, instrs, || {
            sut::interpret(&prog).expect("the probe program halts");
        });
        p.probe("sim_isa.probe.assemble_ns_per_line", 4, lines, || {
            sut::assemble(&src).expect("the probe program assembles");
        });
    });

    // Registry order, so printing and files are stable.
    let mut out = p.out;
    out.sort_by_key(|(name, _)| {
        crate::metrics::PER_LAYER
            .iter()
            .position(|m| m.name == name)
    });
    out
}

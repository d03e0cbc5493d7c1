//! Randomized differential testing: the cycle-accurate machine must
//! compute exactly what the idealized reference interpreter computes,
//! for generated multi-phase parallel programs.
//!
//! Program shape (determinism by construction):
//! * each phase, every core stores fresh random values into its own
//!   private slots and `amoadd`s shared counters (commutative);
//! * loads read only locations written in *earlier* phases (or its own);
//! * a GL barrier separates phases, so all read values are
//!   deterministic even though timing differs wildly between the two
//!   machines.

use gline_cmp::base::config::CmpConfig;
use gline_cmp::base::rng::SplitMix64;
use gline_cmp::base::trace::{RingSink, Tracer};
use gline_cmp::cmp::runtime::{BarrierEnv, BarrierKind};
use gline_cmp::cmp::System;
use gline_cmp::isa::interp::RefCmp;
use gline_cmp::isa::{ProgBuilder, Program, Reg};

/// Events to keep for the post-mortem dump on a mismatch.
const TRACE_TAIL: usize = 256;

const N_CORES: usize = 4;
const PHASES: usize = 3;
const OPS_PER_PHASE: usize = 8;
const SLOTS_PER_CORE: usize = 4;
const COUNTERS: usize = 3;

const PRIV_BASE: u64 = 0x2000;
const CTR_BASE: u64 = 0x8000;
const BAR_BASE: u64 = 0x1_0000;

fn slot_addr(core: usize, slot: usize) -> u64 {
    PRIV_BASE + (core * SLOTS_PER_CORE + slot) as u64 * 64
}

fn ctr_addr(i: usize) -> u64 {
    CTR_BASE + i as u64 * 64
}

/// Generates one core's program; `rng` must be seeded per (seed, core).
fn gen_program(core: usize, rng: &mut SplitMix64, env: &BarrierEnv) -> Program {
    let mut b = ProgBuilder::new();
    let acc = Reg(9); // accumulates everything we load (checked at exit)
    for phase in 0..PHASES {
        for op in 0..OPS_PER_PHASE {
            match rng.next_below(4) {
                0 => {
                    // Store a fresh value to one of my slots.
                    let v = rng.next_below(1 << 30) as i64;
                    b.li(
                        Reg(1),
                        slot_addr(core, rng.next_below(SLOTS_PER_CORE as u64) as usize) as i64,
                    )
                    .li(Reg(2), v)
                    .st(Reg(2), 0, Reg(1));
                }
                1 => {
                    // Atomic add to a shared counter (commutative).
                    let v = 1 + rng.next_below(100) as i64;
                    b.li(
                        Reg(1),
                        ctr_addr(rng.next_below(COUNTERS as u64) as usize) as i64,
                    )
                    .li(Reg(2), v)
                    .amoadd(Reg(3), Reg(2), Reg(1));
                }
                2 if phase > 0 => {
                    // Load a slot some core wrote in an earlier phase
                    // (any slot is fine: the previous barrier ordered
                    // all earlier stores before this load; to keep the
                    // value deterministic we only read slots of cores
                    // that cannot be writing them now — i.e. our own.
                    b.li(
                        Reg(1),
                        slot_addr(core, rng.next_below(SLOTS_PER_CORE as u64) as usize) as i64,
                    )
                    .ld(Reg(2), 0, Reg(1))
                    .add(acc, acc, Reg(2));
                }
                _ => {
                    // Register work.
                    b.li(Reg(4), rng.next_below(1000) as i64)
                        .add(acc, acc, Reg(4));
                }
            }
            let _ = op;
        }
        env.emit(&mut b, core);
        // After the barrier, read a *peer's* slot: deterministic because
        // the peer's phase writes are complete and it will overwrite
        // only in the next phase, which our next barrier... may overlap.
        // Reading is safe only for the FINAL phase; do it there.
        if phase == PHASES - 1 {
            for peer in 0..N_CORES {
                b.li(Reg(1), slot_addr(peer, 0) as i64)
                    .ld(Reg(2), 0, Reg(1))
                    .add(acc, acc, Reg(2));
            }
        }
    }
    // Publish the accumulator.
    b.li(Reg(1), (0x20000 + core * 64) as i64)
        .st(acc, 0, Reg(1))
        .halt();
    b.build()
}

fn run_seed(seed: u64) {
    let env = BarrierEnv::new(BarrierKind::Gl, N_CORES, BAR_BASE);
    let progs: Vec<Program> = (0..N_CORES)
        .map(|c| {
            let mut rng = SplitMix64::new(seed ^ (c as u64 * 0x9E37));
            gen_program(c, &mut rng, &env)
        })
        .collect();

    // Reference machine.
    let mut golden = RefCmp::new(N_CORES, 0x40000 / 8);
    let refs: Vec<&Program> = progs.iter().collect();
    golden
        .run(&refs, 50_000_000)
        .expect("reference run completes");

    // Cycle-accurate machine, recording the last events so a mismatch
    // comes with the end of the run attached.
    let tracer = Tracer::new(RingSink::new(TRACE_TAIL));
    let mut sys = System::new(CmpConfig::icpp2010_with_cores(N_CORES), progs);
    sys.set_trace(tracer.clone());
    sys.run(100_000_000).expect("simulated run completes");

    // Compare: accumulators, private slots, shared counters.
    let mut mismatches = Vec::new();
    let mut check = |what: String, got: u64, want: u64| {
        if got != want {
            mismatches.push(format!("{what}: simulated {got:#x}, reference {want:#x}"));
        }
    };
    for c in 0..N_CORES {
        let a = 0x20000 + c as u64 * 64;
        check(
            format!("seed {seed}: core {c} accumulator"),
            sys.peek_word(a),
            golden.word(a),
        );
        for s in 0..SLOTS_PER_CORE {
            let a = slot_addr(c, s);
            check(
                format!("seed {seed}: slot ({c},{s})"),
                sys.peek_word(a),
                golden.word(a),
            );
        }
    }
    for i in 0..COUNTERS {
        check(
            format!("seed {seed}: counter {i}"),
            sys.peek_word(ctr_addr(i)),
            golden.word(ctr_addr(i)),
        );
    }
    if !mismatches.is_empty() {
        let tail = tracer.with_sink(|s: &mut RingSink| {
            format!(
                "--- last {} of {} events ---\n{}",
                s.len(),
                s.total_seen(),
                s.dump()
            )
        });
        panic!("{}\n{tail}", mismatches.join("\n"));
    }
}

#[test]
fn random_parallel_programs_match_reference() {
    for seed in 0..12u64 {
        run_seed(seed * 0x1234_5678 + 1);
    }
}

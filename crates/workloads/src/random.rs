//! Random synchronization programs for the determinism property tests.
//!
//! Unlike the Table-2 generators these take their shape from a
//! [`SplitMix64`] stream: what matters is not what the programs compute
//! but that barriers, locks, private work and staggered arrivals land at
//! arbitrary cycles, on any mesh. Every program halts, and the final
//! values of the words named by the constants below are the same on
//! every engine.

use crate::common::barrier_env;
use sim_base::rng::SplitMix64;
use sim_cmp::runtime::{emit_lock, emit_unlock, BarrierKind};
use sim_isa::{ProgBuilder, Program, Reg};

/// Number of locks (and lock-protected counters) the programs share.
pub const LOCKS: u64 = 2;
/// Lock `k` lives at `LOCK_BASE + k * 64`.
pub const LOCK_BASE: u64 = 0x3000;
/// The counter lock `k` protects lives at `COUNTER_BASE + k * 64`.
pub const COUNTER_BASE: u64 = 0x3800;
/// Core `c` stores its progress to `SLOT_BASE + c * 64`.
pub const SLOT_BASE: u64 = 0x4000;

/// A random barrier/lock program set for `n` cores: per phase, a random
/// stretch of private work, for a few cores a lock-protected counter
/// increment, a store to the core's own slot, then a barrier of `kind`.
pub fn random_sync_programs(n: usize, kind: BarrierKind, rng: &mut SplitMix64) -> Vec<Program> {
    let env = barrier_env(kind, n);
    let phases = 2 + rng.next_below(2);
    let max_busy = 1 + rng.next_below(400) as u32;
    (0..n)
        .map(|c| {
            let mut b = ProgBuilder::new();
            for phase in 0..phases {
                if rng.chance(0.7) {
                    b.busy(1 + rng.next_below(max_busy as u64) as u32);
                }
                // About six lock users per phase whatever the machine
                // size, so 256 cores do not serialize on one line.
                if rng.chance(6.0 / n as f64) {
                    let k = rng.next_below(LOCKS);
                    emit_lock(&mut b, LOCK_BASE + k * 64);
                    b.li(Reg(1), (COUNTER_BASE + k * 64) as i64)
                        .ld(Reg(2), 0, Reg(1))
                        .addi(Reg(2), Reg(2), 1)
                        .st(Reg(2), 0, Reg(1));
                    emit_unlock(&mut b, LOCK_BASE + k * 64);
                }
                b.li(Reg(1), (SLOT_BASE + c as u64 * 64) as i64)
                    .li(Reg(2), (phase * 1000 + c as u64) as i64)
                    .st(Reg(2), 0, Reg(1));
                env.emit(&mut b, c);
            }
            b.halt();
            b.build()
        })
        .collect()
}

/// GL-barrier programs with staggered arrival: before every barrier
/// each core sits in a `busy` block of its own random length, so most
/// of the run is spent with the early arrivers parked on their
/// `bar_reg` and the clock jumping from one busy block's end to the
/// next.
pub fn staggered_gl_programs(n: usize, rng: &mut SplitMix64) -> Vec<Program> {
    let env = barrier_env(BarrierKind::Gl, n);
    let phases = 3 + rng.next_below(4);
    let stagger = 1 + rng.next_below(40) as u32;
    (0..n)
        .map(|c| {
            let mut b = ProgBuilder::new();
            for phase in 0..phases {
                b.busy((1 + rng.next_below(n.min(64) as u64) as u32) * stagger)
                    .li(Reg(1), (SLOT_BASE + c as u64 * 64) as i64)
                    .li(Reg(2), (phase * 1000 + c as u64) as i64)
                    .st(Reg(2), 0, Reg(1));
                env.emit(&mut b, c);
            }
            b.halt();
            b.build()
        })
        .collect()
}

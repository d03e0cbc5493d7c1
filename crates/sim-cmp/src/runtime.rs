//! The runtime library: synchronization routines emitted as ISA code.
//!
//! Three barrier implementations, matching paper §4.3's taxonomy:
//!
//! * **GL** — the proposed hardware barrier: write `bar_reg`, spin on it
//!   (Figure 3 of the paper). All the work happens in the G-line network.
//! * **CSW** — centralized software barrier: a shared sense-reversal
//!   counter updated with `fetch&add`; every core spins on one flag.
//! * **DSW** — distributed software barrier: a binary combining tree of
//!   counters; cores spin on per-node flags, the last arriver climbs.
//!
//! Plus test-and-test&set locks for the lock-heavy workloads.
//!
//! Register conventions (callers must respect them):
//! * `r20` holds the core's barrier sense and must be preserved across
//!   the whole program (initialize to 0 by doing nothing — registers
//!   reset to 0).
//! * `r21`–`r27` are runtime scratch, clobbered by every emitted routine.

use sim_base::ids::WORD_BYTES;
use sim_isa::inst::Region;
use sim_isa::{ProgBuilder, Reg};

/// Scratch registers used by the emitted routines.
const SENSE: Reg = Reg(20);
const T1: Reg = Reg(21);
const T2: Reg = Reg(22);
const T3: Reg = Reg(23);
const T4: Reg = Reg(24);
const T5: Reg = Reg(25);

/// Which barrier implementation to emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BarrierKind {
    /// The paper's G-line hardware barrier.
    Gl,
    /// Centralized sense-reversal software barrier.
    Csw,
    /// Binary combining-tree (distributed) software barrier.
    Dsw,
}

impl BarrierKind {
    /// The paper's label for this implementation.
    pub fn label(self) -> &'static str {
        match self {
            BarrierKind::Gl => "GL",
            BarrierKind::Csw => "CSW",
            BarrierKind::Dsw => "DSW",
        }
    }

    /// All three implementations.
    pub const ALL: [BarrierKind; 3] = [BarrierKind::Gl, BarrierKind::Csw, BarrierKind::Dsw];
}

/// Bytes separating the synchronization variables (one cache line each,
/// so counters and flags never falsely share).
const LINE: u64 = 64;

/// Arity of each combining-tree node, level by level (level 0 groups the
/// cores). An odd count at any level yields a trailing arity-1 node.
pub fn tree_levels(n: usize) -> Vec<Vec<u32>> {
    assert!(n >= 1);
    let mut levels = Vec::new();
    let mut width = n;
    while width > 1 {
        let nodes = width.div_ceil(2);
        let mut arities = vec![2u32; nodes];
        if width % 2 == 1 {
            arities[nodes - 1] = 1;
        }
        levels.push(arities);
        width = nodes;
    }
    levels
}

/// The memory plan of one barrier instance.
#[derive(Clone, Debug)]
pub struct BarrierEnv {
    /// Implementation.
    pub kind: BarrierKind,
    /// Number of participating cores.
    pub n_cores: usize,
    /// Base byte address of the barrier's shared variables.
    pub base: u64,
    /// Combining-tree shape (empty for GL/CSW).
    levels: Vec<Vec<u32>>,
    /// Node-id offset of each tree level.
    level_off: Vec<usize>,
}

impl BarrierEnv {
    /// Plans a barrier of `kind` for `n_cores` cores with its shared
    /// variables at `base` (must be cache-line aligned).
    pub fn new(kind: BarrierKind, n_cores: usize, base: u64) -> BarrierEnv {
        assert!(n_cores >= 1);
        assert_eq!(base % LINE, 0, "barrier variables must be line-aligned");
        let levels = if kind == BarrierKind::Dsw {
            tree_levels(n_cores)
        } else {
            Vec::new()
        };
        let mut level_off = Vec::with_capacity(levels.len());
        let mut off = 0usize;
        for l in &levels {
            level_off.push(off);
            off += l.len();
        }
        BarrierEnv {
            kind,
            n_cores,
            base,
            levels,
            level_off,
        }
    }

    /// Bytes of shared memory the barrier occupies starting at `base`.
    pub fn data_size(&self) -> u64 {
        match self.kind {
            BarrierKind::Gl => 0,
            // counter line + flag line + lock line.
            BarrierKind::Csw => 3 * LINE,
            // two lines (count + flag) per tree node.
            BarrierKind::Dsw => {
                2 * LINE * self.levels.iter().map(Vec::len).sum::<usize>().max(1) as u64
            }
        }
    }

    fn node_count_addr(&self, level: usize, idx: usize) -> u64 {
        self.base + (self.level_off[level] + idx) as u64 * 2 * LINE
    }

    fn node_flag_addr(&self, level: usize, idx: usize) -> u64 {
        self.node_count_addr(level, idx) + LINE
    }

    /// Emits one barrier episode for `core`.
    pub fn emit(&self, b: &mut ProgBuilder, core: usize) {
        assert!(core < self.n_cores);
        b.region(Region::Barrier);
        match self.kind {
            BarrierKind::Gl => self.emit_gl(b),
            BarrierKind::Csw => self.emit_csw(b),
            BarrierKind::Dsw => self.emit_dsw(b, core),
        }
        b.region(Region::Normal);
    }

    /// Figure 3 of the paper: `mov 1, bar_reg; loop: bnz bar_reg, loop`.
    fn emit_gl(&self, b: &mut ProgBuilder) {
        let spin = b.new_label();
        b.li(T1, 1)
            .barw(T1)
            .bind(spin)
            .barr(T2)
            .bne(T2, Reg::ZERO, spin);
    }

    /// The paper's CSW: a *lock-based* centralized sense-reversal
    /// barrier. Every core acquires one test&set lock to increment the
    /// shared counter — under simultaneous arrival the lock handoffs
    /// cause the O(n²) invalidation storm that makes CSW the worst
    /// performer of Figure 5.
    fn emit_csw(&self, b: &mut ProgBuilder) {
        if self.n_cores == 1 {
            return;
        }
        let counter = self.base;
        let flag = self.base + LINE;
        let lock = self.base + 2 * LINE;
        let [acq, tst, got, last, wait, done] = [(); 6].map(|()| b.new_label());
        // sense = !sense
        b.alui(sim_isa::inst::AluOp::Xor, SENSE, SENSE, 1);
        // Acquire the central lock (test-and-test&set).
        b.li(T1, 1)
            .li(T5, lock as i64)
            .bind(acq)
            .amoswap(T2, T1, T5)
            .beq(T2, Reg::ZERO, got)
            .bind(tst)
            .ld(T2, 0, T5)
            .bne(T2, Reg::ZERO, tst)
            .jump(acq)
            .bind(got);
        // count++ under the lock.
        b.li(T3, counter as i64)
            .ld(T2, 0, T3)
            .addi(T2, T2, 1)
            .li(T4, self.n_cores as i64)
            .beq(T2, T4, last)
            .st(T2, 0, T3)
            .st(Reg::ZERO, 0, T5) // unlock
            .jump(wait);
        // Last arriver: reset the counter and release everyone.
        b.bind(last)
            .st(Reg::ZERO, 0, T3)
            .li(T3, flag as i64)
            .st(SENSE, 0, T3)
            .st(Reg::ZERO, 0, T5) // unlock
            .jump(done);
        // Busy-wait on the release flag (L1-local after one miss).
        b.bind(wait)
            .li(T3, flag as i64)
            .ld(T2, 0, T3)
            .bne(T2, SENSE, wait)
            .bind(done);
    }

    fn emit_dsw(&self, b: &mut ProgBuilder, core: usize) {
        if self.n_cores == 1 {
            return;
        }
        let nlev = self.levels.len();
        // `wait.at(k)`: level k's flag spin. `rel.at(k + 1)`: the release
        // of level k, falling through to `rel.at(k)`; `rel.at(0)` is the
        // exit.
        let wait = b.new_labels(nlev);
        let rel = b.new_labels(nlev + 1);
        // sense = !sense
        b.alui(sim_isa::inst::AluOp::Xor, SENSE, SENSE, 1);
        // Climb: at each level, fetch&add the node counter; the last
        // arriver proceeds up, everyone else waits on the node flag.
        for level in 0..nlev {
            let idx = core >> (level + 1);
            let arity = self.levels[level][idx];
            b.li(T1, 1)
                .li(T3, self.node_count_addr(level, idx) as i64)
                .amoadd(T2, T1, T3)
                .li(T4, (arity - 1) as i64)
                .bne(T2, T4, wait.at(level));
        }
        // Root winner: release its whole path, top level first.
        b.jump(rel.at(nlev));
        // Waiters: spin on the node flag, then release the levels they won.
        for level in 0..nlev {
            let idx = core >> (level + 1);
            b.bind(wait.at(level))
                .li(T3, self.node_flag_addr(level, idx) as i64)
                .ld(T2, 0, T3)
                .bne(T2, SENSE, wait.at(level))
                .jump(rel.at(level));
        }
        // Release chains: each level releases its node (count reset
        // before flag) and falls through to the level below.
        for level in (0..nlev).rev() {
            let idx = core >> (level + 1);
            b.bind(rel.at(level + 1))
                .li(T3, self.node_count_addr(level, idx) as i64)
                .st(Reg::ZERO, 0, T3)
                .li(T3, self.node_flag_addr(level, idx) as i64)
                .st(SENSE, 0, T3);
        }
        b.bind(rel.at(0));
    }
}

/// Emits a test-and-test&set lock acquisition on the word at
/// `lock_addr`. Clobbers `r21`–`r23`.
pub fn emit_lock(b: &mut ProgBuilder, lock_addr: u64) {
    assert_eq!(lock_addr % WORD_BYTES, 0);
    let [acq, tst, got] = [(); 3].map(|()| b.new_label());
    b.region(Region::Lock)
        .li(T1, 1)
        .li(T3, lock_addr as i64)
        .bind(acq)
        .amoswap(T2, T1, T3)
        .beq(T2, Reg::ZERO, got)
        // Held: spin on a plain load (stays in L1 until invalidated).
        .bind(tst)
        .ld(T2, 0, T3)
        .bne(T2, Reg::ZERO, tst)
        .jump(acq)
        .bind(got)
        .region(Region::Normal);
}

/// Emits the matching release.
pub fn emit_unlock(b: &mut ProgBuilder, lock_addr: u64) {
    b.region(Region::Lock)
        .li(T3, lock_addr as i64)
        .st(Reg::ZERO, 0, T3)
        .region(Region::Normal);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::interp::RefCmp;
    use sim_isa::Program;

    #[test]
    fn tree_shapes() {
        assert!(tree_levels(1).is_empty());
        assert_eq!(tree_levels(2), vec![vec![2]]);
        assert_eq!(tree_levels(4), vec![vec![2, 2], vec![2]]);
        assert_eq!(tree_levels(5), vec![vec![2, 2, 1], vec![2, 1], vec![2]]);
        assert_eq!(tree_levels(32).len(), 5);
        let l32 = tree_levels(32);
        assert_eq!(l32[0].len(), 16);
        assert_eq!(l32[4], vec![2]);
    }

    #[test]
    fn env_sizes() {
        assert_eq!(BarrierEnv::new(BarrierKind::Gl, 8, 0).data_size(), 0);
        assert_eq!(BarrierEnv::new(BarrierKind::Csw, 8, 0).data_size(), 192);
        // 8 cores: 4 + 2 + 1 = 7 nodes × 128 bytes.
        assert_eq!(BarrierEnv::new(BarrierKind::Dsw, 8, 0).data_size(), 7 * 128);
    }

    /// Builds one per-core program: `iters` barrier episodes with a
    /// store of the episode number in between, then halt.
    fn barrier_program(env: &BarrierEnv, core: usize, iters: usize, out_addr: u64) -> Program {
        let mut b = ProgBuilder::new();
        for it in 0..iters {
            // Work: record the episode we think we're in.
            b.li(Reg(1), it as i64 + 1);
            b.li(Reg(2), out_addr as i64 + core as i64 * 8);
            b.st(Reg(1), 0, Reg(2));
            env.emit(&mut b, core);
        }
        b.halt();
        b.build()
    }

    /// Runs `n` cores through `iters` barrier episodes on the idealized
    /// reference machine and checks that no core ever observes a peer
    /// more than one episode behind after the barrier.
    fn check_on_refcmp(kind: BarrierKind, n: usize, iters: usize) {
        let data_base = 4096u64;
        let env = BarrierEnv::new(kind, n, data_base);
        let out_addr = data_base + env.data_size().max(64) + 64;
        let progs: Vec<Program> = (0..n)
            .map(|c| barrier_program(&env, c, iters, out_addr))
            .collect();
        let refs: Vec<&Program> = progs.iter().collect();
        let mem_words = ((out_addr + n as u64 * 8) / 8 + 8) as usize;
        let mut cmp = RefCmp::new(n, mem_words);
        // Instrumented run: after every round where some core is right
        // after a barrier, peers' episode stamps may not lag.
        cmp.run(&refs, 10_000_000).unwrap();
        for c in 0..n {
            assert_eq!(
                cmp.word(out_addr + c as u64 * 8),
                iters as u64,
                "core {c} fell behind"
            );
        }
    }

    #[test]
    fn csw_barrier_runs_on_reference_machine() {
        for n in [2usize, 3, 4, 8] {
            check_on_refcmp(BarrierKind::Csw, n, 5);
        }
    }

    #[test]
    fn dsw_barrier_runs_on_reference_machine() {
        for n in [2usize, 3, 5, 8, 16] {
            check_on_refcmp(BarrierKind::Dsw, n, 5);
        }
    }

    #[test]
    fn gl_barrier_runs_on_reference_machine() {
        // RefCmp models bar_reg with idealized completion.
        for n in [2usize, 4] {
            check_on_refcmp(BarrierKind::Gl, n, 5);
        }
    }

    #[test]
    fn lock_emission_assembles() {
        let mut b = ProgBuilder::new();
        emit_lock(&mut b, 256);
        emit_unlock(&mut b, 256);
        b.halt();
        let p = b.build();
        assert!(p.len() > 8);
    }

    #[test]
    fn locks_provide_mutual_exclusion_on_reference_machine() {
        // 4 cores increment a shared counter 50 times each under a lock
        // (load; add; store — not atomic without the lock).
        let lock = 1024u64;
        let counter = 2048u64;
        let n = 4;
        let progs: Vec<Program> = (0..n)
            .map(|_| {
                let mut b = ProgBuilder::new();
                let top = b.new_label();
                b.li(Reg(10), 50);
                b.bind(top);
                emit_lock(&mut b, lock);
                b.li(Reg(3), counter as i64)
                    .ld(Reg(4), 0, Reg(3))
                    .addi(Reg(4), Reg(4), 1)
                    .st(Reg(4), 0, Reg(3));
                emit_unlock(&mut b, lock);
                b.addi(Reg(10), Reg(10), -1);
                b.bne(Reg(10), Reg::ZERO, top);
                b.halt();
                b.build()
            })
            .collect();
        let refs: Vec<&Program> = progs.iter().collect();
        let mut cmp = RefCmp::new(n, 512);
        cmp.run(&refs, 10_000_000).unwrap();
        assert_eq!(cmp.word(counter), 200);
    }
}

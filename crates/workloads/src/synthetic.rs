//! The synthetic barrier-latency benchmark of paper §4.2 / Figure 5.
//!
//! Following the methodology the paper borrows from Culler, Singh &
//! Gupta: *"performance is measured as average time per barrier over a
//! loop of four consecutive barriers with no work or delays between
//! them"*. The paper executes the loop 100 000 times; tests and the
//! figure harness use fewer iterations — the per-barrier average
//! converges within a handful.

use crate::common::{barrier_env, Workload};
use sim_cmp::runtime::BarrierKind;
use sim_isa::{ProgBuilder, Reg};

/// Barriers per loop iteration (fixed by the methodology).
pub const BARRIERS_PER_ITER: u64 = 4;

/// Builds the synthetic benchmark: `iters` × 4 back-to-back barriers.
pub fn build(n_cores: usize, kind: BarrierKind, iters: u64) -> Workload {
    assert!(iters >= 1);
    let env = barrier_env(kind, n_cores);
    let progs = (0..n_cores)
        .map(|c| {
            let mut b = ProgBuilder::new();
            let iter_reg = Reg(10);
            let top = b.new_label();
            b.li(iter_reg, iters as i64);
            b.bind(top);
            for _ in 0..BARRIERS_PER_ITER {
                env.emit(&mut b, c);
            }
            b.addi(iter_reg, iter_reg, -1);
            b.bne(iter_reg, Reg::ZERO, top);
            b.halt();
            b.build()
        })
        .collect();
    Workload {
        name: "Synthetic".into(),
        progs,
        pokes: Vec::new(),
        barriers_per_core: iters * BARRIERS_PER_ITER,
        kind,
    }
}

/// Average cycles per barrier for a finished run of `build(...)`.
pub fn cycles_per_barrier(total_cycles: u64, iters: u64) -> f64 {
    total_cycles as f64 / (iters * BARRIERS_PER_ITER) as f64
}

/// The imbalanced variant: before each barrier, core `c` computes for
/// `c * stagger` cycles, so the cores arrive spread out in time and the
/// early arrivals sit in the barrier's wait loop. This is the shape of a
/// real barrier-period — compute with load imbalance, then
/// synchronization — and makes the run's cost be dominated by barrier
/// *waiting* rather than by arrival contention, the regime the
/// quiescence-skipping scheduler targets (and the one Figure 6's
/// application runs live in).
pub fn build_imbalanced(n_cores: usize, kind: BarrierKind, iters: u64, stagger: u32) -> Workload {
    assert!(iters >= 1);
    let env = barrier_env(kind, n_cores);
    let progs = (0..n_cores)
        .map(|c| {
            let mut b = ProgBuilder::new();
            let iter_reg = Reg(10);
            let top = b.new_label();
            b.li(iter_reg, iters as i64);
            b.bind(top);
            for _ in 0..BARRIERS_PER_ITER {
                if c > 0 {
                    b.busy(c as u32 * stagger);
                }
                env.emit(&mut b, c);
            }
            b.addi(iter_reg, iter_reg, -1);
            b.bne(iter_reg, Reg::ZERO, top);
            b.halt();
            b.build()
        })
        .collect();
    Workload {
        name: "Synthetic-imbalanced".into(),
        progs,
        pokes: Vec::new(),
        barriers_per_core: iters * BARRIERS_PER_ITER,
        kind,
    }
}

/// The compute-bearing variant: between barriers every core runs a
/// private read-modify-write loop (`ld; addi; st; addi; bne` over its
/// own cache line — `work` iterations, all L1 hits after the cold
/// miss). Unlike [`build`]'s empty barrier loop, the cores here are
/// *live* most of the time: the load/branch shape matches no spin
/// pattern, so no core parks and no cycle skips — the regime where the
/// active sets are fullest. `stagger` adds `c * stagger` busy cycles
/// before each barrier (0 = balanced).
pub fn build_compute(
    n_cores: usize,
    kind: BarrierKind,
    iters: u64,
    work: u32,
    stagger: u32,
) -> Workload {
    assert!(iters >= 1 && work >= 1);
    let env = barrier_env(kind, n_cores);
    let slot = |c: usize| 0x100000 + c as u64 * 64;
    let progs = (0..n_cores)
        .map(|c| {
            let mut b = ProgBuilder::new();
            let iter_reg = Reg(10);
            let top = b.new_label();
            b.li(iter_reg, iters as i64);
            b.bind(top);
            for _ in 0..BARRIERS_PER_ITER {
                let inner = b.new_label();
                b.li(Reg(5), work as i64).li(Reg(2), slot(c) as i64);
                b.bind(inner)
                    .ld(Reg(3), 0, Reg(2))
                    .addi(Reg(3), Reg(3), 1)
                    .st(Reg(3), 0, Reg(2))
                    .addi(Reg(5), Reg(5), -1)
                    .bne(Reg(5), Reg::ZERO, inner);
                if stagger > 0 && c > 0 {
                    b.busy(c as u32 * stagger);
                }
                env.emit(&mut b, c);
            }
            b.addi(iter_reg, iter_reg, -1);
            b.bne(iter_reg, Reg::ZERO, top);
            b.halt();
            b.build()
        })
        .collect();
    Workload {
        name: "Synthetic-compute".into(),
        progs,
        pokes: Vec::new(),
        barriers_per_core: iters * BARRIERS_PER_ITER,
        kind,
    }
}

/// The live-core matrix: for every barrier implementation, the
/// compute-bearing contended variant (balanced arrival, every core
/// live) and the compute-bearing imbalanced variant (staggered arrival
/// — compute plus wait time). Labels follow [`barrier_matrix`]'s
/// convention and are stable and unique within this matrix.
pub fn compute_matrix(
    n_cores: usize,
    iters: u64,
    work: u32,
    stagger: u32,
) -> Vec<(&'static str, Workload)> {
    let mut out = Vec::new();
    for kind in BarrierKind::ALL {
        let (contended, imbalanced) = match kind {
            BarrierKind::Gl => ("contended GL", "imbalanced GL"),
            BarrierKind::Csw => ("contended CSW", "imbalanced CSW"),
            BarrierKind::Dsw => ("contended DSW", "imbalanced DSW"),
        };
        out.push((contended, build_compute(n_cores, kind, iters, work, 0)));
        out.push((
            imbalanced,
            build_compute(n_cores, kind, iters, work, stagger),
        ));
    }
    out
}

/// The scheduler-bench matrix: for every barrier implementation
/// (GL, CSW, DSW), the contended variant (back-to-back barriers, all
/// cores arriving together — the coherence-bound regime) and the
/// imbalanced variant (staggered arrivals — the wait-bound regime).
/// Each entry is `(label, workload)`; labels are stable and unique, so
/// benches and sweep jobs can key results by them.
pub fn barrier_matrix(n_cores: usize, iters: u64, stagger: u32) -> Vec<(&'static str, Workload)> {
    let mut out = Vec::new();
    for kind in BarrierKind::ALL {
        let (contended, imbalanced) = match kind {
            BarrierKind::Gl => ("contended GL", "imbalanced GL"),
            BarrierKind::Csw => ("contended CSW", "imbalanced CSW"),
            BarrierKind::Dsw => ("contended DSW", "imbalanced DSW"),
        };
        out.push((contended, build(n_cores, kind, iters)));
        out.push((imbalanced, build_imbalanced(n_cores, kind, iters, stagger)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_base::config::CmpConfig;

    fn run(kind: BarrierKind, n: usize, iters: u64) -> f64 {
        let w = build(n, kind, iters);
        let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(n));
        let cycles = sys.run(100_000_000).expect("run completes");
        if kind == BarrierKind::Gl {
            assert_eq!(sys.report().gl_barriers, iters * BARRIERS_PER_ITER);
        }
        cycles_per_barrier(cycles, iters)
    }

    #[test]
    fn barrier_matrix_covers_every_kind_and_shape() {
        let m = barrier_matrix(4, 2, 100);
        assert_eq!(m.len(), 6);
        let labels: Vec<_> = m.iter().map(|(l, _)| *l).collect();
        for l in [
            "contended GL",
            "imbalanced GL",
            "contended CSW",
            "imbalanced CSW",
            "contended DSW",
            "imbalanced DSW",
        ] {
            assert!(labels.contains(&l), "missing {l}");
        }
        for (_, w) in &m {
            assert_eq!(w.progs.len(), 4);
        }
    }

    #[test]
    fn compute_variant_counts_and_stays_live() {
        let (n, iters, work) = (4, 3u64, 25u32);
        let w = build_compute(n, BarrierKind::Gl, iters, work, 0);
        let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(n));
        sys.run(10_000_000).expect("run completes");
        for c in 0..n {
            assert_eq!(
                sys.peek_word(0x100000 + c as u64 * 64),
                iters * BARRIERS_PER_ITER * work as u64,
                "core {c}'s private counter"
            );
        }
        // The point of the variant: cores execute instead of parking,
        // so the mean active-core occupancy is a large fraction of n.
        let occ = sys.core_sched_stats().mean_active_cores();
        assert!(occ > n as f64 * 0.5, "cores mostly live, got {occ:.2}");
        assert_eq!(compute_matrix(4, 2, 10, 100).len(), 6);
    }

    #[test]
    fn gl_latency_is_small_and_flat() {
        let at4 = run(BarrierKind::Gl, 4, 20);
        let at16 = run(BarrierKind::Gl, 16, 20);
        // Per barrier: ~4 network cycles + the spin/exit instructions.
        assert!(at4 < 20.0, "GL at 4 cores: {at4}");
        assert!(at16 < 20.0, "GL at 16 cores: {at16}");
        assert!(
            (at16 - at4).abs() < 4.0,
            "GL must be ~flat in core count: {at4} vs {at16}"
        );
    }

    #[test]
    fn software_barriers_grow_with_cores() {
        let csw4 = run(BarrierKind::Csw, 4, 5);
        let csw16 = run(BarrierKind::Csw, 16, 5);
        assert!(
            csw16 > 2.0 * csw4,
            "CSW must blow up with cores: {csw4} → {csw16}"
        );
        let dsw4 = run(BarrierKind::Dsw, 4, 5);
        let dsw16 = run(BarrierKind::Dsw, 16, 5);
        assert!(
            dsw16 > dsw4,
            "DSW grows too (logarithmically): {dsw4} → {dsw16}"
        );
        // The Figure-5 ordering at 16 cores.
        let gl16 = run(BarrierKind::Gl, 16, 5);
        assert!(
            gl16 < dsw16 && dsw16 < csw16,
            "GL {gl16} < DSW {dsw16} < CSW {csw16}"
        );
    }
}

//! Livermore loops 2, 3 and 6 (the paper's §4.2 selection, following
//! Sampson et al.).
//!
//! * **Kernel 2** — excerpt from an incomplete Cholesky conjugate
//!   gradient: an element-wise array update, one barrier per outer
//!   iteration.
//! * **Kernel 3** — inner product: partials accumulate in registers (the
//!   loop body contains *no stores*, which the paper leans on when
//!   discussing Figure 6), one barrier per iteration.
//! * **Kernel 6** — a general linear recurrence: `w[i]` depends on all
//!   `w[k], k < i`, so there is one barrier per element per iteration —
//!   the most barrier-hungry kernel of Table 2.
//!
//! All arithmetic is integer (wrapping); the kernels' role in the paper
//! is their memory-access and barrier structure, not their numerics.

use crate::common::{barrier_env, chunk_range, Layout, Workload, DATA_BASE};
use sim_base::rng::SplitMix64;
use sim_cmp::runtime::BarrierKind;
use sim_isa::{ProgBuilder, Reg};

/// Parameters shared by the three kernels.
#[derive(Clone, Copy, Debug)]
pub struct KernelParams {
    /// Array length (paper: 1024).
    pub elements: usize,
    /// Outer iterations (paper: 1000).
    pub iters: u64,
    /// Seed for the input arrays.
    pub seed: u64,
}

impl KernelParams {
    /// The paper's full-size configuration.
    pub fn paper() -> KernelParams {
        KernelParams {
            elements: 1024,
            iters: 1000,
            seed: 0xD1CE,
        }
    }

    /// The paper's configuration at another size.
    pub fn scaled(elements: usize, iters: u64) -> KernelParams {
        KernelParams {
            elements,
            iters,
            ..KernelParams::paper()
        }
    }
}

fn input(seed: u64, stream: u64, len: usize) -> Vec<u64> {
    let mut r = SplitMix64::new(seed ^ (stream << 32));
    (0..len).map(|_| 1 + r.next_below(7)).collect()
}

/// Kernel 2: `x[k] = x[k] - v[k] * y[k]` over each core's chunk, barrier
/// per iteration.
pub fn kernel2(n_cores: usize, kind: BarrierKind, p: KernelParams) -> Workload {
    let env = barrier_env(kind, n_cores);
    let mut lay = Layout::new(DATA_BASE);
    let x = lay.alloc_words(p.elements as u64);
    let v = lay.alloc_words(p.elements as u64);
    let y = lay.alloc_words(p.elements as u64);

    let mut pokes = Vec::new();
    for (i, val) in input(p.seed, 1, p.elements).into_iter().enumerate() {
        pokes.push((x + i as u64 * 8, val));
    }
    for (i, val) in input(p.seed, 2, p.elements).into_iter().enumerate() {
        pokes.push((v + i as u64 * 8, val));
    }
    for (i, val) in input(p.seed, 3, p.elements).into_iter().enumerate() {
        pokes.push((y + i as u64 * 8, val));
    }

    let progs = (0..n_cores)
        .map(|c| {
            let r = chunk_range(p.elements, n_cores, c);
            let mut b = ProgBuilder::new();
            let (it, px, pv, py, cnt, t1, t2, t3) = (
                Reg(10),
                Reg(11),
                Reg(12),
                Reg(13),
                Reg(14),
                Reg(1),
                Reg(2),
                Reg(3),
            );
            let [outer, inner] = [(); 2].map(|()| b.new_label());
            b.li(it, p.iters as i64);
            b.bind(outer);
            if !r.is_empty() {
                b.li(px, (x + r.start as u64 * 8) as i64)
                    .li(pv, (v + r.start as u64 * 8) as i64)
                    .li(py, (y + r.start as u64 * 8) as i64)
                    .li(cnt, r.len() as i64)
                    .bind(inner)
                    .ld(t1, 0, pv)
                    .ld(t2, 0, py)
                    .mul(t3, t1, t2)
                    .ld(t1, 0, px)
                    .alu(sim_isa::inst::AluOp::Sub, t1, t1, t3)
                    .st(t1, 0, px)
                    .addi(px, px, 8)
                    .addi(pv, pv, 8)
                    .addi(py, py, 8)
                    .addi(cnt, cnt, -1)
                    .bne(cnt, Reg::ZERO, inner);
            }
            env.emit(&mut b, c);
            b.addi(it, it, -1).bne(it, Reg::ZERO, outer).halt();
            b.build()
        })
        .collect();

    Workload {
        name: "Kernel 2".into(),
        progs,
        pokes,
        barriers_per_core: p.iters,
        kind,
    }
}

/// Host-side reference for Kernel 2: final `x` array.
pub fn kernel2_expected(p: KernelParams) -> Vec<u64> {
    let mut x = input(p.seed, 1, p.elements);
    let v = input(p.seed, 2, p.elements);
    let y = input(p.seed, 3, p.elements);
    for _ in 0..p.iters {
        for k in 0..p.elements {
            x[k] = x[k].wrapping_sub(v[k].wrapping_mul(y[k]));
        }
    }
    x
}

/// Byte address of `x[k]` in the Kernel 2 layout.
pub fn kernel2_x_addr(k: usize) -> u64 {
    DATA_BASE + k as u64 * 8
}

/// Kernel 3: `q += z[k] * x[k]` accumulated in a register, barrier per
/// iteration; each core stores its partial once at the very end.
pub fn kernel3(n_cores: usize, kind: BarrierKind, p: KernelParams) -> Workload {
    let env = barrier_env(kind, n_cores);
    let mut lay = Layout::new(DATA_BASE);
    let z = lay.alloc_words(p.elements as u64);
    let x = lay.alloc_words(p.elements as u64);
    let partials = lay.alloc_padded_slots(n_cores as u64);

    let mut pokes = Vec::new();
    for (i, val) in input(p.seed, 4, p.elements).into_iter().enumerate() {
        pokes.push((z + i as u64 * 8, val));
    }
    for (i, val) in input(p.seed, 5, p.elements).into_iter().enumerate() {
        pokes.push((x + i as u64 * 8, val));
    }

    let progs = (0..n_cores)
        .map(|c| {
            let r = chunk_range(p.elements, n_cores, c);
            let mut b = ProgBuilder::new();
            let (it, pz, px, cnt, acc, t1, t2, t3) = (
                Reg(10),
                Reg(11),
                Reg(12),
                Reg(13),
                Reg(14),
                Reg(1),
                Reg(2),
                Reg(3),
            );
            let [outer, inner] = [(); 2].map(|()| b.new_label());
            b.li(it, p.iters as i64);
            b.bind(outer);
            b.li(acc, 0);
            if !r.is_empty() {
                b.li(pz, (z + r.start as u64 * 8) as i64)
                    .li(px, (x + r.start as u64 * 8) as i64)
                    .li(cnt, r.len() as i64)
                    .bind(inner)
                    .ld(t1, 0, pz)
                    .ld(t2, 0, px)
                    .mul(t3, t1, t2)
                    .add(acc, acc, t3)
                    .addi(pz, pz, 8)
                    .addi(px, px, 8)
                    .addi(cnt, cnt, -1)
                    .bne(cnt, Reg::ZERO, inner);
            }
            env.emit(&mut b, c);
            b.addi(it, it, -1).bne(it, Reg::ZERO, outer);
            // Store the last iteration's partial once, after the loop.
            b.li(t1, (partials + c as u64 * 64) as i64)
                .st(acc, 0, t1)
                .halt();
            b.build()
        })
        .collect();

    Workload {
        name: "Kernel 3".into(),
        progs,
        pokes,
        barriers_per_core: p.iters,
        kind,
    }
}

/// Host-side reference for Kernel 3: the full inner product.
pub fn kernel3_expected(p: KernelParams) -> u64 {
    let z = input(p.seed, 4, p.elements);
    let x = input(p.seed, 5, p.elements);
    z.iter()
        .zip(&x)
        .fold(0u64, |acc, (a, b)| acc.wrapping_add(a.wrapping_mul(*b)))
}

/// Byte address of core `c`'s Kernel 3 partial slot.
pub fn kernel3_partial_addr(_n_cores: usize, p: KernelParams, c: usize) -> u64 {
    let words = p.elements as u64 * 8;
    let lines = |bytes: u64| bytes.div_ceil(64) * 64;
    DATA_BASE + lines(words) + lines(words) + c as u64 * 64
}

/// Kernel 6: the general linear recurrence
/// `w[i] = b[i] + Σ_{k<i} w[k]·a[k]`, one barrier per element per
/// iteration. Each core keeps a private replica of `w` (updated from the
/// shared, padded partial slots), so the only shared traffic is the
/// barrier and the partials — the structure that gives K6 its huge
/// barrier count in Table 2.
pub fn kernel6(n_cores: usize, kind: BarrierKind, p: KernelParams) -> Workload {
    assert!(p.elements >= 2);
    let env = barrier_env(kind, n_cores);
    let mut lay = Layout::new(DATA_BASE);
    let a = lay.alloc_words(p.elements as u64);
    let bvec = lay.alloc_words(p.elements as u64);
    let partials = lay.alloc_padded_slots(n_cores as u64);
    let replicas: Vec<u64> = (0..n_cores)
        .map(|_| lay.alloc_words(p.elements as u64))
        .collect();

    let mut pokes = Vec::new();
    for (i, val) in input(p.seed, 6, p.elements).into_iter().enumerate() {
        pokes.push((a + i as u64 * 8, val));
    }
    for (i, val) in input(p.seed, 7, p.elements).into_iter().enumerate() {
        pokes.push((bvec + i as u64 * 8, val));
    }

    let progs = (0..n_cores)
        .map(|c| {
            let my_w = replicas[c];
            let my_range = chunk_range(p.elements, n_cores, c);
            let mut b = ProgBuilder::new();
            let (it, part, t1, t2, t3, sum) = (Reg(10), Reg(14), Reg(1), Reg(2), Reg(3), Reg(4));
            let outer = b.new_label();
            b.li(it, p.iters as i64);
            b.bind(outer);
            // w[0] = b[0] in my replica; my running partial starts at 0.
            b.li(t1, bvec as i64)
                .ld(t2, 0, t1)
                .li(t1, my_w as i64)
                .st(t2, 0, t1)
                .li(part, 0);
            for i in 1..p.elements {
                // If k = i-1 is mine, fold w[i-1]·a[i-1] into my partial.
                let k = i - 1;
                if my_range.contains(&k) {
                    b.li(t1, (my_w + k as u64 * 8) as i64)
                        .ld(t2, 0, t1)
                        .li(t1, (a + k as u64 * 8) as i64)
                        .ld(t3, 0, t1)
                        .mul(t2, t2, t3)
                        .add(part, part, t2);
                }
                // Publish my partial, synchronize, reduce everyone's.
                b.li(t1, (partials + c as u64 * 64) as i64).st(part, 0, t1);
                env.emit(&mut b, c);
                b.li(t1, (bvec + i as u64 * 8) as i64).ld(sum, 0, t1);
                for peer in 0..n_cores {
                    b.li(t1, (partials + peer as u64 * 64) as i64)
                        .ld(t2, 0, t1)
                        .add(sum, sum, t2);
                }
                b.li(t1, (my_w + i as u64 * 8) as i64).st(sum, 0, t1);
            }
            b.addi(it, it, -1).bne(it, Reg::ZERO, outer).halt();
            b.build()
        })
        .collect();

    Workload {
        name: "Kernel 6".into(),
        progs,
        pokes,
        barriers_per_core: p.iters * (p.elements as u64 - 1),
        kind,
    }
}

/// Host-side reference for Kernel 6: the final `w` array.
pub fn kernel6_expected(p: KernelParams) -> Vec<u64> {
    let a = input(p.seed, 6, p.elements);
    let bvec = input(p.seed, 7, p.elements);
    let mut w = vec![0u64; p.elements];
    w[0] = bvec[0];
    for i in 1..p.elements {
        let mut s = bvec[i];
        for k in 0..i {
            s = s.wrapping_add(w[k].wrapping_mul(a[k]));
        }
        w[i] = s;
    }
    w
}

/// Byte address of `w[k]` in core `c`'s Kernel 6 replica.
pub fn kernel6_w_addr(n_cores: usize, p: KernelParams, c: usize, k: usize) -> u64 {
    let arr = (p.elements as u64 * 8).div_ceil(64) * 64;
    let replica0 = DATA_BASE + 2 * arr + n_cores as u64 * 64;
    replica0 + c as u64 * arr + k as u64 * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_base::config::CmpConfig;

    fn run(w: &Workload, n: usize) -> sim_cmp::System {
        let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(n));
        sys.run(200_000_000).expect("workload completes");
        sys
    }

    #[test]
    fn kernel2_matches_reference() {
        let p = KernelParams::scaled(64, 3);
        for kind in [BarrierKind::Gl, BarrierKind::Dsw] {
            let w = kernel2(4, kind, p);
            let sys = run(&w, 4);
            let expect = kernel2_expected(p);
            for k in [0usize, 1, 31, 32, 63] {
                assert_eq!(
                    sys.peek_word(kernel2_x_addr(k)),
                    expect[k],
                    "{kind:?} x[{k}]"
                );
            }
        }
    }

    #[test]
    fn kernel3_matches_reference() {
        let p = KernelParams::scaled(64, 3);
        let expect_total = kernel3_expected(p);
        for kind in [BarrierKind::Gl, BarrierKind::Csw] {
            let w = kernel3(4, kind, p);
            let sys = run(&w, 4);
            let total: u64 = (0..4)
                .map(|c| sys.peek_word(kernel3_partial_addr(4, p, c)))
                .fold(0, u64::wrapping_add);
            assert_eq!(total, expect_total, "{kind:?}");
        }
    }

    #[test]
    fn kernel6_matches_reference() {
        let p = KernelParams::scaled(16, 2);
        let expect = kernel6_expected(p);
        for kind in [BarrierKind::Gl, BarrierKind::Dsw] {
            let w = kernel6(4, kind, p);
            let sys = run(&w, 4);
            for c in 0..4 {
                for k in [0usize, 7, 15] {
                    assert_eq!(
                        sys.peek_word(kernel6_w_addr(4, p, c, k)),
                        expect[k],
                        "{kind:?} core {c} w[{k}]"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel6_barrier_count() {
        let p = KernelParams::scaled(16, 2);
        let w = kernel6(4, BarrierKind::Gl, p);
        assert_eq!(w.barriers_per_core, 2 * 15);
        let sys = run(&w, 4);
        assert_eq!(sys.report().gl_barriers, 30);
    }

    #[test]
    fn odd_core_counts_still_correct() {
        let p = KernelParams::scaled(50, 2);
        let w = kernel2(6, BarrierKind::Dsw, p);
        let sys = run(&w, 6);
        let expect = kernel2_expected(p);
        assert_eq!(sys.peek_word(kernel2_x_addr(49)), expect[49]);
    }
}

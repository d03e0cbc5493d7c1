//! EM3D — electromagnetic wave propagation on a bipartite graph (the
//! Split-C benchmark, shared-memory version).
//!
//! E-nodes are updated from their H-node neighbours and vice versa, with
//! a barrier between the two half-steps — the most barrier-dense *application*
//! in Table 2 (period 3 673 cycles), which is why the paper's EM3D shows
//! the largest application speedup (54%).
//!
//! Nodes are partitioned contiguously across cores; each node's
//! neighbours are drawn from the owner's own partition except with
//! probability `pct_remote` (paper: 15%), mirroring the benchmark's
//! `% remote` knob. The neighbour lists are static, so the generator
//! bakes the addresses into the instruction stream.

use crate::common::{barrier_env, chunk_range, Layout, Workload, DATA_BASE};
use sim_base::rng::SplitMix64;
use sim_cmp::runtime::BarrierKind;
use sim_isa::{ProgBuilder, Reg};

/// EM3D parameters.
#[derive(Clone, Copy, Debug)]
pub struct Em3dParams {
    /// Nodes per class (E and H each; paper: 38 400 total → 19 200 each).
    pub nodes: usize,
    /// Neighbours per node (paper: 2).
    pub degree: usize,
    /// Probability a neighbour lives on another core (paper: 0.15).
    pub pct_remote: f64,
    /// Time steps (paper: 25).
    pub steps: u64,
    /// Graph seed.
    pub seed: u64,
}

impl Em3dParams {
    /// The paper's configuration (38 400 nodes, degree 2, 15%, 25 steps).
    pub fn paper() -> Em3dParams {
        Em3dParams {
            nodes: 19_200,
            degree: 2,
            pct_remote: 0.15,
            steps: 25,
            seed: 0xE3D,
        }
    }

    /// Scaled-down configuration.
    pub fn scaled(nodes: usize, steps: u64) -> Em3dParams {
        Em3dParams {
            nodes,
            degree: 2,
            pct_remote: 0.15,
            steps,
            seed: 0xE3D,
        }
    }
}

/// The generated graph: neighbour indices per node, per class.
fn graph(p: Em3dParams, n_cores: usize) -> Vec<Vec<usize>> {
    let mut r = SplitMix64::new(p.seed);
    (0..p.nodes)
        .map(|i| {
            let owner = (0..n_cores)
                .find(|&c| chunk_range(p.nodes, n_cores, c).contains(&i))
                .expect("every node has an owner");
            (0..p.degree)
                .map(|_| {
                    if r.chance(p.pct_remote) || chunk_range(p.nodes, n_cores, owner).is_empty() {
                        r.next_below(p.nodes as u64) as usize
                    } else {
                        let own = chunk_range(p.nodes, n_cores, owner);
                        own.start + r.next_below(own.len() as u64) as usize
                    }
                })
                .collect()
        })
        .collect()
}

/// Builds EM3D: `steps` × (E half-step, barrier, H half-step, barrier).
pub fn build(n_cores: usize, kind: BarrierKind, p: Em3dParams) -> Workload {
    assert!(p.nodes >= n_cores);
    let env = barrier_env(kind, n_cores);
    let mut lay = Layout::new(DATA_BASE);
    let e_vals = lay.alloc_words(p.nodes as u64);
    let h_vals = lay.alloc_words(p.nodes as u64);

    // Two independent bipartite halves: E nodes read H values and vice
    // versa. Same topology generator, different streams.
    let e_nbrs = graph(
        Em3dParams {
            seed: p.seed ^ 1,
            ..p
        },
        n_cores,
    );
    let h_nbrs = graph(
        Em3dParams {
            seed: p.seed ^ 2,
            ..p
        },
        n_cores,
    );

    let mut pokes = Vec::new();
    let mut r = SplitMix64::new(p.seed ^ 3);
    for i in 0..p.nodes as u64 {
        pokes.push((e_vals + i * 8, 1 + r.next_below(9)));
        pokes.push((h_vals + i * 8, 1 + r.next_below(9)));
    }

    let progs = (0..n_cores)
        .map(|c| {
            let mine = chunk_range(p.nodes, n_cores, c);
            let mut b = ProgBuilder::new();
            let (it, t1, t2, acc) = (Reg(10), Reg(1), Reg(2), Reg(3));
            let step = b.new_label();
            b.li(it, p.steps as i64);
            b.bind(step);
            // E half-step: e[i] = e[i] + Σ h[nbr].
            for i in mine.clone() {
                b.li(t1, (e_vals + i as u64 * 8) as i64).ld(acc, 0, t1);
                for &nb in &e_nbrs[i] {
                    b.li(t1, (h_vals + nb as u64 * 8) as i64)
                        .ld(t2, 0, t1)
                        .add(acc, acc, t2);
                }
                b.li(t1, (e_vals + i as u64 * 8) as i64).st(acc, 0, t1);
            }
            env.emit(&mut b, c);
            // H half-step: h[i] = h[i] + Σ e[nbr].
            for i in mine.clone() {
                b.li(t1, (h_vals + i as u64 * 8) as i64).ld(acc, 0, t1);
                for &nb in &h_nbrs[i] {
                    b.li(t1, (e_vals + nb as u64 * 8) as i64)
                        .ld(t2, 0, t1)
                        .add(acc, acc, t2);
                }
                b.li(t1, (h_vals + i as u64 * 8) as i64).st(acc, 0, t1);
            }
            env.emit(&mut b, c);
            b.addi(it, it, -1).bne(it, Reg::ZERO, step).halt();
            b.build()
        })
        .collect();

    Workload {
        name: "EM3D".into(),
        progs,
        pokes,
        barriers_per_core: 2 * p.steps,
        kind,
    }
}

/// Host-side reference: final (e, h) values.
pub fn expected(p: Em3dParams, n_cores: usize) -> (Vec<u64>, Vec<u64>) {
    let e_nbrs = graph(
        Em3dParams {
            seed: p.seed ^ 1,
            ..p
        },
        n_cores,
    );
    let h_nbrs = graph(
        Em3dParams {
            seed: p.seed ^ 2,
            ..p
        },
        n_cores,
    );
    let mut r = SplitMix64::new(p.seed ^ 3);
    let mut e = Vec::with_capacity(p.nodes);
    let mut h = Vec::with_capacity(p.nodes);
    for _ in 0..p.nodes {
        e.push(1 + r.next_below(9));
        h.push(1 + r.next_below(9));
    }
    for _ in 0..p.steps {
        let eh = e.clone();
        for i in 0..p.nodes {
            let mut acc = eh[i];
            for &nb in &e_nbrs[i] {
                acc = acc.wrapping_add(h[nb]);
            }
            e[i] = acc;
        }
        let hh = h.clone();
        for i in 0..p.nodes {
            let mut acc = hh[i];
            for &nb in &h_nbrs[i] {
                acc = acc.wrapping_add(e[nb]);
            }
            h[i] = acc;
        }
    }
    (e, h)
}

/// Byte address of `e[i]` / `h[i]`.
pub fn e_addr(i: usize) -> u64 {
    DATA_BASE + i as u64 * 8
}

/// Byte address of `h[i]` for `nodes` total nodes.
pub fn h_addr(p: Em3dParams, i: usize) -> u64 {
    DATA_BASE + (p.nodes as u64 * 8).div_ceil(64) * 64 + i as u64 * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_base::config::CmpConfig;

    #[test]
    fn matches_reference_model() {
        let p = Em3dParams::scaled(48, 3);
        for kind in [BarrierKind::Gl, BarrierKind::Dsw] {
            let w = build(4, kind, p);
            let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(4));
            sys.run(50_000_000).unwrap();
            let (e, h) = expected(p, 4);
            for i in [0usize, 13, 47] {
                assert_eq!(sys.peek_word(e_addr(i)), e[i], "{kind:?} e[{i}]");
                assert_eq!(sys.peek_word(h_addr(p, i)), h[i], "{kind:?} h[{i}]");
            }
        }
    }

    #[test]
    fn e_half_step_is_ordered_by_the_barrier() {
        // Without a correct barrier the H half-step would read stale E
        // values; the reference model check above covers it, this checks
        // the barrier count instrumented by the network.
        let p = Em3dParams::scaled(32, 4);
        let w = build(4, BarrierKind::Gl, p);
        let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(4));
        sys.run(50_000_000).unwrap();
        assert_eq!(sys.report().gl_barriers, 8);
    }

    #[test]
    fn remote_fraction_materializes() {
        let p = Em3dParams {
            pct_remote: 0.5,
            ..Em3dParams::scaled(400, 1)
        };
        let g = graph(p, 4);
        let mut remote = 0;
        let mut total = 0;
        for (i, nbrs) in g.iter().enumerate() {
            let own = chunk_range(p.nodes, 4, i * 4 / p.nodes);
            for &nb in nbrs {
                total += 1;
                if !own.contains(&nb) {
                    remote += 1;
                }
            }
        }
        let frac = remote as f64 / total as f64;
        // 50% forced remote plus random hits elsewhere.
        assert!(frac > 0.3 && frac < 0.8, "remote fraction {frac}");
    }
}

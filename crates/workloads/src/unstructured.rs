//! UNSTRUCTURED — a computational fluid dynamics kernel over an
//! irregular mesh (Mukherjee et al.), modelled as its characteristic
//! loop: edge sweeps that scatter updates into the two endpoint nodes
//! under per-node locks, with barriers between phases.
//!
//! This is the paper's lock-heavy workload: Table 2 gives it only 80
//! barriers with a 67 361-cycle period, and Figure 6 shows a visible
//! `Lock` component. Its barrier-implementation sensitivity is small
//! (3%) — which the reproduction should also show.

use crate::common::{barrier_env, chunk_range, Layout, Workload, DATA_BASE};
use sim_base::rng::SplitMix64;
use sim_cmp::runtime::{emit_lock, emit_unlock, BarrierKind};
use sim_isa::{ProgBuilder, Reg};

/// UNSTRUCTURED parameters.
#[derive(Clone, Copy, Debug)]
pub struct UnstructuredParams {
    /// Mesh nodes (paper's Mesh.2K: ~2 000).
    pub nodes: usize,
    /// Mesh edges (Mesh.2K is roughly 3× the nodes).
    pub edges: usize,
    /// Edge sweeps, each ending in a barrier (paper: 80 barriers for one
    /// time step across its internal phases).
    pub sweeps: u64,
    /// Busy cycles of per-edge computation before the scatter.
    pub edge_busy: u32,
    /// Mesh seed.
    pub seed: u64,
}

impl UnstructuredParams {
    /// The paper's configuration (Mesh.2K, one time step).
    pub fn paper() -> UnstructuredParams {
        UnstructuredParams {
            nodes: 2048,
            edges: 6144,
            sweeps: 80,
            edge_busy: 24,
            seed: 0x057,
        }
    }

    /// The paper's configuration at another size.
    pub fn scaled(nodes: usize, edges: usize, sweeps: u64) -> UnstructuredParams {
        UnstructuredParams {
            nodes,
            edges,
            sweeps,
            ..UnstructuredParams::paper()
        }
    }
}

fn mesh(p: UnstructuredParams) -> Vec<(usize, usize)> {
    let mut r = SplitMix64::new(p.seed);
    (0..p.edges)
        .map(|_| {
            let a = r.next_below(p.nodes as u64) as usize;
            let mut b = r.next_below(p.nodes as u64) as usize;
            if b == a {
                b = (a + 1) % p.nodes;
            }
            (a, b)
        })
        .collect()
}

/// Builds UNSTRUCTURED: `sweeps` × (my edges: compute, lock+scatter to
/// both endpoints; barrier).
pub fn build(n_cores: usize, kind: BarrierKind, p: UnstructuredParams) -> Workload {
    assert!(p.nodes >= 2);
    let env = barrier_env(kind, n_cores);
    let mut lay = Layout::new(DATA_BASE);
    // Node values and locks each get a full line to avoid false sharing
    // between unrelated lock holders.
    let vals = lay.alloc_padded_slots(p.nodes as u64);
    let locks = lay.alloc_padded_slots(p.nodes as u64);
    let edges = mesh(p);

    let pokes = Vec::new(); // all-zero initial values

    let progs = (0..n_cores)
        .map(|c| {
            let mine = chunk_range(p.edges, n_cores, c);
            let mut b = ProgBuilder::new();
            let (it, t1, t2) = (Reg(10), Reg(1), Reg(2));
            let sweep = b.new_label();
            b.li(it, p.sweeps as i64);
            b.bind(sweep);
            for e in mine.clone() {
                let (na, nb) = edges[e];
                // Per-edge "flux" computation.
                if p.edge_busy > 0 {
                    b.busy(p.edge_busy);
                }
                // Scatter into both endpoints under their locks, one at a
                // time (no hold-and-wait → no deadlock).
                for node in [na, nb] {
                    let lock_addr = locks + node as u64 * 64;
                    let val_addr = vals + node as u64 * 64;
                    emit_lock(&mut b, lock_addr);
                    b.li(t1, val_addr as i64)
                        .ld(t2, 0, t1)
                        .addi(t2, t2, 1)
                        .st(t2, 0, t1);
                    emit_unlock(&mut b, lock_addr);
                }
            }
            env.emit(&mut b, c);
            b.addi(it, it, -1).bne(it, Reg::ZERO, sweep).halt();
            b.build()
        })
        .collect();

    Workload {
        name: "UNSTRUCTURED".into(),
        progs,
        pokes,
        barriers_per_core: p.sweeps,
        kind,
    }
}

/// Host-side reference: final value of node `i` = sweeps × its degree.
pub fn expected_node(p: UnstructuredParams, i: usize) -> u64 {
    let degree = mesh(p).iter().filter(|&&(a, b)| a == i || b == i).count() as u64
        + mesh(p).iter().filter(|&&(a, b)| a == i && b == i).count() as u64;
    degree * p.sweeps
}

/// Byte address of node `i`'s value.
pub fn node_addr(i: usize) -> u64 {
    DATA_BASE + i as u64 * 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_base::config::CmpConfig;
    use sim_base::stats::TimeCat;

    #[test]
    fn scatter_updates_are_atomic_under_locks() {
        let p = UnstructuredParams {
            edge_busy: 2,
            ..UnstructuredParams::scaled(12, 48, 3)
        };
        for kind in [BarrierKind::Gl, BarrierKind::Csw] {
            let w = build(4, kind, p);
            let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(4));
            sys.run(100_000_000).unwrap();
            for i in 0..p.nodes {
                assert_eq!(
                    sys.peek_word(node_addr(i)),
                    expected_node(p, i),
                    "{kind:?} node {i}"
                );
            }
        }
    }

    #[test]
    fn lock_time_is_attributed() {
        let p = UnstructuredParams {
            edge_busy: 2,
            ..UnstructuredParams::scaled(8, 32, 2)
        };
        let w = build(4, BarrierKind::Gl, p);
        let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(4));
        sys.run(100_000_000).unwrap();
        let rep = sys.report();
        assert!(
            rep.total_time[TimeCat::Lock] > 0,
            "contended per-node locks must show up"
        );
    }
}

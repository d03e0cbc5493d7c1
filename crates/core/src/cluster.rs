//! Two-level G-line barrier network for meshes beyond the electrical
//! limit of a single G-line (paper §5's future work: *"design
//! efficient and scalable schemes to interconnect G-line-based networks,
//! in order to overcome the limitation in the number of cores supported by
//! this technology (a many-core CMP with more than 7×7 2D-mesh)"*).
//!
//! The global mesh is partitioned into clusters of at most
//! `cluster_dim × cluster_dim` tiles (8×8 with the default 7-transmitter
//! budget; 7×7 under the paper's strict 6-transmitter reading). Every cluster runs its own flat [`BarrierNetwork`] whose root
//! release is **gated**: once a cluster has gathered all its cores, its
//! root (the cluster's tile (0,0)) announces completion on a second-level
//! G-line network spanning the cluster heads. When the second level
//! completes, the release cascades back down and every cluster releases
//! its cores.
//!
//! Latency: gather-to-root takes 2 cycles in each cluster, the
//! second-level barrier takes 4 (its first cycle overlaps the root
//! announcement), and the gated in-cluster release takes 2 more
//! (release-column + release-row) — 7 cycles total once the last core
//! arrives, constant in core count up to 64 clusters of 64 cores = 4096
//! cores at the default budget.
//!
//! # Tracing
//!
//! Off until [`BarrierHw::set_tracer`] switches it on, like the flat
//! network, but it traces only what a core sees: `BarrierArrive` and
//! `BarrierRelease` per core
//! with global core ids, and one `BarrierComplete` per episode. The
//! sub-networks and the second level stay untraced, because their core
//! ids and rows are cluster-local.

use crate::network::{BarrierHw, BarrierNetwork, CtxId};
use crate::stats::{Episodes, GlineStats};
use sim_base::config::GlineConfig;
use sim_base::trace::{Event, Tracer};
use sim_base::{ActiveSet, Coord, CoreId, Cycle, Mesh2D};

/// A cluster's place in the picture: its sub-network and its geometry.
#[derive(Clone, Debug)]
struct Cluster {
    net: BarrierNetwork,
    /// Per-context: has this cluster's completion been forwarded to the
    /// second level (and not yet released)?
    forwarded: Vec<bool>,
}

/// Two-level composition of G-line barrier networks.
///
/// Implements the same [`BarrierHw`] interface as the flat network, so it
/// is a drop-in replacement for meshes the flat network cannot span.
#[derive(Clone, Debug)]
pub struct ClusteredBarrierNetwork {
    mesh: Mesh2D,
    grid: Mesh2D,
    cluster_dim: u16,
    clusters: Vec<Cluster>,
    level2: BarrierNetwork,
    num_contexts: usize,
    now: Cycle,
    // Episode bookkeeping per context.
    outstanding: Vec<u32>,
    episodes: Vec<Episodes>,
    stats: Vec<GlineStats>,
    /// Memo: true only while [`next_event`](BarrierHw::next_event) is
    /// `None`, so a tick moves nothing but the clocks. Conservative —
    /// an arrival clears it and the next full tick re-derives it — so
    /// the early-out in `tick` never skips work.
    idle: bool,
    /// Per context, the global cores whose `bar_reg` is set: where a
    /// traced tick looks for the cores it released. Kept only while the
    /// tracer is on (empty otherwise).
    held: Vec<ActiveSet>,
    tracer: Tracer,
}

impl ClusteredBarrierNetwork {
    /// Builds a clustered network over `mesh`, with clusters of at most
    /// `(max_transmitters + 1)²` tiles each.
    ///
    /// # Panics
    /// Panics if the *grid of clusters* itself exceeds the budget (that
    /// would need a third level; at the default budget this allows up to
    /// 4096 cores).
    pub fn new(mesh: Mesh2D, cfg: GlineConfig) -> ClusteredBarrierNetwork {
        let dim = (cfg.max_transmitters + 1) as u16;
        assert!(dim >= 1);
        let grid = Mesh2D::new(mesh.rows.div_ceil(dim), mesh.cols.div_ceil(dim));
        assert!(
            grid.rows <= dim && grid.cols <= dim,
            "{}×{} mesh needs more than two G-line levels",
            mesh.rows,
            mesh.cols
        );
        let clusters = grid
            .coords()
            .map(|g| {
                let rows = (mesh.rows - g.row * dim).min(dim);
                let cols = (mesh.cols - g.col * dim).min(dim);
                Cluster {
                    net: BarrierNetwork::gated(Mesh2D::new(rows, cols), cfg),
                    forwarded: vec![false; cfg.contexts as usize],
                }
            })
            .collect();
        let n_ctx = cfg.contexts as usize;
        ClusteredBarrierNetwork {
            mesh,
            grid,
            cluster_dim: dim,
            clusters,
            level2: BarrierNetwork::new(grid, cfg),
            num_contexts: n_ctx,
            now: 0,
            outstanding: vec![0; n_ctx],
            episodes: vec![Episodes::new(mesh.num_tiles() as u32); n_ctx],
            stats: vec![GlineStats::default(); n_ctx],
            idle: false,
            held: Vec::new(),
            tracer: Tracer::default(),
        }
    }

    /// The global mesh this network spans.
    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    /// The mesh of clusters (each entry is one flat sub-network).
    pub fn cluster_grid(&self) -> Mesh2D {
        self.grid
    }

    /// Total number of G-lines across both levels.
    pub fn num_glines(&self) -> u32 {
        self.clusters
            .iter()
            .map(|c| c.net.num_glines())
            .sum::<u32>()
            + self.level2.num_glines()
    }

    /// Statistics for context `ctx`, with the energy proxy aggregated
    /// across both levels.
    pub fn stats(&self, ctx: CtxId) -> GlineStats {
        let mut s = self.stats[ctx].clone();
        s.signals = self
            .clusters
            .iter()
            .map(|c| c.net.stats(ctx).signals)
            .sum::<u64>()
            + self.level2.stats(ctx).signals;
        s
    }

    /// Emits a `BarrierRelease` for every held core of `ctx` whose
    /// `bar_reg` this tick cleared, in ascending global id.
    fn trace_releases(&mut self, ctx: CtxId) {
        for w in 0..self.held[ctx].num_words() {
            for i in self.held[ctx].word_members(w) {
                let core = CoreId::from(i);
                if self.bar_reg(core, ctx) == 0 {
                    self.held[ctx].remove(i);
                    let ctx = ctx as u32;
                    self.tracer
                        .emit(self.now, || Event::BarrierRelease { ctx, core });
                }
            }
        }
    }

    /// Maps a global core id to (cluster index, local core id).
    fn locate(&self, core: CoreId) -> (usize, CoreId) {
        let Coord { row, col } = self.mesh.coord_of(core);
        let g = Coord::new(row / self.cluster_dim, col / self.cluster_dim);
        let cluster = self.grid.id_of(g).index();
        let local = Coord::new(row % self.cluster_dim, col % self.cluster_dim);
        let local_id = self.clusters[cluster].net.mesh().id_of(local);
        (cluster, local_id)
    }
}

impl BarrierHw for ClusteredBarrierNetwork {
    fn num_cores(&self) -> usize {
        self.mesh.num_tiles()
    }

    fn num_contexts(&self) -> usize {
        self.num_contexts
    }

    fn stats(&self, ctx: CtxId) -> GlineStats {
        ClusteredBarrierNetwork::stats(self, ctx)
    }

    fn write_bar_reg(&mut self, core: CoreId, ctx: CtxId, value: u64) {
        let (cluster, local) = self.locate(core);
        let was_zero = self.clusters[cluster].net.bar_reg(local, ctx) == 0;
        self.clusters[cluster].net.write_bar_reg(local, ctx, value);
        self.idle = false;
        if was_zero {
            self.episodes[ctx].arrive(self.now);
            self.outstanding[ctx] += 1;
            if self.tracer.on() {
                self.held[ctx].insert(core.index());
                let ctx = ctx as u32;
                self.tracer
                    .emit(self.now, || Event::BarrierArrive { ctx, core });
            }
        }
    }

    fn bar_reg(&self, core: CoreId, ctx: CtxId) -> u64 {
        let (cluster, local) = self.locate(core);
        self.clusters[cluster].net.bar_reg(local, ctx)
    }

    fn all_released(&self, ctx: CtxId) -> bool {
        // `outstanding` mirrors the sum of the sub-networks' counters
        // (incremented together in `write_bar_reg`, decremented by the
        // released delta each tick), so this is O(1).
        self.outstanding[ctx] == 0
    }

    fn tick(&mut self) {
        if self.idle {
            // Both levels quiescent and no handshake pending: the tick
            // below would only advance the clocks (`skip_to` asserts the
            // quiescence the memo claims).
            self.skip_to(self.now + 1);
            return;
        }
        // `outstanding` equals the sum of the sub-networks' counters
        // here (see `all_released`), so the cores released during this
        // cycle are its drop to the sum after the tick.
        debug_assert!((0..self.num_contexts).all(|ctx| {
            let sum: u32 = self.clusters.iter().map(|c| c.net.outstanding(ctx)).sum();
            sum == self.outstanding[ctx]
        }));

        // Level-1 networks advance first.
        for c in &mut self.clusters {
            c.net.tick();
        }
        // Cluster roots that completed announce on the second level (a
        // register wire between the cluster root and its level-2 slave
        // controller, so it lands in the same cycle's level-2 tick).
        for (i, c) in self.clusters.iter_mut().enumerate() {
            for ctx in 0..self.num_contexts {
                if !c.forwarded[ctx] && c.net.root_ready(ctx) {
                    c.forwarded[ctx] = true;
                    self.level2.write_bar_reg(CoreId::from(i), ctx, 1);
                }
            }
        }
        self.level2.tick();
        // Second-level release fans the release back into the clusters.
        for (i, c) in self.clusters.iter_mut().enumerate() {
            for ctx in 0..self.num_contexts {
                if c.forwarded[ctx] && self.level2.bar_reg(CoreId::from(i), ctx) == 0 {
                    c.forwarded[ctx] = false;
                    c.net.trigger_release(ctx);
                }
            }
        }

        // Episode accounting.
        #[allow(clippy::needless_range_loop)] // ctx indexes several parallel arrays
        for ctx in 0..self.num_contexts {
            let outstanding = self.clusters.iter().map(|c| c.net.outstanding(ctx)).sum();
            let released = self.outstanding[ctx] - outstanding;
            self.episodes[ctx].release(released);
            self.outstanding[ctx] = outstanding;
            if self.tracer.on() && released > 0 {
                self.trace_releases(ctx);
            }
            if let Some(latency) = self.episodes[ctx].close(self.now, &mut self.stats[ctx]) {
                let ctx = ctx as u32;
                self.tracer
                    .emit(self.now, || Event::BarrierComplete { ctx, latency });
            }
        }
        self.now += 1;
        self.idle = self.next_event().is_none();
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn next_event(&self) -> Option<Cycle> {
        // The composition can change state on its own while either level
        // is non-quiescent, or while an inter-level handshake is pending:
        // a root-ready cluster not yet announced on level 2 (the forward
        // happens in the next tick), or — defensively — a forwarded
        // cluster whose level-2 register has already cleared (the release
        // trigger lands in the next tick; in practice the same tick that
        // clears the register also triggers).
        let handshake_pending = self.clusters.iter().enumerate().any(|(i, c)| {
            (0..self.num_contexts).any(|ctx| {
                (!c.forwarded[ctx] && c.net.root_ready(ctx))
                    || (c.forwarded[ctx] && self.level2.bar_reg(CoreId::from(i), ctx) == 0)
            })
        });
        if handshake_pending
            || self.level2.next_event().is_some()
            || self.clusters.iter().any(|c| c.net.next_event().is_some())
        {
            Some(self.now + 1)
        } else {
            None
        }
    }

    fn skip_to(&mut self, t: Cycle) {
        debug_assert!(t >= self.now, "cannot skip backwards");
        debug_assert!(
            self.next_event().is_none(),
            "clustered-network skip while an episode is in flight"
        );
        for c in &mut self.clusters {
            c.net.skip_to(t);
        }
        self.level2.skip_to(t);
        self.now = t;
    }

    /// Traces every arrival, release and completed episode (see the
    /// module doc). Switching on rebuilds the held sets from the set
    /// `bar_reg`s.
    fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.held.clear();
        if tracer.on() {
            for ctx in 0..self.num_contexts {
                let mut held = ActiveSet::new(self.mesh.num_tiles());
                for i in 0..self.mesh.num_tiles() {
                    if self.bar_reg(CoreId::from(i), ctx) != 0 {
                        held.insert(i);
                    }
                }
                self.held.push(held);
            }
        }
    }

    fn release_bound(&self) -> u64 {
        // Same shape as the flat network's bound: once every core has
        // arrived the cascade may be in flight (1). While a context
        // still misses arrivals, even an immediate last arrival needs
        // the full two-level propagation floor before any `bar_reg`
        // can clear: 2 cycles in-cluster gather to the root, the
        // 4-cycle level-2 floor with its first cycle overlapping the
        // root announcement, and 2 more for the gated release cascade
        // (release-column + release-row) — the module-level 7-cycle
        // constant.
        (0..self.num_contexts)
            .map(|ctx| {
                if self.episodes[ctx].all_arrived() {
                    1
                } else {
                    7
                }
            })
            .min()
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GlineConfig {
        GlineConfig::default()
    }

    #[test]
    fn sixteen_by_sixteen_synchronizes_constant_latency() {
        let mesh = Mesh2D::new(16, 16);
        let mut net = ClusteredBarrierNetwork::new(mesh, cfg());
        assert_eq!(net.cluster_grid(), Mesh2D::new(2, 2));
        let lat = net.run_single_barrier(&vec![0; 256]);
        // 2 (cluster gather) + 3 (level-2, overlapping 1) + 2 (release) = 7.
        assert_eq!(lat, 7);
    }

    #[test]
    fn single_cluster_degenerate_grid() {
        // An 8×8 mesh fits in one cluster; the level-2 network is 1×1.
        let mesh = Mesh2D::new(8, 8);
        let mut net = ClusteredBarrierNetwork::new(mesh, cfg());
        assert_eq!(net.cluster_grid(), Mesh2D::new(1, 1));
        assert_eq!(net.run_single_barrier(&vec![0; 64]), 7);
    }

    #[test]
    fn latency_constant_across_large_meshes() {
        let mut lats = Vec::new();
        for (r, c) in [
            (9u16, 9u16),
            (10, 10),
            (14, 14),
            (16, 16),
            (21, 21),
            (24, 24),
        ] {
            let mesh = Mesh2D::new(r, c);
            let mut net = ClusteredBarrierNetwork::new(mesh, cfg());
            lats.push(net.run_single_barrier(&vec![0; mesh.num_tiles()]));
        }
        assert!(
            lats.windows(2).all(|w| w[0] == w[1]),
            "latency not constant: {lats:?}"
        );
    }

    #[test]
    fn ragged_mesh_clusters() {
        // 9×13 with 8×8 clusters → ragged 2×2 grid of clusters.
        let mesh = Mesh2D::new(9, 13);
        let mut net = ClusteredBarrierNetwork::new(mesh, cfg());
        assert_eq!(net.cluster_grid(), Mesh2D::new(2, 2));
        let lat = net.run_single_barrier(&vec![0; mesh.num_tiles()]);
        assert_eq!(lat, 7);
        assert_eq!(net.stats(0).barriers_completed, 1);
    }

    #[test]
    fn no_early_release_across_clusters() {
        let mesh = Mesh2D::new(9, 9);
        let mut net = ClusteredBarrierNetwork::new(mesh, cfg());
        // Every core except the last one arrives.
        for i in 0..80 {
            net.write_bar_reg(CoreId(i), 0, 1);
        }
        for _ in 0..100 {
            net.tick();
            assert!(!net.all_released(0));
            for i in 0..80 {
                assert_ne!(net.bar_reg(CoreId(i), 0), 0, "core {i} escaped");
            }
        }
        net.write_bar_reg(CoreId(80), 0, 1);
        for _ in 0..7 {
            net.tick();
        }
        assert!(net.all_released(0));
    }

    #[test]
    fn back_to_back_clustered_barriers() {
        let mesh = Mesh2D::new(16, 16);
        let mut net = ClusteredBarrierNetwork::new(mesh, cfg());
        for _ in 0..5 {
            assert_eq!(net.run_single_barrier(&vec![0; 256]), 7);
        }
        assert_eq!(net.stats(0).barriers_completed, 5);
        assert_eq!(net.stats(0).mean_latency(), 7.0);
    }

    #[test]
    fn staggered_arrivals_stats() {
        let mesh = Mesh2D::new(9, 9);
        let mut net = ClusteredBarrierNetwork::new(mesh, cfg());
        let mut arr = vec![0u64; 81];
        arr[17] = 50;
        let lat = net.run_single_barrier(&arr);
        assert_eq!(lat, 7);
        assert_eq!(net.stats(0).episode.max(), Some(57));
    }

    #[test]
    fn multi_context_clustered() {
        let mesh = Mesh2D::new(9, 9);
        let mut c = cfg();
        c.contexts = 2;
        let mut net = ClusteredBarrierNetwork::new(mesh, c);
        for i in 0..81 {
            net.write_bar_reg(CoreId(i), 1, 1);
        }
        for _ in 0..7 {
            net.tick();
        }
        assert!(net.all_released(1));
        // Context 0 was never used and must be untouched.
        assert!(net.all_released(0));
        assert_eq!(net.stats(0).barriers_completed, 0);
        assert_eq!(net.stats(1).barriers_completed, 1);
    }

    #[test]
    #[should_panic(expected = "more than two G-line levels")]
    fn three_level_meshes_rejected() {
        let _ = ClusteredBarrierNetwork::new(Mesh2D::new(70, 70), cfg());
    }

    #[test]
    fn quiescent_network_skips_and_wakes() {
        let mesh = Mesh2D::new(9, 9);
        let mut net = ClusteredBarrierNetwork::new(mesh, cfg());
        assert_eq!(net.next_event(), None, "fresh network is quiescent");
        assert_eq!(BarrierHw::release_bound(&net), 7);
        net.skip_to(1000);
        assert_eq!(net.now(), 1000);

        // A skipped network behaves identically to a ticked one.
        let lat = net.run_single_barrier(&vec![0; 81]);
        assert_eq!(lat, 7);
        // The controllers drain for a few cycles after the release; the
        // network must then report quiescence again.
        let mut settle = 0;
        while net.next_event().is_some() {
            net.tick();
            settle += 1;
            assert!(settle < 16, "network never settled after release");
        }
        net.skip_to(5000);
        assert_eq!(net.run_single_barrier(&vec![0; 81]), 7);
        assert_eq!(net.stats(0).barriers_completed, 2);
    }

    #[test]
    fn release_bound_collapses_once_all_arrived() {
        let mesh = Mesh2D::new(9, 9);
        let mut net = ClusteredBarrierNetwork::new(mesh, cfg());
        for i in 0..80 {
            net.write_bar_reg(CoreId(i), 0, 1);
        }
        for _ in 0..20 {
            net.tick();
        }
        // One arrival missing: no clear can land within the 7-cycle floor.
        assert_eq!(BarrierHw::release_bound(&net), 7);
        assert!(
            net.next_event().is_some() || !net.all_released(0),
            "registers still held"
        );
        net.write_bar_reg(CoreId(80), 0, 1);
        assert_eq!(
            BarrierHw::release_bound(&net),
            1,
            "release may be in flight"
        );
        for _ in 0..7 {
            assert!(net.next_event().is_some(), "episode in flight every cycle");
            net.tick();
        }
        assert!(net.all_released(0));
    }

    #[test]
    fn traced_network_reports_global_core_events() {
        use sim_base::trace::RingSink;
        let tracer = Tracer::new(RingSink::new(usize::MAX));
        let mesh = Mesh2D::new(9, 9);
        let mut net = ClusteredBarrierNetwork::new(mesh, cfg());
        net.set_tracer(&tracer);
        for _ in 0..2 {
            assert_eq!(net.run_single_barrier(&vec![0; 81]), 7);
        }
        let events: Vec<_> = tracer.with_sink(|s: &mut RingSink| s.events().cloned().collect());
        for name in ["barrier.arrive", "barrier.release"] {
            let mut cores: Vec<usize> = events
                .iter()
                .filter_map(|(_, e)| match e {
                    Event::BarrierArrive { core, .. } | Event::BarrierRelease { core, .. }
                        if e.name() == name =>
                    {
                        Some(core.index())
                    }
                    _ => None,
                })
                .collect();
            cores.sort_unstable();
            let expect: Vec<usize> = (0..81).flat_map(|i| [i, i]).collect();
            assert_eq!(cores, expect, "{name}: one per core per episode");
        }
        let completes: Vec<_> = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::BarrierComplete { latency: 7, .. }))
            .collect();
        assert_eq!(completes.len(), 2);
        assert_eq!(events.len(), 2 * (81 + 81 + 1), "nothing cluster-local");
    }

    #[test]
    fn gline_budget_counts() {
        let net = ClusteredBarrierNetwork::new(Mesh2D::new(16, 16), cfg());
        // Four 8×8 clusters: 2×(8+1)=18 lines each; level-2 2×2: 2×(2+1)=6.
        assert_eq!(net.num_glines(), 4 * 18 + 6);
    }
}

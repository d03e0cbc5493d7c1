//! Time-multiplexed barrier contexts over a *single* physical G-line set
//! — the other half of the paper's §5 future work ("extend the use of
//! our approach … by multiplexing in space and time, in which several
//! barrier executions can coexist").
//!
//! Space multiplexing ([`crate::BarrierNetwork`] with `contexts > 1`)
//! replicates the wires per context: `V` barriers cost
//! `V × 2 × (rows + 1)` G-lines but each keeps the 4-cycle latency.
//! **Time multiplexing** keeps one physical set of wires and gives each
//! logical barrier every `V`-th cycle: `2 × (rows + 1)` G-lines total,
//! at the price of a worst-case latency of about `4 × V` cycles (each of
//! the four wave steps must wait for its slot).
//!
//! The model freezes a logical barrier's controllers outside its slot
//! (their state is registered; the wires simply aren't theirs to drive),
//! which is exactly how a TDM arbiter would behave in hardware.

use crate::network::{BarrierHw, BarrierNetwork, CtxId};
use crate::stats::{Episodes, GlineStats};
use sim_base::config::GlineConfig;
use sim_base::{CoreId, Cycle, Mesh2D};

/// `V` logical barriers sharing one physical G-line network by TDM.
#[derive(Clone, Debug)]
pub struct TdmBarrierNetwork {
    mesh: Mesh2D,
    /// One *logical* network per slot. Each is built with a single
    /// context and is only ticked during its slot, which freezes its
    /// controllers in between — wire occupancy is therefore exclusive.
    slots: Vec<BarrierNetwork>,
    now: Cycle,
    // Episode bookkeeping per logical barrier, in *real* cycles (the
    // inner networks count slot-cycles).
    episodes: Vec<Episodes>,
    stats: Vec<GlineStats>,
}

impl TdmBarrierNetwork {
    /// Builds a TDM network with `logical` barrier contexts (≥ 1) over
    /// the physical wires described by `cfg` (its `contexts` field is
    /// ignored — that is the space-multiplexing knob).
    pub fn new(mesh: Mesh2D, cfg: GlineConfig, logical: usize) -> TdmBarrierNetwork {
        assert!(logical >= 1, "at least one logical barrier");
        let single = GlineConfig { contexts: 1, ..cfg };
        TdmBarrierNetwork {
            mesh,
            slots: (0..logical)
                .map(|_| BarrierNetwork::new(mesh, single))
                .collect(),
            now: 0,
            episodes: vec![Episodes::new(mesh.num_tiles() as u32); logical],
            stats: vec![GlineStats::default(); logical],
        }
    }

    /// Physical G-lines used — independent of the logical count (the
    /// whole point of TDM).
    pub fn num_glines(&self) -> u32 {
        2 * (self.mesh.rows as u32 + 1)
    }

    /// Statistics of logical barrier `ctx` (latencies in real cycles).
    pub fn stats(&self, ctx: CtxId) -> GlineStats {
        let mut s = self.stats[ctx].clone();
        s.signals = self.slots[ctx].stats(0).signals;
        s
    }
}

impl BarrierHw for TdmBarrierNetwork {
    fn num_cores(&self) -> usize {
        self.mesh.num_tiles()
    }

    fn num_contexts(&self) -> usize {
        self.slots.len()
    }

    fn stats(&self, ctx: CtxId) -> GlineStats {
        TdmBarrierNetwork::stats(self, ctx)
    }

    fn write_bar_reg(&mut self, core: CoreId, ctx: CtxId, value: u64) {
        let was_zero = self.slots[ctx].bar_reg(core, 0) == 0;
        self.slots[ctx].write_bar_reg(core, 0, value);
        if was_zero {
            self.episodes[ctx].arrive(self.now);
        }
    }

    fn bar_reg(&self, core: CoreId, ctx: CtxId) -> u64 {
        self.slots[ctx].bar_reg(core, 0)
    }

    fn all_released(&self, ctx: CtxId) -> bool {
        self.slots[ctx].all_released(0)
    }

    fn tick(&mut self) {
        // Only the slot owner may drive (and sense) the wires this cycle.
        let ctx = (self.now % self.slots.len() as u64) as usize;
        let before = self.slots[ctx].outstanding(0);
        self.slots[ctx].tick();
        self.episodes[ctx].release(before - self.slots[ctx].outstanding(0));
        self.episodes[ctx].close(self.now, &mut self.stats[ctx]);
        self.now += 1;
    }

    fn now(&self) -> Cycle {
        self.now
    }

    // `release_bound` (like `next_event`) keeps the trait's
    // conservative default of 1: a slot's controllers
    // advance only on that slot's cycles, so a bound would have to be
    // argued from the slot rotation as well as the per-context arrival
    // counts, and it would buy nothing — this model never reports
    // quiescence, so a simulator can never jump the clock over it, and
    // no workload runs it at a size where stepping the spinners shows.
    // With the default a simulator simply never parks a `bar_reg`
    // spinner on TDM hardware.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GlineConfig {
        GlineConfig::default()
    }

    #[test]
    fn single_slot_degenerates_to_flat_network() {
        let mesh = Mesh2D::new(4, 8);
        let mut net = TdmBarrierNetwork::new(mesh, cfg(), 1);
        assert_eq!(net.run_single_barrier(&vec![0; 32]), 4);
        assert_eq!(net.num_glines(), 10);
    }

    #[test]
    fn latency_scales_with_slot_count() {
        let mesh = Mesh2D::new(4, 4);
        for v in [2usize, 3, 4] {
            let mut net = TdmBarrierNetwork::new(mesh, cfg(), v);
            let lat = net.run_single_barrier(&[0; 16]);
            // Four wave steps, each waiting ≤ v cycles for its slot.
            assert!(
                lat >= 4 && lat <= 4 * v as u64 + v as u64,
                "v={v}: latency {lat} outside [4, {}]",
                5 * v
            );
            assert!(
                lat > 4,
                "v={v}: TDM must cost something over the flat network"
            );
        }
    }

    #[test]
    fn wires_are_constant_in_logical_count() {
        let mesh = Mesh2D::new(4, 8);
        for v in [1usize, 2, 8] {
            let net = TdmBarrierNetwork::new(mesh, cfg(), v);
            assert_eq!(net.num_glines(), 10, "TDM must not replicate wires");
        }
        // Contrast: space multiplexing replicates per context.
        let spatial = BarrierNetwork::new(
            mesh,
            GlineConfig {
                contexts: 8,
                ..cfg()
            },
        );
        assert_eq!(spatial.num_glines(), 80);
    }

    #[test]
    fn concurrent_logical_barriers_complete_independently() {
        let mesh = Mesh2D::new(2, 4);
        let n = mesh.num_tiles();
        let mut net = TdmBarrierNetwork::new(mesh, cfg(), 3);
        // Barrier 0: everyone arrives now. Barrier 1: half arrive.
        for i in 0..n {
            net.write_bar_reg(CoreId::from(i), 0, 1);
        }
        for i in 0..n / 2 {
            net.write_bar_reg(CoreId::from(i), 1, 1);
        }
        for _ in 0..40 {
            net.tick();
        }
        assert!(net.all_released(0), "logical barrier 0 must complete");
        assert!(!net.all_released(1), "logical barrier 1 must still hold");
        // Complete barrier 1.
        for i in n / 2..n {
            net.write_bar_reg(CoreId::from(i), 1, 1);
        }
        for _ in 0..40 {
            net.tick();
        }
        assert!(net.all_released(1));
        assert_eq!(net.stats(0).barriers_completed, 1);
        assert_eq!(net.stats(1).barriers_completed, 1);
        assert_eq!(net.stats(2).barriers_completed, 0);
    }

    #[test]
    fn back_to_back_episodes_per_logical_barrier() {
        let mesh = Mesh2D::new(2, 2);
        let mut net = TdmBarrierNetwork::new(mesh, cfg(), 2);
        for _ in 0..5 {
            let lat = net.run_single_barrier(&[0; 4]);
            assert!(lat <= 12, "episode latency {lat}");
        }
        assert_eq!(net.stats(0).barriers_completed, 5);
    }

    #[test]
    fn staggered_arrivals_tdm() {
        let mesh = Mesh2D::new(3, 3);
        let mut net = TdmBarrierNetwork::new(mesh, cfg(), 4);
        let arrivals: Vec<u64> = (0..9).map(|i| i * 3).collect();
        let lat = net.run_single_barrier(&arrivals);
        assert!(lat <= 20, "latency {lat}");
        assert_eq!(net.stats(0).barriers_completed, 1);
    }
}

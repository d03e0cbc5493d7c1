//! The barrier hardware a machine is built with: the flat network where
//! the mesh fits the G-line transmitter budget, the two-level clustered
//! one beyond it. The configuration makes the choice, so a simulator
//! holds one type for every mesh.

use crate::cluster::ClusteredBarrierNetwork;
use crate::network::{BarrierHw, BarrierNetwork, CtxId};
use crate::stats::GlineStats;
use sim_base::config::CmpConfig;
use sim_base::trace::{NullSink, TraceSink, Tracer};
use sim_base::{CoreId, Cycle};

/// The G-line barrier network of a [`CmpConfig`]: flat up to the
/// transmitter budget (8×8 at the default budget), clustered beyond
/// ([`CmpConfig::needs_clustered_gline`]).
#[derive(Clone, Debug)]
pub enum GlineHw<S: TraceSink = NullSink> {
    /// One flat network spans the mesh.
    Flat(BarrierNetwork<S>),
    /// The mesh exceeds the budget: clusters under a second level.
    Clustered(ClusteredBarrierNetwork<S>),
}

impl GlineHw {
    /// The untraced network for `cfg`'s mesh and G-line parameters.
    pub fn new(cfg: &CmpConfig) -> GlineHw {
        GlineHw::traced(cfg, Tracer::default())
    }
}

impl<S: TraceSink> GlineHw<S> {
    /// The network for `cfg`, emitting into `tracer`.
    pub fn traced(cfg: &CmpConfig, tracer: Tracer<S>) -> GlineHw<S> {
        if cfg.needs_clustered_gline() {
            GlineHw::Clustered(ClusteredBarrierNetwork::traced(cfg.mesh, cfg.gline, tracer))
        } else {
            GlineHw::Flat(BarrierNetwork::traced(cfg.mesh, cfg.gline, tracer))
        }
    }
}

/// Forwards a [`BarrierHw`] call to whichever network `$hw` holds.
macro_rules! delegate {
    ($hw:expr, $net:ident => $call:expr) => {
        match $hw {
            GlineHw::Flat($net) => $call,
            GlineHw::Clustered($net) => $call,
        }
    };
}

impl<S: TraceSink> BarrierHw for GlineHw<S> {
    #[inline]
    fn num_cores(&self) -> usize {
        delegate!(self, n => n.num_cores())
    }
    #[inline]
    fn write_bar_reg(&mut self, core: CoreId, ctx: CtxId, value: u64) {
        delegate!(self, n => BarrierHw::write_bar_reg(n, core, ctx, value))
    }
    #[inline]
    fn bar_reg(&self, core: CoreId, ctx: CtxId) -> u64 {
        delegate!(self, n => BarrierHw::bar_reg(n, core, ctx))
    }
    #[inline]
    fn all_released(&self, ctx: CtxId) -> bool {
        delegate!(self, n => BarrierHw::all_released(n, ctx))
    }
    #[inline]
    fn tick(&mut self) {
        delegate!(self, n => BarrierHw::tick(n))
    }
    #[inline]
    fn now(&self) -> Cycle {
        delegate!(self, n => BarrierHw::now(n))
    }
    #[inline]
    fn num_contexts(&self) -> usize {
        delegate!(self, n => BarrierHw::num_contexts(n))
    }
    #[inline]
    fn stats(&self, ctx: CtxId) -> GlineStats {
        delegate!(self, n => BarrierHw::stats(n, ctx))
    }
    #[inline]
    fn next_event(&self) -> Option<Cycle> {
        delegate!(self, n => BarrierHw::next_event(n))
    }
    #[inline]
    fn skip_to(&mut self, t: Cycle) {
        delegate!(self, n => BarrierHw::skip_to(n, t))
    }
    #[inline]
    fn release_bound(&self) -> u64 {
        delegate!(self, n => n.release_bound())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mesh_picks_the_network() {
        let flat = CmpConfig::icpp2010_with_cores(64);
        assert!(matches!(GlineHw::new(&flat), GlineHw::Flat(_)));
        let mut big = GlineHw::new(&CmpConfig::icpp2010_with_cores(256));
        assert!(matches!(big, GlineHw::Clustered(_)));
        assert_eq!(big.num_cores(), 256);
        assert_eq!(big.run_single_barrier(&[0; 256]), 7);
    }
}

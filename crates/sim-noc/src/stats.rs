//! Network statistics: the Figure-7 message counters plus latency and
//! energy proxies.

use sim_base::stats::{Histogram, MsgClass, TrafficBreakdown};

/// Statistics of a [`crate::Noc`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NocStats {
    /// Messages injected, by class (the paper's Figure-7 counters).
    pub sent: TrafficBreakdown,
    /// Messages delivered, by class.
    pub delivered: TrafficBreakdown,
    /// Same-tile messages that bypassed the network (not in `sent`).
    pub local_bypass: u64,
    /// Total flit × link-hop products (energy / bandwidth proxy).
    pub flit_hops: u64,
    /// End-to-end message latency per class, injection to delivery.
    pub latency: [Histogram; 3],
}

impl NocStats {
    /// Latency histogram for one class.
    pub fn latency_of(&self, c: MsgClass) -> &Histogram {
        &self.latency[c.index()]
    }

    /// Total messages that actually crossed the network.
    pub fn total_messages(&self) -> u64 {
        self.sent.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let s = NocStats::default();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.flit_hops, 0);
        assert_eq!(s.latency_of(MsgClass::Reply).count(), 0);
    }
}

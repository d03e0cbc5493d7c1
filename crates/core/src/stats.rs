//! Statistics collected by the barrier network.

use sim_base::stats::Histogram;
use sim_base::Cycle;

/// Per-context statistics of a [`crate::BarrierNetwork`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GlineStats {
    /// Barrier episodes completed (every core released).
    pub barriers_completed: u64,
    /// Distribution of barrier latency: cycles from the *last* arrival
    /// (`bar_reg` write) to the release, inclusive of the release cycle.
    /// The paper's ideal value is 4.
    pub latency: Histogram,
    /// Distribution of the whole episode: cycles from the *first* arrival
    /// to the release (includes the S2 busy-wait skew).
    pub episode: Histogram,
    /// Total 1-bit signals driven onto G-lines (energy proxy).
    pub signals: u64,
}

impl GlineStats {
    /// Records a completed barrier episode.
    ///
    /// Cycle arithmetic saturates: an arrival stamp at or past the release
    /// (possible only through a mis-wired caller, never the shipped
    /// networks) records as a degenerate 1-cycle episode instead of
    /// wrapping around `u64`.
    pub(crate) fn record(&mut self, first_arrival: Cycle, last_arrival: Cycle, release: Cycle) {
        self.barriers_completed += 1;
        // +1: release happens at the *end* of the release cycle, so a
        // last-arrival at cycle t with release during cycle t+3 is the
        // paper's "4 cycles".
        self.latency
            .record(release.saturating_sub(last_arrival).saturating_add(1));
        self.episode
            .record(release.saturating_sub(first_arrival).saturating_add(1));
    }

    /// Mean barrier latency in cycles (0 when no barrier completed).
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = GlineStats::default();
        s.record(0, 0, 3);
        s.record(10, 12, 15);
        assert_eq!(s.barriers_completed, 2);
        assert_eq!(s.latency.min(), Some(4));
        assert_eq!(s.latency.max(), Some(4));
        assert_eq!(s.episode.max(), Some(6));
        assert_eq!(s.mean_latency(), 4.0);
    }

    #[test]
    fn mean_latency_is_zero_with_no_episodes() {
        let s = GlineStats::default();
        assert_eq!(s.barriers_completed, 0);
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.latency.min(), None);
        assert_eq!(s.latency.max(), None);
    }

    #[test]
    fn single_arrival_episode_equals_latency() {
        // One core arriving alone: first and last arrival coincide, so the
        // episode distribution must match the latency distribution exactly.
        let mut s = GlineStats::default();
        s.record(7, 7, 10);
        assert_eq!(s.latency.min(), Some(4));
        assert_eq!(s.episode.min(), Some(4));
        assert_eq!(s.latency.sum(), s.episode.sum());
    }

    #[test]
    fn record_saturates_instead_of_wrapping() {
        // A release stamp before the arrival stamps (caller bug) must not
        // wrap around u64; it degenerates to the 1-cycle floor.
        let mut s = GlineStats::default();
        s.record(10, 10, 5);
        assert_eq!(s.latency.max(), Some(1));
        assert_eq!(s.episode.max(), Some(1));
        // And the +1 itself saturates at u64::MAX.
        s.record(0, 0, u64::MAX);
        assert_eq!(s.latency.max(), Some(u64::MAX));
    }
}

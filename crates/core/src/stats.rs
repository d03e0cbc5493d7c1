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

/// Arrivals counted towards one episode.
#[derive(Clone, Copy, Debug, Default)]
struct Arrivals {
    count: u32,
    first: Cycle,
    last: Cycle,
}

impl Arrivals {
    fn add(&mut self, now: Cycle) {
        if self.count == 0 {
            self.first = now;
        }
        self.count += 1;
        self.last = now;
    }
}

/// Episode bookkeeping of one barrier context, shared by the networks.
///
/// An arrival joins the open episode until every core has arrived.
/// After that it is early: a core the release wave reached first (on
/// slow lines, row 0's and column 0's cores are released up to
/// `line_latency - 1` cycles before the rest) arriving again while the
/// others are still being released. It belongs to the next episode. The
/// open episode closes once all of its arrivals are released, and its
/// early arrivals open the next one.
#[derive(Clone, Debug)]
pub(crate) struct Episodes {
    /// Cores the context synchronizes.
    cores: u32,
    open: Arrivals,
    /// Arrivals of the open episode released so far.
    released: u32,
    early: Arrivals,
}

impl Episodes {
    pub(crate) fn new(cores: u32) -> Episodes {
        Episodes {
            cores,
            open: Arrivals::default(),
            released: 0,
            early: Arrivals::default(),
        }
    }

    /// A core's `bar_reg` went from clear to set at `now`.
    pub(crate) fn arrive(&mut self, now: Cycle) {
        if self.all_arrived() {
            self.early.add(now);
        } else {
            self.open.add(now);
        }
    }

    /// `n` set `bar_reg`s were cleared.
    pub(crate) fn release(&mut self, n: u32) {
        self.released += n;
    }

    /// Every core has arrived in the open episode, so its release wave
    /// may be under way.
    pub(crate) fn all_arrived(&self) -> bool {
        self.open.count == self.cores
    }

    /// Every arrival of the open episode has been released.
    pub(crate) fn complete(&self) -> bool {
        self.all_arrived() && self.released == self.cores
    }

    /// At the end of the cycle `now`: records the open episode in `stats`
    /// if it is complete, opens the next with the early arrivals, and
    /// returns the recorded latency.
    pub(crate) fn close(&mut self, now: Cycle, stats: &mut GlineStats) -> Option<Cycle> {
        if !self.complete() {
            return None;
        }
        stats.record(self.open.first, self.open.last, now);
        let latency = now.saturating_sub(self.open.last).saturating_add(1);
        self.open = std::mem::take(&mut self.early);
        self.released = 0;
        Some(latency)
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
    fn early_arrivals_open_the_next_episode() {
        let mut s = GlineStats::default();
        let mut e = Episodes::new(2);
        e.arrive(0);
        e.arrive(1);
        // One core is released first and arrives again at cycle 3,
        // before the other is released.
        e.release(1);
        e.arrive(3);
        assert_eq!(e.close(3, &mut s), None);
        e.release(1);
        assert_eq!(e.close(4, &mut s), Some(4));
        assert!(!e.all_arrived(), "the early arrival opened the next");
        e.arrive(6);
        e.release(2);
        assert_eq!(e.close(8, &mut s), Some(3));
        assert_eq!(s.barriers_completed, 2);
        assert_eq!(s.episode.max(), Some(6), "first arrival 3, release 8");
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

//! The G-line wire model with S-CSMA sensing.
//!
//! Electrically, a G-line is a differential low-swing global wire that
//! crosses one chip dimension in a single clock. Krishna et al. (HOTI'08)
//! showed that the receiver can recover not just the wired-OR value but the
//! *number* of simultaneous transmitters (S-CSMA), for up to six
//! transmitters per line. This module models exactly that contract:
//!
//! * transmitters call [`GLine::assert_tx`] during a cycle;
//! * at the end of the cycle the simulator calls [`GLine::propagate`];
//! * the (single) receiver then reads [`GLine::sensed`], observing the OR
//!   value and the transmitter count — in the same cycle for the paper's
//!   1-cycle lines, or `latency - 1` cycles later for the slow-line
//!   variant of the paper's future work.

/// What the receiver of a G-line observes at the end of a cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sensed {
    /// Wired-OR of all transmitter signals.
    pub value: bool,
    /// S-CSMA transmitter count (how many asserted this observation).
    pub count: u32,
}

/// One G-line: a 1-bit broadcast wire with a transmitter budget and a
/// propagation latency in cycles.
#[derive(Clone, Debug)]
pub struct GLine {
    /// Electrical transmitter budget (the paper assumes 6).
    max_transmitters: u32,
    /// Propagation latency in cycles; 1 means assertions are sensed at the
    /// end of the same cycle.
    latency: u32,
    /// Transmitters asserted during the current (not yet propagated) cycle.
    pending: u32,
    /// Values still on the wire: a ring of `latency - 1` entries whose
    /// oldest sits at `head` (empty for the paper's 1-cycle lines, which
    /// hand `pending` straight to `sensed`).
    pipeline: Box<[Sensed]>,
    head: usize,
    /// Entries of `pipeline` carrying a signal, so [`is_idle`](Self::is_idle)
    /// is O(1) whatever the latency.
    in_flight: u32,
    /// What the receiver currently senses.
    sensed: Sensed,
    /// Total signal-cycles ever transmitted (energy proxy).
    energy_signals: u64,
}

impl GLine {
    /// Creates a line. `latency` must be at least 1.
    ///
    /// # Panics
    /// Panics if `latency == 0` or `max_transmitters == 0`.
    pub fn new(max_transmitters: u32, latency: u32) -> GLine {
        assert!(latency >= 1, "a G-line needs at least one cycle of latency");
        assert!(
            max_transmitters >= 1,
            "a G-line needs at least one transmitter"
        );
        GLine {
            max_transmitters,
            latency,
            pending: 0,
            pipeline: vec![Sensed::default(); latency as usize - 1].into_boxed_slice(),
            head: 0,
            in_flight: 0,
            sensed: Sensed::default(),
            energy_signals: 0,
        }
    }

    /// Asserts the line for the current cycle (one transmitter) and returns
    /// the number of transmitters asserted so far this cycle — handy for
    /// event tracing without a second query.
    ///
    /// # Panics
    /// Panics if more than `max_transmitters` assert within one cycle —
    /// that is an electrical violation the network wiring must prevent.
    pub fn assert_tx(&mut self) -> u32 {
        self.pending += 1;
        assert!(
            self.pending <= self.max_transmitters,
            "G-line transmitter budget exceeded: {} > {}",
            self.pending,
            self.max_transmitters
        );
        self.energy_signals += 1;
        self.pending
    }

    /// Ends the cycle: the pending assertions enter the wire and the
    /// receiver senses what entered it `latency - 1` cycles ago.
    #[inline]
    pub fn propagate(&mut self) {
        let s = Sensed {
            value: self.pending > 0,
            count: self.pending,
        };
        self.pending = 0;
        self.sensed = if self.pipeline.is_empty() {
            s
        } else {
            let out = std::mem::replace(&mut self.pipeline[self.head], s);
            self.head = (self.head + 1) % self.pipeline.len();
            self.in_flight += s.value as u32;
            self.in_flight -= out.value as u32;
            out
        };
    }

    /// What the single receiver observes for the cycle just ended.
    #[inline]
    pub fn sensed(&self) -> Sensed {
        self.sensed
    }

    /// Transmitter budget of this line.
    pub fn max_transmitters(&self) -> u32 {
        self.max_transmitters
    }

    /// Propagation latency in cycles.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Total number of signal-cycles transmitted on this line — the energy
    /// proxy used by the evaluation harness.
    pub fn energy_signals(&self) -> u64 {
        self.energy_signals
    }

    /// True when no signal is pending or on the wire, so the next
    /// [`propagate`](Self::propagate) senses nothing and leaves the line
    /// as it is: idle lines can be skipped over. O(1). The value sensed
    /// last is not part of it — its receiver consumed it in the cycle
    /// that produced it, and the next `propagate` overwrites it before
    /// anything reads it again.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.pending == 0 && self.in_flight == 0
    }

    /// Checks the in-flight count [`is_idle`](Self::is_idle) reads
    /// against the signals actually on the wire (a scan of the ring).
    pub fn check_invariants(&self) -> Result<(), String> {
        let on_wire = self.pipeline.iter().filter(|s| s.value).count() as u32;
        if self.in_flight != on_wire {
            return Err(format!(
                "in-flight count {} but {on_wire} signals on the wire",
                self.in_flight
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cycle_latency_senses_same_cycle() {
        let mut l = GLine::new(6, 1);
        l.assert_tx();
        l.assert_tx();
        l.propagate();
        assert_eq!(
            l.sensed(),
            Sensed {
                value: true,
                count: 2
            }
        );
        // Next cycle with no transmitters: line idle.
        l.propagate();
        assert_eq!(
            l.sensed(),
            Sensed {
                value: false,
                count: 0
            }
        );
    }

    #[test]
    fn scsma_counts_up_to_budget() {
        let mut l = GLine::new(6, 1);
        for i in 1..=6 {
            assert_eq!(l.assert_tx(), i, "assert_tx returns the running count");
        }
        l.propagate();
        assert_eq!(l.sensed().count, 6);
    }

    #[test]
    #[should_panic(expected = "transmitter budget exceeded")]
    fn budget_violation_panics() {
        let mut l = GLine::new(2, 1);
        l.assert_tx();
        l.assert_tx();
        l.assert_tx();
    }

    #[test]
    fn slow_line_delays_observation() {
        let mut l = GLine::new(6, 3);
        l.assert_tx();
        l.propagate(); // cycle 0: in flight
        assert_eq!(l.sensed(), Sensed::default());
        l.propagate(); // cycle 1: still in flight
        assert_eq!(l.sensed(), Sensed::default());
        l.propagate(); // cycle 2: arrives
        assert_eq!(
            l.sensed(),
            Sensed {
                value: true,
                count: 1
            }
        );
        l.propagate(); // cycle 3: idle again
        assert_eq!(l.sensed(), Sensed::default());
    }

    #[test]
    fn slow_line_pipelines_back_to_back_signals() {
        let mut l = GLine::new(6, 2);
        l.assert_tx();
        l.propagate(); // signal A in flight
        l.assert_tx();
        l.assert_tx();
        l.propagate(); // A sensed, B in flight
        assert_eq!(l.sensed().count, 1);
        l.propagate(); // B sensed
        assert_eq!(l.sensed().count, 2);
    }

    #[test]
    fn energy_counts_every_assertion() {
        let mut l = GLine::new(6, 1);
        for _ in 0..5 {
            l.assert_tx();
            l.propagate();
        }
        assert_eq!(l.energy_signals(), 5);
    }

    #[test]
    fn idle_while_nothing_is_pending_or_on_the_wire() {
        for latency in 1..=4 {
            let mut l = GLine::new(6, latency);
            assert!(l.is_idle(), "a fresh line is idle (latency {latency})");
            l.assert_tx();
            for _ in 1..latency {
                assert!(!l.is_idle());
                l.propagate();
                assert_eq!(l.sensed(), Sensed::default());
                l.check_invariants().unwrap();
            }
            assert!(!l.is_idle());
            l.propagate();
            assert_eq!(l.sensed().count, 1, "latency {latency}");
            // Sensed this cycle, consumed by the receiver: nothing left.
            assert!(l.is_idle(), "latency {latency}");
            l.check_invariants().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn zero_latency_rejected() {
        let _ = GLine::new(6, 0);
    }
}

//! The four G-line controller automata of Figure 4.
//!
//! Each controller is a small Moore/Mealy machine driven by the network in
//! three phases per cycle:
//!
//! 1. **latch** — registers written by *other* controllers during the
//!    previous cycle become visible (`release_next` → `release_pending`;
//!    flags are snapshotted by the network);
//! 2. **transmit** — based on current state and latched inputs, the
//!    controller may assert its transmission G-line;
//! 3. **receive** — the controller senses its reception G-line, updates
//!    its counters and state, and writes registers for the next cycle.
//!
//! This two-edge register discipline is what real hardware does and it
//! reproduces the paper's Figure 2 timing exactly: with every core arrived
//! before cycle 0, the release completes at the end of cycle 3.

use crate::line::Sensed;

/// States of a horizontal slave controller (tiles outside column 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlaveHState {
    /// Waiting for the local core to arrive at the barrier; pulses the
    /// gather line on arrival.
    Signaling,
    /// Arrival signalled; waiting for the row release line.
    Waiting,
}

impl SlaveHState {
    /// Stable state name used by the trace subsystem.
    pub fn label(self) -> &'static str {
        match self {
            SlaveHState::Signaling => "Signaling",
            SlaveHState::Waiting => "Waiting",
        }
    }
}

/// Horizontal slave controller (`Sh` in the paper).
#[derive(Clone, Debug)]
pub struct SlaveH {
    state: SlaveHState,
}

impl SlaveH {
    /// A slave in its initial `Signaling` state.
    pub fn new() -> SlaveH {
        SlaveH {
            state: SlaveHState::Signaling,
        }
    }

    /// Current FSM state (for inspection/tests).
    pub fn state(&self) -> SlaveHState {
        self.state
    }

    /// Transmit phase: returns `true` iff the gather line (SglineH) must
    /// be asserted this cycle. `core_arrived` is `bar_reg != 0`.
    pub fn transmit(&mut self, core_arrived: bool) -> bool {
        if self.state == SlaveHState::Signaling && core_arrived {
            self.state = SlaveHState::Waiting;
            true
        } else {
            false
        }
    }

    /// Receive phase: senses the row release line (MglineH). Returns
    /// `true` iff the local core's `bar_reg` must be cleared (barrier
    /// complete for this core).
    pub fn receive(&mut self, release: Sensed) -> bool {
        if self.state == SlaveHState::Waiting && release.value {
            self.state = SlaveHState::Signaling;
            true
        } else {
            false
        }
    }

    /// True when, with both G-lines idle and `core_arrived` held at its
    /// current value, a full latch/transmit/receive cycle is a no-op.
    pub fn is_stable(&self, core_arrived: bool) -> bool {
        !(self.state == SlaveHState::Signaling && core_arrived)
    }
}

impl Default for SlaveH {
    fn default() -> Self {
        SlaveH::new()
    }
}

/// States of a horizontal master controller (column-0 tile of each row).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MasterHState {
    /// Counting arrival pulses from the row's slaves (S-CSMA) and waiting
    /// for the local core.
    Accounting,
    /// Whole row arrived (`flag` raised); waiting for the release command
    /// from the vertical network.
    Waiting,
}

impl MasterHState {
    /// Stable state name used by the trace subsystem.
    pub fn label(self) -> &'static str {
        match self {
            MasterHState::Accounting => "Accounting",
            MasterHState::Waiting => "Waiting",
        }
    }
}

/// Horizontal master controller (`Mh` in the paper).
#[derive(Clone, Debug)]
pub struct MasterH {
    state: MasterHState,
    /// Arrival pulses counted so far (ScntH).
    scnt: u32,
    /// Pulses expected: number of slaves in the row (cols - 1).
    scnt_max: u32,
    /// Local core arrived (Mcnt).
    mcnt: bool,
    /// Row-complete flag read by the co-located vertical controller.
    flag: bool,
    /// Release command latched for this cycle's transmit.
    release_pending: bool,
    /// Release command arriving during this cycle (visible next cycle).
    release_next: bool,
}

impl MasterH {
    /// A master expecting `scnt_max` slave pulses (the slaves in the
    /// row) besides its own core's arrival.
    pub fn new(scnt_max: u32) -> MasterH {
        MasterH {
            state: MasterHState::Accounting,
            scnt: 0,
            scnt_max,
            mcnt: false,
            flag: false,
            release_pending: false,
            release_next: false,
        }
    }

    /// Current FSM state (for inspection/tests).
    pub fn state(&self) -> MasterHState {
        self.state
    }

    /// The row-complete flag, as visible *this* cycle (the network
    /// snapshots it at latch time for co-located controllers).
    pub fn flag(&self) -> bool {
        self.flag
    }

    /// Arrival count so far (ScntH), for inspection/tests.
    pub fn scnt(&self) -> u32 {
        self.scnt
    }

    /// Pulses expected (the slaves in the row).
    pub fn scnt_max(&self) -> u32 {
        self.scnt_max
    }

    /// Whether the local core has been counted (Mcnt).
    pub fn mcnt(&self) -> bool {
        self.mcnt
    }

    /// Latch phase: promote the cross-controller release command.
    pub fn latch(&mut self) {
        self.release_pending = self.release_next;
        self.release_next = false;
    }

    /// Command this master to run the row release next cycle (written by
    /// the co-located SlaveV / MasterV during their receive phase).
    pub fn command_release(&mut self) {
        self.release_next = true;
    }

    /// Transmit phase: returns `true` iff the row release line (MglineH)
    /// must be asserted. Asserting also resets the controller for the next
    /// barrier episode; the caller clears the local core's `bar_reg`.
    pub fn transmit(&mut self) -> bool {
        if self.release_pending {
            debug_assert_eq!(
                self.state,
                MasterHState::Waiting,
                "release commanded before row completed"
            );
            self.release_pending = false;
            self.state = MasterHState::Accounting;
            self.scnt = 0;
            self.mcnt = false;
            self.flag = false;
            true
        } else {
            false
        }
    }

    /// Receive phase: accumulates S-CSMA pulses from the gather line and
    /// the local core's arrival; raises `flag` when the row is complete.
    pub fn receive(&mut self, gather: Sensed, core_arrived: bool) {
        if self.state != MasterHState::Accounting {
            debug_assert_eq!(gather.count, 0, "slave pulsed while row already complete");
            return;
        }
        self.scnt += gather.count;
        debug_assert!(
            self.scnt <= self.scnt_max,
            "more pulses than slaves in the row"
        );
        if core_arrived {
            self.mcnt = true;
        }
        if self.scnt == self.scnt_max && self.mcnt {
            self.flag = true;
            self.state = MasterHState::Waiting;
        }
    }

    /// True when, with both G-lines idle and `core_arrived` held at its
    /// current value, a full latch/transmit/receive cycle is a no-op.
    /// Mid-count `Accounting` (waiting for more pulses) *is* stable —
    /// only a pending release or an uncounted local arrival wakes the
    /// controller without line activity.
    pub fn is_stable(&self, core_arrived: bool) -> bool {
        let uncounted_arrival =
            self.state == MasterHState::Accounting && !self.mcnt && core_arrived;
        !(self.release_pending || self.release_next || uncounted_arrival)
    }
}

/// States of a vertical slave controller (column-0 tiles of rows ≥ 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlaveVState {
    /// Waiting for the co-located MasterH to flag row completion.
    Signaling,
    /// Row completion forwarded; waiting for the column release line.
    Waiting,
    /// Release observed; waiting for the co-located MasterH's flag to
    /// drop back to 0 before re-arming (the `[flag=0]` guard of Figure 4 —
    /// without it the stale flag would immediately re-fire the barrier).
    Draining,
}

impl SlaveVState {
    /// Stable state name used by the trace subsystem.
    pub fn label(self) -> &'static str {
        match self {
            SlaveVState::Signaling => "Signaling",
            SlaveVState::Waiting => "Waiting",
            SlaveVState::Draining => "Draining",
        }
    }
}

/// Vertical slave controller (`Sv` in the paper).
#[derive(Clone, Debug)]
pub struct SlaveV {
    state: SlaveVState,
}

impl SlaveV {
    /// A slave in its initial `Signaling` state.
    pub fn new() -> SlaveV {
        SlaveV {
            state: SlaveVState::Signaling,
        }
    }

    /// Current FSM state (for inspection/tests).
    pub fn state(&self) -> SlaveVState {
        self.state
    }

    /// Transmit phase: `mh_flag` is the co-located MasterH's flag as
    /// snapshotted at latch time. Returns `true` iff the column gather
    /// line (SglineV) must be asserted.
    pub fn transmit(&mut self, mh_flag: bool) -> bool {
        match self.state {
            SlaveVState::Signaling if mh_flag => {
                self.state = SlaveVState::Waiting;
                true
            }
            SlaveVState::Draining if !mh_flag => {
                self.state = SlaveVState::Signaling;
                false
            }
            _ => false,
        }
    }

    /// Receive phase: senses the column release line (MglineV). Returns
    /// `true` iff the co-located MasterH must be commanded to release its
    /// row next cycle.
    pub fn receive(&mut self, release: Sensed) -> bool {
        if self.state == SlaveVState::Waiting && release.value {
            self.state = SlaveVState::Draining;
            true
        } else {
            false
        }
    }

    /// True when, with both G-lines idle and the co-located MasterH flag
    /// held at `mh_flag`, a full cycle is a no-op.
    pub fn is_stable(&self, mh_flag: bool) -> bool {
        match self.state {
            SlaveVState::Signaling => !mh_flag,
            SlaveVState::Waiting => true,
            SlaveVState::Draining => mh_flag,
        }
    }
}

impl Default for SlaveV {
    fn default() -> Self {
        SlaveV::new()
    }
}

/// States of the vertical master controller (tile (0,0)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MasterVState {
    /// Counting row-completion pulses on the column gather line.
    Accounting,
    /// Barrier globally complete but the release is gated (clustered
    /// operation): waiting for [`MasterV::trigger_release`].
    GatedReady,
    /// Release scheduled for the next transmit.
    Releasing,
    /// Release done; waiting for the co-located MasterH's flag to drop
    /// before counting again (Figure 4's `MasterH(flag=0)` guard on the
    /// return transition).
    Draining,
}

impl MasterVState {
    /// Stable state name used by the trace subsystem.
    pub fn label(self) -> &'static str {
        match self {
            MasterVState::Accounting => "Accounting",
            MasterVState::GatedReady => "GatedReady",
            MasterVState::Releasing => "Releasing",
            MasterVState::Draining => "Draining",
        }
    }
}

/// Vertical master controller (`Mv` in the paper).
///
/// With `root_gated = true` the controller stops in [`MasterVState::GatedReady`]
/// once the barrier is globally complete instead of releasing — the hook the
/// two-level [`crate::cluster::ClusteredBarrierNetwork`] uses.
#[derive(Clone, Debug)]
pub struct MasterV {
    state: MasterVState,
    /// Row-completion pulses counted so far (ScntV).
    scnt: u32,
    /// Pulses expected: rows - 1.
    scnt_max: u32,
    /// Row 0 complete (its MasterH flagged) — the paper's Mcnt.
    mcnt: bool,
    /// Gate the release for hierarchical composition.
    root_gated: bool,
    release_pending: bool,
    release_next: bool,
}

impl MasterV {
    /// A vertical master expecting `scnt_max` pulses (the rows other
    /// than row 0) besides row 0's flag.
    pub fn new(scnt_max: u32, root_gated: bool) -> MasterV {
        MasterV {
            state: MasterVState::Accounting,
            scnt: 0,
            scnt_max,
            mcnt: false,
            root_gated,
            release_pending: false,
            release_next: false,
        }
    }

    /// Current FSM state (for inspection/tests).
    pub fn state(&self) -> MasterVState {
        self.state
    }

    /// Row-completion count so far (ScntV), for inspection/tests.
    pub fn scnt(&self) -> u32 {
        self.scnt
    }

    /// Pulses expected (the rows other than row 0).
    pub fn scnt_max(&self) -> u32 {
        self.scnt_max
    }

    /// True while the gated root is waiting for an external release.
    pub fn root_ready(&self) -> bool {
        self.state == MasterVState::GatedReady
    }

    /// Latch phase: promote the externally-written release trigger.
    pub fn latch(&mut self) {
        if self.release_next {
            self.release_pending = true;
            self.release_next = false;
        }
    }

    /// External release trigger for a gated root (level-2 network
    /// completion in clustered operation). Takes effect next cycle.
    ///
    /// # Panics
    /// Panics if the root is not gated-ready — triggering a release before
    /// the barrier completed would violate barrier semantics.
    pub fn trigger_release(&mut self) {
        assert!(
            self.state == MasterVState::GatedReady,
            "trigger_release on a root that is not gated-ready (state {:?})",
            self.state
        );
        self.state = MasterVState::Releasing;
        self.release_next = true;
    }

    /// Transmit phase: returns `true` iff the column release line
    /// (MglineV) must be asserted. The caller must then command the
    /// co-located MasterH to release (register write, visible next cycle).
    pub fn transmit(&mut self) -> bool {
        if self.release_pending {
            self.release_pending = false;
            self.state = MasterVState::Draining;
            self.scnt = 0;
            self.mcnt = false;
            true
        } else {
            false
        }
    }

    /// Receive phase: accumulates row-completion pulses; `mh0_flag` is the
    /// snapshot of the co-located MasterH's flag. Returns `true` iff the
    /// barrier just completed globally this cycle.
    pub fn receive(&mut self, gather: Sensed, mh0_flag: bool) -> bool {
        if self.state == MasterVState::Draining {
            debug_assert_eq!(gather.count, 0, "vertical pulse while draining");
            if !mh0_flag {
                self.state = MasterVState::Accounting;
            }
            return false;
        }
        if self.state != MasterVState::Accounting {
            debug_assert_eq!(gather.count, 0, "vertical pulse while not accounting");
            return false;
        }
        self.scnt += gather.count;
        debug_assert!(
            self.scnt <= self.scnt_max,
            "more pulses than vertical slaves"
        );
        if mh0_flag {
            self.mcnt = true;
        }
        if self.scnt == self.scnt_max && self.mcnt {
            if self.root_gated {
                self.state = MasterVState::GatedReady;
            } else {
                self.state = MasterVState::Releasing;
                self.release_pending = true;
            }
            true
        } else {
            false
        }
    }

    /// True when, with both G-lines idle and the row-0 MasterH flag held
    /// at `mh0_flag`, a full cycle is a no-op. A gated-ready root is
    /// stable (it only moves on an external [`MasterV::trigger_release`]).
    pub fn is_stable(&self, mh0_flag: bool) -> bool {
        !self.release_pending
            && !self.release_next
            && match self.state {
                MasterVState::Accounting => self.mcnt || !mh0_flag,
                MasterVState::GatedReady => true,
                MasterVState::Releasing => false,
                MasterVState::Draining => mh0_flag,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on(count: u32) -> Sensed {
        Sensed {
            value: count > 0,
            count,
        }
    }

    fn off() -> Sensed {
        Sensed::default()
    }

    #[test]
    fn slave_h_pulses_once_then_waits() {
        let mut s = SlaveH::new();
        assert!(!s.transmit(false), "must not signal before arrival");
        assert!(s.transmit(true), "signals on arrival");
        assert_eq!(s.state(), SlaveHState::Waiting);
        assert!(!s.transmit(true), "signal is a single pulse");
        assert!(!s.receive(off()));
        assert!(s.receive(on(1)), "release clears bar_reg");
        assert_eq!(s.state(), SlaveHState::Signaling);
    }

    #[test]
    fn master_h_counts_scsma_and_own_core() {
        let mut m = MasterH::new(3);
        m.receive(on(2), false); // two slaves pulse together (S-CSMA)
        assert_eq!(m.scnt(), 2);
        assert!(!m.flag());
        m.receive(on(1), false); // last slave
        assert_eq!(m.scnt(), 3);
        assert!(!m.flag(), "own core still missing");
        m.receive(off(), true); // own core arrives
        assert!(m.flag());
        assert_eq!(m.state(), MasterHState::Waiting);
    }

    #[test]
    fn master_h_own_core_first() {
        let mut m = MasterH::new(1);
        m.receive(off(), true);
        assert!(m.mcnt());
        assert!(!m.flag());
        m.receive(on(1), true);
        assert!(m.flag());
    }

    #[test]
    fn master_h_release_cycle() {
        let mut m = MasterH::new(0);
        m.receive(off(), true); // single-column row: flag immediately
        assert!(m.flag());
        m.command_release();
        assert!(
            !m.transmit(),
            "release command is registered, not combinational"
        );
        m.latch();
        assert!(m.transmit(), "release fires after latch");
        assert_eq!(m.state(), MasterHState::Accounting);
        assert_eq!(m.scnt(), 0);
        assert!(!m.flag());
    }

    #[test]
    fn slave_v_forwards_row_completion() {
        let mut s = SlaveV::new();
        assert!(!s.transmit(false));
        assert!(s.transmit(true));
        assert!(!s.transmit(true), "single pulse");
        assert!(!s.receive(off()));
        assert!(s.receive(on(1)), "column release commands the row master");
        assert_eq!(s.state(), SlaveVState::Draining);
        assert!(
            !s.transmit(true),
            "stale flag must not re-fire (Fig. 4 [flag=0] guard)"
        );
        assert_eq!(s.state(), SlaveVState::Draining);
        assert!(!s.transmit(false), "flag low re-arms without a pulse");
        assert_eq!(s.state(), SlaveVState::Signaling);
    }

    #[test]
    fn master_v_completes_and_releases() {
        let mut m = MasterV::new(2, false);
        assert!(!m.receive(on(1), false));
        assert!(!m.receive(off(), true), "row 0 flag alone is not enough");
        assert!(m.receive(on(1), true), "all rows in → complete");
        assert_eq!(m.state(), MasterVState::Releasing);
        assert!(m.transmit(), "asserts the column release line");
        assert_eq!(m.state(), MasterVState::Draining);
        assert_eq!(m.scnt(), 0);
        // While the co-located MasterH flag is still high, stay drained.
        assert!(!m.receive(off(), true));
        assert_eq!(m.state(), MasterVState::Draining);
        assert!(!m.receive(off(), false), "flag low re-arms the accountant");
        assert_eq!(m.state(), MasterVState::Accounting);
    }

    #[test]
    fn master_v_gated_waits_for_trigger() {
        let mut m = MasterV::new(0, true);
        assert!(m.receive(off(), true));
        assert!(m.root_ready());
        assert!(!m.transmit(), "gated root must not release on its own");
        m.trigger_release();
        assert!(!m.transmit(), "trigger is registered");
        m.latch();
        assert!(m.transmit());
        assert_eq!(m.state(), MasterVState::Draining);
    }

    #[test]
    #[should_panic(expected = "trigger_release")]
    fn premature_trigger_panics() {
        let mut m = MasterV::new(1, true);
        m.trigger_release();
    }

    #[test]
    fn master_v_simultaneous_rows() {
        // All three vertical slaves pulse in the same cycle: S-CSMA counts 3.
        let mut m = MasterV::new(3, false);
        assert!(m.receive(on(3), true));
        assert_eq!(m.state(), MasterVState::Releasing);
    }
}

//! Core-layer scheduling: the per-core park state, the per-core step
//! body of the sparse tick, and the wake index that lets that tick
//! visit only the cores that can act — and the engine jump the clock
//! when none can (`DESIGN.md` §8).

use crate::core::{Core, SpinPlan};
use crate::system::CoreSchedStats;
use gline_core::BarrierHw;
use sim_base::trace::Tracer;
use sim_base::Cycle;
use sim_isa::Program;
use sim_mem::MemorySystem;

/// One core's park state under active-set scheduling. A parked core's
/// steps are elided and settled in closed form at wake-up;
/// [`System::report`](crate::System::report) folds the pending span in
/// so mid-run reports stay bit-identical to the dense path's.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) enum Park {
    /// Not parked: the core steps every cycle (or has halted).
    #[default]
    None,
    /// Every step before `wake` is a pure stall charge (a `busy` block
    /// or a response with a scheduled ready cycle). The span
    /// `[anchor, wake)` is charged lazily at wake-up.
    Stall { wake: Cycle, anchor: Cycle },
    /// The core sits in a recognized memory-probing spin loop whose
    /// probed line provably cannot change until a protocol message
    /// reaches its tile. The elided span `[anchor, now)` is replayed in
    /// closed form at wake-up — the cycle a message is about to land.
    Spin { plan: SpinPlan, anchor: Cycle },
    /// The core waits on a memory access whose response its L1 has not
    /// scheduled yet. Every elided step is a pure breakdown charge; the
    /// wake trigger is the same delivery predicate as `Spin`'s, because
    /// only a message reaching the tile can install the response.
    Miss { anchor: Cycle },
    /// The core sits in a recognized spin on its own `bar_reg`, which
    /// only a barrier release can clear. The wake trigger is the
    /// machine-wide release predicate ("a `bar_reg` may clear in this
    /// cycle's `gline.tick`", i.e. [`BarrierHw::release_bound`] `<= 1`);
    /// the elided span is replayed in closed form like `Spin`'s.
    Bar { plan: SpinPlan, anchor: Cycle },
}

impl Park {
    /// The cycle at which the park ends by itself: a stall's wake. The
    /// other parks end only on their wake triggers.
    pub(crate) fn wake_at(&self) -> Option<Cycle> {
        match *self {
            Park::Stall { wake, .. } => Some(wake),
            _ => None,
        }
    }

    /// True when [`step_core`] gets past its park checks at cycle `now`
    /// for a core in this state — the membership predicate of the
    /// sparse tick's visit set (a halted core is never visited).
    pub(crate) fn visits(&self, halted: bool, delivery: bool, release: bool, now: Cycle) -> bool {
        match *self {
            Park::None => !halted,
            Park::Stall { wake, .. } => now >= wake,
            Park::Spin { .. } | Park::Miss { .. } => delivery,
            Park::Bar { .. } => release,
        }
    }
}

impl std::fmt::Display for Park {
    /// The park kind as the deadlock guard names it beside a core id.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Park::None => f.write_str("live"),
            Park::Stall { wake, .. } => write!(f, "stall until {wake}"),
            Park::Spin { .. } => f.write_str("spin"),
            Park::Miss { .. } => f.write_str("miss"),
            Park::Bar { .. } => f.write_str("spin on bar_reg"),
        }
    }
}

/// One core's share of one cycle under active-set scheduling: settle or
/// extend its park, else step it and park it again if its next state
/// change is provably more than a cycle out.
///
/// `delivery` must be the tile's exact delivery predicate for `now`: a
/// protocol message reaches the tile this cycle iff it is true.
/// `release` must be true unless no `bar_reg` can clear in this cycle's
/// barrier-network tick. Returns whether the core is still live
/// (neither parked nor halted).
#[inline]
#[allow(clippy::too_many_arguments)] // the step() signature plus the park slot, predicates and counters
pub(crate) fn step_core<G: BarrierHw + ?Sized>(
    core: &mut Core,
    prog: &Program,
    park: &mut Park,
    mem: &mut MemorySystem,
    gline: &mut G,
    delivery: bool,
    release: bool,
    now: Cycle,
    tracer: &Tracer,
    sched: &mut CoreSchedStats,
) -> bool {
    match *park {
        Park::None => {}
        Park::Stall { wake, anchor } => {
            if now < wake {
                sched.parked_steps += 1;
                return false;
            }
            *park = Park::None;
            core.ff_stall(now - anchor);
        }
        Park::Spin { plan, anchor } => {
            // The probed line can only change when a protocol message
            // reaches this tile, and deliveries for this cycle were
            // queued by the previous cycle's NoC tick — so the check is
            // exact and runs one cycle ahead of the mutation.
            if !delivery {
                sched.spin_parked_steps += 1;
                return false;
            }
            // A message lands this cycle (after the cores step, exactly
            // as it would have in a dense run): replay the elided span
            // against the still-frozen line, then step this cycle live.
            *park = Park::None;
            core.ff_replay(plan, now, anchor, mem);
        }
        Park::Miss { anchor } => {
            if !delivery {
                sched.parked_steps += 1;
                return false;
            }
            // The inbound message may carry (or unblock) the response;
            // settle the elided charge-only span and step live.
            *park = Park::None;
            core.ff_stall(now - anchor);
        }
        Park::Bar { plan, anchor } => {
            // Only the core itself (parked) and a release (ruled out
            // for this cycle's network tick) write its `bar_reg`.
            if !release {
                sched.spin_parked_steps += 1;
                return false;
            }
            *park = Park::None;
            core.ff_replay(plan, now, anchor, mem);
        }
    }
    if core.halted() {
        return false;
    }
    // Park a core whose miss is still in flight: its L1 cannot schedule
    // the response (and the core cannot do anything but charge its
    // stall category) until a protocol message reaches this tile.
    if !delivery && core.waiting_on_unscheduled_resp(mem) {
        *park = Park::Miss { anchor: now };
        sched.parked_steps += 1;
        return false;
    }
    // Park instead of stepping when the core sits at a recognized spin
    // whose wake trigger cannot fire this cycle: every elided step is a
    // closed-form replay at wake-up. (A traced run must emit them.)
    if !tracer.on() {
        if let Some(plan) = core.park_spin(prog, mem, gline, now, !delivery, !release) {
            *park = if plan.on_bar_reg() {
                Park::Bar { plan, anchor: now }
            } else {
                Park::Spin { plan, anchor: now }
            };
            sched.spin_parked_steps += 1;
            return false;
        }
    }
    sched.core_steps += 1;
    core.step(prog, mem, gline, now, tracer);
    // Park the core if its next state change is provably more than one
    // cycle out; its skipped steps are pure stall charges, applied at
    // wake-up.
    if let Some(wake) = core.park_until(mem) {
        if wake > now + 1 {
            *park = Park::Stall {
                wake,
                anchor: now + 1,
            };
            return false;
        }
    }
    !core.halted()
}

/// The wake index: one bit per core in exactly one of five sets — or in
/// none once it has halted — mirroring the park array, which stays the
/// single source of truth. The sparse tick reads it to visit
/// only `live | ((spin | miss) & delivery_tiles) | (bar if a release
/// may land)` plus the stalls that are due, and counts everyone
/// else's elided steps by popcount; `advance` reads it to
/// see that nobody is live and how far the clock may jump.
///
/// The sparse tick keeps the index in step (it resyncs the cores it
/// visits; a clock jump touches no park, so it leaves the index as it
/// is). Turning active sets off flushes the parks and marks the index
/// stale — the dense tick halts cores behind its back — and the next
/// sparse tick rebuilds it in one O(cores) pass.
#[derive(Debug)]
pub(crate) struct WakeIndex {
    /// The sets, 64 cores per entry (core `i` at bit `i % 64` of entry
    /// `i / 64`).
    words: Vec<IndexWord>,
    /// Cores in any set, i.e. not halted.
    members: usize,
    /// Cores in the live set.
    live: usize,
    /// Cores in the `bar` set.
    bar: usize,
    /// Lower bound on the earliest stall wake: no stall is due while
    /// `now < next_wake`, so those ticks never look at the stall set's
    /// members.
    next_wake: Cycle,
    fresh: bool,
}

/// 64 cores' worth of the index's sets.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IndexWord {
    /// Neither parked nor halted.
    pub(crate) live: u64,
    pub(crate) stall: u64,
    pub(crate) spin: u64,
    pub(crate) miss: u64,
    pub(crate) bar: u64,
}

impl IndexWord {
    fn any(&self) -> u64 {
        self.live | self.stall | self.spin | self.miss | self.bar
    }
}

impl WakeIndex {
    /// A stale index over `n` cores.
    pub(crate) fn new(n: usize) -> WakeIndex {
        WakeIndex {
            words: vec![IndexWord::default(); n.div_ceil(64)],
            members: 0,
            live: 0,
            bar: 0,
            next_wake: 0,
            fresh: false,
        }
    }

    pub(crate) fn is_fresh(&self) -> bool {
        self.fresh
    }

    pub(crate) fn mark_stale(&mut self) {
        self.fresh = false;
    }

    /// True when no core is in any set, i.e. every core has halted
    /// (meaningful only while the index is fresh).
    pub(crate) fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// True when some core is neither parked nor halted.
    pub(crate) fn any_live(&self) -> bool {
        self.live != 0
    }

    /// True when some core is parked on its `bar_reg`.
    pub(crate) fn any_bar(&self) -> bool {
        self.bar != 0
    }

    /// Lower bound on the first cycle a stall is due.
    pub(crate) fn next_wake(&self) -> Cycle {
        self.next_wake
    }

    /// How many cores are parked on a pure stall charge (stall or miss)
    /// and how many in a spin (memory or `bar_reg`): what one elided
    /// cycle adds to `parked_steps` / `spin_parked_steps`.
    pub(crate) fn parked_counts(&self) -> (u64, u64) {
        self.words.iter().fold((0, 0), |(stalled, spinning), w| {
            (
                stalled + (w.stall | w.miss).count_ones() as u64,
                spinning + (w.spin | w.bar).count_ones() as u64,
            )
        })
    }

    pub(crate) fn num_words(&self) -> usize {
        self.words.len()
    }

    pub(crate) fn word(&self, w: usize) -> IndexWord {
        self.words[w]
    }

    /// Moves core `i` to the set its park state and liveness call for.
    pub(crate) fn place(&mut self, i: usize, park: &Park, halted: bool) {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        self.members -= (word.any() & bit != 0) as usize;
        self.live -= (word.live & bit != 0) as usize;
        self.bar -= (word.bar & bit != 0) as usize;
        for set in [
            &mut word.live,
            &mut word.stall,
            &mut word.spin,
            &mut word.miss,
            &mut word.bar,
        ] {
            *set &= !bit;
        }
        match *park {
            Park::None if halted => return,
            Park::None => {
                word.live |= bit;
                self.live += 1;
            }
            Park::Stall { wake, .. } => {
                word.stall |= bit;
                self.next_wake = self.next_wake.min(wake);
            }
            Park::Spin { .. } => word.spin |= bit,
            Park::Miss { .. } => word.miss |= bit,
            Park::Bar { .. } => {
                word.bar |= bit;
                self.bar += 1;
            }
        }
        self.members += 1;
    }

    /// Rebuilds the index from the park array and marks it fresh.
    pub(crate) fn rebuild(&mut self, cores: &[Core], parks: &[Park]) {
        self.words.fill(IndexWord::default());
        self.members = 0;
        self.live = 0;
        self.bar = 0;
        self.next_wake = Cycle::MAX;
        for (i, (core, park)) in cores.iter().zip(parks).enumerate() {
            self.place(i, park, core.halted());
        }
        self.fresh = true;
    }

    /// Opens a tick: true when a stall may be due at `now`, in which
    /// case the caller must run [`due_wakes`](Self::due_wakes)
    /// over every word this tick (`next_wake` is re-derived from it).
    pub(crate) fn begin_wake_scan(&mut self, now: Cycle) -> bool {
        let scan = now >= self.next_wake;
        if scan {
            self.next_wake = Cycle::MAX;
        }
        scan
    }

    /// The stalls of word `w` that are due at `now`, as a bit mask; the
    /// wakes of the others are folded into `next_wake`.
    pub(crate) fn due_wakes(&mut self, w: usize, parks: &[Park], now: Cycle) -> u64 {
        let mut due = 0;
        let mut bits = self.words[w].stall;
        while bits != 0 {
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            match parks[w * 64 + b as usize].wake_at() {
                Some(wake) if wake <= now => due |= 1 << b,
                Some(wake) => self.next_wake = self.next_wake.min(wake),
                None => unreachable!("stall bit set for a park that is not a stall"),
            }
        }
        due
    }

    /// True when every bit agrees with the park array and `halted()`,
    /// `members`, `live` and `bar` count the cores in a set, in the
    /// live one and in the `bar` one, and `next_wake` bounds every
    /// stall's wake from below.
    pub(crate) fn is_consistent(&self, cores: &[Core], parks: &[Park]) -> bool {
        let bits_agree = cores
            .iter()
            .zip(parks)
            .enumerate()
            .all(|(i, (core, park))| {
                let (word, bit) = (self.words[i / 64], 1u64 << (i % 64));
                let got =
                    [word.live, word.stall, word.spin, word.miss, word.bar].map(|s| s & bit != 0);
                let want = match *park {
                    Park::None => [!core.halted(), false, false, false, false],
                    Park::Stall { .. } => [false, true, false, false, false],
                    Park::Spin { .. } => [false, false, true, false, false],
                    Park::Miss { .. } => [false, false, false, true, false],
                    Park::Bar { .. } => [false, false, false, false, true],
                };
                got == want && park.wake_at().is_none_or(|wake| wake >= self.next_wake)
            });
        let count = |set: fn(&IndexWord) -> u64| -> usize {
            self.words
                .iter()
                .map(|w| set(w).count_ones() as usize)
                .sum()
        };
        bits_agree
            && count(IndexWord::any) == self.members
            && count(|w| w.live) == self.live
            && count(|w| w.bar) == self.bar
    }
}

//! The home controller of one tile: an L2 bank, its slice of the
//! full-map directory, and the memory port behind it.
//!
//! The directory **blocks per line**: one transaction at a time; later
//! requests queue at the home. That serializes all the racy interleavings
//! a non-blocking directory would have to disambiguate, at a small
//! concurrency cost that does not affect the traffic the paper measures.
//!
//! Data invariant: whenever the directory state of a line is *not*
//! Exclusive, the union of this bank's L2 and memory holds current data
//! (dirty L2 victims are written back to memory on eviction; dirty data
//! returning from owners is folded into the L2 or pushed to memory).

use crate::cache::SetAssoc;
use crate::l1::OutMsg;
use crate::proto::{Grant, LineData, ProtoMsg};
use sim_base::config::CacheConfig;
use sim_base::fxmap::FxHashMap;
use sim_base::ids::LineAddr;
use sim_base::trace::{Event, Tracer};
use sim_base::{CoreId, Cycle};
use std::collections::VecDeque;

/// Sparse line-granular memory backend (absent lines read as zero).
pub type Memory = FxHashMap<LineAddr, LineData>;

/// Capacity of the limited-pointer sharer representation.
const PTR_CAP: usize = 7;

/// A scalable sharer set.
///
/// Three representations, picked automatically:
///
/// * [`Bits`](SharerSet::Bits) — exact 64-bit full map. The **only**
///   reachable mode while every member id is `< 64`, so machines of up
///   to 64 cores behave bit-identically to the original `u64` full map.
/// * [`Ptrs`](SharerSet::Ptrs) — exact limited-pointer list of up to
///   [`PTR_CAP`] arbitrary core ids, kept sorted ascending. Entered
///   when a small set gains a member `>= 64`.
/// * [`Coarse`](SharerSet::Coarse) — coarse bit vector: bit `g` covers
///   the core-id range `[g << granule_log2, (g + 1) << granule_log2)`.
///   A **superset** of the true sharers; invalidations fanned out from
///   it may over-invalidate but never miss a sharer (DESIGN.md §7).
///
/// The exact representations are canonical (a pure function of the
/// member set), so derived equality is set equality for them. `remove`
/// on a coarse set is a no-op — the superset invariant keeps the
/// departed member covered until the whole entry is rebuilt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharerSet {
    /// Exact full map over core ids `0..64`.
    Bits(u64),
    /// Exact sorted list of `n` arbitrary core ids.
    Ptrs {
        /// Number of live entries in `ids`.
        n: u8,
        /// Member ids, ascending; entries past `n` are zero.
        ids: [u16; PTR_CAP],
    },
    /// Coarse superset vector over id granules of `1 << granule_log2`.
    Coarse {
        /// log2 of the ids each bit covers (always `>= 1`).
        granule_log2: u8,
        /// Granule occupancy bits.
        bits: u64,
    },
}

impl Default for SharerSet {
    fn default() -> SharerSet {
        SharerSet::Bits(0)
    }
}

impl SharerSet {
    /// The empty set.
    pub fn empty() -> SharerSet {
        SharerSet::Bits(0)
    }

    /// Singleton set.
    pub fn only(c: CoreId) -> SharerSet {
        let mut s = SharerSet::empty();
        s.insert(c);
        s
    }

    /// Smallest granule that lets `max_id` index a 64-bit vector.
    fn granule_for(max_id: u16) -> u8 {
        let mut g = 1u8;
        while (max_id >> g) >= 64 {
            g += 1;
        }
        g
    }

    /// Collapses `self` into a coarse vector that also covers `extra`.
    fn coarsen_with(&mut self, extra: CoreId) {
        let max_id = self.iter().map(|c| c.0).max().unwrap_or(0).max(extra.0);
        let g = Self::granule_for(max_id);
        let mut bits = 1u64 << (extra.0 >> g);
        for c in self.iter() {
            bits |= 1u64 << (c.0 >> g);
        }
        *self = SharerSet::Coarse {
            granule_log2: g,
            bits,
        };
    }

    /// Inserts a core.
    pub fn insert(&mut self, c: CoreId) {
        let id = c.0;
        match self {
            SharerSet::Bits(b) => {
                if (id as usize) < 64 {
                    *b |= 1u64 << id;
                } else if (b.count_ones() as usize) < PTR_CAP {
                    // Spill the small map into pointers; the new id is
                    // larger than every bit index, so the list stays
                    // sorted by appending.
                    let mut ids = [0u16; PTR_CAP];
                    let mut n = 0;
                    let mut bits = *b;
                    while bits != 0 {
                        ids[n] = bits.trailing_zeros() as u16;
                        n += 1;
                        bits &= bits - 1;
                    }
                    ids[n] = id;
                    n += 1;
                    *self = SharerSet::Ptrs { n: n as u8, ids };
                } else {
                    self.coarsen_with(c);
                }
            }
            SharerSet::Ptrs { n, ids } => {
                let live = &ids[..*n as usize];
                let Err(pos) = live.binary_search(&id) else {
                    return;
                };
                if (*n as usize) < PTR_CAP {
                    ids.copy_within(pos..*n as usize, pos + 1);
                    ids[pos] = id;
                    *n += 1;
                } else {
                    self.coarsen_with(c);
                }
            }
            SharerSet::Coarse { granule_log2, bits } => {
                while (id >> *granule_log2) >= 64 {
                    // Double the granule: bit j of the new vector covers
                    // old bits 2j and 2j+1.
                    let mut folded = 0u64;
                    for j in 0..32 {
                        if *bits & (0b11 << (2 * j)) != 0 {
                            folded |= 1 << j;
                        }
                    }
                    *bits = folded;
                    *granule_log2 += 1;
                }
                *bits |= 1u64 << (id >> *granule_log2);
            }
        }
    }

    /// Removes a core. On a coarse set this is a no-op: the vector stays
    /// a superset, which is the representation's correctness contract.
    pub fn remove(&mut self, c: CoreId) {
        let id = c.0;
        match self {
            SharerSet::Bits(b) => {
                if (id as usize) < 64 {
                    *b &= !(1u64 << id);
                }
            }
            SharerSet::Ptrs { n, ids } => {
                let live = &ids[..*n as usize];
                let Ok(pos) = live.binary_search(&id) else {
                    return;
                };
                ids.copy_within(pos + 1..*n as usize, pos);
                *n -= 1;
                ids[*n as usize] = 0;
                // Canonical form: a pointer list whose ids all fit the
                // full map collapses back to it.
                if ids[..*n as usize].iter().all(|&i| (i as usize) < 64) {
                    let mut b = 0u64;
                    for &i in &ids[..*n as usize] {
                        b |= 1u64 << i;
                    }
                    *self = SharerSet::Bits(b);
                }
            }
            SharerSet::Coarse { .. } => {}
        }
    }

    /// Membership test. May report false positives on a coarse set (a
    /// granule-mate of a member is indistinguishable from the member).
    pub fn contains(&self, c: CoreId) -> bool {
        let id = c.0;
        match self {
            SharerSet::Bits(b) => (id as usize) < 64 && b & (1u64 << id) != 0,
            SharerSet::Ptrs { n, ids } => ids[..*n as usize].binary_search(&id).is_ok(),
            SharerSet::Coarse { granule_log2, bits } => {
                (id >> *granule_log2) < 64 && bits & (1u64 << (id >> *granule_log2)) != 0
            }
        }
    }

    /// True when membership is tracked exactly (no coarse overshoot) —
    /// the precondition for treating [`contains`](Self::contains) and
    /// [`len`](Self::len) as authoritative.
    pub fn is_exact(&self) -> bool {
        !matches!(self, SharerSet::Coarse { .. })
    }

    /// Number of members (an upper bound on a coarse set).
    pub fn len(&self) -> u32 {
        match self {
            SharerSet::Bits(b) => b.count_ones(),
            SharerSet::Ptrs { n, .. } => *n as u32,
            SharerSet::Coarse { granule_log2, bits } => bits.count_ones() << *granule_log2,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        match self {
            SharerSet::Bits(b) => *b == 0,
            SharerSet::Ptrs { n, .. } => *n == 0,
            SharerSet::Coarse { bits, .. } => *bits == 0,
        }
    }

    /// Iterates the member cores in ascending id order (every id a
    /// coarse set covers, member or not).
    pub fn iter(&self) -> SharerIter {
        self.iter_within(u64::MAX)
    }

    /// Like [`iter`](Self::iter), but stops at ids `>= limit` — a
    /// coarse granule may cover ids past the machine's last core.
    pub fn iter_within(&self, limit: u64) -> SharerIter {
        match *self {
            SharerSet::Bits(b) => SharerIter::Bits(b),
            SharerSet::Ptrs { n, ids } => SharerIter::Ptrs { ids, next: 0, n },
            SharerSet::Coarse { granule_log2, bits } => SharerIter::Coarse {
                bits,
                shift: granule_log2 as u32,
                cur: 0,
                end: 0,
                limit,
            },
        }
    }
}

/// Iterator over a [`SharerSet`]'s members, ascending.
#[derive(Clone, Debug)]
pub enum SharerIter {
    /// Remaining full-map bits (consumed by bit-scan).
    Bits(u64),
    /// Pointer-list cursor.
    Ptrs {
        /// The (sorted) id list.
        ids: [u16; PTR_CAP],
        /// Next index to yield.
        next: u8,
        /// Live entries.
        n: u8,
    },
    /// Coarse-granule expansion cursor.
    Coarse {
        /// Remaining granule bits.
        bits: u64,
        /// `granule_log2`.
        shift: u32,
        /// Next id within the current granule.
        cur: u64,
        /// One past the current granule's last id.
        end: u64,
        /// Ids `>= limit` are not yielded.
        limit: u64,
    },
}

impl Iterator for SharerIter {
    type Item = CoreId;

    fn next(&mut self) -> Option<CoreId> {
        match self {
            SharerIter::Bits(b) => {
                if *b == 0 {
                    return None;
                }
                let i = b.trailing_zeros();
                *b &= *b - 1;
                Some(CoreId(i as u16))
            }
            SharerIter::Ptrs { ids, next, n } => {
                if next < n {
                    let c = ids[*next as usize];
                    *next += 1;
                    Some(CoreId(c))
                } else {
                    None
                }
            }
            SharerIter::Coarse {
                bits,
                shift,
                cur,
                end,
                limit,
            } => loop {
                if cur < end {
                    let c = *cur;
                    if c >= *limit {
                        // Granules ascend, so nothing later fits either.
                        *bits = 0;
                        *cur = *end;
                        return None;
                    }
                    *cur += 1;
                    return Some(CoreId(c as u16));
                }
                if *bits == 0 {
                    return None;
                }
                let g = bits.trailing_zeros() as u64;
                *bits &= *bits - 1;
                *cur = g << *shift;
                *end = *cur + (1u64 << *shift);
            },
        }
    }
}

/// Directory state of a line at its home.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirState {
    /// Cached read-only by these L1s.
    Shared(SharerSet),
    /// Owned (E or M) by this L1; the home's copy may be stale.
    Exclusive(CoreId),
}

/// Trace label of a directory entry ("I" = uncached).
fn dir_label(d: Option<DirState>) -> &'static str {
    match d {
        None => "I",
        Some(DirState::Shared(_)) => "S",
        Some(DirState::Exclusive(_)) => "E",
    }
}

/// What the active transaction is doing.
#[derive(Clone, Copy, Debug)]
enum TxKind {
    /// GetS in progress.
    Read { requester: CoreId },
    /// GetX (or upgraded-to-GetX Upgrade) in progress.
    Write { requester: CoreId },
    /// Upgrade in progress (requester keeps its data).
    Upgrade { requester: CoreId },
    /// PutM in progress.
    Wb { sender: CoreId },
}

/// Where the active transaction currently waits.
#[derive(Clone, Copy, Debug)]
enum TxPhase {
    /// Charging the L2 tag+data pipeline before completing.
    L2Wait { until: Cycle },
    /// Waiting for the 400-cycle memory fetch.
    MemWait { until: Cycle },
    /// Waiting for invalidation acks.
    WaitInvAcks { left: u32 },
    /// Waiting for the old owner's FwdDone.
    WaitFwdDone,
}

#[derive(Clone, Debug)]
struct HomeTx {
    kind: TxKind,
    phase: TxPhase,
}

/// Home-bank statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct HomeStats {
    /// Transactions served from the L2 array.
    pub l2_hits: u64,
    /// Transactions that went to memory.
    pub l2_misses: u64,
    /// Invalidation messages issued.
    pub invalidations_sent: u64,
    /// Forwards issued to exclusive owners.
    pub forwards_sent: u64,
    /// Writebacks accepted (non-stale PutM).
    pub writebacks: u64,
    /// Stale PutMs acknowledged and dropped.
    pub stale_writebacks: u64,
}

/// The home controller of one tile.
#[derive(Clone, Debug)]
pub struct HomeCtrl {
    tile: CoreId,
    /// Cores in the machine — bounds the fan-out of a coarse-granule
    /// invalidation expansion.
    num_tiles: usize,
    l2: SetAssoc<bool>, // state = dirty-vs-memory
    dir: FxHashMap<LineAddr, DirState>,
    active: FxHashMap<LineAddr, HomeTx>,
    /// The earliest `until` of an `L2Wait`/`MemWait` phase in `active`
    /// (`Cycle::MAX` when there is none): a tick before it has nothing
    /// to mature and skips the scan. Exact, not just a lower bound —
    /// timed phases enter `active` only through `insert_tx`, which
    /// lowers it, and leave only in `tick`, which recomputes it.
    next_timer: Cycle,
    queue: FxHashMap<LineAddr, VecDeque<(CoreId, ProtoMsg)>>,
    l2_latency: u64,
    mem_latency: u64,
    stats: HomeStats,
    /// Reused per-tick buffer of matured lines (avoids a per-cycle
    /// allocation on the tick hot path).
    ready_scratch: Vec<LineAddr>,
    /// Set by [`MemorySystem::set_tracer`](crate::MemorySystem::set_tracer).
    pub(crate) tracer: Tracer,
}

impl HomeCtrl {
    /// Builds the home bank of `tile` in a `num_tiles` CMP.
    pub fn new(tile: CoreId, num_tiles: usize, l2_cfg: &CacheConfig, mem_latency: u32) -> HomeCtrl {
        HomeCtrl {
            tile,
            num_tiles,
            l2: SetAssoc::new(l2_cfg),
            dir: FxHashMap::default(),
            active: FxHashMap::default(),
            next_timer: Cycle::MAX,
            queue: FxHashMap::default(),
            l2_latency: l2_cfg.total_latency() as u64,
            mem_latency: mem_latency as u64,
            stats: HomeStats::default(),
            ready_scratch: Vec::new(),
            tracer: Tracer::default(),
        }
    }

    /// Replaces the directory entry of `line` (None = uncached), emitting
    /// a [`Event::DirTransition`] when the stable-state label changes.
    /// Owner/sharer churn within the same label is visible through the
    /// surrounding protocol events instead.
    fn set_dir(&mut self, line: LineAddr, new: Option<DirState>, now: Cycle) {
        if self.tracer.on() {
            let from = dir_label(self.dir.get(&line).copied());
            let to = dir_label(new);
            if from != to {
                let home = self.tile;
                self.tracer.emit(now, || Event::DirTransition {
                    home,
                    line: line.0,
                    from,
                    to,
                });
            }
        }
        match new {
            Some(d) => {
                self.dir.insert(line, d);
            }
            None => {
                self.dir.remove(&line);
            }
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> HomeStats {
        self.stats
    }

    /// Directory state of a line (None = uncached).
    pub fn dir_state(&self, line: LineAddr) -> Option<DirState> {
        self.dir.get(&line).copied()
    }

    /// Debug view of the L2 copy of a line.
    pub fn peek_l2(&self, line: LineAddr) -> Option<&LineData> {
        self.l2.probe(line).map(|e| &e.data)
    }

    /// True when no transaction is active or queued.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.queue.values().all(VecDeque::is_empty)
    }

    /// True while any transaction is in flight. This is the exact guard
    /// [`tick`](Self::tick) early-returns on, and queued requests imply
    /// an active transaction (a request is queued only behind one, and
    /// completion immediately starts the next), so a bank outside the
    /// memory system's busy set can make no progress on its own.
    #[inline]
    pub fn is_busy(&self) -> bool {
        !self.active.is_empty()
    }

    /// Folds dirty data into the L2 (inserting or evicting as needed) or,
    /// if the set cannot take it, directly into memory.
    fn absorb_data(&mut self, line: LineAddr, data: LineData, mem: &mut Memory) {
        if let Some(e) = self.l2.lookup(line) {
            e.data = data;
            e.state = true;
            return;
        }
        if self.l2.set_full(line) {
            let victim = self
                .l2
                .pick_victim(line, |_| true)
                .expect("LRU victim exists");
            let e = self.l2.remove(victim).expect("victim resident");
            if e.state {
                mem.insert(victim, e.data);
            }
        }
        self.l2.insert(line, true, data);
    }

    /// Reads the current data for a line that is not Exclusive: from L2
    /// if resident, else memory. Returns `(data, was_l2_hit)`.
    fn read_data(&mut self, line: LineAddr, mem: &Memory) -> (LineData, bool) {
        if let Some(e) = self.l2.lookup(line) {
            (e.data, true)
        } else {
            (mem.get(&line).copied().unwrap_or([0; 8]), false)
        }
    }

    /// Installs a clean memory copy into L2 (after a fetch).
    fn install_clean(&mut self, line: LineAddr, data: LineData, mem: &mut Memory) {
        if self.l2.probe(line).is_some() {
            return;
        }
        if self.l2.set_full(line) {
            let victim = self
                .l2
                .pick_victim(line, |_| true)
                .expect("LRU victim exists");
            let e = self.l2.remove(victim).expect("victim resident");
            if e.state {
                mem.insert(victim, e.data);
            }
        }
        self.l2.insert(line, false, data);
    }

    /// Handles a protocol message addressed to this home.
    pub fn handle(
        &mut self,
        src: CoreId,
        msg: ProtoMsg,
        now: Cycle,
        mem: &mut Memory,
        out: &mut Vec<OutMsg>,
    ) {
        let line = msg.line();
        match &msg {
            ProtoMsg::GetS(_) | ProtoMsg::GetX(_) | ProtoMsg::Upgrade(_) | ProtoMsg::PutM(..) => {
                if self.active.contains_key(&line) {
                    self.queue.entry(line).or_default().push_back((src, msg));
                } else {
                    self.start_tx(src, msg, now, mem, out);
                }
            }
            ProtoMsg::InvAck(_) => {
                let tx = self
                    .active
                    .get_mut(&line)
                    .expect("InvAck without a transaction");
                let TxPhase::WaitInvAcks { left } = &mut tx.phase else {
                    panic!("InvAck in phase {:?}", tx.phase);
                };
                *left -= 1;
                if *left == 0 {
                    let kind = tx.kind;
                    self.invalidations_done(line, kind, now, mem, out);
                }
            }
            ProtoMsg::FwdDone { data, retained, .. } => {
                let tx = self
                    .active
                    .get(&line)
                    .expect("FwdDone without a transaction");
                debug_assert!(matches!(tx.phase, TxPhase::WaitFwdDone));
                let kind = tx.kind;
                let old_owner = src;
                match kind {
                    TxKind::Read { requester } => {
                        let d = data.expect("read-forward returns data");
                        self.absorb_data(line, d, mem);
                        let mut sharers = SharerSet::only(requester);
                        if *retained {
                            sharers.insert(old_owner);
                        }
                        self.set_dir(line, Some(DirState::Shared(sharers)), now);
                    }
                    TxKind::Write { requester } => {
                        debug_assert!(data.is_none());
                        self.set_dir(line, Some(DirState::Exclusive(requester)), now);
                    }
                    k => panic!("FwdDone for {k:?}"),
                }
                self.complete(line, now, mem, out);
            }
            other => panic!(
                "home {:?} received an L1-bound message {other:?}",
                self.tile
            ),
        }
    }

    /// Makes `kind` the active transaction on `line`, waiting in `phase`.
    fn insert_tx(&mut self, line: LineAddr, kind: TxKind, phase: TxPhase) {
        if let TxPhase::L2Wait { until } | TxPhase::MemWait { until } = phase {
            self.next_timer = self.next_timer.min(until);
        }
        self.active.insert(line, HomeTx { kind, phase });
    }

    /// Begins a transaction on an idle line.
    fn start_tx(
        &mut self,
        src: CoreId,
        msg: ProtoMsg,
        now: Cycle,
        mem: &mut Memory,
        out: &mut Vec<OutMsg>,
    ) {
        let line = msg.line();
        match msg {
            ProtoMsg::GetS(_) => match self.dir.get(&line).copied() {
                Some(DirState::Exclusive(owner)) => {
                    debug_assert_ne!(owner, src, "owner re-requesting its own line");
                    self.stats.forwards_sent += 1;
                    out.push(OutMsg {
                        dst: owner,
                        msg: ProtoMsg::FwdGetS {
                            line,
                            requester: src,
                        },
                    });
                    self.insert_tx(line, TxKind::Read { requester: src }, TxPhase::WaitFwdDone);
                }
                _ => self.data_path(line, TxKind::Read { requester: src }, now, mem),
            },
            ProtoMsg::GetX(_) => self.write_path(line, src, now, mem, out),
            ProtoMsg::Upgrade(_) => match self.dir.get(&line).copied() {
                // A coarse entry's `contains` can false-positive on a
                // granule-mate whose copy is long gone — granting an
                // UpgradeAck then would leave the requester without
                // data. Coarse upgrades take the full write path (the
                // L1 already handles Data(M) in place of UpgradeAck).
                Some(DirState::Shared(sharers)) if sharers.is_exact() && sharers.contains(src) => {
                    let mut others = sharers;
                    others.remove(src);
                    if others.is_empty() {
                        // Only the requester shares it: grant after the
                        // directory/tag access.
                        self.insert_tx(
                            line,
                            TxKind::Upgrade { requester: src },
                            TxPhase::L2Wait {
                                until: now + self.l2_latency,
                            },
                        );
                    } else {
                        for s in others.iter() {
                            self.stats.invalidations_sent += 1;
                            out.push(OutMsg {
                                dst: s,
                                msg: ProtoMsg::Inv(line),
                            });
                        }
                        self.insert_tx(
                            line,
                            TxKind::Upgrade { requester: src },
                            TxPhase::WaitInvAcks { left: others.len() },
                        );
                    }
                }
                // The requester lost its copy to a race: full write path.
                _ => self.write_path(line, src, now, mem, out),
            },
            ProtoMsg::PutM(_, data) => {
                match self.dir.get(&line).copied() {
                    Some(DirState::Exclusive(owner)) if owner == src => {
                        self.stats.writebacks += 1;
                        self.absorb_data(line, data, mem);
                        self.set_dir(line, None, now);
                        self.insert_tx(
                            line,
                            TxKind::Wb { sender: src },
                            TxPhase::L2Wait {
                                until: now + self.l2_latency,
                            },
                        );
                    }
                    _ => {
                        // Stale: ownership already moved on. Ack and drop.
                        self.stats.stale_writebacks += 1;
                        out.push(OutMsg {
                            dst: src,
                            msg: ProtoMsg::WbAck(line),
                        });
                    }
                }
            }
            m => unreachable!("start_tx on {m:?}"),
        }
    }

    /// GetX / upgraded-Upgrade processing.
    fn write_path(
        &mut self,
        line: LineAddr,
        src: CoreId,
        now: Cycle,
        mem: &mut Memory,
        out: &mut Vec<OutMsg>,
    ) {
        match self.dir.get(&line).copied() {
            Some(DirState::Exclusive(owner)) => {
                debug_assert_ne!(owner, src, "owner issuing GetX for its own line");
                self.stats.forwards_sent += 1;
                out.push(OutMsg {
                    dst: owner,
                    msg: ProtoMsg::FwdGetX {
                        line,
                        requester: src,
                    },
                });
                self.insert_tx(line, TxKind::Write { requester: src }, TxPhase::WaitFwdDone);
            }
            Some(DirState::Shared(sharers)) if sharers.is_exact() => {
                let mut others = sharers;
                others.remove(src); // tolerate a stale self-bit
                if others.is_empty() {
                    self.data_path(line, TxKind::Write { requester: src }, now, mem);
                } else {
                    for s in others.iter() {
                        self.stats.invalidations_sent += 1;
                        out.push(OutMsg {
                            dst: s,
                            msg: ProtoMsg::Inv(line),
                        });
                    }
                    self.insert_tx(
                        line,
                        TxKind::Write { requester: src },
                        TxPhase::WaitInvAcks { left: others.len() },
                    );
                }
            }
            Some(DirState::Shared(sharers)) => {
                // Coarse superset: invalidate every covered core on the
                // machine except the writer. `CoarseInv` (unlike `Inv`)
                // may land on a non-sharer, which acks it immediately —
                // every recipient answers exactly once, so counting the
                // messages sent is an exact ack count.
                let mut left = 0u32;
                for s in sharers.iter_within(self.num_tiles as u64) {
                    if s == src {
                        continue;
                    }
                    self.stats.invalidations_sent += 1;
                    left += 1;
                    out.push(OutMsg {
                        dst: s,
                        msg: ProtoMsg::CoarseInv(line),
                    });
                }
                if left == 0 {
                    self.data_path(line, TxKind::Write { requester: src }, now, mem);
                } else {
                    self.insert_tx(
                        line,
                        TxKind::Write { requester: src },
                        TxPhase::WaitInvAcks { left },
                    );
                }
            }
            None => self.data_path(line, TxKind::Write { requester: src }, now, mem),
        }
    }

    /// Starts the L2/memory access for a transaction that will be served
    /// with data from this bank.
    fn data_path(&mut self, line: LineAddr, kind: TxKind, now: Cycle, mem: &mut Memory) {
        let home = self.tile;
        let l2_hit = self.l2.probe(line).is_some();
        self.tracer.emit(now, || Event::L2Access {
            home,
            line: line.0,
            hit: l2_hit,
        });
        let phase = if l2_hit {
            self.stats.l2_hits += 1;
            TxPhase::L2Wait {
                until: now + self.l2_latency,
            }
        } else {
            self.stats.l2_misses += 1;
            // Fetch from memory and install now; timing is charged by the
            // wait phase.
            let data = mem.get(&line).copied().unwrap_or([0; 8]);
            self.install_clean(line, data, mem);
            TxPhase::MemWait {
                until: now + self.l2_latency + self.mem_latency,
            }
        };
        self.insert_tx(line, kind, phase);
    }

    /// All invalidation acks arrived: finish the write/upgrade.
    fn invalidations_done(
        &mut self,
        line: LineAddr,
        kind: TxKind,
        now: Cycle,
        mem: &mut Memory,
        out: &mut Vec<OutMsg>,
    ) {
        match kind {
            TxKind::Upgrade { requester } => {
                self.set_dir(line, Some(DirState::Exclusive(requester)), now);
                out.push(OutMsg {
                    dst: requester,
                    msg: ProtoMsg::UpgradeAck(line),
                });
                self.complete(line, now, mem, out);
            }
            TxKind::Write { requester } => {
                // Sharers gone; now read the data out of L2/memory.
                self.active.remove(&line);
                self.data_path(line, TxKind::Write { requester }, now, mem);
            }
            k => panic!("invalidations for {k:?}"),
        }
    }

    /// The earliest cycle at which a timer-driven transaction phase
    /// matures, or `None` when every active phase is message-driven
    /// (invalidation acks, forwards) — those wake-ups are carried by
    /// the network and accounted there.
    ///
    /// A [`tick`](Self::tick) strictly before the returned value is a
    /// no-op, so the memory system ticks this bank only from then on,
    /// and keeps the minimum over its banks as its own next event.
    /// O(1): it is asked after every message the bank handles.
    #[inline]
    pub fn next_event(&self) -> Option<Cycle> {
        debug_assert_eq!(self.next_timer, self.earliest_timer());
        (self.next_timer != Cycle::MAX).then_some(self.next_timer)
    }

    /// The earliest `until` of a timed phase, by scanning `active`
    /// (`Cycle::MAX` when there is none).
    fn earliest_timer(&self) -> Cycle {
        self.active
            .values()
            .filter_map(|tx| match tx.phase {
                TxPhase::L2Wait { until } | TxPhase::MemWait { until } => Some(until),
                _ => None,
            })
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// Advances timer-based phases; call once per cycle.
    pub fn tick(&mut self, now: Cycle, mem: &mut Memory, out: &mut Vec<OutMsg>) {
        if now < self.next_timer {
            return;
        }
        // Collect matured lines into the reused scratch buffer (the
        // processing below inserts into `active`, so the two steps
        // cannot share one iteration).
        let mut ready = std::mem::take(&mut self.ready_scratch);
        ready.clear();
        ready.extend(
            self.active
                .iter()
                .filter(|(_, tx)| match tx.phase {
                    TxPhase::L2Wait { until } | TxPhase::MemWait { until } => until <= now,
                    _ => false,
                })
                .map(|(&l, _)| l),
        );
        for line in ready.drain(..) {
            let tx = self.active.get(&line).expect("collected above");
            let kind = tx.kind;
            match kind {
                TxKind::Read { requester } => {
                    let (data, _) = self.read_data(line, mem);
                    let grant = match self.dir.get(&line).copied() {
                        None => {
                            self.set_dir(line, Some(DirState::Exclusive(requester)), now);
                            Grant::E
                        }
                        Some(DirState::Shared(mut s)) => {
                            s.insert(requester);
                            self.set_dir(line, Some(DirState::Shared(s)), now);
                            Grant::S
                        }
                        Some(DirState::Exclusive(_)) => {
                            unreachable!("read served from bank while exclusive")
                        }
                    };
                    out.push(OutMsg {
                        dst: requester,
                        msg: ProtoMsg::Data { line, data, grant },
                    });
                }
                TxKind::Write { requester } => {
                    let (data, _) = self.read_data(line, mem);
                    debug_assert!(!matches!(self.dir.get(&line), Some(DirState::Exclusive(_))));
                    self.set_dir(line, Some(DirState::Exclusive(requester)), now);
                    out.push(OutMsg {
                        dst: requester,
                        msg: ProtoMsg::Data {
                            line,
                            data,
                            grant: Grant::M,
                        },
                    });
                }
                TxKind::Upgrade { requester } => {
                    self.set_dir(line, Some(DirState::Exclusive(requester)), now);
                    out.push(OutMsg {
                        dst: requester,
                        msg: ProtoMsg::UpgradeAck(line),
                    });
                }
                TxKind::Wb { sender } => {
                    out.push(OutMsg {
                        dst: sender,
                        msg: ProtoMsg::WbAck(line),
                    });
                }
            }
            self.complete(line, now, mem, out);
        }
        self.ready_scratch = ready;
        // Timed phases only leave `active` above, so this is the one
        // place the bound can rise.
        self.next_timer = self.earliest_timer();
    }

    /// Ends the active transaction on `line` and starts the next queued
    /// request, if any.
    fn complete(&mut self, line: LineAddr, now: Cycle, mem: &mut Memory, out: &mut Vec<OutMsg>) {
        self.active.remove(&line);
        // A drained queue stays in the map, so a line that is contended
        // again reuses its buffer instead of allocating a new one.
        let next = self.queue.get_mut(&line).and_then(VecDeque::pop_front);
        if let Some((src, msg)) = next {
            self.start_tx(src, msg, now, mem, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2_cfg() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
            hit_latency: 6,
            extra_data_latency: 2,
        }
    }

    fn home() -> (HomeCtrl, Memory, Vec<OutMsg>) {
        (
            HomeCtrl::new(CoreId(0), 4, &l2_cfg(), 400),
            Memory::default(),
            Vec::new(),
        )
    }

    fn run_until(
        h: &mut HomeCtrl,
        mem: &mut Memory,
        out: &mut Vec<OutMsg>,
        now: &mut Cycle,
        limit: u64,
    ) {
        for _ in 0..limit {
            h.tick(*now, mem, out);
            *now += 1;
            if !out.is_empty() {
                return;
            }
        }
    }

    #[test]
    fn cold_gets_fetches_memory_and_grants_e() {
        let (mut h, mut mem, mut out) = home();
        mem.insert(LineAddr(0), [42; 8]);
        let mut now = 0;
        h.handle(
            CoreId(1),
            ProtoMsg::GetS(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        assert!(out.is_empty(), "memory fetch takes time");
        run_until(&mut h, &mut mem, &mut out, &mut now, 1000);
        assert!(now > 400, "memory latency charged (completed at {now})");
        match &out[0].msg {
            ProtoMsg::Data {
                data,
                grant: Grant::E,
                ..
            } => assert_eq!(data[0], 42),
            m => panic!("{m:?}"),
        }
        assert_eq!(
            h.dir_state(LineAddr(0)),
            Some(DirState::Exclusive(CoreId(1)))
        );
        assert_eq!(h.stats().l2_misses, 1);
    }

    #[test]
    fn second_gets_is_an_l2_hit_with_forward() {
        let (mut h, mut mem, mut out) = home();
        let mut now = 0;
        h.handle(
            CoreId(1),
            ProtoMsg::GetS(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        run_until(&mut h, &mut mem, &mut out, &mut now, 1000);
        out.clear();
        // Second reader: owner must be fetched.
        h.handle(
            CoreId(2),
            ProtoMsg::GetS(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        assert_eq!(out[0].dst, CoreId(1));
        assert!(matches!(
            out[0].msg,
            ProtoMsg::FwdGetS {
                requester: CoreId(2),
                ..
            }
        ));
        out.clear();
        h.handle(
            CoreId(1),
            ProtoMsg::FwdDone {
                line: LineAddr(0),
                data: Some([7; 8]),
                retained: true,
            },
            now,
            &mut mem,
            &mut out,
        );
        match h.dir_state(LineAddr(0)) {
            Some(DirState::Shared(s)) => {
                assert!(s.contains(CoreId(1)) && s.contains(CoreId(2)));
                assert_eq!(s.len(), 2);
            }
            d => panic!("{d:?}"),
        }
        assert_eq!(h.peek_l2(LineAddr(0)).unwrap()[0], 7, "dirty data absorbed");
    }

    #[test]
    fn getx_invalidates_sharers_then_grants_m() {
        let (mut h, mut mem, mut out) = home();
        let mut now = 0;
        // Two readers establish Shared{1,2} (first is E; the FwdGetS path
        // is exercised elsewhere — here, set up S directly via two reads
        // from a Shared state).
        h.handle(
            CoreId(1),
            ProtoMsg::GetS(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        run_until(&mut h, &mut mem, &mut out, &mut now, 1000);
        out.clear();
        h.handle(
            CoreId(2),
            ProtoMsg::GetS(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        out.clear();
        h.handle(
            CoreId(1),
            ProtoMsg::FwdDone {
                line: LineAddr(0),
                data: Some([0; 8]),
                retained: true,
            },
            now,
            &mut mem,
            &mut out,
        );
        out.clear();
        // A third core writes.
        h.handle(
            CoreId(3),
            ProtoMsg::GetX(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        let invs: Vec<_> = out
            .iter()
            .filter(|m| matches!(m.msg, ProtoMsg::Inv(_)))
            .collect();
        assert_eq!(invs.len(), 2);
        out.clear();
        h.handle(
            CoreId(1),
            ProtoMsg::InvAck(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        assert!(out.is_empty(), "one ack is not enough");
        h.handle(
            CoreId(2),
            ProtoMsg::InvAck(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        run_until(&mut h, &mut mem, &mut out, &mut now, 100);
        assert!(matches!(
            out[0].msg,
            ProtoMsg::Data {
                grant: Grant::M,
                ..
            }
        ));
        assert_eq!(
            h.dir_state(LineAddr(0)),
            Some(DirState::Exclusive(CoreId(3)))
        );
    }

    #[test]
    fn upgrade_with_sole_sharer_acks_quickly() {
        let (mut h, mut mem, mut out) = home();
        let mut now = 0;
        // Establish Shared{1} via E-grant then FwdGetS-style downgrade is
        // overkill; set up directly through the public API: read (E),
        // then a PutM-free downgrade isn't possible, so emulate the
        // common case: read from core 1, read from core 2, invalidate 2.
        h.handle(
            CoreId(1),
            ProtoMsg::GetS(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        run_until(&mut h, &mut mem, &mut out, &mut now, 1000);
        out.clear();
        h.handle(
            CoreId(2),
            ProtoMsg::GetS(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        out.clear();
        h.handle(
            CoreId(1),
            ProtoMsg::FwdDone {
                line: LineAddr(0),
                data: Some([0; 8]),
                retained: false,
            },
            now,
            &mut mem,
            &mut out,
        );
        out.clear();
        // Now Shared{2} only. Core 2 upgrades: no invalidations needed.
        h.handle(
            CoreId(2),
            ProtoMsg::Upgrade(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        assert!(out.is_empty());
        run_until(&mut h, &mut mem, &mut out, &mut now, 100);
        assert_eq!(out[0].msg, ProtoMsg::UpgradeAck(LineAddr(0)));
        assert_eq!(
            h.dir_state(LineAddr(0)),
            Some(DirState::Exclusive(CoreId(2)))
        );
    }

    #[test]
    fn upgrade_after_losing_copy_becomes_getx() {
        let (mut h, mut mem, mut out) = home();
        let mut now = 0;
        // Uncached line; an Upgrade arrives from a core that lost the
        // race. It must be treated as a full GetX.
        h.handle(
            CoreId(1),
            ProtoMsg::Upgrade(LineAddr(3)),
            now,
            &mut mem,
            &mut out,
        );
        run_until(&mut h, &mut mem, &mut out, &mut now, 1000);
        assert!(matches!(
            out[0].msg,
            ProtoMsg::Data {
                grant: Grant::M,
                ..
            }
        ));
    }

    #[test]
    fn putm_from_owner_accepted_and_acked() {
        let (mut h, mut mem, mut out) = home();
        let mut now = 0;
        h.handle(
            CoreId(1),
            ProtoMsg::GetX(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        run_until(&mut h, &mut mem, &mut out, &mut now, 1000);
        out.clear();
        h.handle(
            CoreId(1),
            ProtoMsg::PutM(LineAddr(0), [9; 8]),
            now,
            &mut mem,
            &mut out,
        );
        run_until(&mut h, &mut mem, &mut out, &mut now, 100);
        assert_eq!(out[0].msg, ProtoMsg::WbAck(LineAddr(0)));
        assert_eq!(h.dir_state(LineAddr(0)), None);
        assert_eq!(h.peek_l2(LineAddr(0)).unwrap()[0], 9);
        assert_eq!(h.stats().writebacks, 1);
    }

    #[test]
    fn stale_putm_acked_without_state_change() {
        let (mut h, mut mem, mut out) = home();
        let now = 0;
        // Nothing is exclusive; a PutM from core 5 is stale.
        h.handle(
            CoreId(5),
            ProtoMsg::PutM(LineAddr(7), [1; 8]),
            now,
            &mut mem,
            &mut out,
        );
        assert_eq!(out[0].msg, ProtoMsg::WbAck(LineAddr(7)));
        assert_eq!(h.dir_state(LineAddr(7)), None);
        assert!(
            h.peek_l2(LineAddr(7)).is_none(),
            "stale data must not be absorbed"
        );
        assert_eq!(h.stats().stale_writebacks, 1);
    }

    #[test]
    fn conflicting_requests_queue_behind_active_tx() {
        let (mut h, mut mem, mut out) = home();
        let mut now = 0;
        h.handle(
            CoreId(1),
            ProtoMsg::GetS(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        // While the memory fetch is outstanding, another request arrives.
        h.handle(
            CoreId(2),
            ProtoMsg::GetX(LineAddr(0)),
            now,
            &mut mem,
            &mut out,
        );
        assert!(out.is_empty());
        // First completes: Data(E) to core 1; queued GetX then forwards.
        run_until(&mut h, &mut mem, &mut out, &mut now, 1000);
        let data_then_fwd: Vec<_> = out.iter().map(|m| m.dst).collect();
        assert_eq!(data_then_fwd, vec![CoreId(1), CoreId(1)]);
        assert!(matches!(
            out[0].msg,
            ProtoMsg::Data {
                grant: Grant::E,
                ..
            }
        ));
        assert!(matches!(
            out[1].msg,
            ProtoMsg::FwdGetX {
                requester: CoreId(2),
                ..
            }
        ));
    }

    #[test]
    fn dirty_l2_victim_goes_to_memory() {
        let (mut h, mut mem, mut out) = home();
        // Absorb dirty lines into one set until eviction; the victim's
        // data must land in memory. Lines 0, 8, 16 share set 0 (8 sets).
        h.absorb_data(LineAddr(0), [1; 8], &mut mem);
        h.absorb_data(LineAddr(8), [2; 8], &mut mem);
        h.absorb_data(LineAddr(16), [3; 8], &mut mem);
        assert_eq!(
            mem.get(&LineAddr(0)).unwrap()[0],
            1,
            "LRU dirty victim written back"
        );
        assert!(h.peek_l2(LineAddr(8)).is_some());
        assert!(h.peek_l2(LineAddr(16)).is_some());
        let _ = out.pop();
    }

    #[test]
    fn sharer_set_operations() {
        let mut s = SharerSet::empty();
        assert!(s.is_empty());
        s.insert(CoreId(3));
        s.insert(CoreId(31));
        assert!(s.contains(CoreId(3)));
        assert!(!s.contains(CoreId(4)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![CoreId(3), CoreId(31)]);
        s.remove(CoreId(3));
        assert_eq!(s, SharerSet::only(CoreId(31)));
        assert!(s.is_exact());
    }

    #[test]
    fn sharer_set_small_ids_never_leave_the_bit_map() {
        // The ≤64-core bit-identity guarantee: any operation sequence
        // over ids < 64 stays in (canonical) Bits mode.
        let mut s = SharerSet::empty();
        for i in (0..64).step_by(3) {
            s.insert(CoreId(i));
        }
        for i in (0..64).step_by(6) {
            s.remove(CoreId(i));
        }
        assert!(matches!(s, SharerSet::Bits(_)));
        assert!(s.is_exact());
    }

    #[test]
    fn sharer_set_spills_to_pointers_then_coarse() {
        // A small set gaining a large id becomes an exact pointer list.
        let mut s = SharerSet::only(CoreId(2));
        s.insert(CoreId(100));
        assert!(s.is_exact());
        assert!(s.contains(CoreId(100)) && s.contains(CoreId(2)));
        assert!(!s.contains(CoreId(101)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![CoreId(2), CoreId(100)]);
        // Dropping the large id collapses back to the canonical bit map.
        s.remove(CoreId(100));
        assert_eq!(s, SharerSet::only(CoreId(2)));
        // Overflowing the pointer capacity enters coarse mode.
        let mut s = SharerSet::empty();
        for i in 0..8u16 {
            s.insert(CoreId(64 + 8 * i));
        }
        assert!(!s.is_exact());
        for i in 0..8u16 {
            assert!(s.contains(CoreId(64 + 8 * i)), "member {i} lost");
        }
        assert!(s.len() >= 8, "coarse len is an upper bound");
    }

    #[test]
    fn sharer_set_coarse_iteration_respects_limit() {
        let mut s = SharerSet::empty();
        for i in 0..PTR_CAP as u16 {
            s.insert(CoreId(i));
        }
        s.insert(CoreId(1000)); // Bits is full past PTR_CAP → coarse
        s.insert(CoreId(1023));
        assert!(!s.is_exact());
        let ids: Vec<u64> = s.iter_within(1024).map(|c| c.0 as u64).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert!(ids.iter().all(|&i| i < 1024));
        for i in 0..PTR_CAP as u16 {
            assert!(s.contains(CoreId(i)));
        }
        assert!(s.contains(CoreId(1000)) && s.contains(CoreId(1023)));
        // The covered expansion includes every member.
        for m in [1000u64, 1023] {
            assert!(ids.contains(&m), "member {m} missing from expansion");
        }
    }

    /// Deterministic xorshift for the property tests (no external dep).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn sharer_set_matches_reference_model_up_to_1024() {
        use sim_base::fxmap::FxHashSet;
        // Random insert/remove interleavings over id ranges spanning the
        // Bits / Ptrs / Coarse regimes. Exact modes must match the
        // reference set exactly; coarse mode must stay a superset.
        for (seed, max_id) in [
            (1u64, 8u16),
            (2, 63),
            (3, 64),
            (4, 200),
            (5, 1024),
            (6, 1024),
        ] {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1;
            let mut s = SharerSet::empty();
            let mut model: FxHashSet<u16> = FxHashSet::default();
            for step in 0..600 {
                let id = (xorshift(&mut rng) % max_id as u64) as u16;
                if !xorshift(&mut rng).is_multiple_of(3) {
                    s.insert(CoreId(id));
                    model.insert(id);
                } else {
                    s.remove(CoreId(id));
                    model.remove(&id);
                }
                // Superset invariant holds unconditionally.
                for &m in &model {
                    assert!(
                        s.contains(CoreId(m)),
                        "seed {seed} step {step}: member {m} lost"
                    );
                }
                assert!(s.len() as usize >= model.len());
                if s.is_exact() {
                    let got: Vec<u16> = s.iter().map(|c| c.0).collect();
                    let mut want: Vec<u16> = model.iter().copied().collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "seed {seed} step {step}: exact-mode drift");
                } else {
                    // Every covered id is within one granule of a member
                    // past or present; here just check the expansion is
                    // a superset within the machine.
                    let got: FxHashSet<u16> = s.iter_within(max_id as u64).map(|c| c.0).collect();
                    assert!(
                        model.iter().all(|m| got.contains(m)),
                        "seed {seed} step {step}: coarse expansion misses a member"
                    );
                }
            }
        }
    }

    #[test]
    fn coarse_write_invalidates_superset_and_completes() {
        // A >64-core home: build a coarse sharer set, then write. Every
        // covered core (except the writer) must get a CoarseInv, and the
        // write must complete once they all ack.
        let n = 256usize;
        let mut h = HomeCtrl::new(CoreId(0), n, &l2_cfg(), 400);
        let mut mem = Memory::default();
        let mut out = Vec::new();
        let mut now = 0;
        let line = LineAddr(0);
        // Seed a coarse directory entry directly (reaching it through
        // the protocol needs dozens of round trips).
        let mut sharers = SharerSet::empty();
        for i in 0..10u16 {
            sharers.insert(CoreId(i * 24 + 1));
        }
        assert!(!sharers.is_exact(), "construction must overflow to coarse");
        h.set_dir(line, Some(DirState::Shared(sharers)), now);
        h.handle(CoreId(1), ProtoMsg::GetX(line), now, &mut mem, &mut out);
        let invs: Vec<CoreId> = out
            .iter()
            .filter(|m| matches!(m.msg, ProtoMsg::CoarseInv(_)))
            .map(|m| m.dst)
            .collect();
        assert_eq!(invs.len(), out.len(), "only CoarseInv fan-out expected");
        assert!(
            !invs.contains(&CoreId(1)),
            "writer must not invalidate itself"
        );
        assert!(invs.iter().all(|c| c.index() < n));
        for i in 0..10u16 {
            let c = CoreId(i * 24 + 1);
            if c != CoreId(1) {
                assert!(invs.contains(&c), "true sharer {c:?} missed");
            }
        }
        out.clear();
        // Ack them all; the write then proceeds to the data path.
        for c in invs {
            h.handle(c, ProtoMsg::InvAck(line), now, &mut mem, &mut out);
        }
        run_until(&mut h, &mut mem, &mut out, &mut now, 1000);
        assert!(matches!(
            out[0].msg,
            ProtoMsg::Data {
                grant: Grant::M,
                ..
            }
        ));
        assert_eq!(h.dir_state(line), Some(DirState::Exclusive(CoreId(1))));
    }

    #[test]
    fn coarse_upgrade_takes_full_write_path() {
        // An Upgrade against a coarse entry must NOT be acked in place —
        // `contains` may false-positive, so the home replies with full
        // data via the write path instead.
        let n = 256usize;
        let mut h = HomeCtrl::new(CoreId(0), n, &l2_cfg(), 400);
        let mut mem = Memory::default();
        let mut out = Vec::new();
        let mut now = 0;
        let line = LineAddr(0);
        let mut sharers = SharerSet::empty();
        for i in 0..9u16 {
            sharers.insert(CoreId(i * 28 + 3));
        }
        assert!(!sharers.is_exact());
        h.set_dir(line, Some(DirState::Shared(sharers)), now);
        h.handle(CoreId(3), ProtoMsg::Upgrade(line), now, &mut mem, &mut out);
        assert!(
            out.iter().all(|m| matches!(m.msg, ProtoMsg::CoarseInv(_))),
            "coarse upgrade must fan out CoarseInv, not UpgradeAck"
        );
        let acks: Vec<CoreId> = out.iter().map(|m| m.dst).collect();
        out.clear();
        for c in acks {
            h.handle(c, ProtoMsg::InvAck(line), now, &mut mem, &mut out);
        }
        run_until(&mut h, &mut mem, &mut out, &mut now, 1000);
        assert!(matches!(
            out[0].msg,
            ProtoMsg::Data {
                grant: Grant::M,
                ..
            }
        ));
    }
}

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

/// The sharer maps of one home's `Shared` directory entries: one exact
/// bit map per entry, core `c` at bit `c % 64` of word `c / 64`, in a
/// slot of `words` = ⌈n/64⌉ words for an n-core machine. A slot is
/// taken when an entry enters `Shared` and freed, cleared, when it
/// leaves, so the pool holds the most entries ever shared at once and,
/// once it has grown that far, no directory transition allocates.
#[derive(Clone, Debug)]
struct SharerPool {
    /// Words per slot.
    words: usize,
    /// The slots' words, back to back.
    bits: Vec<u64>,
    /// Slots not in use; their words are zero.
    free: Vec<u32>,
}

impl SharerPool {
    fn new(num_tiles: usize) -> SharerPool {
        SharerPool {
            words: num_tiles.div_ceil(64),
            bits: Vec::new(),
            free: Vec::new(),
        }
    }

    /// An empty map's slot.
    fn take(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let slot = self.bits.len() / self.words;
            self.bits.resize(self.bits.len() + self.words, 0);
            slot as u32
        })
    }

    /// Clears `slot` and returns it to the free list.
    fn release(&mut self, slot: u32) {
        self.map_mut(slot).fill(0);
        self.free.push(slot);
    }

    fn map(&self, slot: u32) -> &[u64] {
        let at = slot as usize * self.words;
        &self.bits[at..at + self.words]
    }

    fn map_mut(&mut self, slot: u32) -> &mut [u64] {
        let at = slot as usize * self.words;
        &mut self.bits[at..at + self.words]
    }

    fn insert(&mut self, slot: u32, c: CoreId) {
        self.map_mut(slot)[c.index() / 64] |= 1 << (c.index() % 64);
    }

    fn contains(&self, slot: u32, c: CoreId) -> bool {
        self.map(slot)[c.index() / 64] >> (c.index() % 64) & 1 == 1
    }

    /// The members of `slot`, ascending.
    fn iter(&self, slot: u32) -> impl Iterator<Item = CoreId> + '_ {
        self.map(slot).iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    CoreId::from(w * 64 + i)
                })
            })
        })
    }
}

/// Directory state of a line at its home.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirState {
    /// Cached read-only by the L1s of the sharer map in this slot of
    /// the home's pool ([`HomeCtrl::sharers`] lists them).
    Shared(u32),
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
    l2: SetAssoc<bool>, // state = dirty-vs-memory
    dir: FxHashMap<LineAddr, DirState>,
    /// The sharer maps of the `Shared` entries in `dir`.
    sharers: SharerPool,
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
            l2: SetAssoc::new(l2_cfg),
            dir: FxHashMap::default(),
            sharers: SharerPool::new(num_tiles),
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
    /// a [`Event::DirTransition`] when the stable-state label changes,
    /// and frees the sharer map of a `Shared` entry it replaces.
    /// Owner/sharer churn within the same label is visible through the
    /// surrounding protocol events instead.
    fn set_dir(&mut self, line: LineAddr, new: Option<DirState>, now: Cycle) {
        let old = match new {
            Some(d) => self.dir.insert(line, d),
            None => self.dir.remove(&line),
        };
        if let Some(DirState::Shared(slot)) = old {
            debug_assert_ne!(new, old, "a shared entry replaced by itself");
            self.sharers.release(slot);
        }
        let (from, to) = (dir_label(old), dir_label(new));
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

    /// Sends `Inv(line)` to every member of the sharer map in `slot`
    /// but `except`, in ascending core order; returns how many it sent.
    fn invalidate_sharers(
        &mut self,
        line: LineAddr,
        slot: u32,
        except: CoreId,
        out: &mut Vec<OutMsg>,
    ) -> u32 {
        let before = out.len();
        out.extend(
            self.sharers
                .iter(slot)
                .filter(|&s| s != except)
                .map(|dst| OutMsg {
                    dst,
                    msg: ProtoMsg::Inv(line),
                }),
        );
        let sent = (out.len() - before) as u32;
        self.stats.invalidations_sent += sent as u64;
        sent
    }

    /// Statistics so far.
    pub fn stats(&self) -> HomeStats {
        self.stats
    }

    /// Directory state of a line (None = uncached).
    pub fn dir_state(&self, line: LineAddr) -> Option<DirState> {
        self.dir.get(&line).copied()
    }

    /// The sharers the directory records for `line`, ascending (none
    /// unless it is `Shared`).
    pub fn sharers(&self, line: LineAddr) -> impl Iterator<Item = CoreId> + '_ {
        let slot = match self.dir.get(&line) {
            Some(&DirState::Shared(slot)) => Some(slot),
            _ => None,
        };
        slot.into_iter().flat_map(|slot| self.sharers.iter(slot))
    }

    /// True while a transaction on `line` is in flight here.
    pub fn in_transaction(&self, line: LineAddr) -> bool {
        self.active.contains_key(&line)
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
                        let slot = self.sharers.take();
                        self.sharers.insert(slot, requester);
                        if *retained {
                            self.sharers.insert(slot, old_owner);
                        }
                        self.set_dir(line, Some(DirState::Shared(slot)), now);
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
                Some(DirState::Shared(slot)) if self.sharers.contains(slot, src) => {
                    let phase = match self.invalidate_sharers(line, slot, src, out) {
                        // Only the requester shares it: grant after the
                        // directory/tag access.
                        0 => TxPhase::L2Wait {
                            until: now + self.l2_latency,
                        },
                        left => TxPhase::WaitInvAcks { left },
                    };
                    self.insert_tx(line, TxKind::Upgrade { requester: src }, phase);
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
            // The writer's own bit may be stale (a silent S eviction).
            Some(DirState::Shared(slot)) => match self.invalidate_sharers(line, slot, src, out) {
                0 => self.data_path(line, TxKind::Write { requester: src }, now, mem),
                left => self.insert_tx(
                    line,
                    TxKind::Write { requester: src },
                    TxPhase::WaitInvAcks { left },
                ),
            },
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
                        Some(DirState::Shared(slot)) => {
                            self.sharers.insert(slot, requester);
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
        assert!(matches!(
            h.dir_state(LineAddr(0)),
            Some(DirState::Shared(_))
        ));
        assert_eq!(
            h.sharers(LineAddr(0)).collect::<Vec<_>>(),
            [CoreId(1), CoreId(2)]
        );
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

    /// Makes `line` `Shared` by `cores` (two at least) through the
    /// protocol: the first reads it exclusive, the second's read is
    /// forwarded, the rest read it from the bank.
    fn share_via_reads(
        h: &mut HomeCtrl,
        mem: &mut Memory,
        now: &mut Cycle,
        line: LineAddr,
        cores: &[u16],
    ) {
        let mut out = Vec::new();
        h.handle(CoreId(cores[0]), ProtoMsg::GetS(line), *now, mem, &mut out);
        run_until(h, mem, &mut out, now, 1000);
        h.handle(CoreId(cores[1]), ProtoMsg::GetS(line), *now, mem, &mut out);
        let fwd_done = ProtoMsg::FwdDone {
            line,
            data: Some([0; 8]),
            retained: true,
        };
        h.handle(CoreId(cores[0]), fwd_done, *now, mem, &mut out);
        for &c in &cores[2..] {
            out.clear();
            h.handle(CoreId(c), ProtoMsg::GetS(line), *now, mem, &mut out);
            run_until(h, mem, &mut out, now, 100);
        }
    }

    #[test]
    fn wide_sharer_map_names_only_the_sharers_past_64_cores() {
        // A 256-core home: sharers on every word of the map, then a
        // write from one of them invalidates exactly the others, in
        // ascending core order, and completes on their acks.
        let mut h = HomeCtrl::new(CoreId(0), 256, &l2_cfg(), 400);
        let (mut mem, mut out, mut now) = (Memory::default(), Vec::new(), 0);
        let line = LineAddr(0);
        let cores = [200, 3, 64, 255, 127, 128];
        share_via_reads(&mut h, &mut mem, &mut now, line, &cores);
        assert_eq!(
            h.sharers(line).map(|c| c.0).collect::<Vec<_>>(),
            [3, 64, 127, 128, 200, 255]
        );
        h.handle(CoreId(127), ProtoMsg::GetX(line), now, &mut mem, &mut out);
        let invs: Vec<u16> = out.iter().map(|m| m.dst.0).collect();
        assert_eq!(invs, [3, 64, 128, 200, 255]);
        assert!(out.iter().all(|m| m.msg == ProtoMsg::Inv(line)));
        assert_eq!(h.stats().invalidations_sent, 5);
        out.clear();
        for c in invs {
            h.handle(CoreId(c), ProtoMsg::InvAck(line), now, &mut mem, &mut out);
        }
        run_until(&mut h, &mut mem, &mut out, &mut now, 100);
        assert!(matches!(
            out[0].msg,
            ProtoMsg::Data {
                grant: Grant::M,
                ..
            }
        ));
        assert_eq!(h.dir_state(line), Some(DirState::Exclusive(CoreId(127))));
        assert_eq!(h.sharers(line).count(), 0);
    }

    #[test]
    fn sharer_slots_are_reused_and_cleared() {
        // Two lines shared at once take two slots; once both are written,
        // sharing them again takes the same two slots, cleared.
        let mut h = HomeCtrl::new(CoreId(0), 130, &l2_cfg(), 400);
        let (mut mem, mut out, mut now) = (Memory::default(), Vec::new(), 0);
        let (a, b) = (LineAddr(0), LineAddr(130));
        share_via_reads(&mut h, &mut mem, &mut now, a, &[1, 129]);
        share_via_reads(&mut h, &mut mem, &mut now, b, &[2, 65]);
        assert_eq!(h.sharers.bits.len(), 2 * 3, "two slots of three words");
        for line in [a, b] {
            h.handle(CoreId(7), ProtoMsg::GetX(line), now, &mut mem, &mut out);
            for m in std::mem::take(&mut out) {
                h.handle(m.dst, ProtoMsg::InvAck(line), now, &mut mem, &mut out);
            }
            run_until(&mut h, &mut mem, &mut out, &mut now, 100);
            out.clear();
            h.handle(
                CoreId(7),
                ProtoMsg::PutM(line, [0; 8]),
                now,
                &mut mem,
                &mut out,
            );
            run_until(&mut h, &mut mem, &mut out, &mut now, 100);
            out.clear();
        }
        assert_eq!(h.sharers.free.len(), 2);
        assert!(
            h.sharers.bits.iter().all(|&w| w == 0),
            "freed maps are clear"
        );
        share_via_reads(&mut h, &mut mem, &mut now, b, &[3, 4, 100]);
        assert_eq!(h.sharers.bits.len(), 2 * 3, "no slot was added");
        assert_eq!(h.sharers(a).count(), 0);
        assert_eq!(h.sharers(b).map(|c| c.0).collect::<Vec<_>>(), [3, 4, 100]);
    }
}

//! The assembled memory system: per-tile L1s and home banks glued by the
//! NoC, plus the flat memory backend.

use crate::home::{DirState, HomeCtrl, HomeStats, Memory};
use crate::l1::{L1Ctrl, L1Stats, OutMsg};
use crate::proto::{CoreReq, CoreResp, ProtoMsg};
use sim_base::active::ActiveSet;
use sim_base::config::CmpConfig;
use sim_base::ids::LineAddr;
use sim_base::trace::{NullSink, TraceSink, Tracer};
use sim_base::{CoreId, Cycle};
use sim_noc::{Message, Noc, NocSchedStats, NocStats};

/// Active-set occupancy counters for the memory hierarchy (diagnostics
/// only — never part of a report, so sparse and dense runs stay
/// bit-identical).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemSchedStats {
    /// Ticks performed.
    pub ticks: u64,
    /// Home banks ticked: on the sparse path the banks whose earliest
    /// timer was due, on the dense path every bank with a transaction
    /// in flight.
    pub home_visits: u64,
    /// Home banks with a transaction in flight, summed over the ticks.
    pub busy_home_ticks: u64,
    /// Tiles visited that had at least one delivered message.
    pub delivery_visits: u64,
}

impl MemSchedStats {
    /// Mean number of busy home banks per tick.
    pub fn mean_busy_homes(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.busy_home_ticks as f64 / self.ticks as f64
        }
    }
}

/// The full memory hierarchy of the CMP.
///
/// Driving contract: during a cycle, cores may call
/// [`request`](Self::request) (when [`ready`](Self::ready)) and
/// [`poll`](Self::poll); the simulator calls [`tick`](Self::tick) once
/// per cycle.
#[derive(Debug)]
pub struct MemorySystem<S: TraceSink = NullSink> {
    cfg: CmpConfig,
    l1s: Vec<L1Ctrl<S>>,
    homes: Vec<HomeCtrl<S>>,
    noc: Noc<ProtoMsg, S>,
    /// Backing memory, banked per home: `mems[i]` holds exactly the
    /// lines homed at tile `i` (a bank is only ever touched together
    /// with its home controller, or via `poke_word`/`peek_word` which
    /// route by home).
    mems: Vec<Memory>,
    now: Cycle,
    out_scratch: Vec<OutMsg>,
    /// Home banks with a transaction in flight. Maintained on every
    /// state edge (message handled, bank ticked) in both scheduling
    /// modes, so it is always exact.
    busy_homes: ActiveSet,
    /// The earliest cycle a home-bank timer matures: exactly the
    /// minimum of the banks' [`HomeCtrl::next_event`], `Cycle::MAX`
    /// when no bank holds a timed phase. A bank's timer is lowered only
    /// by a message it handles ([`deliver_tile`](Self::deliver_tile)
    /// lowers this with it) and raised only by its own tick, which
    /// happens only when this is due (the tick then recomputes it) — so
    /// before it, no bank has anything to do.
    home_due: Cycle,
    /// Gate for the sparse tick path (`--no-active-set` escape hatch).
    active_set_enabled: bool,
    sched: MemSchedStats,
}

impl MemorySystem {
    /// Builds the hierarchy from a [`CmpConfig`].
    pub fn new(cfg: &CmpConfig) -> MemorySystem {
        MemorySystem::traced(cfg, Tracer::default())
    }
}

impl<S: TraceSink> MemorySystem<S> {
    /// Builds the hierarchy, with every controller and the NoC emitting
    /// events into (clones of) `tracer`.
    pub fn traced(cfg: &CmpConfig, tracer: Tracer<S>) -> MemorySystem<S> {
        let n = cfg.num_cores();
        MemorySystem {
            cfg: *cfg,
            l1s: (0..n)
                .map(|i| L1Ctrl::traced(CoreId::from(i), n, &cfg.l1, tracer.clone()))
                .collect(),
            homes: (0..n)
                .map(|i| {
                    HomeCtrl::traced(CoreId::from(i), n, &cfg.l2, cfg.mem.latency, tracer.clone())
                })
                .collect(),
            noc: Noc::traced(cfg.mesh, cfg.noc, tracer),
            mems: (0..n).map(|_| Memory::default()).collect(),
            now: 0,
            out_scratch: Vec::new(),
            busy_homes: ActiveSet::new(n),
            home_due: Cycle::MAX,
            active_set_enabled: true,
            sched: MemSchedStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CmpConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Network statistics (the paper's Figure-7 counters).
    pub fn noc_stats(&self) -> &NocStats {
        self.noc.stats()
    }

    /// L1 statistics of one core.
    pub fn l1_stats(&self, core: CoreId) -> L1Stats {
        self.l1s[core.index()].stats()
    }

    /// Aggregated home-bank statistics.
    pub fn home_stats(&self) -> HomeStats {
        let mut acc = HomeStats::default();
        for h in &self.homes {
            let s = h.stats();
            acc.l2_hits += s.l2_hits;
            acc.l2_misses += s.l2_misses;
            acc.invalidations_sent += s.invalidations_sent;
            acc.forwards_sent += s.forwards_sent;
            acc.writebacks += s.writebacks;
            acc.stale_writebacks += s.stale_writebacks;
        }
        acc
    }

    /// True when core `core` can issue a new request.
    pub fn ready(&self, core: CoreId) -> bool {
        self.l1s[core.index()].ready()
    }

    /// Issues a data access for `core` (one outstanding each).
    pub fn request(&mut self, core: CoreId, req: CoreReq) {
        let now = self.now;
        self.l1s[core.index()].request(req, now, &mut self.out_scratch);
        self.flush_out(core);
    }

    /// Returns `core`'s completed response, if ready.
    pub fn poll(&mut self, core: CoreId) -> Option<CoreResp> {
        self.l1s[core.index()].poll(self.now)
    }

    /// Advances the memory system one cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        self.sched.ticks += 1;
        self.sched.busy_home_ticks += self.busy_homes.len() as u64;
        debug_assert_eq!(self.home_due, self.earliest_home_timer());
        // Home timers. Bank-to-bank interaction only happens through
        // the NoC, a cycle later, so ticking any subset that contains
        // the banks with a due timer, in ascending order, is
        // bit-identical to ticking them all.
        let timer_due = self.home_due <= now;
        if !self.active_set_enabled {
            // Dense reference path (`--no-active-set`): every bank,
            // every cycle.
            for i in 0..self.homes.len() {
                self.sched.home_visits += self.homes[i].is_busy() as u64;
                self.tick_home(i, now);
            }
        } else if timer_due {
            // Nothing to do before the earliest timer, and then only in
            // the banks it is due in (every other bank's tick
            // early-returns on exactly this guard).
            for w in 0..self.busy_homes.num_words() {
                for i in self.busy_homes.word_members(w) {
                    if self.homes[i].next_event().is_some_and(|t| t <= now) {
                        self.sched.home_visits += 1;
                        self.tick_home(i, now);
                    }
                }
            }
        }
        if timer_due {
            // Only a bank's own tick raises its timer, and only a due
            // one does: the one place `home_due` can rise (both paths
            // maintain it, so they can be toggled mid-run).
            self.home_due = self.earliest_home_timer();
        }
        // Deliveries. Handling a message can send new ones, but they
        // mature in a later NoC tick, so the sparse path's word walk
        // over the tiles the NoC holds messages for is an exact
        // snapshot of what the dense scan finds.
        if !self.active_set_enabled {
            for i in 0..self.l1s.len() {
                self.sched.delivery_visits += self.deliver_tile(i, now) as u64;
            }
        } else if self.noc.has_deliveries() {
            for w in 0..self.noc.delivery_tiles().num_words() {
                for i in self.noc.delivery_tiles().word_members(w) {
                    self.sched.delivery_visits += self.deliver_tile(i, now) as u64;
                }
            }
        }
        self.noc.tick();
        self.now += 1;
    }

    /// Ticks home bank `i` and sends what it produced.
    fn tick_home(&mut self, i: usize, now: Cycle) {
        self.homes[i].tick(now, &mut self.mems[i], &mut self.out_scratch);
        self.flush_out(CoreId::from(i));
        self.sync_home(i);
    }

    /// The earliest home-bank timer, bank by bank (what `home_due`
    /// caches). Only busy banks hold timers.
    fn earliest_home_timer(&self) -> Cycle {
        let mut due = Cycle::MAX;
        self.busy_homes
            .for_each_live(|i| due = due.min(self.homes[i].next_event().unwrap_or(Cycle::MAX)));
        due
    }

    /// Drains and handles every delivered message for tile `i`.
    /// Returns true when at least one message was handled.
    fn deliver_tile(&mut self, i: usize, now: Cycle) -> bool {
        let tile = CoreId::from(i);
        let mut any = false;
        while let Some(m) = self.noc.recv(tile) {
            any = true;
            if m.payload.for_home() {
                self.homes[i].handle(
                    m.src,
                    m.payload,
                    now,
                    &mut self.mems[i],
                    &mut self.out_scratch,
                );
                self.sync_home(i);
                // Handling may have started a timed phase.
                if let Some(t) = self.homes[i].next_event() {
                    self.home_due = self.home_due.min(t);
                }
            } else {
                self.l1s[i].handle(m.payload, now, &mut self.out_scratch);
            }
            self.flush_out(tile);
        }
        any
    }

    /// Re-derives home `i`'s busy-set membership from its state.
    #[inline]
    fn sync_home(&mut self, i: usize) {
        if self.homes[i].is_busy() {
            self.busy_homes.insert(i);
        } else {
            self.busy_homes.remove(i);
        }
    }

    /// The earliest cycle at which the memory system can change state
    /// on its own, or `None` when it is fully message/request driven
    /// and idle. `Some(now)` means the very next tick has work.
    ///
    /// Used by the fast-forward scheduler: every tick strictly before
    /// the returned cycle is a provable no-op (no home timer matures,
    /// no message is delivered, no flit arrives anywhere). O(1): the
    /// NoC reads the fronts of its arrival queues and the banks'
    /// earliest timer is kept in `home_due`, so a *failed* skip attempt
    /// costs the same on any machine size with any number of
    /// transactions in flight.
    pub fn next_event(&self) -> Option<Cycle> {
        debug_assert_eq!(self.home_due, self.earliest_home_timer());
        let due = (self.home_due != Cycle::MAX).then_some(self.home_due);
        match (self.noc.next_event(), due) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Enables or disables active-set micro-scheduling here and in the
    /// NoC (on by default; `--no-active-set` escape hatch). Reports and
    /// traces are bit-identical either way.
    pub fn set_active_set_enabled(&mut self, on: bool) {
        self.active_set_enabled = on;
        self.noc.set_active_set_enabled(on);
    }

    /// Whether active-set micro-scheduling is enabled.
    pub fn active_set_enabled(&self) -> bool {
        self.active_set_enabled
    }

    /// Active-set occupancy counters for the memory hierarchy.
    pub fn sched_stats(&self) -> MemSchedStats {
        self.sched
    }

    /// Active-set occupancy counters for the underlying NoC.
    pub fn noc_sched_stats(&self) -> NocSchedStats {
        self.noc.sched_stats()
    }

    /// Jumps the memory-system clock (and the NoC's) to `t` without
    /// ticking the cycles in between. Only legal when
    /// [`next_event`](Self::next_event) reports nothing strictly
    /// before `t`.
    pub fn skip_to(&mut self, t: Cycle) {
        debug_assert!(t >= self.now);
        debug_assert!(
            self.next_event().is_none_or(|e| e >= t),
            "memory-system skip over a live event"
        );
        self.noc.skip_to(t);
        self.now = t;
    }

    /// True when a protocol message is already queued for delivery to
    /// `tile` — it will be handled by this cycle's [`tick`](Self::tick),
    /// mutating the tile's L1 or home bank. The per-core spin-parking
    /// scheduler uses this as its (exact) wake trigger: a parked core's
    /// probed line cannot change until this returns true.
    pub fn has_delivery_for(&self, tile: CoreId) -> bool {
        self.noc.has_delivery_for(tile)
    }

    /// [`has_delivery_for`](Self::has_delivery_for) for every tile at
    /// once, as bitset words (tile `i` at bit `i % 64` of word `i / 64`).
    /// Frozen while the cores step: delivery queues only change in
    /// [`tick`](Self::tick).
    pub fn delivery_words(&self) -> &[u64] {
        self.noc.delivery_tiles().words()
    }

    // --- fast-forward support: per-core L1 spin hooks -------------------

    /// True when `core`'s L1 has protocol work in flight (outstanding
    /// miss or a deferred coherence message).
    pub fn l1_busy(&self, core: CoreId) -> bool {
        let l1 = &self.l1s[core.index()];
        l1.miss_outstanding() || l1.has_deferred()
    }

    /// The ready cycle of `core`'s pending response, if any.
    pub fn resp_ready_at(&self, core: CoreId) -> Option<Cycle> {
        self.l1s[core.index()].resp_ready_at()
    }

    /// `core`'s pending response if it is a load: `(ready, value)`.
    pub fn peek_resp_load(&self, core: CoreId) -> Option<(Cycle, u64)> {
        self.l1s[core.index()].peek_resp_load()
    }

    /// See [`L1Ctrl::spin_probe_load`].
    pub fn spin_probe_load(&self, core: CoreId, addr: u64) -> Option<u64> {
        self.l1s[core.index()].spin_probe_load(addr)
    }

    /// See [`L1Ctrl::line_value`].
    pub fn spin_line_value(&self, core: CoreId, addr: u64) -> Option<u64> {
        self.l1s[core.index()].line_value(addr)
    }

    /// See [`L1Ctrl::spin_replay`].
    pub fn spin_replay(&mut self, core: CoreId, addr: u64, hits: u64, final_ready: Option<Cycle>) {
        self.l1s[core.index()].spin_replay(addr, hits, final_ready);
    }

    /// See [`L1Ctrl::take_resp_for_replay`].
    pub fn take_resp_for_replay(&mut self, core: CoreId) -> Option<CoreResp> {
        self.l1s[core.index()].take_resp_for_replay()
    }

    /// Sends the scratch buffer's messages from `src`.
    fn flush_out(&mut self, src: CoreId) {
        for OutMsg { dst, msg } in self.out_scratch.drain(..) {
            self.noc.send(Message {
                src,
                dst,
                class: msg.class(),
                payload_bytes: msg.payload_bytes(),
                payload: msg,
            });
        }
    }

    /// True when no request, transaction or message is in flight.
    pub fn is_idle(&self) -> bool {
        self.noc.is_idle() && self.homes.iter().all(|h| h.is_idle())
    }

    fn home_of(&self, line: LineAddr) -> usize {
        (line.0 % self.l1s.len() as u64) as usize
    }

    /// Functional pre-load of a word into memory. Only valid before any
    /// core has touched the line (cold caches).
    pub fn poke_word(&mut self, addr: u64, value: u64) {
        assert_eq!(addr % 8, 0, "unaligned poke");
        let line = LineAddr(addr / self.cfg.l1.line_bytes);
        let home = self.home_of(line);
        assert!(
            self.homes[home].dir_state(line).is_none() && self.homes[home].peek_l2(line).is_none(),
            "poke_word on a warm line {line:?}"
        );
        let entry = self.mems[home].entry(line).or_insert([0; 8]);
        entry[((addr % self.cfg.l1.line_bytes) / 8) as usize] = value;
    }

    /// Architectural value of the word at `addr`, wherever its current
    /// copy lives (owner L1, writeback buffer, L2 or memory).
    ///
    /// Exact on a quiescent machine; while a line-ownership handoff is in
    /// flight it prefers, in order: the directory's owner, any L1 holding
    /// the line in M/E, any writeback buffer, the home L2, memory.
    pub fn peek_word(&self, addr: u64) -> u64 {
        assert_eq!(addr % 8, 0, "unaligned peek");
        let line = LineAddr(addr / self.cfg.l1.line_bytes);
        let w = ((addr % self.cfg.l1.line_bytes) / 8) as usize;
        let home = self.home_of(line);
        if let Some(DirState::Exclusive(owner)) = self.homes[home].dir_state(line) {
            if let Some((_, data)) = self.l1s[owner.index()].peek_line(line) {
                return data[w];
            }
            // Owner's copy is in flight (forward/writeback race); fall
            // through to the freshest copy we can find.
        }
        // A modified/exclusive cache copy anywhere is authoritative (a
        // just-completed write whose FwdDone has not reached the home).
        for l1 in &self.l1s {
            if let Some((state, data)) = l1.peek_cache_line(line) {
                if state != crate::l1::L1State::S {
                    return data[w];
                }
            }
        }
        // An eviction in flight is fresher than the home's copy.
        for l1 in &self.l1s {
            if let Some(data) = l1.peek_wb_line(line) {
                return data[w];
            }
        }
        if let Some(data) = self.homes[home].peek_l2(line) {
            return data[w];
        }
        self.mems[home].get(&line).map_or(0, |d| d[w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::inst::AmoOp;

    fn sys(cores: usize) -> MemorySystem {
        MemorySystem::new(&CmpConfig::icpp2010_with_cores(cores))
    }

    /// Issues a request for `core` and ticks until the response arrives.
    fn do_req(s: &mut MemorySystem, core: usize, req: CoreReq) -> (CoreResp, u64) {
        let core = CoreId::from(core);
        assert!(s.ready(core));
        let start = s.now();
        s.request(core, req);
        loop {
            if let Some(r) = s.poll(core) {
                return (r, s.now() - start);
            }
            s.tick();
            assert!(s.now() - start < 100_000, "request never completed");
        }
    }

    #[test]
    fn cold_load_returns_poked_value_with_memory_latency() {
        let mut s = sys(4);
        s.poke_word(0x1000, 777);
        let (r, lat) = do_req(&mut s, 0, CoreReq::Load { addr: 0x1000 });
        assert_eq!(r, CoreResp::LoadValue(777));
        assert!(lat > 400, "cold miss must pay the 400-cycle memory ({lat})");
    }

    #[test]
    fn warm_load_hits_in_l1() {
        let mut s = sys(4);
        s.poke_word(0x40, 5);
        do_req(&mut s, 0, CoreReq::Load { addr: 0x40 });
        let (r, lat) = do_req(&mut s, 0, CoreReq::Load { addr: 0x40 });
        assert_eq!(r, CoreResp::LoadValue(5));
        assert_eq!(lat, 1, "L1 hit is one cycle");
    }

    #[test]
    fn second_core_load_is_l2_hit_via_forward() {
        let mut s = sys(4);
        s.poke_word(0x40, 9);
        do_req(&mut s, 0, CoreReq::Load { addr: 0x40 });
        let (r, lat) = do_req(&mut s, 1, CoreReq::Load { addr: 0x40 });
        assert_eq!(r, CoreResp::LoadValue(9));
        assert!(lat < 400, "second reader must not go to memory ({lat})");
    }

    #[test]
    fn store_then_remote_load_sees_value() {
        let mut s = sys(4);
        let (_, _) = do_req(
            &mut s,
            0,
            CoreReq::Store {
                addr: 0x80,
                value: 1234,
            },
        );
        let (r, _) = do_req(&mut s, 3, CoreReq::Load { addr: 0x80 });
        assert_eq!(r, CoreResp::LoadValue(1234));
        assert_eq!(s.peek_word(0x80), 1234);
    }

    #[test]
    fn write_invalidation_round_trip() {
        let mut s = sys(4);
        // All cores read the line (Shared everywhere).
        for c in 0..4 {
            do_req(&mut s, c, CoreReq::Load { addr: 0x100 });
        }
        // One core writes: invalidations fly, then the write wins.
        do_req(
            &mut s,
            2,
            CoreReq::Store {
                addr: 0x100,
                value: 42,
            },
        );
        // Everyone re-reads the new value.
        for c in 0..4 {
            let (r, _) = do_req(&mut s, c, CoreReq::Load { addr: 0x100 });
            assert_eq!(r, CoreResp::LoadValue(42), "core {c}");
        }
    }

    #[test]
    fn amo_is_atomic_increment() {
        let mut s = sys(4);
        let mut old_sum = 0;
        for c in 0..4 {
            for _ in 0..5 {
                let (r, _) = do_req(
                    &mut s,
                    c,
                    CoreReq::Amo {
                        addr: 0x200,
                        op: AmoOp::Add,
                        operand: 1,
                    },
                );
                let CoreResp::AmoOld(v) = r else {
                    panic!("{r:?}")
                };
                old_sum += v;
            }
        }
        let (r, _) = do_req(&mut s, 0, CoreReq::Load { addr: 0x200 });
        assert_eq!(r, CoreResp::LoadValue(20));
        // Sum of old values of x++ from 0..20 = 0+1+…+19.
        assert_eq!(old_sum, (0..20).sum::<u64>());
    }

    #[test]
    fn amoswap_testandset_semantics() {
        let mut s = sys(2);
        let (r, _) = do_req(
            &mut s,
            0,
            CoreReq::Amo {
                addr: 0,
                op: AmoOp::Swap,
                operand: 1,
            },
        );
        assert_eq!(r, CoreResp::AmoOld(0), "lock acquired");
        let (r, _) = do_req(
            &mut s,
            1,
            CoreReq::Amo {
                addr: 0,
                op: AmoOp::Swap,
                operand: 1,
            },
        );
        assert_eq!(r, CoreResp::AmoOld(1), "lock already held");
        do_req(&mut s, 0, CoreReq::Store { addr: 0, value: 0 }); // release
        let (r, _) = do_req(
            &mut s,
            1,
            CoreReq::Amo {
                addr: 0,
                op: AmoOp::Swap,
                operand: 1,
            },
        );
        assert_eq!(r, CoreResp::AmoOld(0), "lock re-acquired after release");
    }

    #[test]
    fn spin_reads_hit_locally_until_invalidated() {
        let mut s = sys(4);
        do_req(&mut s, 1, CoreReq::Load { addr: 0x300 });
        let before = s.noc_stats().total_messages();
        // 100 spin reads: all L1 hits, zero traffic.
        for _ in 0..100 {
            let (_, lat) = do_req(&mut s, 1, CoreReq::Load { addr: 0x300 });
            assert_eq!(lat, 1);
        }
        assert_eq!(
            s.noc_stats().total_messages(),
            before,
            "spinning must be local"
        );
        // A remote store invalidates; the next spin read misses.
        do_req(
            &mut s,
            2,
            CoreReq::Store {
                addr: 0x300,
                value: 1,
            },
        );
        let (r, lat) = do_req(&mut s, 1, CoreReq::Load { addr: 0x300 });
        assert_eq!(r, CoreResp::LoadValue(1));
        assert!(lat > 1, "post-invalidation read must miss");
    }

    #[test]
    fn capacity_eviction_and_refill() {
        let mut s = sys(4);
        // L1: 32KB 4-way 64B lines → 128 sets. Writing 5 lines of the
        // same set evicts the LRU dirty line; it must come back intact.
        let set_stride = 128 * 64; // one L1 set apart
        for i in 0..5u64 {
            do_req(
                &mut s,
                0,
                CoreReq::Store {
                    addr: i * set_stride,
                    value: 100 + i,
                },
            );
        }
        for i in 0..5u64 {
            let (r, _) = do_req(
                &mut s,
                0,
                CoreReq::Load {
                    addr: i * set_stride,
                },
            );
            assert_eq!(r, CoreResp::LoadValue(100 + i), "line {i} lost in eviction");
        }
    }

    #[test]
    fn interleaving_spreads_homes() {
        let s = sys(4);
        // Lines 0..4 map to homes 0..3 (modulo interleaving).
        assert_eq!(s.home_of(LineAddr(0)), 0);
        assert_eq!(s.home_of(LineAddr(1)), 1);
        assert_eq!(s.home_of(LineAddr(5)), 1);
    }

    #[test]
    fn system_drains_to_idle() {
        let mut s = sys(4);
        do_req(&mut s, 0, CoreReq::Store { addr: 0, value: 1 });
        do_req(&mut s, 1, CoreReq::Load { addr: 0 });
        for _ in 0..100 {
            s.tick();
        }
        assert!(s.is_idle());
    }

    #[test]
    fn traced_system_reports_cache_and_directory_story() {
        use sim_base::trace::{Event, RingSink, Tracer};
        let tracer = Tracer::new(RingSink::new(4096));
        let cfg = CmpConfig::icpp2010_with_cores(4);
        let mut s = MemorySystem::traced(&cfg, tracer.clone());
        // Core 0 writes a line; core 1 then reads it (forward + downgrade).
        let c0 = CoreId(0);
        let c1 = CoreId(1);
        s.request(
            c0,
            CoreReq::Store {
                addr: 0x80,
                value: 7,
            },
        );
        let mut guard = 0;
        while s.poll(c0).is_none() {
            s.tick();
            guard += 1;
            assert!(guard < 100_000);
        }
        s.request(c1, CoreReq::Load { addr: 0x80 });
        while s.poll(c1).is_none() {
            s.tick();
            guard += 1;
            assert!(guard < 100_000);
        }
        let recs: Vec<(u64, Event)> = tracer.with_sink(|s| s.events().cloned().collect());
        let events: Vec<Event> = recs.iter().map(|(_, e)| e.clone()).collect();
        // The write: an L1 miss, a directory I→E claim, an L2 access, and
        // a fill installing the line in M.
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::L1Access { core, addr: 0x80, write: true, hit: false } if *core == c0)));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::DirTransition {
                line: 2,
                from: "I",
                to: "E",
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::L2Access {
                line: 2,
                hit: false,
                ..
            }
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::L1Transition { core, line: 2, from: "I", to: "M" } if *core == c0)));
        // The read: a forward downgrades the owner M→S and the directory
        // ends Shared.
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::L1Transition { core, line: 2, from: "M", to: "S" } if *core == c0)));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::DirTransition {
                line: 2,
                from: "E",
                to: "S",
                ..
            }
        )));
        // And the NoC carried protocol traffic for all of it.
        assert!(events.iter().any(|e| matches!(e, Event::NocSend { .. })));
        // Cycles are monotone within the ring.
        assert!(recs.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    /// What a tick can change that anything outside can see: traffic
    /// and directory counters, messages in flight or waiting, busy
    /// banks, and every core's L1 (hit/miss counts, work in flight, the
    /// pending response). Clocks and scheduler counters are left out.
    fn observable(s: &MemorySystem) -> String {
        let cores: Vec<_> = (0..s.l1s.len())
            .map(CoreId::from)
            .map(|c| (s.l1_stats(c), s.l1_busy(c), s.resp_ready_at(c)))
            .collect();
        format!(
            "{:?} {} {} {:?} {} {cores:?}",
            s.noc_stats(),
            s.noc.in_flight(),
            s.noc.has_deliveries(),
            s.home_stats(),
            s.busy_homes.len(),
        )
    }

    /// Random request streams into a system whose active-set scheduling
    /// is toggled mid-run, in lockstep with an always-dense oracle.
    /// Before every tick `home_due` must be the minimum of the banks'
    /// timers (the tick's debug assertion, checked in release too), and
    /// whenever the dense tick changes observable state, `next_event()`
    /// must have named that cycle or an earlier one (`<= now + 1`, the
    /// bound under which the scheduler ticks instead of jumping).
    #[test]
    fn home_due_is_exact_and_next_event_never_late_under_toggles() {
        use sim_base::check::forall_cases;
        let (mut matured, mut quiet) = (0u64, 0u64);
        forall_cases("home_due_exact_under_toggles", 12, |rng| {
            let cores = [2, 4, 8][rng.next_below(3) as usize];
            let cfg = CmpConfig::icpp2010_with_cores(cores);
            let (mut sut, mut oracle) = (MemorySystem::new(&cfg), MemorySystem::new(&cfg));
            oracle.set_active_set_enabled(false);
            // A few contended lines (queues, invalidations, forwards)
            // and a long tail of cold ones (400-cycle memory timers).
            let pool = 1 + rng.next_below(6);
            let load = [0.02, 0.2, 0.9][rng.next_below(3) as usize];
            let mut cycle = 0;
            while cycle < 2500 || sut.next_event().is_some() {
                for c in (0..cores).map(CoreId::from) {
                    assert_eq!(sut.poll(c), oracle.poll(c), "cycle {cycle}, {c:?}");
                    if cycle < 2500 && sut.ready(c) && sut.resp_ready_at(c).is_none() {
                        if !rng.chance(load) {
                            continue;
                        }
                        let line = if rng.chance(0.8) {
                            rng.next_below(pool)
                        } else {
                            64 + rng.next_below(4096)
                        };
                        let addr = line * 64 + 8 * rng.next_below(2);
                        let req = match rng.next_below(3) {
                            0 => CoreReq::Load { addr },
                            1 => CoreReq::Store { addr, value: cycle },
                            _ => CoreReq::Amo {
                                addr,
                                op: AmoOp::Add,
                                operand: 1,
                            },
                        };
                        sut.request(c, req);
                        oracle.request(c, req);
                    }
                }
                if rng.chance(1.0 / 48.0) {
                    sut.set_active_set_enabled(!sut.active_set_enabled());
                }
                assert_eq!(sut.home_due, sut.earliest_home_timer(), "cycle {cycle}");
                assert_eq!(
                    oracle.home_due,
                    oracle.earliest_home_timer(),
                    "cycle {cycle}"
                );
                let (next, now) = (sut.next_event(), sut.now());
                assert_eq!(next, oracle.next_event(), "cycle {cycle}");
                let before = observable(&oracle);
                matured += (sut.home_due <= now) as u64;
                sut.tick();
                oracle.tick();
                let after = observable(&oracle);
                assert_eq!(observable(&sut), after, "cycle {cycle}");
                if before != after {
                    assert!(
                        next.is_some_and(|t| t <= now + 1),
                        "state changed in cycle {now}, next_event {next:?}"
                    );
                } else {
                    quiet += 1;
                }
                cycle += 1;
                assert!(cycle < 200_000, "memory system failed to drain");
            }
            assert!(sut.is_idle() && oracle.is_idle());
            assert_eq!(sut.home_due, Cycle::MAX);
        });
        assert!(matured > 100, "only {matured} ticks matured a home timer");
        assert!(quiet > 100, "only {quiet} ticks changed nothing");
    }

    #[test]
    fn false_sharing_ping_pong() {
        let mut s = sys(2);
        // Two cores write different words of the same line; each write
        // must steal the line from the other (forward traffic) but both
        // values must survive.
        for i in 0..4 {
            do_req(
                &mut s,
                0,
                CoreReq::Store {
                    addr: 0x400,
                    value: i,
                },
            );
            do_req(
                &mut s,
                1,
                CoreReq::Store {
                    addr: 0x408,
                    value: 100 + i,
                },
            );
        }
        assert_eq!(s.peek_word(0x400), 3);
        assert_eq!(s.peek_word(0x408), 103);
        assert!(s.home_stats().forwards_sent > 0, "ping-pong must forward");
    }
}

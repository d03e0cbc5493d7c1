//! The mesh network: injection, routing, arbitration, delivery.

use crate::msg::{flits_for, Flit, Message, PacketInfo};
use crate::router::{Router, WormLock, NUM_SLOTS, NUM_VCS};
use crate::stats::NocStats;
use sim_base::active::ActiveSet;
use sim_base::config::NocConfig;
use sim_base::geom::{Coord, Dir};
use sim_base::trace::{Event, Tracer};
use sim_base::{CoreId, Cycle, Mesh2D};
use std::collections::VecDeque;

/// A flit in flight on a link (plus the upstream router pipeline):
/// 24 bytes.
#[derive(Clone, Copy, Debug)]
struct WireEntry {
    arrive: Cycle,
    /// Downstream router (a tile id, so 16 bits like [`CoreId`]) and the
    /// input slot the flit lands in.
    router: u16,
    slot: u8,
    flit: Flit,
}

/// A flit crossing the destination router toward the network interface.
#[derive(Clone, Copy, Debug)]
struct EjectEntry {
    arrive: Cycle,
    flit: Flit,
}

/// Default number of cycles a packet may live before the deadlock
/// watchdog trips.
const DEFAULT_WATCHDOG: u64 = 1_000_000;

/// Neighbour-table entry for a mesh port that leads off the mesh. No
/// flit is ever routed there; using it as a router index panics.
const NO_TILE: u32 = u32::MAX;

/// Active-set occupancy counters (diagnostics only — never part of a
/// report, so sparse and dense runs stay bit-identical).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NocSchedStats {
    /// Ticks performed.
    pub ticks: u64,
    /// Routers visited by phase-3 arbitration (routers with buffered
    /// flits; the dense scan finds the same ones after its guard).
    pub router_visits: u64,
    /// Flits that phase 1 passed straight through an idle router (the
    /// sparse tick only). Each is a phase-3 visit the dense tick makes
    /// and the sparse one does not, so dense `router_visits` equals
    /// sparse `router_visits + transits`.
    pub transits: u64,
    /// Tiles visited by phase-2 injection (tiles with queued flits).
    pub inject_visits: u64,
}

impl NocSchedStats {
    /// Mean number of routers arbitrated per tick.
    pub fn mean_active_routers(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.router_visits as f64 / self.ticks as f64
        }
    }
}

/// The cycle-level mesh NoC, generic over the payload type `T`. Tracing
/// is off until [`set_tracer`](Noc::set_tracer) switches it on.
///
/// Driving contract (same as the other hardware models in this project):
/// during a cycle, clients may [`send`](Noc::send) and
/// [`recv`](Noc::recv); the simulator then calls [`tick`](Noc::tick)
/// exactly once per cycle.
#[derive(Debug)]
pub struct Noc<T> {
    mesh: Mesh2D,
    cfg: NocConfig,
    routers: Vec<Router>,
    /// Unbounded per-tile, per-VC network-interface injection queues.
    inject_q: Vec<[VecDeque<Flit>; NUM_VCS]>,
    /// Flits in flight between routers, FIFO in arrival order (the per-hop
    /// delay is a constant, so push order == arrival order).
    wire: VecDeque<WireEntry>,
    /// Flits crossing the final router toward delivery.
    eject: VecDeque<EjectEntry>,
    /// Slab of messages sent and not yet received, indexed by
    /// [`Flit::slot`]: bookkeeping plus the message, parked from
    /// [`send`](Noc::send) until [`recv`](Noc::recv) moves it out.
    /// `None` entries are on `free_slots`, so the slab never outgrows
    /// the peak count of messages in flight or waiting.
    packets: Vec<Option<(PacketInfo, Message<T>)>>,
    free_slots: Vec<u32>,
    /// `neighbors[r][d]`: the tile across mesh port `d` of router `r`.
    neighbors: Vec<[u32; 4]>,
    /// `(row, col)` of every tile, so that routing a hop divides nothing.
    coords: Vec<Coord>,
    /// Same-tile messages bypassing the mesh, by slab slot, in send
    /// order: (deliver_at, slot).
    bypass: VecDeque<(Cycle, u32)>,
    /// Delivered messages per tile, by slab slot, oldest first.
    delivered: Vec<VecDeque<u32>>,
    next_pkt: u64,
    now: Cycle,
    /// Flits anywhere in the system (fast-path check).
    active_flits: usize,
    /// Routers with buffered flits — the phase-3 arbitration work list.
    active_routers: ActiveSet,
    /// Tiles with a non-empty NI injection queue — the phase-2 work list.
    inject_tiles: ActiveSet,
    /// Tiles with undelivered messages (exact: maintained by
    /// delivery-queue push/pop edges).
    delivery_tiles: ActiveSet,
    /// Messages delivered and not yet received, across all tiles.
    delivered_count: usize,
    /// Gate for the sparse tick paths (`--no-active-set` escape hatch).
    active_set_enabled: bool,
    sched: NocSchedStats,
    watchdog: u64,
    stats: NocStats,
    tracer: Tracer,
}

impl<T> Noc<T> {
    /// Builds the NoC for a mesh.
    pub fn new(mesh: Mesh2D, cfg: NocConfig) -> Noc<T> {
        assert!(cfg.link_bytes >= 1, "links are at least one byte wide");
        // An arrival is handled in a later tick than the one that sent
        // it; a zero-cycle router would make it stale.
        assert!(cfg.router_latency >= 1, "a router takes at least one cycle");
        let n = mesh.num_tiles();
        let neighbors = mesh
            .coords()
            .map(|c| {
                Dir::MESH.map(|d| {
                    mesh.neighbor(c, d)
                        .map_or(NO_TILE, |nb| mesh.id_of(nb).index() as u32)
                })
            })
            .collect();
        Noc {
            mesh,
            cfg,
            routers: (0..n).map(|_| Router::new(cfg.vc_buffer_flits)).collect(),
            inject_q: (0..n).map(|_| Default::default()).collect(),
            wire: VecDeque::new(),
            eject: VecDeque::new(),
            packets: Vec::new(),
            free_slots: Vec::new(),
            neighbors,
            coords: mesh.coords().collect(),
            bypass: VecDeque::new(),
            delivered: (0..n).map(|_| VecDeque::new()).collect(),
            next_pkt: 0,
            now: 0,
            active_flits: 0,
            active_routers: ActiveSet::new(n),
            inject_tiles: ActiveSet::new(n),
            delivery_tiles: ActiveSet::new(n),
            delivered_count: 0,
            active_set_enabled: true,
            sched: NocSchedStats::default(),
            watchdog: DEFAULT_WATCHDOG,
            stats: NocStats::default(),
            tracer: Tracer::default(),
        }
    }

    /// Emits sends, per-flit link hops and deliveries into `tracer` from
    /// now on; an off tracer stops tracing. Called between ticks.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// The mesh this network spans.
    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    /// Configuration in use.
    pub fn config(&self) -> NocConfig {
        self.cfg
    }

    /// Current cycle (ticks performed).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Sets the deadlock watchdog: panic when a packet has been in the
    /// network longer than `cycles`.
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.watchdog = cycles;
    }

    /// Enables or disables active-set micro-scheduling (on by default).
    /// When disabled, [`tick`](Self::tick) falls back to the dense
    /// every-router/every-tile scan; results are bit-identical either
    /// way (the work lists merely skip components the dense scan would
    /// also skip with its own guards, and a flit passed through an idle
    /// router leaves the state the dense scan's visit would).
    pub fn set_active_set_enabled(&mut self, on: bool) {
        self.active_set_enabled = on;
    }

    /// Whether active-set micro-scheduling is enabled.
    pub fn active_set_enabled(&self) -> bool {
        self.active_set_enabled
    }

    /// Active-set occupancy counters for this run so far.
    pub fn sched_stats(&self) -> NocSchedStats {
        self.sched
    }

    /// True when no message is anywhere in the network.
    pub fn is_idle(&self) -> bool {
        self.active_flits == 0 && self.bypass.is_empty()
    }

    /// Messages currently in flight (including bypass). A delivered
    /// message waiting for [`recv`](Self::recv) is not in flight.
    pub fn in_flight(&self) -> usize {
        self.packets.len() - self.free_slots.len() - self.delivered_count
    }

    /// Read-only view of `tile`'s router, for tests and inspection.
    pub fn router(&self, tile: CoreId) -> &Router {
        &self.routers[tile.index()]
    }

    /// Checks the network's bookkeeping against its contents, between
    /// ticks, and names the first invariant that does not hold and where:
    ///
    /// * for every mesh output (router, port, vc), its credits plus the
    ///   flits buffered in the downstream input slot it feeds plus the
    ///   flits on the wire toward that slot equal `vc_buffer_flits`;
    /// * the flit count equals the flits buffered, on wires, in ejection
    ///   and queued at network interfaces;
    /// * every packet-slab slot is live or on the free list, never both;
    /// * the delivery queues hold `delivered_count` slots, each live and
    ///   complete (every flit arrived), and the delivery work list is
    ///   exactly the tiles with a non-empty queue;
    /// * every other live slot is a bypass message or a packet with a
    ///   flit in the network;
    /// * every router's request masks and requested-outputs byte match
    ///   its buffer fronts;
    /// * the router work list holds every router that buffers a flit,
    ///   and the injection work list is exactly the tiles with queued
    ///   flits.
    ///
    /// It allocates nothing, so debug builds run it on the tick path.
    pub fn check_conservation(&self) -> Result<(), String> {
        let cap = self.cfg.vc_buffer_flits as usize;
        // Wire entries are counted only toward outputs short of credits:
        // if those account for the whole wire, no other output has any.
        let mut counted = 0;
        for (r, router) in self.routers.iter().enumerate() {
            for out in Dir::MESH {
                let nb = self.neighbors[r][out.index()];
                if nb == NO_TILE {
                    continue;
                }
                for vc in 0..NUM_VCS {
                    let slot = out.opposite().index() * NUM_VCS + vc;
                    let held = router.credits[out.index()][vc] as usize
                        + self.routers[nb as usize].slot_flits(slot);
                    let wired = if held < cap {
                        self.wire
                            .iter()
                            .filter(|w| w.router as u32 == nb && w.slot as usize == slot)
                            .count()
                    } else {
                        0
                    };
                    if held + wired != cap {
                        return Err(format!(
                            "credits: router {r} output {out:?} vc {vc} has {} credits, \
                             router {nb} buffers {} and {wired} are on the wire, not {cap}",
                            router.credits[out.index()][vc],
                            self.routers[nb as usize].slot_flits(slot),
                        ));
                    }
                    counted += wired;
                }
            }
        }
        if counted != self.wire.len() {
            return Err(format!(
                "credits: {} flits on wires, {counted} of them toward outputs short of credits",
                self.wire.len()
            ));
        }
        let buffered: usize = self.routers.iter().map(Router::buffered).sum();
        let queued: usize = self.inject_q.iter().flatten().map(VecDeque::len).sum();
        let (wired, ejecting) = (self.wire.len(), self.eject.len());
        if buffered + wired + ejecting + queued != self.active_flits {
            return Err(format!(
                "flits: {} counted, but {buffered} buffered + {wired} on wires + \
                 {ejecting} ejecting + {queued} queued",
                self.active_flits
            ));
        }
        let free = self.packets.iter().filter(|p| p.is_none()).count();
        if free != self.free_slots.len() {
            return Err(format!(
                "packet slab: {free} free slots, {} on the free list",
                self.free_slots.len()
            ));
        }
        for (i, &slot) in self.free_slots.iter().enumerate() {
            if self.packets[slot as usize].is_some() {
                return Err(format!("packet slab: slot {slot} is live and free"));
            }
            if self.free_slots[..i].contains(&slot) {
                return Err(format!(
                    "packet slab: slot {slot} is on the free list twice"
                ));
            }
        }
        let mut waiting = 0;
        for (tile, q) in self.delivered.iter().enumerate() {
            if q.is_empty() == self.delivery_tiles.contains(tile) {
                return Err(format!(
                    "tile {tile}: {} delivered messages but {} the delivery work list",
                    q.len(),
                    if q.is_empty() { "on" } else { "not on" },
                ));
            }
            for &slot in q {
                match &self.packets[slot as usize] {
                    Some((info, _)) if info.flits_arrived == info.flits_total => {}
                    _ => {
                        return Err(format!(
                            "tile {tile}: delivered slot {slot} is free or incomplete"
                        ))
                    }
                }
            }
            waiting += q.len();
        }
        if waiting != self.delivered_count {
            return Err(format!(
                "deliveries: {waiting} queued, {} counted",
                self.delivered_count
            ));
        }
        let live = self.packets.len() - self.free_slots.len();
        let in_mesh = self.packets.iter().flatten();
        let in_mesh = in_mesh.filter(|(info, _)| info.flits_arrived < info.flits_total);
        let moving = self.bypass.len() + in_mesh.count();
        if moving + waiting != live {
            return Err(format!(
                "packet slab: {live} live slots, but {} bypassing + {} in the mesh + \
                 {waiting} delivered",
                self.bypass.len(),
                moving - self.bypass.len()
            ));
        }
        for (r, router) in self.routers.iter().enumerate() {
            if !router.req_is_consistent() {
                return Err(format!(
                    "router {r}: request masks do not match the buffer fronts"
                ));
            }
            if router.buffered() > 0 && !self.active_routers.contains(r) {
                return Err(format!(
                    "router {r} buffers {} flits but is not on the router work list",
                    router.buffered()
                ));
            }
        }
        for (tile, q) in self.inject_q.iter().enumerate() {
            let queued = q.iter().any(|q| !q.is_empty());
            if queued != self.inject_tiles.contains(tile) {
                return Err(format!(
                    "tile {tile}: injection queue {} but {} the injection work list",
                    if queued { "non-empty" } else { "empty" },
                    if queued { "not on" } else { "on" },
                ));
            }
        }
        Ok(())
    }

    /// Injects a message. Same-tile messages bypass the mesh and arrive
    /// next cycle; all others are flit-ized and compete for links.
    pub fn send(&mut self, msg: Message<T>) {
        assert!(
            msg.src.index() < self.mesh.num_tiles(),
            "bad src {:?}",
            msg.src
        );
        assert!(
            msg.dst.index() < self.mesh.num_tiles(),
            "bad dst {:?}",
            msg.dst
        );
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.packets.push(None);
            // Room for every slot to be free at once, so that freeing
            // one never allocates.
            self.free_slots.reserve(self.packets.len());
            u32::try_from(self.packets.len() - 1).expect("packet slab outgrew u32 slots")
        });
        if msg.src == msg.dst {
            self.stats.local_bypass += 1;
            // Delivered by this cycle's tick, i.e. visible to the
            // receiver on the next cycle — one cycle of NI latency. No
            // flit, so the watchdog passes it by.
            self.bypass.push_back((self.now, slot));
            self.packets[slot as usize] = Some((
                PacketInfo {
                    pkt: u64::MAX,
                    injected_at: self.now,
                    flits_total: 0,
                    flits_arrived: 0,
                },
                msg,
            ));
            return;
        }
        self.stats.sent.add(msg.class, 1);
        let nflits = flits_for(
            msg.payload_bytes,
            self.cfg.header_bytes,
            self.cfg.link_bytes,
        );
        let pkt = self.next_pkt;
        self.next_pkt += 1;
        self.tracer.emit(self.now, || Event::NocSend {
            pkt,
            src: msg.src,
            dst: msg.dst,
            class: msg.class,
            flits: nflits,
        });
        let (src, vc) = (msg.src.index(), msg.class.index());
        let out = self.route(src, msg.dst);
        let local = Dir::Local.index() * NUM_VCS + vc;
        let (router, q) = (&mut self.routers[src], &mut self.inject_q[src][vc]);
        for i in 0..nflits {
            let flit = Flit::new(slot, msg.dst, out, i == 0, i == nflits - 1);
            // Direct injection: with nothing queued ahead of it and room
            // in the local input VC, phase 2 of this cycle's tick would
            // move the flit there before anything reads that VC (it
            // only drains in phase 3), so put it there now. The dense
            // tick takes no shortcut and queues every flit.
            if self.active_set_enabled && q.is_empty() && router.has_space(local) {
                router.push(local, flit);
                self.active_routers.insert(src);
            } else {
                q.push_back(flit);
                self.inject_tiles.insert(src);
            }
        }
        self.active_flits += nflits as usize;
        self.packets[slot as usize] = Some((
            PacketInfo {
                pkt,
                injected_at: self.now,
                flits_total: nflits,
                flits_arrived: 0,
            },
            msg,
        ));
    }

    /// Pops one delivered message for `tile`, if any, moving it out of
    /// the packet slab and freeing its slot.
    #[inline]
    pub fn recv(&mut self, tile: CoreId) -> Option<Message<T>> {
        let q = &mut self.delivered[tile.index()];
        let slot = q.pop_front()?;
        if q.is_empty() {
            self.delivery_tiles.remove(tile.index());
        }
        self.delivered_count -= 1;
        self.free_slots.push(slot);
        let (_, msg) = self.packets[slot as usize]
            .take()
            .expect("a delivered message waits in its slot");
        Some(msg)
    }

    /// True when any delivered message is waiting to be received.
    #[inline]
    pub fn has_deliveries(&self) -> bool {
        self.delivered_count > 0
    }

    /// True when `tile` has at least one delivered message waiting.
    /// Exact and one tick ahead of the receiver: messages become
    /// deliverable during the previous cycle's [`tick`](Self::tick), so
    /// at the top of a cycle this predicate names precisely the tiles
    /// whose controllers will be handed a message this cycle.
    pub fn has_delivery_for(&self, tile: CoreId) -> bool {
        !self.delivered[tile.index()].is_empty()
    }

    /// The tiles with undelivered messages — exactly those
    /// [`has_delivery_for`](Self::has_delivery_for) names. Walked word
    /// by word in ascending tile order, the order a dense
    /// `for tile in 0..n` recv scan finds them.
    #[inline]
    pub fn delivery_tiles(&self) -> &ActiveSet {
        &self.delivery_tiles
    }

    /// Queues the message in `slot` for `tile`'s receiver.
    #[inline]
    fn deliver(&mut self, tile: usize, slot: u32) {
        self.delivered[tile].push_back(slot);
        self.delivered_count += 1;
        self.delivery_tiles.insert(tile);
    }

    /// The earliest cycle at which the network can change observable
    /// state, or `None` when it is completely empty.
    ///
    /// Returns `Some(now)` when receivers already have work (delivered
    /// or matured-bypass messages), an in-transit arrival matures this
    /// very cycle, or flits are buffered in routers or injection queues
    /// (the tick of `now` arbitrates them), and the earliest in-transit
    /// arrival when every flit is on a wire or crossing the ejection
    /// pipeline — all ticks strictly before the reported cycle are
    /// provable no-ops.
    pub fn next_event(&self) -> Option<Cycle> {
        if self.has_deliveries() || !self.bypass.is_empty() {
            // Bypass entries are stamped with their send cycle, so a
            // non-empty bypass queue always matures by the next tick.
            return Some(self.now);
        }
        if self.active_flits == 0 {
            return None;
        }
        if self.wire.len() + self.eject.len() < self.active_flits {
            // Something is buffered in a router or injection queue, and
            // the tick of `now` arbitrates it.
            return Some(self.now);
        }
        // Earliest scheduled arrival. Both queues are FIFO in arrival
        // order (each adds a constant latency to its push cycle), so the
        // fronts are the minima.
        let w = self.wire.front().map(|e| e.arrive);
        let e = self.eject.front().map(|e| e.arrive);
        let front = match (w, e) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        debug_assert!(front.is_none_or(|f| f >= self.now), "stale arrival");
        front
    }

    /// Jumps the network clock to `t` without ticking the cycles in
    /// between. Only legal when [`next_event`](Self::next_event)
    /// reports no observable state change strictly before `t` — every
    /// skipped tick would have been a no-op.
    pub fn skip_to(&mut self, t: Cycle) {
        debug_assert!(t >= self.now);
        debug_assert!(
            self.next_event().is_none_or(|e| e >= t),
            "NoC skip over a live event"
        );
        self.now = t;
    }

    /// Output port ([`Dir::index`]) a flit bound for `dst` takes at
    /// router `r`. Evaluated once per hop, as the flit enters `r`.
    #[inline]
    fn route(&self, r: usize, dst: CoreId) -> u8 {
        self.mesh
            .xy_next(self.coords[r], self.coords[dst.index()])
            .index() as u8
    }

    /// Advances the network one cycle.
    #[inline]
    pub fn tick(&mut self) {
        self.sched.ticks += 1;
        if self.is_idle() {
            // Fast path: nothing anywhere, so nothing arrives either.
            self.now += 1;
        } else {
            self.tick_loaded();
        }
    }

    /// [`tick`](Self::tick) with a message somewhere in the network.
    /// Out of line, so that the idle tick stays a handful of
    /// instructions in its caller.
    #[inline(never)]
    fn tick_loaded(&mut self) {
        let now = self.now;

        // Phase 1: bypass + wire + ejection arrivals scheduled for `now`.
        while self.bypass.front().is_some_and(|(t, _)| *t <= now) {
            let (_, slot) = self.bypass.pop_front().expect("checked non-empty");
            let (_, msg) = self.packets[slot as usize]
                .as_ref()
                .expect("a bypass message waits in its slot");
            self.deliver(msg.dst.index(), slot);
        }
        // A traced NoC buffers every flit, so that its events keep the
        // dense tick's in-cycle order.
        let transit = !self.tracer.on() && self.active_set_enabled;
        if transit {
            // Rule 2 of `try_transit`: count every landing of this cycle
            // before granting any.
            for w in self.wire.iter().take_while(|w| w.arrive <= now) {
                self.routers[w.router as usize].note_landing(now);
            }
        }
        while self.wire.front().is_some_and(|w| w.arrive <= now) {
            let w = self.wire.pop_front().expect("checked non-empty");
            let (r, slot) = (w.router as usize, w.slot as usize);
            let mut flit = w.flit;
            flit.out = self.route(r, flit.dst);
            if !(transit && self.try_transit(r, slot, flit, now)) {
                self.routers[r].push(slot, flit);
                self.active_routers.insert(r);
            }
        }
        while self.eject.front().is_some_and(|e| e.arrive <= now) {
            let e = self.eject.pop_front().expect("checked non-empty");
            self.finish_flit(e.flit, now);
        }

        // Only same-tile messages, or the last flit just left.
        if self.active_flits == 0 {
            self.now += 1;
            return;
        }

        if self.active_set_enabled {
            self.tick_sparse(now);
        } else {
            self.tick_dense(now);
        }

        // Deadlock watchdog and, in debug builds, the conservation check
        // (amortized).
        if now.is_multiple_of(4096) {
            // Only packets with a flit in the network age: a bypass
            // message has none, and a delivered one waits for its
            // receiver, not for the network.
            let in_mesh = self.packets.iter().flatten();
            for (info, msg) in in_mesh.filter(|(i, _)| i.flits_arrived < i.flits_total) {
                assert!(
                    now - info.injected_at <= self.watchdog,
                    "NoC watchdog: packet {} ({:?} → {:?}, class {:?}) stuck for {} cycles",
                    info.pkt,
                    msg.src,
                    msg.dst,
                    msg.class,
                    now - info.injected_at
                );
            }
            debug_assert_eq!(self.check_conservation(), Ok(()), "cycle {now}");
        }

        self.now += 1;
    }

    /// Phases 2 and 3 over the active-set work lists: only tiles with
    /// queued flits and routers with buffered flits are visited. These
    /// are exactly the components the dense scan does work on (its
    /// guards skip the rest), and both work lists are walked in
    /// ascending index order, so the two paths are bit-identical.
    fn tick_sparse(&mut self, now: Cycle) {
        // Phase 2: NI injection into the local input VCs — what direct
        // injection in `send` left queued. Injecting inserts into no
        // tile's queue, so the word walk is an exact snapshot.
        if !self.inject_tiles.is_empty() {
            for w in 0..self.inject_tiles.num_words() {
                for tile in self.inject_tiles.word_members(w) {
                    self.sched.inject_visits += 1;
                    if self.inject_tile(tile) {
                        self.inject_tiles.remove(tile);
                    }
                }
            }
        }
        // Phase 3: per-router, per-output-port arbitration. Arbitration
        // moves flits onto wires and ejection pipelines — never directly
        // into another router's input buffer — so membership cannot grow
        // mid-walk and the walk is exact here too.
        for w in 0..self.active_routers.num_words() {
            for r in self.active_routers.word_members(w) {
                self.visit_router(r, now);
            }
        }
    }

    /// Phases 2 and 3 as a dense every-tile/every-router scan (the
    /// `--no-active-set` reference path). Work-list membership is still
    /// maintained so the sparse path can be re-enabled mid-run.
    fn tick_dense(&mut self, now: Cycle) {
        // Phase 2: NI injection into the local input VCs.
        for tile in 0..self.inject_q.len() {
            if self.inject_tiles.contains(tile) {
                self.sched.inject_visits += 1;
            }
            if self.inject_tile(tile) {
                self.inject_tiles.remove(tile);
            }
        }
        // Phase 3: per-router, per-output-port arbitration.
        for r in 0..self.routers.len() {
            debug_assert!(self.routers[r].req_is_consistent(), "stale request mask");
            self.visit_router(r, now);
        }
    }

    /// Phase 3 for router `r`: arbitrates it if it buffers a flit, and
    /// takes it off the work list once it buffers none.
    #[inline]
    fn visit_router(&mut self, r: usize, now: Cycle) {
        if self.routers[r].buffered() > 0 {
            self.sched.router_visits += 1;
            self.arbitrate_router(r, now);
        }
        if self.routers[r].buffered() == 0 {
            self.active_routers.remove(r);
        }
    }

    /// Phase-2 NI injection for one tile: moves queued flits into the
    /// local input VCs while they have space. Returns true when every
    /// injection queue of the tile is now empty.
    fn inject_tile(&mut self, tile: usize) -> bool {
        let mut empty = true;
        let router = &mut self.routers[tile];
        for (vc, q) in self.inject_q[tile].iter_mut().enumerate() {
            let local = Dir::Local.index() * NUM_VCS + vc;
            while router.has_space(local) {
                let Some(flit) = q.pop_front() else { break };
                router.push(local, flit);
            }
            empty &= q.is_empty();
        }
        if router.buffered() > 0 {
            self.active_routers.insert(tile);
        }
        empty
    }

    /// One arbitration visit of router `r`: every output some slot
    /// requests, in port order, found in the byte of requested outputs.
    /// The byte is read again after each output, not once per visit — a
    /// grant hands its slot's request bit to the flit behind, which may
    /// ask for a later output of this same visit.
    fn arbitrate_router(&mut self, r: usize, now: Cycle) {
        let mut from = 0;
        loop {
            let later = self.routers[r].requested_outputs() >> from;
            if later == 0 {
                return;
            }
            let out = from + later.trailing_zeros() as usize;
            self.arbitrate(r, out, now);
            from = out + 1;
        }
    }

    /// Picks and forwards at most one flit through output `out` of router
    /// `r` this cycle.
    #[inline]
    fn arbitrate(&mut self, r: usize, out: usize, now: Cycle) {
        let router = &mut self.routers[r];
        let Some(slot) = router.pick(out) else {
            return;
        };
        let flit = router.pop(slot);
        self.grant(r, slot, flit, now);
    }

    /// Phase 1's pass-through: grants the flit landing in input `slot` of
    /// router `r` at once, leaving exactly the state this cycle's phase 3
    /// would, and returns true; or returns false and changes nothing.
    /// Phase 3 would grant it, and nothing else of this cycle would see
    /// the difference, when
    ///
    /// 1. the router buffers no flit, so nothing competes for its output
    ///    or takes a later output of the same visit;
    /// 2. no other flit lands here this cycle (counted beforehand by
    ///    `note_landing`: round-robin order decides between two);
    /// 3. the tile's NI queue is empty, so phase 2 adds no rival;
    /// 4. the flit wins its output now (lock free or its packet's, and
    ///    a credit on a mesh port). Credits only rise before the
    ///    router's own visit, so one seen now is there in phase 3;
    /// 5. returning its credit now is invisible upstream: phase 3 visits
    ///    the upstream router after this one anyway, or that router
    ///    already holds a credit on the VC, so one more changes no grant.
    #[inline]
    fn try_transit(&mut self, r: usize, slot: usize, flit: Flit, now: Cycle) -> bool {
        let router = &self.routers[r];
        if router.buffered() > 0 || !router.lands_alone(now) || self.inject_tiles.contains(r) {
            return false;
        }
        if !router.admits(slot, flit.out as usize, &flit) {
            return false;
        }
        let (in_port, vc) = (slot / NUM_VCS, slot % NUM_VCS);
        let up = self.neighbors[r][in_port] as usize;
        let back = Dir::ALL[in_port].opposite().index();
        if up < r && self.routers[up].credits[back][vc] == 0 {
            return false;
        }
        self.sched.transits += 1;
        self.grant(r, slot, flit, now);
        true
    }

    /// Sends `flit`, just taken from input `slot` of router `r`, through
    /// its output port: round-robin pointer, wormhole lock, then the
    /// ejection pipeline or a downstream credit and the link, then the
    /// credit return to the upstream router it came from.
    #[inline]
    fn grant(&mut self, r: usize, slot: usize, flit: Flit, now: Cycle) {
        let (out_i, out) = (flit.out as usize, Dir::ALL[flit.out as usize]);
        let (in_port, vc) = (Dir::ALL[slot / NUM_VCS], slot % NUM_VCS);
        let router = &mut self.routers[r];
        router.rr[out_i] = ((slot + 1) % NUM_SLOTS) as u8;
        // Wormhole lock maintenance.
        router.out_lock[out_i][vc] = (!flit.is_tail()).then_some(WormLock {
            slot: flit.slot,
            in_port,
        });
        if out == Dir::Local {
            self.eject.push_back(EjectEntry {
                arrive: now + self.cfg.router_latency as u64,
                flit,
            });
        } else {
            router.credits[out_i][vc] -= 1;
            self.stats.flit_hops += 1;
            self.tracer.emit(now, || Event::NocFlitHop {
                pkt: self.pkt_of(flit),
                at: CoreId::from(r),
                port: out,
            });
            self.wire.push_back(WireEntry {
                arrive: now + self.cfg.router_latency as u64 + self.cfg.link_latency as u64,
                // A tile id: it came from a `CoreId`, so it fits.
                router: self.neighbors[r][out_i] as u16,
                slot: (out.opposite().index() * NUM_VCS + vc) as u8,
                flit,
            });
        }
        // Credit return to the upstream router this flit came from.
        if in_port != Dir::Local {
            let up_r = self.neighbors[r][in_port.index()] as usize;
            self.routers[up_r].credits[in_port.opposite().index()][vc] += 1;
        }
    }

    /// Id of the packet `flit` belongs to (for trace events: the slab
    /// slot a flit carries names its packet while it is in flight).
    fn pkt_of(&self, flit: Flit) -> u64 {
        let (info, _) = self.packets[flit.slot as usize]
            .as_ref()
            .expect("flit of a packet that left the slab");
        info.pkt
    }

    /// Accounts an ejected flit; on the tail, delivers the packet's
    /// message, which stays in its slot until received.
    fn finish_flit(&mut self, flit: Flit, now: Cycle) {
        self.active_flits -= 1;
        let (info, msg) = self.packets[flit.slot as usize]
            .as_mut()
            .expect("packet state exists");
        info.flits_arrived += 1;
        if flit.is_tail() {
            debug_assert_eq!(
                info.flits_arrived, info.flits_total,
                "tail arrived before body"
            );
            let latency = now - info.injected_at;
            self.stats.delivered.add(msg.class, 1);
            self.stats.latency[msg.class.index()].record(latency);
            self.tracer.emit(now, || Event::NocDeliver {
                pkt: info.pkt,
                dst: msg.dst,
                class: msg.class,
                latency,
            });
            let dst = msg.dst.index();
            self.deliver(dst, flit.slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_base::stats::MsgClass::{self, Coherence, Reply, Request};

    fn noc(rows: u16, cols: u16) -> Noc<u32> {
        Noc::new(Mesh2D::new(rows, cols), NocConfig::default())
    }

    fn msg(src: usize, dst: usize, class: MsgClass, bytes: u32, tag: u32) -> Message<u32> {
        Message {
            src: CoreId::from(src),
            dst: CoreId::from(dst),
            class,
            payload_bytes: bytes,
            payload: tag,
        }
    }

    fn run_until_idle(n: &mut Noc<u32>, max: u64) {
        let mut c = 0;
        while !n.is_idle() {
            n.tick();
            c += 1;
            assert!(c < max, "network did not drain in {max} cycles");
        }
    }

    #[test]
    fn per_hop_records_are_small() {
        assert_eq!(std::mem::size_of::<Flit>(), 8);
        assert_eq!(std::mem::size_of::<WireEntry>(), 24);
    }

    #[test]
    fn single_hop_latency_formula() {
        let mut n = noc(1, 2);
        n.send(msg(0, 1, Request, 0, 7));
        run_until_idle(&mut n, 100);
        let got = n.recv(CoreId(1)).expect("delivered");
        assert_eq!(got.payload, 7);
        // hops × (router 3 + link 1) + ejection router 3 = 7.
        assert_eq!(n.stats().latency_of(Request).max(), Some(7));
    }

    #[test]
    fn multi_hop_latency_scales_with_distance() {
        let mut n = noc(4, 8);
        n.send(msg(0, 31, Reply, 64, 1)); // corner to corner: 10 hops
        run_until_idle(&mut n, 200);
        assert!(n.recv(CoreId(31)).is_some());
        assert_eq!(n.stats().latency_of(Reply).max(), Some(10 * 4 + 3));
        assert_eq!(n.stats().flit_hops, 10);
    }

    #[test]
    fn local_message_bypasses_network() {
        let mut n = noc(2, 2);
        n.send(msg(2, 2, Request, 0, 9));
        n.tick();
        assert_eq!(n.recv(CoreId(2)).map(|m| m.payload), Some(9));
        assert_eq!(
            n.stats().total_messages(),
            0,
            "bypass is not network traffic"
        );
        assert_eq!(n.stats().local_bypass, 1);
    }

    #[test]
    fn classes_are_counted_separately() {
        let mut n = noc(2, 2);
        n.send(msg(0, 1, Request, 0, 0));
        n.send(msg(0, 1, Reply, 64, 1));
        n.send(msg(1, 0, Coherence, 0, 2));
        run_until_idle(&mut n, 200);
        assert_eq!(n.stats().sent[Request], 1);
        assert_eq!(n.stats().sent[Reply], 1);
        assert_eq!(n.stats().sent[Coherence], 1);
        assert_eq!(n.stats().delivered.total(), 3);
    }

    #[test]
    fn per_pair_per_class_ordering() {
        let mut n = noc(4, 4);
        for i in 0..20 {
            n.send(msg(0, 15, Request, 0, i));
        }
        run_until_idle(&mut n, 2000);
        let mut got = Vec::new();
        while let Some(m) = n.recv(CoreId(15)) {
            got.push(m.payload);
        }
        assert_eq!(
            got,
            (0..20).collect::<Vec<_>>(),
            "same src/dst/class must stay FIFO"
        );
    }

    #[test]
    fn multiflit_packets_do_not_interleave_within_a_vc() {
        // Narrow links force multi-flit packets; two senders share the
        // east-bound path through the middle column.
        let cfg = NocConfig {
            link_bytes: 16,
            ..NocConfig::default()
        }; // 5 flits/packet
        let mut n: Noc<u32> = Noc::new(Mesh2D::new(1, 3), cfg);
        n.send(Message {
            src: CoreId(0),
            dst: CoreId(2),
            class: Request,
            payload_bytes: 64,
            payload: 0,
        });
        n.send(Message {
            src: CoreId(1),
            dst: CoreId(2),
            class: Request,
            payload_bytes: 64,
            payload: 1,
        });
        run_until_idle(&mut n, 2000);
        assert_eq!(n.stats().delivered[Request], 2);
        // 5 flits over 2 hops + 5 flits over 1 hop.
        assert_eq!(n.stats().flit_hops, 15);
    }

    #[test]
    fn link_serializes_one_flit_per_cycle() {
        // 8 single-flit messages must cross the same final link; the last
        // one is delayed ≥ 7 cycles behind the first.
        let mut n = noc(1, 2);
        for i in 0..8 {
            n.send(msg(0, 1, Request, 0, i));
        }
        run_until_idle(&mut n, 200);
        let lat = n.stats().latency_of(Request);
        assert_eq!(lat.count(), 8);
        assert_eq!(lat.min(), Some(7));
        assert!(
            lat.max().unwrap() >= 7 + 7,
            "serialization must delay the tail"
        );
    }

    #[test]
    fn tiny_buffers_still_deliver_everything() {
        let cfg = NocConfig {
            vc_buffer_flits: 1,
            ..NocConfig::default()
        };
        let mut n: Noc<u32> = Noc::new(Mesh2D::new(4, 4), cfg);
        let mut expect = [0u32; 16];
        let mut tag = 0;
        for s in 0..16 {
            #[allow(clippy::needless_range_loop)] // d is also the message dst
            for d in 0..16 {
                if s != d {
                    n.send(msg(s, d, Coherence, 0, tag));
                    expect[d] += 1;
                    tag += 1;
                }
            }
        }
        run_until_idle(&mut n, 50_000);
        for (d, &want) in expect.iter().enumerate() {
            let mut got = 0;
            while n.recv(CoreId::from(d)).is_some() {
                got += 1;
            }
            assert_eq!(got, want, "tile {d}");
        }
    }

    #[test]
    fn all_to_all_across_classes_drains() {
        let mut n = noc(4, 8);
        let classes = [Request, Reply, Coherence];
        for s in 0..32 {
            for d in 0..32 {
                if s != d {
                    n.send(msg(
                        s,
                        d,
                        classes[(s + d) % 3],
                        ((s * d) % 2 * 64) as u32,
                        0,
                    ));
                }
            }
        }
        run_until_idle(&mut n, 100_000);
        assert_eq!(n.stats().delivered.total(), 32 * 31);
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn packet_slab_recycles_slots() {
        // 100 k messages in bursts with the network draining in between:
        // the slab must stop growing at the peak count of messages sent
        // and not yet received, and end with every slot back on the free
        // list once the last of them is received.
        let mut n = noc(4, 8);
        let mut rng = sim_base::rng::SplitMix64::new(12);
        let classes = [Request, Reply, Coherence];
        let (mut sent, mut peak) = (0u32, 0);
        while sent < 100_000 {
            for _ in 0..rng.next_below(64) {
                let src = rng.next_below(32) as usize;
                let dst = (src + 1 + rng.next_below(31) as usize) % 32;
                let class = classes[rng.next_below(3) as usize];
                n.send(msg(src, dst, class, 64, sent));
                sent += 1;
            }
            peak = peak.max(n.in_flight());
            for _ in 0..rng.next_below(40) {
                n.tick();
            }
            for tile in 0..32 {
                while n.recv(CoreId::from(tile)).is_some() {}
            }
        }
        run_until_idle(&mut n, 100_000);
        assert_eq!(n.stats().delivered.total(), sent as u64);
        assert_eq!(n.in_flight(), 0);
        assert!(n.packets.iter().any(Option::is_some), "nothing waits");
        for tile in 0..32 {
            while n.recv(CoreId::from(tile)).is_some() {}
        }
        assert!(n.packets.iter().all(Option::is_none));
        assert_eq!(n.free_slots.len(), n.packets.len());
        assert!(
            n.packets.len() <= peak,
            "slab of {} slots for a peak of {peak} packets in flight",
            n.packets.len()
        );
    }

    #[test]
    #[should_panic(expected = "(core0 → core1, class Request) stuck for 4096 cycles")]
    fn watchdog_trips_on_stuck_traffic() {
        // A watchdog of 0 means any packet alive at the next check trips
        // it; flood enough traffic to still be draining then.
        let mut n = noc(1, 2);
        n.set_watchdog(0);
        for _ in 0..10_000 {
            n.send(msg(0, 1, Request, 64, 0));
        }
        for _ in 0..5000 {
            n.tick();
        }
    }

    #[test]
    fn is_idle_reflects_state() {
        let mut n = noc(2, 2);
        assert!(n.is_idle());
        n.send(msg(0, 3, Request, 0, 0));
        assert!(!n.is_idle());
        run_until_idle(&mut n, 100);
        assert!(n.is_idle());
        assert!(n.now() > 0);
    }

    #[test]
    fn fast_path_advances_time() {
        let mut n = noc(2, 2);
        for _ in 0..100 {
            n.tick();
        }
        assert_eq!(n.now(), 100);
    }

    #[test]
    fn traced_noc_reports_send_hops_and_delivery() {
        use sim_base::trace::{Event, RingSink, Tracer};
        let tracer = Tracer::new(RingSink::new(128));
        let mut n: Noc<u32> = Noc::new(Mesh2D::new(1, 3), NocConfig::default());
        n.set_tracer(&tracer);
        n.send(msg(0, 2, Request, 0, 5));
        run_until_idle(&mut n, 100);
        let events: Vec<Event> =
            tracer.with_sink(|s: &mut RingSink| s.events().map(|(_, e)| e.clone()).collect());
        let sends: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::NocSend { .. }))
            .collect();
        assert_eq!(sends.len(), 1);
        assert!(matches!(
            sends[0],
            Event::NocSend {
                pkt: 0,
                flits: 1,
                class: Request,
                ..
            }
        ));
        // Two link hops (0→1, 1→2), then the delivery with the measured latency.
        let hops = events
            .iter()
            .filter(|e| matches!(e, Event::NocFlitHop { .. }))
            .count();
        assert_eq!(hops as u64, n.stats().flit_hops);
        assert!(events.iter().any(|e| matches!(
            e,
            Event::NocDeliver {
                pkt: 0,
                latency: 11,
                ..
            }
        )));
        // Wormhole locks all cleared once drained.
        assert!(n.routers.iter().all(|r| r.locked_outputs() == 0));
    }
}

//! The private L1 data-cache controller.
//!
//! One outstanding core miss (the cores are in-order and blocking), any
//! number of in-flight writebacks. Spin loops on cached shared variables
//! hit here and generate **no** network traffic until an invalidation
//! arrives — exactly the behaviour the paper's software-barrier analysis
//! (busy-wait stage S2) relies on.

use crate::cache::SetAssoc;
use crate::proto::{CoreReq, CoreResp, Grant, LineData, ProtoMsg};
use sim_base::config::CacheConfig;
use sim_base::fxmap::FxHashMap;
use sim_base::ids::LineAddr;
use sim_base::trace::{Event, Tracer};
use sim_base::{CoreId, Cycle};

/// MESI states of a resident L1 line (Invalid = not resident).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L1State {
    /// Modified: exclusive and dirty.
    M,
    /// Exclusive clean: silently upgradable to M.
    E,
    /// Shared read-only.
    S,
}

impl L1State {
    /// Trace label ("I" is the label of a non-resident line).
    pub fn label(self) -> &'static str {
        match self {
            L1State::M => "M",
            L1State::E => "E",
            L1State::S => "S",
        }
    }
}

/// An outbound protocol message (the system layer stamps the source).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutMsg {
    /// Destination tile.
    pub dst: CoreId,
    /// The message.
    pub msg: ProtoMsg,
}

/// Kind of the outstanding miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MissKind {
    /// Needs data with read permission (`GetS`).
    Read,
    /// Needs data with write permission (`GetX`).
    Write,
    /// Has the data in S; needs write permission (`Upgrade`).
    Upgrade,
}

/// The single miss-status holding register.
#[derive(Clone, Debug)]
struct Mshr {
    req: CoreReq,
    line: LineAddr,
    kind: MissKind,
    issued: bool,
}

/// L1 statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct L1Stats {
    /// Requests served without leaving the tile.
    pub hits: u64,
    /// Requests that needed the protocol.
    pub misses: u64,
    /// Dirty/exclusive lines written back.
    pub writebacks: u64,
    /// Invalidations received.
    pub invalidations: u64,
    /// Forwards serviced (FwdGetS/FwdGetX).
    pub forwards: u64,
}

/// The L1 controller of one tile.
#[derive(Clone, Debug)]
pub struct L1Ctrl {
    tile: CoreId,
    num_tiles: usize,
    line_bytes: u64,
    hit_latency: u32,
    cache: SetAssoc<L1State>,
    mshr: Option<Mshr>,
    /// Evicted M/E lines awaiting `WbAck`.
    wb_buf: FxHashMap<LineAddr, LineData>,
    /// A coherence message (Inv/FwdGetS/FwdGetX) for the line our miss is
    /// outstanding on, arrived before its Data (the Reply and Coherence
    /// virtual networks are unordered relative to each other). Serviced
    /// right after the fill installs — the hardware transient state
    /// IM_AD/IS_AD with a pending forward.
    deferred: Option<ProtoMsg>,
    /// Completed response with its ready cycle.
    resp: Option<(Cycle, CoreResp)>,
    stats: L1Stats,
    /// Set by [`MemorySystem::set_tracer`](crate::MemorySystem::set_tracer).
    pub(crate) tracer: Tracer,
}

impl L1Ctrl {
    /// Builds the controller for `tile` in a `num_tiles` CMP.
    pub fn new(tile: CoreId, num_tiles: usize, cfg: &CacheConfig) -> L1Ctrl {
        L1Ctrl {
            tile,
            num_tiles,
            line_bytes: cfg.line_bytes,
            hit_latency: cfg.total_latency(),
            cache: SetAssoc::new(cfg),
            mshr: None,
            wb_buf: FxHashMap::default(),
            deferred: None,
            resp: None,
            stats: L1Stats::default(),
            tracer: Tracer::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> L1Stats {
        self.stats
    }

    /// True when the controller can accept a new core request.
    #[inline]
    pub fn ready(&self) -> bool {
        self.mshr.is_none() && self.resp.is_none()
    }

    /// Home tile of a line (address-interleaved).
    fn home(&self, line: LineAddr) -> CoreId {
        CoreId::from((line.0 % self.num_tiles as u64) as usize)
    }

    fn word_index(&self, addr: u64) -> usize {
        ((addr % self.line_bytes) / 8) as usize
    }

    /// Debug/verification view: the line's data if resident (cache or
    /// writeback buffer) with its state.
    pub fn peek_line(&self, line: LineAddr) -> Option<(L1State, &LineData)> {
        if let Some(e) = self.cache.probe(line) {
            return Some((e.state, &e.data));
        }
        self.wb_buf.get(&line).map(|d| (L1State::M, d))
    }

    /// Debug view of the cache array only (no writeback buffer).
    pub fn peek_cache_line(&self, line: LineAddr) -> Option<(L1State, &LineData)> {
        self.cache.probe(line).map(|e| (e.state, &e.data))
    }

    /// Debug view of the writeback buffer only.
    pub fn peek_wb_line(&self, line: LineAddr) -> Option<&LineData> {
        self.wb_buf.get(&line)
    }

    /// The lines of the cache array (no writeback buffer) with their
    /// states.
    pub fn cache_lines(&self) -> impl Iterator<Item = (LineAddr, L1State)> + '_ {
        self.cache.iter().map(|e| (e.line, e.state))
    }

    /// The line of the outstanding miss, if any.
    pub fn miss_line(&self) -> Option<LineAddr> {
        self.mshr.as_ref().map(|m| m.line)
    }

    /// Accepts a core request. Hits complete after the L1 latency;
    /// misses allocate the MSHR and engage the protocol.
    ///
    /// # Panics
    /// Panics if the controller is not [`ready`](Self::ready) or the
    /// address is unaligned.
    pub fn request(&mut self, req: CoreReq, now: Cycle, out: &mut Vec<OutMsg>) {
        assert!(self.ready(), "L1 of {:?} already busy", self.tile);
        let addr = req.addr();
        assert_eq!(addr % 8, 0, "unaligned data access at 0x{addr:x}");
        let line = LineAddr(addr / self.line_bytes);
        let w = self.word_index(addr);
        let tile = self.tile;
        let is_write = !matches!(req, CoreReq::Load { .. });
        let prev_state = if self.tracer.on() {
            self.cache.probe(line).map(|e| e.state)
        } else {
            None
        };

        let hit = if let Some(e) = self.cache.lookup(line) {
            match (&req, e.state) {
                (CoreReq::Load { .. }, _) => Some(CoreResp::LoadValue(e.data[w])),
                (CoreReq::Store { value, .. }, L1State::M | L1State::E) => {
                    e.state = L1State::M;
                    e.data[w] = *value;
                    Some(CoreResp::StoreDone)
                }
                (CoreReq::Amo { op, operand, .. }, L1State::M | L1State::E) => {
                    e.state = L1State::M;
                    let old = e.data[w];
                    e.data[w] = op.apply(old, *operand);
                    Some(CoreResp::AmoOld(old))
                }
                // Write permission missing: upgrade miss.
                (CoreReq::Store { .. } | CoreReq::Amo { .. }, L1State::S) => None,
            }
        } else {
            None
        };

        self.tracer.emit(now, || Event::L1Access {
            core: tile,
            addr,
            write: is_write,
            hit: hit.is_some(),
        });
        if let Some(r) = hit {
            // A write hit on an E line silently took it to M.
            if is_write && prev_state == Some(L1State::E) {
                self.tracer.emit(now, || Event::L1Transition {
                    core: tile,
                    line: line.0,
                    from: "E",
                    to: "M",
                });
            }
            self.stats.hits += 1;
            self.resp = Some((now + self.hit_latency as u64, r));
            return;
        }
        self.stats.misses += 1;
        let kind = match req {
            CoreReq::Load { .. } => MissKind::Read,
            _ if self.cache.probe(line).is_some() => MissKind::Upgrade,
            _ => MissKind::Write,
        };
        self.mshr = Some(Mshr {
            req,
            line,
            kind,
            issued: false,
        });
        self.try_issue(now, out);
    }

    /// Issues the outstanding miss if it is not blocked behind a
    /// writeback of the same line.
    fn try_issue(&mut self, now: Cycle, out: &mut Vec<OutMsg>) {
        let Some(m) = &self.mshr else { return };
        if m.issued || self.wb_buf.contains_key(&m.line) {
            return;
        }
        let (line, kind) = (m.line, m.kind);
        // Make room for the fill (upgrades keep their resident line).
        if kind != MissKind::Upgrade && self.cache.set_full(line) {
            let victim = self
                .cache
                .pick_victim(line, |_| true)
                .expect("every L1 line is evictable");
            let e = self.cache.remove(victim).expect("victim resident");
            let tile = self.tile;
            self.tracer.emit(now, || Event::L1Transition {
                core: tile,
                line: victim.0,
                from: e.state.label(),
                to: "I",
            });
            if matches!(e.state, L1State::M | L1State::E) {
                self.stats.writebacks += 1;
                self.wb_buf.insert(victim, e.data);
                out.push(OutMsg {
                    dst: self.home(victim),
                    msg: ProtoMsg::PutM(victim, e.data),
                });
            }
            // S victims are dropped silently: the directory keeps the
            // stale sharer bit, which a later `Inv` finds gone.
        }
        let msg = match kind {
            MissKind::Read => ProtoMsg::GetS(line),
            MissKind::Write => ProtoMsg::GetX(line),
            MissKind::Upgrade => ProtoMsg::Upgrade(line),
        };
        out.push(OutMsg {
            dst: self.home(line),
            msg,
        });
        self.mshr.as_mut().expect("mshr checked above").issued = true;
    }

    /// Completes the outstanding miss with `data` in hand.
    fn finish_miss(&mut self, data: &mut LineData, state: L1State, now: Cycle) {
        let m = self.mshr.take().expect("miss outstanding");
        let w = self.word_index(m.req.addr());
        let resp = match m.req {
            CoreReq::Load { .. } => CoreResp::LoadValue(data[w]),
            CoreReq::Store { value, .. } => {
                debug_assert_eq!(state, L1State::M);
                data[w] = value;
                CoreResp::StoreDone
            }
            CoreReq::Amo { op, operand, .. } => {
                debug_assert_eq!(state, L1State::M);
                let old = data[w];
                data[w] = op.apply(old, operand);
                CoreResp::AmoOld(old)
            }
        };
        // One cycle to write the fill into the array / forward to the core.
        self.resp = Some((now + 1, resp));
    }

    /// True when `msg` races ahead of the Data/Ack of our own outstanding
    /// miss on the same line and must wait for the fill.
    fn must_defer(&self, msg: &ProtoMsg) -> bool {
        let line = msg.line();
        let ours = self
            .mshr
            .as_ref()
            .is_some_and(|m| m.issued && m.line == line);
        if !ours {
            return false;
        }
        match msg {
            // A forward targets the *owner*: if the home believes we own
            // the line but we are still waiting for its Data (or for an
            // UpgradeAck racing ahead of the forward, leaving us in S),
            // defer until the grant lands.
            ProtoMsg::FwdGetS { .. } | ProtoMsg::FwdGetX { .. } => match self.cache.probe(line) {
                Some(e) => e.state == L1State::S,
                None => !self.wb_buf.contains_key(&line),
            },
            // An invalidation for the line our *read* miss is fetching:
            // the home granted us S and a later writer invalidated it;
            // the Inv must apply after the fill, not bounce as stale.
            ProtoMsg::Inv(_) => self.cache.probe(line).is_none(),
            _ => false,
        }
    }

    /// Handles a protocol message addressed to this L1.
    pub fn handle(&mut self, msg: ProtoMsg, now: Cycle, out: &mut Vec<OutMsg>) {
        if self.must_defer(&msg) {
            assert!(
                self.deferred.is_none(),
                "home sent two racing coherence messages for one line"
            );
            self.deferred = Some(msg);
            return;
        }
        match msg {
            ProtoMsg::Data {
                line,
                mut data,
                grant,
            } => {
                let m = self
                    .mshr
                    .as_ref()
                    .expect("Data without an outstanding miss");
                assert_eq!(m.line, line, "Data for the wrong line");
                // An upgrade answered with data lost its S copy to the
                // racing writer's `Inv` first: the directory is exact.
                debug_assert!(
                    self.cache.probe(line).is_none(),
                    "data reply over a resident copy"
                );
                let state = match grant {
                    Grant::S => L1State::S,
                    Grant::E => {
                        // A write miss granted E takes it straight to M.
                        if m.kind == MissKind::Read {
                            L1State::E
                        } else {
                            L1State::M
                        }
                    }
                    Grant::M => L1State::M,
                };
                let tile = self.tile;
                self.tracer.emit(now, || Event::L1Transition {
                    core: tile,
                    line: line.0,
                    from: "I",
                    to: state.label(),
                });
                self.finish_miss(&mut data, state, now);
                self.cache.insert(line, state, data);
                self.service_deferred(now, out);
            }
            ProtoMsg::UpgradeAck(line) => {
                let m = self
                    .mshr
                    .as_ref()
                    .expect("UpgradeAck without an outstanding miss");
                assert_eq!(m.line, line);
                assert_eq!(m.kind, MissKind::Upgrade);
                let e = self.cache.remove(line).expect("upgrade keeps its S copy");
                debug_assert_eq!(e.state, L1State::S);
                let tile = self.tile;
                self.tracer.emit(now, || Event::L1Transition {
                    core: tile,
                    line: line.0,
                    from: "S",
                    to: "M",
                });
                let mut data = e.data;
                self.finish_miss(&mut data, L1State::M, now);
                self.cache.insert(line, L1State::M, data);
                self.service_deferred(now, out);
            }
            ProtoMsg::Inv(line) => {
                self.stats.invalidations += 1;
                if let Some(e) = self.cache.remove(line) {
                    debug_assert_eq!(e.state, L1State::S, "Inv of a non-shared line");
                    let tile = self.tile;
                    self.tracer.emit(now, || Event::L1Transition {
                        core: tile,
                        line: line.0,
                        from: "S",
                        to: "I",
                    });
                }
                debug_assert!(
                    !self.wb_buf.contains_key(&line),
                    "Inv races only with S copies"
                );
                out.push(OutMsg {
                    dst: self.home(line),
                    msg: ProtoMsg::InvAck(line),
                });
            }
            ProtoMsg::FwdGetS { line, requester } => {
                self.stats.forwards += 1;
                if let Some(e) = self.cache.lookup(line) {
                    debug_assert!(matches!(e.state, L1State::M | L1State::E));
                    let from = e.state.label();
                    e.state = L1State::S;
                    let data = e.data;
                    let tile = self.tile;
                    self.tracer.emit(now, || Event::L1Transition {
                        core: tile,
                        line: line.0,
                        from,
                        to: "S",
                    });
                    out.push(OutMsg {
                        dst: requester,
                        msg: ProtoMsg::Data {
                            line,
                            data,
                            grant: Grant::S,
                        },
                    });
                    out.push(OutMsg {
                        dst: self.home(line),
                        msg: ProtoMsg::FwdDone {
                            line,
                            data: Some(data),
                            retained: true,
                        },
                    });
                } else {
                    // The line is on its way out; service from the buffer.
                    let data = *self.wb_buf.get(&line).expect("owner must hold the line");
                    out.push(OutMsg {
                        dst: requester,
                        msg: ProtoMsg::Data {
                            line,
                            data,
                            grant: Grant::S,
                        },
                    });
                    out.push(OutMsg {
                        dst: self.home(line),
                        msg: ProtoMsg::FwdDone {
                            line,
                            data: Some(data),
                            retained: false,
                        },
                    });
                }
            }
            ProtoMsg::FwdGetX { line, requester } => {
                self.stats.forwards += 1;
                let data = if let Some(e) = self.cache.remove(line) {
                    debug_assert!(matches!(e.state, L1State::M | L1State::E));
                    let tile = self.tile;
                    self.tracer.emit(now, || Event::L1Transition {
                        core: tile,
                        line: line.0,
                        from: e.state.label(),
                        to: "I",
                    });
                    e.data
                } else {
                    *self.wb_buf.get(&line).expect("owner must hold the line")
                };
                out.push(OutMsg {
                    dst: requester,
                    msg: ProtoMsg::Data {
                        line,
                        data,
                        grant: Grant::M,
                    },
                });
                out.push(OutMsg {
                    dst: self.home(line),
                    msg: ProtoMsg::FwdDone {
                        line,
                        data: None,
                        retained: false,
                    },
                });
            }
            ProtoMsg::WbAck(line) => {
                let present = self.wb_buf.remove(&line).is_some();
                debug_assert!(present, "WbAck without a writeback in flight");
                self.try_issue(now, out);
            }
            other => panic!(
                "L1 of {:?} received a home-bound message {other:?}",
                self.tile
            ),
        }
    }

    /// Services a coherence message that was deferred behind our fill.
    fn service_deferred(&mut self, now: Cycle, out: &mut Vec<OutMsg>) {
        if let Some(msg) = self.deferred.take() {
            self.handle(msg, now, out);
        }
    }

    /// Returns the completed response once its ready cycle has passed.
    #[inline]
    pub fn poll(&mut self, now: Cycle) -> Option<CoreResp> {
        if let Some((ready, _)) = self.resp {
            if ready <= now {
                return self.resp.take().map(|(_, r)| r);
            }
        }
        None
    }

    // --- fast-forward support -------------------------------------------
    //
    // The scheduler in sim-cmp skips over stretches where every core is
    // spinning on an L1-resident line. The hooks below let it (a) decide
    // whether a spin load would be a pure hit and (b) replay the batched
    // effect of many such hits in one step, preserving stats and the
    // LRU/response state the per-cycle path would have produced.

    /// True when a coherence message sits parked behind our own fill.
    pub fn has_deferred(&self) -> bool {
        self.deferred.is_some()
    }

    /// True when a miss is outstanding (MSHR allocated).
    pub fn miss_outstanding(&self) -> bool {
        self.mshr.is_some()
    }

    /// The ready cycle of the pending core response, if any.
    #[inline]
    pub fn resp_ready_at(&self) -> Option<Cycle> {
        self.resp.map(|(r, _)| r)
    }

    /// The pending response if it is a load: `(ready_cycle, value)`.
    #[inline]
    pub fn peek_resp_load(&self) -> Option<(Cycle, u64)> {
        match self.resp {
            Some((r, CoreResp::LoadValue(v))) => Some((r, v)),
            _ => None,
        }
    }

    /// The value a `Load { addr }` would return as a pure hit right now,
    /// without performing the access. `None` when the controller is busy
    /// (miss outstanding / deferred coherence message / pending response)
    /// or the line is not resident in the cache array — in either case
    /// the access would not be a hit-and-nothing-else, so the caller
    /// must not fast-forward through it.
    #[inline]
    pub fn spin_probe_load(&self, addr: u64) -> Option<u64> {
        if self.mshr.is_some() || self.deferred.is_some() || self.resp.is_some() {
            return None;
        }
        self.line_value(addr)
    }

    /// The resident copy of the word at `addr`, ignoring controller
    /// state. Used when a spin is captured mid-iteration: the pending
    /// response makes [`spin_probe_load`](Self::spin_probe_load) bail,
    /// but the next iteration's value is still the resident line's word.
    #[inline]
    pub fn line_value(&self, addr: u64) -> Option<u64> {
        let line = LineAddr(addr / self.line_bytes);
        let w = self.word_index(addr);
        self.cache.probe(line).map(|e| e.data[w])
    }

    /// Replays `hits` spin-loop load hits of `addr` in one step: charges
    /// the hit counter, performs one LRU touch (repeated touches of the
    /// same line are idempotent), and — when the replayed window ends
    /// between the access and its response — leaves the final response
    /// pending at `final_ready`.
    ///
    /// Only legal while the controller holds the line and has nothing
    /// else in flight; only used while tracing is off (the per-cycle
    /// path emits `L1Access` events this replay does not).
    pub fn spin_replay(&mut self, addr: u64, hits: u64, final_ready: Option<Cycle>) {
        debug_assert!(!self.tracer.on(), "spin replay is only legal untraced");
        debug_assert!(self.mshr.is_none() && self.deferred.is_none());
        if hits == 0 {
            debug_assert!(final_ready.is_none());
            return;
        }
        let line = LineAddr(addr / self.line_bytes);
        let w = self.word_index(addr);
        self.stats.hits += hits;
        let e = self.cache.lookup(line).expect("spin line resident");
        if let Some(r) = final_ready {
            debug_assert!(self.resp.is_none());
            self.resp = Some((r, CoreResp::LoadValue(e.data[w])));
        }
    }

    /// Takes the pending response regardless of its ready cycle (the
    /// fast-forward replay consumes it as part of a skipped iteration).
    pub fn take_resp_for_replay(&mut self) -> Option<CoreResp> {
        self.resp.take().map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Ctrl {
        let cfg = CacheConfig {
            size_bytes: 512, // 4 sets × 2 ways, tiny on purpose
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
            extra_data_latency: 0,
        };
        L1Ctrl::new(CoreId(0), 4, &cfg)
    }

    fn drain(out: &mut Vec<OutMsg>) -> Vec<OutMsg> {
        std::mem::take(out)
    }

    #[test]
    fn cold_load_sends_gets_to_home() {
        let mut c = l1();
        let mut out = Vec::new();
        c.request(CoreReq::Load { addr: 0x140 }, 0, &mut out); // line 5 → home 1
        let msgs = drain(&mut out);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].dst, CoreId(1));
        assert_eq!(msgs[0].msg, ProtoMsg::GetS(LineAddr(5)));
        assert!(c.poll(10).is_none(), "no response before the fill");
    }

    #[test]
    fn fill_completes_load_and_hits_after() {
        let mut c = l1();
        let mut out = Vec::new();
        c.request(CoreReq::Load { addr: 0x8 }, 0, &mut out);
        out.clear(); // drop the GetS
        let mut data = [0u64; 8];
        data[1] = 77;
        c.handle(
            ProtoMsg::Data {
                line: LineAddr(0),
                data,
                grant: Grant::S,
            },
            5,
            &mut out,
        );
        assert_eq!(c.poll(6), Some(CoreResp::LoadValue(77)));
        // Second load to the same line: pure hit, no messages.
        c.request(CoreReq::Load { addr: 0x0 }, 7, &mut out);
        assert!(drain(&mut out).is_empty());
        assert_eq!(c.poll(8), Some(CoreResp::LoadValue(0)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn store_to_shared_line_upgrades() {
        let mut c = l1();
        let mut out = Vec::new();
        c.request(CoreReq::Load { addr: 0 }, 0, &mut out);
        c.handle(
            ProtoMsg::Data {
                line: LineAddr(0),
                data: [0; 8],
                grant: Grant::S,
            },
            2,
            &mut out,
        );
        assert!(c.poll(3).is_some());
        out.clear();
        c.request(CoreReq::Store { addr: 0, value: 9 }, 4, &mut out);
        let msgs = drain(&mut out);
        assert_eq!(msgs[0].msg, ProtoMsg::Upgrade(LineAddr(0)));
        c.handle(ProtoMsg::UpgradeAck(LineAddr(0)), 9, &mut out);
        assert_eq!(c.poll(10), Some(CoreResp::StoreDone));
        assert_eq!(c.peek_line(LineAddr(0)).unwrap().0, L1State::M);
        assert_eq!(c.peek_line(LineAddr(0)).unwrap().1[0], 9);
    }

    #[test]
    fn exclusive_grant_upgrades_silently() {
        let mut c = l1();
        let mut out = Vec::new();
        c.request(CoreReq::Load { addr: 0 }, 0, &mut out);
        c.handle(
            ProtoMsg::Data {
                line: LineAddr(0),
                data: [0; 8],
                grant: Grant::E,
            },
            2,
            &mut out,
        );
        assert!(c.poll(3).is_some());
        out.clear();
        c.request(CoreReq::Store { addr: 8, value: 1 }, 4, &mut out);
        assert!(drain(&mut out).is_empty(), "E→M needs no traffic");
        assert_eq!(c.poll(5), Some(CoreResp::StoreDone));
        assert_eq!(c.peek_line(LineAddr(0)).unwrap().0, L1State::M);
    }

    #[test]
    fn amo_hit_in_exclusive_applies_locally() {
        let mut c = l1();
        let mut out = Vec::new();
        c.request(CoreReq::Load { addr: 0 }, 0, &mut out);
        let mut data = [0u64; 8];
        data[0] = 10;
        c.handle(
            ProtoMsg::Data {
                line: LineAddr(0),
                data,
                grant: Grant::E,
            },
            2,
            &mut out,
        );
        assert!(c.poll(3).is_some());
        out.clear();
        c.request(
            CoreReq::Amo {
                addr: 0,
                op: sim_isa::inst::AmoOp::Add,
                operand: 5,
            },
            4,
            &mut out,
        );
        assert_eq!(c.poll(5), Some(CoreResp::AmoOld(10)));
        assert_eq!(c.peek_line(LineAddr(0)).unwrap().1[0], 15);
    }

    #[test]
    fn eviction_of_dirty_line_writes_back() {
        let mut c = l1();
        let mut out = Vec::new();
        // Fill two ways of set 0 with M lines (lines 0 and 4), then miss
        // on line 8 (same set): the LRU (line 0) must be written back.
        for line in [0u64, 4] {
            c.request(
                CoreReq::Store {
                    addr: line * 64,
                    value: line,
                },
                0,
                &mut out,
            );
            c.handle(
                ProtoMsg::Data {
                    line: LineAddr(line),
                    data: [0; 8],
                    grant: Grant::M,
                },
                1,
                &mut out,
            );
            assert!(c.poll(2).is_some());
        }
        out.clear();
        c.request(CoreReq::Load { addr: 8 * 64 }, 3, &mut out);
        let msgs = drain(&mut out);
        assert_eq!(msgs.len(), 2);
        assert!(matches!(msgs[0].msg, ProtoMsg::PutM(LineAddr(0), _)));
        assert_eq!(msgs[1].msg, ProtoMsg::GetS(LineAddr(8)));
        assert_eq!(c.stats().writebacks, 1);
        // The line is still visible in the writeback buffer.
        assert!(c.peek_line(LineAddr(0)).is_some());
        c.handle(ProtoMsg::WbAck(LineAddr(0)), 10, &mut out);
        assert!(c.peek_line(LineAddr(0)).is_none());
    }

    #[test]
    fn miss_on_wb_pending_line_waits_for_ack() {
        let mut c = l1();
        let mut out = Vec::new();
        for line in [0u64, 4] {
            c.request(
                CoreReq::Store {
                    addr: line * 64,
                    value: 1,
                },
                0,
                &mut out,
            );
            c.handle(
                ProtoMsg::Data {
                    line: LineAddr(line),
                    data: [0; 8],
                    grant: Grant::M,
                },
                1,
                &mut out,
            );
            assert!(c.poll(2).is_some());
        }
        out.clear();
        // Evict line 0 (PutM)…
        c.request(CoreReq::Load { addr: 8 * 64 }, 3, &mut out);
        c.handle(
            ProtoMsg::Data {
                line: LineAddr(8),
                data: [0; 8],
                grant: Grant::E,
            },
            6,
            &mut out,
        );
        assert!(c.poll(7).is_some());
        out.clear();
        // …then immediately miss on line 0 again: the GetS must wait for
        // the WbAck (else the Request/Coherence VNs could reorder them).
        c.request(CoreReq::Load { addr: 0 }, 8, &mut out);
        let msgs = drain(&mut out);
        // Only the eviction of the set-conflicting victim may appear; no
        // GetS for line 0 yet.
        assert!(
            msgs.iter().all(|m| m.msg.line() != LineAddr(0)),
            "GetS leaked before WbAck: {msgs:?}"
        );
        c.handle(ProtoMsg::WbAck(LineAddr(0)), 9, &mut out);
        let msgs = drain(&mut out);
        assert!(msgs.iter().any(|m| m.msg == ProtoMsg::GetS(LineAddr(0))));
    }

    #[test]
    fn inv_of_shared_line_acks_and_drops() {
        let mut c = l1();
        let mut out = Vec::new();
        c.request(CoreReq::Load { addr: 0 }, 0, &mut out);
        c.handle(
            ProtoMsg::Data {
                line: LineAddr(0),
                data: [3; 8],
                grant: Grant::S,
            },
            2,
            &mut out,
        );
        assert!(c.poll(3).is_some());
        out.clear();
        c.handle(ProtoMsg::Inv(LineAddr(0)), 4, &mut out);
        let msgs = drain(&mut out);
        assert_eq!(msgs[0].msg, ProtoMsg::InvAck(LineAddr(0)));
        assert!(c.peek_line(LineAddr(0)).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn stale_inv_still_acks() {
        let mut c = l1();
        let mut out = Vec::new();
        c.handle(ProtoMsg::Inv(LineAddr(9)), 0, &mut out);
        assert_eq!(out[0].msg, ProtoMsg::InvAck(LineAddr(9)));
    }

    #[test]
    fn fwd_gets_downgrades_and_forwards() {
        let mut c = l1();
        let mut out = Vec::new();
        c.request(CoreReq::Store { addr: 0, value: 42 }, 0, &mut out);
        c.handle(
            ProtoMsg::Data {
                line: LineAddr(0),
                data: [0; 8],
                grant: Grant::M,
            },
            1,
            &mut out,
        );
        assert!(c.poll(2).is_some());
        out.clear();
        c.handle(
            ProtoMsg::FwdGetS {
                line: LineAddr(0),
                requester: CoreId(2),
            },
            3,
            &mut out,
        );
        let msgs = drain(&mut out);
        assert_eq!(msgs.len(), 2);
        match &msgs[0].msg {
            ProtoMsg::Data {
                data,
                grant: Grant::S,
                ..
            } => {
                assert_eq!(msgs[0].dst, CoreId(2));
                assert_eq!(data[0], 42, "forwarded data carries the dirty value");
            }
            m => panic!("expected Data to requester, got {m:?}"),
        }
        assert!(matches!(
            msgs[1].msg,
            ProtoMsg::FwdDone {
                data: Some(_),
                retained: true,
                ..
            }
        ));
        assert_eq!(c.peek_line(LineAddr(0)).unwrap().0, L1State::S);
    }

    #[test]
    fn fwd_getx_invalidates_and_forwards() {
        let mut c = l1();
        let mut out = Vec::new();
        c.request(CoreReq::Store { addr: 0, value: 42 }, 0, &mut out);
        c.handle(
            ProtoMsg::Data {
                line: LineAddr(0),
                data: [0; 8],
                grant: Grant::M,
            },
            1,
            &mut out,
        );
        assert!(c.poll(2).is_some());
        out.clear();
        c.handle(
            ProtoMsg::FwdGetX {
                line: LineAddr(0),
                requester: CoreId(3),
            },
            3,
            &mut out,
        );
        let msgs = drain(&mut out);
        assert!(matches!(
            msgs[0].msg,
            ProtoMsg::Data {
                grant: Grant::M,
                ..
            }
        ));
        assert!(matches!(
            msgs[1].msg,
            ProtoMsg::FwdDone {
                data: None,
                retained: false,
                ..
            }
        ));
        assert!(c.peek_line(LineAddr(0)).is_none());
    }

    #[test]
    fn fwd_serviced_from_writeback_buffer() {
        let mut c = l1();
        let mut out = Vec::new();
        for line in [0u64, 4] {
            c.request(
                CoreReq::Store {
                    addr: line * 64,
                    value: 5,
                },
                0,
                &mut out,
            );
            c.handle(
                ProtoMsg::Data {
                    line: LineAddr(line),
                    data: [0; 8],
                    grant: Grant::M,
                },
                1,
                &mut out,
            );
            assert!(c.poll(2).is_some());
        }
        out.clear();
        c.request(CoreReq::Load { addr: 8 * 64 }, 3, &mut out); // evicts line 0 → wb_buf
        out.clear();
        // A forward racing with the PutM finds the line in the buffer.
        c.handle(
            ProtoMsg::FwdGetS {
                line: LineAddr(0),
                requester: CoreId(2),
            },
            4,
            &mut out,
        );
        let msgs = drain(&mut out);
        match &msgs[1].msg {
            ProtoMsg::FwdDone { retained, .. } => {
                assert!(!retained, "a buffered line is not retained as a sharer")
            }
            m => panic!("expected FwdDone, got {m:?}"),
        }
    }

    #[test]
    fn upgrade_race_resolved_by_full_data() {
        let mut c = l1();
        let mut out = Vec::new();
        c.request(CoreReq::Load { addr: 0 }, 0, &mut out);
        c.handle(
            ProtoMsg::Data {
                line: LineAddr(0),
                data: [1; 8],
                grant: Grant::S,
            },
            1,
            &mut out,
        );
        assert!(c.poll(2).is_some());
        out.clear();
        c.request(CoreReq::Store { addr: 0, value: 2 }, 3, &mut out);
        assert_eq!(out[0].msg, ProtoMsg::Upgrade(LineAddr(0)));
        out.clear();
        // Home answers with full data (our S copy was invalidated by a
        // racing writer between our Upgrade and its processing).
        c.handle(ProtoMsg::Inv(LineAddr(0)), 4, &mut out);
        out.clear();
        c.handle(
            ProtoMsg::Data {
                line: LineAddr(0),
                data: [9; 8],
                grant: Grant::M,
            },
            6,
            &mut out,
        );
        assert_eq!(c.poll(7), Some(CoreResp::StoreDone));
        let (st, data) = c.peek_line(LineAddr(0)).unwrap();
        assert_eq!(st, L1State::M);
        assert_eq!(data[0], 2, "store applied over the fresh copy");
        assert_eq!(data[1], 9, "rest of the line from the racing writer");
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn second_outstanding_request_rejected() {
        let mut c = l1();
        let mut out = Vec::new();
        c.request(CoreReq::Load { addr: 0 }, 0, &mut out);
        c.request(CoreReq::Load { addr: 64 }, 0, &mut out);
    }
}

//! One mesh router: 5 ports × 3 virtual channels, wormhole switching,
//! credit-based flow control, round-robin arbitration per output port.
//!
//! The 15 input (port, vc) buffers are numbered as *slots*, slot
//! `port * NUM_VCS + vc`, which is also the round-robin order. Every
//! buffered flit already knows the output port it takes here
//! ([`Flit::out`]), and the router keeps one request mask per output:
//!
//! > bit `s` of `req[o]` set ⇔ slot `s` is non-empty and its front flit
//! > routes to `o`.
//!
//! A byte of requested outputs summarises the masks: bit `o` set ⇔
//! `req[o] != 0`. [`Router::push`] and [`Router::pop`] are the only ways
//! to change a buffer, and they keep both, so a visit walks only the
//! outputs that have a requester and [`Router::pick`] inspects exactly
//! the slots that ask for an output instead of all fifteen.
//!
//! Host layout: the fifteen buffers are fixed-capacity rings of 8-byte
//! flits in one flat allocation made at construction (slot `s` owns
//! `buf[s * cap..(s + 1) * cap]`), and heads, lengths, credits and
//! round-robin pointers are bytes, so the bookkeeping of a router is
//! about three host cache lines and a hop reads one more for the flit.

use crate::msg::Flit;
use sim_base::config::MAX_VC_BUFFER_FLITS;
use sim_base::geom::Dir;
use sim_base::{CoreId, Cycle};

/// Number of virtual channels (= virtual networks = message classes).
pub const NUM_VCS: usize = 3;

/// Number of router ports.
pub const NUM_PORTS: usize = 5;

/// Number of input (port, vc) slots.
pub const NUM_SLOTS: usize = NUM_PORTS * NUM_VCS;

/// A wormhole lock on an output (port, vc): which packet holds it and
/// which input port its flits come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WormLock {
    /// Packet holding the output, named by its slab slot
    /// ([`Flit::slot`]) — unique while any of its flits is in flight.
    pub slot: u32,
    /// Input port the packet's flits arrive on.
    pub in_port: Dir,
}

/// Router state. The [`crate::network::Noc`] drives arbitration; this
/// struct owns the buffers, credits and locks.
#[derive(Clone, Debug)]
pub struct Router {
    /// Ring storage of the input buffers, `cap` flits per slot.
    /// Private: only `push`/`pop` may change a buffer, or `req` goes
    /// stale.
    buf: Box<[Flit]>,
    /// Capacity of each ring (`vc_buffer_flits`).
    cap: u8,
    /// Ring index of each slot's front flit.
    head: [u8; NUM_SLOTS],
    /// Flits buffered in each slot.
    len: [u8; NUM_SLOTS],
    /// Flits buffered in all slots together.
    flits: u16,
    /// Request mask per output port (see the module docs).
    req: [u16; NUM_PORTS],
    /// Requested outputs: bit `o` set ⇔ `req[o] != 0`.
    outs: u8,
    /// Flits landing here in the current phase 1: `(cycle + 1) << 1`
    /// after the first, with bit 0 set after a second. A cycle stamp,
    /// so it is never cleared.
    landed: Cycle,
    /// Credits available toward the downstream router on each output
    /// port/vc. Local output (ejection) is uncredited (always accepted).
    pub credits: [[u8; NUM_VCS]; NUM_PORTS],
    /// Current wormhole binding per output (port, vc).
    pub out_lock: [[Option<WormLock>; NUM_VCS]; NUM_PORTS],
    /// Round-robin pointer per output port: the slot asked first.
    pub rr: [u8; NUM_PORTS],
}

impl Router {
    /// A router with `buf_flits` flits of buffer per input VC, whose
    /// mesh output ports start with as many credits.
    ///
    /// # Panics
    /// If `buf_flits` is 0 or above [`MAX_VC_BUFFER_FLITS`] (ring
    /// indices are bytes); `CmpConfig::validate` rejects both first.
    pub fn new(buf_flits: u32) -> Router {
        assert!(
            (1..=MAX_VC_BUFFER_FLITS).contains(&buf_flits),
            "VC buffers hold 1..={MAX_VC_BUFFER_FLITS} flits, not {buf_flits}"
        );
        let cap = buf_flits as u8;
        let blank = Flit::new(0, CoreId(0), 0, false, false);
        Router {
            buf: vec![blank; NUM_SLOTS * cap as usize].into_boxed_slice(),
            cap,
            head: [0; NUM_SLOTS],
            len: [0; NUM_SLOTS],
            flits: 0,
            req: [0; NUM_PORTS],
            outs: 0,
            landed: 0,
            credits: [[cap; NUM_VCS]; NUM_PORTS],
            out_lock: [[None; NUM_VCS]; NUM_PORTS],
            rr: [0; NUM_PORTS],
        }
    }

    /// Total buffered flits (for idle fast-pathing).
    #[inline]
    pub fn buffered(&self) -> usize {
        self.flits as usize
    }

    /// Flits buffered in input `slot`.
    #[inline]
    pub fn slot_flits(&self, slot: usize) -> usize {
        self.len[slot] as usize
    }

    /// True if `slot` has buffer space for one more flit. (Inter-router
    /// space is governed by the upstream credit counters; only local
    /// injection asks the buffer itself.)
    #[inline]
    pub fn has_space(&self, slot: usize) -> bool {
        self.len[slot] < self.cap
    }

    /// Number of output (port, vc) pairs currently bound by a wormhole
    /// lock — an observability hook for trace-driven invariant checks
    /// (every lock must eventually clear when the network drains).
    pub fn locked_outputs(&self) -> usize {
        self.out_lock
            .iter()
            .flatten()
            .filter(|l| l.is_some())
            .count()
    }

    /// Ring index of the `i`-th flit of `slot`, counted from the front
    /// (`i <= cap`; `i == len` is where a push lands).
    #[inline]
    fn ring(&self, slot: usize, i: u8) -> u8 {
        // Head and `i` are at most `cap`, so one conditional subtract
        // wraps the sum (in `u16`: `cap` may be 255).
        let (sum, cap) = (self.head[slot] as u16 + i as u16, self.cap as u16);
        (if sum >= cap { sum - cap } else { sum }) as u8
    }

    /// Index in `buf` of the `i`-th flit of `slot`.
    #[inline]
    fn at(&self, slot: usize, i: u8) -> usize {
        slot * self.cap as usize + self.ring(slot, i) as usize
    }

    /// The flit at the front of `slot`, if any.
    #[inline]
    pub fn front(&self, slot: usize) -> Option<&Flit> {
        (self.len[slot] > 0).then(|| &self.buf[self.at(slot, 0)])
    }

    /// Appends `flit` to `slot`. `flit.out` must be the output port it
    /// takes at this router.
    ///
    /// # Panics
    /// If the slot is full: a credit or `has_space` was not honoured.
    #[inline]
    pub fn push(&mut self, slot: usize, flit: Flit) {
        assert!(self.has_space(slot), "push into a full slot");
        if self.len[slot] == 0 {
            self.request(slot, flit.out);
        }
        self.buf[self.at(slot, self.len[slot])] = flit;
        self.len[slot] += 1;
        self.flits += 1;
    }

    /// Removes the front flit of `slot`; the flit behind it, if any,
    /// takes over the slot's request bit.
    #[inline]
    pub fn pop(&mut self, slot: usize) -> Flit {
        assert!(self.len[slot] > 0, "pop from an empty slot");
        let flit = self.buf[self.at(slot, 0)];
        self.head[slot] = self.ring(slot, 1);
        self.len[slot] -= 1;
        self.flits -= 1;
        let out = flit.out as usize;
        self.req[out] &= !(1 << slot);
        if self.req[out] == 0 {
            self.outs &= !(1 << out);
        }
        if let Some(next) = self.front(slot) {
            self.request(slot, next.out);
        }
        flit
    }

    /// Sets `slot`'s request bit for output `out`.
    #[inline]
    fn request(&mut self, slot: usize, out: u8) {
        self.req[out as usize] |= 1 << slot;
        self.outs |= 1 << out;
    }

    /// True when some slot's front flit routes to output port `out`;
    /// [`pick`](Self::pick) grants nothing otherwise.
    #[inline]
    pub fn requested(&self, out: usize) -> bool {
        self.outs & (1 << out) != 0
    }

    /// The requested outputs as a byte: bit `o` set ⇔
    /// [`requested(o)`](Self::requested).
    #[inline]
    pub fn requested_outputs(&self) -> u8 {
        self.outs
    }

    /// True when every request mask, and the byte of requested outputs,
    /// equals what the buffer fronts say.
    pub fn req_is_consistent(&self) -> bool {
        let mut want = [0u16; NUM_PORTS];
        for slot in 0..NUM_SLOTS {
            if let Some(f) = self.front(slot) {
                want[f.out as usize] |= 1 << slot;
            }
        }
        let outs = (0..NUM_PORTS).fold(0u8, |m, o| m | (((want[o] != 0) as u8) << o));
        want == self.req && outs == self.outs
    }

    /// Counts a flit landing here in cycle `now`; see
    /// [`lands_alone`](Self::lands_alone).
    #[inline]
    pub(crate) fn note_landing(&mut self, now: Cycle) {
        let stamp = (now + 1) << 1;
        self.landed = if self.landed & !1 == stamp {
            stamp | 1
        } else {
            stamp
        };
    }

    /// True when exactly one flit was counted landing here in `now`.
    #[inline]
    pub(crate) fn lands_alone(&self, now: Cycle) -> bool {
        self.landed == (now + 1) << 1
    }

    /// The slot whose front flit wins output port `out` this cycle: the
    /// first one in round-robin order from `rr[out]` that requests it,
    /// passes the wormhole rule (a continuation flit must hold the
    /// lock, a head flit needs it free) and has downstream credit.
    #[inline]
    pub fn pick(&self, out: usize) -> Option<usize> {
        let req = self.req[out] as u32;
        if req & req.wrapping_sub(1) == 0 {
            // At most one requester: wherever the pointer stands, it is
            // the first in round-robin order.
            let slot = req.trailing_zeros() as usize;
            return (req != 0 && self.can_grant(slot, out)).then_some(slot);
        }
        let before_rr = (1u32 << self.rr[out]) - 1;
        for mut mask in [req & !before_rr, req & before_rr] {
            while mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if self.can_grant(slot, out) {
                    return Some(slot);
                }
            }
        }
        None
    }

    #[inline]
    fn can_grant(&self, slot: usize, out: usize) -> bool {
        let flit = self.front(slot).expect("request bit without a front flit");
        self.admits(slot, out, flit)
    }

    /// True when `flit`, at the front of input `slot`, may leave through
    /// output `out` now: the wormhole rule (a continuation flit must
    /// hold the lock, a head flit needs it free) and, on a mesh port, a
    /// downstream credit.
    #[inline]
    pub(crate) fn admits(&self, slot: usize, out: usize, flit: &Flit) -> bool {
        let (p, vc) = (slot / NUM_VCS, slot % NUM_VCS);
        let lock_ok = match self.out_lock[out][vc] {
            Some(lock) => {
                let holds = lock.in_port.index() == p && lock.slot == flit.slot;
                debug_assert!(!(holds && flit.is_head()), "head flit under its own lock");
                holds
            }
            None => flit.is_head(),
        };
        // Flow control: downstream space (mesh ports only).
        lock_ok && (out == Dir::Local.index() || self.credits[out][vc] > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(pkt: u32, out: Dir) -> Flit {
        Flit::new(pkt, CoreId(0), out.index() as u8, true, true)
    }

    #[test]
    fn fresh_router_is_idle_with_full_credits() {
        let r = Router::new(4);
        assert_eq!(r.buffered(), 0);
        assert!(r.has_space(Dir::Local.index() * NUM_VCS));
        for p in 0..NUM_PORTS {
            assert_eq!(r.pick(p), None);
            for v in 0..NUM_VCS {
                assert_eq!(r.credits[p][v], 4);
                assert_eq!(r.out_lock[p][v], None);
            }
        }
    }

    #[test]
    fn request_bit_follows_the_front_flit() {
        let (east, south) = (Dir::East.index(), Dir::South.index());
        let mut r = Router::new(4);
        r.push(7, flit(1, Dir::East));
        r.push(7, flit(2, Dir::South));
        assert!(r.req_is_consistent());
        assert_eq!((r.pick(east), r.pick(south)), (Some(7), None));
        assert_eq!(r.requested_outputs(), 1 << east);
        assert_eq!(r.pop(7).slot, 1);
        assert!(r.req_is_consistent());
        assert_eq!((r.pick(east), r.pick(south)), (None, Some(7)));
        assert_eq!(r.requested_outputs(), 1 << south);
        r.push(2, flit(3, Dir::South));
        assert_eq!(r.requested_outputs(), 1 << south);
        assert_eq!(r.pop(7).slot, 2);
        assert!(r.req_is_consistent());
        assert_eq!(r.requested_outputs(), 1 << south, "slot 2 still asks");
        assert_eq!(r.pop(2).slot, 3);
        assert!(r.req_is_consistent());
        assert_eq!((r.pick(east), r.pick(south)), (None, None));
        assert_eq!(r.requested_outputs(), 0);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn landings_are_counted_per_cycle_without_clearing() {
        let mut r = Router::new(4);
        assert!(!r.lands_alone(0), "nothing landed yet");
        r.note_landing(0);
        assert!(r.lands_alone(0));
        r.note_landing(0);
        assert!(!r.lands_alone(0), "two flits land in cycle 0");
        r.note_landing(0);
        assert!(!r.lands_alone(0));
        for now in [1, 2, 9, 1 << 40] {
            assert!(!r.lands_alone(now), "a stale stamp counts in cycle {now}");
            r.note_landing(now);
            assert!(r.lands_alone(now), "cycle {now}");
        }
    }

    #[test]
    fn pick_starts_at_the_round_robin_pointer_and_wraps() {
        let east = Dir::East.index();
        let mut r = Router::new(4);
        r.push(3, flit(1, Dir::East));
        r.push(12, flit(2, Dir::East));
        for (rr, want) in [(0, 3), (3, 3), (4, 12), (12, 12), (13, 3)] {
            r.rr[east] = rr;
            assert_eq!(r.pick(east), Some(want), "rr = {rr}");
        }
    }

    #[test]
    fn a_slot_holds_exactly_its_capacity_and_wraps() {
        let mut r = Router::new(2);
        for round in 0..5u32 {
            r.push(14, flit(2 * round, Dir::West));
            r.push(14, flit(2 * round + 1, Dir::West));
            assert!(!r.has_space(14) && r.has_space(13));
            assert_eq!(r.pop(14).slot, 2 * round);
            // Offset the ring by one each round, so it wraps.
            r.push(14, flit(99, Dir::West));
            assert_eq!(r.pop(14).slot, 2 * round + 1);
            assert_eq!(r.pop(14).slot, 99);
        }
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    #[should_panic(expected = "push into a full slot")]
    fn overfilling_a_slot_is_caught() {
        let mut r = Router::new(1);
        r.push(0, flit(1, Dir::East));
        r.push(0, flit(2, Dir::East));
    }

    #[test]
    #[should_panic(expected = "VC buffers hold 1..=255 flits, not 256")]
    fn capacity_beyond_the_ring_index_is_rejected() {
        Router::new(256);
    }
}

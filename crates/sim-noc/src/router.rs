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
//! [`Router::push`] and [`Router::pop`] are the only ways to change a
//! buffer, and they keep that invariant, so [`Router::pick`] inspects
//! exactly the slots that ask for an output instead of all fifteen.

use crate::msg::Flit;
use sim_base::geom::Dir;
use std::collections::VecDeque;

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
    /// Packet holding the output.
    pub pkt: u64,
    /// Input port the packet's flits arrive on.
    pub in_port: usize,
}

/// Router state. The [`crate::network::Noc`] drives arbitration; this
/// struct owns the buffers, credits and locks.
#[derive(Clone, Debug)]
pub struct Router {
    /// Input buffers by slot. Private: only `push`/`pop` may change
    /// them, or `req` goes stale.
    in_buf: [VecDeque<Flit>; NUM_SLOTS],
    /// Request mask per output port (see the module docs).
    req: [u16; NUM_PORTS],
    /// Credits available toward the downstream router on each output
    /// port/vc. Local output (ejection) is uncredited (always accepted).
    pub credits: [[u32; NUM_VCS]; NUM_PORTS],
    /// Current wormhole binding per output (port, vc).
    pub out_lock: [[Option<WormLock>; NUM_VCS]; NUM_PORTS],
    /// Round-robin pointer per output port: the slot asked first.
    pub rr: [usize; NUM_PORTS],
}

impl Router {
    /// A router whose mesh output ports start with `buf_flits` credits.
    pub fn new(buf_flits: u32) -> Router {
        Router {
            in_buf: Default::default(),
            req: [0; NUM_PORTS],
            credits: [[buf_flits; NUM_VCS]; NUM_PORTS],
            out_lock: [[None; NUM_VCS]; NUM_PORTS],
            rr: [0; NUM_PORTS],
        }
    }

    /// Total buffered flits (for idle fast-pathing).
    pub fn buffered(&self) -> usize {
        self.in_buf.iter().map(VecDeque::len).sum()
    }

    /// True if input `port`/`vc` has buffer space for one more flit.
    /// (Inter-router space is governed by the upstream credit counters;
    /// only local injection asks the buffer itself.)
    pub fn has_space(&self, port: Dir, vc: usize, cap: u32) -> bool {
        (self.in_buf[port.index() * NUM_VCS + vc].len() as u32) < cap
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

    /// The flit at the front of `slot`, if any.
    pub fn front(&self, slot: usize) -> Option<&Flit> {
        self.in_buf[slot].front()
    }

    /// Appends `flit` to `slot`. `flit.out` must be the output port it
    /// takes at this router.
    pub fn push(&mut self, slot: usize, flit: Flit) {
        if self.in_buf[slot].is_empty() {
            self.req[flit.out as usize] |= 1 << slot;
        }
        self.in_buf[slot].push_back(flit);
    }

    /// Removes the front flit of `slot`; the flit behind it, if any,
    /// takes over the slot's request bit.
    pub fn pop(&mut self, slot: usize) -> Flit {
        let flit = self.in_buf[slot]
            .pop_front()
            .expect("pop from an empty slot");
        self.req[flit.out as usize] &= !(1 << slot);
        if let Some(next) = self.in_buf[slot].front() {
            self.req[next.out as usize] |= 1 << slot;
        }
        flit
    }

    /// True when some slot's front flit routes to output port `out`;
    /// [`pick`](Self::pick) grants nothing otherwise.
    pub fn requested(&self, out: usize) -> bool {
        self.req[out] != 0
    }

    /// True when every request mask equals the mask recomputed from the
    /// buffer fronts.
    pub(crate) fn req_is_consistent(&self) -> bool {
        let mut want = [0u16; NUM_PORTS];
        for (slot, buf) in self.in_buf.iter().enumerate() {
            if let Some(f) = buf.front() {
                want[f.out as usize] |= 1 << slot;
            }
        }
        want == self.req
    }

    /// The slot whose front flit wins output port `out` this cycle: the
    /// first one in round-robin order from `rr[out]` that requests it,
    /// passes the wormhole rule (a continuation flit must hold the
    /// lock, a head flit needs it free) and has downstream credit.
    pub fn pick(&self, out: usize) -> Option<usize> {
        let req = self.req[out] as u32;
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

    fn can_grant(&self, slot: usize, out: usize) -> bool {
        let (p, vc) = (slot / NUM_VCS, slot % NUM_VCS);
        let flit = self.in_buf[slot]
            .front()
            .expect("request bit without a front flit");
        let lock_ok = match self.out_lock[out][vc] {
            Some(lock) => {
                let holds = lock.in_port == p && lock.pkt == flit.pkt;
                debug_assert!(!(holds && flit.is_head), "head flit under its own lock");
                holds
            }
            None => flit.is_head,
        };
        // Flow control: downstream space (mesh ports only).
        lock_ok && (out == Dir::Local.index() || self.credits[out][vc] > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_base::CoreId;

    fn flit(pkt: u64, out: Dir) -> Flit {
        Flit {
            pkt,
            slot: 0,
            dst: CoreId(0),
            out: out.index() as u8,
            is_head: true,
            is_tail: true,
        }
    }

    #[test]
    fn fresh_router_is_idle_with_full_credits() {
        let r = Router::new(4);
        assert_eq!(r.buffered(), 0);
        assert!(r.has_space(Dir::Local, 0, 4));
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
        assert_eq!(r.pop(7).pkt, 1);
        assert!(r.req_is_consistent());
        assert_eq!((r.pick(east), r.pick(south)), (None, Some(7)));
        assert_eq!(r.pop(7).pkt, 2);
        assert!(r.req_is_consistent());
        assert_eq!((r.pick(east), r.pick(south)), (None, None));
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
}

//! Messages and flits.

use sim_base::stats::MsgClass;
use sim_base::{CoreId, Cycle};

/// A network message carrying an opaque payload `T` (the coherence
/// protocol's packet type in the full system).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message<T> {
    /// Source tile.
    pub src: CoreId,
    /// Destination tile.
    pub dst: CoreId,
    /// Traffic class / virtual network.
    pub class: MsgClass,
    /// Payload size in bytes, *excluding* the header (a data reply
    /// carries a 64-byte line; control messages carry 0).
    pub payload_bytes: u32,
    /// The payload itself.
    pub payload: T,
}

/// Internal per-message bookkeeping, parked in the packet slab next to
/// the message (which supplies source, destination and class) from send
/// to receipt. A packet has a flit in the network while `flits_arrived <
/// flits_total`; a same-tile message that bypasses the mesh has no
/// flit, so both counts stay 0 and its `pkt` is unused.
#[derive(Clone, Debug)]
pub(crate) struct PacketInfo {
    pub pkt: u64,
    pub injected_at: Cycle,
    pub flits_total: u32,
    pub flits_arrived: u32,
}

/// One flit: 8 bytes. It carries its own routing state, so moving it
/// through a router never consults the packet table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flit {
    /// Slot of the packet in the network's packet slab. It names the
    /// packet for as long as one of its flits is in flight (wormhole
    /// locks compare it; trace events read the packet id through it).
    pub slot: u32,
    /// Destination tile.
    pub dst: CoreId,
    /// Output port ([`sim_base::geom::Dir::index`]) this flit takes at
    /// the router whose input buffer holds it; set when it is pushed
    /// there, once per hop.
    pub out: u8,
    /// [`Flit::HEAD`] and [`Flit::TAIL`].
    flags: u8,
}

impl Flit {
    /// Flag bit of a packet's first flit (claims the wormhole locks).
    const HEAD: u8 = 1;
    /// Flag bit of a packet's last flit (releases the wormhole locks).
    const TAIL: u8 = 2;

    /// A flit of the packet in slab slot `slot`, bound for `dst`, that
    /// takes output port `out` at the router it is pushed into.
    #[inline]
    pub fn new(slot: u32, dst: CoreId, out: u8, is_head: bool, is_tail: bool) -> Flit {
        let flags = (is_head as u8 * Flit::HEAD) | (is_tail as u8 * Flit::TAIL);
        Flit {
            slot,
            dst,
            out,
            flags,
        }
    }

    /// First flit of its packet.
    #[inline]
    pub fn is_head(&self) -> bool {
        self.flags & Flit::HEAD != 0
    }

    /// Last flit of its packet.
    #[inline]
    pub fn is_tail(&self) -> bool {
        self.flags & Flit::TAIL != 0
    }
}

/// Number of flits a message occupies on `link_bytes`-wide links with a
/// `header_bytes` header.
pub fn flits_for(payload_bytes: u32, header_bytes: u32, link_bytes: u32) -> u32 {
    let total = payload_bytes + header_bytes;
    total.div_ceil(link_bytes).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_counts() {
        // Table-1 geometry: 75-byte links, 11-byte header.
        assert_eq!(flits_for(0, 11, 75), 1, "control message is one flit");
        assert_eq!(
            flits_for(64, 11, 75),
            1,
            "header + full line fits one link word"
        );
        assert_eq!(flits_for(65, 11, 75), 2);
        assert_eq!(
            flits_for(0, 0, 75),
            1,
            "degenerate empty message still one flit"
        );
        // Narrow links: 64-byte line + 8-byte header on 16-byte links.
        assert_eq!(flits_for(64, 8, 16), 5);
    }

    #[test]
    fn a_flit_is_eight_bytes_with_head_and_tail_as_flag_bits() {
        assert_eq!(std::mem::size_of::<Flit>(), 8);
        for (head, tail) in [(false, false), (true, false), (false, true), (true, true)] {
            let f = Flit::new(u32::MAX, CoreId(7), 4, head, tail);
            assert_eq!((f.is_head(), f.is_tail()), (head, tail));
            assert_eq!((f.slot, f.dst, f.out), (u32::MAX, CoreId(7), 4));
        }
    }
}

//! Protocol message and core-interface types. Invalidations are exact:
//! an `Inv` goes only to a core that the line's sharer map names.

use sim_base::config::LINE_BYTES;
use sim_base::ids::LineAddr;
use sim_base::stats::MsgClass;
use sim_base::CoreId;
use sim_isa::inst::AmoOp;

/// 64-bit words per cache line.
pub const WORDS_PER_LINE: usize = (LINE_BYTES / 8) as usize;

/// A cache line's data.
pub type LineData = [u64; WORDS_PER_LINE];

/// Access permission granted by a data reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grant {
    /// Shared, read-only.
    S,
    /// Exclusive clean (MESI E): read now, silently upgradable to M.
    E,
    /// Modified / writable.
    M,
}

/// A coherence-protocol message. The [`MsgClass`] (= virtual network)
/// of each variant is fixed by [`ProtoMsg::class`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoMsg {
    /// L1 → home: read miss.
    GetS(LineAddr),
    /// L1 → home: write/atomic miss from Invalid.
    GetX(LineAddr),
    /// L1 → home: write/atomic miss from Shared (has data, needs
    /// permission). The home may answer with `Data(M)` instead of
    /// `UpgradeAck` if the requester lost the line to a race.
    Upgrade(LineAddr),
    /// L1 → home: eviction of an E/M line, carrying the data.
    PutM(LineAddr, LineData),
    /// home/owner → L1: data grant.
    Data {
        /// The line.
        line: LineAddr,
        /// Line contents.
        data: LineData,
        /// Permission granted.
        grant: Grant,
    },
    /// home → L1: upgrade permission granted (no data needed).
    UpgradeAck(LineAddr),
    /// home → L1: writeback acknowledged (possibly stale; either way the
    /// writeback buffer entry can be dropped).
    WbAck(LineAddr),
    /// home → sharer L1: invalidate. The directory's map is exact, so
    /// the recipient holds the line, dropped it silently, or awaits its
    /// fill (and then applies the `Inv` right after it lands).
    Inv(LineAddr),
    /// sharer L1 → home: invalidation done.
    InvAck(LineAddr),
    /// home → owner L1: another core wants to read; downgrade to S and
    /// forward the data.
    FwdGetS {
        /// The line.
        line: LineAddr,
        /// Core to send the data to.
        requester: CoreId,
    },
    /// home → owner L1: another core wants to write; invalidate and
    /// forward the data.
    FwdGetX {
        /// The line.
        line: LineAddr,
        /// Core to send the data to.
        requester: CoreId,
    },
    /// owner L1 → home: a forward was serviced. `data` carries the dirty
    /// line back on a `FwdGetS`; `retained` tells the home whether the
    /// old owner kept a shared copy (false when it serviced the forward
    /// out of its writeback buffer).
    FwdDone {
        /// The line.
        line: LineAddr,
        /// Dirty data for the home's L2 (on read-forwards).
        data: Option<LineData>,
        /// Old owner still holds the line in S.
        retained: bool,
    },
}

impl ProtoMsg {
    /// The line this message concerns.
    pub fn line(&self) -> LineAddr {
        match *self {
            ProtoMsg::GetS(l)
            | ProtoMsg::GetX(l)
            | ProtoMsg::Upgrade(l)
            | ProtoMsg::PutM(l, _)
            | ProtoMsg::UpgradeAck(l)
            | ProtoMsg::WbAck(l)
            | ProtoMsg::Inv(l)
            | ProtoMsg::InvAck(l) => l,
            ProtoMsg::Data { line, .. }
            | ProtoMsg::FwdGetS { line, .. }
            | ProtoMsg::FwdGetX { line, .. }
            | ProtoMsg::FwdDone { line, .. } => line,
        }
    }

    /// Figure-7 traffic class (also the virtual network).
    pub fn class(&self) -> MsgClass {
        match self {
            ProtoMsg::GetS(_) | ProtoMsg::GetX(_) | ProtoMsg::Upgrade(_) => MsgClass::Request,
            ProtoMsg::Data { .. } | ProtoMsg::UpgradeAck(_) | ProtoMsg::WbAck(_) => MsgClass::Reply,
            ProtoMsg::PutM(..)
            | ProtoMsg::Inv(_)
            | ProtoMsg::InvAck(_)
            | ProtoMsg::FwdGetS { .. }
            | ProtoMsg::FwdGetX { .. }
            | ProtoMsg::FwdDone { .. } => MsgClass::Coherence,
        }
    }

    /// Payload bytes beyond the header: 64 for line-carrying messages.
    pub fn payload_bytes(&self) -> u32 {
        match self {
            ProtoMsg::PutM(..) | ProtoMsg::Data { .. } => 64,
            ProtoMsg::FwdDone { data: Some(_), .. } => 64,
            _ => 0,
        }
    }

    /// True for messages handled by a home bank (vs an L1).
    pub fn for_home(&self) -> bool {
        matches!(
            self,
            ProtoMsg::GetS(_)
                | ProtoMsg::GetX(_)
                | ProtoMsg::Upgrade(_)
                | ProtoMsg::PutM(..)
                | ProtoMsg::InvAck(_)
                | ProtoMsg::FwdDone { .. }
        )
    }
}

/// A request from a core to its L1 (one outstanding per core).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreReq {
    /// Read the word at `addr`.
    Load {
        /// Byte address (8-byte aligned).
        addr: u64,
    },
    /// Write `value` to the word at `addr`.
    Store {
        /// Byte address (8-byte aligned).
        addr: u64,
        /// Value to store.
        value: u64,
    },
    /// Atomic read-modify-write on the word at `addr`.
    Amo {
        /// Byte address (8-byte aligned).
        addr: u64,
        /// Operation.
        op: AmoOp,
        /// Operand.
        operand: u64,
    },
}

impl CoreReq {
    /// The byte address accessed.
    pub fn addr(&self) -> u64 {
        match *self {
            CoreReq::Load { addr } | CoreReq::Store { addr, .. } | CoreReq::Amo { addr, .. } => {
                addr
            }
        }
    }
}

/// The L1's answer to a [`CoreReq`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreResp {
    /// Loaded value.
    LoadValue(u64),
    /// Store committed.
    StoreDone,
    /// Old memory value of an atomic.
    AmoOld(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping_matches_figure_7() {
        let l = LineAddr(3);
        assert_eq!(ProtoMsg::GetS(l).class(), MsgClass::Request);
        assert_eq!(ProtoMsg::GetX(l).class(), MsgClass::Request);
        assert_eq!(ProtoMsg::Upgrade(l).class(), MsgClass::Request);
        assert_eq!(
            ProtoMsg::Data {
                line: l,
                data: [0; 8],
                grant: Grant::S
            }
            .class(),
            MsgClass::Reply
        );
        assert_eq!(ProtoMsg::UpgradeAck(l).class(), MsgClass::Reply);
        assert_eq!(ProtoMsg::WbAck(l).class(), MsgClass::Reply);
        assert_eq!(ProtoMsg::Inv(l).class(), MsgClass::Coherence);
        assert_eq!(ProtoMsg::InvAck(l).class(), MsgClass::Coherence);
        assert_eq!(ProtoMsg::PutM(l, [0; 8]).class(), MsgClass::Coherence);
        assert_eq!(
            ProtoMsg::FwdGetS {
                line: l,
                requester: CoreId(1)
            }
            .class(),
            MsgClass::Coherence
        );
    }

    #[test]
    fn payload_sizes() {
        let l = LineAddr(0);
        assert_eq!(ProtoMsg::GetS(l).payload_bytes(), 0);
        assert_eq!(
            ProtoMsg::Data {
                line: l,
                data: [0; 8],
                grant: Grant::M
            }
            .payload_bytes(),
            64
        );
        assert_eq!(ProtoMsg::PutM(l, [0; 8]).payload_bytes(), 64);
        assert_eq!(
            ProtoMsg::FwdDone {
                line: l,
                data: None,
                retained: false
            }
            .payload_bytes(),
            0
        );
        assert_eq!(
            ProtoMsg::FwdDone {
                line: l,
                data: Some([1; 8]),
                retained: true
            }
            .payload_bytes(),
            64
        );
    }

    #[test]
    fn home_routing_flags() {
        let l = LineAddr(0);
        assert!(ProtoMsg::GetS(l).for_home());
        assert!(ProtoMsg::InvAck(l).for_home());
        assert!(!ProtoMsg::Inv(l).for_home());
        assert!(!ProtoMsg::Data {
            line: l,
            data: [0; 8],
            grant: Grant::S
        }
        .for_home());
    }
}

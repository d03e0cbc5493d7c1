//! # sim-mem — the memory hierarchy of the simulated CMP
//!
//! Private L1 data caches, a shared distributed L2 (one bank per tile,
//! lines interleaved across banks by line address) with a full-map
//! directory MESI protocol, and a flat 400-cycle memory backend — the
//! Table 1 hierarchy of the paper.
//!
//! ## Protocol
//!
//! A **blocking home directory**: each L2 home bank serializes the
//! transactions on a line (later requests queue behind the active one).
//! The protocol is a 3-hop MESI:
//!
//! * `GetS` — load miss. Home replies `Data(S)` (or `Data(E)` when the
//!   line is uncached) from L2/memory, or forwards `FwdGetS` to the
//!   exclusive owner, which sends the data directly to the requester and
//!   a `FwdDone` copy to the home.
//! * `GetX` / `Upgrade` — store/atomic miss. Home invalidates sharers
//!   (collecting `InvAck`s), or forwards `FwdGetX` to the owner.
//! * `PutM` — dirty/exclusive eviction; acknowledged with `WbAck`.
//!   Evicting L1s park the line in a writeback buffer until the ack, so
//!   forwarded fetches racing with the writeback are answered from the
//!   buffer (stale `PutM`s are acknowledged and dropped by the home).
//! * Clean-shared evictions are silent; the directory tolerates stale
//!   sharers (they simply `InvAck` without having the line).
//!
//! The directory is an exact full map at every machine size: a line's
//! sharers are a bit map of ⌈n/64⌉ words for n cores, pooled per home,
//! so an invalidation goes only to cores the map names. What holds at
//! every cycle is [`MemorySystem::check_coherence`]'s: one writer per
//! line, and a directory whose record covers every L1 copy (a superset,
//! not an equal, because of the silent evictions).
//!
//! Traffic classes map to the paper's Figure 7: `GetS/GetX/Upgrade` are
//! *Request*, data and acks to the requester are *Reply*, and all
//! protocol-generated messages (`Inv`, `InvAck`, `FwdGetS`, `FwdGetX`,
//! `FwdDone`, `PutM`) are *Coherence* — each on its own virtual network.
//!
//! ## Simplifications (documented in DESIGN.md)
//!
//! * The directory is perfect (no capacity evictions of tracked lines):
//!   L2 victims are chosen among lines with no cached copies. This keeps
//!   the recall machinery out while preserving the traffic the paper
//!   measures.
//! * Each L1 has one outstanding core miss (the cores are in-order and
//!   blocking), plus any number of in-flight writebacks.

#![forbid(unsafe_code)]

pub mod cache;
pub mod home;
pub mod l1;
pub mod proto;
pub mod system;

pub use proto::{CoreReq, CoreResp, ProtoMsg};
pub use system::{MemSchedStats, MemorySystem};

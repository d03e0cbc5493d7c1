//! # sim-noc — cycle-level 2D-mesh network-on-chip
//!
//! The main data network of the simulated CMP (Table 1 of the paper:
//! 2D mesh, 75-byte links, 75 GB/s). The coherence protocol of `sim-mem`
//! rides on it; the G-line barrier network of `gline-core` deliberately
//! does **not** — that separation is the paper's whole point.
//!
//! Model:
//!
//! * **Topology** — `R × C` mesh, one router per tile, 5 ports each
//!   (North/South/East/West/Local), dimension-ordered XY routing
//!   (deadlock-free per virtual network).
//! * **Virtual networks** — one per [`sim_base::stats::MsgClass`]
//!   (Request / Reply / Coherence). This both matches the paper's
//!   Figure-7 traffic taxonomy and breaks protocol deadlock cycles.
//! * **Switching** — wormhole: packets are split into link-width flits;
//!   an output port is held by a packet from head to tail. One flit per
//!   output port per cycle.
//! * **Flow control** — credit-based; each input virtual channel buffers
//!   [`sim_base::config::NocConfig::vc_buffer_flits`] flits.
//! * **Timing** — `router_latency` cycles per router traversal plus
//!   `link_latency` per link.
//!
//! Host cost: a flit carries its destination and the output port it
//! takes at the router that currently buffers it, and each router keeps
//! a request mask per output port — bit `s` of `req[o]` set ⇔ slot `s`
//! is non-empty and its front flit routes to `o` (see [`router`]) — so
//! arbitration inspects only the slots that ask for an output. A
//! router's fifteen input buffers are rings in one flat allocation made
//! at construction. Packets in flight are parked in a slab indexed by a
//! slot the flit carries, which is also how a flit names its packet;
//! the tick path does no hashing and no allocation. The sparse tick
//! walks its work lists (tiles with queued flits, routers with buffered
//! ones) word by word in place, and `send` puts a flit straight into
//! the local input VC when the tick's injection phase would. A flit
//! that lands on a router holding nothing else, and would win its
//! output there this cycle without anyone seeing the difference, is
//! granted as it lands instead of being buffered for the arbitration
//! phase (the pass-through; five rules on `Noc::try_transit`). A flit
//! is 8 bytes and a flit on a link 24. The dense tick visits everything
//! and takes no shortcut — it is the oracle.
//!
//! Messages whose source and destination tile coincide (e.g. an L1 miss
//! whose L2 home bank is local) bypass the network, are delivered on the
//! next cycle and are *not* counted in traffic statistics — they never
//! cross a link, matching how the paper counts "messages across the
//! network".

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod msg;
pub mod network;
pub mod router;
pub mod stats;

pub use msg::Message;
pub use network::{Noc, NocSchedStats};
pub use stats::NocStats;

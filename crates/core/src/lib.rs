//! # gline-core — a G-line-based barrier network for many-core CMPs
//!
//! Cycle-accurate model of the hardware barrier proposed in
//! *"A G-line-based Network for Fast and Efficient Barrier Synchronization
//! in Many-Core CMPs"* (Abellán, Fernández, Acacio — ICPP 2010).
//!
//! ## The hardware
//!
//! A **G-line** is a global wire that broadcasts one bit across a full
//! dimension of the chip in a single clock cycle. **S-CSMA**
//! (sense-carrier multiple access) lets the single receiver on a line
//! *count* how many transmitters asserted it during the same cycle, so
//! several cores can "signal" simultaneously without arbitration.
//!
//! The barrier network for an `R × C` mesh uses `2 × (R + 1)` G-lines:
//! two per row (gather + release) and two for the first column. Four kinds
//! of controllers implement the synchronization (Figure 4 of the paper):
//!
//! * [`SlaveH`](controller::SlaveHState) — one per tile outside column 0.
//!   Pulses the row's *gather* line when its core writes `bar_reg`, then
//!   waits for the row's *release* line.
//! * [`MasterH`](controller::MasterHState) — one per row, in column 0.
//!   Counts gather pulses with S-CSMA; when the whole row (including its
//!   own core) has arrived it raises its `flag`.
//! * [`SlaveV`](controller::SlaveVState) — column-0 tiles of rows ≥ 1.
//!   Pulses the column *gather* line when the co-located `MasterH` flags.
//! * [`MasterV`](controller::MasterVState) — tile (0,0). Counts column
//!   pulses; when all rows have flagged, starts the release wave: column
//!   release line, then every row's release line, which clears every
//!   core's `bar_reg`.
//!
//! Once the last core arrives, the barrier completes in **4 cycles**
//! (gather row → gather column → release column → release row) regardless
//! of core count — the property the paper's Figure 5 demonstrates.
//!
//! ## What this crate provides
//!
//! * [`line::GLine`] — the wire itself, with transmitter budget checking
//!   and the S-CSMA count, plus a configurable propagation latency (the
//!   paper's "longer latency G-lines" extension).
//! * [`controller`] — the four finite state automata as pure transition
//!   functions, unit-tested against Figure 4.
//! * [`network::BarrierNetwork`] — a complete barrier network for any
//!   `R × C` mesh with any number of independent barrier *contexts* (the
//!   paper's future-work space multiplexing).
//! * [`cluster::ClusteredBarrierNetwork`] — two-level composition of
//!   G-line networks for meshes beyond the 7×7 electrical limit (the
//!   paper's future-work scaling scheme).
//! * [`hw::GlineHw`] — the network a machine configuration calls for:
//!   flat within the transmitter budget, clustered beyond it. Both
//!   networks and it implement [`BarrierHw`].
//!
//! ## Quick example
//!
//! ```
//! use gline_core::BarrierNetwork;
//! use sim_base::{config::GlineConfig, CoreId, Mesh2D};
//!
//! let mesh = Mesh2D::new(4, 8); // the paper's 32-core CMP
//! let mut net = BarrierNetwork::new(mesh, GlineConfig::default());
//!
//! // All 32 cores arrive at cycle 0 (write bar_reg = 1)…
//! for core in mesh.tiles() {
//!     net.write_bar_reg(core, 0, 1);
//! }
//! // …and the network releases them 4 cycles later.
//! let mut cycles = 0;
//! while (0..32).any(|c| net.bar_reg(CoreId(c), 0) != 0) {
//!     net.tick();
//!     cycles += 1;
//! }
//! assert_eq!(cycles, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod controller;
pub mod hw;
pub mod line;
pub mod network;
#[cfg(test)]
mod reference;
pub mod stats;

pub use cluster::ClusteredBarrierNetwork;
pub use hw::GlineHw;
pub use line::{GLine, Sensed};
pub use network::{BarrierHw, BarrierNetwork, CtxId};
pub use stats::GlineStats;

//! # sim-cmp — the full-system tiled-CMP simulator
//!
//! Puts the pieces together into the machine of the paper's Table 1:
//! in-order 2-way cores executing [`sim_isa`] programs, private L1s and a
//! distributed shared L2 with directory MESI ([`sim_mem`]) over a 2D-mesh
//! NoC ([`sim_noc`]), plus the dedicated G-line barrier network
//! ([`gline_core`]) that this paper proposes.
//!
//! * [`core`] — the core pipeline model and its per-cycle time
//!   attribution (the Figure-6 categories).
//! * [`runtime`] — the "system library": software barrier
//!   implementations (centralized sense-reversal CSW, binary
//!   combining-tree DSW), the G-line barrier stub (GL), and test&set
//!   locks, all emitted as ISA code.
//! * [`system`] — the machine itself: construct with programs, `run()`,
//!   inspect the [`report`](system::System::report).

#![forbid(unsafe_code)]

pub mod core;
pub mod runtime;
mod sched;
pub mod stats;
pub mod system;

pub use crate::core::{Core, Fault};
pub use runtime::BarrierKind;
pub use stats::SystemReport;
pub use system::{CoreSchedStats, SkipStats, System};

//! # gline-cmp — G-line barrier synchronization for many-core CMPs
//!
//! A full reproduction of *"A G-line-based Network for Fast and Efficient
//! Barrier Synchronization in Many-Core CMPs"* (Abellán, Fernández,
//! Acacio — ICPP 2010): the proposed hardware barrier network, the
//! cycle-level tiled-CMP simulator it is evaluated on, the software
//! barrier baselines, the benchmark suite, and a real-thread barrier
//! library.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`gline`] ([`gline_core`]) — **the paper's contribution**: G-lines,
//!   S-CSMA, the Figure-4 controller FSMs, flat and clustered barrier
//!   networks.
//! * [`base`] ([`sim_base`]) — mesh geometry, Table-1 configuration,
//!   statistics categories.
//! * [`isa`] ([`sim_isa`]) — the mini RISC ISA, assembler and reference
//!   interpreters.
//! * [`noc`] ([`sim_noc`]) — the 2D-mesh wormhole NoC.
//! * [`mem`] ([`sim_mem`]) — L1s + distributed L2 with directory MESI.
//! * [`cmp`] ([`sim_cmp`]) — the assembled machine, runtime library
//!   (GL/CSW/DSW barriers, locks) and reporting.
//! * [`trace`] ([`sim_trace`]) — a machine's input image on disk
//!   (per-core programs plus initial memory), kept for the repository
//!   benchmark's `trace_replay` workload.
//! * [`bench_workloads`] ([`workloads`]) — Table-2 benchmark generators.
//! * [`threads`] ([`swbarrier`]) — software barrier algorithms for real
//!   Rust threads.
//!
//! ## Quickstart
//!
//! ```
//! use gline_cmp::gline::{BarrierHw, BarrierNetwork};
//! use gline_cmp::base::{config::GlineConfig, Mesh2D};
//!
//! // The paper's 32-core CMP: a 4×8 mesh, 10 G-lines per barrier.
//! let mut net = BarrierNetwork::new(Mesh2D::new(4, 8), GlineConfig::default());
//! let latency = net.run_single_barrier(&vec![0; 32]);
//! assert_eq!(latency, 4); // "only 4 cycles … once all cores have arrived"
//! ```

pub use gline_core as gline;
pub use sim_base as base;
pub use sim_cmp as cmp;
pub use sim_isa as isa;
pub use sim_mem as mem;
pub use sim_noc as noc;
pub use sim_trace as trace;
pub use swbarrier as threads;
pub use workloads as bench_workloads;

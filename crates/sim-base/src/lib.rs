//! Foundations shared by every crate of the `gline-cmp` simulator.
//!
//! This crate deliberately has no knowledge of caches, networks or barriers.
//! It provides the vocabulary the rest of the system speaks:
//!
//! * [`ids`] — strongly-typed identifiers for cores/tiles and memory
//!   addresses (word- and line-granular).
//! * [`geom`] — 2D-mesh geometry: coordinates, enumeration orders,
//!   Manhattan distances and XY-routing hop counts.
//! * [`clock`] — the simulated-time type [`Cycle`].
//! * [`config`] — every tunable of the simulated CMP, with the exact
//!   ICPP 2010 Table 1 preset.
//! * [`stats`] — counters, histograms and the execution-time /
//!   network-traffic categories used by the paper's Figures 6 and 7.
//! * [`rng`] — a tiny deterministic SplitMix64 generator so that core
//!   simulator crates do not need an external RNG dependency.
//! * [`trace`] — the cycle-level event tracing subsystem: typed events,
//!   a tracer switched on and off at run time, Chrome `trace_event`
//!   export.
//! * [`json`] — a dependency-free JSON tree, writer and parser used for
//!   reports and traces.
//! * [`check`] — a deterministic seed-sweep property-testing loop.
//! * [`fxmap`] — an in-tree FxHash-style hasher and map aliases for the
//!   simulator's hot-path, trusted-key maps (fast and seedless, so
//!   iteration order is deterministic).
//! * [`active`] — the deterministic active-set scheduling primitive
//!   behind the sparse (work-list) tick paths of the NoC, the memory
//!   hierarchy and the core scheduler.

#![forbid(unsafe_code)]

pub mod active;
pub mod check;
pub mod clock;
pub mod config;
pub mod fxmap;
pub mod geom;
pub mod ids;
pub mod json;
pub mod rng;
pub mod stats;
pub mod trace;

pub use active::ActiveSet;
pub use clock::Cycle;
pub use config::CmpConfig;
pub use fxmap::{FxHashMap, FxHashSet};
pub use geom::{Coord, Mesh2D};
pub use ids::{Addr, CoreId, LineAddr};
pub use trace::{Event, RingSink, Tracer};

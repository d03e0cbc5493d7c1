//! # workloads — the paper's benchmark programs
//!
//! Generators for the seven benchmarks of Table 2, emitted as `sim-isa`
//! programs parameterized by core count and barrier implementation:
//!
//! | Benchmark    | Paper input                  | Structure                                    |
//! |--------------|------------------------------|----------------------------------------------|
//! | Synthetic    | 100k × 4 barriers            | pure barrier loop (Figure 5)                 |
//! | Kernel 2     | 1024 elems × 1000 iters      | ICCG-style array update, barrier per iter    |
//! | Kernel 3     | 1024 elems × 1000 iters      | inner product in registers, barrier per iter |
//! | Kernel 6     | 1024 elems × 1000 iters      | linear recurrence, barrier per element       |
//! | OCEAN        | 258×258 grid                 | red/black stencil sweeps, rare barriers      |
//! | UNSTRUCTURED | Mesh.2K, 1 step              | edge sweeps with per-node locks              |
//! | EM3D         | 38.4k nodes, deg 2, 15% rem  | bipartite graph relaxation, 2 barriers/step  |
//!
//! Every generator also accepts scaled-down sizes, because the paper's
//! inputs need billions of simulated cycles; the *structure* is what
//! Figures 5–7 measure. [`eval`] holds the evaluation's benchmark table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod common;
pub mod em3d;
pub mod eval;
pub mod livermore;
pub mod ocean;
pub mod random;
pub mod synthetic;
pub mod unstructured;

pub use common::{Workload, BARRIER_BASE, DATA_BASE};

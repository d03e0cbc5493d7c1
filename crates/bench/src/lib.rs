//! # bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (paper §4, Tables 1–2, Figures 2 and 5–7) on the reproduction stack, at
//! either scale of `workloads::eval`'s benchmark table. The
//! [`experiments`] module holds one function per artifact and backs the
//! `figures` binary; [`sweep`] fans its independent simulations across
//! host threads. Host cost is measured by the `glbench` package under
//! `benchmark/`, not here.

pub mod experiments;
pub mod sweep;

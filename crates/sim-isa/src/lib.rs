//! # sim-isa — the instruction set of the simulated cores
//!
//! The paper's software barriers (centralized sense-reversal and binary
//! combining tree) are *programs*: their cost comes from the loads, stores
//! and atomics they execute through the cache-coherence protocol. To model
//! that faithfully the simulated cores run real code in a miniature RISC
//! ISA instead of abstract "synchronize" events.
//!
//! The ISA is deliberately small but complete enough for the paper's
//! workloads:
//!
//! * 32 general-purpose 64-bit registers, `r0` hard-wired to zero;
//! * ALU register-register and register-immediate operations;
//! * word loads and stores (`ld`/`st`), which the full-system simulator
//!   routes through L1/L2/directory;
//! * atomic read-modify-writes (`amoadd`, `amoswap`) — the `fetch&op` /
//!   `test&set` class of primitives the paper names as the hardware half
//!   of software synchronization;
//! * branches and jump-and-link for loops and subroutines;
//! * `busy n` — n cycles of pure computation (compact workload modelling);
//! * `barw` / `barr` — write/read the G-line `bar_reg` special register
//!   (Section 3.3 of the paper);
//! * `halt`.
//!
//! The crate provides the instruction type ([`inst::Inst`]), a text
//! [`asm`]sembler and disassembler, a programmatic [`builder`], and
//! [`interp`] — architectural reference interpreters (single- and
//! multi-core) used as golden models by the cycle-accurate simulator's
//! tests.
//!
//! A [`Program`] is its instructions and nothing else: branch targets
//! are absolute instruction indices, resolved once when the program is
//! assembled or built. Label names live only as long as parsing (in
//! [`assemble`]); the builder's labels are nameless [`Label`] handles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asm;
pub mod builder;
pub mod inst;
pub mod interp;
pub mod reg;

pub use asm::{assemble, disassemble, AsmError};
pub use builder::{Label, Labels, ProgBuilder};
pub use inst::{Inst, Program};
pub use reg::Reg;

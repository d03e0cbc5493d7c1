//! # sim-trace — a machine's input image on disk
//!
//! A recording of a run is the machine's input: one [`Program`] per
//! core and the memory words poked before cycle 0. Re-running that
//! image on the exec-driven simulator reproduces the run exactly, so
//! nothing else needs storing (`DESIGN.md` §11 has the ruling that
//! replaced the old trace-driven engine with this).
//!
//! The crate exists for one client: the `trace_replay` workload of the
//! repository benchmark (`benchmark/`), which records, writes, reads
//! and re-runs images through `System::run_recorded` /
//! `System::replay`. It goes together with that workload.
//!
//! * [`CoreTrace`] — one core's program, encoded by [`encode_core`] /
//!   [`decode_core`] as a `GLTR` header (magic, [`FORMAT_VERSION`], core
//!   id, text length) followed by the program's
//!   [`sim_isa::disassemble`] text, read back with [`sim_isa::assemble`].
//! * [`TraceSet`] — a whole machine's image, written to / read from a
//!   directory by [`write_dir`] / [`read_dir`] (`manifest.json` + one
//!   `core<i>.trace` file per core).
//!
//! Decoding never panics on hostile input: truncated, corrupted and
//! wrong-version files all come back as a structured [`TraceError`]
//! (property-tested in `tests/prop.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod codec;
mod dir;

pub use codec::{decode_core, encode_core};
pub use dir::{read_dir, write_dir};

use sim_isa::Program;

/// Format version written by this crate (bumped on any layout change).
pub const FORMAT_VERSION: u32 = 2;

/// Magic bytes opening every per-core file.
pub const MAGIC: [u8; 4] = *b"GLTR";

/// One core's share of a machine image: the program it runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreTrace {
    /// The core this program belongs to.
    pub core: u32,
    /// The program the core runs from cycle 0.
    pub prog: Program,
}

/// A whole machine's input image: one [`CoreTrace`] per core plus the
/// memory words poked before cycle 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSet {
    /// Per-core programs, indexed by core id.
    pub cores: Vec<CoreTrace>,
    /// Initial memory image: (byte address, value) pairs poked before
    /// cycle 0.
    pub pokes: Vec<(u64, u64)>,
    /// Free-form provenance label (workload name).
    pub workload: String,
}

/// Why an image could not be read. Every variant is a graceful
/// rejection — hostile bytes never panic the decoder.
#[derive(Debug)]
pub enum TraceError {
    /// Filesystem error (annotated with the path involved).
    Io(String, std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is not [`FORMAT_VERSION`].
    BadVersion(u32),
    /// The file ends in the middle of a field.
    Truncated {
        /// Byte offset at which the read ran out.
        offset: usize,
        /// What the decoder was reading.
        reading: &'static str,
    },
    /// A field holds an impossible value.
    Corrupt {
        /// Byte offset of the offending field.
        offset: usize,
        /// What is wrong with it.
        what: String,
    },
    /// The directory's files disagree with each other or the manifest.
    Inconsistent(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(path, e) => write!(f, "{path}: {e}"),
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::BadVersion(v) => {
                write!(
                    f,
                    "trace format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            TraceError::Truncated { offset, reading } => {
                write!(f, "truncated at byte {offset} while reading {reading}")
            }
            TraceError::Corrupt { offset, what } => write!(f, "corrupt at byte {offset}: {what}"),
            TraceError::Inconsistent(what) => write!(f, "inconsistent trace set: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

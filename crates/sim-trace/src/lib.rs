//! # sim-trace — on-disk execution traces for trace-driven replay
//!
//! The exec-driven simulator interprets ISA programs every run. For
//! large sweeps that cost is pure overhead: the timing-relevant
//! behaviour of a core is fully described by the sequence of *issue
//! groups* it executes — how many instructions retired, which memory
//! request (if any) the group issued, which barrier writes it performed
//! — because everything between issue groups is a pure stall whose
//! length the memory hierarchy and barrier network reproduce on their
//! own. This crate defines that sequence as a compact, versioned
//! on-disk format (`DESIGN.md` §11):
//!
//! * [`TraceOp`] — one issue group ([`Step`]) or a run-length
//!   compressed spin loop ([`TraceOp::GlineSpin`], [`TraceOp::MemSpin`]).
//! * [`CoreTrace`] — one core's op sequence; encoded to a
//!   length-prefixed binary file (`core<i>.trace`) by [`encode_core`] /
//!   [`decode_core`].
//! * [`TraceSet`] — a whole machine's traces plus the initial memory
//!   image, written to / read from a directory by [`write_dir`] /
//!   [`read_dir`] (`manifest.json` + one trace file per core).
//!
//! Decoding never panics on hostile input: truncated, corrupted and
//! wrong-version files all come back as a structured [`TraceError`]
//! (property-tested in `tests/prop.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod codec;
mod dir;
mod format;

pub use codec::{decode_core, encode_core};
pub use dir::{read_dir, write_dir};
pub use format::{CoreTrace, Effect, Step, TraceOp, TraceSet};

/// Format version written by this crate (bumped on any layout change).
pub const FORMAT_VERSION: u32 = 1;

/// Magic bytes opening every per-core trace file.
pub const MAGIC: [u8; 4] = *b"GLTR";

/// Why a trace could not be read. Every variant is a graceful rejection
/// — hostile bytes never panic the decoder.
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

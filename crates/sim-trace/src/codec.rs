//! Binary framing of one core's program.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    b"GLTR"
//! version  u32
//! core     u32
//! text_len u64
//! text     text_len bytes of UTF-8: sim_isa::disassemble(prog)
//! ```
//!
//! No trailing bytes are tolerated and every read is bounds-checked, so
//! a truncated or bit-flipped file decodes to a [`TraceError`], never a
//! panic; the text goes through [`sim_isa::assemble`], which names the
//! line of any error.

use crate::{CoreTrace, TraceError, FORMAT_VERSION, MAGIC};
use sim_isa::{assemble, disassemble};

/// Encodes one core's program into the versioned layout.
pub fn encode_core(t: &CoreTrace) -> Vec<u8> {
    let text = disassemble(&t.prog);
    let mut out = Vec::with_capacity(20 + text.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&t.core.to_le_bytes());
    out.extend_from_slice(&(text.len() as u64).to_le_bytes());
    out.extend_from_slice(text.as_bytes());
    out
}

/// A bounds-checked little-endian reader over the raw bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, reading: &'static str) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(TraceError::Truncated {
                offset: self.pos,
                reading,
            }),
        }
    }

    fn u32(&mut self, reading: &'static str) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(
            self.take(4, reading)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, reading: &'static str) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(
            self.take(8, reading)?.try_into().expect("8 bytes"),
        ))
    }

    fn corrupt(&self, offset: usize, what: impl Into<String>) -> TraceError {
        TraceError::Corrupt {
            offset,
            what: what.into(),
        }
    }
}

/// Decodes one core's program, rejecting malformed input gracefully.
///
/// # Errors
/// [`TraceError`] on bad magic, unknown version, truncation, text that
/// is not UTF-8 or does not assemble, or trailing bytes.
pub fn decode_core(bytes: &[u8]) -> Result<CoreTrace, TraceError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4, "magic")? != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = r.u32("version")?;
    if version != FORMAT_VERSION {
        return Err(TraceError::BadVersion(version));
    }
    let core = r.u32("core id")?;
    let len = r.u64("text length")?;
    let start = r.pos;
    // `take` bounds the length by the bytes present, so a hostile
    // length allocates nothing.
    let text = r.take(usize::try_from(len).unwrap_or(usize::MAX), "program text")?;
    if r.pos != bytes.len() {
        return Err(r.corrupt(r.pos, format!("{} trailing bytes", bytes.len() - r.pos)));
    }
    let text = std::str::from_utf8(text)
        .map_err(|e| r.corrupt(start + e.valid_up_to(), "program text is not UTF-8"))?;
    let prog = assemble(text).map_err(|e| r.corrupt(start, format!("program text: {e}")))?;
    Ok(CoreTrace { core, prog })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoreTrace {
        let prog = assemble(
            "li r1, 1\nbarw r1\nspin: barr r2\nbne r2, r0, spin\nli r3, 0x8000\nst r1, 0(r3)\nhalt",
        )
        .unwrap();
        CoreTrace { core: 3, prog }
    }

    #[test]
    fn round_trips() {
        let t = sample();
        assert_eq!(decode_core(&encode_core(&t)).unwrap(), t);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut b = encode_core(&sample());
        b[0] = b'X';
        assert!(matches!(decode_core(&b), Err(TraceError::BadMagic)));
    }

    #[test]
    fn rejects_other_versions() {
        let mut b = encode_core(&sample());
        b[4] = 1;
        assert!(matches!(decode_core(&b), Err(TraceError::BadVersion(1))));
    }

    #[test]
    fn rejects_every_truncation_point() {
        let b = encode_core(&sample());
        for len in 0..b.len() {
            assert!(
                decode_core(&b[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut b = encode_core(&sample());
        b.push(b'\n');
        assert!(matches!(decode_core(&b), Err(TraceError::Corrupt { .. })));
    }

    #[test]
    fn rejects_text_that_does_not_assemble() {
        let mut b = encode_core(&sample());
        let at = b.len() - 2;
        b[at] = 0xff;
        assert!(matches!(decode_core(&b), Err(TraceError::Corrupt { .. })));
        let mut b = encode_core(&sample());
        let at = b.len() - 3;
        b[at] = b'X';
        let err = decode_core(&b).unwrap_err().to_string();
        assert!(err.contains("program text"), "{err}");
    }

    #[test]
    fn rejects_huge_text_length_without_allocating() {
        let mut b = encode_core(&sample());
        // text_len sits at bytes 12..20.
        b[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode_core(&b), Err(TraceError::Truncated { .. })));
    }
}

//! Property tests for the image format: round-trip fidelity over
//! generated programs, and graceful rejection — an `Err`, never a panic
//! — of truncated, bit-flipped, wrong-magic and wrong-version files and
//! of corrupt manifests. [`read_dir`] reads input from outside the
//! program, so none of it may panic.
//!
//! The generator builds arbitrary programs (any instruction mix, branch
//! targets anywhere up to one past the end), so the codec is held to its
//! full contract, then attacks the encoded bytes. Decoding attacked
//! bytes may still succeed (flipping a digit of an immediate yields a
//! different valid program), but whatever comes back must itself be a
//! fixpoint of the codec — the decoder never hands back a program it
//! could not write again.

use sim_base::check::{forall, forall_cases};
use sim_base::rng::SplitMix64;
use sim_isa::inst::{AluOp, AmoOp, BranchCond, Inst, Region};
use sim_isa::{Program, Reg};
use sim_trace::{decode_core, encode_core, read_dir, write_dir, CoreTrace, TraceError, TraceSet};

fn reg(rng: &mut SplitMix64) -> Reg {
    Reg(rng.next_below(32) as u8)
}

/// Any instruction with branch targets within `len`.
fn gen_inst(rng: &mut SplitMix64, len: usize) -> Inst {
    let target = rng.next_below(len as u64 + 1) as usize;
    let off = (rng.next_below(8192) as i64 - 4096) * 8;
    match rng.next_below(12) {
        0 => Inst::Li {
            rd: reg(rng),
            imm: rng.next_u64() as i64,
        },
        1 => Inst::AluI {
            op: [AluOp::Add, AluOp::Sll, AluOp::Sltu][rng.next_below(3) as usize],
            rd: reg(rng),
            rs1: reg(rng),
            imm: rng.next_u64() as i64,
        },
        2 => Inst::Ld {
            rd: reg(rng),
            rs1: reg(rng),
            off,
        },
        3 => Inst::St {
            rs2: reg(rng),
            rs1: reg(rng),
            off,
        },
        4 => Inst::Amo {
            op: [AmoOp::Add, AmoOp::Swap][rng.next_below(2) as usize],
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        },
        5 => Inst::Branch {
            cond: [BranchCond::Eq, BranchCond::Ne, BranchCond::Lt][rng.next_below(3) as usize],
            rs1: reg(rng),
            rs2: reg(rng),
            target,
        },
        6 => Inst::Jal {
            rd: reg(rng),
            target,
        },
        7 => Inst::Busy {
            cycles: rng.next_below(1000) as u32,
        },
        8 => Inst::BarWrite { rs1: reg(rng) },
        9 => Inst::BarRead { rd: reg(rng) },
        10 => Inst::SetRegion {
            region: [Region::Normal, Region::Barrier, Region::Lock][rng.next_below(3) as usize],
        },
        _ => Inst::Halt,
    }
}

fn gen_trace(rng: &mut SplitMix64) -> CoreTrace {
    let len = rng.next_below(40) as usize;
    let insts = (0..len).map(|_| gen_inst(rng, len)).collect();
    CoreTrace {
        core: rng.next_below(4096) as u32,
        prog: Program::from_insts(insts),
    }
}

#[test]
fn round_trip_preserves_any_program() {
    forall("trace_round_trip", |rng| {
        let t = gen_trace(rng);
        let bytes = encode_core(&t);
        let back = decode_core(&bytes).expect("round trip decodes");
        assert_eq!(t, back, "decode(encode(t)) != t");
    });
}

#[test]
fn truncation_at_any_point_is_rejected_without_panic() {
    forall("trace_truncation", |rng| {
        let t = gen_trace(rng);
        let bytes = encode_core(&t);
        // Cut at a random prefix (including the empty file), plus the
        // boundary just before the end — every cut must produce a
        // structured error, not a panic or a silently-shorter trace.
        for cut in [
            rng.next_below(bytes.len() as u64) as usize,
            bytes.len() - 1,
            0,
        ] {
            match decode_core(&bytes[..cut]) {
                Err(_) => {}
                Ok(back) => panic!(
                    "decoding a {cut}/{} byte prefix produced a program of {} instructions",
                    bytes.len(),
                    back.prog.len()
                ),
            }
        }
    });
}

#[test]
fn trailing_garbage_is_rejected() {
    forall_cases("trace_trailing_garbage", 16, |rng| {
        let t = gen_trace(rng);
        let mut bytes = encode_core(&t);
        bytes.push(rng.next_u64() as u8);
        assert!(
            decode_core(&bytes).is_err(),
            "trailing bytes must be rejected"
        );
    });
}

#[test]
fn corruption_never_panics_and_decodes_only_fixpoints() {
    forall("trace_corruption", |rng| {
        let t = gen_trace(rng);
        let mut bytes = encode_core(&t);
        // Flip 1–8 random bits anywhere in the stream.
        for _ in 0..1 + rng.next_below(8) {
            let i = rng.next_below(bytes.len() as u64) as usize;
            bytes[i] ^= 1 << rng.next_below(8);
        }
        // A flip in the text can legitimately decode (to a different
        // program); what must never happen is a panic or an `Ok`
        // carrying a program the codec cannot carry again.
        if let Ok(back) = decode_core(&bytes) {
            let again = decode_core(&encode_core(&back)).expect("a decoded program re-encodes");
            assert_eq!(back, again, "decode is not a fixpoint after corruption");
        }
    });
}

#[test]
fn wrong_magic_and_version_are_structured_errors() {
    forall_cases("trace_magic_version", 16, |rng| {
        let t = gen_trace(rng);
        let good = encode_core(&t);

        let mut bad_magic = good.clone();
        bad_magic[rng.next_below(4) as usize] ^= 0xff;
        assert!(
            matches!(decode_core(&bad_magic), Err(TraceError::BadMagic)),
            "corrupt magic must be BadMagic"
        );

        let mut bad_version = good.clone();
        let v = 3 + rng.next_below(1 << 30) as u32;
        bad_version[4..8].copy_from_slice(&v.to_le_bytes());
        assert!(
            matches!(decode_core(&bad_version), Err(TraceError::BadVersion(got)) if got == v),
            "another version must be BadVersion"
        );
    });
}

#[test]
fn dir_round_trip_and_manifest_corruption() {
    forall_cases("trace_dir_round_trip", 16, |rng| {
        let set = TraceSet {
            cores: (0..1 + rng.next_below(4))
                .map(|i| {
                    let mut t = gen_trace(rng);
                    t.core = i as u32;
                    t
                })
                .collect(),
            pokes: (0..rng.next_below(4))
                .map(|_| (rng.next_u64() & 0xffff_fff8, rng.next_u64()))
                .collect(),
            workload: format!("prop-{}", rng.next_u64()),
        };
        let dir = std::env::temp_dir().join(format!("gltr-prop-{}", rng.next_u64()));
        write_dir(&dir, &set).expect("write_dir");
        let back = read_dir(&dir).expect("read_dir");
        assert_eq!(set, back, "directory round trip changed the trace set");

        // Manifest attacks must come back as errors, not panics.
        std::fs::write(dir.join("manifest.json"), "{ not json").unwrap();
        assert!(read_dir(&dir).is_err(), "corrupt manifest must be rejected");
        std::fs::remove_file(dir.join("manifest.json")).unwrap();
        assert!(read_dir(&dir).is_err(), "missing manifest must be rejected");
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

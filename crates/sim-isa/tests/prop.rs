//! Property tests for the ISA: assembler/disassembler round trips over
//! arbitrary programs, and interpreter invariants.
//!
//! Runs on the in-repo seed-sweep harness ([`sim_base::check`]) instead of
//! an external property-testing crate, so the suite builds fully offline.

use sim_base::check::{forall, forall_cases};
use sim_base::rng::SplitMix64;
use sim_isa::inst::{AluOp, AmoOp, BranchCond, Inst, Region};
use sim_isa::interp::{Machine, RefCmp};
use sim_isa::{assemble, disassemble, ProgBuilder, Program, Reg};

fn arb_reg(rng: &mut SplitMix64) -> Reg {
    Reg(rng.next_below(32) as u8)
}

const ALU_OPS: [AluOp; 12] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Slt,
    AluOp::Sltu,
];

fn arb_alu(rng: &mut SplitMix64) -> AluOp {
    ALU_OPS[rng.next_below(ALU_OPS.len() as u64) as usize]
}

/// Any instruction with branch targets within `len`.
fn arb_inst(rng: &mut SplitMix64, len: usize) -> Inst {
    let target = |rng: &mut SplitMix64| rng.next_below(len as u64 + 1) as usize;
    match rng.next_below(16) {
        0 => Inst::Li {
            rd: arb_reg(rng),
            imm: rng.next_u64() as i64,
        },
        1 => Inst::Alu {
            op: arb_alu(rng),
            rd: arb_reg(rng),
            rs1: arb_reg(rng),
            rs2: arb_reg(rng),
        },
        2 => Inst::AluI {
            op: arb_alu(rng),
            rd: arb_reg(rng),
            rs1: arb_reg(rng),
            imm: rng.next_u64() as i64,
        },
        3 => Inst::Ld {
            rd: arb_reg(rng),
            rs1: arb_reg(rng),
            off: (rng.next_below(8192) as i64 - 4096) * 8,
        },
        4 => Inst::St {
            rs2: arb_reg(rng),
            rs1: arb_reg(rng),
            off: (rng.next_below(8192) as i64 - 4096) * 8,
        },
        5 => Inst::Amo {
            op: if rng.chance(0.5) {
                AmoOp::Add
            } else {
                AmoOp::Swap
            },
            rd: arb_reg(rng),
            rs1: arb_reg(rng),
            rs2: arb_reg(rng),
        },
        6 => Inst::Branch {
            cond: [
                BranchCond::Eq,
                BranchCond::Ne,
                BranchCond::Lt,
                BranchCond::Ge,
            ][rng.next_below(4) as usize],
            rs1: arb_reg(rng),
            rs2: arb_reg(rng),
            target: target(rng),
        },
        7 => Inst::Jal {
            rd: arb_reg(rng),
            target: target(rng),
        },
        8 => Inst::Jalr {
            rd: arb_reg(rng),
            rs1: arb_reg(rng),
        },
        9 => Inst::Busy {
            cycles: rng.next_below(1000) as u32,
        },
        10 => Inst::BarWrite { rs1: arb_reg(rng) },
        11 => Inst::BarRead { rd: arb_reg(rng) },
        12 => Inst::BarCtx {
            ctx: rng.next_below(256) as u8,
        },
        13 => Inst::SetRegion {
            region: [Region::Normal, Region::Barrier, Region::Lock][rng.next_below(3) as usize],
        },
        14 => Inst::Halt,
        _ => Inst::Nop,
    }
}

#[test]
fn disassemble_assemble_round_trips() {
    forall_cases("disassemble_assemble_round_trips", 128, |rng| {
        let len = 1 + rng.next_below(39) as usize;
        let insts: Vec<Inst> = (0..len).map(|_| arb_inst(rng, len)).collect();
        let p1 = Program::from_insts(insts);
        let text = disassemble(&p1);
        let p2 = assemble(&text).unwrap_or_else(|e| panic!("reassembly failed: {e}\n{text}"));
        assert_eq!(
            p1.insts(),
            p2.insts(),
            "round trip changed program:\n{text}"
        );
    });
}

#[test]
fn alu_ops_never_panic() {
    forall_cases("alu_ops_never_panic", 128, |rng| {
        let op = arb_alu(rng);
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let _ = op.apply(a, b);
        // Division corner cases must be defined, not trapping.
        let _ = op.apply(a, 0);
        let _ = op.apply(u64::MAX, u64::MAX);
    });
}

#[test]
fn r0_is_always_zero() {
    forall("r0_is_always_zero", |rng| {
        let imm = rng.next_u64() as i64;
        let p = assemble(&format!("li r0, {imm}\nadd r0, r0, r0\nhalt")).unwrap();
        let mut m = Machine::new();
        let mut mem = vec![0u64; 1];
        while !m.halted {
            m.step(&p, &mut mem).unwrap();
        }
        assert_eq!(m.reg(Reg::ZERO), 0);
    });
}

#[test]
fn straightline_alu_programs_terminate_with_correct_sums() {
    forall(
        "straightline_alu_programs_terminate_with_correct_sums",
        |rng| {
            let n = 1 + rng.next_below(19) as usize;
            let vals: Vec<u64> = (0..n).map(|_| rng.next_below(1_000_000)).collect();
            // li + repeated addi: the machine must fold the same total.
            let mut src = String::from("li r1, 0\n");
            for v in &vals {
                src.push_str(&format!("addi r1, r1, {v}\n"));
            }
            src.push_str("halt");
            let p = assemble(&src).unwrap();
            let mut cmp = RefCmp::new(1, 0);
            cmp.run(&[&p], 10_000).unwrap();
            assert_eq!(cmp.cores[0].reg(Reg::r(1)), vals.iter().sum::<u64>());
        },
    );
}

/// Builds one random program twice — with [`ProgBuilder`] label handles
/// and as assembly text naming the same labels — with forward and
/// backward branches and `jal`s, several labels on one position and
/// labels at the end.
fn builder_and_text(rng: &mut SplitMix64) -> (Program, String) {
    let len = 1 + rng.next_below(40) as usize;
    let n_labels = 1 + rng.next_below(6) as usize;
    let mut b = ProgBuilder::new();
    let labels: Vec<_> = (0..n_labels).map(|_| b.new_label()).collect();
    let pos: Vec<usize> = (0..n_labels)
        .map(|_| rng.next_below(len as u64 + 1) as usize)
        .collect();
    let mut text = String::new();
    for pc in 0..=len {
        for (k, _) in pos.iter().enumerate().filter(|&(_, &p)| p == pc) {
            b.bind(labels[k]);
            text.push_str(&format!("l{k}:\n"));
        }
        if pc == len {
            break;
        }
        let k = rng.next_below(n_labels as u64) as usize;
        let (rs1, rs2) = (arb_reg(rng), arb_reg(rng));
        match rng.next_below(4) {
            0 => {
                let cond = [
                    BranchCond::Eq,
                    BranchCond::Ne,
                    BranchCond::Lt,
                    BranchCond::Ge,
                ][rng.next_below(4) as usize];
                match cond {
                    BranchCond::Eq => b.beq(rs1, rs2, labels[k]),
                    BranchCond::Ne => b.bne(rs1, rs2, labels[k]),
                    BranchCond::Lt => b.blt(rs1, rs2, labels[k]),
                    BranchCond::Ge => b.bge(rs1, rs2, labels[k]),
                };
                text.push_str(&format!("{} {rs1}, {rs2}, l{k}\n", cond.mnemonic()));
            }
            1 => {
                b.jal(rs1, labels[k]);
                text.push_str(&format!("jal {rs1}, l{k}\n"));
            }
            2 => {
                b.jump(labels[k]);
                text.push_str(&format!("j l{k}\n"));
            }
            _ => {
                let inst = loop {
                    let i = arb_inst(rng, len);
                    if !matches!(i, Inst::Branch { .. } | Inst::Jal { .. }) {
                        break i;
                    }
                };
                b.inst(inst);
                text.push_str(&disassemble(&Program::from_insts(vec![inst])));
            }
        }
    }
    (b.build(), text)
}

#[test]
fn builder_labels_match_assembled_text() {
    forall_cases("builder_labels_match_assembled_text", 256, |rng| {
        let (built, text) = builder_and_text(rng);
        let assembled = assemble(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(built.insts(), assembled.insts(), "{text}");
    });
}

/// Whitespace- and comma-separated token spans of `s`.
fn token_spans(s: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in s.char_indices() {
        let sep = c.is_whitespace() || c == ',';
        match (start, sep) {
            (None, false) => start = Some(i),
            (Some(s0), true) => {
                spans.push((s0, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s0) = start {
        spans.push((s0, s.len()));
    }
    spans
}

/// Tokens spliced into valid source: out-of-range numbers and registers,
/// stray punctuation, duplicate and undefined labels.
const SPLICES: [&str; 24] = [
    "99999999999999999999",
    "-99999999999999999999",
    "0xFFFFFFFFFFFFFFFFF",
    "-0x8000000000000000",
    "-9223372036854775808",
    "0x",
    "-",
    "4294967296",
    "256",
    "r32",
    "r255",
    "r256",
    "r-1",
    "r",
    "(",
    ")",
    "()",
    "0(r1",
    ":",
    "x:\nx:",
    "beq r1, r2, nowhere",
    "j",
    "l0:",
    "\u{e9}:",
];

/// A valid program to mangle: the G-line barrier loop, or a random one.
fn mangle_base(rng: &mut SplitMix64) -> String {
    if rng.chance(0.3) {
        "li r10, 20\nloop: li r1, 1\nbarw r1\nspin: barr r2\nbne r2, r0, spin\n\
         addi r10, r10, -1\nbne r10, r0, loop\nld r3, 8(r4)\namoadd r5, r6, (r7)\n\
         busy 40\nbarctx 1\nregion barrier\nhalt\n"
            .to_string()
    } else {
        builder_and_text(rng).1
    }
}

#[test]
fn assembler_never_panics_on_mangled_source() {
    forall_cases("assembler_never_panics_on_mangled_source", 2048, |rng| {
        let mut src = mangle_base(rng);
        for _ in 0..1 + rng.next_below(3) {
            match rng.next_below(3) {
                // Truncation at any byte (lossily, mid-character too).
                0 => {
                    let cut = rng.next_below(src.len() as u64 + 1) as usize;
                    src = String::from_utf8_lossy(&src.as_bytes()[..cut]).into_owned();
                }
                // A byte flip to any value.
                1 if !src.is_empty() => {
                    let mut bytes = src.into_bytes();
                    let at = rng.next_below(bytes.len() as u64) as usize;
                    bytes[at] = rng.next_below(256) as u8;
                    src = String::from_utf8_lossy(&bytes).into_owned();
                }
                // A token replaced by a splice.
                _ => {
                    let spans = token_spans(&src);
                    if spans.is_empty() {
                        continue;
                    }
                    let (s, e) = spans[rng.next_below(spans.len() as u64) as usize];
                    let splice = SPLICES[rng.next_below(SPLICES.len() as u64) as usize];
                    src.replace_range(s..e, splice);
                }
            }
        }
        if let Err(e) = assemble(&src) {
            let lines = src.lines().count();
            assert!(
                (1..=lines).contains(&e.line),
                "error line {} outside 1..={lines}: {e}\n{src}",
                e.line
            );
        }
    });
}

#[test]
fn interpreter_counts_retired_instructions() {
    forall("interpreter_counts_retired_instructions", |rng| {
        let n = 1 + rng.next_below(99) as usize;
        let src = "nop\n".repeat(n) + "halt";
        let p = assemble(&src).unwrap();
        let mut cmp = RefCmp::new(1, 0);
        cmp.run(&[&p], 10_000).unwrap();
        assert_eq!(cmp.cores[0].retired, n as u64 + 1);
    });
}

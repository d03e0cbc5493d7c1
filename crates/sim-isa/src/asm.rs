//! Text assembler and disassembler.
//!
//! Syntax (one instruction per line; `#` or `;` start a comment):
//!
//! ```text
//!     li   r1, 100
//! loop:
//!     ld   r2, 0(r3)        # word load
//!     add  r4, r4, r2
//!     addi r3, r3, 8
//!     addi r1, r1, -1
//!     bne  r1, r0, loop
//!     amoadd r5, r6, (r7)   # r5 = old M[r7]; M[r7] += r6
//!     barw r1               # announce barrier arrival
//! spin:
//!     barr r2
//!     bne  r2, r0, spin     # wait for the G-line release
//!     halt
//! ```

use crate::inst::{AluOp, AmoOp, BranchCond, Inst, Program, Region};
use crate::reg::Reg;
use sim_base::fxmap::FxHashMap;
use std::fmt;

/// An assembly error with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        msg: msg.into(),
    })
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    let t = tok.trim();
    let Some(num) = t.strip_prefix('r') else {
        return err(line, format!("expected register, got `{t}`"));
    };
    match num.parse::<u8>() {
        Ok(n) if (n as usize) < crate::reg::NUM_REGS => Ok(Reg(n)),
        _ => err(line, format!("bad register `{t}`")),
    }
}

fn parse_imm(tok: &str, line: usize) -> Result<i64, AsmError> {
    let t = tok.trim();
    let (neg, rest) = match t.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, t),
    };
    let v = if let Some(hex) = rest.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map(|v| v as i64)
    } else {
        rest.parse::<i64>()
    };
    match v {
        // A hex literal is a bit pattern, so `-0x8000000000000000`
        // negates i64::MIN: wrap, as two's complement does.
        Ok(v) => Ok(if neg { v.wrapping_neg() } else { v }),
        Err(_) => err(line, format!("bad immediate `{t}`")),
    }
}

/// Parses `off(rN)`.
fn parse_mem_operand(tok: &str, line: usize) -> Result<(i64, Reg), AsmError> {
    let t = tok.trim();
    let Some(open) = t.find('(') else {
        return err(line, format!("expected `off(reg)`, got `{t}`"));
    };
    if !t.ends_with(')') {
        return err(line, format!("missing `)` in `{t}`"));
    }
    let off_str = &t[..open];
    let reg_str = &t[open + 1..t.len() - 1];
    let off = if off_str.trim().is_empty() {
        0
    } else {
        parse_imm(off_str, line)?
    };
    Ok((off, parse_reg(reg_str, line)?))
}

fn alu_op(m: &str) -> Option<AluOp> {
    Some(match m {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "mul" => AluOp::Mul,
        "div" => AluOp::Div,
        "rem" => AluOp::Rem,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "sll" => AluOp::Sll,
        "srl" => AluOp::Srl,
        "slt" => AluOp::Slt,
        "sltu" => AluOp::Sltu,
        _ => return None,
    })
}

fn branch_cond(m: &str) -> Option<BranchCond> {
    Some(match m {
        "beq" => BranchCond::Eq,
        "bne" => BranchCond::Ne,
        "blt" => BranchCond::Lt,
        "bge" => BranchCond::Ge,
        _ => return None,
    })
}

/// A not-yet-resolved jump target.
enum PendingTarget {
    None,
    Label(String),
}

/// Assembles source text into a [`Program`]. Label names are resolved
/// here and not kept: the program holds only instructions.
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    let mut insts: Vec<Inst> = Vec::new();
    let mut labels: FxHashMap<String, usize> = FxHashMap::default();
    // (inst index, label, source line) to patch after the label pass.
    let mut fixups: Vec<(usize, String, usize)> = Vec::new();

    for (lineno0, raw) in src.lines().enumerate() {
        let line = lineno0 + 1;
        let mut text = raw;
        if let Some(p) = text.find(['#', ';']) {
            text = &text[..p];
        }
        let mut text = text.trim();
        // Possibly several labels on the line: `a: b: inst`.
        while let Some(colon) = text.find(':') {
            let name = text[..colon].trim();
            if name.is_empty() || name.contains(char::is_whitespace) {
                return err(line, format!("bad label `{name}`"));
            }
            if labels.insert(name.to_string(), insts.len()).is_some() {
                return err(line, format!("duplicate label `{name}`"));
            }
            text = text[colon + 1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(p) => (&text[..p], text[p..].trim()),
            None => (text, ""),
        };
        let ops: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        let need = |n: usize| -> Result<(), AsmError> {
            if ops.len() == n {
                Ok(())
            } else {
                err(
                    line,
                    format!("`{mnemonic}` expects {n} operand(s), got {}", ops.len()),
                )
            }
        };

        let mut pending = PendingTarget::None;
        let inst = if let Some(op) = alu_op(mnemonic) {
            need(3)?;
            Inst::Alu {
                op,
                rd: parse_reg(ops[0], line)?,
                rs1: parse_reg(ops[1], line)?,
                rs2: parse_reg(ops[2], line)?,
            }
        } else if let Some(op) = mnemonic.strip_suffix('i').and_then(alu_op) {
            need(3)?;
            Inst::AluI {
                op,
                rd: parse_reg(ops[0], line)?,
                rs1: parse_reg(ops[1], line)?,
                imm: parse_imm(ops[2], line)?,
            }
        } else if let Some(cond) = branch_cond(mnemonic) {
            need(3)?;
            pending = PendingTarget::Label(ops[2].to_string());
            Inst::Branch {
                cond,
                rs1: parse_reg(ops[0], line)?,
                rs2: parse_reg(ops[1], line)?,
                target: usize::MAX,
            }
        } else {
            match mnemonic {
                "li" => {
                    need(2)?;
                    Inst::Li {
                        rd: parse_reg(ops[0], line)?,
                        imm: parse_imm(ops[1], line)?,
                    }
                }
                "ld" => {
                    need(2)?;
                    let (off, rs1) = parse_mem_operand(ops[1], line)?;
                    Inst::Ld {
                        rd: parse_reg(ops[0], line)?,
                        rs1,
                        off,
                    }
                }
                "st" => {
                    need(2)?;
                    let (off, rs1) = parse_mem_operand(ops[1], line)?;
                    Inst::St {
                        rs2: parse_reg(ops[0], line)?,
                        rs1,
                        off,
                    }
                }
                "amoadd" | "amoswap" => {
                    need(3)?;
                    let op = if mnemonic == "amoadd" {
                        AmoOp::Add
                    } else {
                        AmoOp::Swap
                    };
                    let (off, rs1) = parse_mem_operand(ops[2], line)?;
                    if off != 0 {
                        return err(line, "atomics take a plain `(reg)` address");
                    }
                    Inst::Amo {
                        op,
                        rd: parse_reg(ops[0], line)?,
                        rs1,
                        rs2: parse_reg(ops[1], line)?,
                    }
                }
                "jal" => {
                    need(2)?;
                    pending = PendingTarget::Label(ops[1].to_string());
                    Inst::Jal {
                        rd: parse_reg(ops[0], line)?,
                        target: usize::MAX,
                    }
                }
                "j" => {
                    need(1)?;
                    pending = PendingTarget::Label(ops[0].to_string());
                    Inst::Jal {
                        rd: Reg::ZERO,
                        target: usize::MAX,
                    }
                }
                "jalr" => {
                    need(2)?;
                    Inst::Jalr {
                        rd: parse_reg(ops[0], line)?,
                        rs1: parse_reg(ops[1], line)?,
                    }
                }
                "busy" => {
                    need(1)?;
                    let n = parse_imm(ops[0], line)?;
                    if n < 0 || n > u32::MAX as i64 {
                        return err(line, "busy count out of range");
                    }
                    Inst::Busy { cycles: n as u32 }
                }
                "barw" => {
                    need(1)?;
                    Inst::BarWrite {
                        rs1: parse_reg(ops[0], line)?,
                    }
                }
                "barr" => {
                    need(1)?;
                    Inst::BarRead {
                        rd: parse_reg(ops[0], line)?,
                    }
                }
                "barctx" => {
                    need(1)?;
                    let v = parse_imm(ops[0], line)?;
                    if !(0..256).contains(&v) {
                        return err(line, "barrier context out of range");
                    }
                    Inst::BarCtx { ctx: v as u8 }
                }
                "region" => {
                    need(1)?;
                    match Region::from_name(ops[0]) {
                        Some(region) => Inst::SetRegion { region },
                        None => return err(line, format!("unknown region `{}`", ops[0])),
                    }
                }
                "halt" => {
                    need(0)?;
                    Inst::Halt
                }
                "nop" => {
                    need(0)?;
                    Inst::Nop
                }
                _ => return err(line, format!("unknown mnemonic `{mnemonic}`")),
            }
        };
        if let PendingTarget::Label(l) = pending {
            fixups.push((insts.len(), l, line));
        }
        insts.push(inst);
    }

    for (idx, label, line) in fixups {
        let Some(&target) = labels.get(&label) else {
            return err(line, format!("undefined label `{label}`"));
        };
        match &mut insts[idx] {
            Inst::Branch { target: t, .. } | Inst::Jal { target: t, .. } => *t = target,
            _ => unreachable!("fixup on a non-jump"),
        }
    }
    Ok(Program::from_insts(insts))
}

/// Disassembles a program back into assembly text. Branch/jump targets
/// are rendered as generated `L<index>` labels.
pub fn disassemble(p: &Program) -> String {
    use std::collections::BTreeSet;
    let mut targets: BTreeSet<usize> = BTreeSet::new();
    for inst in p.insts() {
        match *inst {
            Inst::Branch { target, .. } | Inst::Jal { target, .. } => {
                targets.insert(target);
            }
            _ => {}
        }
    }
    let label = |i: usize| format!("L{i}");
    let mut out = String::new();
    for (i, inst) in p.insts().iter().enumerate() {
        if targets.contains(&i) {
            out.push_str(&label(i));
            out.push_str(":\n");
        }
        let text = match *inst {
            Inst::Li { rd, imm } => format!("li {rd}, {imm}"),
            Inst::Alu { op, rd, rs1, rs2 } => format!("{} {rd}, {rs1}, {rs2}", op.mnemonic()),
            Inst::AluI { op, rd, rs1, imm } => format!("{}i {rd}, {rs1}, {imm}", op.mnemonic()),
            Inst::Ld { rd, rs1, off } => format!("ld {rd}, {off}({rs1})"),
            Inst::St { rs2, rs1, off } => format!("st {rs2}, {off}({rs1})"),
            Inst::Amo { op, rd, rs1, rs2 } => format!("{} {rd}, {rs2}, ({rs1})", op.mnemonic()),
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                format!("{} {rs1}, {rs2}, {}", cond.mnemonic(), label(target))
            }
            Inst::Jal { rd, target } => format!("jal {rd}, {}", label(target)),
            Inst::Jalr { rd, rs1 } => format!("jalr {rd}, {rs1}"),
            Inst::Busy { cycles } => format!("busy {cycles}"),
            Inst::BarWrite { rs1 } => format!("barw {rs1}"),
            Inst::BarRead { rd } => format!("barr {rd}"),
            Inst::BarCtx { ctx } => format!("barctx {ctx}"),
            Inst::SetRegion { region } => format!("region {}", region.name()),
            Inst::Halt => "halt".to_string(),
            Inst::Nop => "nop".to_string(),
        };
        out.push_str("    ");
        out.push_str(&text);
        out.push('\n');
    }
    // A trailing branch target (label at end of program).
    if targets.contains(&p.len()) {
        out.push_str(&label(p.len()));
        out.push_str(":\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_the_paper_barrier_idiom() {
        let p = assemble(
            "
            li r1, 1
            barw r1          # arrival at the barrier
        spin:
            barr r2
            bne r2, r0, spin # wait until all cores arrive
            halt
            ",
        )
        .unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p.fetch(1), Some(Inst::BarWrite { rs1: Reg(1) }));
        assert_eq!(
            p.fetch(3),
            Some(Inst::Branch {
                cond: BranchCond::Ne,
                rs1: Reg(2),
                rs2: Reg(0),
                target: 2
            })
        );
    }

    #[test]
    fn memory_operands() {
        let p = assemble("ld r1, 16(r2)\nst r3, -8(r4)\nld r5, (r6)").unwrap();
        assert_eq!(
            p.fetch(0),
            Some(Inst::Ld {
                rd: Reg(1),
                rs1: Reg(2),
                off: 16
            })
        );
        assert_eq!(
            p.fetch(1),
            Some(Inst::St {
                rs2: Reg(3),
                rs1: Reg(4),
                off: -8
            })
        );
        assert_eq!(
            p.fetch(2),
            Some(Inst::Ld {
                rd: Reg(5),
                rs1: Reg(6),
                off: 0
            })
        );
    }

    #[test]
    fn atomics() {
        let p = assemble("amoadd r1, r2, (r3)\namoswap r4, r5, (r6)").unwrap();
        assert_eq!(
            p.fetch(0),
            Some(Inst::Amo {
                op: AmoOp::Add,
                rd: Reg(1),
                rs1: Reg(3),
                rs2: Reg(2)
            })
        );
        assert_eq!(
            p.fetch(1),
            Some(Inst::Amo {
                op: AmoOp::Swap,
                rd: Reg(4),
                rs1: Reg(6),
                rs2: Reg(5)
            })
        );
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = assemble("li r1, 0x40\nli r2, -0x10\naddi r3, r3, -1").unwrap();
        assert_eq!(
            p.fetch(0),
            Some(Inst::Li {
                rd: Reg(1),
                imm: 64
            })
        );
        assert_eq!(
            p.fetch(1),
            Some(Inst::Li {
                rd: Reg(2),
                imm: -16
            })
        );
        // Negating the bit pattern of i64::MIN wraps instead of
        // overflowing.
        let p = assemble("li r1, -0x8000000000000000").unwrap();
        assert_eq!(
            p.fetch(0),
            Some(Inst::Li {
                rd: Reg(1),
                imm: i64::MIN
            })
        );
    }

    #[test]
    fn forward_and_backward_labels() {
        let p = assemble("j end\nback:\nnop\nj back\nend:\nhalt").unwrap();
        assert_eq!(
            p.fetch(0),
            Some(Inst::Jal {
                rd: Reg::ZERO,
                target: 3
            })
        );
        assert_eq!(
            p.fetch(2),
            Some(Inst::Jal {
                rd: Reg::ZERO,
                target: 1
            })
        );
    }

    #[test]
    fn error_reporting_lines() {
        let e = assemble("nop\nfrob r1, r2").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("unknown mnemonic"));
        let e = assemble("ld r1, r2").unwrap_err();
        assert!(e.msg.contains("off(reg)"), "{}", e.msg);
        let e = assemble("beq r1, r2, nowhere").unwrap_err();
        assert!(e.msg.contains("undefined label"));
        let e = assemble("dup:\nnop\ndup:").unwrap_err();
        assert!(e.msg.contains("duplicate label"));
        let e = assemble("add r1, r2").unwrap_err();
        assert!(e.msg.contains("expects 3"));
        let e = assemble("li r99, 0").unwrap_err();
        assert!(e.msg.contains("bad register"));
    }

    #[test]
    fn disassemble_round_trip() {
        let src = "
            li r1, 42
        top:
            addi r1, r1, -1
            ld r2, 8(r3)
            st r2, 0(r4)
            amoadd r5, r1, (r6)
            slti r7, r1, 10
            bne r1, r0, top
            jal r31, sub
            busy 17
            region barrier
            region normal
            halt
        sub:
            barctx 2
            barw r1
            barr r2
            barctx 0
            jalr r0, r31
            ";
        let p1 = assemble(src).unwrap();
        let text = disassemble(&p1);
        let p2 = assemble(&text).unwrap();
        assert_eq!(
            p1.insts(),
            p2.insts(),
            "round-trip changed the program:\n{text}"
        );
    }

    #[test]
    fn label_at_end_of_program() {
        let p = assemble("j end\nend:").unwrap();
        assert_eq!(
            p.fetch(0),
            Some(Inst::Jal {
                rd: Reg::ZERO,
                target: 1
            })
        );
        // Round-trips even with the trailing label.
        let p2 = assemble(&disassemble(&p)).unwrap();
        assert_eq!(p.insts(), p2.insts());
    }
}

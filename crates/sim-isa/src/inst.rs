//! Instruction and program types.

use crate::reg::Reg;
use std::fmt;
use std::sync::Arc;

/// Binary ALU operation selector, shared by the register-register and
/// register-immediate forms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; division by zero yields 0 (documented choice: the
    /// simulated machine does not trap).
    Div,
    /// Remainder; by zero yields the dividend (RISC-V convention).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (by low 6 bits).
    Sll,
    /// Logical shift right (by low 6 bits).
    Srl,
    /// Set-if-less-than, signed (1 or 0).
    Slt,
    /// Set-if-less-than, unsigned (1 or 0).
    Sltu,
}

impl AluOp {
    /// Applies the operation to two 64-bit values.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    ((a as i64).wrapping_div(b as i64)) as u64
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    ((a as i64).wrapping_rem(b as i64)) as u64
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a << (b & 63),
            AluOp::Srl => a >> (b & 63),
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Sltu => (a < b) as u64,
        }
    }

    /// Assembly mnemonic of the register-register form.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// Branch condition selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Taken when equal.
    Eq,
    /// Taken when not equal.
    Ne,
    /// Taken when rs1 < rs2, signed.
    Lt,
    /// Taken when rs1 >= rs2, signed.
    Ge,
}

impl BranchCond {
    /// Evaluates the condition.
    pub fn taken(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
        }
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
        }
    }
}

/// Atomic read-modify-write selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AmoOp {
    /// `rd = M[addr]; M[addr] += rs2` — the paper's `fetch&op`.
    Add,
    /// `rd = M[addr]; M[addr] = rs2` — subsumes `test&set`.
    Swap,
}

impl AmoOp {
    /// New memory value given old contents and the operand.
    pub fn apply(self, old: u64, operand: u64) -> u64 {
        match self {
            AmoOp::Add => old.wrapping_add(operand),
            AmoOp::Swap => operand,
        }
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AmoOp::Add => "amoadd",
            AmoOp::Swap => "amoswap",
        }
    }
}

/// Execution-region marker for time attribution (the paper's Figure-6
/// categories). Set by runtime-library code around synchronization
/// sequences; has no architectural effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Region {
    /// Ordinary computation: stalls attribute to Read/Write, the rest to
    /// Busy.
    #[default]
    Normal,
    /// Inside a barrier (notification, busy-wait or release).
    Barrier,
    /// Inside lock acquisition or release.
    Lock,
}

impl Region {
    /// Assembly operand name.
    pub fn name(self) -> &'static str {
        match self {
            Region::Normal => "normal",
            Region::Barrier => "barrier",
            Region::Lock => "lock",
        }
    }

    /// Parses an assembly operand name.
    pub fn from_name(s: &str) -> Option<Region> {
        Some(match s {
            "normal" => Region::Normal,
            "barrier" => Region::Barrier,
            "lock" => Region::Lock,
            _ => return None,
        })
    }
}

/// One machine instruction. Branch targets are absolute instruction
/// indices (the assembler resolves labels to these).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `li rd, imm` — load immediate.
    Li {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// Register-register ALU: `op rd, rs1, rs2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Register-immediate ALU: `opi rd, rs1, imm`.
    AluI {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// `ld rd, off(rs1)` — load the word at `rs1 + off`.
    Ld {
        /// Destination.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Byte offset (must keep the address 8-byte aligned).
        off: i64,
    },
    /// `st rs2, off(rs1)` — store `rs2` to `rs1 + off`.
    St {
        /// Value to store.
        rs2: Reg,
        /// Base address register.
        rs1: Reg,
        /// Byte offset.
        off: i64,
    },
    /// `amoadd/amoswap rd, rs2, (rs1)` — atomic read-modify-write at the
    /// address in `rs1`; old value lands in `rd`.
    Amo {
        /// Operation.
        op: AmoOp,
        /// Destination for the old memory value.
        rd: Reg,
        /// Address register.
        rs1: Reg,
        /// Operand register.
        rs2: Reg,
    },
    /// Conditional branch to an absolute instruction index.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First comparand.
        rs1: Reg,
        /// Second comparand.
        rs2: Reg,
        /// Absolute target instruction index.
        target: usize,
    },
    /// `jal rd, target` — jump and link (rd = return index).
    Jal {
        /// Link register (often `r0` for a plain jump).
        rd: Reg,
        /// Absolute target instruction index.
        target: usize,
    },
    /// `jalr rd, rs1` — indirect jump to the index in `rs1`, linking `rd`.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Register holding the target instruction index.
        rs1: Reg,
    },
    /// `busy n` — n cycles of computation with no memory traffic.
    Busy {
        /// Number of cycles.
        cycles: u32,
    },
    /// `barw rs1` — write `bar_reg` from a register (barrier arrival when
    /// nonzero).
    BarWrite {
        /// Source register (value must be nonzero for an arrival).
        rs1: Reg,
    },
    /// `barr rd` — read `bar_reg` into a register (spin until zero).
    BarRead {
        /// Destination.
        rd: Reg,
    },
    /// `barctx imm` — select which barrier context subsequent
    /// `barw`/`barr` use (hardware with several contexts only; see
    /// paper §5's space multiplexing).
    BarCtx {
        /// Context index.
        ctx: u8,
    },
    /// Marks the current execution region for time attribution.
    SetRegion {
        /// The region entered.
        region: Region,
    },
    /// Stop this core.
    Halt,
    /// Do nothing for one issue slot.
    Nop,
}

impl Inst {
    /// True for instructions that access data memory (the ones the cache
    /// hierarchy sees).
    pub fn is_memory(self) -> bool {
        matches!(self, Inst::Ld { .. } | Inst::St { .. } | Inst::Amo { .. })
    }

    /// True for control-flow instructions.
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. }
        )
    }
}

/// A program: its instructions, with branch targets already resolved to
/// instruction indices. It keeps no label names (the assembler and the
/// builder drop them once targets are patched, and the disassembler
/// makes up `L<index>` names). The instructions are immutable and
/// shared, so a clone — one per core of an SPMD machine — copies one
/// pointer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program(Arc<[Inst]>);

impl Program {
    /// Wraps instructions.
    pub fn from_insts(insts: Vec<Inst>) -> Program {
        Program(insts.into())
    }

    /// The instruction at `pc`, or `None` past the end (treated as halt).
    #[inline]
    pub fn fetch(&self, pc: usize) -> Option<Inst> {
        self.0.get(pc).copied()
    }

    /// All instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.0
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::asm::disassemble(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(3, u64::MAX), 2); // wrapping
        assert_eq!(AluOp::Sub.apply(3, 5), (-2i64) as u64);
        assert_eq!(AluOp::Mul.apply(7, 6), 42);
        assert_eq!(AluOp::Div.apply(42, 5), 8);
        assert_eq!(AluOp::Div.apply((-42i64) as u64, 5), (-8i64) as u64);
        assert_eq!(AluOp::Div.apply(42, 0), 0);
        assert_eq!(AluOp::Rem.apply(42, 5), 2);
        assert_eq!(AluOp::Rem.apply(42, 0), 42);
        assert_eq!(AluOp::Sll.apply(1, 65), 2); // shift amount masked
        assert_eq!(AluOp::Slt.apply((-1i64) as u64, 0), 1);
        assert_eq!(AluOp::Sltu.apply((-1i64) as u64, 0), 0);
    }

    #[test]
    fn branch_semantics() {
        assert!(BranchCond::Eq.taken(4, 4));
        assert!(BranchCond::Ne.taken(4, 5));
        assert!(BranchCond::Lt.taken((-1i64) as u64, 0));
        assert!(BranchCond::Ge.taken(0, (-1i64) as u64));
        assert!(!BranchCond::Lt.taken(0, (-1i64) as u64));
    }

    #[test]
    fn amo_semantics() {
        assert_eq!(AmoOp::Add.apply(10, 5), 15);
        assert_eq!(AmoOp::Swap.apply(10, 5), 5);
    }

    #[test]
    fn region_names_round_trip() {
        for r in [Region::Normal, Region::Barrier, Region::Lock] {
            assert_eq!(Region::from_name(r.name()), Some(r));
        }
        assert_eq!(Region::from_name("bogus"), None);
    }

    #[test]
    fn classification() {
        assert!(Inst::Ld {
            rd: Reg(1),
            rs1: Reg(2),
            off: 0
        }
        .is_memory());
        assert!(Inst::Amo {
            op: AmoOp::Add,
            rd: Reg(1),
            rs1: Reg(2),
            rs2: Reg(3)
        }
        .is_memory());
        assert!(!Inst::Nop.is_memory());
        assert!(Inst::Jal {
            rd: Reg::ZERO,
            target: 0
        }
        .is_control());
        assert!(!Inst::Halt.is_control());
    }

    #[test]
    fn program_fetch() {
        let p = Program::from_insts(vec![Inst::Nop, Inst::Halt]);
        assert_eq!(p.fetch(0), Some(Inst::Nop));
        assert_eq!(p.fetch(5), None);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(Program::default().is_empty());
    }
}

//! Programmatic program construction.
//!
//! Workload generators build programs with [`ProgBuilder`] instead of
//! string templates. A branch target is a [`Label`]: a `Copy` handle made
//! by [`ProgBuilder::new_label`], placed by [`ProgBuilder::bind`], and
//! referenced by branches and jumps before or after it is placed. No
//! label has a name, so emitting one costs no string and the finished
//! [`Program`] is only its instructions.
//!
//! ```
//! use sim_isa::{ProgBuilder, Reg};
//!
//! let r1 = Reg::r(1);
//! let r2 = Reg::r(2);
//! let mut b = ProgBuilder::new();
//! let spin = b.new_label();
//! b.li(r1, 1)
//!     .barw(r1) // announce arrival
//!     .bind(spin)
//!     .barr(r2)
//!     .bne(r2, Reg::ZERO, spin) // wait for the G-line release
//!     .halt();
//! let prog = b.build();
//! assert_eq!(prog.len(), 5);
//! ```

use crate::inst::{AluOp, AmoOp, BranchCond, Inst, Program, Region};
use crate::reg::Reg;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

/// A branch target of one [`ProgBuilder`]. Using it with another builder
/// panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Label {
    builder: u32,
    index: u32,
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.index)
    }
}

/// `len` consecutive labels from one [`ProgBuilder::new_labels`] call,
/// for code that picks its targets by index (one per tree level, say).
#[derive(Clone, Copy, Debug)]
pub struct Labels {
    first: Label,
    len: u32,
}

impl Labels {
    /// The `i`th label of the block.
    ///
    /// # Panics
    /// Panics if `i` is not below the block's length.
    pub fn at(self, i: usize) -> Label {
        assert!(
            i < self.len as usize,
            "label {i} of a block of {}",
            self.len
        );
        Label {
            index: self.first.index + i as u32,
            ..self.first
        }
    }
}

/// Not a position: the label has not been bound.
const UNBOUND: usize = usize::MAX;

/// Gives every builder its own identity, so that a [`Label`] cannot be
/// used with a builder that did not make it.
static NEXT_BUILDER: AtomicU32 = AtomicU32::new(0);

/// Builder for [`Program`]s with forward and backward [`Label`]s.
#[derive(Debug)]
pub struct ProgBuilder {
    id: u32,
    insts: Vec<Inst>,
    /// Position of each label, [`UNBOUND`] until it is bound.
    positions: Vec<usize>,
    /// Each branch or jump emitted so far, with its target label.
    fixups: Vec<(usize, Label)>,
}

impl Default for ProgBuilder {
    fn default() -> ProgBuilder {
        ProgBuilder::new()
    }
}

impl ProgBuilder {
    /// An empty builder.
    pub fn new() -> ProgBuilder {
        ProgBuilder {
            id: NEXT_BUILDER.fetch_add(1, Ordering::Relaxed),
            insts: Vec::new(),
            positions: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// A fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.new_labels(1).first
    }

    /// `len` fresh, unbound labels.
    pub fn new_labels(&mut self, len: usize) -> Labels {
        let index = self.positions.len();
        self.positions.resize(index + len, UNBOUND);
        Labels {
            first: Label {
                builder: self.id,
                index: u32::try_from(index).expect("too many labels"),
            },
            len: u32::try_from(len).expect("too many labels"),
        }
    }

    /// The index of `label` in this builder.
    ///
    /// # Panics
    /// Panics if `label` was made by another builder.
    fn index(&self, label: Label) -> usize {
        assert_eq!(
            label.builder, self.id,
            "label {label} is from another builder"
        );
        label.index as usize
    }

    /// Places `label` at the current position.
    ///
    /// # Panics
    /// Panics if `label` is already bound or was made by another builder.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        let i = self.index(label);
        let here = self.insts.len();
        let pos = &mut self.positions[i];
        assert!(
            *pos == UNBOUND,
            "label {label} bound twice, at {} and at {here}",
            *pos
        );
        *pos = here;
        self
    }

    /// Emits a raw instruction.
    pub fn inst(&mut self, i: Inst) -> &mut Self {
        self.insts.push(i);
        self
    }

    /// Emits a branch or jump to `label`, patched by [`ProgBuilder::build`].
    fn branch_to(&mut self, i: Inst, label: Label) -> &mut Self {
        self.index(label);
        self.fixups.push((self.insts.len(), label));
        self.inst(i)
    }

    /// `li rd, imm`.
    pub fn li(&mut self, rd: Reg, imm: i64) -> &mut Self {
        self.inst(Inst::Li { rd, imm })
    }

    /// Register-register ALU operation.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Alu { op, rd, rs1, rs2 })
    }

    /// Register-immediate ALU operation.
    pub fn alui(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.inst(Inst::AluI { op, rd, rs1, imm })
    }

    /// `add rd, rs1, rs2`.
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluOp::Add, rd, rs1, rs2)
    }

    /// `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.alui(AluOp::Add, rd, rs1, imm)
    }

    /// `mul rd, rs1, rs2`.
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluOp::Mul, rd, rs1, rs2)
    }

    /// `muli rd, rs1, imm`.
    pub fn muli(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.alui(AluOp::Mul, rd, rs1, imm)
    }

    /// `ld rd, off(rs1)`.
    pub fn ld(&mut self, rd: Reg, off: i64, rs1: Reg) -> &mut Self {
        self.inst(Inst::Ld { rd, rs1, off })
    }

    /// `st rs2, off(rs1)`.
    pub fn st(&mut self, rs2: Reg, off: i64, rs1: Reg) -> &mut Self {
        self.inst(Inst::St { rs2, rs1, off })
    }

    /// `amoadd rd, rs2, (rs1)`.
    pub fn amoadd(&mut self, rd: Reg, rs2: Reg, rs1: Reg) -> &mut Self {
        self.inst(Inst::Amo {
            op: AmoOp::Add,
            rd,
            rs1,
            rs2,
        })
    }

    /// `amoswap rd, rs2, (rs1)`.
    pub fn amoswap(&mut self, rd: Reg, rs2: Reg, rs1: Reg) -> &mut Self {
        self.inst(Inst::Amo {
            op: AmoOp::Swap,
            rd,
            rs1,
            rs2,
        })
    }

    fn branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        let target = usize::MAX;
        self.branch_to(
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            },
            label,
        )
    }

    /// `beq rs1, rs2, label`.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch(BranchCond::Eq, rs1, rs2, label)
    }

    /// `bne rs1, rs2, label`.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch(BranchCond::Ne, rs1, rs2, label)
    }

    /// `blt rs1, rs2, label`.
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch(BranchCond::Lt, rs1, rs2, label)
    }

    /// `bge rs1, rs2, label`.
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch(BranchCond::Ge, rs1, rs2, label)
    }

    /// `jal rd, label`.
    pub fn jal(&mut self, rd: Reg, label: Label) -> &mut Self {
        let target = usize::MAX;
        self.branch_to(Inst::Jal { rd, target }, label)
    }

    /// Unconditional `j label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        self.jal(Reg::ZERO, label)
    }

    /// `jalr rd, rs1` (indirect jump, e.g. subroutine return).
    pub fn jalr(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.inst(Inst::Jalr { rd, rs1 })
    }

    /// `busy cycles`.
    pub fn busy(&mut self, cycles: u32) -> &mut Self {
        self.inst(Inst::Busy { cycles })
    }

    /// `barw rs1`.
    pub fn barw(&mut self, rs1: Reg) -> &mut Self {
        self.inst(Inst::BarWrite { rs1 })
    }

    /// `barr rd`.
    pub fn barr(&mut self, rd: Reg) -> &mut Self {
        self.inst(Inst::BarRead { rd })
    }

    /// `barctx imm` — select the barrier context.
    pub fn barctx(&mut self, ctx: u8) -> &mut Self {
        self.inst(Inst::BarCtx { ctx })
    }

    /// `region <kind>` — time-attribution marker.
    pub fn region(&mut self, region: Region) -> &mut Self {
        self.inst(Inst::SetRegion { region })
    }

    /// `halt`.
    pub fn halt(&mut self) -> &mut Self {
        self.inst(Inst::Halt)
    }

    /// `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.inst(Inst::Nop)
    }

    /// Patches every branch and jump to its label's position and
    /// produces the program.
    ///
    /// # Panics
    /// Panics, naming the label, if a branch or jump refers to a label
    /// that was never bound.
    pub fn build(self) -> Program {
        let ProgBuilder {
            mut insts,
            positions,
            fixups,
            ..
        } = self;
        for (idx, label) in fixups {
            let pos = positions[label.index as usize];
            assert!(
                pos != UNBOUND,
                "label {label} is never bound (referenced at {idx})"
            );
            match &mut insts[idx] {
                Inst::Branch { target, .. } | Inst::Jal { target, .. } => *target = pos,
                _ => unreachable!("fixup on a non-jump"),
            }
        }
        Program::from_insts(insts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn builder_matches_assembler() {
        let src = "
            li r1, 10
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        ";
        let from_text = assemble(src).unwrap();
        let mut b = ProgBuilder::new();
        let top = b.new_label();
        b.li(Reg::r(1), 10)
            .bind(top)
            .addi(Reg::r(1), Reg::r(1), -1)
            .bne(Reg::r(1), Reg::ZERO, top)
            .halt();
        assert_eq!(b.build().insts(), from_text.insts());
    }

    #[test]
    fn forward_references_resolve() {
        let mut b = ProgBuilder::new();
        let end = b.new_label();
        b.jump(end).nop().bind(end).halt();
        let p = b.build();
        assert_eq!(
            p.fetch(0),
            Some(Inst::Jal {
                rd: Reg::ZERO,
                target: 2
            })
        );
    }

    #[test]
    fn label_blocks_are_distinct_labels() {
        let mut b = ProgBuilder::new();
        let rel = b.new_labels(3);
        b.jump(rel.at(2)).bind(rel.at(0)).nop().bind(rel.at(2));
        b.jump(rel.at(0)).bind(rel.at(1)).halt();
        let p = b.build();
        let target = |pc| match p.fetch(pc) {
            Some(Inst::Jal { target, .. }) => target,
            other => panic!("{other:?}"),
        };
        assert_eq!((target(0), target(2)), (2, 1));
    }

    #[test]
    #[should_panic(expected = "label L0 is never bound (referenced at 0)")]
    fn unbound_label_panics() {
        let mut b = ProgBuilder::new();
        let nowhere = b.new_label();
        b.jump(nowhere);
        let _ = b.build();
    }

    #[test]
    fn unreferenced_unbound_label_is_harmless() {
        let mut b = ProgBuilder::new();
        let _unused = b.new_label();
        b.halt();
        assert_eq!(b.build().insts(), [Inst::Halt]);
    }

    #[test]
    #[should_panic(expected = "label L1 bound twice, at 0 and at 1")]
    fn twice_bound_label_panics() {
        let mut b = ProgBuilder::new();
        let _first = b.new_label();
        let x = b.new_label();
        b.bind(x).nop().bind(x);
    }

    #[test]
    #[should_panic(expected = "label L0 is from another builder")]
    fn label_from_another_builder_panics() {
        let mut other = ProgBuilder::new();
        let foreign = other.new_label();
        let mut b = ProgBuilder::new();
        let _own = b.new_label();
        b.jump(foreign);
    }

    #[test]
    #[should_panic(expected = "is from another builder")]
    fn binding_a_foreign_label_panics() {
        let mut other = ProgBuilder::new();
        let foreign = other.new_label();
        let mut b = ProgBuilder::new();
        b.bind(foreign);
    }

    #[test]
    #[should_panic(expected = "label 3 of a block of 3")]
    fn label_block_index_is_checked() {
        let mut b = ProgBuilder::new();
        let _ = b.new_labels(3).at(3);
    }

    #[test]
    fn all_emitters_produce_instructions() {
        let mut b = ProgBuilder::new();
        b.li(Reg::r(1), 5)
            .add(Reg::r(2), Reg::r(1), Reg::r(1))
            .addi(Reg::r(2), Reg::r(2), 1)
            .mul(Reg::r(3), Reg::r(2), Reg::r(2))
            .muli(Reg::r(3), Reg::r(3), 2)
            .ld(Reg::r(4), 0, Reg::r(3))
            .st(Reg::r(4), 8, Reg::r(3))
            .amoadd(Reg::r(5), Reg::r(4), Reg::r(3))
            .amoswap(Reg::r(5), Reg::r(4), Reg::r(3))
            .jalr(Reg::ZERO, Reg::r(31))
            .busy(3)
            .barw(Reg::r(1))
            .barr(Reg::r(6))
            .nop()
            .halt();
        assert_eq!(b.len(), 15);
        assert!(!b.is_empty());
    }
}

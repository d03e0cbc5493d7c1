//! Architectural reference interpreters.
//!
//! These execute programs with **no timing model** — one instruction per
//! step, idealized barriers, sequentially consistent memory. The
//! cycle-accurate full-system simulator in `sim-cmp` is tested against
//! them: both must compute the same final memory and registers, the
//! simulator just takes a (much) better-modelled number of cycles.

use crate::inst::{Inst, Program};
use crate::reg::{Reg, NUM_REGS};
use std::fmt;

/// An execution fault. The simulated machine has no trap handlers, so
/// faults abort the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Data address not 8-byte aligned.
    Unaligned {
        /// The faulting byte address.
        addr: u64,
    },
    /// Data address beyond the configured memory.
    OutOfBounds {
        /// The faulting byte address.
        addr: u64,
    },
    /// Jump/branch landed outside the program (and not exactly at the
    /// end, which is treated as halt).
    BadPc {
        /// The faulting instruction index.
        pc: usize,
    },
    /// `barw` of a zero value: arrival at a barrier is a nonzero
    /// `bar_reg` write (paper §3.3), so zero would announce
    /// nothing.
    ZeroBarrierWrite,
    /// `barctx` named a barrier context the hardware does not have.
    BadBarrierContext {
        /// The context named.
        ctx: u8,
        /// Contexts the barrier hardware offers.
        contexts: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ExecError::Unaligned { addr } => write!(f, "unaligned access at 0x{addr:x}"),
            ExecError::OutOfBounds { addr } => write!(f, "out-of-bounds access at 0x{addr:x}"),
            ExecError::BadPc { pc } => write!(f, "control transfer to bad pc {pc}"),
            ExecError::ZeroBarrierWrite => f.write_str("barw with a zero value"),
            ExecError::BadBarrierContext { ctx, contexts } => {
                write!(f, "barctx {ctx} but the network has {contexts} context(s)")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// What a single step did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// Executed one instruction.
    Ran,
    /// The core is (now) halted.
    Halted,
    /// The core is spinning on a nonzero `bar_reg` — i.e. it executed an
    /// instruction, but is logically blocked at a barrier.
    AtBarrier,
}

fn mem_index(addr: u64, mem_len: usize) -> Result<usize, ExecError> {
    if !addr.is_multiple_of(8) {
        return Err(ExecError::Unaligned { addr });
    }
    let idx = (addr / 8) as usize;
    if idx >= mem_len {
        return Err(ExecError::OutOfBounds { addr });
    }
    Ok(idx)
}

/// Architectural state of one core.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Register file; index 0 is hard-wired zero.
    pub regs: [u64; NUM_REGS],
    /// Next instruction index.
    pub pc: usize,
    /// Set by `halt` (or running off the end of the program).
    pub halted: bool,
    /// The barrier special register. Written by `barw`; the surrounding
    /// executor clears it when the barrier completes.
    pub bar_reg: u64,
    /// Dynamic instruction count.
    pub retired: u64,
}

impl Machine {
    /// A reset core starting at instruction 0.
    pub fn new() -> Machine {
        Machine {
            regs: [0; NUM_REGS],
            pc: 0,
            halted: false,
            bar_reg: 0,
            retired: 0,
        }
    }

    /// Reads a register (`r0` reads zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.index() == 0 {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes a register (`r0` writes are ignored).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if r.index() != 0 {
            self.regs[r.index()] = v;
        }
    }

    /// Executes one instruction against `mem` (a flat word array; byte
    /// address `a` lives at `mem[a / 8]`).
    pub fn step(&mut self, prog: &Program, mem: &mut [u64]) -> Result<StepOutcome, ExecError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let Some(inst) = prog.fetch(self.pc) else {
            self.halted = true;
            return Ok(StepOutcome::Halted);
        };
        let mut next_pc = self.pc + 1;
        let mut outcome = StepOutcome::Ran;
        match inst {
            Inst::Li { rd, imm } => self.set_reg(rd, imm as u64),
            Inst::Alu { op, rd, rs1, rs2 } => {
                let v = op.apply(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
            }
            Inst::AluI { op, rd, rs1, imm } => {
                let v = op.apply(self.reg(rs1), imm as u64);
                self.set_reg(rd, v);
            }
            Inst::Ld { rd, rs1, off } => {
                let addr = self.reg(rs1).wrapping_add(off as u64);
                let idx = mem_index(addr, mem.len())?;
                self.set_reg(rd, mem[idx]);
            }
            Inst::St { rs2, rs1, off } => {
                let addr = self.reg(rs1).wrapping_add(off as u64);
                let idx = mem_index(addr, mem.len())?;
                mem[idx] = self.reg(rs2);
            }
            Inst::Amo { op, rd, rs1, rs2 } => {
                let addr = self.reg(rs1);
                let idx = mem_index(addr, mem.len())?;
                let old = mem[idx];
                mem[idx] = op.apply(old, self.reg(rs2));
                self.set_reg(rd, old);
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.taken(self.reg(rs1), self.reg(rs2)) {
                    next_pc = target;
                }
            }
            Inst::Jal { rd, target } => {
                self.set_reg(rd, (self.pc + 1) as u64);
                next_pc = target;
            }
            Inst::Jalr { rd, rs1 } => {
                let t = self.reg(rs1) as usize;
                self.set_reg(rd, (self.pc + 1) as u64);
                next_pc = t;
            }
            // The reference machine models a single barrier context;
            // context selection is a timing-level concern.
            Inst::Busy { .. } | Inst::Nop | Inst::SetRegion { .. } | Inst::BarCtx { .. } => {}
            Inst::BarWrite { rs1 } => {
                let v = self.reg(rs1);
                if v == 0 {
                    return Err(ExecError::ZeroBarrierWrite);
                }
                self.bar_reg = v;
                outcome = StepOutcome::AtBarrier;
            }
            Inst::BarRead { rd } => {
                let v = self.bar_reg;
                self.set_reg(rd, v);
                if v != 0 {
                    outcome = StepOutcome::AtBarrier;
                }
            }
            Inst::Halt => {
                self.halted = true;
                self.retired += 1;
                return Ok(StepOutcome::Halted);
            }
        }
        if next_pc > prog.len() {
            return Err(ExecError::BadPc { pc: next_pc });
        }
        self.pc = next_pc;
        self.retired += 1;
        Ok(outcome)
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

/// An idealized multi-core executor: round-robin, one instruction per
/// core per round, sequentially consistent shared memory, and zero-cost
/// barriers (a `barw` completes as soon as every core has written).
///
/// This is the *golden model* the cycle-accurate simulator is checked
/// against.
#[derive(Clone, Debug)]
pub struct RefCmp {
    /// Per-core architectural state.
    pub cores: Vec<Machine>,
    /// Shared word-addressed memory.
    pub mem: Vec<u64>,
    /// Barriers completed so far.
    pub barriers: u64,
}

impl RefCmp {
    /// `n` cores over `mem_words` words of zeroed shared memory.
    pub fn new(n: usize, mem_words: usize) -> RefCmp {
        assert!(n > 0);
        RefCmp {
            cores: vec![Machine::new(); n],
            mem: vec![0; mem_words],
            barriers: 0,
        }
    }

    /// True when every core has halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(|c| c.halted)
    }

    /// Runs one round: each core executes one instruction (barrier-blocked
    /// cores spin in place). Completes a barrier when every non-halted
    /// core has a nonzero `bar_reg`.
    pub fn round(&mut self, progs: &[&Program]) -> Result<(), ExecError> {
        assert_eq!(progs.len(), self.cores.len(), "one program per core");
        for (core, prog) in self.cores.iter_mut().zip(progs) {
            core.step(prog, &mut self.mem)?;
        }
        let at_barrier = self.cores.iter().filter(|c| !c.halted).count() > 0
            && self
                .cores
                .iter()
                .filter(|c| !c.halted)
                .all(|c| c.bar_reg != 0);
        if at_barrier {
            for c in &mut self.cores {
                c.bar_reg = 0;
            }
            self.barriers += 1;
        }
        Ok(())
    }

    /// Runs rounds until every core halts, with a step budget to catch
    /// livelock. Returns the number of rounds executed.
    pub fn run(&mut self, progs: &[&Program], max_rounds: u64) -> Result<u64, ExecError> {
        let mut rounds = 0;
        while !self.all_halted() {
            self.round(progs)?;
            rounds += 1;
            assert!(
                rounds <= max_rounds,
                "reference execution exceeded {max_rounds} rounds"
            );
        }
        Ok(rounds)
    }

    /// Word at byte address `addr`.
    pub fn word(&self, addr: u64) -> u64 {
        self.mem[(addr / 8) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run1(src: &str, mem_words: usize) -> (Machine, Vec<u64>) {
        let p = assemble(src).unwrap();
        let mut cmp = RefCmp::new(1, mem_words);
        cmp.run(&[&p], 1_000_000).unwrap();
        (cmp.cores[0].clone(), cmp.mem)
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum 1..=10 into r2.
        let (m, _) = run1(
            "
            li r1, 10
        loop:
            add r2, r2, r1
            addi r1, r1, -1
            bne r1, r0, loop
            halt
            ",
            0,
        );
        assert_eq!(m.reg(Reg::r(2)), 55);
    }

    #[test]
    fn loads_and_stores() {
        let p = assemble(
            "
            li r1, 0        # base
            li r2, 123
            st r2, 0(r1)
            st r2, 8(r1)
            ld r3, 8(r1)
            addi r3, r3, 1
            st r3, 16(r1)
            halt
            ",
        )
        .unwrap();
        let mut cmp = RefCmp::new(1, 8);
        cmp.run(&[&p], 1000).unwrap();
        assert_eq!(cmp.word(0), 123);
        assert_eq!(cmp.word(8), 123);
        assert_eq!(cmp.word(16), 124);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (m, _) = run1("li r0, 99\nadd r0, r0, r0\nhalt", 0);
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn amo_returns_old_value() {
        let p = assemble(
            "
            li r1, 8
            li r2, 5
            st r2, 0(r1)
            li r3, 3
            amoadd r4, r3, (r1)
            amoswap r5, r0, (r1)
            halt
            ",
        )
        .unwrap();
        let mut cmp = RefCmp::new(1, 4);
        cmp.run(&[&p], 1000).unwrap();
        assert_eq!(cmp.cores[0].reg(Reg::r(4)), 5, "amoadd old value");
        assert_eq!(cmp.cores[0].reg(Reg::r(5)), 8, "amoswap old value");
        assert_eq!(cmp.word(8), 0, "amoswap stored operand");
    }

    #[test]
    fn unaligned_access_faults() {
        let p = assemble("li r1, 4\nld r2, 0(r1)\nhalt").unwrap();
        let mut cmp = RefCmp::new(1, 4);
        let e = cmp.run(&[&p], 100).unwrap_err();
        assert_eq!(e, ExecError::Unaligned { addr: 4 });
    }

    #[test]
    fn out_of_bounds_faults() {
        let p = assemble("li r1, 800\nst r1, 0(r1)\nhalt").unwrap();
        let mut cmp = RefCmp::new(1, 4);
        let e = cmp.run(&[&p], 100).unwrap_err();
        assert_eq!(e, ExecError::OutOfBounds { addr: 800 });
    }

    #[test]
    fn zero_barrier_write_faults() {
        let p = assemble("li r1, 1\nbarw r0\nhalt").unwrap();
        let mut cmp = RefCmp::new(1, 0);
        let e = cmp.run(&[&p], 100).unwrap_err();
        assert_eq!(e, ExecError::ZeroBarrierWrite);
        assert_eq!(cmp.cores[0].pc, 1, "the core stops at the barw");
    }

    #[test]
    fn subroutine_call_and_return() {
        let (m, _) = run1(
            "
            li r1, 7
            jal r31, double
            jal r31, double
            halt
        double:
            add r1, r1, r1
            jalr r0, r31
            ",
            0,
        );
        assert_eq!(m.reg(Reg::r(1)), 28);
    }

    #[test]
    fn running_off_the_end_halts() {
        let (m, _) = run1("nop\nnop", 0);
        assert!(m.halted);
        assert_eq!(m.retired, 2);
    }

    #[test]
    fn two_cores_synchronize_at_barrier() {
        // Core 0 stores then hits the barrier; core 1 spins at the
        // barrier first, then reads what core 0 stored.
        let p0 = assemble(
            "
            li r1, 42
            st r1, 0(r0)
            li r2, 1
            barw r2
        w:  barr r3
            bne r3, r0, w
            halt
            ",
        )
        .unwrap();
        let p1 = assemble(
            "
            li r2, 1
            barw r2
        w:  barr r3
            bne r3, r0, w
            ld r4, 0(r0)
            halt
            ",
        )
        .unwrap();
        let mut cmp = RefCmp::new(2, 4);
        cmp.run(&[&p0, &p1], 10_000).unwrap();
        assert_eq!(
            cmp.cores[1].reg(Reg::r(4)),
            42,
            "barrier must order the store before the load"
        );
        assert_eq!(cmp.barriers, 1);
    }

    #[test]
    fn barrier_ignores_halted_cores() {
        // Core 1 halts immediately; core 0's barrier completes alone.
        let p0 = assemble("li r1, 1\nbarw r1\nw: barr r2\nbne r2, r0, w\nhalt").unwrap();
        let p1 = assemble("halt").unwrap();
        let mut cmp = RefCmp::new(2, 0);
        cmp.run(&[&p0, &p1], 10_000).unwrap();
        assert!(cmp.all_halted());
    }

    #[test]
    fn many_barriers_in_a_loop() {
        let src = "
            li r10, 50     # iterations
            li r1, 1
        loop:
            barw r1
        w:  barr r2
            bne r2, r0, w
            addi r10, r10, -1
            bne r10, r0, loop
            halt
        ";
        let p = assemble(src).unwrap();
        let progs = [p.clone(), p.clone(), p.clone(), p];
        let refs: Vec<&Program> = progs.iter().collect();
        let mut cmp = RefCmp::new(4, 0);
        cmp.run(&refs, 100_000).unwrap();
        assert_eq!(cmp.barriers, 50);
    }
}

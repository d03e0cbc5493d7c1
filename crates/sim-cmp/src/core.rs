//! The in-order core pipeline model.
//!
//! Issue model (Table 1: "in-order 2-way"): up to `issue_width` simple
//! instructions retire per cycle; a data-memory instruction issues its
//! request and blocks the core until the hierarchy answers; `busy n`
//! occupies the pipeline for `n` cycles.
//!
//! Every non-halted core charges exactly one cycle per cycle to a
//! Figure-6 category, decided by its architectural *region* (set by the
//! runtime library's `region` markers) and its activity:
//!
//! * region `barrier` → `Barrier`, region `lock` → `Lock`;
//! * otherwise: stalled on a load → `Read`, on a store/atomic → `Write`,
//!   else `Busy`.

use gline_core::BarrierHw;
use sim_base::stats::{TimeBreakdown, TimeCat};
use sim_base::trace::{Event, Tracer};
use sim_base::{CoreId, Cycle};
use sim_isa::inst::{Inst, Region};
use sim_isa::interp::ExecError;
use sim_isa::reg::{Reg, NUM_REGS};
use sim_isa::Program;
use sim_mem::{CoreReq, CoreResp, MemorySystem};
use std::fmt;

/// The Figure-6 category a region's cycles default to when not stalled.
fn region_cat(r: Region) -> TimeCat {
    match r {
        Region::Barrier => TimeCat::Barrier,
        Region::Lock => TimeCat::Lock,
        Region::Normal => TimeCat::Busy,
    }
}

/// What the core is doing this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Can issue instructions.
    Ready,
    /// Waiting for the memory hierarchy; `rd` receives the result.
    WaitMem {
        /// Destination register for the response (r0 for stores).
        rd: Reg,
        /// Stall category while waiting.
        cat: TimeCat,
    },
    /// Executing a `busy` block until the given cycle.
    BusyUntil {
        /// First cycle at which issue resumes.
        until: Cycle,
    },
    /// `halt` executed.
    Halted,
}

/// A recognized spin loop, captured at a skip decision point. All of the
/// loop's per-cycle effects (retires, breakdown charges, L1 hits) are
/// closed-form, so [`Core::ff_replay`] applies `k` cycles of it in O(1).
#[derive(Clone, Copy, Debug)]
pub struct SpinPlan {
    /// Program counter of the first loop-body instruction.
    top: usize,
    kind: SpinKind,
}

impl SpinPlan {
    /// True for a spin on the core's own `bar_reg` (ended by a barrier
    /// release), false for a memory-probing one (ended by an L1
    /// delivery).
    pub(crate) fn on_bar_reg(&self) -> bool {
        matches!(self.kind, SpinKind::Gline { .. })
    }

    /// Program counter of the first loop-body instruction (the debug
    /// cross-check of a clock jump re-matches it).
    #[cfg(debug_assertions)]
    pub(crate) fn top(&self) -> usize {
        self.top
    }
}

#[derive(Clone, Copy, Debug)]
enum SpinKind {
    /// `top: barr rd ; b<cond> …, top` — one iteration per cycle, no
    /// memory interaction; `value` is the (frozen) `bar_reg` contents.
    Gline { rd: Reg, value: u64 },
    /// A two-cycle load/branch spin: `top: [li a, imm ;] ld rd ;
    /// b<cond> …, top`, hitting the L1 on `addr` every iteration.
    Mem {
        addr: u64,
        rd: Reg,
        /// The `li` overlay of the three-instruction form.
        li: Option<(Reg, u64)>,
        /// Dynamic instructions retired by one full iteration.
        iter_retires: u64,
        /// Captured mid-iteration: the pending response and back-branch
        /// still have to execute before the next full iteration.
        phase_b: bool,
        /// The (frozen) value every iteration loads.
        value: u64,
    },
}

/// A program fault: the core that raised it stops at the faulting
/// instruction, and the machine's run entry points return it as an
/// error ([`System::run`](crate::System::run)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// The faulting core.
    pub core: CoreId,
    /// Index of the faulting instruction.
    pub pc: usize,
    /// What went wrong, in the reference interpreter's terms.
    pub error: ExecError,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} faulted at pc {}: {}",
            self.core, self.pc, self.error
        )
    }
}

/// One simulated core.
#[derive(Clone, Debug)]
pub struct Core {
    id: CoreId,
    regs: [u64; NUM_REGS],
    pc: usize,
    status: Status,
    region: Region,
    issue_width: u8,
    breakdown: TimeBreakdown,
    retired: u64,
    gl_barriers: u64,
    /// Barrier context used by `barw`/`barr` (set by `barctx`).
    bar_ctx: usize,
    /// Cycle the current memory stall began (tracing only).
    wait_since: Cycle,
    /// Set, and the core halted, by a program fault at `pc`.
    fault: Option<ExecError>,
}

impl Core {
    /// A reset core.
    pub fn new(id: CoreId, issue_width: u8) -> Core {
        assert!(issue_width >= 1);
        Core {
            id,
            regs: [0; NUM_REGS],
            pc: 0,
            status: Status::Ready,
            region: Region::Normal,
            issue_width,
            breakdown: TimeBreakdown::new(),
            retired: 0,
            gl_barriers: 0,
            bar_ctx: 0,
            wait_since: 0,
            fault: None,
        }
    }

    /// Barrier context the core's `barw`/`barr` address.
    pub(crate) fn bar_ctx(&self) -> usize {
        self.bar_ctx
    }

    /// The core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// True once `halt` has executed (or the program ran out, or it
    /// faulted).
    pub fn halted(&self) -> bool {
        self.status == Status::Halted
    }

    /// The program fault that stopped this core, if one did.
    pub fn fault(&self) -> Option<Fault> {
        self.fault.map(|error| Fault {
            core: self.id,
            pc: self.pc,
            error,
        })
    }

    /// Stops the core at the current instruction with `error`.
    fn raise(&mut self, error: ExecError) {
        self.fault = Some(error);
        self.status = Status::Halted;
    }

    /// A taken control transfer to `target`, which ends the issue group;
    /// a target past the end of the program faults (the end itself halts
    /// at the next fetch).
    fn transfer(&mut self, prog: &Program, target: usize) {
        if target > prog.len() {
            self.raise(ExecError::BadPc { pc: target });
        } else {
            self.pc = target;
            self.retired += 1;
        }
    }

    /// Figure-6 cycle breakdown so far.
    pub fn breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }

    /// Dynamic instructions retired.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// `barw` arrivals executed (G-line barrier episodes entered).
    pub fn gl_barriers(&self) -> u64 {
        self.gl_barriers
    }

    /// Register read (`r0` is zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.index() == 0 {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Register write (`r0` ignored).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if r.index() != 0 {
            self.regs[r.index()] = v;
        }
    }

    /// The category this core's current cycle belongs to.
    pub(crate) fn category(&self) -> TimeCat {
        match self.region {
            Region::Barrier => TimeCat::Barrier,
            Region::Lock => TimeCat::Lock,
            Region::Normal => match self.status {
                Status::WaitMem { cat, .. } => cat,
                _ => TimeCat::Busy,
            },
        }
    }

    /// Runs one cycle. Interacts with the memory hierarchy and the
    /// G-line barrier hardware (flat or clustered — anything
    /// implementing [`BarrierHw`]); must be called before their
    /// `tick`s.
    pub fn step<B: BarrierHw + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &mut MemorySystem,
        gline: &mut B,
        now: Cycle,
        tracer: &Tracer,
    ) {
        if self.halted() {
            return;
        }
        let (retired_before, pc_before, region_before) = (self.retired, self.pc, self.region);
        self.step_inner(prog, mem, gline, now, tracer);
        if tracer.on() {
            let id = self.id;
            let n = self.retired - retired_before;
            if n > 0 {
                tracer.emit(now, || Event::Retire {
                    core: id,
                    pc: pc_before as u32,
                    count: n.min(u8::MAX as u64) as u8,
                });
            }
            if self.region != region_before {
                let cat = region_cat(self.region);
                tracer.emit(now, || Event::Region { core: id, cat });
            }
        }
    }

    fn step_inner<B: BarrierHw + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &mut MemorySystem,
        gline: &mut B,
        now: Cycle,
        tracer: &Tracer,
    ) {
        // Charge this cycle by the status it *enters* with, so a 1-cycle
        // L1 hit still attributes one cycle to Read/Write.
        self.breakdown.add(self.category(), 1);

        // Resolve a completed memory stall; the fill latency was already
        // charged by the hierarchy, so issue resumes this cycle.
        if let Status::WaitMem { rd, cat } = self.status {
            if let Some(resp) = mem.poll(self.id) {
                let v = match resp {
                    CoreResp::LoadValue(v) | CoreResp::AmoOld(v) => v,
                    CoreResp::StoreDone => 0,
                };
                self.set_reg(rd, v);
                self.status = Status::Ready;
                let (id, since) = (self.id, self.wait_since);
                tracer.emit(now, || Event::Stall {
                    core: id,
                    cat,
                    cycles: now.saturating_sub(since),
                });
            }
        }
        if let Status::BusyUntil { until } = self.status {
            if now >= until {
                self.status = Status::Ready;
            }
        }

        if self.status != Status::Ready {
            return;
        }

        let mut slots = self.issue_width;
        while slots > 0 {
            slots -= 1;
            let Some(inst) = prog.fetch(self.pc) else {
                self.status = Status::Halted;
                return;
            };
            match inst {
                Inst::Li { rd, imm } => {
                    self.set_reg(rd, imm as u64);
                    self.pc += 1;
                }
                Inst::Alu { op, rd, rs1, rs2 } => {
                    let v = op.apply(self.reg(rs1), self.reg(rs2));
                    self.set_reg(rd, v);
                    self.pc += 1;
                }
                Inst::AluI { op, rd, rs1, imm } => {
                    let v = op.apply(self.reg(rs1), imm as u64);
                    self.set_reg(rd, v);
                    self.pc += 1;
                }
                Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    if cond.taken(self.reg(rs1), self.reg(rs2)) {
                        // A taken branch redirects fetch: end the issue
                        // group (no same-cycle issue past a taken branch).
                        self.transfer(prog, target);
                        return;
                    }
                    self.pc += 1;
                }
                Inst::Jal { rd, target } => {
                    self.set_reg(rd, (self.pc + 1) as u64);
                    self.transfer(prog, target);
                    return;
                }
                Inst::Jalr { rd, rs1 } => {
                    let t = self.reg(rs1) as usize;
                    self.set_reg(rd, (self.pc + 1) as u64);
                    self.transfer(prog, t);
                    return;
                }
                Inst::Ld { rd, rs1, off } => {
                    let addr = self.reg(rs1).wrapping_add(off as u64);
                    if !addr.is_multiple_of(8) {
                        self.raise(ExecError::Unaligned { addr });
                        return;
                    }
                    mem.request(self.id, CoreReq::Load { addr });
                    self.status = Status::WaitMem {
                        rd,
                        cat: TimeCat::Read,
                    };
                    self.wait_since = now;
                    self.pc += 1;
                    self.retired += 1;
                    return;
                }
                Inst::St { rs2, rs1, off } => {
                    let addr = self.reg(rs1).wrapping_add(off as u64);
                    if !addr.is_multiple_of(8) {
                        self.raise(ExecError::Unaligned { addr });
                        return;
                    }
                    let value = self.reg(rs2);
                    mem.request(self.id, CoreReq::Store { addr, value });
                    self.status = Status::WaitMem {
                        rd: Reg::ZERO,
                        cat: TimeCat::Write,
                    };
                    self.wait_since = now;
                    self.pc += 1;
                    self.retired += 1;
                    return;
                }
                Inst::Amo { op, rd, rs1, rs2 } => {
                    let addr = self.reg(rs1);
                    if !addr.is_multiple_of(8) {
                        self.raise(ExecError::Unaligned { addr });
                        return;
                    }
                    let operand = self.reg(rs2);
                    mem.request(self.id, CoreReq::Amo { addr, op, operand });
                    self.status = Status::WaitMem {
                        rd,
                        cat: TimeCat::Write,
                    };
                    self.wait_since = now;
                    self.pc += 1;
                    self.retired += 1;
                    return;
                }
                Inst::Busy { cycles } => {
                    self.pc += 1;
                    self.retired += 1;
                    if cycles > 1 {
                        // This cycle counts as the first of the block.
                        self.status = Status::BusyUntil {
                            until: now + cycles as u64,
                        };
                        return;
                    }
                    // busy 0/1: consumes this issue group only.
                    return;
                }
                Inst::BarWrite { rs1 } => {
                    let v = self.reg(rs1);
                    if v == 0 {
                        self.raise(ExecError::ZeroBarrierWrite);
                        return;
                    }
                    gline.write_bar_reg(self.id, self.bar_ctx, v);
                    self.gl_barriers += 1;
                    self.pc += 1;
                }
                Inst::BarRead { rd } => {
                    let v = gline.bar_reg(self.id, self.bar_ctx);
                    self.set_reg(rd, v);
                    self.pc += 1;
                }
                Inst::BarCtx { ctx } => {
                    let contexts = gline.num_contexts();
                    if ctx as usize >= contexts {
                        self.raise(ExecError::BadBarrierContext { ctx, contexts });
                        return;
                    }
                    self.bar_ctx = ctx as usize;
                    self.pc += 1;
                }
                Inst::SetRegion { region } => {
                    self.region = region;
                    self.pc += 1;
                }
                Inst::Nop => {
                    self.pc += 1;
                }
                Inst::Halt => {
                    self.status = Status::Halted;
                    self.retired += 1;
                    return;
                }
            }
            self.retired += 1;
        }
    }

    // ------------------------------------------------------------------
    // Fast-forward support (quiescence-aware cycle skipping).
    //
    // The skip scheduler may only jump over cycles whose effects it can
    // reproduce exactly. For a core that means either (a) it is parked —
    // busy block or memory stall, where each skipped cycle only charges
    // one breakdown category — or (b) it is executing a recognized spin
    // loop whose per-cycle effects are closed-form. Everything else
    // blocks skipping.
    // ------------------------------------------------------------------

    /// The per-tick park decision of the active-set scheduler: is this
    /// core inside a spin it can be parked on? `on_mem` admits the
    /// memory-probing shapes (the caller sees no delivery inbound for
    /// the tile), `on_bar` the `bar_reg` ones (the caller knows no
    /// release can land this cycle); a spin whose wake trigger may fire
    /// this cycle is not worth matching. One fetch decides which
    /// matcher, if any, runs.
    pub(crate) fn park_spin<B: BarrierHw + ?Sized>(
        &self,
        prog: &Program,
        mem: &MemorySystem,
        gline: &B,
        now: Cycle,
        on_mem: bool,
        on_bar: bool,
    ) -> Option<SpinPlan> {
        let resolves_now = || mem.resp_ready_at(self.id).is_some_and(|r| r <= now);
        match self.status {
            Status::Ready => match prog.fetch(self.pc)? {
                Inst::Ld { .. } | Inst::Li { .. } if on_mem => self.match_phase_a_mem(prog, mem),
                Inst::BarRead { .. } if on_bar => self.match_phase_a_bar(prog, gline),
                _ => None,
            },
            Status::WaitMem {
                rd,
                cat: TimeCat::Read,
            } if on_mem && resolves_now() => self.match_phase_b(prog, mem, rd),
            _ => None,
        }
    }

    /// Recognizes a `bar_reg` spin with the core `Ready` at the loop
    /// top: `top: barr rd ; b<cond> …, top` — one iteration per cycle
    /// on a 2-wide core, no memory interaction.
    fn match_phase_a_bar<B: BarrierHw + ?Sized>(
        &self,
        prog: &Program,
        gline: &B,
    ) -> Option<SpinPlan> {
        let top = self.pc;
        let Inst::BarRead { rd } = prog.fetch(top)? else {
            return None;
        };
        if self.issue_width < 2 {
            return None;
        }
        let Inst::Branch {
            cond,
            rs1,
            rs2,
            target,
        } = prog.fetch(top + 1)?
        else {
            return None;
        };
        if target != top {
            return None;
        }
        let v = gline.bar_reg(self.id, self.bar_ctx);
        let rv = |r: Reg| {
            if r.index() == 0 {
                0
            } else if r == rd {
                v
            } else {
                self.reg(r)
            }
        };
        cond.taken(rv(rs1), rv(rs2)).then_some(SpinPlan {
            top,
            kind: SpinKind::Gline { rd, value: v },
        })
    }

    /// Recognizes a memory-probing spin with the core `Ready` at the
    /// loop top: flag-wait loops whose every iteration hits in the L1.
    fn match_phase_a_mem(&self, prog: &Program, mem: &MemorySystem) -> Option<SpinPlan> {
        let top = self.pc;
        match prog.fetch(top)? {
            // `top: ld rd, off(ra) ; b<cond> …, top` — two cycles per
            // iteration (issue the L1 hit, then resolve + branch).
            Inst::Ld { rd, rs1, off } => {
                let Inst::Branch {
                    cond,
                    rs1: b1,
                    rs2: b2,
                    target,
                } = prog.fetch(top + 1)?
                else {
                    return None;
                };
                if target != top {
                    return None;
                }
                let addr = self.reg(rs1).wrapping_add(off as u64);
                // An unaligned probe faults when stepped; never elide it.
                if !addr.is_multiple_of(8) {
                    return None;
                }
                let v = mem.spin_probe_load(self.id, addr)?;
                let rv = |r: Reg| {
                    if r.index() == 0 {
                        0
                    } else if r == rd {
                        v
                    } else {
                        self.reg(r)
                    }
                };
                cond.taken(rv(b1), rv(b2)).then_some(SpinPlan {
                    top,
                    kind: SpinKind::Mem {
                        addr,
                        rd,
                        li: None,
                        iter_retires: 2,
                        phase_b: false,
                        value: v,
                    },
                })
            }
            // `top: li a, imm ; ld rd, off(a) ; b<cond> …, top` — the
            // CSW/DSW flag wait. Dual issue pairs the li with the ld, so
            // this is also a two-cycle iteration.
            Inst::Li { rd: a, imm } if self.issue_width >= 2 => {
                let Inst::Ld { rd, rs1, off } = prog.fetch(top + 1)? else {
                    return None;
                };
                let Inst::Branch {
                    cond,
                    rs1: b1,
                    rs2: b2,
                    target,
                } = prog.fetch(top + 2)?
                else {
                    return None;
                };
                if target != top {
                    return None;
                }
                // Address as seen after `li a, imm`.
                let base = if rs1 == a { imm as u64 } else { self.reg(rs1) };
                let addr = base.wrapping_add(off as u64);
                if !addr.is_multiple_of(8) {
                    return None;
                }
                let v = mem.spin_probe_load(self.id, addr)?;
                // Branch registers as seen after the load (`rd` shadows
                // `a` if they alias).
                let rv = |r: Reg| {
                    if r.index() == 0 {
                        0
                    } else if r == rd {
                        v
                    } else if r == a {
                        imm as u64
                    } else {
                        self.reg(r)
                    }
                };
                cond.taken(rv(b1), rv(b2)).then_some(SpinPlan {
                    top,
                    kind: SpinKind::Mem {
                        addr,
                        rd,
                        li: Some((a, imm as u64)),
                        iter_retires: 3,
                        phase_b: false,
                        value: v,
                    },
                })
            }
            _ => None,
        }
    }

    /// Recognizes a spin loop captured mid-iteration: the core is in
    /// `WaitMem` with a load response pending, `pc` points at the loop's
    /// back-branch, and the branch (with the pending value) jumps back to
    /// a loop body this core would keep spinning in.
    fn match_phase_b(&self, prog: &Program, mem: &MemorySystem, rd: Reg) -> Option<SpinPlan> {
        if mem.l1_busy(self.id) {
            return None;
        }
        let (_, v) = mem.peek_resp_load(self.id)?;
        let Inst::Branch {
            cond,
            rs1,
            rs2,
            target,
        } = prog.fetch(self.pc)?
        else {
            return None;
        };
        let rv = |r: Reg| {
            if r.index() == 0 {
                0
            } else if r == rd {
                v
            } else {
                self.reg(r)
            }
        };
        if !cond.taken(rv(rs1), rv(rs2)) {
            return None;
        }
        let top = target;
        let (addr, li, iter_retires) = match prog.fetch(top)? {
            Inst::Ld {
                rd: lrd,
                rs1: lr,
                off,
            } if self.pc == top + 1 && lrd == rd => {
                (self.reg(lr).wrapping_add(off as u64), None, 2)
            }
            Inst::Li { rd: a, imm } if self.pc == top + 2 && self.issue_width >= 2 => {
                let Inst::Ld {
                    rd: lrd,
                    rs1: lr,
                    off,
                } = prog.fetch(top + 1)?
                else {
                    return None;
                };
                if lrd != rd {
                    return None;
                }
                let base = if lr == a { imm as u64 } else { self.reg(lr) };
                (base.wrapping_add(off as u64), Some((a, imm as u64)), 3)
            }
            _ => return None,
        };
        // Future iterations must hit in the L1 and keep observing the
        // same (frozen) value; bail if the line is not resident or the
        // pending response somehow disagrees with it.
        if mem.spin_line_value(self.id, addr)? != v {
            return None;
        }
        Some(SpinPlan {
            top,
            kind: SpinKind::Mem {
                addr,
                rd,
                li,
                iter_retires,
                phase_b: true,
                value: v,
            },
        })
    }

    /// The first cycle at which this core can possibly do more than
    /// charge its current stall category, or `None` when it cannot be
    /// parked (it is ready, halted, or waiting on a miss whose
    /// completion cycle the memory system has not scheduled yet).
    ///
    /// Until that cycle, every `step` is provably a pure breakdown
    /// charge: a `WaitMem` step polls (getting `None` before the
    /// response's ready cycle) and returns; a `BusyUntil` step checks
    /// the expiry and returns. The active-set scheduler uses this to
    /// skip the core's steps entirely and charge the span lazily at
    /// wake-up (via [`ff_stall`](Self::ff_stall)), which is
    /// bit-identical because the status — and with it the charged
    /// category — cannot change while the core is parked.
    pub(crate) fn park_until(&self, mem: &MemorySystem) -> Option<Cycle> {
        match self.status {
            Status::BusyUntil { until } => Some(until),
            Status::WaitMem { .. } => mem.resp_ready_at(self.id),
            Status::Ready | Status::Halted => None,
        }
    }

    /// True when the core is stalled on a memory access whose response
    /// the L1 has not scheduled yet (the miss is still in flight in the
    /// protocol). Until a message reaches this tile, every `step` is
    /// provably a pure breakdown charge — `poll` keeps returning `None`
    /// because only a delivery can install the response (or service a
    /// deferred coherence message) — so the active-set scheduler parks
    /// the core on the delivery trigger instead of a wake cycle.
    pub(crate) fn waiting_on_unscheduled_resp(&self, mem: &MemorySystem) -> bool {
        matches!(self.status, Status::WaitMem { .. }) && mem.resp_ready_at(self.id).is_none()
    }

    /// Applies `k = target - now` skipped cycles of a parked core: each
    /// cycle only charges one breakdown category, exactly as `step`
    /// would.
    pub fn ff_stall(&mut self, k: u64) {
        debug_assert!(
            matches!(
                self.status,
                Status::WaitMem { .. } | Status::BusyUntil { .. }
            ),
            "only a parked core can fast-forward a stall"
        );
        self.breakdown.add(self.category(), k);
    }

    /// Replays `k = target - now` cycles of a recognized spin loop in
    /// O(1), leaving the core (and its L1, via `mem`) in exactly the
    /// state `k` normal `step`s would have produced.
    /// Callers guarantee tracing is off (a traced run never parks a
    /// spinner, the only route here).
    pub fn ff_replay(&mut self, plan: SpinPlan, target: Cycle, now: Cycle, mem: &mut MemorySystem) {
        let k = target - now;
        // A spin park may be woken by an L1 delivery after a single
        // elided cycle; the arithmetic is exact for k = 1 too (one
        // phase-A or phase-B cycle).
        debug_assert!(k >= 1, "replay of an empty span");
        let span = self.spin_span(&plan, k);
        self.breakdown.add(span.cat_a, span.a_cycles);
        self.breakdown.add(span.cat_b, span.b_cycles);
        self.retired += span.retired;
        match plan.kind {
            SpinKind::Gline { rd, value } => {
                self.set_reg(rd, value);
                debug_assert_eq!(self.pc, plan.top);
            }
            SpinKind::Mem {
                addr,
                rd,
                li,
                iter_retires,
                phase_b,
                value,
            } => {
                if phase_b {
                    // Consume the response that was pending at capture.
                    let _ = mem.take_resp_for_replay(self.id);
                }
                // The span ends in phase B (waiting on the load) when it
                // started in B and is even, or started in A and is odd.
                let ends_waiting = phase_b == k.is_multiple_of(2);
                if ends_waiting {
                    // Last skipped cycle issued the load; the branch is
                    // next, with the response arriving at `target`.
                    self.set_reg(rd, value);
                    if let Some((a, imm)) = li {
                        self.set_reg(a, imm);
                    }
                    self.status = Status::WaitMem {
                        rd,
                        cat: TimeCat::Read,
                    };
                    self.wait_since = target - 1;
                    self.pc = plan.top + iter_retires as usize - 1;
                    mem.spin_replay(self.id, addr, span.a_cycles, Some(target));
                } else {
                    // Last skipped cycle retired the back-branch.
                    if let Some((a, imm)) = li {
                        self.set_reg(a, imm);
                    }
                    self.set_reg(rd, value);
                    self.status = Status::Ready;
                    if span.a_cycles > 0 {
                        self.wait_since = target - 2;
                    }
                    self.pc = plan.top;
                    mem.spin_replay(self.id, addr, span.a_cycles, None);
                }
            }
        }
    }

    /// What `k` elided cycles of `plan` charge. The one copy of that
    /// arithmetic: [`ff_replay`](Self::ff_replay) applies it, and
    /// `System::report` folds a spin-parked core's pending span into a
    /// mid-run report with it, without mutating anything. The two agree
    /// because the core's region and the plan are frozen while parked.
    pub(crate) fn spin_span(&self, plan: &SpinPlan, k: u64) -> SpinSpan {
        match plan.kind {
            // One `barr` + taken branch per cycle, no memory access.
            SpinKind::Gline { .. } => {
                let cat = self.category();
                SpinSpan {
                    cat_a: cat,
                    a_cycles: k,
                    cat_b: cat,
                    b_cycles: 0,
                    retired: 2 * k,
                    l1_hits: 0,
                }
            }
            SpinKind::Mem {
                iter_retires,
                phase_b,
                ..
            } => {
                // Cycles alternate between the issue phase (A: entered
                // `Ready`, performs the L1 hit) and the resolve phase
                // (B: entered `WaitMem`, retires the back-branch).
                let (a_cycles, b_cycles) = if phase_b {
                    (k / 2, k.div_ceil(2))
                } else {
                    (k.div_ceil(2), k / 2)
                };
                SpinSpan {
                    cat_a: region_cat(self.region),
                    a_cycles,
                    cat_b: match self.region {
                        Region::Normal => TimeCat::Read,
                        r => region_cat(r),
                    },
                    b_cycles,
                    retired: a_cycles * (iter_retires - 1) + b_cycles,
                    l1_hits: a_cycles,
                }
            }
        }
    }
}

/// The effects of a span of elided spin cycles ([`Core::spin_span`]):
/// `a_cycles` charged to `cat_a`, `b_cycles` to `cat_b`, and the
/// instructions retired and L1 hits made over the span.
pub(crate) struct SpinSpan {
    pub(crate) cat_a: TimeCat,
    pub(crate) a_cycles: u64,
    pub(crate) cat_b: TimeCat,
    pub(crate) b_cycles: u64,
    pub(crate) retired: u64,
    pub(crate) l1_hits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_base::config::{CmpConfig, GlineConfig};
    use sim_isa::assemble;
    use sim_mem::MemorySystem;

    fn machine() -> (MemorySystem, gline_core::BarrierNetwork) {
        let cfg = CmpConfig::icpp2010_with_cores(4);
        (
            MemorySystem::new(&cfg),
            gline_core::BarrierNetwork::new(cfg.mesh, GlineConfig::default()),
        )
    }

    fn run_one(src: &str, max: u64) -> (Core, MemorySystem) {
        let prog = assemble(src).unwrap();
        let (mut mem, mut gl) = machine();
        let mut core = Core::new(CoreId(0), 2);
        let tracer = Tracer::default();
        let mut now = 0;
        while !core.halted() {
            core.step(&prog, &mut mem, &mut gl, now, &tracer);
            mem.tick();
            gl.tick();
            now += 1;
            assert!(now < max, "program did not halt in {max} cycles");
        }
        (core, mem)
    }

    #[test]
    fn dual_issue_retires_two_alu_per_cycle() {
        // 10 ALU ops + halt on a 2-wide core: ~6 cycles, not 11.
        let src = "li r1, 1\n".repeat(10) + "halt";
        let (core, _) = run_one(&src, 100);
        assert!(
            core.breakdown().total() <= 7,
            "took {} cycles",
            core.breakdown().total()
        );
        assert_eq!(core.retired(), 11);
    }

    #[test]
    fn busy_occupies_exact_cycles() {
        let (core, _) = run_one("busy 50\nhalt", 100);
        // busy 50 = 50 cycles + 1 for halt (±1 for issue alignment).
        let total = core.breakdown().total();
        assert!((50..=52).contains(&total), "busy 50 took {total}");
        assert_eq!(core.breakdown()[TimeCat::Busy], total);
    }

    #[test]
    fn store_then_load_round_trips_through_memory() {
        let (core, mem) = run_one(
            "
            li r1, 0x100
            li r2, 99
            st r2, 0(r1)
            ld r3, 0(r1)
            beq r3, r2, ok
            busy 10000   # wrong value: hang so the test fails
        ok: halt
            ",
            100_000,
        );
        assert_eq!(mem.peek_word(0x100), 99);
        assert!(
            core.breakdown()[TimeCat::Write] > 0,
            "store stall must be charged"
        );
        assert!(
            core.breakdown()[TimeCat::Read] > 0,
            "load stall must be charged"
        );
    }

    #[test]
    fn region_markers_redirect_attribution() {
        let (core, _) = run_one(
            "
            region barrier
            busy 20
            region lock
            busy 30
            region normal
            busy 10
            halt
            ",
            1000,
        );
        let b = core.breakdown();
        assert!((19..=22).contains(&b[TimeCat::Barrier]), "{b:?}");
        assert!((29..=32).contains(&b[TimeCat::Lock]), "{b:?}");
        assert!(b[TimeCat::Busy] >= 10, "{b:?}");
    }

    #[test]
    fn gl_barrier_single_core() {
        // On a 4-core machine a single core cannot pass the barrier; on a
        // 1-core machine it takes ~4 cycles. Build a 1-core machine.
        let cfg = CmpConfig::icpp2010_with_cores(1);
        let mut mem = MemorySystem::new(&cfg);
        let mut gl = gline_core::BarrierNetwork::new(cfg.mesh, GlineConfig::default());
        let prog = assemble(
            "
            region barrier
            li r1, 1
            barw r1
        w:  barr r2
            bne r2, r0, w
            region normal
            halt
            ",
        )
        .unwrap();
        let mut core = Core::new(CoreId(0), 2);
        let tracer = Tracer::default();
        let mut now = 0;
        while !core.halted() {
            core.step(&prog, &mut mem, &mut gl, now, &tracer);
            mem.tick();
            gl.tick();
            now += 1;
            assert!(now < 100);
        }
        assert_eq!(core.gl_barriers(), 1);
        assert!(core.breakdown()[TimeCat::Barrier] >= 4);
    }

    #[test]
    fn taken_branch_ends_issue_group() {
        // A tight 100-iteration decrement loop: 2 instructions per
        // iteration with the branch ending the group → ~100+ cycles.
        let (core, _) = run_one(
            "
            li r1, 100
        l:  addi r1, r1, -1
            bne r1, r0, l
            halt
            ",
            10_000,
        );
        assert!(core.breakdown().total() >= 100);
        assert_eq!(core.retired(), 202);
    }

    #[test]
    fn zero_barw_faults_and_stops_the_core() {
        let (core, _) = run_one("nop\nbarw r0\nhalt", 100);
        let fault = core.fault().expect("the core faulted");
        assert_eq!((fault.pc, fault.error), (1, ExecError::ZeroBarrierWrite));
        assert_eq!(core.retired(), 1, "the faulting barw does not retire");
        assert_eq!(core.gl_barriers(), 0);
    }
}

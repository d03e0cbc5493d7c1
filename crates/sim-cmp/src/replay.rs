//! Trace recording and the exec/replay program dispatch (`DESIGN.md`
//! §11).
//!
//! A core is driven either by an ISA [`Program`] (exec mode: fetch,
//! decode, execute every cycle) or by a recorded [`CoreTrace`] (replay
//! mode: consume pre-computed issue groups). [`CoreProg`] is that
//! dispatch. Recording observes an ordinary serial run on whichever
//! scheduler is selected: wherever a core really steps, two wrappers
//! watch the step — [`RecMem`] captures the memory request the issue
//! group hands to the hierarchy, [`RecGline`] the `barw` arrivals — and
//! wherever the scheduler settles an elided spin span in closed form,
//! [`CoreRec::fold_spin`] folds the same span into the trace. The
//! [`Recorder`] turns both into the [`sim_trace`] op stream, run-length
//! compressing the two spin-loop shapes the skip scheduler recognizes:
//!
//! * `top: barr ; b<cond> …, top` — one cycle, two retires, no machine
//!   interaction → [`TraceOp::GlineSpin`];
//! * `top: [li ;] ld ; b<cond> …, top` — the two-phase memory flag
//!   spin → [`TraceOp::MemSpin`].
//!
//! Compression keys on machine-visible observables (retires, effect,
//! pc movement) *and* on the static program shape, so a compressed
//! `MemSpin` is exactly a loop the exec-mode recognizer
//! (`Core::park_spin`) would accept: its `li` overlay is
//! iteration-invariant and its exit can only be triggered by a protocol
//! delivery — the property the replay engine's per-core spin parking
//! relies on. Anything else is recorded as plain [`Step`]s, which
//! replay bit-identically regardless of what produced them.

use crate::core::{Core, SpinPlan};
use gline_core::{BarrierHw, CtxId, GlineStats};
use sim_base::trace::{TraceSink, Tracer};
use sim_base::{CoreId, Cycle};
use sim_isa::inst::{Inst, Region};
use sim_isa::Program;
use sim_mem::{CoreMem, CoreReq, CoreResp};
use sim_trace::{CoreTrace, Effect, Step, TraceOp};

/// What drives a core: an ISA program (exec mode) or a recorded trace
/// (replay mode). One per core; modes may be mixed across cores only by
/// constructing the [`System`](crate::System) by hand — the public
/// constructors build homogeneous machines.
#[derive(Clone, Debug)]
pub enum CoreProg {
    /// Exec-driven: interpret this program.
    Exec(Program),
    /// Trace-driven: replay this recorded op stream.
    Replay(CoreTrace),
}

impl CoreProg {
    /// True for a trace-driven core.
    pub fn is_replay(&self) -> bool {
        matches!(self, CoreProg::Replay(_))
    }
}

/// [`CoreMem`] wrapper that records the request a `step` issues while
/// forwarding everything. One instance per core-step; `req` holds the
/// at-most-one request the issue group made.
#[derive(Debug)]
pub(crate) struct RecMem<'a, M: CoreMem> {
    inner: &'a mut M,
    /// The request captured this step, if any.
    pub(crate) req: Option<CoreReq>,
}

impl<'a, M: CoreMem> RecMem<'a, M> {
    pub(crate) fn new(inner: &'a mut M) -> RecMem<'a, M> {
        RecMem { inner, req: None }
    }
}

impl<M: CoreMem> CoreMem for RecMem<'_, M> {
    fn request(&mut self, core: CoreId, req: CoreReq) {
        debug_assert!(self.req.is_none(), "one request per issue group");
        self.req = Some(req);
        self.inner.request(core, req);
    }
    fn poll(&mut self, core: CoreId) -> Option<CoreResp> {
        self.inner.poll(core)
    }
    fn resp_ready_at(&self, core: CoreId) -> Option<Cycle> {
        self.inner.resp_ready_at(core)
    }
    fn l1_busy(&self, core: CoreId) -> bool {
        self.inner.l1_busy(core)
    }
    fn peek_resp_load(&self, core: CoreId) -> Option<(Cycle, u64)> {
        self.inner.peek_resp_load(core)
    }
    fn spin_probe_load(&self, core: CoreId, addr: u64) -> Option<u64> {
        self.inner.spin_probe_load(core, addr)
    }
    fn spin_line_value(&self, core: CoreId, addr: u64) -> Option<u64> {
        self.inner.spin_line_value(core, addr)
    }
    fn spin_replay(&mut self, core: CoreId, addr: u64, hits: u64, final_ready: Option<Cycle>) {
        self.inner.spin_replay(core, addr, hits, final_ready);
    }
    fn take_resp_for_replay(&mut self, core: CoreId) -> Option<CoreResp> {
        self.inner.take_resp_for_replay(core)
    }
}

/// [`BarrierHw`] wrapper that records `barw` arrivals (with the context
/// each one targeted) while forwarding everything.
#[derive(Debug)]
pub(crate) struct RecGline<'a, B: BarrierHw + ?Sized> {
    inner: &'a mut B,
    writes: &'a mut Vec<(u8, u64)>,
}

impl<'a, B: BarrierHw + ?Sized> RecGline<'a, B> {
    pub(crate) fn new(inner: &'a mut B, writes: &'a mut Vec<(u8, u64)>) -> RecGline<'a, B> {
        RecGline { inner, writes }
    }
}

impl<B: BarrierHw + ?Sized> BarrierHw for RecGline<'_, B> {
    fn num_cores(&self) -> usize {
        self.inner.num_cores()
    }
    fn write_bar_reg(&mut self, core: CoreId, ctx: CtxId, value: u64) {
        self.writes.push((ctx as u8, value));
        self.inner.write_bar_reg(core, ctx, value);
    }
    fn bar_reg(&self, core: CoreId, ctx: CtxId) -> u64 {
        self.inner.bar_reg(core, ctx)
    }
    fn all_released(&self, ctx: CtxId) -> bool {
        self.inner.all_released(ctx)
    }
    fn tick(&mut self) {
        self.inner.tick();
    }
    fn now(&self) -> Cycle {
        self.inner.now()
    }
    fn num_contexts(&self) -> usize {
        self.inner.num_contexts()
    }
    fn stats(&self, ctx: CtxId) -> GlineStats {
        self.inner.stats(ctx)
    }
}

/// One observed issue group, before spin compression.
#[derive(Debug)]
struct Obs {
    pc: u32,
    pc_after: u32,
    retires: u8,
    region: Option<Region>,
    bar_writes: Vec<(u8, u64)>,
    effect: Effect,
}

impl Obs {
    fn into_step(self) -> Step {
        Step {
            pc: self.pc,
            retires: self.retires,
            region: self.region,
            bar_writes: self.bar_writes,
            effect: self.effect,
        }
    }

    /// No side effects a spin iteration could not have.
    fn plain(&self) -> bool {
        self.bar_writes.is_empty() && self.region.is_none()
    }

    /// The group a spin loop at `top` executes in one cycle: `retires`
    /// instructions from `pc` on with `effect`, leaving the core at
    /// `pc_after` — what a dense run would have observed in a cycle the
    /// scheduler elided.
    fn spin_group(pc: u32, pc_after: u32, retires: u8, effect: Effect) -> Obs {
        Obs {
            pc,
            pc_after,
            retires,
            region: None,
            bar_writes: Vec::new(),
            effect,
        }
    }
}

/// True when `prog[at]` is a branch whose taken target is `top`.
fn branch_to(prog: &Program, at: usize, top: usize) -> bool {
    matches!(prog.fetch(at), Some(Inst::Branch { target, .. }) if target == top)
}

/// Matches one iteration of the G-line spin shape: `barr ; b<cond> …`
/// back to the same pc, two retires, one cycle, no machine interaction.
fn gline_iter_shape(obs: &Obs, prog: &Program) -> bool {
    let top = obs.pc as usize;
    obs.retires == 2
        && obs.effect == Effect::None
        && obs.plain()
        && obs.pc_after == obs.pc
        && matches!(prog.fetch(top), Some(Inst::BarRead { .. }))
        && branch_to(prog, top + 1, top)
}

/// Matches the load-issuing phase of a memory flag spin — `[li ;] ld`
/// at a loop top whose next instruction branches back to it — returning
/// the probed address and the iteration's retire count.
fn mem_a_shape(obs: &Obs, prog: &Program) -> Option<(u64, u8)> {
    let Effect::Load { addr } = obs.effect else {
        return None;
    };
    if !obs.plain() {
        return None;
    }
    let top = obs.pc as usize;
    match obs.retires {
        1 if obs.pc_after as usize == top + 1
            && matches!(prog.fetch(top), Some(Inst::Ld { .. }))
            && branch_to(prog, top + 1, top) =>
        {
            Some((addr, 2))
        }
        2 if obs.pc_after as usize == top + 2
            && matches!(prog.fetch(top), Some(Inst::Li { .. }))
            && matches!(prog.fetch(top + 1), Some(Inst::Ld { .. }))
            && branch_to(prog, top + 2, top) =>
        {
            Some((addr, 3))
        }
        _ => None,
    }
}

/// A spin run being accumulated (flushed as one compressed op).
#[derive(Debug)]
enum PendSpin {
    Gline {
        pc: u32,
        iters: u64,
    },
    Mem {
        pc: u32,
        addr: u64,
        ir: u8,
        iters: u64,
    },
}

/// A phase-A candidate held until the next group shows whether it pairs
/// into a full spin iteration.
#[derive(Debug)]
struct HeldA {
    step: Step,
    addr: u64,
    ir: u8,
}

/// One core's compression state machine.
#[derive(Debug, Default)]
pub(crate) struct CoreRec {
    ops: Vec<TraceOp>,
    spin: Option<PendSpin>,
    held: Option<HeldA>,
}

/// The program a recorded core executes.
fn exec_prog(prog: &CoreProg) -> &Program {
    match prog {
        CoreProg::Exec(p) => p,
        CoreProg::Replay(_) => panic!("cannot re-record a replay-mode system"),
    }
}

impl CoreRec {
    fn flush_spin(&mut self) {
        match self.spin.take() {
            None => {}
            Some(PendSpin::Gline { pc, iters }) => self.ops.push(TraceOp::GlineSpin { pc, iters }),
            Some(PendSpin::Mem {
                pc,
                addr,
                ir,
                iters,
            }) => self.ops.push(TraceOp::MemSpin {
                pc,
                addr,
                iter_retires: ir,
                iters,
            }),
        }
    }

    /// Runs `core.step` for cycle `now` and captures the issue group it
    /// executed: the memory request it made (if any), its latched
    /// `barw` values, its retires and where it left the pc. Pure-charge
    /// cycles (no retires, no new halt) record nothing: replay derives
    /// stall lengths from the live memory hierarchy — which is why a
    /// scheduler that elides them (stall parks, miss parks, clock
    /// jumps) owes the recorder nothing.
    pub(crate) fn step<M: CoreMem, G: BarrierHw + ?Sized, S: TraceSink>(
        &mut self,
        core: &mut Core,
        prog: &CoreProg,
        mem: &mut M,
        gline: &mut G,
        now: Cycle,
        tracer: &Tracer<S>,
    ) {
        let p = exec_prog(prog);
        let (pc, retired, region, halted) =
            (core.pc(), core.retired(), core.cur_region(), core.halted());
        let mut writes = Vec::new();
        let mut rmem = RecMem::new(mem);
        let mut rgl = RecGline::new(gline, &mut writes);
        core.step(prog, &mut rmem, &mut rgl, now, tracer);
        let retires = core.retired() - retired;
        let newly_halted = core.halted() && !halted;
        if retires == 0 && !newly_halted {
            debug_assert!(writes.is_empty(), "barrier write on a pure-charge cycle");
            return;
        }
        let effect = match rmem.req {
            Some(CoreReq::Load { addr }) => Effect::Load { addr },
            Some(CoreReq::Store { addr, value }) => Effect::Store { addr, value },
            Some(CoreReq::Amo { addr, op, operand }) => Effect::Amo { addr, op, operand },
            None if core.halted() => Effect::Halt,
            None => match core.busy_until() {
                Some(until) => Effect::Busy {
                    cycles: (until - now) as u32,
                },
                None => Effect::None,
            },
        };
        let obs = Obs {
            pc: pc as u32,
            pc_after: core.pc() as u32,
            retires: retires.min(u8::MAX as u64) as u8,
            region: (core.cur_region() != region).then(|| core.cur_region()),
            bar_writes: writes,
            effect,
        };
        self.observe(obs, p);
    }

    fn observe(&mut self, obs: Obs, prog: &Program) {
        // A held phase-A completes into a spin iteration iff this group
        // is its resolve phase: one retire (the back-branch), no
        // effects, jumping from the branch slot back to the loop top.
        if let Some(h) = self.held.take() {
            let b_pc = h.step.pc as usize + h.ir as usize - 1;
            if obs.retires == 1
                && obs.effect == Effect::None
                && obs.plain()
                && obs.pc as usize == b_pc
                && obs.pc_after == h.step.pc
            {
                match self.pending_mem_iters(h.step.pc, h.addr, h.ir) {
                    Some(iters) => *iters += 1,
                    None => {
                        self.flush_spin();
                        self.spin = Some(PendSpin::Mem {
                            pc: h.step.pc,
                            addr: h.addr,
                            ir: h.ir,
                            iters: 1,
                        });
                    }
                }
                return;
            }
            // Not a spin iteration after all (the loop exited, or the
            // shape was a false positive): the held group is a plain
            // step, and this group classifies fresh below.
            self.flush_spin();
            self.ops.push(TraceOp::Step(h.step));
        }
        if gline_iter_shape(&obs, prog) {
            match &mut self.spin {
                Some(PendSpin::Gline { pc, iters }) if *pc == obs.pc => *iters += 1,
                _ => {
                    self.flush_spin();
                    self.spin = Some(PendSpin::Gline {
                        pc: obs.pc,
                        iters: 1,
                    });
                }
            }
            return;
        }
        if let Some((addr, ir)) = mem_a_shape(&obs, prog) {
            self.held = Some(HeldA {
                step: obs.into_step(),
                addr,
                ir,
            });
            return;
        }
        self.flush_spin();
        self.ops.push(TraceOp::Step(obs.into_step()));
    }

    /// The iteration count of the pending `MemSpin`, if it is this very
    /// loop's.
    fn pending_mem_iters(&mut self, top: u32, probed: u64, retires: u8) -> Option<&mut u64> {
        match &mut self.spin {
            Some(PendSpin::Mem {
                pc,
                addr,
                ir,
                iters,
            }) if *pc == top && *addr == probed && *ir == retires => Some(iters),
            _ => None,
        }
    }

    /// Folds in `k` consecutive cycles of `plan`'s spin loop that the
    /// scheduler elided and settled in closed form
    /// ([`Core::ff_replay`]), leaving the state machine exactly where
    /// `k` observed cycles would have.
    pub(crate) fn fold_spin(&mut self, prog: &CoreProg, plan: &SpinPlan, k: u64) {
        self.fold_spin_cycles(exec_prog(prog), plan.top() as u32, plan.mem_probe(), k);
    }

    /// [`fold_spin`](Self::fold_spin) on the plan's shape: the loop's
    /// first pc and, for a memory-probing spin, `(addr, iter_retires,
    /// phase_b)` — `None` is a spin on `bar_reg`.
    fn fold_spin_cycles(
        &mut self,
        prog: &Program,
        top: u32,
        probe: Option<(u64, u8, bool)>,
        k: u64,
    ) {
        debug_assert!(k >= 1, "fold of an empty span");
        let Some((addr, ir, mut phase_b)) = probe else {
            // Every cycle is one whole `barr` + taken-branch iteration:
            // the first goes through `observe` (it may open the op or
            // continue a pending one), the rest only count.
            self.observe(Obs::spin_group(top, top, 2, Effect::None), prog);
            match &mut self.spin {
                Some(PendSpin::Gline { iters, .. }) => *iters += k - 1,
                _ => unreachable!("a parked bar_reg spin has the G-line spin shape"),
            }
            return;
        };
        // Cycles alternate between the issue phase and the resolve
        // phase. Observe them one by one until a resolve has folded into
        // this loop's pending op — at most three: a span that starts on
        // the resolve half of an iteration whose load issued in a wider
        // group has no held phase-A, and that resolve is a plain step.
        let b_pc = top + ir as u32 - 1;
        let issue = || Obs::spin_group(top, b_pc, ir - 1, Effect::Load { addr });
        let mut left = k;
        let mut folded = false;
        while left > 0 && !folded {
            if phase_b {
                self.observe(Obs::spin_group(b_pc, top, 1, Effect::None), prog);
                folded = self.pending_mem_iters(top, addr, ir).is_some();
            } else {
                self.observe(issue(), prog);
            }
            phase_b = !phase_b;
            left -= 1;
        }
        // From there every issue/resolve pair is one more iteration, and
        // an odd cycle left over is an issue phase waiting for its
        // resolve.
        if let Some(iters) = self.pending_mem_iters(top, addr, ir) {
            *iters += left / 2;
        }
        if left % 2 == 1 {
            self.observe(issue(), prog);
        }
    }
}

/// Per-core op streams of a run being recorded.
#[derive(Debug)]
pub(crate) struct Recorder {
    cores: Vec<CoreRec>,
}

impl Recorder {
    pub(crate) fn new(n: usize) -> Recorder {
        Recorder {
            cores: (0..n).map(|_| CoreRec::default()).collect(),
        }
    }

    /// Core `i`'s state machine.
    pub(crate) fn core(&mut self, i: usize) -> &mut CoreRec {
        &mut self.cores[i]
    }

    /// Flushes every core's pending state and returns the traces.
    pub(crate) fn finish(self) -> Vec<CoreTrace> {
        self.cores
            .into_iter()
            .enumerate()
            .map(|(i, mut c)| {
                if let Some(h) = c.held.take() {
                    c.flush_spin();
                    c.ops.push(TraceOp::Step(h.step));
                }
                c.flush_spin();
                CoreTrace {
                    core: i as u32,
                    ops: c.ops,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::assemble;

    /// `ld ; b` loop at pc 1, entered through a `li` at pc 0.
    const LD_LOOP: &str = "li r1, 0x100\ntop: ld r2, 0(r1)\nbeq r2, r0, top\nhalt";
    /// `li ; ld ; b` loop (the CSW/DSW flag wait) at pc 1.
    const LI_LD_LOOP: &str = "nop\ntop: li r1, 0x100\nld r2, 0(r1)\nbeq r2, r0, top\nhalt";
    /// `barr ; b` loop at pc 2.
    const BAR_LOOP: &str = "li r1, 1\nbarw r1\ntop: barr r2\nbne r2, r0, top\nhalt";
    const ADDR: u64 = 0x100;
    const SPANS: [u64; 6] = [1, 2, 3, 4, 7, 1000];

    /// What a recorder has observed before, or observes after, the span
    /// under test.
    type Context<'a> = &'a dyn Fn() -> Vec<Obs>;

    /// What a dense run observes in the `j`-th cycle of a memory spin at
    /// pc 1 that starts on its resolve phase iff `phase_b`.
    fn mem_cycle(ir: u8, phase_b: bool, j: u64) -> Obs {
        let (top, b_pc) = (1, ir as u32);
        if (j % 2 == 1) != phase_b {
            Obs::spin_group(b_pc, top, 1, Effect::None)
        } else {
            Obs::spin_group(top, b_pc, ir - 1, Effect::Load { addr: ADDR })
        }
    }

    /// Feeds `before` to two recorders, then `k` spin cycles — one by
    /// one through `observe` to the first, in closed form to the second
    /// — then `after`, and demands the same trace. `probe` is the memory
    /// spin's `(iter_retires, phase_b)`, `None` for the `barr` loop.
    fn check_fold(
        src: &str,
        probe: Option<(u8, bool)>,
        before: Context<'_>,
        after: Context<'_>,
        what: &str,
    ) {
        let prog = assemble(src).unwrap();
        for k in SPANS {
            let (mut dense, mut folded) = (Recorder::new(1), Recorder::new(1));
            for rec in [&mut dense, &mut folded] {
                for obs in before() {
                    rec.core(0).observe(obs, &prog);
                }
            }
            for j in 0..k {
                let obs = match probe {
                    Some((ir, phase_b)) => mem_cycle(ir, phase_b, j),
                    None => Obs::spin_group(2, 2, 2, Effect::None),
                };
                dense.core(0).observe(obs, &prog);
            }
            let (top, shape) = match probe {
                Some((ir, phase_b)) => (1, Some((ADDR, ir, phase_b))),
                None => (2, None),
            };
            folded.core(0).fold_spin_cycles(&prog, top, shape, k);
            for rec in [&mut dense, &mut folded] {
                for obs in after() {
                    rec.core(0).observe(obs, &prog);
                }
            }
            let (dense, folded) = (dense.finish(), folded.finish());
            assert_eq!(dense, folded, "{what}, k = {k}");
            assert!(!dense[0].ops.is_empty());
        }
    }

    fn nothing() -> Vec<Obs> {
        Vec::new()
    }

    /// The loop exits: the resolve phase falls through into `halt`.
    fn exit_from_b(ir: u8) -> Vec<Obs> {
        vec![Obs::spin_group(ir as u32, ir as u32 + 1, 2, Effect::Halt)]
    }

    #[test]
    fn bar_reg_fold_matches_cycle_by_cycle() {
        let entry = || vec![Obs::spin_group(0, 2, 2, Effect::None)];
        check_fold(BAR_LOOP, None, &entry, &nothing, "fresh");
        let pending = || {
            let mut obs = entry();
            obs.extend((0..3).map(|_| Obs::spin_group(2, 2, 2, Effect::None)));
            obs
        };
        check_fold(BAR_LOOP, None, &pending, &nothing, "continues a pending op");
        let exit = || vec![Obs::spin_group(2, 4, 2, Effect::None)];
        check_fold(BAR_LOOP, None, &pending, &exit, "pending op, then the exit");
    }

    #[test]
    fn mem_fold_matches_cycle_by_cycle() {
        for (src, ir) in [(LD_LOOP, 2u8), (LI_LD_LOOP, 3)] {
            let held_a = move || vec![mem_cycle(ir, false, 0)];
            let pending = move || (0..4).map(|j| mem_cycle(ir, false, j)).collect::<Vec<_>>();
            let pending_held_a = move || (0..5).map(|j| mem_cycle(ir, false, j)).collect();
            // The load issued together with the instruction before the
            // loop: not a phase-A shape, so nothing is held.
            let wide_entry = move || {
                vec![Obs::spin_group(
                    0,
                    ir as u32,
                    ir,
                    Effect::Load { addr: ADDR },
                )]
            };
            let exit = move || exit_from_b(ir);
            let cases: [(&str, bool, Context<'_>); 6] = [
                ("issue-phase start, fresh", false, &nothing),
                ("issue-phase start, pending op", false, &pending),
                ("resolve-phase start, held phase-A", true, &held_a),
                (
                    "resolve-phase start, pending op and held phase-A",
                    true,
                    &pending_held_a,
                ),
                ("resolve-phase start, no held phase-A", true, &wide_entry),
                ("resolve-phase start, nothing observed yet", true, &nothing),
            ];
            for (what, phase_b, before) in cases {
                let what = format!("{what}, {ir}-retire loop");
                check_fold(src, Some((ir, phase_b)), before, &nothing, &what);
                // Half the spans end at the loop top, where a real core
                // could not run the exit group next; the two recorders
                // must agree on whatever they are fed all the same.
                check_fold(
                    src,
                    Some((ir, phase_b)),
                    before,
                    &exit,
                    &format!("{what}, exit"),
                );
            }
        }
    }

    /// The closed form really is closed: a long span costs no more trace
    /// than a short one, and lands in one run-length op.
    #[test]
    fn fold_is_run_length_compressed() {
        let prog = assemble(LI_LD_LOOP).unwrap();
        let mut rec = Recorder::new(1);
        rec.core(0)
            .fold_spin_cycles(&prog, 1, Some((ADDR, 3, false)), 2_000_001);
        rec.core(0)
            .fold_spin_cycles(&prog, 1, Some((ADDR, 3, true)), 1);
        let ops = &rec.finish()[0].ops;
        assert_eq!(
            ops[..],
            [TraceOp::MemSpin {
                pc: 1,
                addr: ADDR,
                iter_retires: 3,
                iters: 1_000_001
            }]
        );
        let prog = assemble(BAR_LOOP).unwrap();
        let mut rec = Recorder::new(1);
        rec.core(0).fold_spin_cycles(&prog, 2, None, 5);
        rec.core(0).fold_spin_cycles(&prog, 2, None, 1_000_000);
        let ops = &rec.finish()[0].ops;
        assert_eq!(
            ops[..],
            [TraceOp::GlineSpin {
                pc: 2,
                iters: 1_000_005
            }]
        );
    }
}

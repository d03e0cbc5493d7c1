//! The parallel engines: the per-cycle sharded tick (`DESIGN.md` §11)
//! and the epoch-batched free-run protocol (`DESIGN.md` §13).
//!
//! [`System::run_with_workers`](crate::System::run_with_workers)
//! partitions the tiles into contiguous shards, one per worker thread,
//! and advances the machine in alternating phases:
//!
//! * **Compute** (parallel): every worker steps its shard's cores for
//!   one cycle against *frozen* shared state — the previous exchange's
//!   NoC delivery flags, the barrier network as of the cycle start —
//!   writing only shard-local state (its cores, their L1 lanes, its
//!   park arrays) plus two deterministic outboxes: latched `bar_reg`
//!   arrival writes and L1 protocol messages.
//! * **Exchange** (serialized on the coordinator): latched barrier
//!   writes replay into the real network in ascending core order, tile
//!   outboxes flush into the NoC in ascending tile order — both exactly
//!   the orders the serial core loop produces — then the shared
//!   components (`mem.tick`, `gline.tick`) advance and the clock
//!   increments.
//!
//! The two phases are separated by a sense-reversing
//! [`SpinBarrier`]; the coordinator (the caller's thread) doubles as
//! worker 0. Because every cross-shard effect is buffered and applied
//! in a thread-independent order, the parallel engine is **bit-identical**
//! to the serial one: same [`SystemReport`](crate::SystemReport), same
//! architectural memory — the property `tests/parallel_determinism.rs`
//! proves. (The scheduler diagnostics differ: the shards see the
//! barrier network through a frozen shadow, so they pass [`step_core`]
//! a release predicate pinned to `true` and never park a `bar_reg`
//! spinner, and the coordinator skips with the whole-machine
//! classifier instead of the wake index.)
//!
//! # Safety model
//!
//! All sharing goes through [`CycleCtx`], whose `unsafe impl Sync`
//! carries the proof obligations:
//!
//! * [`Ptrs`] is refreshed by the coordinator **while every worker is
//!   parked at the release barrier**, and read by workers only between
//!   the release and join barriers. The barrier's `AcqRel` protocol
//!   provides the happens-before edges both ways.
//! * Workers dereference disjoint index ranges (their shard) of the
//!   core/park/lane arrays; `WorkerOut` slots are indexed by worker id.
//! * The tracer and barrier-network pointers are shared read-only. The
//!   tracer is an `Rc`-based handle and **not** `Sync`; the parallel
//!   path is gated on `!S::ENABLED` (see
//!   [`System::run_with_workers`](crate::System::run_with_workers)), and
//!   every tracer touch in the core/memory/network models is gated on
//!   `S::ENABLED`, so no worker ever touches the `Rc` — the handle is
//!   only carried to satisfy signatures.

use crate::core::Core;
use crate::replay::CoreProg;
use crate::sched::{step_core, Park};
use crate::system::CoreSchedStats;
use gline_core::{BarrierHw, CtxId, GlineShadow};
use sim_base::shard::{EpochGate, SpinBarrier};
use sim_base::trace::{TraceSink, Tracer};
use sim_base::{CoreId, Cycle};
use sim_mem::{EpochTiles, TileLanes, PHASE_CORE};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// One worker's per-phase output, merged by the coordinator during the
/// exchange phase (ascending worker order). Allocations are reused
/// across cycles.
#[derive(Debug, Default)]
pub(crate) struct WorkerOut {
    /// Latched `bar_reg` arrival writes, in shard program order.
    pub(crate) latch: Vec<(Cycle, CoreId, CtxId, u64)>,
    /// Scheduler-counter delta for this phase (`ticks` stays zero; the
    /// coordinator counts ticks).
    pub(crate) sched: CoreSchedStats,
}

/// The coordinator's per-cycle snapshot of the machine, shared with the
/// workers through [`CycleCtx`]. Re-derived from `&mut System` every
/// cycle so no pointer outlives the borrows it came from.
#[derive(Debug)]
pub(crate) struct Ptrs<B: BarrierHw, S: TraceSink> {
    pub(crate) cores: *mut Core,
    pub(crate) progs: *const CoreProg,
    pub(crate) parks: *mut Park,
    pub(crate) lanes: TileLanes<S>,
    /// Frozen NoC delivery flags, one per tile (exact: the delivered
    /// queues only mutate in `mem.tick`, during the exchange phase).
    pub(crate) flags: *const bool,
    pub(crate) gline: *const B,
    pub(crate) tracer: *const Tracer<S>,
    pub(crate) now: Cycle,
    pub(crate) active_set: bool,
}

/// Everything the worker threads share for the lifetime of one
/// `run_with_workers` scope.
pub(crate) struct CycleCtx<B: BarrierHw, S: TraceSink> {
    /// The cycle's pointer snapshot (coordinator-written, see module
    /// docs for the phase discipline).
    pub(crate) ptrs: UnsafeCell<Ptrs<B, S>>,
    /// Shutdown flag, checked by workers after each release barrier.
    pub(crate) stop: AtomicBool,
    /// The phase barrier; all workers plus the coordinator participate.
    pub(crate) barrier: SpinBarrier,
    /// Shard `w`'s half-open tile range.
    pub(crate) shards: Vec<(usize, usize)>,
    /// Shard `w`'s output slot (worker-written during compute,
    /// coordinator-drained during exchange).
    pub(crate) outs: Vec<UnsafeCell<WorkerOut>>,
}

// SAFETY: see the module-level safety model — phase-disciplined access
// to `ptrs`/`outs` with happens-before provided by `barrier`, disjoint
// shard ranges behind the raw pointers, and a `!S::ENABLED` gate that
// keeps the non-Sync tracer handle untouched off the coordinator.
unsafe impl<B: BarrierHw, S: TraceSink> Sync for CycleCtx<B, S> {}

impl<B: BarrierHw, S: TraceSink> CycleCtx<B, S> {
    /// Builds the shared context for `shards.len()` participants.
    /// `init` is a throwaway snapshot — workers never read `ptrs`
    /// before the coordinator's first refresh.
    pub(crate) fn new(shards: Vec<(usize, usize)>, init: Ptrs<B, S>) -> CycleCtx<B, S> {
        let n = shards.len();
        CycleCtx {
            ptrs: UnsafeCell::new(init),
            stop: AtomicBool::new(false),
            barrier: SpinBarrier::new(n),
            shards,
            outs: (0..n)
                .map(|_| UnsafeCell::new(WorkerOut::default()))
                .collect(),
        }
    }
}

/// The body of worker `w` (`w >= 1`; the coordinator runs shard 0
/// inline). Parks at the release barrier, computes its shard, parks at
/// the join barrier, repeats until the stop flag is raised.
pub(crate) fn worker_loop<B: BarrierHw, S: TraceSink>(ctx: &CycleCtx<B, S>, w: usize) {
    let mut sense = false;
    loop {
        ctx.barrier.wait(&mut sense);
        if ctx.stop.load(Ordering::Acquire) {
            return;
        }
        let (lo, hi) = ctx.shards[w];
        // SAFETY: between the release and join barriers the coordinator
        // does not touch `ptrs` or any shared machine state, shard
        // ranges are disjoint, and `outs[w]` belongs to this worker.
        unsafe {
            shard_phase(&*ctx.ptrs.get(), lo, hi, &mut *ctx.outs[w].get());
        }
        ctx.barrier.wait(&mut sense);
    }
}

/// Steps cores `lo..hi` for one cycle against the frozen snapshot:
/// the serial tick's [`step_core`], with the memory system replaced by
/// the tile's [lane](sim_mem::LaneMem), the barrier network by a
/// write-latching [`GlineShadow`], the delivery predicate by the frozen
/// flags, the release predicate by `true`, the scheduler counters by the
/// worker's delta, and no trace recorder (recording is serial).
///
/// # Safety
///
/// Caller must uphold the [`CycleCtx`] phase discipline: `p` valid for
/// the current cycle, `lo..hi` disjoint from every concurrent caller's
/// range, `out` exclusively owned.
pub(crate) unsafe fn shard_phase<B: BarrierHw, S: TraceSink>(
    p: &Ptrs<B, S>,
    lo: usize,
    hi: usize,
    out: &mut WorkerOut,
) {
    let now = p.now;
    let mut gl = GlineShadow::new(&*p.gline, std::mem::take(&mut out.latch));
    let tracer = &*p.tracer;
    if p.active_set {
        for i in lo..hi {
            step_core(
                &mut *p.cores.add(i),
                &*p.progs.add(i),
                &mut *p.parks.add(i),
                &mut p.lanes.lane(i),
                &mut gl,
                *p.flags.add(i),
                true,
                now,
                tracer,
                &mut out.sched,
                None,
            );
        }
    } else {
        for i in lo..hi {
            let core = &mut *p.cores.add(i);
            let mut lane = p.lanes.lane(i);
            if !core.halted() {
                out.sched.core_steps += 1;
            }
            core.step(&*p.progs.add(i), &mut lane, &mut gl, now, tracer);
        }
    }
    out.latch = gl.into_writes();
}

/// The coordinator's per-epoch snapshot of the machine, shared with the
/// workers through [`EpochCtx`]. Re-derived from `&mut System` every
/// epoch so no pointer outlives the borrows it came from.
#[derive(Debug)]
pub(crate) struct EpochPtrs<B: BarrierHw, S: TraceSink> {
    pub(crate) cores: *mut Core,
    pub(crate) progs: *const CoreProg,
    pub(crate) parks: *mut Park,
    /// Whole-tile memory views (L1 + home + bank + epoch buffers).
    pub(crate) tiles: EpochTiles<S>,
    /// Per-tile activity flags for this epoch: an inactive tile is
    /// skipped wholesale (closed-form park accounting only).
    pub(crate) tile_active: *const bool,
    pub(crate) gline: *const B,
    pub(crate) tracer: *const Tracer<S>,
    /// First cycle of the window.
    pub(crate) start: Cycle,
    /// Window length in cycles (`>= 1`).
    pub(crate) window: u64,
    pub(crate) active_set: bool,
}

/// One worker's per-epoch output, merged by the coordinator during the
/// apply phase (ascending worker order). Allocations are reused across
/// epochs.
#[derive(Debug, Default)]
pub(crate) struct EpochWorkerOut {
    /// Latched `bar_reg` arrival writes, stamped with their free-run
    /// cycle, in (tile, cycle) order within the shard.
    pub(crate) latch: Vec<(Cycle, CoreId, CtxId, u64)>,
    /// Spare latch storage handed to each tile's fresh shadow.
    pub(crate) scratch: Vec<(Cycle, CoreId, CtxId, u64)>,
    /// Scheduler-counter delta for this epoch (`ticks` stays zero; the
    /// coordinator counts ticks).
    pub(crate) sched: CoreSchedStats,
    /// Busy-home tick visits performed in the free-run (the serial
    /// `mem.tick`'s `home_visits` increments).
    pub(crate) home_visits: u64,
    /// Tile-delivery visits performed in the free-run (the serial
    /// `mem.tick`'s `delivery_visits` increments).
    pub(crate) delivery_visits: u64,
}

/// Everything the worker threads share for the lifetime of one
/// epoch-protocol `run_with_workers` scope.
pub(crate) struct EpochCtx<B: BarrierHw, S: TraceSink> {
    /// The epoch's pointer snapshot (coordinator-written while all
    /// workers are parked at the gate).
    pub(crate) ptrs: UnsafeCell<EpochPtrs<B, S>>,
    /// The rendezvous: per-worker doorbells plus one join barrier,
    /// rung only for the workers whose shards have live tiles.
    pub(crate) gate: EpochGate,
    /// Shard `w`'s half-open tile range.
    pub(crate) shards: Vec<(usize, usize)>,
    /// Shard `w`'s output slot (worker-written during the free-run,
    /// coordinator-drained during apply).
    pub(crate) outs: Vec<UnsafeCell<EpochWorkerOut>>,
}

// SAFETY: same discipline as `CycleCtx`, with the gate in place of the
// barrier — `ptrs`/`outs` are written by the coordinator only while
// every worker is parked (before `open_epoch` / after `join`), workers
// dereference disjoint shard ranges, and the tracer `Rc` is never
// touched off the coordinator (`!S::ENABLED` gate).
unsafe impl<B: BarrierHw, S: TraceSink> Sync for EpochCtx<B, S> {}

impl<B: BarrierHw, S: TraceSink> EpochCtx<B, S> {
    /// Builds the shared context for `shards.len()` participants.
    /// `init` is a throwaway snapshot — workers never read `ptrs`
    /// before the coordinator's first refresh.
    pub(crate) fn new(shards: Vec<(usize, usize)>, init: EpochPtrs<B, S>) -> EpochCtx<B, S> {
        let n = shards.len();
        EpochCtx {
            ptrs: UnsafeCell::new(init),
            gate: EpochGate::new(n),
            shards,
            outs: (0..n)
                .map(|_| UnsafeCell::new(EpochWorkerOut::default()))
                .collect(),
        }
    }
}

/// The body of epoch worker `w` (`w >= 1`; the coordinator runs shard 0
/// inline). Parks on its doorbell, free-runs its shard for the posted
/// window, arrives at the join barrier, repeats until the gate closes.
pub(crate) fn epoch_worker_loop<B: BarrierHw, S: TraceSink>(ctx: &EpochCtx<B, S>, w: usize) {
    let mut seen = 0u64;
    loop {
        if ctx.gate.wait_for_ring(w, &mut seen) {
            return;
        }
        let (lo, hi) = ctx.shards[w];
        // SAFETY: between the ring and the join the coordinator does not
        // touch `ptrs` or any shared machine state, shard ranges are
        // disjoint, and `outs[w]` belongs to this worker.
        unsafe {
            epoch_shard_phase(&*ctx.ptrs.get(), lo, hi, &mut *ctx.outs[w].get());
        }
        ctx.gate.arrive();
    }
}

/// Free-runs tiles `lo..hi` for the posted window — the multi-cycle
/// form of [`shard_phase`], with the per-cycle frozen delivery flags
/// replaced by each tile's stamped inbox, the lane by a per-cycle view
/// of the whole tile (core phase, home-timer phase, delivery phase, in
/// the serial `tick`/`mem.tick` order), and the single-cycle latch by a
/// cycle-stamped one.
///
/// Inactive tiles are settled in closed form: a tile is only marked
/// inactive when nothing can reach it and its core cannot act inside
/// the window, so its whole contribution is `window` park-steps of the
/// right flavor (or nothing at all, when the core has halted).
///
/// # Safety
///
/// Caller must uphold the [`EpochCtx`] phase discipline: `p` valid for
/// the current epoch, `lo..hi` disjoint from every concurrent caller's
/// range, `out` exclusively owned.
pub(crate) unsafe fn epoch_shard_phase<B: BarrierHw, S: TraceSink>(
    p: &EpochPtrs<B, S>,
    lo: usize,
    hi: usize,
    out: &mut EpochWorkerOut,
) {
    let tracer = &*p.tracer;
    let end = p.start + p.window;
    for i in lo..hi {
        if !*p.tile_active.add(i) {
            // Never parked under the dense scheduler; a tile with a
            // `bar_reg` park is never inactive.
            match *p.parks.add(i) {
                Park::None => {}
                Park::Stall { .. } | Park::Miss { .. } => out.sched.parked_steps += p.window,
                Park::Spin { .. } | Park::Bar { .. } => out.sched.spin_parked_steps += p.window,
            }
            continue;
        }
        let core = &mut *p.cores.add(i);
        let prog = &*p.progs.add(i);
        let mut tile = p.tiles.tile(i);
        // A fresh shadow per tile: `set_now` must be monotone, and each
        // tile walks the window on its own.
        let mut gl = GlineShadow::new(&*p.gline, std::mem::take(&mut out.scratch));
        let park = &mut *p.parks.add(i);
        for now in p.start..end {
            gl.set_now(now);
            // Phase A — the core. The inbox front is this cycle's
            // delivery predicate: pushes from this very cycle stamp
            // `now` and mature at `now + 1`, so the predicate is stable
            // across the whole cycle, exactly like the serial frozen
            // flags.
            let delivery = tile.has_delivery(now);
            let mut lane = tile.lane(now);
            if p.active_set {
                step_core(
                    core,
                    prog,
                    park,
                    &mut lane,
                    &mut gl,
                    delivery,
                    true,
                    now,
                    tracer,
                    &mut out.sched,
                    None,
                );
            } else {
                if !core.halted() {
                    out.sched.core_steps += 1;
                }
                core.step(prog, &mut lane, &mut gl, now, tracer);
            }
            tile.route(now, PHASE_CORE);
            // Phase B — the home bank's timers (serial `mem.tick`'s
            // busy-homes pass; an idle bank's tick is a no-op there,
            // and its visit is not counted).
            if tile.home_busy() {
                out.home_visits += 1;
                tile.tick_home(now);
            }
            // Phase C — inbox deliveries due this cycle (serial
            // `mem.tick`'s delivery pass).
            if tile.deliver(now) {
                out.delivery_visits += 1;
            }
        }
        let mut writes = gl.into_writes();
        out.latch.append(&mut writes);
        out.scratch = writes;
    }
}

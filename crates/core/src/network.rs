//! The complete G-line barrier network for an `R × C` mesh.
//!
//! Wiring (Figure 1 of the paper), per barrier context:
//!
//! * each row has a **gather** G-line (slaves → row master) and a
//!   **release** G-line (row master → slaves);
//! * the first column has a **gather** G-line (row masters of rows ≥ 1,
//!   through their vertical-slave controllers → the vertical master at
//!   tile (0,0)) and a **release** G-line (vertical master → vertical
//!   slaves);
//! * total: `2 × (rows + 1)` G-lines per context.
//!
//! Cores interact with the network only through their `bar_reg` register:
//! writing a nonzero value announces arrival, and the register reads 0
//! once every core has arrived (the release resets it in hardware). This
//! matches the paper's programming idiom:
//!
//! ```text
//! mov 1, bar_reg        # arrival
//! loop: bnz bar_reg, loop   # wait
//! ```
//!
//! # Tracing
//!
//! The network is generic over a [`TraceSink`]; the default [`NullSink`]
//! monomorphizes every trace site away, so untraced simulation pays
//! nothing. A traced network (see [`BarrierNetwork::traced`]) emits the
//! full cycle-level story of Figure 2: G-line asserts and senses,
//! Figure-4 controller transitions, per-core arrivals/releases and the
//! episode-completion event.

use crate::controller::{MasterH, MasterV, SlaveH, SlaveHState, SlaveV};
use crate::line::GLine;
use crate::stats::{Episodes, GlineStats};
use sim_base::config::GlineConfig;
use sim_base::trace::{CtrlKind, Event, GlineKind, NullSink, TraceSink, Tracer};
use sim_base::{ActiveSet, Coord, CoreId, Cycle, Mesh2D};

/// Identifier of a barrier context (0-based). The baseline design of the
/// paper has a single context; the future-work extension multiplexes
/// several in space.
pub type CtxId = usize;

/// The pair of G-lines serving one row.
#[derive(Clone, Debug)]
struct RowNet {
    gather: GLine,
    release: GLine,
}

/// One independent barrier context: its own G-lines, controllers and
/// `bar_reg` bank.
///
/// A tick costs what moves, not the core count: transmit walks only the
/// signalling set, receive only the rows whose release line senses a
/// pulse, and the rest — lines, row and column controllers — is
/// O(rows).
#[derive(Clone, Debug)]
struct Context<S: TraceSink> {
    /// Index of this context within the network (for trace events).
    ctx_id: u32,
    bar_reg: Vec<u64>,
    /// Horizontal slave controllers, indexed by core: row `r`'s slaves
    /// are cores `r * cols + 1 .. (r + 1) * cols`. Column 0's entries
    /// are never used.
    slave_h: Vec<SlaveH>,
    /// The signalling set: the slaves in `Signaling` whose `bar_reg` is
    /// set — arrivals whose gather pulse the next transmit sends. Every
    /// other slave is stable until its row's release line senses a
    /// pulse.
    signalling: ActiveSet,
    /// One horizontal master per row.
    master_h: Vec<MasterH>,
    /// Vertical slaves for rows `1..R` (index `row - 1`).
    slave_v: Vec<SlaveV>,
    master_v: MasterV,
    rows: Vec<RowNet>,
    v_gather: GLine,
    v_release: GLine,
    /// Set `bar_reg`s: cores that arrived and are not yet released.
    outstanding: u32,
    episodes: Episodes,
    stats: GlineStats,
    tracer: Tracer<S>,
    /// Memoized [`is_quiescent`](Self::is_quiescent), recomputed at
    /// every mutation point (end of tick, arrival, gated release) so it
    /// is always *exact* — `next_event` through the memo answers
    /// identically to the direct computation, and a quiescent tick can
    /// early-return (a provable state- and trace-no-op).
    quiescent: bool,
    /// Per-tick snapshot of the `MasterH` flags (reused allocation).
    mh_flags: Vec<bool>,
}

impl<S: TraceSink> Context<S> {
    fn new(
        mesh: Mesh2D,
        cfg: GlineConfig,
        root_gated: bool,
        ctx_id: u32,
        tracer: Tracer<S>,
    ) -> Context<S> {
        let (rows, cols) = (mesh.rows as u32, mesh.cols as u32);
        let budget = |transmitters: u32| -> u32 {
            if transmitters <= cfg.max_transmitters {
                cfg.max_transmitters.max(1)
            } else {
                assert!(
                    cfg.line_latency > 1,
                    "{}×{} mesh exceeds the {}-transmitter G-line budget; use \
                     ClusteredBarrierNetwork or line_latency > 1 (repeatered lines)",
                    mesh.rows,
                    mesh.cols,
                    cfg.max_transmitters
                );
                transmitters
            }
        };
        let row_nets = (0..rows)
            .map(|_| RowNet {
                gather: GLine::new(budget(cols.saturating_sub(1)), cfg.line_latency),
                release: GLine::new(budget(1), cfg.line_latency),
            })
            .collect();
        let num_cores = mesh.num_tiles();
        let mut ctx = Context {
            ctx_id,
            bar_reg: vec![0; num_cores],
            slave_h: vec![SlaveH::new(); num_cores],
            signalling: ActiveSet::new(num_cores),
            master_h: (0..rows).map(|_| MasterH::new(cols - 1)).collect(),
            slave_v: (1..rows).map(|_| SlaveV::new()).collect(),
            master_v: MasterV::new(rows - 1, root_gated),
            rows: row_nets,
            v_gather: GLine::new(budget(rows.saturating_sub(1)), cfg.line_latency),
            v_release: GLine::new(budget(1), cfg.line_latency),
            outstanding: 0,
            episodes: Episodes::new(num_cores as u32),
            stats: GlineStats::default(),
            tracer,
            quiescent: false,
            mh_flags: Vec::with_capacity(mesh.rows as usize),
        };
        ctx.quiescent = ctx.is_quiescent(mesh);
        ctx
    }

    fn write_bar_reg(&mut self, mesh: Mesh2D, core: CoreId, value: u64, now: Cycle) {
        assert!(
            value != 0,
            "bar_reg arrival writes must be nonzero (paper §3.3)"
        );
        let ctx = self.ctx_id;
        let i = core.index();
        if self.bar_reg[i] == 0 {
            self.episodes.arrive(now);
            self.outstanding += 1;
            self.tracer.emit(now, || Event::BarrierArrive { ctx, core });
            // Outside column 0 the arrival is a slave's: its gather
            // pulse goes out in the next transmit.
            if !i.is_multiple_of(mesh.cols as usize) {
                self.signalling.insert(i);
            }
        }
        self.bar_reg[i] = value;
    }

    fn tick(&mut self, mesh: Mesh2D, now: Cycle) {
        if self.quiescent {
            // A quiescent tick is a provable no-op: every G-line is
            // idle, every controller is stable under held inputs (so
            // latch/transmit/receive change nothing and emit nothing)
            // and the episode guard below cannot fire. The memo is
            // exact, so skipping the scan is bit- and trace-identical.
            debug_assert!(self.is_quiescent(mesh));
            return;
        }
        let (nrows, cols) = (mesh.rows as usize, mesh.cols as usize);
        let ctx = self.ctx_id;

        // --- latch: registered cross-controller commands become visible.
        for mh in &mut self.master_h {
            mh.latch();
        }
        self.master_v.latch();
        // Snapshot MasterH flags: values produced up to the end of the
        // previous cycle, as seen by co-located vertical controllers.
        self.mh_flags.clear();
        self.mh_flags
            .extend(self.master_h.iter().map(MasterH::flag));

        // --- transmit. Only the signalling slaves can pulse; walking
        // the set in ascending core order keeps the event order of a
        // scan over every slave.
        for w in 0..self.signalling.num_words() {
            for i in self.signalling.word_members(w) {
                self.signalling.remove(i);
                let (sh, core, row) = (&mut self.slave_h[i], CoreId::from(i), (i / cols) as u16);
                let before = sh.state();
                if sh.transmit(self.bar_reg[i] != 0) {
                    let count = self.rows[row as usize].gather.assert_tx();
                    self.tracer.emit(now, || Event::GlineAssert {
                        ctx,
                        kind: GlineKind::RowGather,
                        row,
                        count,
                    });
                }
                let after = sh.state();
                if S::ENABLED && after != before {
                    self.tracer.emit(now, || Event::CtrlTransition {
                        ctx,
                        core,
                        ctrl: CtrlKind::SlaveH,
                        from: before.label(),
                        to: after.label(),
                    });
                }
            }
        }
        for r in 0..nrows {
            let before = self.master_h[r].state();
            if self.master_h[r].transmit() {
                let count = self.rows[r].release.assert_tx();
                self.tracer.emit(now, || Event::GlineAssert {
                    ctx,
                    kind: GlineKind::RowRelease,
                    row: r as u16,
                    count,
                });
                // The row master's own core is released by the master itself.
                self.clear_bar_reg(mesh.id_of(Coord::new(r as u16, 0)), now);
            }
            let after = self.master_h[r].state();
            if S::ENABLED && after != before {
                let core = mesh.id_of(Coord::new(r as u16, 0));
                self.tracer.emit(now, || Event::CtrlTransition {
                    ctx,
                    core,
                    ctrl: CtrlKind::MasterH,
                    from: before.label(),
                    to: after.label(),
                });
            }
        }
        for r in 1..nrows {
            let before = self.slave_v[r - 1].state();
            if self.slave_v[r - 1].transmit(self.mh_flags[r]) {
                let count = self.v_gather.assert_tx();
                self.tracer.emit(now, || Event::GlineAssert {
                    ctx,
                    kind: GlineKind::ColGather,
                    row: 0,
                    count,
                });
            }
            let after = self.slave_v[r - 1].state();
            if S::ENABLED && after != before {
                let core = mesh.id_of(Coord::new(r as u16, 0));
                self.tracer.emit(now, || Event::CtrlTransition {
                    ctx,
                    core,
                    ctrl: CtrlKind::SlaveV,
                    from: before.label(),
                    to: after.label(),
                });
            }
        }
        {
            let before = self.master_v.state();
            if self.master_v.transmit() {
                let count = self.v_release.assert_tx();
                self.tracer.emit(now, || Event::GlineAssert {
                    ctx,
                    kind: GlineKind::ColRelease,
                    row: 0,
                    count,
                });
                // Row 0's master is co-located with the vertical master: it is
                // commanded through a register, not through a G-line.
                self.master_h[0].command_release();
            }
            let after = self.master_v.state();
            if S::ENABLED && after != before {
                let core = mesh.id_of(Coord::new(0, 0));
                self.tracer.emit(now, || Event::CtrlTransition {
                    ctx,
                    core,
                    ctrl: CtrlKind::MasterV,
                    from: before.label(),
                    to: after.label(),
                });
            }
        }

        // --- propagate.
        for rn in &mut self.rows {
            rn.gather.propagate();
            rn.release.propagate();
        }
        self.v_gather.propagate();
        self.v_release.propagate();

        // What each receiver observes this cycle, before the controllers
        // consume it.
        if S::ENABLED {
            for (r, rn) in self.rows.iter().enumerate() {
                let g = rn.gather.sensed();
                if g.value {
                    self.tracer.emit(now, || Event::GlineSense {
                        ctx,
                        kind: GlineKind::RowGather,
                        row: r as u16,
                        count: g.count,
                    });
                }
                let rel = rn.release.sensed();
                if rel.value {
                    self.tracer.emit(now, || Event::GlineSense {
                        ctx,
                        kind: GlineKind::RowRelease,
                        row: r as u16,
                        count: rel.count,
                    });
                }
            }
            let vg = self.v_gather.sensed();
            if vg.value {
                self.tracer.emit(now, || Event::GlineSense {
                    ctx,
                    kind: GlineKind::ColGather,
                    row: 0,
                    count: vg.count,
                });
            }
            let vr = self.v_release.sensed();
            if vr.value {
                self.tracer.emit(now, || Event::GlineSense {
                    ctx,
                    kind: GlineKind::ColRelease,
                    row: 0,
                    count: vr.count,
                });
            }
        }

        // --- receive. A slave only moves when its row's release line
        // senses a pulse, so only those rows' slave ranges are visited.
        for r in 0..nrows {
            let release = self.rows[r].release.sensed();
            if !release.value {
                continue;
            }
            for i in r * cols + 1..(r + 1) * cols {
                let (sh, core) = (&mut self.slave_h[i], CoreId::from(i));
                let before = sh.state();
                let clear = sh.receive(release);
                let after = sh.state();
                if clear {
                    self.clear_bar_reg(core, now);
                }
                if S::ENABLED && after != before {
                    self.tracer.emit(now, || Event::CtrlTransition {
                        ctx,
                        core,
                        ctrl: CtrlKind::SlaveH,
                        from: before.label(),
                        to: after.label(),
                    });
                }
            }
        }
        for r in 0..nrows {
            let own = mesh.id_of(Coord::new(r as u16, 0));
            let arrived = self.bar_reg[own.index()] != 0;
            let sensed = self.rows[r].gather.sensed();
            let before = self.master_h[r].state();
            self.master_h[r].receive(sensed, arrived);
            let after = self.master_h[r].state();
            if S::ENABLED && after != before {
                self.tracer.emit(now, || Event::CtrlTransition {
                    ctx,
                    core: own,
                    ctrl: CtrlKind::MasterH,
                    from: before.label(),
                    to: after.label(),
                });
            }
        }
        for r in 1..nrows {
            let before = self.slave_v[r - 1].state();
            let fire = self.slave_v[r - 1].receive(self.v_release.sensed());
            let after = self.slave_v[r - 1].state();
            if fire {
                self.master_h[r].command_release();
            }
            if S::ENABLED && after != before {
                let core = mesh.id_of(Coord::new(r as u16, 0));
                self.tracer.emit(now, || Event::CtrlTransition {
                    ctx,
                    core,
                    ctrl: CtrlKind::SlaveV,
                    from: before.label(),
                    to: after.label(),
                });
            }
        }
        {
            let before = self.master_v.state();
            self.master_v
                .receive(self.v_gather.sensed(), self.mh_flags[0]);
            let after = self.master_v.state();
            if S::ENABLED && after != before {
                let core = mesh.id_of(Coord::new(0, 0));
                self.tracer.emit(now, || Event::CtrlTransition {
                    ctx,
                    core,
                    ctrl: CtrlKind::MasterV,
                    from: before.label(),
                    to: after.label(),
                });
            }
        }

        // --- episode accounting.
        if let Some(latency) = self.episodes.close(now, &mut self.stats) {
            self.tracer
                .emit(now, || Event::BarrierComplete { ctx, latency });
        }

        self.quiescent = self.is_quiescent(mesh);
        #[cfg(debug_assertions)]
        self.debug_check(mesh);
    }

    /// True when a tick of this context is a provable no-op: every
    /// G-line is electrically quiet and every controller is stable
    /// under its current (held) inputs. This is exactly the state of a
    /// partially-arrived barrier between events — waiters parked in
    /// `Waiting`, masters mid-count — where nothing moves until another
    /// core writes its `bar_reg` (or a gated root is triggered). O(rows):
    /// a horizontal slave is unstable exactly while it is in the
    /// signalling set.
    fn is_quiescent(&self, mesh: Mesh2D) -> bool {
        self.signalling.is_empty() && self.rest_quiescent(mesh)
    }

    /// [`is_quiescent`](Self::is_quiescent) computed by asking every
    /// horizontal slave instead of the signalling set (what
    /// [`check_invariants`](Self::check_invariants) holds the memo to).
    fn is_quiescent_full_scan(&self, mesh: Mesh2D) -> bool {
        let cols = mesh.cols as usize;
        let slaves_stable = (0..self.slave_h.len())
            .filter(|i| !i.is_multiple_of(cols))
            .all(|i| self.slave_h[i].is_stable(self.bar_reg[i] != 0));
        slaves_stable && self.rest_quiescent(mesh)
    }

    /// The quiescence conditions besides the horizontal slaves': idle
    /// lines, no pending episode, stable row and column controllers.
    fn rest_quiescent(&self, mesh: Mesh2D) -> bool {
        let lines_idle = self
            .rows
            .iter()
            .all(|rn| rn.gather.is_idle() && rn.release.is_idle())
            && self.v_gather.is_idle()
            && self.v_release.is_idle();
        if !lines_idle {
            return false;
        }
        // Episode accounting resets in the same tick it fires, so it can
        // never be pending between ticks; keep the guard anyway.
        if self.episodes.complete() {
            return false;
        }
        for r in 0..mesh.rows as usize {
            let own = mesh.id_of(Coord::new(r as u16, 0));
            let arrived = self.bar_reg[own.index()] != 0;
            if !self.master_h[r].is_stable(arrived) {
                return false;
            }
            if r >= 1 && !self.slave_v[r - 1].is_stable(self.master_h[r].flag()) {
                return false;
            }
        }
        self.master_v.is_stable(self.master_h[0].flag())
    }

    /// See [`BarrierNetwork::check_invariants`].
    fn check_invariants(&self, mesh: Mesh2D) -> Result<(), String> {
        let set = self.bar_reg.iter().filter(|&&v| v != 0).count() as u32;
        if self.outstanding != set {
            return Err(format!(
                "outstanding is {} but {set} bar_regs are set",
                self.outstanding
            ));
        }
        let cols = mesh.cols as usize;
        for (i, sh) in self.slave_h.iter().enumerate() {
            let signalling = !i.is_multiple_of(cols)
                && sh.state() == SlaveHState::Signaling
                && self.bar_reg[i] != 0;
            if self.signalling.contains(i) != signalling {
                return Err(format!(
                    "core {i} is {} the signalling set, its slave {} with bar_reg {}",
                    if signalling { "missing from" } else { "in" },
                    sh.state().label(),
                    self.bar_reg[i]
                ));
            }
        }
        let lines = self
            .rows
            .iter()
            .enumerate()
            .flat_map(|(r, rn)| [("gather", r, &rn.gather), ("release", r, &rn.release)]);
        for (kind, r, line) in lines {
            line.check_invariants()
                .map_err(|e| format!("row {r} {kind} line: {e}"))?;
        }
        self.v_gather
            .check_invariants()
            .map_err(|e| format!("column gather line: {e}"))?;
        self.v_release
            .check_invariants()
            .map_err(|e| format!("column release line: {e}"))?;
        for (r, mh) in self.master_h.iter().enumerate() {
            if mh.scnt() > mh.scnt_max() {
                return Err(format!(
                    "row {r}'s master counted {} of {} slave pulses",
                    mh.scnt(),
                    mh.scnt_max()
                ));
            }
        }
        if self.master_v.scnt() > self.master_v.scnt_max() {
            return Err(format!(
                "the vertical master counted {} of {} row pulses",
                self.master_v.scnt(),
                self.master_v.scnt_max()
            ));
        }
        let full = self.is_quiescent_full_scan(mesh);
        if self.quiescent != full {
            return Err(format!(
                "the quiescence memo says {} but the full scan says {full}",
                self.quiescent
            ));
        }
        Ok(())
    }

    /// Debug builds check [`check_invariants`](Self::check_invariants)
    /// after every non-quiescent tick and every arrival.
    #[cfg(debug_assertions)]
    fn debug_check(&self, mesh: Mesh2D) {
        if let Err(e) = self.check_invariants(mesh) {
            panic!("G-line context {}: {e}", self.ctx_id);
        }
    }

    fn clear_bar_reg(&mut self, core: CoreId, now: Cycle) {
        if self.bar_reg[core.index()] != 0 {
            self.bar_reg[core.index()] = 0;
            debug_assert!(self.outstanding > 0);
            self.outstanding -= 1;
            self.episodes.release(1);
            let ctx = self.ctx_id;
            self.tracer
                .emit(now, || Event::BarrierRelease { ctx, core });
        }
    }

    fn energy(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.gather.energy_signals() + r.release.energy_signals())
            .sum::<u64>()
            + self.v_gather.energy_signals()
            + self.v_release.energy_signals()
    }
}

/// A G-line barrier network for a mesh of cores, with one or more
/// independent barrier contexts.
///
/// Integration contract with a cycle-level simulator:
///
/// 1. during a cycle, cores may call [`write_bar_reg`](Self::write_bar_reg)
///    (arrival) and read [`bar_reg`](Self::bar_reg) (spin);
/// 2. at the end of every cycle the simulator calls [`tick`](Self::tick)
///    exactly once.
///
/// The `S` parameter selects the trace sink; the default [`NullSink`]
/// compiles all tracing away.
#[derive(Clone, Debug)]
pub struct BarrierNetwork<S: TraceSink = NullSink> {
    mesh: Mesh2D,
    cfg: GlineConfig,
    contexts: Vec<Context<S>>,
    now: Cycle,
    tracer: Tracer<S>,
}

impl BarrierNetwork {
    /// Builds the network. Panics if the mesh exceeds the G-line
    /// transmitter budget at 1-cycle latency (8×8 at the default budget) — use
    /// [`crate::ClusteredBarrierNetwork`] or a higher `line_latency`.
    pub fn new(mesh: Mesh2D, cfg: GlineConfig) -> BarrierNetwork {
        BarrierNetwork::traced(mesh, cfg, Tracer::default())
    }

    /// Like [`BarrierNetwork::new`], but the release is gated at the root:
    /// once all cores arrive the network parks in *root-ready* and waits
    /// for [`trigger_release`](Self::trigger_release). Building block for
    /// hierarchical composition.
    pub fn gated(mesh: Mesh2D, cfg: GlineConfig) -> BarrierNetwork {
        BarrierNetwork::build(mesh, cfg, true, Tracer::default())
    }
}

impl<S: TraceSink> BarrierNetwork<S> {
    /// Builds a traced network: every G-line assert/sense, controller
    /// transition and barrier event is emitted into `tracer`.
    pub fn traced(mesh: Mesh2D, cfg: GlineConfig, tracer: Tracer<S>) -> BarrierNetwork<S> {
        BarrierNetwork::build(mesh, cfg, false, tracer)
    }

    fn build(mesh: Mesh2D, cfg: GlineConfig, gated: bool, tracer: Tracer<S>) -> BarrierNetwork<S> {
        assert!(cfg.contexts >= 1, "at least one barrier context");
        let contexts = (0..cfg.contexts)
            .map(|i| Context::new(mesh, cfg, gated, i, tracer.clone()))
            .collect();
        BarrierNetwork {
            mesh,
            cfg,
            contexts,
            now: 0,
            tracer,
        }
    }

    /// The tracer shared by every context of this network.
    pub fn tracer(&self) -> &Tracer<S> {
        &self.tracer
    }

    /// Mesh this network spans.
    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    /// Configuration used to build the network.
    pub fn config(&self) -> GlineConfig {
        self.cfg
    }

    /// Number of independent barrier contexts.
    pub fn num_contexts(&self) -> usize {
        self.contexts.len()
    }

    /// Total G-lines in the network: `2 × (rows + 1)` per context.
    pub fn num_glines(&self) -> u32 {
        self.contexts.len() as u32 * 2 * (self.mesh.rows as u32 + 1)
    }

    /// The current cycle (number of [`tick`](Self::tick)s performed).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Core `core` announces arrival at barrier context `ctx` by writing a
    /// nonzero value into its `bar_reg`.
    pub fn write_bar_reg(&mut self, core: CoreId, ctx: CtxId, value: u64) {
        let now = self.now;
        let c = &mut self.contexts[ctx];
        c.write_bar_reg(self.mesh, core, value, now);
        c.quiescent = c.is_quiescent(self.mesh);
        #[cfg(debug_assertions)]
        c.debug_check(self.mesh);
    }

    /// Reads core `core`'s `bar_reg` for context `ctx`. Cores spin on this
    /// until it returns 0.
    pub fn bar_reg(&self, core: CoreId, ctx: CtxId) -> u64 {
        self.contexts[ctx].bar_reg[core.index()]
    }

    /// True iff every core has a cleared `bar_reg` in context `ctx`.
    /// O(1): the episode accounting counts set registers exactly (a
    /// register is set only through [`write_bar_reg`](Self::write_bar_reg)
    /// and cleared only through the release wave, both of which maintain
    /// the counter).
    pub fn all_released(&self, ctx: CtxId) -> bool {
        self.contexts[ctx].outstanding == 0
    }

    /// Number of currently set `bar_reg`s in context `ctx` (cores that
    /// arrived and are not yet released).
    pub fn outstanding(&self, ctx: CtxId) -> u32 {
        self.contexts[ctx].outstanding
    }

    /// True iff a gated-root context has gathered every core and is
    /// waiting for [`trigger_release`](Self::trigger_release).
    pub fn root_ready(&self, ctx: CtxId) -> bool {
        self.contexts[ctx].master_v.root_ready()
    }

    /// Starts the release wave of a gated-root context (effective next
    /// cycle). Panics if the context is not root-ready.
    pub fn trigger_release(&mut self, ctx: CtxId) {
        let now = self.now;
        let root = self.mesh.id_of(Coord::new(0, 0));
        let c = &mut self.contexts[ctx];
        let before = c.master_v.state();
        c.master_v.trigger_release();
        let after = c.master_v.state();
        if S::ENABLED && after != before {
            let ctx_id = c.ctx_id;
            c.tracer.emit(now, || Event::CtrlTransition {
                ctx: ctx_id,
                core: root,
                ctrl: CtrlKind::MasterV,
                from: before.label(),
                to: after.label(),
            });
        }
        c.quiescent = c.is_quiescent(self.mesh);
        #[cfg(debug_assertions)]
        c.debug_check(self.mesh);
    }

    /// Checks every context's bookkeeping against a full scan of its
    /// state and names the first broken invariant: `outstanding` counts
    /// the set `bar_reg`s; the signalling set holds exactly the
    /// horizontal slaves in `Signaling` with `bar_reg` set; every line's
    /// in-flight count matches its wire; no master has counted more
    /// pulses than it expects; and the quiescence memo equals the
    /// predicate computed from every slave. Debug builds run it after
    /// every non-quiescent tick and every arrival.
    pub fn check_invariants(&self) -> Result<(), String> {
        for c in &self.contexts {
            c.check_invariants(self.mesh)
                .map_err(|e| format!("context {}: {e}", c.ctx_id))?;
        }
        Ok(())
    }

    /// Advances the network by one clock cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        for ctx in &mut self.contexts {
            ctx.tick(self.mesh, now);
        }
        self.now += 1;
    }

    /// Statistics of context `ctx` (energy refreshed on read).
    pub fn stats(&self, ctx: CtxId) -> GlineStats {
        let c = &self.contexts[ctx];
        let mut s = c.stats.clone();
        s.signals = c.energy();
        s
    }

    /// Earliest cycle at which the network can change state on its own.
    ///
    /// `None` means every context is quiescent: all G-lines are idle and
    /// every controller is stable under its held inputs, so ticking is a
    /// no-op until some core writes a `bar_reg` (or triggers a gated
    /// release). Otherwise a barrier episode is in flight and every cycle
    /// matters, so the answer is the very next one.
    pub fn next_event(&self) -> Option<Cycle> {
        if self.contexts.iter().all(|c| c.quiescent) {
            None
        } else {
            Some(self.now + 1)
        }
    }

    /// Jumps the clock to cycle `t` without ticking. Only legal while
    /// [`next_event`](Self::next_event) is `None` — every skipped tick is
    /// then provably a state no-op, so all observable state (controller
    /// states, `bar_reg`s, stats, energy) is bit-identical to having
    /// ticked `t - now` times.
    pub fn skip_to(&mut self, t: Cycle) {
        debug_assert!(t >= self.now, "cannot skip backwards");
        debug_assert!(
            self.next_event().is_none(),
            "barrier-network skip while an episode is in flight"
        );
        self.now = t;
    }
}

/// Common interface of barrier hardware: the flat [`BarrierNetwork`],
/// the two-level [`crate::ClusteredBarrierNetwork`] and
/// [`crate::GlineHw`], which holds whichever of the two a configuration
/// calls for, all implement it.
pub trait BarrierHw {
    /// Number of cores the hardware synchronizes.
    fn num_cores(&self) -> usize;
    /// Core announces arrival at context `ctx` (nonzero `value`).
    fn write_bar_reg(&mut self, core: CoreId, ctx: CtxId, value: u64);
    /// Reads a core's `bar_reg` for context `ctx` (0 = released).
    fn bar_reg(&self, core: CoreId, ctx: CtxId) -> u64;
    /// True iff every core's `bar_reg` is clear in context `ctx`.
    fn all_released(&self, ctx: CtxId) -> bool;
    /// Advances one clock cycle.
    fn tick(&mut self);
    /// Cycles ticked so far.
    fn now(&self) -> Cycle;
    /// Number of independent barrier contexts this hardware offers.
    fn num_contexts(&self) -> usize;
    /// Statistics of one context.
    fn stats(&self, ctx: CtxId) -> GlineStats;

    /// Earliest future cycle at which this hardware can change state
    /// without further external input, or `None` if it is quiescent and
    /// will stay frozen until a `write_bar_reg`. "Something may happen
    /// next cycle" is always correct, but never lets a simulator skip
    /// over this hardware.
    fn next_event(&self) -> Option<Cycle>;

    /// Advances the clock to cycle `t`. Only legal while
    /// [`next_event`](Self::next_event) reports no event before `t`:
    /// the jump must leave the hardware exactly as `t - now` ticks
    /// would.
    fn skip_to(&mut self, t: Cycle);

    /// Lower bound on the number of cycles before *any* core's set
    /// `bar_reg` can clear, as of now. A simulator parks `bar_reg`
    /// spinners on it: while the bound exceeds 1, no clear can land in
    /// this cycle's tick. While a context still misses arrivals, a
    /// release is at least the hardware's propagation floor away even
    /// if the last arrival happens immediately; once every core has
    /// arrived the release wave may already be in flight, so the bound
    /// collapses to 1. A bound of 1 is always correct, but never lets
    /// a spinner park.
    fn release_bound(&self) -> u64;

    /// Convenience driver for tests and benchmarks: runs one complete
    /// barrier on context 0 where core `i` arrives at `arrivals[i]`
    /// (relative to the current cycle), and returns the cycle count from
    /// the last arrival to the release (inclusive) — the paper's barrier
    /// latency, ideally 4 for the flat network.
    ///
    /// Panics if the barrier does not complete within a generous deadline
    /// (wiring-bug guard).
    fn run_single_barrier(&mut self, arrivals: &[Cycle]) -> u64 {
        assert_eq!(
            arrivals.len(),
            self.num_cores(),
            "one arrival time per core"
        );
        let last = *arrivals.iter().max().expect("at least one core");
        let base = self.now();
        let deadline = base + last + 1024;
        loop {
            for (i, &a) in arrivals.iter().enumerate() {
                if base + a == self.now() && self.bar_reg(CoreId::from(i), 0) == 0 {
                    self.write_bar_reg(CoreId::from(i), 0, 1);
                }
            }
            self.tick();
            if self.now() > base + last && self.all_released(0) {
                return self.now() - (base + last);
            }
            assert!(
                self.now() < deadline,
                "barrier did not complete before the deadline"
            );
        }
    }
}

impl<S: TraceSink> BarrierHw for BarrierNetwork<S> {
    fn num_cores(&self) -> usize {
        self.mesh.num_tiles()
    }
    fn num_contexts(&self) -> usize {
        BarrierNetwork::num_contexts(self)
    }
    fn stats(&self, ctx: CtxId) -> GlineStats {
        BarrierNetwork::stats(self, ctx)
    }
    fn write_bar_reg(&mut self, core: CoreId, ctx: CtxId, value: u64) {
        BarrierNetwork::write_bar_reg(self, core, ctx, value);
    }
    fn bar_reg(&self, core: CoreId, ctx: CtxId) -> u64 {
        BarrierNetwork::bar_reg(self, core, ctx)
    }
    fn all_released(&self, ctx: CtxId) -> bool {
        BarrierNetwork::all_released(self, ctx)
    }
    fn tick(&mut self) {
        BarrierNetwork::tick(self);
    }
    fn now(&self) -> Cycle {
        BarrierNetwork::now(self)
    }
    fn next_event(&self) -> Option<Cycle> {
        BarrierNetwork::next_event(self)
    }
    fn skip_to(&mut self, t: Cycle) {
        BarrierNetwork::skip_to(self, t);
    }
    fn release_bound(&self) -> u64 {
        // Per context: once every core has arrived the release wave
        // may complete on any cycle (1). Before that, the wave cannot
        // even start until the last arrival, and then takes one cycle
        // on the column G-line, one in the row controller, one on the
        // row G-line and one in the global controller before the
        // release can begin to propagate back — the paper's 4-cycle
        // barrier floor (`four_cycles_on_every_mesh_up_to_8x8`).
        self.contexts
            .iter()
            .map(|c| if c.episodes.all_arrived() { 1 } else { 4 })
            .min()
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefNetwork;
    use sim_base::check::{forall, forall_cases};
    use sim_base::rng::SplitMix64;
    use sim_base::trace::RingSink;

    fn cfg() -> GlineConfig {
        GlineConfig::default()
    }

    fn all_zero(n: usize) -> Vec<Cycle> {
        vec![0; n]
    }

    #[test]
    fn four_cycles_on_2x2_matches_figure_2() {
        let mut net = BarrierNetwork::new(Mesh2D::new(2, 2), cfg());
        assert_eq!(net.run_single_barrier(&all_zero(4)), 4);
    }

    #[test]
    fn fresh_network_is_quiescent_and_skippable() {
        let mut net = BarrierNetwork::new(Mesh2D::new(4, 8), cfg());
        assert_eq!(net.next_event(), None);
        net.skip_to(10_000);
        assert_eq!(net.now(), 10_000);
        // A barrier run after the jump behaves exactly like one from cold.
        assert_eq!(net.run_single_barrier(&all_zero(32)), 4);
        // The release wave leaves the controllers draining for a few
        // cycles; once that settles the network parks again.
        for _ in 0..16 {
            net.tick();
        }
        assert_eq!(net.next_event(), None, "released network parks again");
    }

    #[test]
    fn partial_arrival_settles_back_to_quiescence() {
        let mut net = BarrierNetwork::new(Mesh2D::new(2, 2), cfg());
        net.write_bar_reg(CoreId::from(1usize), 0, 1);
        assert_eq!(
            net.next_event(),
            Some(net.now() + 1),
            "an arrival puts the network in motion"
        );
        for _ in 0..16 {
            net.tick();
        }
        assert_eq!(net.next_event(), None, "partially-arrived barrier parks");
        // Skipping while parked must not perturb the eventual barrier.
        net.skip_to(net.now() + 1_000_000);
        for i in [0usize, 2, 3] {
            net.write_bar_reg(CoreId::from(i), 0, 1);
        }
        let start = net.now();
        while !net.all_released(0) {
            net.tick();
            assert!(net.now() - start < 64, "barrier must still complete");
        }
        assert_eq!(net.stats(0).barriers_completed, 1);
    }

    #[test]
    fn four_cycles_on_paper_32_core_mesh() {
        let mut net = BarrierNetwork::new(Mesh2D::new(4, 8), cfg());
        assert_eq!(net.run_single_barrier(&all_zero(32)), 4);
    }

    #[test]
    fn four_cycles_on_every_mesh_up_to_8x8() {
        for r in 1..=8u16 {
            for c in 1..=8u16 {
                let mesh = Mesh2D::new(r, c);
                let mut net = BarrierNetwork::new(mesh, cfg());
                assert_eq!(
                    net.run_single_barrier(&all_zero(mesh.num_tiles())),
                    4,
                    "latency wrong on {r}×{c}"
                );
            }
        }
    }

    #[test]
    fn staggered_arrivals_release_after_last() {
        let mesh = Mesh2D::new(2, 2);
        let mut net = BarrierNetwork::new(mesh, cfg());
        // Core 3 is 100 cycles late.
        let lat = net.run_single_barrier(&[0, 5, 2, 100]);
        assert_eq!(lat, 4);
        let s = net.stats(0);
        assert_eq!(s.barriers_completed, 1);
        assert_eq!(s.episode.max(), Some(104)); // first at 0, release at 103
    }

    #[test]
    fn no_core_released_before_all_arrive() {
        let mesh = Mesh2D::new(2, 2);
        let mut net = BarrierNetwork::new(mesh, cfg());
        for i in 0..3 {
            net.write_bar_reg(CoreId(i), 0, 1);
        }
        for _ in 0..50 {
            net.tick();
            for i in 0..3 {
                assert_ne!(net.bar_reg(CoreId(i), 0), 0, "core {i} escaped early");
            }
        }
        net.write_bar_reg(CoreId(3), 0, 1);
        for _ in 0..4 {
            net.tick();
        }
        assert!(net.all_released(0));
    }

    #[test]
    fn back_to_back_barriers() {
        let mesh = Mesh2D::new(2, 4);
        let n = mesh.num_tiles();
        let mut net = BarrierNetwork::new(mesh, cfg());
        for episode in 0..10 {
            assert_eq!(net.run_single_barrier(&all_zero(n)), 4, "episode {episode}");
        }
        assert_eq!(net.stats(0).barriers_completed, 10);
        assert_eq!(net.stats(0).mean_latency(), 4.0);
    }

    #[test]
    fn contexts_are_independent() {
        let mesh = Mesh2D::new(2, 2);
        let mut gcfg = cfg();
        gcfg.contexts = 2;
        let mut net = BarrierNetwork::new(mesh, gcfg);
        // All cores arrive in ctx 0; only some in ctx 1.
        for i in 0..4 {
            net.write_bar_reg(CoreId(i), 0, 1);
        }
        net.write_bar_reg(CoreId(0), 1, 1);
        for _ in 0..8 {
            net.tick();
        }
        assert!(net.all_released(0), "ctx 0 must complete");
        assert_ne!(net.bar_reg(CoreId(0), 1), 0, "ctx 1 must still hold core 0");
        // Finish ctx 1.
        for i in 1..4 {
            net.write_bar_reg(CoreId(i), 1, 1);
        }
        for _ in 0..4 {
            net.tick();
        }
        assert!(net.all_released(1));
    }

    #[test]
    fn gline_count_formula() {
        let net = BarrierNetwork::new(Mesh2D::new(4, 4), cfg());
        assert_eq!(net.num_glines(), 10); // paper: 10 for a 16-core CMP
        let net = BarrierNetwork::new(Mesh2D::new(4, 8), cfg());
        assert_eq!(net.num_glines(), 10);
        // Aspect ratio at 32 cores: 2×(rows+1) makes wide meshes cheaper
        // in wires than tall ones, at the same 4-cycle latency (budget
        // relaxed so the 16-wide rows fit).
        let wide = GlineConfig {
            max_transmitters: 15,
            ..cfg()
        };
        for (rows, cols, glines) in [(2, 16, 6), (16, 2, 34), (8, 4, 18)] {
            let mut net = BarrierNetwork::new(Mesh2D::new(rows, cols), wide);
            assert_eq!(net.num_glines(), glines, "{rows}x{cols}");
            assert_eq!(net.run_single_barrier(&all_zero(32)), 4, "{rows}x{cols}");
        }
    }

    #[test]
    #[should_panic(expected = "G-line budget")]
    fn oversized_mesh_rejected_at_unit_latency() {
        let _ = BarrierNetwork::new(Mesh2D::new(9, 9), cfg());
    }

    #[test]
    #[should_panic(expected = "G-line budget")]
    fn strict_paper_budget_rejects_4x8() {
        // With the paper's literal 6-transmitter budget, its own 32-core
        // 4×8 evaluation mesh does not fit (see GlineConfig docs).
        let gcfg = GlineConfig {
            max_transmitters: 6,
            ..cfg()
        };
        let _ = BarrierNetwork::new(Mesh2D::new(4, 8), gcfg);
    }

    #[test]
    fn oversized_mesh_allowed_with_slow_lines() {
        let mesh = Mesh2D::new(10, 10);
        let gcfg = GlineConfig {
            line_latency: 2,
            ..cfg()
        };
        let mut net = BarrierNetwork::new(mesh, gcfg);
        let lat = net.run_single_barrier(&all_zero(100));
        // Two-cycle lines double each of the 4 line traversals.
        assert_eq!(lat, 8);
        // With the budget relaxed so every latency fits, the episode is
        // 4 line traversals of `line_latency` cycles each.
        for line_latency in 1..=4 {
            let gcfg = GlineConfig {
                line_latency,
                max_transmitters: 9,
                ..cfg()
            };
            let mut net = BarrierNetwork::new(mesh, gcfg);
            let lat = net.run_single_barrier(&all_zero(100));
            assert_eq!(
                lat,
                4 * u64::from(line_latency),
                "line_latency {line_latency}"
            );
        }
    }

    #[test]
    fn gated_root_holds_until_triggered() {
        let mesh = Mesh2D::new(2, 2);
        let mut net = BarrierNetwork::gated(mesh, cfg());
        for i in 0..4 {
            net.write_bar_reg(CoreId(i), 0, 1);
        }
        for _ in 0..20 {
            net.tick();
        }
        assert!(net.root_ready(0));
        assert!(!net.all_released(0), "gated root must hold the release");
        net.trigger_release(0);
        for _ in 0..3 {
            net.tick();
        }
        assert!(net.all_released(0));
    }

    #[test]
    fn energy_counts_signals() {
        let mesh = Mesh2D::new(2, 2);
        let mut net = BarrierNetwork::new(mesh, cfg());
        net.run_single_barrier(&all_zero(4));
        // 2 SlaveH pulses + 1 SlaveV pulse + 1 MglineV + 2 MglineH = 6.
        assert_eq!(net.stats(0).signals, 6);
    }

    #[test]
    fn single_core_mesh_still_synchronizes() {
        let mut net = BarrierNetwork::new(Mesh2D::new(1, 1), cfg());
        assert_eq!(net.run_single_barrier(&[0]), 4);
    }

    #[test]
    fn traced_network_reports_figure_2_story() {
        // All four cores of a 2×2 arrive at cycle 0; the trace must tell
        // the complete Figure-2 story: 4 arrivals, the gather and release
        // waves on the G-lines, 4 releases, completion at latency 4.
        let tracer = Tracer::new(RingSink::new(256));
        let mut net = BarrierNetwork::traced(Mesh2D::new(2, 2), cfg(), tracer.clone());
        assert_eq!(net.run_single_barrier(&all_zero(4)), 4);
        let events: Vec<(Cycle, Event)> = tracer.with_sink(|s| s.events().cloned().collect());
        let count = |pred: &dyn Fn(&Event) -> bool| events.iter().filter(|(_, e)| pred(e)).count();
        assert_eq!(count(&|e| matches!(e, Event::BarrierArrive { .. })), 4);
        assert_eq!(count(&|e| matches!(e, Event::BarrierRelease { .. })), 4);
        assert_eq!(
            count(&|e| matches!(
                e,
                Event::GlineAssert {
                    kind: GlineKind::RowGather,
                    ..
                }
            )),
            2,
            "one slave per row pulses the gather line"
        );
        assert_eq!(
            count(&|e| matches!(
                e,
                Event::GlineAssert {
                    kind: GlineKind::ColRelease,
                    ..
                }
            )),
            1
        );
        let complete: Vec<&(Cycle, Event)> = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::BarrierComplete { .. }))
            .collect();
        assert_eq!(complete.len(), 1);
        assert!(matches!(
            complete[0].1,
            Event::BarrierComplete { latency: 4, .. }
        ));
        // Cycle stamps are monotonic.
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn traced_and_untraced_networks_agree() {
        // The tracer must be observation-only: identical latency, stats
        // and energy with and without it.
        let mesh = Mesh2D::new(2, 4);
        let arrivals: Vec<Cycle> = (0..mesh.num_tiles() as u64).map(|i| i * 3 % 7).collect();
        let mut plain = BarrierNetwork::new(mesh, cfg());
        let mut traced = BarrierNetwork::traced(mesh, cfg(), Tracer::new(RingSink::new(64)));
        assert_eq!(
            plain.run_single_barrier(&arrivals),
            traced.run_single_barrier(&arrivals)
        );
        let (ps, ts) = (plain.stats(0), traced.stats(0));
        assert_eq!(ps.barriers_completed, ts.barriers_completed);
        assert_eq!(ps.latency.sum(), ts.latency.sum());
        assert_eq!(ps.signals, ts.signals);
    }

    #[test]
    fn lone_slave_arrival_moves_the_network_for_one_line_latency() {
        // The pulse is sensed and counted in the tick that sends it (one
        // tick per cycle of line latency); nothing has to drain after.
        for line_latency in 1..=3 {
            let gcfg = GlineConfig {
                line_latency,
                ..cfg()
            };
            let mut net = BarrierNetwork::new(Mesh2D::new(2, 2), gcfg);
            net.write_bar_reg(CoreId(1), 0, 1);
            for tick in 0..line_latency {
                assert_eq!(net.next_event(), Some(net.now() + 1), "tick {tick}");
                net.tick();
            }
            assert_eq!(net.next_event(), None, "latency {line_latency}");
            assert_eq!(net.contexts[0].master_h[0].scnt(), 1, "pulse counted");
        }
    }

    #[test]
    fn early_released_cores_rearriving_are_counted_in_the_next_episode() {
        // On 3-cycle lines the wave releases column 0's cores two cycles
        // before the rest. They re-arrive the cycle they are released,
        // while the others are still set; the others take three cycles.
        // The run must still count all 20 episodes, and the release
        // bound must lift between them so spinners can park.
        let gcfg = GlineConfig {
            line_latency: 3,
            ..cfg()
        };
        let mesh = Mesh2D::new(4, 8);
        let n = mesh.num_tiles();
        let mut net = BarrierNetwork::new(mesh, gcfg);
        let mut arrivals = vec![0u32; n];
        let mut due = vec![0; n];
        let (mut early, mut parked) = (false, false);
        while net.now() < 2000 {
            for i in 0..n {
                let idle = net.bar_reg(CoreId::from(i), 0) == 0;
                if idle && due[i] <= net.now() && arrivals[i] < 20 {
                    net.write_bar_reg(CoreId::from(i), 0, 1);
                    arrivals[i] += 1;
                    due[i] = Cycle::MAX;
                }
            }
            let set: Vec<u32> = (0..n)
                .filter(|&i| net.bar_reg(CoreId::from(i), 0) != 0)
                .map(|i| arrivals[i])
                .collect();
            early |= set.iter().any(|&a| a != set[0]);
            parked |= !set.is_empty() && BarrierHw::release_bound(&net) > 1;
            net.tick();
            for (i, t) in due.iter_mut().enumerate() {
                if *t == Cycle::MAX && net.bar_reg(CoreId::from(i), 0) == 0 {
                    *t = net.now() + if i % 8 == 0 { 0 } else { 3 };
                }
            }
        }
        assert!(early, "no core re-arrived ahead of the release wave");
        assert!(parked, "the release bound never lifted");
        let s = net.stats(0);
        assert_eq!(s.barriers_completed, 20);
        assert_eq!(s.latency.min(), s.latency.max(), "one latency per episode");
        assert!(net.all_released(0));
    }

    #[test]
    fn check_invariants_names_a_broken_signalling_set() {
        let mut net = BarrierNetwork::new(Mesh2D::new(2, 4), cfg());
        net.check_invariants().unwrap();
        net.contexts[0].signalling.insert(5);
        let err = net.check_invariants().unwrap_err();
        assert!(err.contains("core 5 is in the signalling set"), "{err}");
    }

    /// Every observable of the event-driven network and the full-scan
    /// reference must agree, and the event network's invariants hold.
    fn assert_lockstep(
        net: &BarrierNetwork<RingSink>,
        reference: &RefNetwork<RingSink>,
        seen: &mut usize,
        when: &str,
    ) {
        net.check_invariants()
            .unwrap_or_else(|e| panic!("{when}: {e}"));
        assert_eq!(net.now(), reference.now(), "{when}");
        for ctx in 0..net.num_contexts() {
            for i in 0..net.mesh().num_tiles() {
                let core = CoreId::from(i);
                assert_eq!(
                    net.bar_reg(core, ctx),
                    reference.bar_reg(core, ctx),
                    "{when}: bar_reg of core {i}, ctx {ctx}"
                );
            }
            assert_eq!(net.outstanding(ctx), reference.outstanding(ctx), "{when}");
            assert_eq!(net.root_ready(ctx), reference.root_ready(ctx), "{when}");
            assert_eq!(net.stats(ctx), reference.stats(ctx), "{when}: ctx {ctx}");
        }
        assert_eq!(net.next_event(), reference.next_event(), "{when}");
        assert_eq!(
            BarrierHw::release_bound(net),
            reference.release_bound(),
            "{when}"
        );
        let events = |t: &Tracer<RingSink>| -> Vec<(Cycle, Event)> {
            t.with_sink(|s| s.events().skip(*seen).cloned().collect())
        };
        let got = events(net.tracer());
        assert_eq!(got, events(reference.tracer()), "{when}: event streams");
        *seen += got.len();
    }

    /// One lockstep case: a random mesh (up to 8×8, or 10×10 on slow
    /// lines), line latency, context count and gating; cores arrive at
    /// random, re-arrive a random delay after their release and now and
    /// then rewrite a set `bar_reg`; gated roots are triggered a random
    /// delay after they report ready; and while both networks are
    /// quiescent the event network may jump its clock where the
    /// reference ticks through. After every tick each context has
    /// counted exactly the episodes whose cores have all been released,
    /// a count the driver keeps itself.
    fn lockstep_case(rng: &mut SplitMix64) {
        let (mesh, line_latency) = if rng.chance(0.1) {
            (Mesh2D::new(10, 10), 2 + rng.next_below(2) as u32)
        } else {
            let (rows, cols) = (1 + rng.next_below(8), 1 + rng.next_below(8));
            (
                Mesh2D::new(rows as u16, cols as u16),
                1 + rng.next_below(3) as u32,
            )
        };
        let n = mesh.num_tiles();
        let contexts = 1 + rng.next_below(3) as usize;
        let gcfg = GlineConfig {
            contexts: contexts as u32,
            line_latency,
            ..cfg()
        };
        let gated = rng.chance(0.3);
        let (t_net, t_ref) = (
            Tracer::new(RingSink::new(usize::MAX)),
            Tracer::new(RingSink::new(usize::MAX)),
        );
        let mut net = BarrierNetwork::build(mesh, gcfg, gated, t_net);
        let mut reference = RefNetwork::new(mesh, gcfg, gated, t_ref);
        let spread = rng.next_below(40);
        // Per (context, core): the cycle of the next arrival, `None`
        // while waiting for a release.
        let mut next: Vec<Vec<Option<Cycle>>> = (0..contexts)
            .map(|_| (0..n).map(|_| Some(rng.next_below(spread + 1))).collect())
            .collect();
        let mut trigger_at: Vec<Option<Cycle>> = vec![None; contexts];
        // Per (context, core): releases seen. Episode k is complete once
        // every core has been released k + 1 times.
        let mut releases = vec![vec![0u64; n]; contexts];
        let horizon = 150 + rng.next_below(250);
        let mut seen = 0;
        while net.now() < horizon {
            let now = net.now();
            for ctx in 0..contexts {
                for (i, due) in next[ctx].iter_mut().enumerate() {
                    if due.is_some_and(|t| t <= now) {
                        let v = 1 + rng.next_below(3);
                        net.write_bar_reg(CoreId::from(i), ctx, v);
                        reference.write_bar_reg(CoreId::from(i), ctx, v);
                        *due = None;
                    }
                }
                if rng.chance(0.05) {
                    // A write to a set register is not an arrival.
                    let i = rng.next_below(n as u64) as usize;
                    if net.bar_reg(CoreId::from(i), ctx) != 0 {
                        net.write_bar_reg(CoreId::from(i), ctx, 7);
                        reference.write_bar_reg(CoreId::from(i), ctx, 7);
                    }
                }
                if net.root_ready(ctx) {
                    match trigger_at[ctx] {
                        None => trigger_at[ctx] = Some(now + rng.next_below(3)),
                        Some(t) if t <= now => {
                            net.trigger_release(ctx);
                            reference.trigger_release(ctx);
                            trigger_at[ctx] = None;
                        }
                        Some(_) => {}
                    }
                }
            }
            assert_lockstep(&net, &reference, &mut seen, &format!("cycle {now}, inputs"));
            let held: Vec<Vec<bool>> = (0..contexts)
                .map(|ctx| {
                    (0..n)
                        .map(|i| net.bar_reg(CoreId::from(i), ctx) != 0)
                        .collect()
                })
                .collect();
            if net.next_event().is_none() && rng.chance(0.3) {
                let k = 1 + rng.next_below(20);
                net.skip_to(now + k);
                for _ in 0..k {
                    reference.tick();
                }
            } else {
                net.tick();
                reference.tick();
            }
            assert_lockstep(&net, &reference, &mut seen, &format!("cycle {now}, tick"));
            for ctx in 0..contexts {
                for i in 0..n {
                    if held[ctx][i] && net.bar_reg(CoreId::from(i), ctx) == 0 {
                        releases[ctx][i] += 1;
                        next[ctx][i] = Some(net.now() + rng.next_below(spread + 1));
                    }
                }
                assert_eq!(
                    Some(net.stats(ctx).barriers_completed),
                    releases[ctx].iter().copied().min(),
                    "cycle {now}: episodes counted in ctx {ctx}"
                );
            }
        }
    }

    #[test]
    fn lockstep_with_full_scan_reference() {
        forall("lockstep_with_full_scan_reference", lockstep_case);
    }

    #[test]
    #[ignore = "4,096 cases; CI runs it in release"]
    fn lockstep_with_full_scan_reference_4096_cases() {
        forall_cases(
            "lockstep_with_full_scan_reference_4096_cases",
            4096,
            lockstep_case,
        );
    }
}

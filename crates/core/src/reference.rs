//! The full-scan G-line network that [`crate::BarrierNetwork`] replaced,
//! kept as the reference model of its lockstep property (the
//! `network.rs` tests).
//!
//! Every tick walks every horizontal slave in transmit and in receive,
//! a slow line is a `VecDeque` of in-flight values whose idleness is a
//! scan, and quiescence asks every controller. It never skips a tick —
//! a quiescent tick runs in full and changes nothing — so it shares no
//! shortcut with the network it checks: not the signalling set, not the
//! per-row receive, not the in-flight counts, not the quiescence memo.

use crate::controller::{MasterH, MasterV, SlaveH, SlaveV};
use crate::line::Sensed;
use crate::stats::GlineStats;
use sim_base::config::GlineConfig;
use sim_base::trace::{CtrlKind, Event, GlineKind, Tracer};
use sim_base::{Coord, CoreId, Cycle, Mesh2D};
use std::collections::VecDeque;

/// A G-line: what was asserted `latency - 1` cycles ago is sensed.
struct Line {
    pending: u32,
    pipeline: VecDeque<Sensed>,
    sensed: Sensed,
    energy: u64,
}

impl Line {
    fn new(latency: u32) -> Line {
        Line {
            pending: 0,
            pipeline: VecDeque::from(vec![Sensed::default(); latency as usize - 1]),
            sensed: Sensed::default(),
            energy: 0,
        }
    }

    fn assert_tx(&mut self) -> u32 {
        self.pending += 1;
        self.energy += 1;
        self.pending
    }

    fn propagate(&mut self) {
        self.pipeline.push_back(Sensed {
            value: self.pending > 0,
            count: self.pending,
        });
        self.pending = 0;
        self.sensed = self.pipeline.pop_front().expect("one entry pushed");
    }

    fn is_idle(&self) -> bool {
        self.pending == 0 && self.pipeline.iter().all(|s| !s.value)
    }
}

/// One barrier episode of the reference's bookkeeping.
#[derive(Default)]
struct Episode {
    arrived: u32,
    released: u32,
    first: Cycle,
    last: Cycle,
}

struct Context {
    ctx_id: u32,
    num_cores: u32,
    bar_reg: Vec<u64>,
    /// `(controller, core, row)` for every tile outside column 0, in
    /// ascending core order.
    slave_h: Vec<(SlaveH, CoreId, u16)>,
    master_h: Vec<MasterH>,
    slave_v: Vec<SlaveV>,
    master_v: MasterV,
    /// `(gather, release)` per row.
    rows: Vec<(Line, Line)>,
    v_gather: Line,
    v_release: Line,
    outstanding: u32,
    /// Per core, arrivals and releases so far: a core's `k`th arrival
    /// and its `k`th release belong to episode `k`, whatever the cycle.
    arrivals: Vec<u64>,
    releases: Vec<u64>,
    /// The episodes not yet closed, oldest first, after `closed` closed
    /// ones.
    episodes: VecDeque<Episode>,
    closed: u64,
    stats: GlineStats,
    tracer: Tracer,
}

impl Context {
    fn new(mesh: Mesh2D, cfg: GlineConfig, gated: bool, ctx_id: u32, tracer: Tracer) -> Context {
        let lat = cfg.line_latency;
        Context {
            ctx_id,
            num_cores: mesh.num_tiles() as u32,
            bar_reg: vec![0; mesh.num_tiles()],
            slave_h: mesh
                .coords()
                .filter(|&c| c.col > 0)
                .map(|c| (SlaveH::new(), mesh.id_of(c), c.row))
                .collect(),
            master_h: (0..mesh.rows)
                .map(|_| MasterH::new(mesh.cols as u32 - 1))
                .collect(),
            slave_v: (1..mesh.rows).map(|_| SlaveV::new()).collect(),
            master_v: MasterV::new(mesh.rows as u32 - 1, gated),
            rows: (0..mesh.rows)
                .map(|_| (Line::new(lat), Line::new(lat)))
                .collect(),
            v_gather: Line::new(lat),
            v_release: Line::new(lat),
            outstanding: 0,
            arrivals: vec![0; mesh.num_tiles()],
            releases: vec![0; mesh.num_tiles()],
            episodes: VecDeque::new(),
            closed: 0,
            stats: GlineStats::default(),
            tracer,
        }
    }

    fn transition(
        &self,
        now: Cycle,
        core: CoreId,
        ctrl: CtrlKind,
        from: &'static str,
        to: &'static str,
    ) {
        if from != to {
            let ctx = self.ctx_id;
            self.tracer.emit(now, || Event::CtrlTransition {
                ctx,
                core,
                ctrl,
                from,
                to,
            });
        }
    }

    fn assert_event(&self, now: Cycle, kind: GlineKind, row: u16, count: u32) {
        let ctx = self.ctx_id;
        self.tracer.emit(now, || Event::GlineAssert {
            ctx,
            kind,
            row,
            count,
        });
    }

    fn sense_event(&self, now: Cycle, kind: GlineKind, row: u16, s: Sensed) {
        let ctx = self.ctx_id;
        if s.value {
            self.tracer.emit(now, || Event::GlineSense {
                ctx,
                kind,
                row,
                count: s.count,
            });
        }
    }

    /// The oldest episode, once all of its arrivals are released.
    fn complete(&self) -> Option<&Episode> {
        self.episodes
            .front()
            .filter(|e| e.released == self.num_cores)
    }

    fn arrive(&mut self, core: CoreId, now: Cycle) {
        let k = (self.arrivals[core.index()] - self.closed) as usize;
        self.arrivals[core.index()] += 1;
        if self.episodes.len() <= k {
            self.episodes.resize_with(k + 1, Episode::default);
        }
        let e = &mut self.episodes[k];
        if e.arrived == 0 {
            e.first = now;
        }
        e.arrived += 1;
        e.last = now;
        self.outstanding += 1;
        let ctx = self.ctx_id;
        self.tracer.emit(now, || Event::BarrierArrive { ctx, core });
    }

    fn clear_bar_reg(&mut self, core: CoreId, now: Cycle) {
        if self.bar_reg[core.index()] != 0 {
            self.bar_reg[core.index()] = 0;
            self.outstanding -= 1;
            let k = (self.releases[core.index()] - self.closed) as usize;
            self.releases[core.index()] += 1;
            self.episodes[k].released += 1;
            let ctx = self.ctx_id;
            self.tracer
                .emit(now, || Event::BarrierRelease { ctx, core });
        }
    }

    fn tick(&mut self, mesh: Mesh2D, now: Cycle) {
        let nrows = mesh.rows as usize;
        let head = |r: usize| mesh.id_of(Coord::new(r as u16, 0));
        for mh in &mut self.master_h {
            mh.latch();
        }
        self.master_v.latch();
        let flags: Vec<bool> = self.master_h.iter().map(MasterH::flag).collect();

        // Transmit: every slave, every row, the column.
        for k in 0..self.slave_h.len() {
            let (core, row) = (self.slave_h[k].1, self.slave_h[k].2);
            let before = self.slave_h[k].0.state().label();
            if self.slave_h[k].0.transmit(self.bar_reg[core.index()] != 0) {
                let count = self.rows[row as usize].0.assert_tx();
                self.assert_event(now, GlineKind::RowGather, row, count);
            }
            let after = self.slave_h[k].0.state().label();
            self.transition(now, core, CtrlKind::SlaveH, before, after);
        }
        for r in 0..nrows {
            let before = self.master_h[r].state().label();
            if self.master_h[r].transmit() {
                let count = self.rows[r].1.assert_tx();
                self.assert_event(now, GlineKind::RowRelease, r as u16, count);
                self.clear_bar_reg(head(r), now);
            }
            let after = self.master_h[r].state().label();
            self.transition(now, head(r), CtrlKind::MasterH, before, after);
        }
        for (r, &flag) in flags.iter().enumerate().skip(1) {
            let before = self.slave_v[r - 1].state().label();
            if self.slave_v[r - 1].transmit(flag) {
                let count = self.v_gather.assert_tx();
                self.assert_event(now, GlineKind::ColGather, 0, count);
            }
            let after = self.slave_v[r - 1].state().label();
            self.transition(now, head(r), CtrlKind::SlaveV, before, after);
        }
        let before = self.master_v.state().label();
        if self.master_v.transmit() {
            let count = self.v_release.assert_tx();
            self.assert_event(now, GlineKind::ColRelease, 0, count);
            self.master_h[0].command_release();
        }
        let after = self.master_v.state().label();
        self.transition(now, head(0), CtrlKind::MasterV, before, after);

        // Propagate every line, and report what each receiver senses.
        for (g, rel) in &mut self.rows {
            g.propagate();
            rel.propagate();
        }
        self.v_gather.propagate();
        self.v_release.propagate();
        for r in 0..nrows {
            self.sense_event(now, GlineKind::RowGather, r as u16, self.rows[r].0.sensed);
            self.sense_event(now, GlineKind::RowRelease, r as u16, self.rows[r].1.sensed);
        }
        self.sense_event(now, GlineKind::ColGather, 0, self.v_gather.sensed);
        self.sense_event(now, GlineKind::ColRelease, 0, self.v_release.sensed);

        // Receive: every slave, every row, the column.
        for k in 0..self.slave_h.len() {
            let (core, row) = (self.slave_h[k].1, self.slave_h[k].2);
            let before = self.slave_h[k].0.state().label();
            if self.slave_h[k].0.receive(self.rows[row as usize].1.sensed) {
                self.clear_bar_reg(core, now);
            }
            let after = self.slave_h[k].0.state().label();
            self.transition(now, core, CtrlKind::SlaveH, before, after);
        }
        for r in 0..nrows {
            let own = head(r);
            let arrived = self.bar_reg[own.index()] != 0;
            let before = self.master_h[r].state().label();
            self.master_h[r].receive(self.rows[r].0.sensed, arrived);
            let after = self.master_h[r].state().label();
            self.transition(now, own, CtrlKind::MasterH, before, after);
        }
        for r in 1..nrows {
            let before = self.slave_v[r - 1].state().label();
            if self.slave_v[r - 1].receive(self.v_release.sensed) {
                self.master_h[r].command_release();
            }
            let after = self.slave_v[r - 1].state().label();
            self.transition(now, head(r), CtrlKind::SlaveV, before, after);
        }
        let before = self.master_v.state().label();
        self.master_v.receive(self.v_gather.sensed, flags[0]);
        let after = self.master_v.state().label();
        self.transition(now, head(0), CtrlKind::MasterV, before, after);

        if let Some(&Episode { first, last, .. }) = self.complete() {
            let (ctx, latency) = (self.ctx_id, now - last + 1);
            self.tracer
                .emit(now, || Event::BarrierComplete { ctx, latency });
            self.stats.record(first, last, now);
            self.episodes.pop_front();
            self.closed += 1;
        }
    }

    fn is_quiescent(&self, mesh: Mesh2D) -> bool {
        let lines_idle = self.rows.iter().all(|(g, r)| g.is_idle() && r.is_idle())
            && self.v_gather.is_idle()
            && self.v_release.is_idle();
        let slaves_stable = self
            .slave_h
            .iter()
            .all(|(sh, core, _)| sh.is_stable(self.bar_reg[core.index()] != 0));
        let rows_stable = (0..mesh.rows as usize).all(|r| {
            let own = mesh.id_of(Coord::new(r as u16, 0)).index();
            self.master_h[r].is_stable(self.bar_reg[own] != 0)
                && (r == 0 || self.slave_v[r - 1].is_stable(self.master_h[r].flag()))
        });
        lines_idle
            && slaves_stable
            && rows_stable
            && self.master_v.is_stable(self.master_h[0].flag())
            && self.complete().is_none()
    }

    fn energy(&self) -> u64 {
        let rows: u64 = self.rows.iter().map(|(g, r)| g.energy + r.energy).sum();
        rows + self.v_gather.energy + self.v_release.energy
    }
}

/// The full-scan reference network: the observable surface of
/// [`crate::BarrierNetwork`] that the lockstep property compares.
pub(crate) struct RefNetwork {
    mesh: Mesh2D,
    contexts: Vec<Context>,
    now: Cycle,
}

impl RefNetwork {
    pub(crate) fn new(mesh: Mesh2D, cfg: GlineConfig, gated: bool, tracer: Tracer) -> RefNetwork {
        let contexts = (0..cfg.contexts)
            .map(|i| Context::new(mesh, cfg, gated, i, tracer.clone()))
            .collect();
        RefNetwork {
            mesh,
            contexts,
            now: 0,
        }
    }

    pub(crate) fn write_bar_reg(&mut self, core: CoreId, ctx: usize, value: u64) {
        let now = self.now;
        let c = &mut self.contexts[ctx];
        if c.bar_reg[core.index()] == 0 {
            c.arrive(core, now);
        }
        c.bar_reg[core.index()] = value;
    }

    pub(crate) fn now(&self) -> Cycle {
        self.now
    }

    pub(crate) fn tracer(&self) -> &Tracer {
        &self.contexts[0].tracer
    }

    pub(crate) fn bar_reg(&self, core: CoreId, ctx: usize) -> u64 {
        self.contexts[ctx].bar_reg[core.index()]
    }

    pub(crate) fn outstanding(&self, ctx: usize) -> u32 {
        self.contexts[ctx].outstanding
    }

    pub(crate) fn root_ready(&self, ctx: usize) -> bool {
        self.contexts[ctx].master_v.root_ready()
    }

    pub(crate) fn trigger_release(&mut self, ctx: usize) {
        let (now, root) = (self.now, self.mesh.id_of(Coord::new(0, 0)));
        let c = &mut self.contexts[ctx];
        let before = c.master_v.state().label();
        c.master_v.trigger_release();
        let after = c.master_v.state().label();
        c.transition(now, root, CtrlKind::MasterV, before, after);
    }

    pub(crate) fn tick(&mut self) {
        for c in &mut self.contexts {
            c.tick(self.mesh, self.now);
        }
        self.now += 1;
    }

    pub(crate) fn stats(&self, ctx: usize) -> GlineStats {
        let c = &self.contexts[ctx];
        GlineStats {
            signals: c.energy(),
            ..c.stats.clone()
        }
    }

    pub(crate) fn next_event(&self) -> Option<Cycle> {
        let quiet = self.contexts.iter().all(|c| c.is_quiescent(self.mesh));
        (!quiet).then_some(self.now + 1)
    }

    pub(crate) fn release_bound(&self) -> u64 {
        let all_in = self
            .contexts
            .iter()
            .any(|c| c.episodes.front().is_some_and(|e| e.arrived == c.num_cores));
        if all_in {
            1
        } else {
            4
        }
    }
}

//! The assembled machine.

use crate::core::{Core, Fault};
use crate::sched::{step_core, Park, WakeIndex};
use crate::stats::SystemReport;
use gline_core::{BarrierHw, GlineHw};
use sim_base::config::CmpConfig;
use sim_base::stats::TimeBreakdown;
use sim_base::trace::{NullSink, TraceSink, Tracer};
use sim_base::{CoreId, Cycle};
use sim_isa::Program;
use sim_mem::MemorySystem;
use sim_trace::{CoreTrace, TraceSet};

/// The full CMP: cores + memory hierarchy + NoC + G-line barrier
/// hardware. The barrier hardware is the [`GlineHw`] the configuration
/// calls for — the flat network within the G-line transmitter budget,
/// the clustered one beyond it — so every constructor serves every
/// mesh. Generic over the trace sink (disabled by default; see
/// [`sim_base::trace`]), which every layer shares, the barrier network
/// included.
///
/// `B` stays for [`with_barrier_hw`](System::with_barrier_hw), whose one
/// reason to exist is that `benchmark/src/sut.rs` names
/// `System<ClusteredBarrierNetwork>`.
#[derive(Debug)]
pub struct System<B: BarrierHw = GlineHw, S: TraceSink = NullSink> {
    cfg: CmpConfig,
    cores: Vec<Core>,
    progs: Vec<Program>,
    mem: MemorySystem<S>,
    gline: B,
    tracer: Tracer<S>,
    now: Cycle,
    /// Clock-jump effectiveness counters (diagnostics only; not part
    /// of [`SystemReport`], so default and dense reports stay
    /// bit-identical).
    skip_stats: SkipStats,
    /// Active-set micro-scheduling (see
    /// [`Self::set_active_set_enabled`]).
    active_set_enabled: bool,
    /// Per-core park state (all [`Park::None`] under the dense tick):
    /// the single source of truth for who is parked on what.
    parks: Vec<Park>,
    /// Bitset index over `parks` and the halted cores, kept in step by
    /// the sparse tick (see [`WakeIndex`]).
    index: WakeIndex,
    /// Core-scheduler occupancy counters (diagnostics only).
    sched: CoreSchedStats,
    /// The first program fault (lowest core of the first faulting
    /// cycle); every run entry point stops on it.
    fault: Option<Fault>,
}

/// How well the cycle-skipping scheduler is doing on a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Clock jumps evaluated: every `advance` that found no core to
    /// step. `skips <= attempts`.
    pub attempts: u64,
    /// Attempts that jumped the clock.
    pub skips: u64,
    /// Total cycles elided across all jumps.
    pub cycles_skipped: u64,
    /// Always 0: the wake-driven engine has no failure backoff. Kept
    /// only because `benchmark/src/sut.rs` reads it, until a
    /// `benchmark` PR retires `sim_cmp.skip_backed_off`.
    pub backed_off: u64,
}

/// Core-scheduler occupancy counters (diagnostics only; not part of
/// [`SystemReport`], so sparse and dense runs stay bit-identical).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreSchedStats {
    /// Ticks performed.
    pub ticks: u64,
    /// Core steps actually executed.
    pub core_steps: u64,
    /// Core steps elided because the core was parked on a stall (pure
    /// breakdown charges applied lazily at wake-up).
    pub parked_steps: u64,
    /// Core steps elided because the core was parked in a recognized
    /// memory-probing spin loop (replayed in closed form at wake-up).
    pub spin_parked_steps: u64,
}

impl CoreSchedStats {
    /// Core-cycles accounted for: stepped plus elided. On both
    /// engine configurations this equals the report's
    /// `total_time.total()` — every charged core-cycle is counted
    /// exactly once, as a step or as a parked step.
    pub fn core_cycles(&self) -> u64 {
        self.core_steps + self.parked_steps + self.spin_parked_steps
    }

    /// Mean number of cores stepped per tick.
    pub fn mean_active_cores(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.core_steps as f64 / self.ticks as f64
        }
    }
}

impl<B: BarrierHw> System<B> {
    /// Builds the machine around explicit barrier hardware. Kept only
    /// for `benchmark/src/sut.rs`, which names
    /// `System<ClusteredBarrierNetwork>` through
    /// `Workload::into_system_with_hw`. Every other machine gets the
    /// [`GlineHw`] its configuration picks: through [`System::new`], or
    /// through `Workload::into_system`, which hands it to this method.
    ///
    /// # Panics
    /// Panics unless `progs.len() == cfg.num_cores() == hw.num_cores()`.
    pub fn with_barrier_hw(cfg: CmpConfig, progs: Vec<Program>, hw: B) -> System<B> {
        System::assemble(cfg, progs, hw, Tracer::default())
    }
}

impl<B: BarrierHw, S: TraceSink> System<B, S> {
    fn assemble(cfg: CmpConfig, progs: Vec<Program>, hw: B, tracer: Tracer<S>) -> System<B, S> {
        assert_eq!(progs.len(), cfg.num_cores(), "one program per core");
        assert_eq!(
            hw.num_cores(),
            cfg.num_cores(),
            "barrier hardware core count mismatch"
        );
        let cores = (0..cfg.num_cores())
            .map(|i| Core::new(CoreId::from(i), cfg.core.issue_width))
            .collect();
        System {
            cfg,
            cores,
            progs,
            mem: MemorySystem::traced(&cfg, tracer.clone()),
            gline: hw,
            tracer,
            now: 0,
            skip_stats: SkipStats::default(),
            active_set_enabled: true,
            parks: vec![Park::None; cfg.num_cores()],
            index: WakeIndex::new(cfg.num_cores()),
            sched: CoreSchedStats::default(),
            fault: None,
        }
    }
}

impl System {
    /// Builds the machine with one program per core.
    ///
    /// # Panics
    /// Panics unless `progs.len() == cfg.num_cores()`.
    pub fn new(cfg: CmpConfig, progs: Vec<Program>) -> System {
        System::traced(cfg, progs, Tracer::default())
    }

    /// Convenience: every core runs the same program.
    pub fn homogeneous(cfg: CmpConfig, prog: Program) -> System {
        let progs = vec![prog; cfg.num_cores()];
        System::new(cfg, progs)
    }

    /// Builds the machine a recorded image describes: [`System::new`]
    /// on its programs, with its pokes applied. Its one reason to exist
    /// is the `trace_replay` workload of `benchmark/src/sut.rs`; it goes
    /// with that workload.
    ///
    /// # Panics
    /// Panics unless `set` holds one program per core.
    pub fn replay(cfg: CmpConfig, set: &TraceSet) -> System {
        let progs = set.cores.iter().map(|t| t.prog.clone()).collect();
        let mut sys = System::new(cfg, progs);
        for &(addr, value) in &set.pokes {
            sys.poke_word(addr, value);
        }
        sys
    }
}

impl<S: TraceSink> System<GlineHw<S>, S> {
    /// Builds the fully traced machine: every layer — cores, caches,
    /// directory, NoC and the G-line barrier network — emits into
    /// (clones of) `tracer`.
    ///
    /// # Panics
    /// Panics unless `progs.len() == cfg.num_cores()`.
    pub fn traced(cfg: CmpConfig, progs: Vec<Program>, tracer: Tracer<S>) -> System<GlineHw<S>, S> {
        let hw = GlineHw::traced(&cfg, tracer.clone());
        System::assemble(cfg, progs, hw, tracer)
    }
}

impl<B: BarrierHw, S: TraceSink> System<B, S> {
    /// The tracer shared by the machine's components.
    pub fn tracer(&self) -> &Tracer<S> {
        &self.tracer
    }

    /// The configuration in use.
    pub fn config(&self) -> &CmpConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Pre-loads a data word (before any core touches its line).
    pub fn poke_word(&mut self, addr: u64, value: u64) {
        self.mem.poke_word(addr, value);
    }

    /// Architectural value of a data word, wherever its current copy is.
    pub fn peek_word(&self, addr: u64) -> u64 {
        self.mem.peek_word(addr)
    }

    /// Access to a core (registers, breakdown, …).
    pub fn core(&self, id: CoreId) -> &Core {
        &self.cores[id.index()]
    }

    /// True when every core has halted.
    pub fn all_halted(&self) -> bool {
        if self.index.is_fresh() {
            let halted = self.index.is_empty();
            debug_assert_eq!(halted, self.cores.iter().all(Core::halted));
            return halted;
        }
        self.cores.iter().all(Core::halted)
    }

    /// Advances the whole machine one cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        self.sched.ticks += 1;
        if self.active_set_enabled {
            self.tick_cores_sparse(now);
        } else {
            // Turning active sets off flushed the parks, which left the
            // index stale; it stays so while cores halt behind its back.
            debug_assert!(!self.index.is_fresh());
            for (core, prog) in self.cores.iter_mut().zip(&self.progs) {
                if !core.halted() {
                    self.sched.core_steps += 1;
                }
                core.step(prog, &mut self.mem, &mut self.gline, now, &self.tracer);
                if let Some(f) = core.fault() {
                    self.fault.get_or_insert(f);
                }
            }
        }
        self.mem.tick();
        self.gline.tick();
        self.now += 1;
    }

    /// Rebuilds the wake index if the dense tick left it stale.
    fn refresh_index(&mut self) {
        if !self.index.is_fresh() {
            self.index.rebuild(&self.cores, &self.parks);
        }
    }

    /// The release predicate for the cycle about to be ticked: false
    /// only when the barrier hardware rules out any `bar_reg` clearing
    /// in this cycle's `gline.tick` — even if the last arrival is
    /// written this very cycle, the release is its propagation floor
    /// away. Evaluated once, before the cores step.
    fn release_may_land(&self) -> bool {
        self.gline.release_bound() <= 1
    }

    /// The core phase of the sparse tick: runs [`step_core`] on exactly
    /// the cores that get past its park checks this cycle, in ascending
    /// order, and counts every other parked core's elided step by
    /// popcount — O(cores / 64 + visited) instead of O(cores).
    fn tick_cores_sparse(&mut self, now: Cycle) {
        self.refresh_index();
        debug_assert!(self.index.is_consistent(&self.cores, &self.parks));
        let release = self.release_may_land();
        let scan_wakes = self.index.begin_wake_scan(now);
        for w in 0..self.index.num_words() {
            // Frozen during the core loop: delivery queues only change
            // in `mem.tick`, so one word read serves all 64 cores.
            let delivery = self.mem.delivery_words()[w];
            let set = self.index.word(w);
            let mut visit = set.live | ((set.spin | set.miss) & delivery);
            if release {
                visit |= set.bar;
            }
            if scan_wakes {
                visit |= self.index.due_wakes(w, &self.parks, now);
            }
            debug_assert_eq!(visit, self.dense_visit_word(w, release, now));
            self.sched.parked_steps += ((set.stall | set.miss) & !visit).count_ones() as u64;
            self.sched.spin_parked_steps += ((set.spin | set.bar) & !visit).count_ones() as u64;
            let mut bits = visit;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let i = w * 64 + bit.trailing_zeros() as usize;
                let live = step_core(
                    &mut self.cores[i],
                    &self.progs[i],
                    &mut self.parks[i],
                    &mut self.mem,
                    &mut self.gline,
                    delivery & bit != 0,
                    release,
                    now,
                    &self.tracer,
                    &mut self.sched,
                );
                // A core that was live and still is keeps its bit.
                if !(live && set.live & bit != 0) {
                    self.index.place(i, &self.parks[i], self.cores[i].halted());
                    if let Some(f) = self.cores[i].fault() {
                        self.fault.get_or_insert(f);
                    }
                }
            }
        }
    }

    /// Word `w` of the sparse tick's visit set, recomputed core by core
    /// from the park array (the debug cross-check of the index).
    fn dense_visit_word(&self, w: usize, release: bool, now: Cycle) -> u64 {
        let hi = self.cores.len().min((w + 1) * 64);
        (w * 64..hi).fold(0, |word, i| {
            let delivery = self.mem.has_delivery_for(CoreId::from(i));
            let visit = self.parks[i].visits(self.cores[i].halted(), delivery, release, now);
            word | (visit as u64) << (i % 64)
        })
    }

    /// Settles every parked core's pending span up to `now` and unparks
    /// it: stall and miss parks are charged, spin parks replayed. Legal
    /// between ticks — every elided cycle of a spin park provably saw
    /// the frozen probed line or `bar_reg` (a pending delivery, or a
    /// release that may land, unparks the core before either can
    /// change), so the closed-form replay is exact.
    /// Called when active-set scheduling is turned off mid-run (the
    /// dense loop steps every core).
    fn flush_parks(&mut self) {
        self.index.mark_stale();
        for (core, park) in self.cores.iter_mut().zip(&mut self.parks) {
            match std::mem::take(park) {
                Park::None => {}
                Park::Stall { anchor, .. } | Park::Miss { anchor } => {
                    core.ff_stall(self.now - anchor)
                }
                Park::Spin { plan, anchor } | Park::Bar { plan, anchor } => {
                    core.ff_replay(plan, self.now, anchor, &mut self.mem)
                }
            }
        }
    }

    /// Clock-jump effectiveness counters for this run so far.
    pub fn skip_stats(&self) -> SkipStats {
        self.skip_stats
    }

    /// Switches between the machine's two configurations: the default
    /// wake-driven engine (`on`) — core parking and clock jumps here,
    /// due-timer bank ticking in the memory hierarchy, router/injection/
    /// delivery work lists and direct injection in the NoC — and the
    /// dense oracle, which visits every component every cycle and never
    /// jumps (`--no-active-set` in the CLI). A component outside its
    /// subsystem's active set provably cannot transition this cycle, so
    /// reports, architectural memory and event traces are bit-identical
    /// either way, also when switched mid-run; the oracle is the
    /// reference path for `tests/active_set_determinism.rs`.
    pub fn set_active_set_enabled(&mut self, on: bool) {
        if !on {
            // The dense loop steps every core; settle pending park
            // charges and spin replays first.
            self.flush_parks();
        }
        self.active_set_enabled = on;
        self.mem.set_active_set_enabled(on);
    }

    /// Whether active-set micro-scheduling is enabled.
    pub fn active_set_enabled(&self) -> bool {
        self.active_set_enabled
    }

    /// Core-scheduler occupancy counters for this run so far.
    pub fn core_sched_stats(&self) -> CoreSchedStats {
        self.sched
    }

    /// Memory-hierarchy occupancy counters for this run so far.
    pub fn mem_sched_stats(&self) -> sim_mem::MemSchedStats {
        self.mem.sched_stats()
    }

    /// NoC occupancy counters for this run so far.
    pub fn noc_sched_stats(&self) -> sim_noc::NocSchedStats {
        self.mem.noc_sched_stats()
    }

    /// Advances one cycle — or, if no component can act before then,
    /// jumps the clock to the next event (clamped to `horizon`, which
    /// callers use for deadline and progress-boundary alignment). The
    /// jump is read off the wake index
    /// ([`jump_target`](Self::jump_target)); the dense
    /// `--no-active-set` tick keeps no index, so it never jumps — it is
    /// the every-component, every-cycle oracle. A traced run jumps too:
    /// a jump spans only cycles in which no core is live and neither the
    /// memory system nor the barrier network has an event, so no event
    /// is elided.
    fn advance(&mut self, horizon: Cycle) {
        if !self.active_set_enabled || horizon <= self.now + 1 {
            self.tick();
        } else if let Some(target) = self.jump_target(horizon) {
            self.jump_to(target);
        } else {
            self.tick();
        }
    }

    /// The cycle the sparse engine may jump the clock to, or `None`
    /// when this cycle must be ticked. Every core the index does not
    /// hold live is parked on a wake trigger, so the machine is
    /// quiescent until the earliest of: a stall's wake (lower-bounded by
    /// the index), the memory system's next event (a pending delivery —
    /// the trigger of the spin and miss parks — reads as "now"), and the
    /// barrier network's (it is frozen until a core writes a `bar_reg`,
    /// so the release predicate holds its value across the span). The index
    /// tests are O(1) (member counts) and so is `mem.next_event()` (the
    /// NoC reads its arrival queues' fronts, the home banks' earliest
    /// timer is cached); the barrier network walks its contexts, so a
    /// call is O(barrier contexts), and the jump itself adds the
    /// O(cores / 64) popcount in [`jump_to`](Self::jump_to).
    fn jump_target(&mut self, horizon: Cycle) -> Option<Cycle> {
        self.refresh_index();
        let now = self.now;
        let mut target = horizon.min(self.index.next_wake());
        if self.index.any_live() || target <= now + 1 {
            return None;
        }
        self.skip_stats.attempts += 1;
        target = target.min(self.mem.next_event().unwrap_or(Cycle::MAX));
        if target <= now + 1 {
            return None;
        }
        target = target.min(self.gline.next_event().unwrap_or(Cycle::MAX));
        if target <= now + 1 {
            return None;
        }
        if self.index.any_bar() && self.release_may_land() {
            return None;
        }
        Some(target)
    }

    /// Jumps the clock to `target` (from [`jump_target`](Self::jump_target))
    /// without touching a park: anchors keep the lazy charging exact,
    /// and the elided steps are counted by popcount, exactly as the
    /// `target - now` no-visit ticks would have.
    fn jump_to(&mut self, target: Cycle) {
        #[cfg(debug_assertions)]
        self.check_jump(target);
        let k = target - self.now;
        self.skip_stats.skips += 1;
        self.skip_stats.cycles_skipped += k;
        let (stalled, spinning) = self.index.parked_counts();
        self.sched.parked_steps += k * stalled;
        self.sched.spin_parked_steps += k * spinning;
        self.mem.skip_to(target);
        self.gline.skip_to(target);
        self.now = target;
    }

    /// Debug cross-check of a jump, independent of the index: the
    /// per-core visit predicate agrees that nobody steps this cycle;
    /// `target` is no later than the component clocks' next events and
    /// every stall's wake, recomputed core by core from the park
    /// array; and every parked spinner still sits in the spin it was
    /// parked on (re-matched from the machine, not from its park).
    #[cfg(debug_assertions)]
    fn check_jump(&self, target: Cycle) {
        let now = self.now;
        let release = self.release_may_land();
        for w in 0..self.index.num_words() {
            assert_eq!(self.dense_visit_word(w, release, now), 0);
        }
        let next = self.parks.iter().filter_map(Park::wake_at);
        let next = next
            .chain(self.mem.next_event())
            .chain(self.gline.next_event());
        assert!(next.min().is_none_or(|t| target <= t), "jump to {target}");
        for (i, core) in self.cores.iter().enumerate() {
            if let Park::Spin { plan, .. } | Park::Bar { plan, .. } = self.parks[i] {
                let again = core.park_spin(&self.progs[i], &self.mem, &self.gline, now, true, true);
                assert_eq!(again.map(|p| p.top()), Some(plan.top()), "core {i}");
            }
        }
    }

    fn check_fault(&self) -> Result<(), String> {
        self.fault.map_or(Ok(()), |f| Err(f.to_string()))
    }

    /// Runs until every core halts. Returns the cycle count.
    ///
    /// # Errors
    /// Returns the [`Fault`] (core, pc and fault) as soon as a core
    /// faults, and an error naming the stuck cores if `max_cycles`
    /// elapses first (deadlock / livelock guard).
    pub fn run(&mut self, max_cycles: u64) -> Result<Cycle, String> {
        let start = self.now;
        self.check_fault()?;
        while !self.all_halted() {
            self.advance(start + max_cycles + 1);
            self.check_fault()?;
            if self.now - start > max_cycles {
                return Err(self.deadlock_error(max_cycles));
            }
        }
        Ok(self.now - start)
    }

    /// Core `i`'s wait state as the scheduler sees it: its park, or —
    /// for an unparked core (the dense tick never parks) — the park
    /// [`step_core`] would give it were no wake trigger about to fire.
    fn wait_state(&self, i: usize) -> Park {
        let (core, now) = (&self.cores[i], self.now);
        let spin = || core.park_spin(&self.progs[i], &self.mem, &self.gline, now, true, true);
        match self.parks[i] {
            Park::None if core.waiting_on_unscheduled_resp(&self.mem) => Park::Miss { anchor: now },
            Park::None => match (spin(), core.park_until(&self.mem)) {
                (Some(plan), _) if plan.on_bar_reg() => Park::Bar { plan, anchor: now },
                (Some(plan), _) => Park::Spin { plan, anchor: now },
                (None, Some(wake)) if wake > now => Park::Stall { wake, anchor: now },
                _ => Park::None,
            },
            park => park,
        }
    }

    /// The deadlock-guard error: every core that has not halted, each
    /// with its [`wait_state`](Self::wait_state) — `live` (executing),
    /// `stall until <cycle>`, `spin` (on a memory flag that no inbound
    /// message can change), `miss` (on an access whose response is
    /// still in flight) or `spin on bar_reg, ctx <n>` (in a barrier
    /// some core has not reached).
    fn deadlock_error(&self, max_cycles: u64) -> String {
        let stuck: Vec<String> = (0..self.cores.len())
            .filter(|&i| !self.cores[i].halted())
            .map(|i| {
                let (core, state) = (&self.cores[i], self.wait_state(i));
                match state {
                    Park::Bar { .. } => {
                        format!("{:?} ({state}, ctx {})", core.id(), core.bar_ctx())
                    }
                    _ => format!("{:?} ({state})", core.id()),
                }
            })
            .collect();
        format!(
            "system did not halt within {max_cycles} cycles; still running: {}",
            stuck.join(", ")
        )
    }

    /// Like [`run`](Self::run), but invokes `observer` with a fresh
    /// [`SystemReport`] every `every` cycles — progress reporting for
    /// long simulations (the report is cumulative, not a delta).
    ///
    /// # Errors
    /// Same fault and deadlock errors as [`run`](Self::run).
    pub fn run_with_progress(
        &mut self,
        max_cycles: u64,
        every: u64,
        mut observer: impl FnMut(&SystemReport),
    ) -> Result<Cycle, String> {
        assert!(every > 0);
        let start = self.now;
        let mut next = self.now + every;
        self.check_fault()?;
        while !self.all_halted() {
            // Clamp skips to the observer boundary so the observer fires
            // at every `every`-cycle mark with the report as of exactly
            // that cycle, even when a jump would have crossed it.
            self.advance(next.min(start + max_cycles + 1));
            self.check_fault()?;
            if self.now >= next {
                observer(&self.report());
                next += every;
            }
            if self.now - start > max_cycles {
                return Err(self.deadlock_error(max_cycles));
            }
        }
        Ok(self.now - start)
    }

    /// [`run`](Self::run), returning each core's [`Program`] beside the
    /// cycle count: the machine's input image, which with the pokes
    /// applied before the run is all [`System::replay`] needs to repeat
    /// it. Its one reason to exist is the `trace_replay` workload of
    /// `benchmark/src/sut.rs`; it goes with that workload.
    ///
    /// # Errors
    /// Same fault and deadlock errors as [`run`](Self::run).
    pub fn run_recorded(&mut self, max_cycles: u64) -> Result<(Cycle, Vec<CoreTrace>), String> {
        let cycles = self.run(max_cycles)?;
        let cores = self.progs.iter().enumerate();
        let image = cores.map(|(i, prog)| CoreTrace {
            core: i as u32,
            prog: prog.clone(),
        });
        Ok((cycles, image.collect()))
    }

    /// Advances the machine until every core halts or the clock reaches
    /// `until` (whichever comes first; skips clamp to `until` exactly
    /// like [`run`](Self::run)'s deadline horizon).
    ///
    /// # Errors
    /// Stops at, and returns, a program fault like [`run`](Self::run).
    pub fn advance_until(&mut self, until: Cycle) -> Result<(), String> {
        self.check_fault()?;
        while !self.all_halted() && self.now < until {
            self.advance(until);
            self.check_fault()?;
        }
        Ok(())
    }

    /// Gathers the run's statistics.
    pub fn report(&self) -> SystemReport {
        let mut per_core: Vec<TimeBreakdown> = self.cores.iter().map(Core::breakdown).collect();
        // Parked cores' spans are settled lazily at wake-up; fold the
        // pending `[anchor, now)` span in so a mid-run report is
        // bit-identical to the dense path's (the charged category is
        // frozen while parked). A spin park's span also carries retires
        // and L1 hits; `spin_span` is what the eventual replay will
        // charge.
        let mut pending_retired = 0;
        let mut pending_l1_hits = 0;
        for (i, park) in self.parks.iter().enumerate() {
            match park {
                Park::None => {}
                Park::Stall { anchor, .. } | Park::Miss { anchor } => {
                    per_core[i].add(self.cores[i].category(), self.now - anchor);
                }
                Park::Spin { plan, anchor } | Park::Bar { plan, anchor } => {
                    let span = self.cores[i].spin_span(plan, self.now - anchor);
                    per_core[i].add(span.cat_a, span.a_cycles);
                    per_core[i].add(span.cat_b, span.b_cycles);
                    pending_retired += span.retired;
                    pending_l1_hits += span.l1_hits;
                }
            }
        }
        let mut total_time = TimeBreakdown::new();
        for b in &per_core {
            total_time += *b;
        }
        let noc = self.mem.noc_stats();
        let mut gl = self.gline.stats(0);
        for ctx in 1..self.gline.num_contexts() {
            let s = self.gline.stats(ctx);
            gl.barriers_completed += s.barriers_completed;
            gl.signals += s.signals;
            gl.latency.merge(&s.latency);
        }
        let mut l1_hits = 0;
        let mut l1_misses = 0;
        for i in 0..self.cores.len() {
            let s = self.mem.l1_stats(CoreId::from(i));
            l1_hits += s.hits;
            l1_misses += s.misses;
        }
        let home = self.mem.home_stats();
        SystemReport {
            cycles: self.now,
            per_core,
            total_time,
            traffic: noc.sent,
            flit_hops: noc.flit_hops,
            gl_barriers: gl.barriers_completed,
            gl_mean_latency: gl.mean_latency(),
            gl_signals: gl.signals,
            instructions: self.cores.iter().map(Core::retired).sum::<u64>() + pending_retired,
            l1_hits: l1_hits + pending_l1_hits,
            l1_misses,
            l2_hits: home.l2_hits,
            l2_misses: home.l2_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{emit_lock, emit_unlock, BarrierEnv, BarrierKind};
    use sim_base::stats::TimeCat;
    use sim_isa::interp::RefCmp;
    use sim_isa::{assemble, ProgBuilder, Reg};

    fn cfg(n: usize) -> CmpConfig {
        CmpConfig::icpp2010_with_cores(n)
    }

    #[test]
    fn single_core_computation_matches_reference() {
        let src = "
            li r1, 0x800      # base
            li r2, 20         # n
            li r3, 0          # i
            li r4, 0          # acc
        loop:
            mul r5, r3, r3
            st r5, 0(r1)
            ld r6, 0(r1)
            add r4, r4, r6
            addi r1, r1, 64
            addi r3, r3, 1
            bne r3, r2, loop
            st r4, 0(r1)
            halt
        ";
        let prog = assemble(src).unwrap();
        // Reference result.
        let mut rc = RefCmp::new(1, 4096);
        rc.run(&[&prog], 1_000_000).unwrap();
        // Cycle-accurate result.
        let mut sys = System::homogeneous(cfg(1), prog);
        sys.run(1_000_000).unwrap();
        let final_addr = 0x800 + 20 * 64;
        assert_eq!(sys.peek_word(final_addr), rc.word(final_addr));
        assert_eq!(
            sys.peek_word(final_addr),
            (0..20u64).map(|i| i * i).sum::<u64>()
        );
    }

    #[test]
    fn four_cores_gl_barrier_round() {
        // Each core stores its id, hits the GL barrier, then sums all
        // stored ids — the barrier must make every store visible.
        let n = 4;
        let env = BarrierEnv::new(BarrierKind::Gl, n, 4096);
        let progs: Vec<Program> = (0..n)
            .map(|c| {
                let mut b = ProgBuilder::new();
                b.li(Reg(1), c as i64 + 1)
                    .li(Reg(2), (0x1000 + c * 64) as i64)
                    .st(Reg(1), 0, Reg(2));
                env.emit(&mut b, c);
                b.li(Reg(4), 0);
                for p in 0..n {
                    b.li(Reg(2), (0x1000 + p * 64) as i64)
                        .ld(Reg(3), 0, Reg(2))
                        .add(Reg(4), Reg(4), Reg(3));
                }
                b.li(Reg(2), (0x2000 + c * 64) as i64)
                    .st(Reg(4), 0, Reg(2))
                    .halt();
                b.build()
            })
            .collect();
        let mut sys = System::new(cfg(n), progs);
        sys.run(1_000_000).unwrap();
        for c in 0..n {
            assert_eq!(
                sys.peek_word(0x2000 + c as u64 * 64),
                10,
                "core {c} missed a store"
            );
        }
        let rep = sys.report();
        assert_eq!(rep.gl_barriers, 1);
        assert!(
            (rep.gl_mean_latency - 4.0).abs() < 1e-9,
            "{}",
            rep.gl_mean_latency
        );
        assert!(rep.total_time[TimeCat::Barrier] > 0);
    }

    /// All three barrier kinds agree architecturally with the reference
    /// machine on a multi-barrier producer/consumer pattern.
    fn barrier_agreement(kind: BarrierKind, n: usize, iters: usize) {
        let env = BarrierEnv::new(kind, n, 4096);
        let slot = |c: usize| 0x4000 + c as u64 * 64;
        let progs: Vec<Program> = (0..n)
            .map(|c| {
                let mut b = ProgBuilder::new();
                // r10 = running checksum of neighbour values.
                for it in 0..iters {
                    // Phase 1: write it+1 to my slot.
                    b.li(Reg(1), it as i64 + 1)
                        .li(Reg(2), slot(c) as i64)
                        .st(Reg(1), 0, Reg(2));
                    env.emit(&mut b, c);
                    // Phase 2: read my right neighbour's slot; it must be
                    // exactly it+1.
                    let nb = (c + 1) % n;
                    b.li(Reg(2), slot(nb) as i64).ld(Reg(3), 0, Reg(2)).add(
                        Reg(10),
                        Reg(10),
                        Reg(3),
                    );
                    env.emit(&mut b, c);
                }
                b.li(Reg(2), (0x8000 + c * 64) as i64)
                    .st(Reg(10), 0, Reg(2))
                    .halt();
                b.build()
            })
            .collect();
        let expected: u64 = (1..=iters as u64).sum();
        let mut sys = System::new(cfg(n), progs);
        sys.run(20_000_000).unwrap();
        for c in 0..n {
            assert_eq!(
                sys.peek_word(0x8000 + c as u64 * 64),
                expected,
                "{kind:?} n={n} core {c}: barrier failed to order the phases"
            );
        }
    }

    #[test]
    fn gl_barrier_orders_phases() {
        barrier_agreement(BarrierKind::Gl, 8, 4);
    }

    #[test]
    fn csw_barrier_orders_phases() {
        barrier_agreement(BarrierKind::Csw, 8, 4);
    }

    #[test]
    fn dsw_barrier_orders_phases() {
        barrier_agreement(BarrierKind::Dsw, 8, 4);
    }

    #[test]
    fn dsw_barrier_odd_core_count() {
        barrier_agreement(BarrierKind::Dsw, 6, 3);
    }

    #[test]
    fn locks_are_mutually_exclusive_under_real_timing() {
        let n = 4;
        let lock = 4096u64;
        let counter = 8192u64;
        let per_core = 10;
        let progs: Vec<Program> = (0..n)
            .map(|_| {
                let mut b = ProgBuilder::new();
                let top = b.new_label();
                b.li(Reg(10), per_core);
                b.bind(top);
                emit_lock(&mut b, lock);
                b.li(Reg(3), counter as i64)
                    .ld(Reg(4), 0, Reg(3))
                    .addi(Reg(4), Reg(4), 1)
                    .st(Reg(4), 0, Reg(3));
                emit_unlock(&mut b, lock);
                b.addi(Reg(10), Reg(10), -1)
                    .bne(Reg(10), Reg::ZERO, top)
                    .halt();
                b.build()
            })
            .collect();
        let mut sys = System::new(cfg(n), progs);
        sys.run(10_000_000).unwrap();
        assert_eq!(sys.peek_word(counter), n as u64 * per_core as u64);
        let rep = sys.report();
        assert!(
            rep.total_time[TimeCat::Lock] > 0,
            "lock time must be attributed"
        );
    }

    #[test]
    fn gl_beats_software_barriers_in_cycles() {
        // The headline claim, miniaturized: a pure barrier loop completes
        // fastest with GL, and DSW beats CSW at 16 cores.
        let n = 16;
        let iters = 10;
        let mut cycles = Vec::new();
        for kind in BarrierKind::ALL {
            let env = BarrierEnv::new(kind, n, 4096);
            let progs: Vec<Program> = (0..n)
                .map(|c| {
                    let mut b = ProgBuilder::new();
                    for _ in 0..iters {
                        env.emit(&mut b, c);
                    }
                    b.halt();
                    b.build()
                })
                .collect();
            let mut sys = System::new(cfg(n), progs);
            let t = sys.run(50_000_000).unwrap();
            cycles.push((kind, t));
        }
        let gl = cycles[0].1;
        let csw = cycles[1].1;
        let dsw = cycles[2].1;
        assert!(
            gl < dsw && dsw < csw,
            "expected GL < DSW < CSW, got {cycles:?}"
        );
        assert!(
            gl * 5 < csw,
            "GL should dominate CSW by a wide margin: {cycles:?}"
        );
    }

    #[test]
    fn gl_barrier_generates_no_network_traffic() {
        let n = 8;
        let env = BarrierEnv::new(BarrierKind::Gl, n, 4096);
        let progs: Vec<Program> = (0..n)
            .map(|c| {
                let mut b = ProgBuilder::new();
                for _ in 0..5 {
                    env.emit(&mut b, c);
                }
                b.halt();
                b.build()
            })
            .collect();
        let mut sys = System::new(cfg(n), progs);
        sys.run(1_000_000).unwrap();
        let rep = sys.report();
        assert_eq!(
            rep.traffic.total(),
            0,
            "the GL barrier must not touch the NoC"
        );
        assert_eq!(rep.gl_barriers, 5);
        assert!(rep.gl_signals > 0);
    }

    #[test]
    fn barriers_alternate_between_contexts() {
        // Every core alternates `barctx 0` and `barctx 1` episode by
        // episode, with per-core work so the arrivals are staggered.
        // Each context counts its own episodes; the report sums them.
        let n = 8;
        let episodes = 10;
        let mut c = cfg(n);
        c.gline.contexts = 2;
        let progs: Vec<Program> = (0..n)
            .map(|core| {
                let mut b = ProgBuilder::new();
                for e in 0..episodes {
                    b.barctx((e % 2) as u8);
                    b.busy(5 + 40 * ((core + e) % 3) as u32);
                    let spin = b.new_label();
                    b.li(Reg(1), 1).barw(Reg(1)).bind(spin).barr(Reg(2)).bne(
                        Reg(2),
                        Reg::ZERO,
                        spin,
                    );
                }
                b.halt();
                b.build()
            })
            .collect();
        let mut sys = System::new(c, progs);
        sys.run(1_000_000).unwrap();
        for ctx in 0..2 {
            assert_eq!(sys.gline.stats(ctx).barriers_completed, episodes as u64 / 2);
        }
        assert_eq!(sys.core(CoreId(0)).gl_barriers(), episodes as u64);
        assert_eq!(sys.report().gl_barriers, episodes as u64);
    }

    #[test]
    fn out_of_range_barctx_faults() {
        let prog = sim_isa::assemble("barctx 3\nhalt").unwrap();
        let mut sys = System::homogeneous(cfg(2), prog);
        let err = sys.run(100).unwrap_err();
        assert_eq!(
            err,
            "core0 faulted at pc 0: barctx 3 but the network has 1 context(s)"
        );
        assert!(sys.all_halted(), "a faulting core stops");
        // The fault stays: a later run entry point returns it at once.
        assert_eq!(sys.run(100).unwrap_err(), err);
    }

    #[test]
    fn progress_observer_fires_periodically() {
        let prog = sim_isa::assemble("busy 1000\nhalt").unwrap();
        let mut sys = System::homogeneous(cfg(2), prog);
        let mut samples = Vec::new();
        sys.run_with_progress(10_000, 100, |rep| samples.push(rep.cycles))
            .unwrap();
        assert!(
            samples.len() >= 9,
            "expected ~10 samples, got {}",
            samples.len()
        );
        assert!(samples.windows(2).all(|w| w[1] - w[0] == 100));
    }

    #[test]
    fn report_serializes() {
        let mut sys = System::homogeneous(cfg(1), assemble("busy 5\nhalt").unwrap());
        sys.run(100).unwrap();
        let rep = sys.report();
        let json = sim_base::json::ToJson::to_json(&rep).dump();
        assert!(json.contains("\"cycles\""));
    }

    #[test]
    fn deadlock_guard_reports_stuck_cores() {
        // A core spinning forever on its own flag never halts, and one
        // in an over-long `busy` block not before the deadline. The
        // error names each with its wait state, on either engine.
        let spin = assemble("l: ld r1, 0(r0)\nbeq r0, r0, l").unwrap();
        let busy = assemble("busy 1000000\nhalt").unwrap();
        for active_set in [true, false] {
            let mut sys = System::new(cfg(2), vec![spin.clone(), busy.clone()]);
            sys.set_active_set_enabled(active_set);
            let err = sys.run(10_000).unwrap_err();
            assert!(
                err.ends_with("still running: core0 (spin), core1 (stall until 1000000)"),
                "{err}"
            );
        }
        // A G-line barrier whose last core never arrives: the cores
        // that did arrive are named as `bar_reg` spinners with the
        // context they wait in, not as live.
        let n = 4;
        let mut c = cfg(n);
        c.gline.contexts = 2;
        let arrive =
            assemble("barctx 1\nli r1, 1\nbarw r1\nw: barr r2\nbne r2, r0, w\nhalt").unwrap();
        let mut progs = vec![arrive; n];
        progs[n - 1] = spin.clone();
        for active_set in [true, false] {
            let mut sys = System::new(c, progs.clone());
            sys.set_active_set_enabled(active_set);
            let err = sys.run(10_000).unwrap_err();
            assert!(
                err.ends_with(
                    "still running: core0 (spin on bar_reg, ctx 1), core1 (spin on bar_reg, ctx 1), \
                     core2 (spin on bar_reg, ctx 1), core3 (spin)"
                ),
                "{err}"
            );
        }
    }
}

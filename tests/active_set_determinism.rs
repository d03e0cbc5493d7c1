//! Determinism of the engine: default vs. oracle.
//!
//! The default engine (see `DESIGN.md` §9, §10) visits only routers
//! with buffered flits, home banks with live transactions, and cores
//! that are not parked on a known wake cycle, and jumps the clock when
//! nothing can act — instead of scanning every component every cycle.
//! Its single correctness contract: a default run is **bit-identical**
//! — same [`sim_cmp::SystemReport`], same architectural memory, same
//! event trace — to the same run on the dense `--no-active-set` oracle,
//! which steps everything every cycle and never jumps. These tests
//! enforce that over every workload generator and barrier flavour; the
//! component-level `next_event` contracts the jumps rest on are in
//! `next_event_contract.rs`.

use gline_core::GlineHw;
use sim_base::config::CmpConfig;
use sim_base::rng::SplitMix64;
use sim_base::trace::{ChromeTraceSink, Tracer};
use sim_base::Mesh2D;
use sim_cmp::runtime::BarrierKind;
use sim_cmp::{SkipStats, System, SystemReport};
use sim_isa::{ProgBuilder, Program, Reg};
use workloads::common::Workload;
use workloads::random::{
    random_sync_programs, staggered_gl_programs, COUNTER_BASE, LOCKS, LOCK_BASE, SLOT_BASE,
};
use workloads::{em3d, livermore, ocean, synthetic, unstructured};

/// Runs `w` twice — default and `--no-active-set` — and demands
/// bit-identical reports: the sparse run composes parking with clock
/// jumps, the dense run must never jump.
fn assert_active_set_invariant(w: &Workload) {
    assert_active_set_invariant_on(w, CmpConfig::icpp2010_with_cores(w.progs.len()));
}

/// [`assert_active_set_invariant`] on the machine `cfg`; returns the
/// report both runs agree on.
fn assert_active_set_invariant_on(w: &Workload, cfg: CmpConfig) -> SystemReport {
    let (mut fast, mut slow) = (w.into_system(cfg), w.into_system(cfg));
    slow.set_active_set_enabled(false);
    assert!(fast.active_set_enabled() && !slow.active_set_enabled());
    let cf = fast.run(50_000_000).expect("fast run must complete");
    let cs = slow.run(50_000_000).expect("slow run must complete");
    assert_eq!(cf, cs, "{}: cycle counts diverge", w.name);
    let rf: SystemReport = fast.report();
    let rs: SystemReport = slow.report();
    assert_eq!(rf, rs, "{}: reports diverge with active sets on", w.name);
    assert_eq!(
        slow.skip_stats(),
        SkipStats::default(),
        "{}: the dense tick jumped",
        w.name
    );
    // A clock jump stands for that many ticks in which nobody is
    // visited, so the two engines differ in ticks by exactly the cycles
    // skipped, and the oracle ticks every cycle.
    let (sparse, dense) = (fast.core_sched_stats(), slow.core_sched_stats());
    assert_eq!(dense.ticks, cs, "{}: the dense tick count", w.name);
    assert_eq!(
        sparse.ticks + fast.skip_stats().cycles_skipped,
        dense.ticks,
        "{}: ticks + cycles skipped != cycles",
        w.name
    );
    assert_core_cycles_accounted(&fast, &format!("{} sparse", w.name));
    assert_core_cycles_accounted(&slow, &format!("{} dense", w.name));
    rf
}

/// The scheduler counters account for every core-cycle the report
/// charges, each exactly once — as a step or as an elided (parked) one.
fn assert_core_cycles_accounted(sys: &System, what: &str) {
    assert_eq!(
        sys.core_sched_stats().core_cycles(),
        sys.report().total_time.total(),
        "{what}: core steps + parked steps != charged core-cycles"
    );
}

#[test]
fn synthetic_all_barrier_kinds_active_set_invariant() {
    for kind in BarrierKind::ALL {
        assert_active_set_invariant(&synthetic::build(8, kind, 6));
    }
}

#[test]
fn synthetic_paper_mesh_active_set_invariant() {
    assert_active_set_invariant(&synthetic::build(32, BarrierKind::Gl, 4));
    assert_active_set_invariant(&synthetic::build(32, BarrierKind::Csw, 2));
}

#[test]
fn synthetic_imbalanced_active_set_invariant() {
    // Staggered arrivals: cores park while waiting, homes and routers
    // drain to empty between episodes — the regime where the sets are
    // smallest and the lazy-removal bookkeeping is doing the most work.
    for kind in BarrierKind::ALL {
        assert_active_set_invariant(&synthetic::build_imbalanced(8, kind, 3, 300));
    }
    assert_active_set_invariant(&synthetic::build_imbalanced(32, BarrierKind::Csw, 2, 500));
}

#[test]
fn barrier_matrix_active_set_invariant() {
    // Every barrier family in both contention shapes.
    for (_, w) in synthetic::barrier_matrix(8, 2, 200) {
        assert_active_set_invariant(&w);
    }
}

#[test]
fn compute_matrix_active_set_invariant() {
    // Cores live nearly every cycle: the regime where the sets are
    // fullest and parking has the least to elide.
    for (_, w) in synthetic::compute_matrix(8, 2, 40, 200) {
        assert_active_set_invariant(&w);
    }
}

/// A 256-core (16×16) machine exceeds the flat G-line transmitter
/// budget, so the two-level clustered G-line network carries the
/// barriers — and the wake-driven engine must stay bit-identical to the
/// dense tick on it too. This is the largest determinism case in the
/// suite: every O(active) path of the many-core scaling work (clustered
/// episode accounting, `bar_reg` parking on the clustered release
/// bound, four wake-index words) runs against its dense oracle here.
#[test]
fn clustered_256_core_active_set_invariant() {
    let w = synthetic::build(256, BarrierKind::Gl, 2);
    assert!(
        matches!(
            GlineHw::new(&CmpConfig::icpp2010_with_cores(256)),
            GlineHw::Clustered(_)
        ),
        "16x16 must exceed the flat G-line budget"
    );
    assert_active_set_invariant(&w);
}

/// Two barrier contexts taking turns: every core alternates `barctx 0`
/// and `barctx 1` episode by episode, each after a staggered `busy`
/// block, so one context's spinners park while the other context is
/// idle. On the flat (4×8) and the clustered (16×16) network the
/// default engine must match the oracle, and the report must count the
/// episodes of both contexts.
#[test]
fn alternating_contexts_active_set_invariant() {
    let episodes = 6;
    for (rows, cols) in [(4, 8), (16, 16)] {
        let mut cfg = CmpConfig::icpp2010();
        cfg.mesh = Mesh2D::new(rows, cols);
        cfg.gline.contexts = 2;
        let progs = (0..cfg.num_cores())
            .map(|c| {
                let mut b = ProgBuilder::new();
                for e in 0..episodes {
                    let spin = b.new_label();
                    b.barctx((e % 2) as u8)
                        .busy(1 + ((c * 7 + e * 13) % 50) as u32 * 4)
                        .li(Reg(1), 1)
                        .barw(Reg(1))
                        .bind(spin)
                        .barr(Reg(2))
                        .bne(Reg(2), Reg::ZERO, spin);
                }
                b.halt();
                b.build()
            })
            .collect();
        let w = Workload {
            name: format!("alternating contexts {rows}x{cols}"),
            progs,
            pokes: Vec::new(),
            barriers_per_core: episodes as u64,
            kind: BarrierKind::Gl,
        };
        let rep = assert_active_set_invariant_on(&w, cfg);
        assert_eq!(rep.gl_barriers, episodes as u64, "{}", w.name);
    }
}

#[test]
fn ocean_active_set_invariant() {
    for kind in [BarrierKind::Gl, BarrierKind::Csw] {
        assert_active_set_invariant(&ocean::build(8, kind, ocean::OceanParams::scaled(10, 2)));
    }
}

#[test]
fn em3d_active_set_invariant() {
    for kind in [BarrierKind::Gl, BarrierKind::Dsw] {
        assert_active_set_invariant(&em3d::build(8, kind, em3d::Em3dParams::scaled(24, 2)));
    }
}

#[test]
fn livermore_kernels_active_set_invariant() {
    let p = livermore::KernelParams::scaled(32, 2);
    assert_active_set_invariant(&livermore::kernel2(4, BarrierKind::Gl, p));
    assert_active_set_invariant(&livermore::kernel3(4, BarrierKind::Csw, p));
    assert_active_set_invariant(&livermore::kernel6(4, BarrierKind::Gl, p));
}

#[test]
fn unstructured_active_set_invariant() {
    // Locks + barriers: cores block on lock acquires and home banks
    // serialize the contended line, so the busy-home set churns.
    let p = unstructured::UnstructuredParams::scaled(12, 24, 2);
    for kind in [BarrierKind::Gl, BarrierKind::Csw] {
        assert_active_set_invariant(&unstructured::build(4, kind, p));
    }
}

#[test]
fn architectural_memory_identical_with_active_set() {
    let w = ocean::build(8, BarrierKind::Gl, ocean::OceanParams::scaled(10, 2));
    let cfg = CmpConfig::icpp2010_with_cores(8);
    let mut fast = w.into_system(cfg);
    let mut slow = w.into_system(cfg);
    slow.set_active_set_enabled(false);
    fast.run(50_000_000).unwrap();
    slow.run(50_000_000).unwrap();
    for (addr, _) in ocean::expected(ocean::OceanParams::scaled(10, 2), 8)
        .iter()
        .enumerate()
    {
        let a = ocean::point_addr(ocean::OceanParams::scaled(10, 2), addr / 10, addr % 10);
        assert_eq!(fast.peek_word(a), slow.peek_word(a));
    }
}

/// Traced runs keep active sets enabled and jump the clock: parked
/// cores are in known wait states and emit no events, and a jump spans
/// only cycles in which no core is live and no component has an event.
/// The full event stream must still be identical to a `--no-active-set`
/// traced run, and the software barriers' waits must really have been
/// jumped over, or the comparison would prove nothing.
#[test]
fn event_trace_identical_with_active_set() {
    for (kind, n, iters) in [
        (BarrierKind::Csw, 8, 3),
        (BarrierKind::Gl, 8, 3),
        (BarrierKind::Dsw, 4, 2),
    ] {
        let w = synthetic::build_imbalanced(n, kind, iters, 200);
        let cfg = CmpConfig::icpp2010_with_cores(n);

        let run_traced = |active: bool| {
            let tracer = Tracer::new(ChromeTraceSink::new());
            let mut sys = System::traced(cfg, w.progs.clone(), tracer.clone());
            sys.set_active_set_enabled(active);
            sys.run(50_000_000).expect("traced run completes");
            let rep = sys.report();
            let events = tracer.with_sink(|s| s.events().to_vec());
            (rep, events, sys.skip_stats().skips)
        };

        let (rep_on, ev_on, skips) = run_traced(true);
        let (rep_off, ev_off, _) = run_traced(false);
        if kind != BarrierKind::Gl {
            assert!(skips > 0, "{kind:?}: the traced run never jumped the clock");
        }
        assert_eq!(rep_on, rep_off, "{kind:?}: traced reports diverge");
        assert!(!ev_on.is_empty(), "{kind:?}: traced run recorded no events");
        assert_eq!(
            ev_on.len(),
            ev_off.len(),
            "{kind:?}: event counts diverge with active sets on"
        );
        assert_eq!(ev_on, ev_off, "{kind:?}: event streams diverge");
    }
}

/// Toggling the active-set scheduler mid-run must not perturb the
/// final state: parked cores are flushed on disable, so a run that
/// flips the flag every few thousand cycles still matches a dense run.
#[test]
fn mid_run_toggle_active_set_invariant() {
    let w = synthetic::build_imbalanced(8, BarrierKind::Csw, 4, 300);
    let cfg = CmpConfig::icpp2010_with_cores(8);
    let mut toggled = w.into_system(cfg);
    let mut on = true;
    let mut guard = 0u64;
    while !toggled.all_halted() {
        toggled.set_active_set_enabled(on);
        on = !on;
        for _ in 0..2_000 {
            if toggled.all_halted() {
                break;
            }
            toggled.tick();
        }
        guard += 1;
        assert!(guard < 50_000, "toggled run livelocked");
    }
    let mut baseline = w.into_system(cfg);
    baseline.set_active_set_enabled(false);
    baseline.run(50_000_000).unwrap();
    assert_eq!(
        baseline.now(),
        toggled.now(),
        "mid-run toggle changed cycles"
    );
    assert_eq!(
        baseline.report(),
        toggled.report(),
        "mid-run toggle diverges"
    );
}

/// One stretch of a toggled run: the engine for the next `len` cycles.
#[derive(Clone, Copy, Debug)]
struct Segment {
    len: u64,
    active_set: bool,
}

/// Runs one random case on barrier hardware built by `hw`: a run that
/// switches between the default engine and the oracle at random cycles
/// must pass through the same cycle and the same (mid-run) report at
/// every boundary, and end in the same memory, as the run over the same
/// boundaries on the default engine; both account for every charged
/// core-cycle, and the clock
/// never jumps while active sets are off. Then the same programs under
/// `run_with_progress`: the default engine's boundary reports must be
/// the dense cycle-by-cycle engine's. `wait_dominated` asserts the case
/// is what it was built to be: mostly parked spinners, with clock jumps.
fn check_mid_run_toggles(
    cfg: CmpConfig,
    progs: Vec<Program>,
    wait_dominated: bool,
    rng: &mut SplitMix64,
) {
    let n = cfg.num_cores();
    let segments: Vec<Segment> = (0..8)
        .map(|_| Segment {
            // Mostly thousands of cycles, sometimes a handful: short
            // stretches land the boundary inside skip horizons.
            len: if rng.chance(0.25) {
                1 + rng.next_below(4)
            } else {
                1 + rng.next_below(3000)
            },
            active_set: rng.chance(0.5),
        })
        .collect();

    let mut toggled = System::new(cfg, progs.clone());
    let mut serial = System::new(cfg, progs.clone());
    let what = format!("{n} cores ({:?}), {segments:?}", cfg.mesh);
    let mut i = 0;
    while !serial.all_halted() {
        let seg = segments[i % segments.len()];
        toggled.set_active_set_enabled(seg.active_set);
        let skips = toggled.skip_stats().skips;
        toggled.advance_until(toggled.now() + seg.len).unwrap();
        serial.advance_until(serial.now() + seg.len).unwrap();
        assert!(
            seg.active_set || toggled.skip_stats().skips == skips,
            "{what}: clock jumped in segment {i}"
        );
        assert_eq!(
            serial.now(),
            toggled.now(),
            "{what}: cycles after segment {i}"
        );
        assert_eq!(
            serial.report(),
            toggled.report(),
            "{what}: report after segment {i}"
        );
        i += 1;
        assert!(i < 1_000_000, "segmented run livelocked");
    }
    assert!(toggled.all_halted(), "{what}: toggled run still going");
    for k in 0..LOCKS {
        for base in [LOCK_BASE, COUNTER_BASE] {
            let a = base + k * 64;
            assert_eq!(serial.peek_word(a), toggled.peek_word(a), "{what}: {a:#x}");
        }
    }
    for c in 0..n as u64 {
        let a = SLOT_BASE + c * 64;
        assert_eq!(serial.peek_word(a), toggled.peek_word(a), "{what}: {a:#x}");
    }
    assert_core_cycles_accounted(&serial, &format!("{what}: serial"));
    assert_core_cycles_accounted(&toggled, &format!("{what}: toggled"));
    if wait_dominated {
        let (sched, skip) = (serial.core_sched_stats(), serial.skip_stats());
        assert!(
            skip.skips > 0 && sched.spin_parked_steps > sched.core_steps,
            "{what}: not a wait-dominated run: {sched:?}, {skip:?}"
        );
    }

    let every = 1 + rng.next_below(700);
    let boundary_reports = |dense: bool| {
        let mut sys = System::new(cfg, progs.clone());
        sys.set_active_set_enabled(!dense);
        let mut reports = Vec::new();
        sys.run_with_progress(50_000_000, every, |rep| reports.push(rep.clone()))
            .expect("run completes");
        reports
    };
    assert_eq!(
        boundary_reports(false),
        boundary_reports(true),
        "{what}: progress reports every {every} cycles"
    );
}

/// Random barrier/lock programs on random meshes — including 65 and 256
/// cores, so the index's word boundaries and the clustered network are
/// hit — stay bit-identical when the engine is switched mid-run at
/// random cycles. Every switch away from the sparse tick
/// leaves the wake index stale, so this is what exercises its rebuild.
/// The second pass over the paper's 4×8 mesh, the 65-core and the
/// clustered 256-core one runs staggered G-line barriers, so the
/// toggles and progress boundaries land while `bar_reg` parks and clock
/// jumps are pending.
#[test]
fn mid_run_toggles_on_random_meshes_invariant() {
    const MESHES: [(u16, u16); 8] = [
        (1, 3),
        (5, 13), // 65 cores: one bit in the second index word
        (2, 4),
        (16, 16), // 256 cores: four full words, clustered G-lines
        (3, 5),
        (8, 9), // 72 cores, clustered (9 columns)
        (4, 8),
        (1, 1),
    ];
    let mut case = 0;
    sim_base::check::forall_cases("mid-run-toggles", 16, |rng| {
        let (rows, cols) = MESHES[case % MESHES.len()];
        let staggered_gl =
            case >= MESHES.len() && matches!((rows, cols), (4, 8) | (5, 13) | (16, 16));
        case += 1;
        let mut cfg = CmpConfig::icpp2010();
        cfg.mesh = Mesh2D::new(rows, cols);
        let n = cfg.num_cores();
        let progs = if staggered_gl {
            staggered_gl_programs(n, rng)
        } else {
            // A centralized barrier on hundreds of cores costs minutes.
            let kinds: &[BarrierKind] = if n > 32 {
                &[BarrierKind::Gl, BarrierKind::Dsw]
            } else {
                &BarrierKind::ALL
            };
            let kind = kinds[rng.next_below(kinds.len() as u64) as usize];
            random_sync_programs(n, kind, rng)
        };
        check_mid_run_toggles(cfg, progs, staggered_gl, rng);
    });
}

/// The sparse tick and its clock jumps count unvisited parked cores by
/// popcount; the dense tick counts core by core. On a 256-core DSW run
/// (four index words, most cores spin- or miss-parked most of the time)
/// the sparse counters must account for exactly the core-cycles the
/// report charges — the same total the dense tick steps one by one
/// (`clustered_256_core_active_set_invariant` runs that oracle at this
/// size).
#[test]
fn popcount_counters_match_per_core_counting_at_256_cores() {
    let w = synthetic::build(256, BarrierKind::Dsw, 1);
    let cfg = CmpConfig::icpp2010_with_cores(256);
    let mut sparse = w.into_system(cfg);
    sparse.run(50_000_000).expect("run must complete");
    assert_core_cycles_accounted(&sparse, "sparse");
    let stats = sparse.core_sched_stats();
    assert!(
        stats.spin_parked_steps > stats.core_steps,
        "not a parked-dominated run: {stats:?}"
    );
}

//! Determinism of the parallel engines.
//!
//! `System::run_with_workers` partitions the tiles across worker
//! threads and advances the machine under one of two rendezvous
//! protocols: the epoch-batched free-run engine (`DESIGN.md` §13, the
//! default) or the per-cycle sharded tick (`DESIGN.md` §11,
//! [`sim_cmp::SyncProtocol::PerCycle`]). The correctness contract is
//! the strongest in the simulator: a parallel run is **bit-identical**
//! to the serial engine — same [`sim_cmp::SystemReport`], same
//! architectural memory — for *every* worker count, *both* protocols,
//! every workload family, every barrier flavour, and every combination
//! of the cycle-skipping and active-set schedulers. The scheduler
//! diagnostics are not part of that contract (the serial engine jumps
//! off its wake index and parks `bar_reg` spinners, the parallel ones
//! classify the whole machine and do neither), but they are the same
//! at every worker count, and on every engine they account for every
//! charged core-cycle exactly once. Traced systems fall back to the serial
//! engine (the event stream is defined by the serial interleaving),
//! and both the worker count and the protocol may change between calls
//! mid-run without perturbing the machine.

use gline_core::{BarrierHw, ClusteredBarrierNetwork};
use sim_base::config::CmpConfig;
use sim_base::trace::{ChromeTraceSink, Tracer};
use sim_cmp::runtime::BarrierKind;
use sim_cmp::{SyncProtocol, System, SystemReport};
use sim_trace::TraceSet;
use workloads::common::Workload;
use workloads::{em3d, livermore, ocean, synthetic, unstructured};

/// The worker counts every invariant is checked at: even and odd,
/// dividing and not dividing the core counts used below, and (for the
/// 8-core workloads) equal to the tile count.
const WORKERS: [usize; 4] = [2, 3, 4, 8];

/// The scheduler counters account for every core-cycle the report
/// charges, each exactly once — as a step or as an elided (parked) one.
fn assert_core_cycles_accounted<B: BarrierHw>(sys: &System<B>, what: &str) {
    assert_eq!(
        sys.core_sched_stats().core_cycles(),
        sys.report().total_time.total(),
        "{what}: core steps + parked steps != charged core-cycles"
    );
}

/// Runs `serial` to completion, then each of `pars` with its worker
/// count, and demands bit-identical cycles and reports, the accounting
/// identity on every engine, and scheduler diagnostics that do not
/// depend on the worker count. Returns the serial cycles and report.
fn assert_parallel_runs_match<B: BarrierHw>(
    name: &str,
    mut serial: System<B>,
    pars: impl IntoIterator<Item = (usize, System<B>)>,
) -> (u64, SystemReport) {
    let cs = serial.run(50_000_000).expect("serial run must complete");
    let rs: SystemReport = serial.report();
    assert_core_cycles_accounted(&serial, &format!("{name} serial"));
    let mut diagnostics = None;
    for (workers, mut par) in pars {
        let cp = par
            .run_with_workers(50_000_000, workers)
            .expect("parallel run must complete");
        assert_eq!(cs, cp, "{name} @ {workers} workers: cycle counts");
        assert_eq!(rs, par.report(), "{name} @ {workers} workers: reports");
        assert_core_cycles_accounted(&par, &format!("{name} @ {workers} workers"));
        let got = (par.skip_stats(), par.core_sched_stats());
        assert_eq!(
            *diagnostics.get_or_insert(got),
            got,
            "{name} @ {workers} workers: scheduler diagnostics depend on the worker count"
        );
    }
    (cs, rs)
}

/// Runs `w` serially and at every worker count, with `setup` applied
/// to each system first, and demands bit-identical outcomes.
fn assert_parallel_invariant_with(w: &Workload, setup: impl Fn(&mut System)) {
    let cfg = CmpConfig::icpp2010_with_cores(w.progs.len());
    let build = || {
        let mut sys = w.into_system(cfg);
        setup(&mut sys);
        sys
    };
    assert_parallel_runs_match(&w.name, build(), WORKERS.map(|workers| (workers, build())));
}

fn assert_parallel_invariant(w: &Workload) {
    assert_parallel_invariant_with(w, |_| {});
}

#[test]
fn synthetic_all_barrier_kinds_parallel_invariant() {
    for kind in BarrierKind::ALL {
        assert_parallel_invariant(&synthetic::build(8, kind, 6));
    }
}

#[test]
fn synthetic_paper_mesh_parallel_invariant() {
    assert_parallel_invariant(&synthetic::build(32, BarrierKind::Gl, 4));
    assert_parallel_invariant(&synthetic::build(32, BarrierKind::Csw, 2));
}

#[test]
fn synthetic_imbalanced_parallel_invariant() {
    // Staggered arrivals: cores park, the machine goes quiescent
    // between episodes, and whole-machine skips interleave with
    // parallel ticks — the full composition with PR 2/3 machinery.
    for kind in BarrierKind::ALL {
        assert_parallel_invariant(&synthetic::build_imbalanced(8, kind, 3, 300));
    }
    assert_parallel_invariant(&synthetic::build_imbalanced(32, BarrierKind::Csw, 2, 500));
}

#[test]
fn barrier_matrix_parallel_invariant() {
    for (_, w) in synthetic::barrier_matrix(8, 2, 200) {
        assert_parallel_invariant(&w);
    }
}

#[test]
fn compute_matrix_parallel_invariant() {
    // The exact matrix the parallel_engine bench measures: cores live
    // nearly every cycle, maximal per-cycle work in the compute phase.
    for (_, w) in synthetic::compute_matrix(8, 2, 40, 200) {
        assert_parallel_invariant(&w);
    }
}

#[test]
fn ocean_parallel_invariant() {
    for kind in [BarrierKind::Gl, BarrierKind::Csw] {
        assert_parallel_invariant(&ocean::build(8, kind, ocean::OceanParams::scaled(10, 2)));
    }
}

#[test]
fn em3d_parallel_invariant() {
    for kind in [BarrierKind::Gl, BarrierKind::Dsw] {
        assert_parallel_invariant(&em3d::build(8, kind, em3d::Em3dParams::scaled(24, 2)));
    }
}

#[test]
fn livermore_kernels_parallel_invariant() {
    let p = livermore::KernelParams::scaled(32, 2);
    assert_parallel_invariant(&livermore::kernel2(4, BarrierKind::Gl, p));
    assert_parallel_invariant(&livermore::kernel3(4, BarrierKind::Csw, p));
    assert_parallel_invariant(&livermore::kernel6(4, BarrierKind::Gl, p));
}

#[test]
fn unstructured_parallel_invariant() {
    // Locks + barriers: the NoC and home banks carry heavy coherence
    // traffic, so the outbox-flush ordering is doing real work here.
    let p = unstructured::UnstructuredParams::scaled(12, 24, 2);
    for kind in [BarrierKind::Gl, BarrierKind::Csw] {
        assert_parallel_invariant(&unstructured::build(4, kind, p));
    }
}

#[test]
fn parallel_invariant_composes_with_scheduler_toggles() {
    // The engine must be bit-identical with each of the PR 2/3
    // schedulers disabled too (dense per-cycle loop, no parking, no
    // whole-machine skips) — every combination drives a different
    // shard-phase branch.
    let w = synthetic::build_imbalanced(8, BarrierKind::Csw, 2, 200);
    for (skip, active) in [(false, true), (true, false), (false, false)] {
        assert_parallel_invariant_with(&w, |sys| {
            sys.set_skip_enabled(skip);
            sys.set_active_set_enabled(active);
        });
    }
}

#[test]
fn architectural_memory_identical_with_parallel_engine() {
    let p = ocean::OceanParams::scaled(10, 2);
    let w = ocean::build(8, BarrierKind::Gl, p);
    let cfg = CmpConfig::icpp2010_with_cores(8);
    let mut serial = w.into_system(cfg);
    serial.run(50_000_000).unwrap();
    for workers in WORKERS {
        let mut par = w.into_system(cfg);
        par.run_with_workers(50_000_000, workers).unwrap();
        for (i, _) in ocean::expected(p, 8).iter().enumerate() {
            let a = ocean::point_addr(p, i / 10, i % 10);
            assert_eq!(
                serial.peek_word(a),
                par.peek_word(a),
                "word 0x{a:x} @ {workers} workers"
            );
        }
    }
}

/// A traced system asked for workers must produce the *serial* event
/// stream: the trace is defined by the serial interleaving, so
/// `run_with_workers` falls back to the serial engine whenever the
/// sink is enabled.
#[test]
fn traced_runs_pin_the_serial_engine() {
    let w = synthetic::build_imbalanced(8, BarrierKind::Csw, 2, 200);
    let cfg = CmpConfig::icpp2010_with_cores(8);

    let run_traced = |workers: Option<usize>| {
        let tracer = Tracer::new(ChromeTraceSink::new());
        let mut sys = System::traced(cfg, w.progs.clone(), tracer.clone());
        match workers {
            Some(n) => sys.run_with_workers(50_000_000, n).unwrap(),
            None => sys.run(50_000_000).unwrap(),
        };
        (sys.report(), tracer.with_sink(|s| s.events().to_vec()))
    };

    let (rep_serial, ev_serial) = run_traced(None);
    assert!(!ev_serial.is_empty(), "traced run recorded no events");
    for workers in WORKERS {
        let (rep, ev) = run_traced(Some(workers));
        assert_eq!(rep_serial, rep, "{workers} workers: traced reports");
        assert_eq!(ev_serial, ev, "{workers} workers: traced event streams");
    }
}

/// The worker pool lives only for one `advance_until_with_workers`
/// call, so the worker count may change between calls — the machine
/// state cannot tell the difference. (Skip statistics are excluded:
/// segmenting the run changes the skip *horizon* structure, which
/// moves attempt counters without moving the machine.)
#[test]
fn mid_run_worker_count_switching_is_invariant() {
    let w = synthetic::build_imbalanced(8, BarrierKind::Csw, 3, 300);
    let cfg = CmpConfig::icpp2010_with_cores(8);
    let mut switched = w.into_system(cfg);
    let rotation = [2usize, 1, 3, 8, 4];
    let mut i = 0usize;
    while !switched.all_halted() {
        let until = switched.now() + 1_500;
        switched.advance_until_with_workers(until, rotation[i % rotation.len()]);
        i += 1;
        assert!(i < 50_000, "switched run livelocked");
    }
    let mut serial = w.into_system(cfg);
    serial.run(50_000_000).unwrap();
    assert_eq!(serial.now(), switched.now(), "switching changed cycles");
    assert_eq!(serial.report(), switched.report(), "switching diverges");
}

/// Records `w` on the dense serial engine and packages the traces.
fn record_set(w: &Workload) -> TraceSet {
    let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(w.progs.len()));
    let (_, traces) = sys.run_recorded(50_000_000).expect("recording completes");
    TraceSet {
        cores: traces,
        pokes: w.pokes.clone(),
        workload: w.name.clone(),
    }
}

/// The parallel invariant holds for trace-driven replay too: a replay
/// at 2/4/8 workers is bit-identical to the serial replay, and both to
/// the exec-mode run the trace was recorded from.
#[test]
fn replay_parallel_invariant() {
    for kind in BarrierKind::ALL {
        let w = synthetic::build_imbalanced(8, kind, 3, 300);
        let cfg = CmpConfig::icpp2010_with_cores(8);

        let mut exec = w.into_system(cfg);
        let ce = exec.run(50_000_000).expect("exec run must complete");
        let set = record_set(&w);

        let (cs, rs) = assert_parallel_runs_match(
            &format!("{} replay", w.name),
            System::replay(cfg, &set),
            [2usize, 4, 8].map(|workers| (workers, System::replay(cfg, &set))),
        );
        assert_eq!(ce, cs, "{}: replay changed the cycle count", w.name);
        assert_eq!(
            exec.report(),
            rs,
            "{}: serial replay diverged from exec",
            w.name
        );
    }
}

/// Replay composes with the scheduler toggles under every worker count,
/// exactly like exec mode.
#[test]
fn replay_parallel_invariant_composes_with_scheduler_toggles() {
    let w = synthetic::build_imbalanced(8, BarrierKind::Csw, 2, 200);
    let cfg = CmpConfig::icpp2010_with_cores(8);
    let set = record_set(&w);
    for (skip, active) in [(false, true), (true, false), (false, false)] {
        let mut serial = System::replay(cfg, &set);
        serial.set_skip_enabled(skip);
        serial.set_active_set_enabled(active);
        serial.run(50_000_000).expect("serial replay must complete");
        for workers in WORKERS {
            let mut par = System::replay(cfg, &set);
            par.set_skip_enabled(skip);
            par.set_active_set_enabled(active);
            par.run_with_workers(50_000_000, workers)
                .expect("parallel replay must complete");
            assert_eq!(
                serial.report(),
                par.report(),
                "replay skip={skip} active={active} @ {workers} workers"
            );
        }
    }
}

/// Worker-count switching mid-replay is as invisible as it is mid-exec:
/// the same rotation of pool sizes lands on the exec run's exact state.
#[test]
fn replay_mid_run_worker_count_switching_is_invariant() {
    let w = synthetic::build_imbalanced(8, BarrierKind::Gl, 3, 300);
    let cfg = CmpConfig::icpp2010_with_cores(8);

    let mut exec = w.into_system(cfg);
    exec.run(50_000_000).unwrap();
    let set = record_set(&w);

    let mut switched = System::replay(cfg, &set);
    let rotation = [2usize, 1, 3, 8, 4];
    let mut i = 0usize;
    while !switched.all_halted() {
        let until = switched.now() + 1_500;
        switched.advance_until_with_workers(until, rotation[i % rotation.len()]);
        i += 1;
        assert!(i < 50_000, "switched replay livelocked");
    }
    assert_eq!(exec.now(), switched.now(), "switched replay changed cycles");
    assert_eq!(
        exec.report(),
        switched.report(),
        "switched replay diverged from exec"
    );
}

/// A 256-core (16×16) machine exceeds the flat G-line transmitter
/// budget, so the two-level [`ClusteredBarrierNetwork`] carries the
/// barriers — and the parallel engine must stay bit-identical on it
/// too. This is the largest determinism case in the suite: every
/// O(active) path added for the many-core scaling work (clustered
/// episode accounting, sparse epoch pre-drain, active-tile home sync)
/// runs under both engines here.
#[test]
fn clustered_256_core_parallel_invariant() {
    let w = synthetic::build(256, BarrierKind::Gl, 2);
    let cfg = CmpConfig::icpp2010_with_cores(256);
    assert!(
        cfg.needs_clustered_gline(),
        "16x16 must exceed the flat G-line budget"
    );
    let hw = || ClusteredBarrierNetwork::new(cfg.mesh, cfg.gline);

    assert_parallel_runs_match(
        "256-core clustered",
        w.into_system_with_hw(cfg, hw()),
        [(4, w.into_system_with_hw(cfg, hw()))],
    );
}

/// The legacy per-cycle protocol remains available behind
/// [`SyncProtocol::PerCycle`] and keeps the full invariant on every
/// barrier flavour. (All tests above exercise the epoch protocol — the
/// default — so together the two pin both rendezvous paths.)
#[test]
fn per_cycle_protocol_parallel_invariant() {
    for kind in BarrierKind::ALL {
        assert_parallel_invariant_with(&synthetic::build(8, kind, 4), |sys| {
            sys.set_sync_protocol(SyncProtocol::PerCycle)
        });
    }
    assert_parallel_invariant_with(
        &synthetic::build_imbalanced(8, BarrierKind::Csw, 3, 300),
        |sys| sys.set_sync_protocol(SyncProtocol::PerCycle),
    );
}

/// Epoch boundary stress: contended CSW keeps protocol traffic in
/// flight nearly every cycle, so almost every window is clamped by an
/// imminent cross-shard delivery maturation or by the earliest
/// possible send plus the minimum NoC latency. With skipping and the
/// active set disabled the free-run also takes its dense branch, and
/// the apply phase's debug assertions (which run in this build) verify
/// no stamped message or latch write is ever replayed outside its
/// cycle.
#[test]
fn epoch_windows_clamped_by_imminent_deliveries() {
    let w = synthetic::build(8, BarrierKind::Csw, 4);
    for (skip, active) in [(true, true), (false, true), (true, false), (false, false)] {
        assert_parallel_invariant_with(&w, |sys| {
            sys.set_skip_enabled(skip);
            sys.set_active_set_enabled(active);
        });
    }
}

/// The full protocol × cycle-skip × active-set matrix, exec mode: each
/// cell drives a different combination of window clamps, shard-phase
/// branches, and rendezvous machinery.
#[test]
fn protocol_toggle_matrix_parallel_invariant() {
    let w = synthetic::build_imbalanced(8, BarrierKind::Gl, 2, 200);
    for proto in [SyncProtocol::Epoch, SyncProtocol::PerCycle] {
        for (skip, active) in [(false, true), (true, false), (false, false)] {
            assert_parallel_invariant_with(&w, |sys| {
                sys.set_sync_protocol(proto);
                sys.set_skip_enabled(skip);
                sys.set_active_set_enabled(active);
            });
        }
    }
}

/// Replay mode under the same protocol × scheduler matrix: the epoch
/// engine's replay halt bounds (`ops - rp_op`) and the per-cycle
/// engine must both land on the serial replay bit-for-bit.
#[test]
fn replay_protocol_toggle_matrix_parallel_invariant() {
    let w = synthetic::build_imbalanced(8, BarrierKind::Csw, 2, 200);
    let cfg = CmpConfig::icpp2010_with_cores(8);
    let set = record_set(&w);
    for proto in [SyncProtocol::Epoch, SyncProtocol::PerCycle] {
        for active in [true, false] {
            let mut serial = System::replay(cfg, &set);
            serial.set_sync_protocol(proto);
            serial.set_active_set_enabled(active);
            serial.run(50_000_000).expect("serial replay must complete");
            for workers in [2usize, 3, 8] {
                let mut par = System::replay(cfg, &set);
                par.set_sync_protocol(proto);
                par.set_active_set_enabled(active);
                par.run_with_workers(50_000_000, workers)
                    .expect("parallel replay must complete");
                assert_eq!(
                    serial.report(),
                    par.report(),
                    "replay {proto:?} active={active} @ {workers} workers"
                );
            }
        }
    }
}

/// The protocol may change between `advance_until_with_workers` calls
/// mid-run — together with a changing worker count — without moving
/// the machine: epochs are cut at each segment horizon, so a segment
/// boundary is always an epoch boundary.
#[test]
fn mid_run_protocol_switching_is_invariant() {
    let w = synthetic::build_imbalanced(8, BarrierKind::Csw, 3, 300);
    let cfg = CmpConfig::icpp2010_with_cores(8);
    let mut switched = w.into_system(cfg);
    let rotation = [
        (SyncProtocol::Epoch, 4usize),
        (SyncProtocol::PerCycle, 3),
        (SyncProtocol::Epoch, 8),
        (SyncProtocol::PerCycle, 2),
        (SyncProtocol::Epoch, 1),
    ];
    let mut i = 0usize;
    while !switched.all_halted() {
        let (proto, workers) = rotation[i % rotation.len()];
        switched.set_sync_protocol(proto);
        let until = switched.now() + 1_100;
        switched.advance_until_with_workers(until, workers);
        i += 1;
        assert!(i < 50_000, "protocol-switched run livelocked");
    }
    let mut serial = w.into_system(cfg);
    serial.run(50_000_000).unwrap();
    assert_eq!(serial.now(), switched.now(), "switching changed cycles");
    assert_eq!(serial.report(), switched.report(), "switching diverges");
}

/// Scheduling statistics are themselves deterministic (modulo wakeups,
/// which depend on host thread timing), and the epoch protocol
/// actually batches: far fewer barrier crossings than cycles, and far
/// fewer than the per-cycle protocol on the same workload.
#[test]
fn epoch_sync_stats_deterministic_and_batched() {
    let w = synthetic::build(8, BarrierKind::Csw, 4);
    let cfg = CmpConfig::icpp2010_with_cores(8);
    let run = |proto: SyncProtocol| {
        let mut sys = w.into_system(cfg);
        sys.set_sync_protocol(proto);
        sys.run_with_workers(50_000_000, 4).unwrap();
        sys.sync_stats()
    };
    let a = run(SyncProtocol::Epoch);
    let b = run(SyncProtocol::Epoch);
    assert_eq!(a.epochs, b.epochs, "epoch count must be deterministic");
    assert_eq!(
        a.par_cycles, b.par_cycles,
        "par cycles must be deterministic"
    );
    assert_eq!(a.crossings, b.crossings, "crossings must be deterministic");
    assert_eq!(
        a.shard_epochs_skipped, b.shard_epochs_skipped,
        "skipped shard-epochs must be deterministic"
    );
    assert!(a.epochs > 0, "no epochs executed");
    assert!(
        a.crossings <= a.epochs,
        "at most one barrier crossing per epoch"
    );
    assert!(a.mean_epoch_len() >= 1.0, "epochs advance at least a cycle");

    let pc = run(SyncProtocol::PerCycle);
    assert_eq!(pc.epochs, 0, "per-cycle protocol runs no epochs");
    assert_eq!(
        a.par_cycles, pc.par_cycles,
        "both protocols tick the same cycles"
    );
    assert!(
        pc.crossings > a.crossings,
        "epoch batching must reduce barrier crossings ({} vs {})",
        a.crossings,
        pc.crossings
    );
}

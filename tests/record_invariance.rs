//! Recording observes the run, it does not drive it
//! (`DESIGN.md` §11).
//!
//! [`System::run_recorded`] runs the machine through the same `advance`
//! as a plain `run` — parking cores, jumping the clock — with a recorder
//! watching every executed step and every spin span the scheduler
//! settles in closed form. So whatever the scheduler elides, the
//! recorder must fold back in: on the default engine a recording run
//! returns the same cycles, the same [`SystemReport`] and the same
//! traces, op for op, as on the dense every-core `--no-active-set`
//! oracle; the default engine must really jump and park, or the
//! comparison would prove nothing.

use sim_base::config::CmpConfig;
use sim_base::Mesh2D;
use sim_cmp::runtime::BarrierKind;
use sim_cmp::System;
use sim_isa::Program;
use sim_trace::TraceSet;
use workloads::common::Workload;
use workloads::random::{random_sync_programs, staggered_gl_programs};
use workloads::synthetic;

const MAX_CYCLES: u64 = 50_000_000;

/// `full` in an optimized build, `quick` in an unoptimized one. The
/// dense reference steps every core and router every cycle, and a debug
/// build — worth running for the scheduler's `debug_assert`s on every
/// jump and index update — takes 25 times as long over it; the CI
/// `replay-lockstep` job runs the full sizes in release.
const fn sized(full: u64, quick: u64) -> u64 {
    if cfg!(debug_assertions) {
        quick
    } else {
        full
    }
}

/// Records `progs` on `cfg` on the default engine and holds it against
/// the dense reference recording, a plain run against the recording,
/// and a replay of the recorded set against both. `waits` says some
/// core waits for another somewhere in the run (everything here but
/// back-to-back G-line barriers, where all cores stay live for the few
/// hundred cycles the run lasts): the default engine must then have
/// parked cores and jumped the clock.
fn assert_recording_invariant(
    what: &str,
    cfg: CmpConfig,
    progs: &[Program],
    pokes: &[(u64, u64)],
    waits: bool,
) {
    let build = || {
        let mut sys = System::new(cfg, progs.to_vec());
        for &(addr, value) in pokes {
            sys.poke_word(addr, value);
        }
        sys
    };
    let record = |active_set: bool| {
        let mut sys = build();
        sys.set_active_set_enabled(active_set);
        let (cycles, traces) = sys
            .run_recorded(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{what} active_set={active_set}: {e}"));
        (cycles, sys.report(), traces, sys)
    };

    let (cycles, report, traces, oracle) = record(false);
    assert_eq!(oracle.skip_stats().skips, 0, "{what}: the oracle jumped");
    let (c, r, t, sys) = record(true);
    assert_eq!(c, cycles, "{what}: cycles");
    assert_eq!(r, report, "{what}: report");
    for (got, want) in t.iter().zip(&traces) {
        assert_eq!(got, want, "{what}: trace of core {}", want.core);
    }
    assert_eq!(t.len(), traces.len(), "{what}: trace count");
    if waits {
        let (fast, dense) = (sys.core_sched_stats(), oracle.core_sched_stats());
        assert!(
            sys.skip_stats().skips > 0 && fast.core_steps < dense.core_steps,
            "{what}: recording fell back to the dense tick: {fast:?} vs {dense:?}"
        );
    }

    let mut plain = build();
    assert_eq!(plain.run(MAX_CYCLES), Ok(cycles), "{what}: plain run");
    assert_eq!(
        plain.report(),
        report,
        "{what}: recording perturbed the run"
    );

    let set = TraceSet {
        cores: traces,
        pokes: pokes.to_vec(),
        workload: what.to_string(),
    };
    let mut replay = System::replay(cfg, &set);
    assert_eq!(replay.run(MAX_CYCLES), Ok(cycles), "{what}: replay");
    assert_eq!(replay.report(), report, "{what}: replay report");
}

fn assert_workload_invariant(what: &str, w: &Workload) {
    let cfg = CmpConfig::icpp2010_with_cores(w.progs.len());
    let waits = w.kind != BarrierKind::Gl || w.name.contains("imbalanced");
    assert_recording_invariant(what, cfg, &w.progs, &w.pokes, waits);
}

#[test]
fn barrier_matrix_recording_invariant() {
    for (cores, iters, stagger) in [(sized(32, 16) as usize, sized(6, 1), 1000), (8, 3, 37)] {
        for (name, w) in &synthetic::barrier_matrix(cores, iters, stagger) {
            assert_workload_invariant(&format!("{name} x{cores}"), w);
        }
    }
}

#[test]
fn synthetic_recording_invariant() {
    for kind in BarrierKind::ALL {
        assert_workload_invariant(
            &format!("synthetic {kind:?}"),
            &synthetic::build(16, kind, sized(10, 2)),
        );
        assert_workload_invariant(
            &format!("imbalanced {kind:?}"),
            &synthetic::build_imbalanced(sized(32, 16) as usize, kind, sized(5, 1), 1003),
        );
    }
}

/// Staggered G-line barriers, then random barrier/lock programs, on the
/// paper's 4×8 mesh, on 65 cores (a second index word) and on the
/// clustered 256-core machine (whose lock/barrier case a debug build
/// leaves to `mid_run_toggles_on_random_meshes_invariant`'s exec runs).
#[test]
fn random_programs_recording_invariant() {
    const MESHES: [(u16, u16); 3] = [(4, 8), (5, 13), (16, 16)];
    let mut case = 0;
    sim_base::check::forall_cases("record-invariance", sized(6, 5) as u32, |rng| {
        let (rows, cols) = MESHES[case % MESHES.len()];
        let staggered_gl = case < MESHES.len();
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
        let what = format!("{rows}x{cols} staggered_gl={staggered_gl}");
        assert_recording_invariant(&what, cfg, &progs, &[], true);
    });
}

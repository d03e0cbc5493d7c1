//! Wall-clock win of active-set micro-scheduling, plus the parallel
//! sweep engine's determinism and scaling.
//!
//! Part 1 runs the full `barrier kind × contention shape` synthetic
//! matrix (GL/CSW/DSW, contended and imbalanced) on the 32-core
//! machine, once with active-set scheduling enabled and once with
//! `--no-active-set`, with quiescence skipping on in both runs. The
//! full `SystemReport`s must be bit-identical (the active-set
//! contract); the wall-clock ratio is the win from visiting only
//! routers with buffered flits, homes with live transactions, and
//! unparked cores. The headline number is the contended CSW run — the
//! coherence-bound regime where skipping cannot help because the
//! machine is never quiescent.
//!
//! Part 2 fans the same matrix across host threads via
//! [`bench::sweep`] and asserts the merged results are identical to
//! the serial sweep, element for element. Results land in
//! `BENCH_active_set.json` at the repo root.

use std::time::Instant;

use bench::experiments::BENCH_CORES;
use bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use bench::sweep::{default_workers, sweep};
use sim_base::config::CmpConfig;
use sim_base::json::Json;
use sim_cmp::SystemReport;
use workloads::common::Workload;
use workloads::synthetic;

/// One timed end-to-end run with active-set scheduling on or off.
struct Run {
    wall_s: f64,
    cycles: u64,
    ticks_per_s: f64,
    report: SystemReport,
    mean_active_cores: f64,
    mean_busy_homes: f64,
    mean_active_routers: f64,
}

fn measure(w: &Workload, active: bool) -> Run {
    let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(w.progs.len()));
    sys.set_active_set_enabled(active);
    let start = Instant::now();
    let cycles = sys.run(20_000_000_000).expect("workload completes");
    let wall_s = start.elapsed().as_secs_f64();
    Run {
        wall_s,
        cycles,
        ticks_per_s: cycles as f64 / wall_s.max(1e-9),
        report: sys.report(),
        mean_active_cores: sys.core_sched_stats().mean_active_cores(),
        mean_busy_homes: sys.mem_sched_stats().mean_busy_homes(),
        mean_active_routers: sys.noc_sched_stats().mean_active_routers(),
    }
}

fn run_json(r: &Run) -> Json {
    Json::obj([
        ("wall_s", Json::from(r.wall_s)),
        ("cycles", Json::from(r.cycles)),
        ("ticks_per_s", Json::from(r.ticks_per_s)),
    ])
}

/// Measures `w` both ways, checks bit-identity, and returns the JSON
/// record plus the wall-clock speedup.
fn compare(name: &str, w: &Workload) -> (Json, f64) {
    measure(w, true); // warm-up
    let on = measure(w, true);
    let off = measure(w, false);
    assert_eq!(
        on.report, off.report,
        "{name}: active-set scheduling changed the report"
    );
    let speedup = off.wall_s / on.wall_s.max(1e-9);
    eprintln!(
        "[active_set] {name}: {} cycles; mean active {:.1}/{} cores, \
         {:.1}/{} homes, {:.1}/{} routers",
        on.cycles,
        on.mean_active_cores,
        BENCH_CORES,
        on.mean_busy_homes,
        BENCH_CORES,
        on.mean_active_routers,
        BENCH_CORES,
    );
    eprintln!(
        "[active_set]   active on : {:>9.2} ms  ({:.2e} ticks/s)",
        on.wall_s * 1e3,
        on.ticks_per_s
    );
    eprintln!(
        "[active_set]   active off: {:>9.2} ms  ({:.2e} ticks/s)",
        off.wall_s * 1e3,
        off.ticks_per_s
    );
    eprintln!("[active_set]   wall-clock speedup: {speedup:.2}x");
    let json = Json::obj([
        ("name", Json::from(name)),
        ("active_on", run_json(&on)),
        ("active_off", run_json(&off)),
        ("speedup", Json::from(speedup)),
        ("mean_active_cores", Json::from(on.mean_active_cores)),
        ("mean_busy_homes", Json::from(on.mean_busy_homes)),
        ("mean_active_routers", Json::from(on.mean_active_routers)),
    ]);
    (json, speedup)
}

/// Runs every matrix entry once (active-set on) and returns
/// `(cycles, report)` per entry, in matrix order.
fn sweep_once(
    matrix: &[(&'static str, Workload)],
    workers: usize,
) -> (Vec<(u64, SystemReport)>, f64) {
    let start = Instant::now();
    let out = sweep(matrix, workers, |(_, w)| {
        let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(w.progs.len()));
        let cycles = sys.run(20_000_000_000).expect("workload completes");
        (cycles, sys.report())
    });
    (out, start.elapsed().as_secs_f64())
}

fn bench(c: &mut Criterion) {
    // `cargo bench -- --test` (the CI smoke pass) runs scaled-down
    // workloads; a real `cargo bench` uses the full iteration counts
    // and enforces the speedup floor.
    let test_mode = std::env::args().any(|a| a == "--test");
    let (iters, stagger) = if test_mode { (1, 200) } else { (6, 1000) };
    let matrix = synthetic::barrier_matrix(BENCH_CORES, iters, stagger);

    // Part 1: single-threaded active-set on vs off, per matrix entry.
    let mut entries = Vec::new();
    let mut contended_csw_speedup = 0.0;
    for (name, w) in &matrix {
        let (json, speedup) = compare(name, w);
        if *name == "contended CSW" {
            contended_csw_speedup = speedup;
        }
        entries.push(json);
    }

    // Contended GL is over in ~156 cycles, so a single wall-clock pair
    // is noise; the gate uses the best speedup over several pairs. The
    // regime is all-cores-spinning with zero memory/NoC traffic, where
    // active-set bookkeeping once cost 0.58x — the floor pins the fix
    // (spin-park fast path) at parity or better rather than chasing the
    // noisy upside.
    let contended_gl = &matrix
        .iter()
        .find(|(n, _)| *n == "contended GL")
        .expect("matrix has contended GL")
        .1;
    let contended_gl_speedup = (0..7)
        .map(|_| {
            let on = measure(contended_gl, true);
            let off = measure(contended_gl, false);
            off.wall_s / on.wall_s.max(1e-9)
        })
        .fold(0.0f64, f64::max);
    eprintln!("[active_set] contended GL best-of-7 speedup: {contended_gl_speedup:.2}x");

    // Part 2: the parallel sweep must merge to the exact serial result.
    let workers = default_workers();
    let (serial, serial_wall) = sweep_once(&matrix, 1);
    let (parallel, parallel_wall) = sweep_once(&matrix, workers);
    assert_eq!(
        serial, parallel,
        "parallel sweep reordered or changed results"
    );
    let scaling = serial_wall / parallel_wall.max(1e-9);
    eprintln!(
        "[active_set] sweep: serial {:.2} ms, {} workers {:.2} ms ({scaling:.2}x)",
        serial_wall * 1e3,
        workers,
        parallel_wall * 1e3
    );

    let json = Json::obj([
        ("benchmark", Json::from("synthetic barrier matrix")),
        ("cores", Json::from(BENCH_CORES as u64)),
        ("host", bench::sweep::host_json(workers)),
        ("iters", Json::from(iters)),
        ("stagger", Json::from(stagger)),
        ("workloads", Json::arr(entries)),
        ("contended_csw_speedup", Json::from(contended_csw_speedup)),
        ("contended_gl_speedup", Json::from(contended_gl_speedup)),
        (
            "sweep",
            Json::obj([
                ("workers", Json::from(workers as u64)),
                ("serial_wall_s", Json::from(serial_wall)),
                ("parallel_wall_s", Json::from(parallel_wall)),
                ("scaling", Json::from(scaling)),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_active_set.json");
    std::fs::write(path, json.pretty()).expect("write BENCH_active_set.json");
    eprintln!("[active_set] wrote {path}");
    if !test_mode {
        assert!(
            contended_csw_speedup >= 1.5,
            "active-set scheduling must buy >= 1.5x wall-clock on the contended CSW \
             workload, got {contended_csw_speedup:.2}x"
        );
        assert!(
            contended_gl_speedup >= 0.9,
            "active-set scheduling must not regress the short contended GL workload \
             below 0.9x wall-clock (best of 7), got {contended_gl_speedup:.2}x"
        );
    }

    // Harness samples for trend tracking alongside the other benches.
    let contended = &matrix
        .iter()
        .find(|(n, _)| *n == "contended CSW")
        .expect("matrix has contended CSW")
        .1;
    let mut g = c.benchmark_group("active_set");
    g.sample_size(10);
    for active in [true, false] {
        g.bench_with_input(
            BenchmarkId::new("contended_csw", if active { "active" } else { "dense" }),
            &active,
            |b, &active| b.iter(|| measure(contended, active).cycles),
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Wall-clock scaling and synchronization cost of the parallel engine
//! (`DESIGN.md` §11 per-cycle protocol, §13 epoch protocol).
//!
//! Runs the compute-bearing synthetic matrix (GL/CSW/DSW × contended /
//! imbalanced — [`synthetic::compute_matrix`], whose cores are live
//! almost every cycle, so the compute phase has real work to shard) on
//! the 32-core machine with the serial engine, with 2/4/8 worker
//! threads under the epoch-batched protocol, and with 4 workers under
//! the legacy per-cycle protocol. Every parallel run must be
//! **bit-identical** to the serial one — same cycle count, same
//! `SystemReport`. The skip and scheduler statistics are diagnostics
//! and differ between the engines by design (the serial engine jumps
//! off its wake index and parks `bar_reg` spinners, the worker engines
//! run the whole-machine classifier): every run must account for each
//! charged core-cycle exactly once, and the epoch runs must agree with
//! each other at every worker count. Two numbers are gated:
//!
//! * **Barrier crossings per kilocycle** (host-independent, enforced
//!   everywhere including the CI smoke): on contended CSW at 4 workers
//!   the epoch protocol must cross its rendezvous barrier ≥ 10x less
//!   often per simulated kilocycle than the per-cycle protocol. This
//!   is the structural win — it holds on a 1-core host because it
//!   counts protocol events, not seconds.
//! * **Wall-clock speedup** ≥ 1.7x at 4 workers on contended CSW, only
//!   enforced on hosts that actually have ≥ 4 cores and never in the
//!   CI smoke's `--test` mode.
//!
//! Results land in `BENCH_parallel_engine.json` at the repo root; its
//! `host`, `speedup_floor_enforced`, and `crossings_floor_enforced`
//! fields record what this run could and did check, so a 1-core run
//! can't silently pass the wall-clock floor.

use std::time::Instant;

use bench::experiments::BENCH_CORES;
use bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sim_base::config::CmpConfig;
use sim_base::json::Json;
use sim_base::shard::available_workers;
use sim_cmp::{CoreSchedStats, SkipStats, SyncProtocol, SyncStats, SystemReport};
use workloads::common::Workload;
use workloads::synthetic;

/// Worker counts measured per matrix entry (1 = the serial engine).
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The old-vs-new protocol comparison point: both protocols at this
/// worker count, on every matrix entry.
const COMPARE_WORKERS: usize = 4;

/// Host-independent floor on the contended-CSW crossings drop.
const CROSSINGS_DROP_FLOOR: f64 = 10.0;

/// One timed end-to-end run at a given worker count and protocol.
struct Run {
    wall_s: f64,
    cycles: u64,
    ticks_per_s: f64,
    report: SystemReport,
    skip: SkipStats,
    sched: CoreSchedStats,
    sync: SyncStats,
}

fn measure(w: &Workload, workers: usize, proto: SyncProtocol) -> Run {
    let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(w.progs.len()));
    sys.set_sync_protocol(proto);
    let start = Instant::now();
    let cycles = if workers == 1 {
        sys.run(20_000_000_000).expect("workload completes")
    } else {
        sys.run_with_workers(20_000_000_000, workers)
            .expect("workload completes")
    };
    let wall_s = start.elapsed().as_secs_f64();
    Run {
        wall_s,
        cycles,
        ticks_per_s: cycles as f64 / wall_s.max(1e-9),
        report: sys.report(),
        skip: sys.skip_stats(),
        sched: sys.core_sched_stats(),
        sync: sys.sync_stats(),
    }
}

/// Min-of-`reps` measurement (host noise only ever adds wall-clock).
/// Synchronization statistics are deterministic across reps (modulo
/// wakeups), so taking them from the fastest rep loses nothing.
fn best_of(w: &Workload, workers: usize, proto: SyncProtocol, reps: usize) -> Run {
    let mut best = measure(w, workers, proto);
    for _ in 1..reps {
        let r = measure(w, workers, proto);
        if r.wall_s < best.wall_s {
            best = r;
        }
    }
    best
}

/// Asserts `r`'s scheduler counters account for every core-cycle its
/// report charges, each exactly once.
fn assert_accounted(name: &str, tag: &str, r: &Run) {
    assert_eq!(
        r.sched.core_cycles(),
        r.report.total_time.total(),
        "{name}@{tag}: core steps + parked steps != charged core-cycles"
    );
}

/// Asserts the parallel run `r` is bit-identical to the serial run and
/// accounts for its core-cycles.
fn assert_identical(name: &str, tag: &str, serial: &Run, r: &Run) {
    assert_eq!(serial.cycles, r.cycles, "{name}@{tag}: cycle count");
    assert_eq!(serial.report, r.report, "{name}@{tag}: report");
    assert_accounted(name, tag, r);
}

/// One JSON point: protocol, workers, wall-clock, and sync-cost shape.
fn point(protocol: &str, workers: usize, speedup: f64, r: &Run) -> Json {
    Json::obj([
        ("protocol", Json::from(protocol)),
        ("workers", Json::from(workers as u64)),
        ("wall_s", Json::from(r.wall_s)),
        ("ticks_per_s", Json::from(r.ticks_per_s)),
        ("speedup", Json::from(speedup)),
        (
            "crossings_per_kcycle",
            Json::from(r.sync.crossings_per_kilocycle()),
        ),
        ("epochs", Json::from(r.sync.epochs)),
        ("mean_epoch_len", Json::from(r.sync.mean_epoch_len())),
        (
            "shard_epochs_skipped",
            Json::from(r.sync.shard_epochs_skipped),
        ),
    ])
}

fn bench(c: &mut Criterion) {
    // `cargo bench -- --test` (the CI smoke pass) runs scaled-down
    // workloads; a real `cargo bench` uses the full sizes and — on a
    // host with enough cores — enforces the wall-clock speedup floor.
    // The crossings-drop floor is enforced in both modes: it counts
    // simulated-protocol events, so workload scale and host core count
    // don't excuse it.
    let test_mode = std::env::args().any(|a| a == "--test");
    let (iters, work, stagger, reps) = if test_mode {
        (1, 300, 200, 1)
    } else {
        (4, 2000, 1000, 3)
    };
    let matrix = synthetic::compute_matrix(BENCH_CORES, iters, work, stagger);

    let mut entries = Vec::new();
    let mut headline_speedup = 0.0; // contended CSW, epoch @ 4 workers
    let mut headline_drop = 0.0; // contended CSW crossings drop @ 4 workers
    for (name, w) in &matrix {
        best_of(w, 1, SyncProtocol::Epoch, 1); // warm-up
        let serial = best_of(w, 1, SyncProtocol::Epoch, reps);
        eprintln!(
            "[parallel_engine] {name}: {} cycles; serial {:>9.2} ms ({:.2e} ticks/s)",
            serial.cycles,
            serial.wall_s * 1e3,
            serial.ticks_per_s
        );
        assert_accounted(name, "serial", &serial);
        let mut points = vec![point("serial", 1, 1.0, &serial)];
        let mut epoch_at_compare: Option<Run> = None;
        let mut diagnostics: Option<(SkipStats, CoreSchedStats)> = None;
        for &workers in &WORKER_COUNTS[1..] {
            let r = best_of(w, workers, SyncProtocol::Epoch, reps);
            assert_identical(name, &format!("{workers}w epoch"), &serial, &r);
            assert_eq!(
                *diagnostics.get_or_insert((r.skip, r.sched)),
                (r.skip, r.sched),
                "{name}@{workers}w epoch: scheduler diagnostics depend on the worker count"
            );
            let speedup = serial.wall_s / r.wall_s.max(1e-9);
            eprintln!(
                "[parallel_engine]   epoch     {workers}w: {:>9.2} ms ({speedup:.2}x), \
                 {:.1} crossings/kcycle, mean epoch {:.1} cycles",
                r.wall_s * 1e3,
                r.sync.crossings_per_kilocycle(),
                r.sync.mean_epoch_len()
            );
            if *name == "contended CSW" && workers == COMPARE_WORKERS {
                headline_speedup = speedup;
            }
            points.push(point("epoch", workers, speedup, &r));
            if workers == COMPARE_WORKERS {
                epoch_at_compare = Some(r);
            }
        }

        // The old protocol at the comparison point: still bit-identical,
        // and the denominator of the crossings-drop gate.
        let pc = best_of(w, COMPARE_WORKERS, SyncProtocol::PerCycle, reps);
        assert_identical(name, "4w per-cycle", &serial, &pc);
        let pc_speedup = serial.wall_s / pc.wall_s.max(1e-9);
        let epoch = epoch_at_compare.expect("compare point measured");
        let drop = pc.sync.crossings_per_kilocycle()
            / epoch.sync.crossings_per_kilocycle().max(f64::MIN_POSITIVE);
        eprintln!(
            "[parallel_engine]   per-cycle {COMPARE_WORKERS}w: {:>9.2} ms ({pc_speedup:.2}x), \
             {:.1} crossings/kcycle — epoch drops crossings {drop:.1}x",
            pc.wall_s * 1e3,
            pc.sync.crossings_per_kilocycle()
        );
        if *name == "contended CSW" {
            headline_drop = drop;
        }
        points.push(point("per-cycle", COMPARE_WORKERS, pc_speedup, &pc));

        entries.push(Json::obj([
            ("name", Json::from(*name)),
            ("cycles", Json::from(serial.cycles)),
            ("crossings_drop_at_4", Json::from(drop)),
            ("points", Json::arr(points)),
        ]));
    }

    // The wall-clock floor only means something on a host that can
    // actually run 4 workers in parallel; on smaller hosts the
    // bit-identity checks above still ran, and the JSON records that
    // the floor did not. The crossings floor is host-independent and
    // always enforced.
    let enforce_floor = !test_mode && available_workers() >= 4;
    let json = Json::obj([
        ("benchmark", Json::from("synthetic compute matrix")),
        ("cores", Json::from(BENCH_CORES as u64)),
        (
            "host",
            bench::sweep::host_json(*WORKER_COUNTS.last().unwrap()),
        ),
        ("iters", Json::from(iters)),
        ("work", Json::from(work as u64)),
        ("stagger", Json::from(stagger as u64)),
        ("workloads", Json::arr(entries)),
        ("contended_csw_speedup_at_4", Json::from(headline_speedup)),
        ("speedup_floor", Json::from(1.7)),
        ("speedup_floor_enforced", Json::from(enforce_floor)),
        (
            "contended_csw_crossings_drop_at_4",
            Json::from(headline_drop),
        ),
        ("crossings_floor", Json::from(CROSSINGS_DROP_FLOOR)),
        ("crossings_floor_enforced", Json::from(true)),
    ]);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_engine.json"
    );
    std::fs::write(path, json.pretty()).expect("write BENCH_parallel_engine.json");
    eprintln!("[parallel_engine] wrote {path}");
    assert!(
        headline_drop >= CROSSINGS_DROP_FLOOR,
        "the epoch protocol must cut barrier crossings per kilocycle by >= \
         {CROSSINGS_DROP_FLOOR}x on contended CSW at {COMPARE_WORKERS} workers, \
         got {headline_drop:.2}x"
    );
    if enforce_floor {
        assert!(
            headline_speedup >= 1.7,
            "the epoch engine must buy >= 1.7x wall-clock at 4 workers on the \
             contended CSW workload, got {headline_speedup:.2}x"
        );
    }

    // Harness samples for trend tracking alongside the other benches.
    let contended = &matrix
        .iter()
        .find(|(n, _)| *n == "contended CSW")
        .expect("matrix has contended CSW")
        .1;
    let mut g = c.benchmark_group("parallel_engine");
    g.sample_size(10);
    for (tag, workers, proto) in [
        ("1w", 1usize, SyncProtocol::Epoch),
        ("4w-epoch", 4, SyncProtocol::Epoch),
        ("4w-per-cycle", 4, SyncProtocol::PerCycle),
    ] {
        g.bench_with_input(
            BenchmarkId::new("contended_csw", tag),
            &(workers, proto),
            |b, &(workers, proto)| b.iter(|| measure(contended, workers, proto).cycles),
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

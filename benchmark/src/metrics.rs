//! The metric registry: every name the benchmark prints, with its unit,
//! direction, regression bound (end-to-end) or layer and predicted
//! effect (per-layer). `BENCHMARK.json` is generated from this table
//! (`glbench manifest`) and a test holds the two together.

use sim_base::json::Json;

use crate::stats::Better::{self, Higher, Lower};
use crate::workload;

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen; `None` for a
    /// metric that repeats exactly and is compared exactly.
    pub bound: Option<f64>,
}

/// The end-to-end metrics, per workload. The issue that defined the
/// benchmark asked for bounds of 10 / 10 / 15 / 5 %; the benchmark
/// contract asks for a spread between runs of the same code below a
/// third of the bound, and ten runs at one seed on the shared reference
/// host spread (interquartile, as a share of the median) up to 7.1 % in
/// `wall_s` and 8.4 % in `setup_s` — on `scale_sweep`, whose 465 MB make
/// it feel the host's neighbours most — so the timing bounds are 20 / 20
/// / 25 %. The runs are in `spread/`; `README.md` has the table.
///
/// The last two metrics are exact and may be zero or absent
/// (`paper_err` exists only where EXPERIMENTS.md holds the paper's
/// number), so they are printed and stored in result files but are not
/// among the bounded metrics of `BENCHMARK.json`: `failed_ops` reaches
/// the driver as `failed`/`attempted`, `paper_err` beside the per-layer
/// metrics (see [`driver_per_layer`]).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: Some(0.20),
    },
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "1/s",
        better: Higher,
        bound: Some(0.20),
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: Some(0.25),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: Some(0.05),
    },
    EndToEnd {
        name: "failed_ops",
        unit: "ratio",
        better: Lower,
        bound: None,
    },
    EndToEnd {
        name: "paper_err",
        unit: "ratio",
        better: Lower,
        bound: None,
    },
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A metric of one layer (layer = crate).
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction that usually accompanies an end-to-end improvement; it
    /// carries no bound.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, in printing order. `*.probe.*` are host-time
/// medians of a layer's public functions timed in isolation (and, for
/// `remote_l2_hit_msgs`, the exact count of NoC messages behind one);
/// `*.share_est` and `sim_cmp.share_residual` are a model (in-run count
/// × isolated unit cost ÷ `wall_s`), not a measurement.
pub const PER_LAYER: [PerLayer; 70] = [
    // sim-cmp → wall_s on wait_skip (scheduler, ns/tick) and on every
    // workload (ns/core step); construct_s → setup_s on scale_sweep.
    m("sim_cmp.run_s", "s", Lower),
    m("sim_cmp.construct_s", "s", Lower),
    m("sim_cmp.report_s", "s", Lower),
    m("sim_cmp.sim_cycles", "count", Lower),
    m("sim_cmp.ticks", "count", Lower),
    m("sim_cmp.cycles_skipped", "count", Higher),
    m("sim_cmp.skip_ratio", "ratio", Higher),
    m("sim_cmp.skip_attempts", "count", Lower),
    m("sim_cmp.skip_success_ratio", "ratio", Higher),
    m("sim_cmp.skip_backed_off", "count", Lower),
    m("sim_cmp.core_steps", "count", Lower),
    m("sim_cmp.parked_steps", "count", Higher),
    m("sim_cmp.spin_parked_steps", "count", Higher),
    m("sim_cmp.mean_active_cores", "count", Lower),
    m("sim_cmp.instructions", "count", Lower),
    m("sim_cmp.host_ns_per_tick", "ns", Lower),
    m("sim_cmp.host_ns_per_core_step", "ns", Lower),
    m("sim_cmp.stats_fingerprint", "hash", Lower),
    m("sim_cmp.share_residual", "ratio", Lower),
    // sim-mem → wall_s on paper_eval (miss path), barrier_sweep
    // (invalidation storm, AMO ping-pong), scale_sweep (1024-core storm);
    // predicted no move on wait_skip.
    m("sim_mem.l1_hits", "count", Lower),
    m("sim_mem.l1_misses", "count", Lower),
    m("sim_mem.l1_miss_ratio", "ratio", Lower),
    m("sim_mem.l2_hits", "count", Lower),
    m("sim_mem.l2_misses", "count", Lower),
    m("sim_mem.home_visits", "count", Lower),
    m("sim_mem.delivery_visits", "count", Lower),
    m("sim_mem.mean_busy_homes", "count", Lower),
    m("sim_mem.host_ns_per_l1_miss", "ns", Lower),
    m("sim_mem.probe.l1_hit_ns", "ns", Lower),
    m("sim_mem.probe.remote_l2_hit_ns", "ns", Lower),
    m("sim_mem.probe.remote_l2_hit_msgs", "count", Lower),
    m("sim_mem.probe.amo_pingpong_ns", "ns", Lower),
    m("sim_mem.probe.inval_storm_32_ns", "ns", Lower),
    m("sim_mem.probe.inval_storm_1024_ns", "ns", Lower),
    m("sim_mem.probe.idle_tick_ns", "ns", Lower),
    m("sim_mem.share_est", "ratio", Lower),
    // sim-noc → wall_s on paper_eval (4x8 drain) and scale_sweep (32x32
    // drain, idle tick); predicted no move on wait_skip.
    m("sim_noc.msgs_request", "count", Lower),
    m("sim_noc.msgs_reply", "count", Lower),
    m("sim_noc.msgs_coherence", "count", Lower),
    m("sim_noc.flit_hops", "count", Lower),
    m("sim_noc.router_visits", "count", Lower),
    m("sim_noc.inject_visits", "count", Lower),
    m("sim_noc.mean_active_routers", "count", Lower),
    m("sim_noc.host_ns_per_msg", "ns", Lower),
    m("sim_noc.probe.drain_ns_per_msg_4x8", "ns", Lower),
    m("sim_noc.probe.drain_ns_per_msg_32x32", "ns", Lower),
    m("sim_noc.probe.idle_tick_ns_4x8", "ns", Lower),
    m("sim_noc.probe.idle_tick_ns_32x32", "ns", Lower),
    m("sim_noc.share_est", "ratio", Lower),
    // gline-core → wall_s on wait_skip and the GL half of scale_sweep;
    // mean_latency_cycles → paper_err on barrier_sweep.
    m("gline_core.barriers", "count", Lower),
    m("gline_core.signals", "count", Lower),
    m("gline_core.mean_latency_cycles", "cycles", Lower),
    m("gline_core.probe.flat_episode_ns", "ns", Lower),
    m("gline_core.probe.clustered_episode_ns", "ns", Lower),
    m("gline_core.probe.idle_tick_ns", "ns", Lower),
    m("gline_core.share_est", "ratio", Lower),
    // sim-isa → setup_s only.
    m("sim_isa.probe.interp_ns_per_instr", "ns", Lower),
    m("sim_isa.probe.assemble_ns_per_line", "ns", Lower),
    // workloads → setup_s on paper_eval (Kernel 6 generation) and
    // scale_sweep (1024 programs).
    m("workloads.build_s", "s", Lower),
    m("workloads.static_instrs", "count", Lower),
    // sim-trace (trace_replay only; zero elsewhere) → wall_s on
    // trace_replay, nothing else.
    m("sim_trace.record_s", "s", Lower),
    m("sim_trace.write_s", "s", Lower),
    m("sim_trace.read_s", "s", Lower),
    m("sim_trace.bytes", "bytes", Lower),
    m("sim_trace.encode_mb_per_s", "MB/s", Higher),
    m("sim_trace.decode_mb_per_s", "MB/s", Higher),
    m("sim_trace.replay_s", "s", Lower),
    m("sim_trace.replay_over_exec", "ratio", Lower),
    // Harness.
    m("bench.passes", "count", Higher),
    m("bench.trace_overhead_pct", "%", Lower),
];

/// The per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Unit of any registered metric.
pub fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
        .unwrap_or("")
}

/// True when `name` starts with a letter or digit and holds only
/// letters, digits, `_`, `.` and `-`, at most 64 of them.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Host seconds a run keeps starting passes for, unless `--seconds` says
/// otherwise.
pub const RUN_SECONDS: u64 = 15;

/// What a traced run reports to the benchmark driver, as (name, unit,
/// direction): every per-layer metric, then `paper_err` — end-to-end
/// here, but `BENCHMARK.json` admits no end-to-end metric that can be
/// absent, so the driver gets it with the per-layer ones.
pub fn driver_per_layer() -> impl Iterator<Item = (&'static str, &'static str, Better)> {
    let paper_err = end_to_end("paper_err").expect("paper_err is registered");
    PER_LAYER
        .iter()
        .map(|p| (p.name, p.unit, p.better))
        .chain([(paper_err.name, paper_err.unit, paper_err.better)])
}

/// The contents of the root `BENCHMARK.json`.
pub fn manifest() -> Json {
    let workloads = workload::ALL
        .iter()
        .map(|d| Json::obj([("name", Json::from(d.name)), ("why", Json::from(d.why))]));
    let end_to_end = END_TO_END.iter().filter_map(|e| {
        let bound = e.bound?;
        Some(Json::obj([
            ("name", Json::from(e.name)),
            ("unit", Json::from(e.unit)),
            ("better", Json::from(e.better.label())),
            ("bound", Json::from(bound)),
        ]))
    });
    let per_layer = driver_per_layer().map(|(name, unit, better)| {
        Json::obj([
            ("name", Json::from(name)),
            ("unit", Json::from(unit)),
            ("better", Json::from(better.label())),
        ])
    });
    Json::obj([
        (
            "command",
            Json::arr([
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", Json::arr(["benchmark"])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        ("workloads", Json::arr(workloads)),
        ("end_to_end", Json::arr(end_to_end)),
        ("per_layer", Json::arr(per_layer)),
    ])
}

//! Runs one workload for a fixed host time: passes over its simulations,
//! set-up samples between them and, when asked, a traced pass after each
//! untraced one; checks every simulation's output and turns the timings
//! and counters into metrics.
//!
//! The generator is closed and single-threaded: one simulation at a
//! time, the next one built only after the previous one reported.
//! Modelled caches start cold in every simulation and statistics are
//! collected from cycle 0.
//!
//! **The timing estimator.** The reference host is shared and its noise
//! only ever adds time: at its worst everything runs 1.4–1.6× slower for
//! seconds at a time, about half of the time, and a median of whole-pass
//! times lands on either side from run to run. What repeats is each
//! simulation's *fastest* sample. Every pass timing reported —
//! `wall_s`, `setup_s`, the per-layer `*_s` — is therefore the sum over
//! the simulations of the minimum over the passes (`stats::fastest`),
//! kept with the same estimate over each interleaved half of the passes,
//! which is what its spread is judged by. The first pass is also the
//! reference for the output checks; a cold first pass can only read
//! slower, which this estimator ignores.

use std::hash::Hasher;
use std::path::{Path, PathBuf};

use sim_base::json::Json;

use crate::clock;
use crate::probe::ProbeCosts;
use crate::result::{Metrics, WorkloadResult};
use crate::span::Tracer;
use crate::stats::{self, Summary};
use crate::sut::{self, Kind, Report, ReportCounts, Sched, SimSpec, Traces};
use crate::workload::{Def, Mode};

/// Least set-up samples per workload, independent of the pass count:
/// set-up costs milliseconds, so it needs more samples than passes give.
const SETUP_SAMPLES: usize = 15;

/// Set-up samples taken after each pass, so that they spread over the
/// run instead of sharing one stretch of host noise.
const SETUP_SAMPLES_PER_PASS: usize = 3;

/// How to run a workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Reduced sizes, one pass: correctness checks only.
    pub smoke: bool,
    /// Start passes until this many host seconds are up.
    pub seconds: f64,
    /// Follow each untraced pass with a traced one, and report the
    /// per-layer metrics.
    pub trace: bool,
}

/// One simulation of a pass, as the output checks see it.
struct Op {
    name: String,
    report: Option<Report>,
    failure: Option<String>,
}

/// Per-simulation detail row.
struct Row {
    spec: SimSpec,
    barriers_per_core: u64,
    static_instrs: u64,
    /// Σ `run` + `report` (record + write + read + replays for a
    /// record/replay workload).
    wall_s: f64,
    /// Σ generation + validation + construction + pokes.
    setup_s: f64,
    /// Host seconds per layer call, summed by call name.
    calls: Vec<(&'static str, f64)>,
    counts: ReportCounts,
    sched: Sched,
    /// Upper bound on the L1 hits the host actually executed: hits
    /// replayed in closed form by the spin and skip schedulers cost no
    /// host time, and a stepped core issues at most one access.
    stepped_hits: u64,
}

impl Row {
    /// Times `f` as a span called `name` and charges it to this row.
    fn call<T>(&mut self, tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, s) = tr.span(name, f);
        self.charge(name, s);
        (out, s)
    }

    fn charge(&mut self, name: &'static str, s: f64) {
        match self.calls.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += s,
            None => self.calls.push((name, s)),
        }
    }

    /// Runs the machine's report, checks it and charges time and counters
    /// to this row.
    fn finish(&mut self, tr: &mut Tracer, m: &sut::Machine, op: &mut Op) {
        let (report, report_s) = self.call(tr, "sim_cmp.report", || m.report());
        self.wall_s += report_s;
        self.counts += report.counts();
        if tr.enabled() {
            let sched = m.sched();
            self.stepped_hits += report.counts().l1_hits.min(sched.core_steps);
            self.sched += sched;
        }
        if self.spec.kind == Kind::Gl && report.gl_barriers() != self.barriers_per_core {
            op.failure.get_or_insert(format!(
                "gl_barriers: {} completed in hardware vs {} executed per core",
                report.gl_barriers(),
                self.barriers_per_core
            ));
        }
        op.report = Some(report);
    }
}

struct Pass {
    /// Simulated cycles behind the rows' `wall_s`.
    cycles: u64,
    ops: Vec<Op>,
    rows: Vec<Row>,
    /// Trace sets read back, kept so set-up samples can construct replay
    /// machines.
    sets: Vec<Traces>,
    /// Encoded size of the recorded trace sets (traced passes only).
    trace_bytes: u64,
}

fn halted(ran: Result<u64, String>, op: &mut Op) -> u64 {
    match ran {
        Ok(cycles) => cycles,
        Err(e) => {
            op.failure.get_or_insert(format!("did not halt: {e}"));
            0
        }
    }
}

/// Runs every simulation of the workload once.
fn run_pass(def: &Def, specs: &[SimSpec], tr: &mut Tracer, tmp: &Path) -> Pass {
    let mut pass = Pass {
        cycles: 0,
        ops: Vec::new(),
        rows: Vec::new(),
        sets: Vec::new(),
        trace_bytes: 0,
    };
    let root = tr.enter("workload", None);
    for (i, spec) in specs.iter().enumerate() {
        let sim = tr.enter(&format!("sim:{}", spec.name), Some(i));
        let (built, build_s) = tr.span("workloads.build", || sut::build(spec));
        let mut row = Row {
            spec: spec.clone(),
            barriers_per_core: built.barriers_per_core(),
            static_instrs: built.static_instrs(),
            wall_s: 0.0,
            setup_s: build_s,
            calls: vec![("workloads.build", build_s)],
            counts: ReportCounts::default(),
            sched: Sched::default(),
            stepped_hits: 0,
        };
        let mut op = Op {
            name: spec.name.clone(),
            report: None,
            failure: None,
        };
        let (machine, construct_s) = row.call(tr, "sim_cmp.construct", || {
            sut::construct(&built, spec.cores)
        });
        row.setup_s += construct_s;
        match (machine, def.mode) {
            (Err(e), _) => {
                op.failure = Some(format!("construction failed: {e}"));
                pass.ops.push(op);
            }
            (Ok(mut machine), Mode::Exec) => {
                let (ran, run_s) = row.call(tr, "sim_cmp.run", || machine.run());
                row.wall_s += run_s;
                pass.cycles += halted(ran, &mut op);
                row.finish(tr, &machine, &mut op);
                pass.ops.push(op);
            }
            (Ok(mut machine), Mode::RecordReplay { replays }) => {
                let (recorded, record_s) =
                    row.call(tr, "sim_trace.record", || machine.run_recorded(&built));
                row.wall_s += record_s;
                let (cycles, set) = match recorded {
                    Ok((c, set)) => (Ok(c), Some(set)),
                    Err(e) => (Err(e), None),
                };
                pass.cycles += halted(cycles, &mut op);
                row.finish(tr, &machine, &mut op);
                let recording = op.report.clone();
                let read = set.as_ref().and_then(|set| {
                    let dir = tmp.join(format!("sim{i}"));
                    let (wrote, write_s) =
                        row.call(tr, "sim_trace.write_dir", || sut::write_traces(&dir, set));
                    let (read, read_s) =
                        row.call(tr, "sim_trace.read_dir", || sut::read_traces(&dir));
                    row.wall_s += write_s + read_s;
                    // Best effort: the whole scratch tree goes at exit.
                    let _ = std::fs::remove_dir_all(&dir);
                    match wrote.and(read) {
                        Ok(read) if read == *set => Some(read),
                        Ok(_) => {
                            op.failure.get_or_insert(
                                "trace set changed across write_dir/read_dir".into(),
                            );
                            None
                        }
                        Err(e) => {
                            op.failure.get_or_insert(format!("trace I/O failed: {e}"));
                            None
                        }
                    }
                });
                if let (true, Some(set)) = (tr.enabled(), &set) {
                    // Codec throughput and the exec-mode reference time
                    // are per-layer detail: extra work outside wall_s,
                    // and the reference run's counters are not counted.
                    let (blobs, _) =
                        row.call(tr, "sim_trace.encode_core", || sut::encode_traces(set));
                    let (same, _) = row.call(tr, "sim_trace.decode_core", || {
                        sut::decode_traces(&blobs, set)
                    });
                    if same != Ok(true) {
                        op.failure.get_or_insert(
                            "trace set changed across encode_core/decode_core".into(),
                        );
                    }
                    pass.trace_bytes += blobs.iter().map(|b| b.len() as u64).sum::<u64>();
                    if let Ok(mut exec) = sut::construct(&built, spec.cores) {
                        let (ran, _) = row.call(tr, "sim_cmp.run", || exec.run());
                        let diff = recording
                            .as_ref()
                            .and_then(|r| r.first_difference(&exec.report()));
                        if let (Ok(_), Some(d)) = (ran, diff) {
                            op.failure
                                .get_or_insert(format!("recording differs from exec run in {d}"));
                        }
                    }
                }
                pass.ops.push(op);
                for r in 0..replays {
                    let mut op = Op {
                        name: format!("{}.replay{r}", spec.name),
                        report: None,
                        failure: None,
                    };
                    let Some(set) = &read else {
                        op.failure = Some("no trace set to replay".into());
                        pass.ops.push(op);
                        continue;
                    };
                    let (replayer, construct_s) = row.call(tr, "sim_cmp.construct", || {
                        sut::construct_replay(set, spec.cores)
                    });
                    row.setup_s += construct_s;
                    match replayer {
                        Ok(mut m) => {
                            let (ran, replay_s) = row.call(tr, "sim_trace.replay", || m.run());
                            row.wall_s += replay_s;
                            pass.cycles += halted(ran, &mut op);
                            row.finish(tr, &m, &mut op);
                            let diff = recording
                                .as_ref()
                                .zip(op.report.as_ref())
                                .and_then(|(rec, rep)| rec.first_difference(rep));
                            if let Some(d) = diff {
                                op.failure.get_or_insert(format!(
                                    "replay differs from its recording in {d}"
                                ));
                            }
                        }
                        Err(e) => op.failure = Some(format!("construction failed: {e}")),
                    }
                    pass.ops.push(op);
                }
                pass.sets.extend(read);
            }
        }
        pass.rows.push(row);
        tr.exit(sim);
    }
    tr.exit(root);
    if def.ordered {
        check_barrier_order(&pass.rows, &mut pass.ops);
    }
    pass
}

/// Figure 5's ordering, GL < DSW < CSW cycles per barrier, among the
/// simulations that share a core count (two cores and up). A violation
/// fails the cheaper-by-rights simulation of the pair. Exec workloads
/// only: there a row is one op.
fn check_barrier_order(rows: &[Row], ops: &mut [Op]) {
    let per_barrier = |r: &Row| r.counts.cycles as f64 / r.barriers_per_core.max(1) as f64;
    for (i, lo) in rows.iter().enumerate() {
        let hi_kind = match lo.spec.kind {
            Kind::Gl => Kind::Dsw,
            Kind::Dsw => Kind::Csw,
            Kind::Csw => continue,
        };
        let hi = rows
            .iter()
            .find(|r| r.spec.cores == lo.spec.cores && r.spec.kind == hi_kind);
        if let (true, Some(hi)) = (lo.spec.cores >= 2, hi) {
            if per_barrier(lo) >= per_barrier(hi) {
                ops[i].failure.get_or_insert(format!(
                    "cycles/barrier: {} {:.1} is not below {} {:.1}",
                    lo.spec.kind.label(),
                    per_barrier(lo),
                    hi.spec.kind.label(),
                    per_barrier(hi)
                ));
            }
        }
    }
}

/// One set-up sample: generate every input, validate every
/// configuration, construct (and poke) every machine of a pass — replay
/// machines included where `sets` holds recordings — and run nothing.
/// Returns the host seconds per simulation.
fn setup_sample(def: &Def, specs: &[SimSpec], sets: &[Traces]) -> Vec<f64> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let (built, build_s) = clock::time_s(|| sut::build(spec));
            let (machine, construct_s) = clock::time_s(|| sut::construct(&built, spec.cores));
            drop(machine);
            let mut total = build_s + construct_s;
            if let (Mode::RecordReplay { replays }, Some(set)) = (def.mode, sets.get(i)) {
                for _ in 0..replays {
                    let (machine, s) = clock::time_s(|| sut::construct_replay(set, spec.cores));
                    drop(machine);
                    total += s;
                }
            }
            total
        })
        .collect()
}

/// Per-simulation host times of every sample taken so far.
#[derive(Default)]
struct Samples {
    /// Per pass.
    wall: Vec<Vec<f64>>,
    /// Per pass and per set-up sample.
    setup: Vec<Vec<f64>>,
    /// Each simulation's layer calls, with the fastest time of each.
    calls: Vec<Vec<(&'static str, f64)>>,
}

impl Samples {
    fn merge_pass(&mut self, rows: &[Row]) {
        self.wall.push(rows.iter().map(|r| r.wall_s).collect());
        self.setup.push(rows.iter().map(|r| r.setup_s).collect());
        if self.calls.is_empty() {
            self.calls = rows.iter().map(|r| r.calls.clone()).collect();
        } else {
            for (best, row) in self.calls.iter_mut().zip(rows) {
                for ((name, b), (row_name, s)) in best.iter_mut().zip(&row.calls) {
                    assert_eq!(name, row_name, "every pass makes the same calls");
                    *b = b.min(*s);
                }
            }
        }
    }

    /// Σ over the simulations of the fastest sample of the call `name`.
    fn call_s(&self, name: &str) -> f64 {
        self.calls
            .iter()
            .flatten()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }
}

/// The paper's Fig. 6 GL totals (GL cycles ÷ DSW cycles) as transcribed
/// in EXPERIMENTS.md, and its Fig. 5 GL latency at 32 cores.
const PAPER_FIG6_GL: [(&str, f64); 6] = [
    ("kernel2", 0.30),
    ("kernel3", 0.12),
    ("kernel6", 0.53),
    ("unstructured", 0.97),
    ("ocean", 0.95),
    ("em3d", 0.46),
];
const PAPER_FIG5_GL_CYCLES: f64 = 13.0;

/// Distance from the paper's numbers, where EXPERIMENTS.md holds them;
/// `None` elsewhere — those workloads are unvalidated.
fn paper_err(def: &Def, rows: &[Row]) -> Option<f64> {
    let cycles = |name: &str| {
        rows.iter()
            .find(|r| r.spec.name == name)
            .map(|r| r.counts.cycles as f64)
    };
    match def.name {
        "paper_eval" => {
            let mut errs = Vec::new();
            for (bench, paper) in PAPER_FIG6_GL {
                let gl = cycles(&format!("{bench}.GL"))?;
                let dsw = cycles(&format!("{bench}.DSW"))?;
                errs.push((gl / dsw - paper).abs());
            }
            Some(errs.iter().sum::<f64>() / errs.len() as f64)
        }
        "barrier_sweep" => {
            let row = rows.iter().find(|r| r.spec.name == "n32.GL")?;
            let per_barrier = row.counts.cycles as f64 / row.barriers_per_core.max(1) as f64;
            Some((per_barrier - PAPER_FIG5_GL_CYCLES).abs() / PAPER_FIG5_GL_CYCLES)
        }
        _ => None,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of the traced passes: counters summed over one
/// pass (they repeat exactly) and per-call host times.
fn per_layer_metrics(pass: &Pass, best: &Samples, def: &Def) -> Vec<(&'static str, f64)> {
    let mut c = ReportCounts::default();
    let mut s = Sched::default();
    for row in &pass.rows {
        c += row.counts;
        s += row.sched;
    }
    let t = |name: &str| best.call_s(name);
    let (run_s, record_s, replay_s) = (
        t("sim_cmp.run"),
        t("sim_trace.record"),
        t("sim_trace.replay"),
    );
    // Host time inside the engine for the simulations the counters
    // cover. A record/replay workload's `sim_cmp.run` calls are the
    // exec-mode reference runs, which the counters leave out.
    let engine_ns = match def.mode {
        Mode::Exec => run_s,
        Mode::RecordReplay { .. } => record_s + replay_s,
    } * 1e9;
    let msgs = c.msgs_request + c.msgs_reply + c.msgs_coherence;
    let mut fp = sut::fingerprint_hasher();
    for op in &pass.ops {
        if let Some(r) = &op.report {
            r.hash_into(&mut fp);
        }
    }
    let mut out = vec![
        ("sim_cmp.run_s", run_s),
        ("sim_cmp.construct_s", t("sim_cmp.construct")),
        ("sim_cmp.report_s", t("sim_cmp.report")),
        ("sim_cmp.sim_cycles", c.cycles as f64),
        ("sim_cmp.ticks", s.ticks as f64),
        ("sim_cmp.cycles_skipped", s.cycles_skipped as f64),
        (
            "sim_cmp.skip_ratio",
            ratio(s.cycles_skipped as f64, c.cycles as f64),
        ),
        ("sim_cmp.skip_attempts", s.skip_attempts as f64),
        (
            "sim_cmp.skip_success_ratio",
            ratio(s.skips as f64, s.skip_attempts as f64),
        ),
        ("sim_cmp.skip_backed_off", s.skip_backed_off as f64),
        ("sim_cmp.core_steps", s.core_steps as f64),
        ("sim_cmp.parked_steps", s.parked_steps as f64),
        ("sim_cmp.spin_parked_steps", s.spin_parked_steps as f64),
        (
            "sim_cmp.mean_active_cores",
            ratio(s.core_steps as f64, s.ticks as f64),
        ),
        ("sim_cmp.instructions", c.instructions as f64),
        ("sim_cmp.host_ns_per_tick", ratio(engine_ns, s.ticks as f64)),
        (
            "sim_cmp.host_ns_per_core_step",
            ratio(engine_ns, s.core_steps as f64),
        ),
        // 48 bits, so the value survives a trip through a JSON double.
        (
            "sim_cmp.stats_fingerprint",
            (fp.finish() & ((1 << 48) - 1)) as f64,
        ),
        ("sim_mem.l1_hits", c.l1_hits as f64),
        ("sim_mem.l1_misses", c.l1_misses as f64),
        (
            "sim_mem.l1_miss_ratio",
            ratio(c.l1_misses as f64, (c.l1_hits + c.l1_misses) as f64),
        ),
        ("sim_mem.l2_hits", c.l2_hits as f64),
        ("sim_mem.l2_misses", c.l2_misses as f64),
        ("sim_mem.home_visits", s.home_visits as f64),
        ("sim_mem.delivery_visits", s.delivery_visits as f64),
        (
            "sim_mem.mean_busy_homes",
            ratio(s.home_visits as f64, s.mem_ticks as f64),
        ),
        (
            "sim_mem.host_ns_per_l1_miss",
            ratio(engine_ns, c.l1_misses as f64),
        ),
        ("sim_noc.msgs_request", c.msgs_request as f64),
        ("sim_noc.msgs_reply", c.msgs_reply as f64),
        ("sim_noc.msgs_coherence", c.msgs_coherence as f64),
        ("sim_noc.flit_hops", c.flit_hops as f64),
        ("sim_noc.router_visits", s.router_visits as f64),
        ("sim_noc.inject_visits", s.inject_visits as f64),
        (
            "sim_noc.mean_active_routers",
            ratio(s.router_visits as f64, s.noc_ticks as f64),
        ),
        ("sim_noc.host_ns_per_msg", ratio(engine_ns, msgs as f64)),
        ("gline_core.barriers", c.gl_barriers as f64),
        ("gline_core.signals", c.gl_signals as f64),
        (
            "gline_core.mean_latency_cycles",
            ratio(c.gl_latency_cycles, c.gl_barriers as f64),
        ),
        ("workloads.build_s", t("workloads.build")),
        (
            "workloads.static_instrs",
            pass.rows.iter().map(|r| r.static_instrs as f64).sum(),
        ),
    ];
    if let Mode::RecordReplay { replays } = def.mode {
        let mb = pass.trace_bytes as f64 / 1e6;
        out.extend([
            ("sim_trace.record_s", record_s),
            ("sim_trace.write_s", t("sim_trace.write_dir")),
            ("sim_trace.read_s", t("sim_trace.read_dir")),
            ("sim_trace.bytes", pass.trace_bytes as f64),
            (
                "sim_trace.encode_mb_per_s",
                ratio(mb, t("sim_trace.encode_core")),
            ),
            (
                "sim_trace.decode_mb_per_s",
                ratio(mb, t("sim_trace.decode_core")),
            ),
            ("sim_trace.replay_s", replay_s),
            // One replay's host time over one exec-mode run's, summed
            // over the programs: below 1, replay is the faster engine.
            (
                "sim_trace.replay_over_exec",
                ratio(replay_s / replays as f64, run_s),
            ),
        ]);
    }
    out
}

/// The attribution model: in-run count × isolated probe unit cost ÷ the
/// pass's wall time, per layer, with what is left over charged to
/// `sim-cmp`. An estimate to be superseded by an in-program profiler,
/// not a measurement — unit costs measured in isolation ignore cache
/// and branch-predictor interference between layers.
pub fn attribution(w: &WorkloadResult, costs: &ProbeCosts) -> Metrics {
    let (mut noc_ns, mut mem_ns, mut gl_ns, mut wall_s) = (0.0, 0.0, 0.0, 0.0);
    // What an L1 miss costs the memory layer itself: the probe's remote
    // L2 hit less the NoC messages it sent, which the NoC term charges.
    let miss_ns =
        (costs.remote_l2_hit_ns - costs.remote_l2_hit_msgs * costs.drain_ns_per_msg_4x8).max(0.0);
    for sim in &w.sims {
        let num = |k: &str| sim.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        // A message's cost grows with the hops it makes, and those with
        // the mesh's rows + columns: interpolate between the two meshes
        // probed (4×8 and 32×32).
        let span = mesh_span(num("cores") as usize).clamp(12.0, 64.0);
        let msg_ns = costs.drain_ns_per_msg_4x8
            + (costs.drain_ns_per_msg_32x32 - costs.drain_ns_per_msg_4x8) * (span - 12.0) / 52.0;
        noc_ns += (num("msgs_request") + num("msgs_reply") + num("msgs_coherence")) * msg_ns;
        mem_ns += num("l1_hits_stepped") * costs.l1_hit_ns + num("l1_misses") * miss_ns;
        // Clustered G-line networks (past 8×8) cost the clustered probe.
        gl_ns += num("gl_barriers")
            * if num("cores") > 64.0 {
                costs.clustered_episode_ns
            } else {
                costs.flat_episode_ns
            };
        wall_s += num("wall_s");
    }
    let share = |ns: f64| ratio(ns * 1e-9, wall_s);
    let (noc, mem, gl) = (share(noc_ns), share(mem_ns), share(gl_ns));
    [
        ("sim_noc.share_est", noc),
        ("sim_mem.share_est", mem),
        ("gline_core.share_est", gl),
        ("sim_cmp.share_residual", 1.0 - noc - mem - gl),
    ]
    .map(|(n, v)| (n.to_string(), Summary::exact(v)))
    .into()
}

/// Rows + columns of the squarest mesh of `cores` tiles — the shape
/// `CmpConfig::icpp2010_with_cores` gives a machine.
fn mesh_span(cores: usize) -> f64 {
    let rows = (1..=cores)
        .take_while(|r| r * r <= cores)
        .filter(|r| cores.is_multiple_of(*r))
        .last()
        .unwrap_or(1);
    (rows + cores / rows) as f64
}

/// Result-file row of one simulation, with its fastest timings.
fn row_json(row: &Row, wall_s: f64, setup_s: f64) -> Json {
    let (c, s) = (&row.counts, &row.sched);
    Json::obj([
        ("name", Json::from(row.spec.name.as_str())),
        ("cores", Json::from(row.spec.cores)),
        ("kind", Json::from(row.spec.kind.label())),
        ("barriers_per_core", Json::from(row.barriers_per_core)),
        ("static_instrs", Json::from(row.static_instrs)),
        ("wall_s", Json::from(wall_s)),
        ("setup_s", Json::from(setup_s)),
        ("cycles", Json::from(c.cycles)),
        ("instructions", Json::from(c.instructions)),
        ("l1_hits", Json::from(c.l1_hits)),
        ("l1_hits_stepped", Json::from(row.stepped_hits)),
        ("l1_misses", Json::from(c.l1_misses)),
        ("l2_hits", Json::from(c.l2_hits)),
        ("l2_misses", Json::from(c.l2_misses)),
        ("msgs_request", Json::from(c.msgs_request)),
        ("msgs_reply", Json::from(c.msgs_reply)),
        ("msgs_coherence", Json::from(c.msgs_coherence)),
        ("flit_hops", Json::from(c.flit_hops)),
        ("gl_barriers", Json::from(c.gl_barriers)),
        ("gl_signals", Json::from(c.gl_signals)),
        ("ticks", Json::from(s.ticks)),
        ("core_steps", Json::from(s.core_steps)),
        ("cycles_skipped", Json::from(s.cycles_skipped)),
    ])
}

/// Counts simulations and failures, printing each failure once.
struct Tally<'a> {
    def: &'a Def,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally<'_> {
    /// Checks `pass` against the reference pass's reports, then counts.
    fn account(&mut self, pass: &mut Pass, reference: &[Op], label: &str) {
        for (op, first) in pass.ops.iter_mut().zip(reference) {
            let diff = first
                .report
                .as_ref()
                .zip(op.report.as_ref())
                .and_then(|(a, b)| a.first_difference(b));
            if let (None, Some(d)) = (&op.failure, diff) {
                op.failure = Some(format!("report differs from the first pass in {d}"));
            }
        }
        for op in &pass.ops {
            self.attempted += 1;
            if let Some(f) = &op.failure {
                self.failed += 1;
                let line = format!("{}/{}: {f}", self.def.name, op.name);
                if !self.failures.contains(&line) {
                    println!("FAILED {line} ({label})");
                    self.failures.push(line);
                }
            }
        }
    }
}

/// Scratch directory for trace sets, inside the benchmark's own `out/`.
fn scratch_dir() -> PathBuf {
    crate::out_dir().join(format!("tmp-{}", std::process::id()))
}

/// Runs the workload `def` as `opts` says. Traced passes, when asked
/// for, record their spans into `tr`.
pub fn run(def: &Def, opts: &Options, tr: &mut Tracer) -> WorkloadResult {
    let specs = (def.specs)(opts.seed, opts.smoke);
    let tmp = scratch_dir();
    let mut untraced = Tracer::new(false);
    let mut tally = Tally {
        def,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    let mut reference: Vec<Op> = Vec::new();
    let mut sets: Vec<Traces> = Vec::new();
    let mut last_plain: Option<Pass> = None;
    let mut first_traced: Option<Pass> = None;

    // One pass is checked against another: two untraced passes at least,
    // unless a traced one follows each. A smoke run makes one pass.
    let (seconds, least) = match (opts.smoke, opts.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (opts.seconds, 1),
        (false, false) => (opts.seconds, 2),
    };
    let started = clock::now();
    while plain.wall.len() < least || started.elapsed_s() < seconds {
        let n = plain.wall.len();
        let mut pass = run_pass(def, &specs, &mut untraced, &tmp);
        tally.account(&mut pass, &reference, &format!("pass {}", n + 1));
        plain.merge_pass(&pass.rows);
        if n == 0 {
            reference = std::mem::take(&mut pass.ops);
            sets = std::mem::take(&mut pass.sets);
        }
        last_plain = Some(pass);
        for _ in 0..SETUP_SAMPLES_PER_PASS {
            plain.setup.push(setup_sample(def, &specs, &sets));
        }
        if opts.trace {
            let mut pass = run_pass(def, &specs, tr, &tmp);
            tally.account(&mut pass, &reference, &format!("traced pass {}", n + 1));
            traced.merge_pass(&pass.rows);
            first_traced.get_or_insert(pass);
        }
    }
    while !opts.smoke && plain.setup.len() < SETUP_SAMPLES + plain.wall.len() {
        plain.setup.push(setup_sample(def, &specs, &sets));
    }
    // Best effort: nothing is left in it, and `out/` is ignored.
    let _ = std::fs::remove_dir_all(&tmp);

    let last_plain = last_plain.expect("at least one pass ran");
    let passes = plain.wall.len();
    let rate = |wall_s: f64| ratio(last_plain.cycles as f64, wall_s);
    let (wall_s, wall_halves) = stats::fastest(&plain.wall);
    let rate_halves: Vec<f64> = wall_halves.iter().map(|&w| rate(w)).collect();
    let (setup_s, setup_halves) = stats::fastest(&plain.setup);
    let mut end_to_end: Metrics = vec![
        (
            "wall_s".into(),
            Summary::estimate(wall_s, &wall_halves, passes),
        ),
        (
            "sim_cycles_per_s".into(),
            Summary::estimate(rate(wall_s), &rate_halves, passes),
        ),
        (
            "setup_s".into(),
            Summary::estimate(setup_s, &setup_halves, plain.setup.len()),
        ),
    ];
    if let Some(mb) = clock::peak_rss_mb() {
        end_to_end.push(("peak_rss_mb".into(), Summary::exact(mb)));
    }
    end_to_end.push((
        "failed_ops".into(),
        Summary::exact(ratio(tally.failed as f64, tally.attempted as f64)),
    ));
    let err = paper_err(def, &last_plain.rows).filter(|_| !opts.smoke);
    end_to_end.extend(err.map(|e| ("paper_err".into(), Summary::exact(e))));

    let mut per_layer: Metrics = Vec::new();
    if let Some(pass) = &first_traced {
        per_layer = per_layer_metrics(pass, &traced, def)
            .into_iter()
            .map(|(n, v)| (n.to_string(), Summary::exact(v)))
            .collect();
        // Both sides are the same estimator over the same number of
        // passes, interleaved.
        let (traced_wall_s, _) = stats::fastest(&traced.wall);
        let overhead = (traced_wall_s - wall_s) / wall_s * 100.0;
        per_layer.push(("bench.passes".into(), Summary::exact(passes as f64)));
        per_layer.push(("bench.trace_overhead_pct".into(), Summary::exact(overhead)));
    }

    // Counters come from a traced pass when there is one; timings are
    // the fastest of the untraced passes either way.
    let rows = &first_traced.as_ref().unwrap_or(&last_plain).rows;
    let (walls, setups) = (stats::minima(&plain.wall), stats::minima(&plain.setup));
    WorkloadResult {
        name: def.name.to_string(),
        passes,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        end_to_end,
        per_layer,
        sims: rows
            .iter()
            .zip(walls.iter().zip(&setups))
            .map(|(row, (&wall_s, &setup_s))| row_json(row, wall_s, setup_s))
            .collect(),
    }
}

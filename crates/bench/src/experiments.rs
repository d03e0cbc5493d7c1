//! Experiment definitions: one function per table/figure of the paper,
//! except that Table 2 and Figures 6–7 share their DSW runs. The
//! multi-run experiments ([`table2_fig6_fig7`], [`fig5`]) take a
//! `workers` count and fan their independent simulations across host
//! cores via [`crate::sweep::sweep`]; results come back in job order,
//! so the output is bit-identical to a `workers = 1` run.

use crate::sweep::sweep;
use sim_base::config::CmpConfig;
use sim_base::json::{Json, ToJson};
use sim_base::stats::{MsgClass, TimeCat};
use sim_cmp::runtime::BarrierKind;
use sim_cmp::SystemReport;
use workloads::common::Workload;
use workloads::eval::{Bench, Scale};
use workloads::synthetic;

/// Core count used by the paper's Figure 6 / Figure 7 runs.
pub const BENCH_CORES: usize = 32;

/// Runs a workload to completion on `n` cores and reports.
pub fn run_workload(w: &Workload, n: usize) -> SystemReport {
    let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(n));
    sys.run(20_000_000_000).expect("workload completes");
    sys.report()
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// Renders Table 1 (the CMP baseline configuration).
pub fn table1() -> String {
    let c = CmpConfig::icpp2010();
    let mut s = String::from("Table 1. CMP baseline configuration.\n");
    let rows = [
        ("Number of cores", format!("{}", c.num_cores())),
        (
            "Core",
            format!(
                "{} GHz, in-order {}-way model",
                c.core.freq_ghz, c.core.issue_width
            ),
        ),
        ("Cache line size", format!("{} Bytes", c.l1.line_bytes)),
        (
            "L1 I/D-Cache",
            format!(
                "{}KB, {}-way, {} cycle",
                c.l1.size_bytes / 1024,
                c.l1.ways,
                c.l1.total_latency()
            ),
        ),
        (
            "L2 Cache (per core)",
            format!(
                "{}KB, {}-way, {}+{} cycles",
                c.l2.size_bytes / 1024,
                c.l2.ways,
                c.l2.hit_latency,
                c.l2.extra_data_latency
            ),
        ),
        ("Memory access time", format!("{} cycles", c.mem.latency)),
        (
            "Network configuration",
            format!("2D-mesh ({}x{})", c.mesh.rows, c.mesh.cols),
        ),
        ("Link width", format!("{} bytes", c.noc.link_bytes)),
        ("G-lines per barrier", format!("{}", c.glines_per_barrier())),
    ];
    for (k, v) in rows {
        s.push_str(&format!("  {k:<24} {v}\n"));
    }
    s
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// One Table 2 row: measured benchmark shape.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Dynamic barrier count of the run.
    pub barriers: u64,
    /// Average cycles between consecutive barriers (cycles / barriers),
    /// measured under the best software barrier (DSW), like the paper's
    /// baseline runs.
    pub barrier_period: u64,
    /// Total cycles of the run.
    pub cycles: u64,
}

impl ToJson for Table2Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", Json::from(self.benchmark.as_str())),
            ("barriers", Json::from(self.barriers)),
            ("barrier_period", Json::from(self.barrier_period)),
            ("cycles", Json::from(self.cycles)),
        ])
    }
}

/// Renders Table 2 rows.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut s = String::from("Table 2. Benchmark configuration (measured on this reproduction).\n");
    s.push_str(&format!(
        "  {:<14} {:>10} {:>16} {:>12}\n",
        "Benchmark", "#Barriers", "Barrier Period", "Cycles"
    ));
    for r in rows {
        s.push_str(&format!(
            "  {:<14} {:>10} {:>16} {:>12}\n",
            r.benchmark, r.barriers, r.barrier_period, r.cycles
        ));
    }
    s
}

// ---------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------

/// Reproduces the Figure 2 walkthrough: a 2×2 mesh, all cores arriving
/// at cycle 0, printed cycle by cycle (bar_regs + G-line signal count).
pub fn figure2() -> String {
    use gline_core::BarrierNetwork;
    use sim_base::config::GlineConfig;
    use sim_base::{CoreId, Mesh2D};

    let mut net = BarrierNetwork::new(Mesh2D::new(2, 2), GlineConfig::default());
    for i in 0..4 {
        net.write_bar_reg(CoreId(i), 0, 1);
    }
    let mut s = String::from(
        "Figure 2. Barrier on a 2x2 mesh, all cores arrive at cycle 0.\n  cycle | bar_reg[0..4] | G-line signals this cycle | stage\n",
    );
    let stages = [
        "horizontal gather (SlaveH pulse, MasterH counts via S-CSMA)",
        "vertical gather (SlaveV pulse, MasterV counts)",
        "vertical release (MasterV drives MglineV)",
        "horizontal release (MasterH drives MglineH, bar_regs reset)",
    ];
    let mut prev_signals = 0;
    for cycle in 0..4 {
        net.tick();
        let regs: Vec<u64> = (0..4).map(|i| net.bar_reg(CoreId(i), 0)).collect();
        let sig = net.stats(0).signals;
        s.push_str(&format!(
            "  {:>5} | {:?}  | {:>2}                         | {}\n",
            cycle,
            regs,
            sig - prev_signals,
            stages[cycle as usize]
        ));
        prev_signals = sig;
    }
    assert!(net.all_released(0), "barrier must complete in 4 cycles");
    s.push_str("  => released at the end of cycle 3: 4 cycles total, as in the paper.\n");
    s
}

// ---------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------

/// One Figure 5 point: average cycles/barrier per implementation.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Core count.
    pub cores: usize,
    /// Centralized software barrier.
    pub csw: f64,
    /// Combining-tree software barrier.
    pub dsw: f64,
    /// G-line hardware barrier.
    pub gl: f64,
}

impl ToJson for Fig5Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cores", Json::from(self.cores as u64)),
            ("csw", Json::from(self.csw)),
            ("dsw", Json::from(self.dsw)),
            ("gl", Json::from(self.gl)),
        ])
    }
}

/// Regenerates Figure 5: the synthetic benchmark (loop of 4 consecutive
/// barriers) swept over core counts × barrier kinds, fanned across
/// `workers` threads.
pub fn fig5(scale: Scale, workers: usize) -> Vec<Fig5Row> {
    let iters = scale.fig5_iters();
    const CORES: [usize; 6] = [1, 2, 4, 8, 16, 32];
    const KINDS: [BarrierKind; 3] = [BarrierKind::Csw, BarrierKind::Dsw, BarrierKind::Gl];
    let jobs: Vec<(usize, BarrierKind)> = CORES
        .iter()
        .flat_map(|&n| KINDS.iter().map(move |&k| (n, k)))
        .collect();
    let vals = sweep(&jobs, workers, |&(n, kind)| {
        let rep = run_workload(&synthetic::build(n, kind, iters), n);
        synthetic::cycles_per_barrier(rep.cycles, iters)
    });
    CORES
        .iter()
        .enumerate()
        .map(|(i, &n)| Fig5Row {
            cores: n,
            csw: vals[i * 3],
            dsw: vals[i * 3 + 1],
            gl: vals[i * 3 + 2],
        })
        .collect()
}

/// Renders Figure 5 rows.
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut s = String::from(
        "Figure 5. Average cycles per barrier (synthetic benchmark, 4 barriers/iter).\n",
    );
    s.push_str(&format!(
        "  {:>5} {:>12} {:>12} {:>12}\n",
        "cores", "CSW", "DSW", "GL"
    ));
    for r in rows {
        s.push_str(&format!(
            "  {:>5} {:>12.1} {:>12.1} {:>12.1}\n",
            r.cores, r.csw, r.dsw, r.gl
        ));
    }
    s
}

// ---------------------------------------------------------------------
// Figures 6 and 7
// ---------------------------------------------------------------------

/// One benchmark's Figure 6 + Figure 7 data: DSW baseline and GL,
/// normalized to DSW.
#[derive(Clone, Debug)]
pub struct Fig67Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Is it a kernel (vs application)?
    pub kernel: bool,
    /// Figure 6: DSW stacked bar (category, fraction-of-DSW-total).
    pub time_dsw: Vec<(&'static str, f64)>,
    /// Figure 6: GL stacked bar, same normalization.
    pub time_gl: Vec<(&'static str, f64)>,
    /// Normalized execution time of GL (1.0 = DSW).
    pub norm_time_gl: f64,
    /// Figure 7: DSW message classes (class, fraction-of-DSW-total).
    pub traffic_dsw: Vec<(&'static str, f64)>,
    /// Figure 7: GL message classes, same normalization.
    pub traffic_gl: Vec<(&'static str, f64)>,
    /// Normalized network messages of GL (1.0 = DSW).
    pub norm_traffic_gl: f64,
}

/// Renders a stacked bar (`(label, fraction)` pairs) as a JSON object.
fn bar_json(bar: &[(&str, f64)]) -> Json {
    Json::obj(bar.iter().map(|&(k, v)| (k, Json::from(v))))
}

impl ToJson for Fig67Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", Json::from(self.benchmark.as_str())),
            ("kernel", Json::from(self.kernel)),
            ("time_dsw", bar_json(&self.time_dsw)),
            ("time_gl", bar_json(&self.time_gl)),
            ("norm_time_gl", Json::from(self.norm_time_gl)),
            ("traffic_dsw", bar_json(&self.traffic_dsw)),
            ("traffic_gl", bar_json(&self.traffic_gl)),
            ("norm_traffic_gl", Json::from(self.norm_traffic_gl)),
        ])
    }
}

/// Regenerates Table 2 (every benchmark under DSW) and the data behind
/// Figures 6 and 7 (the six benchmarks other than Synthetic under DSW
/// and GL) in one sweep across `workers` threads, each asked for by its
/// flag. A DSW run that both need happens once.
pub fn table2_fig6_fig7(
    scale: Scale,
    workers: usize,
    table2: bool,
    figs: bool,
) -> (Option<Vec<Table2Row>>, Option<Vec<Fig67Row>>) {
    let in_figs = |b: Bench| figs && b != Bench::Synthetic;
    let mut jobs = Vec::new();
    for b in Bench::ALL {
        if table2 || in_figs(b) {
            jobs.push((b, BarrierKind::Dsw));
        }
        if in_figs(b) {
            jobs.push((b, BarrierKind::Gl));
        }
    }
    // Each job builds its own workload, so a paper-scale program lives
    // only as long as its simulation.
    let runs = sweep(&jobs, workers, |&(b, kind)| {
        let w = b.build(BENCH_CORES, kind, scale);
        (w.barriers_per_core, run_workload(&w, BENCH_CORES))
    });
    let run = |b: Bench, kind| {
        let i = jobs.iter().position(|&j| j == (b, kind));
        &runs[i.expect("every needed run is a job")]
    };
    let table2 = table2.then(|| {
        let row = |b: Bench| {
            let (barriers, rep) = run(b, BarrierKind::Dsw);
            Table2Row {
                benchmark: b.name().into(),
                barriers: *barriers,
                barrier_period: rep.cycles / barriers.max(&1),
                cycles: rep.cycles,
            }
        };
        Bench::ALL.map(row).to_vec()
    });
    let figs = figs.then(|| {
        let figs = Bench::ALL.into_iter().filter(|&b| in_figs(b));
        figs.map(|b| {
            let (dsw, gl) = (&run(b, BarrierKind::Dsw).1, &run(b, BarrierKind::Gl).1);
            let bars = |r: &SystemReport| r.figure6_bar(dsw).map(|(c, v)| (c.label(), v)).to_vec();
            let traf = |r: &SystemReport| r.figure7_bar(dsw).map(|(c, v)| (c.label(), v)).to_vec();
            Fig67Row {
                benchmark: b.name().into(),
                kernel: b.is_kernel(),
                time_dsw: bars(dsw),
                time_gl: bars(gl),
                norm_time_gl: gl.normalized_time(dsw),
                traffic_dsw: traf(dsw),
                traffic_gl: traf(gl),
                norm_traffic_gl: gl.normalized_traffic(dsw),
            }
        })
        .collect()
    });
    (table2, figs)
}

/// A stacked bar: `(label, fraction of DSW's total)` per category.
type Bar = [(&'static str, f64)];

/// Renders Figure 6 or 7: the `labels` columns `w` wide of each
/// benchmark's DSW and GL bars (`bars` picks them and GL's total), then
/// the kernel and application means of that total in `what` of DSW,
/// beside the `paper`'s.
fn render_bars(
    title: &str,
    what: &str,
    labels: &[&str],
    w: usize,
    rows: &[Fig67Row],
    bars: impl Fn(&Fig67Row) -> (&Bar, &Bar, f64),
    paper: [&str; 2],
) -> String {
    let mut s = format!("{title}\n  {:<14} {:>4}", "Benchmark", "impl");
    for l in labels {
        s.push_str(&format!(" {l:>w$}"));
    }
    s.push_str(&format!(" {:>w$}\n", "TOTAL"));
    for r in rows {
        let (dsw, gl, gl_total) = bars(r);
        for (impl_name, bar, total) in [("DSW", dsw, 1.0), ("GL", gl, gl_total)] {
            s.push_str(&format!("  {:<14} {:>4}", r.benchmark, impl_name));
            for (_, v) in bar {
                s.push_str(&format!(" {v:>w$.3}"));
            }
            s.push_str(&format!(" {total:>w$.3}\n"));
        }
    }
    for (avg, kernel, paper) in [("AVG_K", true, paper[0]), ("AVG_A", false, paper[1])] {
        let sel: Vec<f64> = rows
            .iter()
            .filter(|r| r.kernel == kernel)
            .map(|r| bars(r).2)
            .collect();
        let mean = sel.iter().sum::<f64>() / sel.len().max(1) as f64;
        s.push_str(&format!(
            "  {avg}: GL = {mean:.3} of {what} (paper: {paper})\n"
        ));
    }
    s
}

/// Renders Figure 6 (normalized execution time, stacked by category).
pub fn render_fig6(rows: &[Fig67Row]) -> String {
    render_bars(
        "Figure 6. Normalized execution time over a 32-core CMP (DSW = 1.00).",
        "DSW",
        &TimeCat::ALL.map(TimeCat::label),
        8,
        rows,
        |r| (&r.time_dsw, &r.time_gl, r.norm_time_gl),
        ["0.32, i.e. a 68% reduction", "0.79, i.e. a 21% reduction"],
    )
}

/// Renders Figure 7 (normalized network messages, stacked by class).
pub fn render_fig7(rows: &[Fig67Row]) -> String {
    render_bars(
        "Figure 7. Normalized messages across the network over a 32-core CMP (DSW = 1.00).",
        "DSW traffic",
        &MsgClass::ALL.map(MsgClass::label),
        10,
        rows,
        |r| (&r.traffic_dsw, &r.traffic_gl, r.norm_traffic_gl),
        ["0.26, i.e. a 74% reduction", "0.82, i.e. an 18% reduction"],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_every_parameter() {
        let t = table1();
        for needle in [
            "32",
            "3 GHz",
            "64 Bytes",
            "32KB",
            "256KB",
            "6+2",
            "400 cycles",
            "75 bytes",
        ] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }

    #[test]
    fn figure2_walkthrough_completes() {
        let f = figure2();
        assert!(f.contains("4 cycles total"));
        // Signal counts per cycle on the 2×2: 2, 1, 1, 2.
        assert!(f.contains("|  2 "), "{f}");
    }

    /// The shape checks EXPERIMENTS.md reads off Figures 6–7 at Quick
    /// scale. `#[ignore]`d (a few seconds in release, minutes in debug);
    /// CI runs it with `cargo test --release -p bench --lib -- --ignored`.
    #[test]
    #[ignore]
    fn fig6_fig7_shape_checks_hold_at_quick_scale() {
        let rows = table2_fig6_fig7(Scale::Quick, 2, false, true).1.unwrap();
        let reduction = |name: &str| {
            let row = rows.iter().find(|r| r.benchmark == name).expect(name);
            1.0 - row.norm_time_gl
        };
        for r in &rows {
            assert!(r.norm_time_gl < 1.0, "{}: GL not faster", r.benchmark);
            assert!(r.norm_traffic_gl <= 1.0, "{}: GL traffic", r.benchmark);
            let lock = r
                .time_dsw
                .iter()
                .find(|&&(c, _)| c == TimeCat::Lock.label());
            let has_lock = lock.expect("a Lock category").1 > 0.0;
            assert_eq!(has_lock, r.benchmark == "UNSTRUCTURED", "{}", r.benchmark);
        }
        let (k2, k3, k6) = (
            reduction("Kernel 2"),
            reduction("Kernel 3"),
            reduction("Kernel 6"),
        );
        assert!(k3 > k2 && k2 > k6, "kernels: K3 {k3}, K2 {k2}, K6 {k6}");
        let em3d = reduction("EM3D");
        for app in ["OCEAN", "UNSTRUCTURED"] {
            assert!(em3d > reduction(app), "EM3D {em3d} vs {app}");
        }
    }
}

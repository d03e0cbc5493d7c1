//! EM3D on the 32-core CMP: the paper's best-case application.
//!
//! Runs the EM3D bipartite-graph relaxation under the combining-tree
//! software barrier (DSW) and the G-line barrier (GL), and prints the
//! Figure-6 execution-time breakdown and Figure-7 traffic classes.
//!
//! Run with: `cargo run --release --example em3d_app`

use gline_cmp::base::config::CmpConfig;
use gline_cmp::base::stats::{MsgClass, TimeCat};
use gline_cmp::bench_workloads::eval::{Bench, Scale};
use gline_cmp::cmp::runtime::BarrierKind;
use gline_cmp::cmp::SystemReport;

fn run(kind: BarrierKind) -> SystemReport {
    let w = Bench::Em3d.build(32, kind, Scale::Quick);
    let mut sys = w.into_system(CmpConfig::icpp2010());
    sys.run(1_000_000_000).expect("EM3D completes");
    sys.report()
}

fn main() {
    println!("EM3D at the evaluation's Quick size (degree 2, 15% remote), 32 cores\n");
    let dsw = run(BarrierKind::Dsw);
    let gl = run(BarrierKind::Gl);

    println!("{:<26} {:>12} {:>12}", "", "DSW", "GL");
    println!(
        "{:<26} {:>12} {:>12}",
        "execution cycles", dsw.cycles, gl.cycles
    );
    for cat in TimeCat::ALL {
        println!(
            "{:<26} {:>11.1}% {:>11.1}%",
            format!("time in {}", cat.label()),
            100.0 * dsw.time_fraction(cat),
            100.0 * gl.time_fraction(cat)
        );
    }
    println!();
    for class in MsgClass::ALL {
        println!(
            "{:<26} {:>12} {:>12}",
            format!("{} messages", class.label()),
            dsw.traffic[class],
            gl.traffic[class]
        );
    }
    println!(
        "{:<26} {:>12} {:>12}",
        "total NoC messages",
        dsw.traffic.total(),
        gl.traffic.total()
    );
    println!(
        "{:<26} {:>12} {:>12}",
        "G-line signals (1-bit)", 0, gl.gl_signals
    );
    println!(
        "\nGL vs DSW: {:.0}% of the execution time, {:.0}% of the network traffic",
        100.0 * gl.normalized_time(&dsw),
        100.0 * gl.normalized_traffic(&dsw)
    );
    println!("(paper, full-size EM3D: 46% of the time — a 54% reduction — and 49% of the traffic)");
}

//! Barrier showdown: GL vs DSW vs CSW on the full-system simulator.
//!
//! Reproduces the paper's Figure-5 experiment at example scale: the
//! synthetic benchmark (a loop of four consecutive barriers with no work
//! between them) runs on the cycle-level CMP under all three barrier
//! implementations, at several core counts.
//!
//! Run with: `cargo run --release --example barrier_showdown`

use gline_cmp::base::config::CmpConfig;
use gline_cmp::bench_workloads::eval::Scale;
use gline_cmp::bench_workloads::synthetic;
use gline_cmp::cmp::runtime::BarrierKind;

fn main() {
    let iters = Scale::Quick.fig5_iters();
    println!("synthetic benchmark: {iters} iterations x 4 consecutive barriers");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>14}",
        "cores", "CSW", "DSW", "GL", "GL speedup"
    );
    for n in [2usize, 4, 8, 16, 32] {
        let mut per_barrier = Vec::new();
        for kind in [BarrierKind::Csw, BarrierKind::Dsw, BarrierKind::Gl] {
            let w = synthetic::build(n, kind, iters);
            let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(n));
            let cycles = sys.run(1_000_000_000).expect("completes");
            per_barrier.push(synthetic::cycles_per_barrier(cycles, iters));
        }
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>12.1} {:>13.0}x",
            n,
            per_barrier[0],
            per_barrier[1],
            per_barrier[2],
            per_barrier[1] / per_barrier[2] // vs the best software barrier
        );
    }
    println!("\n(GL stays flat because the G-line network resolves the whole barrier");
    println!(" in 4 cycles of dedicated wiring; the software barriers pay coherence");
    println!(" round-trips that grow with the core count.)");
}

//! Tracing must be an observer, not a participant: running the same
//! machine with a recording sink and with the disabled [`NullSink`]
//! must produce bit-identical [`SystemReport`]s.
//!
//! [`NullSink`]: gline_cmp::base::trace::NullSink
//! [`SystemReport`]: gline_cmp::cmp::SystemReport

use gline_cmp::base::check::forall;
use gline_cmp::base::config::CmpConfig;
use gline_cmp::base::trace::{ChromeTraceSink, Event, RingSink, Tracer};
use gline_cmp::cmp::runtime::{BarrierEnv, BarrierKind};
use gline_cmp::cmp::{System, SystemReport};
use gline_cmp::isa::{ProgBuilder, Program};

/// Builds a small mixed workload: barriers + shared-memory traffic.
fn progs(kind: BarrierKind, n: usize, iters: u64) -> Vec<Program> {
    let env = BarrierEnv::new(kind, n, 0x1_0000);
    (0..n)
        .map(|c| {
            let mut b = ProgBuilder::new();
            for it in 0..iters {
                use gline_cmp::isa::Reg;
                b.li(Reg(1), 0x8000 + (it as i64 % 4) * 64)
                    .li(Reg(2), 1)
                    .amoadd(Reg(3), Reg(2), Reg(1));
                env.emit(&mut b, c);
            }
            b.halt();
            b.build()
        })
        .collect()
}

fn report_with_null(kind: BarrierKind, n: usize, iters: u64) -> SystemReport {
    let mut sys = System::new(CmpConfig::icpp2010_with_cores(n), progs(kind, n, iters));
    sys.run(100_000_000).unwrap();
    sys.report()
}

#[test]
fn ring_sink_never_changes_the_report() {
    forall("ring_sink_vs_null_sink", |rng| {
        let n = [2usize, 4, 8][rng.next_below(3) as usize];
        let iters = 1 + rng.next_below(6);
        let kind =
            [BarrierKind::Gl, BarrierKind::Csw, BarrierKind::Dsw][rng.next_below(3) as usize];

        let baseline = report_with_null(kind, n, iters);

        let tracer = Tracer::new(RingSink::new(512));
        let mut traced = System::traced(
            CmpConfig::icpp2010_with_cores(n),
            progs(kind, n, iters),
            tracer.clone(),
        );
        traced.run(100_000_000).unwrap();
        let traced_rep = traced.report();

        assert_eq!(
            baseline, traced_rep,
            "RingSink perturbed the simulation (kind {kind:?}, {n} cores, {iters} iters)"
        );
        assert!(
            tracer.with_sink(|s| s.total_seen()) > 0,
            "the traced run must actually have recorded events"
        );
    });
}

#[test]
fn chrome_sink_never_changes_the_report() {
    let baseline = report_with_null(BarrierKind::Gl, 4, 5);
    let tracer = Tracer::new(ChromeTraceSink::new());
    let mut traced = System::traced(
        CmpConfig::icpp2010_with_cores(4),
        progs(BarrierKind::Gl, 4, 5),
        tracer,
    );
    traced.run(100_000_000).unwrap();
    assert_eq!(baseline, traced.report());
}

/// A 16×16 machine exceeds the flat G-line budget, so its barriers run
/// on the clustered network. Traced, a G-line loop with staggered
/// arrivals must give the untraced report, and every episode of its
/// stream must hold one arrival and one release per core, global ids
/// 0..256, closed by one completion at the report's latency.
#[test]
fn clustered_gline_trace_matches_the_report() {
    let (n, iters) = (256, 3);
    let cfg = CmpConfig::icpp2010_with_cores(n);
    let env = BarrierEnv::new(BarrierKind::Gl, n, 0x1_0000);
    let progs: Vec<Program> = (0..n)
        .map(|c| {
            let mut b = ProgBuilder::new();
            for it in 0..iters {
                b.busy(1 + (c as u32 * 7 + it as u32 * 13) % 40);
                env.emit(&mut b, c);
            }
            b.halt();
            b.build()
        })
        .collect();
    let mut plain = System::new(cfg, progs.clone());
    plain.run(1_000_000).unwrap();
    let rep = plain.report();
    assert_eq!(rep.gl_barriers, iters);

    let tracer = Tracer::new(ChromeTraceSink::new());
    let mut traced = System::traced(cfg, progs, tracer.clone());
    traced.run(1_000_000).unwrap();
    assert_eq!(traced.report(), rep, "tracing changed the 16x16 run");

    let (mut arrived, mut released) = (Vec::new(), Vec::new());
    let mut episodes = 0;
    tracer.with_sink(|s| {
        for (_, e) in s.events() {
            match e {
                Event::BarrierArrive { core, .. } => arrived.push(core.index()),
                Event::BarrierRelease { core, .. } => released.push(core.index()),
                Event::BarrierComplete { latency, .. } => {
                    episodes += 1;
                    assert_eq!(*latency as f64, rep.gl_mean_latency, "episode {episodes}");
                    for (what, ids) in [("arrive", &mut arrived), ("release", &mut released)] {
                        ids.sort_unstable();
                        let want: Vec<usize> = (0..n).collect();
                        assert_eq!(*ids, want, "episode {episodes}: barrier.{what} ids");
                        ids.clear();
                    }
                }
                _ => {}
            }
        }
    });
    assert_eq!(episodes, iters);
    assert!(
        arrived.is_empty() && released.is_empty(),
        "events after the last episode"
    );
}

//! Tracing must be an observer, not a participant: running the same
//! machine with a recording sink and untraced must produce
//! bit-identical [`SystemReport`]s, also when tracing is switched on
//! and off mid-run, and a run switched on at cycle `X` must emit
//! exactly the events a run traced from cycle 0 emits from `X` on.
//!
//! [`SystemReport`]: gline_cmp::cmp::SystemReport

use gline_cmp::base::check::forall;
use gline_cmp::base::config::CmpConfig;
use gline_cmp::base::json::{self, Json};
use gline_cmp::base::trace::{ChromeSink, Event, RingSink, Tracer};
use gline_cmp::cmp::runtime::{BarrierEnv, BarrierKind};
use gline_cmp::cmp::{System, SystemReport};
use gline_cmp::isa::{ProgBuilder, Program};
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

/// Builds a small mixed workload: barriers + shared-memory traffic.
fn progs(kind: BarrierKind, n: usize, iters: u64) -> Vec<Program> {
    contended(kind, n, iters, |it, _| it % 4)
}

/// Every iteration, core `c` adds to shared line `line(it, c)`, then
/// meets the others at a barrier.
fn contended(
    kind: BarrierKind,
    n: usize,
    iters: u64,
    line: impl Fn(u64, usize) -> u64,
) -> Vec<Program> {
    let env = BarrierEnv::new(kind, n, 0x1_0000);
    (0..n)
        .map(|c| {
            let mut b = ProgBuilder::new();
            for it in 0..iters {
                use gline_cmp::isa::Reg;
                b.li(Reg(1), 0x8000 + line(it, c) as i64 * 64)
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
        let mut traced = System::new(CmpConfig::icpp2010_with_cores(n), progs(kind, n, iters));
        traced.set_trace(tracer.clone());
        traced.run(100_000_000).unwrap();
        let traced_rep = traced.report();

        assert_eq!(
            baseline, traced_rep,
            "RingSink perturbed the simulation (kind {kind:?}, {n} cores, {iters} iters)"
        );
        assert!(
            tracer.with_sink(|s: &mut RingSink| s.total_seen()) > 0,
            "the traced run must actually have recorded events"
        );
    });
}

#[test]
fn chrome_sink_never_changes_the_report() {
    let baseline = report_with_null(BarrierKind::Gl, 4, 5);
    let tracer = Tracer::new(ChromeSink::new(std::io::sink()));
    let mut traced = System::new(
        CmpConfig::icpp2010_with_cores(4),
        progs(BarrierKind::Gl, 4, 5),
    );
    traced.set_trace(tracer);
    traced.run(100_000_000).unwrap();
    assert_eq!(baseline, traced.report());
}

/// A writer whose bytes the test can read after the sink is done.
#[derive(Clone, Default)]
struct Shared(Rc<RefCell<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The streamed Chrome trace of a contended 4x8 CSW run parses, and its
/// `traceEvents` are the same run's events, in order, as (name, ts,
/// tid, args).
#[test]
fn chrome_stream_parses_to_the_ring_events() {
    let cfg = CmpConfig::icpp2010_with_cores(32);
    let progs = contended(BarrierKind::Csw, 32, 1, |_, c| c as u64 % 4);
    let out = Shared::default();
    let mut streamed = System::new(cfg, progs.clone());
    streamed.set_trace(Tracer::new(ChromeSink::new(out.clone())));
    streamed.run(10_000_000).unwrap();
    let written = streamed.take_trace();
    let written = written.with_sink(|s: &mut ChromeSink<Shared>| s.finish().unwrap());
    let mut ring = System::new(cfg, progs);
    ring.set_trace(Tracer::new(RingSink::new(usize::MAX)));
    ring.run(10_000_000).unwrap();
    assert_eq!(streamed.report(), ring.report());

    let text = String::from_utf8(out.0.take()).unwrap();
    let parsed = json::parse(&text).expect("the stream is one JSON object");
    let got = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
    let ring = ring.take_trace();
    let want: Vec<(Json, Json, Json, Json)> = ring.with_sink(|s: &mut RingSink| {
        let want = s.events().map(|(cycle, e)| {
            let (name, ts, tid) = (e.name().into(), (*cycle).into(), e.lane().into());
            (name, ts, tid, e.args_json())
        });
        want.collect()
    });
    let got: Vec<(Json, Json, Json, Json)> = got
        .iter()
        .map(|e| {
            let field = |k| e.get(k).cloned().unwrap_or(Json::Null);
            (field("name"), field("ts"), field("tid"), field("args"))
        })
        .collect();
    assert!(want.len() > 1000, "{} events", want.len());
    assert_eq!(written, want.len() as u64);
    assert!(got == want, "the streamed events differ from the ring's");
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

    let tracer = Tracer::new(RingSink::new(usize::MAX));
    let mut traced = System::new(cfg, progs);
    traced.set_trace(tracer.clone());
    traced.run(1_000_000).unwrap();
    assert_eq!(traced.report(), rep, "tracing changed the 16x16 run");

    let (mut arrived, mut released) = (Vec::new(), Vec::new());
    let mut episodes = 0;
    tracer.with_sink(|s: &mut RingSink| {
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

/// `progs` on the default engine, untraced, at the first cycle from
/// `from` on that follows a tick which elided a parked spinner's step
/// and passed a flit through an idle router: its spinners are parked
/// and flits are passing through, neither of which a traced run does.
fn parked_and_passing_through(cfg: CmpConfig, progs: &[Program], from: u64) -> System {
    let mut sys = System::new(cfg, progs.to_vec());
    sys.advance_until(from).unwrap();
    while !sys.all_halted() {
        let spins = sys.core_sched_stats().spin_parked_steps;
        let transits = sys.noc_sched_stats().transits;
        sys.advance_until(sys.now() + 1).unwrap();
        if sys.core_sched_stats().spin_parked_steps > spins
            && sys.noc_sched_stats().transits > transits
        {
            return sys;
        }
    }
    panic!("no tick from cycle {from} on parks a spinner and passes a flit through");
}

/// Switches a recording sink on at a cycle `x` where the default engine
/// has parked spinners and passes flits through idle routers, on both
/// engines, and off again at the end of the run or at `x + 400`. The
/// stream must be the events of that span in a run traced from cycle 0,
/// and the report the untraced run's.
fn switch_tracing_mid_run(what: &str, cfg: CmpConfig, progs: Vec<Program>) {
    let mut plain = System::new(cfg, progs.clone());
    let cycles = plain.run(10_000_000).unwrap();
    let rep = plain.report();
    let mut traced = System::new(cfg, progs.clone());
    traced.set_trace(Tracer::new(RingSink::new(usize::MAX)));
    traced.run(10_000_000).unwrap();
    assert_eq!(traced.report(), rep, "{what}: tracing changed the run");
    let full = traced.take_trace();
    let full: Vec<_> = full.with_sink(|s: &mut RingSink| s.events().cloned().collect());

    let x = parked_and_passing_through(cfg, &progs, cycles / 3).now();
    assert!(x + 400 < cycles, "{what}: the run ends before {x} + 400");
    for (active, y) in [
        (true, u64::MAX),
        (false, u64::MAX),
        (true, x + 400),
        (false, x + 400),
    ] {
        let mut sys = if active {
            parked_and_passing_through(cfg, &progs, cycles / 3)
        } else {
            let mut dense = System::new(cfg, progs.clone());
            dense.set_active_set_enabled(false);
            dense.advance_until(x).unwrap();
            dense
        };
        sys.set_trace(Tracer::new(RingSink::new(usize::MAX)));
        sys.advance_until(y).unwrap();
        let got = sys.take_trace();
        let got: Vec<_> = got.with_sink(|s: &mut RingSink| s.events().cloned().collect());
        let want = full.iter().filter(|(c, _)| (x..y).contains(c));
        assert!(
            got.iter().eq(want),
            "{what}, active set {active}: the stream of [{x}, {y}) differs"
        );
        sys.run(10_000_000).unwrap();
        assert_eq!(
            sys.report(),
            rep,
            "{what}, active set {active}: [{x}, {y}) changed the run"
        );
    }
}

#[test]
fn tracing_switched_on_mid_run_gives_the_suffix_csw_4x8() {
    let cfg = CmpConfig::icpp2010_with_cores(32);
    let progs = contended(BarrierKind::Csw, 32, 1, |_, c| c as u64 % 4);
    switch_tracing_mid_run("CSW, 4x8", cfg, progs);
}

#[test]
fn tracing_switched_on_mid_run_gives_the_suffix_gl_4x8() {
    let cfg = CmpConfig::icpp2010_with_cores(32);
    switch_tracing_mid_run("GL, 4x8", cfg, progs(BarrierKind::Gl, 32, 6));
}

/// The 16x16 machine runs its barriers on the clustered network, whose
/// held sets the switch rebuilds from the set `bar_reg`s.
#[test]
fn tracing_switched_on_mid_run_gives_the_suffix_gl_16x16() {
    let cfg = CmpConfig::icpp2010_with_cores(256);
    let progs = contended(BarrierKind::Gl, 256, 2, |it, c| (it + c as u64) % 64);
    switch_tracing_mid_run("GL, 16x16", cfg, progs);
}

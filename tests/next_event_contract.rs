//! The component contract the clock jumps rest on: `next_event` never
//! under-reports.
//!
//! The default engine (see `DESIGN.md` §8) jumps the clock to the
//! earliest `next_event` its components report, so a component must not
//! change observable state before the cycle its `next_event` names —
//! otherwise a jump could cross the change. One property test per
//! component (NoC, memory hierarchy, barrier network), plus the NoC's
//! buffered-flit case pinned exactly. (That whole runs are
//! bit-identical with and without jumps is `active_set_determinism.rs`'s
//! job.)

use gline_core::BarrierNetwork;
use sim_base::check::forall_cases;
use sim_base::config::{CmpConfig, GlineConfig};
use sim_base::stats::MsgClass;
use sim_base::{CoreId, Cycle, Mesh2D};
use sim_mem::{CoreReq, MemorySystem};
use sim_noc::{Message, Noc};

/// NoC: whenever a delivery becomes receivable during the tick of cycle
/// `c`, the `next_event` reported *before* that tick must have been
/// `Some(t)` with `t <= c` — otherwise a skipping simulator could have
/// jumped past the arrival.
#[test]
fn noc_next_event_never_under_reports() {
    forall_cases("noc_next_event", 24, |rng| {
        let mesh = Mesh2D::new(4, 4);
        let mut noc: Noc<u64> = Noc::new(mesh, CmpConfig::icpp2010().noc);
        let n = mesh.num_tiles() as u64;
        let sends = 3 + rng.next_below(12);
        let mut pending: u64 = 0;
        let mut send_at: Vec<(Cycle, CoreId, CoreId)> = (0..sends)
            .map(|_| {
                (
                    rng.next_below(60),
                    CoreId::from(rng.next_below(n) as usize),
                    CoreId::from(rng.next_below(n) as usize),
                )
            })
            .collect();
        send_at.sort();
        let mut cycle: Cycle = 0;
        while !send_at.is_empty() || pending > 0 {
            while send_at.first().is_some_and(|&(t, _, _)| t == cycle) {
                let (_, src, dst) = send_at.remove(0);
                noc.send(Message {
                    src,
                    dst,
                    class: MsgClass::Request,
                    payload_bytes: if rng.chance(0.5) { 64 } else { 0 },
                    payload: cycle,
                });
                pending += 1;
            }
            let ne = noc.next_event();
            noc.tick();
            let mut arrived = 0;
            for t in mesh.tiles() {
                while noc.recv(t).is_some() {
                    arrived += 1;
                }
            }
            if arrived > 0 {
                let t = ne.expect("delivery arrived while next_event claimed quiescence");
                assert!(t <= cycle, "delivery in cycle {cycle}, next_event said {t}");
            }
            pending -= arrived;
            cycle += 1;
            assert!(cycle < 10_000, "NoC property run livelocked");
        }
        assert_eq!(noc.next_event(), None, "drained NoC must report quiescence");
    });
}

/// NoC: a flit buffered in a router or an injection queue is arbitrated
/// by the tick of the current cycle, so `next_event` must name `now`
/// itself — and a jump to `now + 1`, which would drop that cycle of
/// arbitration, must be refused by `skip_to`'s debug check.
#[test]
fn noc_buffered_flit_is_an_event_this_cycle() {
    let mesh = Mesh2D::new(4, 4);
    // The default NoC puts the flits straight into the source router's
    // local input VC; the dense one queues them at the injection port.
    for active_set in [true, false] {
        let mut noc: Noc<u64> = Noc::new(mesh, CmpConfig::icpp2010().noc);
        noc.set_active_set_enabled(active_set);
        noc.tick();
        noc.send(Message {
            src: CoreId::from(0),
            dst: CoreId::from(15),
            class: MsgClass::Request,
            payload_bytes: 64,
            payload: 0,
        });
        let now = noc.now();
        assert_eq!(noc.next_event(), Some(now), "active set {active_set}");
        #[cfg(debug_assertions)]
        {
            let jump = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                noc.skip_to(now + 1);
            }));
            assert!(
                jump.is_err(),
                "active set {active_set}: skip_to(now + 1) crossed a buffered flit"
            );
        }
    }
}

/// Memory system: a core's response must never become ready before the
/// minimum of the hierarchy's reported next events at request time.
#[test]
fn memory_next_event_never_under_reports() {
    forall_cases("mem_next_event", 16, |rng| {
        let cfg = CmpConfig::icpp2010_with_cores(4);
        let mut mem = MemorySystem::new(&cfg);
        let cores: Vec<CoreId> = (0..4).map(CoreId::from).collect();
        for round in 0..3u64 {
            for (i, &c) in cores.iter().enumerate() {
                let addr = 0x1000 * (1 + rng.next_below(4)) + 64 * i as u64;
                if rng.chance(0.5) {
                    mem.request(c, CoreReq::Load { addr });
                } else {
                    mem.request(c, CoreReq::Store { addr, value: round });
                }
            }
            let mut outstanding = cores.len();
            let mut guard = 0;
            while outstanding > 0 {
                let ne = mem.next_event();
                let before = mem.now();
                mem.tick();
                for &c in &cores {
                    if mem.poll(c).is_some() {
                        // The response became observable during the tick
                        // of cycle `before`; the hierarchy must have
                        // admitted an event no later than that.
                        let t = ne.expect("response completed while next_event claimed quiescence");
                        assert!(t <= before + 1, "resp in cycle {before}, next_event {t}");
                        outstanding -= 1;
                    }
                }
                guard += 1;
                assert!(guard < 100_000, "memory property run livelocked");
            }
        }
        // Fully drained: the hierarchy parks.
        for _ in 0..8 {
            mem.tick();
        }
        assert_eq!(mem.next_event(), None, "idle hierarchy must be quiescent");
    });
}

/// Barrier network: `bar_reg` values and completion stats must never
/// change across a tick for which `next_event` claimed quiescence.
#[test]
fn gline_next_event_never_under_reports() {
    forall_cases("gline_next_event", 24, |rng| {
        let mesh = Mesh2D::new(2 + rng.next_below(3) as u16, 2 + rng.next_below(4) as u16);
        let n = mesh.num_tiles();
        let mut net = BarrierNetwork::new(mesh, GlineConfig::default());
        let mut arrive: Vec<Cycle> = (0..n).map(|_| rng.next_below(24)).collect();
        // Everybody eventually arrives, so the barrier completes.
        arrive[rng.next_below(n as u64) as usize] = 0;
        let mut cycle: Cycle = 0;
        let mut done = false;
        while !done {
            let external = arrive.contains(&cycle);
            for (i, &a) in arrive.iter().enumerate() {
                if a == cycle {
                    net.write_bar_reg(CoreId::from(i), 0, 1);
                }
            }
            let quiescent = net.next_event().is_none();
            let regs_before: Vec<u64> = (0..n).map(|i| net.bar_reg(CoreId::from(i), 0)).collect();
            let barriers_before = net.stats(0).barriers_completed;
            net.tick();
            if quiescent && !external {
                let regs_after: Vec<u64> =
                    (0..n).map(|i| net.bar_reg(CoreId::from(i), 0)).collect();
                assert_eq!(regs_before, regs_after, "bar_reg changed while quiescent");
                assert_eq!(
                    barriers_before,
                    net.stats(0).barriers_completed,
                    "a barrier completed while quiescent"
                );
            }
            done = net.stats(0).barriers_completed == 1 && net.all_released(0);
            cycle += 1;
            assert!(cycle < 4096, "barrier property run livelocked");
        }
    });
}

//! Property tests for the NoC: arbitrary traffic must be delivered
//! exactly once, per-pair-per-class FIFO order must hold, the network
//! must drain to idle under any buffer size, the request-mask arbiter
//! must grant what a scan of all fifteen slots grants — output by
//! output and over a whole router visit — the flat input rings must
//! behave as fifteen `VecDeque`s, and the sparse tick (work lists,
//! direct injection) must move in lockstep with the dense one. A
//! delivered message waits in its packet-slab slot until received, and
//! how long it waits changes nothing the network does.
//!
//! Runs on the in-repo seed-sweep harness ([`sim_base::check`]) instead of
//! an external property-testing crate, so the suite builds fully offline.

#![allow(clippy::needless_range_loop)] // indexing parallel arrays

use sim_base::check::forall_cases;
use sim_base::config::NocConfig;
use sim_base::geom::Dir;
use sim_base::rng::SplitMix64;
use sim_base::stats::MsgClass;
use sim_base::{CoreId, Mesh2D};
use sim_noc::msg::Flit;
use sim_noc::router::{Router, WormLock, NUM_PORTS, NUM_SLOTS, NUM_VCS};
use sim_noc::{Message, Noc};
use std::collections::VecDeque;

#[derive(Clone, Debug)]
struct Traffic {
    src: usize,
    dst: usize,
    class: MsgClass,
    bytes: u32,
}

fn arb_class(rng: &mut SplitMix64) -> MsgClass {
    [MsgClass::Request, MsgClass::Reply, MsgClass::Coherence][rng.next_below(3) as usize]
}

fn arb_traffic(rng: &mut SplitMix64, tiles: usize) -> Traffic {
    Traffic {
        src: rng.next_below(tiles as u64) as usize,
        dst: rng.next_below(tiles as u64) as usize,
        class: arb_class(rng),
        bytes: if rng.chance(0.5) { 0 } else { 64 },
    }
}

#[test]
fn every_message_delivered_exactly_once() {
    forall_cases("every_message_delivered_exactly_once", 48, |rng| {
        let rows = 1 + rng.next_below(4) as u16;
        let cols = 1 + rng.next_below(8) as u16;
        let mesh = Mesh2D::new(rows, cols);
        let tiles = mesh.num_tiles();
        let buf = 1 + rng.next_below(8) as u32;
        let n_msgs = 1 + rng.next_below(199) as usize;
        let cfg = NocConfig {
            vc_buffer_flits: buf,
            ..NocConfig::default()
        };
        let mut noc: Noc<usize> = Noc::new(mesh, cfg);
        let mut expected = vec![0usize; tiles];
        let mut sent = 0;
        for tag in 0..n_msgs {
            let t = arb_traffic(rng, tiles);
            noc.send(Message {
                src: CoreId::from(t.src),
                dst: CoreId::from(t.dst),
                class: t.class,
                payload_bytes: t.bytes,
                payload: tag,
            });
            expected[t.dst] += 1;
            sent += 1;
        }
        let mut guard = 0;
        while !noc.is_idle() {
            noc.tick();
            guard += 1;
            assert!(guard < 1_000_000, "network failed to drain");
        }
        let mut got = 0;
        let mut seen = sim_base::fxmap::FxHashSet::default();
        for d in 0..tiles {
            let mut count = 0;
            while let Some(m) = noc.recv(CoreId::from(d)) {
                assert!(
                    seen.insert(m.payload),
                    "message {} delivered twice",
                    m.payload
                );
                assert_eq!(m.dst.index(), d, "delivered to the wrong tile");
                count += 1;
            }
            assert_eq!(count, expected[d], "tile {d} delivery count");
            got += count;
        }
        assert_eq!(got, sent);
    });
}

#[test]
fn per_pair_per_class_fifo() {
    forall_cases("per_pair_per_class_fifo", 48, |rng| {
        let n_msgs = 1 + rng.next_below(59) as usize;
        let src = rng.next_below(8) as usize;
        let dst = (src + 1 + rng.next_below(7) as usize) % 8;
        let class = arb_class(rng);
        let mesh = Mesh2D::new(2, 4);
        let mut noc: Noc<usize> = Noc::new(mesh, NocConfig::default());
        for i in 0..n_msgs {
            noc.send(Message {
                src: CoreId::from(src),
                dst: CoreId::from(dst),
                class,
                payload_bytes: if i % 3 == 0 { 64 } else { 0 },
                payload: i,
            });
        }
        let mut guard = 0;
        while !noc.is_idle() {
            noc.tick();
            guard += 1;
            assert!(guard < 100_000);
        }
        let mut got = Vec::new();
        while let Some(m) = noc.recv(CoreId::from(dst)) {
            got.push(m.payload);
        }
        assert_eq!(got, (0..n_msgs).collect::<Vec<_>>());
    });
}

#[test]
fn flit_hops_match_manhattan_distance() {
    forall_cases("flit_hops_match_manhattan_distance", 48, |rng| {
        let src = rng.next_below(32) as usize;
        let dst = (src + 1 + rng.next_below(31) as usize) % 32;
        let mesh = Mesh2D::new(4, 8);
        let mut noc: Noc<u8> = Noc::new(mesh, NocConfig::default());
        noc.send(Message {
            src: CoreId::from(src),
            dst: CoreId::from(dst),
            class: MsgClass::Request,
            payload_bytes: 0,
            payload: 0,
        });
        while !noc.is_idle() {
            noc.tick();
        }
        let hops = mesh.manhattan(
            mesh.coord_of(CoreId::from(src)),
            mesh.coord_of(CoreId::from(dst)),
        );
        assert_eq!(noc.stats().flit_hops, hops as u64);
        // And the latency is exactly hops × (router + link) + ejection.
        assert_eq!(
            noc.stats().latency_of(MsgClass::Request).max(),
            Some(hops as u64 * 4 + 3)
        );
    });
}

/// The arbiter this crate had before request masks: ask all fifteen
/// (input port, vc) slots in round-robin order from `rr[out]`, skipping
/// empty slots and front flits that route elsewhere. Kept as the
/// reference [`Router::pick`] is checked against.
fn linear_scan_pick(r: &Router, out: usize) -> Option<usize> {
    for k in 0..NUM_SLOTS {
        let slot = (r.rr[out] as usize + k) % NUM_SLOTS;
        let (p, vc) = (slot / NUM_VCS, slot % NUM_VCS);
        let Some(flit) = r.front(slot) else {
            continue;
        };
        match r.out_lock[out][vc] {
            Some(lock) => {
                if !(lock.in_port.index() == p && lock.slot == flit.slot) {
                    continue;
                }
            }
            None => {
                if !flit.is_head() || flit.out as usize != out {
                    continue;
                }
            }
        }
        if out != Dir::Local.index() && r.credits[out][vc] == 0 {
            continue;
        }
        return Some(slot);
    }
    None
}

/// Both arbiters on every output of `r`, from every round-robin start.
fn assert_same_grants(mut r: Router) {
    for out in 0..NUM_PORTS {
        for start in 0..NUM_SLOTS {
            r.rr[out] = start as u8;
            let granted = |slot: Option<usize>| slot.map(|s| (s, r.front(s).copied()));
            assert_eq!(
                granted(r.pick(out)),
                granted(linear_scan_pick(&r, out)),
                "output {out}, rr {start}, router {r:?}"
            );
        }
    }
}

/// One arbitration visit of `r` as `Noc` performs it — every output in
/// port order, each grant applied (pop, round-robin pointer, wormhole
/// lock, credit) before the next output is asked — returning the
/// `(output, slot)` grants.
fn visit(r: &mut Router, pick: impl Fn(&Router, usize) -> Option<usize>) -> Vec<(usize, usize)> {
    let mut grants = Vec::new();
    for out in Dir::ALL.map(Dir::index) {
        let Some(slot) = pick(r, out) else { continue };
        let (p, vc) = (slot / NUM_VCS, slot % NUM_VCS);
        let flit = r.pop(slot);
        r.rr[out] = ((slot + 1) % NUM_SLOTS) as u8;
        r.out_lock[out][vc] = (!flit.is_tail()).then_some(WormLock {
            slot: flit.slot,
            in_port: Dir::ALL[p],
        });
        if out != Dir::Local.index() {
            r.credits[out][vc] -= 1;
        }
        grants.push((out, slot));
    }
    grants
}

/// Both arbiters over one whole visit of `r`: the mask arbiter asks only
/// the outputs that are requested when their turn comes, and must still
/// grant exactly what scanning every slot for every output grants.
/// Returns whether one slot fed two outputs — its front flit left, and
/// the flit behind it took a later output of the same visit.
fn assert_same_visit(r: &Router) -> bool {
    let masked = visit(&mut r.clone(), |r, out| {
        r.requested(out).then(|| r.pick(out)).flatten()
    });
    assert_eq!(
        masked,
        visit(&mut r.clone(), linear_scan_pick),
        "router {r:?}"
    );
    let mut slots: Vec<usize> = masked.iter().map(|&(_, slot)| slot).collect();
    slots.sort_unstable();
    slots.windows(2).any(|w| w[0] == w[1])
}

#[test]
fn mask_arbiter_matches_linear_scan_on_random_router_states() {
    const CAP: u32 = 4;
    forall_cases("mask_arbiter_matches_linear_scan", 256, |rng| {
        let mut r = Router::new(CAP);
        let mut pkt = 0u32;
        for slot in 0..NUM_SLOTS {
            // 0..=CAP flits of back-to-back packets, one or five flits
            // long (a line on 16-byte links); the first packet may
            // already have sent its leading flits downstream.
            let mut room = rng.next_below(CAP as u64 + 1);
            let mut skip = rng.next_below(5);
            while room > 0 {
                pkt += 1;
                let len = if rng.chance(0.5) { 1 } else { 5 };
                let out = rng.next_below(NUM_PORTS as u64) as u8;
                for i in skip.min(len - 1)..len {
                    if room == 0 {
                        break;
                    }
                    room -= 1;
                    r.push(slot, Flit::new(pkt, CoreId(0), out, i == 0, i == len - 1));
                }
                skip = 0;
            }
        }
        for out in 0..NUM_PORTS {
            for vc in 0..NUM_VCS {
                r.credits[out][vc] = rng.next_below(CAP as u64 + 1) as u8;
                // Free, held by the packet continuing at the front of
                // one of this vc's slots (a packet only ever locks the
                // output its flits route to), or held by a packet whose
                // next flit has yet to arrive.
                let p = rng.next_below(NUM_PORTS as u64) as usize;
                r.out_lock[out][vc] = match rng.next_below(3) {
                    0 => None,
                    1 => r
                        .front(p * NUM_VCS + vc)
                        .filter(|f| !f.is_head() && f.out as usize == out)
                        .map(|f| WormLock {
                            slot: f.slot,
                            in_port: Dir::ALL[p],
                        }),
                    _ => Some(WormLock {
                        slot: u32::MAX,
                        in_port: Dir::ALL[p],
                    }),
                };
            }
        }
        assert_same_grants(r);
    });
}

#[test]
fn mask_arbiter_matches_linear_scan_on_reachable_router_states() {
    let mut slot_fed_two_outputs = 0;
    // Narrow links (five flits per line) and shallow buffers, so that
    // wormhole locks, exhausted credits and blocked heads all occur.
    forall_cases("mask_arbiter_matches_linear_scan_reachable", 24, |rng| {
        let mesh = Mesh2D::new(1 + rng.next_below(3) as u16, 2 + rng.next_below(3) as u16);
        let tiles = mesh.num_tiles();
        let cfg = NocConfig {
            link_bytes: 16,
            vc_buffer_flits: 1 + rng.next_below(4) as u32,
            ..NocConfig::default()
        };
        let mut noc: Noc<usize> = Noc::new(mesh, cfg);
        for tag in 0..1 + rng.next_below(120) as usize {
            let t = arb_traffic(rng, tiles);
            noc.send(Message {
                src: CoreId::from(t.src),
                dst: CoreId::from(t.dst),
                class: t.class,
                payload_bytes: t.bytes,
                payload: tag,
            });
        }
        let mut guard = 0;
        while !noc.is_idle() {
            for tile in mesh.tiles() {
                assert_same_grants(noc.router(tile).clone());
                slot_fed_two_outputs += assert_same_visit(noc.router(tile)) as u32;
            }
            noc.tick();
            guard += 1;
            assert!(guard < 100_000, "network failed to drain");
        }
    });
    assert!(
        slot_fed_two_outputs > 0,
        "no visit had a slot's consecutive flits leave through two outputs"
    );
}

/// Two single-flit messages injected back to back share the local input
/// slot of their source router. If the first leaves through an output
/// whose turn comes before the second's, both leave in the same cycle —
/// the first grant hands the slot's request to the flit behind it;
/// otherwise the second waits for the next cycle.
#[test]
fn consecutive_flits_of_one_slot_take_two_outputs_in_one_tick() {
    forall_cases("consecutive_flits_two_outputs", 48, |rng| {
        let mesh = Mesh2D::new(3 + rng.next_below(3) as u16, 3 + rng.next_below(3) as u16);
        // An interior tile, so that all four neighbours exist.
        let (row, col) = (
            1 + rng.next_below(mesh.rows as u64 - 2) as u16,
            1 + rng.next_below(mesh.cols as u64 - 2) as u16,
        );
        let src = mesh.id_of(sim_base::geom::Coord { row, col });
        let first = Dir::MESH[rng.next_below(4) as usize];
        let second = Dir::MESH[(first.index() + 1 + rng.next_below(3) as usize) % 4];
        assert_ne!(first, second);
        let class = arb_class(rng);
        let mut noc: Noc<u8> = Noc::new(mesh, NocConfig::default());
        for dir in [first, second] {
            let dst = mesh.neighbor(mesh.coord_of(src), dir).expect("interior");
            noc.send(Message {
                src,
                dst: mesh.id_of(dst),
                class,
                payload_bytes: 0,
                payload: 0,
            });
        }
        while !noc.is_idle() {
            noc.tick();
        }
        // One hop each: router + link + ejection = 7 cycles, plus one
        // for the flit that had to wait a cycle for its slot's front.
        let waited = (second.index() < first.index()) as u64;
        let latency = noc.stats().latency_of(class);
        assert_eq!(
            (latency.min(), latency.max()),
            (Some(7), Some(7 + waited)),
            "{first:?} then {second:?}"
        );
    });
}

/// The fifteen input rings of a [`Router`] against fifteen `VecDeque`s,
/// at every capacity from 1 to 8: random pushes (refused by
/// `has_space` exactly when the reference is full) and pops, long
/// enough for every ring to wrap many times. After each operation the
/// fronts, the occupancy and the request masks must agree.
#[test]
fn flat_rings_match_vecdeque_reference() {
    for cap in 1..=8u32 {
        forall_cases(&format!("flat_rings_match_vecdeque/{cap}"), 24, |rng| {
            let mut r = Router::new(cap);
            let mut model: [VecDeque<Flit>; NUM_SLOTS] = Default::default();
            let mut next = 0u32;
            for _ in 0..600 {
                // A few hot slots, so that they fill up and wrap.
                let slots = if rng.chance(0.7) { 3 } else { NUM_SLOTS };
                let slot = rng.next_below(slots as u64) as usize;
                assert_eq!(r.has_space(slot), model[slot].len() < cap as usize);
                if rng.chance(0.55) {
                    if r.has_space(slot) {
                        let flit = Flit::new(
                            next,
                            CoreId(rng.next_below(64) as u16),
                            rng.next_below(NUM_PORTS as u64) as u8,
                            rng.chance(0.5),
                            rng.chance(0.5),
                        );
                        next += 1;
                        r.push(slot, flit);
                        model[slot].push_back(flit);
                    }
                } else if let Some(want) = model[slot].pop_front() {
                    assert_eq!(r.pop(slot), want);
                }
                assert!(r.req_is_consistent(), "stale request mask: {r:?}");
                assert_eq!(r.buffered(), model.iter().map(VecDeque::len).sum::<usize>());
                for (s, q) in model.iter().enumerate() {
                    assert_eq!(r.front(s), q.front(), "slot {s}");
                }
                for out in 0..NUM_PORTS {
                    let asked = model
                        .iter()
                        .any(|q| q.front().is_some_and(|f| f.out as usize == out));
                    assert_eq!(r.requested(out), asked, "output {out}");
                }
            }
            assert!(next > 8 * cap, "the rings never wrapped");
        });
    }
}

/// The sparse tick — work lists walked by word, flits injected
/// straight into the local input VC by `send`, flits passed straight
/// through idle routers on landing — against the dense every-router
/// tick, which queues every flit at the network interface and takes no
/// shortcut: random paced traffic into both, and after every cycle the
/// same messages must have been delivered to the same tiles in the same
/// order, with the same statistics and the same `next_event()`, and
/// both must pass `check_conservation`. Every pass-through is a router
/// visit the dense tick makes and the sparse one does not. Narrow links
/// make most packets multi-flit, buffers go down to one flit, some
/// messages stay on their tile, and a tile often sends several messages
/// in one cycle.
#[test]
fn sparse_tick_matches_dense_tick_in_lockstep() {
    let (mut direct, mut transits) = (0u64, 0u64);
    forall_cases("sparse_tick_matches_dense_tick", 40, |rng| {
        let mesh = Mesh2D::new(1 + rng.next_below(4) as u16, 1 + rng.next_below(5) as u16);
        let tiles = mesh.num_tiles();
        let cfg = NocConfig {
            link_bytes: [16, 32, 75][rng.next_below(3) as usize],
            vc_buffer_flits: 1 + rng.next_below(4) as u32,
            ..NocConfig::default()
        };
        let mut sparse: Noc<usize> = Noc::new(mesh, cfg);
        let mut dense: Noc<usize> = Noc::new(mesh, cfg);
        dense.set_active_set_enabled(false);
        // Mean messages per cycle, from a trickle to past saturation.
        let rate = [0.05, 0.4, 1.4, 4.0][rng.next_below(4) as usize];
        let (mut tag, mut cycle) = (0, 0);
        while cycle < 400 || !sparse.is_idle() {
            if cycle < 400 && rng.chance(rate / 3.0) {
                // A burst from one tile, then perhaps one more sender.
                let mut src = rng.next_below(tiles as u64) as usize;
                for _ in 0..1 + rng.next_below(5) {
                    if rng.chance(0.2) {
                        src = rng.next_below(tiles as u64) as usize;
                    }
                    let t = Traffic {
                        src,
                        ..arb_traffic(rng, tiles)
                    };
                    for noc in [&mut sparse, &mut dense] {
                        noc.send(Message {
                            src: CoreId::from(t.src),
                            dst: CoreId::from(t.dst),
                            class: t.class,
                            payload_bytes: t.bytes,
                            payload: tag,
                        });
                    }
                    tag += 1;
                }
                let local = Dir::Local.index() * NUM_VCS;
                direct += (local..local + NUM_VCS)
                    .filter(|&s| sparse.router(CoreId::from(src)).front(s).is_some())
                    .count() as u64;
            }
            assert_eq!(sparse.next_event(), dense.next_event(), "cycle {cycle}");
            sparse.tick();
            dense.tick();
            for noc in [&sparse, &dense] {
                if let Err(e) = noc.check_conservation() {
                    panic!(
                        "cycle {cycle}, active sets {}: {e}",
                        noc.active_set_enabled()
                    );
                }
            }
            assert_eq!(sparse.stats(), dense.stats(), "cycle {cycle}");
            for tile in mesh.tiles() {
                assert_eq!(sparse.has_delivery_for(tile), dense.has_delivery_for(tile));
                while let Some(m) = sparse.recv(tile) {
                    assert_eq!(Some(m), dense.recv(tile), "cycle {cycle}, tile {tile}");
                }
                assert_eq!(dense.recv(tile), None, "cycle {cycle}, tile {tile}");
            }
            cycle += 1;
            assert!(cycle < 200_000, "network failed to drain");
        }
        assert!(dense.is_idle());
        assert_eq!(sparse.in_flight(), 0);
        let (s, d) = (sparse.sched_stats(), dense.sched_stats());
        assert!(s.inject_visits <= d.inject_visits);
        assert_eq!(d.transits, 0, "the dense tick passed a flit through");
        assert_eq!(s.router_visits + s.transits, d.router_visits);
        transits += s.transits;
    });
    assert!(direct > 0, "no send was injected directly");
    assert!(transits > 0, "no flit passed through an idle router");
}

/// A receiver that lets delivered messages wait changes nothing: random
/// traffic, a fifth of it same-tile (bypassing the mesh) and much of it
/// multi-flit, goes into two networks, one received from every cycle
/// and one only every few dozen cycles. Each tile must receive the same
/// messages in the same order from both, so per-tile FIFO order holds
/// across interleaved bypass and mesh deliveries; between ticks both
/// must agree on `in_flight`, `is_idle` and the statistics, pass
/// `check_conservation`, and the lazy one must report exactly the
/// messages it holds back.
#[test]
fn waiting_deliveries_keep_order_and_counts() {
    let mut most_waiting = 0;
    forall_cases("waiting_deliveries_keep_order_and_counts", 32, |rng| {
        let mesh = Mesh2D::new(1 + rng.next_below(4) as u16, 1 + rng.next_below(5) as u16);
        let tiles = mesh.num_tiles();
        let cfg = NocConfig {
            link_bytes: [16, 75][rng.next_below(2) as usize],
            vc_buffer_flits: 1 + rng.next_below(4) as u32,
            ..NocConfig::default()
        };
        let mut eager: Noc<usize> = Noc::new(mesh, cfg);
        let mut lazy: Noc<usize> = Noc::new(mesh, cfg);
        let every = 1 + rng.next_below(64);
        let mut got: Vec<Vec<usize>> = vec![Vec::new(); tiles];
        let mut want: Vec<Vec<usize>> = vec![Vec::new(); tiles];
        let mut waiting = 0;
        let mut cycle = 0;
        while cycle < 300 || !eager.is_idle() || waiting > 0 {
            if cycle < 300 && rng.chance(0.5) {
                let mut t = arb_traffic(rng, tiles);
                if rng.chance(0.2) {
                    t.dst = t.src;
                }
                for noc in [&mut eager, &mut lazy] {
                    noc.send(Message {
                        src: CoreId::from(t.src),
                        dst: CoreId::from(t.dst),
                        class: t.class,
                        payload_bytes: t.bytes,
                        payload: cycle as usize,
                    });
                }
            }
            eager.tick();
            lazy.tick();
            for tile in mesh.tiles() {
                while let Some(m) = eager.recv(tile) {
                    want[tile.index()].push(m.payload);
                    waiting += 1;
                }
            }
            if cycle % every == 0 || cycle >= 300 {
                for tile in mesh.tiles() {
                    while let Some(m) = lazy.recv(tile) {
                        got[tile.index()].push(m.payload);
                        waiting -= 1;
                    }
                }
            }
            most_waiting = most_waiting.max(waiting);
            for noc in [&eager, &lazy] {
                if let Err(e) = noc.check_conservation() {
                    panic!("cycle {cycle}: {e}");
                }
            }
            assert_eq!(lazy.in_flight(), eager.in_flight(), "cycle {cycle}");
            assert_eq!(lazy.is_idle(), eager.is_idle(), "cycle {cycle}");
            assert_eq!(lazy.stats(), eager.stats(), "cycle {cycle}");
            assert_eq!(lazy.has_deliveries(), waiting > 0, "cycle {cycle}");
            cycle += 1;
            assert!(cycle < 200_000, "network failed to drain");
        }
        assert_eq!(got, want);
        assert_eq!(lazy.in_flight(), 0);
        assert_eq!(lazy.next_event(), None);
    });
    assert!(most_waiting > 10, "at most {most_waiting} messages waited");
}

/// A delivered message is waiting for its receiver, not stuck in the
/// network: one mesh and one bypass message wait unreceived for three
/// watchdog checks (4,096 cycles apart), far past a watchdog of 64
/// cycles, while fresh traffic keeps the network loaded. Meanwhile they
/// count as waiting, not in flight, the network is idle whenever no
/// fresh packet is in it, and `next_event` reports work now.
#[test]
fn waiting_deliveries_do_not_trip_the_watchdog() {
    let mut noc: Noc<u32> = Noc::new(Mesh2D::new(2, 2), NocConfig::default());
    noc.set_watchdog(64);
    for (src, dst) in [(0, 1), (2, 2)] {
        noc.send(Message {
            src: CoreId(src),
            dst: CoreId(dst),
            class: MsgClass::Reply,
            payload_bytes: 64,
            payload: 7,
        });
    }
    assert_eq!(noc.in_flight(), 2);
    while noc.in_flight() > 0 {
        noc.tick();
        assert!(noc.now() < 100, "two messages still in flight");
    }
    assert!(noc.is_idle());
    assert!(noc.has_delivery_for(CoreId(1)) && noc.has_delivery_for(CoreId(2)));
    assert_eq!(noc.next_event(), Some(noc.now()));
    assert_eq!(noc.check_conservation(), Ok(()));
    let mut fresh = 0;
    while noc.now() < 3 * 4096 + 100 {
        if noc.now().is_multiple_of(8) {
            noc.send(Message {
                src: CoreId(0),
                dst: CoreId(3),
                class: MsgClass::Request,
                payload_bytes: 0,
                payload: 0,
            });
        }
        noc.tick();
        while noc.recv(CoreId(3)).is_some() {
            fresh += 1;
        }
        assert!(noc.in_flight() <= 2, "cycle {}", noc.now());
        assert_eq!(noc.is_idle(), noc.in_flight() == 0);
    }
    assert!(fresh > 1000, "only {fresh} fresh messages");
    assert_eq!(noc.check_conservation(), Ok(()));
    for dst in [1, 2] {
        assert_eq!(noc.recv(CoreId(dst)).map(|m| m.payload), Some(7));
    }
    while !noc.is_idle() {
        noc.tick();
    }
    while noc.recv(CoreId(3)).is_some() {}
    assert_eq!((noc.in_flight(), noc.next_event()), (0, None));
    assert_eq!(noc.check_conservation(), Ok(()));
}

//! Property tests for the G-line barrier network: for *any* mesh shape
//! and *any* arrival schedule, the barrier must be correct (nobody
//! escapes early, everybody is released) and the latency from the last
//! arrival must be the constant the hardware promises.
//!
//! Runs on the in-repo seed-sweep harness ([`sim_base::check`]) instead of
//! an external property-testing crate, so the suite builds fully offline.

#![allow(clippy::needless_range_loop)] // indexing parallel arrays

use gline_core::{BarrierHw, BarrierNetwork, ClusteredBarrierNetwork};
use sim_base::check::forall;
use sim_base::config::GlineConfig;
use sim_base::{CoreId, Mesh2D};

/// Drives `net` through one barrier with the given arrival schedule and
/// checks the fundamental properties along the way. Returns the latency
/// from last arrival to release.
fn drive<H: BarrierHw>(net: &mut H, arrivals: &[u64]) -> u64 {
    let n = arrivals.len();
    let last = *arrivals.iter().max().unwrap();
    let base = net.now();
    let mut released_at = None;
    for cycle in 0.. {
        for (i, &a) in arrivals.iter().enumerate() {
            if a == cycle {
                net.write_bar_reg(CoreId::from(i), 0, 1);
            }
        }
        // Before everyone has arrived, nobody may be released.
        if cycle <= last {
            for (i, &a) in arrivals.iter().enumerate() {
                if a < cycle {
                    assert_ne!(
                        net.bar_reg(CoreId::from(i), 0),
                        0,
                        "core {i} escaped at cycle {cycle} before all arrived (last={last})"
                    );
                }
            }
        }
        net.tick();
        if net.all_released(0) && cycle >= last {
            released_at = Some(net.now() - base - 1);
            break;
        }
        assert!(cycle < last + 1000, "barrier never completed");
    }
    let released_at = released_at.unwrap();
    assert!((0..n).all(|i| net.bar_reg(CoreId::from(i), 0) == 0));
    released_at - last + 1
}

#[test]
fn flat_network_always_releases_in_4_cycles() {
    forall("flat_network_always_releases_in_4_cycles", |rng| {
        let rows = 1 + rng.next_below(8) as u16;
        let cols = 1 + rng.next_below(8) as u16;
        let spread = rng.next_below(200);
        let mesh = Mesh2D::new(rows, cols);
        let n = mesh.num_tiles();
        let arrivals: Vec<u64> = (0..n)
            .map(|_| {
                if spread == 0 {
                    0
                } else {
                    rng.next_below(spread + 1)
                }
            })
            .collect();
        let mut net = BarrierNetwork::new(mesh, GlineConfig::default());
        let lat = drive(&mut net, &arrivals);
        assert_eq!(lat, 4, "arrivals: {arrivals:?}");
    });
}

#[test]
fn flat_network_back_to_back_episodes() {
    forall("flat_network_back_to_back_episodes", |rng| {
        let rows = 1 + rng.next_below(6) as u16;
        let cols = 1 + rng.next_below(6) as u16;
        let episodes = 1 + rng.next_below(4) as usize;
        let mesh = Mesh2D::new(rows, cols);
        let n = mesh.num_tiles();
        let mut net = BarrierNetwork::new(mesh, GlineConfig::default());
        for _ in 0..episodes {
            let arrivals: Vec<u64> = (0..n).map(|_| rng.next_below(30)).collect();
            let lat = drive(&mut net, &arrivals);
            assert_eq!(lat, 4);
        }
        assert_eq!(net.stats(0).barriers_completed, episodes as u64);
        assert_eq!(net.stats(0).mean_latency(), 4.0);
    });
}

#[test]
fn clustered_network_constant_latency() {
    forall("clustered_network_constant_latency", |rng| {
        let rows = 9 + rng.next_below(12) as u16;
        let cols = 9 + rng.next_below(12) as u16;
        let mesh = Mesh2D::new(rows, cols);
        let n = mesh.num_tiles();
        let arrivals: Vec<u64> = (0..n).map(|_| rng.next_below(50)).collect();
        let mut net = ClusteredBarrierNetwork::new(mesh, GlineConfig::default());
        let lat = drive(&mut net, &arrivals);
        assert_eq!(lat, 7, "{rows}x{cols}");
    });
}

#[test]
fn masked_contexts_release_members_in_4_cycles() {
    forall("masked_contexts_release_members_in_4_cycles", |rng| {
        let rows = 1 + rng.next_below(6) as u16;
        let cols = 1 + rng.next_below(6) as u16;
        let mesh = Mesh2D::new(rows, cols);
        let n = mesh.num_tiles();
        let mut mask: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        if !mask.iter().any(|&m| m) {
            mask[rng.next_below(n as u64) as usize] = true;
        }
        let cfg = GlineConfig {
            contexts: 1,
            ..GlineConfig::default()
        };
        let mut net = BarrierNetwork::with_members(mesh, cfg, vec![mask.clone()]);
        // Stagger the member arrivals.
        let arrivals: Vec<u64> = (0..n).map(|_| rng.next_below(20)).collect();
        let last = (0..n)
            .filter(|&i| mask[i])
            .map(|i| arrivals[i])
            .max()
            .unwrap();
        for cycle in 0..(last + 10) {
            for i in 0..n {
                if mask[i] && arrivals[i] == cycle {
                    net.write_bar_reg(CoreId::from(i), 0, 1);
                }
            }
            // Nobody escapes early.
            if cycle <= last {
                for i in 0..n {
                    if mask[i] && arrivals[i] < cycle {
                        assert_ne!(net.bar_reg(CoreId::from(i), 0), 0, "core {i} escaped");
                    }
                }
            }
            net.tick();
        }
        assert!(net.all_released(0), "mask {mask:?} arrivals {arrivals:?}");
        assert_eq!(net.stats(0).latency.max(), Some(4));
        // Non-members were never disturbed.
        for i in 0..n {
            if !mask[i] {
                assert_eq!(net.bar_reg(CoreId::from(i), 0), 0);
            }
        }
    });
}

#[test]
fn contexts_do_not_interfere() {
    forall("contexts_do_not_interfere", |rng| {
        let mesh = Mesh2D::new(3, 3);
        let cfg = GlineConfig {
            contexts: 3,
            ..GlineConfig::default()
        };
        let mut net = BarrierNetwork::new(mesh, cfg);
        // Arrive in all three contexts at staggered times; each context
        // must complete independently.
        let schedules: Vec<Vec<u64>> = (0..3)
            .map(|_| (0..9).map(|_| rng.next_below(40)).collect())
            .collect();
        for cycle in 0..200u64 {
            for (ctx, schedule) in schedules.iter().enumerate() {
                for (i, &a) in schedule.iter().enumerate() {
                    if a == cycle {
                        net.write_bar_reg(CoreId::from(i), ctx, 1);
                    }
                }
            }
            net.tick();
        }
        for ctx in 0..3 {
            assert!(net.all_released(ctx), "context {ctx} stuck");
            assert_eq!(net.stats(ctx).barriers_completed, 1);
            assert_eq!(net.stats(ctx).latency.max(), Some(4));
        }
    });
}

/// Drives `net` through several episodes per context, every member
/// re-arriving a random delay after it saw its own release, and checks
/// the [`BarrierHw::release_bound`] contract a simulator parks `bar_reg`
/// spinners on, cycle by cycle:
///
/// * read at the top of a cycle — before that cycle's arrivals — a
///   bound of 2 or more means no `bar_reg` clears in that cycle's
///   `tick()`, whoever arrives in between;
/// * the bound is 1 from the cycle after a context's last member
///   arrived until that context is `all_released`, and the hardware's
///   propagation `floor` (so a spinner can park at all) whenever no
///   context is in that window.
fn check_release_bound<H: BarrierHw>(
    net: &mut H,
    masks: &[Vec<bool>],
    floor: u64,
    rng: &mut sim_base::rng::SplitMix64,
) {
    let n = net.num_cores();
    let episodes = 2 + rng.next_below(3);
    let spread = rng.next_below(60);
    let mut delay = || rng.next_below(spread + 1);
    // Per (context, member): episodes left to enter, and the cycle of
    // its next arrival (`None` while it waits for its release).
    let mut left: Vec<Vec<u64>> = masks.iter().map(|_| vec![episodes; n]).collect();
    let mut next: Vec<Vec<Option<u64>>> = masks
        .iter()
        .map(|m| m.iter().map(|&member| member.then(&mut delay)).collect())
        .collect();
    let mut releasing = vec![false; masks.len()];
    let set = |net: &H, ctx: usize, i: usize| net.bar_reg(CoreId::from(i), ctx) != 0;
    let mut cycle = 0u64;
    while left
        .iter()
        .zip(masks)
        .any(|(l, m)| l.iter().zip(m).any(|(&l, &member)| member && l > 0))
        || releasing.iter().any(|&r| r)
    {
        let bound = net.release_bound();
        if releasing.iter().any(|&r| r) {
            assert_eq!(bound, 1, "cycle {cycle}: a release is in flight");
        } else {
            assert_eq!(bound, floor, "cycle {cycle}: some member is still missing");
        }
        for (ctx, mask) in masks.iter().enumerate() {
            for i in (0..n).filter(|&i| mask[i]) {
                if next[ctx][i] == Some(cycle) {
                    net.write_bar_reg(CoreId::from(i), ctx, 1);
                    next[ctx][i] = None;
                    left[ctx][i] -= 1;
                }
            }
            if (0..n).all(|i| !mask[i] || set(net, ctx, i)) {
                releasing[ctx] = true;
            }
        }
        let before: Vec<Vec<bool>> = (0..masks.len())
            .map(|ctx| (0..n).map(|i| set(net, ctx, i)).collect())
            .collect();
        net.tick();
        for (ctx, mask) in masks.iter().enumerate() {
            for i in (0..n).filter(|&i| mask[i]) {
                if before[ctx][i] && !set(net, ctx, i) {
                    assert!(
                        bound <= 1,
                        "cycle {cycle}: core {i}'s bar_reg (ctx {ctx}) cleared under a bound of {bound}"
                    );
                    // Released: next episode, if any, a random delay on.
                    if left[ctx][i] > 0 {
                        next[ctx][i] = Some(cycle + 1 + delay());
                    }
                }
            }
            if net.all_released(ctx) {
                releasing[ctx] = false;
            }
        }
        cycle += 1;
        assert!(cycle < 100_000, "episodes never completed");
    }
    for ctx in 0..masks.len() {
        assert_eq!(net.stats(ctx).barriers_completed, episodes, "ctx {ctx}");
    }
}

#[test]
fn release_bound_rules_out_clears_on_flat_networks() {
    forall("release_bound_rules_out_clears_on_flat_networks", |rng| {
        let rows = 1 + rng.next_below(8) as u16;
        let cols = 1 + rng.next_below(8) as u16;
        let mesh = Mesh2D::new(rows, cols);
        let n = mesh.num_tiles();
        let contexts = 1 + rng.next_below(3) as u32;
        // Half the cases synchronize every core in every context, the
        // rest draw a random participation mask per context.
        let everyone = rng.chance(0.5);
        let masks: Vec<Vec<bool>> = (0..contexts)
            .map(|_| {
                let mut mask: Vec<bool> = (0..n).map(|_| everyone || rng.chance(0.5)).collect();
                if !mask.iter().any(|&m| m) {
                    mask[rng.next_below(n as u64) as usize] = true;
                }
                mask
            })
            .collect();
        let cfg = GlineConfig {
            contexts,
            ..GlineConfig::default()
        };
        let mut net = BarrierNetwork::with_members(mesh, cfg, masks.clone());
        check_release_bound(&mut net, &masks, 4, rng);
    });
}

#[test]
fn release_bound_rules_out_clears_on_clustered_networks() {
    sim_base::check::forall_cases(
        "release_bound_rules_out_clears_on_clustered_networks",
        12,
        |rng| {
            let dim = if rng.chance(0.5) { 16 } else { 32 };
            let mesh = Mesh2D::new(dim, dim);
            let mut net = ClusteredBarrierNetwork::new(mesh, GlineConfig::default());
            let everyone = vec![vec![true; mesh.num_tiles()]];
            check_release_bound(&mut net, &everyone, 7, rng);
        },
    );
}

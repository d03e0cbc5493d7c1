//! Failure injection and misuse: the hardware models must fail loudly
//! and diagnosably, not corrupt state.

use gline_cmp::base::config::{CmpConfig, GlineConfig, NocConfig};
use gline_cmp::base::stats::MsgClass;
use gline_cmp::base::{CoreId, Mesh2D};
use gline_cmp::cmp::System;
use gline_cmp::gline::{BarrierNetwork, ClusteredBarrierNetwork};
use gline_cmp::isa::assemble;
use gline_cmp::noc::{Message, Noc};

/// Electrical violation: a mesh wider than the transmitter budget at
/// unit line latency must be rejected at construction.
#[test]
#[should_panic(expected = "G-line budget")]
fn oversized_mesh_rejected() {
    let _ = BarrierNetwork::new(Mesh2D::new(9, 9), GlineConfig::default());
}

/// The strict published budget (6 transmitters) rejects even the paper's
/// own 4×8 machine — the inconsistency documented in DESIGN.md.
#[test]
#[should_panic(expected = "G-line budget")]
fn strict_budget_rejects_papers_own_mesh() {
    let cfg = GlineConfig {
        max_transmitters: 6,
        ..GlineConfig::default()
    };
    let _ = BarrierNetwork::new(Mesh2D::new(4, 8), cfg);
}

/// Meshes needing three G-line levels are out of scope and must say so.
#[test]
#[should_panic(expected = "more than two G-line levels")]
fn three_level_cluster_rejected() {
    let _ = ClusteredBarrierNetwork::new(Mesh2D::new(70, 70), GlineConfig::default());
}

/// Misuse: a zero arrival write is a programming error (the paper's
/// protocol encodes arrival as "nonzero").
#[test]
#[should_panic(expected = "nonzero")]
fn zero_bar_reg_write_rejected() {
    let mut net = BarrierNetwork::new(Mesh2D::new(2, 2), GlineConfig::default());
    net.write_bar_reg(CoreId(0), 0, 0);
}

/// Misuse: triggering a gated release before the barrier completed.
#[test]
#[should_panic(expected = "trigger_release")]
fn premature_gated_release_rejected() {
    let mut net = BarrierNetwork::gated(Mesh2D::new(2, 2), GlineConfig::default());
    net.trigger_release(0);
}

/// A core that never reaches the barrier hangs the others; the system
/// run must time out with a diagnosable error instead of spinning
/// forever.
#[test]
fn missing_participant_reported_by_deadlock_guard() {
    let arrive = assemble("li r1, 1\nbarw r1\nw: barr r2\nbne r2, r0, w\nhalt").unwrap();
    let never = assemble("busy 100\nhalt").unwrap(); // halts without barw
    let cfg = CmpConfig::icpp2010_with_cores(4);
    let mut sys = System::new(cfg, vec![arrive.clone(), arrive.clone(), arrive, never]);
    let err = sys.run(50_000).unwrap_err();
    assert!(err.contains("did not halt"), "{err}");
    assert!(err.contains("core0"), "stuck cores must be named: {err}");
    assert!(!err.contains("core3"), "the defector halted fine: {err}");
}

/// The NoC watchdog names the stuck packet instead of hanging silently.
#[test]
#[should_panic(expected = "watchdog")]
fn noc_watchdog_fires() {
    let mut noc: Noc<u8> = Noc::new(Mesh2D::new(1, 2), NocConfig::default());
    noc.set_watchdog(0);
    for _ in 0..10_000 {
        noc.send(Message {
            src: CoreId(0),
            dst: CoreId(1),
            class: MsgClass::Request,
            payload_bytes: 64,
            payload: 0,
        });
    }
    for _ in 0..5000 {
        noc.tick();
    }
}

/// Unaligned accesses fault rather than silently truncating: the run
/// stops with an error naming the core, the pc and the fault.
#[test]
fn unaligned_access_faults() {
    let prog = assemble("li r1, 4\nld r2, 0(r1)\nhalt").unwrap();
    let mut sys = System::homogeneous(CmpConfig::icpp2010_with_cores(2), prog);
    let err = sys.run(1000).unwrap_err();
    assert_eq!(err, "core0 faulted at pc 1: unaligned access at 0x4");
    assert!(sys.core(CoreId(1)).fault().is_some(), "both cores fault");
}

/// Program bugs that jump outside the text segment are caught.
#[test]
fn wild_jump_caught() {
    let prog = assemble("li r1, 999\njalr r0, r1\nhalt").unwrap();
    let mut sys = System::homogeneous(CmpConfig::icpp2010_with_cores(1), prog);
    let err = sys.run(1000).unwrap_err();
    assert_eq!(err, "core0 faulted at pc 1: control transfer to bad pc 999");
}

/// A barrier network survives cores re-entering immediately (no settle
/// cycles between episodes).
#[test]
fn immediate_reentry_is_safe() {
    let mesh = Mesh2D::new(2, 2);
    let mut net = BarrierNetwork::new(mesh, GlineConfig::default());
    for _ in 0..50 {
        for i in 0..4 {
            net.write_bar_reg(CoreId(i), 0, 1);
        }
        // Tick only until released, then immediately re-enter.
        let mut guard = 0;
        while !net.all_released(0) {
            net.tick();
            guard += 1;
            assert!(guard < 20);
        }
    }
    assert_eq!(net.stats(0).barriers_completed, 50);
    assert_eq!(net.stats(0).mean_latency(), 4.0);
}

//! Regression corpus for the checker itself: two deliberately seeded
//! bugs — each a real-world bug class of its primitive — that the
//! explorer **must** detect. If a refactor of the scheduler,
//! the sleep sets, or the modeled primitives ever stops finding these,
//! this suite fails and the checker can no longer be trusted.
//!
//! * `ModelSpinBarrier::new_broken_late_reset` — the arrival-count
//!   reset moved after the waiter release. A participant that starts
//!   the next episode before the late reset lands has its arrival
//!   wiped; the barrier then waits forever. Surfaces as a deadlock.
//! * `ModelEpochGate::new_broken_unlocked_ring` — the doorbell bump and
//!   notify without the doorbell mutex. The notify can land between a
//!   parking worker's sequence check and its wait: a textbook lost
//!   wakeup. Also surfaces as a deadlock.
//!
//! Each is checked on the minimal scenario that exposes it.

use sim_check::models::{ModelEpochGate, ModelSpinBarrier};
use sim_check::sync::spawn;
use sim_check::{Explorer, Report, ViolationKind};
use std::sync::Arc;

/// The violation must exist, be a deadlock, and carry a non-empty
/// schedule trace (the repro the checker hands to a human).
fn expect_deadlock(r: &Report, what: &str) {
    let v = r.violation.as_ref().unwrap_or_else(|| {
        panic!(
            "{what}: seeded bug not detected ({} executions)",
            r.executions
        )
    });
    assert_eq!(
        v.kind,
        ViolationKind::Deadlock,
        "{what}: expected a deadlock, got {v:?}"
    );
    assert!(
        !v.trace.is_empty(),
        "{what}: violation carries no repro trace"
    );
}

#[test]
fn broken_barrier_late_reset_deadlocks() {
    // Two participants, two episodes, nothing else: the minimal
    // scenario. The deadlock needs a second episode — the wiped arrival
    // only matters once somebody arrives again.
    let r = Explorer::default().check(|| {
        let barrier = Arc::new(ModelSpinBarrier::new_broken_late_reset(2, 0));
        let b = barrier.clone();
        let h = spawn("p1", move || {
            let mut sense = false;
            for _ in 0..2 {
                b.wait(&mut sense);
            }
        });
        let mut sense = false;
        for _ in 0..2 {
            barrier.wait(&mut sense);
        }
        h.join();
    });
    expect_deadlock(&r, "broken barrier (direct)");
    eprintln!(
        "broken barrier direct: caught after {} executions",
        r.executions
    );
}

#[test]
fn broken_gate_unlocked_ring_loses_wakeup() {
    // Coordinator + one worker, one epoch, spin budget 0 (the worker
    // always parks — the lost notify has maximal opportunity).
    let r = Explorer::default().check(|| {
        let gate = Arc::new(ModelEpochGate::new_broken_unlocked_ring(2, 0));
        let g = gate.clone();
        let h = spawn("w1", move || {
            let mut seen = 0u64;
            loop {
                if g.wait_for_ring(1, &mut seen) {
                    return;
                }
                g.arrive();
            }
        });
        gate.open_epoch(&[false, true]);
        gate.join(1);
        gate.close();
        h.join();
    });
    expect_deadlock(&r, "broken gate (direct)");
    eprintln!(
        "broken gate direct: caught after {} executions",
        r.executions
    );
}

//! Exhaustive model checking of the explorer's fixture algorithms
//! (`sim_check::models`): every interleaving at 2–4 participants, zero
//! violations required.
//!
//! The properties:
//!
//! * the barrier provides **all-to-all happens-before** — every
//!   participant's pre-wait writes are readable race-free by every
//!   participant post-wait;
//! * the barrier is **immediately reusable** (sense reversal): episodes
//!   back-to-back on the same barrier never deadlock;
//! * the gate's doorbell protocol **never loses a wakeup** — a rung
//!   worker always gets through (a lost wakeup would surface as a
//!   deadlock in some interleaving, as `tests/broken.rs` demonstrates
//!   on the seeded-broken variant);
//! * un-rung workers **stay parked** and `close` wakes everyone.

use sim_check::models::{ModelEpochGate, ModelSpinBarrier};
use sim_check::sync::{spawn, AtomicU64, RaceCell};
use sim_check::Explorer;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// `n` participants, `episodes` write/read rounds: each thread writes
/// its own cell, crosses the barrier, then reads *every* cell — the
/// strongest happens-before claim the barrier makes.
fn barrier_all_to_all(n: usize, episodes: u64, spin_limit: u32) {
    let barrier = Arc::new(ModelSpinBarrier::new(n, spin_limit));
    let cells: Arc<Vec<RaceCell<u64>>> = Arc::new(
        (0..n)
            .map(|i| RaceCell::new(0, &format!("cell[{i}]")))
            .collect(),
    );
    let body = move |i: usize, barrier: Arc<ModelSpinBarrier>, cells: Arc<Vec<RaceCell<u64>>>| {
        let mut sense = false;
        for ep in 1..=episodes {
            cells[i].set(ep);
            barrier.wait(&mut sense);
            for (j, c) in cells.iter().enumerate() {
                assert_eq!(c.get(), ep, "thread {i} read stale cell {j}");
            }
            barrier.wait(&mut sense);
        }
    };
    let handles: Vec<_> = (1..n)
        .map(|i| {
            let (b, c, f) = (barrier.clone(), cells.clone(), body);
            spawn(&format!("p{i}"), move || f(i, b, c))
        })
        .collect();
    body(0, barrier, cells);
    for h in handles {
        h.join();
    }
}

#[test]
fn barrier_all_to_all_hb_2x2() {
    let r = Explorer::default().check(|| barrier_all_to_all(2, 2, 0));
    r.assert_ok();
    eprintln!(
        "barrier 2x2: {} executions, {} pruned",
        r.executions, r.pruned
    );
}

#[test]
fn barrier_all_to_all_hb_2x1_with_spin_budget() {
    // spin budget 1 covers the spin-exit fast path as well as parking.
    let r = Explorer::default().check(|| barrier_all_to_all(2, 1, 1));
    r.assert_ok();
}

#[test]
fn barrier_all_to_all_hb_3x1() {
    let r = Explorer::default().check(|| barrier_all_to_all(3, 1, 0));
    r.assert_ok();
    eprintln!(
        "barrier 3x1: {} executions, {} pruned",
        r.executions, r.pruned
    );
}

#[test]
fn barrier_neighbor_hb_4x1() {
    // Four participants, one crossing: each writes its own cell before
    // the barrier and reads its neighbor's after. Same happens-before
    // claim as the all-to-all variant, pairwise instead of quadratic,
    // which keeps a 4-way exhaustive exploration tractable.
    let r = Explorer::default().check(|| {
        let n = 4;
        let barrier = Arc::new(ModelSpinBarrier::new(n, 0));
        let cells: Arc<Vec<RaceCell<u64>>> = Arc::new(
            (0..n)
                .map(|i| RaceCell::new(0, &format!("cell[{i}]")))
                .collect(),
        );
        let body =
            move |i: usize, barrier: Arc<ModelSpinBarrier>, cells: Arc<Vec<RaceCell<u64>>>| {
                let mut sense = false;
                cells[i].set(i as u64 + 1);
                barrier.wait(&mut sense);
                let j = (i + 1) % cells.len();
                assert_eq!(
                    cells[j].get(),
                    j as u64 + 1,
                    "thread {i} read stale cell {j}"
                );
            };
        let handles: Vec<_> = (1..n)
            .map(|i| {
                let (b, c, f) = (barrier.clone(), cells.clone(), body);
                spawn(&format!("p{i}"), move || f(i, b, c))
            })
            .collect();
        body(0, barrier, cells);
        for h in handles {
            h.join();
        }
    });
    r.assert_ok();
    eprintln!(
        "barrier 4x1: {} executions, {} pruned",
        r.executions, r.pruned
    );
}

#[test]
fn barrier_reusable_back_to_back() {
    // One barrier crossing per episode with nothing between: the pure
    // sense-reversal reuse claim (a non-reusable barrier deadlocks).
    let r = Explorer::default().check(|| {
        let n = 2;
        let episodes = 3u64;
        let barrier = Arc::new(ModelSpinBarrier::new(n, 0));
        let hits = Arc::new(AtomicU64::new(0, "hits"));
        let (b, h) = (barrier.clone(), hits.clone());
        let handle = spawn("p1", move || {
            let mut sense = false;
            for _ in 0..episodes {
                h.fetch_add(1, Ordering::AcqRel);
                b.wait(&mut sense);
            }
        });
        let mut sense = false;
        for _ in 0..episodes {
            hits.fetch_add(1, Ordering::AcqRel);
            barrier.wait(&mut sense);
        }
        handle.join();
        assert_eq!(hits.load(Ordering::Acquire), 2 * episodes);
    });
    r.assert_ok();
}

#[test]
fn gate_rung_worker_always_passes() {
    // Coordinator + 1 worker, 2 epochs: the worker is rung each epoch,
    // writes its cell, arrives; the coordinator joins then reads the
    // cell. No interleaving may lose the ring or race the read.
    let r = Explorer::default().check(|| {
        let gate = Arc::new(ModelEpochGate::new(2, 0));
        let cell = Arc::new(RaceCell::new(0u64, "shard1"));
        let (g, c) = (gate.clone(), cell.clone());
        let h = spawn("w1", move || {
            let mut seen = 0u64;
            loop {
                if g.wait_for_ring(1, &mut seen) {
                    return;
                }
                c.set(c.get() + 1);
                g.arrive();
            }
        });
        for ep in 1..=2u64 {
            gate.open_epoch(&[false, true]);
            gate.join(1);
            assert_eq!(cell.get(), ep, "worker missed epoch {ep}");
        }
        gate.close();
        h.join();
    });
    r.assert_ok();
    eprintln!(
        "gate 2p x2ep: {} executions, {} pruned",
        r.executions, r.pruned
    );
}

#[test]
fn gate_unrung_worker_stays_parked() {
    // Coordinator + 2 workers; only worker 1 is ever rung. Worker 2's
    // cell must never move, and `close` must still wake it.
    let r = Explorer::default().check(|| {
        let gate = Arc::new(ModelEpochGate::new(3, 0));
        let cells: Arc<Vec<RaceCell<u64>>> =
            Arc::new(vec![RaceCell::new(0, "shard1"), RaceCell::new(0, "shard2")]);
        let handles: Vec<_> = (1..3)
            .map(|w| {
                let (g, c) = (gate.clone(), cells.clone());
                spawn(&format!("w{w}"), move || {
                    let mut seen = 0u64;
                    loop {
                        if g.wait_for_ring(w, &mut seen) {
                            return;
                        }
                        c[w - 1].set(c[w - 1].get() + 1);
                        g.arrive();
                    }
                })
            })
            .collect();
        gate.open_epoch(&[false, true, false]);
        gate.join(1);
        assert_eq!(cells[0].get(), 1);
        assert_eq!(cells[1].get(), 0, "un-rung worker ran");
        gate.close();
        for h in handles {
            h.join();
        }
    });
    r.assert_ok();
    eprintln!(
        "gate 3p selective: {} executions, {} pruned",
        r.executions, r.pruned
    );
}

#[test]
fn gate_close_wakes_parked_workers() {
    // No epoch is ever opened: close alone must unblock every worker.
    let r = Explorer::default().check(|| {
        let gate = Arc::new(ModelEpochGate::new(3, 0));
        let handles: Vec<_> = (1..3)
            .map(|w| {
                let g = gate.clone();
                spawn(&format!("w{w}"), move || {
                    let mut seen = 0u64;
                    assert!(g.wait_for_ring(w, &mut seen), "woke without close");
                })
            })
            .collect();
        gate.close();
        for h in handles {
            h.join();
        }
    });
    r.assert_ok();
}

#[test]
fn gate_all_idle_epoch_is_free() {
    // `open_epoch` with nobody active must not touch the gate at all —
    // join(0) returns immediately and workers stay parked.
    let r = Explorer::default().check(|| {
        let gate = Arc::new(ModelEpochGate::new(2, 0));
        let g = gate.clone();
        let h = spawn("w1", move || {
            let mut seen = 0u64;
            assert!(g.wait_for_ring(1, &mut seen), "rung by an idle epoch");
        });
        gate.open_epoch(&[false, false]);
        gate.join(0);
        gate.close();
        h.join();
    });
    r.assert_ok();
}

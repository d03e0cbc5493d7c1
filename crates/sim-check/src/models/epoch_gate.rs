//! A doorbell-and-latch rendezvous (explorer fixture).

use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex};
use std::sync::atomic::Ordering;

/// One worker's doorbell: ring sequence number plus a condvar to park
/// on.
#[derive(Debug)]
struct ModelDoorbell {
    seq: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl ModelDoorbell {
    fn new(w: usize) -> ModelDoorbell {
        ModelDoorbell {
            seq: AtomicU64::new(0, &format!("doorbell[{w}].seq")),
            lock: Mutex::new((), &format!("doorbell[{w}].lock")),
            cv: Condvar::new(&format!("doorbell[{w}].cv")),
        }
    }
}

/// A coordinator/worker rendezvous written against the modeled
/// primitives: per-worker doorbells plus one join latch. The spin
/// budget is a parameter.
#[derive(Debug)]
pub struct ModelEpochGate {
    doorbells: Vec<ModelDoorbell>,
    remaining: AtomicUsize,
    join_lock: Mutex<()>,
    join_cv: Condvar,
    stop: AtomicBool,
    spin_limit: u32,
    /// Seeded bug: ring a doorbell *without* taking its mutex. The
    /// notify can then land in the window between a worker's
    /// sequence check (made under the mutex) and its wait — a textbook
    /// lost wakeup, and exactly the bug class `ring` takes its lock
    /// against.
    unlocked_ring: bool,
}

impl ModelEpochGate {
    /// A correct gate for `workers` total participants (coordinator
    /// included, as in the original) with the given spin budget.
    pub fn new(workers: usize, spin_limit: u32) -> ModelEpochGate {
        Self::build(workers, spin_limit, false)
    }

    /// The broken variant: doorbell rings skip the doorbell mutex.
    /// Deadlocks (lost wakeup) under one coordinator + one worker ×
    /// one epoch; part of the detector regression corpus
    /// (`tests/broken.rs`).
    pub fn new_broken_unlocked_ring(workers: usize, spin_limit: u32) -> ModelEpochGate {
        Self::build(workers, spin_limit, true)
    }

    fn build(workers: usize, spin_limit: u32, unlocked_ring: bool) -> ModelEpochGate {
        assert!(workers >= 1);
        ModelEpochGate {
            doorbells: (1..workers).map(ModelDoorbell::new).collect(),
            remaining: AtomicUsize::new(0, "gate.remaining"),
            join_lock: Mutex::new((), "gate.join_lock"),
            join_cv: Condvar::new("gate.join_cv"),
            stop: AtomicBool::new(false, "gate.stop"),
            spin_limit,
            unlocked_ring,
        }
    }

    /// Opens a round: arms the join latch for the rung workers, then
    /// rings their doorbells.
    pub fn open_epoch(&self, active: &[bool]) {
        debug_assert_eq!(active.len(), self.doorbells.len() + 1);
        let rung = active[1..].iter().filter(|&&a| a).count();
        if rung == 0 {
            return;
        }
        self.remaining.store(rung, Ordering::Release);
        for (i, db) in self.doorbells.iter().enumerate() {
            if active[i + 1] {
                self.ring(db);
            }
        }
    }

    fn ring(&self, db: &ModelDoorbell) {
        if self.unlocked_ring {
            // BUG (seeded): the bump-and-notify is not covered by the
            // doorbell mutex, so it can slot between a parking worker's
            // check and its wait.
            db.seq.fetch_add(1, Ordering::Release);
            db.cv.notify_one();
        } else {
            // Bump under the mutex: a worker that checked the sequence
            // and decided to park re-checks under the same mutex, so
            // the notify cannot be lost.
            let _g = db.lock.lock();
            db.seq.fetch_add(1, Ordering::Release);
            db.cv.notify_one();
        }
    }

    /// A worker's wait for its doorbell: spin briefly, then park
    /// under the doorbell mutex with a re-check loop. Returns `true`
    /// when the gate has been closed.
    pub fn wait_for_ring(&self, w: usize, last_seen: &mut u64) -> bool {
        let db = &self.doorbells[w - 1];
        let mut spins = 0u32;
        while db.seq.load(Ordering::Acquire) == *last_seen {
            if spins < self.spin_limit {
                spins += 1;
                continue;
            }
            let mut g = db.lock.lock();
            while db.seq.load(Ordering::Acquire) == *last_seen {
                g = db.cv.wait(g);
            }
            drop(g);
            break;
        }
        *last_seen = db.seq.load(Ordering::Acquire);
        self.stop.load(Ordering::Acquire)
    }

    /// The rung worker's arrival at the join latch.
    pub fn arrive(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.join_lock.lock();
            self.join_cv.notify_one();
        }
    }

    /// The coordinator's wait for every
    /// rung worker (`rung == 0` ⇒ free).
    pub fn join(&self, rung: usize) {
        if rung == 0 {
            return;
        }
        for _ in 0..self.spin_limit {
            if self.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
        }
        let mut g = self.join_lock.lock();
        while self.remaining.load(Ordering::Acquire) != 0 {
            g = self.join_cv.wait(g);
        }
        drop(g);
    }

    /// Closes the gate: raises the stop flag and rings every doorbell.
    pub fn close(&self) {
        self.stop.store(true, Ordering::Release);
        for db in &self.doorbells {
            self.ring(db);
        }
    }
}

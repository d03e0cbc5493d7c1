//! A sense-reversing centralized thread barrier (explorer fixture).

use crate::sync::{AtomicBool, AtomicUsize, Condvar, Mutex};
use std::sync::atomic::Ordering;

/// The sense-reversing centralized barrier, written against the
/// modeled primitives. The spin budget is a parameter so scenarios can
/// cover both the spin-exit and the park-exit paths cheaply.
#[derive(Debug)]
pub struct ModelSpinBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
    spin_limit: u32,
    /// Seeded bug: reset the arrival count *after* releasing the
    /// waiters instead of before. A waiter that starts the next episode
    /// before the late reset lands has its arrival wiped — the barrier
    /// then waits for a participant that already passed, forever.
    late_reset: bool,
}

impl ModelSpinBarrier {
    /// A correct barrier for `n` participants with the given spin
    /// budget (0 ⇒ every waiter parks).
    pub fn new(n: usize, spin_limit: u32) -> ModelSpinBarrier {
        Self::build(n, spin_limit, false)
    }

    /// The broken variant: arrival-count reset moved after the release.
    /// Deadlocks under 2 participants × 2 episodes; part of the
    /// detector regression corpus (`tests/broken.rs`).
    pub fn new_broken_late_reset(n: usize, spin_limit: u32) -> ModelSpinBarrier {
        Self::build(n, spin_limit, true)
    }

    fn build(n: usize, spin_limit: u32, late_reset: bool) -> ModelSpinBarrier {
        assert!(n > 0, "a barrier needs at least one participant");
        ModelSpinBarrier {
            n,
            count: AtomicUsize::new(0, "barrier.count"),
            sense: AtomicBool::new(false, "barrier.sense"),
            lock: Mutex::new((), "barrier.lock"),
            cv: Condvar::new("barrier.cv"),
            spin_limit,
            late_reset,
        }
    }

    /// Crosses the barrier: the last arrival flips the sense and wakes
    /// the others, who spin briefly and then park.
    pub fn wait(&self, local_sense: &mut bool) {
        let sense = !*local_sense;
        *local_sense = sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            if !self.late_reset {
                self.count.store(0, Ordering::Relaxed);
            }
            // The flip happens under the mutex so that a waiter which
            // checked the sense and decided to park cannot lose the
            // wakeup (it re-checks under the same mutex).
            {
                let _g = self.lock.lock();
                self.sense.store(sense, Ordering::Release);
                self.cv.notify_all();
            }
            if self.late_reset {
                // BUG (seeded): by now a released waiter may already
                // have arrived for the next episode; this store erases
                // that arrival.
                self.count.store(0, Ordering::Relaxed);
            }
        } else {
            for _ in 0..self.spin_limit {
                if self.sense.load(Ordering::Acquire) == sense {
                    return;
                }
            }
            let mut g = self.lock.lock();
            while self.sense.load(Ordering::Acquire) != sense {
                g = self.cv.wait(g);
            }
            drop(g);
        }
    }
}

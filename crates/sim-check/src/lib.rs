//! # sim-check — in-tree concurrency model checker
//!
//! A loom-style exhaustive-interleaving explorer (`DESIGN.md` §12). The
//! workspace builds fully offline, so instead of `loom` this crate
//! carries its own explorer: model threads run serialized under a
//! replaying scheduler, every synchronization operation is a scheduling
//! point, and a depth-first search with sleep-set (DPOR-family) pruning
//! visits every Mazurkiewicz trace of the model — finding deadlocks
//! (including lost wakeups), vector-clock data races, and assertion
//! failures, each reported with the exact interleaving that produced
//! it.
//!
//! The simulator itself is single-threaded and `unsafe`-free, so
//! nothing in it needs this checker today. What `tests/` holds is the
//! explorer's own regression suite: the modeled primitives in [`sync`]
//! against `std`'s, and two fixture algorithms in [`models`] — a
//! sense-reversing thread barrier and a doorbell gate — checked
//! exhaustively at 2–4 threads, each with a seeded-broken variant the
//! explorer must catch.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod sched;
pub mod sync;
mod vc;

pub mod models;

pub use sched::{Explorer, Report, Violation, ViolationKind};

#[cfg(test)]
mod tests {
    use super::sync::{Mutex, RaceCell};
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn single_thread_runs_once() {
        let r = Explorer::default().check(|| {
            let c = RaceCell::new(0u64, "c");
            c.set(1);
            assert_eq!(c.get(), 1);
        });
        r.assert_ok();
        assert_eq!(r.executions, 1);
    }

    #[test]
    fn detects_plain_data_race() {
        let r = Explorer::default().check(|| {
            let c = std::sync::Arc::new(RaceCell::new(0u64, "shared"));
            let c2 = c.clone();
            let h = sync::spawn("w", move || c2.set(1));
            c.set(2);
            h.join();
        });
        let v = r.violation.expect("unsynchronized writes must race");
        assert_eq!(v.kind, ViolationKind::DataRace);
    }

    #[test]
    fn mutex_protects_cell() {
        let r = Explorer::default().check(|| {
            let m = std::sync::Arc::new(Mutex::new(0u64, "m"));
            let c = std::sync::Arc::new(RaceCell::new(0u64, "guarded"));
            let (m2, c2) = (m.clone(), c.clone());
            let h = sync::spawn("w", move || {
                let _g = m2.lock();
                c2.set(c2.get() + 1);
            });
            {
                let _g = m.lock();
                c.set(c.get() + 1);
            }
            h.join();
            let _g = m.lock();
            assert_eq!(c.get(), 2);
        });
        r.assert_ok();
        // Two interleavings: lock orders.
        assert!(r.executions >= 2, "executions={}", r.executions);
    }

    #[test]
    fn detects_abba_deadlock() {
        let r = Explorer::default().check(|| {
            let a = std::sync::Arc::new(Mutex::new((), "a"));
            let b = std::sync::Arc::new(Mutex::new((), "b"));
            let (a2, b2) = (a.clone(), b.clone());
            let h = sync::spawn("w", move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
            drop(_ga);
            drop(_gb);
            h.join();
        });
        let v = r.violation.expect("AB-BA must deadlock in some schedule");
        assert_eq!(v.kind, ViolationKind::Deadlock);
    }

    #[test]
    fn sleep_sets_prune_independent_ops() {
        // Two threads touching disjoint cells: all interleavings are
        // equivalent, so sleep sets should explore far fewer schedules
        // than the naive bound.
        let r = Explorer::default().check(|| {
            let x = std::sync::Arc::new(RaceCell::new(0u64, "x"));
            let y = RaceCell::new(0u64, "y");
            let x2 = x.clone();
            let h = sync::spawn("w", move || {
                x2.set(1);
                x2.set(2);
            });
            y.set(1);
            y.set(2);
            h.join();
            assert_eq!(y.get(), 2);
        });
        r.assert_ok();
        assert!(
            r.executions + r.pruned <= 16,
            "pruning ineffective: {} executed + {} pruned",
            r.executions,
            r.pruned
        );
    }

    #[test]
    fn acquire_release_edge_orders_cells() {
        // Message passing: flag=1 with Release, reader spins Acquire
        // before touching the cell — no race, both outcomes covered.
        let r = Explorer::default().check(|| {
            let flag = std::sync::Arc::new(sync::AtomicBool::new(false, "flag"));
            let data = std::sync::Arc::new(RaceCell::new(0u64, "data"));
            let (f2, d2) = (flag.clone(), data.clone());
            let h = sync::spawn("producer", move || {
                d2.set(42);
                f2.store(true, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) {
                assert_eq!(data.get(), 42);
            }
            h.join();
            assert_eq!(data.get(), 42);
        });
        r.assert_ok();
    }

    #[test]
    fn relaxed_flag_does_not_order_cells() {
        // The same message-passing shape with Relaxed ordering must be
        // flagged: no happens-before edge protects the cell.
        let r = Explorer::default().check(|| {
            let flag = std::sync::Arc::new(sync::AtomicBool::new(false, "flag"));
            let data = std::sync::Arc::new(RaceCell::new(0u64, "data"));
            let (f2, d2) = (flag.clone(), data.clone());
            let h = sync::spawn("producer", move || {
                d2.set(42);
                f2.store(true, Ordering::Relaxed);
            });
            if flag.load(Ordering::Relaxed) {
                let _ = data.get();
            }
            h.join();
        });
        let v = r.violation.expect("relaxed message passing must race");
        assert_eq!(v.kind, ViolationKind::DataRace);
    }

    #[test]
    fn condvar_wakeup_is_not_lost_when_flag_set_under_lock() {
        let r = Explorer::default().check(|| {
            let m = std::sync::Arc::new(Mutex::new(false, "m"));
            let cv = std::sync::Arc::new(sync::Condvar::new("cv"));
            let (m2, cv2) = (m.clone(), cv.clone());
            let h = sync::spawn("waker", move || {
                let mut g = m2.lock();
                *g = true;
                cv2.notify_one();
            });
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
            drop(g);
            h.join();
        });
        r.assert_ok();
    }

    #[test]
    fn condvar_lost_wakeup_detected_without_lock() {
        // The waker sets the flag and notifies WITHOUT the mutex: the
        // notify can land between the waiter's check and its wait.
        let r = Explorer::default().check(|| {
            let m = std::sync::Arc::new(Mutex::new((), "m"));
            let flag = std::sync::Arc::new(sync::AtomicBool::new(false, "flag"));
            let cv = std::sync::Arc::new(sync::Condvar::new("cv"));
            let (f2, cv2) = (flag.clone(), cv.clone());
            let h = sync::spawn("waker", move || {
                f2.store(true, Ordering::Release);
                cv2.notify_one();
            });
            let mut g = m.lock();
            while !flag.load(Ordering::Acquire) {
                g = cv.wait(g);
            }
            drop(g);
            h.join();
        });
        let v = r.violation.expect("unlocked notify must lose a wakeup");
        assert_eq!(v.kind, ViolationKind::Deadlock);
    }

    #[test]
    fn preemption_bound_reports_incomplete() {
        let e = Explorer {
            preemption_bound: Some(0),
            ..Explorer::default()
        };
        let r = e.check(|| {
            let x = std::sync::Arc::new(sync::AtomicU64::new(0, "x"));
            let x2 = x.clone();
            let h = sync::spawn("w", move || {
                x2.fetch_add(1, Ordering::AcqRel);
            });
            x.fetch_add(1, Ordering::AcqRel);
            h.join();
        });
        assert!(r.violation.is_none());
        assert!(r.bound_hit, "bound 0 must restrict some decision");
    }
}

//! # swbarrier — software barrier algorithms for real threads
//!
//! The paper's software baselines (centralized sense-reversal, combining
//! tree) and the dissemination barrier from Mellor-Crummey & Scott's
//! "Synchronization without Contention" — implemented for actual Rust
//! threads with cache-line-padded state, so the library is directly
//! usable on commodity multicores and benchmarkable against the
//! simulated machine (see `examples/thread_barriers.rs` at the repo root).
//!
//! All barriers implement [`ThreadBarrier`]: construct for `n` threads,
//! give each thread a distinct id in `0..n`, and call
//! [`wait(tid)`](ThreadBarrier::wait) — the call returns only after all
//! `n` threads of the episode have arrived. Barriers are reusable for
//! any number of episodes.
//!
//! ```
//! use swbarrier::{CentralizedBarrier, ThreadBarrier};
//! use std::sync::Arc;
//!
//! let n = 4;
//! let bar = Arc::new(CentralizedBarrier::new(n));
//! let handles: Vec<_> = (0..n)
//!     .map(|tid| {
//!         let bar = Arc::clone(&bar);
//!         std::thread::spawn(move || {
//!             for _ in 0..100 {
//!                 bar.wait(tid);
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! ```

#![forbid(unsafe_code)]

pub mod centralized;
pub mod combining;
pub mod dissemination;
pub mod pad;
pub mod scoped;
mod spin;

pub use centralized::CentralizedBarrier;
pub use combining::CombiningTreeBarrier;
pub use dissemination::DisseminationBarrier;

/// A reusable N-thread barrier. Thread ids must be distinct and in
/// `0..num_threads()`; every thread must participate in every episode.
pub trait ThreadBarrier: Sync + Send {
    /// Number of participating threads.
    fn num_threads(&self) -> usize;
    /// Blocks until all threads have called `wait` for this episode.
    fn wait(&self, tid: usize);
}

#[cfg(test)]
pub(crate) mod test_harness {
    use super::ThreadBarrier;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// The fundamental barrier property: when thread `t` leaves episode
    /// `e`, every other thread has *entered* episode `e` (its published
    /// stamp is at least `e`), and no thread is ever more than one
    /// episode ahead.
    pub fn check_barrier<B: ThreadBarrier + 'static>(bar: B, episodes: u64) {
        let n = bar.num_threads();
        let bar = Arc::new(bar);
        let stamps: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let handles: Vec<_> = (0..n)
            .map(|tid| {
                let bar = Arc::clone(&bar);
                let stamps = Arc::clone(&stamps);
                std::thread::spawn(move || {
                    for e in 1..=episodes {
                        stamps[tid].store(e, Ordering::SeqCst);
                        // Tiny random-ish work to vary arrival order.
                        for _ in 0..((tid as u64 * 7 + e) % 32) {
                            std::hint::spin_loop();
                        }
                        bar.wait(tid);
                        for p in 0..n {
                            let s = stamps[p].load(Ordering::SeqCst);
                            assert!(
                                s >= e && s <= e + 1,
                                "thread {tid} left episode {e} but thread {p} is at {s}"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}

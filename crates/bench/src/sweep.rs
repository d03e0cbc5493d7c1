//! A dependency-free parallel sweep engine.
//!
//! The experiments in this crate are embarrassingly parallel: every
//! `(benchmark × barrier kind × core count)` point is an independent
//! simulation. [`sweep`] fans a slice of such jobs across scoped
//! `std::thread` workers pulling from a shared atomic queue, and places
//! each result back at its job's index — so the output order (and
//! therefore every rendered table, figure, and JSON file) is
//! **bit-identical** to the serial run regardless of worker count or
//! scheduling. Each simulation itself stays single-threaded and
//! deterministic; only the fan-out is concurrent.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: the host's available parallelism (1 if
/// unknown).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `run` over every job and returns the results **in job order**.
///
/// With `workers <= 1` (or a single job) this is a plain serial map —
/// the parallel path produces the same `Vec` element for element, it
/// just computes them concurrently. Worker threads claim job indices
/// from a shared atomic counter (dynamic load balancing: a slow
/// simulation does not hold up the queue) and write each result into
/// its job's dedicated slot. A panicking job propagates the panic to
/// the caller when the scope joins.
pub fn sweep<J, R, F>(jobs: &[J], workers: usize, run: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    // At least one worker, never more than there are jobs to divide.
    let workers = workers.clamp(1, jobs.len().max(1));
    if workers == 1 {
        return jobs.iter().map(&run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let r = run(&jobs[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed job stores a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order() {
        let jobs: Vec<u64> = (0..100).collect();
        // Skew the per-job cost so late jobs finish first under
        // parallelism; order must still match.
        let out = sweep(&jobs, 8, |&j| {
            if j < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            j * j
        });
        assert_eq!(out, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let jobs: Vec<u32> = (0..37).collect();
        let serial = sweep(&jobs, 1, |&j| j.wrapping_mul(2654435761));
        let parallel = sweep(&jobs, 5, |&j| j.wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_workers_than_jobs() {
        let jobs = [1u8, 2, 3];
        assert_eq!(sweep(&jobs, 64, |&j| j + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_job_list() {
        let jobs: [u8; 0] = [];
        assert_eq!(sweep(&jobs, 4, |&j| j), Vec::<u8>::new());
    }
}

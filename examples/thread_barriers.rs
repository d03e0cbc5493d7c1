//! The real-thread barrier library on your actual hardware.
//!
//! Times every `swbarrier` algorithm over a tight barrier loop — the
//! host-machine analogue of the paper's Figure 5 (here the "hardware
//! barrier" column is missing for the obvious reason: your CPU has no
//! G-lines, which is rather the paper's point).
//!
//! Thread counts run from 2 to the host's available parallelism, plus
//! one oversubscribed point at twice that, where waiting threads must
//! yield their cores to the ones still arriving. Each point runs under
//! a 10 s wall-clock cap: one that runs past it (a lost wake-up, a
//! livelock) exits non-zero naming the algorithm and thread count.
//!
//! Run with: `cargo run --release --example thread_barriers`

use gline_cmp::threads::{
    scoped, CentralizedBarrier, CombiningTreeBarrier, DisseminationBarrier, ThreadBarrier,
};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

const EPISODES: u64 = 20_000;
const CAP: Duration = Duration::from_secs(10);

fn bench<B: ThreadBarrier>(name: &'static str, bar: B) {
    let n = bar.num_threads();
    let (done, finished) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if finished.recv_timeout(CAP) == Err(RecvTimeoutError::Timeout) {
            eprintln!("thread_barriers: {name} at {n} threads ran past the {CAP:?} cap");
            std::process::exit(1);
        }
    });
    // simlint: allow(wall-clock) — this example times real OS threads;
    // nothing here feeds the deterministic simulation.
    let start = Instant::now();
    scoped::run(bar, |tid, bar| {
        for _ in 0..EPISODES {
            bar.wait(tid);
        }
    });
    let ns = start.elapsed().as_nanos() as f64 / EPISODES as f64;
    done.send(()).expect("watchdog exits only on timeout");
    watchdog.join().expect("watchdog panicked");
    println!("  {name:<24} {ns:>10.0} ns/barrier");
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(2, |p| p.get());
    for n in (2..=cores).chain([2 * cores]) {
        println!("{n} threads, {EPISODES} barrier episodes each:");
        bench("centralized (CSW-like)", CentralizedBarrier::new(n));
        bench("combining tree (DSW)", CombiningTreeBarrier::binary(n));
        bench(
            "combining tree, 4-ary",
            CombiningTreeBarrier::with_arity(n, 4),
        );
        bench("dissemination", DisseminationBarrier::new(n));
    }
}

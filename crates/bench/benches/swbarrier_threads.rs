//! Real-thread barrier algorithms on the host machine: ns/episode for
//! each `swbarrier` algorithm — the commodity-hardware analogue of the
//! paper's Figure 5 (minus the G-lines your CPU doesn't have).

use bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use swbarrier::{
    CentralizedBarrier, CombiningTreeBarrier, DisseminationBarrier, StaticTreeBarrier,
    ThreadBarrier, TournamentBarrier,
};

/// Measures whole barrier episodes: every thread, the measured one
/// included, takes part in exactly `iters` of them. (A stop flag set by
/// the measured thread cannot end the workers: one that leaves the last
/// episode after the flag is up never joins the extra episode the others
/// then wait in.)
fn episodes(bar: Arc<dyn ThreadBarrier>, iters: u64) {
    let n = bar.num_threads();
    let workers: Vec<_> = (1..n)
        .map(|tid| {
            let bar = Arc::clone(&bar);
            std::thread::spawn(move || {
                for _ in 0..iters {
                    bar.wait(tid);
                }
            })
        })
        .collect();
    for _ in 0..iters {
        bar.wait(0);
    }
    for w in workers {
        w.join().unwrap();
    }
}

fn bench(c: &mut Criterion) {
    let n = std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .min(8);
    let mut g = c.benchmark_group("swbarrier_threads");
    g.sample_size(10);
    type Factory = Box<dyn Fn() -> Box<dyn ThreadBarrier>>;
    let algos: Vec<(&str, Factory)> = vec![
        (
            "centralized",
            Box::new(move || Box::new(CentralizedBarrier::new(n))),
        ),
        (
            "combining2",
            Box::new(move || Box::new(CombiningTreeBarrier::binary(n))),
        ),
        (
            "combining4",
            Box::new(move || Box::new(CombiningTreeBarrier::with_arity(n, 4))),
        ),
        (
            "dissemination",
            Box::new(move || Box::new(DisseminationBarrier::new(n))),
        ),
        (
            "tournament",
            Box::new(move || Box::new(TournamentBarrier::new(n))),
        ),
        (
            "static_tree",
            Box::new(move || Box::new(StaticTreeBarrier::new(n))),
        ),
    ];
    for (name, make) in algos {
        g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            b.iter(|| episodes(Arc::from(make()), 2000));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! NoC microbenchmarks: uniform-random traffic drain time, paced load
//! and idle tick overhead (the fast path matters because the
//! full-system simulator ticks the NoC every cycle).
//!
//! The drain saturates the mesh, so the fixed cost of a tick is shared
//! by dozens of hops and disappears from its per-message time. The
//! full system runs nowhere near that: `paper_eval` injects 1.4
//! messages per tick into the 4x8 mesh and a wait-dominated run a
//! twentieth of that, where the per-tick walk is a large share of a
//! hop. The `paced` points send at those rates and receive as they go.

use bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sim_base::config::NocConfig;
use sim_base::rng::SplitMix64;
use sim_base::stats::MsgClass;
use sim_base::{CoreId, Mesh2D};
use sim_noc::{Message, Noc};

fn drain_uniform(n_msgs: usize) -> u64 {
    let mesh = Mesh2D::new(4, 8);
    let mut noc: Noc<u32> = Noc::new(mesh, NocConfig::default());
    let mut rng = SplitMix64::new(42);
    for i in 0..n_msgs {
        let src = rng.next_below(32) as usize;
        let mut dst = rng.next_below(32) as usize;
        if dst == src {
            dst = (dst + 1) % 32;
        }
        let class = MsgClass::ALL[i % 3];
        noc.send(Message {
            src: CoreId::from(src),
            dst: CoreId::from(dst),
            class,
            payload_bytes: if i % 2 == 0 { 64 } else { 0 },
            payload: i as u32,
        });
    }
    while !noc.is_idle() {
        noc.tick();
    }
    for t in 0..32 {
        while noc.recv(CoreId(t)).is_some() {}
    }
    noc.now()
}

/// One iteration of a paced point: this many messages, sent `rate` per
/// tick on average.
const PACED_MSGS: u64 = 2048;

/// A network under open-loop uniform-random load of `rate` messages per
/// tick, with every tile receiving each cycle as the memory system
/// does.
struct Paced {
    noc: Noc<u32>,
    rng: SplitMix64,
    rate: f64,
    /// Messages owed to the network: `rate` is added per tick, one is
    /// taken per send.
    owed: f64,
}

impl Paced {
    fn new(rows: u16, cols: u16, rate: f64) -> Paced {
        Paced {
            noc: Noc::new(Mesh2D::new(rows, cols), NocConfig::default()),
            rng: SplitMix64::new(7),
            rate,
            owed: 0.0,
        }
    }

    /// Sends and delivers [`PACED_MSGS`] messages. Returns the cycle.
    fn run(&mut self) -> u64 {
        let tiles = self.noc.mesh().num_tiles();
        let (mut sent, mut got) = (0, 0);
        while got < PACED_MSGS {
            self.owed += self.rate;
            while self.owed >= 1.0 && sent < PACED_MSGS {
                self.owed -= 1.0;
                let src = self.rng.next_below(tiles as u64) as usize;
                let dst = (src + 1 + self.rng.next_below(tiles as u64 - 1) as usize) % tiles;
                self.noc.send(Message {
                    src: CoreId::from(src),
                    dst: CoreId::from(dst),
                    class: MsgClass::ALL[sent as usize % 3],
                    payload_bytes: if sent.is_multiple_of(2) { 64 } else { 0 },
                    payload: sent as u32,
                });
                sent += 1;
            }
            self.noc.tick();
            for w in 0..self.noc.delivery_tiles().num_words() {
                for tile in self.noc.delivery_tiles().word_members(w) {
                    while self.noc.recv(CoreId::from(tile)).is_some() {
                        got += 1;
                    }
                }
            }
        }
        self.noc.now()
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("noc");
    for &msgs in &[32usize, 256, 1024] {
        g.bench_with_input(
            BenchmarkId::new("uniform_drain", msgs),
            &msgs,
            |b, &msgs| b.iter(|| drain_uniform(msgs)),
        );
    }
    for (rows, cols, rate) in [(4, 8, 0.05), (4, 8, 1.4), (32, 32, 1.4)] {
        let id = BenchmarkId::new(format!("paced_{rows}x{cols}"), rate);
        g.bench_with_input(id, &rate, |b, &rate| {
            let mut net = Paced::new(rows, cols, rate);
            b.iter(|| net.run())
        });
    }
    g.bench_function("idle_tick", |b| {
        let mut noc: Noc<u32> = Noc::new(Mesh2D::new(4, 8), NocConfig::default());
        b.iter(|| {
            for _ in 0..1000 {
                noc.tick();
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

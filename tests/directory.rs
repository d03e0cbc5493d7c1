//! The directory is an exact full map at every machine size: a write
//! invalidates exactly the cores that read the line, past 64 cores as
//! below, and random traffic from any core of a 5x13 or a 16x16 machine
//! keeps the coherence invariants (`MemorySystem::check_coherence`) at
//! every cycle and completes every request.

use sim_base::check::forall_cases;
use sim_base::{CmpConfig, CoreId, Mesh2D};
use sim_isa::inst::AmoOp;
use sim_mem::{CoreReq, MemorySystem};

fn machine(rows: u16, cols: u16) -> MemorySystem {
    MemorySystem::new(&CmpConfig {
        mesh: Mesh2D::new(rows, cols),
        ..CmpConfig::icpp2010()
    })
}

/// Checks the coherence invariants of `mem`, then ticks it.
fn checked_tick(mem: &mut MemorySystem) {
    if let Err(e) = mem.check_coherence() {
        panic!("cycle {}: {e}", mem.now());
    }
    mem.tick();
}

/// Ticks until each of `cores` has taken its response.
fn complete_all(mem: &mut MemorySystem, cores: &[CoreId]) {
    let mut waiting = cores.len();
    let start = mem.now();
    while waiting > 0 {
        checked_tick(mem);
        waiting -= cores.iter().filter(|&&c| mem.poll(c).is_some()).count();
        assert!(
            mem.now() - start < 1_000_000,
            "{waiting} requests never completed"
        );
    }
}

/// On a `rows` x `cols` machine the odd cores load one line, then core 0
/// stores to it. Returns the invalidations the store sent, after
/// checking that each odd core received exactly one and no even core
/// received any.
fn invalidations_for_odd_readers(rows: u16, cols: u16) -> u64 {
    let mut mem = machine(rows, cols);
    let n = mem.config().num_cores();
    let addr = 0x8000;
    let odd: Vec<CoreId> = (1..n).step_by(2).map(CoreId::from).collect();
    for &c in &odd {
        mem.request(c, CoreReq::Load { addr });
    }
    complete_all(&mut mem, &odd);
    let before = mem.home_stats().invalidations_sent;
    mem.request(CoreId(0), CoreReq::Store { addr, value: 1 });
    complete_all(&mut mem, &[CoreId(0)]);
    for c in (0..n).map(CoreId::from) {
        let want = c.index() % 2;
        assert_eq!(mem.l1_stats(c).invalidations, want as u64, "{c:?}");
    }
    mem.home_stats().invalidations_sent - before
}

#[test]
fn a_write_invalidates_exactly_the_128_readers_at_16x16() {
    assert_eq!(invalidations_for_odd_readers(16, 16), 128);
}

#[test]
fn a_write_invalidates_exactly_the_512_readers_at_32x32() {
    assert_eq!(invalidations_for_odd_readers(32, 32), 512);
}

/// Random loads, stores and AMOs from random cores on four lines of a
/// `rows` x `cols` machine, checked every cycle. Stores write word 0 of
/// a line and AMOs add 1 to word 1, so after the run word 1 holds the
/// line's AMO count: no update was lost.
fn random_traffic_keeps_coherence(name: &str, rows: u16, cols: u16, cases: u32) {
    forall_cases(name, cases, |rng| {
        let mut mem = machine(rows, cols);
        let n = mem.config().num_cores();
        let lines: Vec<u64> = (0..4).map(|i| 0x100 + i * 37 + rng.next_below(8)).collect();
        let requests = 2 * n as u64;
        let load = [0.01, 0.1, 0.5][rng.next_below(3) as usize];
        let mut amos = [0u64; 4];
        let (mut issued, mut pending) = (0, vec![false; n]);
        let mut guard = 0;
        while issued < requests || pending.contains(&true) {
            for (c, busy) in pending.iter_mut().enumerate() {
                let core = CoreId::from(c);
                if *busy {
                    *busy = mem.poll(core).is_none();
                    continue;
                }
                if issued == requests || !rng.chance(load) {
                    continue;
                }
                let l = rng.next_below(4) as usize;
                let base = lines[l] * 64;
                let req = match rng.next_below(3) {
                    0 => CoreReq::Load {
                        addr: base + 8 * rng.next_below(2),
                    },
                    1 => CoreReq::Store {
                        addr: base,
                        value: rng.next_u64(),
                    },
                    _ => {
                        amos[l] += 1;
                        CoreReq::Amo {
                            addr: base + 8,
                            op: AmoOp::Add,
                            operand: 1,
                        }
                    }
                };
                mem.request(core, req);
                (issued, *busy) = (issued + 1, true);
            }
            checked_tick(&mut mem);
            guard += 1;
            assert!(
                guard < 2_000_000,
                "{issued} issued, requests never completed"
            );
        }
        while !mem.is_idle() {
            checked_tick(&mut mem);
        }
        mem.check_coherence().unwrap();
        for (l, &line) in lines.iter().enumerate() {
            assert_eq!(mem.peek_word(line * 64 + 8), amos[l], "line {line}");
        }
    });
}

#[test]
fn random_traffic_keeps_coherence_at_5x13() {
    random_traffic_keeps_coherence("directory_random_5x13", 5, 13, 8);
}

#[test]
fn random_traffic_keeps_coherence_at_16x16() {
    random_traffic_keeps_coherence("directory_random_16x16", 16, 16, 3);
}

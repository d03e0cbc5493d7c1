//! Hot-path allocation audit.
//!
//! The per-tick paths of the whole machine — the core scheduler's wake
//! index (`sim-cmp::sched`), the directory controllers
//! (`sim-mem::home`), the NoC (`sim-noc::network`) and both G-line
//! networks (`gline-core`) — reuse struct-held scratch buffers and
//! capacity-retaining maps/queues, so a steady-state tick performs no
//! heap allocation at all. These tests pin that property with a
//! counting global allocator: after a warm-up pass that sizes every
//! buffer, an identical traffic pattern must run allocation-free.
//!
//! The same allocator pins what construction costs: a machine allocates
//! per tile, not per cache set, per-core programs are shared rather than
//! copied, and a workload's programs are built per program, not per
//! label.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use sim_base::config::CacheConfig;
use sim_base::config::CmpConfig;
use sim_base::CoreId;
use sim_cmp::runtime::BarrierKind;
use sim_cmp::System;
use sim_isa::{Inst, Program};
use sim_mem::{CoreReq, MemorySystem};
use workloads::eval::{Bench, Scale};
use workloads::{synthetic, Workload};

struct CountingAlloc;

thread_local! {
    /// This thread's allocation count while it is measuring (`None`
    /// otherwise). Per thread, so the tests of this file can run side
    /// by side; const-initialized and without a destructor, so reading
    /// it from the allocator never allocates.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|a| a.set(a.get().map(|n| n + 1)));
}

/// Runs `f` and returns how many heap allocations this thread made.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(Some(0)));
    f();
    ALLOCS.with(|a| a.replace(None)).expect("still measuring")
}

// SAFETY: pure pass-through to the system allocator; the counter bump
// allocates nothing and every layout contract is forwarded unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller obligations are exactly `System.alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: `layout` is forwarded verbatim from our caller.
        unsafe { SystemAlloc.alloc(layout) }
    }
    // SAFETY: caller obligations are exactly `System.dealloc`'s.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` are forwarded verbatim from our caller.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
    // SAFETY: caller obligations are exactly `System.realloc`'s.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: arguments are forwarded verbatim from our caller.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// One round of cross-tile coherence traffic: every core stores to and
/// loads from a rotating set of shared lines, driving GetX/GetS,
/// invalidations and write-backs through the homes and the NoC.
fn traffic_round(mem: &mut MemorySystem, cores: &[CoreId], round: u64) {
    for (i, &c) in cores.iter().enumerate() {
        // Each core touches its neighbour's line from the previous round:
        // guaranteed remote state, guaranteed protocol traffic.
        let line = (i as u64 + round) % cores.len() as u64;
        let addr = 0x4000 + line * 64;
        if (round + i as u64).is_multiple_of(2) {
            mem.request(c, CoreReq::Store { addr, value: round });
        } else {
            mem.request(c, CoreReq::Load { addr });
        }
    }
    let mut outstanding = cores.len();
    let mut guard = 0;
    while outstanding > 0 {
        mem.tick();
        for &c in cores {
            if mem.poll(c).is_some() {
                outstanding -= 1;
            }
        }
        guard += 1;
        assert!(guard < 100_000, "traffic round livelocked");
    }
    // Drain stragglers (write-backs in flight) so the next round starts
    // from an idle network.
    while mem.next_event().is_some() {
        mem.tick();
        guard += 1;
        assert!(guard < 100_000, "drain livelocked");
    }
}

#[test]
fn steady_state_ticks_do_not_allocate() {
    let cfg = CmpConfig::icpp2010_with_cores(8);
    let mut mem = MemorySystem::new(&cfg);
    let cores: Vec<CoreId> = (0..8).map(CoreId::from).collect();

    // Warm-up: size every scratch buffer, map and queue. Several passes
    // so both the store→load and load→store directions of each line's
    // coherence dance have happened at least once. Eight rounds, so every
    // core has touched all eight lines: the first fill of a cache set
    // carves its chunk of ways and may grow the cache's pool, once per
    // set, like the backing store's first write of a line.
    for round in 0..8 {
        traffic_round(&mut mem, &cores, round);
    }

    // Measured phase: identical address footprint, so no backing-store
    // growth and no first fill of a set — any allocation now comes from
    // a per-tick hot path.
    let n = count_allocs(|| {
        for round in 8..12 {
            traffic_round(&mut mem, &cores, round);
        }
    });
    assert_eq!(
        n, 0,
        "steady-state home/NoC ticks performed {n} heap allocations"
    );
}

/// Advances `sys` through `warm` cycles of its barrier loop on the
/// default engine (sparse ticks and clock jumps), then demands that the
/// next `measured` cycles allocate nothing. Returns the clock jumps
/// taken and the flits the NoC passed through idle routers while
/// measuring.
fn assert_system_ticks_allocation_free(
    mut sys: System,
    warm: u64,
    measured: u64,
    what: &str,
) -> (u64, u64) {
    sys.advance_until(warm).unwrap();
    let jumps_before = sys.skip_stats().skips;
    let transits_before = sys.noc_sched_stats().transits;
    let n = count_allocs(|| sys.advance_until(warm + measured).unwrap());
    assert!(!sys.all_halted(), "{what}: the loop ended while measuring");
    assert_eq!(
        n, 0,
        "{what}: steady-state ticks performed {n} heap allocations"
    );
    (
        sys.skip_stats().skips - jumps_before,
        sys.noc_sched_stats().transits - transits_before,
    )
}

/// The whole machine, cores included: a G-line barrier loop on the flat
/// 4x8 network and on the clustered 16x16 one (whose every tick used to
/// build a `Vec`), a software-barrier loop whose cores park and wake
/// through the wake index and whose flits pass through idle routers,
/// and a G-line loop with staggered arrival, where the early cores park
/// on `bar_reg` and the clock jumps.
#[test]
fn steady_state_system_ticks_do_not_allocate() {
    let flat = CmpConfig::icpp2010();
    assert_system_ticks_allocation_free(
        synthetic::build(32, BarrierKind::Gl, 100_000).into_system(flat),
        2_000,
        20_000,
        "GL loop, 4x8",
    );
    let big = CmpConfig::icpp2010_with_cores(256);
    assert_system_ticks_allocation_free(
        synthetic::build(256, BarrierKind::Gl, 100_000).into_system(big),
        1_000,
        3_000,
        "GL loop, clustered 16x16",
    );
    let (_, transits) = assert_system_ticks_allocation_free(
        synthetic::build(32, BarrierKind::Dsw, 100_000).into_system(flat),
        20_000,
        20_000,
        "DSW loop, 4x8",
    );
    assert!(
        transits > 100,
        "DSW loop: only {transits} flits passed through idle routers"
    );
    let (jumps, _) = assert_system_ticks_allocation_free(
        synthetic::build_imbalanced(32, BarrierKind::Gl, 100_000, 1_000).into_system(flat),
        100_000,
        400_000,
        "imbalanced GL loop, 4x8",
    );
    assert!(jumps > 100, "imbalanced GL loop: only {jumps} clock jumps");
}

/// Building the memory system allocates per tile, never per cache set:
/// quadrupling every L2 bank (1,024 → 4,096 sets) adds no allocation,
/// because a set's storage is carved only on its first fill.
#[test]
fn memory_system_construction_allocates_per_tile_not_per_set() {
    let cfg = CmpConfig::icpp2010_with_cores(1024);
    let big_l2 = CmpConfig {
        l2: CacheConfig {
            size_bytes: 1024 * 1024,
            ..cfg.l2
        },
        ..cfg
    };
    assert_eq!(big_l2.validate(), Ok(()));
    assert_eq!(big_l2.l2.num_sets(), 4 * cfg.l2.num_sets());
    let build = |cfg: &CmpConfig| count_allocs(|| drop(MemorySystem::new(cfg)));
    let (small, big) = (build(&cfg), build(&big_l2));
    assert_eq!(small, big, "allocations grew with the L2 set count");
    let per_tile = small as f64 / cfg.num_cores() as f64;
    assert!(
        per_tile <= 8.0,
        "{small} allocations for {} tiles ({per_tile:.1} per tile)",
        cfg.num_cores()
    );
}

/// Instantiating a workload shares its programs with the machine: the
/// allocation count depends on neither the iteration count (8 vs. 64)
/// nor the programs themselves — 1,024 copies of a DSW barrier loop
/// cost what 1,024 one-instruction programs cost.
#[test]
fn workload_instantiation_shares_programs() {
    let cfg = CmpConfig::icpp2010_with_cores(1024);
    let instantiate = |w: &Workload| count_allocs(|| drop(w.into_system(cfg)));
    let dsw = |iters| instantiate(&synthetic::build(1024, BarrierKind::Dsw, iters));
    let (short, long) = (dsw(8), dsw(64));
    assert_eq!(short, long, "allocations grew with the iteration count");
    let halt = Workload {
        name: "halt".into(),
        progs: vec![Program::from_insts(vec![Inst::Halt]); 1024],
        pokes: Vec::new(),
        barriers_per_core: 0,
        kind: BarrierKind::Dsw,
    };
    assert_eq!(short, instantiate(&halt), "programs were copied per core");
}

/// Building a workload allocates per program, not per label: a builder's
/// labels are handles into one vector of positions, so a program costs
/// the doubling growth of its instruction, position and fixup vectors
/// and its shared slice, however many labels it binds. Measured: 20.1
/// allocations per program for the synthetic DSW loop (69 branch targets
/// each) and 35.6 for Kernel 6 (1,398). One `String` per label would add
/// at least one allocation per target.
#[test]
fn workload_build_allocates_per_program_not_per_label() {
    assert_builds_per_program("synthetic DSW, 256 cores", || {
        synthetic::build(256, BarrierKind::Dsw, 8)
    });
    assert_builds_per_program("Kernel 6 DSW, 32 cores", || {
        Bench::Kernel6.build(32, BarrierKind::Dsw, Scale::Quick)
    });
}

/// Builds a workload and bounds its allocations per program, after
/// checking its programs have enough distinct branch targets for one
/// allocation per label to break the bound.
fn assert_builds_per_program(name: &str, build: impl FnOnce() -> Workload) {
    let mut w = None;
    let allocs = count_allocs(|| w = Some(build()));
    let progs = w.unwrap().progs;
    let targets: usize = progs
        .iter()
        .map(|p| {
            let mut t: Vec<usize> = p
                .insts()
                .iter()
                .filter_map(|i| match *i {
                    Inst::Branch { target, .. } | Inst::Jal { target, .. } => Some(target),
                    _ => None,
                })
                .collect();
            t.sort_unstable();
            t.dedup();
            t.len()
        })
        .sum();
    let n = progs.len() as f64;
    let (per_program, targets) = (allocs as f64 / n, targets as f64 / n);
    assert!(targets >= 64.0, "{name}: only {targets:.1} branch targets");
    assert!(
        per_program <= 48.0,
        "{name}: {per_program:.1} allocations per program ({targets:.1} branch targets)"
    );
}

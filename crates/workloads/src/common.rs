//! Shared plumbing for workload generators.

use gline_core::{BarrierHw, GlineHw};
use sim_base::config::CmpConfig;
use sim_cmp::runtime::{BarrierEnv, BarrierKind};
use sim_cmp::System;
use sim_isa::Program;

/// Base address of barrier shared variables.
pub const BARRIER_BASE: u64 = 0x1_0000;

/// Base address of workload data.
pub const DATA_BASE: u64 = 0x10_0000;

/// A generated benchmark: one program per core plus its initial memory
/// image and metadata.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (Table 2 spelling).
    pub name: String,
    /// One program per core.
    pub progs: Vec<Program>,
    /// Initial memory image: (byte address, value) pairs.
    pub pokes: Vec<(u64, u64)>,
    /// Barrier episodes each core executes.
    pub barriers_per_core: u64,
    /// Barrier implementation baked into the programs.
    pub kind: BarrierKind,
}

impl Workload {
    /// Instantiates the workload on a machine, with the G-line network
    /// its mesh calls for. `cfg.num_cores()` must match the core count
    /// the workload was generated for.
    pub fn into_system(&self, cfg: CmpConfig) -> System {
        self.into_system_with_hw(cfg, GlineHw::new(&cfg))
    }

    /// [`into_system`](Self::into_system) on explicit barrier hardware.
    /// Kept only for `benchmark/src/sut.rs`, its one caller besides
    /// `into_system`, which builds `System<ClusteredBarrierNetwork>`
    /// through it.
    pub fn into_system_with_hw<B: BarrierHw>(&self, cfg: CmpConfig, hw: B) -> System<B> {
        assert_eq!(
            cfg.num_cores(),
            self.progs.len(),
            "workload built for a different core count"
        );
        let mut sys = System::with_barrier_hw(cfg, self.progs.clone(), hw);
        for &(addr, val) in &self.pokes {
            sys.poke_word(addr, val);
        }
        sys
    }
}

/// A cache-line-granular bump allocator for laying out workload data.
#[derive(Clone, Debug)]
pub struct Layout {
    next: u64,
}

impl Layout {
    /// Starts allocating at `base` (line aligned).
    pub fn new(base: u64) -> Layout {
        assert_eq!(base % 64, 0);
        Layout { next: base }
    }

    /// Allocates `bytes`, rounded up to whole cache lines. Returns the
    /// base address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next;
        self.next += bytes.div_ceil(64) * 64;
        base
    }

    /// Allocates an array of `n` words, line-rounded.
    pub fn alloc_words(&mut self, n: u64) -> u64 {
        self.alloc(n * 8)
    }

    /// Allocates `n` slots of one full line each (padded scalars that
    /// must not falsely share).
    pub fn alloc_padded_slots(&mut self, n: u64) -> u64 {
        self.alloc(n * 64)
    }

    /// First unallocated address.
    pub fn end(&self) -> u64 {
        self.next
    }
}

/// Builds the barrier environment at the standard location.
pub fn barrier_env(kind: BarrierKind, n_cores: usize) -> BarrierEnv {
    BarrierEnv::new(kind, n_cores, BARRIER_BASE)
}

/// Splits `n` items into per-core contiguous ranges, spreading the
/// remainder over the first cores.
pub fn chunk_range(n: usize, cores: usize, core: usize) -> std::ops::Range<usize> {
    let base = n / cores;
    let rem = n % cores;
    let start = core * base + core.min(rem);
    let len = base + usize::from(core < rem);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_line_granular() {
        let mut l = Layout::new(DATA_BASE);
        let a = l.alloc_words(3); // 24 bytes → 1 line
        let b = l.alloc_words(9); // 72 bytes → 2 lines
        let c = l.alloc_padded_slots(4);
        assert_eq!(a, DATA_BASE);
        assert_eq!(b, DATA_BASE + 64);
        assert_eq!(c, DATA_BASE + 64 + 128);
        assert_eq!(l.end(), c + 4 * 64);
    }

    #[test]
    fn chunks_cover_everything_exactly_once() {
        for n in [0usize, 1, 31, 32, 33, 1024, 1000] {
            for cores in [1usize, 2, 7, 32] {
                let mut seen = vec![false; n];
                for c in 0..cores {
                    for i in chunk_range(n, cores, c) {
                        assert!(!seen[i], "item {i} assigned twice");
                        seen[i] = true;
                    }
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "n={n} cores={cores} left items unassigned"
                );
            }
        }
    }

    #[test]
    fn chunks_are_balanced() {
        for c in 0..32 {
            let r = chunk_range(1000, 32, c);
            assert!(r.len() == 31 || r.len() == 32);
        }
    }
}

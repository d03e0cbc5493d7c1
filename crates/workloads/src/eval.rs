//! The evaluation's benchmark table: the seven benchmarks of the paper's
//! Table 2 and their input sizes, at the `figures` harness's default
//! Quick scale and at the paper's (each generator's `paper()`).

use crate::common::Workload;
use crate::em3d::{self, Em3dParams};
use crate::livermore::{self, KernelParams};
use crate::ocean::{self, OceanParams};
use crate::synthetic;
use crate::unstructured::{self, UnstructuredParams};
use sim_cmp::runtime::BarrierKind;

/// How big the benchmark inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down inputs: same structure, a few seconds of host time.
    Quick,
    /// The paper's inputs.
    Paper,
}

impl Scale {
    /// `quick` at Quick scale, `paper` at Paper scale.
    fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }

    /// Iterations of the synthetic loop in Figure 5's sweep.
    pub fn fig5_iters(self) -> u64 {
        self.pick(25, SYNTHETIC_PAPER_ITERS)
    }
}

/// The paper runs the synthetic loop 100,000 times.
const SYNTHETIC_PAPER_ITERS: u64 = 100_000;

/// One benchmark of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// The synthetic barrier loop (Table 2 only; Figure 5 sweeps it).
    Synthetic,
    /// Livermore Kernel 2.
    Kernel2,
    /// Livermore Kernel 3.
    Kernel3,
    /// Livermore Kernel 6.
    Kernel6,
    /// UNSTRUCTURED.
    Unstructured,
    /// OCEAN.
    Ocean,
    /// EM3D.
    Em3d,
}

impl Bench {
    /// Table 2's rows in the paper's order: Synthetic, the kernels, then
    /// the applications (Figures 6–7 are the same list without
    /// Synthetic).
    pub const ALL: [Bench; 7] = [
        Bench::Synthetic,
        Bench::Kernel2,
        Bench::Kernel3,
        Bench::Kernel6,
        Bench::Unstructured,
        Bench::Ocean,
        Bench::Em3d,
    ];

    /// The paper's name for the benchmark.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Synthetic => "Synthetic",
            Bench::Kernel2 => "Kernel 2",
            Bench::Kernel3 => "Kernel 3",
            Bench::Kernel6 => "Kernel 6",
            Bench::Unstructured => "UNSTRUCTURED",
            Bench::Ocean => "OCEAN",
            Bench::Em3d => "EM3D",
        }
    }

    /// Is it one of the Livermore kernels (Figures 6–7's AVG_K)?
    pub fn is_kernel(self) -> bool {
        matches!(self, Bench::Kernel2 | Bench::Kernel3 | Bench::Kernel6)
    }

    /// Generates the benchmark for `n` cores with barrier `kind` at
    /// `scale`.
    pub fn build(self, n: usize, kind: BarrierKind, scale: Scale) -> Workload {
        // Kernels 2 and 3 share their sizes.
        let k23 = scale.pick(KernelParams::scaled(1024, 40), KernelParams::paper());
        let k6 = scale.pick(KernelParams::scaled(128, 2), KernelParams::paper());
        let un = scale.pick(
            UnstructuredParams::scaled(256, 768, 8),
            UnstructuredParams::paper(),
        );
        let oc = scale.pick(OceanParams::scaled(66, 6), OceanParams::paper());
        let em = scale.pick(Em3dParams::scaled(1024, 20), Em3dParams::paper());
        match self {
            Bench::Synthetic => synthetic::build(n, kind, scale.pick(50, SYNTHETIC_PAPER_ITERS)),
            Bench::Kernel2 => livermore::kernel2(n, kind, k23),
            Bench::Kernel3 => livermore::kernel3(n, kind, k23),
            Bench::Kernel6 => livermore::kernel6(n, kind, k6),
            Bench::Unstructured => unstructured::build(n, kind, un),
            Bench::Ocean => ocean::build(n, kind, oc),
            Bench::Em3d => em3d::build(n, kind, em),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper-scale `#Barriers` against the paper's Table 2, on 4 cores:
    /// `barriers_per_core` does not depend on the core count. Synthetic,
    /// Kernel 3, UNSTRUCTURED and OCEAN match the paper; Kernel 2, Kernel
    /// 6 and EM3D do not, and are pinned at what the generators give.
    #[test]
    fn paper_scale_barrier_counts_match_table_2() {
        for (bench, barriers) in [
            (Bench::Synthetic, 400_000),
            (Bench::Kernel2, 1_000), // paper: 10,000
            (Bench::Kernel3, 1_000),
            (Bench::Kernel6, 1_023_000), // paper: 1,022,000
            (Bench::Unstructured, 80),
            (Bench::Ocean, 364),
            (Bench::Em3d, 50), // paper: 198
        ] {
            let w = bench.build(4, BarrierKind::Gl, Scale::Paper);
            assert_eq!(w.barriers_per_core, barriers, "{}", bench.name());
            assert_eq!(w.name, bench.name());
        }
    }
}

//! OCEAN — large-scale ocean-current simulation (SPLASH-2), modelled as
//! its computational core: red-black Gauss–Seidel relaxation sweeps over
//! a 2D grid, row-band partitioned, with a barrier after every
//! half-sweep.
//!
//! OCEAN is the *most barrier-heavy* SPLASH-2 application, yet its
//! barrier period is still enormous (Table 2: one barrier per ~205 000
//! cycles) — the paper uses it to show that with so much work between
//! barriers the barrier implementation hardly matters (only 5%
//! improvement). The `fp_busy` knob models the multi-cycle floating-point
//! work per grid point that produces those long periods.

use crate::common::{barrier_env, chunk_range, Layout, Workload, DATA_BASE};
use sim_base::rng::SplitMix64;
use sim_cmp::runtime::BarrierKind;
use sim_isa::{ProgBuilder, Reg};

/// OCEAN parameters.
#[derive(Clone, Copy, Debug)]
pub struct OceanParams {
    /// Grid side (paper: 258).
    pub grid: usize,
    /// Full red+black sweeps (each contributes two barriers).
    pub sweeps: u64,
    /// Extra busy cycles per point, modelling the FP pipeline.
    pub fp_busy: u32,
    /// Seed for the initial grid.
    pub seed: u64,
}

impl OceanParams {
    /// The paper's configuration (258×258; 364 barriers over the run).
    pub fn paper() -> OceanParams {
        OceanParams {
            grid: 258,
            sweeps: 182,
            fp_busy: 16,
            seed: 0x0CEA,
        }
    }

    /// The paper's configuration at another size.
    pub fn scaled(grid: usize, sweeps: u64) -> OceanParams {
        OceanParams {
            grid,
            sweeps,
            ..OceanParams::paper()
        }
    }
}

fn addr_of(grid: usize, row: usize, col: usize) -> u64 {
    DATA_BASE + (row * grid + col) as u64 * 8
}

/// Builds OCEAN: `sweeps` × (red half-sweep, barrier, black half-sweep,
/// barrier) of a 5-point update on interior points.
pub fn build(n_cores: usize, kind: BarrierKind, p: OceanParams) -> Workload {
    assert!(p.grid >= 4);
    let env = barrier_env(kind, n_cores);
    let mut lay = Layout::new(DATA_BASE);
    let _grid_mem = lay.alloc_words((p.grid * p.grid) as u64);

    let mut pokes = Vec::new();
    let mut r = SplitMix64::new(p.seed);
    for row in 0..p.grid {
        for col in 0..p.grid {
            pokes.push((addr_of(p.grid, row, col), r.next_below(100)));
        }
    }

    let interior = p.grid - 2; // rows 1..grid-1 are updated
    let progs = (0..n_cores)
        .map(|c| {
            let my_rows = chunk_range(interior, n_cores, c);
            let mut b = ProgBuilder::new();
            let (it, pr, cnt, t1, t2, acc) = (Reg(10), Reg(11), Reg(12), Reg(1), Reg(2), Reg(3));
            let sweep = b.new_label();
            b.li(it, p.sweeps as i64);
            b.bind(sweep);
            for color in 0..2usize {
                for row0 in my_rows.clone() {
                    let row = row0 + 1;
                    // Interior columns of this row with matching parity.
                    let first_col = 1 + ((row + color) % 2);
                    if first_col >= p.grid - 1 {
                        continue;
                    }
                    // Pointer-walk the row two columns at a time.
                    let npts = (p.grid - 1 - first_col).div_ceil(2);
                    let point = b.new_label();
                    b.li(pr, addr_of(p.grid, row, first_col) as i64)
                        .li(cnt, npts as i64);
                    b.bind(point);
                    // acc = (self + N + S + E + W) with a shift as the
                    // relaxation average; busy models the FP latency.
                    b.ld(acc, 0, pr)
                        .ld(t1, -(p.grid as i64) * 8, pr)
                        .add(acc, acc, t1)
                        .ld(t1, p.grid as i64 * 8, pr)
                        .add(acc, acc, t1)
                        .ld(t1, -8, pr)
                        .add(acc, acc, t1)
                        .ld(t1, 8, pr)
                        .add(acc, acc, t1)
                        .alui(sim_isa::inst::AluOp::Srl, t2, acc, 2);
                    if p.fp_busy > 0 {
                        b.busy(p.fp_busy);
                    }
                    b.st(t2, 0, pr)
                        .addi(pr, pr, 16)
                        .addi(cnt, cnt, -1)
                        .bne(cnt, Reg::ZERO, point);
                }
                env.emit(&mut b, c);
            }
            b.addi(it, it, -1).bne(it, Reg::ZERO, sweep).halt();
            b.build()
        })
        .collect();

    Workload {
        name: "OCEAN".into(),
        progs,
        pokes,
        barriers_per_core: 2 * p.sweeps,
        kind,
    }
}

/// Host-side reference: the final grid.
pub fn expected(p: OceanParams, _n_cores: usize) -> Vec<u64> {
    let mut g = {
        let mut r = SplitMix64::new(p.seed);
        (0..p.grid * p.grid)
            .map(|_| r.next_below(100))
            .collect::<Vec<u64>>()
    };
    // Core order doesn't matter: points of one color only read the other
    // color, so each half-sweep is embarrassingly parallel.
    for _ in 0..p.sweeps {
        for color in 0..2usize {
            for row in 1..p.grid - 1 {
                let first_col = 1 + ((row + color) % 2);
                let mut col = first_col;
                while col < p.grid - 1 {
                    let i = row * p.grid + col;
                    let acc = g[i]
                        .wrapping_add(g[i - p.grid])
                        .wrapping_add(g[i + p.grid])
                        .wrapping_add(g[i - 1])
                        .wrapping_add(g[i + 1]);
                    g[i] = acc >> 2;
                    col += 2;
                }
            }
        }
    }
    g
}

/// Byte address of grid point (row, col).
pub fn point_addr(p: OceanParams, row: usize, col: usize) -> u64 {
    addr_of(p.grid, row, col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_base::config::CmpConfig;

    #[test]
    fn matches_reference_model() {
        let p = OceanParams {
            fp_busy: 2,
            ..OceanParams::scaled(10, 2)
        };
        for kind in [BarrierKind::Gl, BarrierKind::Dsw] {
            let w = build(4, kind, p);
            let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(4));
            sys.run(100_000_000).unwrap();
            let g = expected(p, 4);
            for (row, col) in [(1usize, 1usize), (4, 5), (8, 8), (0, 0), (9, 9)] {
                assert_eq!(
                    sys.peek_word(point_addr(p, row, col)),
                    g[row * p.grid + col],
                    "{kind:?} point ({row},{col})"
                );
            }
        }
    }

    #[test]
    fn barrier_period_is_long() {
        // OCEAN's defining property: lots of work per barrier.
        let p = OceanParams::scaled(26, 2);
        let w = build(4, BarrierKind::Gl, p);
        let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(4));
        let cycles = sys.run(100_000_000).unwrap();
        let period = cycles / w.barriers_per_core;
        assert!(period > 2_000, "OCEAN period should be long, got {period}");
    }
}

//! Integration tests spanning the whole stack: workload generators →
//! ISA programs → cycle-level CMP (cores + MESI + NoC + G-lines), with
//! the architectural reference interpreter as the golden model.

use gline_cmp::base::config::CmpConfig;
use gline_cmp::base::stats::TimeCat;
use gline_cmp::bench_workloads::{em3d, livermore, ocean, synthetic, unstructured};
use gline_cmp::cmp::runtime::{BarrierEnv, BarrierKind};
use gline_cmp::cmp::{System, SystemReport};
use gline_cmp::isa::{ProgBuilder, Reg};

fn cfg(n: usize) -> CmpConfig {
    CmpConfig::icpp2010_with_cores(n)
}

/// Every barrier implementation produces architecturally identical
/// results for every workload (only the timing may differ).
#[test]
fn all_barrier_kinds_agree_on_kernel2() {
    let p = livermore::KernelParams::scaled(96, 4);
    let expect = livermore::kernel2_expected(p);
    for kind in BarrierKind::ALL {
        let w = livermore::kernel2(8, kind, p);
        let mut sys = w.into_system(cfg(8));
        sys.run(500_000_000).unwrap();
        for k in (0..96).step_by(17) {
            assert_eq!(
                sys.peek_word(livermore::kernel2_x_addr(k)),
                expect[k],
                "{kind:?} x[{k}]"
            );
        }
    }
}

#[test]
fn all_barrier_kinds_agree_on_em3d() {
    let p = em3d::Em3dParams::scaled(64, 3);
    let (e, h) = em3d::expected(p, 8);
    for kind in BarrierKind::ALL {
        let w = em3d::build(8, kind, p);
        let mut sys = w.into_system(cfg(8));
        sys.run(500_000_000).unwrap();
        for i in (0..64).step_by(13) {
            assert_eq!(sys.peek_word(em3d::e_addr(i)), e[i], "{kind:?} e[{i}]");
            assert_eq!(sys.peek_word(em3d::h_addr(p, i)), h[i], "{kind:?} h[{i}]");
        }
    }
}

#[test]
fn all_barrier_kinds_agree_on_ocean() {
    let p = ocean::OceanParams {
        fp_busy: 1,
        ..ocean::OceanParams::scaled(12, 2)
    };
    let g = ocean::expected(p, 8);
    for kind in BarrierKind::ALL {
        let w = ocean::build(8, kind, p);
        let mut sys = w.into_system(cfg(8));
        sys.run(500_000_000).unwrap();
        for (r, c) in [(1, 1), (5, 7), (10, 10)] {
            assert_eq!(
                sys.peek_word(ocean::point_addr(p, r, c)),
                g[r * p.grid + c],
                "{kind:?} ({r},{c})"
            );
        }
    }
}

#[test]
fn all_barrier_kinds_agree_on_unstructured() {
    let p = unstructured::UnstructuredParams {
        edge_busy: 1,
        ..unstructured::UnstructuredParams::scaled(16, 64, 2)
    };
    for kind in BarrierKind::ALL {
        let w = unstructured::build(8, kind, p);
        let mut sys = w.into_system(cfg(8));
        sys.run(500_000_000).unwrap();
        for i in 0..p.nodes {
            assert_eq!(
                sys.peek_word(unstructured::node_addr(i)),
                unstructured::expected_node(p, i),
                "{kind:?} node {i}"
            );
        }
    }
}

/// The paper's headline: at 32 cores the GL barrier beats both software
/// barriers on the pure-barrier synthetic benchmark, and DSW beats CSW.
#[test]
fn figure5_ordering_at_32_cores() {
    let iters = 5;
    let mut cycles = Vec::new();
    for kind in [BarrierKind::Gl, BarrierKind::Dsw, BarrierKind::Csw] {
        let w = synthetic::build(32, kind, iters);
        let mut sys = w.into_system(cfg(32));
        cycles.push(sys.run(1_000_000_000).unwrap());
    }
    let (gl, dsw, csw) = (cycles[0], cycles[1], cycles[2]);
    assert!(
        gl < dsw && dsw < csw,
        "expected GL < DSW < CSW, got {gl} / {dsw} / {csw}"
    );
    assert!(
        gl * 20 < csw,
        "GL must dominate CSW at 32 cores: {gl} vs {csw}"
    );
    assert!(
        gl * 5 < dsw,
        "GL must clearly beat DSW at 32 cores: {gl} vs {dsw}"
    );
}

/// The GL barrier's latency is flat in core count (Figure 5's flat line).
#[test]
fn gl_latency_flat_in_core_count() {
    let iters = 10;
    let mut per_barrier = Vec::new();
    for n in [2usize, 8, 32] {
        let w = synthetic::build(n, BarrierKind::Gl, iters);
        let mut sys = w.into_system(cfg(n));
        let cycles = sys.run(1_000_000_000).unwrap();
        per_barrier.push(synthetic::cycles_per_barrier(cycles, iters));
    }
    let spread = per_barrier.iter().cloned().fold(f64::MIN, f64::max)
        - per_barrier.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        spread < 3.0,
        "GL latency must be ~constant: {per_barrier:?}"
    );
}

/// On G-lines slower than one cycle the release wave frees row 0's and
/// column 0's cores first, and a loop that re-arrives at once arrives
/// again while the rest are still set. Every episode must be counted on
/// the flat (4×8) and the clustered (16×16) network, on both engines.
#[test]
fn gl_episodes_counted_on_slow_lines() {
    fn report(mut sys: System, active_set: bool) -> SystemReport {
        sys.set_active_set_enabled(active_set);
        sys.run(1_000_000).unwrap();
        sys.report()
    }
    let prog = gline_cmp::isa::assemble(
        "li r10, 20\nloop: li r1, 1\nbarw r1\nspin: barr r2\nbne r2, r0, spin\n\
         addi r10, r10, -1\nbne r10, r0, loop\nhalt",
    )
    .unwrap();
    for n in [32, 256] {
        for line_latency in 1..=4 {
            let mut c = cfg(n);
            c.gline.line_latency = line_latency;
            let run = |active_set| report(System::new(c, vec![prog.clone(); n]), active_set);
            let (default, dense) = (run(true), run(false));
            let at = format!("{n} cores, line_latency {line_latency}");
            assert_eq!(default.gl_barriers, 20, "{at}");
            assert_eq!(default, dense, "{at}: default vs dense tick");
        }
    }
}

/// Cycles per barrier of the synthetic benchmark on `n` cores (on the
/// clustered G-line network beyond the flat 8×8 budget).
fn scaled_cycles_per_barrier(n: usize, kind: BarrierKind) -> f64 {
    let iters = 2;
    let w = synthetic::build(n, kind, iters);
    let cycles = w.into_system(cfg(n)).run(20_000_000_000).unwrap();
    synthetic::cycles_per_barrier(cycles, iters)
}

/// Figure 5 pushed past the paper's 32 cores (paper §5's future work): per
/// barrier, GL may grow at most 3x from 32 to 1024 cores and across any
/// step on the way — the clustered network's extra release latency —
/// where the hierarchical software barrier pays orders of magnitude.
#[test]
fn gl_stays_flat_to_1024_cores_while_dsw_grows() {
    let gl: Vec<f64> = [32, 64, 256, 1024]
        .iter()
        .map(|&n| scaled_cycles_per_barrier(n, BarrierKind::Gl))
        .collect();
    for step in gl.windows(2) {
        assert!(
            step[1] <= 3.0 * step[0],
            "GL per-barrier cost jumped: {gl:?}"
        );
    }
    assert!(gl[3] <= 3.0 * gl[0], "GL must stay near-flat: {gl:?}");
    let dsw = scaled_cycles_per_barrier(256, BarrierKind::Dsw);
    assert!(
        dsw >= 10.0 * gl[2],
        "at 256 cores DSW must cost >= 10x GL per barrier: {dsw} vs {gl:?}"
    );
}

/// The 1024-core end of the gap: DSW costs at least 10x GL per barrier.
/// A debug build spends ~20 s on the DSW run, so tier-1 stops at 256
/// cores above and CI's many-core job runs this one in release.
#[test]
#[ignore = "1024-core DSW run; run with --release -- --ignored"]
fn dsw_costs_10x_gl_at_1024_cores() {
    let gl = scaled_cycles_per_barrier(1024, BarrierKind::Gl);
    let dsw = scaled_cycles_per_barrier(1024, BarrierKind::Dsw);
    assert!(
        dsw >= 10.0 * gl,
        "at 1024 cores DSW must cost >= 10x GL per barrier: {dsw} vs {gl}"
    );
}

/// GL removes all barrier traffic from the data network; the software
/// barriers inject plenty.
#[test]
fn gl_removes_barrier_traffic() {
    let make = |kind| {
        let w = synthetic::build(16, kind, 5);
        let mut sys = w.into_system(cfg(16));
        sys.run(1_000_000_000).unwrap();
        sys.report()
    };
    let gl = make(BarrierKind::Gl);
    let dsw = make(BarrierKind::Dsw);
    assert_eq!(gl.traffic.total(), 0);
    assert!(gl.gl_signals > 0);
    assert!(
        dsw.traffic.total() > 1000,
        "DSW must generate coherence traffic"
    );
    assert_eq!(dsw.gl_signals, 0);
}

/// Workload imbalance: when the barrier wait is dominated by stragglers
/// (stage S2 in the paper), GL barely helps — the paper's explanation
/// for UNSTRUCTURED/OCEAN.
#[test]
fn imbalanced_work_diminishes_gl_advantage() {
    let n = 8;
    let run = |kind: BarrierKind| {
        let env = BarrierEnv::new(kind, n, 0x1_0000);
        let progs: Vec<_> = (0..n)
            .map(|c| {
                let mut b = ProgBuilder::new();
                for _ in 0..4 {
                    // Core 0 is a straggler: 4000 cycles of work; the
                    // others do 50.
                    b.busy(if c == 0 { 4000 } else { 50 });
                    env.emit(&mut b, c);
                }
                b.halt();
                b.build()
            })
            .collect();
        let mut sys = System::new(cfg(n), progs);
        sys.run(10_000_000).unwrap()
    };
    let gl = run(BarrierKind::Gl) as f64;
    let dsw = run(BarrierKind::Dsw) as f64;
    assert!(
        gl > 0.85 * dsw,
        "with an S2-dominated barrier GL should win little: GL {gl} vs DSW {dsw}"
    );
}

/// Per-cycle time attribution is conservative: every simulated core
/// cycle lands in exactly one Figure-6 category.
#[test]
fn time_breakdown_is_conservative() {
    let w = livermore::kernel3(8, BarrierKind::Dsw, livermore::KernelParams::scaled(64, 4));
    let mut sys = w.into_system(cfg(8));
    sys.run(100_000_000).unwrap();
    let rep = sys.report();
    let sum: u64 = TimeCat::ALL.iter().map(|&c| rep.total_time[c]).sum();
    assert_eq!(sum, rep.total_time.total());
    // Each core contributes at most `cycles` (it may halt early).
    for (i, core) in rep.per_core.iter().enumerate() {
        assert!(core.total() <= rep.cycles, "core {i} over-accounted");
        assert!(core.total() > 0, "core {i} never accounted");
    }
}

/// A heterogeneous system: half the cores run Kernel-3-style reductions,
/// half run stencil work, all meeting at the same GL barrier.
#[test]
fn heterogeneous_programs_share_one_barrier() {
    let n = 8;
    let env = BarrierEnv::new(BarrierKind::Gl, n, 0x1_0000);
    let progs: Vec<_> = (0..n)
        .map(|c| {
            let mut b = ProgBuilder::new();
            for it in 0..3 {
                if c % 2 == 0 {
                    b.busy(100 + c as u32 * 10);
                } else {
                    // Store then reload a private location.
                    b.li(Reg(1), (0x100000 + c * 64) as i64)
                        .li(Reg(2), (it * 100 + c) as i64)
                        .st(Reg(2), 0, Reg(1))
                        .ld(Reg(3), 0, Reg(1));
                }
                env.emit(&mut b, c);
            }
            b.halt();
            b.build()
        })
        .collect();
    let mut sys = System::new(cfg(n), progs);
    sys.run(10_000_000).unwrap();
    assert_eq!(sys.report().gl_barriers, 3);
}

/// Ablation: narrower NoC links never make the software barrier faster —
/// every protocol message serializes into more flits.
#[test]
fn narrower_links_never_speed_up_dsw() {
    let cycles: Vec<u64> = [75, 38, 19]
        .iter()
        .map(|&link| {
            let mut c = cfg(16);
            c.noc.link_bytes = link;
            let w = synthetic::build(16, BarrierKind::Dsw, 10);
            w.into_system(c).run(1_000_000_000).unwrap()
        })
        .collect();
    assert!(
        cycles.windows(2).all(|w| w[0] <= w[1]),
        "DSW cycles at 75/38/19-byte links must not fall: {cycles:?}"
    );
}

/// Ablation: a wider issue never makes Kernel 2 slower.
#[test]
fn wider_issue_never_slows_kernel2() {
    let p = livermore::KernelParams::scaled(512, 10);
    let cycles: Vec<u64> = [1, 2, 4]
        .iter()
        .map(|&width| {
            let mut c = cfg(8);
            c.core.issue_width = width;
            let w = livermore::kernel2(8, BarrierKind::Gl, p);
            w.into_system(c).run(1_000_000_000).unwrap()
        })
        .collect();
    assert!(
        cycles.windows(2).all(|w| w[0] >= w[1]),
        "Kernel 2 cycles at 1/2/4-wide issue must not rise: {cycles:?}"
    );
}

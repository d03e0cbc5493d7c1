//! Golden-trace tests: the exact cycle-by-cycle event sequence of the
//! paper's Figure 2 walkthrough, pinned to checked-in `.golden` files.
//!
//! Any change to G-line timing, the Figure-4 controller FSMs, or the
//! trace format itself shows up here as a readable diff. To refresh the
//! files after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! then review the diff like any other code change.

use gline_cmp::base::config::GlineConfig;
use gline_cmp::base::trace::{RingSink, Tracer};
use gline_cmp::base::{CoreId, Mesh2D};
use gline_cmp::gline::BarrierNetwork;
use std::path::PathBuf;

/// Renders every event of one barrier episode as `cycle event` lines.
///
/// All cores arrive before cycle 0 and the network runs a couple of
/// cycles past the release so post-release quiescence is pinned too.
fn episode_trace(rows: u16, cols: u16, cfg: GlineConfig, ticks: u64) -> String {
    let tracer = Tracer::new(RingSink::new(1 << 16));
    let mut net = BarrierNetwork::new(Mesh2D::new(rows, cols), cfg);
    net.set_tracer(&tracer);
    for i in 0..rows * cols {
        net.write_bar_reg(CoreId(i), 0, 1);
    }
    for _ in 0..ticks {
        net.tick();
    }
    assert!(
        net.all_released(0),
        "barrier did not complete in {ticks} cycles"
    );
    tracer.with_sink(|s: &mut RingSink| {
        s.events()
            .map(|(cycle, ev)| format!("{cycle:>8} {ev}\n"))
            .collect()
    })
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` to the checked-in golden file (or rewrites it when
/// `UPDATE_GOLDEN` is set).
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("rewrote {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with UPDATE_GOLDEN=1 to create)",
            path.display()
        )
    });
    if expected != actual {
        let exp: Vec<&str> = expected.lines().collect();
        let act: Vec<&str> = actual.lines().collect();
        let mut diff = String::new();
        for i in 0..exp.len().max(act.len()) {
            let (e, a) = (
                exp.get(i).copied().unwrap_or("<eof>"),
                act.get(i).copied().unwrap_or("<eof>"),
            );
            if e != a {
                diff.push_str(&format!("line {:>3}: - {e}\n          + {a}\n", i + 1));
            }
        }
        panic!(
            "trace diverged from {} ({} vs {} lines):\n{diff}\
             If the change is intentional, rerun with UPDATE_GOLDEN=1 and review the diff.",
            path.display(),
            exp.len(),
            act.len()
        );
    }
}

/// Figure 2 proper: 2×2 mesh, everyone arrives at once, barrier closes
/// in exactly 4 cycles (horizontal gather, vertical gather, vertical
/// release, horizontal release).
#[test]
fn fig2_2x2_episode_matches_golden() {
    assert_matches_golden(
        "fig2_2x2.golden",
        &episode_trace(2, 2, GlineConfig::default(), 6),
    );
}

/// The paper's Table-1 machine: the same episode on the 4×8 mesh (32
/// cores, 10 G-lines), still 4 cycles end to end.
#[test]
fn fig2_4x8_episode_matches_golden() {
    assert_matches_golden(
        "fig2_4x8.golden",
        &episode_trace(4, 8, GlineConfig::default(), 6),
    );
}

/// The harness has teeth: a 1-cycle perturbation (G-line latency 2
/// instead of 1) must NOT reproduce the pinned Figure-2 sequence.
#[test]
fn one_cycle_perturbation_breaks_the_golden_trace() {
    let cfg = GlineConfig {
        line_latency: 2,
        ..GlineConfig::default()
    };
    let perturbed = episode_trace(2, 2, cfg, 12);
    let golden =
        std::fs::read_to_string(golden_path("fig2_2x2.golden")).expect("golden file present");
    assert_ne!(
        perturbed, golden,
        "a slower G-line must change the pinned event sequence"
    );
}

/// The pinned sequence is deterministic: two fresh runs render
/// byte-identically.
#[test]
fn episode_trace_is_deterministic() {
    assert_eq!(
        episode_trace(2, 2, GlineConfig::default(), 6),
        episode_trace(2, 2, GlineConfig::default(), 6)
    );
}

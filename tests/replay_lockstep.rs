//! A recorded image repeats its run: for every barrier family (GL, CSW,
//! DSW, in both contention shapes of the synthetic barrier matrix), an
//! exec run is the reference; [`System::run_recorded`] takes the
//! machine's input image, which goes through `write_dir` / `read_dir` in
//! a temporary directory and is re-run by [`System::replay`] on the
//! default engine and on the dense `--no-active-set` oracle. Each re-run
//! must reproduce the reference [`SystemReport`] **and** the final
//! architectural memory exactly (compared word by word, so a failure
//! names the address). `DESIGN.md` §11 says why an image, not a trace,
//! is what a recording holds.

use gline_cmp::base::config::CmpConfig;
use gline_cmp::bench_workloads::common::{Workload, BARRIER_BASE, DATA_BASE};
use gline_cmp::bench_workloads::synthetic;
use gline_cmp::cmp::{System, SystemReport};
use gline_cmp::trace::{read_dir, write_dir, TraceSet};

const CORES: usize = 8;
const MAX_CYCLES: u64 = 10_000_000;

fn cfg() -> CmpConfig {
    CmpConfig::icpp2010_with_cores(CORES)
}

/// Every word either side could have touched: the barrier environment
/// plus the workload data region (pokes all land in these windows; the
/// generators allocate from `DATA_BASE` upward).
fn addrs(w: &Workload) -> impl Iterator<Item = u64> + '_ {
    let barrier = (BARRIER_BASE..BARRIER_BASE + 0x1000).step_by(8);
    let data = (DATA_BASE..DATA_BASE + 0x1_0000).step_by(8);
    let pokes = w.pokes.iter().map(|&(a, _)| a);
    barrier.chain(data).chain(pokes)
}

/// Records `w`, writes its image to a temporary directory and reads it
/// back; returns the image and the recording run's report.
fn record_through_disk(name: &str, w: &Workload) -> (TraceSet, SystemReport) {
    let mut sys = w.into_system(cfg());
    let (_, cores) = sys
        .run_recorded(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let set = TraceSet {
        cores,
        pokes: w.pokes.clone(),
        workload: w.name.clone(),
    };
    let dir = std::env::temp_dir().join(format!("replay_lockstep_{}_{name}", std::process::id()));
    write_dir(&dir, &set).unwrap_or_else(|e| panic!("{name}: write_dir: {e}"));
    let back = read_dir(&dir).unwrap_or_else(|e| panic!("{name}: read_dir: {e}"));
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(set, back, "{name}: the image changed on disk");
    (back, sys.report())
}

#[test]
fn replay_is_bit_identical_across_toggles() {
    for (name, w) in &synthetic::barrier_matrix(CORES, 2, 37) {
        let mut exec = w.into_system(cfg());
        exec.run(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let exec_report = exec.report();
        let (set, rec_report) = record_through_disk(name, w);
        assert_eq!(
            exec_report, rec_report,
            "{name}: recording perturbed the run"
        );

        for active in [true, false] {
            let label = format!("{name} active_set={active}");
            let mut sys = System::replay(cfg(), &set);
            sys.set_active_set_enabled(active);
            sys.run(MAX_CYCLES)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(exec_report, sys.report(), "{label}");
            for a in addrs(w) {
                assert_eq!(exec.peek_word(a), sys.peek_word(a), "{label}: mem[{a:#x}]");
            }
            if !active {
                assert_eq!(sys.skip_stats().skips, 0, "{label}: the dense tick jumped");
            }
        }
    }
}

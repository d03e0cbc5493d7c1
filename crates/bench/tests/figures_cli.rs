//! `figures` rejects what it does not understand: an unknown flag, a
//! `--json` without a path and a `--jobs` that is not a positive
//! integer are usage errors naming the flag, raised before any
//! simulation runs, so a typo never silently runs the whole suite.

use std::process::Command;

#[test]
fn unknown_flags_and_missing_or_bad_values_exit_1_naming_the_flag() {
    for (args, named) in [
        (&["--fig8"][..], "unknown option --fig8"),
        (&["--fig5", "--fig-5"], "unknown option --fig-5"),
        (&["--table1", "--full"], "unknown option --full"),
        (&["--table1", "--json"], "--json"),
        (&["--json", "--table1"], "--json"),
        (&["--table1", "--jobs", "abc"], "--jobs"),
        (&["--table1", "--jobs", "0"], "--jobs"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("figures runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: something ran");
    }
}

/// Table 1 and Figure 2 simulate nothing, at either scale: no
/// benchmark runs unless its table or figure is selected.
#[test]
fn known_flags_still_run() {
    for scale in [&[][..], &["--paper"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--table1", "--fig2", "--jobs", "1"])
            .args(scale)
            .output()
            .expect("figures runs");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(out.status.success(), "{scale:?}: {stderr}");
        assert!(
            stdout.contains("Table 1.") && stdout.contains("Figure 2."),
            "{stdout}"
        );
        for simulated in ["Table 2.", "Figure 5.", "Figure 6.", "Figure 7."] {
            assert!(!stdout.contains(simulated), "{scale:?}: {stdout}");
        }
        assert!(stderr.is_empty(), "{scale:?}: {stderr}");
    }
}

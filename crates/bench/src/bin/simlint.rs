//! Workspace determinism/safety linter — see `bench::lint` for the
//! rules and `DESIGN.md` §11 for the rationale.
//!
//! Usage: `cargo run -p bench --bin simlint -- [--deny] [ROOT]`
//!
//! Walks every `.rs` file under `ROOT` (default: the current
//! directory), prints findings as `file:line: [rule] message`, and
//! exits nonzero under `--deny`/`-D` when anything is found. CI runs it
//! with `--deny` as a hard gate.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut root = PathBuf::from(".");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny" | "-D" => deny = true,
            "--help" | "-h" => {
                eprintln!("usage: simlint [--deny] [ROOT]");
                return ExitCode::SUCCESS;
            }
            other => root = PathBuf::from(other),
        }
    }

    let findings = match bench::lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("simlint: cannot walk {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("simlint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "simlint: {} finding{} ({})",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" },
            if deny { "denied" } else { "warnings only" }
        );
        if deny {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

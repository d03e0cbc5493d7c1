//! The workspace's lints reach every crate (DESIGN.md §11 "Lints"): the
//! root package and every `crates/*` member inherit the root lint table
//! through `[lints] workspace = true`, so a new crate cannot silently
//! escape it; that table denies `unsafe` blocks without a `// SAFETY:`
//! comment; and `clippy.toml` disallows the seed-randomized std hash
//! containers and both host clocks.

use std::fs;
use std::path::Path;

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn lints_reach_every_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is listable") {
        manifests.push(entry.expect("crates/ entry").path().join("Cargo.toml"));
    }
    assert!(manifests.len() > 1, "no crate under crates/");
    for manifest in &manifests {
        assert!(
            read(manifest).contains("\n[lints]\nworkspace = true\n"),
            "{}: no `[lints] workspace = true`",
            manifest.display()
        );
    }

    let table = "\n[workspace.lints.clippy]\nundocumented_unsafe_blocks = \"deny\"\n";
    assert!(
        read(&root.join("Cargo.toml")).contains(table),
        "the root Cargo.toml does not open its clippy lint table with{table}"
    );

    let conf = read(&root.join("clippy.toml"));
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
    ] {
        let entry = format!("path = \"{path}\"");
        assert!(conf.contains(&entry), "clippy.toml misses {path}");
    }
}

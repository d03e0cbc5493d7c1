//! Metric names are valid, and the root `BENCHMARK.json` is what the
//! registry generates.

use glbench::metrics::{
    driver_per_layer, manifest, valid_name, END_TO_END, PER_LAYER, RUN_SECONDS,
};
use glbench::workload;
use sim_base::json::{self, Json};

#[test]
fn every_name_is_valid_and_used_once() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(workload::ALL.iter().map(|d| d.name))
        .collect();
    for n in &names {
        assert!(valid_name(n), "invalid name {n:?}");
    }
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(before, names.len(), "a name is used twice");
}

#[test]
fn name_validity_rule() {
    for ok in ["wall_s", "sim_mem.probe.l1_hit_ns", "a-b", "4x8", "A.b_c-1"] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in [
        "",
        "_x",
        ".x",
        "-x",
        "a b",
        "a/b",
        "a%",
        "é",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad:?}");
    }
}

#[test]
fn units_and_whys_fit_the_contract() {
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    for (name, unit) in END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
    {
        assert!(unit_ok(unit), "{name}: unit {unit:?}");
    }
    for d in &workload::ALL {
        assert!(d.why.len() <= 200 && !d.why.contains('\n'), "{}", d.name);
    }
    assert!(driver_per_layer().count() <= 128);
    assert!(END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .all(|b| b > 0.0 && b <= 0.25));
    assert!((1..=60).contains(&RUN_SECONDS));
}

#[test]
fn benchmark_json_is_the_generated_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        json::parse(&manifest().pretty()).unwrap(),
        "regenerate with `glbench manifest > BENCHMARK.json`"
    );
    let Json::Obj(pairs) = &on_disk else {
        panic!("not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let e2e = on_disk.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert!(
        e2e.iter()
            .any(|m| m.get("name").and_then(Json::as_str) == Some("setup_s")
                && m.get("unit").and_then(Json::as_str) == Some("s")
                && m.get("better").and_then(Json::as_str) == Some("lower")),
        "setup_s is required"
    );
}

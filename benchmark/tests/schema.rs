//! The result-file schema round-trips through `sim_base::json`, and the
//! comparator reads it.

use glbench::compare::{agree, compare};
use glbench::metrics::end_to_end;
use glbench::result::{ResultFile, WorkloadResult, SCHEMA};
use glbench::stats::Summary;
use sim_base::json::{self, Json};

fn workload(name: &str, wall: f64, fingerprint: f64) -> WorkloadResult {
    WorkloadResult {
        name: name.into(),
        passes: 3,
        attempted: 48,
        failed: 0,
        failures: vec![],
        end_to_end: vec![
            (
                "wall_s".into(),
                Summary::of(&[wall * 0.99, wall, wall * 1.01]),
            ),
            (
                "sim_cycles_per_s".into(),
                Summary::of(&[2.0e6 / wall, 2.02e6 / wall, 1.98e6 / wall]),
            ),
            ("setup_s".into(), Summary::of(&[0.0501, 0.0502, 0.0503])),
            ("peak_rss_mb".into(), Summary::exact(57.5)),
            ("failed_ops".into(), Summary::exact(0.0)),
            ("paper_err".into(), Summary::exact(0.1019)),
        ],
        per_layer: vec![
            (
                "sim_cmp.stats_fingerprint".into(),
                Summary::exact(fingerprint),
            ),
            ("sim_mem.l1_misses".into(), Summary::exact(694388.0)),
        ],
        sims: vec![Json::obj([
            ("name", Json::from("kernel2.GL")),
            ("cycles", Json::from(123456u64)),
            ("wall_s", Json::from(0.25)),
        ])],
    }
}

fn file(wall: f64, fingerprint: f64) -> ResultFile {
    ResultFile {
        seed: 7,
        smoke: false,
        host: Json::obj([("nproc", Json::from(2u64)), ("commit", Json::Null)]),
        workloads: vec![workload("paper_eval", wall, fingerprint)],
        probes: vec![(
            "sim_mem.probe.l1_hit_ns".into(),
            Summary::with_p99(&[38.5, 39.25, 41.0]),
        )],
    }
}

#[test]
fn result_file_round_trips() {
    let f = file(6.0, 48170983114092.0);
    let text = f.to_json().pretty();
    let back = ResultFile::from_json(&json::parse(&text).expect("valid JSON")).expect("schema");
    assert_eq!(back, f);
    // And through the compact form.
    let back = ResultFile::from_json(&json::parse(&f.to_json().dump()).unwrap()).unwrap();
    assert_eq!(back, f);
}

#[test]
fn result_file_states_schema_units_and_no_claim() {
    let j = file(6.0, 1.0).to_json();
    assert_eq!(j.get("schema").and_then(Json::as_str), Some(SCHEMA));
    assert_eq!(j.get("claim"), Some(&Json::Null));
    let wall = j.get("workloads").and_then(Json::as_arr).unwrap()[0]
        .get("end_to_end")
        .and_then(|e| e.get("wall_s"))
        .unwrap();
    assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(wall.get("n").and_then(Json::as_u64), Some(3));
}

#[test]
fn a_wrong_schema_or_missing_field_is_a_named_error() {
    let err = ResultFile::from_json(&Json::obj([("schema", Json::from("other"))])).unwrap_err();
    assert!(err.contains("schema"), "{err}");
    let err = ResultFile::from_json(&Json::obj([("schema", Json::from(SCHEMA))])).unwrap_err();
    assert!(err.contains("seed"), "{err}");
}

/// `wall` made worse by `times` the metric's own bound.
fn worse_by(wall: f64, times: f64) -> f64 {
    wall * (1.0 + times * end_to_end("wall_s").unwrap().bound.unwrap())
}

#[test]
fn compare_judges_each_metric_and_diffs_the_fingerprint_exactly() {
    let same = compare(&file(6.0, 42.0), &file(worse_by(6.0, 0.2), 42.0));
    assert_eq!((same.worse, same.unresolved), (0, 0), "{:#?}", same.lines);
    assert!(same.lines.iter().any(|l| l.contains("within bound")));
    assert!(same.lines.iter().any(|l| l.contains("identical")));

    // Twice the bound slower: wall_s and sim_cycles_per_s are both
    // worse; a changed fingerprint is reported as differing.
    let slower = compare(&file(6.0, 42.0), &file(worse_by(6.0, 2.0), 43.0));
    assert_eq!(slower.worse, 3, "{:#?}", slower.lines);
    assert!(slower.lines.iter().any(|l| l.contains("DIFFERS")));
}

#[test]
fn agree_is_symmetric_and_gates_on_the_bound() {
    let (near, far) = (worse_by(6.0, 0.5), worse_by(6.0, 2.0));
    assert_eq!(agree(&file(6.0, 42.0), &file(near, 42.0)).worse, 0);
    assert_eq!(agree(&file(near, 42.0), &file(6.0, 42.0)).worse, 0);
    assert!(agree(&file(6.0, 42.0), &file(far, 42.0)).worse > 0);
    assert!(agree(&file(far, 42.0), &file(6.0, 42.0)).worse > 0);
    // Same timings, different statistics: not the same code.
    assert!(agree(&file(6.0, 42.0), &file(6.0, 43.0)).worse > 0);
}

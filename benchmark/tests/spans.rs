//! Span bookkeeping: parents, self times, Chrome trace form.

use glbench::span::{chrome_json, self_times, Span, Tracer};
use sim_base::json::{self, Json};

fn span(name: &str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
    Span {
        name: name.into(),
        start_s,
        end_s,
        parent,
        sim: parent.map(|_| 3),
    }
}

#[test]
fn self_time_is_duration_minus_children() {
    let spans = [
        span("sim:a", 0.0, 10.0, None),
        span("sim_cmp.run", 1.0, 7.0, Some(0)),
        span("sim_cmp.report", 7.0, 8.0, Some(0)),
        span("sim_cmp.run", 8.0, 9.5, Some(0)),
    ];
    assert_eq!(self_times(&spans), [1.5, 6.0, 1.0, 1.5]);
}

#[test]
fn tracer_nests_spans_and_inherits_the_simulation_id() {
    let mut tr = Tracer::new(true);
    let sim = tr.enter("sim:x", Some(5));
    let ((), inner_s) = tr.span("sim_cmp.run", || ());
    let outer_s = tr.exit(sim);
    assert!(outer_s >= inner_s && inner_s >= 0.0);
    let spans = tr.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].parent, spans[0].sim), (None, Some(5)));
    assert_eq!((spans[1].parent, spans[1].sim), (Some(0), Some(5)));
    assert!(spans[0].start_s <= spans[1].start_s && spans[1].end_s <= spans[0].end_s);
}

#[test]
fn a_disabled_tracer_times_but_keeps_nothing() {
    let mut tr = Tracer::new(false);
    let (v, s) = tr.span("sim_cmp.run", || 41 + 1);
    assert_eq!(v, 42);
    assert!(s >= 0.0);
    assert!(tr.spans().is_empty());
}

#[test]
fn chrome_trace_holds_complete_events_with_parent_and_sim() {
    let spans = [
        span("sim:a", 0.0, 2.0, None),
        span("sim_cmp.run", 0.5, 1.5, Some(0)),
    ];
    let parsed = json::parse(&chrome_json(&spans).pretty()).expect("valid JSON");
    let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), 2);
    let run = &events[1];
    assert_eq!(run.get("ph").and_then(Json::as_str), Some("X"));
    assert_eq!(run.get("cat").and_then(Json::as_str), Some("sim_cmp"));
    assert_eq!(run.get("ts").and_then(Json::as_f64), Some(0.5e6));
    assert_eq!(run.get("dur").and_then(Json::as_f64), Some(1.0e6));
    let args = run.get("args").unwrap();
    assert_eq!(args.get("parent").and_then(Json::as_str), Some("sim:a"));
    assert_eq!(args.get("sim").and_then(Json::as_u64), Some(3));
}

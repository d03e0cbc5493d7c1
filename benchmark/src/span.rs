//! Spans around the benchmark's calls into each layer.
//!
//! Every call is timed whether or not tracing is on (the end-to-end
//! metrics are sums of these durations); a traced pass additionally
//! keeps each span — name, start, end, parent, simulation id — in memory
//! and writes them out as Chrome `trace_event` JSON when the run ends.

use sim_base::json::Json;

use crate::clock::{self, Stamp};

/// One recorded span. Times are host seconds since the tracer was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, `sim:<name>`, `probe:<layer>` or `workload`.
    pub name: String,
    /// Start time.
    pub start_s: f64,
    /// End time.
    pub end_s: f64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
    /// The simulation this span belongs to (spans of one simulation
    /// share it).
    pub sim: Option<usize>,
}

/// An open span; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open {
    start: Stamp,
    index: Option<usize>,
}

/// Times spans, and records them when enabled.
pub struct Tracer {
    enabled: bool,
    origin: Stamp,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only times.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: clock::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span inside the innermost open one. `sim` tags it with a
    /// simulation id; `None` inherits the parent's.
    pub fn enter(&mut self, name: &str, sim: Option<usize>) -> Open {
        let index = self.enabled.then(|| {
            let parent = self.stack.last().copied();
            self.spans.push(Span {
                name: name.to_string(),
                start_s: 0.0,
                end_s: 0.0,
                parent,
                sim: sim.or_else(|| parent.and_then(|p| self.spans[p].sim)),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        // The clock is read last on entry and first on exit, so the
        // bookkeeping above stays outside the measured interval.
        Open {
            start: clock::now(),
            index,
        }
    }

    /// Closes `open` and returns its duration in host seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = clock::now();
        if let Some(i) = open.index {
            assert_eq!(self.stack.pop(), Some(i), "spans close innermost first");
            self.spans[i].start_s = open.start.since_s(self.origin);
            self.spans[i].end_s = end.since_s(self.origin);
        }
        end.since_s(open.start)
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name, None);
        let out = f();
        (out, self.exit(open))
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_s - s.start_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_s - s.start_s;
        }
    }
    own
}

/// Chrome `trace_event` form of `spans` (complete events, microseconds),
/// loadable in Perfetto or `chrome://tracing`.
pub fn chrome_json(spans: &[Span]) -> Json {
    let own = self_times(spans);
    let events = spans.iter().zip(own).map(|(s, self_s)| {
        let mut args = vec![("self_us", Json::from(self_s * 1e6))];
        if let Some(sim) = s.sim {
            args.push(("sim", Json::from(sim)));
        }
        if let Some(p) = s.parent {
            args.push(("parent", Json::from(spans[p].name.as_str())));
        }
        Json::obj([
            ("name", Json::from(s.name.as_str())),
            (
                "cat",
                Json::from(s.name.split(['.', ':']).next().unwrap_or("")),
            ),
            ("ph", Json::from("X")),
            ("ts", Json::from(s.start_s * 1e6)),
            ("dur", Json::from((s.end_s - s.start_s) * 1e6)),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(1u64)),
            ("args", Json::obj(args)),
        ])
    });
    Json::obj([
        ("traceEvents", Json::arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

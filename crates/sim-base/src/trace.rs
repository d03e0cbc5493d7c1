//! Cycle-level event tracing.
//!
//! Every layer of the simulator (G-lines, controller FSMs, NoC, caches,
//! cores) can emit typed [`Event`]s into a [`TraceSink`]. Tracing is a
//! run-time switch: each layer holds a [`Tracer`], which is off unless a
//! sink is installed, and [`Tracer::emit`] takes the event as a closure
//! that it calls only when the tracer is on. An untraced run pays one
//! field test per trace site and builds no event.
//!
//! Two sinks are provided:
//!
//! * [`RingSink`] — keeps the last *N* events for post-mortem dumps when
//!   a differential test diverges or a run wedges.
//! * [`ChromeSink`] — streams every event to a writer as Chrome
//!   `trace_event` JSON for `chrome://tracing` / Perfetto.
//!
//! Components hold clones of one [`Tracer`] (a shared handle, cheap to
//! clone), so one sink observes the whole system in a single stream, in
//! the order the layers emit.

use crate::clock::Cycle;
use crate::geom::Dir;
use crate::ids::CoreId;
use crate::json::Json;
use crate::stats::{MsgClass, TimeCat};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufWriter, Write};
use std::rc::Rc;

/// Which G-line of a barrier context an event refers to (the paper's
/// `2 × (rows + 1)` wires: gather + release per row, gather + release for
/// the first column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GlineKind {
    /// A row's horizontal gather line (slaves → row master).
    RowGather,
    /// A row's horizontal release line (row master → slaves).
    RowRelease,
    /// The column gather line (row masters → vertical master).
    ColGather,
    /// The column release line (vertical master → row masters).
    ColRelease,
}

impl GlineKind {
    /// Stable lowercase label used in trace dumps.
    pub fn label(self) -> &'static str {
        match self {
            GlineKind::RowGather => "row_gather",
            GlineKind::RowRelease => "row_release",
            GlineKind::ColGather => "col_gather",
            GlineKind::ColRelease => "col_release",
        }
    }
}

/// Which of the paper's Figure-4 controller automata an event refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtrlKind {
    /// Horizontal slave (tiles outside column 0).
    SlaveH,
    /// Horizontal master (column-0 tile of each row).
    MasterH,
    /// Vertical slave (column-0 tiles of rows ≥ 1).
    SlaveV,
    /// Vertical master (tile (0,0)).
    MasterV,
}

impl CtrlKind {
    /// Stable label used in trace dumps.
    pub fn label(self) -> &'static str {
        match self {
            CtrlKind::SlaveH => "slaveH",
            CtrlKind::MasterH => "masterH",
            CtrlKind::SlaveV => "slaveV",
            CtrlKind::MasterV => "masterV",
        }
    }
}

/// One traced occurrence. The variants cover every simulated layer; each
/// carries just enough context to be interpreted on its own.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A controller asserted a G-line (transmit edge). `count` is the
    /// number of transmitters on the wire after this assert.
    GlineAssert {
        /// Barrier context.
        ctx: u32,
        /// Which wire.
        kind: GlineKind,
        /// Row of the wire (0 for the column lines).
        row: u16,
        /// Transmitters asserting simultaneously so far this cycle.
        count: u32,
    },
    /// The single receiver of a G-line sensed a nonzero S-CSMA count.
    GlineSense {
        /// Barrier context.
        ctx: u32,
        /// Which wire.
        kind: GlineKind,
        /// Row of the wire (0 for the column lines).
        row: u16,
        /// The sensed transmitter count.
        count: u32,
    },
    /// A Figure-4 controller automaton changed state.
    CtrlTransition {
        /// Barrier context.
        ctx: u32,
        /// Tile hosting the controller.
        core: CoreId,
        /// Which automaton.
        ctrl: CtrlKind,
        /// State before the cycle.
        from: &'static str,
        /// State after the cycle.
        to: &'static str,
    },
    /// A core wrote a nonzero `bar_reg` (arrived at the barrier).
    BarrierArrive {
        /// Barrier context.
        ctx: u32,
        /// The arriving core.
        core: CoreId,
    },
    /// A core's `bar_reg` was cleared by the release wave.
    BarrierRelease {
        /// Barrier context.
        ctx: u32,
        /// The released core.
        core: CoreId,
    },
    /// A barrier episode completed (all members released).
    BarrierComplete {
        /// Barrier context.
        ctx: u32,
        /// Cycles from the last arrival to the release, inclusive.
        latency: Cycle,
    },
    /// A message entered the NoC.
    NocSend {
        /// Packet id (unique per NoC).
        pkt: u64,
        /// Source tile.
        src: CoreId,
        /// Destination tile.
        dst: CoreId,
        /// Virtual network.
        class: MsgClass,
        /// Number of flits.
        flits: u32,
    },
    /// A flit won switch allocation and left a router output port.
    NocFlitHop {
        /// Packet id.
        pkt: u64,
        /// Router the flit departed.
        at: CoreId,
        /// Output port.
        port: Dir,
    },
    /// A complete message left the NoC at its destination.
    NocDeliver {
        /// Packet id.
        pkt: u64,
        /// Destination tile.
        dst: CoreId,
        /// Virtual network.
        class: MsgClass,
        /// Injection-to-delivery latency in cycles.
        latency: Cycle,
    },
    /// An L1 data access was serviced (hit) or started a miss.
    L1Access {
        /// The accessing core.
        core: CoreId,
        /// Byte address.
        addr: u64,
        /// True for stores/atomics.
        write: bool,
        /// True when serviced without the protocol.
        hit: bool,
    },
    /// An L1 line changed MESI state (I = not resident).
    L1Transition {
        /// The cache's core.
        core: CoreId,
        /// Cache-line number.
        line: u64,
        /// State before.
        from: &'static str,
        /// State after.
        to: &'static str,
    },
    /// A directory entry at a home bank changed state.
    DirTransition {
        /// Home tile.
        home: CoreId,
        /// Cache-line number.
        line: u64,
        /// State before (`"I"`, `"S"`, `"E"`).
        from: &'static str,
        /// State after.
        to: &'static str,
    },
    /// An L2 bank lookup.
    L2Access {
        /// Home tile.
        home: CoreId,
        /// Cache-line number.
        line: u64,
        /// True when the bank held the line.
        hit: bool,
    },
    /// A core retired instructions this cycle.
    Retire {
        /// The core.
        core: CoreId,
        /// Program counter of the first instruction retired.
        pc: u32,
        /// Instructions retired.
        count: u8,
    },
    /// A core finished a multi-cycle stall.
    Stall {
        /// The core.
        core: CoreId,
        /// What the stall was charged to.
        cat: TimeCat,
        /// Stall length in cycles.
        cycles: Cycle,
    },
    /// A core entered a new accounting region (`setregion`).
    Region {
        /// The core.
        core: CoreId,
        /// The new region.
        cat: TimeCat,
    },
}

impl Event {
    /// Short stable name of the variant (Chrome trace `name` field).
    pub fn name(&self) -> &'static str {
        match self {
            Event::GlineAssert { .. } => "gline.assert",
            Event::GlineSense { .. } => "gline.sense",
            Event::CtrlTransition { .. } => "ctrl.transition",
            Event::BarrierArrive { .. } => "barrier.arrive",
            Event::BarrierRelease { .. } => "barrier.release",
            Event::BarrierComplete { .. } => "barrier.complete",
            Event::NocSend { .. } => "noc.send",
            Event::NocFlitHop { .. } => "noc.flit_hop",
            Event::NocDeliver { .. } => "noc.deliver",
            Event::L1Access { .. } => "l1.access",
            Event::L1Transition { .. } => "l1.transition",
            Event::DirTransition { .. } => "dir.transition",
            Event::L2Access { .. } => "l2.access",
            Event::Retire { .. } => "core.retire",
            Event::Stall { .. } => "core.stall",
            Event::Region { .. } => "core.region",
        }
    }

    /// The Chrome-trace lane (`tid`) this event renders on: per-core
    /// events use the core index; network-wide and wire-level events get
    /// high-numbered lanes so they group separately.
    pub fn lane(&self) -> u64 {
        match self {
            Event::GlineAssert { row, kind, .. } | Event::GlineSense { row, kind, .. } => {
                1000 + 4 * *row as u64 + *kind as u64
            }
            Event::CtrlTransition { core, .. }
            | Event::BarrierArrive { core, .. }
            | Event::BarrierRelease { core, .. }
            | Event::L1Access { core, .. }
            | Event::L1Transition { core, .. }
            | Event::Retire { core, .. }
            | Event::Stall { core, .. }
            | Event::Region { core, .. } => core.index() as u64,
            Event::DirTransition { home, .. } | Event::L2Access { home, .. } => home.index() as u64,
            Event::BarrierComplete { .. } => 999,
            Event::NocSend { src, .. } => src.index() as u64,
            Event::NocDeliver { dst, .. } => dst.index() as u64,
            Event::NocFlitHop { at, .. } => at.index() as u64,
        }
    }

    /// The event's arguments as a JSON object (Chrome trace `args`).
    pub fn args_json(&self) -> Json {
        match self {
            Event::GlineAssert {
                ctx,
                kind,
                row,
                count,
            }
            | Event::GlineSense {
                ctx,
                kind,
                row,
                count,
            } => Json::obj([
                ("ctx", Json::from(*ctx)),
                ("line", Json::from(kind.label())),
                ("row", Json::from(*row)),
                ("count", Json::from(*count)),
            ]),
            Event::CtrlTransition {
                ctx,
                core,
                ctrl,
                from,
                to,
            } => Json::obj([
                ("ctx", Json::from(*ctx)),
                ("core", Json::from(core.index())),
                ("ctrl", Json::from(ctrl.label())),
                ("from", Json::from(*from)),
                ("to", Json::from(*to)),
            ]),
            Event::BarrierArrive { ctx, core } | Event::BarrierRelease { ctx, core } => {
                Json::obj([
                    ("ctx", Json::from(*ctx)),
                    ("core", Json::from(core.index())),
                ])
            }
            Event::BarrierComplete { ctx, latency } => {
                Json::obj([("ctx", Json::from(*ctx)), ("latency", Json::from(*latency))])
            }
            Event::NocSend {
                pkt,
                src,
                dst,
                class,
                flits,
            } => Json::obj([
                ("pkt", Json::from(*pkt)),
                ("src", Json::from(src.index())),
                ("dst", Json::from(dst.index())),
                ("class", Json::from(class.label())),
                ("flits", Json::from(*flits)),
            ]),
            Event::NocFlitHop { pkt, at, port } => Json::obj([
                ("pkt", Json::from(*pkt)),
                ("at", Json::from(at.index())),
                ("port", Json::from(format!("{port:?}"))),
            ]),
            Event::NocDeliver {
                pkt,
                dst,
                class,
                latency,
            } => Json::obj([
                ("pkt", Json::from(*pkt)),
                ("dst", Json::from(dst.index())),
                ("class", Json::from(class.label())),
                ("latency", Json::from(*latency)),
            ]),
            Event::L1Access {
                core,
                addr,
                write,
                hit,
            } => Json::obj([
                ("core", Json::from(core.index())),
                ("addr", Json::from(*addr)),
                ("write", Json::from(*write)),
                ("hit", Json::from(*hit)),
            ]),
            Event::L1Transition {
                core,
                line,
                from,
                to,
            } => Json::obj([
                ("core", Json::from(core.index())),
                ("line", Json::from(*line)),
                ("from", Json::from(*from)),
                ("to", Json::from(*to)),
            ]),
            Event::DirTransition {
                home,
                line,
                from,
                to,
            } => Json::obj([
                ("home", Json::from(home.index())),
                ("line", Json::from(*line)),
                ("from", Json::from(*from)),
                ("to", Json::from(*to)),
            ]),
            Event::L2Access { home, line, hit } => Json::obj([
                ("home", Json::from(home.index())),
                ("line", Json::from(*line)),
                ("hit", Json::from(*hit)),
            ]),
            Event::Retire { core, pc, count } => Json::obj([
                ("core", Json::from(core.index())),
                ("pc", Json::from(*pc)),
                ("count", Json::from(*count)),
            ]),
            Event::Stall { core, cat, cycles } => Json::obj([
                ("core", Json::from(core.index())),
                ("cat", Json::from(cat.label())),
                ("cycles", Json::from(*cycles)),
            ]),
            Event::Region { core, cat } => Json::obj([
                ("core", Json::from(core.index())),
                ("cat", Json::from(cat.label())),
            ]),
        }
    }
}

impl fmt::Display for Event {
    /// One stable line per event — the format the golden-trace files pin.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::GlineAssert {
                ctx,
                kind,
                row,
                count,
            } => {
                write!(
                    f,
                    "gline.assert ctx{ctx} {} row{row} count={count}",
                    kind.label()
                )
            }
            Event::GlineSense {
                ctx,
                kind,
                row,
                count,
            } => {
                write!(
                    f,
                    "gline.sense ctx{ctx} {} row{row} count={count}",
                    kind.label()
                )
            }
            Event::CtrlTransition {
                ctx,
                core,
                ctrl,
                from,
                to,
            } => {
                write!(f, "ctrl ctx{ctx} {} {:?} {from}->{to}", ctrl.label(), core)
            }
            Event::BarrierArrive { ctx, core } => write!(f, "barrier.arrive ctx{ctx} {core:?}"),
            Event::BarrierRelease { ctx, core } => write!(f, "barrier.release ctx{ctx} {core:?}"),
            Event::BarrierComplete { ctx, latency } => {
                write!(f, "barrier.complete ctx{ctx} latency={latency}")
            }
            Event::NocSend {
                pkt,
                src,
                dst,
                class,
                flits,
            } => {
                write!(
                    f,
                    "noc.send pkt{pkt} {src:?}->{dst:?} {} flits={flits}",
                    class.label()
                )
            }
            Event::NocFlitHop { pkt, at, port } => {
                write!(f, "noc.flit_hop pkt{pkt} at={at:?} port={port:?}")
            }
            Event::NocDeliver {
                pkt,
                dst,
                class,
                latency,
            } => {
                write!(
                    f,
                    "noc.deliver pkt{pkt} {dst:?} {} latency={latency}",
                    class.label()
                )
            }
            Event::L1Access {
                core,
                addr,
                write,
                hit,
            } => write!(
                f,
                "l1.access {core:?} addr=0x{addr:x} {} {}",
                if *write { "write" } else { "read" },
                if *hit { "hit" } else { "miss" }
            ),
            Event::L1Transition {
                core,
                line,
                from,
                to,
            } => {
                write!(f, "l1.transition {core:?} L0x{line:x} {from}->{to}")
            }
            Event::DirTransition {
                home,
                line,
                from,
                to,
            } => {
                write!(f, "dir.transition {home:?} L0x{line:x} {from}->{to}")
            }
            Event::L2Access { home, line, hit } => write!(
                f,
                "l2.access {home:?} L0x{line:x} {}",
                if *hit { "hit" } else { "miss" }
            ),
            Event::Retire { core, pc, count } => {
                write!(f, "core.retire {core:?} pc={pc} count={count}")
            }
            Event::Stall { core, cat, cycles } => {
                write!(f, "core.stall {core:?} {} cycles={cycles}", cat.label())
            }
            Event::Region { core, cat } => write!(f, "core.region {core:?} {}", cat.label()),
        }
    }
}

/// Destination of traced events: a [`RingSink`], a [`ChromeSink`]
/// or any other recorder a [`Tracer`] is built around.
pub trait TraceSink: Any {
    /// Records one event at `cycle`.
    fn emit(&mut self, cycle: Cycle, ev: Event);
}

/// Keeps the most recent `capacity` events for post-mortem dumps.
#[derive(Clone, Debug)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<(Cycle, Event)>,
    /// Total events observed, including evicted ones.
    seen: u64,
}

impl RingSink {
    /// A ring holding the last `capacity` events (capacity 0 keeps none).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            seen: 0,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(Cycle, Event)> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events observed since creation (retained or evicted).
    pub fn total_seen(&self) -> u64 {
        self.seen
    }

    /// Multi-line human-readable dump of the retained events.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        let evicted = self.seen - self.buf.len() as u64;
        if evicted > 0 {
            s.push_str(&format!("... {evicted} earlier events evicted ...\n"));
        }
        for (cycle, ev) in &self.buf {
            s.push_str(&format!("{cycle:>8} {ev}\n"));
        }
        s
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, cycle: Cycle, ev: Event) {
        self.seen += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back((cycle, ev));
    }
}

/// Streams Chrome `trace_event` JSON to a writer: the header when built,
/// each event as it arrives (compact, one per line, one microsecond per
/// simulated cycle) and the footer on [`finish`](Self::finish). It keeps
/// no events, so a trace of any length costs a write buffer. A write
/// error stops the stream and is kept until `finish` reports it.
pub struct ChromeSink<W: Write> {
    out: BufWriter<W>,
    written: u64,
    result: io::Result<()>,
}

impl<W: Write> ChromeSink<W> {
    /// A sink that has written the header of the trace object to `out`.
    pub fn new(out: W) -> ChromeSink<W> {
        let mut sink = ChromeSink {
            out: BufWriter::new(out),
            written: 0,
            result: Ok(()),
        };
        sink.put(format_args!(
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"clock\":\"simulated-cycles\"}},\"traceEvents\":["
        ));
        sink
    }

    /// Writes the footer and flushes. Returns the number of events
    /// written, or the first write error.
    pub fn finish(&mut self) -> io::Result<u64> {
        self.put(format_args!("\n]}}\n"));
        std::mem::replace(&mut self.result, Ok(()))?;
        self.out.flush()?;
        Ok(self.written)
    }

    fn put(&mut self, text: fmt::Arguments<'_>) {
        if self.result.is_ok() {
            self.result = self.out.write_fmt(text);
        }
    }
}

/// The trace category of an event: the layer its name starts with.
fn category_of(ev: &Event) -> &'static str {
    match ev.name().split_once('.').map_or("", |(layer, _)| layer) {
        "gline" | "ctrl" | "barrier" => "gline",
        "l1" | "l2" | "dir" => "mem",
        layer => layer,
    }
}

impl<W: Write + 'static> TraceSink for ChromeSink<W> {
    fn emit(&mut self, cycle: Cycle, ev: Event) {
        let event = Json::obj([
            ("name", Json::from(ev.name())),
            ("cat", Json::from(category_of(&ev))),
            ("ph", Json::from("i")),
            ("s", Json::from("t")),
            ("ts", Json::from(cycle)),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(ev.lane())),
            ("args", ev.args_json()),
        ]);
        let sep = if self.written == 0 { "" } else { "," };
        self.put(format_args!("{sep}\n{event}"));
        self.written += 1;
    }
}

/// A shared handle to a sink, held by every component of one simulated
/// system, or no sink at all: the default tracer is off. Cloning shares
/// the underlying sink.
#[derive(Clone, Default)]
pub struct Tracer {
    /// The sink; `None` switches tracing off.
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl Tracer {
    /// A tracer that is on, recording into `sink`.
    pub fn new(sink: impl TraceSink) -> Tracer {
        Tracer {
            sink: Some(Rc::new(RefCell::new(sink))),
        }
    }

    /// True when this tracer records events.
    #[inline(always)]
    pub fn on(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits an event. The closure is only evaluated when the tracer is
    /// on, so an untraced call builds nothing.
    #[inline(always)]
    pub fn emit(&self, cycle: Cycle, ev: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().emit(cycle, ev());
        }
    }

    /// Runs `f` with exclusive access to the sink (to read a ring buffer
    /// back out, finish a Chrome trace, …).
    ///
    /// # Panics
    /// Panics if the tracer is off or its sink is not an `S`.
    pub fn with_sink<S: TraceSink, R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let sink = self.sink.as_ref().expect("the tracer is off");
        let mut sink = sink.borrow_mut();
        let sink: &mut dyn Any = &mut *sink;
        f(sink
            .downcast_mut()
            .expect("the tracer's sink is of another type"))
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.on() {
            "Tracer(on)"
        } else {
            "Tracer(off)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn ev(core: u16) -> Event {
        Event::BarrierArrive {
            ctx: 0,
            core: CoreId(core),
        }
    }

    #[test]
    fn an_off_tracer_skips_event_construction() {
        let t = Tracer::default();
        assert!(!t.on());
        let mut constructed = false;
        t.emit(0, || {
            constructed = true;
            ev(0)
        });
        assert!(
            !constructed,
            "an off tracer must not evaluate the event closure"
        );
        assert!(Tracer::new(RingSink::new(1)).on());
    }

    #[test]
    fn ring_sink_keeps_last_n() {
        let t = Tracer::new(RingSink::new(3));
        for i in 0..10u16 {
            t.emit(i as Cycle, || ev(i));
        }
        t.with_sink(|s: &mut RingSink| {
            assert_eq!(s.len(), 3);
            assert_eq!(s.total_seen(), 10);
            let kept: Vec<Cycle> = s.events().map(|(c, _)| *c).collect();
            assert_eq!(kept, vec![7, 8, 9]);
            assert!(s.dump().contains("7 earlier events evicted"));
        });
    }

    #[test]
    fn ring_capacity_zero_counts_but_keeps_nothing() {
        let mut s = RingSink::new(0);
        s.emit(1, ev(1));
        assert!(s.is_empty());
        assert_eq!(s.total_seen(), 1);
    }

    #[test]
    fn cloned_tracers_share_one_sink() {
        let t = Tracer::new(RingSink::new(8));
        let t2 = t.clone();
        t.emit(1, || ev(1));
        t2.emit(2, || ev(2));
        t.with_sink(|s: &mut RingSink| assert_eq!(s.len(), 2));
    }

    #[test]
    fn chrome_stream_is_valid_json_with_trace_events() {
        let t = Tracer::new(ChromeSink::new(Vec::new()));
        t.emit(0, || ev(3));
        t.emit(4, || Event::BarrierComplete { ctx: 0, latency: 4 });
        let text = t.with_sink(|s: &mut ChromeSink<Vec<u8>>| {
            assert_eq!(s.finish().unwrap(), 2);
            String::from_utf8(s.out.get_ref().clone()).unwrap()
        });
        assert_eq!(
            text.lines().count(),
            4,
            "header, one line per event, footer"
        );
        let parsed = json::parse(&text).expect("chrome trace must be valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert!(e.get("name").and_then(Json::as_str).is_some());
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("i"));
            assert!(e.get("ts").and_then(Json::as_u64).is_some());
            assert!(e.get("pid").and_then(Json::as_u64).is_some());
            assert!(e.get("tid").and_then(Json::as_u64).is_some());
        }
        assert_eq!(events[1].get("ts").and_then(Json::as_u64), Some(4));
        let empty = ChromeSink::new(Vec::new()).finish();
        assert_eq!(empty.unwrap(), 0);
    }

    /// A writer that fails on its second write.
    struct FailSecond(u32);

    impl Write for FailSecond {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0 += 1;
            match self.0 {
                1 => Ok(buf.len()),
                _ => Err(io::Error::other("disk full")),
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn chrome_write_error_is_kept_for_finish() {
        let mut s = ChromeSink::new(FailSecond(0));
        s.out.flush().unwrap();
        for c in 0..10_000 {
            s.emit(c, ev(1));
        }
        assert_eq!(s.finish().unwrap_err().to_string(), "disk full");
    }

    #[test]
    fn event_display_is_stable() {
        let e = Event::GlineSense {
            ctx: 0,
            kind: GlineKind::RowGather,
            row: 2,
            count: 7,
        };
        assert_eq!(e.to_string(), "gline.sense ctx0 row_gather row2 count=7");
        let e = Event::CtrlTransition {
            ctx: 1,
            core: CoreId(8),
            ctrl: CtrlKind::MasterH,
            from: "Accounting",
            to: "Waiting",
        };
        assert_eq!(e.to_string(), "ctrl ctx1 masterH core8 Accounting->Waiting");
    }
}

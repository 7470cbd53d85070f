//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a crate's public API in a span
//! (name, start, end, parent). The engine loop is not visible from the
//! outside, so its span is derived from `EngineVitals::wall_ns` and
//! placed at the end of the call that ran it. Spans stay in memory and
//! are written once, when the run ends; with tracing off `span` is a
//! plain call.

use logp_sim::EngineVitals;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's epoch.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the run's span list.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u32,
    /// `true` for the engine span, whose interval comes from the
    /// engine's own wall clock rather than from the benchmark's.
    pub derived: bool,
    /// For an engine span: its parent span is one simulation run and
    /// nothing else, so the parent's time outside the engine loop is
    /// that run's build and assembly (`sim.outside_loop_s`).
    pub whole_run: bool,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
    /// First span of the op in progress.
    op_start: usize,
    counters: BTreeMap<&'static str, f64>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        op: 0,
        op_start: 0,
        counters: BTreeMap::new(),
    });
    static ENGINE: Cell<&'static str> = const { Cell::new("none") };
}

/// Turn span recording on or off for the ops that follow.
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

fn enabled() -> bool {
    ON.with(Cell::get)
}

fn now_ns(rec: &Recorder) -> u64 {
    rec.epoch.elapsed().as_nanos() as u64
}

/// Run `f` inside a span called `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = now_ns(&r);
        let (parent, op) = (r.stack.last().copied(), r.op);
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            derived: false,
            whole_run: false,
        });
        let id = r.spans.len() - 1;
        r.stack.push(id);
        id
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end = now_ns(&r);
        r.spans[id].end_ns = end;
        let top = r.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    });
    out
}

/// Note a finished simulation run from inside the span that ran it:
/// adds the derived `sim.engine` child span and the run's engine counters.
/// `whole_run` says the enclosing span is that run alone (an `algos.*`
/// or `obs.*` call), not a larger call that also runs other code, such
/// as `run_workload`'s validation and lowering.
pub fn engine(v: &EngineVitals, whole_run: bool) {
    ENGINE.with(|e| e.set(v.engine));
    if !enabled() {
        return;
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let parent = *r.stack.last().expect("engine runs are noted inside a span");
        let end_ns = now_ns(&r);
        let start_ns = end_ns
            .saturating_sub(v.wall_ns)
            .max(r.spans[parent].start_ns);
        let op = r.op;
        r.spans.push(Span {
            name: "sim.engine",
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
            derived: true,
            whole_run,
        });
        let lane_total: u64 = v.lane_events.iter().sum();
        let lane_max = v.lane_events.iter().copied().max().unwrap_or(0);
        for (k, x) in [
            ("sim.runs", 1),
            ("sim.events", v.events),
            ("sim.windows", v.windows),
            ("sim.fast_forwards", v.fast_forwards),
            ("sim.capacity_relaxed", v.capacity_relaxed),
            ("lane.max_events", lane_max),
            ("lane.total_events", lane_total),
        ] {
            *r.counters.entry(k).or_default() += x as f64;
        }
    });
}

/// Add `value` to the op's counter `name` (tracing on only).
pub fn count(name: &'static str, value: f64) {
    if enabled() {
        REC.with(|r| *r.borrow_mut().counters.entry(name).or_default() += value);
    }
}

/// The engine that ran the most recent simulation (`vitals.engine`).
pub fn last_engine() -> &'static str {
    ENGINE.with(Cell::get)
}

/// Per-layer totals of one traced op.
#[derive(Default)]
pub struct OpLayers {
    /// Wall seconds of the op's root span.
    pub wall: f64,
    /// Sum of span durations by name, in seconds.
    pub incl: BTreeMap<&'static str, f64>,
    /// Sum of span self times by name (duration minus the part its
    /// children cover), in seconds; the root's is the op's own time.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Engine-counter and workload counters.
    pub counters: BTreeMap<&'static str, f64>,
}

impl OpLayers {
    pub fn incl(&self, name: &str) -> f64 {
        self.incl.get(name).copied().unwrap_or(0.0)
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Share of the op's wall time that layer spans account for.
    pub fn coverage(&self) -> f64 {
        let layers: f64 = self
            .self_s
            .iter()
            .filter(|(k, _)| **k != "op")
            .map(|(_, v)| v)
            .sum();
        layers / self.wall
    }
}

/// Run one op under a root span called `op` and fold its spans into
/// per-layer totals. Requires tracing to be on.
pub fn traced_op<R>(f: impl FnOnce() -> R) -> (R, OpLayers) {
    assert!(enabled(), "traced_op needs tracing on");
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.op_start = r.spans.len();
        r.counters.clear();
    });
    let out = span("op", f);
    let layers = REC.with(|r| {
        let mut r = r.borrow_mut();
        let counters = std::mem::take(&mut r.counters);
        r.op += 1;
        let spans = &r.spans[r.op_start..];
        let mut child_ns = vec![0u64; spans.len()];
        let base = r.op_start;
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p - base] += s.end_ns - s.start_ns;
            }
        }
        let mut l = OpLayers {
            counters,
            ..OpLayers::default()
        };
        let mut outside_ns = 0u64;
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            *l.incl.entry(s.name).or_default() += dur as f64 * 1e-9;
            *l.self_s.entry(s.name).or_default() += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
            if s.parent.is_none() {
                l.wall = dur as f64 * 1e-9;
            }
            if s.derived && s.whole_run {
                let p = &spans[s.parent.expect("engine spans have a parent") - base];
                outside_ns += (p.end_ns - p.start_ns).saturating_sub(dur);
            }
        }
        l.counters
            .insert("sim.outside_loop_s", outside_ns as f64 * 1e-9);
        l
    });
    (out, layers)
}

/// All spans recorded so far, one JSON object per line.
pub fn spans_jsonl() -> String {
    REC.with(|r| {
        let r = r.borrow();
        let mut s = String::new();
        for (i, sp) in r.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"derived\":{}}}",
                sp.op, sp.name, sp.start_ns, sp.end_ns, sp.derived
            );
        }
        s
    })
}

//! Hierarchical spans with RAII timing.
//!
//! A trace is thread-local: [`trace_begin`] opens a root span, [`span`]
//! opens nested children whose guards close them on drop, and [`trace_end`]
//! closes everything and returns the finished [`PipelineTrace`]. When no
//! trace is active, [`span`] and [`record`] are cheap no-ops — the pipeline
//! stays instrumented permanently without taxing un-traced runs.
//!
//! Guards are depth-indexed rather than identity-tracked: dropping a guard
//! closes its span *and any still-open descendants*, clamping their end
//! times to the parent's. A child span therefore can never be recorded as
//! outliving its parent, even if its guard is leaked or dropped out of
//! order.

use crate::json::Json;
use crate::metrics::Registry;
use std::cell::RefCell;
use std::time::Instant;

/// A value recorded on a span via [`record`].
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    Int(i64),
    Float(f64),
    Str(String),
}

impl From<i64> for Field {
    fn from(v: i64) -> Field {
        Field::Int(v)
    }
}

impl From<u64> for Field {
    fn from(v: u64) -> Field {
        Field::Int(v as i64)
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Field {
        Field::Int(v as i64)
    }
}

impl From<u32> for Field {
    fn from(v: u32) -> Field {
        Field::Int(v as i64)
    }
}

impl From<f64> for Field {
    fn from(v: f64) -> Field {
        Field::Float(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Field {
        Field::Str(v.to_string())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Field {
        Field::Str(v)
    }
}

impl Field {
    fn to_json(&self) -> Json {
        match self {
            Field::Int(v) => Json::Int(*v),
            Field::Float(v) => Json::Num(*v),
            Field::Str(v) => Json::Str(v.clone()),
        }
    }
}

/// A closed span in the finished trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    pub name: String,
    /// Start offset from the trace origin, in microseconds.
    pub start_us: f64,
    /// Wall-clock duration, in microseconds.
    pub elapsed_us: f64,
    pub fields: Vec<(String, Field)>,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_us / 1_000.0
    }

    /// Depth-first search for the first span with this name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    pub fn field(&self, key: &str) -> Option<&Field> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn to_json(&self) -> Json {
        let mut fields = Json::obj();
        for (k, v) in &self.fields {
            fields = fields.set(k, v.to_json());
        }
        Json::obj()
            .set("name", self.name.as_str())
            .set("start_us", self.start_us)
            .set("elapsed_us", self.elapsed_us)
            .set("fields", fields)
            .set("children", Json::Arr(self.children.iter().map(|c| c.to_json()).collect()))
    }
}

struct OpenSpan {
    name: String,
    started: Instant,
    start_us: f64,
    fields: Vec<(String, Field)>,
    children: Vec<SpanNode>,
}

struct TraceState {
    origin: Instant,
    /// `stack[0]` is the root; deeper entries are open descendants.
    stack: Vec<OpenSpan>,
    metrics: Registry,
}

thread_local! {
    static TRACE: RefCell<Option<TraceState>> = const { RefCell::new(None) };
}

/// A finished trace: the span tree plus the metrics recorded while it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineTrace {
    pub root: SpanNode,
    pub metrics: Registry,
}

impl PipelineTrace {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("schema_version", 1i64)
            .set("root", self.root.to_json())
            .set("metrics", self.metrics.to_json())
    }

    /// Render as an `EXPLAIN ANALYZE`-style text report.
    pub fn render(&self) -> String {
        crate::report::render(self)
    }
}

/// Begin a thread-local trace rooted at `name`. Any trace already active on
/// this thread is discarded.
pub fn trace_begin(name: &str) {
    let origin = Instant::now();
    TRACE.with(|t| {
        *t.borrow_mut() = Some(TraceState {
            origin,
            stack: vec![OpenSpan {
                name: name.to_string(),
                started: origin,
                start_us: 0.0,
                fields: Vec::new(),
                children: Vec::new(),
            }],
            metrics: Registry::new(),
        });
    });
}

/// Whether a trace is active on this thread.
pub fn trace_active() -> bool {
    TRACE.with(|t| t.borrow().is_some())
}

/// End the active trace, closing any spans still open, and return it.
pub fn trace_end() -> Option<PipelineTrace> {
    TRACE.with(|t| {
        let state = t.borrow_mut().take()?;
        let TraceState { mut stack, metrics, .. } = state;
        let now = Instant::now();
        // Close open spans innermost-first, folding each into its parent.
        let mut closed: Option<SpanNode> = None;
        while let Some(mut open) = stack.pop() {
            open.children.extend(closed.take());
            closed = Some(close_span(open, now));
        }
        Some(PipelineTrace { root: closed?, metrics })
    })
}

fn close_span(open: OpenSpan, now: Instant) -> SpanNode {
    let elapsed_us = now.saturating_duration_since(open.started).as_secs_f64() * 1e6;
    SpanNode {
        name: open.name,
        start_us: open.start_us,
        elapsed_us,
        fields: open.fields,
        children: open.children,
    }
}

/// An RAII guard for a span opened with [`span`]. Dropping it closes the
/// span and any still-open children (their end times clamp to this one's).
#[must_use = "a span guard times its scope; dropping it immediately closes the span"]
pub struct SpanGuard {
    /// Index of this span in the trace stack; `None` when no trace was
    /// active at creation (the guard is then a no-op).
    depth: Option<usize>,
}

/// Open a child span of the innermost open span. A no-op guard when no
/// trace is active on this thread.
pub fn span(name: &str) -> SpanGuard {
    TRACE.with(|t| {
        let mut borrow = t.borrow_mut();
        let Some(state) = borrow.as_mut() else {
            return SpanGuard { depth: None };
        };
        let now = Instant::now();
        let depth = state.stack.len();
        state.stack.push(OpenSpan {
            name: name.to_string(),
            started: now,
            start_us: now.saturating_duration_since(state.origin).as_secs_f64() * 1e6,
            fields: Vec::new(),
            children: Vec::new(),
        });
        SpanGuard { depth: Some(depth) }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(depth) = self.depth else { return };
        TRACE.with(|t| {
            let mut borrow = t.borrow_mut();
            let Some(state) = borrow.as_mut() else { return };
            // Late drop (the span was already closed by an ancestor's guard
            // or by trace_end starting a new trace): nothing to do.
            if state.stack.len() <= depth {
                return;
            }
            let now = Instant::now();
            while state.stack.len() > depth {
                let Some(open) = state.stack.pop() else { break };
                let node = close_span(open, now);
                if let Some(parent) = state.stack.last_mut() {
                    parent.children.push(node);
                }
            }
        });
    }
}

/// Attach a key/value field to the innermost open span. A no-op when no
/// trace is active.
pub fn record(key: &str, value: impl Into<Field>) {
    TRACE.with(|t| {
        let mut borrow = t.borrow_mut();
        let Some(state) = borrow.as_mut() else { return };
        if let Some(open) = state.stack.last_mut() {
            open.fields.push((key.to_string(), value.into()));
        }
    });
}

/// Run `f` against the active trace's metrics registry, if any. Used by the
/// `metrics` module so counters recorded mid-trace land in the trace too.
pub(crate) fn with_trace_metrics(f: impl FnOnce(&mut Registry)) {
    TRACE.with(|t| {
        let mut borrow = t.borrow_mut();
        if let Some(state) = borrow.as_mut() {
            f(&mut state.metrics);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_a_tree() {
        trace_begin("pipeline");
        {
            let _parse = span("parse");
            record("tokens", 12usize);
        }
        {
            let _sel = span("selection");
            {
                let _expand = span("expand");
            }
            {
                let _rank = span("rank");
            }
        }
        let trace = trace_end().expect("trace");
        assert_eq!(trace.root.name, "pipeline");
        assert_eq!(trace.root.children.len(), 2);
        assert_eq!(trace.root.children[0].name, "parse");
        assert_eq!(trace.root.children[0].field("tokens"), Some(&Field::Int(12)));
        let sel = &trace.root.children[1];
        assert_eq!(sel.name, "selection");
        let names: Vec<&str> = sel.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["expand", "rank"]);
        assert!(trace.root.find("rank").is_some());
        assert!(!trace_active());
    }

    #[test]
    fn noop_without_active_trace() {
        assert!(!trace_active());
        let g = span("orphan");
        record("ignored", 1i64);
        drop(g);
        assert!(trace_end().is_none());
    }

    #[test]
    fn dropped_child_cannot_outlive_parent() {
        trace_begin("root");
        let parent = span("parent");
        let child = span("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        // Parent's guard drops first: it must close the still-open child,
        // clamping the child's end time to its own.
        drop(parent);
        // The child's guard drops late — must be a no-op, not a double close.
        drop(child);
        let trace = trace_end().expect("trace");
        assert_eq!(trace.root.children.len(), 1);
        let p = &trace.root.children[0];
        assert_eq!(p.name, "parent");
        assert_eq!(p.children.len(), 1);
        let c = &p.children[0];
        assert_eq!(c.name, "child");
        assert!(
            c.elapsed_us <= p.elapsed_us + 1e-9,
            "child {}us outlives parent {}us",
            c.elapsed_us,
            p.elapsed_us
        );
        // And the child's start offset is not before the parent's.
        assert!(c.start_us >= p.start_us);
    }

    #[test]
    fn trace_end_closes_open_spans() {
        trace_begin("root");
        let _leaked = span("still-open");
        let trace = trace_end().expect("trace");
        assert_eq!(trace.root.children.len(), 1);
        assert_eq!(trace.root.children[0].name, "still-open");
        // The leaked guard drops after the trace ended: no-op.
    }

    #[test]
    fn metrics_flow_into_the_trace() {
        trace_begin("root");
        crate::metrics::counter_add("selection.rounds", 4);
        crate::metrics::observe("exec.ms", 1.5);
        let trace = trace_end().expect("trace");
        assert_eq!(trace.metrics.counter("selection.rounds"), 4);
        assert_eq!(trace.metrics.histogram("exec.ms").unwrap().count(), 1);
        // The global registry saw them too.
        assert!(crate::metrics::global_snapshot().counter("selection.rounds") >= 4);
    }

    #[test]
    fn trace_json_shape() {
        trace_begin("root");
        {
            let _s = span("stage");
            record("rows", 3usize);
        }
        let trace = trace_end().expect("trace");
        let j = trace.to_json();
        assert_eq!(j.get("schema_version").unwrap().as_i64(), Some(1));
        let root = j.get("root").unwrap();
        assert_eq!(root.get("name").unwrap().as_str(), Some("root"));
        let children = root.get("children").unwrap().as_array().unwrap();
        assert_eq!(children.len(), 1);
        assert_eq!(children[0].get("fields").unwrap().get("rows").unwrap().as_i64(), Some(3));
        // The rendered JSON reparses to the same value.
        let text = j.render();
        let back = crate::json::Json::parse(&text).expect("reparse");
        assert_eq!(back.get("schema_version").unwrap().as_i64(), Some(1));
    }
}

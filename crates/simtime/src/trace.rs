//! Deterministic tracing for simulations: spans.
//!
//! [`SpanSink`] is a log of *spans* (named intervals with parent/child
//! structure) that follows work across actors: one kernel invocation
//! becomes a tree of spans from client serialization through queueing,
//! cold start, device copies, and the reply. Spans export to the
//! chrome://tracing JSON format via [`SpanSink::to_chrome_json`], and
//! the export is **byte-identical** across identical runs — span ids,
//! track ids, and timestamps are all derived from deterministic
//! simulation state.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::time::SimTime;

/// Identity of one span within a [`SpanSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "span{}", self.0)
    }
}

/// A named interval of virtual time on some track, optionally nested
/// under a parent span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Sink-unique identity.
    pub id: SpanId,
    /// Enclosing span, if any (`None` for roots).
    pub parent: Option<SpanId>,
    /// The actor/timeline this span belongs to (e.g. "client0",
    /// "server", "runner3"). Tracks map to chrome://tracing processes.
    pub track: String,
    /// What the interval covers (e.g. "serialize", "kernel_exec").
    pub name: String,
    /// Interval start.
    pub start: SimTime,
    /// Interval end (`start <= end`; clamped at record time).
    pub end: SimTime,
    /// Free-form key/value annotations, in insertion order.
    pub args: Vec<(String, String)>,
}

impl Span {
    /// Length of the interval.
    pub fn duration(&self) -> std::time::Duration {
        self.end.saturating_since(self.start)
    }
}

#[derive(Default)]
struct SpanState {
    spans: Vec<Span>,
    next_id: u64,
}

/// A shared, append-only span log with deterministic ids and a
/// chrome://tracing JSON exporter.
///
/// # Examples
///
/// ```
/// use kaas_simtime::{Simulation, sleep, now, trace::SpanSink};
/// use std::time::Duration;
///
/// let sink = SpanSink::new();
/// let s2 = sink.clone();
/// let mut sim = Simulation::new();
/// sim.block_on(async move {
///     let t0 = now();
///     sleep(Duration::from_millis(3)).await;
///     let root = s2.record("client", "invoke", t0, now(), None, vec![]);
///     s2.record("client", "serialize", t0, t0 + Duration::from_millis(1), Some(root), vec![]);
/// });
/// let spans = sink.spans();
/// assert_eq!(spans.len(), 2);
/// assert_eq!(spans[1].parent, Some(spans[0].id));
/// assert!(sink.to_chrome_json().contains("\"ph\":\"X\""));
/// ```
#[derive(Clone, Default)]
pub struct SpanSink {
    state: Rc<RefCell<SpanState>>,
}

impl std::fmt::Debug for SpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanSink")
            .field("spans", &self.state.borrow().spans.len())
            .finish()
    }
}

impl SpanSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed span and returns its id. Ids are allocated
    /// sequentially per sink, so identical runs allocate identical ids.
    /// An `end` before `start` is clamped to `start`.
    pub fn record(
        &self,
        track: impl Into<String>,
        name: impl Into<String>,
        start: SimTime,
        end: SimTime,
        parent: Option<SpanId>,
        args: Vec<(String, String)>,
    ) -> SpanId {
        let mut s = self.state.borrow_mut();
        let id = SpanId(s.next_id);
        s.next_id += 1;
        s.spans.push(Span {
            id,
            parent,
            track: track.into(),
            name: name.into(),
            start,
            end: end.max(start),
            args,
        });
        id
    }

    /// Opens a span whose id is allocated now but whose interval is
    /// recorded later, at [`OpenSpan::finish`] — so children can link to
    /// the parent's id while the parent is still in progress. `start`
    /// defaults to the current virtual time.
    pub fn open(
        &self,
        track: impl Into<String>,
        name: impl Into<String>,
        parent: Option<SpanId>,
    ) -> OpenSpan {
        let start = crate::try_now().unwrap_or(SimTime::ZERO);
        let id = {
            let mut s = self.state.borrow_mut();
            let id = SpanId(s.next_id);
            s.next_id += 1;
            id
        };
        OpenSpan {
            sink: self.clone(),
            id,
            parent,
            track: track.into(),
            name: name.into(),
            start,
            args: Vec::new(),
        }
    }

    fn record_with_id(&self, span: Span) {
        self.state.borrow_mut().spans.push(span);
    }

    /// Snapshot of all spans, in record order.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.state.borrow().spans.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears the log (ids keep counting up, so later spans never reuse
    /// an id handed out before the clear).
    pub fn clear(&self) {
        self.state.borrow_mut().spans.clear();
    }

    /// All spans with no parent, in record order.
    pub fn roots(&self) -> Vec<Span> {
        self.state
            .borrow()
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .cloned()
            .collect()
    }

    /// Direct children of `parent`, in record order.
    pub fn children_of(&self, parent: SpanId) -> Vec<Span> {
        self.state
            .borrow()
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .cloned()
            .collect()
    }

    /// Renders the log as chrome://tracing "Trace Event Format" JSON
    /// (open in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)).
    ///
    /// Each track becomes a process (named via `process_name` metadata
    /// events, numbered in first-appearance order); each span becomes a
    /// complete (`"ph":"X"`) event with microsecond timestamps carrying
    /// nanosecond precision. The output depends only on the recorded
    /// spans, so identical runs produce byte-identical JSON.
    pub fn to_chrome_json(&self) -> String {
        let state = self.state.borrow();
        // Assign pids by first appearance, deterministically.
        let mut tracks: Vec<&str> = Vec::new();
        for span in &state.spans {
            if !tracks.iter().any(|t| *t == span.track) {
                tracks.push(&span.track);
            }
        }
        let pid_of = |track: &str| tracks.iter().position(|t| *t == track).unwrap_or(0);

        let mut out = String::from("[");
        let mut first = true;
        let push = |event: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&event);
        };
        for (pid, track) in tracks.iter().enumerate() {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    escape_json(track)
                ),
                &mut out,
                &mut first,
            );
        }
        for span in &state.spans {
            let mut args = format!("\"span\":{}", span.id.0);
            if let Some(p) = span.parent {
                let _ = write!(args, ",\"parent\":{}", p.0);
            }
            for (k, v) in &span.args {
                let _ = write!(args, ",\"{}\":\"{}\"", escape_json(k), escape_json(v));
            }
            let dur = span.end.saturating_since(span.start).as_nanos() as u64;
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":0,\"name\":\"{}\",\
                     \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                    pid_of(&span.track),
                    escape_json(&span.name),
                    micros(span.start.as_nanos()),
                    micros(dur),
                ),
                &mut out,
                &mut first,
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// A span handed out by [`SpanSink::open`]: its [`SpanId`] already
/// exists (children may link to it) but the interval is only appended
/// to the sink when [`finish`](OpenSpan::finish) is called.
#[derive(Debug)]
pub struct OpenSpan {
    sink: SpanSink,
    id: SpanId,
    parent: Option<SpanId>,
    track: String,
    name: String,
    start: SimTime,
    args: Vec<(String, String)>,
}

impl OpenSpan {
    /// The pre-allocated id — usable as a parent before the span is
    /// finished.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Appends a key/value annotation.
    pub fn push_arg(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.args.push((key.into(), value.into()));
    }

    /// Records the span ending at the current virtual time and returns
    /// its id.
    pub fn finish(self) -> SpanId {
        let end = crate::try_now().unwrap_or(SimTime::ZERO);
        self.finish_at(end)
    }

    /// Records the span ending at `end` (clamped to its start) and
    /// returns its id.
    pub(crate) fn finish_at(self, end: SimTime) -> SpanId {
        let id = self.id;
        let sink = self.sink.clone();
        sink.record_with_id(Span {
            id,
            parent: self.parent,
            track: self.track,
            name: self.name,
            start: self.start,
            end: end.max(self.start),
            args: self.args,
        });
        id
    }
}

/// Formats a nanosecond count as microseconds with three decimals (the
/// trace-event `ts`/`dur` unit, preserving full nanosecond precision).
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sleep, Simulation};
    use std::time::Duration;

    #[test]
    fn span_ids_are_sequential_and_parents_link() {
        let sink = SpanSink::new();
        let root = sink.record(
            "a",
            "outer",
            SimTime::ZERO,
            SimTime::from_secs(1),
            None,
            vec![],
        );
        let child = sink.record(
            "a",
            "inner",
            SimTime::ZERO,
            SimTime::from_secs(1),
            Some(root),
            vec![],
        );
        assert_eq!(root, SpanId(0));
        assert_eq!(child, SpanId(1));
        assert_eq!(sink.roots().len(), 1);
        assert_eq!(sink.children_of(root).len(), 1);
        assert!(sink.children_of(child).is_empty());
    }

    #[test]
    fn span_end_is_clamped_to_start() {
        let sink = SpanSink::new();
        sink.record(
            "a",
            "backwards",
            SimTime::from_secs(2),
            SimTime::from_secs(1),
            None,
            vec![],
        );
        let s = &sink.spans()[0];
        assert_eq!(s.duration(), Duration::ZERO);
    }

    #[test]
    fn chrome_json_has_metadata_and_complete_events() {
        let sink = SpanSink::new();
        sink.record(
            "client0",
            "invoke",
            SimTime::from_nanos(1_500),
            SimTime::from_nanos(4_750),
            None,
            vec![("kernel".into(), "matmul".into())],
        );
        let json = sink.to_chrome_json();
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"client0\""));
        // 1500 ns = 1.500 µs; 3250 ns duration = 3.250 µs.
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":3.250"), "{json}");
        assert!(json.contains("\"kernel\":\"matmul\""));
    }

    #[test]
    fn chrome_json_is_deterministic() {
        let render = || {
            let sink = SpanSink::new();
            let mut sim = Simulation::new();
            let s = sink.clone();
            sim.block_on(async move {
                let t0 = crate::now();
                sleep(Duration::from_millis(7)).await;
                let root = s.record("x", "outer", t0, crate::now(), None, vec![]);
                s.record("y", "tick", crate::now(), crate::now(), Some(root), vec![]);
            });
            sink.to_chrome_json()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn open_spans_allocate_ids_before_children_record() {
        let sink = SpanSink::new();
        let mut sim = Simulation::new();
        let s = sink.clone();
        sim.block_on(async move {
            let mut root = s.open("client0", "invoke", None);
            root.push_arg("kernel", "matmul");
            let t0 = crate::now();
            sleep(Duration::from_millis(2)).await;
            s.record(
                "client0",
                "serialize",
                t0,
                crate::now(),
                Some(root.id()),
                vec![],
            );
            sleep(Duration::from_millis(1)).await;
            root.finish();
        });
        let spans = sink.spans();
        // Child recorded first, but links to the root's pre-allocated id.
        assert_eq!(spans[0].name, "serialize");
        assert_eq!(spans[0].parent, Some(SpanId(0)));
        assert_eq!(spans[1].id, SpanId(0));
        assert_eq!(spans[1].duration(), Duration::from_millis(3));
        assert_eq!(sink.roots().len(), 1);
    }

    #[test]
    fn json_strings_are_escaped() {
        let sink = SpanSink::new();
        sink.record(
            "a\"b\\c",
            "line\nbreak",
            SimTime::ZERO,
            SimTime::ZERO,
            None,
            vec![],
        );
        let json = sink.to_chrome_json();
        assert!(json.contains("a\\\"b\\\\c"));
        assert!(json.contains("line\\nbreak"));
    }
}

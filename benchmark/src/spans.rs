//! In-memory spans around the benchmark's own calls into each layer.
//!
//! The tracer is off for the untraced rounds that produce the
//! end-to-end metrics (`begin`/`end` return at once) and on for traced
//! rounds, which hold their spans in memory until the child exits.

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One closed span. `parent` indexes into the same round's span list;
/// the root span has none.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub workload: String,
    pub round: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: String,
    round: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// `epoch` is the child's process start, so span times line up with
    /// `setup_s`.
    pub fn new(enabled: bool, epoch: Instant, workload: &str, round: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            workload: workload.to_string(),
            round,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
            round: self.round,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Self time per span: its duration minus the part its children cover.
/// Over a well-nested list the self times sum to the root's duration.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns();
        }
    }
    own
}

/// Total seconds spent in spans called `name` (0 if the workload never
/// calls that layer).
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum::<u64>() as f64
        / 1e9
}

/// Chrome `trace_event` JSON ("X" complete events, microseconds), one
/// process row per round. Open in `chrome://tracing` or Perfetto.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":0,\
             \"args\":{{\"parent\":{},\"workload\":\"{}\",\"round\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.round,
            parent,
            s.workload,
            s.round
        ));
    }
    out.push_str("\n]}\n");
    out
}

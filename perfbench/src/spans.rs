//! The benchmark's own span buffer.
//!
//! `psr_obs::TraceEvent` carries no start time and no parent, and its
//! ring drops events under load, so the traced run records its spans
//! here instead: every thread owns a [`SpanBuf`] (a plain `Vec`, no
//! locking on the hot path), the buffers are merged after the threads
//! join, and [`write_jsonl`] writes them out once, at the end of the run.
//! Spans are taken from outside the program, around calls into the
//! public functions of each layer.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run: thread tag in the high bits, sequence low.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `privacy.zero_class`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// The request (or cell) the span belongs to; spans of one request
    /// share it.
    pub request: Option<u64>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
pub struct SpanBuf {
    epoch: Instant,
    tag: u64,
    next: u64,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// A recorder for thread `tag`, timing relative to `epoch`.
    pub fn new(epoch: Instant, tag: u64) -> Self {
        SpanBuf { epoch, tag, next: 0, spans: Vec::new() }
    }

    /// Reserves a span id before the call starts, so children can name
    /// their parent while it is still open.
    pub fn open(&mut self) -> (u64, Instant) {
        self.next += 1;
        ((self.tag << 40) | self.next, Instant::now())
    }

    /// Closes a span opened with [`SpanBuf::open`].
    pub fn close(
        &mut self,
        (id, started): (u64, Instant),
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
    ) -> u64 {
        let end = Instant::now();
        let start_ns = started.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { id, parent, name, start_ns, end_ns, request });
        end_ns - start_ns
    }

    /// Times `f` as one span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let opened = self.open();
        let out = f();
        self.close(opened, name, parent, request);
        out
    }
}

/// Per-name self time: each span's duration minus the part of it its
/// children cover (children are nested calls on the same thread, so
/// they never overlap each other).
pub fn self_time_ns(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *child_ns.entry(parent).or_default() += span.duration_ns();
        }
    }
    let mut by_name: HashMap<&'static str, u64> = HashMap::new();
    for span in spans {
        let own = span.duration_ns().saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
        *by_name.entry(span.name).or_default() += own;
    }
    let mut out: Vec<_> = by_name.into_iter().collect();
    out.sort();
    out
}

/// Writes every span as one JSON line, followed by one `self_time` line
/// per span name.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let request = s.request.map_or("null".to_owned(), |r| r.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{request}}}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    for (name, ns) in self_time_ns(spans) {
        writeln!(out, "{{\"self_time\":\"{name}\",\"ns\":{ns}}}")?;
    }
    out.flush()
}

//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer of the program, timed from the
//! benchmark's side of the call: name, start, end, the span that caused
//! it, and the request it belongs to. Spans stay in memory while the
//! workload runs and are written out as JSON lines when it ends, so
//! recording costs two clock reads and a push.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span within its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

/// A per-thread span log. A disabled tracer records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
}

impl Tracer {
    /// A tracer sharing `origin` with its siblings, so spans from
    /// several threads land on one time axis.
    #[must_use]
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer { enabled, origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; `None` when tracing is off.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Record a span with explicit bounds (e.g. one measured by the
    /// caller from a due time rather than from a call).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, request });
        Some(self.spans.len() - 1)
    }

    /// Time `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Call count and total time of the spans named `name`.
    #[must_use]
    pub fn layer(&self, name: &str) -> LayerTime {
        let mut out = LayerTime::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.calls += 1;
            out.total_ns += s.end_ns - s.start_ns;
        }
        out
    }

    /// Write every span as one JSON line to `path`, replacing the file.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("x", None, 0, || 7);
        assert_eq!(v, 7);
        assert_eq!(t.layer("x").calls, 0);
    }

    #[test]
    fn layer_sums_spans_by_name() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        let ms = std::time::Duration::from_millis;
        let outer = t.record("outer", origin, origin + ms(10), None, 1);
        t.record("inner", origin + ms(2), origin + ms(5), outer, 1);
        t.record("inner", origin + ms(6), origin + ms(8), outer, 1);
        let o = t.layer("outer");
        assert_eq!((o.calls, o.total_ns), (1, 10_000_000));
        let i = t.layer("inner");
        assert_eq!((i.calls, i.total_ns), (2, 5_000_000));
    }
}

//! In-memory spans around the benchmark's calls into the program.
//!
//! A span has a name, start and end (ns since the run began), the id of
//! the span that caused it, and a key naming the root or query it served.
//! Spans are only recorded in a traced run; they stay in memory and are
//! written out as JSON lines when the run ends. The timed calls already
//! take their own `Instant` pairs, so recording a span adds one push
//! under a mutex and no extra clock read.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of a recorded span (0 = none, the parent of top-level spans).
pub type SpanId = u64;

struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    key: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The span sink of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), next: AtomicU64::new(1), spans: Mutex::default() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id, so that children recorded before a span ends
    /// can name it as their parent (0 when tracing is off).
    pub fn id(&self) -> SpanId {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished span under an id from [`Tracer::id`].
    pub fn record_as(
        &self,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span { id, parent, name, key, start_ns: ns(start), end_ns: ns(end) };
        self.spans.lock().expect("a span writer panicked").push(span);
    }

    /// Records a finished span and returns its id (0 when tracing is off).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.id();
        self.record_as(id, name, parent, key, start, end);
        id
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("a span writer panicked").len()
    }

    /// Writes the spans, ordered by start, as JSON lines after a header
    /// line holding `context`.
    pub fn write(&self, path: &Path, context: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans = self.spans.lock().expect("a span writer panicked");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"context\":{context}}}")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", 0, 0, now, now), 0);
        assert_eq!(t.id(), 0);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_keep_their_parent() {
        let t = Tracer::new(true);
        let start = Instant::now();
        let phase = t.id();
        let child = t.record("op", phase, 42, start, Instant::now());
        t.record_as(phase, "phase", 0, 0, start, Instant::now());
        assert_eq!(t.len(), 2);
        assert!(child > phase);
        let spans = t.spans.lock().unwrap();
        let c = spans.iter().find(|s| s.id == child).unwrap();
        assert_eq!((c.parent, c.key, c.name), (phase, 42, "op"));
    }
}

//! The benchmark's own spans, recorded around each public call into a
//! layer and kept in memory until the run ends.
//!
//! A span has a name, start and end (nanoseconds since the tracer's
//! origin), the span that caused it, and the request, batch or step id it
//! served. The run writes them out as one JSON object per line.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::report::Outcome;
use crate::Args;

/// Identifies a span: its index in the buffer plus one; 0 means
/// "no parent".
pub type SpanId = u64;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    name: &'static str,
    parent: SpanId,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The run's span buffer. A disabled tracer records nothing and returns
/// span id 0, so untraced runs pay only the call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        let spans = if enabled {
            Vec::with_capacity(1 << 16)
        } else {
            Vec::new()
        };
        Self {
            origin,
            enabled,
            spans,
        }
    }

    /// A disabled tracer (untraced runs).
    pub fn off() -> Self {
        Self::new(Instant::now(), false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            parent,
            req,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Opens a span whose end is filled in by [`Tracer::close`]; for
    /// parents whose children are recorded first.
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let end = Instant::now()
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let index = id as usize - 1;
        self.spans[index].end_ns = end;
    }

    /// Writes the spans to `<trace dir>/<workload>-seed<seed>.jsonl` and
    /// notes the path; a write error fails the run.
    pub fn write(&self, args: &Args, out: &mut Outcome) {
        let path = args
            .trace_dir
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match self.write_jsonl(&path) {
            Ok(()) => out.notes.push(format!(
                "trace: {} spans in {}",
                self.spans.len(),
                path.display()
            )),
            Err(e) => out.fail(0, format!("writing {}: {e}", path.display())),
        }
    }

    /// Writes every span as one JSON object per line.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"span\":{},\"name\":\"{}\",\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.parent, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

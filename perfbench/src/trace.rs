//! In-memory spans, recorded by the benchmark around its calls into
//! each layer and written out when the run ends.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The request (or run) the span belongs to.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans; merged after the thread ends, so recording takes
/// no lock.
pub struct SpanLog {
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose span ids carry `thread` in their top 16 bits, so ids
    /// from different threads never collide.
    pub fn new(epoch: Instant, thread: u64) -> SpanLog {
        SpanLog { epoch, next: (thread << 48) + 1, spans: Vec::new() }
    }

    /// A fresh span id, for a parent recorded after its children.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }

    /// Records a span with a preallocated id.
    pub fn record_with_id(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span { id, parent, req, name, start_ns, end_ns });
    }

    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record_with_id(id, name, parent, req, start, end);
        id
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

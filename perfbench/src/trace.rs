//! In-memory spans for the traced run: each span has a name, start,
//! end, parent span and (for serve requests) a request id. Spans are
//! written out once the run ends, and per-layer self time is a span's
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use bnf_obs::json::push_json_string;

/// Id of a recorded span; `0` means "no span" (a root, or tracing off).
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: SpanId,
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A single-threaded span recorder. When disabled every call is a
/// no-op returning span `0`, which is how the untraced comparison pass
/// runs the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        crate::util::nanos(self.base.elapsed())
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        self.begin_request(name, parent, 0)
    }

    /// A span that belongs to serve request `request` (non-zero).
    pub fn begin_request(&mut self, name: &'static str, parent: SpanId, request: u32) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        u32::try_from(self.spans.len()).expect("fewer than 2^32 spans")
    }

    /// Ends `id` and returns its duration in nanoseconds (0 when off).
    pub fn end(&mut self, id: SpanId) -> u64 {
        if id == 0 {
            return 0;
        }
        let now = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(name, parent);
        let out = f();
        let ns = self.end(id);
        (out, ns)
    }

    /// Durations of every span called `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        v.sort_unstable();
        v
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Per-name calls, total time and self time. Children of one span
    /// run one after another on this thread, so the time they cover is
    /// the sum of their durations.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += total;
            t.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON line (`id`, `name`, `parent`,
    /// `request`, `start_ns`, `end_ns`).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::with_capacity(128);
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            line.push_str(&format!("{{\"id\":{},\"name\":", i + 1));
            push_json_string(&mut line, s.name);
            line.push_str(&format!(
                ",\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.parent, s.request, s.start_ns, s.end_ns
            ));
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

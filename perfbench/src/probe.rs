//! Measurement from outside the library: every call the benchmark makes
//! into a layer's public function goes through [`Probe::call`], which
//! counts it and the heap allocations it makes, and — in a traced
//! repetition — records a span around it.
//!
//! A span holds its name, start, end, parent span and request id; the
//! spans of one burst, transaction or arrival share a request id. Spans
//! stay in memory and are written out when the benchmark ends. A
//! layer's self time is its spans' durations minus their child spans.

use crate::alloc::allocations;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (burst, transaction or arrival) the span belongs to; 0
    /// outside any request.
    pub req: u64,
}

/// Calls and allocations counted for one call name.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CallStat {
    pub calls: u64,
    pub allocs: u64,
}

/// Host self time of one span name.
#[derive(Copy, Clone, Debug, Default)]
pub struct SelfTime {
    pub spans: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

/// Per-repetition call accounting plus the run's span log.
pub struct Probe {
    epoch: Instant,
    tracing: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
    next_req: u64,
    /// Calls counted since the last [`Probe::reset_calls`].
    pub calls: BTreeMap<&'static str, CallStat>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            epoch: Instant::now(),
            tracing: false,
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
            next_req: 1,
            calls: BTreeMap::new(),
        }
    }

    /// Turns span recording on or off for the following calls.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    pub fn reset_calls(&mut self) {
        self.calls.clear();
    }

    /// Number of spans recorded so far (a cursor for [`Probe::self_times`]).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span (when tracing); returns its index.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.tracing {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `open` returned.
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    /// Starts a new request: the spans opened until [`Probe::end_request`]
    /// share its id. Returns the root span.
    pub fn begin_request(&mut self, name: &'static str) -> Option<usize> {
        self.req = self.next_req;
        self.next_req += 1;
        self.open(name)
    }

    pub fn end_request(&mut self, root: Option<usize>) {
        self.close(root);
        self.req = 0;
    }

    /// Runs `f` as one call named `name`: counts it and the allocations
    /// it makes, inside a span when tracing.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let a0 = allocations();
        let out = f();
        let allocs = allocations() - a0;
        self.close(span);
        let stat = self.calls.entry(name).or_default();
        stat.calls += 1;
        stat.allocs += allocs;
        out
    }

    /// Self time per span name over the spans recorded since `from`.
    pub fn self_times(&self, from: usize) -> BTreeMap<&'static str, SelfTime> {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child_ns[p - from] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.total_ns += total;
            t.self_ns += total.saturating_sub(child);
        }
        out
    }

    /// Writes every recorded span as one JSON object per line.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's code around each call it makes
//! into a layer's public API (`parse_program`, `Database::execute`,
//! `Database::bulk_load`, `Database::checkpoint`, the reopening
//! `try_build`, `Database::lint_source` / `load_spec` / `load_rules` /
//! `lint`). Each span has a name, start, end, the span that caused it and
//! the id of the operation it belongs to. Spans stay in memory and are
//! written out once, when the run ends. While the recorder is off,
//! opening a span reads no clock and allocates nothing.

use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

/// An open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    t0: Instant,
    op: u64,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            t0: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Start a new operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
            self.stack.pop();
        }
    }

    /// Time one leaf call.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Number of spans named `name` and their total duration in
    /// nanoseconds, over spans recorded from index `from` on.
    pub fn total(&self, name: &str, from: usize) -> (u64, u64) {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + (s.end_ns - s.start_ns)))
    }

    /// Mean duration of the spans named `name` (from index `from`), in
    /// `unit_ns` units; 0 when there are none.
    pub fn mean(&self, name: &str, from: usize, unit_ns: f64) -> f64 {
        let (n, ns) = self.total(name, from);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / unit_ns
        }
    }

    /// Write every span as one tab-separated line:
    /// `index name start_ns end_ns parent op`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

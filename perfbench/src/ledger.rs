//! In-memory span ledger of a traced run.
//!
//! The benchmark opens a span around each call it makes into a layer
//! (name, start, end, parent, job id). Durations the program measures
//! itself — per-round site and coordinator compute — enter as *reported*
//! spans: they carry a duration and a parent but no start, because the
//! program does not expose when they began. Spans are written out once,
//! when the run ends.

use std::time::{Duration, Instant};

/// One span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `core.evaluate`.
    pub name: &'static str,
    /// The job (or stream) this span belongs to; 0 for set-up.
    pub job: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the ledger was created (`None` for a
    /// duration the program reported).
    pub start_ns: Option<u64>,
    /// Duration, nanoseconds (zero while the span is open).
    pub dur_ns: u64,
}

/// The span store.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Ledger {
    /// An empty ledger whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: u64) -> usize {
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns: Some(nanos(self.origin.elapsed())),
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        let end = nanos(self.origin.elapsed());
        let span = &mut self.spans[id];
        span.dur_ns = end - span.start_ns.expect("only timed spans are closed");
    }

    /// Runs `f` inside a span and returns its result with the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Adds a duration the program measured itself.
    pub fn report(&mut self, name: &'static str, parent: Option<usize>, job: u64, dur: Duration) {
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns: None,
            dur_ns: nanos(dur),
        });
    }

    /// Duration of span `id`, ms.
    pub fn ms(&self, id: usize) -> f64 {
        self.spans[id].dur_ns as f64 / 1e6
    }

    /// Span `id`'s duration minus its children's, ms. Children of one
    /// span never overlap here: every replay this ledger records is
    /// sequential.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_ns)
            .sum();
        (self.spans[id].dur_ns as f64 - children as f64) / 1e6
    }

    /// Median duration of every span named `name`, ms (zero if none).
    pub fn median_ms(&self, name: &str) -> f64 {
        let xs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        crate::median(&xs)
    }

    /// Total duration of every span named `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum()
    }

    /// Consumes the ledger.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Renders spans as JSON lines: `id`, `name`, `job`, `parent`, `start_ns`
/// (null when program-reported) and `end_ns` (or `dur_ns` when there is no
/// start).
pub fn to_jsonl(spans: &[Span]) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"job\": {}, \"parent\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"dur_ns\": {}}}\n",
                s.name,
                s.job,
                opt(s.parent.map(|p| p as u64)),
                opt(s.start_ns),
                opt(s.start_ns.map(|st| st + s.dur_ns)),
                s.dur_ns
            )
        })
        .collect()
}

//! Benchmark-side tracing: spans around the calls the benchmark makes into
//! each layer's public API, plus per-iteration counters.
//!
//! Spans live in memory (name, start, end, parent span, iteration id, and
//! the allocations made while the span was open) and are written out as one
//! TSV file when the run ends. A layer's self time is its span's duration
//! minus the time its child spans cover. When the probe is off, `span` is a
//! plain call: no clock reads, no allocation, no counters.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// One recorded span. Times are ns since the probe was created.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    iter: u32,
    /// Allocations made while the span was open (children included).
    allocs: u64,
}

/// What one traced iteration spent, by span name.
#[derive(Debug, Default)]
pub struct IterationTotals {
    /// Self time (duration minus child-span coverage), seconds.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Inclusive duration, seconds.
    pub total_s: BTreeMap<&'static str, f64>,
    /// Inclusive allocation count.
    pub allocs: BTreeMap<&'static str, u64>,
    /// Counters recorded with [`Probe::add`] / [`Probe::max`].
    pub counts: BTreeMap<&'static str, f64>,
}

impl IterationTotals {
    /// Self time of `name`, 0 when no such span ran.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Inclusive time of `name`, 0 when no such span ran.
    pub fn total_s(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    /// Allocations inside `name` spans.
    pub fn allocs(&self, name: &str) -> u64 {
        self.allocs.get(name).copied().unwrap_or(0)
    }

    /// Counter value, 0 when never recorded.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Span recorder; see the module docs.
pub struct Probe {
    on: bool,
    origin: Instant,
    /// Index of the current traced iteration (meaningful while `on`).
    iter: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    counts: Vec<BTreeMap<&'static str, f64>>,
}

/// Handle returned by [`Probe::enter`]; pass it back to [`Probe::exit`].
#[must_use]
pub struct Open(Option<u32>);

impl Probe {
    /// A probe that records nothing until [`Probe::begin_iteration`] turns
    /// it on.
    pub fn new() -> Self {
        Probe {
            on: false,
            origin: Instant::now(),
            iter: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Whether spans and counters are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts an iteration; `traced` decides whether it records.
    pub fn begin_iteration(&mut self, traced: bool) {
        // An iteration that failed part-way leaves its spans open (end 0);
        // they close nowhere and count as zero-length.
        self.stack.clear();
        self.on = traced;
        if traced {
            if self.spans.capacity() == 0 {
                self.spans.reserve(1 << 18);
            }
            self.iter = self.counts.len() as u32;
            self.counts.push(BTreeMap::new());
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` (a no-op when off).
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            iter: self.iter,
            allocs: 0,
        });
        self.stack.push(idx);
        // Read the counters after the pushes above, which may allocate, so
        // the span's own bookkeeping is not counted in it.
        let (allocs, start_ns) = (alloc::count(), self.now_ns());
        let span = &mut self.spans[idx as usize];
        (span.allocs, span.start_ns) = (allocs, start_ns);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Probe::enter`].
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let allocs = alloc::count();
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must nest");
        let span = &mut self.spans[idx as usize];
        span.end_ns = end;
        span.allocs = allocs - span.allocs;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Adds `v` to the iteration's counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts[self.iter as usize].entry(name).or_insert(0.0) += v;
        }
    }

    /// Raises the iteration's counter `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.on {
            let slot = self.counts[self.iter as usize].entry(name).or_insert(v);
            *slot = slot.max(v);
        }
    }

    /// Per-iteration totals, one entry per traced iteration.
    pub fn totals(&self) -> Vec<IterationTotals> {
        let mut out: Vec<IterationTotals> = self
            .counts
            .iter()
            .map(|c| IterationTotals {
                counts: c.clone(),
                ..Default::default()
            })
            .collect();
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        for (s, child) in self.spans.iter().zip(child_ns) {
            if s.end_ns == 0 {
                continue; // never closed: its iteration failed
            }
            let t = &mut out[s.iter as usize];
            let dur = s.end_ns.saturating_sub(s.start_ns);
            *t.total_s.entry(s.name).or_insert(0.0) += dur as f64 / 1e9;
            *t.self_s.entry(s.name).or_insert(0.0) += dur.saturating_sub(child) as f64 / 1e9;
            *t.allocs.entry(s.name).or_insert(0) += s.allocs;
        }
        out
    }

    /// Writes every span as TSV: `iter name start_ns end_ns parent allocs`,
    /// where `parent` is the parent's row number (0-based, `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "iter\tname\tstart_ns\tend_ns\tparent\tallocs")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.iter, s.name, s.start_ns, s.end_ns, parent, s.allocs
            )?;
        }
        w.flush()
    }
}

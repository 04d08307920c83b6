//! The traffic phase every workload shares — generator → `submit` →
//! `run_until` → `drain_completions` → record — and the model outputs
//! collected from a finished simulation.

use std::fmt::Write as _;
use std::time::Instant;

use blueprint_simrt::{Completion, Sim, SimError, SimTime};
use blueprint_workload::quantile::exact_quantile;
use blueprint_workload::{ConservationReport, OpenLoopGen, Recorder};

use crate::probe::Probe;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Everything recorded about one simulation's completions: the recorder
/// (conservation), the completion-stream checksum (FNV-1a over each
/// completion's `Debug` form, as `examples/stream_checksum.rs` hashes it),
/// latencies, and optionally the completions themselves.
pub struct Log {
    rec: Recorder,
    checksum: u64,
    latencies: Vec<u64>,
    kept: Option<Vec<Completion>>,
    buf: String,
}

impl Log {
    /// A fresh log; `keep` retains the completions for an oracle.
    pub fn new(keep: bool) -> Self {
        Log {
            rec: Recorder::new(1_000_000_000),
            checksum: FNV_OFFSET,
            latencies: Vec::new(),
            kept: keep.then(Vec::new),
            buf: String::new(),
        }
    }

    /// Records a batch of completions.
    pub fn absorb(&mut self, done: Vec<Completion>) {
        for c in &done {
            self.rec.record(c);
            self.buf.clear();
            write!(self.buf, "{c:?}").expect("writing to a String cannot fail");
            self.checksum = fnv(self.checksum, self.buf.as_bytes());
            self.latencies.push(c.latency_ns());
        }
        if let Some(kept) = &mut self.kept {
            kept.extend(done);
        }
    }

    /// Conservation of everything recorded against `submitted`.
    pub fn conservation(&self, submitted: u64) -> ConservationReport {
        self.rec.conservation(submitted)
    }

    /// The completions retained so far (empty unless built with `keep`).
    pub fn take_kept(&mut self) -> Vec<Completion> {
        self.kept.take().unwrap_or_default()
    }
}

/// Host-side outcome of one traffic phase.
pub struct Traffic {
    /// Root requests submitted.
    pub submitted: u64,
    /// Root requests completed (ok or error) during the phase.
    pub completed: u64,
    /// Host seconds the phase took.
    pub host_s: f64,
}

/// Runs an open-loop generator against `sim`: advance to each arrival,
/// submit it, drain and record completions; after the last arrival, run
/// `tail_ns` more virtual time and drain again.
pub fn drive(
    sim: &mut Sim,
    mut gen: OpenLoopGen,
    tail_ns: SimTime,
    log: &mut Log,
    p: &mut Probe,
) -> Result<Traffic, SimError> {
    let start = Instant::now();
    let open = p.enter("bench.traffic");
    let end = gen.duration_ns();
    let (mut submitted, mut completed) = (0u64, 0u64);
    while let Some(a) = p.span("workload.gen", || gen.next()) {
        run_until(sim, a.at_ns, p);
        p.span("simrt.submit", || sim.submit(&a.entry, &a.method, a.entity))?;
        submitted += 1;
        completed += drain(sim, log, p);
    }
    run_until(sim, end + tail_ns, p);
    completed += drain(sim, log, p);
    p.exit(open);
    Ok(Traffic {
        submitted,
        completed,
        host_s: start.elapsed().as_secs_f64(),
    })
}

/// `Sim::run_until` inside a span; samples the pending-event count when
/// tracing.
pub fn run_until(sim: &mut Sim, t: SimTime, p: &mut Probe) {
    p.span("simrt.run_until", || sim.run_until(t));
    if p.on() {
        p.add("simrt.run_until_calls", 1.0);
        p.max("simrt.pending_max", sim.pending_events() as f64);
    }
}

/// Drains completions into `log`; returns how many there were.
pub fn drain(sim: &mut Sim, log: &mut Log, p: &mut Probe) -> u64 {
    let done = p.span("simrt.drain", || sim.drain_completions());
    let n = done.len() as u64;
    if n > 0 {
        p.span("workload.record", || log.absorb(done));
    }
    n
}

/// Model outputs of one or more simulations. A change that only speeds the
/// benchmark's layers up leaves every field unchanged.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimStats {
    /// Root requests completed (ok or error).
    pub completions: u64,
    /// Root requests completed ok.
    pub ok: u64,
    /// RPC retries issued.
    pub retries: u64,
    /// RPC timeouts fired.
    pub timeouts: u64,
    /// GC pauses.
    pub gc_pauses: u64,
    /// Client calls issued (before retries).
    pub client_calls: u64,
    /// Cache hits over all backends.
    pub cache_hits: u64,
    /// Cache misses over all backends.
    pub cache_misses: u64,
    /// Stale reads the stores served.
    pub stale_reads: u64,
    /// Acked writes the stores discarded at elections.
    pub lost_writes: u64,
    /// Store failovers executed.
    pub failovers: u64,
    /// Trace spans drained from the simulator's collector.
    pub trace_spans: u64,
    /// Completion-stream checksum (chained over simulations when merged).
    pub checksum: u64,
    /// Median completion latency, virtual ns (set by [`SimStats::seal`]).
    pub p50_ns: u64,
    /// 99th-percentile completion latency, virtual ns (ditto).
    pub p99_ns: u64,
    /// Completion latencies, virtual ns, until [`SimStats::seal`] turns
    /// them into percentiles.
    latencies: Vec<u64>,
}

impl SimStats {
    /// Collects the outputs of a finished simulation and its log.
    pub fn collect(sim: &Sim, log: Log, trace_spans: u64) -> SimStats {
        let c = &sim.metrics.counters;
        let b = sim.metrics.backends.values();
        SimStats {
            completions: c.completed_ok + c.completed_err,
            ok: c.completed_ok,
            retries: c.retries,
            timeouts: c.timeouts,
            gc_pauses: c.gc_pauses,
            client_calls: c.client_calls,
            cache_hits: b.clone().map(|s| s.hits).sum(),
            cache_misses: b.clone().map(|s| s.misses).sum(),
            stale_reads: b.clone().map(|s| s.stale_reads).sum(),
            lost_writes: b.map(|s| s.lost_writes).sum(),
            failovers: c.store_failovers,
            trace_spans,
            checksum: log.checksum,
            p50_ns: 0,
            p99_ns: 0,
            latencies: log.latencies,
        }
    }

    /// Computes the latency percentiles and frees the samples, so a run's
    /// memory does not grow with its number of iterations.
    pub fn seal(mut self) -> SimStats {
        let q = |q: f64| exact_quantile(&self.latencies, q).unwrap_or(0);
        (self.p50_ns, self.p99_ns) = (q(0.5), q(0.99));
        self.latencies = Vec::new();
        self
    }

    /// Adds another simulation's outputs (the checksum chains).
    pub fn merge(&mut self, o: SimStats) {
        self.completions += o.completions;
        self.ok += o.ok;
        self.retries += o.retries;
        self.timeouts += o.timeouts;
        self.gc_pauses += o.gc_pauses;
        self.client_calls += o.client_calls;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.stale_reads += o.stale_reads;
        self.lost_writes += o.lost_writes;
        self.failovers += o.failovers;
        self.trace_spans += o.trace_spans;
        self.checksum = fnv(self.checksum, &o.checksum.to_le_bytes());
        self.latencies.extend(o.latencies);
    }

    /// An empty accumulator for [`SimStats::merge`].
    pub fn empty() -> SimStats {
        SimStats {
            checksum: FNV_OFFSET,
            ..Default::default()
        }
    }
}

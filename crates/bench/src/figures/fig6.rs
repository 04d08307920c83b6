//! Fig. 6 — the four metastability failure types (paper §6.2.1).
//!
//! All four run on a CPU-reduced cluster (8 machines × 2 cores) with request
//! rates scaled ~1/4 from the paper, preserving the overload ratios:
//!
//! * **Type 1** (load spike → workload amplification): HotelReservation with
//!   500 ms timeouts and 10 retries; base→spike→base load. The spike pushes
//!   requests past their timeout, retries amplify load, and the system never
//!   returns to health after the spike ends.
//! * **Type 2** (load spike trigger → capacity degradation): GOGC=75 on the
//!   ReservationService process + 30 s of CPU contention; contention
//!   lengthens stop-the-world pauses, timeouts fire, retries add allocation
//!   pressure, more GC.
//! * **Type 3** (capacity-decrease trigger): 1 s timeouts + retries; 30 s of
//!   CPU contention at the 60 s mark.
//! * **Type 4** (capacity degradation → capacity degradation, SocialNetwork):
//!   pre-filled user-timeline cache flushed mid-run; misses overload the
//!   capacity-constrained timeline DB; DB calls time out before the cache
//!   can repopulate.

use std::sync::{Arc, Mutex};

use blueprint_apps::{hotel_reservation as hr, social_network as sn, WiringOpts};
use blueprint_simrt::time::secs;
use blueprint_wiring::WiringSpec;
use blueprint_workflow::WorkflowSpec;
use blueprint_workload::generator::{ApiMix, OpenLoopGen, Phase};
use blueprint_workload::recorder::IntervalStats;
use blueprint_workload::resilience::{ResilienceConfig, Scenario, Trigger};
use blueprint_workload::{run_experiment, Action, ExperimentSpec};

use crate::{report, Mode};

/// The cluster used by the metastability studies.
const META_CLUSTER: (i64, f64) = (8, 2.0);

/// Result of one metastability run.
#[derive(Debug)]
pub struct MetaResult {
    /// Scenario label.
    pub label: String,
    /// Per-second series.
    pub series: Vec<IntervalStats>,
    /// Optional per-second cache miss rate (Type 4).
    pub miss_rate: Vec<(f64, f64)>,
    /// Total retries issued.
    pub retries: u64,
    /// Total timeouts fired.
    pub timeouts: u64,
    /// GC pauses observed.
    pub gc_pauses: u64,
}

impl MetaResult {
    /// Error rate over the final `window_s` seconds of the run.
    pub fn final_error_rate(&self, window_s: u64) -> f64 {
        let n = self.series.len();
        let from = n.saturating_sub(window_s as usize);
        let (errs, total) = self.series[from..]
            .iter()
            .fold((0usize, 0usize), |(e, t), s| (e + s.errors, t + s.count));
        if total == 0 {
            1.0
        } else {
            errs as f64 / total as f64
        }
    }

    /// Error rate over `[from_s, to_s)`.
    pub fn window_error_rate(&self, from_s: u64, to_s: u64) -> f64 {
        let (errs, total) = self
            .series
            .iter()
            .filter(|s| {
                let t = s.start_ns / 1_000_000_000;
                t >= from_s && t < to_s
            })
            .fold((0usize, 0usize), |(e, t), s| (e + s.errors, t + s.count));
        if total == 0 {
            0.0
        } else {
            errs as f64 / total as f64
        }
    }
}

fn opts_with(timeout_ms: i64, retries: u32) -> WiringOpts {
    WiringOpts {
        cluster: META_CLUSTER,
        ..WiringOpts::default()
            .without_tracing()
            .with_timeout_retries(timeout_ms, retries)
    }
}

/// Type 1: load spike trigger, workload amplification.
pub fn type1(mode: Mode) -> MetaResult {
    let app = super::compile(&hr::workflow(), &hr::wiring(&opts_with(500, 10)));
    let mut sim = super::boot(&app, 61);
    let (base, spike) = (2_500.0, 13_000.0);
    let phases = vec![
        Phase::new(mode.secs(60), base),
        Phase::new(mode.secs(30), spike),
        Phase::new(mode.secs(90), base),
    ];
    let gen = OpenLoopGen::new(phases, hr::paper_mix(), hr::ENTITIES, 61);
    let rec = run_experiment(&mut sim, ExperimentSpec::new(gen)).expect("experiment runs");
    MetaResult {
        label: "Type 1 (load spike → retry storm)".into(),
        series: rec.series(),
        miss_rate: Vec::new(),
        retries: sim.metrics.counters.retries,
        timeouts: sim.metrics.counters.timeouts,
        gc_pauses: sim.metrics.counters.gc_pauses,
    }
}

/// Type 2: load spike trigger, capacity degradation amplification (GOGC=75 +
/// CPU contention on the ReservationService's machine).
pub fn type2(mode: Mode) -> MetaResult {
    let app = super::compile(
        &hr::workflow(),
        &hr::wiring_with(&opts_with(500, 10), Some(75)),
    );
    let host = super::host_of_service(&app, "reservation");
    let mut sim = super::boot(&app, 62);
    let total = mode.secs(150);
    let gen = OpenLoopGen::new(
        vec![Phase::new(total, 4_000.0)],
        hr::paper_mix(),
        hr::ENTITIES,
        62,
    );
    let exp = ExperimentSpec::new(gen).at(
        secs(mode.secs(60)),
        Action::CpuHog {
            host,
            cores: 1.7,
            duration_ns: secs(mode.secs(30)),
        },
    );
    let rec = run_experiment(&mut sim, exp).expect("experiment runs");
    MetaResult {
        label: "Type 2 (GC amplification under contention)".into(),
        series: rec.series(),
        miss_rate: Vec::new(),
        retries: sim.metrics.counters.retries,
        timeouts: sim.metrics.counters.timeouts,
        gc_pauses: sim.metrics.counters.gc_pauses,
    }
}

/// Type 3: capacity-decreasing trigger, workload amplification (1 s
/// timeouts; 30 s of CPU contention).
pub fn type3(mode: Mode) -> MetaResult {
    let app = super::compile(&hr::workflow(), &hr::wiring(&opts_with(1_000, 10)));
    let host = super::host_of_service(&app, "frontend");
    let mut sim = super::boot(&app, 63);
    let total = mode.secs(120);
    let gen = OpenLoopGen::new(
        vec![Phase::new(total, 5_500.0)],
        hr::paper_mix(),
        hr::ENTITIES,
        63,
    );
    let exp = ExperimentSpec::new(gen).at(
        secs(mode.secs(60)),
        Action::CpuHog {
            host,
            cores: 1.7,
            duration_ns: secs(mode.secs(30)),
        },
    );
    let rec = run_experiment(&mut sim, exp).expect("experiment runs");
    MetaResult {
        label: "Type 3 (capacity trigger → retry storm)".into(),
        series: rec.series(),
        miss_rate: Vec::new(),
        retries: sim.metrics.counters.retries,
        timeouts: sim.metrics.counters.timeouts,
        gc_pauses: sim.metrics.counters.gc_pauses,
    }
}

/// Type 4: cache-flush trigger on SocialNetwork's user timeline.
pub fn type4(mode: Mode) -> MetaResult {
    let opts = WiringOpts {
        cluster: META_CLUSTER,
        ..WiringOpts::default()
            .without_tracing()
            .with_timeout_retries(1_000, 10)
    };
    let app = super::compile(&sn::workflow(), &sn::wiring_type4(&opts, 1_500));
    let mut sim = super::boot(&app, 64);
    // Phase 1 of the paper: fill the cache with all content of the
    // userTimelineDatabase. The timeline key space is much larger than the
    // request rate, so after a flush the cache cannot repopulate faster than
    // the database melts down.
    const TIMELINES: u64 = 200_000;
    sim.store_fill("ut_db", TIMELINES, 1).expect("db fill");
    sim.cache_fill("ut_cache", TIMELINES, 1)
        .expect("cache fill");

    let total = mode.secs(120);
    let gen = OpenLoopGen::new(
        vec![Phase::new(total, 1_800.0)],
        ApiMix::single("gateway", "ReadUserTimeline"),
        TIMELINES,
        64,
    );
    // Sample cumulative hit/miss counters each second for the miss-rate
    // series, and flush the cache at the 60 s mark. (`Arc<Mutex<..>>` rather
    // than `Rc<RefCell<..>>` so the custom actions satisfy `Action`'s `Send`
    // bound; the experiment itself still runs on one thread.)
    let samples: Arc<Mutex<Vec<(f64, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut exp = ExperimentSpec::new(gen).at(
        secs(mode.secs(60)),
        Action::CacheFlush {
            backend: "ut_cache".into(),
        },
    );
    for t in 1..=total {
        let s = samples.clone();
        exp = exp.at(
            secs(t),
            Action::Custom(Box::new(move |sim| {
                let (h, m) = sim
                    .metrics
                    .backend("ut_cache")
                    .map(|b| (b.hits, b.misses))
                    .unwrap_or((0, 0));
                s.lock().expect("sampler lock").push((t as f64, h, m));
            })),
        );
    }
    let rec = run_experiment(&mut sim, exp).expect("experiment runs");

    // Convert cumulative samples into per-interval miss rates.
    let mut miss_rate = Vec::new();
    let mut prev = (0u64, 0u64);
    for (t, h, m) in samples.lock().expect("sampler lock").iter() {
        let dh = h - prev.0;
        let dm = m - prev.1;
        prev = (*h, *m);
        let rate = if dh + dm == 0 {
            0.0
        } else {
            dm as f64 / (dh + dm) as f64
        };
        miss_rate.push((*t, rate));
    }
    MetaResult {
        label: "Type 4 (cache flush → DB overload)".into(),
        series: rec.series(),
        miss_rate,
        retries: sim.metrics.counters.retries,
        timeouts: sim.metrics.counters.timeouts,
        gc_pauses: sim.metrics.counters.gc_pauses,
    }
}

/// One metastability exhibit repackaged for the verified resilience matrix:
/// the unmitigated wiring, workload, and trigger window from which the
/// `ablation_overload` harness derives its mitigation arms. The durations
/// are scaled down from the figure runs (the quick-mode fig6 runs already
/// exhibit all four failure types) with a longer post-trigger tail so
/// recovery time is measurable.
pub struct MetaCase {
    /// Case label.
    pub name: &'static str,
    /// The app workflow.
    pub workflow: WorkflowSpec,
    /// Unmitigated wiring: timeouts + aggressive retries, no overload
    /// protection.
    pub wiring: WiringSpec,
    /// API mix driven at the entries.
    pub mix: ApiMix,
    /// Per-case workload + invariant configuration (phases, prefill, RTO).
    pub cfg: ResilienceConfig,
    /// The trigger schedule and its active window.
    pub scenario: Scenario,
}

/// Timeline key-space used by the Type 4 matrix case — smaller than the
/// figure's 200 k so a protected arm can refill the cache within the run.
pub const MATRIX_TIMELINES: u64 = 40_000;

/// The four Fig. 6 failure types as matrix cases.
pub fn meta_cases() -> Vec<MetaCase> {
    let mut cases = Vec::new();

    // Type 1: load spike → retry storm. The spike is the trigger; there is
    // nothing to inject, the window just marks the spike phase.
    cases.push(MetaCase {
        name: "type1 load spike",
        workflow: hr::workflow(),
        wiring: hr::wiring(&opts_with(500, 10)),
        mix: hr::paper_mix(),
        cfg: ResilienceConfig {
            phases: vec![
                Phase::new(20, 2_500.0),
                Phase::new(10, 13_000.0),
                Phase::new(30, 2_500.0),
            ],
            entities: hr::ENTITIES,
            seed: 61,
            interval_ns: secs(1),
            drain_ns: secs(10),
            rto_ns: secs(5),
            ..ResilienceConfig::default()
        },
        scenario: Scenario::new("spike 13k rps 10s", vec![], (secs(20), secs(30))),
    });

    // Type 2: CPU contention on the GOGC=75 ReservationService machine.
    let wiring2 = hr::wiring_with(&opts_with(500, 10), Some(75));
    let host2 = super::host_of_service(&super::compile(&hr::workflow(), &wiring2), "reservation");
    cases.push(MetaCase {
        name: "type2 gc contention",
        workflow: hr::workflow(),
        wiring: wiring2,
        mix: hr::paper_mix(),
        cfg: ResilienceConfig {
            rps: 4_000.0,
            duration_s: 60,
            entities: hr::ENTITIES,
            seed: 62,
            interval_ns: secs(1),
            drain_ns: secs(10),
            rto_ns: secs(5),
            ..ResilienceConfig::default()
        },
        scenario: Scenario::new(
            "cpu hog reservation 10s",
            vec![(
                secs(20),
                Trigger::CpuHog {
                    host: host2,
                    cores: 1.7,
                    duration_ns: secs(10),
                },
            )],
            (secs(20), secs(30)),
        ),
    });

    // Type 3: CPU contention on the frontend with 1 s timeouts.
    let wiring3 = hr::wiring(&opts_with(1_000, 10));
    let host3 = super::host_of_service(&super::compile(&hr::workflow(), &wiring3), "frontend");
    cases.push(MetaCase {
        name: "type3 capacity dip",
        workflow: hr::workflow(),
        wiring: wiring3,
        mix: hr::paper_mix(),
        cfg: ResilienceConfig {
            rps: 5_500.0,
            duration_s: 60,
            entities: hr::ENTITIES,
            seed: 63,
            interval_ns: secs(1),
            drain_ns: secs(12),
            rto_ns: secs(5),
            ..ResilienceConfig::default()
        },
        scenario: Scenario::new(
            "cpu hog frontend 10s",
            vec![(
                secs(20),
                Trigger::CpuHog {
                    host: host3,
                    cores: 1.7,
                    duration_ns: secs(10),
                },
            )],
            (secs(20), secs(30)),
        ),
    });

    // Type 4: user-timeline cache flush over a capacity-constrained DB.
    let opts4 = WiringOpts {
        cluster: META_CLUSTER,
        ..WiringOpts::default()
            .without_tracing()
            .with_timeout_retries(1_000, 10)
    };
    cases.push(MetaCase {
        name: "type4 cache flush",
        workflow: sn::workflow(),
        wiring: sn::wiring_type4(&opts4, 1_500),
        mix: ApiMix::single("gateway", "ReadUserTimeline"),
        cfg: ResilienceConfig {
            rps: 1_800.0,
            duration_s: 80,
            entities: MATRIX_TIMELINES,
            seed: 64,
            interval_ns: secs(1),
            drain_ns: secs(12),
            rto_ns: secs(5),
            prefill_stores: vec![("ut_db".to_string(), MATRIX_TIMELINES)],
            prefill_caches: vec![("ut_cache".to_string(), MATRIX_TIMELINES)],
            ..ResilienceConfig::default()
        },
        scenario: Scenario::new(
            "flush ut_cache",
            vec![(
                secs(20),
                Trigger::CacheFlush {
                    backend: "ut_cache".into(),
                },
            )],
            (secs(20), secs(22)),
        ),
    });

    cases
}

/// A miniature Type 1 for the CI smoke: small enough to run twice (thread
/// determinism compare) in seconds, same spike shape.
pub fn smoke_case() -> MetaCase {
    let mut c = meta_cases().remove(0);
    c.name = "type1 smoke";
    c.cfg.phases = vec![
        Phase::new(5, 1_500.0),
        Phase::new(3, 13_000.0),
        Phase::new(8, 1_500.0),
    ];
    // Long enough for a worst-case retry chain (11 × 500 ms + backoffs).
    c.cfg.drain_ns = secs(8);
    c.cfg.rto_ns = secs(3);
    c.scenario = Scenario::new("spike 13k rps 3s", vec![], (secs(5), secs(8)));
    c
}

/// Renders one result (series + summary line).
pub fn print(r: &MetaResult) -> String {
    let mut out = report::series(
        &format!("Fig. 6 — {}", r.label),
        &["mean ms", "p99 ms", "err rate", "goodput"],
        &super::latency_rows(&r.series),
    );
    if !r.miss_rate.is_empty() {
        let rows: Vec<(f64, Vec<f64>)> = r.miss_rate.iter().map(|(t, m)| (*t, vec![*m])).collect();
        out.push_str(&report::series("cache miss rate", &["miss rate"], &rows));
    }
    out.push_str(&format!(
        "summary: retries={} timeouts={} gc_pauses={} final-30s error rate={:.3}\n",
        r.retries,
        r.timeouts,
        r.gc_pauses,
        r.final_error_rate(30),
    ));
    out
}

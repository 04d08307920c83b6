//! Resilience verification: variants × disturbance-scenario matrices with
//! invariant checks (the robustness half of the fault-injection engine).
//!
//! A [`Scenario`] names what disturbs a run and when: scheduled
//! [`Trigger`]s (faults, CPU contention, cache flushes) and/or a
//! [`ReconfigPlan`] (rolling deploys, scaling, canaries), plus the window
//! in which the disturbance acts. [`run_cell`] drives one system variant
//! through one scenario and verifies three invariants on the recorded
//! series:
//!
//! * **request conservation** — every submitted request terminates exactly
//!   once (the simulator fails affected work *fast* with a classified
//!   error, so nothing can hang or be double-counted);
//! * **bounded unavailability** — intervals whose error rate exceeds the
//!   configured threshold must all fall inside `[start, end + rto]`;
//! * **retry amplification** — retries per submitted request, the hazard
//!   metric a circuit breaker is supposed to suppress.
//!
//! [`run_consistency_cell`] drives the same scenario through the
//! consistency oracle instead. [`run_matrix`] fans a variants × scenarios
//! grid of either cell over the deterministic parallel engine: each cell is
//! an independent seeded run, so the matrix is byte-identical at any
//! `BLUEPRINT_THREADS`.

use blueprint_simrt::time::SimTime;
use blueprint_simrt::{Fault, ReconfigPlan, Sim, SimConfig, SimError, SystemSpec};

use crate::driver::{run_experiment, run_experiment_collecting, Action, ExperimentSpec};
use crate::generator::{ApiMix, OpenLoopGen, Phase};
use crate::oracle::{classify_with_audit, converged_versions, AnomalyCounts, OracleSpec};
use crate::parallel::{par_run, Threads};
use crate::recorder::{ConservationReport, IntervalStats};

/// A clonable scheduled disturbance — the subset of [`Action`] that a
/// scenario can carry across worker threads (Custom actions hold `FnMut`
/// state and cannot participate in a shared matrix).
#[derive(Debug, Clone)]
pub enum Trigger {
    /// Inject a fault (crash, host down, partition, brownout).
    Fault(Fault),
    /// CPU contention on a host for a duration (metastability Types 2/3).
    CpuHog {
        /// Host name.
        host: String,
        /// Cores consumed by the contender.
        cores: f64,
        /// Contention duration, ns.
        duration_ns: SimTime,
    },
    /// Flush a cache backend (metastability Type 4).
    CacheFlush {
        /// Backend name.
        backend: String,
    },
}

impl Trigger {
    /// The driver action that executes this trigger.
    pub fn to_action(&self) -> Action {
        match self {
            Trigger::Fault(f) => Action::Fault(f.clone()),
            Trigger::CpuHog {
                host,
                cores,
                duration_ns,
            } => Action::CpuHog {
                host: host.clone(),
                cores: *cores,
                duration_ns: *duration_ns,
            },
            Trigger::CacheFlush { backend } => Action::CacheFlush {
                backend: backend.clone(),
            },
        }
    }
}

/// A named disturbance scenario: what disturbs the run, and when.
///
/// Triggers go through the experiment driver's action schedule; the plan
/// rides in [`SimConfig`], so rolling steps, autoscaler ticks, and canary
/// evaluations execute in the simulator's ctrl-event slot. Both are fully
/// deterministic: same seed + same scenario ⇒ identical report.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label (appears in matrix rows).
    pub name: String,
    /// Disturbances injected at the given virtual times.
    pub schedule: Vec<(SimTime, Trigger)>,
    /// The runtime-change plan under test.
    pub plan: ReconfigPlan,
    /// `(start, end)`: when the disturbance starts acting and when its
    /// effect ends (restart completed, partition healed, final replica
    /// healthy, canary decided). Unavailability outside
    /// `[start, end + rto]` fails the `bounded` invariant; an empty window
    /// means any unavailability at all is unbounded.
    pub window: (SimTime, SimTime),
}

impl Scenario {
    /// A scenario with scheduled triggers, no plan, and an explicit window.
    pub fn new(name: &str, schedule: Vec<(SimTime, Trigger)>, window: (SimTime, SimTime)) -> Self {
        Scenario {
            name: name.to_string(),
            schedule,
            plan: ReconfigPlan::none(),
            window,
        }
    }

    /// The disturbance-free baseline, labelled `none`.
    pub fn baseline() -> Self {
        Scenario::new("none", Vec::new(), (0, 0))
    }

    /// Replaces the runtime-change plan.
    pub fn with_plan(mut self, plan: ReconfigPlan) -> Self {
        self.plan = plan;
        self
    }
}

/// Workload + invariant configuration shared by every cell of a matrix.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Steady offered load, requests/second.
    pub rps: f64,
    /// Arrival window, seconds.
    pub duration_s: u64,
    /// Entity-id space size.
    pub entities: u64,
    /// Seed for both the simulator and the arrival process.
    pub seed: u64,
    /// Recorder interval width (the unavailability-detection resolution).
    pub interval_ns: SimTime,
    /// Drain after the last arrival so in-flight requests terminate.
    pub drain_ns: SimTime,
    /// Recovery-time objective: unavailability may extend at most this far
    /// past the end of the scenario window.
    pub rto_ns: SimTime,
    /// Interval error rate above which the interval counts as unavailable.
    pub error_threshold: f64,
    /// Explicit load phases (spike shapes). Empty means one steady phase of
    /// `rps` for `duration_s`.
    pub phases: Vec<Phase>,
    /// Stores pre-filled before arrivals: `(backend, n_keys)` at version 1.
    pub prefill_stores: Vec<(String, u64)>,
    /// Caches pre-filled before arrivals: `(backend, n_keys)` at version 1.
    pub prefill_caches: Vec<(String, u64)>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            rps: 1_000.0,
            duration_s: 12,
            entities: 10_000,
            seed: 7,
            interval_ns: 250_000_000,
            drain_ns: 5_000_000_000,
            rto_ns: 2_000_000_000,
            error_threshold: 0.5,
            phases: Vec::new(),
            prefill_stores: Vec::new(),
            prefill_caches: Vec::new(),
        }
    }
}

/// Fraction of busy post-RTO intervals that must be unavailable for a run
/// to count as *metastable* (degraded state sustained after the trigger
/// cleared) rather than merely slow to recover.
const SUSTAIN_FRACTION: f64 = 0.5;

/// The availability verdict of one recorded series against one scenario
/// window — the invariant half of a [`CellReport`], extracted so the
/// metastability check is unit-testable on synthetic series.
#[derive(Debug, Clone, PartialEq)]
pub struct Assessment {
    /// Total width of unavailable intervals (error rate above threshold).
    pub unavailable_ns: SimTime,
    /// End of the last unavailable interval, if any.
    pub recovered_ns: Option<SimTime>,
    /// Whether all unavailability fell inside the window + RTO.
    pub bounded: bool,
    /// Whether the degraded state *sustained* after the trigger cleared:
    /// at least half of the busy intervals past `end + rto` stayed
    /// unavailable. This is the metastability signature — the trigger is
    /// gone but the system does not return to its steady state.
    pub metastable: bool,
    /// Time from the window's end to the end of the last unavailable
    /// interval: `Some(0)` if the run never degraded, `None` if it never
    /// recovered (metastable).
    pub recovery_ns: Option<SimTime>,
}

/// Scans a recorded series against a `(start, end)` disturbance window and
/// classifies the run's availability: bounded/unbounded, metastable or
/// not, and the measured recovery time.
pub fn assess(
    series: &[IntervalStats],
    (start_ns, end_ns): (SimTime, SimTime),
    cfg: &ResilienceConfig,
) -> Assessment {
    let mut unavailable_ns = 0;
    let mut first_bad_ns: Option<SimTime> = None;
    let mut last_bad_end_ns: Option<SimTime> = None;
    let post_window_start = end_ns + cfg.rto_ns;
    let (mut post_busy, mut post_bad) = (0u64, 0u64);
    for s in series {
        let busy = s.count > 0;
        let bad = busy && s.error_rate() > cfg.error_threshold;
        if bad {
            unavailable_ns += cfg.interval_ns;
            first_bad_ns.get_or_insert(s.start_ns);
            last_bad_end_ns = Some(s.start_ns + cfg.interval_ns);
        }
        if busy && s.start_ns >= post_window_start {
            post_busy += 1;
            if bad {
                post_bad += 1;
            }
        }
    }
    // Bounded: no unavailability at all, or every unavailable interval sits
    // inside the disturbance window extended by the RTO. An interval that
    // *contains* the window start may dip below the threshold before the
    // disturbance fires, so the start check is interval-granular.
    let bounded = match (first_bad_ns, last_bad_end_ns) {
        (None, None) => true,
        (Some(first), Some(end)) => {
            end_ns > start_ns && first + cfg.interval_ns > start_ns && end <= post_window_start
        }
        _ => unreachable!("first and last unavailable interval set together"),
    };
    let metastable = post_bad > 0 && (post_bad as f64) >= SUSTAIN_FRACTION * (post_busy as f64);
    let recovery_ns = if metastable {
        None
    } else {
        Some(
            last_bad_end_ns
                .map(|end| end.saturating_sub(end_ns))
                .unwrap_or(0),
        )
    };
    Assessment {
        unavailable_ns,
        recovered_ns: last_bad_end_ns,
        bounded,
        metastable,
        recovery_ns,
    }
}

/// The verified outcome of one (variant, scenario) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// System-variant label (the mitigation arm).
    pub variant: String,
    /// Scenario label.
    pub scenario: String,
    /// Full conservation accounting (submitted vs terminated).
    pub conservation: ConservationReport,
    /// Whether every submitted request terminated exactly once.
    pub conserved: bool,
    /// Total width of unavailable intervals (error rate above threshold).
    pub unavailable_ns: SimTime,
    /// End of the last unavailable interval, if any.
    pub recovered_ns: Option<SimTime>,
    /// Whether all unavailability fell inside the scenario window + RTO.
    pub bounded: bool,
    /// Whether the degraded state sustained past the window + RTO (the
    /// metastability signature; see [`Assessment::metastable`]).
    pub metastable: bool,
    /// Measured recovery time past the window's end (`Some(0)` = never
    /// degraded, `None` = never recovered).
    pub recovery_ns: Option<SimTime>,
    /// Total client-side retries issued during the run.
    pub retries: u64,
    /// Retries per submitted request — the amplification hazard metric.
    pub retry_amplification: f64,
    /// Attempts a circuit breaker rejected locally (never sent).
    pub breaker_rejections: u64,
    /// Attempts that actually reached the transport, per submitted request:
    /// `(submitted + retries − breaker_rejections) / submitted`. Healthy
    /// baseline ≈ 1; a retry storm pushes it far above 1; a breaker
    /// suppresses it by failing attempts locally instead of sending them.
    pub wire_amplification: f64,
    /// Wire attempts per *hop-level* call:
    /// `(client_calls + retries − breaker_rejections) / client_calls`.
    /// Unlike `wire_amplification` (whose denominator is end-to-end
    /// submissions), this is the quantity a retry budget bounds by
    /// construction: ≤ `1 + ratio` on every budgeted arm.
    pub hop_amplification: f64,
    /// Calls that failed fast because their deadline was exhausted.
    pub deadline_exceeded: u64,
    /// Arrivals rejected by the adaptive load-shedding controller.
    pub shed_rejections: u64,
    /// Retries denied by an exhausted retry budget.
    pub budget_denied: u64,
    /// Arrivals rejected by a draining or out-of-rotation replica.
    pub drain_rejections: u64,
    /// Autoscaler scale-out actions taken during the run.
    pub autoscale_ups: u64,
    /// Autoscaler scale-in actions taken during the run.
    pub autoscale_downs: u64,
}

/// The set-up both cell kinds share: a seeded simulator carrying the
/// scenario's plan, pre-filled stores and caches, and the open-loop
/// experiment with the scenario's triggers scheduled. Also returns the
/// exact number of requests the experiment will submit.
fn start(
    system: &SystemSpec,
    mix: &ApiMix,
    scenario: &Scenario,
    cfg: &ResilienceConfig,
) -> Result<(Sim, ExperimentSpec, u64), SimError> {
    let mut sim = Sim::new(
        system,
        SimConfig {
            seed: cfg.seed,
            reconfig: scenario.plan.clone(),
            ..Default::default()
        },
    )?;
    for (backend, n) in &cfg.prefill_stores {
        sim.store_fill(backend, *n, 1)?;
    }
    for (backend, n) in &cfg.prefill_caches {
        sim.cache_fill(backend, *n, 1)?;
    }
    let phases = if cfg.phases.is_empty() {
        vec![Phase::new(cfg.duration_s, cfg.rps)]
    } else {
        cfg.phases.clone()
    };
    let gen = OpenLoopGen::new(phases, mix.clone(), cfg.entities, cfg.seed);
    // The generator is a pure function of its seed, so an identical clone
    // yields the exact submission count the driver will make.
    let submitted = gen.clone().count() as u64;
    let mut exp = ExperimentSpec::new(gen)
        .interval(cfg.interval_ns)
        .drain(cfg.drain_ns);
    for (t, trigger) in &scenario.schedule {
        exp = exp.at(*t, trigger.to_action());
    }
    Ok((sim, exp, submitted))
}

/// Runs one variant through one scenario and verifies the invariants:
/// conservation through every fault and drain, unavailability bounded by
/// the scenario window + RTO, metastability, and the amplification
/// metrics.
pub fn run_cell(
    system: &SystemSpec,
    mix: &ApiMix,
    variant: &str,
    scenario: &Scenario,
    cfg: &ResilienceConfig,
) -> Result<CellReport, SimError> {
    let (mut sim, exp, submitted) = start(system, mix, scenario, cfg)?;
    let rec = run_experiment(&mut sim, exp)?;
    let conservation = rec.conservation(submitted);
    let conserved = conservation.holds();
    let verdict = assess(&rec.series(), scenario.window, cfg);

    let c = &sim.metrics.counters;
    let (retries, breaker_rejections, client_calls) =
        (c.retries, c.breaker_rejections, c.client_calls);
    Ok(CellReport {
        variant: variant.to_string(),
        scenario: scenario.name.clone(),
        conservation,
        conserved,
        unavailable_ns: verdict.unavailable_ns,
        recovered_ns: verdict.recovered_ns,
        bounded: verdict.bounded,
        metastable: verdict.metastable,
        recovery_ns: verdict.recovery_ns,
        retries,
        retry_amplification: if submitted == 0 {
            0.0
        } else {
            retries as f64 / submitted as f64
        },
        breaker_rejections,
        wire_amplification: if submitted == 0 {
            0.0
        } else {
            (submitted + retries).saturating_sub(breaker_rejections) as f64 / submitted as f64
        },
        hop_amplification: if client_calls == 0 {
            0.0
        } else {
            (client_calls + retries).saturating_sub(breaker_rejections) as f64 / client_calls as f64
        },
        deadline_exceeded: c.deadline_exceeded,
        shed_rejections: c.shed_rejections,
        budget_denied: c.budget_denied,
        drain_rejections: c.drain_rejections,
        autoscale_ups: c.autoscale_ups,
        autoscale_downs: c.autoscale_downs,
    })
}

/// Runs the variants × scenarios matrix on the parallel engine, calling
/// `cell(variant name, system, scenario)` once per cell — typically a
/// closure over [`run_cell`] or [`run_consistency_cell`].
///
/// Cell `(v, s)` has job index `v * scenarios.len() + s`; each job builds
/// its own simulator from the shared spec, so the report vector is
/// byte-identical to the sequential double loop at any thread count.
pub fn run_matrix<R: Send>(
    variants: &[(String, SystemSpec)],
    scenarios: &[Scenario],
    threads: Threads,
    cell: impl Fn(&str, &SystemSpec, &Scenario) -> Result<R, SimError> + Sync,
) -> Result<Vec<R>, SimError> {
    let n = variants.len() * scenarios.len();
    par_run(n, threads, |i| {
        let (name, system) = &variants[i / scenarios.len()];
        cell(name, system, &scenarios[i % scenarios.len()])
    })
}

/// How a consistency cell probes the system: which methods the oracle
/// treats as writes/reads, the entry used for settle-time audit reads, and
/// how long to let replication settle before auditing.
#[derive(Debug, Clone)]
pub struct ConsistencyProbe {
    /// Write/read method classification for the oracle.
    pub oracle: OracleSpec,
    /// Entry the audit reads are submitted to.
    pub audit_entry: String,
    /// Audit read method (must be in `oracle.read_methods` so audit
    /// observations both feed the converged-version map and participate in
    /// classification).
    pub audit_method: String,
    /// Post-traffic quiet period before the audit; must exceed the store's
    /// maximum replication lag so surviving writes have converged.
    pub settle_ns: SimTime,
}

/// The verified outcome of one (variant, consistency-scenario) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsistencyCellReport {
    /// System-variant label (the consistency-mode arm).
    pub variant: String,
    /// Scenario label.
    pub scenario: String,
    /// Conservation accounting of the traffic phase.
    pub conservation: ConservationReport,
    /// Whether every submitted request terminated exactly once.
    pub conserved: bool,
    /// Oracle classification of the full log (traffic + audit reads).
    pub anomalies: AnomalyCounts,
    /// Entities whose settle-time audit read succeeded.
    pub audited: u64,
    /// Primary failovers the simulator executed.
    pub failovers: u64,
    /// Acked writes the simulator discarded at elections (runtime-side
    /// ground truth the oracle's `lost_writes` is checked against).
    pub runtime_lost_writes: u64,
    /// Writes/reads rejected for lack of a reachable quorum.
    pub quorum_rejections: u64,
    /// Session-mode reads redirected to the primary by the session floor.
    pub session_redirects: u64,
}

/// Runs one variant through one scenario for consistency: seeded traffic
/// with the scenario's triggers and plan, a settle period, one audit read
/// per entity, then oracle classification of the whole log against the
/// converged versions the audit observed. The scenario window is unused.
pub fn run_consistency_cell(
    system: &SystemSpec,
    mix: &ApiMix,
    probe: &ConsistencyProbe,
    variant: &str,
    scenario: &Scenario,
    cfg: &ResilienceConfig,
) -> Result<ConsistencyCellReport, SimError> {
    let (mut sim, exp, submitted) = start(system, mix, scenario, cfg)?;
    let (mut rec, mut completions) = run_experiment_collecting(&mut sim, exp)?;

    // Quiet period: let every surviving replica apply its in-flight
    // replication before the audit (stragglers past the driver's drain are
    // still recorded so conservation stays honest).
    let settled = sim.now() + probe.settle_ns;
    sim.run_until(settled);
    for c in sim.drain_completions() {
        rec.record(&c);
        completions.push(c);
    }
    let conservation = rec.conservation(submitted);
    let conserved = conservation.holds();

    // One audit read per entity; their observations define the converged
    // versions that split lost writes from merely-stale reads.
    let handle = sim.entry_handle(&probe.audit_entry, &probe.audit_method)?;
    for entity in 0..cfg.entities {
        sim.submit_handle(handle, entity)?;
    }
    sim.run_until(sim.now() + cfg.drain_ns);
    let audit = sim.drain_completions();
    let audited = audit.iter().filter(|c| c.ok).count() as u64;
    let converged = converged_versions(&audit, &probe.oracle);
    completions.extend(audit);
    let anomalies = classify_with_audit(&completions, &probe.oracle, &converged);

    let m = &sim.metrics;
    Ok(ConsistencyCellReport {
        variant: variant.to_string(),
        scenario: scenario.name.clone(),
        conservation,
        conserved,
        anomalies,
        audited,
        failovers: m.counters.store_failovers,
        runtime_lost_writes: m.backends.values().map(|b| b.lost_writes).sum(),
        quorum_rejections: m.counters.quorum_rejections,
        session_redirects: m.backends.values().map(|b| b.session_redirects).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_simrt::time::{ms, secs};
    use blueprint_simrt::{
        Change, ClientSpec, DepBinding, EntrySpec, HostSpec, LbPolicy, ProcessSpec, ServiceSpec,
        TransportSpec,
    };
    use blueprint_workflow::Behavior;

    /// Cell reports cross worker threads inside `run_matrix`.
    const fn assert_send<T: Send>() {}
    const _: () = {
        assert_send::<CellReport>();
        assert_send::<Scenario>();
    };

    fn two_tier(client: ClientSpec) -> SystemSpec {
        let mut spec = SystemSpec {
            name: "rt".into(),
            hosts: vec![
                HostSpec {
                    name: "h0".into(),
                    cores: 4.0,
                },
                HostSpec {
                    name: "h1".into(),
                    cores: 4.0,
                },
            ],
            processes: vec![
                ProcessSpec {
                    name: "p_front".into(),
                    host: 0,
                    gc: None,
                },
                ProcessSpec {
                    name: "p_back".into(),
                    host: 1,
                    gc: None,
                },
            ],
            ..Default::default()
        };
        let mut back = ServiceSpec::new("back", 1);
        back.methods
            .insert("Work".into(), Behavior::build().compute(50_000, 0).done());
        let mut front = ServiceSpec::new("front", 0);
        front
            .methods
            .insert("M".into(), Behavior::build().call("backend", "Work").done());
        front
            .deps
            .insert("backend".into(), DepBinding::Service { target: 1, client });
        spec.services.push(front);
        spec.services.push(back);
        spec.entries.insert(
            "front".into(),
            EntrySpec {
                service: 0,
                client: ClientSpec::local(),
            },
        );
        spec
    }

    fn crash_scenario() -> Scenario {
        Scenario::new(
            "backend crash",
            vec![(
                secs(4),
                Trigger::Fault(Fault::ProcessCrash {
                    process: "p_back".into(),
                    restart_delay_ns: secs(2),
                }),
            )],
            (secs(4), secs(6)),
        )
    }

    fn cfg() -> ResilienceConfig {
        ResilienceConfig {
            rps: 400.0,
            duration_s: 10,
            entities: 100,
            seed: 13,
            ..Default::default()
        }
    }

    /// Runs a matrix inline and on four workers, asserts the two report
    /// vectors are equal, and returns them.
    fn seq_equals_par<R: Send + PartialEq + std::fmt::Debug>(
        variants: &[(String, SystemSpec)],
        scenarios: &[Scenario],
        cell: impl Fn(&str, &SystemSpec, &Scenario) -> Result<R, SimError> + Sync,
    ) -> Vec<R> {
        let seq = run_matrix(variants, scenarios, Threads::sequential(), &cell).unwrap();
        let par = run_matrix(variants, scenarios, Threads::new(4), &cell).unwrap();
        assert_eq!(seq, par);
        seq
    }

    #[test]
    fn baseline_cell_is_clean_and_conserved() {
        let spec = two_tier(ClientSpec::local());
        let r = run_cell(
            &spec,
            &ApiMix::single("front", "M"),
            "none",
            &Scenario::baseline(),
            &cfg(),
        )
        .unwrap();
        assert!(r.conserved, "{}", r.conservation);
        assert!(r.bounded);
        assert_eq!(r.unavailable_ns, 0);
        assert_eq!(r.recovered_ns, None);
        assert_eq!(r.conservation.errors, 0);
    }

    #[test]
    fn crash_cell_conserves_and_recovers_within_rto() {
        let spec = two_tier(ClientSpec::local());
        let r = run_cell(
            &spec,
            &ApiMix::single("front", "M"),
            "none",
            &crash_scenario(),
            &cfg(),
        )
        .unwrap();
        // Every request terminated exactly once even though the backend
        // crashed mid-run: in-flight work failed fast as "crash".
        assert!(r.conserved, "{}", r.conservation);
        assert!(
            r.conservation.by_cause.contains_key("crash"),
            "{}",
            r.conservation
        );
        // The outage tracks the fault window (crash at 4 s, restart at 6 s)
        // and heals within the RTO.
        assert!(r.unavailable_ns >= secs(1), "outage seen: {r:?}");
        assert!(r.bounded, "unavailability outside fault window: {r:?}");
    }

    #[test]
    fn retry_arm_amplifies_load_during_fault() {
        let mut retry = ClientSpec::local();
        retry.retries = 8;
        retry.backoff_ns = ms(1);
        let plain = run_cell(
            &two_tier(ClientSpec::local()),
            &ApiMix::single("front", "M"),
            "none",
            &crash_scenario(),
            &cfg(),
        )
        .unwrap();
        let retrying = run_cell(
            &two_tier(retry),
            &ApiMix::single("front", "M"),
            "retry",
            &crash_scenario(),
            &cfg(),
        )
        .unwrap();
        assert_eq!(plain.retries, 0);
        assert!(retrying.retries > 0);
        assert!(retrying.retry_amplification > plain.retry_amplification);
        assert!(retrying.conserved, "{}", retrying.conservation);
    }

    fn interval(start_ns: SimTime, ok: usize, errors: usize) -> IntervalStats {
        IntervalStats {
            start_ns,
            count: ok + errors,
            ok,
            errors,
            mean_ns: 0.0,
            p50_ns: 0,
            p99_ns: 0,
            timeouts: 0,
        }
    }

    /// Synthetic series: degraded from the fault through the end of the
    /// run, long past fault_end + rto. That is the metastability
    /// signature, so recovery_ns must be `None`.
    #[test]
    fn assess_flags_sustained_degradation_as_metastable() {
        let c = ResilienceConfig {
            interval_ns: secs(1),
            rto_ns: secs(2),
            ..ResilienceConfig::default()
        };
        let series: Vec<IntervalStats> = (0..30)
            .map(|t| {
                if t >= 4 {
                    interval(secs(t), 5, 95)
                } else {
                    interval(secs(t), 100, 0)
                }
            })
            .collect();
        let a = assess(&series, (secs(4), secs(6)), &c);
        assert!(a.metastable, "{a:?}");
        assert!(!a.bounded);
        assert_eq!(a.recovery_ns, None);
        assert_eq!(a.unavailable_ns, secs(26));
    }

    /// Degradation that clears shortly after the fault window is *not*
    /// metastable even if it overruns the RTO; recovery time is measured
    /// from fault_end.
    #[test]
    fn assess_measures_recovery_time_for_transient_degradation() {
        let c = ResilienceConfig {
            interval_ns: secs(1),
            rto_ns: secs(2),
            ..ResilienceConfig::default()
        };
        let series: Vec<IntervalStats> = (0..30)
            .map(|t| {
                if (4..10).contains(&t) {
                    interval(secs(t), 5, 95)
                } else {
                    interval(secs(t), 100, 0)
                }
            })
            .collect();
        let a = assess(&series, (secs(4), secs(6)), &c);
        assert!(!a.metastable, "{a:?}");
        assert!(!a.bounded, "last bad interval ends at 10 s > 6 s + 2 s rto");
        assert_eq!(a.recovery_ns, Some(secs(4)));

        // A clean series never degrades: bounded, recovery 0.
        let clean: Vec<IntervalStats> = (0..30).map(|t| interval(secs(t), 100, 0)).collect();
        let a = assess(&clean, (secs(4), secs(6)), &c);
        assert!(a.bounded);
        assert!(!a.metastable);
        assert_eq!(a.recovery_ns, Some(0));
        assert_eq!(a.unavailable_ns, 0);
    }

    /// Triggers lower into driver actions: a CPU hog scheduled through a
    /// scenario must degrade the run exactly like the hand-built fig6
    /// harness would.
    #[test]
    fn trigger_scenario_runs_through_cell() {
        let spec = two_tier(ClientSpec::local());
        let scenario = Scenario::new(
            "cpu hog",
            vec![(
                secs(4),
                Trigger::CpuHog {
                    host: "h1".into(),
                    cores: 3.9,
                    duration_ns: secs(2),
                },
            )],
            (secs(4), secs(6)),
        );
        let r = run_cell(
            &spec,
            &ApiMix::single("front", "M"),
            "none",
            &scenario,
            &cfg(),
        )
        .unwrap();
        assert!(r.conserved, "{}", r.conservation);
    }

    #[test]
    fn matrix_is_deterministic_across_thread_counts() {
        let variants = vec![
            ("none".to_string(), two_tier(ClientSpec::local())),
            ("retry".to_string(), {
                let mut c = ClientSpec::local();
                c.retries = 3;
                two_tier(c)
            }),
        ];
        let scenarios = vec![Scenario::baseline(), crash_scenario()];
        let mix = ApiMix::single("front", "M");
        let seq = seq_equals_par(&variants, &scenarios, |name, system, s| {
            run_cell(system, &mix, name, s, &cfg())
        });
        assert_eq!(seq.len(), 4);
        assert!(seq.iter().all(|c| c.conserved));
    }

    /// front --LB--> {back, back_r1}, each replica in its own process, so a
    /// rolling deploy has a sibling to absorb the drained replica's share.
    fn replicated_two_tier(client: ClientSpec) -> SystemSpec {
        let mut spec = SystemSpec {
            name: "rrt".into(),
            hosts: vec![HostSpec {
                name: "h0".into(),
                cores: 8.0,
            }],
            processes: vec![
                ProcessSpec {
                    name: "p_front".into(),
                    host: 0,
                    gc: None,
                },
                ProcessSpec {
                    name: "p_back".into(),
                    host: 0,
                    gc: None,
                },
                ProcessSpec {
                    name: "p_back_r1".into(),
                    host: 0,
                    gc: None,
                },
            ],
            ..Default::default()
        };
        for (i, name) in ["back", "back_r1"].iter().enumerate() {
            let mut r = ServiceSpec::new(*name, i + 1);
            r.methods
                .insert("Work".into(), Behavior::build().compute(50_000, 0).done());
            spec.services.push(r); // 0, 1
        }
        let mut front = ServiceSpec::new("front", 0);
        front
            .methods
            .insert("M".into(), Behavior::build().call("backend", "Work").done());
        front.deps.insert(
            "backend".into(),
            DepBinding::ReplicatedService {
                targets: vec![0, 1],
                policy: LbPolicy::RoundRobin,
                client,
            },
        );
        spec.services.push(front); // 2
        spec.entries.insert(
            "front".into(),
            EntrySpec {
                service: 2,
                client: ClientSpec::local(),
            },
        );
        spec
    }

    /// Rolls `back` one replica at a time from 2 s. Two replicas × (drain
    /// 200 ms + restart 100 ms) ≈ 600 ms of deploy inside a 2–3 s window.
    fn rolling(name: &str, drainless: bool) -> Scenario {
        Scenario::new(name, Vec::new(), (secs(2), secs(3))).with_plan(ReconfigPlan::none().at(
            secs(2),
            Change::RollingRestart {
                service: "back".into(),
                drain_ns: ms(200),
                restart_ns: ms(100),
                drainless,
            },
        ))
    }

    #[test]
    fn drained_rolling_deploy_cell_is_invisible() {
        let mut client = ClientSpec::local();
        client.retries = 2;
        let spec = replicated_two_tier(client);
        let scenario = rolling("rolling", false);
        let r = run_cell(
            &spec,
            &ApiMix::single("front", "M"),
            "drained",
            &scenario,
            &cfg(),
        )
        .unwrap();
        assert!(r.conserved, "{}", r.conservation);
        assert!(r.bounded, "deploy unavailability exceeded the window");
        assert!(
            !r.metastable,
            "a drained deploy must not trigger metastability"
        );
        assert_eq!(
            r.conservation.errors, 0,
            "failover + retries absorb the drained deploy entirely"
        );
    }

    /// One scenario carrying both a fault and a plan: a drained roll of
    /// `back` from 2 s, then a crash of one replica's process at 4 s. The
    /// 20 ms network leg keeps requests in flight when a replica starts
    /// draining, so the roll shows up as drain rejections; the crash shows
    /// up as failover retries to the live sibling.
    #[test]
    fn fault_and_plan_in_one_scenario_run_through_one_cell() {
        let mut client = ClientSpec::over(TransportSpec::Grpc {
            serialize_ns: 0,
            net_ns: ms(20),
        });
        client.retries = 2;
        let spec = replicated_two_tier(client);
        let mix = ApiMix::single("front", "M");
        let crash = Trigger::Fault(Fault::ProcessCrash {
            process: "p_back_r1".into(),
            restart_delay_ns: secs(1),
        });
        let mut both = rolling("rolling + crash", false);
        both.schedule.push((secs(4), crash));
        both.window = (secs(2), secs(5));
        let plan_only = run_cell(&spec, &mix, "retry", &rolling("rolling", false), &cfg()).unwrap();
        let r = run_cell(&spec, &mix, "retry", &both, &cfg()).unwrap();
        assert!(r.conserved, "{}", r.conservation);
        assert!(r.bounded, "{r:?}");
        assert!(
            r.drain_rejections > 0,
            "draining replicas must reject in-flight arrivals: {r:?}"
        );
        assert!(
            r.retries > plan_only.retries,
            "the crash must add failover retries to the roll's: {} vs {}",
            r.retries,
            plan_only.retries
        );
    }

    #[test]
    fn reconfig_matrix_is_deterministic_across_thread_counts() {
        let mut retry = ClientSpec::local();
        retry.retries = 2;
        let variants = vec![
            ("none".to_string(), replicated_two_tier(ClientSpec::local())),
            ("retry".to_string(), replicated_two_tier(retry)),
        ];
        let scenarios = vec![
            Scenario::baseline(),
            rolling("rolling", false),
            rolling("drainless", true),
        ];
        let mix = ApiMix::single("front", "M");
        let seq = seq_equals_par(&variants, &scenarios, |name, system, s| {
            run_cell(system, &mix, name, s, &cfg())
        });
        assert_eq!(seq.len(), 6);
        assert!(seq.iter().all(|c| c.conserved), "every cell conserved");
        // Unprotected variant: the drainless arm kills in-flight work and
        // fast-fails arrivals on the dead replica; draining eliminates both.
        let drained = &seq[1];
        let drainless = &seq[2];
        assert_eq!(drained.conservation.errors, 0, "drained deploy invisible");
        assert!(
            drainless.conservation.errors > 0,
            "drainless must show the error spike draining eliminates"
        );
        // Retry variant: failover to the live replica masks even the
        // drainless spike end-to-end — visible instead as retry traffic.
        let retry_drainless = &seq[scenarios.len() + 2];
        assert_eq!(retry_drainless.conservation.errors, 0);
        assert!(
            retry_drainless.retries > seq[scenarios.len() + 1].retries,
            "masking the drainless spike costs retries"
        );
    }

    use blueprint_simrt::time::us;
    use blueprint_simrt::{BackendRtKind, BackendSpec, ConsistencyMode, FailoverSpec};
    use blueprint_workflow::KeyExpr;

    /// front → one replicated store (primary `p_db`, replicas `p_r1`/`p_r2`
    /// on the same host) with 60–180 ms asynchronous replication lag and
    /// deterministic failover.
    fn failover_store(consistency: ConsistencyMode) -> SystemSpec {
        let mut spec = SystemSpec {
            name: "cons".into(),
            hosts: vec![
                HostSpec {
                    name: "h0".into(),
                    cores: 4.0,
                },
                HostSpec {
                    name: "h1".into(),
                    cores: 4.0,
                },
            ],
            processes: ["p_front", "p_db", "p_r1", "p_r2"]
                .iter()
                .enumerate()
                .map(|(i, name)| ProcessSpec {
                    name: (*name).into(),
                    host: if i == 0 { 0 } else { 1 },
                    gc: None,
                })
                .collect(),
            ..Default::default()
        };
        spec.backends.push(BackendSpec {
            name: "db".into(),
            process: 1,
            kind: BackendRtKind::Store {
                read_latency_ns: us(100),
                write_latency_ns: us(100),
                cpu_per_op_ns: us(1),
                cpu_per_item_ns: us(1),
                replicas: 2,
                replication_lag_ns: (ms(60), ms(180)),
                consistency,
                failover: Some(FailoverSpec {
                    replica_processes: vec![2, 3],
                    detection_ns: ms(5),
                    election_ns: ms(5),
                }),
            },
        });
        let mut svc = ServiceSpec::new("svc", 0);
        svc.methods.insert(
            "Write".into(),
            Behavior::build().db_write("d", KeyExpr::Entity).done(),
        );
        svc.methods.insert(
            "Read".into(),
            Behavior::build().db_read("d", KeyExpr::Entity).done(),
        );
        svc.deps.insert(
            "d".into(),
            DepBinding::Backend {
                target: 0,
                client: ClientSpec::local(),
            },
        );
        spec.services.push(svc);
        spec.entries.insert(
            "front".into(),
            EntrySpec {
                service: 0,
                client: ClientSpec::local(),
            },
        );
        spec
    }

    fn probe() -> ConsistencyProbe {
        ConsistencyProbe {
            oracle: crate::oracle::OracleSpec::new(["Write"], ["Read"]),
            audit_entry: "front".into(),
            audit_method: "Read".into(),
            settle_ns: secs(1),
        }
    }

    fn cons_cfg() -> ResilienceConfig {
        ResilienceConfig {
            rps: 300.0,
            duration_s: 8,
            entities: 50,
            seed: 11,
            prefill_stores: vec![("db".into(), 50)],
            ..Default::default()
        }
    }

    fn cons_mix() -> ApiMix {
        ApiMix::new()
            .add("front", "Read", 0.8)
            .add("front", "Write", 0.2)
    }

    /// Crash the primary shortly before traffic ends, so writes acked in
    /// the last replication-lag window are lost and not rewritten.
    fn late_crash() -> Scenario {
        Scenario::new(
            "primary crash",
            vec![(
                secs(7) + ms(800),
                Trigger::Fault(Fault::ProcessCrash {
                    process: "p_db".into(),
                    restart_delay_ns: secs(3),
                }),
            )],
            (0, 0),
        )
    }

    #[test]
    fn unguarded_arm_shows_stale_and_lost_under_primary_crash() {
        let r = run_consistency_cell(
            &failover_store(ConsistencyMode::ReadReplica),
            &cons_mix(),
            &probe(),
            "read_replica",
            &late_crash(),
            &cons_cfg(),
        )
        .unwrap();
        assert!(r.conserved, "{}", r.conservation);
        assert_eq!(r.audited, 50, "every entity audited after settle");
        assert!(r.failovers >= 1, "crash must elect a replica: {r:?}");
        assert!(
            r.anomalies.stale_reads > 0,
            "asynchronous lag must surface stale reads: {}",
            r.anomalies
        );
        assert!(
            r.anomalies.lost_writes >= 1 && r.runtime_lost_writes >= 1,
            "acked writes in the lag window must be lost at failover: {} (runtime {})",
            r.anomalies,
            r.runtime_lost_writes
        );
    }

    #[test]
    fn quorum_arm_is_anomaly_free_under_primary_crash() {
        let r = run_consistency_cell(
            &failover_store(ConsistencyMode::Quorum { w: 2, r: 2 }),
            &cons_mix(),
            &probe(),
            "quorum",
            &late_crash(),
            &cons_cfg(),
        )
        .unwrap();
        assert!(r.conserved, "{}", r.conservation);
        assert!(
            r.anomalies.clean(),
            "w=2/r=2 guarantees freshness and durability: {}",
            r.anomalies
        );
        assert_eq!(
            r.runtime_lost_writes, 0,
            "synchronous ack covers the quorum"
        );
    }

    #[test]
    fn session_arm_keeps_its_guaranteed_classes_clean() {
        let r = run_consistency_cell(
            &failover_store(ConsistencyMode::Session),
            &cons_mix(),
            &probe(),
            "session",
            &late_crash(),
            &cons_cfg(),
        )
        .unwrap();
        assert!(r.conserved, "{}", r.conservation);
        assert!(r.session_redirects > 0, "the floor must redirect: {r:?}");
        assert_eq!(
            (r.anomalies.ryw_violations, r.anomalies.non_monotonic_reads),
            (0, 0),
            "session mode guarantees read-your-writes and monotonic reads: {}",
            r.anomalies
        );
    }

    #[test]
    fn consistency_matrix_is_deterministic_across_thread_counts() {
        let variants = vec![
            (
                "read_replica".to_string(),
                failover_store(ConsistencyMode::ReadReplica),
            ),
            (
                "session".to_string(),
                failover_store(ConsistencyMode::Session),
            ),
        ];
        let scenarios = vec![Scenario::baseline(), late_crash()];
        let cfg = ResilienceConfig {
            duration_s: 4,
            ..cons_cfg()
        };
        let (mix, probe) = (cons_mix(), probe());
        let seq = seq_equals_par(&variants, &scenarios, |name, system, s| {
            run_consistency_cell(system, &mix, &probe, name, s, &cfg)
        });
        assert_eq!(seq.len(), 4);
        assert!(seq.iter().all(|c| c.conserved), "every cell conserved");
    }
}

//! The four workloads. Each iteration goes from specs to a final report:
//! compile (with artifacts and lint, as users call it), boot, prefill,
//! traffic, then the workload's report and correctness checks.
//!
//! Everything runs through the public APIs of the toolchain's crates; the
//! simulator is driven with `Sim::new` / `submit` / `run_until` /
//! `drain_completions` directly, on the default sequential engine.

use std::time::Instant;

use blueprint_apps::{
    alibaba, hotel_reservation as hr, media, social_network as sn, sock_shop, train_ticket,
    WiringOpts,
};
use blueprint_compiler::{genart, passes, simlower, CompileError};
use blueprint_core::{Blueprint, CompiledApp};
use blueprint_plugins::BuildCtx;
use blueprint_simrt::{
    ms, secs, BackendRtKind, Fault, FaultPlan, Sim, SimConfig, SimTime, SystemSpec,
};
use blueprint_wiring::{mutate, parse, render, WiringSpec};
use blueprint_workflow::WorkflowSpec;
use blueprint_workload::{
    classify_with_audit, converged_versions, AnomalyCounts, ApiMix, OpenLoopGen, OracleSpec, Phase,
};

use crate::checks::Checks;
use crate::probe::Probe;
use crate::traffic::{drain, drive, run_until, Log, SimStats};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "hotel_steady",
    "social_writes",
    "overload_storm",
    "cbd_iterate",
];

/// What one iteration of a workload produced.
pub struct Iteration {
    /// Host seconds from specs to booted simulators (summed over the
    /// iteration's variants).
    pub setup_s: f64,
    /// Host seconds of the traffic phases.
    pub traffic_s: f64,
    /// Root requests completed during the traffic phases.
    pub traffic_completed: u64,
    /// Model outputs.
    pub stats: SimStats,
    /// Oracle classification, for workloads that run the oracle.
    pub anomalies: Option<AnomalyCounts>,
}

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Runs one full iteration of workload `name`.
pub fn iterate(name: &str, seed: u64, p: &mut Probe, checks: &mut Checks) -> Res<Iteration> {
    match name {
        "hotel_steady" => hotel_steady(seed, p, checks),
        "social_writes" => social_writes(seed, p, checks),
        "overload_storm" => overload_storm(seed, p, checks),
        "cbd_iterate" => cbd_iterate(seed, p, checks),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Runs only the set-up of workload `name` (specs to booted, prefilled
/// simulators) and returns its host seconds. `cbd_iterate`'s set-up is most
/// of its iteration, so it has no separate set-up run.
pub fn setup_only(name: &str, seed: u64, p: &mut Probe) -> Option<Res<f64>> {
    let start = Instant::now();
    let done = match name {
        "hotel_steady" => hotel_setup(seed, p).map(drop),
        "social_writes" => social_setup(seed, p).map(drop),
        "overload_storm" => storm_setup(seed, p).map(drop),
        _ => return None,
    };
    Some(done.map(|()| start.elapsed().as_secs_f64()))
}

// ---------------------------------------------------------------------------
// Compile and boot, with the compiler's passes replayed when tracing.
// ---------------------------------------------------------------------------

/// `Blueprint::compile` as users call it. When tracing, the compiler's
/// public passes are then replayed one by one in their own spans, so each
/// pass gets a time; `compiler.other_s` is the compile time the replayed
/// passes do not account for.
fn compile(bp: &Blueprint, wf: &WorkflowSpec, w: &WiringSpec, p: &mut Probe) -> Res<CompiledApp> {
    let app = p
        .span("compiler.compile", || bp.compile(wf, w))
        .map_err(|e| format!("compile {}: {e}", w.app_name))?;
    if p.on() {
        replay_passes(bp, wf, w, p).map_err(|e| format!("replay {}: {e}", w.app_name))?;
        p.add("ir.nodes", app.ir().node_count() as f64);
        p.add("ir.edges", app.ir().edge_count() as f64);
        p.add("lint.diagnostics", app.diagnostics.len() as f64);
        p.add("plugins.artifact_files", app.artifacts().len() as f64);
        p.add("plugins.artifact_loc", app.artifacts().total_loc() as f64);
    }
    Ok(app)
}

fn replay_passes(
    bp: &Blueprint,
    wf: &WorkflowSpec,
    w: &WiringSpec,
    p: &mut Probe,
) -> Result<(), CompileError> {
    let registry = bp.compiler().registry();
    let ctx = BuildCtx {
        workflow: wf,
        wiring: w,
    };
    let open = p.enter("compiler.replay");
    p.span("compiler.spec_validate", || -> Result<(), CompileError> {
        wf.validate()?;
        w.validate()?;
        Ok(())
    })?;
    let mut ir = p.span("compiler.build_ir", || {
        blueprint_compiler::build::build_ir(registry, &ctx)
    })?;
    p.span("compiler.transforms", || {
        passes::run_transforms(registry, &mut ir, &ctx)
    })?;
    p.span("compiler.namespaces", || passes::assign_namespaces(&mut ir))?;
    p.span("compiler.visibility", || {
        passes::widen_visibility(registry, &mut ir)
    })?;
    p.span("compiler.ir_validate", || passes::validate(&ir))?;
    let lint_config = blueprint_lint::LintConfig::default();
    p.span("lint.run", || passes::lint(&ir, w, Some(wf), &lint_config));
    p.span("plugins.genart", || genart::generate(registry, &ir, &ctx))?;
    p.span("compiler.simlower", || simlower::lower(registry, &ir, &ctx))?;
    p.exit(open);
    Ok(())
}

fn boot(system: &SystemSpec, cfg: SimConfig, p: &mut Probe) -> Res<Sim> {
    p.span("simrt.boot", || Sim::new(system, cfg))
        .map_err(|e| format!("boot {}: {e}", system.name))
}

/// Runs the settle/tail part of a workload for `ns` more virtual time and
/// records what completes.
fn settle(sim: &mut Sim, ns: SimTime, log: &mut Log, p: &mut Probe) -> u64 {
    let t = sim.now() + ns;
    run_until(sim, t, p);
    drain(sim, log, p)
}

fn trace_spans(sim: &mut Sim, p: &mut Probe) -> u64 {
    let traces = p.span("trace.drain", || sim.traces.drain_finished());
    traces.iter().map(|t| t.len() as u64).sum()
}

fn check_conserved(checks: &mut Checks, what: &str, log: &Log, submitted: u64) {
    let c = log.conservation(submitted);
    checks.check(&format!("{what}: every request conserved"), c.holds(), || c);
}

// ---------------------------------------------------------------------------
// hotel_steady
// ---------------------------------------------------------------------------

/// Virtual seconds of steady traffic.
const HOTEL_SECS: u64 = 15;
const HOTEL_RPS: f64 = 2_000.0;

fn hotel_setup(seed: u64, p: &mut Probe) -> Res<Sim> {
    let open = p.enter("bench.setup");
    let bp = Blueprint::new();
    let app = compile(&bp, &hr::workflow(), &hr::wiring(&WiringOpts::default()), p)?;
    let sim = boot(
        app.system(),
        SimConfig {
            seed,
            ..Default::default()
        },
        p,
    )?;
    p.exit(open);
    Ok(sim)
}

/// HotelReservation, default wiring, read-mostly paper mix, Poisson at
/// 2 krps, no span recording: the per-arrival dispatch path.
fn hotel_steady(seed: u64, p: &mut Probe, checks: &mut Checks) -> Res<Iteration> {
    let t0 = Instant::now();
    let mut sim = hotel_setup(seed, p)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let gen = OpenLoopGen::new(
        vec![Phase::new(HOTEL_SECS, HOTEL_RPS)],
        hr::paper_mix(),
        hr::ENTITIES,
        seed,
    );
    let mut log = Log::new(false);
    let traffic = drive(&mut sim, gen, secs(5), &mut log, p).map_err(err("hotel traffic"))?;
    check_conserved(checks, "hotel_steady", &log, traffic.submitted);
    Ok(Iteration {
        setup_s,
        traffic_s: traffic.host_s,
        traffic_completed: traffic.completed,
        stats: SimStats::collect(&sim, log, 0).seal(),
        anomalies: None,
    })
}

// ---------------------------------------------------------------------------
// social_writes
// ---------------------------------------------------------------------------

const SOCIAL_SECS: u64 = 8;
const SOCIAL_RPS: f64 = 1_000.0;
/// Entity (user) ids the traffic draws from; each is audit-read at the end.
const SOCIAL_ENTITIES: u64 = 500;
/// `ut_db` replication lag bounds, ms.
const SOCIAL_LAG_MS: (i64, i64) = (100, 400);
/// Failover detection and election delays.
const SOCIAL_FAILOVER_NS: (SimTime, SimTime) = (50_000_000, 50_000_000);
/// Post-traffic quiet period; exceeds the maximum replication lag.
const SOCIAL_SETTLE_NS: SimTime = 2_000_000_000;

fn social_mix() -> ApiMix {
    ApiMix::new()
        .add("gateway", "ComposePost", 0.5)
        .add("gateway", "ReadUserTimeline", 0.3)
        .add("gateway", "ReadHomeTimeline", 0.2)
}

fn social_setup(seed: u64, p: &mut Probe) -> Res<Sim> {
    let open = p.enter("bench.setup");
    let bp = Blueprint::new();
    let wf = sn::workflow();
    let w = sn::wiring_inconsistency(&WiringOpts::default(), SOCIAL_LAG_MS.0, SOCIAL_LAG_MS.1);
    let app = compile(&bp, &wf, &w, p)?;
    let mut system = app.system().clone();
    sn::arm_ut_db_failover(&mut system, SOCIAL_FAILOVER_NS.0, SOCIAL_FAILOVER_NS.1)
        .map_err(|e| format!("arm failover: {e}"))?;
    let ut_db = system
        .backends
        .iter()
        .find(|b| b.name == "ut_db")
        .ok_or("no ut_db backend")?;
    let primary = system.processes[ut_db.process].name.clone();
    let crash = Fault::ProcessCrash {
        process: primary,
        restart_delay_ns: secs(2),
    };
    let cfg = SimConfig {
        seed,
        record_traces: true,
        faults: FaultPlan::none().at(secs(SOCIAL_SECS) / 2, crash),
        ..Default::default()
    };
    let mut sim = boot(&system, cfg, p)?;
    let open_fill = p.enter("simrt.prefill");
    for b in &system.backends {
        let filled = match b.kind {
            BackendRtKind::Store { .. } => sim.store_fill(&b.name, sn::ENTITIES, 1),
            BackendRtKind::Cache { .. } => sim.cache_fill(&b.name, sn::ENTITIES, 1),
            _ => Ok(()),
        };
        filled.map_err(|e| format!("prefill {}: {e}", b.name))?;
    }
    p.exit(open_fill);
    p.exit(open);
    Ok(sim)
}

/// SocialNetwork with the replicated `ut_db` (async lag, failover armed)
/// and per-replica caches, a write-heavy mix, spans recorded, one primary
/// crash mid-run, then settle, an audit read per entity, and the oracle.
fn social_writes(seed: u64, p: &mut Probe, checks: &mut Checks) -> Res<Iteration> {
    let t0 = Instant::now();
    let mut sim = social_setup(seed, p)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let gen = OpenLoopGen::new(
        vec![Phase::new(SOCIAL_SECS, SOCIAL_RPS)],
        social_mix(),
        SOCIAL_ENTITIES,
        seed,
    );
    let mut log = Log::new(true);
    let traffic = drive(&mut sim, gen, ms(500), &mut log, p).map_err(err("social traffic"))?;

    let open = p.enter("bench.report");
    settle(&mut sim, SOCIAL_SETTLE_NS, &mut log, p);
    check_conserved(checks, "social_writes traffic", &log, traffic.submitted);

    // One audit read per entity; what they observe is each entity's
    // converged version, which splits lost writes from stale reads.
    let handle = sim
        .entry_handle("gateway", "ReadUserTimeline")
        .map_err(|e| format!("audit entry: {e}"))?;
    for entity in 0..SOCIAL_ENTITIES {
        p.span("simrt.submit", || sim.submit_handle(handle, entity))
            .map_err(|e| format!("audit submit: {e}"))?;
    }
    let mut audit_log = Log::new(true);
    settle(&mut sim, SOCIAL_SETTLE_NS, &mut audit_log, p);
    check_conserved(checks, "social_writes audit", &audit_log, SOCIAL_ENTITIES);
    let audit = audit_log.take_kept();
    let audited_ok = audit.iter().filter(|c| c.ok).count() as u64;
    checks.check(
        "social_writes: every audit read succeeds",
        audited_ok == SOCIAL_ENTITIES,
        || format!("{audited_ok}/{SOCIAL_ENTITIES}"),
    );

    let oracle = OracleSpec::new(["ComposePost"], ["ReadUserTimeline"]);
    let mut completions = log.take_kept();
    let anomalies = p.span("workload.oracle", || {
        let converged = converged_versions(&audit, &oracle);
        completions.extend(audit);
        classify_with_audit(&completions, &oracle, &converged)
    });
    p.add("workload.oracle_anomalies", anomalies.total() as f64);
    let spans = trace_spans(&mut sim, p);
    let stats = SimStats::collect(&sim, log, spans);
    checks.check(
        "social_writes: the crash fails the primary over",
        stats.failovers >= 1,
        || format!("failovers={}", stats.failovers),
    );
    checks.check(
        "social_writes: the crash loses acknowledged writes",
        stats.lost_writes >= 1,
        || format!("lost_writes={}", stats.lost_writes),
    );
    // The oracle's lost-write count is reported (`oracle[...]` on the
    // identity line) but not checked against the simulator's: they differ
    // here. The simulator counts keys an election rolled back; the oracle
    // counts acked writes above the version the audit reads see, and those
    // reads can be stale for good — served by a per-replica cache, or by
    // the replica that lost the election, which never receives the writes
    // it missed.
    p.exit(open);
    Ok(Iteration {
        setup_s,
        traffic_s: traffic.host_s,
        traffic_completed: traffic.completed,
        stats: stats.seal(),
        anomalies: Some(anomalies),
    })
}

// ---------------------------------------------------------------------------
// overload_storm
// ---------------------------------------------------------------------------

/// Fig. 6 Type-1 phases, scaled down in time: (virtual ns, rps) base →
/// spike → base.
const STORM_PHASES: [(SimTime, f64); 3] = [
    (1_000_000_000, 1_500.0),
    (1_500_000_000, 13_000.0),
    (1_000_000_000, 1_500.0),
];
/// Virtual time after the last arrival for every retry chain to finish.
const STORM_TAIL_NS: SimTime = 20_000_000_000;

fn storm_setup(seed: u64, p: &mut Probe) -> Res<Sim> {
    let open = p.enter("bench.setup");
    let bp = Blueprint::new();
    let opts = WiringOpts {
        cluster: (8, 2.0),
        ..WiringOpts::default()
            .without_tracing()
            .with_timeout_retries(500, 10)
    };
    let app = compile(&bp, &hr::workflow(), &hr::wiring(&opts), p)?;
    let sim = boot(
        app.system(),
        SimConfig {
            seed,
            ..Default::default()
        },
        p,
    )?;
    p.exit(open);
    Ok(sim)
}

/// The Fig. 6 Type-1 cell: HotelReservation on 8×2 cores with 500 ms
/// timeouts × 10 retries, base → spike → base, then drain.
fn overload_storm(seed: u64, p: &mut Probe, checks: &mut Checks) -> Res<Iteration> {
    let t0 = Instant::now();
    let mut sim = storm_setup(seed, p)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let phases = STORM_PHASES
        .iter()
        .map(|&(duration_ns, rps)| Phase { duration_ns, rps })
        .collect();
    let gen = OpenLoopGen::new(phases, hr::paper_mix(), hr::ENTITIES, seed);
    let mut log = Log::new(false);
    let traffic = drive(&mut sim, gen, STORM_TAIL_NS, &mut log, p).map_err(err("storm traffic"))?;
    check_conserved(checks, "overload_storm", &log, traffic.submitted);
    Ok(Iteration {
        setup_s,
        traffic_s: traffic.host_s,
        traffic_completed: traffic.completed,
        stats: SimStats::collect(&sim, log, 0).seal(),
        anomalies: None,
    })
}

// ---------------------------------------------------------------------------
// cbd_iterate
// ---------------------------------------------------------------------------

/// Infrastructure callees `monolithify` removes (as in the UC1 tests).
const INFRA: [&str; 4] = ["GRPCServer", "ThriftServer", "HTTPServer", "Docker"];
/// Smoke traffic per variant: (virtual seconds, rps).
const SMOKE: (u64, f64) = (1, 100.0);

/// One ported application: specs, mix and entity space.
struct App {
    name: &'static str,
    workflow: WorkflowSpec,
    wiring: WiringSpec,
    mix: ApiMix,
    entities: u64,
}

fn apps(seed: u64, p: &mut Probe) -> Vec<App> {
    let o = WiringOpts::default();
    let mut out = vec![
        App {
            name: "hotel_reservation",
            workflow: hr::workflow(),
            wiring: hr::wiring(&o),
            mix: hr::paper_mix(),
            entities: hr::ENTITIES,
        },
        App {
            name: "social_network",
            workflow: sn::workflow(),
            wiring: sn::wiring(&o),
            mix: sn::paper_mix(),
            entities: sn::ENTITIES,
        },
        App {
            name: "media",
            workflow: media::workflow(),
            wiring: media::wiring(&o),
            mix: media::paper_mix(),
            entities: media::ENTITIES,
        },
        App {
            name: "train_ticket",
            workflow: train_ticket::workflow(),
            wiring: train_ticket::wiring(&o),
            mix: train_ticket::paper_mix(),
            entities: train_ticket::ENTITIES,
        },
        App {
            name: "sock_shop",
            workflow: sock_shop::workflow(),
            wiring: sock_shop::wiring(&o),
            mix: sock_shop::paper_mix(),
            entities: sock_shop::ENTITIES,
        },
    ];
    let (workflow, wiring) = p.span("apps.alibaba_topology", || {
        alibaba::topology(alibaba::PAPER_SCALE, seed)
    });
    out.push(App {
        name: "alibaba",
        workflow,
        wiring,
        mix: ApiMix::new(),
        entities: 1_000,
    });
    out
}

/// The UC1 one-line mutations that apply to `w`, by name.
fn mutations(w: &WiringSpec) -> Vec<&'static str> {
    let mut out = vec!["rpc_swap", "replicate"];
    if w.decl("tracer").is_some() {
        out.push("tracer_swap");
    }
    out.push("monolithify");
    if w.decl("tracer").is_some() {
        out.push("no_tracing");
    }
    out
}

fn apply(w: &mut WiringSpec, mutation: &str) -> Result<(), blueprint_wiring::WiringError> {
    match mutation {
        "rpc_swap" => mutate::swap_callee(w, "rpc_server", "ThriftServer"),
        "replicate" => {
            let first = mutate::service_names(w)
                .into_iter()
                .next()
                .expect("apps declare services");
            mutate::replicate(w, &first, 3).map(drop)
        }
        "tracer_swap" => mutate::swap_callee(w, "tracer", "ZipkinTracer"),
        "monolithify" => mutate::monolithify(w, &INFRA),
        "no_tracing" => {
            mutate::remove_modifier_from_all_services(w, "tracermodifier");
            mutate::remove_instance(w, "tracermodifier")?;
            mutate::remove_instance(w, "tracer")
        }
        other => unreachable!("unknown mutation {other}"),
    }
}

/// Specs to a booted simulator for one mutated variant; `None` (with the
/// failed check recorded) when a step fails.
fn cbd_variant(
    bp: &Blueprint,
    app: &App,
    mutation: &str,
    seed: u64,
    p: &mut Probe,
    checks: &mut Checks,
) -> Option<(CompiledApp, Sim)> {
    let what = format!("cbd_iterate {}/{mutation}", app.name);
    let mut w = app.wiring.clone();
    let mutated = p.span("wiring.mutate", || apply(&mut w, mutation));
    checks.check(
        &format!("{what}: mutation applies"),
        mutated.is_ok(),
        || format!("{mutated:?}"),
    );
    mutated.ok()?;
    let parsed = p.span("wiring.parse", || parse(&render(&w)));
    checks.check(
        &format!("{what}: DSL round-trips"),
        parsed.as_ref().is_ok_and(|parsed| *parsed == w),
        || format!("{parsed:?}"),
    );
    let compiled = compile(bp, &app.workflow, &parsed.ok()?, p);
    checks.check(&format!("{what}: compiles"), compiled.is_ok(), || {
        format!("{:?}", compiled.as_ref().err())
    });
    let compiled = compiled.ok()?;
    let cfg = SimConfig {
        seed,
        ..Default::default()
    };
    let sim = boot(compiled.system(), cfg, p);
    checks.check(&format!("{what}: boots"), sim.is_ok(), || {
        format!("{:?}", sim.as_ref().err())
    });
    Some((compiled, sim.ok()?))
}

/// The paper's CBD loop: for every ported app and the Alibaba topology,
/// apply each UC1 mutation, render and re-parse the wiring DSL, compile
/// with artifacts and lint, boot, and run a low-rate smoke.
fn cbd_iterate(seed: u64, p: &mut Probe, checks: &mut Checks) -> Res<Iteration> {
    let bp = Blueprint::new();
    let mut it = Iteration {
        setup_s: 0.0,
        traffic_s: 0.0,
        traffic_completed: 0,
        stats: SimStats::empty(),
        anomalies: None,
    };
    for app in apps(seed, p) {
        for mutation in mutations(&app.wiring) {
            let t0 = Instant::now();
            let open = p.enter("bench.setup");
            let variant = cbd_variant(&bp, &app, mutation, seed, p, checks);
            p.exit(open);
            it.setup_s += t0.elapsed().as_secs_f64();
            let Some((compiled, mut sim)) = variant else {
                continue;
            };

            let what = format!("cbd_iterate {}/{mutation}", app.name);
            // The Alibaba topology has no paper mix: spread its smoke evenly
            // over every entry service, so one seed's choice of entry does
            // not decide the cost of a request.
            let mix = if app.mix.is_empty() {
                let entries = compiled.system().entries.keys();
                entries.fold(ApiMix::new(), |mix, entry| mix.add(entry, "Call", 1.0))
            } else {
                app.mix.clone()
            };
            let gen = OpenLoopGen::new(vec![Phase::new(SMOKE.0, SMOKE.1)], mix, app.entities, seed);
            let mut log = Log::new(false);
            let traffic = drive(&mut sim, gen, secs(5), &mut log, p)
                .map_err(|e| format!("{what}: smoke traffic: {e}"))?;
            check_conserved(checks, &what, &log, traffic.submitted);
            // SockShop declines a share of payments by design (`fault`);
            // any other failure means the variant is broken.
            let cons = log.conservation(traffic.submitted);
            checks.check(
                &format!("{what}: smoke traffic succeeds"),
                cons.ok > 0 && cons.by_cause.keys().all(|cause| cause == "fault"),
                || cons.clone(),
            );
            let stats = SimStats::collect(&sim, log, 0);
            it.traffic_s += traffic.host_s;
            it.traffic_completed += traffic.completed;
            it.stats.merge(stats);
        }
    }
    it.stats = it.stats.seal();
    Ok(it)
}

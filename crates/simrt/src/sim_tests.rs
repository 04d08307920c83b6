//! Unit tests of the simulation runtime.

use super::*;
use crate::spec::{
    BackendRtKind, BackendSpec, BreakerSpec, ClientSpec, DeadlineSpec, DepBinding, EntrySpec,
    GcSpec, HostSpec, LbPolicy, ProcessSpec, RetryBudgetSpec, ServiceSpec, ShedSpec, SystemSpec,
    TransportSpec,
};
use crate::time::{ms, secs, us};
use blueprint_workflow::{Behavior, CacheOp, KeyExpr};

/// Send/Sync audit for the cross-run parallel experiment engine
/// (`blueprint_workload::parallel`): parallel workers each build their own
/// `Sim` from a shared `&SystemSpec` and send plain-data results back, so
/// everything on that boundary must be `Send + Sync`. `Sim` itself is `Send`
/// since the Rc→arena refactor (asserted at its definition in `sim.rs`), so
/// a built simulation can also move across threads whole.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<SystemSpec>();
    assert_send_sync::<ServiceSpec>();
    assert_send_sync::<BackendSpec>();
    assert_send_sync::<EntrySpec>();
    assert_send_sync::<ClientSpec>();
    assert_send_sync::<SimConfig>();
    assert_send_sync::<Completion>();
    assert_send_sync::<SimError>();
};

/// One host, one process, one entry service with the given behavior.
fn single_service(behavior: Behavior) -> SystemSpec {
    let mut spec = SystemSpec {
        name: "t".into(),
        hosts: vec![HostSpec {
            name: "h0".into(),
            cores: 4.0,
        }],
        processes: vec![ProcessSpec {
            name: "p0".into(),
            host: 0,
            gc: None,
        }],
        ..Default::default()
    };
    let mut s = ServiceSpec::new("front", 0);
    s.methods.insert("M".into(), behavior);
    spec.services.push(s);
    spec.entries.insert(
        "front".into(),
        EntrySpec {
            service: 0,
            client: ClientSpec::local(),
        },
    );
    spec
}

/// front --client--> back (each in its own process on its own host).
fn two_tier(back_behavior: Behavior, client: ClientSpec) -> SystemSpec {
    let mut spec = SystemSpec {
        name: "t2".into(),
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
    back.methods.insert("Work".into(), back_behavior);
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

fn run_one(spec: &SystemSpec, method: &str) -> (Sim, Completion) {
    let mut sim = Sim::new(spec, SimConfig::default()).unwrap();
    sim.submit("front", method, 1).unwrap();
    sim.run_until(secs(10));
    let mut done = sim.drain_completions();
    assert_eq!(done.len(), 1, "request completed");
    let c = done.pop().unwrap();
    (sim, c)
}

#[test]
fn compute_only_latency_matches_work() {
    let spec = single_service(Behavior::build().compute(100_000, 0).done());
    let (_, c) = run_one(&spec, "M");
    assert!(c.ok);
    assert_eq!(c.latency_ns(), 100_000);
}

#[test]
fn unknown_entry_and_method_error() {
    let spec = single_service(Behavior::build().compute(1, 0).done());
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    assert!(sim.submit("nope", "M", 1).is_err());
    assert!(sim.submit("front", "Nope", 1).is_err());
}

#[test]
fn grpc_adds_serialization_and_network_latency() {
    let client = ClientSpec::over(TransportSpec::Grpc {
        serialize_ns: 10_000,
        net_ns: 50_000,
    });
    let spec = two_tier(Behavior::build().compute(100_000, 0).done(), client);
    let (_, c) = run_one(&spec, "M");
    assert!(c.ok);
    // client ser 10k + net 50k + server 100k + server ser 10k + net 50k.
    assert_eq!(c.latency_ns(), 220_000);
}

#[test]
fn local_transport_is_free() {
    let spec = two_tier(
        Behavior::build().compute(100_000, 0).done(),
        ClientSpec::local(),
    );
    let (_, c) = run_one(&spec, "M");
    assert_eq!(c.latency_ns(), 100_000);
}

#[test]
fn timeout_fails_request_and_counts() {
    let client = ClientSpec {
        timeout_ns: Some(ms(1)),
        ..ClientSpec::local()
    };
    let spec = two_tier(Behavior::build().compute(ms(10), 0).done(), client);
    let (sim, c) = run_one(&spec, "M");
    assert!(!c.ok);
    assert_eq!(c.latency_ns(), ms(1));
    assert_eq!(sim.metrics.counters.timeouts, 1);
    assert_eq!(sim.metrics.counters.retries, 0);
}

#[test]
fn retries_multiply_wasted_server_work() {
    let client = ClientSpec {
        timeout_ns: Some(ms(1)),
        retries: 2,
        ..ClientSpec::local()
    };
    let spec = two_tier(Behavior::build().compute(ms(10), 0).done(), client);
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.submit("front", "M", 1).unwrap();
    sim.run_until(secs(30));
    let c = sim.drain_completions().pop().unwrap();
    assert!(!c.ok);
    // 3 attempts, each timing out after 1 ms.
    assert_eq!(c.latency_ns(), ms(3));
    assert_eq!(sim.metrics.counters.timeouts, 3);
    assert_eq!(sim.metrics.counters.retries, 2);
    // Wasted work: the server processed all three attempts to completion.
    assert_eq!(sim.service_served("back"), Some(3));
}

#[test]
fn admission_limit_fast_fails() {
    let client = ClientSpec::local();
    let mut spec = two_tier(Behavior::build().compute(ms(10), 0).done(), client);
    spec.services[1].max_concurrent = 1;
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.submit("front", "M", 1).unwrap();
    sim.submit("front", "M", 2).unwrap();
    sim.run_until(secs(1));
    let done = sim.drain_completions();
    assert_eq!(done.len(), 2);
    assert_eq!(done.iter().filter(|c| c.ok).count(), 1);
    assert_eq!(sim.metrics.counters.admission_rejections, 1);
    // The fast-fail carries its own stable class so conservation reports
    // attribute the loss to the admission limit, not a generic downstream
    // failure.
    let rejected = done.iter().find(|c| !c.ok).unwrap();
    assert_eq!(rejected.failure, Some("overload"));
}

#[test]
fn breaker_opens_and_rejects() {
    let client = ClientSpec {
        breaker: Some(BreakerSpec {
            window: 10,
            failure_threshold: 0.5,
            open_ns: secs(100),
            half_open_probes: 1,
        }),
        ..ClientSpec::local()
    };
    let mut spec = two_tier(Behavior::build().compute(ms(1), 0).done(), client);
    spec.services[1].max_concurrent = 0; // Every call overloads.
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    for i in 0..50 {
        sim.submit("front", "M", i).unwrap();
        sim.run_until(ms(10 * (i + 1)));
    }
    sim.run_until(secs(2));
    assert!(sim.metrics.counters.breaker_opens >= 1);
    assert!(sim.metrics.counters.breaker_rejections >= 30);
    // Far fewer than 50 calls actually reached the server.
    assert!(sim.metrics.counters.admission_rejections < 20);
    let done = sim.drain_completions();
    assert_eq!(done.len(), 50);
    assert!(done.iter().all(|c| !c.ok));
}

#[test]
fn thrift_pool_serializes_concurrent_calls() {
    let client = ClientSpec::over(TransportSpec::Thrift {
        pool: 1,
        serialize_ns: 0,
        net_ns: 0,
        reconnect_ns: 0,
    });
    let spec = two_tier(Behavior::build().compute(ms(1), 0).done(), client);
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.submit("front", "M", 1).unwrap();
    sim.submit("front", "M", 2).unwrap();
    sim.run_until(secs(1));
    let mut done = sim.drain_completions();
    done.sort_by_key(|c| c.finished_ns);
    assert_eq!(done.len(), 2);
    // Server host has 4 cores, so without pooling both would finish at 1 ms.
    assert_eq!(done[0].latency_ns(), ms(1));
    assert_eq!(done[1].latency_ns(), ms(2));
}

#[test]
fn grpc_multiplexes_without_queueing() {
    let client = ClientSpec::over(TransportSpec::Grpc {
        serialize_ns: 0,
        net_ns: 0,
    });
    let spec = two_tier(Behavior::build().compute(ms(1), 0).done(), client);
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.submit("front", "M", 1).unwrap();
    sim.submit("front", "M", 2).unwrap();
    sim.run_until(secs(1));
    let done = sim.drain_completions();
    assert!(done.iter().all(|c| c.latency_ns() == ms(1)));
}

#[test]
fn gc_pauses_trigger_and_account() {
    let gc = GcSpec {
        gogc_percent: 100.0,
        base_heap_bytes: 1 << 20,
        pause_cpu_ns_per_mib: ms(1),
    };
    let mut spec = single_service(Behavior::build().compute(us(10), 512 << 10).done());
    spec.processes[0].gc = Some(gc);
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    for i in 0..10 {
        sim.submit("front", "M", i).unwrap();
        sim.run_until(ms(5 * (i + 1)));
    }
    sim.run_until(secs(1));
    // Heap grows 512 KiB per request over a 1 MiB base with GOGC=100 →
    // collection every ~2 requests.
    assert!(
        sim.metrics.counters.gc_pauses >= 3,
        "pauses={}",
        sim.metrics.counters.gc_pauses
    );
    assert!(sim.metrics.counters.gc_pause_ns > 0);
    assert_eq!(sim.drain_completions().len(), 10);
    // Heap returned to base after the last collection.
    assert!(sim.process_heap("p0").unwrap() <= (1 << 20) + 2 * (512 << 10));
}

#[test]
fn parallel_branches_overlap() {
    let spec = single_service(
        Behavior::build()
            .parallel(vec![
                Behavior::build().compute(ms(1), 0).done(),
                Behavior::build().compute(ms(1), 0).done(),
            ])
            .done(),
    );
    let (_, c) = run_one(&spec, "M");
    assert!(c.ok);
    // 4-core host: both branches run at full speed.
    assert_eq!(c.latency_ns(), ms(1));
}

#[test]
fn parallel_branch_failure_fails_request() {
    let spec = single_service(
        Behavior::build()
            .parallel(vec![
                Behavior::build().compute(ms(1), 0).done(),
                Behavior::build().fail(1.0).done(),
            ])
            .done(),
    );
    let (_, c) = run_one(&spec, "M");
    assert!(!c.ok);
}

#[test]
fn branch_probabilities_respected() {
    let spec = single_service(
        Behavior::build()
            .branch(
                0.25,
                Behavior::build().compute(ms(2), 0).done(),
                Behavior::build().compute(ms(1), 0).done(),
            )
            .done(),
    );
    let mut sim = Sim::new(
        &spec,
        SimConfig {
            seed: 42,
            ..Default::default()
        },
    )
    .unwrap();
    for i in 0..200 {
        sim.submit("front", "M", i).unwrap();
        sim.run_until(ms(5 * (i + 1)));
    }
    sim.run_until(secs(5));
    let done = sim.drain_completions();
    let slow = done.iter().filter(|c| c.latency_ns() >= ms(2)).count();
    assert!((30..=70).contains(&slow), "slow={slow} of {}", done.len());
}

fn cache_db_spec() -> SystemSpec {
    let mut spec = SystemSpec {
        name: "cdb".into(),
        hosts: vec![
            HostSpec {
                name: "h0".into(),
                cores: 4.0,
            },
            HostSpec {
                name: "hdb".into(),
                cores: 4.0,
            },
        ],
        processes: vec![
            ProcessSpec {
                name: "p0".into(),
                host: 0,
                gc: None,
            },
            ProcessSpec {
                name: "p_cache".into(),
                host: 1,
                gc: None,
            },
            ProcessSpec {
                name: "p_db".into(),
                host: 1,
                gc: None,
            },
        ],
        ..Default::default()
    };
    spec.backends.push(BackendSpec {
        name: "cache".into(),
        process: 1,
        kind: BackendRtKind::Cache {
            capacity_items: 1000,
            op_latency_ns: us(100),
            cpu_per_op_ns: us(2),
            cpu_per_item_ns: us(1),
        },
    });
    spec.backends.push(BackendSpec {
        name: "db".into(),
        process: 2,
        kind: BackendRtKind::Store {
            read_latency_ns: ms(1),
            write_latency_ns: ms(2),
            cpu_per_op_ns: us(10),
            cpu_per_item_ns: us(1),
            replicas: 0,
            replication_lag_ns: (0, 0),
            consistency: Default::default(),
            failover: None,
        },
    });
    let mut s = ServiceSpec::new("front", 0);
    s.methods.insert(
        "Read".into(),
        Behavior::build()
            .cache_get_or_fetch(
                "c",
                KeyExpr::Entity,
                Behavior::build()
                    .db_read("d", KeyExpr::Entity)
                    .cache_put("c", KeyExpr::Entity)
                    .done(),
            )
            .done(),
    );
    s.methods.insert(
        "Write".into(),
        Behavior::build()
            .db_write("d", KeyExpr::Entity)
            .cache_put("c", KeyExpr::Entity)
            .done(),
    );
    s.deps.insert(
        "c".into(),
        DepBinding::Backend {
            target: 0,
            client: ClientSpec::local(),
        },
    );
    s.deps.insert(
        "d".into(),
        DepBinding::Backend {
            target: 1,
            client: ClientSpec::local(),
        },
    );
    spec.services.push(s);
    spec.entries.insert(
        "front".into(),
        EntrySpec {
            service: 0,
            client: ClientSpec::local(),
        },
    );
    spec
}

#[test]
fn cache_aside_miss_then_hit() {
    let spec = cache_db_spec();
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.submit("front", "Read", 7).unwrap();
    sim.run_until(secs(1));
    sim.submit("front", "Read", 7).unwrap();
    sim.run_until(secs(2));
    let done = sim.drain_completions();
    assert_eq!(done.len(), 2);
    assert!(done.iter().all(|c| c.ok));
    let cache = sim.metrics.backend("cache").unwrap();
    assert_eq!(cache.misses, 1);
    assert_eq!(cache.hits, 1);
    let db = sim.metrics.backend("db").unwrap();
    assert_eq!(db.reads, 1, "second read served from cache");
    // The miss path is slower than the hit path.
    assert!(done[0].latency_ns() > done[1].latency_ns());
}

#[test]
fn cache_flush_forces_misses() {
    let spec = cache_db_spec();
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.submit("front", "Read", 7).unwrap();
    sim.run_until(secs(1));
    assert_eq!(sim.cache_len("cache").unwrap(), 1);
    sim.cache_flush("cache").unwrap();
    assert_eq!(sim.cache_len("cache").unwrap(), 0);
    sim.submit("front", "Read", 7).unwrap();
    sim.run_until(secs(2));
    assert_eq!(sim.metrics.backend("cache").unwrap().misses, 2);
}

#[test]
fn cache_fill_prepopulates() {
    let spec = cache_db_spec();
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.cache_fill("cache", 100, 1).unwrap();
    assert_eq!(sim.cache_len("cache").unwrap(), 100);
    sim.submit("front", "Read", 7).unwrap();
    sim.run_until(secs(1));
    assert_eq!(sim.metrics.backend("cache").unwrap().hits, 1);
    assert_eq!(sim.metrics.backend("db").map(|b| b.reads).unwrap_or(0), 0);
}

#[test]
fn replicated_store_reads_can_be_stale() {
    let mut spec = cache_db_spec();
    spec.backends[1].kind = BackendRtKind::Store {
        read_latency_ns: us(100),
        write_latency_ns: us(100),
        cpu_per_op_ns: us(1),
        cpu_per_item_ns: 0,
        replicas: 2,
        replication_lag_ns: (ms(100), ms(100)),
        consistency: Default::default(),
        failover: None,
    };
    // Bypass the cache for reads in this test.
    spec.services[0].methods.insert(
        "ReadDb".into(),
        Behavior::build().db_read("d", KeyExpr::Entity).done(),
    );
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    let wv = sim.submit("front", "Write", 7).unwrap();
    sim.run_until(ms(10));
    assert_eq!(sim.store_primary_version("db", 7).unwrap(), wv);
    assert_eq!(sim.store_replica_versions("db", 7).unwrap(), vec![0, 0]);
    // Read before replication lag elapses → stale (version 0).
    sim.submit("front", "ReadDb", 7).unwrap();
    sim.run_until(ms(50));
    let c = sim.drain_completions().pop().unwrap();
    assert_eq!(c.observed_version, 0);
    assert_eq!(sim.metrics.backend("db").unwrap().stale_reads, 1);
    // After the lag, replicas caught up.
    sim.run_until(ms(200));
    assert_eq!(sim.store_replica_versions("db", 7).unwrap(), vec![wv, wv]);
    sim.submit("front", "ReadDb", 7).unwrap();
    sim.run_until(ms(300));
    let c = sim.drain_completions().pop().unwrap();
    assert_eq!(c.observed_version, wv);
}

#[test]
fn queue_capacity_drops() {
    let mut spec = cache_db_spec();
    spec.backends.push(BackendSpec {
        name: "q".into(),
        process: 1,
        kind: BackendRtKind::Queue {
            capacity: 1,
            op_latency_ns: us(10),
        },
    });
    spec.services[0]
        .methods
        .insert("Push".into(), Behavior::build().queue_push("q").done());
    spec.services[0].deps.insert(
        "q".into(),
        DepBinding::Backend {
            target: 2,
            client: ClientSpec::local(),
        },
    );
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.submit("front", "Push", 1).unwrap();
    sim.run_until(secs(1));
    sim.submit("front", "Push", 2).unwrap();
    sim.run_until(secs(2));
    let done = sim.drain_completions();
    assert!(done[0].ok);
    assert!(!done[1].ok);
    assert_eq!(sim.metrics.counters.queue_drops, 1);
}

#[test]
fn replicated_service_round_robin_balances() {
    let mut spec = SystemSpec {
        name: "lb".into(),
        hosts: vec![HostSpec {
            name: "h0".into(),
            cores: 8.0,
        }],
        processes: vec![ProcessSpec {
            name: "p0".into(),
            host: 0,
            gc: None,
        }],
        ..Default::default()
    };
    for i in 0..3 {
        let mut r = ServiceSpec::new(format!("back_{i}"), 0);
        r.methods
            .insert("Work".into(), Behavior::build().compute(us(10), 0).done());
        spec.services.push(r);
    }
    let mut front = ServiceSpec::new("front", 0);
    front
        .methods
        .insert("M".into(), Behavior::build().call("backend", "Work").done());
    front.deps.insert(
        "backend".into(),
        DepBinding::ReplicatedService {
            targets: vec![0, 1, 2],
            policy: LbPolicy::RoundRobin,
            client: ClientSpec::local(),
        },
    );
    spec.services.push(front);
    spec.entries.insert(
        "front".into(),
        EntrySpec {
            service: 3,
            client: ClientSpec::local(),
        },
    );
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    for i in 0..30 {
        sim.submit("front", "M", i).unwrap();
        sim.run_until(ms(i + 1));
    }
    sim.run_until(secs(1));
    for i in 0..3 {
        assert_eq!(sim.service_served(&format!("back_{i}")), Some(10));
    }
}

#[test]
fn deterministic_across_runs() {
    let run = |seed: u64| {
        let spec = cache_db_spec();
        let mut sim = Sim::new(
            &spec,
            SimConfig {
                seed,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..50 {
            sim.submit("front", if i % 3 == 0 { "Write" } else { "Read" }, i % 11)
                .unwrap();
            sim.run_until(ms(2 * (i + 1)));
        }
        sim.run_until(secs(5));
        (sim.drain_completions(), sim.metrics.clone())
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    let c = run(8);
    // Different seed still completes everything.
    assert_eq!(c.0.len(), 50);
}

#[test]
fn tracing_records_spans_with_structure() {
    let client = ClientSpec::over(TransportSpec::Grpc {
        serialize_ns: 1000,
        net_ns: 1000,
    });
    let mut spec = two_tier(Behavior::build().compute(us(50), 0).done(), client);
    spec.services[0].trace_overhead_ns = Some(2_000);
    spec.services[1].trace_overhead_ns = Some(2_000);
    let cfg = SimConfig {
        record_traces: true,
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    sim.submit("front", "M", 1).unwrap();
    sim.run_until(secs(1));
    let traces = sim.traces.drain_finished();
    assert_eq!(traces.len(), 1);
    let t = &traces[0];
    assert_eq!(t.len(), 2);
    assert_eq!(t.root().unwrap().service, "front");
    assert_eq!(t.depth(), 2);
    assert!(sim.metrics.counters.spans >= 2);
}

#[test]
fn max_frames_guard_sheds_load() {
    let spec = single_service(Behavior::build().compute(secs(1), 0).done());
    let cfg = SimConfig {
        max_frames: 2,
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    for i in 0..5 {
        sim.submit("front", "M", i).unwrap();
    }
    // Shedding comes before method resolution, so an unknown method is shed
    // too, under its own name.
    sim.submit("front", "Nope", 9).unwrap();
    sim.run_until(secs(30));
    let done = sim.drain_completions();
    assert_eq!(done.len(), 6);
    assert!(done.iter().filter(|c| !c.ok).count() >= 4);
    assert!(sim.metrics.counters.admission_rejections >= 4);
    assert!(done
        .iter()
        .any(|c| c.method == "Nope" && c.failure == Some("shed")));
}

#[test]
fn repeat_runs_body_n_times() {
    // 5 sequential cache gets via the generic interface.
    let mut spec = cache_db_spec();
    spec.services[0].methods.insert(
        "Multi".into(),
        Behavior::build()
            .repeat(5, Behavior::build().cache_get("c", KeyExpr::Entity).done())
            .done(),
    );
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.cache_fill("cache", 10, 1).unwrap();
    sim.submit("front", "Multi", 3).unwrap();
    sim.run_until(secs(1));
    assert_eq!(sim.metrics.backend("cache").unwrap().hits, 5);
}

#[test]
fn extended_cache_multi_op_is_single_round_trip() {
    let mut spec = cache_db_spec();
    spec.services[0].methods.insert(
        "Range".into(),
        Behavior::build()
            .cache_op("c", CacheOp::GetRange { items: 5 }, KeyExpr::Entity)
            .done(),
    );
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.cache_fill("cache", 10, 1).unwrap();
    sim.submit("front", "Range", 3).unwrap();
    sim.run_until(secs(1));
    let stats = sim.metrics.backend("cache").unwrap();
    assert_eq!(stats.reads, 1, "one round trip");
    assert_eq!(stats.hits, 1);
}

/// Backend stats mirror into `metrics` once per `run_until` slice, copying
/// only backends that changed: later slices still show every new op, and an
/// idle slice leaves the entry as it was.
#[test]
fn backend_metrics_follow_every_slice() {
    let mut spec = cache_db_spec();
    spec.services[0].methods.insert(
        "Range".into(),
        Behavior::build()
            .cache_op("c", CacheOp::GetRange { items: 5 }, KeyExpr::Entity)
            .done(),
    );
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.run_until(secs(1));
    assert!(sim.metrics.backend("cache").is_none(), "no op, no entry");
    for slice in 1..=3u64 {
        sim.submit("front", "Range", 3).unwrap();
        sim.run_until(secs(2 * slice));
        assert_eq!(sim.metrics.backend("cache").unwrap().reads, slice);
        sim.run_until(secs(2 * slice + 1));
        assert_eq!(sim.metrics.backend("cache").unwrap().reads, slice);
    }
}

#[test]
fn hog_slows_processing() {
    let spec = single_service(Behavior::build().compute(ms(1), 0).done());
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.inject_cpu_hog("h0", 3.5, secs(1)).unwrap();
    sim.submit("front", "M", 1).unwrap();
    sim.run_until(secs(5));
    let c = sim.drain_completions().pop().unwrap();
    // 0.5 effective cores → 2 ms.
    assert_eq!(c.latency_ns(), ms(2));
    // After the hog ends, latency recovers.
    sim.submit("front", "M", 2).unwrap();
    sim.run_until(secs(10));
    let c = sim.drain_completions().pop().unwrap();
    assert_eq!(c.latency_ns(), ms(1));
}

// ---------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------

use crate::spec::{ChaosSpec, ExpBackoff, Fault, FaultPlan};

#[test]
fn crash_fails_in_flight_work_and_restarts() {
    let spec = two_tier(
        Behavior::build().compute(ms(10), 0).done(),
        ClientSpec::local(),
    );
    let cfg = SimConfig {
        faults: FaultPlan::none().at(
            ms(1),
            Fault::ProcessCrash {
                process: "p_back".into(),
                restart_delay_ns: ms(2),
            },
        ),
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    sim.submit("front", "M", 1).unwrap();
    sim.run_until(ms(2));
    // The in-flight request terminated (conservation) with a crash error.
    let c = sim.drain_completions().pop().expect("request terminated");
    assert!(!c.ok);
    assert_eq!(c.failure, Some("crash"));
    assert_eq!(sim.metrics.counters.process_crashes, 1);
    assert!(sim.metrics.counters.crashed_frames >= 1);
    // While down, new requests fast-fail with the same cause.
    sim.submit("front", "M", 2).unwrap();
    sim.run_until(ms(3) - 1);
    let c = sim.drain_completions().pop().expect("fast-failed");
    assert_eq!(c.failure, Some("crash"));
    // After the restart delay the process serves again.
    sim.run_until(ms(4));
    sim.submit("front", "M", 3).unwrap();
    sim.run_until(secs(1));
    let c = sim.drain_completions().pop().expect("served after restart");
    assert!(c.ok, "process restarted");
}

#[test]
fn host_down_takes_all_resident_processes() {
    // Both processes on one host so the fault takes the entire app down.
    let mut spec = two_tier(
        Behavior::build().compute(ms(10), 0).done(),
        ClientSpec::local(),
    );
    spec.processes[1].host = 0;
    let cfg = SimConfig {
        faults: FaultPlan::none().at(
            ms(1),
            Fault::HostDown {
                host: "h0".into(),
                down_ns: ms(5),
            },
        ),
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    sim.submit("front", "M", 1).unwrap();
    sim.run_until(ms(2));
    let c = sim.drain_completions().pop().expect("terminated");
    assert_eq!(c.failure, Some("crash"));
    assert_eq!(
        sim.metrics.counters.process_crashes, 2,
        "both residents crashed"
    );
    sim.run_until(ms(10));
    sim.submit("front", "M", 2).unwrap();
    sim.run_until(secs(1));
    assert!(sim.drain_completions().pop().unwrap().ok, "host came back");
}

#[test]
fn partition_drops_requests_then_heals() {
    let spec = two_tier(
        Behavior::build().compute(us(10), 0).done(),
        ClientSpec::local(),
    );
    let cfg = SimConfig {
        faults: FaultPlan::none().at(
            ms(1),
            Fault::Partition {
                a: "p_front".into(),
                b: "p_back".into(),
                duration_ns: ms(2),
            },
        ),
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    // Before the partition: fine.
    sim.submit("front", "M", 1).unwrap();
    sim.run_until(ms(1) + us(1));
    assert!(sim.drain_completions().pop().unwrap().ok);
    // During: the request is lost and surfaces as unreachable.
    sim.submit("front", "M", 2).unwrap();
    sim.run_until(ms(2));
    let c = sim.drain_completions().pop().expect("terminated");
    assert_eq!(c.failure, Some("unreachable"));
    assert_eq!(sim.metrics.counters.link_unreachable, 1);
    // After: healed.
    sim.run_until(ms(4));
    sim.submit("front", "M", 3).unwrap();
    sim.run_until(secs(1));
    assert!(sim.drain_completions().pop().unwrap().ok);
}

#[test]
fn link_degrade_adds_latency_without_loss() {
    let client = ClientSpec::over(TransportSpec::Grpc {
        serialize_ns: 0,
        net_ns: us(50),
    });
    let spec = two_tier(Behavior::build().compute(us(100), 0).done(), client);
    let cfg = SimConfig {
        faults: FaultPlan::none().at(
            0,
            Fault::LinkDegrade {
                a: "p_front".into(),
                b: "p_back".into(),
                duration_ns: secs(1),
                extra_latency_ns: us(300),
                loss: 0.0,
            },
        ),
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    sim.submit("front", "M", 1).unwrap();
    sim.run_until(secs(2));
    let c = sim.drain_completions().pop().unwrap();
    assert!(c.ok, "degraded but reachable");
    // Degradation applies on the request leg: 50+300, server 100, reply 50.
    assert_eq!(c.latency_ns(), us(500));
    assert_eq!(sim.metrics.counters.link_unreachable, 0);
}

#[test]
fn brownout_slows_then_recovers() {
    let spec = cache_db_spec();
    let cfg = SimConfig {
        faults: FaultPlan::none().at(
            0,
            Fault::Brownout {
                backend: "db".into(),
                duration_ns: secs(1),
                slow_factor: 8.0,
                unavailable: false,
            },
        ),
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    sim.submit("front", "Read", 7).unwrap();
    sim.run_until(ms(500));
    let slow = sim.drain_completions().pop().unwrap();
    assert!(slow.ok, "browned out but up");
    sim.run_until(secs(2));
    sim.submit("front", "Read", 8).unwrap();
    sim.run_until(secs(3));
    let normal = sim.drain_completions().pop().unwrap();
    assert!(normal.ok);
    // Both are cache misses hitting the db; the browned-out read's ~8 ms
    // store latency dominates the normal ~1 ms one.
    assert!(
        slow.latency_ns() > 4 * normal.latency_ns(),
        "{slow:?} vs {normal:?}"
    );
}

#[test]
fn brownout_unavailable_rejects_until_window_ends() {
    let spec = cache_db_spec();
    let cfg = SimConfig {
        faults: FaultPlan::none().at(
            0,
            Fault::Brownout {
                backend: "db".into(),
                duration_ns: ms(100),
                slow_factor: 1.0,
                unavailable: true,
            },
        ),
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    sim.submit("front", "Read", 7).unwrap();
    sim.run_until(ms(50));
    let c = sim.drain_completions().pop().expect("terminated");
    assert_eq!(c.failure, Some("brownout"));
    assert_eq!(sim.metrics.counters.brownout_rejections, 1);
    sim.run_until(ms(200));
    sim.submit("front", "Read", 8).unwrap();
    sim.run_until(secs(1));
    assert!(sim.drain_completions().pop().unwrap().ok, "window ended");
}

#[test]
fn empty_fault_plan_is_stream_identical_to_no_plan() {
    let run = |faults: FaultPlan| {
        let spec = cache_db_spec();
        let mut sim = Sim::new(
            &spec,
            SimConfig {
                seed: 9,
                faults,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..40 {
            sim.submit("front", if i % 3 == 0 { "Write" } else { "Read" }, i % 7)
                .unwrap();
            sim.run_until(ms(2 * (i + 1)));
        }
        sim.run_until(secs(5));
        (sim.drain_completions(), sim.metrics.clone())
    };
    assert_eq!(run(FaultPlan::none()), run(FaultPlan::default()));
}

#[test]
fn fault_plans_are_deterministic_across_runs() {
    let run = || {
        let spec = cache_db_spec();
        let chaos = ChaosSpec {
            seed: 3,
            mean_gap_ns: ms(20),
            start_ns: 0,
            end_ns: secs(1),
            menu: vec![
                Fault::ProcessCrash {
                    process: "p_db".into(),
                    restart_delay_ns: ms(5),
                },
                Fault::Brownout {
                    backend: "cache".into(),
                    duration_ns: ms(10),
                    slow_factor: 4.0,
                    unavailable: false,
                },
            ],
        };
        let faults = FaultPlan::none()
            .at(
                ms(7),
                Fault::Partition {
                    a: "p0".into(),
                    b: "p_cache".into(),
                    duration_ns: ms(9),
                },
            )
            .with_chaos(chaos);
        let mut sim = Sim::new(
            &spec,
            SimConfig {
                seed: 4,
                faults,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..60 {
            sim.submit("front", if i % 4 == 0 { "Write" } else { "Read" }, i % 9)
                .unwrap();
            sim.run_until(ms(2 * (i + 1)));
        }
        sim.run_until(secs(5));
        (sim.drain_completions(), sim.metrics.clone())
    };
    let (ca, ma) = run();
    let (cb, mb) = run();
    assert_eq!(ca, cb);
    assert_eq!(ma, mb);
    assert!(ma.counters.faults_injected > 1, "chaos actually fired");
    // Conservation: everything submitted terminated exactly once.
    assert_eq!(ca.len(), 60);
}

#[test]
fn driver_injected_fault_applies_immediately() {
    let spec = two_tier(
        Behavior::build().compute(ms(10), 0).done(),
        ClientSpec::local(),
    );
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.submit("front", "M", 1).unwrap();
    sim.run_until(ms(1));
    sim.inject_fault(&Fault::ProcessCrash {
        process: "p_back".into(),
        restart_delay_ns: ms(1),
    })
    .unwrap();
    sim.run_until(ms(2));
    let c = sim.drain_completions().pop().expect("terminated");
    assert_eq!(c.failure, Some("crash"));
    // Unknown names are rejected, not silently ignored.
    assert!(sim
        .inject_fault(&Fault::ProcessCrash {
            process: "nope".into(),
            restart_delay_ns: 0
        })
        .is_err());
}

// ---------------------------------------------------------------------------
// Breaker half-open semantics.
// ---------------------------------------------------------------------------

/// Drives `n` submissions one at a time, `gap` apart, starting at `t0`.
fn drive(sim: &mut Sim, n: u64, t0: SimTime, gap: SimTime) -> SimTime {
    let mut t = t0;
    sim.run_until(t);
    for i in 0..n {
        sim.submit("front", "M", i).unwrap();
        t += gap;
        sim.run_until(t);
    }
    t
}

fn breaker_client(probes: u32) -> ClientSpec {
    ClientSpec {
        breaker: Some(BreakerSpec {
            window: 4,
            failure_threshold: 0.5,
            open_ns: ms(100),
            half_open_probes: probes,
        }),
        timeout_ns: Some(ms(500)),
        ..ClientSpec::local()
    }
}

#[test]
fn half_open_admits_exactly_the_probe_budget() {
    // Fail calls via a crashed dependency, then let it recover: the probes
    // hit a slow but healthy server, so while they are in flight any further
    // call must be rejected by the half-open breaker.
    let spec = two_tier(
        Behavior::build().compute(ms(400), 0).done(),
        breaker_client(2),
    );
    let cfg = SimConfig {
        faults: FaultPlan::none().at(
            0,
            Fault::ProcessCrash {
                process: "p_back".into(),
                restart_delay_ns: ms(50),
            },
        ),
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    drive(&mut sim, 8, 0, ms(10));
    assert!(sim.metrics.counters.breaker_opens >= 1);
    sim.drain_completions();

    // Past open_ns the breaker is half-open: of 6 near-simultaneous calls,
    // only `half_open_probes` pass the breaker.
    let rejected_before = sim.metrics.counters.breaker_rejections;
    drive(&mut sim, 6, ms(280), 1);
    sim.run_until(secs(20));
    assert_eq!(
        sim.service_served("back"),
        Some(2),
        "exactly half_open_probes admitted"
    );
    assert_eq!(sim.metrics.counters.breaker_rejections - rejected_before, 4);
}

#[test]
fn half_open_single_failure_reopens() {
    let mut spec = two_tier(
        Behavior::build().compute(ms(400), 0).done(),
        breaker_client(1),
    );
    spec.services[1].max_concurrent = 0;
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    let t = drive(&mut sim, 8, 0, ms(10));
    let opens = sim.metrics.counters.breaker_opens;
    assert!(opens >= 1);
    // The probe (still overloaded) fails → re-opens.
    let t = drive(&mut sim, 1, t + ms(200), ms(10));
    sim.run_until(t + ms(50));
    assert_eq!(
        sim.metrics.counters.breaker_opens,
        opens + 1,
        "probe failure re-opened"
    );
    // And while re-opened, calls are rejected without reaching the server.
    let served = sim.service_served("back").unwrap();
    drive(&mut sim, 2, t + ms(60), ms(1));
    sim.run_until(secs(30));
    assert_eq!(sim.service_served("back").unwrap(), served);
}

#[test]
fn half_open_all_probes_succeeding_closes() {
    // The dependency crashes at t=0 and restarts at 50 ms: early calls fail
    // fast (opening the breaker), later probes hit a healthy server.
    let spec = two_tier(
        Behavior::build().compute(ms(1), 0).done(),
        breaker_client(3),
    );
    let cfg = SimConfig {
        faults: FaultPlan::none().at(
            0,
            Fault::ProcessCrash {
                process: "p_back".into(),
                restart_delay_ns: ms(50),
            },
        ),
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    let t = drive(&mut sim, 8, 0, ms(10));
    assert!(sim.metrics.counters.breaker_opens >= 1);
    // Sequential probes against the recovered server: all succeed → closed.
    let t = drive(&mut sim, 3, t + ms(200), ms(10));
    assert_eq!(sim.service_served("back"), Some(3));
    // Closed again: a burst of further calls all reach the server.
    drive(&mut sim, 5, t + ms(10), ms(5));
    sim.run_until(secs(30));
    assert_eq!(sim.service_served("back"), Some(8), "breaker closed");
}

// ---------------------------------------------------------------------------
// Exponential backoff.
// ---------------------------------------------------------------------------

#[test]
fn exponential_backoff_grows_and_caps_retry_delays() {
    // Server always times out; 3 retries with base-2 exponential backoff.
    let client = |exp: Option<ExpBackoff>| ClientSpec {
        timeout_ns: Some(ms(1)),
        retries: 3,
        backoff_ns: ms(4),
        backoff_exp: exp,
        ..ClientSpec::local()
    };
    let latency = |exp: Option<ExpBackoff>| {
        let spec = two_tier(Behavior::build().compute(secs(1), 0).done(), client(exp));
        let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
        sim.submit("front", "M", 1).unwrap();
        sim.run_until(secs(10));
        sim.drain_completions().pop().unwrap().latency_ns()
    };
    // Constant: 4 timeouts (1 ms each) + 3 × 4 ms backoff.
    assert_eq!(latency(None), ms(16));
    // Exponential ×2: waits 4, 8, 16 ms.
    let exp = ExpBackoff {
        base: 2.0,
        max_ns: secs(1),
        jitter: 0.0,
    };
    assert_eq!(latency(Some(exp)), ms(32));
    // Cap clamps the growing waits: 4, then 5, 5 instead of 8, 16.
    let capped = ExpBackoff {
        base: 2.0,
        max_ns: ms(5),
        jitter: 0.0,
    };
    assert_eq!(latency(Some(capped)), ms(18));
}

#[test]
fn backoff_jitter_is_deterministic_and_bounded() {
    let client = ClientSpec {
        timeout_ns: Some(ms(1)),
        retries: 2,
        backoff_ns: ms(4),
        backoff_exp: Some(ExpBackoff {
            base: 2.0,
            max_ns: secs(1),
            jitter: 0.5,
        }),
        ..ClientSpec::local()
    };
    let run = |seed: u64| {
        let spec = two_tier(Behavior::build().compute(secs(1), 0).done(), client.clone());
        let mut sim = Sim::new(
            &spec,
            SimConfig {
                seed,
                ..Default::default()
            },
        )
        .unwrap();
        sim.submit("front", "M", 1).unwrap();
        sim.run_until(secs(10));
        sim.drain_completions().pop().unwrap().latency_ns()
    };
    assert_eq!(run(5), run(5), "jitter draws come from the seeded RNG");
    // Jitter only shrinks waits: between 3 timeouts + half the full waits
    // and 3 timeouts + the full 4 + 8 ms.
    let l = run(5);
    assert!(l >= ms(3) + ms(6) && l <= ms(3) + ms(12), "{l}");
}

// ---------------------------------------------------------------------------
// Overload-protection scaffolding: deadlines, retry budgets, shedding.
// ---------------------------------------------------------------------------

#[test]
fn shed_rejections_classify_as_shed() {
    // An aggressive controller: any sojourn above 1 µs drives the shed
    // probability straight to its ceiling after the first completion.
    let mut spec = single_service(Behavior::build().compute(ms(10), 0).done());
    spec.services[0].shed = Some(ShedSpec {
        target_delay_ns: us(1),
        gain: 1.0,
        max_shed: 0.9,
        ewma_alpha: 1.0,
    });
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.submit("front", "M", 0).unwrap();
    sim.run_until(ms(20));
    for i in 0..40 {
        sim.submit("front", "M", i + 1).unwrap();
    }
    sim.run_until(secs(5));
    let done = sim.drain_completions();
    assert_eq!(done.len(), 41, "every submission terminates");
    let shed = done.iter().filter(|c| c.failure == Some("shed")).count() as u64;
    assert!(
        shed >= 20,
        "controller at p=0.9 sheds most arrivals: {shed}"
    );
    assert_eq!(sim.metrics.counters.shed_rejections, shed);
    assert_eq!(sim.metrics.counters.admission_rejections, 0);
}

#[test]
fn submillisecond_deadline_budget_fails_fast_and_is_not_retried() {
    // 200 µs of budget against 10 ms of server work: the client abandons
    // the call exactly at the deadline, classifies it as "deadline" (not
    // "timeout"), and never retries — the budget is gone.
    let client = ClientSpec {
        retries: 3,
        backoff_ns: ms(100),
        deadline: Some(DeadlineSpec {
            budget_ns: Some(us(200)),
            hop_margin_ns: 0,
        }),
        ..ClientSpec::local()
    };
    let spec = two_tier(Behavior::build().compute(ms(10), 0).done(), client);
    let (sim, c) = run_one(&spec, "M");
    assert!(!c.ok);
    assert_eq!(c.failure, Some("deadline"));
    assert_eq!(c.latency_ns(), us(200));
    assert_eq!(sim.metrics.counters.deadline_exceeded, 1);
    assert_eq!(sim.metrics.counters.timeouts, 0);
    assert_eq!(sim.metrics.counters.retries, 0);
}

#[test]
fn hop_margin_exhaustion_fails_fast_at_depth() {
    // front -> mid -> leaf with a 1 ms entry budget and a 600 µs hop margin
    // on each forwarding hop: the margins eat the budget before the leaf,
    // so the mid tier fails the call fast without the leaf doing any work.
    let mut spec = SystemSpec {
        name: "t3".into(),
        hosts: (0..3)
            .map(|i| HostSpec {
                name: format!("h{i}"),
                cores: 4.0,
            })
            .collect(),
        processes: (0..3)
            .map(|i| ProcessSpec {
                name: format!("p{i}"),
                host: i,
                gc: None,
            })
            .collect(),
        ..Default::default()
    };
    let hop = |margin: u64| ClientSpec {
        deadline: Some(DeadlineSpec {
            budget_ns: None,
            hop_margin_ns: margin,
        }),
        ..ClientSpec::local()
    };
    let mut leaf = ServiceSpec::new("leaf", 2);
    leaf.methods
        .insert("Work".into(), Behavior::build().compute(us(10), 0).done());
    let mut mid = ServiceSpec::new("mid", 1);
    mid.methods
        .insert("Work".into(), Behavior::build().call("leaf", "Work").done());
    mid.deps.insert(
        "leaf".into(),
        DepBinding::Service {
            target: 2,
            client: hop(us(600)),
        },
    );
    let mut front = ServiceSpec::new("front", 0);
    front
        .methods
        .insert("M".into(), Behavior::build().call("mid", "Work").done());
    front.deps.insert(
        "mid".into(),
        DepBinding::Service {
            target: 1,
            client: hop(us(600)),
        },
    );
    spec.services.push(front);
    spec.services.push(mid);
    spec.services.push(leaf);
    spec.entries.insert(
        "front".into(),
        EntrySpec {
            service: 0,
            client: ClientSpec {
                deadline: Some(DeadlineSpec {
                    budget_ns: Some(ms(1)),
                    hop_margin_ns: 0,
                }),
                ..ClientSpec::local()
            },
        },
    );
    let run = || {
        let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
        sim.submit("front", "M", 1).unwrap();
        sim.run_until(secs(1));
        let done = sim.drain_completions();
        let served = sim.service_served("leaf");
        let exceeded = sim.metrics.counters.deadline_exceeded;
        (done, served, exceeded)
    };
    let (done, leaf_served, exceeded) = run();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].failure, Some("deadline"));
    assert_eq!(
        leaf_served,
        Some(0),
        "the doomed call never reaches the leaf"
    );
    assert!(exceeded >= 1);
    // Margin exhaustion is pure arithmetic on the event clock: a second run
    // produces the identical completion stream.
    assert_eq!(run().0, done);
}

#[test]
fn budget_denied_retry_skips_backoff_and_breaker() {
    // Ordering under denial: budget check -> breaker -> backoff. With an
    // empty token bucket a denied retry must fail immediately — no 1 s
    // backoff sleep, no second pass through the open breaker.
    let client = ClientSpec {
        retries: 3,
        backoff_ns: secs(1),
        breaker: Some(BreakerSpec {
            window: 4,
            failure_threshold: 0.5,
            open_ns: secs(100),
            half_open_probes: 1,
        }),
        retry_budget: Some(RetryBudgetSpec {
            ratio: 0.0,
            cap: 0.0,
        }),
        ..ClientSpec::local()
    };
    let mut spec = two_tier(Behavior::build().compute(ms(1), 0).done(), client);
    spec.services[1].max_concurrent = 0; // Every admitted call overloads.
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    let end = drive(&mut sim, 9, 0, ms(10));
    sim.run_until(end + secs(1));
    let done = sim.drain_completions();
    assert_eq!(done.len(), 9);
    assert!(done.iter().all(|c| !c.ok));
    // The first failures trip the breaker at the server's admission limit;
    // every later request is rejected by the open breaker on its first
    // attempt.
    let overload = done
        .iter()
        .filter(|c| c.failure == Some("overload"))
        .count();
    let rejected = done
        .iter()
        .filter(|c| c.failure == Some("breaker_open"))
        .count();
    assert_eq!(overload + rejected, 9);
    assert!(overload >= 2 && rejected >= 5, "{overload} + {rejected}");
    // No retry ever fired: every one was denied by the empty budget...
    assert_eq!(sim.metrics.counters.retries, 0);
    assert_eq!(sim.metrics.counters.budget_denied, 9);
    // ...before reaching the breaker (exactly one rejection per post-open
    // request, none from denied retries)...
    assert_eq!(sim.metrics.counters.breaker_rejections, rejected as u64);
    // ...and before the backoff sleep (rejections resolve instantly).
    assert!(done.iter().all(|c| c.latency_ns() < ms(1)));
}

#[test]
fn retry_budget_accrues_with_real_traffic() {
    // ratio = 0.5: every second first-attempt banks enough for one retry.
    let client = ClientSpec {
        retries: 1,
        retry_budget: Some(RetryBudgetSpec {
            ratio: 0.5,
            cap: 10.0,
        }),
        ..ClientSpec::local()
    };
    let mut spec = two_tier(Behavior::build().compute(ms(1), 0).done(), client);
    spec.services[1].max_concurrent = 0;
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    let end = drive(&mut sim, 4, 0, ms(10));
    sim.run_until(end + secs(1));
    assert_eq!(sim.drain_completions().len(), 4);
    assert_eq!(sim.metrics.counters.retries, 2);
    assert_eq!(sim.metrics.counters.budget_denied, 2);
    // Both the entry hop and the front->back hop count as logical client
    // calls (4 requests × 2 hops).
    assert_eq!(sim.metrics.counters.client_calls, 8);
}

#[test]
fn shed_ewma_seeds_with_first_sample() {
    // Regression: the EWMA used to start at 0.0, so the first observations
    // were dragged toward an artificial cold value and the controller
    // under-shed exactly when overload began. The first sample must be
    // adopted verbatim, with smoothing only from the second on.
    let spec = ShedSpec {
        target_delay_ns: ms(50),
        gain: 0.1,
        max_shed: 0.95,
        ewma_alpha: 0.2,
    };
    let mut ctl = ShedCtl::new(spec);
    ctl.observe(ms(100));
    assert_eq!(
        ctl.ewma_ns,
        ms(100) as f64,
        "first sample seeds the EWMA verbatim (no decay from 0)"
    );
    let after_first = ctl.ewma_ns;
    ctl.observe(ms(200));
    assert_eq!(
        ctl.ewma_ns,
        0.8 * after_first + 0.2 * ms(200) as f64,
        "second sample smooths normally"
    );
    // A crash reset clears the controller back to the unprimed state: the
    // first post-restart sample seeds again instead of decaying up from 0.
    ctl.reset();
    assert_eq!(ctl.p, 0.0);
    ctl.observe(ms(70));
    assert_eq!(ctl.ewma_ns, ms(70) as f64, "post-reset sample re-seeds");
}

#[test]
fn shed_controller_reacts_immediately_under_cold_start() {
    // End-to-end view of the same bias: with the gain driven by
    // `(ewma - target) / target`, a first sojourn of 100 ms against a 50 ms
    // target must raise the shed probability on the very first completion.
    let mut ctl = ShedCtl::new(ShedSpec {
        target_delay_ns: ms(50),
        gain: 0.1,
        max_shed: 0.95,
        ewma_alpha: 0.2,
    });
    ctl.observe(ms(100));
    assert!(
        ctl.p > 0.09,
        "first over-target sample raises p immediately, got {}",
        ctl.p
    );
}

#[test]
fn max_frames_above_index_cap_rejected() {
    let spec = single_service(Behavior::build().compute(1000, 0).done());
    let err = match Sim::new(
        &spec,
        SimConfig {
            max_frames: u32::MAX as usize + 1,
            ..Default::default()
        },
    ) {
        Err(e) => e,
        Ok(_) => panic!("oversized max_frames must be rejected"),
    };
    assert!(
        matches!(err, SimError::BadSpec(ref m) if m.contains("max_frames")),
        "oversized max_frames fails loudly: {err}"
    );
}

#[test]
fn brownout_sub_one_slow_factor_rejected_at_injection() {
    let spec = cache_db_spec();
    for sf in [0.5, 0.0, -2.0, f64::NAN, f64::INFINITY] {
        let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
        assert!(
            sim.inject_fault(&Fault::Brownout {
                backend: "cache".into(),
                duration_ns: ms(10),
                slow_factor: sf,
                unavailable: false,
            })
            .is_err(),
            "slow_factor {sf} should be rejected at injection"
        );
    }
    // Exactly 1.0 (no slowdown, e.g. pure-unavailability brownout) is legal.
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.inject_fault(&Fault::Brownout {
        backend: "cache".into(),
        duration_ns: ms(10),
        slow_factor: 1.0,
        unavailable: true,
    })
    .unwrap();
}

/// FNV-1a over each completion's `Debug` rendering (the scheme
/// `examples/stream_checksum` uses), so a pin covers every field.
fn completions_checksum(done: &[Completion]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in done {
        for &b in format!("{c:?}").as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A storm of identical-timestamp submissions: every entry frame, fan-out
/// child, and backend op schedules events at heavily tied times, so the
/// completion order is decided purely by the `(time, seq)` tie-break. The
/// full completion vector is pinned to its checksum from before the event
/// loop became a single wheel, so any change to key packing or tie order
/// shows up here.
/// [`completions_checksum`] of the tied storm below, recorded with the
/// sharded event loop the single wheel replaced.
const TIED_STORM_CHECKSUM: u64 = 0xf1c0_7d36_5443_ae29;

#[test]
fn tied_event_storm_completion_order_is_pinned() {
    let spec = cache_db_spec();
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    // All 200 submissions land at t=0 with zero think time between them —
    // maximal (time, seq) ties across the hosts.
    for i in 0..200u64 {
        let m = if i % 3 == 0 { "Write" } else { "Read" };
        sim.submit("front", m, i % 7).unwrap();
    }
    sim.run_until(secs(30));
    let done = sim.drain_completions();
    assert_eq!(done.len(), 200, "every submission terminates");
    assert_eq!(completions_checksum(&done), TIED_STORM_CHECKSUM);
}

/// A zero-latency cross-host link (gRPC with `net_ns: 0`) delivers in the
/// same instant it sends: every request still terminates, with no livelock
/// on the tied keys.
#[test]
fn zero_latency_cross_host_link_terminates() {
    let client = ClientSpec::over(TransportSpec::Grpc {
        serialize_ns: 5_000,
        net_ns: 0,
    });
    let spec = two_tier(Behavior::build().compute(us(50), 0).done(), client);
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    for i in 0..50 {
        sim.submit("front", "M", i).unwrap();
    }
    sim.run_until(secs(10));
    let done = sim.drain_completions();
    assert_eq!(done.len(), 50, "every request terminates");
    assert!(done.iter().all(|c| c.ok));
}

// ---------------------------------------------------------------------------
// Per-entity RNG streams.
// ---------------------------------------------------------------------------

/// Stream independence: an entity's draw sequence is a pure function of
/// `(root_seed, domain, id)` — interleaving draws by *other* entities in any
/// order, or adding entities, cannot perturb it. This is the property that
/// keeps draws stable when unrelated entities or events are added.
#[test]
fn entity_stream_is_independent_of_interleaving() {
    let draws_for_target = |schedule: &[u64]| -> Vec<u64> {
        let mut rngs: Vec<SmallRng> = (0..10)
            .map(|id| SmallRng::seed_from_u64(derive_seed(42, DOMAIN_PROC, id)))
            .collect();
        let mut target = Vec::new();
        for &id in schedule {
            let v = rngs[id as usize].gen::<u64>();
            if id == 3 {
                target.push(v);
            }
        }
        target
    };
    // Both schedules give entity 3 five draws, with other entities' draws
    // permuted arbitrarily around them.
    let a = draws_for_target(&[3, 0, 1, 3, 2, 4, 3, 5, 6, 3, 7, 8, 9, 3]);
    let b = draws_for_target(&[0, 9, 8, 7, 6, 5, 4, 2, 1, 3, 3, 3, 3, 3]);
    assert_eq!(a.len(), 5);
    assert_eq!(a, b, "other entities' draws leaked into entity 3's stream");
}

/// `derive_seed` sanity: no collisions across 30k (domain, id) pairs, root
/// sensitivity, and a roughly unbiased bit distribution.
#[test]
fn derive_seed_collision_free_and_well_mixed() {
    let mut seen = std::collections::HashSet::new();
    for domain in [DOMAIN_PROC, DOMAIN_CLIENT, DOMAIN_BACKEND] {
        for id in 0..10_000u64 {
            assert!(
                seen.insert(derive_seed(0xDEAD_BEEF, domain, id)),
                "collision at domain={domain} id={id}"
            );
        }
    }
    // Different roots must relocate every stream.
    for id in 0..100u64 {
        assert_ne!(
            derive_seed(1, DOMAIN_PROC, id),
            derive_seed(2, DOMAIN_PROC, id)
        );
    }
    // Mean set-bit count over 10k seeds should hover near 32/64.
    let ones: u64 = (0..10_000u64)
        .map(|id| u64::from(derive_seed(7, DOMAIN_CLIENT, id).count_ones()))
        .sum();
    let avg = ones as f64 / 10_000.0;
    assert!(
        (avg - 32.0).abs() < 0.5,
        "seed bits look biased: mean popcount {avg}"
    );
}

// ----------------------------------------------------------------------
// Runtime reconfiguration: rolling deploys, scaling, autoscaler, canary.
// ----------------------------------------------------------------------

/// front --LB--> {back, back_r1, back_r2}, each replica in its own process
/// (the Replicate-transform naming convention, so `service_group` resolves
/// the base name to the whole group).
fn replicated_app(policy: LbPolicy, client: ClientSpec, work: SimTime) -> SystemSpec {
    let mut spec = SystemSpec {
        name: "reconf".into(),
        hosts: vec![HostSpec {
            name: "h0".into(),
            cores: 8.0,
        }],
        processes: vec![ProcessSpec {
            name: "p_front".into(),
            host: 0,
            gc: None,
        }],
        ..Default::default()
    };
    for (i, name) in ["back", "back_r1", "back_r2"].iter().enumerate() {
        spec.processes.push(ProcessSpec {
            name: format!("p_{name}"),
            host: 0,
            gc: None,
        });
        let mut r = ServiceSpec::new(*name, i + 1);
        r.methods
            .insert("Work".into(), Behavior::build().compute(work, 0).done());
        spec.services.push(r);
    }
    let mut front = ServiceSpec::new("front", 0);
    front
        .methods
        .insert("M".into(), Behavior::build().call("backend", "Work").done());
    front.deps.insert(
        "backend".into(),
        DepBinding::ReplicatedService {
            targets: vec![0, 1, 2],
            policy,
            client,
        },
    );
    spec.services.push(front);
    spec.entries.insert(
        "front".into(),
        EntrySpec {
            service: 3,
            client: ClientSpec::local(),
        },
    );
    spec
}

/// Satellite: a process restarting while a partition is still active must
/// come back *unreachable* — restart clears `proc_down`, not link faults.
#[test]
fn restart_during_active_partition_stays_unreachable() {
    let spec = two_tier(
        Behavior::build().compute(us(10), 0).done(),
        ClientSpec::local(),
    );
    let cfg = SimConfig {
        faults: FaultPlan::none()
            .at(
                ms(1),
                Fault::ProcessCrash {
                    process: "p_back".into(),
                    restart_delay_ns: ms(1),
                },
            )
            .at(
                ms(1),
                Fault::Partition {
                    a: "p_front".into(),
                    b: "p_back".into(),
                    duration_ns: ms(5),
                },
            ),
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    // The crash restarts at ms(2), well inside the partition window
    // [ms(1), ms(6)).
    sim.run_until(ms(2) + us(100));
    sim.submit("front", "M", 1).unwrap();
    sim.run_until(ms(4));
    let c = sim.drain_completions().pop().expect("terminated");
    assert_eq!(
        c.failure,
        Some("unreachable"),
        "restarted process must stay unreachable while the partition holds"
    );
    // Once the partition expires, the restarted process serves again.
    sim.run_until(ms(6) + us(1));
    sim.submit("front", "M", 2).unwrap();
    sim.run_until(secs(1));
    assert!(sim.drain_completions().pop().unwrap().ok);
}

/// Drain semantics on the direct-call path: in-flight work admitted before
/// the drain completes normally; arrivals during the drain fail with the
/// stable `"drain"` class; the replica serves again after its restart.
#[test]
fn rolling_drain_lets_in_flight_complete_and_classifies_rejections() {
    let spec = two_tier(
        Behavior::build().compute(ms(10), 0).done(),
        ClientSpec::local(),
    );
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.submit("front", "M", 1).unwrap();
    sim.run_until(ms(1));
    // Drain starts at ms(1) with a ms(20) budget: the ms(10) in-flight
    // request fits inside the window.
    sim.apply_change(&Change::RollingRestart {
        service: "back".into(),
        drain_ns: ms(20),
        restart_ns: ms(2),
        drainless: false,
    })
    .unwrap();
    // An arrival during the drain is rejected with the stable class.
    sim.submit("front", "M", 2).unwrap();
    sim.run_until(ms(5));
    let mut done = sim.drain_completions();
    done.sort_by_key(|c| c.finished_ns);
    assert_eq!(done.len(), 1, "rejected arrival terminated fast");
    assert_eq!(done[0].failure, Some("drain"));
    assert_eq!(sim.metrics.counters.drain_rejections, 1);
    // The in-flight request completes fine despite the drain.
    sim.run_until(ms(15));
    let c = sim.drain_completions().pop().expect("in-flight finished");
    assert!(c.ok, "in-flight work admitted before the drain completes");
    assert_eq!(
        sim.metrics.counters.process_crashes, 0,
        "a drained rolling restart is not a crash"
    );
    // After drain deadline (ms 21) + restart (ms 2) the replica serves.
    sim.run_until(ms(24));
    sim.submit("front", "M", 3).unwrap();
    sim.run_until(secs(1));
    assert!(sim.drain_completions().pop().unwrap().ok, "replica back");
}

/// A straggler that outlives the drain window is killed with `"drain"` —
/// terminated exactly once, never silently dropped.
#[test]
fn drain_deadline_fails_stragglers_with_drain_class() {
    let spec = two_tier(
        Behavior::build().compute(ms(50), 0).done(),
        ClientSpec::local(),
    );
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.submit("front", "M", 1).unwrap();
    sim.run_until(ms(1));
    sim.apply_change(&Change::RollingRestart {
        service: "back".into(),
        drain_ns: ms(5),
        restart_ns: ms(1),
        drainless: false,
    })
    .unwrap();
    sim.run_until(ms(10));
    let c = sim.drain_completions().pop().expect("straggler terminated");
    assert!(!c.ok);
    assert_eq!(
        c.failure,
        Some("drain"),
        "straggler classified, not dropped"
    );
}

/// A drained rolling deploy across a replica group: zero crash-class
/// errors, every replica restarted exactly once, traffic conserved.
#[test]
fn rolling_deploy_over_group_avoids_crash_errors() {
    let client = ClientSpec {
        retries: 2,
        ..ClientSpec::local()
    };
    let spec = replicated_app(LbPolicy::RoundRobin, client, us(50));
    let cfg = SimConfig {
        reconfig: ReconfigPlan::none().at(
            ms(2),
            Change::RollingRestart {
                service: "back".into(),
                drain_ns: ms(3),
                restart_ns: ms(1),
                drainless: false,
            },
        ),
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    for i in 0..100 {
        sim.submit("front", "M", i).unwrap();
        sim.run_until(us(200) * (i + 1));
    }
    sim.run_until(secs(1));
    let done = sim.drain_completions();
    assert_eq!(done.len(), 100, "conservation through the deploy");
    let crashes = done.iter().filter(|c| c.failure == Some("crash")).count();
    assert_eq!(crashes, 0, "drained deploy never surfaces crash errors");
    // With LB failover + retries the deploy should be invisible.
    assert!(
        done.iter().all(|c| c.ok),
        "failover absorbs the drained deploy"
    );
    assert_eq!(sim.metrics.counters.process_crashes, 0);
    assert_eq!(sim.metrics.counters.reconfig_changes, 1);
}

/// The drainless arm of the same deploy DOES surface crash errors — the
/// hazard draining (and lint BP012) exists to prevent.
#[test]
fn drainless_deploy_surfaces_crash_errors() {
    let spec = replicated_app(LbPolicy::RoundRobin, ClientSpec::local(), us(50));
    let cfg = SimConfig {
        reconfig: ReconfigPlan::none().at(
            ms(2),
            Change::RollingRestart {
                service: "back".into(),
                drain_ns: 0,
                restart_ns: ms(1),
                drainless: true,
            },
        ),
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    for i in 0..100 {
        sim.submit("front", "M", i).unwrap();
        sim.run_until(us(100) * (i + 1));
    }
    sim.run_until(secs(1));
    let done = sim.drain_completions();
    assert_eq!(done.len(), 100, "conservation even without draining");
    assert_eq!(
        sim.metrics.counters.process_crashes, 3,
        "every replica restarted in place"
    );
    assert!(
        done.iter().any(|c| c.failure == Some("crash")),
        "drainless restarts kill in-flight work"
    );
}

/// Scale-in drains the highest replicas out of rotation; scale-out brings
/// them back cold. The LB rewires live in both directions.
#[test]
fn scale_in_and_out_rewires_the_balancer() {
    let spec = replicated_app(LbPolicy::RoundRobin, ClientSpec::local(), us(10));
    let cfg = SimConfig {
        reconfig: ReconfigPlan::none()
            .at(
                ms(1),
                Change::Scale {
                    service: "back".into(),
                    replicas: 1,
                    drain_ns: us(100),
                },
            )
            .at(
                ms(30),
                Change::Scale {
                    service: "back".into(),
                    replicas: 3,
                    drain_ns: us(100),
                },
            ),
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    // Phase 1: scaled down to the base replica only.
    for i in 0..20 {
        sim.submit("front", "M", i).unwrap();
        sim.run_until(ms(2) + us(500) * (i + 1));
    }
    let base_only = sim.service_served("back").unwrap();
    let r1_phase1 = sim.service_served("back_r1").unwrap();
    let r2_phase1 = sim.service_served("back_r2").unwrap();
    // Phase 2: scaled back out to all three.
    sim.run_until(ms(31));
    for i in 0..30 {
        sim.submit("front", "M", 100 + i).unwrap();
        sim.run_until(ms(31) + us(500) * (i + 1));
    }
    sim.run_until(secs(1));
    assert!(
        sim.service_served("back").unwrap() > base_only,
        "base kept serving"
    );
    assert!(
        sim.service_served("back_r1").unwrap() > r1_phase1
            && sim.service_served("back_r2").unwrap() > r2_phase1,
        "scale-out put the siblings back into rotation"
    );
    let done = sim.drain_completions();
    assert_eq!(done.len(), 50, "conserved across both scale actions");
    assert!(
        done.iter().all(|c| c.ok),
        "rewiring is invisible to callers"
    );
}

/// The deterministic autoscaler rides a load ramp up and back down, on its
/// own RNG domain, without losing a single request.
#[test]
fn autoscaler_scales_out_under_load_and_back_down() {
    let mut spec = replicated_app(LbPolicy::RoundRobin, ClientSpec::local(), ms(2));
    for i in 0..3 {
        spec.services[i].max_concurrent = 4;
    }
    let cfg = SimConfig {
        reconfig: ReconfigPlan::none()
            .at(
                us(1),
                Change::Scale {
                    service: "back".into(),
                    replicas: 1,
                    drain_ns: 0,
                },
            )
            .with_autoscaler(AutoscalerSpec {
                service: "back".into(),
                min_replicas: 1,
                max_replicas: 3,
                high_util: 0.6,
                low_util: 0.1,
                ewma_alpha: 0.5,
                interval_ns: ms(2),
                cooldown_ns: ms(4),
                start_ns: ms(1),
                end_ns: secs(2),
                drain_ns: ms(1),
            }),
        ..Default::default()
    };
    let mut sim = Sim::new(&spec, cfg).unwrap();
    // Flash crowd: 150 requests in 60 ms against one replica with 4 slots.
    for i in 0..150 {
        sim.submit("front", "M", i).unwrap();
        sim.run_until(ms(5) + us(400) * (i + 1));
    }
    // Quiet period: the EWMA decays below the low watermark.
    sim.run_until(secs(1));
    let c = &sim.metrics.counters;
    assert!(c.autoscale_ups >= 1, "scaled out under the flash crowd");
    assert!(c.autoscale_downs >= 1, "scaled back in when load subsided");
    let done = sim.drain_completions();
    assert_eq!(done.len(), 150, "conserved through every scale action");
}

/// front --LB--> {mid, mid_r1} --client--> db. Canary overrides apply to
/// the canary replica's *outbound* client, so a hostile timeout makes the
/// canary fail where the baseline succeeds.
fn canary_app(timeout_override: Option<SimTime>) -> (SystemSpec, SimConfig) {
    let mut spec = SystemSpec {
        name: "canary".into(),
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
                name: "p_mid".into(),
                host: 0,
                gc: None,
            },
            ProcessSpec {
                name: "p_mid_r1".into(),
                host: 0,
                gc: None,
            },
            ProcessSpec {
                name: "p_db".into(),
                host: 0,
                gc: None,
            },
        ],
        ..Default::default()
    };
    let mut db = ServiceSpec::new("db", 3);
    db.methods
        .insert("Get".into(), Behavior::build().compute(us(20), 0).done());
    spec.services.push(db); // 0
    for (i, name) in ["mid", "mid_r1"].iter().enumerate() {
        let mut m = ServiceSpec::new(*name, i + 1);
        m.methods
            .insert("Work".into(), Behavior::build().call("db", "Get").done());
        m.deps.insert(
            "db".into(),
            DepBinding::Service {
                target: 0,
                client: ClientSpec::local(),
            },
        );
        spec.services.push(m); // 1, 2
    }
    let mut front = ServiceSpec::new("front", 0);
    front
        .methods
        .insert("M".into(), Behavior::build().call("backend", "Work").done());
    front.deps.insert(
        "backend".into(),
        DepBinding::ReplicatedService {
            targets: vec![1, 2],
            policy: LbPolicy::RoundRobin,
            client: ClientSpec::local(),
        },
    );
    spec.services.push(front); // 3
    spec.entries.insert(
        "front".into(),
        EntrySpec {
            service: 3,
            client: ClientSpec::local(),
        },
    );
    let cfg = SimConfig {
        reconfig: ReconfigPlan::none().at(
            ms(1),
            Change::Canary {
                service: "mid".into(),
                fraction: 0.4,
                evaluate_ns: ms(40),
                timeout_ns: timeout_override,
                retries: None,
            },
        ),
        ..Default::default()
    };
    (spec, cfg)
}

#[test]
fn canary_with_bad_wiring_rolls_back() {
    // A 1 ns timeout on the canary's db client makes every canary-routed
    // request fail; the seeded comparison must roll the canary back.
    let (spec, cfg) = canary_app(Some(1));
    let mut sim = Sim::new(&spec, cfg).unwrap();
    for i in 0..100 {
        sim.submit("front", "M", i).unwrap();
        sim.run_until(us(300) * (i + 1));
    }
    sim.run_until(ms(50));
    let mid_window = sim.metrics.counters.canary_rollbacks;
    assert_eq!(mid_window, 1, "hostile canary rolled back");
    assert_eq!(sim.metrics.counters.canary_promotions, 0);
    let during = sim.drain_completions();
    assert!(
        during.iter().any(|c| !c.ok),
        "the hostile canary visibly failed requests pre-rollback"
    );
    // Post-rollback traffic through the ex-canary succeeds again.
    for i in 0..40 {
        sim.submit("front", "M", 1000 + i).unwrap();
        sim.run_until(ms(50) + us(300) * (i + 1));
    }
    sim.run_until(secs(1));
    let after = sim.drain_completions();
    assert!(!after.is_empty());
    assert!(
        after.iter().all(|c| c.ok),
        "rollback restored the saved wiring"
    );
}

#[test]
fn canary_with_equivalent_wiring_promotes() {
    // A generous timeout changes nothing observable: equal error rates,
    // so the canary promotes group-wide.
    let (spec, cfg) = canary_app(Some(secs(1)));
    let mut sim = Sim::new(&spec, cfg).unwrap();
    for i in 0..100 {
        sim.submit("front", "M", i).unwrap();
        sim.run_until(us(300) * (i + 1));
    }
    sim.run_until(secs(1));
    assert_eq!(sim.metrics.counters.canary_promotions, 1);
    assert_eq!(sim.metrics.counters.canary_rollbacks, 0);
    assert!(
        sim.service_served("mid_r1").unwrap() > 0,
        "canary actually took traffic"
    );
    assert!(sim.drain_completions().iter().all(|c| c.ok));
}

/// Unknown targets and sub-1 scaling are rejected by the live path too,
/// with nearest-match suggestions (same contract as plan validation).
#[test]
fn apply_change_rejects_bad_targets_with_suggestions() {
    let spec = replicated_app(LbPolicy::RoundRobin, ClientSpec::local(), us(10));
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    let err = sim
        .apply_change(&Change::RollingRestart {
            service: "bak".into(),
            drain_ns: ms(1),
            restart_ns: ms(1),
            drainless: false,
        })
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("did you mean `back`?"), "got: {msg}");
    let err = sim
        .apply_change(&Change::Scale {
            service: "back".into(),
            replicas: 0,
            drain_ns: 0,
        })
        .unwrap_err();
    assert!(err.to_string().contains("below 1 replica"), "got: {err}");
}

/// An armed-but-idle plan (its only change fires after the horizon) must
/// not perturb the stream: the gated LB pick is draw-for-draw identical
/// while every replica is in rotation.
#[test]
fn armed_reconfig_plan_is_stream_identical_until_it_acts() {
    let run = |reconfig: ReconfigPlan| {
        let spec = replicated_app(LbPolicy::Random, ClientSpec::local(), us(30));
        let mut sim = Sim::new(
            &spec,
            SimConfig {
                seed: 11,
                reconfig,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..60 {
            sim.submit("front", "M", i % 7).unwrap();
            sim.run_until(us(200) * (i + 1));
        }
        sim.run_until(secs(5));
        (sim.drain_completions(), sim.metrics.counters.clone())
    };
    let (quiet_c, mut quiet_m) = run(ReconfigPlan::none().at(
        secs(60),
        Change::RollingRestart {
            service: "back".into(),
            drain_ns: ms(1),
            restart_ns: ms(1),
            drainless: false,
        },
    ));
    let (none_c, none_m) = run(ReconfigPlan::none());
    assert_eq!(quiet_c, none_c, "armed plan left the stream untouched");
    quiet_m.reconfig_changes = none_m.reconfig_changes;
    assert_eq!(quiet_m, none_m);
}

/// Same plan, same seed => byte-identical completions and metrics.
#[test]
fn reconfig_plans_are_deterministic_across_runs() {
    let run = || {
        let mut spec = replicated_app(LbPolicy::LeastOutstanding, ClientSpec::local(), ms(1));
        for i in 0..3 {
            spec.services[i].max_concurrent = 8;
        }
        let cfg = SimConfig {
            seed: 21,
            reconfig: ReconfigPlan::none()
                .at(
                    ms(3),
                    Change::RollingRestart {
                        service: "back".into(),
                        drain_ns: ms(2),
                        restart_ns: ms(1),
                        drainless: false,
                    },
                )
                .with_autoscaler(AutoscalerSpec {
                    service: "back".into(),
                    min_replicas: 1,
                    max_replicas: 3,
                    high_util: 0.5,
                    low_util: 0.05,
                    ewma_alpha: 0.4,
                    interval_ns: ms(2),
                    cooldown_ns: ms(4),
                    start_ns: ms(1),
                    end_ns: secs(1),
                    drain_ns: ms(1),
                }),
            ..Default::default()
        };
        let mut sim = Sim::new(&spec, cfg).unwrap();
        for i in 0..80 {
            sim.submit("front", "M", i % 13).unwrap();
            sim.run_until(us(500) * (i + 1));
        }
        sim.run_until(secs(2));
        (sim.drain_completions(), sim.metrics.clone())
    };
    let (ca, ma) = run();
    let (cb, mb) = run();
    assert_eq!(ca, cb);
    assert_eq!(ma, mb);
    assert_eq!(ca.len(), 80, "conserved");
}

// ---------------------------------------------------------------------------
// Replicated-store failover and consistency modes.
// ---------------------------------------------------------------------------

use crate::spec::{ConsistencyMode, FailoverSpec};

/// `cache_db_spec` with the store replicated across two extra processes on
/// the db host, armed for failover, and a cache-bypassing read method.
fn failover_db_spec(consistency: ConsistencyMode) -> SystemSpec {
    let mut spec = cache_db_spec();
    spec.processes.push(ProcessSpec {
        name: "p_r1".into(),
        host: 1,
        gc: None,
    });
    spec.processes.push(ProcessSpec {
        name: "p_r2".into(),
        host: 1,
        gc: None,
    });
    spec.backends[1].kind = BackendRtKind::Store {
        read_latency_ns: us(100),
        write_latency_ns: us(100),
        cpu_per_op_ns: us(1),
        cpu_per_item_ns: 0,
        replicas: 2,
        replication_lag_ns: (ms(100), ms(100)),
        consistency,
        failover: Some(FailoverSpec {
            replica_processes: vec![3, 4],
            detection_ns: ms(5),
            election_ns: ms(5),
        }),
    };
    spec.services[0].methods.insert(
        "ReadDb".into(),
        Behavior::build().db_read("d", KeyExpr::Entity).done(),
    );
    spec
}

#[test]
fn primary_crash_fails_over_and_surfaces_lost_writes() {
    let spec = failover_db_spec(ConsistencyMode::ReadReplica);
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    let wv = sim.submit("front", "Write", 7).unwrap();
    sim.run_until(ms(10));
    assert_eq!(sim.store_primary_version("db", 7).unwrap(), wv);
    assert_eq!(sim.store_serving_process("db").unwrap(), "p_db");
    // Crash the primary before the 100 ms replication lag elapses: the
    // acked write exists nowhere but on the dead primary.
    sim.inject_fault(&Fault::ProcessCrash {
        process: "p_db".into(),
        restart_delay_ns: ms(500),
    })
    .unwrap();
    // Detection (5 ms) + election (5 ms) later a replica has promoted.
    sim.run_until(ms(50));
    assert_eq!(sim.store_serving_process("db").unwrap(), "p_r1");
    assert_eq!(sim.store_generation("db").unwrap(), 1);
    assert_eq!(sim.metrics.counters.store_failovers, 1);
    let stats = sim.metrics.backend("db").unwrap();
    assert_eq!(stats.failovers, 1);
    assert_eq!(stats.lost_writes, 1, "the un-replicated write is lost");
    // The new primary never saw the write.
    assert_eq!(sim.store_primary_version("db", 7).unwrap(), 0);
    // Writes land on the new primary.
    let wv2 = sim.submit("front", "Write", 7).unwrap();
    sim.run_until(ms(90));
    assert_eq!(sim.store_primary_version("db", 7).unwrap(), wv2);
    // The old primary's in-flight gen-0 replica applies were dropped: the
    // peers never see `wv`, only `wv2` (from the new primary, post-lag).
    sim.run_until(ms(600));
    assert_eq!(
        sim.store_replica_versions("db", 7).unwrap(),
        vec![wv2, wv2],
        "restarted old primary resynced from the new primary"
    );
    assert!(sim.drain_completions().iter().all(|c| c.ok));
}

#[test]
fn primary_recovery_within_election_window_cancels_failover() {
    let spec = failover_db_spec(ConsistencyMode::ReadReplica);
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.submit("front", "Write", 7).unwrap();
    sim.run_until(ms(10));
    // Restart (3 ms) beats detection + election (10 ms): the election
    // fires, re-checks the trigger, and stands down.
    sim.inject_fault(&Fault::ProcessCrash {
        process: "p_db".into(),
        restart_delay_ns: ms(3),
    })
    .unwrap();
    sim.run_until(ms(100));
    assert_eq!(sim.store_serving_process("db").unwrap(), "p_db");
    assert_eq!(sim.store_generation("db").unwrap(), 0);
    assert_eq!(sim.metrics.counters.store_failovers, 0);
}

#[test]
fn double_failover_promotes_next_replica_then_restarted_primary() {
    let spec = failover_db_spec(ConsistencyMode::ReadReplica);
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.run_until(ms(1));
    sim.inject_fault(&Fault::ProcessCrash {
        process: "p_db".into(),
        restart_delay_ns: ms(40),
    })
    .unwrap();
    sim.run_until(ms(20));
    assert_eq!(sim.store_serving_process("db").unwrap(), "p_r1");
    // Crash the *new* primary too (before p_db is back): the election
    // for generation 1 promotes the remaining replica.
    sim.inject_fault(&Fault::ProcessCrash {
        process: "p_r1".into(),
        restart_delay_ns: ms(500),
    })
    .unwrap();
    sim.run_until(ms(39));
    assert_eq!(sim.store_serving_process("db").unwrap(), "p_r2");
    assert_eq!(sim.store_generation("db").unwrap(), 2);
    // And once p_db has restarted and resynced, a third crash hands the
    // store back to it.
    sim.run_until(ms(60));
    sim.inject_fault(&Fault::ProcessCrash {
        process: "p_r2".into(),
        restart_delay_ns: ms(500),
    })
    .unwrap();
    sim.run_until(ms(80));
    assert_eq!(sim.store_serving_process("db").unwrap(), "p_db");
    assert_eq!(sim.store_generation("db").unwrap(), 3);
    assert_eq!(sim.metrics.counters.store_failovers, 3);
}

#[test]
fn full_partition_of_primary_triggers_failover() {
    let spec = failover_db_spec(ConsistencyMode::ReadReplica);
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.run_until(ms(1));
    // Cut the primary off from *both* replica processes (it stays up).
    for peer in ["p_r1", "p_r2"] {
        sim.inject_fault(&Fault::Partition {
            a: "p_db".into(),
            b: peer.into(),
            duration_ns: secs(1),
        })
        .unwrap();
    }
    sim.run_until(ms(20));
    assert_eq!(sim.store_serving_process("db").unwrap(), "p_r1");
    assert_eq!(sim.metrics.counters.store_failovers, 1);
    // Writes reach the new primary even while the old one is isolated.
    let wv = sim.submit("front", "Write", 3).unwrap();
    sim.run_until(ms(60));
    assert_eq!(sim.store_primary_version("db", 3).unwrap(), wv);
}

#[test]
fn partial_partition_defers_replication_until_heal() {
    let spec = failover_db_spec(ConsistencyMode::ReadReplica);
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.run_until(ms(1));
    // Cut only one replica: one reachable peer remains, so no election.
    sim.inject_fault(&Fault::Partition {
        a: "p_db".into(),
        b: "p_r1".into(),
        duration_ns: ms(300),
    })
    .unwrap();
    let wv = sim.submit("front", "Write", 7).unwrap();
    sim.run_until(ms(150));
    assert_eq!(sim.metrics.counters.store_failovers, 0);
    // Lag (100 ms) has elapsed: the reachable replica applied, the
    // partitioned one deferred its apply to the heal time.
    assert_eq!(sim.store_replica_versions("db", 7).unwrap(), vec![0, wv]);
    sim.run_until(ms(350));
    assert_eq!(
        sim.store_replica_versions("db", 7).unwrap(),
        vec![wv, wv],
        "healed replica caught up"
    );
}

#[test]
fn session_mode_redirects_reads_behind_the_floor() {
    let spec = failover_db_spec(ConsistencyMode::Session);
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    let wv = sim.submit("front", "Write", 7).unwrap();
    sim.run_until(ms(10));
    // Replicas are 100 ms behind, but the session floor for entity 7 is
    // `wv`: the read redirects to the primary instead of going stale.
    sim.submit("front", "ReadDb", 7).unwrap();
    sim.run_until(ms(50));
    let c = sim.drain_completions().pop().unwrap();
    assert!(c.ok);
    assert_eq!(c.observed_version, wv, "read-your-writes");
    let stats = sim.metrics.backend("db").unwrap();
    assert_eq!(stats.session_redirects, 1);
    assert_eq!(stats.stale_reads, 0);
    // A different entity has no floor and reads the lagging replica.
    sim.submit("front", "ReadDb", 8).unwrap();
    sim.run_until(ms(100));
    let c = sim.drain_completions().pop().unwrap();
    assert_eq!(c.observed_version, 0);
}

#[test]
fn quorum_write_waits_for_sync_member_and_reads_fresh() {
    let spec = failover_db_spec(ConsistencyMode::Quorum { w: 2, r: 2 });
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    let wv = sim.submit("front", "Write", 7).unwrap();
    sim.run_until(ms(50));
    // The ack waited out the sync member's 100 ms lag: not done yet.
    assert!(sim.drain_completions().is_empty());
    sim.run_until(ms(150));
    let c = sim.drain_completions().pop().expect("write acked");
    assert!(c.ok);
    assert!(c.latency_ns() >= ms(100), "paid the sync member's lag");
    // First peer applied synchronously; second is async (also 100 ms).
    assert_eq!(sim.store_replica_versions("db", 7).unwrap(), vec![wv, wv]);
    // A quorum read (primary + first peer) observes the write.
    sim.submit("front", "ReadDb", 7).unwrap();
    sim.run_until(ms(200));
    let c = sim.drain_completions().pop().unwrap();
    assert_eq!(c.observed_version, wv);
    assert_eq!(sim.metrics.backend("db").unwrap().stale_reads, 0);
}

#[test]
fn quorum_without_reachable_members_rejects() {
    let spec = failover_db_spec(ConsistencyMode::Quorum { w: 2, r: 2 });
    let mut sim = Sim::new(&spec, SimConfig::default()).unwrap();
    sim.run_until(ms(1));
    for peer in ["p_r1", "p_r2"] {
        sim.inject_fault(&Fault::ProcessCrash {
            process: peer.into(),
            restart_delay_ns: secs(1),
        })
        .unwrap();
    }
    sim.run_until(ms(20));
    // Both replicas down: w=2 is unsatisfiable, and the primary alone
    // cannot serve an r=2 read either.
    sim.submit("front", "Write", 7).unwrap();
    sim.submit("front", "ReadDb", 7).unwrap();
    sim.run_until(ms(100));
    let done = sim.drain_completions();
    assert_eq!(done.len(), 2);
    assert!(done.iter().all(|c| c.failure == Some("quorum")));
    assert!(sim.metrics.counters.quorum_rejections >= 2);
    assert_eq!(
        sim.store_primary_version("db", 7).unwrap(),
        0,
        "write not applied"
    );
}

/// Every queued event fits one cache line: `Ev::DeliverRequest` carries a
/// `u32` index into the message slab, not the message.
#[test]
fn queued_events_fit_64_bytes() {
    let size = std::mem::size_of::<evq::Entry<Ev>>();
    assert!(size <= 64, "evq::Entry<Ev> is {size} bytes");
}

//! System specs: the deployable description of a simulated cluster.
//!
//! A [`SystemSpec`] is what the Blueprint compiler produces when lowering an
//! application's IR for the simulation target — the moral equivalent of the
//! container images + compose file the real toolchain emits. Tests and
//! experiments may also build specs by hand.

use std::collections::BTreeMap;

use blueprint_workflow::Behavior;

use crate::time::SimTime;
use crate::{Result, SimError};

/// A simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Host name (unique).
    pub name: String,
    /// Number of cores (fractional allowed for cgroup-limited containers).
    pub cores: f64,
}

/// Garbage-collection model of a process (Go runtime flavored).
#[derive(Debug, Clone, PartialEq)]
pub struct GcSpec {
    /// GOGC percentage: a collection triggers when the heap grows by this
    /// percentage over the post-collection base (Go default: 100).
    pub gogc_percent: f64,
    /// Post-collection live heap, bytes.
    pub base_heap_bytes: u64,
    /// Stop-the-world pause cost: CPU-nanoseconds per MiB of heap at trigger
    /// time. The pause is executed as a host job, so CPU contention stretches
    /// it (the Type-2 metastability mechanism).
    pub pause_cpu_ns_per_mib: u64,
}

impl Default for GcSpec {
    fn default() -> Self {
        GcSpec {
            gogc_percent: 100.0,
            base_heap_bytes: 64 << 20,
            pause_cpu_ns_per_mib: 30_000,
        }
    }
}

/// A simulated OS process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessSpec {
    /// Process name (unique).
    pub name: String,
    /// Index into [`SystemSpec::hosts`].
    pub host: usize,
    /// Garbage collection model; `None` disables GC effects (e.g. C++
    /// baseline profiles in the Fig. 11 realism comparison).
    pub gc: Option<GcSpec>,
}

/// Transport used by one client binding.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportSpec {
    /// Same-process function call: no serialization, no network.
    Local,
    /// gRPC: HTTP/2 multiplexing on one connection — no pool limit.
    Grpc {
        /// Client+server serialization CPU per call, ns.
        serialize_ns: u64,
        /// One-way network latency, ns.
        net_ns: u64,
    },
    /// Thrift: a bounded pool of connections; requests queue for a free
    /// connection (the clientpool dimension of Fig. 5).
    Thrift {
        /// Pool size (connections).
        pool: u32,
        /// Client+server serialization CPU per call, ns.
        serialize_ns: u64,
        /// One-way network latency, ns.
        net_ns: u64,
        /// Cost of (re-)establishing a connection after a timeout abandons
        /// one, ns.
        reconnect_ns: u64,
    },
    /// Plain HTTP/1.1 with JSON-ish payloads (the Go `net/http` plugin).
    Http {
        /// Client+server serialization CPU per call, ns.
        serialize_ns: u64,
        /// One-way network latency, ns.
        net_ns: u64,
    },
}

impl TransportSpec {
    /// Default gRPC parameters used by the plugins.
    pub fn grpc_default() -> Self {
        TransportSpec::Grpc {
            serialize_ns: 12_000,
            net_ns: 50_000,
        }
    }

    /// Default Thrift parameters with the given pool size.
    pub fn thrift_default(pool: u32) -> Self {
        TransportSpec::Thrift {
            pool,
            serialize_ns: 15_000,
            net_ns: 50_000,
            reconnect_ns: 200_000,
        }
    }

    /// Default HTTP parameters.
    pub fn http_default() -> Self {
        TransportSpec::Http {
            serialize_ns: 25_000,
            net_ns: 60_000,
        }
    }
}

/// Circuit breaker configuration (paper §6.3 "Prototyping New Solutions").
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerSpec {
    /// Size of the sliding outcome window (calls).
    pub window: u32,
    /// Open the breaker when the windowed failure rate exceeds this.
    pub failure_threshold: f64,
    /// How long the breaker stays open before half-opening, ns.
    pub open_ns: SimTime,
    /// Probe calls allowed in half-open state; all must succeed to close.
    pub half_open_probes: u32,
}

impl Default for BreakerSpec {
    fn default() -> Self {
        BreakerSpec {
            window: 50,
            failure_threshold: 0.5,
            open_ns: crate::time::secs(5),
            half_open_probes: 3,
        }
    }
}

/// Exponential retry-backoff growth (optional extension of the fixed
/// `backoff_ns`).
///
/// Attempt `k` (0-based over retries) waits
/// `min(backoff_ns * base^k, max_ns)`, scaled by a jitter factor drawn
/// uniformly from `[1 - jitter, 1]` using the simulation's seeded RNG — so
/// jittered schedules stay fully reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpBackoff {
    /// Multiplicative growth per attempt (2.0 = classic doubling).
    pub base: f64,
    /// Cap on the computed delay, ns.
    pub max_ns: SimTime,
    /// Jitter fraction in `[0, 1)`; 0 disables jitter (and the RNG draw).
    pub jitter: f64,
}

impl Default for ExpBackoff {
    fn default() -> Self {
        ExpBackoff {
            base: 2.0,
            max_ns: crate::time::secs(1),
            jitter: 0.0,
        }
    }
}

/// Deadline propagation policy (gRPC-style): the entry hop stamps an
/// absolute deadline from `budget_ns`; every downstream hop forwards the
/// remaining budget minus `hop_margin_ns`, and work whose budget is
/// exhausted fails fast as `"deadline"` instead of burning server capacity
/// on a reply nobody is waiting for.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineSpec {
    /// Fresh budget stamped when no deadline is inherited from the caller
    /// (the entry hop). `None` only propagates an inherited deadline.
    pub budget_ns: Option<SimTime>,
    /// Per-hop safety margin subtracted from the remaining budget before
    /// forwarding, ns (covers serialization + network of the reply path).
    pub hop_margin_ns: SimTime,
}

impl Default for DeadlineSpec {
    fn default() -> Self {
        DeadlineSpec {
            budget_ns: Some(crate::time::secs(1)),
            hop_margin_ns: crate::time::ms(5),
        }
    }
}

impl DeadlineSpec {
    /// The absolute deadline a child call carries, given the current time
    /// and the caller's own deadline (if any).
    ///
    /// Pure arithmetic (property-tested): the child's deadline never exceeds
    /// the parent's minus the hop margin, and never exceeds `now +
    /// budget_ns`. Returns `None` when there is nothing to propagate.
    pub fn child_deadline(&self, now: SimTime, parent: Option<SimTime>) -> Option<SimTime> {
        let inherited = parent.map(|p| p.saturating_sub(self.hop_margin_ns));
        let fresh = self.budget_ns.map(|b| now.saturating_add(b));
        match (inherited, fresh) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }
}

/// Retry budget (Finagle-style): a per-client token bucket refilled by a
/// fraction of first attempts, drained one token per retry. Caps the
/// client's wire amplification at `1 + ratio` by construction, regardless
/// of the per-hop `retries` setting.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryBudgetSpec {
    /// Tokens deposited per first attempt (0.2 = at most 20% extra wire
    /// load from retries).
    pub ratio: f64,
    /// Bucket capacity (burst allowance), tokens.
    pub cap: f64,
}

impl Default for RetryBudgetSpec {
    fn default() -> Self {
        RetryBudgetSpec {
            ratio: 0.2,
            cap: 10.0,
        }
    }
}

/// Per-binding client policy: what the generated client wrapper stack does.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSpec {
    /// Transport to the callee.
    pub transport: TransportSpec,
    /// RPC timeout; `None` waits forever.
    pub timeout_ns: Option<SimTime>,
    /// Maximum retries after the first attempt (paper's "up to 10 retries"
    /// is `retries: 10`).
    pub retries: u32,
    /// Fixed backoff between attempts, ns (the base delay when
    /// `backoff_exp` is set).
    pub backoff_ns: SimTime,
    /// Optional exponential growth + jitter on top of `backoff_ns`.
    pub backoff_exp: Option<ExpBackoff>,
    /// Optional circuit breaker.
    pub breaker: Option<BreakerSpec>,
    /// Extra client-side CPU per call, ns: tracing context injection,
    /// backend driver marshalling (redis/mongo protocol encode + syscalls).
    pub client_overhead_ns: u64,
    /// Optional deadline propagation (`None` keeps old configurations
    /// byte-identical).
    pub deadline: Option<DeadlineSpec>,
    /// Optional retry budget bounding wire amplification.
    pub retry_budget: Option<RetryBudgetSpec>,
}

impl Default for ClientSpec {
    fn default() -> Self {
        ClientSpec {
            transport: TransportSpec::Local,
            timeout_ns: None,
            retries: 0,
            backoff_ns: 0,
            backoff_exp: None,
            breaker: None,
            client_overhead_ns: 0,
            deadline: None,
            retry_budget: None,
        }
    }
}

impl ClientSpec {
    /// A local (same-process) call with no policies.
    pub fn local() -> Self {
        ClientSpec::default()
    }

    /// A client over the given transport with no policies.
    pub fn over(transport: TransportSpec) -> Self {
        ClientSpec {
            transport,
            ..ClientSpec::default()
        }
    }
}

/// Load-balancing policy over replicated targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LbPolicy {
    /// Round-robin across replicas.
    #[default]
    RoundRobin,
    /// Uniformly random replica.
    Random,
    /// Pick the replica with the fewest outstanding requests from this
    /// client.
    LeastOutstanding,
}

/// How a declared dependency is bound at runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum DepBinding {
    /// A single service instance.
    Service {
        /// Index into [`SystemSpec::services`].
        target: usize,
        /// Client policy stack.
        client: ClientSpec,
    },
    /// A replicated set of service instances behind a load balancer.
    ReplicatedService {
        /// Indices into [`SystemSpec::services`].
        targets: Vec<usize>,
        /// Balancing policy.
        policy: LbPolicy,
        /// Client policy stack.
        client: ClientSpec,
    },
    /// A backend instance.
    Backend {
        /// Index into [`SystemSpec::backends`].
        target: usize,
        /// Client policy stack.
        client: ClientSpec,
    },
}

impl DepBinding {
    /// The client spec of this binding.
    pub fn client(&self) -> &ClientSpec {
        match self {
            DepBinding::Service { client, .. }
            | DepBinding::ReplicatedService { client, .. }
            | DepBinding::Backend { client, .. } => client,
        }
    }
}

/// Adaptive load shedding (CoDel/SEDA lineage): the service tracks an EWMA
/// of request sojourn delay (arrival → completion) and probabilistically
/// rejects arrivals as `"shed"` when the sustained delay exceeds a target,
/// replacing the blunt `max_concurrent` cliff with graceful degradation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedSpec {
    /// Sojourn-delay target, ns. Delay above this raises the shed
    /// probability; delay below it lowers it.
    pub target_delay_ns: SimTime,
    /// Proportional gain: shed probability moves by
    /// `gain * (ewma - target) / target` per completed request.
    pub gain: f64,
    /// Upper bound on the shed probability in `[0, 1]` (always admit at
    /// least `1 - max_shed` of offered load).
    pub max_shed: f64,
    /// EWMA smoothing factor in `(0, 1]`; higher reacts faster.
    pub ewma_alpha: f64,
}

impl Default for ShedSpec {
    fn default() -> Self {
        ShedSpec {
            target_delay_ns: crate::time::ms(50),
            gain: 0.1,
            max_shed: 0.95,
            ewma_alpha: 0.2,
        }
    }
}

/// A simulated service instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    /// Instance name (unique).
    pub name: String,
    /// Index into [`SystemSpec::processes`].
    pub process: usize,
    /// Method name → behavior program.
    pub methods: BTreeMap<String, Behavior>,
    /// Behavior dependency name → binding.
    pub deps: BTreeMap<String, DepBinding>,
    /// Admission limit: concurrent requests accepted before fast-failing
    /// (listen backlog analog).
    pub max_concurrent: u32,
    /// If set, spans are recorded for this service's method executions with
    /// the given per-span CPU overhead (ns).
    pub trace_overhead_ns: Option<u64>,
    /// Optional adaptive admission controller; `None` keeps the plain
    /// `max_concurrent` fast-fail.
    pub shed: Option<ShedSpec>,
}

impl ServiceSpec {
    /// A service with defaults (no tracing, generous admission limit).
    pub fn new(name: impl Into<String>, process: usize) -> Self {
        ServiceSpec {
            name: name.into(),
            process,
            methods: BTreeMap::new(),
            deps: BTreeMap::new(),
            max_concurrent: 20_000,
            trace_overhead_ns: None,
            shed: None,
        }
    }
}

/// Read/write discipline of a replicated [`BackendRtKind::Store`].
///
/// The default (`ReadReplica`) is the historical behavior: writes land on
/// the primary and replicate asynchronously, reads round-robin the
/// replicas and see whatever the lag gives them. The other modes trade
/// latency or availability for guarantees; the consistency oracle
/// (`workload::oracle`) measures exactly which anomaly classes each mode
/// eliminates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ConsistencyMode {
    /// Reads are served by the current primary: no stale reads while the
    /// primary is healthy, but replicas carry no read traffic.
    Primary,
    /// Reads round-robin the replicas (the historical behavior, now named):
    /// staleness bounded only by the replication lag.
    #[default]
    ReadReplica,
    /// Writes are acknowledged by `w` members and reads consult `r`
    /// members (primary-first, lowest index). With `w + r > replicas + 1`
    /// every read overlaps every acknowledged write; the write pays the
    /// slowest quorum member's replication latency.
    Quorum {
        /// Members (including the primary) that must apply a write before
        /// it is acknowledged.
        w: u32,
        /// Members (including the primary) consulted per read.
        r: u32,
    },
    /// Read-your-writes session token, keyed by entity: a read whose
    /// round-robin replica is behind the session's floor redirects to the
    /// primary (paying one extra read latency).
    Session,
}

impl ConsistencyMode {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ConsistencyMode::Primary => "primary",
            ConsistencyMode::ReadReplica => "read_replica",
            ConsistencyMode::Quorum { .. } => "quorum",
            ConsistencyMode::Session => "session",
        }
    }
}

/// Failover policy of a replicated [`BackendRtKind::Store`]: which
/// processes host its replicas and how long detection + election take.
///
/// Absent (`None`), replicas are plain lag-modeled state inside the
/// store's own process and the store is unavailable while that process is
/// down — the historical behavior. Present, each replica lives in its own
/// peer process on the *same host* (the store's state stays on one host
/// lane; promotion re-points the serving process without migrating it),
/// and when the primary's process crashes or is partitioned from every
/// peer, the most-caught-up reachable replica promotes after
/// `detection_ns + election_ns`. Writes the old primary acknowledged but
/// never replicated are rolled back — *lost* — exactly as in async-
/// replicated production stores.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverSpec {
    /// One process index per replica (same host as the store's process).
    pub replica_processes: Vec<usize>,
    /// Time for peers to detect the primary unreachable, ns.
    pub detection_ns: SimTime,
    /// Election duration once detected, ns.
    pub election_ns: SimTime,
}

/// Backend runtime flavors.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendRtKind {
    /// Key-value cache with a bounded key set.
    Cache {
        /// Maximum resident keys (random eviction beyond this).
        capacity_items: u64,
        /// Fixed per-op latency (memory access + protocol), ns.
        op_latency_ns: u64,
        /// CPU per operation on the backend host, ns.
        cpu_per_op_ns: u64,
        /// Extra per-item CPU for multi-item (`GetRange`/`PushFront`) ops, ns.
        cpu_per_item_ns: u64,
    },
    /// Durable store (NoSQL or relational), optionally replicated with lag.
    Store {
        /// Fixed read latency, ns.
        read_latency_ns: u64,
        /// Fixed write latency, ns.
        write_latency_ns: u64,
        /// CPU per operation on the backend host, ns.
        cpu_per_op_ns: u64,
        /// Extra CPU per scanned item, ns.
        cpu_per_item_ns: u64,
        /// Number of read replicas in addition to the primary (0 = none).
        replicas: u32,
        /// Replication lag range `[min, max]` ns, uniformly sampled per write
        /// per replica.
        replication_lag_ns: (SimTime, SimTime),
        /// Read/write discipline (historically always `ReadReplica`).
        consistency: ConsistencyMode,
        /// Failover policy; `None` keeps replicas inside the store's own
        /// process with no promotion (historical behavior).
        failover: Option<FailoverSpec>,
    },
    /// FIFO message queue.
    Queue {
        /// Maximum queued messages before `Send` fails.
        capacity: u64,
        /// Fixed per-op latency, ns.
        op_latency_ns: u64,
    },
}

/// A simulated backend instance.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSpec {
    /// Instance name (unique).
    pub name: String,
    /// Index into [`SystemSpec::processes`].
    pub process: usize,
    /// Flavor + parameters.
    pub kind: BackendRtKind,
}

/// An externally callable API endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct EntrySpec {
    /// Index into [`SystemSpec::services`].
    pub service: usize,
    /// Client policy used by the workload generator to reach the entry
    /// service (the paper's workload generator runs on a separate machine).
    pub client: ClientSpec,
}

/// A single injectable failure, named against the spec (resolved to dense
/// indices at boot).
///
/// All faults are transient: crashes restart, partitions heal, brownouts
/// end. In-flight work affected by a fault fails *fast* with a classified
/// error — nothing hangs — which is what keeps the request-conservation
/// invariant checkable (every submitted request terminates exactly once).
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Kill a process; every in-flight request inside it fails with
    /// `"crash"`, connection pools and the GC heap reset cold, and the
    /// process restarts after `restart_delay_ns`.
    ProcessCrash {
        /// Process name.
        process: String,
        /// Downtime before the cold restart, ns.
        restart_delay_ns: SimTime,
    },
    /// Take a host down (crashing every resident process) for `down_ns`.
    HostDown {
        /// Host name.
        host: String,
        /// Downtime, ns.
        down_ns: SimTime,
    },
    /// Symmetric unreachability between two processes for `duration_ns`:
    /// requests across the cut fail with `"unreachable"`.
    Partition {
        /// One side (process name).
        a: String,
        /// Other side (process name).
        b: String,
        /// How long the cut lasts, ns.
        duration_ns: SimTime,
    },
    /// Degrade the link between two processes: added one-way latency and a
    /// loss probability (lost requests fail with `"unreachable"`).
    LinkDegrade {
        /// One side (process name).
        a: String,
        /// Other side (process name).
        b: String,
        /// How long the degradation lasts, ns.
        duration_ns: SimTime,
        /// Extra one-way latency per crossing request, ns.
        extra_latency_ns: u64,
        /// Per-request loss probability in `[0, 1]`.
        loss: f64,
    },
    /// Brown out a named backend: service times multiply by `slow_factor`,
    /// and with `unavailable` set, requests fail with `"brownout"` instead.
    Brownout {
        /// Backend name.
        backend: String,
        /// How long the brownout lasts, ns.
        duration_ns: SimTime,
        /// Service-time multiplier while browned out (≥ 1 slows).
        slow_factor: f64,
        /// Reject requests outright instead of slowing them.
        unavailable: bool,
    },
}

impl Fault {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::ProcessCrash { .. } => "process_crash",
            Fault::HostDown { .. } => "host_down",
            Fault::Partition { .. } => "partition",
            Fault::LinkDegrade { .. } => "link_degrade",
            Fault::Brownout { .. } => "brownout",
        }
    }
}

/// A seeded chaos process: faults drawn from a menu at exponentially
/// distributed intervals. Its RNG is independent of the simulation's main
/// RNG, so enabling chaos perturbs nothing else.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Seed of the chaos RNG (`BLUEPRINT` docs call this the chaos seed).
    pub seed: u64,
    /// Mean gap between injected faults, ns.
    pub mean_gap_ns: SimTime,
    /// First injection happens at or after this time.
    pub start_ns: SimTime,
    /// No injections at or after this time.
    pub end_ns: SimTime,
    /// Faults to draw from, uniformly.
    pub menu: Vec<Fault>,
}

/// A schedule of faults to inject into a run ([`crate::sim::SimConfig`]
/// carries one). Empty plans add *zero* events and RNG draws — the
/// no-fault completion stream is byte-identical with or without the engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// `(time, fault)` pairs, injected in the given order at equal times.
    pub scheduled: Vec<(SimTime, Fault)>,
    /// Optional chaos process layered on top of the schedule.
    pub chaos: Option<ChaosSpec>,
}

impl FaultPlan {
    /// A plan with nothing in it.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty() && self.chaos.is_none()
    }

    /// Builder: schedule `fault` at time `t`.
    pub fn at(mut self, t: SimTime, fault: Fault) -> Self {
        self.scheduled.push((t, fault));
        self
    }

    /// Builder: attach a chaos process.
    pub fn with_chaos(mut self, chaos: ChaosSpec) -> Self {
        self.chaos = Some(chaos);
        self
    }
}

/// One live runtime change, named against the spec (resolved to dense
/// indices at boot). Changes address a *service group*: the base instance
/// name plus the `_rN` clones the `Replicate` transform stamps out (so
/// `"api"` covers `api`, `api_r1`, `api_r2`, …).
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// Rolling deploy over a service group: drain one replica at a time
    /// (stop admitting new work, let in-flight requests finish or hit their
    /// deadline, then restart the process), advancing to the next replica
    /// only once the drained one is healthy again.
    RollingRestart {
        /// Service group base name.
        service: String,
        /// Max time to wait for in-flight work before force-stopping, ns.
        drain_ns: SimTime,
        /// Downtime of each replica's restart, ns.
        restart_ns: SimTime,
        /// Skip draining: stop each replica immediately (the hazardous
        /// variant the `drainless-restart-hazard` lint flags). In-flight
        /// work dies with `"crash"` instead of completing.
        drainless: bool,
    },
    /// Scale a service group to `replicas` active members. Scale-out
    /// activates dormant replicas (cold client/breaker/pool state, shed
    /// controller re-primed on first observation); scale-in drains the
    /// highest-numbered active replicas first, then deactivates them.
    Scale {
        /// Service group base name.
        service: String,
        /// Target number of active replicas (1 ..= boot replica count).
        replicas: usize,
        /// Drain budget for replicas being removed, ns (scale-out ignores
        /// it). Stragglers past the budget finish off-rotation.
        drain_ns: SimTime,
    },
    /// Canary rollout: route a deterministic `fraction` of the group's
    /// balanced traffic to the highest-numbered replica, which runs with
    /// mutated outbound wiring (`timeout_ns`/`retries` overrides applied to
    /// its clients). After `evaluate_ns` the canary's error rate is
    /// compared against the baseline replicas (seeded tolerance drawn on
    /// the reconfig RNG stream): promote applies the overrides to the whole
    /// group, rollback restores the canary's original wiring.
    Canary {
        /// Service group base name.
        service: String,
        /// Fraction of balanced traffic routed to the canary, in (0, 1).
        fraction: f64,
        /// Observation window before the promote/rollback decision, ns.
        evaluate_ns: SimTime,
        /// Override: request timeout for the canary's outbound clients.
        timeout_ns: Option<SimTime>,
        /// Override: retry count for the canary's outbound clients.
        retries: Option<u32>,
    },
}

impl Change {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Change::RollingRestart {
                drainless: false, ..
            } => "rolling_restart",
            Change::RollingRestart {
                drainless: true, ..
            } => "drainless_restart",
            Change::Scale { .. } => "scale",
            Change::Canary { .. } => "canary",
        }
    }

    /// The service group a change targets.
    pub fn service(&self) -> &str {
        match self {
            Change::RollingRestart { service, .. }
            | Change::Scale { service, .. }
            | Change::Canary { service, .. } => service,
        }
    }
}

/// A deterministic per-service autoscaler: every `interval_ns` it compares
/// the group's utilization (active work / total concurrency limit, smoothed
/// by an EWMA) against a hysteresis band and scales one replica at a time,
/// respecting a cooldown between actions. All of its draws come from the
/// dedicated `DOMAIN_AUTOSCALER` RNG stream, so enabling it perturbs no
/// other stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalerSpec {
    /// Service group base name.
    pub service: String,
    /// Lower bound on active replicas (≥ 1).
    pub min_replicas: usize,
    /// Upper bound on active replicas (≤ the group's boot size).
    pub max_replicas: usize,
    /// Scale out when smoothed utilization exceeds this watermark.
    pub high_util: f64,
    /// Scale in when smoothed utilization falls below this watermark.
    pub low_util: f64,
    /// EWMA smoothing factor in (0, 1].
    pub ewma_alpha: f64,
    /// Gap between utilization observations, ns.
    pub interval_ns: SimTime,
    /// Minimum gap between two scaling actions, ns.
    pub cooldown_ns: SimTime,
    /// First observation at this time.
    pub start_ns: SimTime,
    /// No observations at or after this time.
    pub end_ns: SimTime,
    /// Drain budget for replicas being scaled in, ns.
    pub drain_ns: SimTime,
}

/// A schedule of live runtime changes ([`crate::sim::SimConfig`] carries
/// one). Like [`FaultPlan`], an empty plan adds *zero* events and RNG
/// draws — the no-reconfig completion stream is byte-identical with or
/// without the engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReconfigPlan {
    /// `(time, change)` pairs, applied in the given order at equal times.
    pub scheduled: Vec<(SimTime, Change)>,
    /// Deterministic autoscalers layered on top of the schedule.
    pub autoscalers: Vec<AutoscalerSpec>,
}

impl ReconfigPlan {
    /// A plan with nothing in it.
    pub fn none() -> Self {
        ReconfigPlan::default()
    }

    /// Whether the plan changes anything at all.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty() && self.autoscalers.is_empty()
    }

    /// Builder: schedule `change` at time `t`.
    pub fn at(mut self, t: SimTime, change: Change) -> Self {
        self.scheduled.push((t, change));
        self
    }

    /// Builder: attach an autoscaler.
    pub fn with_autoscaler(mut self, scaler: AutoscalerSpec) -> Self {
        self.autoscalers.push(scaler);
        self
    }
}

/// The full description of a simulated deployment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SystemSpec {
    /// Application/variant name.
    pub name: String,
    /// Machines.
    pub hosts: Vec<HostSpec>,
    /// Processes.
    pub processes: Vec<ProcessSpec>,
    /// Service instances.
    pub services: Vec<ServiceSpec>,
    /// Backend instances.
    pub backends: Vec<BackendSpec>,
    /// Entry points keyed by exposed name (usually the service name).
    pub entries: BTreeMap<String, EntrySpec>,
}

impl SystemSpec {
    /// Validates all cross-references.
    pub fn validate(&self) -> Result<()> {
        // Names address faults, driver actions, and metrics; duplicates
        // would make those ambiguous.
        if let Some(dup) = first_duplicate(self.hosts.iter().map(|h| h.name.as_str())) {
            return Err(SimError::BadSpec(format!("duplicate host name {dup}")));
        }
        if let Some(dup) = first_duplicate(self.processes.iter().map(|p| p.name.as_str())) {
            return Err(SimError::BadSpec(format!("duplicate process name {dup}")));
        }
        if let Some(dup) = first_duplicate(self.services.iter().map(|s| s.name.as_str())) {
            return Err(SimError::BadSpec(format!("duplicate service name {dup}")));
        }
        if let Some(dup) = first_duplicate(self.backends.iter().map(|b| b.name.as_str())) {
            return Err(SimError::BadSpec(format!("duplicate backend name {dup}")));
        }
        for p in &self.processes {
            if p.host >= self.hosts.len() {
                return Err(SimError::BadSpec(format!("process {} host index", p.name)));
            }
        }
        for s in &self.services {
            if s.process >= self.processes.len() {
                return Err(SimError::BadSpec(format!(
                    "service {} process index",
                    s.name
                )));
            }
            for (dep, b) in &s.deps {
                match b {
                    DepBinding::Service { target, .. } => {
                        if *target >= self.services.len() {
                            return Err(SimError::BadSpec(format!(
                                "service {} dep {dep} target index",
                                s.name
                            )));
                        }
                    }
                    DepBinding::ReplicatedService { targets, .. } => {
                        if targets.is_empty() {
                            return Err(SimError::BadSpec(format!(
                                "service {} dep {dep} has no replicas",
                                s.name
                            )));
                        }
                        for t in targets {
                            if *t >= self.services.len() {
                                return Err(SimError::BadSpec(format!(
                                    "service {} dep {dep} replica index",
                                    s.name
                                )));
                            }
                        }
                    }
                    DepBinding::Backend { target, .. } => {
                        if *target >= self.backends.len() {
                            return Err(SimError::BadSpec(format!(
                                "service {} dep {dep} backend index",
                                s.name
                            )));
                        }
                    }
                }
            }
            // Behaviors must only use bound deps.
            for (m, b) in &s.methods {
                for (dep, _family) in b.dep_uses() {
                    if !s.deps.contains_key(dep) {
                        return Err(SimError::BadSpec(format!(
                            "service {} method {m} uses unbound dep {dep}",
                            s.name
                        )));
                    }
                }
                // Probabilities are coin thresholds at simulation time; a NaN
                // or out-of-range value would silently bias every draw, so
                // they fail at boot instead.
                let mut bad_prob: Option<(&'static str, f64)> = None;
                b.for_each_step(&mut |step| {
                    if bad_prob.is_some() {
                        return;
                    }
                    match step {
                        blueprint_workflow::Step::Branch { prob, .. }
                            if !prob.is_finite() || !(0.0..=1.0).contains(prob) =>
                        {
                            bad_prob = Some(("branch", *prob));
                        }
                        blueprint_workflow::Step::Fail { prob }
                            if !prob.is_finite() || !(0.0..=1.0).contains(prob) =>
                        {
                            bad_prob = Some(("fail", *prob));
                        }
                        _ => {}
                    }
                });
                if let Some((step, prob)) = bad_prob {
                    return Err(SimError::BadSpec(format!(
                        "service {} method {m} {step} probability {prob} not in [0, 1]",
                        s.name
                    )));
                }
            }
            // Shed-controller parameters: out-of-range values would silently
            // disable or destabilize the controller at runtime, so they fail
            // at boot instead.
            if let Some(shed) = &s.shed {
                if shed.target_delay_ns == 0 {
                    return Err(SimError::BadSpec(format!(
                        "service {} shed target_delay_ns must be > 0",
                        s.name
                    )));
                }
                if !shed.gain.is_finite() || shed.gain <= 0.0 {
                    return Err(SimError::BadSpec(format!(
                        "service {} shed gain {} must be finite and > 0",
                        s.name, shed.gain
                    )));
                }
                if !shed.max_shed.is_finite() || !(0.0..=1.0).contains(&shed.max_shed) {
                    return Err(SimError::BadSpec(format!(
                        "service {} shed max_shed {} not in [0, 1]",
                        s.name, shed.max_shed
                    )));
                }
                if !shed.ewma_alpha.is_finite() || shed.ewma_alpha <= 0.0 || shed.ewma_alpha > 1.0 {
                    return Err(SimError::BadSpec(format!(
                        "service {} shed ewma_alpha {} not in (0, 1]",
                        s.name, shed.ewma_alpha
                    )));
                }
            }
        }
        for b in &self.backends {
            if b.process >= self.processes.len() {
                return Err(SimError::BadSpec(format!(
                    "backend {} process index",
                    b.name
                )));
            }
            if let BackendRtKind::Store {
                replicas,
                replication_lag_ns,
                consistency,
                failover,
                ..
            } = &b.kind
            {
                // An inverted lag range would make every per-replica lag
                // draw panic (or silently bias) at runtime; reject at boot.
                if replication_lag_ns.0 > replication_lag_ns.1 {
                    return Err(SimError::BadSpec(format!(
                        "store {} replication_lag_ns min {} > max {}",
                        b.name, replication_lag_ns.0, replication_lag_ns.1
                    )));
                }
                // Quorum parameters are member counts (primary included):
                // zero is meaningless and anything past the member count is
                // unsatisfiable by construction.
                if let ConsistencyMode::Quorum { w, r } = consistency {
                    let members = replicas + 1;
                    if *w == 0 || *r == 0 {
                        return Err(SimError::BadSpec(format!(
                            "store {} quorum w={w} r={r}: both must be >= 1",
                            b.name
                        )));
                    }
                    if *w > members || *r > members {
                        return Err(SimError::BadSpec(format!(
                            "store {} quorum w={w} r={r} exceeds {} members \
                             (primary + {replicas} replicas)",
                            b.name, members
                        )));
                    }
                }
                if let Some(fo) = failover {
                    if *replicas == 0 {
                        return Err(SimError::BadSpec(format!(
                            "store {} has a failover spec but no replicas",
                            b.name
                        )));
                    }
                    if fo.replica_processes.len() != *replicas as usize {
                        return Err(SimError::BadSpec(format!(
                            "store {} failover lists {} replica processes for \
                             {replicas} replicas",
                            b.name,
                            fo.replica_processes.len()
                        )));
                    }
                    let home = self.processes[b.process].host;
                    for &p in &fo.replica_processes {
                        if p >= self.processes.len() {
                            return Err(SimError::BadSpec(format!(
                                "store {} failover replica process index {p} out \
                                 of range",
                                b.name
                            )));
                        }
                        if p == b.process {
                            return Err(SimError::BadSpec(format!(
                                "store {} failover replica process {} is the \
                                 store's own process (nothing to promote)",
                                b.name, self.processes[p].name
                            )));
                        }
                        // Same-host keeps the store's state on one host
                        // lane: promotion re-points the serving process
                        // without migrating that state.
                        if self.processes[p].host != home {
                            return Err(SimError::BadSpec(format!(
                                "store {} failover replica process {} is on host \
                                 {} but the store's process is on host {} \
                                 (replica processes must share the primary's \
                                 host)",
                                b.name,
                                self.processes[p].name,
                                self.hosts[self.processes[p].host].name,
                                self.hosts[home].name
                            )));
                        }
                    }
                    if fo.detection_ns == 0 && fo.election_ns == 0 {
                        return Err(SimError::BadSpec(format!(
                            "store {} failover detection_ns + election_ns must \
                             be > 0 (an instantaneous election would race the \
                             crash itself)",
                            b.name
                        )));
                    }
                }
            }
        }
        for (name, e) in &self.entries {
            if e.service >= self.services.len() {
                let hint = suggest(name, self.services.iter().map(|s| s.name.as_str()));
                return Err(SimError::BadSpec(format!(
                    "entry {name} service index {} out of range ({} services){hint}",
                    e.service,
                    self.services.len()
                )));
            }
        }
        Ok(())
    }

    /// Validates every reference and parameter of a fault plan against this
    /// spec (called at boot when the plan is non-empty, so a bad plan fails
    /// loudly instead of silently injecting nothing).
    pub fn validate_fault_plan(&self, plan: &FaultPlan) -> Result<()> {
        for (_, f) in &plan.scheduled {
            self.validate_fault(f)?;
        }
        if let Some(chaos) = &plan.chaos {
            if chaos.menu.is_empty() {
                return Err(SimError::BadSpec("chaos menu is empty".into()));
            }
            if chaos.mean_gap_ns == 0 {
                return Err(SimError::BadSpec("chaos mean_gap_ns must be > 0".into()));
            }
            for f in &chaos.menu {
                self.validate_fault(f)?;
            }
        }
        Ok(())
    }

    /// Validates one fault's references and parameters.
    pub fn validate_fault(&self, f: &Fault) -> Result<()> {
        let need_proc = |name: &str| -> Result<()> {
            if self.process_index(name).is_none() {
                let hint = suggest(name, self.processes.iter().map(|p| p.name.as_str()));
                return Err(SimError::BadSpec(format!(
                    "fault names unknown process {name}{hint}"
                )));
            }
            Ok(())
        };
        match f {
            Fault::ProcessCrash { process, .. } => {
                need_proc(process)?;
                let proc = self
                    .processes
                    .iter()
                    .position(|p| &p.name == process)
                    .expect("checked by need_proc");
                self.check_store_stranded(proc, "process-crash fault")
            }
            Fault::HostDown { host, .. } => {
                if self.host_index(host).is_none() {
                    let hint = suggest(host, self.hosts.iter().map(|h| h.name.as_str()));
                    return Err(SimError::BadSpec(format!(
                        "fault names unknown host {host}{hint}"
                    )));
                }
                Ok(())
            }
            Fault::Partition { a, b, .. } => {
                need_proc(a)?;
                need_proc(b)?;
                if a == b {
                    return Err(SimError::BadSpec(format!("partition of {a} with itself")));
                }
                Ok(())
            }
            Fault::LinkDegrade { a, b, loss, .. } => {
                need_proc(a)?;
                need_proc(b)?;
                if a == b {
                    return Err(SimError::BadSpec(format!(
                        "link degrade of {a} with itself"
                    )));
                }
                if !loss.is_finite() || !(0.0..=1.0).contains(loss) {
                    return Err(SimError::BadSpec(format!("link loss {loss} not in [0, 1]")));
                }
                Ok(())
            }
            Fault::Brownout {
                backend,
                slow_factor,
                ..
            } => {
                if self.backend_index(backend).is_none() {
                    let hint = suggest(backend, self.backends.iter().map(|b| b.name.as_str()));
                    return Err(SimError::BadSpec(format!(
                        "fault names unknown backend {backend}{hint}"
                    )));
                }
                // A factor below 1 would *speed up* a browned-out backend —
                // and a NaN/negative one silently rounds to a 0 ns latency
                // in the cost model — so anything sub-1 is rejected.
                if !slow_factor.is_finite() || *slow_factor < 1.0 {
                    return Err(SimError::BadSpec(format!(
                        "brownout slow_factor {slow_factor} must be finite and >= 1 (1 = no slowdown)"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Validates every reference and parameter of a reconfig plan against
    /// this spec (called at boot when the plan is non-empty, so a bad plan
    /// fails loudly instead of silently changing nothing).
    pub fn validate_reconfig_plan(&self, plan: &ReconfigPlan) -> Result<()> {
        for (_, c) in &plan.scheduled {
            self.validate_change(c)?;
        }
        for a in &plan.autoscalers {
            let group = self.service_group(&a.service);
            if group.is_empty() {
                let hint = suggest(&a.service, self.services.iter().map(|s| s.name.as_str()));
                return Err(SimError::BadSpec(format!(
                    "autoscaler names unknown service {}{hint}",
                    a.service
                )));
            }
            if a.min_replicas == 0 {
                return Err(SimError::BadSpec(format!(
                    "autoscaler for {} min_replicas must be >= 1 (a service cannot scale below 1 replica)",
                    a.service
                )));
            }
            if a.min_replicas > a.max_replicas {
                return Err(SimError::BadSpec(format!(
                    "autoscaler for {} min_replicas {} > max_replicas {}",
                    a.service, a.min_replicas, a.max_replicas
                )));
            }
            if a.max_replicas > group.len() {
                return Err(SimError::BadSpec(format!(
                    "autoscaler for {} max_replicas {} exceeds the {} boot replicas",
                    a.service,
                    a.max_replicas,
                    group.len()
                )));
            }
            if !a.low_util.is_finite()
                || !a.high_util.is_finite()
                || a.low_util < 0.0
                || a.high_util > 1.0
                || a.low_util >= a.high_util
            {
                return Err(SimError::BadSpec(format!(
                    "autoscaler for {} watermarks ({}, {}) must satisfy 0 <= low < high <= 1",
                    a.service, a.low_util, a.high_util
                )));
            }
            if !a.ewma_alpha.is_finite() || a.ewma_alpha <= 0.0 || a.ewma_alpha > 1.0 {
                return Err(SimError::BadSpec(format!(
                    "autoscaler for {} ewma_alpha {} not in (0, 1]",
                    a.service, a.ewma_alpha
                )));
            }
            if a.interval_ns == 0 {
                return Err(SimError::BadSpec(format!(
                    "autoscaler for {} interval_ns must be > 0",
                    a.service
                )));
            }
        }
        Ok(())
    }

    /// Validates one change's references and parameters.
    pub fn validate_change(&self, c: &Change) -> Result<()> {
        let group = self.service_group(c.service());
        if group.is_empty() {
            let hint = suggest(c.service(), self.services.iter().map(|s| s.name.as_str()));
            return Err(SimError::BadSpec(format!(
                "reconfig change names unknown service {}{hint}",
                c.service()
            )));
        }
        match c {
            Change::RollingRestart { .. } => {
                // A rolling step stops each member's process in turn; a
                // replicated store stranded inside one of them would lose
                // every promotable peer mid-roll.
                for &svc in &group {
                    self.check_store_stranded(self.services[svc].process, "rolling restart")?;
                }
                Ok(())
            }
            Change::Scale {
                service, replicas, ..
            } => {
                if *replicas == 0 {
                    return Err(SimError::BadSpec(format!(
                        "cannot scale {service} below 1 replica"
                    )));
                }
                if *replicas > group.len() {
                    return Err(SimError::BadSpec(format!(
                        "cannot scale {service} to {replicas} replicas: only {} exist at boot",
                        group.len()
                    )));
                }
                Ok(())
            }
            Change::Canary {
                service,
                fraction,
                evaluate_ns,
                ..
            } => {
                if group.len() < 2 {
                    return Err(SimError::BadSpec(format!(
                        "canary for {service} needs >= 2 replicas (one canary, one baseline)"
                    )));
                }
                if !fraction.is_finite() || !(0.0..1.0).contains(fraction) || *fraction <= 0.0 {
                    return Err(SimError::BadSpec(format!(
                        "canary fraction {fraction} not in (0, 1)"
                    )));
                }
                if *evaluate_ns == 0 {
                    return Err(SimError::BadSpec(format!(
                        "canary for {service} evaluate_ns must be > 0"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Rejects a plan step that stops `proc` while a replicated store would
    /// be stranded by it: the store has replicas, but every peer able to
    /// promote lives inside the stopped process itself (no failover spec,
    /// or one whose replica processes all coincide with the primary's).
    /// Such a plan advertises replication it cannot deliver — the replicas
    /// die with the primary — so it fails at validation instead of
    /// silently measuring nothing.
    fn check_store_stranded(&self, proc: usize, what: &str) -> Result<()> {
        for b in &self.backends {
            let BackendRtKind::Store {
                replicas, failover, ..
            } = &b.kind
            else {
                continue;
            };
            if *replicas == 0 || b.process != proc {
                continue;
            }
            let promotable = failover
                .as_ref()
                .is_some_and(|fo| fo.replica_processes.iter().any(|&p| p != proc));
            if !promotable {
                return Err(SimError::BadSpec(format!(
                    "{what} stops process {}, but store {} keeps its {} \
                     replica(s) in that same process: no reachable peer to \
                     promote. Give the store a failover spec with replica \
                     processes, or drop the replicas",
                    self.processes[proc].name, b.name, replicas
                )));
            }
        }
        Ok(())
    }

    /// Resolves a service-group base name to the sorted dense indices of
    /// its members: the instance named `base` plus every `base_rN` clone
    /// the `Replicate` transform stamped out. Empty when `base` names
    /// nothing.
    pub fn service_group(&self, base: &str) -> Vec<usize> {
        let prefix = format!("{base}_r");
        let mut out: Vec<usize> = self
            .services
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.name == base
                    || (s.name.starts_with(&prefix)
                        && s.name[prefix.len()..].chars().all(|c| c.is_ascii_digit())
                        && s.name.len() > prefix.len())
            })
            .map(|(i, _)| i)
            .collect();
        out.sort_unstable();
        out
    }

    /// Finds a service index by name.
    pub fn service_index(&self, name: &str) -> Option<usize> {
        self.services.iter().position(|s| s.name == name)
    }

    /// Finds a process index by name.
    pub fn process_index(&self, name: &str) -> Option<usize> {
        self.processes.iter().position(|p| p.name == name)
    }

    /// Finds a backend index by name.
    pub fn backend_index(&self, name: &str) -> Option<usize> {
        self.backends.iter().position(|b| b.name == name)
    }

    /// Finds a host index by name.
    pub fn host_index(&self, name: &str) -> Option<usize> {
        self.hosts.iter().position(|h| h.name == name)
    }
}

/// First name appearing more than once in `names`, if any.
fn first_duplicate<'a>(mut names: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    let mut seen = std::collections::BTreeSet::new();
    names.find(|n| !seen.insert(*n))
}

/// A "; did you mean `X`?" suffix when some known name is a near miss for
/// `target` (edit distance ≤ a third of the target's length, minimum 2 —
/// genuinely different names stay suggestion-free). Ties break toward the
/// smaller distance, then the lexicographically first candidate, so error
/// text is deterministic.
pub(crate) fn suggest<'a>(target: &str, candidates: impl Iterator<Item = &'a str>) -> String {
    let cutoff = (target.chars().count() / 3).max(2);
    let mut best: Option<(usize, &str)> = None;
    for c in candidates {
        if c == target {
            continue;
        }
        let d = edit_distance(target, c);
        if d <= cutoff && best.map(|(bd, bn)| (d, c) < (bd, bn)).unwrap_or(true) {
            best = Some((d, c));
        }
    }
    match best {
        Some((_, name)) => format!("; did you mean `{name}`?"),
        None => String::new(),
    }
}

/// Levenshtein distance over chars (insert/delete/substitute, unit cost).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_workflow::Behavior;

    fn tiny() -> SystemSpec {
        let mut spec = SystemSpec {
            name: "tiny".into(),
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
        let mut s = ServiceSpec::new("a", 0);
        s.methods
            .insert("M".into(), Behavior::build().compute(1000, 0).done());
        spec.services.push(s);
        spec.entries.insert(
            "a".into(),
            EntrySpec {
                service: 0,
                client: ClientSpec::local(),
            },
        );
        spec
    }

    #[test]
    fn valid_spec_passes() {
        tiny().validate().unwrap();
    }

    #[test]
    fn branch_and_fail_probabilities_validated_per_value() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1, 1.1, 2.0] {
            let mut s = tiny();
            s.services[0].methods.insert(
                "M".into(),
                Behavior::build()
                    .branch(bad, Behavior::empty(), Behavior::empty())
                    .done(),
            );
            let err = s.validate().unwrap_err();
            assert!(
                matches!(err, SimError::BadSpec(ref m) if m.contains("branch probability")),
                "branch prob {bad}: {err}"
            );

            let mut s = tiny();
            s.services[0]
                .methods
                .insert("M".into(), Behavior::build().fail(bad).done());
            let err = s.validate().unwrap_err();
            assert!(
                matches!(err, SimError::BadSpec(ref m) if m.contains("fail probability")),
                "fail prob {bad}: {err}"
            );
        }
    }

    #[test]
    fn nested_bad_probability_rejected_and_bounds_accepted() {
        // A bad prob buried under repeat -> parallel -> branch still fails.
        let mut s = tiny();
        s.services[0].methods.insert(
            "M".into(),
            Behavior::build()
                .repeat(
                    2,
                    Behavior::build()
                        .parallel(vec![Behavior::build()
                            .branch(
                                0.5,
                                Behavior::build().fail(f64::NAN).done(),
                                Behavior::empty(),
                            )
                            .done()])
                        .done(),
                )
                .done(),
        );
        assert!(s.validate().is_err());
        // The closed endpoints 0.0 and 1.0 are legal coin thresholds.
        let mut s = tiny();
        s.services[0].methods.insert(
            "M".into(),
            Behavior::build()
                .branch(0.0, Behavior::empty(), Behavior::empty())
                .branch(1.0, Behavior::empty(), Behavior::empty())
                .fail(0.0)
                .done(),
        );
        s.validate().unwrap();
    }

    #[test]
    fn shed_defaults_pass_validation() {
        let mut s = tiny();
        s.services[0].shed = Some(ShedSpec::default());
        s.validate().unwrap();
    }

    #[test]
    fn shed_zero_target_delay_rejected() {
        let mut s = tiny();
        s.services[0].shed = Some(ShedSpec {
            target_delay_ns: 0,
            ..ShedSpec::default()
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn shed_bad_gain_rejected() {
        for gain in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            let mut s = tiny();
            s.services[0].shed = Some(ShedSpec {
                gain,
                ..ShedSpec::default()
            });
            assert!(s.validate().is_err(), "gain {gain} should be rejected");
        }
    }

    #[test]
    fn shed_bad_max_shed_rejected() {
        for max_shed in [-0.01, 1.01, f64::NAN] {
            let mut s = tiny();
            s.services[0].shed = Some(ShedSpec {
                max_shed,
                ..ShedSpec::default()
            });
            assert!(
                s.validate().is_err(),
                "max_shed {max_shed} should be rejected"
            );
        }
    }

    #[test]
    fn shed_bad_ewma_alpha_rejected() {
        for ewma_alpha in [0.0, -0.2, 1.5, f64::NAN] {
            let mut s = tiny();
            s.services[0].shed = Some(ShedSpec {
                ewma_alpha,
                ..ShedSpec::default()
            });
            assert!(
                s.validate().is_err(),
                "ewma_alpha {ewma_alpha} should be rejected"
            );
        }
    }

    #[test]
    fn bad_indices_caught() {
        let mut s = tiny();
        s.services[0].process = 9;
        assert!(s.validate().is_err());

        let mut s = tiny();
        s.entries.get_mut("a").unwrap().service = 4;
        assert!(s.validate().is_err());

        let mut s = tiny();
        s.processes[0].host = 2;
        assert!(s.validate().is_err());
    }

    #[test]
    fn unbound_dep_caught() {
        let mut s = tiny();
        s.services[0]
            .methods
            .insert("N".into(), Behavior::build().call("ghost", "X").done());
        let err = s.validate().unwrap_err();
        assert!(err.to_string().contains("unbound dep ghost"), "{err}");
    }

    #[test]
    fn empty_replica_set_caught() {
        let mut s = tiny();
        s.services[0].deps.insert(
            "r".into(),
            DepBinding::ReplicatedService {
                targets: vec![],
                policy: LbPolicy::RoundRobin,
                client: ClientSpec::local(),
            },
        );
        assert!(s.validate().is_err());
    }

    #[test]
    fn duplicate_names_caught_per_namespace() {
        let mut s = tiny();
        s.hosts.push(HostSpec {
            name: "h0".into(),
            cores: 1.0,
        });
        let err = s.validate().unwrap_err();
        assert!(err.to_string().contains("duplicate host name h0"), "{err}");

        let mut s = tiny();
        s.processes.push(ProcessSpec {
            name: "p0".into(),
            host: 0,
            gc: None,
        });
        let err = s.validate().unwrap_err();
        assert!(
            err.to_string().contains("duplicate process name p0"),
            "{err}"
        );

        let mut s = tiny();
        let dup = s.services[0].clone();
        s.services.push(dup);
        let err = s.validate().unwrap_err();
        assert!(
            err.to_string().contains("duplicate service name a"),
            "{err}"
        );

        let mut s = tiny();
        let b = BackendSpec {
            name: "kv".into(),
            process: 0,
            kind: BackendRtKind::Queue {
                capacity: 1,
                op_latency_ns: 1,
            },
        };
        s.backends.push(b.clone());
        s.backends.push(b);
        let err = s.validate().unwrap_err();
        assert!(
            err.to_string().contains("duplicate backend name kv"),
            "{err}"
        );
    }

    #[test]
    fn fault_plan_unknown_references_caught() {
        let s = tiny();
        let crash = |p: &str| Fault::ProcessCrash {
            process: p.into(),
            restart_delay_ns: 1,
        };
        assert!(s
            .validate_fault_plan(&FaultPlan::default().at(1, crash("p0")))
            .is_ok());
        let err = s
            .validate_fault_plan(&FaultPlan::default().at(1, crash("ghost")))
            .unwrap_err();
        assert!(err.to_string().contains("unknown process ghost"), "{err}");

        let err = s
            .validate_fault(&Fault::HostDown {
                host: "hX".into(),
                down_ns: 1,
            })
            .unwrap_err();
        assert!(err.to_string().contains("unknown host hX"), "{err}");

        let err = s
            .validate_fault(&Fault::Brownout {
                backend: "nope".into(),
                duration_ns: 1,
                slow_factor: 2.0,
                unavailable: false,
            })
            .unwrap_err();
        assert!(err.to_string().contains("unknown backend nope"), "{err}");
    }

    #[test]
    fn near_miss_names_get_suggestions() {
        let mut s = tiny();
        s.processes.push(ProcessSpec {
            name: "frontend_proc".into(),
            host: 0,
            gc: None,
        });
        let err = s
            .validate_fault(&Fault::ProcessCrash {
                process: "frontend_prc".into(),
                restart_delay_ns: 1,
            })
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown process frontend_prc; did you mean `frontend_proc`?"),
            "{err}"
        );

        // A wildly different name earns no suggestion.
        let err = s
            .validate_fault(&Fault::ProcessCrash {
                process: "completely_unrelated".into(),
                restart_delay_ns: 1,
            })
            .unwrap_err();
        assert!(!err.to_string().contains("did you mean"), "{err}");
    }

    #[test]
    fn dangling_entry_reports_range_and_suggestion() {
        let mut s = tiny();
        let entry = s.entries.remove("a").unwrap();
        s.entries.insert(
            "aa".into(),
            EntrySpec {
                service: 7,
                ..entry
            },
        );
        let err = s.validate().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("entry aa service index 7 out of range"),
            "{msg}"
        );
        assert!(msg.contains("did you mean `a`?"), "{msg}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
        assert_eq!(
            suggest("user_svc", ["user_src"].into_iter()),
            "; did you mean `user_src`?"
        );
        assert_eq!(suggest("user_svc", ["payments"].into_iter()), "");
    }

    #[test]
    fn fault_plan_bad_parameters_caught() {
        let mut s = tiny();
        s.processes.push(ProcessSpec {
            name: "p1".into(),
            host: 0,
            gc: None,
        });
        s.backends.push(BackendSpec {
            name: "kv".into(),
            process: 0,
            kind: BackendRtKind::Queue {
                capacity: 1,
                op_latency_ns: 1,
            },
        });
        // A partition needs two distinct sides.
        assert!(s
            .validate_fault(&Fault::Partition {
                a: "p0".into(),
                b: "p0".into(),
                duration_ns: 1,
            })
            .is_err());
        assert!(s
            .validate_fault(&Fault::Partition {
                a: "p0".into(),
                b: "p1".into(),
                duration_ns: 1,
            })
            .is_ok());
        // Loss probability must be a probability.
        for loss in [-0.1, 1.5, f64::NAN] {
            assert!(s
                .validate_fault(&Fault::LinkDegrade {
                    a: "p0".into(),
                    b: "p1".into(),
                    duration_ns: 1,
                    extra_latency_ns: 0,
                    loss,
                })
                .is_err());
        }
        // Slow factor must be finite and at least 1 (a sub-1 factor would
        // speed the backend up; NaN/negative would round to 0 ns latency).
        for sf in [0.0, 0.5, -2.0, f64::INFINITY, f64::NAN] {
            assert!(
                s.validate_fault(&Fault::Brownout {
                    backend: "kv".into(),
                    duration_ns: 1,
                    slow_factor: sf,
                    unavailable: false,
                })
                .is_err(),
                "slow_factor {sf} should be rejected"
            );
        }
        // Exactly 1 (no slowdown) is the degenerate-but-legal boundary.
        assert!(s
            .validate_fault(&Fault::Brownout {
                backend: "kv".into(),
                duration_ns: 1,
                slow_factor: 1.0,
                unavailable: true,
            })
            .is_ok());
        // Chaos needs a non-empty menu and a positive gap.
        let chaos = ChaosSpec {
            seed: 1,
            mean_gap_ns: 0,
            start_ns: 0,
            end_ns: 1,
            menu: vec![],
        };
        assert!(s
            .validate_fault_plan(&FaultPlan::default().with_chaos(ChaosSpec {
                mean_gap_ns: 100,
                ..chaos.clone()
            }))
            .is_err());
        assert!(s
            .validate_fault_plan(&FaultPlan::default().with_chaos(ChaosSpec {
                menu: vec![Fault::ProcessCrash {
                    process: "p0".into(),
                    restart_delay_ns: 1,
                }],
                ..chaos
            }))
            .is_err());
    }

    #[test]
    fn fault_plan_builders() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let plan = plan.at(
            5,
            Fault::ProcessCrash {
                process: "p0".into(),
                restart_delay_ns: 7,
            },
        );
        assert!(!plan.is_empty());
        assert_eq!(plan.scheduled.len(), 1);
        assert_eq!(plan.scheduled[0].1.label(), "process_crash");
    }

    #[test]
    fn lookups() {
        let s = tiny();
        assert_eq!(s.service_index("a"), Some(0));
        assert_eq!(s.service_index("zz"), None);
        assert_eq!(s.host_index("h0"), Some(0));
        assert_eq!(s.backend_index("none"), None);
    }

    /// tiny() plus a three-replica "api" group (the names the `Replicate`
    /// transform produces: base, base_r1, base_r2).
    fn replicated() -> SystemSpec {
        let mut s = tiny();
        for name in ["api", "api_r1", "api_r2"] {
            let mut svc = ServiceSpec::new(name, 0);
            svc.methods
                .insert("M".into(), Behavior::build().compute(1000, 0).done());
            s.services.push(svc);
        }
        s
    }

    #[test]
    fn service_group_resolves_replicate_naming() {
        let s = replicated();
        assert_eq!(s.service_group("api"), vec![1, 2, 3]);
        assert_eq!(s.service_group("a"), vec![0]);
        assert_eq!(s.service_group("ghost"), Vec::<usize>::new());
        // `api_rX` with a non-numeric suffix is not a group member.
        let mut s = s;
        s.services.push(ServiceSpec::new("api_retry", 0));
        s.services.push(ServiceSpec::new("api_r", 0));
        assert_eq!(s.service_group("api"), vec![1, 2, 3]);
    }

    #[test]
    fn reconfig_plan_builders() {
        let plan = ReconfigPlan::none();
        assert!(plan.is_empty());
        let plan = plan.at(
            5,
            Change::RollingRestart {
                service: "api".into(),
                drain_ns: 1,
                restart_ns: 1,
                drainless: false,
            },
        );
        assert!(!plan.is_empty());
        assert_eq!(plan.scheduled[0].1.label(), "rolling_restart");
        assert_eq!(plan.scheduled[0].1.service(), "api");
        assert!(!ReconfigPlan::default()
            .with_autoscaler(AutoscalerSpec {
                service: "api".into(),
                min_replicas: 1,
                max_replicas: 3,
                high_util: 0.8,
                low_util: 0.2,
                ewma_alpha: 0.3,
                interval_ns: 100,
                cooldown_ns: 200,
                start_ns: 0,
                end_ns: 1000,
                drain_ns: 50,
            })
            .is_empty());
    }

    #[test]
    fn reconfig_unknown_service_gets_suggestion() {
        let s = replicated();
        let err = s
            .validate_change(&Change::Scale {
                service: "apj".into(),
                replicas: 2,
                drain_ns: 0,
            })
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown service apj; did you mean `api`?"),
            "{err}"
        );
        let err = s
            .validate_reconfig_plan(&ReconfigPlan::default().with_autoscaler(AutoscalerSpec {
                service: "api_rr1".into(),
                min_replicas: 1,
                max_replicas: 2,
                high_util: 0.8,
                low_util: 0.2,
                ewma_alpha: 0.3,
                interval_ns: 100,
                cooldown_ns: 0,
                start_ns: 0,
                end_ns: 1,
                drain_ns: 0,
            }))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown service api_rr1; did you mean `api_r1`?"),
            "{err}"
        );
    }

    #[test]
    fn reconfig_scale_bounds_rejected_per_value() {
        let s = replicated();
        // Below 1 replica: the error names the constraint.
        let err = s
            .validate_change(&Change::Scale {
                service: "api".into(),
                replicas: 0,
                drain_ns: 0,
            })
            .unwrap_err();
        assert!(err.to_string().contains("below 1 replica"), "{err}");
        // Beyond boot capacity.
        let err = s
            .validate_change(&Change::Scale {
                service: "api".into(),
                replicas: 4,
                drain_ns: 0,
            })
            .unwrap_err();
        assert!(err.to_string().contains("only 3 exist at boot"), "{err}");
        // The legal boundary values pass.
        for replicas in [1, 3] {
            s.validate_change(&Change::Scale {
                service: "api".into(),
                replicas,
                drain_ns: 0,
            })
            .unwrap();
        }
    }

    #[test]
    fn reconfig_canary_parameters_rejected_per_value() {
        let s = replicated();
        let canary = |fraction: f64, evaluate_ns: SimTime| Change::Canary {
            service: "api".into(),
            fraction,
            evaluate_ns,
            timeout_ns: None,
            retries: None,
        };
        for fraction in [0.0, 1.0, -0.2, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                s.validate_change(&canary(fraction, 100)).is_err(),
                "fraction {fraction} should be rejected"
            );
        }
        assert!(s.validate_change(&canary(0.25, 0)).is_err());
        s.validate_change(&canary(0.25, 100)).unwrap();
        // A singleton group has no baseline to compare against.
        let err = s
            .validate_change(&Change::Canary {
                service: "a".into(),
                fraction: 0.25,
                evaluate_ns: 100,
                timeout_ns: None,
                retries: None,
            })
            .unwrap_err();
        assert!(err.to_string().contains(">= 2 replicas"), "{err}");
    }

    #[test]
    fn reconfig_autoscaler_parameters_rejected_per_value() {
        let s = replicated();
        let base = AutoscalerSpec {
            service: "api".into(),
            min_replicas: 1,
            max_replicas: 3,
            high_util: 0.8,
            low_util: 0.2,
            ewma_alpha: 0.3,
            interval_ns: 100,
            cooldown_ns: 200,
            start_ns: 0,
            end_ns: 1000,
            drain_ns: 50,
        };
        let check = |a: AutoscalerSpec| {
            s.validate_reconfig_plan(&ReconfigPlan::default().with_autoscaler(a))
        };
        check(base.clone()).unwrap();
        assert!(check(AutoscalerSpec {
            min_replicas: 0,
            ..base.clone()
        })
        .is_err());
        assert!(check(AutoscalerSpec {
            min_replicas: 3,
            max_replicas: 2,
            ..base.clone()
        })
        .is_err());
        assert!(check(AutoscalerSpec {
            max_replicas: 4,
            ..base.clone()
        })
        .is_err());
        for (low, high) in [
            (0.8, 0.2),
            (0.5, 0.5),
            (-0.1, 0.5),
            (0.2, 1.5),
            (f64::NAN, 0.5),
        ] {
            assert!(
                check(AutoscalerSpec {
                    low_util: low,
                    high_util: high,
                    ..base.clone()
                })
                .is_err(),
                "watermarks ({low}, {high}) should be rejected"
            );
        }
        for ewma_alpha in [0.0, -0.2, 1.5, f64::NAN] {
            assert!(check(AutoscalerSpec {
                ewma_alpha,
                ..base.clone()
            })
            .is_err());
        }
        assert!(check(AutoscalerSpec {
            interval_ns: 0,
            ..base
        })
        .is_err());
    }

    #[test]
    fn change_labels() {
        let rr = |drainless: bool| Change::RollingRestart {
            service: "api".into(),
            drain_ns: 1,
            restart_ns: 1,
            drainless,
        };
        assert_eq!(rr(false).label(), "rolling_restart");
        assert_eq!(rr(true).label(), "drainless_restart");
        assert_eq!(
            Change::Scale {
                service: "api".into(),
                replicas: 2,
                drain_ns: 0
            }
            .label(),
            "scale"
        );
    }

    /// A `tiny()` spec with a second process on the same host and a
    /// replicated store, parameterized by consistency and failover.
    fn store_spec(
        replicas: u32,
        lag: (SimTime, SimTime),
        consistency: ConsistencyMode,
        failover: Option<FailoverSpec>,
    ) -> SystemSpec {
        let mut spec = tiny();
        spec.processes.push(ProcessSpec {
            name: "p1".into(),
            host: 0,
            gc: None,
        });
        spec.backends.push(BackendSpec {
            name: "db".into(),
            process: 0,
            kind: BackendRtKind::Store {
                read_latency_ns: 1_000,
                write_latency_ns: 1_000,
                cpu_per_op_ns: 100,
                cpu_per_item_ns: 0,
                replicas,
                replication_lag_ns: lag,
                consistency,
                failover,
            },
        });
        spec
    }

    #[test]
    fn inverted_replication_lag_rejected_per_value() {
        for (min, max) in [(10, 5), (1, 0), (u64::MAX, 0)] {
            let err = store_spec(1, (min, max), ConsistencyMode::ReadReplica, None)
                .validate()
                .unwrap_err();
            assert!(
                matches!(err, SimError::BadSpec(ref m) if m.contains("replication_lag_ns")),
                "lag ({min}, {max}): {err}"
            );
        }
        // Equal bounds (a fixed lag) and ordered bounds stay valid.
        store_spec(1, (5, 5), ConsistencyMode::ReadReplica, None)
            .validate()
            .unwrap();
        store_spec(1, (5, 10), ConsistencyMode::ReadReplica, None)
            .validate()
            .unwrap();
    }

    #[test]
    fn quorum_parameters_validated_per_value() {
        for (w, r) in [(0, 1), (1, 0), (3, 1), (1, 3)] {
            let err = store_spec(1, (0, 0), ConsistencyMode::Quorum { w, r }, None)
                .validate()
                .unwrap_err();
            assert!(
                matches!(err, SimError::BadSpec(ref m) if m.contains("quorum")),
                "quorum w={w} r={r}: {err}"
            );
        }
        store_spec(1, (0, 0), ConsistencyMode::Quorum { w: 2, r: 2 }, None)
            .validate()
            .unwrap();
    }

    #[test]
    fn failover_spec_validated_per_value() {
        let fo = |procs: Vec<usize>| FailoverSpec {
            replica_processes: procs,
            detection_ns: 1_000,
            election_ns: 1_000,
        };
        // Wrong replica-process count.
        let err = store_spec(2, (0, 0), ConsistencyMode::ReadReplica, Some(fo(vec![1])))
            .validate()
            .unwrap_err();
        assert!(matches!(err, SimError::BadSpec(ref m) if m.contains("replica processes")));
        // Out-of-range process index.
        let err = store_spec(1, (0, 0), ConsistencyMode::ReadReplica, Some(fo(vec![9])))
            .validate()
            .unwrap_err();
        assert!(matches!(err, SimError::BadSpec(ref m) if m.contains("out of range")));
        // Replica process == the store's own process.
        let err = store_spec(1, (0, 0), ConsistencyMode::ReadReplica, Some(fo(vec![0])))
            .validate()
            .unwrap_err();
        assert!(matches!(err, SimError::BadSpec(ref m) if m.contains("own process")));
        // Failover on an unreplicated store.
        let err = store_spec(0, (0, 0), ConsistencyMode::ReadReplica, Some(fo(vec![])))
            .validate()
            .unwrap_err();
        assert!(matches!(err, SimError::BadSpec(ref m) if m.contains("no replicas")));
        // Replica process on a different host.
        let mut cross = store_spec(1, (0, 0), ConsistencyMode::ReadReplica, Some(fo(vec![1])));
        cross.hosts.push(HostSpec {
            name: "h1".into(),
            cores: 4.0,
        });
        cross.processes[1].host = 1;
        let err = cross.validate().unwrap_err();
        assert!(matches!(err, SimError::BadSpec(ref m) if m.contains("share the primary's host")));
        // Instantaneous election.
        let err = store_spec(
            1,
            (0, 0),
            ConsistencyMode::ReadReplica,
            Some(FailoverSpec {
                replica_processes: vec![1],
                detection_ns: 0,
                election_ns: 0,
            }),
        )
        .validate()
        .unwrap_err();
        assert!(matches!(err, SimError::BadSpec(ref m) if m.contains("detection_ns")));
        // A well-formed failover spec passes.
        store_spec(1, (0, 0), ConsistencyMode::ReadReplica, Some(fo(vec![1])))
            .validate()
            .unwrap();
    }

    #[test]
    fn crash_plan_targeting_stranded_replicated_store_rejected() {
        let crash = |spec: &SystemSpec| {
            spec.validate_fault(&Fault::ProcessCrash {
                process: "p0".into(),
                restart_delay_ns: 1_000,
            })
        };
        // Replicas but no failover peers: the crash strands them.
        let spec = store_spec(2, (0, 0), ConsistencyMode::ReadReplica, None);
        let err = crash(&spec).unwrap_err();
        assert!(
            matches!(err, SimError::BadSpec(ref m) if m.contains("no reachable peer to promote")),
            "{err}"
        );
        // A promotable peer in another process makes the same plan valid.
        let spec = store_spec(
            1,
            (0, 0),
            ConsistencyMode::ReadReplica,
            Some(FailoverSpec {
                replica_processes: vec![1],
                detection_ns: 1_000,
                election_ns: 1_000,
            }),
        );
        crash(&spec).unwrap();
        // Crashing a process without the store is always fine.
        let spec = store_spec(2, (0, 0), ConsistencyMode::ReadReplica, None);
        spec.validate_fault(&Fault::ProcessCrash {
            process: "p1".into(),
            restart_delay_ns: 1_000,
        })
        .unwrap();
        // An unreplicated store never strands (durable, restarts with it).
        let spec = store_spec(0, (0, 0), ConsistencyMode::ReadReplica, None);
        crash(&spec).unwrap();
    }

    #[test]
    fn transport_defaults() {
        assert!(matches!(
            TransportSpec::grpc_default(),
            TransportSpec::Grpc { .. }
        ));
        assert!(matches!(
            TransportSpec::thrift_default(8),
            TransportSpec::Thrift { pool: 8, .. }
        ));
        assert!(matches!(
            TransportSpec::http_default(),
            TransportSpec::Http { .. }
        ));
        let c = ClientSpec::over(TransportSpec::grpc_default());
        assert_eq!(c.retries, 0);
        assert!(c.timeout_ns.is_none());
    }
}

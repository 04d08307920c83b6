//! The simulation world: event engine, request frames, client policies,
//! transports, backends, and GC.
//!
//! See the crate docs for the modeling overview. The implementation is a
//! discrete-event simulator: one timing wheel ([`evq::Wheel`]) ordered by
//! `(time, sequence)` dispatches into the [`Sim`] world state. Requests
//! execute as **frames** — explicit interpreter states over the behavior
//! programs of the workflow spec — so the simulator never recurses through
//! the service call graph on the machine stack.
//!
//! At boot the workflow `Behavior` programs are compiled into [`CProg`]s:
//! every dependency name is resolved to a dense `u32` client id, every target
//! method to a dense per-service method index, and nested bodies (branches,
//! loops, parallel blocks, cache-miss continuations) become [`ProgId`]
//! handles into a [`ProgArena`] (names live in a [`StrArena`]). The per-event
//! hot path therefore never hashes a string, never clones behavior text, and
//! reuses frame slots and interpreter stacks through free lists. Because all
//! interning is arena-index based (no `Rc`), a booted [`Sim`] is `Send` —
//! asserted at compile time below — so whole runs can move across threads.
//!
//! Mutable runtime state is stored in per-host [`HostLane`]s next to the
//! cluster-wide [`Shared`] tables, and every stochastic draw comes from a
//! deterministic per-entity RNG stream (see [`derive_seed`]). Lane events
//! and control-plane events share the one wheel, so a run is a single
//! sequential loop in global `(time, seq)` order (see `DESIGN.md` §6).

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use blueprint_trace::{SpanId, TraceCollector, TraceId};
use blueprint_workflow::{Behavior, CacheOp, DbOp, KeyExpr, Step};

use crate::evq::{self, Wheel};
use crate::host::{JobId, PsHost, NO_PROC};
use crate::metrics::{BackendStats, Metrics};
use crate::spec::{
    AutoscalerSpec, BackendRtKind, Change, ClientSpec, ConsistencyMode, DepBinding, Fault,
    FaultPlan, LbPolicy, ReconfigPlan, ShedSpec, SystemSpec, TransportSpec,
};
use crate::time::SimTime;
use crate::{HashMap, Result, SimError};

// ---------------------------------------------------------------------------
// Public configuration and results.
// ---------------------------------------------------------------------------

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; everything non-deterministic derives from it.
    pub seed: u64,
    /// Record spans for services that have tracing enabled into
    /// [`Sim::traces`] (each recorded span also runs the service's per-span
    /// CPU overhead).
    pub record_traces: bool,
    /// Hard cap on live frames; submissions beyond it fast-fail (memory
    /// guard under extreme overload).
    pub max_frames: usize,
    /// Faults to inject during the run. An empty plan (the default) adds
    /// zero events and RNG draws, so fault-free runs are byte-identical to
    /// a build without the engine.
    pub faults: FaultPlan,
    /// Live runtime changes to apply during the run (rolling deploys,
    /// scale-out/in, canary rollouts, autoscalers). Like `faults`, an empty
    /// plan (the default) adds zero events and RNG draws, so no-reconfig
    /// runs are byte-identical to a build without the engine.
    pub reconfig: ReconfigPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            record_traces: false,
            max_frames: 2_000_000,
            faults: FaultPlan::default(),
            reconfig: ReconfigPlan::default(),
        }
    }
}

/// The completion record of one entry-point request.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Entry name the request was submitted to.
    pub entry: String,
    /// Invoked method.
    pub method: String,
    /// Entity id the request concerned.
    pub entity: u64,
    /// Global submission sequence number (doubles as the write version the
    /// request stamped into stores).
    pub root_seq: u64,
    /// Submission time.
    pub submitted_ns: SimTime,
    /// Completion time.
    pub finished_ns: SimTime,
    /// Whether the request succeeded end-to-end.
    pub ok: bool,
    /// Highest data version observed by any read along the request
    /// (0 = nothing read). Used by the consistency experiments.
    pub observed_version: u64,
    /// Failure cause label for failed requests (`"timeout"`,
    /// `"breaker_open"`, `"overload"`, `"downstream"`, ...).
    pub failure: Option<&'static str>,
}

impl Completion {
    /// End-to-end latency.
    pub fn latency_ns(&self) -> SimTime {
        self.finished_ns.saturating_sub(self.submitted_ns)
    }
}

/// A pre-resolved entry point, for hot submission loops.
///
/// Obtained from [`Sim::entry_handle`]; submitting through a handle with
/// [`Sim::submit_handle`] skips the per-request name lookups entirely.
/// Handles are only meaningful for the `Sim` that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryHandle {
    entry: u32,
    method: u32,
}

// ---------------------------------------------------------------------------
// Deterministic per-entity RNG streams.
// ---------------------------------------------------------------------------

/// RNG stream domain: per-process draws (service-time branches, fail coins,
/// random keys, shed coins, link-loss coins).
pub const DOMAIN_PROC: u64 = 1;
/// RNG stream domain: per-client draws (random load balancing, retry jitter).
pub const DOMAIN_CLIENT: u64 = 2;
/// RNG stream domain: per-backend draws (evictions, replication lag).
pub const DOMAIN_BACKEND: u64 = 3;
/// RNG stream domain: reconfiguration draws (autoscaler tick jitter keyed
/// by scaler index; canary salts and tolerances on the plan-level stream,
/// entity id 0). Keeping every reconfig draw on this dedicated domain means
/// enabling a plan perturbs no workload stream — and an empty plan creates
/// no stream at all.
pub const DOMAIN_AUTOSCALER: u64 = 4;

/// splitmix64 finalizer (Steele/Lea/Flood mixing constants).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of one entity's private RNG stream from the run's root
/// seed, a domain tag, and the entity's dense id.
///
/// Two chained splitmix64 finalizer rounds: the first folds in the domain,
/// the second the entity id. For a fixed `(root_seed, domain)` the map
/// `entity_id -> seed` is a bijection (each round is invertible), so streams
/// within a domain can never collide. Because each entity draws only from
/// its own stream, its draw sequence depends solely on its own event order:
/// adding an entity, or reordering other entities' events, never perturbs
/// it.
pub fn derive_seed(root_seed: u64, domain: u64, entity_id: u64) -> u64 {
    let s1 = mix64(root_seed ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    mix64(s1 ^ entity_id.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

// ---------------------------------------------------------------------------
// Event-sequence key packing.
// ---------------------------------------------------------------------------

/// Event keys are `(time, seq)`; `seq` packs the dispatch context that
/// pushed the event (the home host of the lane event being dispatched, or
/// [`CTRL_CTX`] for the driver and control plane) into the high 16 bits over
/// that context's 48-bit push counter ([`HostLane::ev_seq`] or
/// `Sim::ctrl_seq`). Keys are unique, so ties at equal times resolve the
/// same way on every run.
const CTX_SHIFT: u32 = 48;
/// Low-bit mask for the per-context push counter.
const SEQ_MASK: u64 = (1 << CTX_SHIFT) - 1;
/// Context id of driver/control pushes; sorts after every host context at
/// equal times, so control events never preempt same-time lane events.
const CTRL_CTX: u64 = 0xFFFF;
/// Host ids must stay below [`CTRL_CTX`].
const MAX_HOSTS: usize = 0xFFFE;

// ---------------------------------------------------------------------------
// Internal identifiers and messages.
// ---------------------------------------------------------------------------

/// Generational frame handle. Frame tables are per-host, so the handle
/// carries the owning host: an event names its frame's home host (its key
/// context) and resolves the frame without a global table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct FrameId {
    host: u32,
    idx: u32,
    gen: u32,
}

/// What a call targets.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CallTarget {
    /// Another service instance's method (dense index into its method table).
    Service { svc: usize, method: u32 },
    /// A backend operation.
    Backend { backend: usize, op: BackendOp },
}

/// A backend operation descriptor (keys already resolved).
#[derive(Debug, Clone, Copy, PartialEq)]
enum BackendOp {
    CacheGet {
        key: u64,
    },
    CachePut {
        key: u64,
        version: u64,
    },
    CacheDelete {
        key: u64,
    },
    /// Multi-item cache op (extended interface); `write` selects push vs get.
    CacheMulti {
        key: u64,
        items: u32,
        write: bool,
        version: u64,
    },
    StoreRead {
        key: u64,
    },
    StoreWrite {
        key: u64,
        version: u64,
    },
    StoreScan {
        items: u32,
    },
    QueuePush,
    QueuePop,
}

/// Why a call attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallErr {
    Timeout,
    BreakerOpen,
    Overload,
    Downstream,
    Fault,
    QueueFull,
    /// The serving process crashed with the request in flight.
    Crash,
    /// The request was lost to a partition or lossy link.
    Unreachable,
    /// The backend rejected the request while browned out.
    Brownout,
    /// The propagated deadline was exhausted before the work could finish.
    Deadline,
    /// An adaptive admission controller rejected the arrival.
    Shed,
    /// The serving replica was draining (rolling deploy or scale-in); the
    /// request failed fast instead of landing on a stopping instance.
    Drain,
    /// A quorum-mode store op could not assemble its read/write quorum
    /// (too few members up and reachable).
    Quorum,
}

/// Result of a call attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CallOutcome {
    ok: bool,
    err: Option<CallErr>,
    /// Highest version observed downstream.
    version: u64,
    /// For cache gets: whether the key was present.
    cache_hit: Option<bool>,
}

impl CallErr {
    /// Stable label surfaced in completion records.
    fn label(self) -> &'static str {
        match self {
            CallErr::Timeout => "timeout",
            CallErr::BreakerOpen => "breaker_open",
            CallErr::Overload => "overload",
            CallErr::Downstream => "downstream",
            CallErr::Fault => "fault",
            CallErr::QueueFull => "queue_full",
            CallErr::Crash => "crash",
            CallErr::Unreachable => "unreachable",
            CallErr::Brownout => "brownout",
            CallErr::Deadline => "deadline",
            CallErr::Shed => "shed",
            CallErr::Drain => "drain",
            CallErr::Quorum => "quorum",
        }
    }
}

impl CallOutcome {
    fn success(version: u64) -> Self {
        CallOutcome {
            ok: true,
            err: None,
            version,
            cache_hit: None,
        }
    }

    fn failure(err: CallErr) -> Self {
        CallOutcome {
            ok: false,
            err: Some(err),
            version: 0,
            cache_hit: None,
        }
    }
}

/// Transport information needed to send a reply.
#[derive(Debug, Clone, Copy)]
struct ReplyRoute {
    /// Serialization CPU on the server side, ns (0 for local calls).
    serialize_ns: u64,
    /// One-way network latency, ns (0 for local calls).
    net_ns: u64,
}

/// A request in flight towards a service or backend.
#[derive(Debug, Clone, Copy)]
struct RequestMsg {
    caller: FrameId,
    seq: u32,
    attempt: u32,
    target: CallTarget,
    entity: u64,
    root_seq: u64,
    reply: ReplyRoute,
    parent_span: Option<(TraceId, SpanId)>,
    /// Absolute deadline carried with the request (deadline propagation);
    /// `None` when no hop on the path declared one.
    deadline_ns: Option<SimTime>,
}

// ---------------------------------------------------------------------------
// Compiled behavior programs.
// ---------------------------------------------------------------------------

/// Sentinel client id for dependencies with no binding.
const UNBOUND_CLIENT: u32 = u32::MAX;
/// Sentinel method index for calls to a method the target does not define.
const MISSING_METHOD: u32 = u32::MAX;

/// Handle of a compiled sub-program in the [`ProgArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProgId(u32);

/// Handle of a parallel-branch program list in the [`ProgArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProgListId(u32);

/// Handle of a replica target list in the [`ProgArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TargetsId(u32);

/// Handle of an interned name in the [`StrArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NameId(u32);

/// Owns every compiled program, parallel-branch list, and replica target
/// list. Nested bodies reference each other by [`ProgId`] instead of `Rc`,
/// which is what makes [`Sim`] `Send`: handles are plain `u32`s, sharing is
/// expressed as index aliasing, and the arena is dropped in one piece.
#[derive(Debug, Default)]
struct ProgArena {
    progs: Vec<CProg>,
    prog_lists: Vec<Box<[ProgId]>>,
    target_lists: Vec<Box<[(usize, u32)]>>,
}

impl ProgArena {
    fn alloc(&mut self, prog: CProg) -> ProgId {
        let id = ProgId(u32::try_from(self.progs.len()).expect("program arena exceeds u32 ids"));
        self.progs.push(prog);
        id
    }

    fn alloc_list(&mut self, progs: Vec<ProgId>) -> ProgListId {
        let id = ProgListId(
            u32::try_from(self.prog_lists.len()).expect("program-list arena exceeds u32 ids"),
        );
        self.prog_lists.push(progs.into_boxed_slice());
        id
    }

    fn alloc_targets(&mut self, targets: Vec<(usize, u32)>) -> TargetsId {
        let id = TargetsId(
            u32::try_from(self.target_lists.len()).expect("target-list arena exceeds u32 ids"),
        );
        self.target_lists.push(targets.into_boxed_slice());
        id
    }

    fn get(&self, id: ProgId) -> &CProg {
        &self.progs[id.0 as usize]
    }

    fn list(&self, id: ProgListId) -> &[ProgId] {
        &self.prog_lists[id.0 as usize]
    }

    fn targets(&self, id: TargetsId) -> &[(usize, u32)] {
        &self.target_lists[id.0 as usize]
    }
}

/// Interned names (service, method, entry, backend). Names are only looked
/// up on cold paths (completion records, user-facing lookups, traces), but
/// they must not be `Rc<str>` or the simulator stops being `Send`.
#[derive(Debug, Default)]
pub(crate) struct StrArena {
    names: Vec<Box<str>>,
}

impl StrArena {
    pub(crate) fn intern(&mut self, s: &str) -> NameId {
        // Linear scan: interning happens at boot over a few dozen distinct
        // names (plus a method name no entry knows, when a shed submission
        // names one); dedup keeps repeated method names cheap.
        if let Some(i) = self.names.iter().position(|n| &**n == s) {
            return NameId(i as u32);
        }
        let id = NameId(u32::try_from(self.names.len()).expect("name arena exceeds u32 ids"));
        self.names.push(s.into());
        id
    }

    pub(crate) fn get(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }
}

/// Where a compiled call step routes, resolved once at boot.
#[derive(Debug, Clone, Copy)]
enum CallDest {
    /// Dependency name had no binding; faults at call time.
    Unbound,
    /// Single service target.
    Svc { svc: usize, method: u32 },
    /// Replicated service target; one replica is picked per attempt.
    Replicated {
        policy: LbPolicy,
        targets: TargetsId,
    },
    /// Backend target.
    Backend { backend: usize },
    /// Step kind and binding kind disagree; faults at call time.
    Mismatch,
}

/// One compiled behavior step. Mirrors [`Step`] with all names resolved to
/// dense indices and nested bodies referenced by arena id — every step is
/// `Copy`, so the interpreter reads them straight out of the arena.
#[derive(Debug, Clone, Copy)]
enum CStep {
    Compute {
        cpu_ns: u64,
        alloc_bytes: u64,
    },
    Call {
        client: u32,
        dest: CallDest,
    },
    Cache {
        client: u32,
        dest: CallDest,
        op: CacheOp,
        key: KeyExpr,
    },
    CacheGetOrFetch {
        client: u32,
        dest: CallDest,
        key: KeyExpr,
        on_miss: ProgId,
    },
    Db {
        client: u32,
        dest: CallDest,
        op: DbOp,
        key: KeyExpr,
    },
    Queue {
        client: u32,
        dest: CallDest,
        op: BackendOp,
    },
    Parallel(ProgListId),
    Branch {
        prob: f64,
        then: ProgId,
        otherwise: ProgId,
    },
    Repeat {
        times: u32,
        body: ProgId,
    },
    Fail {
        prob: f64,
    },
}

/// A compiled behavior program.
#[derive(Debug)]
struct CProg {
    steps: Vec<CStep>,
}

/// Boot-time compiler from workflow [`Behavior`]s to [`CProg`]s.
///
/// Owns the interning tables — per-service method name → dense method index,
/// `(service, dep name)` → dense client id — and the [`ProgArena`] the
/// compiled programs accumulate into (handed to the [`Sim`] when boot
/// finishes). Every id resolved here is an array index at run time, and
/// arena ids are assigned in deterministic compile order.
struct ProgCompiler<'a> {
    spec: &'a SystemSpec,
    method_ids: Vec<BTreeMap<&'a str, u32>>,
    client_ids: HashMap<(usize, &'a str), u32>,
    arena: ProgArena,
}

impl<'a> ProgCompiler<'a> {
    fn new(spec: &'a SystemSpec) -> Self {
        let method_ids = spec
            .services
            .iter()
            .map(|s| {
                s.methods
                    .keys()
                    .enumerate()
                    .map(|(i, m)| (m.as_str(), i as u32))
                    .collect()
            })
            .collect();
        let mut client_ids = HashMap::default();
        let mut next = 0u32;
        for (si, s) in spec.services.iter().enumerate() {
            for dep in s.deps.keys() {
                client_ids.insert((si, dep.as_str()), next);
                next += 1;
            }
        }
        ProgCompiler {
            spec,
            method_ids,
            client_ids,
            arena: ProgArena::default(),
        }
    }

    fn client(&self, si: usize, dep: &str) -> u32 {
        self.client_ids
            .get(&(si, dep))
            .copied()
            .unwrap_or(UNBOUND_CLIENT)
    }

    fn method_id(&self, svc: usize, method: &str) -> u32 {
        self.method_ids[svc]
            .get(method)
            .copied()
            .unwrap_or(MISSING_METHOD)
    }

    /// Destination of a `Call` step (expects a service-kind binding).
    fn service_dest(&mut self, si: usize, dep: &str, method: &str) -> CallDest {
        match self.spec.services[si].deps.get(dep) {
            None => CallDest::Unbound,
            Some(DepBinding::Service { target, .. }) => CallDest::Svc {
                svc: *target,
                method: self.method_id(*target, method),
            },
            Some(DepBinding::ReplicatedService {
                targets, policy, ..
            }) => {
                let resolved = targets
                    .iter()
                    .map(|t| (*t, self.method_id(*t, method)))
                    .collect();
                CallDest::Replicated {
                    policy: *policy,
                    targets: self.arena.alloc_targets(resolved),
                }
            }
            Some(DepBinding::Backend { .. }) => CallDest::Mismatch,
        }
    }

    /// Destination of a cache/db/queue step (expects a backend binding).
    fn backend_dest(&self, si: usize, dep: &str) -> CallDest {
        match self.spec.services[si].deps.get(dep) {
            None => CallDest::Unbound,
            Some(DepBinding::Backend { target, .. }) => CallDest::Backend { backend: *target },
            Some(_) => CallDest::Mismatch,
        }
    }

    /// Compiles a behavior into the arena, returning its handle.
    fn compile(&mut self, si: usize, b: &Behavior) -> ProgId {
        let mut steps = Vec::with_capacity(b.steps.len());
        for s in &b.steps {
            steps.push(self.compile_step(si, s));
        }
        self.arena.alloc(CProg { steps })
    }

    fn compile_step(&mut self, si: usize, step: &Step) -> CStep {
        match step {
            Step::Compute {
                cpu_ns,
                alloc_bytes,
            } => CStep::Compute {
                cpu_ns: *cpu_ns,
                alloc_bytes: *alloc_bytes,
            },
            Step::Call { dep, method } => CStep::Call {
                client: self.client(si, dep),
                dest: self.service_dest(si, dep, method),
            },
            Step::Cache { dep, op, key } => CStep::Cache {
                client: self.client(si, dep),
                dest: self.backend_dest(si, dep),
                op: *op,
                key: *key,
            },
            Step::CacheGetOrFetch {
                cache,
                key,
                on_miss,
            } => CStep::CacheGetOrFetch {
                client: self.client(si, cache),
                dest: self.backend_dest(si, cache),
                key: *key,
                on_miss: self.compile(si, on_miss),
            },
            Step::Db { dep, op, key } => CStep::Db {
                client: self.client(si, dep),
                dest: self.backend_dest(si, dep),
                op: *op,
                key: *key,
            },
            Step::QueuePush { dep } => CStep::Queue {
                client: self.client(si, dep),
                dest: self.backend_dest(si, dep),
                op: BackendOp::QueuePush,
            },
            Step::QueuePop { dep } => CStep::Queue {
                client: self.client(si, dep),
                dest: self.backend_dest(si, dep),
                op: BackendOp::QueuePop,
            },
            Step::Parallel(branches) => {
                let mut compiled = Vec::with_capacity(branches.len());
                for b in branches {
                    compiled.push(self.compile(si, b));
                }
                CStep::Parallel(self.arena.alloc_list(compiled))
            }
            Step::Branch {
                prob,
                then,
                otherwise,
            } => CStep::Branch {
                prob: *prob,
                then: self.compile(si, then),
                otherwise: self.compile(si, otherwise),
            },
            Step::Repeat { times, body } => CStep::Repeat {
                times: *times,
                body: self.compile(si, body),
            },
            Step::Fail { prob } => CStep::Fail { prob: *prob },
        }
    }
}

// ---------------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------------

/// Interpreter context: a compiled program handle with a program counter.
#[derive(Debug, Clone, Copy)]
struct ExecCtx {
    prog: ProgId,
    pc: usize,
    /// Remaining extra iterations (for `Repeat`).
    repeat_left: u32,
}

/// The names and submission time of an entry request, as its completion
/// record reports them.
#[derive(Debug, Clone, Copy)]
struct EntryReq {
    entry: NameId,
    method: NameId,
    submitted_ns: SimTime,
}

/// Where a frame's completion goes.
#[derive(Debug, Clone, Copy)]
enum FrameKind {
    /// Workload-submitted entry request.
    Entry(EntryReq),
    /// Serving an RPC; the reply routes back to the caller's call attempt.
    Rpc {
        caller: FrameId,
        seq: u32,
        attempt: u32,
        reply: ReplyRoute,
    },
    /// A parallel branch of another frame on the same service.
    SubTask { parent: FrameId },
}

/// An in-flight call issued by a frame.
#[derive(Debug, Clone, Copy)]
struct OutstandingCall {
    seq: u32,
    attempt: u32,
    /// Dense client id of the dependency (UNBOUND_CLIENT if unbound).
    client: u32,
    /// Pre-resolved destination.
    dest: CallDest,
    backend_op: Option<BackendOp>,
    /// Chosen replica index of this attempt (outstanding bookkeeping).
    chosen: Option<usize>,
    /// Whether this attempt holds a Thrift connection.
    holds_conn: bool,
    /// Whether this attempt already concluded (timeout fired or response
    /// processed); stale events check this.
    concluded: bool,
    /// For cache get-or-fetch: what to run on a miss.
    on_miss: Option<ProgId>,
    /// Request waiting for a free Thrift connection.
    queued_msg: Option<RequestMsg>,
    /// Absolute deadline this attempt propagated downstream (set when the
    /// client has a deadline policy); classifies its timeout as `Deadline`.
    attempt_deadline: Option<SimTime>,
}

/// One executing request (or sub-request) on a service.
#[derive(Debug)]
struct Frame {
    gen: u32,
    service: usize,
    stack: Vec<ExecCtx>,
    entity: u64,
    root_seq: u64,
    kind: FrameKind,
    call: Option<OutstandingCall>,
    next_call_seq: u32,
    pending_children: u32,
    child_failed: bool,
    failed: bool,
    last_err: Option<CallErr>,
    observed_version: u64,
    /// Whether any read (cache/store) has completed in this frame; controls
    /// which version a cache fill stores.
    did_read: bool,
    span: Option<(TraceId, SpanId)>,
    /// Whether this frame owns (must end) its span.
    span_owned: bool,
    /// Whether the service admission counter was incremented for this frame.
    counted_admission: bool,
    /// Absolute deadline inherited from the inbound request, if any hop on
    /// the path declared deadline propagation.
    deadline_ns: Option<SimTime>,
    /// Arrival time at the serving service (sojourn-delay input for the
    /// adaptive admission controller).
    admitted_ns: SimTime,
}

// ---------------------------------------------------------------------------
// Events.
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Ev {
    HostCheck {
        host: usize,
        gen: u64,
    },
    Resume {
        frame: FrameId,
    },
    Timeout {
        frame: FrameId,
        seq: u32,
        attempt: u32,
    },
    RetryFire {
        frame: FrameId,
        seq: u32,
    },
    /// A request arrives at its target; `msg` indexes [`Sim::msgs`].
    DeliverRequest {
        msg: u32,
    },
    DeliverResponse {
        frame: FrameId,
        seq: u32,
        attempt: u32,
        outcome: CallOutcome,
    },
    HogEnd {
        host: usize,
        milli_cores: u64,
    },
    ConnFreed {
        client: u32,
    },
    ReplicaApply {
        backend: usize,
        /// Member index (0 = boot primary; replicas are members 1..).
        member: usize,
        key: u64,
        version: u64,
        /// Store generation at scheduling time; a failover in between
        /// drops the apply (in-flight async replication dies with the old
        /// primary).
        gen: u64,
    },
    /// A store failover election fires after detection + election delays
    /// (ignored when `gen` is stale or the primary recovered in time).
    StoreFailover {
        backend: usize,
        gen: u64,
    },
    /// A scheduled fault fires.
    FaultFire {
        fault: RFault,
    },
    /// A crashed process comes back up (ignored if `gen` is stale).
    ProcRestart {
        proc: usize,
        gen: u64,
    },
    /// The chaos process draws and injects its next fault.
    ChaosFire,
    /// A scheduled reconfiguration change starts (indexes
    /// `ReconfigRt::changes`).
    ReconfigFire {
        idx: usize,
    },
    /// A drain budget expired (indexes `ReconfigRt::drains`): stop or
    /// deactivate the drained replica and run the follow-up.
    DrainDone {
        token: usize,
    },
    /// A rolling deploy's restarted replica should be healthy again; verify
    /// and advance to the next replica (indexes `ReconfigRt::rollings`).
    RollAdvance {
        rolling: usize,
    },
    /// A deterministic autoscaler takes its next utilization observation
    /// (indexes `ReconfigRt::scalers`).
    AutoscaleTick {
        scaler: usize,
    },
    /// A canary's observation window closed: compare error rates and
    /// promote or roll back (indexes `ReconfigRt::canaries`).
    CanaryEval {
        canary: usize,
    },
}

/// Names of the event kinds, in [`EngineProfile::dispatched`] order.
pub const EV_KINDS: [&str; 18] = [
    "HostCheck",
    "Resume",
    "Timeout",
    "RetryFire",
    "DeliverRequest",
    "DeliverResponse",
    "HogEnd",
    "ConnFreed",
    "ReplicaApply",
    "StoreFailover",
    "FaultFire",
    "ProcRestart",
    "ChaosFire",
    "ReconfigFire",
    "DrainDone",
    "RollAdvance",
    "AutoscaleTick",
    "CanaryEval",
];

impl Ev {
    /// Index of this event's kind in [`EV_KINDS`].
    fn kind(&self) -> usize {
        match self {
            Ev::HostCheck { .. } => 0,
            Ev::Resume { .. } => 1,
            Ev::Timeout { .. } => 2,
            Ev::RetryFire { .. } => 3,
            Ev::DeliverRequest { .. } => 4,
            Ev::DeliverResponse { .. } => 5,
            Ev::HogEnd { .. } => 6,
            Ev::ConnFreed { .. } => 7,
            Ev::ReplicaApply { .. } => 8,
            Ev::StoreFailover { .. } => 9,
            Ev::FaultFire { .. } => 10,
            Ev::ProcRestart { .. } => 11,
            Ev::ChaosFire => 12,
            Ev::ReconfigFire { .. } => 13,
            Ev::DrainDone { .. } => 14,
            Ev::RollAdvance { .. } => 15,
            Ev::AutoscaleTick { .. } => 16,
            Ev::CanaryEval { .. } => 17,
        }
    }
}

/// The event loop's self-profile: deterministic counters that are always
/// on (a few integer adds per event) and feed nothing back into the run or
/// its reports. Read it through [`Sim::engine_profile`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Events dispatched per kind, indexed like [`EV_KINDS`].
    pub dispatched: [u64; EV_KINDS.len()],
    /// Dispatched `HostCheck`s that found their host re-armed since they
    /// were scheduled, and so did nothing.
    pub stale_host_checks: u64,
    /// High-water mark of pending events.
    pub pending_max: usize,
}

/// Request messages on the wire, addressed by [`Ev::DeliverRequest`]: an
/// index instead of the message itself keeps every queued event at 64
/// bytes. Slots recycle through a free list.
#[derive(Default)]
struct MsgSlab {
    msgs: Vec<RequestMsg>,
    free: Vec<u32>,
}

impl MsgSlab {
    fn put(&mut self, msg: RequestMsg) -> u32 {
        if let Some(i) = self.free.pop() {
            self.msgs[i as usize] = msg;
            i
        } else {
            let i = u32::try_from(self.msgs.len()).expect("message slab exceeds u32 slots");
            self.msgs.push(msg);
            i
        }
    }

    fn get(&self, i: u32) -> &RequestMsg {
        &self.msgs[i as usize]
    }

    /// Copies the message out and frees its slot.
    fn take(&mut self, i: u32) -> RequestMsg {
        self.free.push(i);
        self.msgs[i as usize]
    }
}

/// A fault with every name resolved to a dense index at boot (or at
/// injection time for driver-injected faults).
#[derive(Debug, Clone)]
enum RFault {
    Crash {
        proc: usize,
        restart_ns: SimTime,
    },
    HostDown {
        host: usize,
        down_ns: SimTime,
    },
    /// Partition and link degradation share one runtime shape: a partition
    /// is a link with `loss == 1.0` and no extra latency.
    Link {
        a: usize,
        b: usize,
        dur: SimTime,
        extra_ns: u64,
        loss: f64,
    },
    Brownout {
        backend: usize,
        dur: SimTime,
        slow: f64,
        unavailable: bool,
    },
}

/// Active degradation of one directed process pair. Entries persist after
/// expiry (checked against `until`) but are inert.
#[derive(Debug, Clone, Copy)]
struct LinkFault {
    until: SimTime,
    extra_ns: u64,
    loss: f64,
}

/// Runtime state of the chaos process. Its RNG is separate from the main
/// simulation RNG so chaos never perturbs workload randomness.
struct ChaosRt {
    rng: SmallRng,
    menu: Vec<RFault>,
    mean_gap_ns: SimTime,
    end_ns: SimTime,
}

// ---------------------------------------------------------------------------
// Runtime reconfiguration (rolling deploys, scaling, canaries).
// ---------------------------------------------------------------------------

/// A reconfiguration change with its service group resolved to dense
/// indices (at boot for scheduled plans, at call time for
/// [`Sim::apply_change`]).
#[derive(Debug, Clone)]
enum RChange {
    Rolling {
        group: Vec<usize>,
        drain_ns: SimTime,
        restart_ns: SimTime,
        drainless: bool,
    },
    Scale {
        group: Vec<usize>,
        replicas: usize,
        drain_ns: SimTime,
    },
    Canary {
        group: Vec<usize>,
        fraction: f64,
        evaluate_ns: SimTime,
        timeout_ns: Option<SimTime>,
        retries: Option<u32>,
    },
}

/// A rolling deploy in progress: one replica of `group` at a time is
/// drained (unless `drainless`), stopped, restarted, and verified healthy
/// before the next begins.
#[derive(Debug)]
struct RollingRt {
    group: Vec<usize>,
    drain_ns: SimTime,
    restart_ns: SimTime,
    drainless: bool,
    /// Position in `group` currently being processed.
    next: usize,
}

/// What happens when a drain budget expires.
#[derive(Debug, Clone, Copy)]
enum DrainFollow {
    /// Rolling deploy: stop the process, restart it, then advance.
    Rolling(usize),
    /// Scale-in: deactivate the replica (its process stays up; any
    /// stragglers past the budget simply finish off-rotation).
    Deactivate,
}

/// One drain in progress. Tokens (indices into `ReconfigRt::drains`) are
/// stable: entries are push-only and marked `done` instead of removed.
#[derive(Debug)]
struct DrainRt {
    svc: usize,
    follow: DrainFollow,
    done: bool,
}

/// A deterministic autoscaler instance. All draws come from its private
/// [`DOMAIN_AUTOSCALER`] stream (keyed by scaler index + 1), so scaling
/// decisions never perturb workload randomness.
struct ScalerRt {
    spec: AutoscalerSpec,
    group: Vec<usize>,
    /// Utilization EWMA; seeded by the first observation (`primed`).
    ewma: f64,
    primed: bool,
    /// No scaling action before this time (hysteresis cooldown).
    cooldown_until: SimTime,
    rng: SmallRng,
}

/// A canary rollout in progress: the group's highest replica runs with
/// mutated outbound client wiring while a deterministic traffic fraction is
/// routed to it.
struct CanaryRt {
    /// The canary service (highest group index).
    svc: usize,
    /// Baseline group members (everything but the canary).
    baseline: Vec<usize>,
    timeout_ns: Option<SimTime>,
    retries: Option<u32>,
    /// `(client id, original spec)` for rollback.
    saved: Vec<(usize, ClientSpec)>,
    /// Completion counters at canary start (ok, err), canary then baseline.
    can0: (u64, u64),
    base0: (u64, u64),
    done: bool,
}

/// Deterministic canary routing state, read by LB picks.
#[derive(Debug, Clone, Copy)]
struct CanaryRoute {
    /// Seeded salt hashed with the request's root sequence number, so one
    /// request keeps its canary/baseline assignment across retries.
    salt: u64,
    /// Route to the canary when `mix64(salt ^ root_seq) < threshold`.
    threshold: u64,
}

/// All reconfiguration runtime state. Boxed inside [`Sim`] and `None`
/// until a plan is scheduled or [`Sim::apply_change`] is first called — an
/// empty plan allocates nothing and draws nothing.
struct ReconfigRt {
    /// Plan-level RNG stream ([`DOMAIN_AUTOSCALER`], entity 0): canary
    /// salts and promote-tolerance draws.
    rng: SmallRng,
    /// Resolved changes; `Ev::ReconfigFire` indexes this.
    changes: Vec<RChange>,
    rollings: Vec<RollingRt>,
    drains: Vec<DrainRt>,
    scalers: Vec<ScalerRt>,
    canaries: Vec<CanaryRt>,
}

impl ReconfigRt {
    fn new(root_seed: u64) -> Self {
        ReconfigRt {
            rng: SmallRng::seed_from_u64(derive_seed(root_seed, DOMAIN_AUTOSCALER, 0)),
            changes: Vec::new(),
            rollings: Vec::new(),
            drains: Vec::new(),
            scalers: Vec::new(),
            canaries: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime structures.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    Closed,
    Open {
        until: SimTime,
    },
    /// Probing: at most `half_open_probes` calls are admitted; all must
    /// succeed to close, any failure re-opens.
    HalfOpen {
        admitted: u32,
        successes: u32,
    },
}

/// Per-(service, dep) client runtime: breaker, pool, balancer state.
/// Addressed by dense client id assigned at boot.
#[derive(Debug)]
struct ClientRt {
    /// Service that owns this client (its process runs the client-side CPU).
    owner: usize,
    spec: ClientSpec,
    // Circuit breaker sliding window.
    window: VecDeque<bool>,
    window_failures: u32,
    breaker: BreakerState,
    // Thrift connection pool.
    conns_in_use: u32,
    waiters: VecDeque<(FrameId, u32, u32)>,
    // Balancer state.
    rr: usize,
    outstanding: Vec<u32>,
    /// Retry-budget token bucket; only meaningful when
    /// `spec.retry_budget` is set (stays 0.0 otherwise).
    budget_tokens: f64,
    /// Private RNG stream ([`DOMAIN_CLIENT`], keyed by dense client id):
    /// random load balancing, retry jitter.
    rng: SmallRng,
}

/// Per-process runtime (GC state).
#[derive(Debug)]
struct ProcRt {
    host: usize,
    heap: u64,
    in_gc: bool,
    gc_started_ns: SimTime,
    /// The in-progress GC pause job (cancelled if the process crashes).
    gc_job: Option<JobId>,
    /// Private RNG stream ([`DOMAIN_PROC`], keyed by dense process id):
    /// service-time branches, fail coins, random keys, shed coins, and
    /// link-loss coins for requests this process sends.
    rng: SmallRng,
}

/// Adaptive admission-controller state (lowered from [`ShedSpec`]). The
/// controller is a proportional loop: completions update a sojourn-delay
/// EWMA, and the shed probability moves toward the error between the EWMA
/// and the target. Arrivals draw against the probability only while it is
/// positive, so an idle controller costs zero RNG draws.
#[derive(Debug, Clone)]
struct ShedCtl {
    spec: ShedSpec,
    /// EWMA of request sojourn delay, ns. Only meaningful once `primed`.
    ewma_ns: f64,
    /// Current shed probability in `[0, spec.max_shed]`.
    p: f64,
    /// Whether `ewma_ns` holds a real sample yet. The EWMA is seeded with
    /// the first observation instead of decaying up from 0.0 — a zero seed
    /// drags early observations toward an artificial cold value, so the
    /// controller under-sheds exactly when overload begins (at startup and
    /// right after a crash reset).
    primed: bool,
}

impl ShedCtl {
    fn new(spec: ShedSpec) -> Self {
        ShedCtl {
            spec,
            ewma_ns: 0.0,
            p: 0.0,
            primed: false,
        }
    }

    /// Folds one completed request's sojourn delay into the controller.
    fn observe(&mut self, sojourn_ns: SimTime) {
        let sample = sojourn_ns as f64;
        if self.primed {
            let a = self.spec.ewma_alpha.clamp(0.0, 1.0);
            self.ewma_ns = (1.0 - a) * self.ewma_ns + a * sample;
        } else {
            self.ewma_ns = sample;
            self.primed = true;
        }
        let target = self.spec.target_delay_ns.max(1) as f64;
        let err = (self.ewma_ns - target) / target;
        self.p = (self.p + self.spec.gain * err).clamp(0.0, self.spec.max_shed.clamp(0.0, 1.0));
    }

    /// Cold restart (process crash): forget the delay estimate and shed
    /// probability; the next observation re-seeds the EWMA.
    fn reset(&mut self) {
        self.ewma_ns = 0.0;
        self.p = 0.0;
        self.primed = false;
    }
}

/// Per-service runtime. Methods are dense: index `i` of `methods` and
/// `method_names` is the method id used in [`CallTarget::Service`].
struct SvcRt {
    methods: Vec<ProgId>,
    method_names: Vec<NameId>,
    active: u32,
    max_concurrent: u32,
    /// Requests served (frames created) by this service.
    served: u64,
    traced: bool,
    overhead_prog: Option<ProgId>,
    /// Adaptive admission controller; `None` keeps the plain
    /// `max_concurrent` fast-fail and costs nothing.
    shed: Option<ShedCtl>,
    /// Completed entry/RPC frames that succeeded (canary comparisons).
    done_ok: u64,
    /// Completed frames that failed.
    done_err: u64,
}

/// Per-entry-point runtime: the shim service plus its method name table.
struct EntryRt {
    name: NameId,
    svc: usize,
    methods: BTreeMap<String, u32>,
}

/// Cache runtime with O(1) random eviction.
#[derive(Debug, Default)]
struct CacheRt {
    map: HashMap<u64, (usize, u64)>,
    keys: Vec<u64>,
}

impl CacheRt {
    fn get(&self, key: u64) -> Option<u64> {
        self.map.get(&key).map(|(_, v)| *v)
    }

    /// Inserts, evicting random keys beyond `capacity`; returns evictions.
    fn put(&mut self, key: u64, version: u64, capacity: u64, rng: &mut SmallRng) -> u64 {
        if let Some(slot) = self.map.get_mut(&key) {
            slot.1 = version;
            return 0;
        }
        let mut evictions = 0;
        while self.keys.len() as u64 >= capacity && !self.keys.is_empty() {
            let victim_idx = rng.gen_range(0..self.keys.len());
            let victim = self.keys.swap_remove(victim_idx);
            self.map.remove(&victim);
            if let Some(&moved) = self.keys.get(victim_idx) {
                self.map.get_mut(&moved).expect("moved key present").0 = victim_idx;
            }
            evictions += 1;
        }
        self.map.insert(key, (self.keys.len(), version));
        self.keys.push(key);
        evictions
    }

    fn delete(&mut self, key: u64) {
        if let Some((idx, _)) = self.map.remove(&key) {
            self.keys.swap_remove(idx);
            if let Some(&moved) = self.keys.get(idx) {
                self.map.get_mut(&moved).expect("moved key present").0 = idx;
            }
        }
    }

    fn flush(&mut self) {
        self.map.clear();
        self.keys.clear();
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// One member of a replicated store: its key→version map plus the applied
/// bookkeeping failover elections rank candidates by.
#[derive(Debug, Default)]
struct StoreMember {
    map: HashMap<u64, u64>,
    /// Owning process (the store's own process unless a failover spec
    /// placed this member elsewhere). Same host as the primary's process by
    /// validation, so every member stays on one simulation lane.
    proc: u32,
    /// Applied write count (election tie-break).
    applied: u64,
    /// Highest version ever applied (election rank).
    watermark: u64,
}

/// Store runtime. Member 0 is the boot primary; `primary` points at the
/// *current* primary member, which moves only through failover elections.
#[derive(Debug, Default)]
struct StoreRt {
    members: Vec<StoreMember>,
    /// Index of the current primary member.
    primary: usize,
    /// Election generation: bumped per promotion; stale scheduled elections
    /// and in-flight replica applies from an older generation are dropped.
    gen: u64,
    /// Round-robin cursor over non-primary members (replica reads).
    rr: usize,
    /// Failover machinery enabled (spec had a `FailoverSpec`). When false
    /// the store behaves exactly as before this field existed: no extra
    /// events, no extra RNG draws, unavailable while its process is down.
    armed: bool,
    /// Detection + election delays (ns) when armed.
    detection_ns: SimTime,
    election_ns: SimTime,
    /// An election event is already scheduled (dedup guard).
    election_pending: bool,
    /// Session mode: entity → lowest version its reads may observe
    /// (read-your-writes floor, raised by both acked writes and reads).
    session_floor: HashMap<u64, u64>,
}

impl StoreRt {
    /// The current primary's version for a key (0 when absent).
    fn primary_version(&self, key: u64) -> u64 {
        self.members[self.primary]
            .map
            .get(&key)
            .copied()
            .unwrap_or(0)
    }

    /// Non-primary member indices in index order (replica read candidates).
    fn peer_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.members.len()).filter(move |&i| i != self.primary)
    }
}

/// Backend runtime. Stats accumulate densely here and are mirrored into the
/// name-keyed [`Metrics`] map at the end of each `run_until` slice.
struct BackendRt {
    name: NameId,
    kind: BackendRtKind,
    cache: CacheRt,
    store: StoreRt,
    queue: VecDeque<u64>,
    stats: BackendStats,
    /// Whether `stats` changed since they were last mirrored into
    /// [`Metrics`] (a backend's entry appears with its first op).
    stats_dirty: bool,
    /// Brownout window end (0 = no brownout ever injected).
    brownout_until: SimTime,
    /// Service-time multiplier while `now < brownout_until`.
    brownout_slow: f64,
    /// Reject requests outright while `now < brownout_until`.
    brownout_unavailable: bool,
    /// Private RNG stream ([`DOMAIN_BACKEND`], keyed by dense backend id):
    /// cache evictions, replication-lag draws.
    rng: SmallRng,
}

/// Continuation attached to a CPU job.
enum JobCont {
    /// Resume a frame's interpreter.
    FrameStep(FrameId),
    /// Client-side serialization finished; deliver after `net_ns`.
    SendRequest(RequestMsg, u64),
    /// Server-side serialization finished; deliver response after `net_ns`.
    SendResponse {
        frame: FrameId,
        seq: u32,
        attempt: u32,
        outcome: CallOutcome,
        net_ns: u64,
    },
    /// Backend CPU finished; apply the op and respond after `latency_ns`.
    BackendExec { req: RequestMsg, latency_ns: u64 },
    /// GC pause finished.
    GcEnd { proc: usize },
}

// ---------------------------------------------------------------------------
// The simulator: cluster-wide tables and per-host lanes.
// ---------------------------------------------------------------------------

/// Cluster-wide state: tables fixed at boot (programs, names, location
/// tables) plus the control plane's view of the cluster (`proc_down`,
/// `link_faults`, rotation state), which lane events read and control events
/// write.
struct Shared {
    /// All compiled behavior programs (see [`ProgArena`]).
    progs: ProgArena,
    /// Interned names (see [`StrArena`]).
    names: StrArena,
    /// Pre-interned `"rpc"` span-operation name.
    rpc_name: NameId,
    record_traces: bool,
    gc_specs: Vec<Option<crate::spec::GcSpec>>,
    svc_names: Vec<NameId>,

    // Entity → (home host, index within that host's lane) location tables,
    // indexed by dense global id. Global ids remain the currency of the
    // interpreter (programs, messages, events); lanes are a storage layout.
    svc_loc: Vec<(u32, u32)>,
    proc_loc: Vec<(u32, u32)>,
    client_loc: Vec<(u32, u32)>,
    backend_loc: Vec<(u32, u32)>,
    /// Service → owning process (global ids).
    svc_proc: Vec<u32>,
    /// Backend → owning process (global ids).
    backend_proc: Vec<u32>,
    /// Client → owning service (global ids).
    client_owner: Vec<u32>,
    /// Process → host.
    proc_host: Vec<u32>,

    // Fault state: written by control events only.
    /// Whether each process is currently crashed.
    proc_down: Vec<bool>,
    /// Crash generation per process; guards stale `ProcRestart` events.
    proc_gen: Vec<u64>,
    /// Active (or expired-but-inert) link faults, keyed by directed
    /// (src process, dst process). Lookup-only, so map order never matters.
    link_faults: HashMap<(usize, usize), LinkFault>,

    // Reconfiguration state: written by control events only, and read on
    // hot paths only behind `reconfig_on` — a run with an empty plan never
    // branches past the single bool.
    /// Whether any reconfiguration is (or ever was) in effect.
    reconfig_on: bool,
    /// Service in the load-balancer rotation (scale state). All true at
    /// boot; scaled-in replicas turn false.
    svc_active: Vec<bool>,
    /// Service draining: load balancers route away and new deliveries fail
    /// fast with `"drain"`; in-flight work keeps running.
    svc_draining: Vec<bool>,
    /// Per-service canary routing (set on the canary replica itself).
    canary_route: Vec<Option<CanaryRoute>>,
}

/// All mutable runtime state homed on one host: its CPU scheduler, the
/// processes/services/clients/backends that live there, its frame table, and
/// its event-key push counter.
struct HostLane {
    ps: PsHost<JobCont>,
    /// Bumped on every scheduler perturbation; guards stale `HostCheck`s.
    host_gen: u64,
    procs: Vec<ProcRt>,
    services: Vec<SvcRt>,
    clients: Vec<ClientRt>,
    backends: Vec<BackendRt>,

    frames: Vec<Option<Frame>>,
    frame_gens: Vec<u32>,
    free_frames: Vec<u32>,
    /// Live frames homed here (summed across lanes for admission).
    live: usize,
    /// Recycled interpreter stacks of completed frames.
    stack_pool: Vec<Vec<ExecCtx>>,

    /// Push counter for events generated while dispatching this host's
    /// events (the low 48 bits of their `(time, seq)` keys).
    ev_seq: u64,
}

impl HostLane {
    /// Installs a frame into a recycled or fresh slot. `host` is this lane's
    /// own host id (lanes do not know their position).
    fn insert_frame(&mut self, host: u32, frame: Frame) -> FrameId {
        self.live += 1;
        if let Some(idx) = self.free_frames.pop() {
            let gen = self.frame_gens[idx as usize];
            self.frames[idx as usize] = Some(Frame { gen, ..frame });
            FrameId { host, idx, gen }
        } else {
            // Cannot overflow for entry frames (`max_frames` is capped at
            // u32::MAX in `Sim::new`), but internal sub-frames are not
            // admission-counted, so convert checked rather than truncate.
            let idx = u32::try_from(self.frames.len())
                .expect("frame table exceeds u32 index space (see MAX_FRAMES_CAP)");
            self.frames.push(Some(frame));
            self.frame_gens.push(0);
            FrameId { host, idx, gen: 0 }
        }
    }

    fn frame_mut(&mut self, id: FrameId) -> Option<&mut Frame> {
        match self.frames.get_mut(id.idx as usize) {
            Some(Some(f)) if f.gen == id.gen => Some(f),
            _ => None,
        }
    }

    /// Removes a frame, recycling its slot and interpreter stack.
    fn take_frame(&mut self, id: FrameId) -> Option<Frame> {
        let slot = self.frames.get_mut(id.idx as usize)?;
        if slot.as_ref().map(|f| f.gen == id.gen).unwrap_or(false) {
            let mut frame = slot.take().expect("generation checked");
            self.frame_gens[id.idx as usize] = id.gen.wrapping_add(1);
            self.free_frames.push(id.idx);
            self.live -= 1;
            let mut stack = std::mem::take(&mut frame.stack);
            stack.clear();
            self.stack_pool.push(stack);
            Some(frame)
        } else {
            None
        }
    }
}

/// Dispatch context of an event: the host whose lane it runs on (and whose
/// push counter keys the events it schedules), or [`CTRL_CTX`] for
/// control-plane events, which touch cluster-wide state.
///
/// Frame ids carry their home host, so this never needs to resolve
/// (possibly dead) frames.
fn ev_ctx(sh: &Shared, msgs: &MsgSlab, ev: &Ev) -> u64 {
    let host = match ev {
        Ev::HostCheck { host, .. } | Ev::HogEnd { host, .. } => *host as u32,
        Ev::Resume { frame }
        | Ev::Timeout { frame, .. }
        | Ev::RetryFire { frame, .. }
        | Ev::DeliverResponse { frame, .. } => frame.host,
        Ev::DeliverRequest { msg } => match msgs.get(*msg).target {
            CallTarget::Service { svc, .. } => sh.proc_host[sh.svc_proc[svc] as usize],
            CallTarget::Backend { backend, .. } => sh.proc_host[sh.backend_proc[backend] as usize],
        },
        Ev::ConnFreed { client } => {
            let owner = sh.client_owner[*client as usize] as usize;
            sh.proc_host[sh.svc_proc[owner] as usize]
        }
        Ev::ReplicaApply { backend, .. } => sh.proc_host[sh.backend_proc[*backend] as usize],
        // Control plane: faults, restarts, chaos draws, store elections, and
        // reconfiguration mutate cluster-wide state (`proc_down`,
        // `link_faults`, `backend_proc`, rotation state, client rewiring).
        Ev::FaultFire { .. }
        | Ev::ProcRestart { .. }
        | Ev::ChaosFire
        | Ev::ReconfigFire { .. }
        | Ev::DrainDone { .. }
        | Ev::RollAdvance { .. }
        | Ev::AutoscaleTick { .. }
        | Ev::CanaryEval { .. }
        | Ev::StoreFailover { .. } => return CTRL_CTX,
    };
    host as u64
}

/// A running simulated deployment.
pub struct Sim {
    cfg: SimConfig,
    now: SimTime,
    /// Key context of pushes right now: the home host of the lane event
    /// being dispatched, else [`CTRL_CTX`] (driver calls, control events).
    ctx: u64,
    /// Push counter for driver/control events (the [`CTRL_CTX`] context).
    ctrl_seq: u64,
    /// Every pending event, lane and control alike.
    events: Wheel<Ev>,
    /// Payloads of pending [`Ev::DeliverRequest`]s.
    msgs: MsgSlab,
    /// Reused buffer for the continuations a `HostCheck` collects.
    due: Vec<JobCont>,
    profile: EngineProfile,

    sh: Shared,
    /// Per-host mutable runtime, indexed by host id.
    lanes: Vec<HostLane>,

    host_names: Vec<String>,
    proc_names: Vec<String>,
    entries: BTreeMap<String, u32>,
    entry_rts: Vec<EntryRt>,
    next_root: u64,
    /// Entry requests finished since the last [`Sim::drain_completions`].
    completions: Vec<Completion>,

    /// Chaos process, when configured (its RNG stream is separate from the
    /// per-entity streams, as before).
    chaos: Option<ChaosRt>,
    /// Reconfiguration runtime; `None` until a plan is scheduled or
    /// [`Sim::apply_change`] is first called.
    reconfig: Option<Box<ReconfigRt>>,

    /// Aggregate metrics of the run.
    pub metrics: Metrics,
    /// Trace collector (populated when tracing is enabled).
    pub traces: TraceCollector,

    spec_name: String,
}

/// `Sim` is `Send` by construction: program interning is arena-index based
/// (no `Rc`), so a run can migrate across threads (`par_run` workers). This
/// assert is the compile-time pin — reintroducing an `Rc` (or any other
/// `!Send` field) fails the build here.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<Sim>();

/// Frame slots are addressed by `u32` indices (`FrameId::idx`), so the frame
/// table is hard-capped; [`Sim::new`] rejects a larger `max_frames` loudly
/// instead of letting index casts truncate.
const MAX_FRAMES_CAP: usize = u32::MAX as usize;

impl Sim {
    /// Instantiates a spec as a virtual cluster.
    pub fn new(spec: &SystemSpec, cfg: SimConfig) -> Result<Self> {
        spec.validate()?;
        if cfg.max_frames > MAX_FRAMES_CAP {
            return Err(SimError::BadSpec(format!(
                "max_frames {} exceeds the frame-table cap of {} (u32 frame ids)",
                cfg.max_frames, MAX_FRAMES_CAP
            )));
        }
        if !cfg.faults.is_empty() {
            // Validated against the user's spec, so plans can never target
            // the hidden workload host/process appended below.
            spec.validate_fault_plan(&cfg.faults)?;
        }
        if !cfg.reconfig.is_empty() {
            spec.validate_reconfig_plan(&cfg.reconfig)?;
        }
        let mut spec = spec.clone();

        // Append the hidden workload host/process/services that drive entry
        // points (the paper's separate workload-generator machine).
        let wl_host = spec.hosts.len();
        spec.hosts.push(crate::spec::HostSpec {
            name: "__workload_host".into(),
            cores: 512.0,
        });
        let wl_proc = spec.processes.len();
        spec.processes.push(crate::spec::ProcessSpec {
            name: "__workload_proc".into(),
            host: wl_host,
            gc: None,
        });
        let mut entry_map = BTreeMap::new();
        for (name, entry) in spec.entries.clone() {
            let target = entry.service;
            let mut svc = crate::spec::ServiceSpec::new(format!("__workload_{name}"), wl_proc);
            svc.max_concurrent = u32::MAX;
            for m in spec.services[target].methods.keys() {
                svc.methods
                    .insert(m.clone(), Behavior::build().call("target", m).done());
            }
            svc.deps.insert(
                "target".into(),
                DepBinding::Service {
                    target,
                    client: entry.client.clone(),
                },
            );
            let idx = spec.services.len();
            spec.services.push(svc);
            entry_map.insert(name, idx);
        }

        if spec.hosts.len() > MAX_HOSTS {
            return Err(SimError::BadSpec(format!(
                "{} hosts exceed the event-key context space ({MAX_HOSTS})",
                spec.hosts.len()
            )));
        }

        let host_names: Vec<String> = spec.hosts.iter().map(|h| h.name.clone()).collect();
        let proc_names: Vec<String> = spec.processes.iter().map(|p| p.name.clone()).collect();
        let hosts: Vec<PsHost<JobCont>> = spec.hosts.iter().map(|h| PsHost::new(h.cores)).collect();
        let procs: Vec<ProcRt> = spec
            .processes
            .iter()
            .enumerate()
            .map(|(pi, p)| ProcRt {
                host: p.host,
                heap: p.gc.as_ref().map(|g| g.base_heap_bytes).unwrap_or(0),
                in_gc: false,
                gc_started_ns: 0,
                gc_job: None,
                rng: SmallRng::seed_from_u64(derive_seed(cfg.seed, DOMAIN_PROC, pi as u64)),
            })
            .collect();
        let gc_specs: Vec<_> = spec.processes.iter().map(|p| p.gc.clone()).collect();

        // Intern names and compile behaviors. Client ids are assigned in
        // (service index, dep name) order; method ids per service in method
        // name order; arena ids in compile order — all deterministic.
        let mut compiler = ProgCompiler::new(&spec);
        let mut names = StrArena::default();
        let rpc_name = names.intern("rpc");

        let mut clients = Vec::new();
        for (si, s) in spec.services.iter().enumerate() {
            for binding in s.deps.values() {
                let n_targets = match binding {
                    DepBinding::ReplicatedService { targets, .. } => targets.len(),
                    _ => 1,
                };
                let ci = clients.len() as u64;
                clients.push(ClientRt {
                    owner: si,
                    spec: binding.client().clone(),
                    window: VecDeque::new(),
                    window_failures: 0,
                    breaker: BreakerState::Closed,
                    conns_in_use: 0,
                    waiters: VecDeque::new(),
                    rr: 0,
                    outstanding: vec![0; n_targets],
                    budget_tokens: 0.0,
                    rng: SmallRng::seed_from_u64(derive_seed(cfg.seed, DOMAIN_CLIENT, ci)),
                });
            }
        }

        let mut services = Vec::new();
        let mut svc_names = Vec::new();
        for (si, s) in spec.services.iter().enumerate() {
            svc_names.push(names.intern(&s.name));
            let method_names: Vec<NameId> = s.methods.keys().map(|k| names.intern(k)).collect();
            let mut methods = Vec::with_capacity(s.methods.len());
            for b in s.methods.values() {
                methods.push(compiler.compile(si, b));
            }
            let overhead_prog = s.trace_overhead_ns.filter(|ns| *ns > 0).map(|ns| {
                compiler.arena.alloc(CProg {
                    steps: vec![CStep::Compute {
                        cpu_ns: ns,
                        alloc_bytes: 256,
                    }],
                })
            });
            services.push(SvcRt {
                methods,
                method_names,
                active: 0,
                max_concurrent: s.max_concurrent,
                served: 0,
                traced: s.trace_overhead_ns.is_some(),
                overhead_prog,
                shed: s.shed.clone().map(ShedCtl::new),
                done_ok: 0,
                done_err: 0,
            });
        }

        let mut entries = BTreeMap::new();
        let mut entry_rts = Vec::new();
        for (name, svc) in entry_map {
            let methods: BTreeMap<String, u32> = spec.services[svc]
                .methods
                .keys()
                .enumerate()
                .map(|(i, m)| (m.clone(), i as u32))
                .collect();
            entries.insert(name.clone(), entry_rts.len() as u32);
            entry_rts.push(EntryRt {
                name: names.intern(&name),
                svc,
                methods,
            });
        }

        let backends: Vec<BackendRt> = spec
            .backends
            .iter()
            .enumerate()
            .map(|(bi, b)| {
                let mut store = StoreRt::default();
                if let BackendRtKind::Store {
                    replicas, failover, ..
                } = &b.kind
                {
                    // Member 0 is the boot primary; replicas follow in spec
                    // order (identical iteration order to the old
                    // `replicas` vec, so default-mode runs are unchanged).
                    store.members.push(StoreMember {
                        proc: b.process as u32,
                        ..StoreMember::default()
                    });
                    for r in 0..*replicas as usize {
                        let proc = failover
                            .as_ref()
                            .map(|fo| fo.replica_processes[r])
                            .unwrap_or(b.process);
                        store.members.push(StoreMember {
                            proc: proc as u32,
                            ..StoreMember::default()
                        });
                    }
                    if let Some(fo) = failover {
                        store.armed = true;
                        store.detection_ns = fo.detection_ns;
                        store.election_ns = fo.election_ns;
                    }
                }
                BackendRt {
                    name: names.intern(&b.name),
                    kind: b.kind.clone(),
                    cache: CacheRt::default(),
                    store,
                    queue: VecDeque::new(),
                    stats: BackendStats::default(),
                    stats_dirty: false,
                    brownout_until: 0,
                    brownout_slow: 1.0,
                    brownout_unavailable: false,
                    rng: SmallRng::seed_from_u64(derive_seed(cfg.seed, DOMAIN_BACKEND, bi as u64)),
                }
            })
            .collect();

        // Location tables + lane distribution, in global-id order per kind
        // (local indices are therefore deterministic).
        let proc_host: Vec<u32> = spec.processes.iter().map(|p| p.host as u32).collect();
        let svc_proc: Vec<u32> = spec.services.iter().map(|s| s.process as u32).collect();
        let backend_proc: Vec<u32> = spec.backends.iter().map(|b| b.process as u32).collect();
        let client_owner: Vec<u32> = clients.iter().map(|c| c.owner as u32).collect();

        let mut lanes: Vec<HostLane> = hosts
            .into_iter()
            .map(|ps| HostLane {
                ps,
                host_gen: 0,
                procs: Vec::new(),
                services: Vec::new(),
                clients: Vec::new(),
                backends: Vec::new(),
                frames: Vec::new(),
                frame_gens: Vec::new(),
                free_frames: Vec::new(),
                live: 0,
                stack_pool: Vec::new(),
                ev_seq: 0,
            })
            .collect();
        let mut proc_loc = Vec::with_capacity(procs.len());
        for p in procs {
            let h = p.host;
            proc_loc.push((h as u32, lanes[h].procs.len() as u32));
            lanes[h].procs.push(p);
        }
        let mut svc_loc = Vec::with_capacity(services.len());
        for (si, s) in services.into_iter().enumerate() {
            let h = proc_host[svc_proc[si] as usize] as usize;
            svc_loc.push((h as u32, lanes[h].services.len() as u32));
            lanes[h].services.push(s);
        }
        let mut client_loc = Vec::with_capacity(clients.len());
        for (ci, c) in clients.into_iter().enumerate() {
            let owner = client_owner[ci] as usize;
            let h = proc_host[svc_proc[owner] as usize] as usize;
            client_loc.push((h as u32, lanes[h].clients.len() as u32));
            lanes[h].clients.push(c);
        }
        let mut backend_loc = Vec::with_capacity(backends.len());
        for (bi, b) in backends.into_iter().enumerate() {
            let h = proc_host[backend_proc[bi] as usize] as usize;
            backend_loc.push((h as u32, lanes[h].backends.len() as u32));
            lanes[h].backends.push(b);
        }

        let n_procs = proc_names.len();
        let n_svcs = spec.services.len();
        let sh = Shared {
            progs: compiler.arena,
            names,
            rpc_name,
            record_traces: cfg.record_traces,
            gc_specs,
            svc_names,
            svc_loc,
            proc_loc,
            client_loc,
            backend_loc,
            svc_proc,
            backend_proc,
            client_owner,
            proc_host,
            proc_down: vec![false; n_procs],
            proc_gen: vec![0; n_procs],
            link_faults: HashMap::default(),
            reconfig_on: false,
            svc_active: vec![true; n_svcs],
            svc_draining: vec![false; n_svcs],
            canary_route: vec![None; n_svcs],
        };
        let mut sim = Sim {
            cfg,
            now: 0,
            ctx: CTRL_CTX,
            ctrl_seq: 0,
            events: Wheel::new(),
            msgs: MsgSlab::default(),
            due: Vec::new(),
            profile: EngineProfile::default(),
            sh,
            lanes,
            host_names,
            proc_names,
            entries,
            entry_rts,
            // Root sequence numbers double as write versions; 0 is reserved
            // for "absent".
            next_root: 1,
            completions: Vec::new(),
            chaos: None,
            reconfig: None,
            metrics: Metrics::default(),
            traces: TraceCollector::new(),
            spec_name: spec.name.clone(),
        };
        sim.schedule_fault_plan()?;
        sim.schedule_reconfig_plan()?;
        Ok(sim)
    }

    /// Resolves and schedules the configured fault plan. A no-op for empty
    /// plans: no events pushed, no RNG state created or drawn from.
    fn schedule_fault_plan(&mut self) -> Result<()> {
        if self.cfg.faults.is_empty() {
            return Ok(());
        }
        let plan = self.cfg.faults.clone();
        for (t, f) in &plan.scheduled {
            let fault = self.resolve_fault(f)?;
            self.push_ev(*t, Ev::FaultFire { fault });
        }
        if let Some(chaos) = &plan.chaos {
            let menu: Vec<RFault> = chaos
                .menu
                .iter()
                .map(|f| self.resolve_fault(f))
                .collect::<Result<_>>()?;
            let mut rng = SmallRng::seed_from_u64(chaos.seed);
            let first = chaos.start_ns + exp_gap(&mut rng, chaos.mean_gap_ns);
            self.chaos = Some(ChaosRt {
                rng,
                menu,
                mean_gap_ns: chaos.mean_gap_ns,
                end_ns: chaos.end_ns,
            });
            if first < chaos.end_ns {
                self.push_ev(first, Ev::ChaosFire);
            }
        }
        Ok(())
    }

    /// Resolves and schedules the configured reconfiguration plan. A no-op
    /// for empty plans: no events pushed, no RNG state created or drawn
    /// from, `reconfig_on` stays false (hot paths never branch past it).
    fn schedule_reconfig_plan(&mut self) -> Result<()> {
        if self.cfg.reconfig.is_empty() {
            return Ok(());
        }
        let plan = self.cfg.reconfig.clone();
        let mut rt = Box::new(ReconfigRt::new(self.cfg.seed));
        for (_, c) in &plan.scheduled {
            rt.changes.push(self.resolve_change(c)?);
        }
        for (si, a) in plan.autoscalers.iter().enumerate() {
            let group = self.resolve_group(&a.service)?;
            rt.scalers.push(ScalerRt {
                spec: a.clone(),
                group,
                ewma: 0.0,
                primed: false,
                cooldown_until: 0,
                rng: SmallRng::seed_from_u64(derive_seed(
                    self.cfg.seed,
                    DOMAIN_AUTOSCALER,
                    1 + si as u64,
                )),
            });
        }
        self.reconfig = Some(rt);
        self.sh.reconfig_on = true;
        for (i, (t, _)) in plan.scheduled.iter().enumerate() {
            self.push_ev(*t, Ev::ReconfigFire { idx: i });
        }
        for (si, a) in plan.autoscalers.iter().enumerate() {
            if a.start_ns < a.end_ns {
                self.push_ev(a.start_ns, Ev::AutoscaleTick { scaler: si });
            }
        }
        Ok(())
    }

    /// Resolves a service-group base name against the running cluster
    /// (excluding the hidden workload shims), with a nearest-match hint on
    /// unknown names.
    fn resolve_group(&self, base: &str) -> Result<Vec<usize>> {
        let prefix = format!("{base}_r");
        let mut group: Vec<usize> = (0..self.sh.svc_names.len())
            .filter(|&i| {
                let name = self.sh.names.get(self.sh.svc_names[i]);
                name == base
                    || (name.starts_with(&prefix)
                        && name.len() > prefix.len()
                        && name[prefix.len()..].chars().all(|c| c.is_ascii_digit()))
            })
            .collect();
        group.sort_unstable();
        if group.is_empty() {
            let names: Vec<&str> = (0..self.sh.svc_names.len())
                .map(|i| self.sh.names.get(self.sh.svc_names[i]))
                .filter(|n| !n.starts_with("__workload_"))
                .collect();
            let hint = crate::spec::suggest(base, names.into_iter());
            return Err(SimError::Unknown(format!("service {base}{hint}")));
        }
        Ok(group)
    }

    /// Resolves a named change to dense indices, rejecting unknown names
    /// and out-of-range parameters (mirrors
    /// [`SystemSpec::validate_change`] for the driver path).
    fn resolve_change(&self, c: &Change) -> Result<RChange> {
        let group = self.resolve_group(c.service())?;
        match c {
            Change::RollingRestart {
                drain_ns,
                restart_ns,
                drainless,
                ..
            } => Ok(RChange::Rolling {
                group,
                drain_ns: *drain_ns,
                restart_ns: *restart_ns,
                drainless: *drainless,
            }),
            Change::Scale {
                service,
                replicas,
                drain_ns,
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
                Ok(RChange::Scale {
                    group,
                    replicas: *replicas,
                    drain_ns: *drain_ns,
                })
            }
            Change::Canary {
                service,
                fraction,
                evaluate_ns,
                timeout_ns,
                retries,
            } => {
                if group.len() < 2 {
                    return Err(SimError::BadSpec(format!(
                        "canary for {service} needs >= 2 replicas (one canary, one baseline)"
                    )));
                }
                if !fraction.is_finite() || *fraction <= 0.0 || *fraction >= 1.0 {
                    return Err(SimError::BadSpec(format!(
                        "canary fraction {fraction} not in (0, 1)"
                    )));
                }
                if *evaluate_ns == 0 {
                    return Err(SimError::BadSpec(format!(
                        "canary for {service} evaluate_ns must be > 0"
                    )));
                }
                Ok(RChange::Canary {
                    group,
                    fraction: *fraction,
                    evaluate_ns: *evaluate_ns,
                    timeout_ns: *timeout_ns,
                    retries: *retries,
                })
            }
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently queued (lane and control events alike).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// The event loop's self-profile since boot.
    pub fn engine_profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Whether the event queue is completely drained.
    pub fn is_idle(&self) -> bool {
        self.events.is_empty()
    }

    /// Application/variant name.
    pub fn name(&self) -> &str {
        &self.spec_name
    }

    /// Number of live frames (in-flight work across the cluster).
    pub fn inflight(&self) -> usize {
        self.lanes.iter().map(|l| l.live).sum()
    }

    /// Number of requests (frames) a service instance has served so far.
    pub fn service_served(&self, name: &str) -> Option<u64> {
        let idx = self
            .sh
            .svc_names
            .iter()
            .position(|n| self.sh.names.get(*n) == name)?;
        Some(self.svc_ref(idx).served)
    }

    /// Current heap bytes of a process (GC experiments).
    pub fn process_heap(&self, proc_name: &str) -> Option<u64> {
        let idx = self.proc_names.iter().position(|n| n == proc_name)?;
        Some(self.proc_ref(idx).heap)
    }

    // -- Public driver API ---------------------------------------------------

    /// Submits a request to an entry point. Returns its root sequence number
    /// (which is also the version any writes it performs will carry).
    pub fn submit(&mut self, entry: &str, method: &str, entity: u64) -> Result<u64> {
        let e = *self
            .entries
            .get(entry)
            .ok_or_else(|| SimError::Unknown(format!("entry {entry}")))?;
        let method_id = self.entry_rts[e as usize].methods.get(method).copied();
        self.submit_resolved(e, method_id, method, entity)
    }

    /// Resolves an entry point once so hot submission loops can use
    /// [`Sim::submit_handle`] without any name lookups.
    pub fn entry_handle(&self, entry: &str, method: &str) -> Result<EntryHandle> {
        let e = *self
            .entries
            .get(entry)
            .ok_or_else(|| SimError::Unknown(format!("entry {entry}")))?;
        let m = *self.entry_rts[e as usize]
            .methods
            .get(method)
            .ok_or_else(|| SimError::Unknown(format!("method {entry}.{method}")))?;
        Ok(EntryHandle {
            entry: e,
            method: m,
        })
    }

    /// Submits via a pre-resolved handle (see [`Sim::entry_handle`]).
    pub fn submit_handle(&mut self, h: EntryHandle, entity: u64) -> Result<u64> {
        let valid = self
            .entry_rts
            .get(h.entry as usize)
            .map(|er| (h.method as usize) < self.svc_ref(er.svc).methods.len())
            .unwrap_or(false);
        if !valid {
            return Err(SimError::Unknown(format!(
                "entry handle {}.{}",
                h.entry, h.method
            )));
        }
        self.submit_resolved(h.entry, Some(h.method), "", entity)
    }

    /// Shared submission path. `method_id` is `None` when the method name did
    /// not resolve — the error is deferred past the shed check to preserve
    /// submission accounting (matching the string API's historic order).
    fn submit_resolved(
        &mut self,
        entry: u32,
        method_id: Option<u32>,
        method: &str,
        entity: u64,
    ) -> Result<u64> {
        let svc = self.entry_rts[entry as usize].svc;
        let root_seq = self.next_root;
        self.next_root += 1;
        self.metrics.counters.submitted += 1;

        if self.inflight() >= self.cfg.max_frames {
            self.metrics.counters.admission_rejections += 1;
            // An unknown method still gets a completion under its own name.
            let method = match method_id {
                Some(m) => self.svc_ref(svc).method_names[m as usize],
                None => self.sh.names.intern(method),
            };
            let req = EntryReq {
                entry: self.entry_rts[entry as usize].name,
                method,
                submitted_ns: self.now,
            };
            self.finish_entry(req, entity, root_seq, 0, Some("shed"));
            return Ok(root_seq);
        }

        let Some(m) = method_id else {
            let entry_name = self.sh.names.get(self.entry_rts[entry as usize].name);
            return Err(SimError::Unknown(format!("method {entry_name}.{method}")));
        };
        let prog = self.svc_ref(svc).methods[m as usize];
        let kind = FrameKind::Entry(EntryReq {
            entry: self.entry_rts[entry as usize].name,
            method: self.svc_ref(svc).method_names[m as usize],
            submitted_ns: self.now,
        });
        // Entry shims never enable tracing, so the frame opens no span.
        debug_assert!(!self.svc_ref(svc).traced);
        let fid = self.alloc_frame(svc, entity, root_seq, kind, prog, None);
        self.push_ev(self.now, Ev::Resume { frame: fid });
        Ok(root_seq)
    }

    /// Runs the event loop until virtual time `t`: every event due at or
    /// before `t` dispatches in global `(time, seq)` order, each under its
    /// own key context (see [`ev_ctx`]).
    pub fn run_until(&mut self, t: SimTime) {
        while self.events.peek_key().is_some_and(|(time, _)| time <= t) {
            let e = self.events.pop().expect("peeked event exists");
            self.now = e.time;
            self.ctx = ev_ctx(&self.sh, &self.msgs, &e.item);
            self.profile.dispatched[e.item.kind()] += 1;
            self.dispatch(e.item);
        }
        self.ctx = CTRL_CTX;
        self.now = self.now.max(t);
        self.sync_backend_metrics();
    }

    /// Mirrors dense per-backend stats into the name-keyed metrics map.
    /// Entries appear only for backends that have seen at least one op,
    /// matching the old on-demand-creation semantics, and only backends
    /// whose stats changed since the last mirror are copied. The map is a
    /// `BTreeMap` keyed by name, so lane iteration order is invisible.
    fn sync_backend_metrics(&mut self) {
        for lane in &mut self.lanes {
            for b in &mut lane.backends {
                if !b.stats_dirty {
                    continue;
                }
                b.stats_dirty = false;
                let name = self.sh.names.get(b.name);
                if let Some(slot) = self.metrics.backends.get_mut(name) {
                    slot.clone_from(&b.stats);
                } else {
                    self.metrics
                        .backends
                        .insert(name.to_string(), b.stats.clone());
                }
            }
        }
    }

    /// Takes the completions recorded since the last drain, in completion
    /// order.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        self.completions.drain(..).collect()
    }

    /// Injects CPU contention on a host for a duration (the FIRM anomaly
    /// injector substitute).
    pub fn inject_cpu_hog(&mut self, host: &str, cores: f64, duration: SimTime) -> Result<()> {
        let h = self
            .host_names
            .iter()
            .position(|n| n == host)
            .ok_or_else(|| SimError::Unknown(format!("host {host}")))?;
        self.lanes[h].ps.adjust_hog(self.now, cores);
        self.touch_host(h);
        self.push_ev(
            self.now + duration,
            Ev::HogEnd {
                host: h,
                milli_cores: (cores * 1000.0).round() as u64,
            },
        );
        Ok(())
    }

    /// Injects a fault right now (the driver's `Action::Fault` path).
    /// Scheduled plans go through [`SimConfig`] instead; both routes share
    /// the same execution.
    pub fn inject_fault(&mut self, fault: &Fault) -> Result<()> {
        let rf = self.resolve_fault(fault)?;
        self.apply_fault(rf);
        Ok(())
    }

    /// Resolves a named fault to dense indices, rejecting unknown names and
    /// out-of-range parameters.
    fn resolve_fault(&self, f: &Fault) -> Result<RFault> {
        let proc_idx = |name: &str| {
            self.proc_names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| SimError::Unknown(format!("process {name}")))
        };
        match f {
            Fault::ProcessCrash {
                process,
                restart_delay_ns,
            } => Ok(RFault::Crash {
                proc: proc_idx(process)?,
                restart_ns: *restart_delay_ns,
            }),
            Fault::HostDown { host, down_ns } => Ok(RFault::HostDown {
                host: self
                    .host_names
                    .iter()
                    .position(|n| n == host)
                    .ok_or_else(|| SimError::Unknown(format!("host {host}")))?,
                down_ns: *down_ns,
            }),
            Fault::Partition { a, b, duration_ns } => {
                if a == b {
                    return Err(SimError::BadSpec(format!("partition of {a} with itself")));
                }
                Ok(RFault::Link {
                    a: proc_idx(a)?,
                    b: proc_idx(b)?,
                    dur: *duration_ns,
                    extra_ns: 0,
                    loss: 1.0,
                })
            }
            Fault::LinkDegrade {
                a,
                b,
                duration_ns,
                extra_latency_ns,
                loss,
            } => {
                if a == b {
                    return Err(SimError::BadSpec(format!(
                        "link degrade of {a} with itself"
                    )));
                }
                if !loss.is_finite() || !(0.0..=1.0).contains(loss) {
                    return Err(SimError::BadSpec(format!("link loss {loss} not in [0, 1]")));
                }
                Ok(RFault::Link {
                    a: proc_idx(a)?,
                    b: proc_idx(b)?,
                    dur: *duration_ns,
                    extra_ns: *extra_latency_ns,
                    loss: *loss,
                })
            }
            Fault::Brownout {
                backend,
                duration_ns,
                slow_factor,
                unavailable,
            } => {
                // A factor in (0, 1) would silently *speed up* the backend
                // (and NaN/negative would truncate latencies to 0 ns in
                // `backend_cost`), so anything below the identity factor is
                // rejected rather than ignored.
                if !slow_factor.is_finite() || *slow_factor < 1.0 {
                    return Err(SimError::BadSpec(format!(
                        "brownout slow_factor {slow_factor} must be finite and >= 1 \
                         (1 = no slowdown)"
                    )));
                }
                Ok(RFault::Brownout {
                    backend: self.backend_idx(backend)?,
                    dur: *duration_ns,
                    slow: *slow_factor,
                    unavailable: *unavailable,
                })
            }
        }
    }

    /// Flushes a cache backend (the Type-4 metastability trigger).
    pub fn cache_flush(&mut self, backend: &str) -> Result<()> {
        let b = self.backend_idx(backend)?;
        self.backend_mut(b).cache.flush();
        Ok(())
    }

    /// Pre-fills a cache with keys `0..n` at the given version.
    pub fn cache_fill(&mut self, backend: &str, n: u64, version: u64) -> Result<()> {
        let b = self.backend_idx(backend)?;
        let capacity = match self.backend_ref(b).kind {
            BackendRtKind::Cache { capacity_items, .. } => capacity_items,
            _ => return Err(SimError::Unknown(format!("{backend} is not a cache"))),
        };
        let BackendRt { cache, rng, .. } = self.backend_mut(b);
        for k in 0..n.min(capacity) {
            cache.put(k, version, capacity, rng);
        }
        Ok(())
    }

    /// Number of resident keys in a cache.
    pub fn cache_len(&self, backend: &str) -> Result<usize> {
        let b = self.backend_idx(backend)?;
        Ok(self.backend_ref(b).cache.len())
    }

    /// Pre-fills a store (every member) with keys `0..n`.
    pub fn store_fill(&mut self, backend: &str, n: u64, version: u64) -> Result<()> {
        let b = self.backend_idx(backend)?;
        let store = &mut self.backend_mut(b).store;
        for m in &mut store.members {
            for k in 0..n {
                m.map.insert(k, version);
            }
            m.applied += n;
            m.watermark = m.watermark.max(version);
        }
        Ok(())
    }

    /// The current primary's version for a key (0 if absent).
    pub fn store_primary_version(&self, backend: &str, key: u64) -> Result<u64> {
        let b = self.backend_idx(backend)?;
        Ok(self.backend_ref(b).store.primary_version(key))
    }

    /// The non-primary members' versions for a key, in member order (empty
    /// when unreplicated).
    pub fn store_replica_versions(&self, backend: &str, key: u64) -> Result<Vec<u64>> {
        let b = self.backend_idx(backend)?;
        let store = &self.backend_ref(b).store;
        Ok(store
            .peer_indices()
            .map(|i| store.members[i].map.get(&key).copied().unwrap_or(0))
            .collect())
    }

    /// Name of the process currently serving a store (moves on failover).
    pub fn store_serving_process(&self, backend: &str) -> Result<String> {
        let b = self.backend_idx(backend)?;
        Ok(self.proc_names[self.sh.backend_proc[b] as usize].clone())
    }

    /// A store's election generation (0 until the first failover).
    pub fn store_generation(&self, backend: &str) -> Result<u64> {
        let b = self.backend_idx(backend)?;
        Ok(self.backend_ref(b).store.gen)
    }

    fn backend_idx(&self, name: &str) -> Result<usize> {
        (0..self.sh.backend_loc.len())
            .find(|&i| self.sh.names.get(self.backend_ref(i).name) == name)
            .ok_or_else(|| SimError::Unknown(format!("backend {name}")))
    }
}

/// Exponentially distributed gap with the given mean, at least 1 ns.
fn exp_gap(rng: &mut SmallRng, mean_ns: SimTime) -> SimTime {
    let u: f64 = rng.gen();
    ((-(1.0 - u).ln()) * mean_ns as f64).max(1.0) as SimTime
}

// The execution half (event dispatch + behavior interpreter) lives in
// `sim_exec.rs` to keep file sizes reviewable.
include!("sim_exec.rs");

#[cfg(test)]
#[path = "sim_tests.rs"]
mod tests;

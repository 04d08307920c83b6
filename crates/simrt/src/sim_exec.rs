// Execution half of the simulator: event dispatch, the behavior
// interpreter, and the control plane, as methods on `Sim`. Included by
// `sim.rs` (same module) to keep file sizes reviewable while sharing all
// private types.

impl Sim {
    // ------------------------------------------------------------------
    // Event push and lane/entity access.
    // ------------------------------------------------------------------

    /// Pushes an event, keyed by the current dispatch context
    /// ([`Sim::ctx`]): the high key bits carry the context id, the low bits
    /// that context's private push counter.
    fn push_ev(&mut self, time: SimTime, ev: Ev) {
        let counter = if self.ctx == CTRL_CTX {
            &mut self.ctrl_seq
        } else {
            &mut self.lanes[self.ctx as usize].ev_seq
        };
        debug_assert!(*counter < SEQ_MASK);
        let seq = (self.ctx << CTX_SHIFT) | *counter;
        *counter += 1;
        self.events.push(evq::Entry {
            time: time.max(self.now),
            seq,
            item: ev,
        });
        self.profile.pending_max = self.profile.pending_max.max(self.events.len());
    }

    // Entity accessors: global id → lane-local slot via the location tables.

    fn proc_ref(&self, p: usize) -> &ProcRt {
        let (h, l) = self.sh.proc_loc[p];
        &self.lanes[h as usize].procs[l as usize]
    }

    fn proc_mut(&mut self, p: usize) -> &mut ProcRt {
        let (h, l) = self.sh.proc_loc[p];
        &mut self.lanes[h as usize].procs[l as usize]
    }

    fn svc_ref(&self, s: usize) -> &SvcRt {
        let (h, l) = self.sh.svc_loc[s];
        &self.lanes[h as usize].services[l as usize]
    }

    fn svc_mut(&mut self, s: usize) -> &mut SvcRt {
        let (h, l) = self.sh.svc_loc[s];
        &mut self.lanes[h as usize].services[l as usize]
    }

    /// Client by id, tolerating the [`UNBOUND_CLIENT`] sentinel (which flows
    /// into response/bookkeeping paths for calls that failed to bind).
    fn client_opt_mut(&mut self, client: u32) -> Option<&mut ClientRt> {
        let (h, l) = *self.sh.client_loc.get(client as usize)?;
        Some(&mut self.lanes[h as usize].clients[l as usize])
    }

    fn client_mut(&mut self, client: u32) -> &mut ClientRt {
        self.client_opt_mut(client).expect("client id valid")
    }

    fn backend_ref(&self, b: usize) -> &BackendRt {
        let (h, l) = self.sh.backend_loc[b];
        &self.lanes[h as usize].backends[l as usize]
    }

    fn backend_mut(&mut self, b: usize) -> &mut BackendRt {
        let (h, l) = self.sh.backend_loc[b];
        &mut self.lanes[h as usize].backends[l as usize]
    }

    // Frame lifecycle (tables live on the frame's home lane).

    fn frame(&mut self, id: FrameId) -> Option<&mut Frame> {
        self.lanes[id.host as usize].frame_mut(id)
    }

    fn take_frame(&mut self, id: FrameId) -> Option<Frame> {
        self.lanes[id.host as usize].take_frame(id)
    }

    fn alloc_frame(
        &mut self,
        service: usize,
        entity: u64,
        root_seq: u64,
        kind: FrameKind,
        prog: ProgId,
        parent_span: Option<(TraceId, SpanId)>,
    ) -> FrameId {
        let is_subtask = matches!(kind, FrameKind::SubTask { .. });
        let (host, _) = self.sh.svc_loc[service];
        let now = self.now;
        let mut stack = self.lanes[host as usize]
            .stack_pool
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(2));
        stack.push(ExecCtx {
            prog,
            pc: 0,
            repeat_left: 0,
        });
        let (span, span_owned) = if !is_subtask
            && self.sh.record_traces
            && self.svc_ref(service).traced
        {
            let sh = &self.sh;
            let op = match &kind {
                FrameKind::Entry(req) => req.method,
                FrameKind::Rpc { .. } | FrameKind::SubTask { .. } => sh.rpc_name,
            };
            let sid = self.traces.start_span(
                TraceId(root_seq),
                parent_span.map(|(_, s)| s),
                sh.names.get(sh.svc_names[service]),
                sh.names.get(op),
                now,
            );
            self.metrics.counters.spans += 1;
            if let Some(ob) = self.svc_ref(service).overhead_prog {
                stack.push(ExecCtx {
                    prog: ob,
                    pc: 0,
                    repeat_left: 0,
                });
            }
            (Some((TraceId(root_seq), sid)), true)
        } else {
            (parent_span, false)
        };

        let frame = Frame {
            gen: 0,
            service,
            stack,
            entity,
            root_seq,
            kind,
            call: None,
            next_call_seq: 0,
            pending_children: 0,
            child_failed: false,
            failed: false,
            last_err: None,
            observed_version: 0,
            did_read: false,
            span,
            span_owned,
            counted_admission: false,
            deadline_ns: None,
            admitted_ns: now,
        };
        self.lanes[host as usize].insert_frame(host, frame)
    }

    // ------------------------------------------------------------------
    // Event dispatch.
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::HostCheck { host, gen } => {
                let lane = &mut self.lanes[host];
                if lane.host_gen != gen {
                    self.profile.stale_host_checks += 1;
                    return;
                }
                // Collect continuations first, then run them: every removal
                // precedes any `run_cont` (which may add fresh jobs but can
                // never cancel a due one on this path), so this matches
                // remove-as-you-go order exactly. The buffer is taken for
                // the loop and put back, so its capacity is reused.
                let mut due = std::mem::take(&mut self.due);
                lane.ps.collect_due_into(self.now, &mut due);
                for cont in due.drain(..) {
                    self.run_cont(cont);
                }
                self.due = due;
                self.touch_host(host);
            }
            Ev::Resume { frame } => self.step_frame(frame),
            Ev::Timeout { frame, seq, attempt } => self.on_timeout(frame, seq, attempt),
            Ev::RetryFire { frame, seq } => self.on_retry_fire(frame, seq),
            Ev::DeliverRequest { msg } => {
                let req = self.msgs.take(msg);
                self.on_deliver_request(req)
            }
            Ev::DeliverResponse { frame, seq, attempt, outcome } => {
                self.on_deliver_response(frame, seq, attempt, outcome)
            }
            Ev::HogEnd { host, milli_cores } => {
                let now = self.now;
                self.lanes[host]
                    .ps
                    .adjust_hog(now, -(milli_cores as f64 / 1000.0));
                self.touch_host(host);
            }
            Ev::ConnFreed { client } => {
                if let Some(c) = self.client_opt_mut(client) {
                    c.conns_in_use = c.conns_in_use.saturating_sub(1);
                }
                self.wake_waiters(client);
            }
            Ev::ReplicaApply { backend, member, key, version, gen } => {
                let serving_proc = self.sh.backend_proc[backend] as usize;
                let (cur_gen, armed, member_proc) = {
                    let store = &self.backend_ref(backend).store;
                    (
                        store.gen,
                        store.armed,
                        store.members.get(member).map(|m| m.proc as usize),
                    )
                };
                let Some(member_proc) = member_proc else { return };
                // In-flight replication from a deposed primary dies with it.
                if cur_gen != gen {
                    return;
                }
                if armed {
                    // The member's process is down: the apply is lost; the
                    // restart resync will catch the member up instead.
                    if self.sh.proc_down[member_proc] {
                        return;
                    }
                    // Replication link fully cut: defer the apply to the
                    // partition's heal time (replica catch-up). Degraded
                    // (lossy but not cut) links deliver as usual.
                    let link = self.sh.link_faults.get(&(serving_proc, member_proc)).copied();
                    if let Some(lf) = link {
                        if lf.loss >= 1.0 && self.now < lf.until {
                            let until = lf.until;
                            self.push_ev(
                                until,
                                Ev::ReplicaApply { backend, member, key, version, gen },
                            );
                            return;
                        }
                    }
                }
                let store = &mut self.backend_mut(backend).store;
                if let Some(m) = store.members.get_mut(member) {
                    let slot = m.map.entry(key).or_insert(0);
                    if version > *slot {
                        *slot = version;
                    }
                    m.applied += 1;
                    m.watermark = m.watermark.max(version);
                }
            }
            // Control plane.
            Ev::FaultFire { fault } => self.apply_fault(fault),
            Ev::ProcRestart { proc, gen } => {
                if self.sh.proc_gen[proc] == gen && self.sh.proc_down[proc] {
                    self.sh.proc_down[proc] = false;
                    // A restarted store member (including a deposed primary)
                    // resyncs from the current primary before serving again.
                    self.resync_store_members(proc);
                }
            }
            Ev::StoreFailover { backend, gen } => self.on_store_failover(backend, gen),
            Ev::ChaosFire => self.on_chaos_fire(),
            Ev::ReconfigFire { idx } => self.on_reconfig_fire(idx),
            Ev::DrainDone { token } => self.on_drain_done(token),
            Ev::RollAdvance { rolling } => self.on_roll_advance(rolling),
            Ev::AutoscaleTick { scaler } => self.on_autoscale_tick(scaler),
            Ev::CanaryEval { canary } => self.on_canary_eval(canary),
        }
    }

    fn run_cont(&mut self, cont: JobCont) {
        match cont {
            JobCont::FrameStep(fid) => self.step_frame(fid),
            JobCont::SendRequest(req, net_ns) => self.send_request(self.now + net_ns, req),
            JobCont::SendResponse { frame, seq, attempt, outcome, net_ns } => {
                let t = self.now + net_ns;
                self.push_ev(t, Ev::DeliverResponse { frame, seq, attempt, outcome });
            }
            JobCont::BackendExec { req, latency_ns } => {
                // `extra_ns` is the consistency surcharge: the slowest
                // quorum member's replication lag on a quorum write, or one
                // extra primary round on a session-redirected read. Zero in
                // the default modes.
                let (outcome, extra_ns) = self.apply_backend_op(&req);
                let t = self.now + latency_ns + extra_ns + req.reply.net_ns;
                self.push_ev(
                    t,
                    Ev::DeliverResponse {
                        frame: req.caller,
                        seq: req.seq,
                        attempt: req.attempt,
                        outcome,
                    },
                );
            }
            JobCont::GcEnd { proc } => {
                let base = self.sh.gc_specs[proc]
                    .as_ref()
                    .expect("gc proc has spec")
                    .base_heap_bytes;
                let now = self.now;
                let (host, started) = {
                    let p = self.proc_mut(proc);
                    let started = p.gc_started_ns;
                    p.heap = base;
                    p.in_gc = false;
                    p.gc_job = None;
                    (p.host, started)
                };
                self.metrics.counters.gc_pause_ns += now.saturating_sub(started);
                self.lanes[host].ps.unfreeze_proc(now, proc);
                self.touch_host(host);
            }
        }
    }

    // ------------------------------------------------------------------
    // Host/CPU plumbing.
    // ------------------------------------------------------------------

    /// Re-arms the completion check event for a host.
    fn touch_host(&mut self, host: usize) {
        let now = self.now;
        let (gen, next) = {
            let lane = &mut self.lanes[host];
            lane.host_gen += 1;
            (lane.host_gen, lane.ps.next_completion(now))
        };
        if let Some(t) = next {
            self.push_ev(t, Ev::HostCheck { host, gen });
        }
    }

    /// Puts a request on the wire, to arrive at `t`.
    fn send_request(&mut self, t: SimTime, req: RequestMsg) {
        let msg = self.msgs.put(req);
        self.push_ev(t, Ev::DeliverRequest { msg });
    }

    /// Adds a CPU job on `host` tagged with `proc_tag` (frozen if that
    /// process is mid-GC). Returns the job id so callers can track it.
    fn add_job_on(&mut self, host: usize, proc_tag: usize, work_ns: f64, cont: JobCont) -> JobId {
        let frozen = proc_tag != NO_PROC && self.proc_ref(proc_tag).in_gc;
        let now = self.now;
        let ps = &mut self.lanes[host].ps;
        let job = if frozen {
            ps.add_frozen(now, work_ns, proc_tag, cont)
        } else {
            ps.add(now, work_ns, proc_tag, cont)
        };
        self.touch_host(host);
        job
    }

    /// Adds a CPU job on the host of `proc`.
    fn add_proc_job(&mut self, proc: usize, work_ns: f64, cont: JobCont) {
        let host = self.sh.proc_host[proc] as usize;
        self.add_job_on(host, proc, work_ns, cont);
    }

    /// Records a heap allocation, potentially triggering a GC pause.
    fn heap_alloc(&mut self, proc: usize, bytes: u64) {
        let Some(gc) = self.sh.gc_specs[proc].clone() else { return };
        let now = self.now;
        let (trigger, host, heap_mib) = {
            let p = self.proc_mut(proc);
            p.heap += bytes;
            let threshold = gc.base_heap_bytes as f64 * (1.0 + gc.gogc_percent / 100.0);
            let trigger = !p.in_gc && p.heap as f64 >= threshold;
            if trigger {
                p.in_gc = true;
                p.gc_started_ns = now;
            }
            (trigger, p.host, (p.heap >> 20).max(1))
        };
        if trigger {
            self.metrics.counters.gc_pauses += 1;
            self.lanes[host].ps.freeze_proc(now, proc);
            let pause_work = (gc.pause_cpu_ns_per_mib * heap_mib) as f64;
            let job = self.add_job_on(host, NO_PROC, pause_work, JobCont::GcEnd { proc });
            self.proc_mut(proc).gc_job = Some(job);
        }
    }

    // ------------------------------------------------------------------
    // Behavior interpreter.
    // ------------------------------------------------------------------

    /// Advances a frame until it blocks or completes.
    fn step_frame(&mut self, fid: FrameId) {
        loop {
            // Resolve the next step under a short borrow. The program arena
            // lives in `Shared` (a plain `&` alongside `&mut self`), so it
            // can be read while the frame is borrowed mutably.
            enum Next {
                Blocked,
                Done(bool),
                Step(ProgId, usize),
            }
            let next = {
                let progs = &self.sh.progs;
                let lane = &mut self.lanes[fid.host as usize];
                let frame = match lane.frames.get_mut(fid.idx as usize) {
                    Some(Some(f)) if f.gen == fid.gen => f,
                    _ => return,
                };
                if frame.pending_children > 0 {
                    // Parallel join still outstanding.
                    Next::Blocked
                } else {
                    while let Some(ctx) = frame.stack.last_mut() {
                        if ctx.pc < progs.get(ctx.prog).steps.len() {
                            break;
                        }
                        if ctx.repeat_left > 0 {
                            ctx.repeat_left -= 1;
                            ctx.pc = 0;
                        } else {
                            frame.stack.pop();
                        }
                    }
                    match frame.stack.last_mut() {
                        None => Next::Done(!frame.failed),
                        Some(ctx) => {
                            let p = ctx.prog;
                            let pc = ctx.pc;
                            ctx.pc += 1;
                            Next::Step(p, pc)
                        }
                    }
                }
            };
            let (prog, pc) = match next {
                Next::Blocked => return,
                Next::Done(ok) => {
                    self.complete_frame(fid, ok);
                    return;
                }
                Next::Step(p, pc) => (p, pc),
            };

            // Steps are `Copy`: read the current one out of the arena so no
            // borrow is held across the dispatch below.
            let step = self.sh.progs.get(prog).steps[pc];
            match step {
                CStep::Compute { cpu_ns, alloc_bytes } => {
                    let svc = self.frame(fid).expect("frame alive").service;
                    let proc = self.sh.svc_proc[svc] as usize;
                    self.heap_alloc(proc, alloc_bytes);
                    self.add_proc_job(proc, cpu_ns as f64, JobCont::FrameStep(fid));
                    return;
                }
                CStep::Call { client, dest } => {
                    self.begin_call(fid, client, dest, None, None);
                    return;
                }
                CStep::Cache { client, dest, op, key } => {
                    let (entity, root, svc) = self.frame_entity_root(fid);
                    let proc = self.sh.svc_proc[svc] as usize;
                    // A cache fill after a read stores the version that was
                    // read (even "absent", version 0); a pure write path
                    // stamps its own write version. This keeps version
                    // propagation faithful for the consistency experiments.
                    let root = {
                        let f = self.frame(fid).expect("frame alive");
                        if f.did_read {
                            f.observed_version
                        } else {
                            root
                        }
                    };
                    let k = self.resolve_key(key, entity, proc);
                    let bop = match op {
                        CacheOp::Get => BackendOp::CacheGet { key: k },
                        CacheOp::Put => BackendOp::CachePut { key: k, version: root },
                        CacheOp::Delete => BackendOp::CacheDelete { key: k },
                        CacheOp::GetRange { items } => BackendOp::CacheMulti {
                            key: k,
                            items,
                            write: false,
                            version: 0,
                        },
                        CacheOp::PushFront { items } => BackendOp::CacheMulti {
                            key: k,
                            items,
                            write: true,
                            version: root,
                        },
                    };
                    self.begin_call(fid, client, dest, Some(bop), None);
                    return;
                }
                CStep::CacheGetOrFetch { client, dest, key, on_miss } => {
                    let (entity, _, svc) = self.frame_entity_root(fid);
                    let proc = self.sh.svc_proc[svc] as usize;
                    let k = self.resolve_key(key, entity, proc);
                    self.begin_call(
                        fid,
                        client,
                        dest,
                        Some(BackendOp::CacheGet { key: k }),
                        Some(on_miss),
                    );
                    return;
                }
                CStep::Db { client, dest, op, key } => {
                    let (entity, root, svc) = self.frame_entity_root(fid);
                    let proc = self.sh.svc_proc[svc] as usize;
                    let k = self.resolve_key(key, entity, proc);
                    let bop = match op {
                        DbOp::Read => BackendOp::StoreRead { key: k },
                        DbOp::Write => BackendOp::StoreWrite { key: k, version: root },
                        DbOp::Scan { items } => BackendOp::StoreScan { items },
                    };
                    self.begin_call(fid, client, dest, Some(bop), None);
                    return;
                }
                CStep::Queue { client, dest, op } => {
                    self.begin_call(fid, client, dest, Some(op), None);
                    return;
                }
                CStep::Parallel(branches) => {
                    let progs = &self.sh.progs;
                    let live: Vec<ProgId> = progs
                        .list(branches)
                        .iter()
                        .copied()
                        .filter(|b| !progs.get(*b).steps.is_empty())
                        .collect();
                    if live.is_empty() {
                        continue;
                    }
                    // Checked rather than truncating: a >4B-branch fan-out
                    // would corrupt the join counter.
                    let n_live =
                        u32::try_from(live.len()).expect("parallel fan-out exceeds u32 children");
                    let (service, entity, root, span, deadline) = {
                        let frame = self.frame(fid).expect("frame alive");
                        frame.pending_children = n_live;
                        (
                            frame.service,
                            frame.entity,
                            frame.root_seq,
                            frame.span,
                            frame.deadline_ns,
                        )
                    };
                    for b in live {
                        let child = self.alloc_frame(
                            service,
                            entity,
                            root,
                            FrameKind::SubTask { parent: fid },
                            b,
                            span,
                        );
                        // Parallel branches run under the parent's deadline.
                        self.frame(child).expect("fresh frame").deadline_ns = deadline;
                        self.push_ev(self.now, Ev::Resume { frame: child });
                    }
                    return;
                }
                CStep::Branch { prob, then, otherwise } => {
                    let svc = self.frame(fid).expect("frame alive").service;
                    let proc = self.sh.svc_proc[svc] as usize;
                    let cond = self.proc_mut(proc).rng.gen::<f64>() < prob;
                    let chosen = if cond { then } else { otherwise };
                    if !self.sh.progs.get(chosen).steps.is_empty() {
                        let ctx = ExecCtx { prog: chosen, pc: 0, repeat_left: 0 };
                        self.frame(fid).expect("frame alive").stack.push(ctx);
                    }
                }
                CStep::Repeat { times, body } => {
                    if times > 0 && !self.sh.progs.get(body).steps.is_empty() {
                        let ctx = ExecCtx { prog: body, pc: 0, repeat_left: times - 1 };
                        self.frame(fid).expect("frame alive").stack.push(ctx);
                    }
                }
                CStep::Fail { prob } => {
                    let svc = self.frame(fid).expect("frame alive").service;
                    let proc = self.sh.svc_proc[svc] as usize;
                    if self.proc_mut(proc).rng.gen::<f64>() < prob {
                        if let Some(frame) = self.frame(fid) {
                            frame.last_err = Some(CallErr::Fault);
                        }
                        self.fail_frame(fid);
                        return;
                    }
                }
            }
        }
    }

    fn frame_entity_root(&mut self, fid: FrameId) -> (u64, u64, usize) {
        let frame = self.frame(fid).expect("frame alive");
        (frame.entity, frame.root_seq, frame.service)
    }

    /// Resolves a key expression; random keys draw from the stream of the
    /// process evaluating the step.
    fn resolve_key(&mut self, expr: KeyExpr, entity: u64, proc: usize) -> u64 {
        match expr {
            KeyExpr::Entity => entity,
            KeyExpr::EntityMod(m) => entity % m.max(1),
            KeyExpr::Const(k) => k,
            KeyExpr::Random(m) => self.proc_mut(proc).rng.gen_range(0..m.max(1)),
        }
    }

    // ------------------------------------------------------------------
    // Calls: attempts, transports, policies.
    // ------------------------------------------------------------------

    /// Starts a new call from `fid` through client `client` towards `dest`.
    fn begin_call(
        &mut self,
        fid: FrameId,
        client: u32,
        dest: CallDest,
        backend_op: Option<BackendOp>,
        on_miss: Option<ProgId>,
    ) {
        let seq = {
            let Some(frame) = self.frame(fid) else { return };
            let seq = frame.next_call_seq;
            frame.next_call_seq += 1;
            frame.call = Some(OutstandingCall {
                seq,
                attempt: 0,
                client,
                dest,
                backend_op,
                chosen: None,
                holds_conn: false,
                concluded: false,
                on_miss,
                queued_msg: None,
                attempt_deadline: None,
            });
            seq
        };
        self.begin_attempt(fid, seq);
    }

    /// Issues one attempt of the frame's outstanding call.
    fn begin_attempt(&mut self, fid: FrameId, seq: u32) {
        // Gather everything under short borrows.
        let (svc, entity, root_seq, span, attempt, client_id, backend_op, dest, frame_deadline) = {
            let Some(frame) = self.frame(fid) else { return };
            let Some(call) = &frame.call else { return };
            if call.seq != seq || call.concluded {
                return;
            }
            (
                frame.service,
                frame.entity,
                frame.root_seq,
                frame.span,
                call.attempt,
                call.client,
                call.backend_op,
                call.dest,
                frame.deadline_ns,
            )
        };

        if matches!(dest, CallDest::Unbound) {
            // Unbound dependency at runtime: fault.
            self.push_ev(
                self.now,
                Ev::DeliverResponse {
                    frame: fid,
                    seq,
                    attempt,
                    outcome: CallOutcome::failure(CallErr::Fault),
                },
            );
            return;
        }
        // The `Unbound` check above is the only path where `client_id` may
        // be the sentinel, so from here on the client resolves.
        let first_attempt = attempt == 0;
        let (timeout_ns, transport, client_overhead_ns, deadline_spec) = {
            let client = self.client_mut(client_id);
            if first_attempt {
                // Retry budget: each first attempt deposits `ratio` tokens,
                // so retries system-wide stay below `ratio` of real traffic.
                if let Some(rb) = &client.spec.retry_budget {
                    client.budget_tokens = (client.budget_tokens + rb.ratio).min(rb.cap);
                }
            }
            let spec = &client.spec;
            (
                spec.timeout_ns,
                spec.transport.clone(),
                spec.client_overhead_ns,
                spec.deadline.clone(),
            )
        };
        if first_attempt {
            self.metrics.counters.client_calls += 1;
        }

        // Deadline propagation: compute the deadline this attempt carries.
        // A hop without a deadline policy drops an inherited deadline (the
        // BP010 lint flags that wiring); with one, the child gets the
        // remaining budget minus the hop margin.
        let attempt_deadline = match &deadline_spec {
            Some(ds) => ds.child_deadline(self.now, frame_deadline),
            None => None,
        };

        // Fail fast when the budget is already exhausted — either the
        // frame's own deadline passed, or the hop margin ate the remainder —
        // instead of burning server capacity on a doomed request.
        let expired = frame_deadline.map(|d| self.now >= d).unwrap_or(false)
            || attempt_deadline.map(|d| d <= self.now).unwrap_or(false);
        if expired {
            self.metrics.counters.deadline_exceeded += 1;
            self.push_ev(
                self.now,
                Ev::DeliverResponse {
                    frame: fid,
                    seq,
                    attempt,
                    outcome: CallOutcome::failure(CallErr::Deadline),
                },
            );
            return;
        }

        // Circuit breaker.
        if !self.breaker_allow(client_id) {
            self.metrics.counters.breaker_rejections += 1;
            self.push_ev(
                self.now,
                Ev::DeliverResponse {
                    frame: fid,
                    seq,
                    attempt,
                    outcome: CallOutcome::failure(CallErr::BreakerOpen),
                },
            );
            return;
        }

        // Arm the timeout, clipped to the attempt deadline: the client
        // abandons the call the moment its budget runs out.
        let fire_at = match (timeout_ns, attempt_deadline) {
            (Some(t), Some(d)) => Some((self.now + t).min(d)),
            (Some(t), None) => Some(self.now + t),
            (None, Some(d)) => Some(d),
            (None, None) => None,
        };
        if let Some(at) = fire_at {
            self.push_ev(at, Ev::Timeout { frame: fid, seq, attempt });
        }

        // Resolve the concrete target.
        let (target, chosen) = match (dest, backend_op) {
            (CallDest::Svc { svc: target, method }, None) => {
                (CallTarget::Service { svc: target, method }, 0usize)
            }
            (CallDest::Replicated { policy, targets }, None) => {
                // The reconfig-aware pick (canary coin + draining/inactive
                // filtering) is gated on `reconfig_on`, so runs without a
                // plan keep the exact historical pick sequence.
                let idx = if self.sh.reconfig_on {
                    self.pick_replica_live(client_id, policy, targets, root_seq)
                } else {
                    self.pick_replica_plain(client_id, policy, targets)
                };
                let (tsvc, method) = self.sh.progs.targets(targets)[idx];
                (CallTarget::Service { svc: tsvc, method }, idx)
            }
            (CallDest::Backend { backend }, Some(op)) => {
                (CallTarget::Backend { backend, op }, 0usize)
            }
            _ => {
                // Kind mismatch between the behavior step and the binding.
                self.push_ev(
                    self.now,
                    Ev::DeliverResponse {
                        frame: fid,
                        seq,
                        attempt,
                        outcome: CallOutcome::failure(CallErr::Fault),
                    },
                );
                return;
            }
        };
        let client = self.client_mut(client_id);
        if let Some(slot) = client.outstanding.get_mut(chosen) {
            *slot += 1;
        }
        if let Some(frame) = self.frame(fid) {
            if let Some(c) = &mut frame.call {
                c.chosen = Some(chosen);
                c.attempt_deadline = attempt_deadline;
            }
        }

        // Transport.
        let (client_ser, net_ns, reply) = match &transport {
            TransportSpec::Local => (0u64, 0u64, ReplyRoute { serialize_ns: 0, net_ns: 0 }),
            TransportSpec::Grpc { serialize_ns, net_ns } => (
                *serialize_ns,
                *net_ns,
                ReplyRoute { serialize_ns: *serialize_ns, net_ns: *net_ns },
            ),
            TransportSpec::Thrift { serialize_ns, net_ns, .. } => (
                *serialize_ns,
                *net_ns,
                ReplyRoute { serialize_ns: *serialize_ns, net_ns: *net_ns },
            ),
            TransportSpec::Http { serialize_ns, net_ns } => (
                *serialize_ns,
                *net_ns,
                ReplyRoute { serialize_ns: *serialize_ns, net_ns: *net_ns },
            ),
        };
        let msg = RequestMsg {
            caller: fid,
            seq,
            attempt,
            target,
            entity,
            root_seq,
            reply,
            parent_span: span,
            deadline_ns: attempt_deadline,
        };
        let total_client_work = client_ser + client_overhead_ns;

        match &transport {
            TransportSpec::Local => {
                // In-process call: no network, but client-side per-call work
                // (tracing wrappers, backend driver marshalling + syscalls)
                // still burns CPU.
                self.send_request_with_serialize(svc, msg, total_client_work, 0);
            }
            TransportSpec::Thrift { pool, .. } => {
                let got_conn = {
                    let client = self.client_mut(client_id);
                    if client.conns_in_use < *pool {
                        client.conns_in_use += 1;
                        true
                    } else {
                        client.waiters.push_back((fid, seq, attempt));
                        false
                    }
                };
                if got_conn {
                    if let Some(frame) = self.frame(fid) {
                        if let Some(c) = &mut frame.call {
                            c.holds_conn = true;
                        }
                    }
                    self.send_request_with_serialize(svc, msg, total_client_work, net_ns);
                } else if let Some(frame) = self.frame(fid) {
                    if let Some(c) = &mut frame.call {
                        c.queued_msg = Some(msg);
                    }
                }
            }
            _ => {
                self.send_request_with_serialize(svc, msg, total_client_work, net_ns);
            }
        }
    }

    /// Runs the client-side serialization CPU, then delivers after `net_ns`.
    /// An active link fault between the two processes can drop the request
    /// (the caller sees `Unreachable` after the reply's network delay) or
    /// add latency.
    fn send_request_with_serialize(
        &mut self,
        client_svc: usize,
        msg: RequestMsg,
        work_ns: u64,
        mut net_ns: u64,
    ) {
        let proc = self.sh.svc_proc[client_svc] as usize;
        if !self.sh.link_faults.is_empty() {
            let dst = match msg.target {
                CallTarget::Service { svc, .. } => self.sh.svc_proc[svc] as usize,
                CallTarget::Backend { backend, .. } => self.sh.backend_proc[backend] as usize,
            };
            if let Some(lf) = self.sh.link_faults.get(&(proc, dst)).copied() {
                if self.now < lf.until {
                    // Loss coin: the sender's process stream.
                    let lost = lf.loss >= 1.0
                        || (lf.loss > 0.0 && self.proc_mut(proc).rng.gen::<f64>() < lf.loss);
                    if lost {
                        self.metrics.counters.link_unreachable += 1;
                        let t = self.now + msg.reply.net_ns;
                        self.push_ev(
                            t,
                            Ev::DeliverResponse {
                                frame: msg.caller,
                                seq: msg.seq,
                                attempt: msg.attempt,
                                outcome: CallOutcome::failure(CallErr::Unreachable),
                            },
                        );
                        return;
                    }
                    net_ns += lf.extra_ns;
                }
            }
        }
        if work_ns == 0 {
            self.send_request(self.now + net_ns, msg);
        } else {
            self.add_proc_job(proc, work_ns as f64, JobCont::SendRequest(msg, net_ns));
        }
    }

    /// Pops eligible waiters while connections are free.
    fn wake_waiters(&mut self, client_id: u32) {
        loop {
            let (fid, seq, attempt) = {
                let Some(client) = self.client_opt_mut(client_id) else { return };
                let TransportSpec::Thrift { pool, .. } = client.spec.transport else { return };
                if client.conns_in_use >= pool {
                    return;
                }
                let Some(w) = client.waiters.pop_front() else { return };
                w
            };
            // Validate the waiter is still the current attempt.
            let msg = {
                let Some(frame) = self.frame(fid) else { continue };
                let Some(call) = &mut frame.call else { continue };
                if call.seq != seq || call.attempt != attempt || call.concluded {
                    continue;
                }
                call.holds_conn = true;
                call.queued_msg.take()
            };
            let Some(msg) = msg else { continue };
            let client = self.client_mut(client_id);
            client.conns_in_use += 1;
            let spec_overhead = client.spec.client_overhead_ns;
            let (ser, net) = match client.spec.transport {
                TransportSpec::Thrift { serialize_ns, net_ns, .. } => (serialize_ns, net_ns),
                _ => (0, 0),
            };
            let owner = client.owner;
            self.send_request_with_serialize(owner, msg, ser + spec_overhead, net);
        }
    }

    /// Historical replica pick: the exact sequence used when no reconfig
    /// plan is active.
    fn pick_replica_plain(&mut self, client_id: u32, policy: LbPolicy, targets: TargetsId) -> usize {
        let n_targets = self.sh.progs.targets(targets).len();
        match policy {
            LbPolicy::RoundRobin => {
                let client = self.client_mut(client_id);
                let i = client.rr % n_targets;
                client.rr = client.rr.wrapping_add(1);
                i
            }
            // Random balancing draws from the client's own stream.
            LbPolicy::Random => self.client_mut(client_id).rng.gen_range(0..n_targets),
            LbPolicy::LeastOutstanding => self
                .client_mut(client_id)
                .outstanding
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| **n)
                .map(|(i, _)| i)
                .unwrap_or(0),
        }
    }

    /// Reconfig-aware replica pick. A canary target gets its deterministic
    /// per-root traffic share first (`mix64(salt ^ root_seq) < threshold` —
    /// no RNG draw, and sticky across retries of the same root request);
    /// the remaining traffic balances over replicas that are active and not
    /// draining, with the canary excluded from the baseline share. If
    /// nothing is eligible (mid-deploy edge) the pick falls back to the
    /// full list rather than stalling the call.
    fn pick_replica_live(
        &mut self,
        client_id: u32,
        policy: LbPolicy,
        targets: TargetsId,
        root_seq: u64,
    ) -> usize {
        let sh = &self.sh;
        let list = sh.progs.targets(targets);
        let n = list.len();
        let mut canary_pos = None;
        for (i, (tsvc, _)) in list.iter().enumerate() {
            if let Some(cr) = sh.canary_route[*tsvc] {
                if sh.svc_active[*tsvc] && !sh.svc_draining[*tsvc] {
                    if mix64(cr.salt ^ root_seq) < cr.threshold {
                        return i;
                    }
                    canary_pos = Some(i);
                }
            }
        }
        let ok = |i: usize| {
            let svc = list[i].0;
            sh.svc_active[svc] && !sh.svc_draining[svc] && canary_pos != Some(i)
        };
        let eligible = (0..n).filter(|&i| ok(i)).count();
        if eligible == 0 {
            return self.pick_replica_plain(client_id, policy, targets);
        }
        // The client lives on a lane, disjoint from the `sh` tables `ok`
        // reads.
        let (h, l) = sh.client_loc[client_id as usize];
        let client = &mut self.lanes[h as usize].clients[l as usize];
        match policy {
            LbPolicy::RoundRobin => {
                let start = client.rr % n;
                client.rr = client.rr.wrapping_add(1);
                (0..n)
                    .map(|k| (start + k) % n)
                    .find(|&i| ok(i))
                    .expect("eligible > 0")
            }
            LbPolicy::Random => {
                let j = client.rng.gen_range(0..eligible);
                (0..n).filter(|&i| ok(i)).nth(j).expect("eligible > 0")
            }
            LbPolicy::LeastOutstanding => client
                .outstanding
                .iter()
                .enumerate()
                .filter(|(i, _)| ok(*i))
                .min_by_key(|(_, n)| **n)
                .map(|(i, _)| i)
                .expect("eligible > 0"),
        }
    }

    // ------------------------------------------------------------------
    // Server side.
    // ------------------------------------------------------------------

    fn on_deliver_request(&mut self, req: RequestMsg) {
        match req.target {
            CallTarget::Service { svc, method } => {
                let proc = self.sh.svc_proc[svc] as usize;
                if self.sh.proc_down[proc] {
                    let t = self.now + req.reply.net_ns;
                    self.push_ev(
                        t,
                        Ev::DeliverResponse {
                            frame: req.caller,
                            seq: req.seq,
                            attempt: req.attempt,
                            outcome: CallOutcome::failure(CallErr::Crash),
                        },
                    );
                    return;
                }
                // A draining or out-of-rotation replica stops admitting new
                // work: callers see the stable `drain` class and fail over.
                // In-flight frames (admitted before the drain) still finish.
                if self.sh.reconfig_on && (!self.sh.svc_active[svc] || self.sh.svc_draining[svc]) {
                    self.metrics.counters.drain_rejections += 1;
                    let t = self.now + req.reply.net_ns;
                    self.push_ev(
                        t,
                        Ev::DeliverResponse {
                            frame: req.caller,
                            seq: req.seq,
                            attempt: req.attempt,
                            outcome: CallOutcome::failure(CallErr::Drain),
                        },
                    );
                    return;
                }
                // A request arriving past its propagated deadline is dead on
                // arrival: reject before admission so no server capacity is
                // spent on a reply nobody is waiting for.
                if req.deadline_ns.map(|d| self.now >= d).unwrap_or(false) {
                    self.metrics.counters.deadline_exceeded += 1;
                    let t = self.now + req.reply.net_ns;
                    self.push_ev(
                        t,
                        Ev::DeliverResponse {
                            frame: req.caller,
                            seq: req.seq,
                            attempt: req.attempt,
                            outcome: CallOutcome::failure(CallErr::Deadline),
                        },
                    );
                    return;
                }
                // Adaptive admission: when the controller's sojourn-delay
                // EWMA exceeds its target, a fraction of arrivals is shed.
                // The RNG (the serving process's stream) is drawn only while
                // the shed probability is positive, so an idle controller
                // costs nothing.
                let shed_p = match &self.svc_ref(svc).shed {
                    Some(ctl) if ctl.p > 0.0 => Some(ctl.p),
                    _ => None,
                };
                if let Some(p) = shed_p {
                    if self.proc_mut(proc).rng.gen::<f64>() < p {
                        self.metrics.counters.shed_rejections += 1;
                        let t = self.now + req.reply.net_ns;
                        self.push_ev(
                            t,
                            Ev::DeliverResponse {
                                frame: req.caller,
                                seq: req.seq,
                                attempt: req.attempt,
                                outcome: CallOutcome::failure(CallErr::Shed),
                            },
                        );
                        return;
                    }
                }
                let (at_capacity, prog) = {
                    let s = self.svc_ref(svc);
                    (s.active >= s.max_concurrent, s.methods.get(method as usize).copied())
                };
                if at_capacity {
                    self.metrics.counters.admission_rejections += 1;
                    let t = self.now + req.reply.net_ns;
                    self.push_ev(
                        t,
                        Ev::DeliverResponse {
                            frame: req.caller,
                            seq: req.seq,
                            attempt: req.attempt,
                            outcome: CallOutcome::failure(CallErr::Overload),
                        },
                    );
                    return;
                }
                let Some(prog) = prog else {
                    let t = self.now + req.reply.net_ns;
                    self.push_ev(
                        t,
                        Ev::DeliverResponse {
                            frame: req.caller,
                            seq: req.seq,
                            attempt: req.attempt,
                            outcome: CallOutcome::failure(CallErr::Fault),
                        },
                    );
                    return;
                };
                {
                    let s = self.svc_mut(svc);
                    s.active += 1;
                    s.served += 1;
                }
                let fid = self.alloc_frame(
                    svc,
                    req.entity,
                    req.root_seq,
                    FrameKind::Rpc {
                        caller: req.caller,
                        seq: req.seq,
                        attempt: req.attempt,
                        reply: req.reply,
                    },
                    prog,
                    req.parent_span,
                );
                let frame = self.frame(fid).expect("fresh frame");
                frame.counted_admission = true;
                frame.deadline_ns = req.deadline_ns;
                self.step_frame(fid);
            }
            CallTarget::Backend { backend, op } => {
                let proc = self.sh.backend_proc[backend] as usize;
                let err = if self.sh.proc_down[proc] {
                    Some(CallErr::Crash)
                } else {
                    let b = self.backend_ref(backend);
                    if self.now < b.brownout_until && b.brownout_unavailable {
                        self.metrics.counters.brownout_rejections += 1;
                        Some(CallErr::Brownout)
                    } else {
                        None
                    }
                };
                if let Some(err) = err {
                    let t = self.now + req.reply.net_ns;
                    self.push_ev(
                        t,
                        Ev::DeliverResponse {
                            frame: req.caller,
                            seq: req.seq,
                            attempt: req.attempt,
                            outcome: CallOutcome::failure(err),
                        },
                    );
                    return;
                }
                let (cpu, latency) = self.backend_cost(backend, &op);
                let host = self.sh.proc_host[proc] as usize;
                self.add_job_on(host, proc, cpu, JobCont::BackendExec { req, latency_ns: latency });
            }
        }
    }

    /// CPU work and fixed latency of a backend op. A browned-out backend
    /// (slow-factor variant) has both inflated by `brownout_slow`.
    fn backend_cost(&self, backend: usize, op: &BackendOp) -> (f64, u64) {
        let b = self.backend_ref(backend);
        let (cpu, lat) = match &b.kind {
            BackendRtKind::Cache { op_latency_ns, cpu_per_op_ns, cpu_per_item_ns, .. } => {
                let items = match op {
                    BackendOp::CacheMulti { items, .. } => *items as u64,
                    _ => 0,
                };
                ((*cpu_per_op_ns + items * *cpu_per_item_ns) as f64, *op_latency_ns)
            }
            BackendRtKind::Store {
                read_latency_ns,
                write_latency_ns,
                cpu_per_op_ns,
                cpu_per_item_ns,
                ..
            } => {
                let (items, latency) = match op {
                    BackendOp::StoreScan { items } => (*items as u64, *read_latency_ns),
                    BackendOp::StoreWrite { .. } => (0, *write_latency_ns),
                    _ => (0, *read_latency_ns),
                };
                ((*cpu_per_op_ns + items * *cpu_per_item_ns) as f64, latency)
            }
            BackendRtKind::Queue { op_latency_ns, .. } => (2_000.0, *op_latency_ns),
        };
        // `SystemSpec::validate` and `resolve_fault` reject non-finite or
        // sub-1 slow factors, so the scaling below cannot produce 0 ns from
        // a NaN/negative multiplier.
        debug_assert!(
            b.brownout_slow.is_finite() && b.brownout_slow >= 1.0,
            "brownout_slow must be finite and >= 1"
        );
        if self.now < b.brownout_until && b.brownout_slow > 1.0 {
            (cpu * b.brownout_slow, (lat as f64 * b.brownout_slow).round() as u64)
        } else {
            (cpu, lat)
        }
    }

    /// Whether a store member can serve (process up and its link from the
    /// store's serving process not fully cut). Only consulted on armed
    /// stores — unarmed replicas are plain in-process state.
    fn store_member_serves(&self, serving_proc: usize, member_proc: usize) -> bool {
        if self.sh.proc_down[member_proc] {
            return false;
        }
        match self.sh.link_faults.get(&(serving_proc, member_proc)) {
            Some(lf) => !(lf.loss >= 1.0 && self.now < lf.until),
            None => true,
        }
    }

    /// Applies a backend op to its state, returning the outcome plus an
    /// extra-latency surcharge (quorum ack / session redirect; 0 in the
    /// default modes). Stats go to the backend's dense counters (mirrored
    /// into `metrics` per run slice).
    fn apply_backend_op(&mut self, req: &RequestMsg) -> (CallOutcome, u64) {
        let CallTarget::Backend { backend, op } = &req.target else {
            return (CallOutcome::failure(CallErr::Fault), 0);
        };
        let b = *backend;
        self.backend_mut(b).stats_dirty = true;
        match op {
            BackendOp::CacheGet { key } => {
                let backend_rt = self.backend_mut(b);
                let hit = backend_rt.cache.get(*key);
                let stats = &mut backend_rt.stats;
                stats.reads += 1;
                let outcome = match hit {
                    Some(version) => {
                        stats.hits += 1;
                        CallOutcome { ok: true, err: None, version, cache_hit: Some(true) }
                    }
                    None => {
                        stats.misses += 1;
                        CallOutcome { ok: true, err: None, version: 0, cache_hit: Some(false) }
                    }
                };
                (outcome, 0)
            }
            BackendOp::CachePut { key, version } => {
                let backend_rt = self.backend_mut(b);
                let capacity = match backend_rt.kind {
                    BackendRtKind::Cache { capacity_items, .. } => capacity_items,
                    _ => u64::MAX,
                };
                // Eviction sampling draws from the backend's own stream.
                let BackendRt { cache, rng, stats, .. } = backend_rt;
                let evictions = cache.put(*key, *version, capacity, rng);
                stats.writes += 1;
                stats.evictions += evictions;
                (CallOutcome::success(0), 0)
            }
            BackendOp::CacheDelete { key } => {
                let backend_rt = self.backend_mut(b);
                backend_rt.cache.delete(*key);
                backend_rt.stats.writes += 1;
                (CallOutcome::success(0), 0)
            }
            BackendOp::CacheMulti { key, write, version, .. } => {
                if *write {
                    let backend_rt = self.backend_mut(b);
                    let capacity = match backend_rt.kind {
                        BackendRtKind::Cache { capacity_items, .. } => capacity_items,
                        _ => u64::MAX,
                    };
                    let BackendRt { cache, rng, stats, .. } = backend_rt;
                    cache.put(*key, *version, capacity, rng);
                    stats.writes += 1;
                    (CallOutcome::success(0), 0)
                } else {
                    let backend_rt = self.backend_mut(b);
                    let v = backend_rt.cache.get(*key);
                    let stats = &mut backend_rt.stats;
                    stats.reads += 1;
                    if v.is_some() {
                        stats.hits += 1;
                    } else {
                        stats.misses += 1;
                    }
                    (
                        CallOutcome {
                            ok: true,
                            err: None,
                            version: v.unwrap_or(0),
                            cache_hit: Some(v.is_some()),
                        },
                        0,
                    )
                }
            }
            BackendOp::StoreRead { key } => self.store_read(b, *key, req.entity),
            BackendOp::StoreWrite { key, version } => {
                self.store_write(b, *key, *version, req.entity)
            }
            BackendOp::StoreScan { .. } => {
                self.backend_mut(b).stats.reads += 1;
                (CallOutcome::success(0), 0)
            }
            BackendOp::QueuePush => {
                let (capacity, len) = {
                    let backend_rt = self.backend_ref(b);
                    let capacity = match backend_rt.kind {
                        BackendRtKind::Queue { capacity, .. } => capacity,
                        _ => u64::MAX,
                    };
                    (capacity, backend_rt.queue.len() as u64)
                };
                if len >= capacity {
                    self.metrics.counters.queue_drops += 1;
                    (CallOutcome::failure(CallErr::QueueFull), 0)
                } else {
                    let entity = req.entity;
                    let backend_rt = self.backend_mut(b);
                    backend_rt.queue.push_back(entity);
                    backend_rt.stats.writes += 1;
                    (CallOutcome::success(0), 0)
                }
            }
            BackendOp::QueuePop => {
                let backend_rt = self.backend_mut(b);
                backend_rt.queue.pop_front();
                backend_rt.stats.reads += 1;
                (CallOutcome::success(0), 0)
            }
        }
    }

    /// A store read under the store's consistency mode.
    fn store_read(&mut self, b: usize, key: u64, entity: u64) -> (CallOutcome, u64) {
        let serving_proc = self.sh.backend_proc[b] as usize;
        let (mode, read_latency_ns) = match self.backend_ref(b).kind {
            BackendRtKind::Store { consistency, read_latency_ns, .. } => {
                (consistency, read_latency_ns)
            }
            _ => (ConsistencyMode::ReadReplica, 0),
        };
        // Pull the member layout out first (immutable), then mutate.
        let (armed, peers): (bool, Vec<(usize, usize)>) = {
            let store = &self.backend_ref(b).store;
            (
                store.armed,
                store.peer_indices().map(|i| (i, store.members[i].proc as usize)).collect(),
            )
        };
        let serves = |me: &Self, proc: usize| !armed || me.store_member_serves(serving_proc, proc);
        match mode {
            ConsistencyMode::Primary => {
                let backend_rt = self.backend_mut(b);
                let version = backend_rt.store.primary_version(key);
                backend_rt.stats.reads += 1;
                (CallOutcome::success(version), 0)
            }
            ConsistencyMode::ReadReplica | ConsistencyMode::Session => {
                // Round-robin over serving peers, falling back to the
                // primary when no peer can serve. The cursor advances
                // exactly once per read (as it always did), so default-mode
                // replica selection is byte-identical to the old model.
                let chosen = if peers.is_empty() {
                    None
                } else {
                    let n = peers.len();
                    let start = {
                        let store = &mut self.backend_mut(b).store;
                        let s = store.rr % n;
                        store.rr = store.rr.wrapping_add(1);
                        s
                    };
                    (0..n)
                        .map(|off| peers[(start + off) % n])
                        .find(|&(_, proc)| serves(self, proc))
                };
                let mut redirect = false;
                let (version, from_replica) = {
                    let store = &self.backend_ref(b).store;
                    match chosen {
                        Some((i, _)) => {
                            let mut v =
                                store.members[i].map.get(&key).copied().unwrap_or(0);
                            if matches!(mode, ConsistencyMode::Session) {
                                // Session floor: a replica behind this
                                // entity's read-your-writes floor redirects
                                // to the primary (one extra read latency).
                                let floor = store
                                    .session_floor
                                    .get(&entity)
                                    .copied()
                                    .unwrap_or(0);
                                if v < floor {
                                    v = store.primary_version(key);
                                    redirect = true;
                                }
                            }
                            (v, !redirect)
                        }
                        None => (store.primary_version(key), false),
                    }
                };
                let primary_version = self.backend_ref(b).store.primary_version(key);
                let backend_rt = self.backend_mut(b);
                backend_rt.stats.reads += 1;
                if redirect {
                    backend_rt.stats.session_redirects += 1;
                }
                if from_replica && version < primary_version {
                    backend_rt.stats.stale_reads += 1;
                }
                if matches!(mode, ConsistencyMode::Session) {
                    // Reads raise the floor too (monotonic reads).
                    let floor = backend_rt.store.session_floor.entry(entity).or_insert(0);
                    *floor = (*floor).max(version);
                }
                (
                    CallOutcome::success(version),
                    if redirect { read_latency_ns } else { 0 },
                )
            }
            ConsistencyMode::Quorum { r, .. } => {
                // Primary-first read fan-out: the primary plus the first
                // r-1 serving peers in member order; the result is the
                // freshest version any of them holds. Fan-out is parallel,
                // so no extra latency; too few members fails the read.
                let mut consulted = 1u32; // the primary always serves here
                let mut version = self.backend_ref(b).store.primary_version(key);
                for &(i, proc) in &peers {
                    if consulted >= r {
                        break;
                    }
                    if !serves(self, proc) {
                        continue;
                    }
                    let v = {
                        let store = &self.backend_ref(b).store;
                        store.members[i].map.get(&key).copied().unwrap_or(0)
                    };
                    version = version.max(v);
                    consulted += 1;
                }
                let backend_rt = self.backend_mut(b);
                backend_rt.stats.reads += 1;
                if consulted < r {
                    self.metrics.counters.quorum_rejections += 1;
                    return (CallOutcome::failure(CallErr::Quorum), 0);
                }
                (CallOutcome::success(version), 0)
            }
        }
    }

    /// A store write under the store's consistency mode. The write always
    /// lands on the current primary; replication to the other members is
    /// asynchronous (lag-sampled `ReplicaApply` events) except for the
    /// `w - 1` synchronous quorum members, whose slowest lag is returned as
    /// the acknowledgement surcharge.
    fn store_write(&mut self, b: usize, key: u64, version: u64, entity: u64) -> (CallOutcome, u64) {
        let serving_proc = self.sh.backend_proc[b] as usize;
        let (mode, lag_range) = match self.backend_ref(b).kind {
            BackendRtKind::Store { consistency, replication_lag_ns, .. } => {
                (consistency, replication_lag_ns)
            }
            _ => (ConsistencyMode::ReadReplica, (0, 0)),
        };
        let (armed, gen, peers): (bool, u64, Vec<(usize, usize)>) = {
            let store = &self.backend_ref(b).store;
            (
                store.armed,
                store.gen,
                store.peer_indices().map(|i| (i, store.members[i].proc as usize)).collect(),
            )
        };
        let serves = |me: &Self, proc: usize| !armed || me.store_member_serves(serving_proc, proc);
        // Quorum admission first: with fewer than w members up and
        // reachable the write is rejected before touching any state (no
        // primary apply, no RNG draws) — the client sees the stable
        // `quorum` error class.
        let sync_needed = match mode {
            ConsistencyMode::Quorum { w, .. } => w.saturating_sub(1) as usize,
            _ => 0,
        };
        if sync_needed > 0 {
            let reachable = peers.iter().filter(|&&(_, proc)| serves(self, proc)).count();
            if reachable < sync_needed {
                self.metrics.counters.quorum_rejections += 1;
                return (CallOutcome::failure(CallErr::Quorum), 0);
            }
        }
        // Apply on the current primary.
        {
            let store = &mut self.backend_mut(b).store;
            let p = store.primary;
            let m = &mut store.members[p];
            let slot = m.map.entry(key).or_insert(0);
            if version > *slot {
                *slot = version;
            }
            m.applied += 1;
            m.watermark = m.watermark.max(version);
            if matches!(mode, ConsistencyMode::Session) {
                // An acknowledged write raises the session floor.
                let floor = store.session_floor.entry(entity).or_insert(0);
                *floor = (*floor).max(version);
            }
        }
        // Replicate to the other members in member order — the identical
        // iteration order (and thus RNG draw order) the old replica vec
        // had, so default-mode runs stay byte-identical.
        let mut synced = 0usize;
        let mut extra_ns = 0u64;
        for (i, proc) in peers {
            // Per-member lag draws come from the backend's stream.
            let lag = if lag_range.1 > lag_range.0 {
                self.backend_mut(b).rng.gen_range(lag_range.0..=lag_range.1)
            } else {
                lag_range.0
            };
            if synced < sync_needed && serves(self, proc) {
                // Synchronous quorum member: applied before the ack, which
                // therefore waits out the slowest such member's lag.
                let store = &mut self.backend_mut(b).store;
                let m = &mut store.members[i];
                let slot = m.map.entry(key).or_insert(0);
                if version > *slot {
                    *slot = version;
                }
                m.applied += 1;
                m.watermark = m.watermark.max(version);
                extra_ns = extra_ns.max(lag);
                synced += 1;
            } else {
                self.push_ev(
                    self.now + lag,
                    Ev::ReplicaApply { backend: b, member: i, key, version, gen },
                );
            }
        }
        self.backend_mut(b).stats.writes += 1;
        (CallOutcome::success(0), extra_ns)
    }

    // ------------------------------------------------------------------
    // Client side: responses, timeouts, retries.
    // ------------------------------------------------------------------

    fn on_deliver_response(&mut self, fid: FrameId, seq: u32, attempt: u32, outcome: CallOutcome) {
        // Validate freshness.
        let (client_id, chosen, holds_conn, on_miss) = {
            let Some(frame) = self.frame(fid) else { return };
            let Some(call) = &mut frame.call else { return };
            if call.seq != seq || call.attempt != attempt || call.concluded {
                return;
            }
            call.concluded = true;
            let holds = call.holds_conn;
            call.holds_conn = false;
            (call.client, call.chosen.take(), holds, call.on_miss)
        };
        // A breaker-rejected attempt must not feed back into the breaker's own
        // health window (it would re-open a half-open breaker on its own
        // rejections). Deadline expiry is likewise excluded: it is a
        // caller-imposed cancellation, not a server-health signal.
        if outcome.err != Some(CallErr::BreakerOpen) && outcome.err != Some(CallErr::Deadline) {
            self.breaker_record(client_id, outcome.ok);
        }
        if let Some(client) = self.client_opt_mut(client_id) {
            if let Some(ch) = chosen {
                if let Some(slot) = client.outstanding.get_mut(ch) {
                    *slot = slot.saturating_sub(1);
                }
            }
            if holds_conn {
                client.conns_in_use = client.conns_in_use.saturating_sub(1);
            }
        }
        if holds_conn {
            self.wake_waiters(client_id);
        }

        if outcome.ok {
            let push_miss = outcome.cache_hit == Some(false);
            {
                let frame = self.frame(fid).expect("frame alive");
                let was_read = {
                    let call = frame.call.as_ref();
                    matches!(
                        call.and_then(|c| c.backend_op),
                        Some(BackendOp::CacheGet { .. })
                            | Some(BackendOp::StoreRead { .. })
                            | Some(BackendOp::CacheMulti { write: false, .. })
                    ) || matches!(
                        call.map(|c| &c.dest),
                        Some(CallDest::Svc { .. } | CallDest::Replicated { .. })
                    ) && outcome.version > 0
                };
                if was_read {
                    frame.did_read = true;
                }
                frame.observed_version = frame.observed_version.max(outcome.version);
                if push_miss {
                    if let Some(miss) = on_miss {
                        frame.stack.push(ExecCtx { prog: miss, pc: 0, repeat_left: 0 });
                    }
                }
                frame.call = None;
            }
            self.step_frame(fid);
        } else {
            self.retry_or_fail(fid, seq, attempt, client_id, outcome.err.unwrap_or(CallErr::Fault));
        }
    }

    fn on_timeout(&mut self, fid: FrameId, seq: u32, attempt: u32) {
        let now = self.now;
        let (client_id, chosen, holds_conn, deadline_hit) = {
            let Some(frame) = self.frame(fid) else { return };
            let Some(call) = &mut frame.call else { return };
            if call.seq != seq || call.attempt != attempt || call.concluded {
                return;
            }
            call.concluded = true;
            let holds = call.holds_conn;
            call.holds_conn = false;
            // A timer that fired at (or past) the propagated deadline is a
            // budget exhaustion, not an ordinary per-attempt timeout.
            let hit = call.attempt_deadline.map(|d| now >= d).unwrap_or(false)
                || frame.deadline_ns.map(|d| now >= d).unwrap_or(false);
            (call.client, call.chosen.take(), holds, hit)
        };
        if deadline_hit {
            self.metrics.counters.deadline_exceeded += 1;
        } else {
            self.metrics.counters.timeouts += 1;
            self.breaker_record(client_id, false);
        }
        let reconnect_at = {
            match self.client_opt_mut(client_id) {
                Some(client) => {
                    if let Some(ch) = chosen {
                        if let Some(slot) = client.outstanding.get_mut(ch) {
                            *slot = slot.saturating_sub(1);
                        }
                    }
                    if holds_conn {
                        // The abandoned connection is broken and
                        // re-established; it frees after the reconnect
                        // penalty.
                        let reconnect = match client.spec.transport {
                            TransportSpec::Thrift { reconnect_ns, .. } => reconnect_ns,
                            _ => 0,
                        };
                        Some(now + reconnect)
                    } else {
                        None
                    }
                }
                None => None,
            }
        };
        if let Some(at) = reconnect_at {
            self.push_ev(at, Ev::ConnFreed { client: client_id });
        }
        let err = if deadline_hit { CallErr::Deadline } else { CallErr::Timeout };
        self.retry_or_fail(fid, seq, attempt, client_id, err);
    }

    fn retry_or_fail(&mut self, fid: FrameId, seq: u32, attempt: u32, client_id: u32, err: CallErr) {
        let (retries, backoff, exp) = match self.client_opt_mut(client_id) {
            Some(c) => (c.spec.retries, c.spec.backoff_ns, c.spec.backoff_exp.clone()),
            None => (0, 0, None),
        };
        // Deadline exhaustion is never retried: the caller's budget is gone,
        // so another attempt could not be waited for.
        if attempt < retries && err != CallErr::Deadline {
            // Retry budget: checked before anything else the retry path
            // does — a denied retry must not sleep its backoff (no jitter
            // RNG draw) and must never reach the breaker's probe admission
            // in `begin_attempt`. Ordering: budget → breaker → backoff.
            let mut denied = false;
            if let Some(c) = self.client_opt_mut(client_id) {
                if c.spec.retry_budget.is_some() {
                    if c.budget_tokens < 1.0 {
                        denied = true;
                    } else {
                        c.budget_tokens -= 1.0;
                    }
                }
            }
            if denied {
                self.metrics.counters.budget_denied += 1;
                if let Some(frame) = self.frame(fid) {
                    frame.last_err = Some(err);
                }
                self.fail_frame(fid);
                return;
            }
            self.metrics.counters.retries += 1;
            if let Some(frame) = self.frame(fid) {
                if let Some(call) = &mut frame.call {
                    call.attempt = attempt + 1;
                    call.concluded = false;
                    call.queued_msg = None;
                }
            }
            let delay = match exp {
                None => backoff,
                Some(e) => {
                    let mut d = (backoff.max(1) as f64) * e.base.powi(attempt as i32);
                    if e.max_ns > 0 {
                        d = d.min(e.max_ns as f64);
                    }
                    if e.jitter > 0.0 {
                        // Deterministic "full-ish" jitter from the client's
                        // own stream: shave up to `jitter` fraction off the
                        // computed delay.
                        let u = self
                            .client_opt_mut(client_id)
                            .map(|c| c.rng.gen::<f64>())
                            .unwrap_or(0.0);
                        d *= 1.0 - e.jitter * u;
                    }
                    d.max(0.0).round() as u64
                }
            };
            self.push_ev(self.now + delay, Ev::RetryFire { frame: fid, seq });
        } else {
            if let Some(frame) = self.frame(fid) {
                frame.last_err = Some(err);
            }
            self.fail_frame(fid);
        }
    }

    fn on_retry_fire(&mut self, fid: FrameId, seq: u32) {
        let ok = {
            let Some(frame) = self.frame(fid) else { return };
            match &frame.call {
                Some(call) => call.seq == seq && !call.concluded,
                None => false,
            }
        };
        if ok {
            self.begin_attempt(fid, seq);
        }
    }

    // ------------------------------------------------------------------
    // Circuit breaker.
    // ------------------------------------------------------------------

    fn breaker_allow(&mut self, client_id: u32) -> bool {
        let now = self.now;
        let Some(client) = self.client_opt_mut(client_id) else { return true };
        let Some(spec) = &client.spec.breaker else { return true };
        let probes = spec.half_open_probes.max(1);
        match client.breaker {
            BreakerState::Closed => true,
            BreakerState::HalfOpen { admitted, successes } => {
                // Admit at most `half_open_probes` trial calls; further
                // requests are rejected until the probes settle the state.
                if admitted < probes {
                    client.breaker = BreakerState::HalfOpen { admitted: admitted + 1, successes };
                    true
                } else {
                    false
                }
            }
            BreakerState::Open { until } => {
                if now >= until {
                    client.breaker = BreakerState::HalfOpen { admitted: 1, successes: 0 };
                    true
                } else {
                    false
                }
            }
        }
    }

    fn breaker_record(&mut self, client_id: u32, ok: bool) {
        let now = self.now;
        let mut opened = false;
        {
            let Some(client) = self.client_opt_mut(client_id) else { return };
            let Some(spec) = &client.spec.breaker else { return };
            let (window, failure_threshold, open_ns, half_open_probes) =
                (spec.window, spec.failure_threshold, spec.open_ns, spec.half_open_probes);
            match client.breaker {
                BreakerState::Open { .. } => {}
                BreakerState::HalfOpen { admitted, successes } => {
                    if ok {
                        if successes + 1 >= half_open_probes.max(1) {
                            client.breaker = BreakerState::Closed;
                            client.window.clear();
                            client.window_failures = 0;
                        } else {
                            client.breaker =
                                BreakerState::HalfOpen { admitted, successes: successes + 1 };
                        }
                    } else {
                        client.breaker = BreakerState::Open { until: now + open_ns };
                        opened = true;
                    }
                }
                BreakerState::Closed => {
                    client.window.push_back(ok);
                    if !ok {
                        client.window_failures += 1;
                    }
                    while client.window.len() > window as usize {
                        if let Some(old) = client.window.pop_front() {
                            if !old {
                                client.window_failures -= 1;
                            }
                        }
                    }
                    let n = client.window.len() as f64;
                    if n >= (window as f64 / 2.0).max(1.0)
                        && client.window_failures as f64 / n >= failure_threshold
                    {
                        client.breaker = BreakerState::Open { until: now + open_ns };
                        client.window.clear();
                        client.window_failures = 0;
                        opened = true;
                    }
                }
            }
        }
        if opened {
            self.metrics.counters.breaker_opens += 1;
        }
    }

    // ------------------------------------------------------------------
    // Frame completion.
    // ------------------------------------------------------------------

    fn fail_frame(&mut self, fid: FrameId) {
        if let Some(frame) = self.frame(fid) {
            frame.failed = true;
        }
        self.complete_frame(fid, false);
    }

    fn complete_frame(&mut self, fid: FrameId, ok: bool) {
        // Take the frame out (its slot and stack are recycled), then route
        // the result without cloning the kind.
        let Some(frame) = self.take_frame(fid) else { return };
        let Frame {
            service,
            kind,
            span,
            span_owned,
            observed_version: observed,
            last_err,
            entity,
            root_seq,
            counted_admission: counted,
            admitted_ns,
            ..
        } = frame;

        if counted {
            let now = self.now;
            let s = self.svc_mut(service);
            s.active = s.active.saturating_sub(1);
            // Per-service outcome tallies (canary vs baseline comparison).
            if ok {
                s.done_ok += 1;
            } else {
                s.done_err += 1;
            }
            // Adaptive admission: each served request's sojourn delay feeds
            // the controller's EWMA (present only when a shed policy is
            // lowered onto the service).
            if let Some(ctl) = &mut s.shed {
                ctl.observe(now.saturating_sub(admitted_ns));
            }
        }
        if span_owned {
            if let Some((tid, sid)) = span {
                self.traces.end_span(tid, sid, self.now, !ok);
            }
        }

        match kind {
            FrameKind::Entry(req) => {
                let failure = (!ok).then(|| last_err.unwrap_or(CallErr::Downstream).label());
                self.finish_entry(req, entity, root_seq, observed, failure);
            }
            FrameKind::Rpc { caller, seq, attempt, reply } => {
                let outcome = if ok {
                    CallOutcome::success(observed)
                } else {
                    // Propagate the root cause so callers (and ultimately the
                    // completion record) can classify the failure.
                    CallOutcome::failure(last_err.unwrap_or(CallErr::Downstream))
                };
                if reply.serialize_ns > 0 {
                    let proc = self.sh.svc_proc[service] as usize;
                    self.add_proc_job(
                        proc,
                        reply.serialize_ns as f64,
                        JobCont::SendResponse {
                            frame: caller,
                            seq,
                            attempt,
                            outcome,
                            net_ns: reply.net_ns,
                        },
                    );
                } else {
                    let t = self.now + reply.net_ns;
                    self.push_ev(
                        t,
                        Ev::DeliverResponse { frame: caller, seq, attempt, outcome },
                    );
                }
            }
            FrameKind::SubTask { parent } => {
                let resume = {
                    let Some(p) = self.frame(parent) else { return };
                    p.observed_version = p.observed_version.max(observed);
                    if !ok {
                        p.child_failed = true;
                        if p.last_err.is_none() {
                            p.last_err = last_err;
                        }
                    }
                    p.pending_children = p.pending_children.saturating_sub(1);
                    p.pending_children == 0
                };
                if resume {
                    let failed = self
                        .frame(parent)
                        .map(|p| p.child_failed)
                        .unwrap_or(false);
                    if failed {
                        self.fail_frame(parent);
                    } else {
                        self.step_frame(parent);
                    }
                }
            }
        }
    }

    /// Records an entry request's completion at the current time and counts
    /// it; `failure` is `None` exactly for successful requests. The one place
    /// a [`Completion`] is built.
    fn finish_entry(
        &mut self,
        req: EntryReq,
        entity: u64,
        root_seq: u64,
        observed_version: u64,
        failure: Option<&'static str>,
    ) {
        let ok = failure.is_none();
        if ok {
            self.metrics.counters.completed_ok += 1;
        } else {
            self.metrics.counters.completed_err += 1;
        }
        self.completions.push(Completion {
            entry: self.sh.names.get(req.entry).to_string(),
            method: self.sh.names.get(req.method).to_string(),
            entity,
            root_seq,
            submitted_ns: req.submitted_ns,
            finished_ns: self.now,
            ok,
            observed_version,
            failure,
        });
    }

    // ------------------------------------------------------------------
    // Control plane: fault injection and chaos. These handlers run as
    // control events (key context `CTRL_CTX`) or driver calls, and are the
    // only writers of cluster-wide fault state (`proc_down`, `link_faults`,
    // `proc_gen`).
    // ------------------------------------------------------------------

    /// Executes a resolved fault at the current time.
    fn apply_fault(&mut self, rf: RFault) {
        self.metrics.counters.faults_injected += 1;
        match rf {
            RFault::Crash { proc, restart_ns } => self.crash_process(proc, restart_ns),
            RFault::HostDown { host, down_ns } => {
                let residents: Vec<usize> = (0..self.sh.proc_host.len())
                    .filter(|p| self.sh.proc_host[*p] as usize == host)
                    .collect();
                for proc in residents {
                    self.crash_process(proc, down_ns);
                }
            }
            RFault::Link { a, b, dur, extra_ns, loss } => {
                let until = self.now + dur;
                for pair in [(a, b), (b, a)] {
                    let e = self.sh.link_faults.entry(pair).or_insert(LinkFault {
                        until: 0,
                        extra_ns: 0,
                        loss: 0.0,
                    });
                    // Overlapping faults merge to the worst case.
                    e.until = e.until.max(until);
                    e.extra_ns = e.extra_ns.max(extra_ns);
                    e.loss = e.loss.max(loss);
                }
                // A cut link can isolate an armed store's primary from its
                // replica set, which is a failover trigger.
                self.schedule_store_failovers();
            }
            RFault::Brownout { backend, dur, slow, unavailable } => {
                let until = self.now + dur;
                let b = self.backend_mut(backend);
                b.brownout_until = b.brownout_until.max(until);
                b.brownout_slow = slow;
                b.brownout_unavailable = unavailable;
            }
        }
    }

    /// Crashes a process: every resident frame and CPU job dies, callers see
    /// `Crash` errors, client/connection/heap state resets cold, and the
    /// process restarts after `restart_ns`.
    fn crash_process(&mut self, proc: usize, restart_ns: SimTime) {
        self.stop_process(proc, restart_ns, CallErr::Crash);
    }

    /// Stops a process with a caller-visible cause. `Crash` models a fault;
    /// `Drain` models a planned rolling restart, where anything still
    /// resident when the drain window closed fails with the stable `drain`
    /// error class (never silently dropped). Either way the process state
    /// resets cold and it restarts after `restart_ns`.
    fn stop_process(&mut self, proc: usize, restart_ns: SimTime, cause: CallErr) {
        if self.sh.proc_down[proc] {
            return;
        }
        self.sh.proc_down[proc] = true;
        self.sh.proc_gen[proc] += 1;
        if matches!(cause, CallErr::Crash) {
            self.metrics.counters.process_crashes += 1;
        }
        let host = self.sh.proc_host[proc] as usize;

        // An in-progress GC pause dies with the process; the heap restarts at
        // its base size (or empty without a GC spec).
        if let Some(job) = self.proc_mut(proc).gc_job.take() {
            let now = self.now;
            self.lanes[host].ps.cancel(now, job);
        }
        {
            let base = self.sh.gc_specs[proc].as_ref().map(|g| g.base_heap_bytes).unwrap_or(0);
            let p = self.proc_mut(proc);
            p.heap = base;
            p.in_gc = false;
        }

        // Cancel every CPU job of the process; in-flight work that would have
        // produced a response fails fast so callers are never left hanging.
        let victims = self.lanes[host].ps.cancel_proc(self.now, proc);
        for cont in victims {
            match cont {
                // The frame dies in the sweep below; nothing to route.
                JobCont::FrameStep(_) | JobCont::SendRequest(..) | JobCont::GcEnd { .. } => {}
                JobCont::SendResponse { frame, seq, attempt, net_ns, .. } => {
                    let t = self.now + net_ns;
                    self.push_ev(
                        t,
                        Ev::DeliverResponse {
                            frame,
                            seq,
                            attempt,
                            outcome: CallOutcome::failure(cause),
                        },
                    );
                }
                JobCont::BackendExec { req, .. } => {
                    let t = self.now + req.reply.net_ns;
                    self.push_ev(
                        t,
                        Ev::DeliverResponse {
                            frame: req.caller,
                            seq: req.seq,
                            attempt: req.attempt,
                            outcome: CallOutcome::failure(cause),
                        },
                    );
                }
            }
        }

        // Kill every frame resident on the process. Frames always live on
        // the lane of their service's host, so only that lane is swept;
        // slot order within it is deterministic. The table is bounded by
        // u32 frame ids (MAX_FRAMES_CAP), so the conversion is checked,
        // not truncating.
        let n_frames = u32::try_from(self.lanes[host].frames.len())
            .expect("frame table exceeds u32 index space");
        for idx in 0..n_frames {
            let fid = match &self.lanes[host].frames[idx as usize] {
                Some(f) if self.sh.svc_proc[f.service] as usize == proc => {
                    FrameId { host: host as u32, idx, gen: f.gen }
                }
                _ => continue,
            };
            self.kill_frame_for_stop(fid, cause);
        }

        // Clients owned by the process's services restart cold: breaker
        // closed, health window empty, no pooled connections, no waiters.
        for ci in 0..self.sh.client_owner.len() {
            let owner = self.sh.client_owner[ci] as usize;
            if self.sh.svc_proc[owner] as usize != proc {
                continue;
            }
            let c = self.client_mut(ci as u32);
            c.window.clear();
            c.window_failures = 0;
            c.breaker = BreakerState::Closed;
            c.conns_in_use = 0;
            c.waiters.clear();
            c.rr = 0;
            for slot in c.outstanding.iter_mut() {
                *slot = 0;
            }
            c.budget_tokens = 0.0;
        }

        // Admission controllers on the process restart cold too (the next
        // observation re-seeds the EWMA rather than decaying up from zero).
        for s in 0..self.sh.svc_proc.len() {
            if self.sh.svc_proc[s] as usize != proc {
                continue;
            }
            if let Some(ctl) = &mut self.svc_mut(s).shed {
                ctl.reset();
            }
        }

        // Volatile backend state on the process is lost; stores are durable.
        for b in 0..self.sh.backend_proc.len() {
            if self.sh.backend_proc[b] as usize != proc {
                continue;
            }
            let rt = self.backend_mut(b);
            rt.cache.flush();
            rt.queue.clear();
        }

        let gen = self.sh.proc_gen[proc];
        self.push_ev(self.now + restart_ns, Ev::ProcRestart { proc, gen });
        self.touch_host(host);
        // The stopped process may have been serving an armed store.
        self.schedule_store_failovers();
    }

    /// Removes one frame killed by a process stop (crash or drain-deadline),
    /// routing the failure to whoever was waiting on it.
    fn kill_frame_for_stop(&mut self, fid: FrameId, cause: CallErr) {
        let Some(frame) = self.lanes[fid.host as usize].take_frame(fid) else { return };
        self.metrics.counters.crashed_frames += 1;
        if frame.counted_admission {
            let s = self.svc_mut(frame.service);
            s.active = s.active.saturating_sub(1);
            s.done_err += 1;
        }
        if frame.span_owned {
            if let Some((tid, sid)) = frame.span {
                self.traces.end_span(tid, sid, self.now, true);
            }
        }
        match frame.kind {
            FrameKind::Entry(req) => {
                // Defensive: entry frames live on the workload shim, which a
                // fault plan cannot target.
                let (entity, root_seq) = (frame.entity, frame.root_seq);
                let failure = Some(cause.label());
                self.finish_entry(req, entity, root_seq, frame.observed_version, failure);
            }
            FrameKind::Rpc { caller, seq, attempt, reply } => {
                // No server-side serialization: the reply never forms; the
                // caller learns of the failure after the network delay.
                let t = self.now + reply.net_ns;
                self.push_ev(
                    t,
                    Ev::DeliverResponse {
                        frame: caller,
                        seq,
                        attempt,
                        outcome: CallOutcome::failure(cause),
                    },
                );
            }
            // The parent runs in the same process and dies in the same sweep.
            FrameKind::SubTask { .. } => {}
        }
    }

    /// Draws and injects the next chaos fault, then re-arms the process.
    fn on_chaos_fire(&mut self) {
        let (fault, next, end) = {
            let Some(chaos) = self.chaos.as_mut() else { return };
            if self.now >= chaos.end_ns {
                return;
            }
            let idx = chaos.rng.gen_range(0..chaos.menu.len());
            let fault = chaos.menu[idx].clone();
            let gap = exp_gap(&mut chaos.rng, chaos.mean_gap_ns);
            (fault, self.now + gap, chaos.end_ns)
        };
        self.apply_fault(fault);
        if next < end {
            self.push_ev(next, Ev::ChaosFire);
        }
    }

    // ------------------------------------------------------------------
    // Store failover (armed stores only; see `FailoverSpec`).
    // ------------------------------------------------------------------

    /// Whether an armed store's current primary is unable to serve its
    /// replica set: its process is down, or every peer member's process has
    /// its link to the primary fully cut (a degraded-but-delivering link is
    /// not a trigger).
    fn store_failover_triggered(&self, b: usize) -> bool {
        let serving_proc = self.sh.backend_proc[b] as usize;
        if self.sh.proc_down[serving_proc] {
            return true;
        }
        let store = &self.backend_ref(b).store;
        let mut any_peer = false;
        for i in store.peer_indices() {
            let peer_proc = store.members[i].proc as usize;
            if peer_proc == serving_proc {
                continue;
            }
            any_peer = true;
            let cut = match self.sh.link_faults.get(&(serving_proc, peer_proc)) {
                Some(lf) => lf.loss >= 1.0 && self.now < lf.until,
                None => false,
            };
            if !cut {
                // At least one peer still reaches the primary: no election.
                return false;
            }
        }
        any_peer
    }

    /// Schedules elections for every armed store whose failover trigger
    /// holds. Called after any fault that can take a primary out (process
    /// stop, link cut). Detection and election delays are paid up front;
    /// the trigger is re-checked when the election fires, so a primary that
    /// recovers in the window cancels the promotion.
    fn schedule_store_failovers(&mut self) {
        for b in 0..self.sh.backend_proc.len() {
            let (armed, pending, gen, delay) = {
                let store = &self.backend_ref(b).store;
                (
                    store.armed,
                    store.election_pending,
                    store.gen,
                    store.detection_ns + store.election_ns,
                )
            };
            if !armed || pending || !self.store_failover_triggered(b) {
                continue;
            }
            self.backend_mut(b).store.election_pending = true;
            let t = self.now + delay;
            self.push_ev(t, Ev::StoreFailover { backend: b, gen });
        }
    }

    /// Runs a scheduled election: promote the most-caught-up reachable
    /// peer (highest watermark, then highest applied count, then lowest
    /// member index) and re-point the store's serving process at it. Writes
    /// the old primary acknowledged but never replicated are *lost* — they
    /// are counted here, and the deposed member is rolled back to the new
    /// primary's state when its process restarts (`resync_store_members`).
    fn on_store_failover(&mut self, b: usize, gen: u64) {
        {
            let store = &self.backend_ref(b).store;
            // A stale generation means another election already ran (or the
            // store was re-armed); this one is void.
            if !store.armed || store.gen != gen {
                return;
            }
        }
        self.backend_mut(b).store.election_pending = false;
        // The primary recovered during the detection + election window.
        if !self.store_failover_triggered(b) {
            return;
        }
        let winner = {
            let store = &self.backend_ref(b).store;
            let mut best: Option<(u64, u64, std::cmp::Reverse<usize>, usize)> = None;
            for i in store.peer_indices() {
                let m = &store.members[i];
                if self.sh.proc_down[m.proc as usize] {
                    continue;
                }
                let rank = (m.watermark, m.applied, std::cmp::Reverse(i), i);
                if best.is_none_or(|cur| rank > cur) {
                    best = Some(rank);
                }
            }
            best.map(|(_, _, _, i)| i)
        };
        let Some(winner) = winner else {
            // Nothing promotable right now; a later fault (or restart) may
            // re-trigger the election.
            return;
        };
        let lost = {
            let store = &self.backend_ref(b).store;
            let old = &store.members[store.primary];
            let new = &store.members[winner];
            // Order-independent: count keys where the deposed primary is
            // ahead of the winner — acked writes that never replicated.
            old.map
                .iter()
                .filter(|(k, v)| **v > new.map.get(k).copied().unwrap_or(0))
                .count() as u64
        };
        let new_proc = {
            let rt = self.backend_mut(b);
            rt.store.primary = winner;
            rt.store.gen += 1;
            rt.stats.failovers += 1;
            rt.stats.lost_writes += lost;
            rt.stats_dirty = true;
            rt.store.members[winner].proc
        };
        self.sh.backend_proc[b] = new_proc;
        self.metrics.counters.store_failovers += 1;
    }

    /// Brings every armed-store member hosted on a freshly restarted
    /// process back in line with the current primary: its map, applied
    /// count, and watermark are copied wholesale. For a deposed primary
    /// this is the rollback that discards its un-replicated (lost) writes;
    /// for a partitioned-then-crashed replica it is catch-up.
    fn resync_store_members(&mut self, proc: usize) {
        for b in 0..self.sh.backend_proc.len() {
            let touched = {
                let store = &self.backend_ref(b).store;
                store.armed
                    && store
                        .peer_indices()
                        .any(|i| store.members[i].proc as usize == proc)
            };
            if !touched {
                continue;
            }
            let store = &mut self.backend_mut(b).store;
            let primary = store.primary;
            let (src, applied, watermark) = {
                let p = &store.members[primary];
                (p.map.clone(), p.applied, p.watermark)
            };
            for i in 0..store.members.len() {
                if i == primary || store.members[i].proc as usize != proc {
                    continue;
                }
                let m = &mut store.members[i];
                m.map = src.clone();
                m.applied = applied;
                m.watermark = watermark;
            }
        }
    }

    // ------------------------------------------------------------------
    // Control plane: runtime reconfiguration. Like fault injection, these
    // handlers run as control events or driver calls, and are the only
    // writers of rotation state (`svc_active`, `svc_draining`,
    // `canary_route`).
    // ------------------------------------------------------------------

    /// Applies one runtime change immediately, as a driver action
    /// (`workload::Action::Reconfig`). The change is validated against the
    /// live topology — unknown services get nearest-match suggestions, and
    /// scaling below 1 replica is rejected — then starts at the current
    /// virtual time.
    pub fn apply_change(&mut self, change: &Change) -> Result<()> {
        let rc = self.resolve_change(change)?;
        self.ensure_reconfig();
        let idx = {
            let rt = self.reconfig.as_mut().expect("just ensured");
            rt.changes.push(rc);
            rt.changes.len() - 1
        };
        self.start_change(idx);
        Ok(())
    }

    /// Lazily creates the reconfig runtime (driver-applied changes on a sim
    /// built with an empty plan) and arms the gated hot-path checks.
    fn ensure_reconfig(&mut self) {
        if self.reconfig.is_none() {
            self.reconfig = Some(Box::new(ReconfigRt::new(self.cfg.seed)));
        }
        self.sh.reconfig_on = true;
    }

    fn on_reconfig_fire(&mut self, idx: usize) {
        self.start_change(idx);
    }

    /// Starts a resolved change at the current time.
    fn start_change(&mut self, idx: usize) {
        self.metrics.counters.reconfig_changes += 1;
        let rc = {
            let rt = self.reconfig.as_ref().expect("reconfig event without runtime");
            rt.changes[idx].clone()
        };
        match rc {
            RChange::Rolling { group, drain_ns, restart_ns, drainless } => {
                let ri = {
                    let rt = self.reconfig.as_mut().expect("checked above");
                    rt.rollings.push(RollingRt { group, drain_ns, restart_ns, drainless, next: 0 });
                    rt.rollings.len() - 1
                };
                self.roll_step(ri);
            }
            RChange::Scale { group, replicas, drain_ns } => {
                self.apply_scale(&group, replicas, drain_ns);
            }
            RChange::Canary { group, fraction, evaluate_ns, timeout_ns, retries } => {
                self.start_canary(&group, fraction, evaluate_ns, timeout_ns, retries);
            }
        }
    }

    /// Starts processing the next replica of a rolling deploy (or finishes
    /// the deploy when the group is exhausted).
    fn roll_step(&mut self, ri: usize) {
        let (svc, drain_ns, restart_ns, drainless) = {
            let rt = self.reconfig.as_ref().expect("rolling without runtime");
            let roll = &rt.rollings[ri];
            match roll.group.get(roll.next) {
                Some(&svc) => (svc, roll.drain_ns, roll.restart_ns, roll.drainless),
                None => return, // deploy complete
            }
        };
        if drainless {
            // Restart in place with no drain window: in-flight work dies
            // with `Crash` — the hazard the drained path exists to avoid
            // (lint BP012 flags exactly this).
            let proc = self.sh.svc_proc[svc] as usize;
            self.crash_process(proc, restart_ns);
            let t = self.now + restart_ns;
            self.push_ev(t, Ev::RollAdvance { rolling: ri });
        } else {
            self.begin_drain(svc, DrainFollow::Rolling(ri), drain_ns);
        }
    }

    /// Takes a replica out of rotation and schedules its drain deadline.
    /// From this point new deliveries fail fast with `Drain` (callers fail
    /// over via the filtered LB pick); admitted frames run to completion or
    /// their deadline until the window closes.
    fn begin_drain(&mut self, svc: usize, follow: DrainFollow, drain_ns: SimTime) {
        self.sh.svc_draining[svc] = true;
        let token = {
            let rt = self.reconfig.as_mut().expect("drain without runtime");
            rt.drains.push(DrainRt { svc, follow, done: false });
            rt.drains.len() - 1
        };
        let t = self.now + drain_ns;
        self.push_ev(t, Ev::DrainDone { token });
    }

    fn on_drain_done(&mut self, token: usize) {
        let (svc, follow) = {
            let rt = self.reconfig.as_mut().expect("drain event without runtime");
            let d = &mut rt.drains[token];
            if d.done {
                return;
            }
            d.done = true;
            (d.svc, d.follow)
        };
        match follow {
            DrainFollow::Rolling(ri) => {
                // Stragglers that outlived the drain window fail with the
                // stable `drain` class (conserved, never dropped); then the
                // replica's process restarts with the new parameters.
                let restart_ns = self.reconfig.as_ref().expect("checked").rollings[ri].restart_ns;
                let proc = self.sh.svc_proc[svc] as usize;
                self.stop_process(proc, restart_ns, CallErr::Drain);
                // Pushed after the `ProcRestart` event at the same time, so
                // the health probe observes the restarted process.
                let t = self.now + restart_ns;
                self.push_ev(t, Ev::RollAdvance { rolling: ri });
            }
            DrainFollow::Deactivate => self.finish_deactivate(svc),
        }
    }

    /// Health gate between rolling steps: advance only once the restarted
    /// process is actually back up (a fault overlapping the deploy delays
    /// the roll rather than marching on blind).
    fn on_roll_advance(&mut self, rolling: usize) {
        let (svc, restart_ns) = {
            let rt = self.reconfig.as_ref().expect("roll event without runtime");
            let roll = &rt.rollings[rolling];
            match roll.group.get(roll.next) {
                Some(&svc) => (svc, roll.restart_ns),
                None => return,
            }
        };
        let proc = self.sh.svc_proc[svc] as usize;
        if self.sh.proc_down[proc] {
            let t = self.now + restart_ns.max(1);
            self.push_ev(t, Ev::RollAdvance { rolling });
            return;
        }
        self.sh.svc_draining[svc] = false;
        self.reconfig.as_mut().expect("checked").rollings[rolling].next += 1;
        self.roll_step(rolling);
    }

    /// Scales a replica group to `replicas` in-rotation members. Scale-out
    /// activates the lowest-index parked replicas cold (their clients and
    /// admission EWMAs reset, re-primed by the first post-activation
    /// sample); scale-in drains the highest-index active replicas first.
    fn apply_scale(&mut self, group: &[usize], replicas: usize, drain_ns: SimTime) {
        let target = replicas.max(1).min(group.len());
        let active: Vec<usize> = group
            .iter()
            .copied()
            .filter(|&s| self.sh.svc_active[s] && !self.sh.svc_draining[s])
            .collect();
        if active.len() < target {
            let mut need = target - active.len();
            for &svc in group {
                if need == 0 {
                    break;
                }
                if self.sh.svc_active[svc] || self.sh.svc_draining[svc] {
                    continue;
                }
                self.activate_replica(svc);
                need -= 1;
            }
        } else if active.len() > target {
            let excess = active.len() - target;
            for &svc in active.iter().rev().take(excess) {
                if drain_ns == 0 {
                    self.finish_deactivate(svc);
                } else {
                    self.begin_drain(svc, DrainFollow::Deactivate, drain_ns);
                }
            }
        }
    }

    /// Puts a parked replica back into rotation. Its outbound clients
    /// restart cold (closed breaker, empty health window, no pooled
    /// connections) and its admission controller re-primes on the first
    /// sample, mirroring the post-crash reset.
    fn activate_replica(&mut self, svc: usize) {
        self.sh.svc_active[svc] = true;
        self.sh.svc_draining[svc] = false;
        for ci in 0..self.sh.client_owner.len() {
            if self.sh.client_owner[ci] as usize != svc {
                continue;
            }
            let c = self.client_mut(ci as u32);
            c.window.clear();
            c.window_failures = 0;
            c.breaker = BreakerState::Closed;
            c.conns_in_use = 0;
            c.waiters.clear();
            c.rr = 0;
            for slot in c.outstanding.iter_mut() {
                *slot = 0;
            }
            c.budget_tokens = 0.0;
        }
        if let Some(ctl) = &mut self.svc_mut(svc).shed {
            ctl.reset();
        }
    }

    /// Final step of scale-in: the replica leaves rotation. Its process
    /// stays up, so any frames still running simply finish off-rotation.
    fn finish_deactivate(&mut self, svc: usize) {
        self.sh.svc_draining[svc] = false;
        self.sh.svc_active[svc] = false;
    }

    /// One autoscaler evaluation: fold instantaneous group utilization into
    /// the EWMA, act on the hysteresis bands (outside the cooldown), and
    /// re-arm the next tick with bounded jitter from the scaler's private
    /// RNG stream.
    fn on_autoscale_tick(&mut self, scaler: usize) {
        let Some(mut rt) = self.reconfig.take() else { return };
        let (action, next) = {
            let s = &mut rt.scalers[scaler];
            if self.now >= s.spec.end_ns {
                self.reconfig = Some(rt);
                return;
            }
            let mut busy = 0u64;
            let mut cap = 0u64;
            let mut in_rotation = 0usize;
            for &svc in &s.group {
                if !self.sh.svc_active[svc] || self.sh.svc_draining[svc] {
                    continue;
                }
                in_rotation += 1;
                let r = self.svc_ref(svc);
                busy += r.active as u64;
                cap += r.max_concurrent as u64;
            }
            let util = if cap == 0 { 0.0 } else { busy as f64 / cap as f64 };
            if s.primed {
                s.ewma = s.spec.ewma_alpha * util + (1.0 - s.spec.ewma_alpha) * s.ewma;
            } else {
                s.ewma = util;
                s.primed = true;
            }
            let mut action = None;
            if self.now >= s.cooldown_until && in_rotation > 0 {
                if s.ewma > s.spec.high_util && in_rotation < s.spec.max_replicas {
                    action = Some((in_rotation + 1, true));
                } else if s.ewma < s.spec.low_util && in_rotation > s.spec.min_replicas {
                    action = Some((in_rotation - 1, false));
                }
            }
            if action.is_some() {
                s.cooldown_until = self.now + s.spec.cooldown_ns;
            }
            // Deterministic tick jitter (≤ interval/64) decorrelates scalers
            // without touching any shared RNG stream.
            let jitter = if s.spec.interval_ns >= 64 {
                s.rng.gen_range(0..=s.spec.interval_ns / 64)
            } else {
                0
            };
            let at = self.now + s.spec.interval_ns + jitter;
            let next = if at < s.spec.end_ns { Some(at) } else { None };
            (
                action.map(|(n, up)| (s.group.clone(), n, s.spec.drain_ns, up)),
                next,
            )
        };
        self.reconfig = Some(rt);
        if let Some((group, n, drain_ns, up)) = action {
            if up {
                self.metrics.counters.autoscale_ups += 1;
            } else {
                self.metrics.counters.autoscale_downs += 1;
            }
            self.apply_scale(&group, n, drain_ns);
        }
        if let Some(t) = next {
            self.push_ev(t, Ev::AutoscaleTick { scaler });
        }
    }

    /// Starts a canary rollout: the highest-index in-rotation replica gets
    /// the mutated wiring (timeout/retry overrides on its outbound client
    /// specs) plus a deterministic traffic fraction; the rest of the group
    /// is the baseline. Promotion is decided by [`Sim::on_canary_eval`].
    fn start_canary(
        &mut self,
        group: &[usize],
        fraction: f64,
        evaluate_ns: SimTime,
        timeout_ns: Option<SimTime>,
        retries: Option<u32>,
    ) {
        let in_rotation: Vec<usize> = group
            .iter()
            .copied()
            .filter(|&s| self.sh.svc_active[s] && !self.sh.svc_draining[s])
            .collect();
        if in_rotation.len() < 2 {
            return; // nothing to compare against; validated at plan time
        }
        let canary = *in_rotation.last().expect("len >= 2");
        let baseline: Vec<usize> = in_rotation[..in_rotation.len() - 1].to_vec();
        let salt = {
            let rt = self.reconfig.as_mut().expect("canary without runtime");
            rt.rng.gen::<u64>()
        };
        let threshold = (fraction * u64::MAX as f64) as u64;
        self.sh.canary_route[canary] = Some(CanaryRoute { salt, threshold });
        let mut saved = Vec::new();
        for ci in 0..self.sh.client_owner.len() {
            if self.sh.client_owner[ci] as usize != canary {
                continue;
            }
            let c = self.client_mut(ci as u32);
            saved.push((ci, c.spec.clone()));
            if let Some(t) = timeout_ns {
                c.spec.timeout_ns = Some(t);
            }
            if let Some(r) = retries {
                c.spec.retries = r;
            }
        }
        let can0 = {
            let s = self.svc_ref(canary);
            (s.done_ok, s.done_err)
        };
        let mut base0 = (0u64, 0u64);
        for &b in &baseline {
            let s = self.svc_ref(b);
            base0.0 += s.done_ok;
            base0.1 += s.done_err;
        }
        let token = {
            let rt = self.reconfig.as_mut().expect("checked");
            rt.canaries.push(CanaryRt {
                svc: canary,
                baseline,
                timeout_ns,
                retries,
                saved,
                can0,
                base0,
                done: false,
            });
            rt.canaries.len() - 1
        };
        self.push_ev(self.now + evaluate_ns, Ev::CanaryEval { canary: token });
    }

    /// Seeded promote/rollback decision: compare canary vs baseline error
    /// rate over the evaluation window, with a small tolerance drawn from
    /// the plan-level stream so equal-rate comparisons don't flap on float
    /// noise. Promote pushes the mutated wiring to the whole group;
    /// rollback restores the canary's saved specs. Either way the traffic
    /// split ends.
    fn on_canary_eval(&mut self, canary: usize) {
        let Some(mut rt) = self.reconfig.take() else { return };
        let (svc, baseline, timeout_ns, retries, saved, can0, base0) = {
            let c = &mut rt.canaries[canary];
            if c.done {
                self.reconfig = Some(rt);
                return;
            }
            c.done = true;
            (
                c.svc,
                c.baseline.clone(),
                c.timeout_ns,
                c.retries,
                std::mem::take(&mut c.saved),
                c.can0,
                c.base0,
            )
        };
        let (c_ok, c_err) = {
            let s = self.svc_ref(svc);
            (s.done_ok - can0.0, s.done_err - can0.1)
        };
        let mut b_ok = 0u64;
        let mut b_err = 0u64;
        for &b in &baseline {
            let s = self.svc_ref(b);
            b_ok += s.done_ok;
            b_err += s.done_err;
        }
        b_ok -= base0.0;
        b_err -= base0.1;
        let rate = |ok: u64, err: u64| {
            let total = ok + err;
            if total == 0 {
                0.0
            } else {
                err as f64 / total as f64
            }
        };
        let eps = rt.rng.gen::<f64>() * 0.01;
        let promote = rate(c_ok, c_err) <= rate(b_ok, b_err) + eps;
        self.sh.canary_route[svc] = None;
        if promote {
            self.metrics.counters.canary_promotions += 1;
            // The mutated wiring becomes the group-wide wiring.
            for ci in 0..self.sh.client_owner.len() {
                let owner = self.sh.client_owner[ci] as usize;
                if !baseline.contains(&owner) {
                    continue;
                }
                let c = self.client_mut(ci as u32);
                if let Some(t) = timeout_ns {
                    c.spec.timeout_ns = Some(t);
                }
                if let Some(r) = retries {
                    c.spec.retries = r;
                }
            }
        } else {
            self.metrics.counters.canary_rollbacks += 1;
            for (ci, spec) in saved {
                self.client_mut(ci as u32).spec = spec;
            }
        }
        self.reconfig = Some(rt);
    }
}

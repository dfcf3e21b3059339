//! The per-invocation data path: admission → dispatch (front door +
//! shard queues) → placement (scheduler + autoscaler) → execution with
//! retry.
//!
//! Split from [`server`](crate::server) so the orchestration skeleton
//! (lifecycle, accept loop, accessors) stays separate from the hot
//! path every request walks.
//!
//! ## Dispatch engine
//!
//! The front door only admits, parses, and enqueues — a short
//! serialized section of [`ShardConfig::front_door_overhead`] — then
//! hands the job to one of several per-shard worker tasks. Each worker
//! serializes the full
//! [`dispatch_overhead`](crate::ServerConfig::dispatch_overhead) for
//! its own queue but overlaps it with every other shard, so aggregate
//! dispatch throughput scales with the shard count. Workers are
//! ordinary simtime tasks and every tie-break is seeded, so same-seed
//! replay stays byte-identical. One shard behind a zero-cost front door
//! is the historical single-lock router (the `cluster` bench reproduces
//! the paper's router-contention knee with that layout).
//!
//! When a tracer is configured ([`ServerConfig::with_tracer`]
//! (crate::ServerConfig::with_tracer)) the hot path records a span per
//! stage — `admission`, `dispatch`, `deserialize`/`shm_take`,
//! `queue_wait`, then `copy_in`/`kernel_exec`/`copy_out` on the
//! serving runner's track, and finally `reply` — all parented under the
//! client's `roundtrip` span carried in [`Request::span`]. Every
//! invocation also feeds the [`MetricsRegistry`]
//! (crate::MetricsRegistry): counters (`invocations`, `cold_starts`,
//! `errors.*`), latency histograms, and level gauges.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use kaas_accel::{DeviceClass, DeviceId};
use kaas_kernels::{Kernel, Value};
use kaas_simtime::channel::{self, OneshotSender, Receiver};
use kaas_simtime::rng::DetRng;
use kaas_simtime::sync::Semaphore;
use kaas_simtime::{now, sleep, spawn, SimTime};

use crate::admission::AdmissionPermit;
use crate::autoscaler::{ScaleCtx, ScaleDecision};
use crate::config::{ServerConfig, ShardConfig, ShardPolicy};
use crate::dataplane::{ObjectRef, DATA_KERNEL_PREFIX};
use crate::guest::CODE_KERNEL_PREFIX;
use crate::metrics::{InvocationReport, RunnerId};
use crate::pool::{InFlightGuard, RunnerPool, RunnerSlot};
use crate::protocol::{DataRef, InvokeError, Request, Response};
use crate::resilience::BreakerState;
use crate::scheduler::SchedCtx;
use crate::server::{KaasServer, DISCOVERY_KERNEL};

/// An admitted, parsed invocation: everything the execution pipeline
/// needs, carried from the front door to the shard worker that runs it.
pub(crate) struct ExecJob {
    req: Request,
    kernel: Rc<dyn Kernel>,
    /// RAII admission permit — rides with the job so the admission slot
    /// is held until execution finishes, on every exit path.
    permit: AdmissionPermit,
    submitted: SimTime,
}

/// One enqueued dispatch: the job plus what the shard worker needs to
/// finish the request and wake the front door's waiter. Carries a
/// strong server handle (a bounded `Rc` cycle while queued: the job
/// keeps the server alive, never the reverse — workers hold only the
/// receiving half, so they exit when the server drops its senders).
struct DispatchJob {
    server: KaasServer,
    job: ExecJob,
    /// When the request reached the dispatch layer (span start).
    t_dispatch: SimTime,
    /// When the front door enqueued it (the `dispatch.shard_ns` origin).
    enqueued: SimTime,
    reply: OneshotSender<Result<(DataRef, InvocationReport), InvokeError>>,
}

/// One shard's queue: the sending half plus its depth counter (the
/// worker task owns the receiving half).
pub(crate) struct ShardQueue {
    tx: channel::Sender<DispatchJob>,
    depth: Rc<Cell<usize>>,
    /// Requests this shard shed (over-cap at enqueue) or ejected
    /// (deadline passed while queued). Shared with the worker task; the
    /// sanitizer checks the per-shard sum equals the global tally and
    /// the `dispatch.ejected` counter — shedding is never silent.
    ejected: Rc<Cell<u64>>,
}

/// The server's dispatch engine — a thin front door plus per-shard
/// worker queues — built from
/// [`ServerConfig::dispatch`](crate::ServerConfig) at construction.
pub(crate) struct DispatchState {
    front_lock: Semaphore,
    config: ShardConfig,
    shards: Vec<ShardQueue>,
    /// Jobs currently queued across all shards; the sanitizer checks it
    /// equals the sum of per-shard depths every step.
    queued: Rc<Cell<usize>>,
    /// Round-robin cursor ([`ShardPolicy::RoundRobin`]).
    rr: Cell<usize>,
    /// Seeded tie-break stream ([`ShardPolicy::LeastLoaded`]).
    rng: RefCell<DetRng>,
    /// Total requests shed or ejected across all shards.
    ejected_total: Rc<Cell<u64>>,
}

impl DispatchState {
    /// Builds the engine laid out by `config.dispatch` for a fleet of
    /// `devices` devices. Shard workers are ordinary simtime tasks,
    /// spawned only when an executor is running (the same guard as the
    /// sanitizer hook in [`KaasServer::new`]); outside a simulation the
    /// queues exist but nothing drains them.
    pub(crate) fn new(config: &ServerConfig, devices: usize) -> Self {
        let sc = &config.dispatch;
        let n = if sc.shards == 0 {
            devices.max(1)
        } else {
            sc.shards
        };
        let queued = Rc::new(Cell::new(0usize));
        let ejected_total = Rc::new(Cell::new(0u64));
        let mut shards = Vec::with_capacity(n);
        for shard in 0..n {
            let (tx, rx) = channel::unbounded();
            let depth = Rc::new(Cell::new(0usize));
            let ejected = Rc::new(Cell::new(0u64));
            if kaas_simtime::Handle::try_current().is_some() {
                spawn(shard_worker(
                    shard,
                    rx,
                    Rc::clone(&depth),
                    Rc::clone(&queued),
                    Rc::clone(&ejected),
                    Rc::clone(&ejected_total),
                    config.dispatch_overhead,
                    sc.queue_cap.is_some(),
                ));
            }
            shards.push(ShardQueue { tx, depth, ejected });
        }
        DispatchState {
            front_lock: Semaphore::new(1),
            config: sc.clone(),
            shards,
            queued,
            rr: Cell::new(0),
            rng: RefCell::new(DetRng::seed_from_u64(sc.seed)),
            ejected_total,
        }
    }

    /// Current queue depth of every shard.
    pub(crate) fn shard_depths(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.depth.get()).collect()
    }

    /// Total dispatch jobs queued across all shards.
    pub(crate) fn queued(&self) -> usize {
        self.queued.get()
    }

    /// Requests each shard has shed or ejected.
    pub(crate) fn shard_ejected(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.ejected.get()).collect()
    }

    /// Total requests shed or ejected across all shards.
    pub(crate) fn ejected(&self) -> u64 {
        self.ejected_total.get()
    }

    /// Number of shard queues.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Chooses the shard for a request. Every source of choice is
    /// deterministic: the round-robin cursor, an FNV-1a hash, or the
    /// seeded tie-break stream — cross-shard ordering replays exactly.
    fn pick_shard(&self, kernel: &str) -> usize {
        let n = self.shards.len();
        match self.config.policy {
            ShardPolicy::RoundRobin => {
                let i = self.rr.get();
                self.rr.set((i + 1) % n);
                i
            }
            ShardPolicy::KernelAffinity => {
                // FNV-1a over the kernel name, seed-mixed into the
                // offset basis so deployments can re-map kernels to
                // shards without renaming them.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.config.seed;
                for b in kernel.bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                (h % n as u64) as usize
            }
            ShardPolicy::LeastLoaded => {
                let min = self
                    .shards
                    .iter()
                    .map(|s| s.depth.get())
                    .min()
                    .expect("at least one shard");
                let tied: Vec<usize> = self
                    .shards
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.depth.get() == min)
                    .map(|(i, _)| i)
                    .collect();
                if tied.len() == 1 {
                    tied[0]
                } else {
                    tied[self.rng.borrow_mut().gen_range(0..tied.len())]
                }
            }
        }
    }
}

/// One shard's drain loop: dequeue, pay the shard's serialized routing
/// cost, then hand execution to a fresh task so long-running kernels
/// never block the queue behind them. Exits when the server drops its
/// sending halves.
#[allow(clippy::too_many_arguments)]
async fn shard_worker(
    shard: usize,
    mut rx: Receiver<DispatchJob>,
    depth: Rc<Cell<usize>>,
    queued: Rc<Cell<usize>>,
    ejected: Rc<Cell<u64>>,
    ejected_total: Rc<Cell<u64>>,
    overhead: Duration,
    eject_expired: bool,
) {
    while let Some(DispatchJob {
        server,
        job,
        t_dispatch,
        enqueued,
        reply,
    }) = rx.recv().await
    {
        // Paired decrements with no await in between keep
        // `sum(depths) == queued` at every executor step boundary.
        depth.set(depth.get() - 1);
        queued.set(queued.get() - 1);
        {
            let inner = server.inner();
            let m = &inner.handles;
            m.shards[shard].depth.set(depth.get() as f64);
            // Lazy deadline ejection (bounded-queue mode only): the
            // deadline passed while the job sat in the queue, so it is
            // dead on arrival — reply now and never pay the routing
            // cost (or reach placement) for it. Unbounded queues keep
            // the historic behaviour: dead work still burns a full
            // dispatch slot before `execute` sheds it, which is exactly
            // the waste that sustains a metastable failure.
            if eject_expired && job.req.deadline.is_some_and(|d| now() > d) {
                ejected.set(ejected.get() + 1);
                ejected_total.set(ejected_total.get() + 1);
                m.dispatch_ejected.inc();
                m.shards[shard].ejected.inc();
                let _ = reply.send(Err(InvokeError::DeadlineExceeded));
                continue;
            }
            // The observed queue wait is the adaptive admission
            // limiter's control signal.
            inner.admission.observe_queue_wait(now() - enqueued);
            if let Some(limit) = inner.admission.current_limit() {
                m.admission_limit.set(limit as f64);
            }
        }
        // This worker is one task, so jobs on one shard pay the routing
        // cost back to back while other shards overlap theirs.
        sleep(overhead).await;
        let inner = server.inner();
        inner
            .handles
            .dispatch_shard_ns
            .observe((now() - enqueued).as_nanos() as f64);
        if let Some(t) = &inner.config.tracer {
            t.record(
                "server",
                "dispatch",
                t_dispatch,
                now(),
                job.req.span,
                vec![],
            );
        }
        spawn(async move {
            let out = server.execute(job).await;
            // A dropped receiver means the front-door waiter is gone;
            // the work still completed, so the result is simply unread.
            let _ = reply.send(out);
        });
    }
}

impl KaasServer {
    /// Handles one request end to end (public for in-process use and
    /// tests; network callers go through [`KaasServer::serve`]).
    pub async fn handle(&self, req: Request) -> Response {
        // Reserved flow endpoints: register a workflow DAG / trigger a
        // server-side dataflow run. These shape their own response
        // (they carry a per-step report alongside the result).
        // Control branches are boxed (here and below) so their state
        // stays out of this future, which every batch member holds.
        if req.kernel.starts_with(crate::flow::FLOW_KERNEL_PREFIX) {
            return Box::pin(self.flow_frame(req)).await;
        }
        let id = req.id;
        let discovery = req.kernel == DISCOVERY_KERNEL;
        match self.handle_inner(req).await {
            Ok((data, report)) => Response {
                id,
                result: Ok(data),
                report: Some(report),
                flow: None,
            },
            Err(e) => {
                if !discovery {
                    self.inner().handles.error(e.kind());
                }
                Response {
                    id,
                    result: Err(e),
                    report: None,
                    flow: None,
                }
            }
        }
    }

    pub(crate) async fn handle_inner(
        &self,
        req: Request,
    ) -> Result<(DataRef, InvocationReport), InvokeError> {
        // Reserved discovery endpoint: federated clients list the
        // kernels a site serves before routing work to it.
        if req.kernel == DISCOVERY_KERNEL {
            return Ok(self.discovery_response());
        }
        // Reserved data-plane endpoints: put/get/seal/pin against the
        // content-addressed object store.
        if req.kernel.starts_with(DATA_KERNEL_PREFIX) {
            return Box::pin(self.dataplane_op(req)).await;
        }
        // Reserved guest-code endpoints: register/list/remove against
        // the tenant kernel registry.
        if req.kernel.starts_with(CODE_KERNEL_PREFIX) {
            return Box::pin(self.code_op(req)).await;
        }
        let inner = self.inner();
        let tracer = inner.config.tracer.clone();
        let parent = req.span;
        let span = |name: &str, start: SimTime, end: SimTime| {
            if let Some(t) = &tracer {
                t.record("server", name, start, end, parent, vec![]);
            }
        };
        let submitted = now();
        let permit = match inner.admission.admit(req.tenant.as_deref()).await {
            Ok(permit) => permit,
            Err(InvokeError::Overloaded { retry_after: None }) => {
                // Cooperative backpressure: attach a deterministic
                // estimate of when the backlog will have drained, so
                // well-behaved clients retry after it instead of
                // hammering a saturated server.
                let backlog = inner.dispatch.queued() / inner.dispatch.shard_count().max(1);
                return Err(InvokeError::Overloaded {
                    retry_after: Some(self.retry_after_hint(backlog)),
                });
            }
            Err(e) => return Err(e),
        };
        if let Some(limit) = inner.admission.current_limit() {
            inner.handles.admission_limit.set(limit as f64);
        }
        span("admission", submitted, now());
        // Request parsing stays on the front door: resolve the kernel
        // before any dispatch cost so unknown names never consume
        // router capacity.
        let kernel = match inner.registry.lookup(&req.kernel) {
            Some(k) => k,
            // Guest kernels resolve alongside compiled-in ones: a bare
            // `tenant/name` means latest live version, `@vN` pins one.
            None => match inner.guests.resolve(&req.kernel) {
                Some(g) => {
                    // The verifier's worst-case fuel bound is the
                    // predicted cost of this invocation — recorded so
                    // admission policy can be tuned against it.
                    if let Some(fuel) = g.predicted_fuel() {
                        inner.handles.guest_predicted_fuel.observe(fuel as f64);
                    }
                    g as Rc<dyn Kernel>
                }
                None if crate::guest::is_guest_name(&req.kernel) => {
                    return Err(InvokeError::UnknownGuestKernel(req.kernel.clone()));
                }
                None => return Err(InvokeError::UnknownKernel(req.kernel.clone())),
            },
        };
        let job = ExecJob {
            req,
            kernel,
            permit,
            submitted,
        };
        let t_dispatch = now();
        // The front door only classifies + enqueues; placement, the
        // cache step, retry, and the runner handoff all happen on the
        // chosen shard's worker task.
        let d = &inner.dispatch;
        {
            let _front = d.front_lock.acquire(1).await;
            sleep(d.config.front_door_overhead).await;
        }
        let m = &inner.handles;
        m.dispatch_front_door_ns
            .observe((now() - t_dispatch).as_nanos() as f64);
        let shard = d.pick_shard(&job.req.kernel);
        let q = &d.shards[shard];
        // Enqueue-time shedding: dead or over-cap work never enters the
        // queue, so it cannot crowd out live requests or consume a
        // worker's routing cost. Every shed is counted — never silent.
        let eject = |err: InvokeError| {
            q.ejected.set(q.ejected.get() + 1);
            d.ejected_total.set(d.ejected_total.get() + 1);
            m.dispatch_ejected.inc();
            m.shards[shard].ejected.inc();
            err
        };
        if job.req.deadline.is_some_and(|at| now() > at) {
            return Err(eject(InvokeError::DeadlineExceeded));
        }
        if d.config.queue_cap.is_some_and(|cap| q.depth.get() >= cap) {
            let hint = self.retry_after_hint(q.depth.get());
            return Err(eject(InvokeError::Overloaded {
                retry_after: Some(hint),
            }));
        }
        // Paired increments with no await in between: the sanitizer
        // checks `sum(depths) == queued` after every executor step.
        q.depth.set(q.depth.get() + 1);
        d.queued.set(d.queued.get() + 1);
        m.shards[shard].depth.set(q.depth.get() as f64);
        let (reply_tx, reply_rx) = channel::oneshot();
        let dj = DispatchJob {
            server: self.clone(),
            job,
            t_dispatch,
            enqueued: now(),
            reply: reply_tx,
        };
        if q.tx.send(dj).await.is_err() {
            // No worker drains this queue (the server was built outside
            // a running simulation): undo the enqueue accounting and
            // report the path unavailable.
            q.depth.set(q.depth.get() - 1);
            d.queued.set(d.queued.get() - 1);
            return Err(InvokeError::Disconnected);
        }
        reply_rx.await.map_err(|_| InvokeError::Disconnected)?
    }

    /// The deterministic drain-time estimate attached to `Overloaded`
    /// sheds: how long a backlog of `backlog` jobs ahead of the caller
    /// takes one shard worker to route, capped at one second. A pure
    /// function of observable queue state, so same-seed replays emit
    /// identical hints.
    pub(crate) fn retry_after_hint(&self, backlog: usize) -> Duration {
        let overhead = self.inner().config.dispatch_overhead;
        overhead
            .saturating_mul(backlog.min(1_000_000) as u32 + 1)
            .min(Duration::from_secs(1))
    }

    /// The execution pipeline one admitted job walks — input
    /// materialization, deadline shedding, placement + cache step +
    /// retry, report/metrics recording, and reply shaping. Runs on a
    /// task the shard worker spawns per job.
    pub(crate) async fn execute(
        &self,
        job: ExecJob,
    ) -> Result<(DataRef, InvocationReport), InvokeError> {
        let ExecJob {
            req,
            kernel,
            permit: _permit,
            submitted,
        } = job;
        let inner = self.inner();
        let tracer = inner.config.tracer.clone();
        let parent = req.span;
        let span = |name: &str, start: SimTime, end: SimTime| {
            if let Some(t) = &tracer {
                t.record("server", name, start, end, parent, vec![]);
            }
        };

        // Materialize the input.
        let oob = matches!(req.data, DataRef::OutOfBand(_)) || req.reply_out_of_band;
        let object = match &req.data {
            DataRef::Object(r) => Some(*r),
            _ => None,
        };
        let t_input = now();
        let input = match req.data {
            DataRef::InBand(v) => {
                // Runner-side deserialization of the in-band payload.
                sleep(inner.config.serialization.time(v.wire_bytes())).await;
                span("deserialize", t_input, now());
                v
            }
            DataRef::OutOfBand(h) => {
                let v = inner.shm.take(h).await.ok_or(InvokeError::BadHandle)?;
                span("shm_take", t_input, now());
                v
            }
            DataRef::Object(r) => {
                // A content address resolves against the host object
                // store — no deserialization at all.
                let v = inner.dataplane.resolve(&r).ok_or(InvokeError::BadHandle)?;
                span("ref_resolve", t_input, now());
                v
            }
        };
        let enveloped = matches!(input, Value::Sized { .. });
        // Only sealed (immutable) objects may be cached in device
        // memory; an unsealed ref still resolves but re-uploads every
        // time.
        let cacheable = object.filter(|r| inner.dataplane.store().is_sealed(r.hash));

        // The deadline bounds time-to-start: shed rather than dispatch
        // work the client has already given up on.
        if req.deadline.is_some_and(|d| now() > d) {
            return Err(InvokeError::DeadlineExceeded);
        }

        // Dispatch with retries if the chosen runner died. Attempt
        // count, backoff, and budget come from the retry policy
        // (`ServerConfig::retry`); failures feed the per-device circuit
        // breaker and the slot's eviction accounting.
        let retry = &inner.config.retry;
        let m = &inner.handles;
        let mut attempts = 0u32;
        let mut backoff_spent = Duration::ZERO;
        let (output, timings, runner_id, device_id, started, degraded) = loop {
            attempts += 1;
            if attempts > 1 {
                m.retries_attempted.inc();
            }
            let t_wait = now();
            // Runners are keyed by the *resolved* kernel identity, not
            // the requested name: a guest bare name re-resolves over
            // time, and a warm runner must never serve a superseded
            // version.
            let (slot, degraded) = self.place(kernel.name(), &kernel, cacheable.as_ref())?;
            // Data-plane cache step: a sealed operand either already
            // sits in the chosen device's memory (hit — the host→device
            // copy is skipped) or is admitted now (miss — this
            // invocation's copy_in is the upload, evicting LRU objects
            // under pressure).
            let mut hit = false;
            let mut admitted = false;
            let mut guard_object = None;
            if let Some(r) = &cacheable {
                let t_cache = now();
                if let Some(mgr) = inner.dataplane.manager(slot.device()) {
                    hit = mgr.touch(r.hash);
                    if hit {
                        m.dataplane_hits.inc();
                    } else {
                        m.dataplane_misses.inc();
                        match inner.dataplane.admit(slot.device(), r) {
                            Ok(evicted) => {
                                admitted = true;
                                m.dataplane_evictions.add(evicted.len() as u64);
                                if let Some(t) = &tracer {
                                    for h in evicted {
                                        t.record(
                                            "server",
                                            "evict",
                                            t_cache,
                                            now(),
                                            parent,
                                            vec![
                                                ("object".into(), format!("{h:016x}")),
                                                ("device".into(), slot.device().to_string()),
                                            ],
                                        );
                                    }
                                }
                            }
                            Err(e) => {
                                return Err(InvokeError::DeviceOom(format!(
                                    "{} cannot hold {r}: {e}",
                                    slot.device()
                                )));
                            }
                        }
                    }
                    guard_object = Some((Rc::clone(mgr), r.hash));
                }
                if let Some(t) = &tracer {
                    t.record(
                        "server",
                        "cache_lookup",
                        t_cache,
                        now(),
                        parent,
                        vec![("outcome".into(), if hit { "hit" } else { "miss" }.into())],
                    );
                }
            }
            // RAII claim: released on every exit path below, including
            // kernel errors and retries. Also holds the operand's
            // in-flight reference so it cannot be evicted mid-read.
            let claim = InFlightGuard::claim_with_object(&slot, guard_object);
            let runner = slot.runner().await;
            let started = now();
            let result = if hit {
                runner.invoke_cached(&input).await
            } else {
                runner.invoke(&input).await
            };
            drop(claim);
            slot.touch();
            if let Some(timeout) = inner.config.idle_timeout {
                inner.pool.arm_reaper(&slot, timeout);
            }
            match result {
                Ok((output, timings)) => {
                    slot.record_success();
                    self.note_breaker(slot.device(), true);
                    if let Some(t) = &tracer {
                        // Device phases ran back to back ending now;
                        // tile them backwards from the finish time and
                        // charge everything before them to queueing.
                        let t_done = now();
                        let device_start = t_done.saturating_sub(
                            timings.copy_in + timings.kernel_exec + timings.copy_out,
                        );
                        t.record("server", "queue_wait", t_wait, device_start, parent, vec![]);
                        if admitted {
                            // The host→device copy doubled as the object
                            // upload into the device cache.
                            t.record(
                                "server",
                                "upload",
                                device_start,
                                device_start + timings.copy_in,
                                parent,
                                vec![("device".into(), slot.device().to_string())],
                            );
                        }
                        let track = runner.id().to_string();
                        let mut at = device_start;
                        for (name, d) in [
                            ("copy_in", timings.copy_in),
                            ("kernel_exec", timings.kernel_exec),
                            ("copy_out", timings.copy_out),
                        ] {
                            t.record(track.clone(), name, at, at + d, parent, vec![]);
                            at += d;
                        }
                    }
                    break (
                        output,
                        timings,
                        runner.id(),
                        runner.device_id(),
                        started,
                        degraded,
                    );
                }
                Err(InvokeError::RunnerFailed(reason)) => {
                    if admitted {
                        if let Some(r) = &cacheable {
                            // The upload never completed (it died with
                            // the runner): do not claim residency.
                            inner.dataplane.unmark(slot.device(), r.hash);
                        }
                    }
                    self.note_breaker(slot.device(), false);
                    if slot.record_failure(inner.config.eviction.failure_threshold) {
                        inner.pool.quarantine(&slot);
                        m.evictions.inc();
                    }
                    if let Some(t) = &tracer {
                        t.record(
                            "server",
                            "attempt_failed",
                            t_wait,
                            now(),
                            parent,
                            vec![("runner".into(), runner.id().to_string())],
                        );
                    }
                    if attempts >= retry.max_attempts {
                        return Err(InvokeError::RunnerFailed(reason));
                    }
                    let mut wait = retry.backoff.backoff(attempts, req.id);
                    if let Some(budget) = retry.budget {
                        let remaining = budget.saturating_sub(backoff_spent);
                        if remaining.is_zero() && !wait.is_zero() {
                            // Budget exhausted: give up rather than
                            // retry hot with no wait.
                            return Err(InvokeError::RunnerFailed(reason));
                        }
                        wait = wait.min(remaining);
                    }
                    if !wait.is_zero() {
                        sleep(wait).await;
                        backoff_spent += wait;
                    }
                }
                Err(e) => {
                    if admitted {
                        if let Some(r) = &cacheable {
                            inner.dataplane.unmark(slot.device(), r.hash);
                        }
                    }
                    return Err(e);
                }
            }
        };

        let completed = now();
        let report = InvocationReport {
            kernel: req.kernel.clone(),
            runner: runner_id,
            device: device_id,
            cold_start: timings.first_invocation,
            submitted,
            started,
            completed,
            copy_in: timings.copy_in,
            kernel_exec: timings.kernel_exec,
            copy_out: timings.copy_out,
            degraded,
        };
        inner.metrics.record(report.clone());
        self.record_registry(&report);
        // Guest usage accounting: bill whatever this kernel metered
        // since the last bill into the per-tenant `guest.*` counters.
        // The resolved name (`tenant/name@vN`) is the billing key even
        // when the request used a bare latest-version name.
        if crate::guest::is_guest_name(kernel.name()) {
            inner.guests.account(kernel.name(), m);
        }
        if object.is_some() {
            m.dataplane_bytes_resident
                .set(inner.dataplane.bytes_resident() as f64);
            for (dev, bytes) in inner.dataplane.residency() {
                m.device(dev).bytes_resident.set(bytes as f64);
            }
        }

        // Descriptor-mode requests get descriptor-sized responses: the
        // logical result size is the kernel's device→host volume.
        let output = if enveloped {
            let bytes_out = kernel
                .work(input.payload())
                .map(|w| w.bytes_out)
                .unwrap_or(0)
                .max(output.wire_bytes());
            Value::sized(bytes_out, output)
        } else {
            output
        };
        // Internal flow-executor handoff: the output goes straight to
        // the object store, so skip reply shaping — no serialization,
        // no shm hop, nothing crosses the wire.
        if req.reply_to_store {
            return Ok((DataRef::InBand(output), report));
        }
        // Return the output the same way the input came in.
        let t_reply = now();
        let data = if oob {
            let bytes = output.wire_bytes();
            DataRef::OutOfBand(inner.shm.put(output, bytes).await)
        } else {
            sleep(inner.config.serialization.time(output.wire_bytes())).await;
            DataRef::InBand(output)
        };
        span("reply", t_reply, now());
        Ok((data, report))
    }

    /// Feeds one successful invocation into the structured registry:
    /// event counters, stage-latency histograms (global and per-kernel),
    /// and current-level gauges.
    fn record_registry(&self, report: &InvocationReport) {
        let inner = self.inner();
        let m = &inner.handles;
        let per_kernel = m.kernel(&report.kernel);
        m.invocations.inc();
        per_kernel.invocations.inc();
        if report.cold_start {
            m.cold_starts.inc();
        }
        if report.degraded {
            m.degraded_served.inc();
        }
        // In `STAGES` order.
        let values = [
            report.server_latency(),
            report.queue_time(),
            report.copy_in,
            report.kernel_exec,
            report.copy_out,
        ];
        for ((global, kernel), v) in m.stages.iter().zip(&per_kernel.stages).zip(values) {
            global.observe(v.as_secs_f64());
            kernel.observe(v.as_secs_f64());
        }
        m.in_flight.set(inner.pool.total_in_flight() as f64);
        m.runners.set(inner.pool.total_runners() as f64);
        let elapsed = now().as_secs_f64();
        if elapsed > 0.0 {
            for d in inner.pool.devices() {
                m.device(d.id())
                    .utilization
                    .set((d.busy_seconds() / elapsed).min(1.0));
            }
        }
    }

    /// Feeds one invocation outcome into the device's circuit breaker
    /// (no-op when breakers are disabled) and publishes the resulting
    /// state as a `breaker.<device>.state` gauge (0 closed, 1 half-open,
    /// 2 open).
    fn note_breaker(&self, device: DeviceId, success: bool) {
        let inner = self.inner();
        if let Some(breaker) = inner.breakers.for_device(device) {
            if success {
                breaker.record_success();
            } else {
                breaker.record_failure();
            }
            let level = match breaker.state() {
                BreakerState::Closed => 0.0,
                BreakerState::HalfOpen => 1.0,
                BreakerState::Open => 2.0,
            };
            inner.handles.device(device).breaker_state.set(level);
        }
    }

    /// Chooses (or starts) a runner slot for `kernel` on its preferred
    /// device class, degrading to a configured fallback class when the
    /// preferred one has no usable device. `operand` is the request's
    /// sealed object ref, if any — the data-plane residency hint passed
    /// through to the scheduler. Returns the slot and whether the
    /// placement was degraded.
    fn place(
        &self,
        name: &str,
        kernel: &Rc<dyn Kernel>,
        operand: Option<&ObjectRef>,
    ) -> Result<(Rc<RunnerSlot>, bool), InvokeError> {
        let preferred = kernel.device_class();
        match self.place_on(name, kernel, preferred, operand) {
            Ok(slot) => Ok((slot, false)),
            Err(e @ (InvokeError::NoDevice(_) | InvokeError::CircuitOpen(_))) => {
                if let Some(fallback) = self.inner().config.fallback.next(preferred) {
                    if let Ok(slot) = self.place_on(name, kernel, fallback, operand) {
                        return Ok((slot, true));
                    }
                }
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// Chooses (or starts) a runner slot for `kernel` on `class`:
    /// scheduler first, autoscaler on cold/saturated fleets, queueing as
    /// the fallback. Only slots on online devices of `class` whose
    /// circuit breaker allows placements are eligible. Claims nothing —
    /// the caller takes the in-flight guard.
    fn place_on(
        &self,
        name: &str,
        kernel: &Rc<dyn Kernel>,
        class: DeviceClass,
        operand: Option<&ObjectRef>,
    ) -> Result<Rc<RunnerSlot>, InvokeError> {
        let inner = self.inner();
        let pool = &inner.pool;
        let config = &inner.config;
        let breakers = &inner.breakers;
        let slot_ok = |s: &RunnerSlot| {
            pool.device(s.device())
                .is_some_and(|d| d.class() == class && d.is_online())
                && breakers.allows(s.device())
        };
        let dev_ok = |d: &kaas_accel::Device| breakers.allows(d.id());
        let scale_ctx = |pool: &RunnerPool| ScaleCtx {
            kernel: name,
            runners: pool.runner_count(name),
            in_flight: pool.in_flight(name),
            cap_per_runner: config.runner.max_inflight,
            device_capacity: pool.class_capacity(class),
        };
        if pool.runner_count(name) == 0 {
            // Bootstrap: a cold deployment always starts its first
            // runner, whatever the policy says.
            if let Ok(slot) = pool.spawn_runner_where(name, kernel, config.runner, class, dev_ok) {
                return Ok(slot);
            }
        } else {
            // Proactive policies may grow the fleet before placement.
            if config.autoscaler.on_invocation(&scale_ctx(pool)) == ScaleDecision::ScaleUp {
                let _ = pool.spawn_runner_where(name, kernel, config.runner, class, dev_ok);
            }
            let (slots, mut views) = pool.usable_slots_where(name, slot_ok);
            if !slots.is_empty() {
                // Overlay the data-plane residency hint so cache-aware
                // schedulers ([`WarmFirst`](crate::WarmFirst)) can route
                // to the device that already holds the operand.
                if let Some(r) = operand {
                    for v in &mut views {
                        v.resident = inner.dataplane.is_resident(v.device, r.hash);
                    }
                }
                let ctx = SchedCtx {
                    kernel: name,
                    slots: &views,
                    cap: config.runner.max_inflight,
                };
                if let Some(choice) = config.scheduler.pick(&ctx) {
                    return Ok(Rc::clone(&slots[choice.index]));
                }
                // Every eligible runner is saturated: ask the autoscaler.
                if config.autoscaler.on_saturated(&scale_ctx(pool)) == ScaleDecision::ScaleUp {
                    if let Ok(slot) =
                        pool.spawn_runner_where(name, kernel, config.runner, class, dev_ok)
                    {
                        return Ok(slot);
                    }
                }
            } else {
                // The kernel has runners, but none on an eligible device
                // of this class (offline / breaker-open / fallback class
                // not yet started): try starting one.
                if let Ok(slot) =
                    pool.spawn_runner_where(name, kernel, config.runner, class, dev_ok)
                {
                    return Ok(slot);
                }
            }
        }
        // Fall back to queueing on the least-claimed eligible slot.
        pool.least_claimed_where(name, slot_ok)
            .ok_or_else(|| self.placement_error(class))
    }

    /// The error reported when no placement on `class` was possible:
    /// [`InvokeError::CircuitOpen`] when online devices of the class
    /// exist but every breaker is open, [`InvokeError::NoDevice`]
    /// otherwise (none deployed, or all offline).
    fn placement_error(&self, class: DeviceClass) -> InvokeError {
        let inner = self.inner();
        let online: Vec<DeviceId> = inner
            .pool
            .devices()
            .iter()
            .filter(|d| d.class() == class && d.is_online())
            .map(|d| d.id())
            .collect();
        if !online.is_empty() && online.iter().all(|id| !inner.breakers.allows(*id)) {
            InvokeError::CircuitOpen(class.to_string())
        } else {
            InvokeError::NoDevice(class.to_string())
        }
    }

    fn discovery_response(&self) -> (DataRef, InvocationReport) {
        let names = self
            .inner()
            .registry
            .names()
            .into_iter()
            .map(Value::Text)
            .collect();
        (
            DataRef::InBand(Value::List(names)),
            self.control_report(DISCOVERY_KERNEL),
        )
    }

    /// The synthetic report attached to control-kernel responses
    /// (discovery, data-plane ops): no runner or device was involved.
    pub(crate) fn control_report(&self, kernel: &str) -> InvocationReport {
        InvocationReport {
            kernel: kernel.to_owned(),
            runner: RunnerId(u32::MAX),
            device: DeviceId(u32::MAX),
            cold_start: false,
            submitted: now(),
            started: now(),
            completed: now(),
            copy_in: Duration::ZERO,
            kernel_exec: Duration::ZERO,
            copy_out: Duration::ZERO,
            degraded: false,
        }
    }

    /// Serves one `_kaas/data/*` control operation (put/get/seal/pin)
    /// against the object store. Control operations bypass placement —
    /// no device work happens — but pay the same transport costs as any
    /// request (serialization in-band, a memcpy through shared memory
    /// out-of-band: the fast path for large objects).
    async fn dataplane_op(&self, req: Request) -> Result<(DataRef, InvocationReport), InvokeError> {
        let inner = self.inner();
        let oob = matches!(req.data, DataRef::OutOfBand(_)) || req.reply_out_of_band;
        let input = match req.data {
            DataRef::InBand(v) => {
                sleep(inner.config.serialization.time(v.wire_bytes())).await;
                v
            }
            DataRef::OutOfBand(h) => inner.shm.take(h).await.ok_or(InvokeError::BadHandle)?,
            DataRef::Object(r) => inner.dataplane.resolve(&r).ok_or(InvokeError::BadHandle)?,
        };
        let dp = &inner.dataplane;
        let m = &inner.handles;
        let parse_ref = |v: &Value| {
            ObjectRef::from_value(v)
                .ok_or_else(|| InvokeError::BadInput("expected an object ref".into()))
        };
        let op = req.kernel.strip_prefix(DATA_KERNEL_PREFIX).unwrap_or("");
        let output = match op {
            "put" => {
                let r = dp.put(input);
                m.dataplane_puts.inc();
                m.dataplane_objects.set(dp.store().len() as f64);
                m.dataplane_bytes_stored
                    .set(dp.store().bytes_stored() as f64);
                r.to_value()
            }
            "get" => {
                let r = parse_ref(&input)?;
                dp.resolve(&r).ok_or(InvokeError::BadHandle)?
            }
            "seal" => {
                let r = parse_ref(&input)?;
                if !dp.seal(r.hash) {
                    return Err(InvokeError::BadHandle);
                }
                Value::Unit
            }
            "pin" => {
                let r = parse_ref(&input)?;
                if !dp.pin(r.hash) {
                    return Err(InvokeError::BadHandle);
                }
                Value::Unit
            }
            _ => return Err(InvokeError::UnknownKernel(req.kernel.clone())),
        };
        let report = self.control_report(&req.kernel);
        let data = if oob {
            let bytes = output.wire_bytes();
            DataRef::OutOfBand(inner.shm.put(output, bytes).await)
        } else {
            sleep(inner.config.serialization.time(output.wire_bytes())).await;
            DataRef::InBand(output)
        };
        Ok((data, report))
    }
}

#[cfg(test)]
mod tests {
    use kaas_net::SharedMemory;

    use super::*;
    use crate::registry::KernelRegistry;

    /// Under a wide batch every member's `handle()` future is live at
    /// once, so the cold control-plane branches are boxed out of it.
    #[test]
    fn handle_future_stays_small() {
        let server = KaasServer::new(
            Vec::new(),
            KernelRegistry::new(),
            SharedMemory::host(),
            ServerConfig::default(),
        );
        let req = Request {
            id: 0,
            kernel: "mci".into(),
            data: DataRef::InBand(Value::Unit),
            tenant: None,
            deadline: None,
            span: None,
            reply_out_of_band: false,
            reply_to_store: false,
        };
        let size = std::mem::size_of_val(&server.handle(req));
        assert!(size <= 1_600, "handle() future is {size} B");
    }
}

//! The per-invocation data path: admission → dispatch (front door +
//! shard queues) → placement (scheduler, then scale-out) → execution with
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
//! dispatch throughput scales with the shard count. Requests are dealt
//! to shards round-robin and workers are ordinary simtime tasks, so
//! same-seed replay stays byte-identical. One shard behind a zero-cost
//! front door is the historical single-lock router (the `cluster` bench
//! reproduces the paper's router-contention knee with that layout).
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

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use kaas_accel::{DeviceClass, DeviceId};
use kaas_kernels::{Kernel, Value};
use kaas_simtime::channel::{self, OneshotReceiver, OneshotSender, Receiver};
use kaas_simtime::sync::Semaphore;
use kaas_simtime::{now, sleep, spawn, spawn_detached, SimTime, SpanId};

use crate::admission::AdmissionPermit;
use crate::config::{ServerConfig, ShardConfig};
use crate::dataplane::ObjectRef;
use crate::metrics::{InvocationReport, RunnerId};
use crate::pool::{InFlightGuard, RunnerSlot};
use crate::protocol::{DataRef, InvokeError, Request, Response, Target};
use crate::resilience::BreakerState;
use crate::runner::RunnerTimings;
use crate::server::KaasServer;
use crate::workflow::WorkflowReport;

/// An admitted, parsed invocation: everything the execution pipeline
/// needs, carried from the front door to the shard worker that runs it.
pub(crate) struct ExecJob {
    req: Request,
    kernel: Rc<dyn Kernel>,
    /// RAII admission permit — rides with the job so the admission slot
    /// is held until execution finishes, on every exit path.
    _permit: AdmissionPermit,
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
    reply: OneshotSender<Outcome>,
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
    /// Round-robin cursor: the shard the next request goes to.
    rr: Cell<usize>,
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
                    ShardCounters {
                        depth: Rc::clone(&depth),
                        queued: Rc::clone(&queued),
                        ejected: Rc::clone(&ejected),
                        ejected_total: Rc::clone(&ejected_total),
                    },
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

    /// Chooses the shard for a request: the next one round-robin, so
    /// cross-shard ordering replays exactly.
    fn pick_shard(&self) -> usize {
        let i = self.rr.get();
        self.rr.set((i + 1) % self.shards.len());
        i
    }
}

/// The counters a shard worker shares with the front door: its own
/// queue depth and shed tally, plus the engine-wide totals.
struct ShardCounters {
    depth: Rc<Cell<usize>>,
    queued: Rc<Cell<usize>>,
    ejected: Rc<Cell<u64>>,
    ejected_total: Rc<Cell<u64>>,
}

/// One shard's drain loop: dequeue, pay the shard's serialized routing
/// cost, then hand execution to a fresh task so long-running kernels
/// never block the queue behind them. Exits when the server drops its
/// sending halves.
async fn shard_worker(
    shard: usize,
    mut rx: Receiver<DispatchJob>,
    counters: ShardCounters,
    overhead: Duration,
    eject_expired: bool,
) {
    let ShardCounters {
        depth,
        queued,
        ejected,
        ejected_total,
    } = counters;
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
        server.span(job.req.span(), "dispatch", t_dispatch, now());
        spawn_detached(run_job(server, job, reply));
    }
}

/// The task a shard worker spawns per job. It owns the job and
/// [`KaasServer::execute`] borrows it, so the job is stored once for the
/// whole run.
// An `async fn` would move each argument into a second slot of its
// future, so the job would be stored twice.
#[allow(clippy::manual_async_fn)]
fn run_job(
    server: KaasServer,
    job: ExecJob,
    reply: OneshotSender<Outcome>,
) -> impl Future<Output = ()> {
    async move {
        let out = server.execute(&job).await;
        // The admission permit is released before the reply wakes the
        // waiter.
        drop(job);
        // A dropped receiver means the front-door waiter is gone; the
        // work still completed, so the result is simply unread.
        let _ = reply.send(out);
    }
}

/// What a kernel invocation resolves to: the reply payload and its
/// timing report, or the failure.
pub(crate) type Outcome = Result<(DataRef, InvocationReport), InvokeError>;

/// A request that passed admission, name resolution and the front
/// door: everything but the request itself that its [`ExecJob`] needs.
struct Admitted {
    kernel: Rc<dyn Kernel>,
    permit: AdmissionPermit,
    submitted: SimTime,
    t_dispatch: SimTime,
}

/// What a successful attempt of the placement-and-run loop hands back
/// to [`KaasServer::execute`].
struct Ran {
    output: Value,
    timings: RunnerTimings,
    runner: RunnerId,
    device: DeviceId,
    started: SimTime,
    degraded: bool,
}

impl KaasServer {
    /// Handles one request end to end; the accept loop
    /// ([`KaasServer::serve`]) calls it per request.
    ///
    /// The future owns a handle to the server, so it can be spawned.
    pub(crate) fn handle(&self, req: Request) -> impl Future<Output = Response> + 'static {
        let id = req.id;
        self.serve_request(req, move |server, result, flow| {
            let (result, report) = match result {
                Ok((data, report)) => (Ok(data), Some(report)),
                Err(e) => {
                    server.inner().handles.error(e.kind());
                    (Err(e), None)
                }
            };
            Response {
                id,
                result,
                report,
                flow,
            }
        })
    }

    /// Runs one kernel invocation without shaping a [`Response`]: the
    /// entry point of flow steps.
    pub(crate) fn invoke(&self, req: Request) -> impl Future<Output = Outcome> + 'static {
        self.serve_request(req, |_, result, _| result)
    }

    /// The one path every request takes: a control operation, or
    /// admission, name resolution and the front door's enqueue onto a
    /// shard, then the wait for the shard's reply. `finish` shapes the
    /// outcome.
    ///
    /// Only the request and the server handle live for the whole call.
    /// The front door borrows the request and the enqueue moves it into
    /// the job, so a request waiting for its reply holds just the
    /// receiver. Every member of a wide batch holds one of these.
    fn serve_request<T>(
        &self,
        req: Request,
        finish: impl FnOnce(&KaasServer, Outcome, Option<Box<WorkflowReport>>) -> T + 'static,
    ) -> impl Future<Output = T> + 'static {
        let server = self.clone();
        async move {
            if let Target::Control(op) = req.target {
                let mut flow = None;
                // Boxed so the control handler's state stays out of this
                // future.
                let result = Box::pin(server.control(op, req, &mut flow)).await;
                return finish(&server, result, flow);
            }
            let result = match server.front_door(&req).await {
                Ok(admitted) => match server.enqueue(req, admitted) {
                    Ok(reply) => reply.await.unwrap_or(Err(InvokeError::Disconnected)),
                    Err(e) => Err(e),
                },
                Err(e) => Err(e),
            };
            finish(&server, result, None)
        }
    }

    /// Admission, name resolution, then the front door's serialized
    /// classification cost.
    async fn front_door(&self, req: &Request) -> Result<Admitted, InvokeError> {
        let inner = self.inner();
        let submitted = now();
        let permit = match inner.admission.admit(req.tenant()).await {
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
        self.span(req.span(), "admission", submitted, now());
        // Request parsing stays on the front door: resolve the kernel
        // before any dispatch cost so unknown names never consume
        // router capacity.
        let kernel = self.resolve_kernel(req.target.name())?;
        let t_dispatch = now();
        // The front door only classifies + enqueues; placement, the
        // cache step, retry, and the runner handoff all happen on the
        // chosen shard's worker task.
        let d = &inner.dispatch;
        {
            let _front = d.front_lock.acquire(1).await;
            sleep(d.config.front_door_overhead).await;
        }
        inner
            .handles
            .dispatch_front_door_ns
            .observe((now() - t_dispatch).as_nanos() as f64);
        Ok(Admitted {
            kernel,
            permit,
            submitted,
            t_dispatch,
        })
    }

    /// Resolves a kernel name: compiled-in kernels first, then guest
    /// kernels.
    fn resolve_kernel(&self, name: &str) -> Result<Rc<dyn Kernel>, InvokeError> {
        let inner = self.inner();
        if let Some(k) = inner.registry.lookup(name) {
            return Ok(k);
        }
        // Guest kernels resolve alongside compiled-in ones: a bare
        // `tenant/name` means latest live version, `@vN` pins one.
        match inner.guests.resolve(name) {
            Some(g) => {
                // The verifier's worst-case fuel bound is the predicted
                // cost of this invocation — recorded so admission policy
                // can be tuned against it.
                if let Some(fuel) = g.predicted_fuel() {
                    inner.handles.guest_predicted_fuel.observe(fuel as f64);
                }
                Ok(g)
            }
            None if crate::guest::is_guest_name(name) => {
                Err(InvokeError::UnknownGuestKernel(name.to_owned()))
            }
            None => Err(InvokeError::UnknownKernel(name.to_owned())),
        }
    }

    /// Sheds or enqueues an admitted request on its shard, returning
    /// the receiver its reply will arrive on. Synchronous: the shard
    /// queues are unbounded, so the send never waits.
    fn enqueue(
        &self,
        req: Request,
        admitted: Admitted,
    ) -> Result<OneshotReceiver<Outcome>, InvokeError> {
        let inner = self.inner();
        let d = &inner.dispatch;
        let m = &inner.handles;
        let shard = d.pick_shard();
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
        if req.deadline.is_some_and(|at| now() > at) {
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
        let Admitted {
            kernel,
            permit,
            submitted,
            t_dispatch,
        } = admitted;
        let dj = DispatchJob {
            server: self.clone(),
            job: ExecJob {
                req,
                kernel,
                _permit: permit,
                submitted,
            },
            t_dispatch,
            enqueued: now(),
            reply: reply_tx,
        };
        if q.tx.try_send(dj).is_err() {
            // No worker drains this queue (the server was built outside
            // a running simulation): undo the enqueue accounting and
            // report the path unavailable.
            q.depth.set(q.depth.get() - 1);
            d.queued.set(d.queued.get() - 1);
            return Err(InvokeError::Disconnected);
        }
        Ok(reply_rx)
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

    /// Records a server span parented under `parent`, when tracing.
    fn span(&self, parent: Option<SpanId>, name: &str, start: SimTime, end: SimTime) {
        if let Some(t) = &self.inner().config.tracer {
            t.record("server", name, start, end, parent, vec![]);
        }
    }

    /// The execution pipeline one admitted job walks — input
    /// materialization, deadline shedding, placement + cache step +
    /// retry, report/metrics recording, and reply shaping. Runs on a
    /// task the shard worker spawns per job, which owns the job.
    pub(crate) async fn execute(&self, job: &ExecJob) -> Outcome {
        let inner = self.inner();
        let req = &job.req;
        let parent = req.span();
        let oob = matches!(req.data, DataRef::OutOfBand(_)) || req.reply_out_of_band;
        // Scoped so the fetched input is gone before the reply is shaped.
        let (output, report) = {
            // Materialize the input. An in-band payload is read in place.
            let t_input = now();
            let fetched;
            let input = match &req.data {
                DataRef::InBand(v) => {
                    // Runner-side deserialization of the in-band payload.
                    sleep(inner.config.serialization.time(v.wire_bytes())).await;
                    self.span(parent, "deserialize", t_input, now());
                    v
                }
                DataRef::OutOfBand(h) => {
                    fetched = inner.shm.take(*h).await.ok_or(InvokeError::BadHandle)?;
                    self.span(parent, "shm_take", t_input, now());
                    &fetched
                }
                DataRef::Object(r) => {
                    // A content address resolves against the host object
                    // store — no deserialization at all.
                    fetched = inner.dataplane.resolve(r).ok_or(InvokeError::BadHandle)?;
                    self.span(parent, "ref_resolve", t_input, now());
                    &fetched
                }
            };
            let object = match &req.data {
                DataRef::Object(r) => Some(*r),
                _ => None,
            };

            // The deadline bounds time-to-start: shed rather than
            // dispatch work the client has already given up on.
            if req.deadline.is_some_and(|d| now() > d) {
                return Err(InvokeError::DeadlineExceeded);
            }

            // Only sealed (immutable) objects may be cached in device
            // memory; an unsealed ref still resolves but re-uploads
            // every time.
            let cacheable = object.filter(|r| inner.dataplane.store().is_sealed(r.hash));
            let Ran {
                output,
                timings,
                runner,
                device,
                started,
                degraded,
            } = self.run_attempts(job, input, cacheable).await?;

            let kernel = match &req.target {
                Target::Kernel(name) => Rc::clone(name),
                Target::Control(op) => op.name().into(),
            };
            let report = InvocationReport {
                kernel,
                runner,
                device,
                cold_start: timings.first_invocation,
                submitted: job.submitted,
                started,
                completed: now(),
                copy_in: timings.copy_in,
                kernel_exec: timings.kernel_exec,
                copy_out: timings.copy_out,
                degraded,
            };
            self.record_registry(&report);
            let m = &inner.handles;
            // Guest usage accounting: bill whatever this kernel metered
            // since the last bill into the per-tenant `guest.*`
            // counters. The resolved name (`tenant/name@vN`) is the
            // billing key even when the request used a bare
            // latest-version name.
            let kernel = &job.kernel;
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

            // Descriptor-mode requests get descriptor-sized responses:
            // the logical result size is the kernel's device→host
            // volume.
            let output = if matches!(input, Value::Sized { .. }) {
                let bytes_out = kernel
                    .work(input.payload())
                    .map(|w| w.bytes_out)
                    .unwrap_or(0)
                    .max(output.wire_bytes());
                Value::sized(bytes_out, output)
            } else {
                output
            };
            (output, report)
        };
        // Internal flow-executor handoff: the output goes straight to
        // the object store, so skip reply shaping — no serialization,
        // no shm hop, nothing crosses the wire.
        if req.reply_to_store {
            return Ok((DataRef::InBand(output), report));
        }
        let t_reply = now();
        let data = self.reply_data(output, oob).await;
        self.span(parent, "reply", t_reply, now());
        Ok((data, report))
    }

    /// Returns `output` the same way the input came in: through shared
    /// memory, or serialized in-band.
    pub(crate) async fn reply_data(&self, output: Value, oob: bool) -> DataRef {
        let inner = self.inner();
        if oob {
            let bytes = output.wire_bytes();
            DataRef::OutOfBand(inner.shm.put(output, bytes).await)
        } else {
            sleep(inner.config.serialization.time(output.wire_bytes())).await;
            DataRef::InBand(output)
        }
    }

    /// Places `job` and runs it, retrying if the chosen runner died.
    /// Attempt count, backoff, and budget come from the retry policy
    /// (`ServerConfig::retry`); failures feed the per-device circuit
    /// breaker and the slot's eviction accounting.
    async fn run_attempts(
        &self,
        job: &ExecJob,
        input: &Value,
        cacheable: Option<ObjectRef>,
    ) -> Result<Ran, InvokeError> {
        let inner = self.inner();
        let tracer = &inner.config.tracer;
        let parent = job.req.span();
        let kernel = &job.kernel;
        let retry = &inner.config.retry;
        let m = &inner.handles;
        let mut attempts = 0u32;
        let mut backoff_spent = Duration::ZERO;
        loop {
            attempts += 1;
            if attempts > 1 {
                m.retries_attempted.inc();
            }
            let wait = {
                let t_wait = now();
                // Runners are keyed by the *resolved* kernel identity, not
                // the requested name: a guest bare name re-resolves over
                // time, and a warm runner must never serve a superseded
                // version.
                let (slot, degraded) = self.place(kernel, cacheable.as_ref())?;
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
                                    if let Some(t) = tracer {
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
                    if let Some(t) = tracer {
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
                    runner.invoke_cached(input).await
                } else {
                    runner.invoke(input).await
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
                        if let Some(t) = tracer {
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
                        return Ok(Ran {
                            output,
                            timings,
                            runner: runner.id(),
                            device: runner.device_id(),
                            started,
                            degraded,
                        });
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
                        if let Some(t) = tracer {
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
                        let mut wait = retry
                            .backoff
                            .map_or(Duration::ZERO, |b| b.backoff(attempts, job.req.id));
                        if let Some(budget) = retry.budget {
                            let remaining = budget.saturating_sub(backoff_spent);
                            if remaining.is_zero() && !wait.is_zero() {
                                // Budget exhausted: give up rather than
                                // retry hot with no wait.
                                return Err(InvokeError::RunnerFailed(reason));
                            }
                            wait = wait.min(remaining);
                        }
                        wait
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
            // Back off with the failed attempt's slot and runner released.
            if !wait.is_zero() {
                sleep(wait).await;
                backoff_spent += wait;
            }
        }
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
            // The handles were built from the pool's fleet, in its order.
            for (d, dm) in inner.pool.devices().iter().zip(m.devices()) {
                dm.utilization.set((d.busy_seconds() / elapsed).min(1.0));
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
        kernel: &Rc<dyn Kernel>,
        operand: Option<&ObjectRef>,
    ) -> Result<(Rc<RunnerSlot>, bool), InvokeError> {
        let preferred = kernel.device_class();
        match self.place_on(kernel, preferred, operand) {
            Ok(slot) => Ok((slot, false)),
            Err(e @ (InvokeError::NoDevice(_) | InvokeError::CircuitOpen(_))) => {
                if let Some(fallback) = self.inner().config.fallback.next(preferred) {
                    if let Ok(slot) = self.place_on(kernel, fallback, operand) {
                        return Ok((slot, true));
                    }
                }
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// Chooses (or starts) a runner slot for `kernel` on `class`:
    /// scheduler first, a new runner on cold fleets or (with
    /// [`autoscale`](crate::ServerConfig::autoscale)) full ones, queueing
    /// as the fallback. Only slots on online devices of `class` whose
    /// circuit breaker allows placements are eligible. One walk of the
    /// kernel's slot list decides, so a pick allocates nothing. Claims
    /// nothing — the caller takes the in-flight guard.
    fn place_on(
        &self,
        kernel: &Rc<dyn Kernel>,
        class: DeviceClass,
        operand: Option<&ObjectRef>,
    ) -> Result<Rc<RunnerSlot>, InvokeError> {
        let inner = self.inner();
        let pool = &inner.pool;
        let config = &inner.config;
        let cap = config.runner.max_inflight;
        let eligible = |s: &RunnerSlot| {
            let d = pool.slot_device(s);
            d.class() == class && d.is_online() && inner.breakers.allows(s.device())
        };
        let resident = |s: &RunnerSlot| {
            operand.is_some_and(|r| inner.dataplane.is_resident(s.device(), r.hash))
        };
        // The pick, or else the slot to queue on and whether to try
        // starting a runner first.
        let (slot, grow) = pool.with_slots(kernel.name(), |slots| {
            if let Some(slot) = config.scheduler.pick(slots, eligible, cap, resident) {
                return (Some(Rc::clone(slot)), false);
            }
            let usable = slots.iter().filter(|s| s.is_usable());
            let queue = usable
                .clone()
                .filter(|s| eligible(s))
                .min_by_key(|s| s.claimed());
            // No eligible slot: start one. That covers a cold deployment's
            // first runner, which starts even with autoscale off, and
            // runners that all sit offline, behind open breakers or on
            // another class. Otherwise the scheduler declined, and the
            // fleet grows only under the §5.5 rule.
            let grow = queue.is_none()
                || scale_out(
                    config.autoscale,
                    usable.count(),
                    slots.iter().map(|s| s.claimed()).sum(),
                    cap,
                );
            (queue.cloned(), grow)
        });
        if grow {
            let dev_ok = |d: &kaas_accel::Device| inner.breakers.allows(d.id());
            if let Ok(slot) = pool.spawn_runner_where(kernel, config.runner, class, dev_ok) {
                return Ok(slot);
            }
        }
        slot.ok_or_else(|| self.placement_error(class))
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
}

/// The paper's §5.5 scale-out rule, asked when the scheduler declines:
/// grow only once the kernel's in-flight requests fill all `runners` to
/// their `cap`. A decline can come before that (every eligible slot
/// full while others sit on ineligible devices or a fallback class);
/// such a decline queues instead of growing.
fn scale_out(autoscale: bool, runners: usize, in_flight: usize, cap: usize) -> bool {
    autoscale && in_flight >= runners * cap
}

#[cfg(test)]
mod tests {
    use kaas_accel::{GpuDevice, GpuProfile};
    use kaas_net::SharedMemory;

    use super::*;
    use crate::registry::KernelRegistry;

    fn request(target: &str) -> Request {
        Request {
            id: 0,
            target: Target::Kernel(target.into()),
            data: DataRef::InBand(Value::U64(1_000)),
            deadline: None,
            context: None,
            reply_out_of_band: false,
            reply_to_store: false,
        }
    }

    /// Under a wide batch every member's future is live at once, and a
    /// member task is the `handle()` future held once inside
    /// `join_all`'s member, which adds only its index and the shared
    /// output table: the future holds the request and the server
    /// handle, and past the front door only the reply receiver.
    #[test]
    fn handle_future_stays_small() {
        let server = KaasServer::new(
            Vec::new(),
            KernelRegistry::new(),
            SharedMemory::host(),
            ServerConfig::default(),
        );
        let size = std::mem::size_of_val(&server.handle(request("mci")));
        assert!(size <= 432, "handle() future is {size} B");
    }

    /// Every dispatched job holds one `run_job` task, and `execute` is
    /// most of it.
    #[test]
    fn job_futures_stay_small() {
        let mut sim = kaas_simtime::Simulation::new();
        sim.block_on(async {
            let registry = KernelRegistry::new();
            registry
                .register(kaas_kernels::MonteCarlo::default())
                .expect("fresh registry");
            let server = KaasServer::new(
                Vec::new(),
                registry,
                SharedMemory::host(),
                ServerConfig::default(),
            );
            let req = request("mci");
            let admitted = server.front_door(&req).await.expect("mci is registered");
            let job = ExecJob {
                req,
                kernel: admitted.kernel,
                _permit: admitted.permit,
                submitted: admitted.submitted,
            };
            let execute = std::mem::size_of_val(&server.execute(&job));
            let (reply, _rx) = channel::oneshot();
            let task = std::mem::size_of_val(&run_job(server.clone(), job, reply));
            assert!(execute <= 848, "execute() future is {execute} B");
            assert!(task <= 1_032, "run_job() future is {task} B");
        });
    }

    /// Idle reaping and the next call's respawn, cycle after cycle: the
    /// kernel's slot list drops each reaped slot when the respawn joins
    /// it, so it never outgrows the fleet.
    #[test]
    fn reap_respawn_cycles_keep_the_slot_list_bounded() {
        let mut sim = kaas_simtime::Simulation::new();
        sim.block_on(async {
            let registry = KernelRegistry::new();
            registry
                .register(kaas_kernels::MonteCarlo::default())
                .expect("fresh registry");
            let gpus = (0..2)
                .map(|i| GpuDevice::new(DeviceId(i), GpuProfile::p100()).into())
                .collect();
            let config = ServerConfig::default().with_idle_timeout(Duration::from_secs(1));
            let server = KaasServer::new(gpus, registry, SharedMemory::host(), config);
            for cycle in 1..=8 {
                server
                    .handle(request("mci"))
                    .await
                    .result
                    .expect("mci runs");
                kaas_simtime::sleep(Duration::from_secs(5)).await;
                assert_eq!(server.snapshot().reaped, cycle);
                let len = server.inner().pool.with_slots("mci", <[_]>::len);
                assert!(len <= 2, "cycle {cycle}: {len} slots on 2 devices");
            }
            assert_eq!(server.snapshot().kernels["mci"].runners, 0);
        });
    }

    #[test]
    fn scale_out_grows_exactly_when_the_fleet_is_full() {
        // Below runners × cap: hold (a decline that comes before every
        // runner is full must not trigger growth).
        assert!(!scale_out(true, 2, 7, 4));
        // At the paper's threshold (all runners full): grow.
        assert!(scale_out(true, 2, 8, 4));
    }

    #[test]
    fn scale_out_off_never_grows() {
        assert!(!scale_out(false, 2, 8, 4));
        assert!(!scale_out(false, 1, 99, 4));
    }
}

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

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use kaas_accel::{DeviceClass, DeviceId};
use kaas_kernels::{Kernel, Value};
use kaas_simtime::channel::{self, Receiver};
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
/// finish the request and wake its waiter. It is the only record of a
/// queued call: the front-door task that enqueued it has ended or waits
/// on the reply table. Carries a strong server handle (a bounded `Rc`
/// cycle while queued: the job keeps the server alive, never the
/// reverse — workers hold only the receiving half, so they exit when
/// the server drops its senders).
struct DispatchJob {
    server: KaasServer,
    job: ExecJob,
    /// When the request reached the dispatch layer (span start).
    t_dispatch: SimTime,
    /// When the front door enqueued it (the `dispatch.shard_ns` origin).
    enqueued: SimTime,
    reply: ReplySlot,
}

/// The replies of one frame's calls (every member of a batch, or one
/// call), in request order, and the one task that waits for them all.
///
/// A call's [`ReplySlot`] travels with it: the front door fills it on a
/// reject, otherwise the shard job carries it and the worker's deadline
/// ejection or [`run_job`] fills it. The waiter is woken exactly when
/// the lowest-index unfilled entry is filled: when awaiting each call's
/// [`JoinHandle`](kaas_simtime::JoinHandle) in order would wake it, had
/// every call been a spawned task.
pub(crate) struct ReplyTable {
    /// The server whose `errors` counters a failed reply bumps when its
    /// entry is filled; `None` for flow steps, whose executor counts
    /// their failures itself.
    errors: Option<KaasServer>,
    state: RefCell<ReplyState>,
}

struct ReplyState {
    entries: Entries,
    /// The lowest index the waiter has not seen filled: the one entry it
    /// waits for.
    next: usize,
    /// The waiter's waker, while it waits for entry `next`.
    waker: Option<Waker>,
}

/// A table's entries. A one-call table keeps its entry inline, so it
/// costs one allocation.
enum Entries {
    One(Entry),
    Many(Vec<Entry>),
}

impl Entries {
    fn as_slice(&self) -> &[Entry] {
        match self {
            Entries::One(entry) => std::slice::from_ref(entry),
            Entries::Many(entries) => entries,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Entry] {
        match self {
            Entries::One(entry) => std::slice::from_mut(entry),
            Entries::Many(entries) => entries,
        }
    }
}

/// One call's reply: its request id until the reply is filled.
enum Entry {
    Pending(u64),
    Filled(Response),
}

impl Entry {
    fn into_response(self) -> Response {
        match self {
            Entry::Filled(resp) => resp,
            Entry::Pending(_) => unreachable!("every reply is filled"),
        }
    }
}

impl ReplyTable {
    /// A table for calls with request ids `ids`, in request order.
    /// `errors` is the server whose `errors` counters failed replies
    /// bump.
    pub(crate) fn new(
        mut ids: impl ExactSizeIterator<Item = u64>,
        errors: Option<KaasServer>,
    ) -> Rc<Self> {
        let entries = if ids.len() == 1 {
            Entries::One(Entry::Pending(ids.next().expect("one id")))
        } else {
            Entries::Many(ids.map(Entry::Pending).collect())
        };
        Rc::new(ReplyTable {
            errors,
            state: RefCell::new(ReplyState {
                entries,
                next: 0,
                waker: None,
            }),
        })
    }

    /// The slot entry `index` is filled through.
    pub(crate) fn slot(self: &Rc<Self>, index: usize) -> ReplySlot {
        ReplySlot {
            table: Rc::clone(self),
            index: u32::try_from(index).expect("a frame holds fewer than 2^32 calls"),
        }
    }

    /// Resolves once every entry is filled.
    fn filled(&self) -> impl Future<Output = ()> + '_ {
        poll_fn(|cx| self.poll_filled(cx))
    }

    /// Every reply, in request order, once every entry is filled.
    pub(crate) async fn responses(self: Rc<Self>) -> Vec<Response> {
        self.filled().await;
        self.take_all()
    }

    /// The first reply, once every entry is filled.
    pub(crate) async fn response(self: Rc<Self>) -> Response {
        self.filled().await;
        let mut state = self.state.borrow_mut();
        let entry = &mut state.entries.as_mut_slice()[0];
        std::mem::replace(entry, Entry::Pending(0)).into_response()
    }

    fn poll_filled(&self, cx: &mut Context<'_>) -> Poll<()> {
        let mut state = self.state.borrow_mut();
        let state = &mut *state;
        while let Some(entry) = state.entries.as_slice().get(state.next) {
            if let Entry::Pending(_) = entry {
                state.waker = Some(cx.waker().clone());
                return Poll::Pending;
            }
            state.next += 1;
        }
        Poll::Ready(())
    }

    /// Every reply, in request order, once [`filled`](Self::filled).
    fn take_all(&self) -> Vec<Response> {
        let entries = std::mem::replace(
            &mut self.state.borrow_mut().entries,
            Entries::Many(Vec::new()),
        );
        match entries {
            Entries::One(entry) => vec![entry.into_response()],
            Entries::Many(entries) => entries.into_iter().map(Entry::into_response).collect(),
        }
    }
}

/// Where one call's reply goes: an entry of a [`ReplyTable`]. Only the
/// first fill of an entry counts; a slot dropped unfilled resolves its
/// entry to [`InvokeError::Disconnected`].
pub(crate) struct ReplySlot {
    table: Rc<ReplyTable>,
    index: u32,
}

impl ReplySlot {
    /// Fills the entry with a kernel invocation's outcome.
    pub(crate) fn fill(self, out: Outcome) {
        self.put(out, None);
    }

    fn put(&self, out: Outcome, flow: Option<Box<WorkflowReport>>) {
        let table = &self.table;
        let index = self.index as usize;
        let waker = {
            let mut state = table.state.borrow_mut();
            let entry = &mut state.entries.as_mut_slice()[index];
            let Entry::Pending(id) = *entry else {
                return;
            };
            *entry = Entry::Filled(response(table.errors.as_ref(), id, out, flow));
            if state.next == index {
                state.waker.take()
            } else {
                None
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl Drop for ReplySlot {
    fn drop(&mut self) {
        self.put(Err(InvokeError::Disconnected), None);
    }
}

/// Shapes call `id`'s outcome into the [`Response`] its frame carries,
/// counting a failure on `errors`, the server whose counters it bumps.
fn response(
    errors: Option<&KaasServer>,
    id: u64,
    out: Outcome,
    flow: Option<Box<WorkflowReport>>,
) -> Response {
    let (result, report) = match out {
        Ok((data, report)) => (Ok(data), Some(report)),
        Err(e) => {
            if let Some(server) = errors {
                server.inner().handles.error(e.kind());
            }
            (Err(e), None)
        }
    };
    Response {
        id,
        result,
        report,
        flow,
    }
}

/// Where [`KaasServer::serve_request`] sends a call's reply.
pub(crate) trait ReplyTo: 'static {
    /// What the call's future resolves to.
    type Output;

    /// The reply of call `id` when the front door answers it itself:
    /// a control operation's outcome (with a flow trigger's per-step
    /// report), or a reject.
    fn answer(
        self,
        server: &KaasServer,
        id: u64,
        out: Outcome,
        flow: Option<Box<WorkflowReport>>,
    ) -> Self::Output;

    /// The slot the job of queued call `id` carries, and the wait for
    /// its reply.
    fn queue(
        self,
        server: &KaasServer,
        id: u64,
    ) -> (ReplySlot, impl Future<Output = Self::Output> + 'static);
}

/// A batch member's reply fills its entry of the frame's table, so the
/// member's future ends at its enqueue.
impl ReplyTo for ReplySlot {
    type Output = ();

    fn answer(self, _: &KaasServer, _: u64, out: Outcome, flow: Option<Box<WorkflowReport>>) {
        self.put(out, flow);
    }

    fn queue(self, _: &KaasServer, _: u64) -> (ReplySlot, impl Future<Output = ()> + 'static) {
        (self, std::future::ready(()))
    }
}

/// A single-call frame's reply: the [`Response`] its frame task sends.
/// Only a queued call gets a reply table, of one slot.
pub(crate) struct Caller;

impl ReplyTo for Caller {
    type Output = Response;

    fn answer(
        self,
        server: &KaasServer,
        id: u64,
        out: Outcome,
        flow: Option<Box<WorkflowReport>>,
    ) -> Response {
        response(Some(server), id, out, flow)
    }

    fn queue(
        self,
        server: &KaasServer,
        id: u64,
    ) -> (ReplySlot, impl Future<Output = Response> + 'static) {
        let table = ReplyTable::new(std::iter::once(id), Some(server.clone()));
        (table.slot(0), table.response())
    }
}

/// A flow step's reply: the bare outcome, whose failures the flow
/// executor counts. Only a queued step gets a reply table, of one slot.
pub(crate) struct FlowStep;

impl ReplyTo for FlowStep {
    type Output = Outcome;

    fn answer(
        self,
        _: &KaasServer,
        _: u64,
        out: Outcome,
        _: Option<Box<WorkflowReport>>,
    ) -> Outcome {
        out
    }

    fn queue(
        self,
        _: &KaasServer,
        id: u64,
    ) -> (ReplySlot, impl Future<Output = Outcome> + 'static) {
        let table = ReplyTable::new(std::iter::once(id), None);
        let slot = table.slot(0);
        let outcome = async move {
            let Response { result, report, .. } = table.response().await;
            result.map(|data| (data, report.expect("a served call carries its report")))
        };
        (slot, outcome)
    }
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
                reply.fill(Err(InvokeError::DeadlineExceeded));
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
fn run_job(server: KaasServer, job: ExecJob, reply: ReplySlot) -> impl Future<Output = ()> {
    async move {
        let out = server.execute(&job).await;
        // The admission permit is released before the reply wakes the
        // waiter.
        drop(job);
        reply.fill(out);
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
    /// ([`KaasServer::serve`]) calls it per single-request frame.
    ///
    /// The future owns a handle to the server, so it can be spawned.
    pub(crate) fn handle(&self, req: Request) -> impl Future<Output = Response> + 'static {
        self.serve_request(req, Caller)
    }

    /// Runs one kernel invocation without shaping a [`Response`]: the
    /// entry point of flow steps.
    pub(crate) fn invoke(&self, req: Request) -> impl Future<Output = Outcome> + 'static {
        self.serve_request(req, FlowStep)
    }

    /// The one path every request takes: a control operation, or
    /// admission, name resolution and the front door's enqueue onto a
    /// shard, then the wait for the shard's reply. `reply` says where
    /// the reply goes; a batch member's future ends at its enqueue.
    ///
    /// Only the request, the server handle and `reply` live for the
    /// whole call. The front door borrows the request and the enqueue
    /// moves it into the job, so a single call waiting for its reply
    /// holds just the wait on its reply table.
    pub(crate) fn serve_request<R: ReplyTo>(
        &self,
        req: Request,
        reply: R,
    ) -> impl Future<Output = R::Output> + 'static {
        let server = self.clone();
        async move {
            if let Target::Control(_) = req.target {
                let id = req.id;
                let mut flow = None;
                // Boxed so the control handler's state stays out of this
                // future.
                let result = Box::pin(server.control(req, &mut flow)).await;
                return reply.answer(&server, id, result, flow);
            }
            let admitted = match server.front_door(&req).await {
                Ok(admitted) => admitted,
                Err(e) => return reply.answer(&server, req.id, Err(e), None),
            };
            let (slot, wait) = reply.queue(&server, req.id);
            server.enqueue(req, admitted, slot);
            wait.await
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

    /// Sheds an admitted request, filling `reply`, or enqueues it on its
    /// shard with `reply` riding the job. Synchronous: the shard queues
    /// are unbounded, so the send never waits.
    fn enqueue(&self, req: Request, admitted: Admitted, reply: ReplySlot) {
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
            return reply.fill(Err(eject(InvokeError::DeadlineExceeded)));
        }
        if d.config.queue_cap.is_some_and(|cap| q.depth.get() >= cap) {
            let hint = self.retry_after_hint(q.depth.get());
            return reply.fill(Err(eject(InvokeError::Overloaded {
                retry_after: Some(hint),
            })));
        }
        // Paired increments with no await in between: the sanitizer
        // checks `sum(depths) == queued` after every executor step.
        q.depth.set(q.depth.get() + 1);
        d.queued.set(d.queued.get() + 1);
        m.shards[shard].depth.set(q.depth.get() as f64);
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
            reply,
        };
        if q.tx.try_send(dj).is_err() {
            // No worker drains this queue (the server was built outside
            // a running simulation): the dropped job's unfilled reply
            // reports the path unavailable. Undo the enqueue accounting.
            q.depth.set(q.depth.get() - 1);
            d.queued.set(d.queued.get() - 1);
        }
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
    // Not an `async fn`, which would store `self` and `job` twice (see
    // `run_job`).
    #[allow(clippy::manual_async_fn)]
    pub(crate) fn execute<'a>(&'a self, job: &'a ExecJob) -> impl Future<Output = Outcome> + 'a {
        async move {
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

    /// Under a wide batch every member's task is live until its enqueue.
    /// A member task is the `serve_request` future alone: the request,
    /// the server handle and the reply slot, plus the front door's state
    /// while it waits there. A single call's `handle()` future swaps the
    /// slot for the wait on its one-slot reply table.
    #[test]
    fn handle_future_stays_small() {
        let server = KaasServer::new(
            Vec::new(),
            KernelRegistry::new(),
            SharedMemory::host(),
            ServerConfig::default(),
        );
        let replies = ReplyTable::new(std::iter::once(0), None);
        let member = std::mem::size_of_val(&server.serve_request(request("mci"), replies.slot(0)));
        let single = std::mem::size_of_val(&server.handle(request("mci")));
        assert!(member <= 432, "member future is {member} B");
        assert!(single <= 432, "handle() future is {single} B");
    }

    /// A queued call is one `DispatchJob`; its reply slot adds at most
    /// one word to what a reply sender took.
    #[test]
    fn dispatch_job_stays_small() {
        let size = std::mem::size_of::<DispatchJob>();
        assert!(size <= 200, "DispatchJob is {size} B");
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
            let replies = ReplyTable::new(std::iter::once(0), None);
            let task = std::mem::size_of_val(&run_job(server.clone(), job, replies.slot(0)));
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

    /// Counts the wakes of a hand-polled waiter.
    struct CountWakes(std::sync::atomic::AtomicUsize);

    impl std::task::Wake for CountWakes {
        fn wake(self: std::sync::Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn outcome_ok() -> Outcome {
        let report = InvocationReport {
            kernel: "mci".into(),
            runner: RunnerId(0),
            device: DeviceId(0),
            cold_start: false,
            submitted: SimTime::ZERO,
            started: SimTime::ZERO,
            completed: SimTime::ZERO,
            copy_in: Duration::ZERO,
            kernel_exec: Duration::ZERO,
            copy_out: Duration::ZERO,
            degraded: false,
        };
        Ok((DataRef::InBand(Value::U64(1)), report))
    }

    /// The waiter is woken exactly when the lowest unfilled entry fills,
    /// and by no other fill; an entry keeps its first fill.
    #[test]
    fn reply_table_wakes_on_the_lowest_unfilled_entry() {
        let table = ReplyTable::new([10, 11, 12].into_iter(), None);
        let wakes = std::sync::Arc::new(CountWakes(Default::default()));
        let waker = Waker::from(std::sync::Arc::clone(&wakes));
        let mut cx = Context::from_waker(&waker);
        let count = || wakes.0.load(std::sync::atomic::Ordering::Relaxed);
        let mut slots: Vec<_> = (0..3).map(|i| Some(table.slot(i))).collect();

        assert!(table.poll_filled(&mut cx).is_pending());
        slots[2]
            .take()
            .unwrap()
            .fill(Err(InvokeError::DeadlineExceeded));
        slots[1].take().unwrap().fill(outcome_ok());
        assert_eq!(count(), 0, "entry 0 is still pending");
        assert!(table.poll_filled(&mut cx).is_pending());
        // Dropped unfilled: the lowest entry resolves, and wakes.
        drop(slots[0].take());
        assert_eq!(count(), 1);
        assert!(table.poll_filled(&mut cx).is_ready());

        let resps = table.take_all();
        let ids: Vec<u64> = resps.iter().map(|r| r.id).collect();
        assert_eq!(ids, [10, 11, 12]);
        assert_eq!(
            resps[0].result.as_ref().err(),
            Some(&InvokeError::Disconnected)
        );
        assert!(resps[1].result.is_ok() && resps[1].report.is_some());
        assert_eq!(
            resps[2].result.as_ref().err(),
            Some(&InvokeError::DeadlineExceeded)
        );
    }

    /// One entry per executor poll of a logged future: virtual time, the
    /// future's name, and whether the poll completed it.
    type PollLog = Rc<RefCell<Vec<(u64, u32, bool)>>>;

    /// `fut`, recording each of its polls in `log`.
    fn logged<F: Future>(name: u32, log: &PollLog, fut: F) -> impl Future<Output = F::Output> {
        let (log, mut fut) = (Rc::clone(log), Box::pin(fut));
        poll_fn(move |cx| {
            let out = fut.as_mut().poll(cx);
            let entry = (now().as_nanos(), name, out.is_ready());
            log.borrow_mut().push(entry);
            out
        })
    }

    /// Six members that sleep, then yield, under a logged waiter that
    /// spawns them and awaits their `JoinHandle`s in order, or spawns
    /// them detached to fill one reply table's slots and waits on it.
    /// Several members finish at one instant with a higher index first;
    /// one finishes on its first poll.
    fn waiter_poll_log(by_table: bool) -> Vec<(u64, u32, bool)> {
        let log = PollLog::default();
        let plan: [(u64, u32); 6] = [(2, 3), (1, 0), (2, 0), (0, 0), (2, 1), (1, 2)];
        let members: Vec<_> = plan
            .into_iter()
            .zip(0u32..)
            .map(|((ms, yields), name)| {
                logged(name, &log, async move {
                    sleep(Duration::from_millis(ms)).await;
                    for _ in 0..yields {
                        kaas_simtime::yield_now().await;
                    }
                    name
                })
            })
            .collect();
        let waiter = async move {
            if by_table {
                let table = ReplyTable::new((0..6u32).map(u64::from), None);
                for (i, member) in members.into_iter().enumerate() {
                    let slot = table.slot(i);
                    spawn_detached(async move {
                        member.await;
                        slot.fill(outcome_ok());
                    });
                }
                table.responses().await;
            } else {
                let handles: Vec<_> = members.into_iter().map(spawn).collect();
                for h in handles {
                    h.await;
                }
            }
        };
        kaas_simtime::Simulation::new().block_on(logged(99, &log, waiter));
        log.take()
    }

    /// Every batch's replies, and so every archive, depend on this
    /// order: a reply table's waiter is polled exactly as a task that
    /// awaits each call's `JoinHandle` in order would be.
    #[test]
    fn reply_table_polls_as_in_order_awaited_join_handles_do() {
        let by_handles = waiter_poll_log(false);
        let done: Vec<(u64, u32)> = by_handles
            .iter()
            .filter(|&&(_, name, ready)| ready && name < 6)
            .map(|&(at, name, _)| (at, name))
            .collect();
        assert!(
            done.windows(2).any(|w| w[0].0 == w[1].0 && w[0].1 > w[1].1),
            "some members finish at one instant out of index order: {done:?}"
        );
        assert_eq!(waiter_poll_log(true), by_handles);
    }

    /// A shard job dropped before a worker ran it (here: no worker
    /// drains the queue, because the server was built outside a
    /// simulation) resolves its member to `Disconnected`, counted once,
    /// and the batch still replies in full.
    #[test]
    fn dropped_job_resolves_its_member_to_disconnected() {
        let registry = KernelRegistry::new();
        registry
            .register(kaas_kernels::MonteCarlo::default())
            .expect("fresh registry");
        let gpu = GpuDevice::new(DeviceId(0), GpuProfile::p100()).into();
        let server = KaasServer::new(
            vec![gpu],
            registry,
            SharedMemory::host(),
            ServerConfig::default(),
        );
        let mut sim = kaas_simtime::Simulation::new();
        let resps = sim.block_on({
            let server = server.clone();
            async move {
                let table = ReplyTable::new([10, 11, 12].into_iter(), Some(server.clone()));
                for (i, name) in ["mci", "no-such-kernel", "mci"].into_iter().enumerate() {
                    spawn_detached(server.serve_request(request(name), table.slot(i)));
                }
                table.responses().await
            }
        });
        let results: Vec<_> = resps
            .iter()
            .map(|r| (r.id, r.result.as_ref().err()))
            .collect();
        assert_eq!(
            results,
            [
                (10, Some(&InvokeError::Disconnected)),
                (
                    11,
                    Some(&InvokeError::UnknownKernel("no-such-kernel".into()))
                ),
                (12, Some(&InvokeError::Disconnected)),
            ]
        );
        let m = server.metrics_registry();
        assert_eq!(m.counter("errors"), 3);
        assert_eq!(m.counter("errors.disconnected"), 2);
        assert_eq!(server.snapshot().dispatch_queued, 0);
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

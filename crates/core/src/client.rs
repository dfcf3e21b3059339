//! [`KaasClient`]: the thin client API (§4.1). A KaaS client carries no
//! accelerator libraries — it serializes inputs (in-band) or drops them
//! into shared memory (out-of-band) and speaks the request/response
//! protocol over the network.
//!
//! Invocations are built fluently: [`KaasClient::call`] returns an
//! [`InvokeBuilder`] that collects the input, per-call tenant/deadline
//! overrides, transfer mode, and tracing choice before
//! [`send`](InvokeBuilder::send) runs the round trip:
//!
//! ```no_run
//! # async fn demo(client: &mut kaas_core::KaasClient) {
//! use kaas_kernels::Value;
//! use std::time::Duration;
//!
//! let inv = client
//!     .call("matmul")
//!     .arg(Value::U64(512))
//!     .tenant("t0")
//!     .deadline(Duration::from_millis(50))
//!     .send()
//!     .await
//!     .unwrap();
//! # let _ = inv;
//! # }
//! ```

use std::rc::Rc;
use std::time::Duration;

use kaas_guest::GuestProgram;
use kaas_kernels::Value;
use kaas_net::{
    Connection, LinkFault, LinkProfile, NetError, Network, SerializationProfile, SharedMemory,
};
use kaas_simtime::{now, sleep, timeout, SpanId, SpanSink};

use crate::dataplane::ObjectRef;
use crate::flow::{encode_trigger, FLOW_REPLY_REF};
use crate::metrics::registry::MetricsRegistry;
use crate::metrics::InvocationReport;
use crate::protocol::{
    Control, DataRef, InvokeError, Request, RequestFrame, Response, ResponseFrame, Target,
};
use crate::resilience::{NoBackoff, RetryBudget, RetryPolicy};
use crate::workflow::{FlowError, Workflow, WorkflowHandle, WorkflowReport, WorkflowRun};

/// Result of a successful invocation, as observed by the client.
#[derive(Debug)]
pub struct Invocation {
    /// Kernel output.
    pub output: Value,
    /// Server-side timing breakdown.
    pub report: InvocationReport,
    /// Client-observed latency (request serialization to response
    /// deserialization).
    pub latency: Duration,
}

/// Client-side retry behaviour for [`InvokeBuilder::send`].
///
/// Without a config the client is fire-once: every error surfaces to
/// the caller immediately. With one, transient overload-shaped errors
/// ([`InvokeError::Overloaded`], [`InvokeError::TimedOut`],
/// [`InvokeError::DeadlineExceeded`]) are retried up to `max_attempts`
/// total attempts. Each retry waits the [`RetryPolicy`] backoff or the
/// server's `retry_after` hint, **whichever is longer** — cooperative
/// backpressure: an overloaded server names its price and compliant
/// clients pay it.
///
/// Attach a shared [`RetryBudget`] to cap the retry-to-fresh ratio
/// across every call (and every client holding the same [`Rc`]): when
/// the bucket is dry the retry is abandoned instead, counted under the
/// client's `retries.budget_exhausted` metric. This is the client-side
/// half of the metastability defence — without it, synchronized retries
/// can hold effective load above capacity long after the trigger
/// clears.
#[derive(Debug, Clone)]
pub struct ClientRetryConfig {
    max_attempts: u32,
    backoff: Box<dyn RetryPolicy>,
    budget: Option<Rc<RetryBudget>>,
}

impl ClientRetryConfig {
    /// Creates a policy with `max_attempts` total attempts (clamped to
    /// at least 1), no backoff beyond server hints, and no budget.
    pub fn new(max_attempts: u32) -> Self {
        ClientRetryConfig {
            max_attempts: max_attempts.max(1),
            backoff: Box::new(NoBackoff),
            budget: None,
        }
    }

    /// Sets the wait policy between attempts (the server's `retry_after`
    /// hint still wins when it is longer).
    pub fn with_backoff(mut self, policy: impl RetryPolicy + 'static) -> Self {
        self.backoff = Box::new(policy);
        self
    }

    /// Gates every retry on `budget`; share one [`Rc`] across clients to
    /// cap a whole fleet's retry amplification.
    pub fn with_budget(mut self, budget: Rc<RetryBudget>) -> Self {
        self.budget = Some(budget);
        self
    }

    fn retryable(err: &InvokeError) -> bool {
        matches!(
            err,
            InvokeError::Overloaded { .. } | InvokeError::TimedOut | InvokeError::DeadlineExceeded
        )
    }
}

/// A connected KaaS client.
pub struct KaasClient {
    conn: Connection<RequestFrame, ResponseFrame>,
    serialization: SerializationProfile,
    shm: Option<SharedMemory>,
    tenant: Option<String>,
    id: u64,
    next_seq: u64,
    tracer: Option<SpanSink>,
    retry: Option<ClientRetryConfig>,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for KaasClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KaasClient")
            .field("id", &self.id)
            .field("next_seq", &self.next_seq)
            .field("out_of_band", &self.shm.is_some())
            .field("traced", &self.tracer.is_some())
            .finish()
    }
}

impl KaasClient {
    /// Connects to a KaaS server over a link with `profile` timing.
    ///
    /// The client draws a network-unique identity
    /// ([`Network::alloc_client_id`]) that namespaces its request and
    /// span ids, so several clients of one simulation never collide.
    ///
    /// # Errors
    ///
    /// Propagates [`NetError`] when nothing listens at `addr`.
    pub async fn connect(
        net: &Network<RequestFrame, ResponseFrame>,
        addr: &str,
        profile: LinkProfile,
    ) -> Result<KaasClient, NetError> {
        let id = net.alloc_client_id();
        let conn = net.connect(addr, profile).await?;
        Ok(KaasClient {
            conn,
            serialization: SerializationProfile::python_pickle(),
            shm: None,
            tenant: None,
            id,
            next_seq: 0,
            tracer: None,
            retry: None,
            metrics: MetricsRegistry::new(),
        })
    }

    /// This client's network-unique identity (the high half of its
    /// request ids and the number in its `client{N}` trace track).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests this client has sent so far (each batch member counts
    /// once). Useful in tests and benchmarks to demonstrate round-trip
    /// collapse: an N-step registered flow costs 1, not N.
    pub fn requests_sent(&self) -> u64 {
        self.next_seq
    }

    /// The fault-injection handle of this client's **sending** wire
    /// direction (request frames). Dropping frames here loses requests
    /// past the NIC; pair with [`InvokeBuilder::timeout`] so lost
    /// requests resolve as [`InvokeError::TimedOut`].
    pub fn link_fault(&self) -> LinkFault {
        self.conn.fault()
    }

    /// Uses `shm` for out-of-band transfer (same-host deployments only).
    pub fn with_shared_memory(mut self, shm: SharedMemory) -> Self {
        self.shm = Some(shm);
        self
    }

    /// Overrides the serializer model.
    pub fn with_serialization(mut self, serialization: SerializationProfile) -> Self {
        self.serialization = serialization;
        self
    }

    /// Tags every request with a tenant identity (enables per-tenant
    /// fairness quotas on the server).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Attaches a span sink: every traced invocation records a span tree
    /// (root `invoke` with `serialize`/`shm_put` → `roundtrip` →
    /// `deserialize`/`shm_take` children) on the `client{N}` track.
    /// Attach the same sink to the server config to see one invocation
    /// across every hop.
    pub fn with_tracer(mut self, tracer: SpanSink) -> Self {
        self.conn
            .set_tracer(tracer.clone(), format!("client{}", self.id));
        self.tracer = Some(tracer);
        self
    }

    /// Retries transient failures of every [`call`](KaasClient::call)
    /// under `retry` (see [`ClientRetryConfig`] for the semantics:
    /// `retry_after` hints honored, optional shared [`RetryBudget`]).
    pub fn with_retry(mut self, retry: ClientRetryConfig) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Client-local metrics: `retries.budget_exhausted` (a retry was
    /// abandoned because the [`RetryBudget`] ran dry), `hedges.sent`
    /// and `hedges.won` (see [`InvokeBuilder::hedge`]).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Starts building an invocation of `kernel`; finish with
    /// [`InvokeBuilder::send`].
    pub fn call(&mut self, kernel: &str) -> InvokeBuilder<'_> {
        InvokeBuilder::new(self, Target::Kernel(kernel.to_owned()))
    }

    /// Starts building a control operation: the same builder as
    /// [`call`](KaasClient::call), aimed at a [`Control`] op.
    pub(crate) fn control(&mut self, op: Control) -> InvokeBuilder<'_> {
        InvokeBuilder::new(self, Target::Control(op))
    }

    /// Stores `value` in the server's object store and returns its
    /// content address, to be passed to later invocations with
    /// [`InvokeBuilder::arg_ref`]. The payload travels through shared
    /// memory when attached (the fast path), in-band otherwise;
    /// identical content deduplicates to the same ref server-side.
    ///
    /// # Errors
    ///
    /// Any transport-level [`InvokeError`].
    pub async fn put(&mut self, value: Value) -> Result<ObjectRef, InvokeError> {
        let oob = self.shm.is_some();
        let mut call = self.control(Control::DataPut).arg(value);
        if oob {
            call = call.out_of_band();
        }
        let inv = call.send().await?;
        ObjectRef::from_value(&inv.output).ok_or(InvokeError::BadHandle)
    }

    /// Fetches a stored object back from the server.
    ///
    /// # Errors
    ///
    /// [`InvokeError::BadHandle`] when `r` does not resolve.
    pub async fn get(&mut self, r: ObjectRef) -> Result<Value, InvokeError> {
        let oob = self.shm.is_some();
        let mut call = self.control(Control::DataGet).arg(r.to_value());
        if oob {
            call = call.out_of_band();
        }
        Ok(call.send().await?.output)
    }

    /// Seals a stored object: declares it immutable, making it eligible
    /// for device-resident caching (repeat invocations referencing it
    /// skip the host→device copy once uploaded).
    ///
    /// # Errors
    ///
    /// [`InvokeError::BadHandle`] when `r` does not resolve.
    pub async fn seal(&mut self, r: ObjectRef) -> Result<(), InvokeError> {
        self.control(Control::DataSeal)
            .arg(r.to_value())
            .send()
            .await?;
        Ok(())
    }

    /// Pins a stored object: its device-resident copies are never
    /// evicted under memory pressure.
    ///
    /// # Errors
    ///
    /// [`InvokeError::BadHandle`] when `r` does not resolve.
    pub async fn pin(&mut self, r: ObjectRef) -> Result<(), InvokeError> {
        self.control(Control::DataPin)
            .arg(r.to_value())
            .send()
            .await?;
        Ok(())
    }

    /// Registers a guest kernel program under `tenant`, returning its
    /// versioned `tenant/name@vN` identity. Registration verifies the
    /// bytecode (abstract typing, stack depths, worst-case fuel bound)
    /// and instantiates the program once server-side (running its init,
    /// taking the snapshot image when the program opted in) — every
    /// re-register of the same name mints a fresh version; existing
    /// versions are never mutated, so in-flight work keeps the code it
    /// resolved.
    ///
    /// Invoke it like any kernel: `client.call("tenant/name")` runs the
    /// latest live version, `client.call(&full_name)` pins one.
    ///
    /// # Errors
    ///
    /// [`InvokeError::BadInput`] when the tenant identity or program
    /// fails validation; [`InvokeError::VerifyRejected`] when the
    /// verifier proves the program traps (type mismatch, stack
    /// underflow, no-return path), with the `seq@pc: [rule] …`
    /// diagnostics in the payload; [`InvokeError::GuestTrap`] /
    /// [`InvokeError::FuelExhausted`] when the init program faults;
    /// transport errors as usual.
    pub async fn register_kernel(
        &mut self,
        tenant: &str,
        program: &GuestProgram,
    ) -> Result<String, InvokeError> {
        let inv = self
            .control(Control::CodeRegister)
            .arg(crate::guest::encode_register(tenant, program))
            .send()
            .await?;
        match inv.output.payload() {
            Value::Text(full) => Ok(full.clone()),
            _ => Err(InvokeError::BadHandle),
        }
    }

    /// Lists `tenant`'s live guest kernel versions (`tenant/name@vN`).
    ///
    /// # Errors
    ///
    /// Transport errors as usual.
    pub async fn list_guest_kernels(&mut self, tenant: &str) -> Result<Vec<String>, InvokeError> {
        let inv = self
            .control(Control::CodeList)
            .arg(Value::Text(tenant.to_owned()))
            .send()
            .await?;
        match inv.output.payload() {
            Value::List(items) => Ok(items
                .iter()
                .filter_map(|v| match v {
                    Value::Text(t) => Some(t.clone()),
                    _ => None,
                })
                .collect()),
            _ => Err(InvokeError::BadHandle),
        }
    }

    /// Tombstones a guest kernel: `tenant/name@vN` removes one version,
    /// a bare `tenant/name` removes every live version. Returns how many
    /// versions were removed. Version ids are never reused.
    ///
    /// # Errors
    ///
    /// [`InvokeError::UnknownGuestKernel`] when nothing was live under
    /// that name; transport errors as usual.
    pub async fn remove_kernel(&mut self, name: &str) -> Result<u64, InvokeError> {
        let inv = self
            .control(Control::CodeRemove)
            .arg(Value::Text(name.to_owned()))
            .send()
            .await?;
        match inv.output.payload() {
            Value::U64(n) => Ok(*n),
            _ => Err(InvokeError::BadHandle),
        }
    }

    /// Registers a workflow DAG with the server, returning the handle
    /// that triggers it (see [`KaasClient::flow`]). Registration is a
    /// one-time cost: the DAG definition crosses the wire once, and
    /// every later trigger carries only the handle id plus the input.
    ///
    /// # Errors
    ///
    /// [`InvokeError::UnknownKernel`] when a step names a kernel the
    /// server does not serve; [`InvokeError::BadInput`] when the
    /// definition does not decode; transport errors as usual.
    pub async fn register_workflow(
        &mut self,
        workflow: &Workflow,
    ) -> Result<WorkflowHandle, InvokeError> {
        let inv = self
            .control(Control::FlowRegister)
            .arg(workflow.to_value())
            .send()
            .await?;
        match inv.output.payload() {
            Value::U64(id) => Ok(WorkflowHandle::new(*id, workflow.name(), workflow.len())),
            _ => Err(InvokeError::BadHandle),
        }
    }

    /// Starts building a trigger of a registered workflow; finish with
    /// [`FlowBuilder::send`] (or [`FlowBuilder::send_ref`] to leave the
    /// final output server-resident). The whole DAG executes in **one**
    /// round trip: the server walks the steps itself, chaining
    /// intermediates device-to-device.
    pub fn flow(&mut self, handle: &WorkflowHandle) -> FlowBuilder<'_> {
        FlowBuilder {
            id: handle.id(),
            name: handle.name().to_owned(),
            input: Value::Unit,
            object: None,
            tenant: None,
            deadline: None,
            timeout: None,
            trace: true,
            out_of_band: false,
            client: self,
        }
    }

    /// Opens a batch scope: calls added to it coalesce into **one**
    /// request frame with one frame header and one serialization pass —
    /// the wire-level analogue of "several invocations in the same
    /// simtime tick". Replies coalesce symmetrically; each member still
    /// succeeds or fails on its own. Finish with
    /// [`BatchBuilder::send`].
    pub fn batch(&mut self) -> BatchBuilder<'_> {
        BatchBuilder {
            client: self,
            calls: Vec::new(),
            timeout: None,
        }
    }

    async fn roundtrip(&mut self, req: Request) -> Result<Response, InvokeError> {
        let id = req.id;
        let span = req.span;
        let frame = RequestFrame::One(req);
        let bytes = frame.wire_bytes();
        self.conn
            .send_traced(frame, bytes, span)
            .await
            .map_err(|_| InvokeError::Disconnected)?;
        loop {
            let frame = self.conn.recv().await.ok_or(InvokeError::Disconnected)?;
            match frame.body {
                ResponseFrame::One(resp) if resp.id == id => return Ok(resp),
                // A response to an older (abandoned) request or to a
                // timed-out batch: drop it.
                _ => {}
            }
        }
    }

    /// The hedged round trip: sends `req`, and if no response arrives
    /// within `delay`, sends the pre-built duplicate `hedge` too. The
    /// first response matching **either** id wins; the loser's reply is
    /// dropped by the stale-response filter like any abandoned request.
    async fn roundtrip_hedged(
        &mut self,
        req: Request,
        hedge: Request,
        delay: Duration,
    ) -> Result<Response, InvokeError> {
        let primary = req.id;
        let span = req.span;
        let frame = RequestFrame::One(req);
        let bytes = frame.wire_bytes();
        self.conn
            .send_traced(frame, bytes, span)
            .await
            .map_err(|_| InvokeError::Disconnected)?;
        let fire_at = now() + delay;
        let mut hedge = Some(hedge);
        let mut hedge_id = None;
        loop {
            let frame = match &hedge {
                // Armed: wait for the primary, but only until the hedge
                // fires. The deadline is absolute so stale frames
                // draining through the loop cannot push it out.
                Some(_) => match timeout(fire_at.saturating_since(now()), self.conn.recv()).await {
                    Ok(frame) => frame,
                    Err(_) => {
                        let h = hedge.take().expect("armed branch requires a pending hedge");
                        hedge_id = Some(h.id);
                        self.metrics.inc("hedges.sent");
                        let frame = RequestFrame::One(h);
                        let bytes = frame.wire_bytes();
                        self.conn
                            .send_traced(frame, bytes, None)
                            .await
                            .map_err(|_| InvokeError::Disconnected)?;
                        continue;
                    }
                },
                None => self.conn.recv().await,
            };
            let frame = frame.ok_or(InvokeError::Disconnected)?;
            match frame.body {
                ResponseFrame::One(resp) if resp.id == primary => return Ok(resp),
                ResponseFrame::One(resp) if Some(resp.id) == hedge_id => {
                    self.metrics.inc("hedges.won");
                    return Ok(resp);
                }
                _ => {}
            }
        }
    }

    /// Sends a coalesced batch frame and waits for its coalesced reply,
    /// correlated by the first member's id.
    async fn batch_roundtrip(
        &mut self,
        reqs: Vec<Request>,
        span: Option<SpanId>,
    ) -> Result<Vec<Response>, InvokeError> {
        let first = reqs[0].id;
        let frame = RequestFrame::Batch(reqs);
        let bytes = frame.wire_bytes();
        self.conn
            .send_traced(frame, bytes, span)
            .await
            .map_err(|_| InvokeError::Disconnected)?;
        loop {
            let frame = self.conn.recv().await.ok_or(InvokeError::Disconnected)?;
            match frame.body {
                ResponseFrame::Batch(resps) if resps.first().is_some_and(|r| r.id == first) => {
                    return Ok(resps)
                }
                // A stale single response or an abandoned batch's reply.
                _ => {}
            }
        }
    }
}

/// A pending invocation under construction; create via
/// [`KaasClient::call`], dispatch with [`send`](InvokeBuilder::send).
#[must_use = "an invocation does nothing until .send() is awaited"]
#[derive(Debug)]
pub struct InvokeBuilder<'c> {
    client: &'c mut KaasClient,
    target: Target,
    input: Value,
    object: Option<ObjectRef>,
    tenant: Option<String>,
    deadline: Option<Duration>,
    timeout: Option<Duration>,
    trace: bool,
    out_of_band: bool,
    hedge: Option<Duration>,
}

/// The per-attempt parameters of one invocation, split from
/// [`InvokeBuilder`] so the client-side retry loop can replay an
/// attempt with a fresh request id and a cloned input.
struct CallParams {
    target: Target,
    object: Option<ObjectRef>,
    tenant: Option<String>,
    deadline: Option<Duration>,
    rt_timeout: Option<Duration>,
    trace: bool,
    out_of_band: bool,
    hedge: Option<Duration>,
}

impl<'c> InvokeBuilder<'c> {
    fn new(client: &'c mut KaasClient, target: Target) -> Self {
        InvokeBuilder {
            client,
            target,
            input: Value::Unit,
            object: None,
            tenant: None,
            deadline: None,
            timeout: None,
            trace: true,
            out_of_band: false,
            hedge: None,
        }
    }

    /// Sets the kernel input (default: [`Value::Unit`]).
    pub fn arg(mut self, input: Value) -> Self {
        self.input = input;
        self.object = None;
        self
    }

    /// Sets the kernel input to a stored object by content address
    /// (see [`KaasClient::put`]): only the 24-byte ref crosses the
    /// wire, and — once the object is sealed and uploaded — repeat
    /// invocations on the same device skip the host→device copy
    /// entirely. Overrides any previous [`arg`](InvokeBuilder::arg).
    pub fn arg_ref(mut self, r: ObjectRef) -> Self {
        self.object = Some(r);
        self.input = Value::Unit;
        self
    }

    /// Overrides the client's tenant identity for this call only.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Gives the server a deadline (relative to send time) for
    /// *starting* device work; requests still undispatched past it are
    /// shed with [`InvokeError::DeadlineExceeded`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds the network round trip: if no response arrives within
    /// `timeout` of the request hitting the wire, the call resolves with
    /// [`InvokeError::TimedOut`]. This is the client-side recovery path
    /// for lost frames (link faults): without it a dropped request or
    /// response would block the caller forever.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Opts this call in or out of span recording (default: on, a no-op
    /// unless a sink was attached via [`KaasClient::with_tracer`]).
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Passes the input **out-of-band** through shared memory: only a
    /// small handle crosses the connection ("transferring larger data
    /// without copying over the network", §4.1), and the output comes
    /// back the same way. With [`arg_ref`](InvokeBuilder::arg_ref) the
    /// input is already just a content address, so this mode applies to
    /// the reply — pair them whenever the kernel's output is large.
    /// Requires [`KaasClient::with_shared_memory`].
    pub fn out_of_band(mut self) -> Self {
        self.out_of_band = true;
        self
    }

    /// Hedges this call against tail latency: if no response arrives
    /// within `delay`, a duplicate request (its own id) is sent and the
    /// **first** response — original or hedge — wins. The loser keeps
    /// running server-side and its reply is discarded; `hedges.sent` /
    /// `hedges.won` on [`KaasClient::metrics_registry`] account for
    /// both halves. Ignored in [`out_of_band`](InvokeBuilder::out_of_band)
    /// mode, where the shm input handle is consume-once and cannot be
    /// duplicated.
    pub fn hedge(mut self, delay: Duration) -> Self {
        self.hedge = Some(delay);
        self
    }

    /// Runs the invocation: serializes (or shm-puts) the input, does the
    /// round trip, and materializes the output. Under
    /// [`KaasClient::with_retry`], transient failures replay the whole
    /// sequence (honoring `retry_after` hints and the retry budget).
    ///
    /// # Errors
    ///
    /// Any [`InvokeError`] the server reports;
    /// [`InvokeError::Disconnected`] if the connection closed;
    /// [`InvokeError::BadHandle`] in out-of-band mode without an
    /// attached shared-memory region.
    pub async fn send(self) -> Result<Invocation, InvokeError> {
        let InvokeBuilder {
            client,
            target,
            input,
            object,
            tenant,
            deadline,
            timeout: rt_timeout,
            trace,
            out_of_band,
            hedge,
        } = self;
        let params = CallParams {
            target,
            object,
            tenant,
            deadline,
            rt_timeout,
            trace,
            out_of_band,
            hedge,
        };
        let retry = client.retry.clone();
        if let Some(budget) = retry.as_ref().and_then(|r| r.budget.as_ref()) {
            budget.note_fresh();
        }
        let max_attempts = retry.as_ref().map_or(1, |r| r.max_attempts);
        // Deterministic jitter key: the id this call's first attempt
        // will draw. Stable across attempts so backoff policies see one
        // request, not N.
        let retry_key = (client.id << 32) | (client.next_seq & 0xffff_ffff);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match params.attempt(client, input.clone()).await {
                Ok(inv) => return Ok(inv),
                Err(e) if attempt < max_attempts && ClientRetryConfig::retryable(&e) => e,
                Err(e) => return Err(e),
            };
            let cfg = retry
                .as_ref()
                .expect("max_attempts > 1 only with a retry config");
            if let Some(budget) = &cfg.budget {
                if !budget.try_spend() {
                    client.metrics.inc("retries.budget_exhausted");
                    return Err(err);
                }
            }
            // Cooperative backpressure: wait at least what the server
            // asked for, even when our own backoff would retry sooner.
            let mut wait = cfg.backoff.backoff(attempt, retry_key);
            if let InvokeError::Overloaded {
                retry_after: Some(hint),
            } = &err
            {
                wait = wait.max(*hint);
            }
            if !wait.is_zero() {
                sleep(wait).await;
            }
        }
    }
}

impl CallParams {
    /// One full attempt: stage the input, round-trip (hedged if asked),
    /// materialize the output.
    async fn attempt(
        &self,
        client: &mut KaasClient,
        input: Value,
    ) -> Result<Invocation, InvokeError> {
        let CallParams {
            target,
            object,
            tenant,
            deadline,
            rt_timeout,
            trace,
            out_of_band,
            hedge,
        } = self;
        let (object, deadline, rt_timeout, trace, out_of_band, hedge) = (
            *object,
            *deadline,
            *rt_timeout,
            *trace,
            *out_of_band,
            *hedge,
        );
        let tracer = if trace { client.tracer.clone() } else { None };
        let track = format!("client{}", client.id);
        let seq = client.next_seq;
        client.next_seq += 1;
        let id = (client.id << 32) | (seq & 0xffff_ffff);

        let start = now();
        let mut root = tracer.as_ref().map(|t| {
            let mut s = t.open(&track, "invoke", None);
            s.push_arg("kernel", target.name());
            s.push_arg("request", id.to_string());
            s
        });

        // Stage 1: put the input on the wire (a 24-byte content address
        // for stored objects, serialize in-band, shm-put out-of-band).
        // Out-of-band mode needs the region even for ref inputs: the
        // reply comes back through it.
        let shm = if out_of_band {
            Some(client.shm.as_ref().ok_or(InvokeError::BadHandle)?.clone())
        } else {
            None
        };
        let t0 = now();
        let data = if let Some(r) = object {
            // A content address is part of the request frame itself —
            // no payload to serialize, nothing to stage in shm.
            DataRef::Object(r)
        } else {
            match &shm {
                Some(shm) => {
                    let bytes = input.wire_bytes();
                    let handle = shm.put(input, bytes).await;
                    if let (Some(t), Some(root)) = (&tracer, &root) {
                        t.record(&track, "shm_put", t0, now(), Some(root.id()), vec![]);
                    }
                    DataRef::OutOfBand(handle)
                }
                None => {
                    sleep(client.serialization.time(input.wire_bytes())).await;
                    if let (Some(t), Some(root)) = (&tracer, &root) {
                        t.record(&track, "serialize", t0, now(), Some(root.id()), vec![]);
                    }
                    DataRef::InBand(input)
                }
            }
        };

        // Stage 2: the network round trip. The server parents its spans
        // under this span's pre-allocated id, carried in the request.
        let rt = tracer
            .as_ref()
            .zip(root.as_ref())
            .map(|(t, root)| t.open(&track, "roundtrip", Some(root.id())));
        let req = Request {
            id,
            target: target.clone(),
            data,
            tenant: tenant.clone().or_else(|| client.tenant.clone()),
            deadline: deadline.map(|d| now() + d),
            span: rt.as_ref().map(|s| s.id()),
            reply_out_of_band: out_of_band,
            reply_to_store: false,
        };
        // A hedge (when armed and the input is duplicable) is a second,
        // identical request under its own id. Out-of-band inputs are
        // consume-once shm handles, so they never hedge; object refs
        // are plain content addresses and duplicate safely.
        let hedge_req = match hedge {
            Some(_) if !out_of_band => {
                let data = match (&req.data, object) {
                    (_, Some(r)) => Some(DataRef::Object(r)),
                    (DataRef::InBand(v), None) => Some(DataRef::InBand(v.clone())),
                    _ => None,
                };
                data.map(|data| {
                    let seq = client.next_seq;
                    client.next_seq += 1;
                    Request {
                        id: (client.id << 32) | (seq & 0xffff_ffff),
                        target: target.clone(),
                        data,
                        tenant: req.tenant.clone(),
                        deadline: req.deadline,
                        // The duplicate is untraced: two server span
                        // trees under one roundtrip span would overlap.
                        span: None,
                        reply_out_of_band: false,
                        reply_to_store: false,
                    }
                })
            }
            _ => None,
        };
        let resp = match (rt_timeout, hedge_req) {
            (Some(d), Some(h)) => {
                let delay = hedge.expect("hedge_req implies a delay");
                timeout(d, client.roundtrip_hedged(req, h, delay))
                    .await
                    .unwrap_or(Err(InvokeError::TimedOut))
            }
            (None, Some(h)) => {
                let delay = hedge.expect("hedge_req implies a delay");
                client.roundtrip_hedged(req, h, delay).await
            }
            (Some(d), None) => timeout(d, client.roundtrip(req))
                .await
                .unwrap_or(Err(InvokeError::TimedOut)),
            (None, None) => client.roundtrip(req).await,
        };
        let resp = match resp {
            Ok(resp) => resp,
            Err(e) => {
                if let Some(rt) = rt {
                    rt.finish();
                }
                if let Some(root) = root.take() {
                    root.finish();
                }
                return Err(e);
            }
        };
        if let Some(rt) = rt {
            rt.finish();
        }
        let result = match resp.result {
            Ok(data) => data,
            Err(e) => {
                if let Some(root) = root.take() {
                    root.finish();
                }
                return Err(e);
            }
        };

        // Stage 3: materialize the output the way it came back.
        let t2 = now();
        let output = match result {
            DataRef::InBand(v) => {
                sleep(client.serialization.time(v.wire_bytes())).await;
                if let (Some(t), Some(root)) = (&tracer, &root) {
                    t.record(&track, "deserialize", t2, now(), Some(root.id()), vec![]);
                }
                v
            }
            DataRef::OutOfBand(h) => {
                let shm = client.shm.as_ref().ok_or(InvokeError::BadHandle)?;
                let v = shm.take(h).await.ok_or(InvokeError::BadHandle)?;
                if let (Some(t), Some(root)) = (&tracer, &root) {
                    t.record(&track, "shm_take", t2, now(), Some(root.id()), vec![]);
                }
                v
            }
            // Servers never answer with a bare content address.
            DataRef::Object(_) => return Err(InvokeError::BadHandle),
        };

        if let Some(root) = root {
            root.finish();
        }
        Ok(Invocation {
            output,
            report: resp.report.ok_or(InvokeError::Disconnected)?,
            latency: now() - start,
        })
    }
}

/// A pending trigger of a registered workflow; create via
/// [`KaasClient::flow`], dispatch with [`send`](FlowBuilder::send).
#[must_use = "a flow trigger does nothing until .send() is awaited"]
#[derive(Debug)]
pub struct FlowBuilder<'c> {
    client: &'c mut KaasClient,
    id: u64,
    name: String,
    input: Value,
    object: Option<ObjectRef>,
    tenant: Option<String>,
    deadline: Option<Duration>,
    timeout: Option<Duration>,
    trace: bool,
    out_of_band: bool,
}

impl<'c> FlowBuilder<'c> {
    /// Sets the trigger input fed to the flow's source steps (default:
    /// [`Value::Unit`]).
    pub fn input(mut self, input: Value) -> Self {
        self.input = input;
        self.object = None;
        self
    }

    /// Feeds the flow a stored object by content address (see
    /// [`KaasClient::put`]): only the 24-byte ref crosses the wire, and
    /// the source steps chain off the resident object like any
    /// intermediate. Overrides any previous
    /// [`input`](FlowBuilder::input).
    pub fn input_ref(mut self, r: ObjectRef) -> Self {
        self.object = Some(r);
        self.input = Value::Unit;
        self
    }

    /// Overrides the client's tenant identity for this run only.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Gives every step of the run a server-side start deadline
    /// (relative to send time); a step still undispatched past it sheds
    /// with [`InvokeError::DeadlineExceeded`], aborting the flow.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds the network round trip, like [`InvokeBuilder::timeout`].
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Opts this run in or out of span recording (default: on).
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Ships the trigger (and the final output) through shared memory.
    /// Requires [`KaasClient::with_shared_memory`].
    pub fn out_of_band(mut self) -> Self {
        self.out_of_band = true;
        self
    }

    /// Triggers the run and materializes the final output: one round
    /// trip for the whole DAG.
    ///
    /// # Errors
    ///
    /// [`FlowError`] wrapping the aborting step's [`InvokeError`] (or a
    /// transport error), with the reports of the steps that did
    /// complete as partial results. A forged or expired handle fails
    /// with [`InvokeError::UnknownFlow`], never a panic.
    pub async fn send(self) -> Result<WorkflowRun, FlowError> {
        let (data, report, start, client, tracer, track, root) = self.send_inner(0).await?;
        // Materialize the output the way it came back.
        let t2 = now();
        let output = match data {
            DataRef::InBand(v) => {
                sleep(client.serialization.time(v.wire_bytes())).await;
                if let (Some(t), Some(root)) = (&tracer, &root) {
                    t.record(&track, "deserialize", t2, now(), Some(root.id()), vec![]);
                }
                v
            }
            DataRef::OutOfBand(h) => {
                let shm = match client.shm.as_ref() {
                    Some(shm) => shm,
                    None => {
                        if let Some(root) = root {
                            root.finish();
                        }
                        return Err(FlowError::from(InvokeError::BadHandle));
                    }
                };
                match shm.take(h).await {
                    Some(v) => {
                        if let (Some(t), Some(root)) = (&tracer, &root) {
                            t.record(&track, "shm_take", t2, now(), Some(root.id()), vec![]);
                        }
                        v
                    }
                    None => {
                        if let Some(root) = root {
                            root.finish();
                        }
                        return Err(FlowError::from(InvokeError::BadHandle));
                    }
                }
            }
            // Bare content addresses only answer `send_ref` triggers.
            DataRef::Object(_) => {
                if let Some(root) = root {
                    root.finish();
                }
                return Err(FlowError::from(InvokeError::BadHandle));
            }
        };
        if let Some(root) = root {
            root.finish();
        }
        Ok(WorkflowRun {
            output,
            report,
            latency: now() - start,
            round_trips: 1,
        })
    }

    /// Triggers the run but leaves the final output server-resident,
    /// returning its content address plus the per-step report. The next
    /// hop — another flow via [`FlowBuilder::input_ref`], a
    /// [`get`](KaasClient::get), a federated segment handoff — chains
    /// off the ref without the value ever crossing this wire.
    ///
    /// # Errors
    ///
    /// As [`send`](FlowBuilder::send).
    pub async fn send_ref(self) -> Result<(ObjectRef, WorkflowReport), FlowError> {
        let (data, report, _, _, _, _, root) = self.send_inner(FLOW_REPLY_REF).await?;
        if let Some(root) = root {
            root.finish();
        }
        match data {
            DataRef::Object(r) => Ok((r, report)),
            _ => Err(FlowError::from(InvokeError::BadHandle)),
        }
    }

    /// The shared trigger path: stages the trigger, does the round
    /// trip, and splits the reply into payload + report. Returns the
    /// still-open root span so the caller can hang materialization
    /// spans under it.
    #[allow(clippy::type_complexity)]
    async fn send_inner(
        self,
        flags: u64,
    ) -> Result<
        (
            DataRef,
            WorkflowReport,
            kaas_simtime::SimTime,
            &'c mut KaasClient,
            Option<SpanSink>,
            String,
            Option<kaas_simtime::OpenSpan>,
        ),
        FlowError,
    > {
        let FlowBuilder {
            client,
            id: flow_id,
            name,
            input,
            object,
            tenant,
            deadline,
            timeout: rt_timeout,
            trace,
            out_of_band,
        } = self;
        let tracer = if trace { client.tracer.clone() } else { None };
        let track = format!("client{}", client.id);
        let seq = client.next_seq;
        client.next_seq += 1;
        let id = (client.id << 32) | (seq & 0xffff_ffff);

        let start = now();
        let mut root = tracer.as_ref().map(|t| {
            let mut s = t.open(&track, "flow", None);
            s.push_arg("flow", flow_id.to_string());
            s.push_arg("name", &name);
            s
        });

        // Stage the trigger. A ref input travels inside the trigger
        // envelope — the payload itself stays server-side.
        let trigger = encode_trigger(
            flow_id,
            flags,
            match object {
                Some(r) => r.to_value(),
                None => input,
            },
        );
        let t0 = now();
        let data = if out_of_band {
            let shm = match client.shm.as_ref() {
                Some(shm) => shm.clone(),
                None => {
                    if let Some(root) = root.take() {
                        root.finish();
                    }
                    return Err(FlowError::from(InvokeError::BadHandle));
                }
            };
            let bytes = trigger.wire_bytes();
            let handle = shm.put(trigger, bytes).await;
            if let (Some(t), Some(root)) = (&tracer, &root) {
                t.record(&track, "shm_put", t0, now(), Some(root.id()), vec![]);
            }
            DataRef::OutOfBand(handle)
        } else {
            sleep(client.serialization.time(trigger.wire_bytes())).await;
            if let (Some(t), Some(root)) = (&tracer, &root) {
                t.record(&track, "serialize", t0, now(), Some(root.id()), vec![]);
            }
            DataRef::InBand(trigger)
        };

        // The round trip; the server hangs the whole run's span tree
        // under this span's id.
        let rt = tracer
            .as_ref()
            .zip(root.as_ref())
            .map(|(t, root)| t.open(&track, "roundtrip", Some(root.id())));
        let req = Request {
            id,
            target: Target::Control(Control::FlowRun),
            data,
            tenant: tenant.or_else(|| client.tenant.clone()),
            deadline: deadline.map(|d| now() + d),
            span: rt.as_ref().map(|s| s.id()),
            reply_out_of_band: out_of_band,
            reply_to_store: false,
        };
        let resp = match rt_timeout {
            Some(d) => timeout(d, client.roundtrip(req))
                .await
                .unwrap_or(Err(InvokeError::TimedOut)),
            None => client.roundtrip(req).await,
        };
        if let Some(rt) = rt {
            rt.finish();
        }
        let resp = match resp {
            Ok(resp) => resp,
            Err(e) => {
                if let Some(root) = root.take() {
                    root.finish();
                }
                return Err(FlowError::from(e));
            }
        };
        match resp.result {
            Ok(data) => {
                let report = match resp.flow {
                    Some(report) => report,
                    None => {
                        if let Some(root) = root.take() {
                            root.finish();
                        }
                        return Err(FlowError::from(InvokeError::Disconnected));
                    }
                };
                Ok((data, report, start, client, tracer, track, root))
            }
            Err(e) => {
                if let Some(root) = root.take() {
                    root.finish();
                }
                Err(FlowError {
                    error: e,
                    partial: resp.flow.map(|f| f.steps).unwrap_or_default(),
                })
            }
        }
    }
}

/// One member of a batched invocation (see [`KaasClient::batch`]):
/// kernel name, input, and per-member overrides. Built standalone so a
/// batch can be assembled before the client is borrowed.
#[derive(Debug, Clone)]
pub struct BatchCall {
    kernel: String,
    input: Value,
    object: Option<ObjectRef>,
    tenant: Option<String>,
    deadline: Option<Duration>,
}

impl BatchCall {
    /// Starts a batch member invoking `kernel` (input defaults to
    /// [`Value::Unit`]).
    pub fn new(kernel: &str) -> Self {
        BatchCall {
            kernel: kernel.to_owned(),
            input: Value::Unit,
            object: None,
            tenant: None,
            deadline: None,
        }
    }

    /// Sets the member's in-band input.
    pub fn arg(mut self, input: Value) -> Self {
        self.input = input;
        self.object = None;
        self
    }

    /// Sets the member's input to a stored object by content address
    /// (overrides any previous [`arg`](BatchCall::arg)).
    pub fn arg_ref(mut self, r: ObjectRef) -> Self {
        self.object = Some(r);
        self.input = Value::Unit;
        self
    }

    /// Overrides the client's tenant identity for this member.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Gives this member a server-side start deadline (relative to
    /// send time), like [`InvokeBuilder::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A batch of invocations under construction; create via
/// [`KaasClient::batch`], dispatch with [`send`](BatchBuilder::send).
///
/// All members ride **one** request frame: one [`FRAME_BYTES`](crate::FRAME_BYTES)
/// header plus a small per-member sub-header, and
/// one serialization pass over the concatenated in-band payloads — the
/// §4.1 per-call wire costs are paid once per batch instead of once per
/// call. Replies coalesce symmetrically. Server-side, members execute
/// concurrently and independently: retry, circuit breaking, and
/// admission all see ordinary individual invocations.
#[must_use = "a batch does nothing until .send() is awaited"]
#[derive(Debug)]
pub struct BatchBuilder<'c> {
    client: &'c mut KaasClient,
    calls: Vec<BatchCall>,
    timeout: Option<Duration>,
}

impl BatchBuilder<'_> {
    /// Appends one member.
    pub fn call(mut self, call: BatchCall) -> Self {
        self.calls.push(call);
        self
    }

    /// Bounds the whole frame's round trip: if the coalesced reply does
    /// not arrive in time, **every** member resolves individually as
    /// [`InvokeError::TimedOut`] (the outer result stays `Ok`).
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Members added so far.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether the batch is still empty.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Runs the batch: one coalesced serialization, one round trip, one
    /// coalesced deserialization. Returns per-member results in call
    /// order — members succeed or fail independently.
    ///
    /// # Errors
    ///
    /// The outer `Err` is transport-level only
    /// ([`InvokeError::Disconnected`]); everything else — including a
    /// frame-level timeout — lands in the per-member results.
    pub async fn send(self) -> Result<Vec<Result<Invocation, InvokeError>>, InvokeError> {
        let BatchBuilder {
            client,
            calls,
            timeout: rt_timeout,
        } = self;
        if calls.is_empty() {
            return Ok(Vec::new());
        }
        let n = calls.len();
        let tracer = client.tracer.clone();
        let track = format!("client{}", client.id);
        let start = now();
        let mut root = tracer.as_ref().map(|t| {
            let mut s = t.open(&track, "batch", None);
            s.push_arg("members", n.to_string());
            s
        });

        // One serialization pass covers every in-band member payload
        // (object refs travel as part of the frame itself).
        let t0 = now();
        let in_band: u64 = calls
            .iter()
            .filter(|c| c.object.is_none())
            .map(|c| c.input.wire_bytes())
            .sum();
        if in_band > 0 {
            sleep(client.serialization.time(in_band)).await;
        }
        if let (Some(t), Some(root)) = (&tracer, &root) {
            t.record(&track, "serialize", t0, now(), Some(root.id()), vec![]);
        }

        let reqs: Vec<Request> = calls
            .into_iter()
            .map(|c| {
                let seq = client.next_seq;
                client.next_seq += 1;
                Request {
                    id: (client.id << 32) | (seq & 0xffff_ffff),
                    target: Target::Kernel(c.kernel),
                    data: match c.object {
                        Some(r) => DataRef::Object(r),
                        None => DataRef::InBand(c.input),
                    },
                    tenant: c.tenant.or_else(|| client.tenant.clone()),
                    deadline: c.deadline.map(|d| now() + d),
                    // Members carry no span parent: they execute
                    // concurrently server-side, and concurrent siblings
                    // under one parent would break the trace tiling
                    // contract. The batch records its own client-side
                    // span tree instead.
                    span: None,
                    reply_out_of_band: false,
                    reply_to_store: false,
                }
            })
            .collect();

        let t1 = now();
        let rt_span = root.as_ref().map(|r| r.id());
        let resps = match rt_timeout {
            Some(d) => match timeout(d, client.batch_roundtrip(reqs, rt_span)).await {
                Ok(resps) => resps,
                Err(_) => {
                    // The frame (or its reply) is lost past the
                    // deadline: the members failed individually.
                    if let (Some(t), Some(root)) = (&tracer, &root) {
                        t.record(&track, "roundtrip", t1, now(), Some(root.id()), vec![]);
                    }
                    if let Some(root) = root.take() {
                        root.finish();
                    }
                    return Ok((0..n).map(|_| Err(InvokeError::TimedOut)).collect());
                }
            },
            None => client.batch_roundtrip(reqs, rt_span).await,
        };
        let resps = match resps {
            Ok(resps) => resps,
            Err(e) => {
                if let Some(root) = root.take() {
                    root.finish();
                }
                return Err(e);
            }
        };
        if let (Some(t), Some(root)) = (&tracer, &root) {
            t.record(&track, "roundtrip", t1, now(), Some(root.id()), vec![]);
        }

        // One coalesced deserialization pass over the in-band replies.
        let t2 = now();
        let reply_bytes: u64 = resps
            .iter()
            .filter_map(|r| match &r.result {
                Ok(DataRef::InBand(v)) => Some(v.wire_bytes()),
                _ => None,
            })
            .sum();
        if reply_bytes > 0 {
            sleep(client.serialization.time(reply_bytes)).await;
        }
        if let (Some(t), Some(root)) = (&tracer, &root) {
            t.record(&track, "deserialize", t2, now(), Some(root.id()), vec![]);
        }

        let latency = now() - start;
        let out = resps
            .into_iter()
            .map(|resp| {
                let output = match resp.result? {
                    DataRef::InBand(v) => v,
                    // Batch members never request out-of-band replies.
                    _ => return Err(InvokeError::BadHandle),
                };
                Ok(Invocation {
                    output,
                    report: resp.report.ok_or(InvokeError::Disconnected)?,
                    latency,
                })
            })
            .collect();
        if let Some(root) = root {
            root.finish();
        }
        Ok(out)
    }
}

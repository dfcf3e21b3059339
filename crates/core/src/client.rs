//! [`KaasClient`]: the thin client API (§4.1). A KaaS client carries no
//! accelerator libraries — it serializes inputs (in-band) or drops them
//! into shared memory (out-of-band) and speaks the request/response
//! protocol over the network.
//!
//! Calls are built fluently: [`KaasClient::call`] returns an
//! [`InvokeBuilder`] and [`KaasClient::flow`] a [`FlowBuilder`], two
//! faces of one [`CallBuilder`] that collects the input and the per-call
//! tenant, deadline, timeout and transfer mode before `send` runs the
//! call. Invocations, control operations and flow triggers (a
//! [`Control::FlowRun`] call) all take the same private path: stage the
//! input (serialize it in-band, `shm.put` it out-of-band, or carry an
//! object ref in the frame), build one request and do the round trip,
//! then materialize the reply. Batches ([`KaasClient::batch`]) share
//! that one round trip: it sends a frame and returns the reply that
//! answers it, dropping stale replies to calls that timed out. When the
//! client has a tracer, every call records a root span on every exit,
//! errors included:
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

use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use kaas_guest::GuestProgram;
use kaas_kernels::Value;
use kaas_net::{
    Connection, LinkFault, LinkProfile, NetError, Network, SerializationProfile, SharedMemory,
};
use kaas_simtime::{now, sleep, timeout, OpenSpan, SimTime, SpanId, SpanSink};

use crate::dataplane::ObjectRef;
use crate::metrics::handles::ClientMetrics;
use crate::metrics::registry::MetricsRegistry;
use crate::metrics::InvocationReport;
use crate::protocol::{
    Control, DataRef, Input, InvokeError, Request, RequestContext, RequestFrame, ResponseFrame,
    Target,
};
use crate::resilience::{ExponentialBackoff, RetryBudget};
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
/// total attempts. Each retry waits the [`ExponentialBackoff`] (if any) or the
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
    backoff: Option<ExponentialBackoff>,
    budget: Option<Rc<RetryBudget>>,
}

impl ClientRetryConfig {
    /// Creates a policy with `max_attempts` total attempts (clamped to
    /// at least 1), no backoff beyond server hints, and no budget.
    pub fn new(max_attempts: u32) -> Self {
        ClientRetryConfig {
            max_attempts: max_attempts.max(1),
            backoff: None,
            budget: None,
        }
    }

    /// Sets the backoff between attempts (the server's `retry_after`
    /// hint still wins when it is longer).
    pub fn with_backoff(mut self, backoff: ExponentialBackoff) -> Self {
        self.backoff = Some(backoff);
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
    tenant: Option<Rc<str>>,
    /// Every kernel name this client has called, allocated once and
    /// shared by each request that names it.
    kernels: BTreeSet<Rc<str>>,
    id: u64,
    next_seq: u64,
    tracer: Option<SpanSink>,
    retry: Option<ClientRetryConfig>,
    /// Resolved at first use, so connecting a client resolves no
    /// metric names: most clients never exhaust a retry budget.
    metrics: OnceCell<ClientMetrics>,
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
            kernels: BTreeSet::new(),
            id,
            next_seq: 0,
            tracer: None,
            retry: None,
            metrics: OnceCell::new(),
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
    /// past the NIC; pair with [`CallBuilder::timeout`] so lost
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
        self.tenant = Some(tenant.into().into());
        self
    }

    /// Attaches a span sink: every call records a span tree (root
    /// `invoke` with `serialize`/`shm_put` → `roundtrip` →
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

    /// Client-local metrics: `retries.budget_exhausted` counts retries
    /// abandoned because the [`RetryBudget`] ran dry.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        self.metrics().registry()
    }

    fn metrics(&self) -> &ClientMetrics {
        self.metrics.get_or_init(ClientMetrics::new)
    }

    /// Starts building an invocation of `kernel`; finish with
    /// [`InvokeBuilder::send`].
    pub fn call(&mut self, kernel: &str) -> InvokeBuilder<'_> {
        let kernel = self.intern(kernel);
        CallBuilder::new(self, Target::Kernel(kernel))
    }

    /// The shared copy of kernel name `name`, allocated on first use.
    fn intern(&mut self, name: &str) -> Rc<str> {
        if let Some(interned) = self.kernels.get(name) {
            return Rc::clone(interned);
        }
        let interned: Rc<str> = name.into();
        self.kernels.insert(Rc::clone(&interned));
        interned
    }

    /// Runs control operation `op` through the call path, with `payload`
    /// as the request's data, and returns the reply's output. A put's
    /// payload and a get's reply travel through shared memory when it is
    /// attached; every other op travels in-band.
    async fn control(&mut self, op: Control, payload: Value) -> Result<DataRef, InvokeError> {
        let out_of_band =
            self.shm.is_some() && matches!(op, Control::DataPut | Control::DataGet(_));
        let mut call = CallBuilder::new(self, Target::Control(Box::new(op))).arg(payload);
        call.transport.out_of_band = out_of_band;
        call.send_as(|reply| Ok(reply.output)).await
    }

    /// Runs argument-carrying control operation `op` and returns the
    /// value it answers.
    async fn control_value(&mut self, op: Control) -> Result<Value, InvokeError> {
        match self.control(op, Value::Unit).await? {
            DataRef::InBand(v) => Ok(v),
            _ => Err(InvokeError::BadHandle),
        }
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
        match self.control(Control::DataPut, value).await? {
            DataRef::Object(r) => Ok(r),
            _ => Err(InvokeError::BadHandle),
        }
    }

    /// Fetches a stored object back from the server.
    ///
    /// # Errors
    ///
    /// [`InvokeError::BadHandle`] when `r` does not resolve.
    pub async fn get(&mut self, r: ObjectRef) -> Result<Value, InvokeError> {
        self.control_value(Control::DataGet(r)).await
    }

    /// Seals a stored object: declares it immutable, making it eligible
    /// for device-resident caching (repeat invocations referencing it
    /// skip the host→device copy once uploaded).
    ///
    /// # Errors
    ///
    /// [`InvokeError::BadHandle`] when `r` does not resolve.
    pub async fn seal(&mut self, r: ObjectRef) -> Result<(), InvokeError> {
        self.control_value(Control::DataSeal(r)).await?;
        Ok(())
    }

    /// Pins a stored object: its device-resident copies are never
    /// evicted under memory pressure.
    ///
    /// # Errors
    ///
    /// [`InvokeError::BadHandle`] when `r` does not resolve.
    pub async fn pin(&mut self, r: ObjectRef) -> Result<(), InvokeError> {
        self.control_value(Control::DataPin(r)).await?;
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
        let op = Control::CodeRegister {
            tenant: tenant.to_owned(),
            program: program.clone(),
        };
        match self.control_value(op).await? {
            Value::Text(full) => Ok(full),
            _ => Err(InvokeError::BadHandle),
        }
    }

    /// Lists `tenant`'s live guest kernel versions (`tenant/name@vN`).
    ///
    /// # Errors
    ///
    /// Transport errors as usual.
    pub async fn list_guest_kernels(&mut self, tenant: &str) -> Result<Vec<String>, InvokeError> {
        match self
            .control_value(Control::CodeList(tenant.to_owned()))
            .await?
        {
            Value::List(items) => Ok(items
                .into_iter()
                .filter_map(|v| match v {
                    Value::Text(t) => Some(t),
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
        match self
            .control_value(Control::CodeRemove(name.to_owned()))
            .await?
        {
            Value::U64(n) => Ok(n),
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
    /// server does not serve; transport errors as usual.
    pub async fn register_workflow(
        &mut self,
        workflow: &Workflow,
    ) -> Result<WorkflowHandle, InvokeError> {
        match self
            .control_value(Control::FlowRegister(workflow.clone()))
            .await?
        {
            Value::U64(id) => Ok(WorkflowHandle::new(id, workflow.name(), workflow.len())),
            _ => Err(InvokeError::BadHandle),
        }
    }

    /// Starts building a trigger of a registered workflow; finish with
    /// [`FlowBuilder::send`] (or [`FlowBuilder::send_ref`] to leave the
    /// final output server-resident). The whole DAG executes in **one**
    /// round trip: the server walks the steps itself, chaining
    /// intermediates device-to-device.
    pub fn flow(&mut self, handle: &WorkflowHandle) -> FlowBuilder<'_> {
        CallBuilder::new(self, handle.clone())
    }

    /// Opens a batch scope: calls added to it coalesce into **one**
    /// request frame with one frame header and one serialization pass —
    /// the wire-level analogue of "several invocations in the same
    /// simtime tick". Replies coalesce symmetrically; each member still
    /// succeeds or fails on its own. Finish with
    /// [`BatchBuilder::send`].
    pub fn batch<'k>(&mut self) -> BatchBuilder<'_, 'k> {
        BatchBuilder {
            client: self,
            calls: Vec::new(),
            timeout: None,
        }
    }

    /// Draws the next request id: this client's identity in the high
    /// half, its sequence number in the low half.
    fn next_id(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        (self.id << 32) | (seq & 0xffff_ffff)
    }

    /// Builds request `id`. The tenant falls back to the client's and
    /// the deadline becomes absolute as of now; the request starts
    /// untraced, with an in-band reply.
    fn request(
        &self,
        id: u64,
        target: Target,
        data: DataRef,
        tenant: Option<Rc<str>>,
        deadline: Option<Duration>,
    ) -> Request {
        Request {
            id,
            target,
            data,
            deadline: deadline.map(|d| now() + d),
            context: RequestContext::boxed(tenant.or_else(|| self.tenant.clone()), None),
            reply_out_of_band: false,
            reply_to_store: false,
        }
    }

    /// The one call path (§4.1), shared by invocations, control ops and
    /// flow triggers. Every exit finishes `root` and its children.
    ///
    /// 1. Stage the input: an object ref rides in the frame; any other
    ///    input is serialized in-band or shm-put out-of-band.
    /// 2. Build the request and do the round trip, bounded by the
    ///    timeout when asked.
    /// 3. Materialize the reply: deserialize it or shm-take it. A bare
    ///    content address comes back as is.
    ///
    /// The error carries a failed flow's partial step reports (empty
    /// for every other call).
    async fn call_once(
        &mut self,
        target: &Target,
        opts: CallOptions,
        transport: Transport,
        mut root: RootSpan,
    ) -> Result<Reply, FlowError> {
        let id = self.next_id();
        root.push_arg("request", id);
        let start = now();
        let result = async {
            // Out-of-band mode needs the region even for ref inputs: the
            // reply comes back through it.
            let shm = transport
                .out_of_band
                .then(|| self.shm.as_ref().ok_or(InvokeError::BadHandle))
                .transpose()?;
            let t0 = now();
            let data = match (opts.input, shm) {
                // A content address is part of the request frame itself:
                // no payload to serialize, nothing to stage in shm.
                (Input::Object(r), _) => DataRef::Object(r),
                (Input::Value(input), Some(shm)) => {
                    let bytes = input.wire_bytes();
                    let handle = shm.put(input, bytes).await;
                    root.step("shm_put", t0);
                    DataRef::OutOfBand(handle)
                }
                (Input::Value(input), None) => {
                    sleep(self.serialization.time(input.wire_bytes())).await;
                    root.step("serialize", t0);
                    DataRef::InBand(input)
                }
            };

            // The server parents its spans under the round trip's id.
            let rt = root.child("roundtrip");
            let span = rt.as_ref().map(OpenSpan::id);
            let mut req = self.request(id, target.clone(), data, opts.tenant, opts.deadline);
            req.set_span(span);
            req.reply_out_of_band = transport.out_of_band;
            let resp = self
                .roundtrip(
                    transport.timeout,
                    span,
                    || RequestFrame::One(req),
                    |reply| match reply {
                        ResponseFrame::One(resp) if resp.id == id => Some(resp),
                        _ => None,
                    },
                )
                .await;
            if let Some(rt) = rt {
                rt.finish();
            }
            let resp = resp?;
            let data = match resp.result {
                Ok(data) => data,
                Err(error) => {
                    let partial = resp.flow.map(|f| f.steps).unwrap_or_default();
                    return Err(FlowError { error, partial });
                }
            };

            let t2 = now();
            let output = match data {
                DataRef::InBand(v) => {
                    sleep(self.serialization.time(v.wire_bytes())).await;
                    root.step("deserialize", t2);
                    DataRef::InBand(v)
                }
                DataRef::OutOfBand(h) => {
                    let shm = self.shm.as_ref().ok_or(InvokeError::BadHandle)?;
                    let v = shm.take(h).await.ok_or(InvokeError::BadHandle)?;
                    root.step("shm_take", t2);
                    DataRef::InBand(v)
                }
                r @ DataRef::Object(_) => r,
            };
            Ok::<_, FlowError>((output, resp.report, resp.flow))
        }
        .await;
        root.finish();
        let (output, report, flow) = result?;
        Ok(Reply {
            output,
            report,
            flow,
            latency: now() - start,
        })
    }

    /// The one round trip, for single calls and batches alike: sends
    /// the frame `frame` builds and returns what `accept` makes of the
    /// first reply it takes. Every reply `accept` refuses is a stale one,
    /// to a call or batch that timed out earlier, and is dropped. With
    /// `within`, a reply that has not arrived that long after the send
    /// started resolves as [`InvokeError::TimedOut`].
    ///
    /// The frame is built here, from what `frame` captures, and the
    /// reply is unpacked by `accept`, so neither a whole
    /// [`RequestFrame`] nor a whole [`ResponseFrame`] is held in the
    /// caller's future.
    async fn roundtrip<R>(
        &mut self,
        within: Option<Duration>,
        span: Option<SpanId>,
        frame: impl FnOnce() -> RequestFrame,
        mut accept: impl FnMut(ResponseFrame) -> Option<R>,
    ) -> Result<R, InvokeError> {
        let exchange = async {
            // The frame lives only inside the send future.
            let send = {
                let frame = frame();
                let bytes = frame.wire_bytes();
                self.conn.send_traced(frame, bytes, span)
            };
            send.await.map_err(|_| InvokeError::Disconnected)?;
            loop {
                let reply = self.conn.recv().await.ok_or(InvokeError::Disconnected)?;
                if let Some(accepted) = accept(reply.body) {
                    return Ok(accepted);
                }
            }
        };
        match within {
            Some(d) => timeout(d, exchange)
                .await
                .unwrap_or(Err(InvokeError::TimedOut)),
            None => exchange.await,
        }
    }
}

/// A call's input and server-side options, shared by [`CallBuilder`]
/// and [`BatchCall`].
#[derive(Debug, Clone, Default)]
struct CallOptions {
    input: Input,
    tenant: Option<Rc<str>>,
    deadline: Option<Duration>,
}

/// How a [`CallBuilder`]'s call crosses the wire. A batch member has
/// neither option: the whole frame shares one timeout and travels
/// in-band.
#[derive(Debug, Clone, Copy, Default)]
struct Transport {
    timeout: Option<Duration>,
    out_of_band: bool,
}

/// A call's root span on the client's `client{N}` track, or nothing
/// when the client has no tracer. The client-side steps record under
/// it.
struct RootSpan(Option<(SpanSink, String, OpenSpan)>);

impl RootSpan {
    fn open(client: &KaasClient, name: &str) -> RootSpan {
        RootSpan(client.tracer.as_ref().map(|sink| {
            let track = format!("client{}", client.id);
            let span = sink.open(&track, name, None);
            (sink.clone(), track, span)
        }))
    }

    fn id(&self) -> Option<SpanId> {
        self.0.as_ref().map(|(_, _, root)| root.id())
    }

    fn push_arg(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some((_, _, root)) = &mut self.0 {
            root.push_arg(key, value.to_string());
        }
    }

    /// Records the step `name`, which ran from `start` until now.
    fn step(&self, name: &str, start: SimTime) {
        if let Some((sink, track, root)) = &self.0 {
            sink.record(track, name, start, now(), Some(root.id()), vec![]);
        }
    }

    /// Opens a child step that others may parent their spans under.
    fn child(&self, name: &str) -> Option<OpenSpan> {
        self.0
            .as_ref()
            .map(|(sink, track, root)| sink.open(track, name, Some(root.id())))
    }

    fn finish(self) {
        if let Some((_, _, root)) = self.0 {
            root.finish();
        }
    }
}

/// What one call brought back: the materialized output and the
/// response's reports.
struct Reply {
    /// A value, deserialized or taken from shared memory, is `InBand`;
    /// a bare content address (the reply to a `send_ref` flow trigger)
    /// is `Object`.
    output: DataRef,
    report: Option<InvocationReport>,
    /// The per-step report of a flow trigger.
    flow: Option<Box<WorkflowReport>>,
    latency: Duration,
}

/// A pending call under construction, of a kernel or control op
/// ([`InvokeBuilder`], from [`KaasClient::call`]) or of a registered
/// workflow ([`FlowBuilder`], from [`KaasClient::flow`]). The tenant,
/// deadline, timeout and transfer-mode setters are shared; the input
/// setters and `send` belong to each kind.
#[must_use = "a call does nothing until .send() is awaited"]
#[derive(Debug)]
pub struct CallBuilder<'c, K> {
    client: &'c mut KaasClient,
    callee: K,
    opts: CallOptions,
    transport: Transport,
}

/// A pending invocation of a kernel or control op; create via
/// [`KaasClient::call`], dispatch with [`send`](InvokeBuilder::send).
pub type InvokeBuilder<'c> = CallBuilder<'c, Target>;

/// A pending trigger of a registered workflow; create via
/// [`KaasClient::flow`], dispatch with [`send`](FlowBuilder::send).
pub type FlowBuilder<'c> = CallBuilder<'c, WorkflowHandle>;

impl<'c, K> CallBuilder<'c, K> {
    fn new(client: &'c mut KaasClient, callee: K) -> Self {
        CallBuilder {
            client,
            callee,
            opts: CallOptions::default(),
            transport: Transport::default(),
        }
    }

    /// Overrides the client's tenant identity for this call only.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.opts.tenant = Some(tenant.into().into());
        self
    }

    /// Gives the server a deadline (relative to send time) for
    /// *starting* device work; requests still undispatched past it are
    /// shed with [`InvokeError::DeadlineExceeded`]. A flow's steps each
    /// carry it, and one shed step aborts the flow.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.opts.deadline = Some(deadline);
        self
    }

    /// Bounds the network round trip: if no response arrives within
    /// `timeout` of the request hitting the wire, the call resolves with
    /// [`InvokeError::TimedOut`]. This is the client-side recovery path
    /// for lost frames (link faults): without it a dropped request or
    /// response would block the caller forever.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.transport.timeout = Some(timeout);
        self
    }

    /// Passes the input **out-of-band** through shared memory: only a
    /// small handle crosses the connection ("transferring larger data
    /// without copying over the network", §4.1), and the output comes
    /// back the same way. With a stored-object input the input is
    /// already just a content address, so this mode applies to the
    /// reply — pair them whenever the output is large. Requires
    /// [`KaasClient::with_shared_memory`].
    pub fn out_of_band(mut self) -> Self {
        self.transport.out_of_band = true;
        self
    }
}

impl<'c> InvokeBuilder<'c> {
    /// Sets the kernel input (default: [`Value::Unit`]).
    pub fn arg(mut self, input: Value) -> Self {
        self.opts.input = Input::Value(input);
        self
    }

    /// Sets the kernel input to a stored object by content address
    /// (see [`KaasClient::put`]): only the 24-byte ref crosses the
    /// wire, and — once the object is sealed and uploaded — repeat
    /// invocations on the same device skip the host→device copy
    /// entirely. Overrides any previous [`arg`](InvokeBuilder::arg).
    pub fn arg_ref(mut self, r: ObjectRef) -> Self {
        self.opts.input = Input::Object(r);
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
    pub fn send(self) -> impl Future<Output = Result<Invocation, InvokeError>> + 'c {
        self.send_as(|reply| {
            // Servers answer a call with a value, never a bare address.
            let Reply {
                output: DataRef::InBand(output),
                report,
                latency,
                ..
            } = reply
            else {
                return Err(InvokeError::BadHandle);
            };
            Ok(Invocation {
                output,
                report: report.ok_or(InvokeError::Disconnected)?,
                latency,
            })
        })
    }

    /// Runs the call, retrying under [`KaasClient::with_retry`], and
    /// returns what `finish` makes of its reply.
    async fn send_as<T>(
        mut self,
        finish: impl FnOnce(Reply) -> Result<T, InvokeError>,
    ) -> Result<T, InvokeError> {
        let retry = self.client.retry.as_ref();
        if let Some(budget) = retry.and_then(|r| r.budget.as_ref()) {
            budget.note_fresh();
        }
        let max_attempts = retry.map_or(1, |r| r.max_attempts);
        // Deterministic jitter key: the id this call's first attempt
        // will draw. Stable across attempts so backoff policies see one
        // request, not N.
        let retry_key = (self.client.id << 32) | (self.client.next_seq & 0xffff_ffff);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match self.attempt().await {
                Ok(reply) => return finish(reply),
                Err(e) if attempt < max_attempts && ClientRetryConfig::retryable(&e) => e,
                Err(e) => return Err(e),
            };
            let cfg = self
                .client
                .retry
                .as_ref()
                .expect("max_attempts > 1 only with a retry config");
            if let Some(budget) = &cfg.budget {
                if !budget.try_spend() {
                    self.client.metrics().retries_budget_exhausted.inc();
                    return Err(err);
                }
            }
            // Cooperative backpressure: wait at least what the server
            // asked for, even when our own backoff would retry sooner.
            let mut wait = cfg
                .backoff
                .map_or(Duration::ZERO, |b| b.backoff(attempt, retry_key));
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

    /// One attempt through the client's call path, with a fresh request
    /// id and a copy of the input.
    async fn attempt(&mut self) -> Result<Reply, InvokeError> {
        let mut root = RootSpan::open(self.client, "invoke");
        root.push_arg("kernel", self.callee.name());
        let opts = self.opts.clone();
        self.client
            .call_once(&self.callee, opts, self.transport, root)
            .await
            .map_err(|e| e.error)
    }
}

impl FlowBuilder<'_> {
    /// Sets the trigger input fed to the flow's source steps (default:
    /// [`Value::Unit`]).
    pub fn input(mut self, input: Value) -> Self {
        self.opts.input = Input::Value(input);
        self
    }

    /// Feeds the flow a stored object by content address (see
    /// [`KaasClient::put`]): only the 24-byte ref crosses the wire, and
    /// the source steps chain off the resident object like any
    /// intermediate. Overrides any previous
    /// [`input`](FlowBuilder::input).
    pub fn input_ref(mut self, r: ObjectRef) -> Self {
        self.opts.input = Input::Object(r);
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
        let reply = self.trigger(false).await?;
        let DataRef::InBand(output) = reply.output else {
            return Err(InvokeError::BadHandle.into());
        };
        Ok(WorkflowRun {
            output,
            report: *reply.flow.ok_or(InvokeError::Disconnected)?,
            latency: reply.latency,
        })
    }

    /// Triggers the run but leaves the final output server-resident,
    /// returning its content address plus the per-step report. The next
    /// hop — another flow via [`FlowBuilder::input_ref`], a
    /// [`get`](KaasClient::get) — chains off the ref without the value
    /// ever crossing this wire.
    ///
    /// # Errors
    ///
    /// As [`send`](FlowBuilder::send).
    pub async fn send_ref(self) -> Result<(ObjectRef, WorkflowReport), FlowError> {
        let reply = self.trigger(true).await?;
        let DataRef::Object(r) = reply.output else {
            return Err(InvokeError::BadHandle.into());
        };
        Ok((r, *reply.flow.ok_or(InvokeError::Disconnected)?))
    }

    /// Sends a [`Control::FlowRun`] call with the trigger input as its
    /// payload, fire-once: no client retry. A ref input travels as
    /// [`DataRef::Object`], as [`InvokeBuilder::arg_ref`]'s does.
    async fn trigger(self, reply_ref: bool) -> Result<Reply, FlowError> {
        let CallBuilder {
            client,
            callee: flow,
            opts,
            transport,
        } = self;
        let mut root = RootSpan::open(client, "flow");
        root.push_arg("flow", flow.id());
        root.push_arg("name", flow.name());
        let target = Target::Control(Box::new(Control::FlowRun {
            flow: flow.id(),
            reply_ref,
        }));
        client.call_once(&target, opts, transport, root).await
    }
}

/// One member of a batched invocation (see [`KaasClient::batch`]):
/// kernel name, input, and per-member overrides. Built standalone so a
/// batch can be assembled before the client is borrowed. The name is
/// borrowed until [`send`](BatchBuilder::send) interns it.
#[derive(Debug, Clone)]
pub struct BatchCall<'k> {
    kernel: &'k str,
    opts: CallOptions,
}

impl<'k> BatchCall<'k> {
    /// Starts a batch member invoking `kernel` (input defaults to
    /// [`Value::Unit`]).
    pub fn new(kernel: &'k str) -> Self {
        BatchCall {
            kernel,
            opts: CallOptions::default(),
        }
    }

    /// Sets the member's in-band input.
    pub fn arg(mut self, input: Value) -> Self {
        self.opts.input = Input::Value(input);
        self
    }

    /// Sets the member's input to a stored object by content address
    /// (overrides any previous [`arg`](BatchCall::arg)).
    pub fn arg_ref(mut self, r: ObjectRef) -> Self {
        self.opts.input = Input::Object(r);
        self
    }

    /// Overrides the client's tenant identity for this member.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.opts.tenant = Some(tenant.into().into());
        self
    }

    /// Gives this member a server-side start deadline (relative to
    /// send time), like [`CallBuilder::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.opts.deadline = Some(deadline);
        self
    }
}

/// A batch of invocations under construction; create via
/// [`KaasClient::batch`], dispatch with [`send`](BatchBuilder::send).
///
/// All members ride **one** request frame: one frame header plus a small
/// per-member sub-header (see [`RequestFrame::wire_bytes`]), and
/// one serialization pass over the concatenated in-band payloads — the
/// §4.1 per-call wire costs are paid once per batch instead of once per
/// call. Replies coalesce symmetrically. Server-side, members execute
/// concurrently and independently: retry, circuit breaking, and
/// admission all see ordinary individual invocations.
#[must_use = "a batch does nothing until .send() is awaited"]
#[derive(Debug)]
pub struct BatchBuilder<'c, 'k> {
    client: &'c mut KaasClient,
    calls: Vec<BatchCall<'k>>,
    timeout: Option<Duration>,
}

impl<'k> BatchBuilder<'_, 'k> {
    /// Appends one member.
    pub fn call(mut self, call: BatchCall<'k>) -> Self {
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
            timeout: within,
        } = self;
        if calls.is_empty() {
            return Ok(Vec::new());
        }
        let n = calls.len();
        let start = now();
        let mut root = RootSpan::open(client, "batch");
        root.push_arg("members", n);

        // One serialization pass covers every in-band member payload
        // (object refs travel as part of the frame itself).
        let t0 = now();
        let in_band: u64 = calls
            .iter()
            .filter_map(|c| match &c.opts.input {
                Input::Value(v) => Some(v.wire_bytes()),
                Input::Object(_) => None,
            })
            .sum();
        if in_band > 0 {
            sleep(client.serialization.time(in_band)).await;
        }
        root.step("serialize", t0);

        // Members carry no span parent: they execute concurrently
        // server-side, and concurrent siblings under one parent would
        // break the trace tiling contract. The batch records its own
        // client-side span tree instead.
        let reqs: Vec<Request> = calls
            .into_iter()
            .map(|c| {
                let data = match c.opts.input {
                    Input::Object(r) => DataRef::Object(r),
                    Input::Value(v) => DataRef::InBand(v),
                };
                let id = client.next_id();
                let target = Target::Kernel(client.intern(c.kernel));
                client.request(id, target, data, c.opts.tenant, c.opts.deadline)
            })
            .collect();
        // The coalesced reply is correlated by the first member's id.
        let first = reqs[0].id;

        let t1 = now();
        let resps = client
            .roundtrip(
                within,
                root.id(),
                || RequestFrame::Batch(reqs),
                |reply| match reply {
                    ResponseFrame::Batch(resps) if resps.first().is_some_and(|r| r.id == first) => {
                        Some(resps)
                    }
                    _ => None,
                },
            )
            .await;
        let resps = match resps {
            Ok(resps) => resps,
            // The frame (or its reply) is lost past the deadline: the
            // members failed individually.
            Err(InvokeError::TimedOut) => {
                root.step("roundtrip", t1);
                root.finish();
                return Ok((0..n).map(|_| Err(InvokeError::TimedOut)).collect());
            }
            Err(e) => {
                root.finish();
                return Err(e);
            }
        };
        root.step("roundtrip", t1);

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
        root.step("deserialize", t2);

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
        root.finish();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every client loop holds one `send()` future for as long as its
    /// call is out, and a batch holds its members until the frame is
    /// built.
    #[test]
    fn call_futures_stay_small() {
        let mut sim = kaas_simtime::Simulation::new();
        let (single, batch) = sim.block_on(async {
            let net = Network::new();
            let _listener = net.listen("kaas").expect("fresh network");
            let mut client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
                .await
                .expect("kaas listens");
            let single = std::mem::size_of_val(&client.call("mci").arg(Value::U64(1)).send());
            let batch = std::mem::size_of_val(&client.batch().call(BatchCall::new("mci")).send());
            (single, batch)
        });
        let member = std::mem::size_of::<BatchCall>();
        assert!(single <= 2_304, "invocation send() future is {single} B");
        assert!(batch <= 888, "batch send() future is {batch} B");
        assert!(member <= 120, "BatchCall is {member} B");
    }
}

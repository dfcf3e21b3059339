//! The client ↔ KaaS-server wire protocol (§4.1 of the paper): TCP
//! request/response with in-band (serialized) or out-of-band
//! (shared-memory) data transfer.

use std::rc::Rc;
use std::time::Duration;

use kaas_guest::GuestProgram;
use kaas_kernels::Value;
use kaas_net::{ShmHandle, HANDLE_WIRE_BYTES};
use kaas_simtime::{SimTime, SpanId};

use crate::dataplane::{ObjectRef, OBJECT_REF_WIRE_BYTES};
use crate::metrics::InvocationReport;
use crate::workflow::{Workflow, WorkflowReport};

/// How a payload travels between client and kernel.
#[derive(Debug)]
pub enum DataRef {
    /// Serialized onto the connection.
    InBand(Value),
    /// A pointer into a host shared-memory region.
    OutOfBand(ShmHandle<Value>),
    /// A content address into the server's object store (the data
    /// plane): the payload was [`put`](crate::KaasClient::put) earlier
    /// and only its 24-byte ref crosses the wire.
    Object(ObjectRef),
}

impl DataRef {
    /// On-wire size of this reference (payload bytes in-band, a fixed
    /// small handle out-of-band — the entire point of §4.1's out-of-band
    /// mode — and a fixed content address for stored objects).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            DataRef::InBand(v) => v.wire_bytes(),
            DataRef::OutOfBand(_) => HANDLE_WIRE_BYTES,
            DataRef::Object(_) => OBJECT_REF_WIRE_BYTES,
        }
    }
}

/// A call's input before it is staged, or a control op's payload after
/// it is unpacked: a value, or a stored object's address.
#[derive(Debug, Clone)]
pub(crate) enum Input {
    Value(Value),
    Object(ObjectRef),
}

impl Default for Input {
    /// [`Value::Unit`], the input of an argument-less call.
    fn default() -> Self {
        Input::Value(Value::Unit)
    }
}

/// Fixed protocol framing overhead per message.
pub(crate) const FRAME_BYTES: u64 = 128;

/// A server-side operation outside the paper's kernel namespace: the
/// data plane, guest code and workflows. Each op is served
/// by one control handler that bypasses admission and placement (no
/// device work happens) but pays the same transport costs as a kernel
/// invocation.
///
/// An op carries its arguments as typed fields; they ride in the
/// request frame, as an [`ObjectRef`] input does, and are never
/// serialized (see [`Request::wire_bytes`]). The request's
/// [`data`](Request::data) carries only a real payload: the value to
/// store, or a flow's trigger input. Every other op sends
/// [`Value::Unit`], as an argument-less kernel call does.
#[derive(Debug, Clone, PartialEq)]
pub enum Control {
    /// Stores the payload in the object store, answering with its
    /// [`ObjectRef`] ([`DataRef::Object`]).
    DataPut,
    /// Fetches a stored object back by its ref.
    DataGet(ObjectRef),
    /// Marks a stored object immutable, which makes it cacheable on
    /// devices.
    DataSeal(ObjectRef),
    /// Protects a stored object from device eviction.
    DataPin(ObjectRef),
    /// Verifies and registers a guest program, answering with its
    /// versioned `tenant/name@vN` identity.
    CodeRegister {
        /// The registering tenant's identity.
        tenant: String,
        /// The program to verify and register.
        program: GuestProgram,
    },
    /// Lists a tenant's live guest kernel versions.
    CodeList(String),
    /// Tombstones a guest kernel: one version (`tenant/name@vN`) or
    /// every live one (`tenant/name`).
    CodeRemove(String),
    /// Registers a workflow DAG, answering with its id.
    FlowRegister(Workflow),
    /// Triggers one server-side run of a registered workflow, fed the
    /// request's payload.
    FlowRun {
        /// The id the flow's registration answered.
        flow: u64,
        /// Answer with the final output's [`ObjectRef`] instead of the
        /// value ([`FlowBuilder::send_ref`](crate::FlowBuilder::send_ref)).
        reply_ref: bool,
    },
}

impl Control {
    /// The op's stable label: the reserved name it travelled under
    /// before requests were typed. Its length is part of the op's wire
    /// cost (see [`Request::wire_bytes`]), and it names the op in spans
    /// and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Control::DataPut => "_kaas/data/put",
            Control::DataGet(_) => "_kaas/data/get",
            Control::DataSeal(_) => "_kaas/data/seal",
            Control::DataPin(_) => "_kaas/data/pin",
            Control::CodeRegister { .. } => "_kaas/code/register",
            Control::CodeList(_) => "_kaas/code/list",
            Control::CodeRemove(_) => "_kaas/code/remove",
            Control::FlowRegister(_) => "_kaas/flow/register",
            Control::FlowRun { .. } => "_kaas/flow/run",
        }
    }

    /// On-wire size of the op's typed arguments. A ref is 24 bytes (as
    /// a [`DataRef::Object`] input is), text its length, and a flow
    /// trigger's id and reply mode a word each. A program is its name, a
    /// 64-byte header (a word each for the device class, fuel limit,
    /// both work figures, output hint, globals with the snapshot flag,
    /// and the two sequence lengths) and 16 bytes per instruction
    /// (opcode and argument words). A workflow is its name plus, per
    /// step, a length word, the kernel name and 16 bytes per edge
    /// (producer index and transfer mode).
    pub(crate) fn arg_bytes(&self) -> u64 {
        match self {
            Control::DataPut => 0,
            Control::DataGet(_) | Control::DataSeal(_) | Control::DataPin(_) => {
                OBJECT_REF_WIRE_BYTES
            }
            Control::CodeRegister { tenant, program } => {
                let ops = (program.init.len() + program.body.len()) as u64;
                (tenant.len() + program.name.len()) as u64 + 64 + 16 * ops
            }
            Control::CodeList(text) | Control::CodeRemove(text) => text.len() as u64,
            Control::FlowRegister(wf) => {
                let steps = wf
                    .steps()
                    .iter()
                    .map(|s| 8 + s.kernel().len() as u64 + 16 * s.inputs().len() as u64);
                wf.name().len() as u64 + steps.sum::<u64>()
            }
            Control::FlowRun { .. } => 16,
        }
    }
}

/// What a [`Request`] asks the server to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// A registered kernel (compiled-in, or a guest `tenant/name[@vN]`).
    /// Shared: a client interns each name once, and every request and
    /// report naming the kernel holds the same string.
    Kernel(Rc<str>),
    /// A control operation, boxed so its arguments keep the request
    /// small.
    Control(Box<Control>),
}

impl Target {
    /// The kernel name, or the control op's [`name`](Control::name).
    pub fn name(&self) -> &str {
        match self {
            Target::Kernel(name) => name,
            Target::Control(op) => op.name(),
        }
    }

    /// On-wire size of the target: the name, plus a control op's
    /// typed arguments.
    pub(crate) fn wire_bytes(&self) -> u64 {
        let args = match self {
            Target::Kernel(_) => 0,
            Target::Control(op) => op.arg_bytes(),
        };
        self.name().len() as u64 + args
    }
}

/// A kernel invocation or control request.
#[derive(Debug)]
pub struct Request {
    /// Client-chosen correlation id.
    pub id: u64,
    /// The kernel or control operation to run.
    pub target: Target,
    /// Input payload: a kernel's input, a stored value or a flow's
    /// trigger input ([`Value::Unit`] for other control ops).
    pub data: DataRef,
    /// Absolute virtual-time deadline for *starting* device work: the
    /// server sheds the request with [`InvokeError::DeadlineExceeded`]
    /// if it is still undispatched past this instant.
    pub deadline: Option<SimTime>,
    /// Tenant and trace context, boxed because most requests carry
    /// neither: `None` when both are unset. Read it through
    /// [`tenant`](Request::tenant) and [`span`](Request::span).
    pub context: Option<Box<RequestContext>>,
    /// The client wants the *output* returned through shared memory
    /// even when the input did not travel that way — the common case
    /// for [`DataRef::Object`] requests, where the input is a 24-byte
    /// content address but the result can be arbitrarily large.
    /// Out-of-band inputs always get out-of-band replies regardless.
    pub reply_out_of_band: bool,
    /// Internal flow-executor handoff: the output is destined for the
    /// server's own object store, not the wire, so reply shaping
    /// (serialization / shared memory) is skipped entirely. Never set
    /// by clients.
    pub reply_to_store: bool,
}

impl Request {
    /// Total on-wire size: the frame, the target's name, a control op's
    /// typed arguments (a ref 24 bytes, text its length, a flow trigger
    /// 16 bytes, a program or workflow a per-field sum) and the payload.
    pub fn wire_bytes(&self) -> u64 {
        FRAME_BYTES + self.target.wire_bytes() + self.data.wire_bytes()
    }

    /// The tenant identity, if the request carries one.
    pub fn tenant(&self) -> Option<&str> {
        self.context.as_ref()?.tenant.as_deref()
    }

    /// The span the server parents its own spans under, if traced.
    pub fn span(&self) -> Option<SpanId> {
        self.context.as_ref()?.span
    }

    /// Sets the trace context, keeping the tenant.
    pub fn set_span(&mut self, span: Option<SpanId>) {
        match &mut self.context {
            Some(context) => context.span = span,
            None => self.context = RequestContext::boxed(None, span),
        }
    }
}

/// The rarely set part of a [`Request`], kept out of line so an
/// untraced, tenant-less request stays small.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestContext {
    /// Tenant identity for fairness accounting (§3.1: "fairness, data
    /// isolation, scheduling, and service-level agreements").
    pub tenant: Option<Rc<str>>,
    /// Client-side trace context: the span the server should parent its
    /// own spans under (the client's `roundtrip` span).
    pub span: Option<SpanId>,
}

impl RequestContext {
    /// The boxed context holding `tenant` and `span`, or `None` when
    /// neither is set.
    pub fn boxed(tenant: Option<Rc<str>>, span: Option<SpanId>) -> Option<Box<RequestContext>> {
        (tenant.is_some() || span.is_some()).then(|| Box::new(RequestContext { tenant, span }))
    }
}

/// Invocation failures reported to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeError {
    /// No kernel with the requested name is registered.
    UnknownKernel(String),
    /// The kernel rejected its input.
    BadInput(String),
    /// No device of the kernel's class exists in this deployment.
    NoDevice(String),
    /// The runner serving the request died.
    RunnerFailed(String),
    /// The server connection closed before a response arrived.
    Disconnected,
    /// An out-of-band handle did not resolve.
    BadHandle,
    /// The server shed the request: the admission limiter or a bounded
    /// shard queue was already at its ceiling.
    /// `retry_after` is the server's deterministic estimate of when the
    /// backlog will have drained — cooperative backpressure that retry
    /// policies must honor (wait *at least* this long before retrying).
    Overloaded {
        /// Suggested minimum wait before a retry, when the server can
        /// estimate its own drain time. `None` preserves the historic
        /// uninformative shed.
        retry_after: Option<Duration>,
    },
    /// The server shed the request: its [`Request::deadline`] passed
    /// before device work could start.
    DeadlineExceeded,
    /// Every device that could serve the kernel has its circuit breaker
    /// open (recent failures tripped it); the request was rejected fast
    /// rather than queued onto failing hardware.
    CircuitOpen(String),
    /// The client-side response timeout elapsed (e.g. the request or
    /// response frame was lost on the wire).
    TimedOut,
    /// The target device could not hold the invocation's referenced
    /// object: its memory manager found nothing evictable (everything
    /// pinned or in flight) or the object exceeds device capacity.
    DeviceOom(String),
    /// A flow trigger named a workflow id this server never issued (a
    /// forged [`WorkflowHandle`](crate::WorkflowHandle), or one that
    /// outlived the server that minted it).
    UnknownFlow(String),
    /// A `tenant/name` invocation named a guest kernel (or version) that
    /// is not registered — distinct from [`UnknownKernel`] so clients
    /// can tell a typo'd built-in from a missing registration.
    ///
    /// [`UnknownKernel`]: InvokeError::UnknownKernel
    UnknownGuestKernel(String),
    /// A guest kernel trapped (division by zero, out-of-bounds access,
    /// type confusion). Deterministic: the same input traps identically,
    /// so retries are pointless and the error is returned immediately.
    GuestTrap(String),
    /// A guest kernel exhausted its registered fuel budget mid-run.
    FuelExhausted(String),
    /// The registration-time verifier rejected a guest program: a
    /// reachable instruction provably traps (type mismatch, stack
    /// underflow, or a path that falls off the end without `return`).
    /// The payload carries the verifier's file-free diagnostics
    /// (`seq@pc: [rule] message`, `;`-joined).
    VerifyRejected(String),
}

impl InvokeError {
    /// Every stable [`kind`](InvokeError::kind) label, in declaration
    /// order — lets tests and dashboards enumerate the error space
    /// without constructing each variant.
    pub const KINDS: [&'static str; 16] = [
        "unknown-kernel",
        "bad-input",
        "no-device",
        "runner-failed",
        "disconnected",
        "bad-handle",
        "overloaded",
        "deadline-exceeded",
        "circuit-open",
        "timed-out",
        "device-oom",
        "unknown-flow",
        "unknown-guest-kernel",
        "guest-trap",
        "fuel-exhausted",
        "verify-rejected",
    ];

    /// Short kebab-case name of the error variant (stable across
    /// payloads; used as a metrics label, e.g. `errors.overloaded`).
    pub fn kind(&self) -> &'static str {
        match self {
            InvokeError::UnknownKernel(_) => "unknown-kernel",
            InvokeError::BadInput(_) => "bad-input",
            InvokeError::NoDevice(_) => "no-device",
            InvokeError::RunnerFailed(_) => "runner-failed",
            InvokeError::Disconnected => "disconnected",
            InvokeError::BadHandle => "bad-handle",
            InvokeError::Overloaded { .. } => "overloaded",
            InvokeError::DeadlineExceeded => "deadline-exceeded",
            InvokeError::CircuitOpen(_) => "circuit-open",
            InvokeError::TimedOut => "timed-out",
            InvokeError::DeviceOom(_) => "device-oom",
            InvokeError::UnknownFlow(_) => "unknown-flow",
            InvokeError::UnknownGuestKernel(_) => "unknown-guest-kernel",
            InvokeError::GuestTrap(_) => "guest-trap",
            InvokeError::FuelExhausted(_) => "fuel-exhausted",
            InvokeError::VerifyRejected(_) => "verify-rejected",
        }
    }
}

impl std::fmt::Display for InvokeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvokeError::UnknownKernel(k) => write!(f, "unknown kernel '{k}'"),
            InvokeError::BadInput(m) => write!(f, "bad input: {m}"),
            InvokeError::NoDevice(c) => write!(f, "no {c} device available"),
            InvokeError::RunnerFailed(m) => write!(f, "task runner failed: {m}"),
            InvokeError::Disconnected => write!(f, "server disconnected"),
            InvokeError::BadHandle => write!(f, "shared-memory handle did not resolve"),
            InvokeError::Overloaded { retry_after } => match retry_after {
                Some(d) => write!(f, "server overloaded; request shed (retry after {d:?})"),
                None => write!(f, "server overloaded; request shed"),
            },
            InvokeError::DeadlineExceeded => {
                write!(f, "deadline passed before dispatch; request shed")
            }
            InvokeError::CircuitOpen(c) => {
                write!(f, "circuit breaker open for every {c} device")
            }
            InvokeError::TimedOut => write!(f, "response timed out"),
            InvokeError::DeviceOom(m) => write!(f, "device out of memory: {m}"),
            InvokeError::UnknownFlow(id) => write!(f, "unknown workflow '{id}'"),
            InvokeError::UnknownGuestKernel(k) => {
                write!(f, "unknown guest kernel '{k}'")
            }
            InvokeError::GuestTrap(m) => write!(f, "guest kernel trapped: {m}"),
            InvokeError::FuelExhausted(m) => {
                write!(f, "guest kernel out of fuel: {m}")
            }
            InvokeError::VerifyRejected(m) => {
                write!(f, "guest program rejected by verifier: {m}")
            }
        }
    }
}

impl std::error::Error for InvokeError {}

/// A kernel invocation response.
#[derive(Debug)]
pub struct Response {
    /// Correlation id copied from the request.
    pub id: u64,
    /// Output payload or failure.
    pub result: Result<DataRef, InvokeError>,
    /// Timing breakdown (present even for failures where possible).
    pub report: Option<InvocationReport>,
    /// Per-step breakdown of a flow trigger (responses to
    /// [`Control::FlowRun`] only; present even for failed flows,
    /// carrying the partial results). Boxed: no other reply sets it.
    pub flow: Option<Box<WorkflowReport>>,
}

impl Response {
    /// Total on-wire size.
    pub fn wire_bytes(&self) -> u64 {
        FRAME_BYTES
            + match &self.result {
                Ok(d) => d.wire_bytes(),
                Err(_) => 64,
            }
    }
}

/// Per-member framing cost inside a batched frame: a correlation id and
/// a length prefix, far smaller than a full [`FRAME_BYTES`] header.
pub(crate) const BATCH_MEMBER_BYTES: u64 = 16;

/// The request-direction wire envelope: a single invocation, or a
/// coalesced batch of invocations from one client that share one frame
/// header (and thus one per-message link overhead and one serialization
/// pass — the §4.1 per-call costs are paid once per *frame*).
#[derive(Debug)]
pub enum RequestFrame {
    /// One request, framed exactly as before batching existed.
    One(Request),
    /// Several requests riding one frame header.
    Batch(Vec<Request>),
}

impl RequestFrame {
    /// Total on-wire size: a batch pays one 128-byte frame header plus
    /// a 16-byte sub-header (correlation id and length prefix) per
    /// member instead of a full frame header each.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            RequestFrame::One(r) => r.wire_bytes(),
            RequestFrame::Batch(rs) => {
                FRAME_BYTES
                    + rs.iter()
                        .map(|r| r.wire_bytes() - FRAME_BYTES + BATCH_MEMBER_BYTES)
                        .sum::<u64>()
            }
        }
    }
}

/// The response-direction wire envelope, symmetric with
/// [`RequestFrame`]: batched requests get one coalesced reply frame.
#[derive(Debug)]
pub enum ResponseFrame {
    /// One response.
    One(Response),
    /// The coalesced replies to a [`RequestFrame::Batch`], in request
    /// order.
    Batch(Vec<Response>),
}

impl ResponseFrame {
    /// Total on-wire size (same amortization as the request direction).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            ResponseFrame::One(r) => r.wire_bytes(),
            ResponseFrame::Batch(rs) => {
                FRAME_BYTES
                    + rs.iter()
                        .map(|r| r.wire_bytes() - FRAME_BYTES + BATCH_MEMBER_BYTES)
                        .sum::<u64>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_band_wire_size_includes_payload() {
        let req = request(
            Target::Kernel("matmul".into()),
            DataRef::InBand(Value::F64s(vec![0.0; 1000])),
        );
        assert!(req.wire_bytes() > 8000);
    }

    fn request(target: Target, data: DataRef) -> Request {
        Request {
            id: 1,
            target,
            data,
            deadline: None,
            context: None,
            reply_out_of_band: false,
            reply_to_store: false,
        }
    }

    #[test]
    fn control_ops_cost_their_historical_name_on_the_wire() {
        // Each op's request bytes before its arguments were typed (a
        // tagged `Value` list, serialized in-band) and now: frame, the
        // op's historical reserved name, its typed arguments, and the
        // payload (`Value::Unit`, 8 B, when the op has none). Virtual
        // time depends on these, so they are pinned, and typing must
        // never have made a request larger.
        use crate::workflow::Workflow;
        use kaas_accel::DeviceClass;
        use kaas_guest::Op;

        let r = ObjectRef { hash: 1, bytes: 2 };
        let program = GuestProgram::new("echo", DeviceClass::Cpu)
            .with_fuel(100)
            .with_body(vec![Op::Input, Op::Return]);
        let mut b = Workflow::builder("diamond");
        let src = b.step("pre");
        let left = b.then("ga", src);
        let right = b.then("ga", src.inline());
        b.join("blend", [left.into(), right.into()]);
        let diamond = b.build().unwrap();
        let unit = || DataRef::InBand(Value::Unit);
        let run = Control::FlowRun {
            flow: 1,
            reply_ref: false,
        };
        #[rustfmt::skip]
        let table: [(Control, DataRef, u64, u64); 10] = [
            // (op, payload, parent bytes, bytes now)
            (Control::DataPut, DataRef::InBand(Value::F64s(vec![0.0; 4])), 190, 190),
            (Control::DataGet(r), unit(), 214, 128 + 14 + 24 + 8),
            (Control::DataSeal(r), unit(), 215, 128 + 15 + 24 + 8),
            (Control::DataPin(r), unit(), 214, 128 + 14 + 24 + 8),
            // Tenant 4 B, program 64 + name 4 + 2 ops × 16.
            (Control::CodeRegister { tenant: "acme".into(), program }, unit(), 509, 128 + 19 + 4 + 100 + 8),
            (Control::CodeList("acme".into()), unit(), 163, 128 + 15 + 4 + 8),
            (Control::CodeRemove("acme/echo@v1".into()), unit(), 173, 128 + 17 + 12 + 8),
            // Name 7 B, steps 8 + kernel + 16 per edge: 11 + 26 + 26 + 45.
            (Control::FlowRegister(diamond), unit(), 639, 128 + 19 + 115 + 8),
            (run.clone(), DataRef::InBand(Value::U64(8)), 235, 128 + 14 + 16 + 16),
            (run, DataRef::Object(r), 291, 128 + 14 + 16 + 24),
        ];
        for (op, data, parent, now) in table {
            let label = format!("{op:?}");
            let req = request(Target::Control(Box::new(op)), data);
            assert_eq!(req.wire_bytes(), now, "{label}");
            assert!(now <= parent, "{label}: {now} B > {parent} B");
        }
        // A put answers with the ref itself, not its 72-byte tagged
        // encoding: 200 B before, 152 B now.
        let reply = Response {
            id: 1,
            result: Ok(DataRef::Object(r)),
            report: None,
            flow: None,
        };
        assert_eq!(reply.wire_bytes(), 128 + 24);
    }

    /// Frames move by value from the client through the wire to the
    /// server and back: their sizes are what each hop copies.
    #[test]
    fn frames_stay_small() {
        use std::mem::size_of;
        assert_eq!(size_of::<Request>(), 104);
        assert_eq!(size_of::<Response>(), 168);
        assert_eq!(size_of::<InvocationReport>(), 104);
        assert_eq!(size_of::<kaas_net::Frame<RequestFrame>>(), 112);
    }

    /// Every request and reply in transmission holds one of these.
    #[test]
    fn wire_send_future_stays_small() {
        let (tx, _rx) = kaas_net::wire::<RequestFrame>(kaas_net::LinkProfile::loopback());
        let send = tx.send(kaas_net::Frame::new(RequestFrame::Batch(Vec::new()), 0));
        let size = std::mem::size_of_val(&send);
        assert!(size <= 176, "WireSender::send future is {size} B");
    }

    #[test]
    fn error_kinds_are_stable_labels() {
        assert_eq!(
            InvokeError::Overloaded { retry_after: None }.kind(),
            "overloaded"
        );
        assert_eq!(
            InvokeError::Overloaded {
                retry_after: Some(Duration::from_millis(3))
            }
            .kind(),
            "overloaded",
            "the retry hint must not change the stable label"
        );
        assert_eq!(InvokeError::DeadlineExceeded.kind(), "deadline-exceeded");
        assert_eq!(
            InvokeError::UnknownKernel("x".into()).kind(),
            "unknown-kernel"
        );
        assert_eq!(
            InvokeError::CircuitOpen("GPU".into()).kind(),
            "circuit-open"
        );
        assert_eq!(InvokeError::TimedOut.kind(), "timed-out");
    }

    #[test]
    fn kinds_table_covers_every_variant() {
        let variants = [
            InvokeError::UnknownKernel(String::new()),
            InvokeError::BadInput(String::new()),
            InvokeError::NoDevice(String::new()),
            InvokeError::RunnerFailed(String::new()),
            InvokeError::Disconnected,
            InvokeError::BadHandle,
            InvokeError::Overloaded { retry_after: None },
            InvokeError::DeadlineExceeded,
            InvokeError::CircuitOpen(String::new()),
            InvokeError::TimedOut,
            InvokeError::DeviceOom(String::new()),
            InvokeError::UnknownFlow(String::new()),
            InvokeError::UnknownGuestKernel(String::new()),
            InvokeError::GuestTrap(String::new()),
            InvokeError::FuelExhausted(String::new()),
            InvokeError::VerifyRejected(String::new()),
        ];
        assert_eq!(variants.len(), InvokeError::KINDS.len());
        for (v, label) in variants.iter().zip(InvokeError::KINDS) {
            assert_eq!(v.kind(), label, "table order matches declaration order");
        }
    }

    #[test]
    fn out_of_band_wire_size_is_tiny() {
        // A handle's wire size is constant regardless of payload size.
        assert_eq!(
            DataRef::OutOfBand(dummy_handle()).wire_bytes(),
            HANDLE_WIRE_BYTES
        );
    }

    fn dummy_handle() -> ShmHandle<Value> {
        // Build a handle through the public API.
        let mut sim = kaas_simtime::Simulation::new();
        sim.block_on(async {
            kaas_net::SharedMemory::host()
                .put(Value::U64(1), 1_000_000)
                .await
        })
    }

    #[test]
    fn object_ref_wire_size_is_constant() {
        let r = ObjectRef {
            hash: 1,
            bytes: 1_000_000,
        };
        assert_eq!(DataRef::Object(r).wire_bytes(), OBJECT_REF_WIRE_BYTES);
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(InvokeError::UnknownKernel("x".into())
            .to_string()
            .contains('x'));
        assert!(InvokeError::Disconnected
            .to_string()
            .contains("disconnected"));
    }
}

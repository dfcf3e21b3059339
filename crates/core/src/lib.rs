//! # kaas-core — the Kernel-as-a-Service runtime
//!
//! The paper's primary contribution (§3–§4): a serverless programming
//! model for heterogeneous hardware accelerators.
//!
//! * Developers [`register`](KernelRegistry::register) kernels.
//! * A [`KaasServer`] wraps them in task runners on a shared pool of
//!   devices, cold-starting runners on demand and keeping them warm.
//! * Applications [`call`](KaasClient::call) kernels over the network
//!   with in-band or out-of-band data transfer, via a builder-style
//!   invoke API ([`InvokeBuilder`]).
//! * The [`dataplane`] keeps content-addressed objects
//!   ([`KaasClient::put`] / [`InvokeBuilder::arg_ref`]) resident in
//!   device memory across invocations, eliminating repeat host→device
//!   copies and evicting LRU-first under memory pressure.
//! * [`baseline`] provides the time-sharing / space-sharing / CPU-only
//!   delivery models the paper compares against.
//!
//! ## The control plane
//!
//! [`KaasServer`] is a thin orchestrator over three modules:
//!
//! | Module | Responsibility | Policy hook |
//! |---|---|---|
//! | [`admission`] | tenant quotas, overload shedding | [`AdmissionConfig`] |
//! | [`scheduler`] | route an invocation to a runner slot | [`Scheduler`] enum |
//! | [`pool`] | runner lifecycle: spawn, warm lookup, idle reaping | mechanism only |
//!
//! Per invocation: admission ⇒ dispatch overhead ⇒ the scheduler's
//! pick, walking the kernel's slot list in place ⇒ on decline, the
//! paper's §5.5 rule ([`ServerConfig::autoscale`]) spawns a runner once
//! in-flight work fills every runner (bounded by physical devices) ⇒
//! execute, retrying on runner failure. Scale-down is the pool's idle reaper
//! ([`ServerConfig::idle_timeout`]).
//!
//! Schedulers: [`FillFirst`], [`RoundRobin`], [`LeastLoaded`],
//! [`WarmFirst`], set through [`ServerConfig::with_scheduler`]; see the
//! [`scheduler`] module docs.
//!
//! ```
//! use kaas_core::{baseline, KernelRegistry};
//! use kaas_kernels::{MatMul, Value};
//! use kaas_accel::{CpuDevice, CpuProfile, DeviceId};
//! use kaas_simtime::Simulation;
//!
//! let mut sim = Simulation::new();
//! let report = sim.block_on(async {
//!     let cpu = CpuDevice::new(DeviceId(0), CpuProfile::xeon_e5_2698v4_dual());
//!     baseline::run_cpu_only(&cpu, &MatMul::new(), &Value::U64(512))
//!         .await
//!         .unwrap()
//! });
//! assert!(report.total > report.kernel_time);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod baseline;
mod client;
mod config;
mod control;
pub mod dataplane;
mod dispatch;
pub mod fault;
mod flow;
mod fusion;
mod guest;
mod metrics;
pub mod pool;
mod protocol;
mod registry;
pub mod resilience;
mod runner;
#[cfg(feature = "sim-sanitizer")]
mod sanitize;
pub mod scheduler;
mod server;
pub mod trace;
mod workflow;

pub use admission::{AdmissionConfig, AimdConfig};
pub use baseline::{run_cpu_only, run_space_sharing, run_time_sharing, BaselineReport};
pub use client::{
    BatchBuilder, BatchCall, CallBuilder, ClientRetryConfig, FlowBuilder, Invocation,
    InvokeBuilder, KaasClient,
};
pub use config::{DispatchMode, ServerConfig, ShardConfig};
pub use dataplane::{content_hash, DataPlane, ObjectRef, ObjectStore};
pub use fault::{AppliedFault, Fault, FaultEvent, FaultInjector, FaultLog, FaultPlan, StormConfig};
pub use fusion::{fuse, FusedKernel, FusionError};
pub use metrics::histogram::{Histogram, HistogramSummary};
pub use metrics::registry::MetricsRegistry;
pub use metrics::{percentile, InvocationReport, RunnerId};
pub use pool::{RunnerPool, RunnerSlot};
pub use protocol::{
    Control, DataRef, InvokeError, Request, RequestContext, RequestFrame, Response, ResponseFrame,
    Target,
};
pub use registry::{KernelRegistry, RegistryError};
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, EvictionConfig, ExponentialBackoff,
    FallbackConfig, RetryBudget, RetryBudgetConfig, RetryConfig,
};
pub use runner::RunnerConfig;
pub use scheduler::{FillFirst, LeastLoaded, RoundRobin, Scheduler, WarmFirst};
pub use server::{KaasServer, KernelStats, ServerSnapshot};
pub use trace::{Span, SpanId, SpanSink};
pub use workflow::{
    Edge, EdgeTransfer, FlowError, StepId, StepReport, Workflow, WorkflowBuilder, WorkflowError,
    WorkflowHandle, WorkflowReport, WorkflowRun,
};

/// The network type used between KaaS clients and servers. The wire
/// carries framed envelopes ([`RequestFrame`] / [`ResponseFrame`]) so a
/// client's coalesced batch rides one frame header in each direction.
pub type KaasNetwork = kaas_net::Network<RequestFrame, ResponseFrame>;

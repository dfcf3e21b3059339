//! Server configuration: tuning knobs plus the pluggable control-plane
//! policies ([`Scheduler`], [`AutoscalePolicy`]).
//!
//! `ServerConfig` stays [`Default`]-constructible and clonable; policy
//! fields hold trait objects, set from the built-in policy structs
//! ([`WarmFirst`](crate::WarmFirst), [`NoScale`](crate::NoScale), …) or
//! from custom implementations:
//!
//! ```
//! use kaas_core::{ServerConfig, TargetUtilization, WarmFirst};
//!
//! let config = ServerConfig::default()
//!     .with_scheduler(WarmFirst)
//!     .with_autoscaler(TargetUtilization { target: 0.8 })
//!     .with_tenant_quota(4);
//! ```

use std::time::Duration;

use kaas_net::SerializationProfile;
use kaas_simtime::SpanSink;

use crate::admission::{AdmissionConfig, AdmissionPolicy, AimdConfig};
use crate::autoscaler::{AutoscalePolicy, InFlightThreshold, NoScale};
use crate::resilience::{
    BreakerConfig, EvictionConfig, FallbackConfig, RetryBudgetConfig, RetryConfig,
};
use crate::runner::RunnerConfig;
use crate::scheduler::Scheduler;

/// The argument of [`ServerConfig::with_dispatch`]: a one-variant
/// wrapper around [`ShardConfig`].
///
/// This is a source-compatibility shim. The server has one dispatch
/// engine — a thin front door feeding per-shard worker queues — and
/// [`ServerConfig::dispatch`] holds its [`ShardConfig`] directly.
/// Callers that still spell `DispatchMode::Sharded(..)` or
/// `DispatchMode::default()` keep compiling; `with_dispatch` unwraps it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchMode {
    /// The sharded dispatcher: front door + per-shard worker queues.
    Sharded(ShardConfig),
}

impl Default for DispatchMode {
    fn default() -> Self {
        DispatchMode::Sharded(ShardConfig::default())
    }
}

/// The dispatch engine's shard layout and tuning.
///
/// The front door only classifies + enqueues; per-shard worker tasks
/// own placement, the cache step, retry, and the runner handoff. Shard
/// workers are ordinary simtime tasks, so same-seed replay stays
/// byte-identical. One shard behind a zero-cost front door is the
/// historical single-lock router, saturating near
/// `1 / dispatch_overhead` (the paper's router-contention knee).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of dispatch shards; `0` (the default) means one shard per
    /// device, keeping shard queues device-local so residency-aware
    /// placement stays cheap.
    pub shards: usize,
    /// How requests map onto shards.
    pub policy: ShardPolicy,
    /// Cost of the front-door classify + enqueue step. This is the only
    /// serialized per-invocation work left; the default 2 µs moves the
    /// saturation ceiling from `1/35 µs ≈ 28.6 k/s` to `500 k/s`.
    pub front_door_overhead: Duration,
    /// Seed for shard-choice tie-breaks ([`ShardPolicy::LeastLoaded`])
    /// and hash mixing ([`ShardPolicy::KernelAffinity`]); part of the
    /// deterministic-replay contract.
    pub seed: u64,
    /// Bound on each shard queue's depth. A full queue sheds new work
    /// at enqueue with [`InvokeError::Overloaded`][crate::InvokeError]
    /// (carrying a drain-time `retry_after` hint), and expired work is
    /// ejected lazily at dequeue — dead requests never reach placement.
    /// `None` (the default) keeps the historic unbounded queues.
    pub queue_cap: Option<usize>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 0,
            policy: ShardPolicy::RoundRobin,
            front_door_overhead: Duration::from_micros(2),
            seed: 0,
            queue_cap: None,
        }
    }
}

impl ShardConfig {
    /// Sets (or clears, with `None`) the per-shard queue-depth bound.
    pub fn with_queue_cap(mut self, cap: impl Into<Option<usize>>) -> Self {
        self.queue_cap = cap.into();
        self
    }
}

/// Shard-selection policy of a [`ShardConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// Rotate through shards in request order (the default: perfectly
    /// balanced under uniform load, and single-kernel workloads still
    /// spread across all shards).
    #[default]
    RoundRobin,
    /// Route by FNV-1a hash of the kernel name (mixed with the seed):
    /// one kernel's requests always land on one shard, which keeps its
    /// placement decisions and device-cache state on a single queue.
    KernelAffinity,
    /// Route to the shallowest queue; ties broken by the seeded RNG.
    LeastLoaded,
}

impl ShardPolicy {
    /// Short stable name (`round-robin` / `kernel-affinity` /
    /// `least-loaded`).
    pub fn name(&self) -> &'static str {
        match self {
            ShardPolicy::RoundRobin => "round-robin",
            ShardPolicy::KernelAffinity => "kernel-affinity",
            ShardPolicy::LeastLoaded => "least-loaded",
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-invocation routing cost on the server CPU (calibrated to the
    /// Fig. 12b weak-scaling offset: ≈ 35 µs/invocation). Each shard
    /// worker pays it per invocation, so shards overlap it.
    pub dispatch_overhead: Duration,
    /// Shard layout of the dispatch engine (default: one shard per
    /// device, round-robin, 2 µs front door).
    pub dispatch: ShardConfig,
    /// Runner settings.
    pub runner: RunnerConfig,
    /// Placement policy (default: [`FillFirst`](crate::FillFirst)).
    pub scheduler: Box<dyn Scheduler>,
    /// Scale-out policy (default: [`InFlightThreshold`], the paper's
    /// §5.5 behaviour; use [`NoScale`] for prewarmed-only capacity).
    pub autoscaler: Box<dyn AutoscalePolicy>,
    /// Reap runners that stay idle for this long (§6: energy-aware
    /// scale-*down*; the next invocation after a reap cold-starts).
    /// `None` keeps runners warm forever.
    pub idle_timeout: Option<Duration>,
    /// Admission control (tenant quotas, overload shedding).
    pub admission: AdmissionConfig,
    /// Serializer for in-band payloads.
    pub serialization: SerializationProfile,
    /// Span sink for server-side invocation tracing (`None` disables
    /// recording). Share one sink between clients and the server to see
    /// a whole invocation across every hop.
    pub tracer: Option<SpanSink>,
    /// Retry behaviour of the dispatch path (default: three immediate
    /// attempts — the historical hard-coded behaviour).
    pub retry: RetryConfig,
    /// Per-device circuit breakers (default: `None`, disabled).
    pub breaker: Option<BreakerConfig>,
    /// Health-driven runner eviction (default: quarantine on the first
    /// failure — the historical behaviour).
    pub eviction: EvictionConfig,
    /// Degraded fallback routing between device classes (default: no
    /// routes; placement failures surface as errors).
    pub fallback: FallbackConfig,
    /// Retry budget governing the *server's own* retry amplification —
    /// today the flow executor's step retries. `None` (the default)
    /// keeps the historic unmetered behaviour.
    pub retry_budget: Option<RetryBudgetConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            dispatch_overhead: Duration::from_micros(35),
            dispatch: ShardConfig::default(),
            runner: RunnerConfig::default(),
            scheduler: Box::new(crate::scheduler::FillFirst),
            autoscaler: Box::new(InFlightThreshold),
            idle_timeout: None,
            admission: AdmissionConfig::default(),
            serialization: SerializationProfile::python_pickle(),
            tracer: None,
            retry: RetryConfig::default(),
            breaker: None,
            eviction: EvictionConfig::default(),
            fallback: FallbackConfig::none(),
            retry_budget: None,
        }
    }
}

impl ServerConfig {
    /// Sets the per-invocation dispatch overhead.
    pub fn with_dispatch_overhead(mut self, overhead: Duration) -> Self {
        self.dispatch_overhead = overhead;
        self
    }

    /// Sets the dispatch engine's shard layout.
    pub fn with_dispatch(mut self, dispatch: DispatchMode) -> Self {
        let DispatchMode::Sharded(layout) = dispatch;
        self.dispatch = layout;
        self
    }

    /// Sets the runner configuration.
    pub fn with_runner(mut self, runner: RunnerConfig) -> Self {
        self.runner = runner;
        self
    }

    /// Sets the placement policy — a built-in policy struct
    /// ([`FillFirst`](crate::FillFirst),
    /// [`RoundRobin`][crate::RoundRobin], …) or any custom
    /// [`Scheduler`] implementation.
    pub fn with_scheduler(mut self, scheduler: impl Into<Box<dyn Scheduler>>) -> Self {
        self.scheduler = scheduler.into();
        self
    }

    /// Sets the scale-out policy.
    pub fn with_autoscaler(mut self, autoscaler: impl Into<Box<dyn AutoscalePolicy>>) -> Self {
        self.autoscaler = autoscaler.into();
        self
    }

    /// Boolean shorthand for the classic configurations: `true` is the
    /// paper's [`InFlightThreshold`] policy, `false` is [`NoScale`]
    /// (prewarmed capacity only).
    pub fn with_autoscale(self, autoscale: bool) -> Self {
        if autoscale {
            self.with_autoscaler(InFlightThreshold)
        } else {
            self.with_autoscaler(NoScale)
        }
    }

    /// Sets (or clears, with `None`) the idle-runner reap timeout.
    pub fn with_idle_timeout(mut self, timeout: impl Into<Option<Duration>>) -> Self {
        self.idle_timeout = timeout.into();
        self
    }

    /// Sets (or clears, with `None`) the per-tenant concurrency quota.
    pub fn with_tenant_quota(mut self, quota: impl Into<Option<usize>>) -> Self {
        self.admission.tenant_quota = quota.into();
        self
    }

    /// Sets (or clears, with `None`) a *static* server-wide
    /// admitted-request ceiling ([`AdmissionPolicy::FixedCap`]); excess
    /// requests fail with
    /// [`InvokeError::Overloaded`][crate::InvokeError::Overloaded].
    /// Prefer [`with_adaptive_admission`](Self::with_adaptive_admission)
    /// unless you are A/B-ing against the historic fixed cap.
    pub fn with_max_in_flight(mut self, max: impl Into<Option<usize>>) -> Self {
        self.admission.limiter = max.into().map(AdmissionPolicy::FixedCap);
        self
    }

    /// Enables the adaptive (AIMD-on-queue-wait) admission limiter —
    /// the default [`AdmissionPolicy`] — with the given tuning.
    pub fn with_adaptive_admission(mut self, aimd: AimdConfig) -> Self {
        self.admission.limiter = Some(AdmissionPolicy::Adaptive(aimd));
        self
    }

    /// Sets (or clears, with `None`) the admission limiter policy
    /// directly.
    pub fn with_admission_policy(mut self, policy: impl Into<Option<AdmissionPolicy>>) -> Self {
        self.admission.limiter = policy.into();
        self
    }

    /// Enables a retry budget for server-side retry loops (the flow
    /// executor's step retries).
    pub fn with_retry_budget(mut self, budget: RetryBudgetConfig) -> Self {
        self.retry_budget = Some(budget);
        self
    }

    /// Sets the in-band payload serializer.
    pub fn with_serialization(mut self, serialization: SerializationProfile) -> Self {
        self.serialization = serialization;
        self
    }

    /// Attaches a span sink for server-side tracing: admission, dispatch,
    /// queueing, cold starts, and device phases record spans into it.
    pub fn with_tracer(mut self, tracer: SpanSink) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Sets the dispatch retry policy (attempts, backoff, budget).
    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }

    /// Enables per-device circuit breakers with the given tuning.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Sets the health-driven runner eviction threshold.
    pub fn with_eviction(mut self, eviction: EvictionConfig) -> Self {
        self.eviction = eviction;
        self
    }

    /// Sets degraded fallback routes between device classes.
    pub fn with_fallback(mut self, fallback: FallbackConfig) -> Self {
        self.fallback = fallback;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{RoundRobin, SchedCtx, SlotChoice};

    #[test]
    fn default_matches_the_paper_setup() {
        let c = ServerConfig::default();
        assert_eq!(c.dispatch_overhead, Duration::from_micros(35));
        // Sharded dispatch is the default; one shard per device,
        // round-robin, 2 µs front door.
        let s = &c.dispatch;
        assert_eq!(s.shards, 0, "0 = one shard per device");
        assert_eq!(s.policy, ShardPolicy::RoundRobin);
        assert_eq!(s.front_door_overhead, Duration::from_micros(2));
        assert_eq!(s.seed, 0);
        assert_eq!(c.scheduler.name(), "fill-first");
        assert_eq!(c.autoscaler.name(), "in-flight-threshold");
        assert_eq!(c.admission, AdmissionConfig::default());
        assert!(c.idle_timeout.is_none());
        // Resilience defaults reproduce the pre-resilience behaviour.
        assert_eq!(c.retry.max_attempts, 3);
        assert!(c.breaker.is_none());
        assert_eq!(c.eviction.failure_threshold, 1);
        assert!(c.fallback.is_empty());
    }

    #[test]
    fn builders_compose() {
        let c = ServerConfig::default()
            .with_scheduler(RoundRobin::default())
            .with_autoscale(false)
            .with_tenant_quota(3)
            .with_max_in_flight(64)
            .with_idle_timeout(Duration::from_secs(60));
        assert_eq!(c.scheduler.name(), "round-robin");
        assert_eq!(c.autoscaler.name(), "no-scale");
        assert_eq!(c.admission.tenant_quota, Some(3));
        assert_eq!(
            c.admission.limiter,
            Some(AdmissionPolicy::FixedCap(64)),
            "with_max_in_flight keeps the historic static-cap semantics"
        );
        assert_eq!(c.idle_timeout, Some(Duration::from_secs(60)));

        let c = c.with_adaptive_admission(AimdConfig::default());
        assert_eq!(
            c.admission.limiter,
            Some(AdmissionPolicy::Adaptive(AimdConfig::default()))
        );
        assert_eq!(
            AdmissionPolicy::default(),
            AdmissionPolicy::Adaptive(AimdConfig::default()),
            "adaptive is the default limiter policy"
        );
    }

    #[test]
    fn custom_policies_plug_in() {
        #[derive(Debug, Clone)]
        struct Always0;
        impl Scheduler for Always0 {
            fn name(&self) -> &'static str {
                "always-0"
            }
            fn pick(&self, _ctx: &SchedCtx) -> Option<SlotChoice> {
                Some(SlotChoice { index: 0 })
            }
            fn box_clone(&self) -> Box<dyn Scheduler> {
                Box::new(self.clone())
            }
        }
        let c = ServerConfig::default().with_scheduler(Always0);
        assert_eq!(c.scheduler.name(), "always-0");
        // Clone preserves the policy.
        assert_eq!(c.clone().scheduler.name(), "always-0");
    }
}

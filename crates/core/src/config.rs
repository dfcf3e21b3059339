//! Server configuration: tuning knobs plus the placement policy
//! ([`Scheduler`]).
//!
//! `ServerConfig` stays [`Default`]-constructible and clonable; the
//! scheduler field holds one of the four policies
//! ([`WarmFirst`](crate::WarmFirst), …). Scale-out is one switch, the
//! paper's §5.5 rule ([`ServerConfig::autoscale`]):
//!
//! ```
//! use kaas_core::{ServerConfig, WarmFirst};
//!
//! let config = ServerConfig::default()
//!     .with_scheduler(WarmFirst)
//!     .with_autoscale(false)
//!     .with_tenant_quota(4);
//! ```

use std::time::Duration;

use kaas_net::SerializationProfile;
use kaas_simtime::SpanSink;

use crate::admission::{AdmissionConfig, AimdConfig};
use crate::resilience::{BreakerConfig, EvictionConfig, FallbackConfig, RetryConfig};
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
/// The front door only classifies + enqueues, dealing requests to the
/// shards round-robin in arrival order; per-shard worker tasks own
/// placement, the cache step, retry, and the runner handoff. Shard
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
    /// Cost of the front-door classify + enqueue step. This is the only
    /// serialized per-invocation work left; the default 2 µs moves the
    /// saturation ceiling from `1/35 µs ≈ 28.6 k/s` to `500 k/s`.
    pub front_door_overhead: Duration,
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
            front_door_overhead: Duration::from_micros(2),
            queue_cap: None,
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
    pub scheduler: Scheduler,
    /// Scale-out (default: `true`, the paper's §5.5 rule): when the
    /// scheduler declines because the kernel's in-flight requests fill
    /// every runner to its cap, start one more runner on a free device.
    /// `false` serves from prewarmed runners only (plus the bootstrap
    /// runner a cold deployment starts for its first request).
    pub autoscale: bool,
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
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            dispatch_overhead: Duration::from_micros(35),
            dispatch: ShardConfig::default(),
            runner: RunnerConfig::default(),
            scheduler: Scheduler::default(),
            autoscale: true,
            idle_timeout: None,
            admission: AdmissionConfig::default(),
            serialization: SerializationProfile::python_pickle(),
            tracer: None,
            retry: RetryConfig::default(),
            breaker: None,
            eviction: EvictionConfig::default(),
            fallback: FallbackConfig::none(),
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

    /// Sets the placement policy ([`FillFirst`](crate::FillFirst),
    /// [`RoundRobin::default()`](crate::RoundRobin), …).
    pub fn with_scheduler(mut self, scheduler: impl Into<Scheduler>) -> Self {
        self.scheduler = scheduler.into();
        self
    }

    /// Turns scale-out on or off ([`autoscale`](Self::autoscale)).
    pub fn with_autoscale(mut self, autoscale: bool) -> Self {
        self.autoscale = autoscale;
        self
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

    /// Enables the adaptive (AIMD-on-queue-wait) admission limiter with
    /// the given tuning; requests over its ceiling fail with
    /// [`InvokeError::Overloaded`][crate::InvokeError::Overloaded]. A
    /// band with `min_limit = max_limit` is a fixed cap.
    pub fn with_adaptive_admission(mut self, aimd: AimdConfig) -> Self {
        self.admission.limiter = Some(aimd);
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
    use crate::scheduler::RoundRobin;

    #[test]
    fn default_matches_the_paper_setup() {
        let c = ServerConfig::default();
        assert_eq!(c.dispatch_overhead, Duration::from_micros(35));
        // Sharded dispatch is the default; one shard per device,
        // round-robin, 2 µs front door.
        let s = &c.dispatch;
        assert_eq!(s.shards, 0, "0 = one shard per device");
        assert_eq!(s.front_door_overhead, Duration::from_micros(2));
        assert_eq!(c.scheduler.name(), "fill-first");
        assert!(c.autoscale);
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
            .with_adaptive_admission(AimdConfig::default())
            .with_idle_timeout(Duration::from_secs(60));
        assert_eq!(c.scheduler.name(), "round-robin");
        assert!(!c.autoscale);
        assert_eq!(c.admission.tenant_quota, Some(3));
        assert_eq!(c.admission.limiter, Some(AimdConfig::default()));
        assert_eq!(c.idle_timeout, Some(Duration::from_secs(60)));
    }
}

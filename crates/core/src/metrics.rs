//! Invocation reports and metric aggregation.
//!
//! Two layers live here:
//!
//! * [`InvocationReport`] / [`MetricsSink`] — the raw per-invocation
//!   record stream, returned with every response (the sink keeps only
//!   the most recent reports).
//! * [`MetricsRegistry`](registry::MetricsRegistry) — the structured
//!   store (counters, gauges, [`Histogram`](histogram::Histogram)
//!   latency distributions) the server feeds on every invocation and
//!   the experiment figures read from. Every emission site, server or
//!   client, writes through the typed handles `handles.rs` declares
//!   (`ServerMetrics`, `ClientMetrics`), the only place a string
//!   becomes a metric name; the registry itself is read-only outside
//!   this module.

pub(crate) mod handles;
pub mod histogram;
pub mod registry;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use kaas_accel::DeviceId;
use kaas_simtime::SimTime;

/// Identity of a task runner within a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunnerId(pub u32);

impl std::fmt::Display for RunnerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runner{}", self.0)
    }
}

/// Timing breakdown of one kernel invocation, returned with every
/// response and recorded by the server.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationReport {
    /// Kernel name.
    pub kernel: String,
    /// Runner that served the invocation.
    pub runner: RunnerId,
    /// Device the runner occupies.
    pub device: DeviceId,
    /// Whether this invocation triggered a cold start.
    pub cold_start: bool,
    /// When the server received the request.
    pub submitted: SimTime,
    /// When the runner began the device-side work.
    pub started: SimTime,
    /// When the device-side work finished.
    pub completed: SimTime,
    /// Host→device copy time.
    pub copy_in: Duration,
    /// Device-kernel occupancy time.
    pub kernel_exec: Duration,
    /// Device→host copy time.
    pub copy_out: Duration,
    /// Whether the invocation was served on a fallback device class
    /// (degraded mode) rather than the kernel's preferred class.
    pub degraded: bool,
}

impl InvocationReport {
    /// The paper's "kernel time": data copies plus computation.
    pub fn kernel_time(&self) -> Duration {
        self.copy_in + self.kernel_exec + self.copy_out
    }

    /// Time spent queued/dispatching before device work began.
    pub fn queue_time(&self) -> Duration {
        self.started.saturating_since(self.submitted)
    }

    /// Server-side latency (submission to completion).
    pub fn server_latency(&self) -> Duration {
        self.completed.saturating_since(self.submitted)
    }
}

/// How many of the most recent reports a [`MetricsSink`] keeps for
/// [`MetricsSink::snapshot`].
const SNAPSHOT_CAP: usize = 4096;

/// Shared sink of a server's invocation reports.
///
/// Memory stays bounded however many invocations run:
/// [`len`](MetricsSink::len) and [`cold_starts`](MetricsSink::cold_starts)
/// count every report over the sink's lifetime, but only the most
/// recent 4 096 reports are kept for [`snapshot`](MetricsSink::snapshot).
/// Long-run aggregates belong in the
/// [`MetricsRegistry`](registry::MetricsRegistry).
#[derive(Clone, Default)]
pub struct MetricsSink {
    inner: Rc<RefCell<SinkInner>>,
}

#[derive(Default)]
struct SinkInner {
    recent: VecDeque<InvocationReport>,
    len: usize,
    cold_starts: usize,
}

impl std::fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSink")
            .field("records", &self.len())
            .finish()
    }
}

impl MetricsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a report, dropping the oldest kept one once
    /// [`snapshot`](MetricsSink::snapshot) is full.
    pub fn record(&self, report: InvocationReport) {
        let mut inner = self.inner.borrow_mut();
        inner.len += 1;
        inner.cold_starts += report.cold_start as usize;
        if inner.recent.len() == SNAPSHOT_CAP {
            inner.recent.pop_front();
        }
        inner.recent.push_back(report);
    }

    /// Number of invocations recorded over the sink's lifetime.
    pub fn len(&self) -> usize {
        self.inner.borrow().len
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent reports (up to 4 096), oldest first.
    pub fn snapshot(&self) -> Vec<InvocationReport> {
        self.inner.borrow().recent.iter().cloned().collect()
    }

    /// How many recorded invocations were cold starts, over the sink's
    /// lifetime.
    pub fn cold_starts(&self) -> usize {
        self.inner.borrow().cold_starts
    }
}

/// Mean and 95 % confidence half-width of a sample (the paper plots mean
/// and 95 % CI over ten samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanCi {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95 % confidence interval.
    pub ci95: f64,
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation.
///
/// # Panics
///
/// Panics on an empty sample or `q` outside `[0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "need at least one sample");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Computes mean and normal-approximation 95 % CI of `samples`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn mean_ci95(samples: &[f64]) -> MeanCi {
    assert!(!samples.is_empty(), "need at least one sample");
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() == 1 {
        return MeanCi { mean, ci95: 0.0 };
    }
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
    MeanCi {
        mean,
        ci95: 1.96 * (var / n).sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cold: bool, t0: f64, t1: f64, t2: f64) -> InvocationReport {
        InvocationReport {
            kernel: "k".into(),
            runner: RunnerId(0),
            device: DeviceId(0),
            cold_start: cold,
            submitted: SimTime::from_secs_f64(t0),
            started: SimTime::from_secs_f64(t1),
            completed: SimTime::from_secs_f64(t2),
            copy_in: Duration::from_millis(1),
            kernel_exec: Duration::from_millis(10),
            copy_out: Duration::from_millis(2),
            degraded: false,
        }
    }

    #[test]
    fn derived_times() {
        let r = report(false, 1.0, 1.5, 2.0);
        assert_eq!(r.kernel_time(), Duration::from_millis(13));
        assert_eq!(r.queue_time(), Duration::from_millis(500));
        assert_eq!(r.server_latency(), Duration::from_secs(1));
    }

    #[test]
    fn sink_counts_cold_starts() {
        let sink = MetricsSink::new();
        sink.record(report(true, 0.0, 0.5, 1.0));
        sink.record(report(false, 1.0, 1.0, 1.2));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.cold_starts(), 1);
        assert!(!sink.is_empty());
    }

    #[test]
    fn sink_keeps_lifetime_counts_but_a_bounded_snapshot() {
        let sink = MetricsSink::new();
        let n = SNAPSHOT_CAP + 10;
        for i in 0..n {
            sink.record(report(i % 2 == 0, i as f64, i as f64, i as f64));
        }
        assert_eq!(sink.len(), n);
        assert_eq!(sink.cold_starts(), n.div_ceil(2));
        let kept = sink.snapshot();
        assert_eq!(kept.len(), SNAPSHOT_CAP);
        // The oldest reports were dropped, the newest kept in order.
        assert_eq!(kept[0].submitted, SimTime::from_secs_f64(10.0));
        assert_eq!(
            kept[SNAPSHOT_CAP - 1].submitted,
            SimTime::from_secs_f64((n - 1) as f64)
        );
    }

    #[test]
    fn mean_ci_of_constant_sample_is_tight() {
        let m = mean_ci95(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(m.mean, 2.0);
        assert_eq!(m.ci95, 0.0);
    }

    #[test]
    fn mean_ci_widens_with_spread() {
        let tight = mean_ci95(&[1.0, 1.1, 0.9, 1.0]);
        let wide = mean_ci95(&[0.1, 2.0, 0.5, 1.9]);
        assert!(wide.ci95 > tight.ci95);
    }

    #[test]
    fn single_sample_has_zero_ci() {
        assert_eq!(mean_ci95(&[5.0]).ci95, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.25), 2.0);
        // Order independence.
        let shuffled = [4.0, 1.0, 5.0, 3.0, 2.0];
        assert_eq!(percentile(&shuffled, 0.5), 3.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_rejected() {
        percentile(&[1.0], 1.5);
    }
}

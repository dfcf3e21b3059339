//! Invocation reports and metric aggregation.
//!
//! Two layers live here:
//!
//! * [`InvocationReport`] — the raw per-invocation timing breakdown,
//!   returned with every response.
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
/// response and fed into the server's registry.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationReport {
    /// Kernel name, shared with the request that named it.
    pub kernel: Rc<str>,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_times() {
        let r = InvocationReport {
            kernel: "k".into(),
            runner: RunnerId(0),
            device: DeviceId(0),
            cold_start: false,
            submitted: SimTime::from_secs_f64(1.0),
            started: SimTime::from_secs_f64(1.5),
            completed: SimTime::from_secs_f64(2.0),
            copy_in: Duration::from_millis(1),
            kernel_exec: Duration::from_millis(10),
            copy_out: Duration::from_millis(2),
            degraded: false,
        };
        assert_eq!(r.kernel_time(), Duration::from_millis(13));
        assert_eq!(r.queue_time(), Duration::from_millis(500));
        assert_eq!(r.server_latency(), Duration::from_secs(1));
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

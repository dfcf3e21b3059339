//! # kaas-perfbench — what the KaaS simulator costs, and what it models
//!
//! One process runs one workload for a fixed host-time budget, pass
//! after pass, and prints every metric by name with its unit. Two clocks
//! are kept apart:
//!
//! * **virtual** metrics (latency percentiles, SLO attainment, goodput,
//!   queueing, cache ratios) come from data the program already returns
//!   and are byte-identical for a seed — every pass after the first must
//!   reproduce the first pass's digest exactly;
//! * **host** metrics (invocations per on-CPU second, set-up time, RSS,
//!   per-layer host time) measure the simulator itself. Host times are
//!   calibrated, because a shared host's speed drifts by tens of
//!   percent within minutes: around each pass the benchmark times a
//!   fixed reference computation ([`host::reference_secs`]) and scales
//!   the pass's host time outside kernel `execute` to the speed at which
//!   that computation takes [`host::REFERENCE_NOMINAL_S`]
//!   ([`HostPass::calibrate`]). Raw values are printed beside.
//!
//! Layers are timed from outside, around the calls the benchmark makes
//! into public APIs: a [`Kernel`](kaas_kernels::Kernel) wrapper
//! ([`host::Probed`]), a client-task future wrapper ([`host::Polled`]),
//! and direct calls into the guest interpreter. Everything else the
//! executor does in the measured phase is the server residual.

pub mod host;
pub mod report;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;

/// One reported value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit (`ms`, `s`, `1/s`, `count`, `%`, ...).
    pub unit: &'static str,
}

/// Named metrics in name order.
pub type Metrics = BTreeMap<String, Metric>;

/// Inserts `name = value unit` into `m`.
pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_owned(), Metric { value, unit });
}

/// Host time of the four set-up phases of one pass, in seconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Setup {
    /// Build devices, registry (with the probe wrappers) and server.
    pub deploy: f64,
    /// Start and warm the runners the workload expects warm.
    pub prewarm: f64,
    /// Connect clients; register guest programs and workflows.
    pub register: f64,
    /// Generate the seeded inputs and schedules.
    pub inputs: f64,
}

impl Setup {
    /// All phases together.
    pub fn total(&self) -> f64 {
        self.deploy + self.prewarm + self.register + self.inputs
    }
}

/// Host measurements of one pass.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct HostPass {
    /// Set-up phases.
    pub setup: Setup,
    /// On-CPU seconds of the measured phase.
    pub cpu_s: f64,
    /// Wall seconds of the measured phase.
    pub wall_s: f64,
    /// Clients connected in the register phase.
    pub clients: u64,
    /// VmRSS growth across those connects, in kB.
    pub connect_rss_kb: i64,
    /// `(attempts so far, VmRSS kB)` at each quartile of the measured
    /// phase.
    pub rss_quartiles: Vec<(u64, u64)>,
}

impl HostPass {
    /// Rescales the pass's host times to the nominal host speed: `k` is
    /// the host's speed relative to nominal (from the reference
    /// computation). The measured phase keeps its `kernel_s` seconds of
    /// kernel `execute` as measured, because a shared host's slow phases
    /// barely move numeric kernel code, and scales the rest.
    pub fn calibrate(&mut self, kernel_s: f64, k: f64) {
        for t in [&mut self.cpu_s, &mut self.wall_s] {
            let kernel = kernel_s.min(*t);
            *t = kernel + (*t - kernel) * k;
        }
        let s = &mut self.setup;
        for t in [
            &mut s.deploy,
            &mut s.prewarm,
            &mut s.register,
            &mut s.inputs,
        ] {
            *t *= k;
        }
    }
}

/// What one pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Virtual-clock metrics and deterministic counts.
    pub virt: Metrics,
    /// Invocation attempts the clients sent in the measured phase (every
    /// request frame member, retries included).
    pub attempts: u64,
    /// Requests the workload issued (a retried call is one request).
    pub requests: u64,
    /// Requests that failed with an error the workload expects
    /// (overload sheds, ejections, timeouts — `burst` only).
    pub rejected: u64,
    /// Requests with a wrong output or an unexpected error.
    pub wrong: u64,
    /// Digest of every output and virtual latency, in completion order.
    pub digest: u64,
    /// Host measurements.
    pub host: HostPass,
}

//! The four workloads and the machinery they share: deployment with
//! probed kernels, client tasks, the measured-phase bracket, and the
//! request ledger that turns outcomes into virtual metrics.

pub mod burst;
pub mod diurnal;
pub mod pipeline;
pub mod storm;

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use kaas_accel::Device;
use kaas_bench::common::Deployment;
use kaas_core::{Invocation, InvocationReport, KaasClient, KaasServer, ServerConfig};
use kaas_kernels::Kernel;
use kaas_simtime::{spawn, JoinHandle};

use crate::host::{rss_kb, thread_cpu_ns, Polled, Probed, Recorder, Stopwatch};
use crate::stats::{ms, quantile, Digest};
use crate::{put, HostPass, Metrics};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop: up to 1,024 clients, 16-call MCI wire batches.
    Storm,
    /// Open loop: seeded diurnal Poisson trace, idle reaping.
    Diurnal,
    /// Closed loop: put + registered GA flow + guest step per request.
    Pipeline,
    /// The controlled overload scenario: near-knee base load, 10× burst.
    Burst,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Storm,
        Workload::Diurnal,
        Workload::Pipeline,
        Workload::Burst,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Storm => "storm",
            Workload::Diurnal => "diurnal",
            Workload::Pipeline => "pipeline",
            Workload::Burst => "burst",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one pass: set up, measure, and (when `verify`) check every
    /// output against references the benchmark computes itself.
    pub fn run_pass(self, seed: u64, rec: &Rc<Recorder>, verify: bool) -> crate::Outcome {
        match self {
            Workload::Storm => storm::pass(seed, rec, verify),
            Workload::Diurnal => diurnal::pass(seed, rec, verify),
            Workload::Pipeline => pipeline::pass(seed, rec, verify),
            Workload::Burst => burst::pass(seed, rec, verify),
        }
    }
}

/// Boots a deployment whose kernels are wrapped in [`Probed`].
pub fn deploy(
    devices: Vec<Device>,
    kernels: Vec<Rc<dyn Kernel>>,
    config: ServerConfig,
    rec: &Rc<Recorder>,
) -> Deployment {
    let probed = kernels.into_iter().map(|k| Probed::wrap(k, rec)).collect();
    kaas_bench::common::deploy(devices, probed, config)
}

/// Spawns a benchmark client task, timing its polls when tracing.
pub fn spawn_client<F>(rec: &Rc<Recorder>, client: u64, fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    if rec.tracing() {
        spawn(Polled::new(fut, rec, client))
    } else {
        spawn(fut)
    }
}

/// Times `f` into a set-up phase slot.
pub fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let sw = Stopwatch::start();
    let out = f();
    *slot += sw.secs();
    out
}

/// The bracket around a measured phase: on-CPU and wall time, and the
/// measure span every traced span nests in.
#[derive(Debug)]
pub struct Measure {
    cpu0: u64,
    wall: Stopwatch,
}

impl Measure {
    /// Opens the measured phase (resetting the probes' call counts).
    pub fn begin(rec: &Recorder) -> Measure {
        rec.reset_counts();
        rec.open_measure();
        Measure {
            cpu0: thread_cpu_ns(),
            wall: Stopwatch::start(),
        }
    }

    /// Closes it into `host`.
    pub fn end(self, rec: &Recorder, host: &mut HostPass) {
        host.wall_s = self.wall.secs();
        host.cpu_s = thread_cpu_ns().saturating_sub(self.cpu0) as f64 / 1e9;
        rec.close_measure();
    }
}

/// Measures VmRSS growth across `connect`, which connects `clients`.
pub async fn connect_measured<T, F: Future<Output = T>>(
    host: &mut HostPass,
    clients: u64,
    connect: F,
) -> T {
    let before = rss_kb();
    let sw = Stopwatch::start();
    let out = connect.await;
    host.setup.register += sw.secs();
    host.connect_rss_kb = rss_kb() as i64 - before as i64;
    host.clients = clients;
    out
}

/// Prewarms `count` runners of each kernel, timed into the prewarm phase.
pub async fn prewarm(host: &mut HostPass, server: &KaasServer, kernels: &[(&str, usize)]) {
    let sw = Stopwatch::start();
    for &(kernel, count) in kernels {
        server.prewarm(kernel, count).await.expect("prewarm");
    }
    host.setup.prewarm += sw.secs();
}

/// Connects `n` same-host clients (see [`connect_measured`]).
pub async fn local_clients(host: &mut HostPass, dep: &Deployment, n: usize) -> Vec<KaasClient> {
    connect_measured(host, n as u64, async {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(dep.local_client().await);
        }
        v
    })
    .await
}

/// Request outcomes of one pass, shared by every client task.
#[derive(Debug, Default)]
pub struct Ledger {
    slo_ns: u64,
    expected: u64,
    /// Successful request latencies (virtual ns), completion order.
    lat_ns: Vec<u64>,
    requests: u64,
    rejected: u64,
    wrong: u64,
    within_slo: u64,
    queue_ns: Vec<u64>,
    copy_in_ns: Vec<u64>,
    exec_ns: Vec<u64>,
    copy_out_ns: Vec<u64>,
    wire_ns: Vec<u64>,
    cold: u64,
    digest: Digest,
    rss: Vec<(u64, u64)>,
}

/// The ledger as client tasks hold it.
pub type SharedLedger = Rc<RefCell<Ledger>>;

impl Ledger {
    /// A ledger for `expected` requests with a virtual latency limit.
    pub fn shared(slo: Duration, expected: u64) -> SharedLedger {
        Rc::new(RefCell::new(Ledger {
            slo_ns: slo.as_nanos() as u64,
            expected,
            ..Ledger::default()
        }))
    }

    fn settle(&mut self) {
        self.requests += 1;
        // VmRSS at each quartile of the expected request count.
        let q = self.expected.div_ceil(4).max(1);
        if self.requests.is_multiple_of(q) || self.requests == self.expected {
            self.rss.push((self.requests, rss_kb()));
        }
    }

    /// A request that succeeded after `latency` with a correct output.
    pub fn ok(&mut self, latency: Duration) {
        let ns = latency.as_nanos() as u64;
        self.lat_ns.push(ns);
        self.within_slo += u64::from(ns <= self.slo_ns);
        self.digest.word(ns);
        self.settle();
    }

    /// A request that failed the way the workload expects.
    pub fn rejected(&mut self, kind: &str) {
        self.rejected += 1;
        self.digest.word(kind.len() as u64);
        self.settle();
    }

    /// A request with a wrong output or an unexpected error.
    pub fn wrong(&mut self) {
        self.wrong += 1;
        self.digest.word(u64::MAX);
        self.settle();
    }

    /// Folds an output word into the digest.
    pub fn output(&mut self, bits: u64) {
        self.digest.word(bits);
    }

    /// Records one server-side invocation report; `wire` is the
    /// client-observed round trip minus the server's latency, when the
    /// invocation had a round trip of its own.
    pub fn report(&mut self, r: &InvocationReport, round_trip: Option<Duration>) {
        let ns = |d: Duration| d.as_nanos() as u64;
        self.queue_ns.push(ns(r.queue_time()));
        self.copy_in_ns.push(ns(r.copy_in));
        self.exec_ns.push(ns(r.kernel_exec));
        self.copy_out_ns.push(ns(r.copy_out));
        if let Some(rt) = round_trip {
            self.wire_ns.push(ns(rt.saturating_sub(r.server_latency())));
        }
        self.cold += u64::from(r.cold_start);
    }

    /// Records an invocation the client received directly.
    pub fn invocation(&mut self, inv: &Invocation) {
        self.report(&inv.report, Some(inv.latency));
    }

    /// Marks a wrong output found after the pass (verification).
    pub fn mark_wrong(&mut self, n: u64) {
        self.wrong += n;
    }

    /// Successful-latency samples so far.
    pub fn lat_len(&self) -> usize {
        self.lat_ns.len()
    }

    /// Successful latencies recorded since sample `from`.
    pub fn lat_since(&self, from: usize) -> &[u64] {
        &self.lat_ns[from..]
    }

    /// Requests settled so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Successful requests so far.
    pub fn succeeded(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    /// The virtual metrics every workload reports. `invocations_ok` is
    /// the successful invocation count behind `virt_throughput_inv_s`,
    /// over a virtual window of `window`.
    pub fn metrics(&self, invocations_ok: u64, window: Duration) -> Metrics {
        let mut m = Metrics::new();
        let lat = ms(&self.lat_ns);
        let n = lat.len() as f64;
        put(&mut m, "virt_p50_ms", quantile(&lat, 0.50), "ms");
        put(&mut m, "virt_p90_ms", quantile(&lat, 0.90), "ms");
        put(&mut m, "virt_p99_ms", quantile(&lat, 0.99), "ms");
        put(&mut m, "virt_samples", n, "count");
        // Samples strictly beyond the reported p99 (the report needs ≥10).
        put(&mut m, "virt_p99_tail_samples", (n * 0.01).floor(), "count");
        let requests = self.requests.max(1) as f64;
        put(&mut m, "slo_ms", self.slo_ns as f64 / 1e6, "ms");
        put(
            &mut m,
            "slo_pct",
            100.0 * self.within_slo as f64 / requests,
            "%",
        );
        put(
            &mut m,
            "error_pct",
            100.0 * (self.rejected + self.wrong) as f64 / requests,
            "%",
        );
        put(
            &mut m,
            "virt_throughput_inv_s",
            invocations_ok as f64 / window.as_secs_f64(),
            "1/s",
        );
        let q = |v: &[u64], p: f64| {
            let x = quantile(&ms(v), p);
            if x.is_nan() {
                0.0
            } else {
                x
            }
        };
        put(
            &mut m,
            "dispatch.queue_ms.p50",
            q(&self.queue_ns, 0.5),
            "ms",
        );
        put(
            &mut m,
            "dispatch.queue_ms.p99",
            q(&self.queue_ns, 0.99),
            "ms",
        );
        put(
            &mut m,
            "runner.copy_in_ms.p50",
            q(&self.copy_in_ns, 0.5),
            "ms",
        );
        put(
            &mut m,
            "runner.kernel_exec_ms.p50",
            q(&self.exec_ns, 0.5),
            "ms",
        );
        put(
            &mut m,
            "runner.copy_out_ms.p50",
            q(&self.copy_out_ns, 0.5),
            "ms",
        );
        put(&mut m, "net.wire_ms.p50", q(&self.wire_ns, 0.5), "ms");
        let reports = self.queue_ns.len().max(1) as f64;
        put(
            &mut m,
            "cold_start_pct",
            100.0 * self.cold as f64 / reports,
            "%",
        );
        m
    }

    /// Moves the pass-level counts into an outcome.
    pub fn outcome(&self, virt: Metrics, attempts: u64, mut host: HostPass) -> crate::Outcome {
        host.rss_quartiles = self.rss.clone();
        crate::Outcome {
            virt,
            attempts,
            requests: self.requests,
            rejected: self.rejected,
            wrong: self.wrong,
            digest: self.digest.value(),
            host,
        }
    }
}

/// Device busy seconds summed over the deployment.
pub fn busy_seconds(server: &KaasServer) -> Vec<f64> {
    server.devices().iter().map(|d| d.busy_seconds()).collect()
}

/// The server-side layer metrics every workload reports, from the
/// server's registry and snapshot. `busy0` is [`busy_seconds`] at the
/// start of the measured window.
pub fn server_metrics(server: &KaasServer, busy0: &[f64], window: Duration) -> Metrics {
    let mut m = Metrics::new();
    let reg = server.metrics_registry();
    let snap = server.snapshot();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    put(
        &mut m,
        "pool.cold_starts",
        reg.counter("cold_starts") as f64,
        "count",
    );
    put(&mut m, "pool.reaped", snap.reaped as f64, "count");
    put(
        &mut m,
        "dispatch.batch_fill",
        ratio(
            reg.counter("dispatch.batch_members"),
            reg.counter("dispatch.batches"),
        ),
        "count",
    );
    put(
        &mut m,
        "dispatch.ejected",
        snap.dispatch_ejected as f64,
        "count",
    );
    let hits = reg.counter("dataplane.hits");
    let misses = reg.counter("dataplane.misses");
    put(
        &mut m,
        "dataplane.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    put(
        &mut m,
        "dataplane.evictions",
        reg.counter("dataplane.evictions") as f64,
        "count",
    );
    put(
        &mut m,
        "workflow.chained_ratio",
        ratio(
            reg.counter("workflow.chained_hits"),
            reg.counter("workflow.steps"),
        ),
        "ratio",
    );
    put(
        &mut m,
        "guest.fuel_per_inv",
        ratio(
            reg.counter("guest.fuel_used"),
            reg.counter("guest.invocations"),
        ),
        "count",
    );
    let busy = busy_seconds(server);
    let util: f64 = busy
        .iter()
        .zip(busy0)
        .map(|(b, b0)| (b - b0) / window.as_secs_f64())
        .sum::<f64>()
        / busy.len().max(1) as f64;
    put(&mut m, "device.utilization_mean", util, "ratio");
    m
}

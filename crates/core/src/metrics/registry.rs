//! [`MetricsRegistry`]: the server's structured metric store.
//!
//! Replaces ad-hoc aggregation over raw [`InvocationReport`]
//! (crate::InvocationReport) lists with three first-class metric kinds:
//!
//! * **counters** — monotone event counts (invocations, cold starts,
//!   errors),
//! * **gauges** — instantaneous levels (queue depth, in-flight work,
//!   per-device utilization),
//! * **histograms** — log-bucketed latency distributions with exact
//!   mean and p50/p95/p99 estimates ([`Histogram`]).
//!
//! All maps are ordered (`BTreeMap`) and all state is deterministic, so
//! [`MetricsRegistry::render`] output is byte-identical across
//! identical runs. Each map value is a shared cell, written only
//! through a typed handle ([`Counter`], [`Gauge`], [`HistogramHandle`]).
//! Only `crate::metrics` can resolve a handle from a name, so the
//! metric namespace is the set of names `handles.rs` declares. A cell
//! counts as a metric only once it has been written: resolving a
//! handle alone shows nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use super::histogram::{Histogram, HistogramSummary};

/// A pre-resolved counter: a shared cell in its registry's map.
/// Updating it costs no name lookup and no allocation. The cell is
/// `None` until first written, and only then does the counter appear
/// in [`MetricsRegistry::render`] and [`MetricsRegistry::names`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Counter(Rc<Cell<Option<u64>>>);

impl Counter {
    /// Increments by one.
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Increments by `delta` (zero still marks the counter written).
    pub(crate) fn add(&self, delta: u64) {
        self.0.set(Some(self.get() + delta));
    }

    /// Current value (zero if never written).
    pub(crate) fn get(&self) -> u64 {
        self.0.get().unwrap_or(0)
    }
}

/// A pre-resolved gauge; see [`Counter`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Gauge(Rc<Cell<Option<f64>>>);

impl Gauge {
    /// Sets the level.
    pub(crate) fn set(&self, value: f64) {
        self.0.set(Some(value));
    }

    /// Current level, if ever set.
    pub(crate) fn get(&self) -> Option<f64> {
        self.0.get()
    }
}

/// A pre-resolved histogram; see [`Counter`]. It is written once it
/// holds an observation.
#[derive(Debug, Clone, Default)]
pub(crate) struct HistogramHandle(Rc<RefCell<Histogram>>);

impl HistogramHandle {
    /// Records one observation; see [`Histogram::observe`].
    pub(crate) fn observe(&self, value: f64) {
        self.0.borrow_mut().observe(value);
    }

    fn written(&self) -> bool {
        !self.0.borrow().is_empty()
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, HistogramHandle>,
}

/// Returns the cell registered under `name`, creating it on first use.
fn find_or_create<H: Clone + Default>(map: &mut BTreeMap<String, H>, name: &str) -> H {
    match map.get(name) {
        Some(h) => h.clone(),
        None => map.entry(name.to_owned()).or_default().clone(),
    }
}

/// A shared, clonable registry of counters, gauges, and histograms.
///
/// Every metric is a shared cell that the server and client write
/// through typed handles, resolved once from the names `crate::metrics`
/// declares. Outside this crate a registry is read-only: the readers
/// ([`render`](Self::render), [`names`](Self::names),
/// [`counter`](Self::counter), ...) skip cells that were never written,
/// so handles may be resolved ahead of their first emission.
///
/// # Examples
///
/// ```
/// use kaas_core::{KaasClient, KaasNetwork, KaasServer, KernelRegistry, ServerConfig};
/// use kaas_accel::{Device, DeviceId, GpuDevice, GpuProfile};
/// use kaas_kernels::{MonteCarlo, Value};
/// use kaas_net::{LinkProfile, SharedMemory};
/// use kaas_simtime::{spawn, Simulation};
///
/// Simulation::new().block_on(async {
///     let kernels = KernelRegistry::new();
///     kernels.register(MonteCarlo::default()).unwrap();
///     let gpu: Device = GpuDevice::new(DeviceId(0), GpuProfile::v100()).into();
///     let server =
///         KaasServer::new(vec![gpu], kernels, SharedMemory::host(), ServerConfig::default());
///     let net: KaasNetwork = KaasNetwork::new();
///     spawn(server.clone().serve(net.listen("kaas").unwrap()));
///     let mut client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
///         .await
///         .unwrap();
///     client.call("mci").arg(Value::U64(1_000)).send().await.unwrap();
///
///     let reg = server.metrics_registry();
///     assert_eq!(reg.counter("invocations.mci"), 1);
///     assert_eq!(reg.gauge("in_flight"), Some(0.0));
///     let s = reg.summary("latency.server").unwrap();
///     assert_eq!(s.count, 1);
///     assert!(reg.render().contains("cold_starts 1\n"));
///     // A name the server never wrote reads as zero and never renders.
///     assert_eq!(reg.counter("retries.budget_exhausted"), 0);
/// });
/// ```
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (counters, gauges, histograms) = self.names();
        f.debug_struct("MetricsRegistry")
            .field("counters", &counters.len())
            .field("gauges", &gauges.len())
            .field("histograms", &histograms.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle of counter `name`, creating it unwritten.
    pub(super) fn counter_handle(&self, name: &str) -> Counter {
        find_or_create(&mut self.inner.borrow_mut().counters, name)
    }

    /// The handle of gauge `name`, creating it unset.
    pub(super) fn gauge_handle(&self, name: &str) -> Gauge {
        find_or_create(&mut self.inner.borrow_mut().gauges, name)
    }

    /// The handle of histogram `name`, creating it empty.
    pub(super) fn histogram_handle(&self, name: &str) -> HistogramHandle {
        find_or_create(&mut self.inner.borrow_mut().histograms, name)
    }

    /// Current value of counter `name` (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .borrow()
            .counters
            .get(name)
            .map_or(0, Counter::get)
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.borrow().gauges.get(name).and_then(Gauge::get)
    }

    /// A snapshot of histogram `name`, if it holds an observation.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .borrow()
            .histograms
            .get(name)
            .filter(|h| h.written())
            .map(|h| h.0.borrow().clone())
    }

    /// Count/mean/p50/p95/p99 summary of histogram `name` (`None` if
    /// the histogram is missing or empty).
    pub fn summary(&self, name: &str) -> Option<HistogramSummary> {
        self.inner
            .borrow()
            .histograms
            .get(name)
            .and_then(|h| h.0.borrow().summary())
    }

    /// Names of all written counters, gauges, and histograms, each
    /// sorted alphabetically.
    pub fn names(&self) -> (Vec<String>, Vec<String>, Vec<String>) {
        fn written<H>(map: &BTreeMap<String, H>, w: impl Fn(&H) -> bool) -> Vec<String> {
            map.iter()
                .filter(|(_, h)| w(h))
                .map(|(name, _)| name.clone())
                .collect()
        }
        let inner = self.inner.borrow();
        (
            written(&inner.counters, |c| c.0.get().is_some()),
            written(&inner.gauges, |g| g.get().is_some()),
            written(&inner.histograms, HistogramHandle::written),
        )
    }

    /// Renders every metric in a Prometheus-style text format, sorted by
    /// name — counters as `name <n>`, gauges as `name <v>`, histograms
    /// as `name{stat="..."} <v>` lines for count/mean/p50/p95/p99.
    /// Deterministic: identical runs render identical text.
    pub fn render(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::new();
        for (name, c) in &inner.counters {
            if let Some(n) = c.0.get() {
                let _ = writeln!(out, "{name} {n}");
            }
        }
        for (name, g) in &inner.gauges {
            if let Some(v) = g.get() {
                let _ = writeln!(out, "{name} {v:.9}");
            }
        }
        for (name, h) in &inner.histograms {
            if let Some(s) = h.0.borrow().summary() {
                let _ = writeln!(out, "{name}{{stat=\"count\"}} {}", s.count);
                for (stat, v) in [
                    ("mean", s.mean),
                    ("p50", s.p50),
                    ("p95", s.p95),
                    ("p99", s.p99),
                ] {
                    let _ = writeln!(out, "{name}{{stat=\"{stat}\"}} {v:.9}");
                }
            }
        }
        out
    }

    /// Drops every metric's value. Cells stay in place, unwritten, so
    /// resolved handles keep updating this registry.
    pub fn clear(&self) {
        let inner = self.inner.borrow();
        inner.counters.values().for_each(|c| c.0.set(None));
        inner.gauges.values().for_each(|g| g.0.set(None));
        for h in inner.histograms.values() {
            *h.0.borrow_mut() = Histogram::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.counter("x"), 0);
        let x = reg.counter_handle("x");
        x.inc();
        x.add(4);
        assert_eq!(reg.counter("x"), 5);
        // Resolving again finds the same cell, not a second one.
        reg.counter_handle("x").inc();
        assert_eq!((x.get(), reg.names().0), (6, vec!["x".to_string()]));
    }

    #[test]
    fn gauges_overwrite() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.gauge("depth"), None);
        let depth = reg.gauge_handle("depth");
        depth.set(2.0);
        depth.set(7.0);
        assert_eq!(reg.gauge("depth"), Some(7.0));
    }

    #[test]
    fn clones_share_state() {
        let reg = MetricsRegistry::new();
        let other = reg.clone();
        other.counter_handle("shared").inc();
        other.histogram_handle("h").observe(1.0);
        assert_eq!(reg.counter("shared"), 1);
        assert_eq!(reg.summary("h").unwrap().count, 1);
    }

    #[test]
    fn render_is_sorted_and_deterministic() {
        let build = || {
            let reg = MetricsRegistry::new();
            reg.counter_handle("b.count").inc();
            reg.counter_handle("a.count").inc();
            reg.gauge_handle("z.gauge").set(1.5);
            let lat = reg.histogram_handle("lat");
            for i in 1..=10 {
                lat.observe(i as f64 * 0.01);
            }
            reg.render()
        };
        let text = build();
        assert_eq!(text, build());
        let a = text.find("a.count").unwrap();
        let b = text.find("b.count").unwrap();
        assert!(a < b, "metrics must render in sorted order:\n{text}");
        assert!(text.contains("lat{stat=\"count\"} 10"));
        assert!(text.contains("lat{stat=\"p95\"}"));
    }

    #[test]
    fn a_name_shows_once_its_cell_is_written() {
        let reg = MetricsRegistry::new();
        let c = reg.counter_handle("c");
        let g = reg.gauge_handle("g");
        let h = reg.histogram_handle("h");
        assert!(reg.render().is_empty());
        assert_eq!(reg.names(), (vec![], vec![], vec![]));
        assert_eq!((reg.gauge("g"), reg.histogram("h")), (None, None));
        c.add(0);
        assert_eq!(reg.render(), "c 0\n");
        g.set(0.0);
        h.observe(1.0);
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(reg.names(), (names(&["c"]), names(&["g"]), names(&["h"])));
    }

    #[test]
    fn clear_keeps_handles_attached() {
        let reg = MetricsRegistry::new();
        let c = reg.counter_handle("c");
        c.inc();
        reg.gauge_handle("g").set(1.0);
        reg.histogram_handle("h").observe(1.0);
        reg.clear();
        assert!(reg.render().is_empty());
        c.inc();
        assert_eq!(reg.render(), "c 1\n");
    }

    #[test]
    fn missing_histograms_have_no_summary() {
        let reg = MetricsRegistry::new();
        assert!(reg.summary("nope").is_none());
        assert!(reg.histogram("nope").is_none());
    }
}

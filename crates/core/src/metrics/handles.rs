//! [`ServerMetrics`] and [`ClientMetrics`]: every metric name, declared
//! once as a typed handle.
//!
//! This is the only module that turns a string into a metric: the
//! registry's handle constructors are private to `crate::metrics`, and
//! [`MetricsRegistry`] has no string writers. An emission site anywhere
//! else updates a [`Counter`], [`Gauge`] or [`HistogramHandle`] field
//! held here, so an undeclared name does not compile, and a declared
//! name no site updates is a `dead_code` warning. The global,
//! per-device and per-shard handles are resolved when the server is
//! built; per-kernel, per-error-kind, per-fault-kind and per-tenant
//! handles at their first emission, each name formatted once. A
//! resolved handle shows in [`render`](MetricsRegistry::render) and
//! [`names`](MetricsRegistry::names) only once written, so resolving
//! early changes nothing a reader sees.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use kaas_accel::{Device, DeviceId};
use kaas_kernels::Warmup;

use super::registry::{Counter, Gauge, HistogramHandle, MetricsRegistry};

/// The per-invocation stage latencies, in the order
/// [`ServerMetrics::stages`] and [`KernelMetrics::stages`] hold them.
pub(crate) const STAGES: [&str; 5] = [
    "latency.server",
    "latency.queue",
    "copy_in",
    "kernel_exec",
    "copy_out",
];

/// The per-kernel bundle, resolved at a kernel's first recorded
/// invocation.
pub(crate) struct KernelMetrics {
    pub(crate) invocations: Counter,
    /// `{stage}.{kernel}` histograms, in [`STAGES`] order.
    pub(crate) stages: [HistogramHandle; 5],
}

pub(crate) struct DeviceMetrics {
    id: DeviceId,
    /// `{device}.utilization`.
    pub(crate) utilization: Gauge,
    /// `breaker.{device}.state`.
    pub(crate) breaker_state: Gauge,
    /// `dataplane.{device}.bytes_resident`.
    pub(crate) bytes_resident: Gauge,
}

pub(crate) struct ShardMetrics {
    /// `dispatch.shard.{shard}.depth`.
    pub(crate) depth: Gauge,
    /// `dispatch.shard.{shard}.ejected`.
    pub(crate) ejected: Counter,
}

/// `guest.cold_start.{full,restore}`: a guest kernel's warm-init cost,
/// by cold-start path.
#[derive(Clone)]
pub(crate) struct ColdStartMetrics {
    full: HistogramHandle,
    restore: HistogramHandle,
}

impl ColdStartMetrics {
    /// Records the warm-init cost of `warmup` under its path; a
    /// resident kernel has none.
    pub(crate) fn observe(&self, warmup: &Warmup) {
        let (h, cost) = match warmup {
            Warmup::Resident => return,
            Warmup::Instantiate(cost) => (&self.full, cost),
            Warmup::Restore(cost) => (&self.restore, cost),
        };
        h.observe(cost.as_secs_f64());
    }
}

/// Handles for every metric a server emits. Each field is
/// named after its metric (`.` becomes `_`).
pub(crate) struct ServerMetrics {
    reg: MetricsRegistry,
    kernels: RefCell<BTreeMap<String, Rc<KernelMetrics>>>,
    error_kinds: RefCell<BTreeMap<&'static str, Counter>>,
    fault_kinds: RefCell<BTreeMap<&'static str, Counter>>,
    tenant_fuel: RefCell<BTreeMap<String, Counter>>,
    devices: Vec<DeviceMetrics>,
    pub(crate) shards: Vec<ShardMetrics>,
    /// The global stage-latency histograms, in [`STAGES`] order.
    pub(crate) stages: [HistogramHandle; 5],
    pub(crate) invocations: Counter,
    pub(crate) cold_starts: Counter,
    pub(crate) degraded_served: Counter,
    errors: Counter,
    pub(crate) retries_attempted: Counter,
    pub(crate) evictions: Counter,
    faults_injected: Counter,
    pub(crate) in_flight: Gauge,
    pub(crate) runners: Gauge,
    pub(crate) admission_limit: Gauge,
    pub(crate) dispatch_front_door_ns: HistogramHandle,
    pub(crate) dispatch_shard_ns: HistogramHandle,
    pub(crate) dispatch_ejected: Counter,
    pub(crate) dispatch_batches: Counter,
    pub(crate) dispatch_batch_members: Counter,
    pub(crate) dataplane_hits: Counter,
    pub(crate) dataplane_misses: Counter,
    pub(crate) dataplane_evictions: Counter,
    pub(crate) dataplane_puts: Counter,
    pub(crate) dataplane_objects: Gauge,
    pub(crate) dataplane_bytes_stored: Gauge,
    pub(crate) dataplane_bytes_resident: Gauge,
    pub(crate) guest_registered: Counter,
    pub(crate) guest_removed: Counter,
    pub(crate) guest_cold_start: ColdStartMetrics,
    pub(crate) guest_predicted_fuel: HistogramHandle,
    pub(crate) guest_invocations: Counter,
    pub(crate) guest_fuel_used: Counter,
    pub(crate) guest_bytes: Counter,
    pub(crate) workflow_registered: Counter,
    pub(crate) workflow_runs: Counter,
    pub(crate) workflow_steps: Counter,
    pub(crate) workflow_chained_hits: Counter,
    pub(crate) workflow_failures: Counter,
    pub(crate) workflow_latency: HistogramHandle,
    pub(crate) workflow_active: Gauge,
    pub(crate) workflow_intermediates_live: Gauge,
}

impl ServerMetrics {
    /// Handles into a new registry, for a server of `devices` and
    /// `shards` dispatch shards.
    pub(crate) fn new(devices: &[Device], shards: usize) -> Self {
        let reg = MetricsRegistry::new();
        ServerMetrics {
            kernels: RefCell::default(),
            error_kinds: RefCell::default(),
            fault_kinds: RefCell::default(),
            tenant_fuel: RefCell::default(),
            devices: devices
                .iter()
                .map(|d| {
                    let device = d.id();
                    DeviceMetrics {
                        id: device,
                        utilization: reg.gauge_handle(&format!("{}.utilization", device)),
                        breaker_state: reg.gauge_handle(&format!("breaker.{device}.state")),
                        bytes_resident: reg
                            .gauge_handle(&format!("dataplane.{dev}.bytes_resident", dev = device)),
                    }
                })
                .collect(),
            shards: (0..shards)
                .map(|shard| ShardMetrics {
                    depth: reg.gauge_handle(&format!("dispatch.shard.{shard}.depth")),
                    ejected: reg.counter_handle(&format!("dispatch.shard.{shard}.ejected")),
                })
                .collect(),
            stages: STAGES.map(|name| reg.histogram_handle(name)),
            invocations: reg.counter_handle("invocations"),
            cold_starts: reg.counter_handle("cold_starts"),
            degraded_served: reg.counter_handle("degraded.served"),
            errors: reg.counter_handle("errors"),
            retries_attempted: reg.counter_handle("retries.attempted"),
            evictions: reg.counter_handle("evictions"),
            faults_injected: reg.counter_handle("faults.injected"),
            in_flight: reg.gauge_handle("in_flight"),
            runners: reg.gauge_handle("runners"),
            admission_limit: reg.gauge_handle("admission.limit"),
            dispatch_front_door_ns: reg.histogram_handle("dispatch.front_door_ns"),
            dispatch_shard_ns: reg.histogram_handle("dispatch.shard_ns"),
            dispatch_ejected: reg.counter_handle("dispatch.ejected"),
            dispatch_batches: reg.counter_handle("dispatch.batches"),
            dispatch_batch_members: reg.counter_handle("dispatch.batch_members"),
            dataplane_hits: reg.counter_handle("dataplane.hits"),
            dataplane_misses: reg.counter_handle("dataplane.misses"),
            dataplane_evictions: reg.counter_handle("dataplane.evictions"),
            dataplane_puts: reg.counter_handle("dataplane.puts"),
            dataplane_objects: reg.gauge_handle("dataplane.objects"),
            dataplane_bytes_stored: reg.gauge_handle("dataplane.bytes_stored"),
            dataplane_bytes_resident: reg.gauge_handle("dataplane.bytes_resident"),
            guest_registered: reg.counter_handle("guest.registered"),
            guest_removed: reg.counter_handle("guest.removed"),
            guest_cold_start: ColdStartMetrics {
                full: reg.histogram_handle("guest.cold_start.full"),
                restore: reg.histogram_handle("guest.cold_start.restore"),
            },
            guest_predicted_fuel: reg.histogram_handle("guest.predicted_fuel"),
            guest_invocations: reg.counter_handle("guest.invocations"),
            guest_fuel_used: reg.counter_handle("guest.fuel_used"),
            guest_bytes: reg.counter_handle("guest.bytes"),
            workflow_registered: reg.counter_handle("workflow.registered"),
            workflow_runs: reg.counter_handle("workflow.runs"),
            workflow_steps: reg.counter_handle("workflow.steps"),
            workflow_chained_hits: reg.counter_handle("workflow.chained_hits"),
            workflow_failures: reg.counter_handle("workflow.failures"),
            workflow_latency: reg.histogram_handle("workflow.latency"),
            workflow_active: reg.gauge_handle("workflow.active"),
            workflow_intermediates_live: reg.gauge_handle("workflow.intermediates_live"),
            reg,
        }
    }

    /// The registry the handles write into, for readers.
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.reg
    }

    /// `invocations.{k}` and the `{stage}.{k}` histograms of kernel `k`.
    pub(crate) fn kernel(&self, k: &str) -> Rc<KernelMetrics> {
        if let Some(km) = self.kernels.borrow().get(k) {
            return Rc::clone(km);
        }
        let reg = &self.reg;
        let km = Rc::new(KernelMetrics {
            invocations: reg.counter_handle(&format!("invocations.{k}")),
            stages: STAGES.map(|name| reg.histogram_handle(&format!("{name}.{k}"))),
        });
        self.kernels
            .borrow_mut()
            .insert(k.to_owned(), Rc::clone(&km));
        km
    }

    /// The handles of every device, in the fleet's order (the order of
    /// the devices the server was built with).
    pub(crate) fn devices(&self) -> &[DeviceMetrics] {
        &self.devices
    }

    /// The handles of `device`.
    pub(crate) fn device(&self, device: DeviceId) -> &DeviceMetrics {
        self.devices
            .iter()
            .find(|d| d.id == device)
            .expect("device managed by this server")
    }

    /// Counts one failed request: `errors` and `errors.{kind}`.
    pub(crate) fn error(&self, kind: &'static str) {
        self.errors.inc();
        self.error_kinds
            .borrow_mut()
            .entry(kind)
            .or_insert_with(|| self.reg.counter_handle(&format!("errors.{}", kind)))
            .inc();
    }

    /// Counts one injected fault: `faults.injected` and `faults.{kind}`.
    pub(crate) fn fault(&self, kind: &'static str) {
        self.faults_injected.inc();
        self.fault_kinds
            .borrow_mut()
            .entry(kind)
            .or_insert_with(|| self.reg.counter_handle(&format!("faults.{kind}")))
            .inc();
    }

    /// `guest.tenant.{tenant}.fuel`.
    pub(crate) fn tenant_fuel(&self, tenant: &str) -> Counter {
        if let Some(c) = self.tenant_fuel.borrow().get(tenant) {
            return c.clone();
        }
        let c = self
            .reg
            .counter_handle(&format!("guest.tenant.{tenant}.fuel"));
        self.tenant_fuel
            .borrow_mut()
            .insert(tenant.to_owned(), c.clone());
        c
    }
}

/// A client's own metrics, in the registry
/// [`KaasClient::metrics_registry`](crate::KaasClient::metrics_registry)
/// returns.
pub(crate) struct ClientMetrics {
    reg: MetricsRegistry,
    pub(crate) retries_budget_exhausted: Counter,
}

impl ClientMetrics {
    pub(crate) fn new() -> Self {
        let reg = MetricsRegistry::new();
        ClientMetrics {
            retries_budget_exhausted: reg.counter_handle("retries.budget_exhausted"),
            reg,
        }
    }

    /// The registry the handles write into, for readers.
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.reg
    }
}

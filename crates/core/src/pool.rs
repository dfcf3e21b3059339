//! Runner lifecycle: the [`RunnerPool`] owns every [`RunnerSlot`] —
//! spawning runners onto devices, warm lookup, idle reaping, failure
//! kills, and per-kernel / per-device accounting.
//!
//! The pool is pure mechanism: *when* to start or stop runners is
//! decided by the [scheduler](crate::scheduler) and the server's
//! scale-out rule
//! ([`ServerConfig::autoscale`](crate::ServerConfig::autoscale)); the
//! pool only enforces physical placement limits (one runner per
//! device, one per chip on TPUs).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use kaas_accel::{Device, DeviceClass, DeviceId, MemoryManager};
use kaas_kernels::Kernel;
use kaas_simtime::sync::Event;
use kaas_simtime::{now, sleep, spawn, SimTime, SpanSink};

use crate::server::KernelStats;

use crate::metrics::handles::ColdStartMetrics;
use crate::metrics::RunnerId;
use crate::protocol::InvokeError;
use crate::runner::{RunnerConfig, TaskRunner};

/// A runner slot: claimed synchronously at dispatch time, filled by an
/// asynchronous cold start.
pub struct RunnerSlot {
    device: DeviceId,
    /// The device's position in the pool's fleet, so placement reads it
    /// without searching the fleet by id.
    position: usize,
    claimed: Cell<usize>,
    ready: Event,
    runner: RefCell<Option<Rc<TaskRunner>>>,
    dead: Cell<bool>,
    last_used: Cell<SimTime>,
    consecutive_failures: Cell<u32>,
    /// Shared per-device claim ledger: every guard on any slot of this
    /// device moves the same signed counter, giving the sanitizer an
    /// independent balance to cross-check against the per-slot counts.
    #[cfg(feature = "sim-sanitizer")]
    device_ledger: Rc<Cell<i64>>,
}

impl std::fmt::Debug for RunnerSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunnerSlot")
            .field("device", &self.device)
            .field("claimed", &self.claimed.get())
            .field("warm", &self.is_warm())
            .field("dead", &self.dead.get())
            .finish()
    }
}

impl RunnerSlot {
    /// Device hosting this runner.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// In-flight invocations currently claimed against this slot.
    pub fn claimed(&self) -> usize {
        self.claimed.get()
    }

    /// Whether the runner finished its cold start.
    pub fn is_warm(&self) -> bool {
        self.ready.is_set()
    }

    /// Whether the slot can still serve work (not reaped or failed).
    pub fn is_usable(&self) -> bool {
        !self.dead.get()
    }

    /// Marks the slot dead so no further work routes to it.
    pub(crate) fn retire(&self) {
        self.dead.set(true);
    }

    /// Waits until the cold start completed and returns the runner.
    pub(crate) async fn runner(&self) -> Rc<TaskRunner> {
        self.ready.wait().await;
        self.runner
            .borrow()
            .clone()
            .expect("slot signalled ready without a runner")
    }

    /// Waits until the runner is warm (prewarm path).
    pub(crate) async fn wait_ready(&self) {
        self.ready.wait().await;
    }

    /// Records an invocation completion for idle accounting.
    pub(crate) fn touch(&self) {
        self.last_used.set(now());
    }

    /// Records a successful invocation: resets the failure streak.
    pub(crate) fn record_success(&self) {
        self.consecutive_failures.set(0);
    }

    /// Records a failed invocation; returns `true` when the streak
    /// reached `threshold` and the slot should be quarantined.
    pub(crate) fn record_failure(&self, threshold: u32) -> bool {
        let n = self.consecutive_failures.get() + 1;
        self.consecutive_failures.set(n);
        n >= threshold
    }

    /// A slot on `device` holding `claimed` claims, warm or still
    /// cold-starting, for placement tests.
    #[cfg(test)]
    pub(crate) fn for_test(device: DeviceId, claimed: usize, warm: bool) -> Rc<RunnerSlot> {
        let slot = RunnerSlot {
            device,
            position: device.0 as usize,
            claimed: Cell::new(claimed),
            ready: Event::new(),
            runner: RefCell::new(None),
            dead: Cell::new(false),
            last_used: Cell::new(SimTime::ZERO),
            consecutive_failures: Cell::new(0),
            #[cfg(feature = "sim-sanitizer")]
            device_ledger: Rc::new(Cell::new(0)),
        };
        if warm {
            slot.ready.set();
        }
        Rc::new(slot)
    }
}

/// RAII claim on a slot's in-flight budget: increments `claimed` on
/// construction and decrements on drop, so the count is released on
/// *every* exit path (success, kernel error, retry, panic).
///
/// When the invocation reads a device-resident object, the guard also
/// holds an in-flight reference on it in the device's memory manager
/// ([`MemoryManager::retain`]) so the operand cannot be evicted while
/// the kernel reads it; the reference releases on the same drop.
#[derive(Debug)]
pub(crate) struct InFlightGuard {
    slot: Rc<RunnerSlot>,
    object: Option<(Rc<MemoryManager>, u64)>,
}

impl InFlightGuard {
    #[cfg(test)]
    pub(crate) fn claim(slot: &Rc<RunnerSlot>) -> Self {
        Self::claim_with_object(slot, None)
    }

    pub(crate) fn claim_with_object(
        slot: &Rc<RunnerSlot>,
        object: Option<(Rc<MemoryManager>, u64)>,
    ) -> Self {
        slot.claimed.set(slot.claimed.get() + 1);
        #[cfg(feature = "sim-sanitizer")]
        slot.device_ledger.set(slot.device_ledger.get() + 1);
        if let Some((mgr, hash)) = &object {
            mgr.retain(*hash);
        }
        InFlightGuard {
            slot: Rc::clone(slot),
            object,
        }
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.slot.claimed.set(self.slot.claimed.get() - 1);
        #[cfg(feature = "sim-sanitizer")]
        self.slot
            .device_ledger
            .set(self.slot.device_ledger.get() - 1);
        if let Some((mgr, hash)) = &self.object {
            mgr.release(*hash);
        }
    }
}

/// Callback dropping a device's cached residency set (see
/// [`RunnerPool::set_residency_invalidator`]).
type ResidencyInvalidator = Rc<dyn Fn(DeviceId)>;

/// Owns every runner slot in a deployment, keyed by kernel name.
pub struct RunnerPool {
    devices: Vec<Device>,
    /// Keyed by kernel name. Deliberately a `BTreeMap`: the pool is
    /// iterated on several paths (stats, device crashes) and replay
    /// determinism requires a stable visit order.
    slots: RefCell<BTreeMap<String, Vec<Rc<RunnerSlot>>>>,
    next_runner: Cell<u32>,
    reaped: Cell<usize>,
    quarantined: Cell<usize>,
    slow_start: Cell<Duration>,
    tracer: Option<SpanSink>,
    /// Bills guest warm-init phases (`guest.cold_start.{full,restore}`
    /// histograms) at cold-start time.
    metrics: Option<ColdStartMetrics>,
    /// Called whenever a device's runner process dies (crash, kill,
    /// reap): device memory allocations die with the process, so the
    /// data plane must drop its residency for that device.
    residency_invalidator: RefCell<Option<ResidencyInvalidator>>,
    /// One signed claim counter per device, shared with every slot
    /// spawned on that device (see [`RunnerSlot::device_ledger`]).
    #[cfg(feature = "sim-sanitizer")]
    claim_ledgers: RefCell<BTreeMap<DeviceId, Rc<Cell<i64>>>>,
}

impl std::fmt::Debug for RunnerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunnerPool")
            .field("devices", &self.devices.len())
            .field("kernels", &self.slots.borrow().len())
            .field("reaped", &self.reaped.get())
            .finish()
    }
}

impl RunnerPool {
    /// Creates a pool managing `devices`.
    pub fn new(devices: Vec<Device>) -> Self {
        RunnerPool {
            devices,
            slots: RefCell::new(BTreeMap::new()),
            next_runner: Cell::new(0),
            reaped: Cell::new(0),
            quarantined: Cell::new(0),
            slow_start: Cell::new(Duration::ZERO),
            tracer: None,
            metrics: None,
            residency_invalidator: RefCell::new(None),
            #[cfg(feature = "sim-sanitizer")]
            claim_ledgers: RefCell::new(BTreeMap::new()),
        }
    }

    /// The shared claim ledger for `device`, created on first use.
    #[cfg(feature = "sim-sanitizer")]
    fn device_ledger(&self, device: DeviceId) -> Rc<Cell<i64>> {
        Rc::clone(self.claim_ledgers.borrow_mut().entry(device).or_default())
    }

    /// Sanitizer view: per-device `(device, ledger, per-slot sum)` claim
    /// balances. In a correct run the two counts agree and are never
    /// negative — the ledger moves only through [`InFlightGuard`], the
    /// per-slot counts through the slots themselves.
    #[cfg(feature = "sim-sanitizer")]
    pub fn claim_balances(&self) -> Vec<(DeviceId, i64, i64)> {
        let slots = self.slots.borrow();
        self.claim_ledgers
            .borrow()
            .iter()
            .map(|(dev, ledger)| {
                let counted: i64 = slots
                    .values()
                    .flat_map(|v| v.iter())
                    .filter(|s| s.device == *dev)
                    .map(|s| s.claimed.get() as i64)
                    .sum();
                (*dev, ledger.get(), counted)
            })
            .collect()
    }

    /// Registers the hook invoked with a device's id whenever a runner
    /// process on it dies — the data plane clears that device's
    /// residency so post-fault retries re-upload instead of reading
    /// stale device pointers.
    pub fn set_residency_invalidator(&self, f: impl Fn(DeviceId) + 'static) {
        *self.residency_invalidator.borrow_mut() = Some(Rc::new(f));
    }

    /// Reports the loss of every memory allocation on `device` (its
    /// owning runner process died).
    fn note_device_lost(&self, device: DeviceId) {
        let hook = self.residency_invalidator.borrow().clone();
        if let Some(f) = hook {
            f(device);
        }
    }

    /// Attaches a span sink: every cold start records a `cold_start`
    /// span on its runner's `runner{N}` track.
    pub fn set_tracer(&mut self, tracer: SpanSink) {
        self.tracer = Some(tracer);
    }

    /// Attaches the warm-init histograms: cold starts of guest kernels
    /// record their warm-init cost under `guest.cold_start.{path}`
    /// (`full` for a full instantiate, `restore` for a snapshot restore).
    pub(crate) fn set_metrics(&mut self, metrics: ColdStartMetrics) {
        self.metrics = Some(metrics);
    }

    /// The managed devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Device classes available in this deployment.
    pub fn device_classes(&self) -> Vec<DeviceClass> {
        let mut classes: Vec<DeviceClass> = self.devices.iter().map(Device::class).collect();
        classes.sort();
        classes.dedup();
        classes
    }

    /// Number of runners reaped by the idle timeout so far.
    pub fn reaped(&self) -> usize {
        self.reaped.get()
    }

    /// Number of runner slots quarantined for persistent failure so far
    /// (see [`EvictionConfig`](crate::EvictionConfig)).
    pub fn quarantined(&self) -> usize {
        self.quarantined.get()
    }

    /// Quarantines a failing slot: retires it (no further placements)
    /// and counts the eviction.
    pub(crate) fn quarantine(&self, slot: &RunnerSlot) {
        if slot.is_usable() {
            slot.retire();
            self.quarantined.set(self.quarantined.get() + 1);
        }
    }

    /// The device with identity `id`, if this pool manages it.
    pub fn device(&self, id: DeviceId) -> Option<&Device> {
        self.devices.iter().find(|d| d.id() == id)
    }

    /// The device hosting `slot`, looked up by its position.
    pub(crate) fn slot_device(&self, slot: &RunnerSlot) -> &Device {
        &self.devices[slot.position]
    }

    /// Fault injection: the next cold start pays an extra `extra` of
    /// process-spawn time (a slow-starting runner — contended host,
    /// cold page cache). One-shot; consumed by the next spawn.
    pub fn slow_start_next(&self, extra: Duration) {
        self.slow_start.set(self.slow_start.get() + extra);
    }

    /// Per-kernel `(runners, in_flight)` stats for every kernel the pool
    /// has seen, in sorted name order.
    pub fn per_kernel_stats(&self) -> BTreeMap<String, KernelStats> {
        self.slots
            .borrow()
            .iter()
            .map(|(name, slots)| {
                let usable = slots.iter().filter(|s| s.is_usable());
                (
                    name.clone(),
                    KernelStats {
                        runners: usable.clone().count(),
                        in_flight: usable.map(|s| s.claimed.get()).sum(),
                    },
                )
            })
            .collect()
    }

    /// In-flight invocations across every kernel.
    pub fn total_in_flight(&self) -> usize {
        self.slots
            .borrow()
            .values()
            .flat_map(|v| v.iter())
            .map(|s| s.claimed.get())
            .sum()
    }

    /// Usable runner slots across every kernel.
    pub fn total_runners(&self) -> usize {
        self.slots
            .borrow()
            .values()
            .flat_map(|v| v.iter())
            .filter(|s| s.is_usable())
            .count()
    }

    /// Runs `f` over `kernel`'s runner slots in start order (empty for
    /// a kernel the pool has not seen) under one lookup and one borrow:
    /// placement reads the list in place. `f` must not spawn runners.
    pub(crate) fn with_slots<R>(&self, kernel: &str, f: impl FnOnce(&[Rc<RunnerSlot>]) -> R) -> R {
        f(self.slots.borrow().get(kernel).map_or(&[], Vec::as_slice))
    }

    /// Starts a new runner for `kernel` on a free device (synchronously
    /// reserving the slot, asynchronously cold-starting the runner).
    /// Runners are keyed by [`Kernel::name`].
    ///
    /// # Errors
    ///
    /// [`InvokeError::NoDevice`] if every suitable device already hosts
    /// this kernel (one runner per device; one per chip on TPUs).
    pub fn spawn_runner(
        &self,
        kernel: &Rc<dyn Kernel>,
        config: RunnerConfig,
    ) -> Result<Rc<RunnerSlot>, InvokeError> {
        self.spawn_runner_where(kernel, config, kernel.device_class(), |_| true)
    }

    /// Like [`spawn_runner`](RunnerPool::spawn_runner), but targeting an
    /// explicit device `class` (degraded fallback may differ from the
    /// kernel's preferred class) and only considering online devices for
    /// which `pred` holds (resilience: skip open breakers).
    ///
    /// The new slot joins the kernel's list after the list drops its
    /// dead slots that hold no claims, so reaped, quarantined and
    /// crashed runners do not pile up across respawns.
    pub fn spawn_runner_where(
        &self,
        kernel: &Rc<dyn Kernel>,
        config: RunnerConfig,
        class: DeviceClass,
        pred: impl Fn(&Device) -> bool,
    ) -> Result<Rc<RunnerSlot>, InvokeError> {
        let mut config = config;
        config.spawn_process += self.slow_start.replace(Duration::ZERO);
        let mut slots = self.slots.borrow_mut();
        // Copy the name only for a kernel's first runner: a respawn finds
        // the entry.
        if !slots.contains_key(kernel.name()) {
            slots.insert(kernel.name().to_owned(), Vec::new());
        }
        let list = slots
            .get_mut(kernel.name())
            .expect("the kernel's entry exists");
        let (position, device) = self
            .devices
            .iter()
            .enumerate()
            .find(|(_, d)| {
                if d.class() != class || !d.is_online() || !pred(d) {
                    return false;
                }
                let occupied = list
                    .iter()
                    .filter(|s| s.is_usable() && s.device == d.id())
                    .count();
                let capacity = match d {
                    Device::Tpu(t) => t.chips() as usize,
                    _ => 1,
                };
                occupied < capacity
            })
            .map(|(position, d)| (position, d.clone()))
            .ok_or_else(|| InvokeError::NoDevice(class.to_string()))?;

        let chip = list
            .iter()
            .filter(|s| s.is_usable() && s.device == device.id())
            .count() as u32;
        let slot = Rc::new(RunnerSlot {
            device: device.id(),
            position,
            claimed: Cell::new(0),
            ready: Event::new(),
            runner: RefCell::new(None),
            dead: Cell::new(false),
            last_used: Cell::new(now()),
            consecutive_failures: Cell::new(0),
            #[cfg(feature = "sim-sanitizer")]
            device_ledger: self.device_ledger(device.id()),
        });
        list.retain(|s| s.is_usable() || s.claimed.get() > 0);
        list.push(Rc::clone(&slot));
        drop(slots);

        let id = RunnerId(self.next_runner.get());
        self.next_runner.set(id.0 + 1);
        let kernel = Rc::clone(kernel);
        let slot2 = Rc::clone(&slot);
        let tracer = self.tracer.clone();
        let metrics = self.metrics.clone();
        let warmup = kernel.warmup();
        // Only the cold-start span reads the name.
        let kernel_name = tracer.as_ref().map(|_| kernel.name().to_owned());
        spawn(async move {
            let t0 = now();
            let runner = TaskRunner::cold_start(id, kernel, device, chip, config).await;
            // Warm-init is the runner's final cold-start phase, so its
            // interval is exactly the trailing `cost` of the whole span.
            if let Some((path, cost)) = warmup.cost() {
                if let Some(m) = &metrics {
                    m.observe(&warmup);
                }
                if let Some(tracer) = &tracer {
                    let end = now();
                    tracer.record(
                        id.to_string(),
                        "warm_init",
                        end.saturating_sub(cost),
                        end,
                        None,
                        vec![("path".into(), path.into())],
                    );
                }
            }
            if let (Some(tracer), Some(kernel_name)) = (&tracer, kernel_name) {
                tracer.record(
                    id.to_string(),
                    "cold_start",
                    t0,
                    now(),
                    None,
                    vec![("kernel".into(), kernel_name)],
                );
            }
            *slot2.runner.borrow_mut() = Some(Rc::new(runner));
            slot2.ready.set();
        });
        Ok(slot)
    }

    /// Schedules an idle check for `slot` one timeout from now; the slot
    /// is reaped if no invocation touched it in the meantime. Checks are
    /// one-shot (armed per completed invocation), so an idle deployment
    /// quiesces instead of polling forever. A busy slot (claims in
    /// flight) is never reaped.
    pub(crate) fn arm_reaper(self: &Rc<Self>, slot: &Rc<RunnerSlot>, timeout: Duration) {
        let slot = Rc::clone(slot);
        let pool = Rc::clone(self);
        let armed_at = now();
        spawn(async move {
            sleep(timeout).await;
            if slot.dead.get() || slot.claimed.get() > 0 {
                return;
            }
            if slot.last_used.get() > armed_at {
                // Someone used the runner since; their completion armed a
                // fresher check.
                return;
            }
            slot.dead.set(true);
            if let Some(runner) = slot.runner.borrow().as_ref() {
                runner.kill();
            }
            pool.note_device_lost(slot.device);
            pool.reaped.set(pool.reaped.get() + 1);
        });
    }

    /// Kills the runner currently serving `kernel` on `device` (failure
    /// injection for tests).
    pub fn kill_runner(&self, kernel: &str, device: DeviceId) -> bool {
        let slots = self.slots.borrow();
        if let Some(list) = slots.get(kernel) {
            for slot in list {
                if slot.device == device && slot.is_usable() {
                    if let Some(runner) = slot.runner.borrow().as_ref() {
                        runner.kill();
                        self.note_device_lost(device);
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Crashes the first warm usable runner of `kernel` (fault
    /// injection): the process dies, in-flight invocations on it fail
    /// with `RunnerFailed`. Returns the crashed runner's id.
    pub fn crash_runner(&self, kernel: &str) -> Option<RunnerId> {
        let slots = self.slots.borrow();
        let list = slots.get(kernel)?;
        for slot in list {
            if slot.is_usable() {
                if let Some(runner) = slot.runner.borrow().as_ref() {
                    runner.kill();
                    self.note_device_lost(slot.device);
                    return Some(runner.id());
                }
            }
        }
        None
    }

    /// Crashes every runner hosted on `device` and quarantines their
    /// slots (fault injection: the device dropped off the bus). Kernels
    /// are visited in sorted name order (the map is a `BTreeMap`) so
    /// identical simulations crash identically. Returns the number of
    /// runners taken down.
    pub fn crash_device(&self, device: DeviceId) -> usize {
        let slots = self.slots.borrow();
        let mut killed = 0;
        for list in slots.values() {
            for slot in list {
                if slot.device == device && slot.is_usable() {
                    if let Some(runner) = slot.runner.borrow().as_ref() {
                        runner.kill();
                    }
                    slot.retire();
                    killed += 1;
                }
            }
        }
        if killed > 0 {
            self.note_device_lost(device);
        }
        killed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_accel::{GpuDevice, GpuProfile};
    use kaas_kernels::MonteCarlo;
    use kaas_simtime::Simulation;

    fn gpus(n: u32) -> Vec<Device> {
        (0..n)
            .map(|i| GpuDevice::new(DeviceId(i), GpuProfile::p100()).into())
            .collect()
    }

    fn mci() -> Rc<dyn Kernel> {
        Rc::new(MonteCarlo::default())
    }

    #[test]
    fn spawn_fills_devices_then_errors() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let pool = Rc::new(RunnerPool::new(gpus(2)));
            let k = mci();
            pool.spawn_runner(&k, RunnerConfig::default()).unwrap();
            pool.spawn_runner(&k, RunnerConfig::default()).unwrap();
            assert_eq!(pool.per_kernel_stats()["mci"].runners, 2);
            let err = pool.spawn_runner(&k, RunnerConfig::default()).unwrap_err();
            assert!(matches!(err, InvokeError::NoDevice(_)));
        });
    }

    #[test]
    fn in_flight_guard_releases_on_drop() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let pool = Rc::new(RunnerPool::new(gpus(1)));
            let k = mci();
            let slot = pool.spawn_runner(&k, RunnerConfig::default()).unwrap();
            {
                let _a = InFlightGuard::claim(&slot);
                let _b = InFlightGuard::claim(&slot);
                assert_eq!(pool.per_kernel_stats()["mci"].in_flight, 2);
            }
            assert_eq!(pool.per_kernel_stats()["mci"].in_flight, 0);
        });
    }

    #[test]
    fn reaper_never_kills_a_busy_slot() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let pool = Rc::new(RunnerPool::new(gpus(1)));
            let k = mci();
            let slot = pool.spawn_runner(&k, RunnerConfig::default()).unwrap();
            slot.wait_ready().await;
            // An invocation is in flight while the idle check fires.
            let guard = InFlightGuard::claim(&slot);
            pool.arm_reaper(&slot, Duration::from_secs(1));
            sleep(Duration::from_secs(5)).await;
            assert!(slot.is_usable(), "busy slot must survive the reaper");
            assert_eq!(pool.reaped(), 0);
            drop(guard);
            // Now idle: the next armed check reaps it.
            pool.arm_reaper(&slot, Duration::from_secs(1));
            sleep(Duration::from_secs(5)).await;
            assert!(!slot.is_usable());
            assert_eq!(pool.reaped(), 1);
        });
    }

    #[test]
    fn recent_use_defers_the_reaper() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let pool = Rc::new(RunnerPool::new(gpus(1)));
            let k = mci();
            let slot = pool.spawn_runner(&k, RunnerConfig::default()).unwrap();
            slot.wait_ready().await;
            pool.arm_reaper(&slot, Duration::from_secs(10));
            // A completion touches the slot before the check fires.
            sleep(Duration::from_secs(5)).await;
            slot.touch();
            sleep(Duration::from_secs(6)).await;
            assert!(slot.is_usable(), "freshly used slot must not be reaped");
        });
    }
}

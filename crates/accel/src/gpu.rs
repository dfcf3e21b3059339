//! GPU device model (Nvidia P100 / V100 / A100 class).
//!
//! Calibration sources (sections/figures of the KaaS paper):
//!
//! * **Per-execution CUDA initialization ≈ 410 ms** — §5.1: "The KaaS
//!   approach reduces general computation time by 406 ms to 419 ms,
//!   regardless of task size. We expect this reduction to be caused by the
//!   additional CUDA initialization that has to be performed for each
//!   execution in the baseline model."
//! * **Baseline process overhead ≈ 689 ms at small sizes** — Fig. 7:
//!   "this overhead is reduced from 689 ms to 123 ms" for 500×500
//!   matrices. We split it into Python launch (120 ms, which the thin
//!   KaaS client also pays), the `numba` import (430 ms), and CUDA
//!   cleanup (139 ms).
//! * **Fresh contexts pay a flat lazy-initialization penalty on their
//!   copies** (allocator and staging-buffer setup) — drives the Fig. 9
//!   kernel-time slowdown of time/space sharing at small sizes while
//!   keeping exclusive kernel time near-isolated at large sizes.
//! * **Per-GPU performance variability up to 14.3 %** — §5.6.1 observes
//!   a 1.85 s (14.3 %) completion-time spread between the GPUs of the
//!   same cluster, which makes KaaS's round-robin placement *lose* to the
//!   baseline's always-GPU-0 placement for the GA kernel.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use kaas_simtime::sleep;
use kaas_simtime::sync::{Semaphore, SemaphoreGuard};

use crate::device::DeviceId;
use crate::power::PowerProfile;
use crate::ps::SharedProcessor;
use crate::work::WorkUnits;
use crate::xfer::TransferEngine;

/// Static timing/throughput parameters of a GPU model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuProfile {
    /// Marketing name.
    pub name: &'static str,
    /// Sustained single-kernel throughput at efficiency 1.0, in FLOP/s.
    pub effective_flops: f64,
    /// PCIe copy bandwidth with pinned, pooled buffers (warm context).
    pub pcie_pinned_bps: f64,
    /// Flat lazy-initialization penalty added to each copy direction in
    /// a fresh context (allocator/staging setup on the first touch).
    pub fresh_copy_penalty: Duration,
    /// CUDA context creation cost, paid per process in the baselines and
    /// once per task-runner cold start in KaaS.
    pub context_init: Duration,
    /// Kernel launch overhead.
    pub launch_overhead: Duration,
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Idle/active power draw.
    pub power: PowerProfile,
    /// Relative performance of this physical unit (1.0 = nominal); §5.6.1
    /// observed up to 14.3 % spread across "identical" GPUs.
    pub speed_factor: f64,
    /// Multiplier applied to a kernel's reference demand: smaller dies
    /// saturate at lower concurrency.
    pub demand_scale: f64,
    /// Per-process `import numba`/`import torch` cost (baselines pay it
    /// per task; a KaaS runner pays it once at spawn).
    pub runtime_import: Duration,
    /// Per-process CUDA teardown (cudaFree, stream destruction, ...).
    pub process_cleanup: Duration,
}

impl GpuProfile {
    /// Nvidia Tesla P100 PCIe, 56 SMs, 16 GB (the §5.1–5.2 testbed).
    pub fn p100() -> Self {
        GpuProfile {
            name: "Tesla P100",
            effective_flops: 3.0e12,
            pcie_pinned_bps: 12.0e9,
            fresh_copy_penalty: Duration::from_millis(25),
            context_init: Duration::from_millis(410),
            launch_overhead: Duration::from_micros(8),
            mem_bytes: 16 * 1024 * 1024 * 1024,
            power: PowerProfile::gpu_p100(),
            speed_factor: 1.0,
            demand_scale: 2.8,
            runtime_import: Duration::from_millis(430),
            process_cleanup: Duration::from_millis(139),
        }
    }

    /// Nvidia Tesla V100 SXM2, 80 SMs, 32 GB (the §5.4–5.5 testbed).
    pub fn v100() -> Self {
        GpuProfile {
            name: "Tesla V100",
            effective_flops: 4.4e12,
            pcie_pinned_bps: 13.0e9,
            fresh_copy_penalty: Duration::from_millis(25),
            // §5.4: "a static mean 1.22 s cold start overhead".
            context_init: Duration::from_millis(1_220),
            launch_overhead: Duration::from_micros(6),
            mem_bytes: 32 * 1024 * 1024 * 1024,
            power: PowerProfile::gpu_v100(),
            speed_factor: 1.0,
            demand_scale: 1.0,
            runtime_import: Duration::from_millis(430),
            process_cleanup: Duration::from_millis(139),
        }
    }

    /// Nvidia A100 80 GB (the Fig. 2 motivating-example testbed).
    pub fn a100() -> Self {
        GpuProfile {
            name: "A100 80GB",
            effective_flops: 8.0e12,
            pcie_pinned_bps: 24.0e9,
            fresh_copy_penalty: Duration::from_millis(20),
            context_init: Duration::from_millis(380),
            launch_overhead: Duration::from_micros(5),
            mem_bytes: 80 * 1024 * 1024 * 1024,
            power: PowerProfile::new(40.0, 300.0),
            speed_factor: 1.0,
            demand_scale: 0.8,
            runtime_import: Duration::from_millis(430),
            process_cleanup: Duration::from_millis(139),
        }
    }

    /// Returns the profile with a different per-unit speed factor.
    pub fn with_speed_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite(), "invalid speed factor");
        self.speed_factor = factor;
        self
    }
}

/// Timing breakdown of the device-side phases of one invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuTimings {
    /// Host→device copy time.
    pub copy_in: Duration,
    /// Kernel occupancy (launch + compute).
    pub kernel: Duration,
    /// Device→host copy time.
    pub copy_out: Duration,
}

impl GpuTimings {
    /// Copy + compute total ("kernel time" in the paper's terminology).
    pub fn kernel_time(&self) -> Duration {
        self.copy_in + self.kernel + self.copy_out
    }

    /// The device-side phases as ordered `(name, duration)` sub-spans.
    /// The phases run back to back on the device, so a tracer can tile
    /// them backwards from the invocation's end instant.
    pub fn phases(&self) -> [(&'static str, Duration); 3] {
        [
            ("copy_in", self.copy_in),
            ("kernel_exec", self.kernel),
            ("copy_out", self.copy_out),
        ]
    }
}

struct GpuInner {
    id: DeviceId,
    profile: GpuProfile,
    compute: SharedProcessor,
    pcie: TransferEngine,
    exclusive: Semaphore,
    contexts: Cell<u32>,
    online: Cell<bool>,
}

/// A simulated GPU: demand-weighted spatially shared compute (MPS model)
/// plus a serialized PCIe copy engine.
///
/// # Examples
///
/// ```
/// use kaas_accel::{GpuDevice, GpuProfile, WorkUnits, DeviceId};
/// use kaas_simtime::Simulation;
///
/// let mut sim = Simulation::new();
/// let t = sim.block_on(async {
///     let gpu = GpuDevice::new(DeviceId(0), GpuProfile::p100());
///     let work = WorkUnits::new(7.0e10).with_bytes(1_200_000, 0);
///     gpu.execute(&work, 0.5, false).await.kernel_time()
/// });
/// assert!(t.as_secs_f64() > 0.01);
/// ```
#[derive(Clone)]
pub struct GpuDevice {
    inner: Rc<GpuInner>,
}

impl std::fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuDevice")
            .field("id", &self.inner.id)
            .field("name", &self.inner.profile.name)
            .field("speed_factor", &self.inner.profile.speed_factor)
            .finish()
    }
}

impl GpuDevice {
    /// Creates a GPU with the given identity and profile.
    pub fn new(id: DeviceId, profile: GpuProfile) -> Self {
        GpuDevice {
            inner: Rc::new(GpuInner {
                id,
                compute: SharedProcessor::new(profile.effective_flops * profile.speed_factor),
                pcie: TransferEngine::new(profile.pcie_pinned_bps),
                exclusive: Semaphore::new(1),
                contexts: Cell::new(0),
                online: Cell::new(true),
                profile,
            }),
        }
    }

    /// Device identity.
    pub fn id(&self) -> DeviceId {
        self.inner.id
    }

    /// Whether the device is online (fault injection can flip this).
    pub fn is_online(&self) -> bool {
        self.inner.online.get()
    }

    /// Takes the device offline (or back online) — the fault-injection
    /// hook; an offline device serves no new work.
    pub fn set_online(&self, online: bool) {
        self.inner.online.set(online);
    }

    /// Static profile.
    pub fn profile(&self) -> &GpuProfile {
        &self.inner.profile
    }

    /// Creates a CUDA context: sleeps for the context-init cost and
    /// registers the context. Baselines call this per task; KaaS once per
    /// runner.
    pub async fn create_context(&self) {
        sleep(self.inner.profile.context_init).await;
        self.inner.contexts.set(self.inner.contexts.get() + 1);
    }

    /// Number of live contexts (≈ resident processes/runners).
    #[cfg(test)]
    pub(crate) fn context_count(&self) -> u32 {
        self.inner.contexts.get()
    }

    /// Destroys a context (bookkeeping only; the paper's cleanup cost is
    /// charged via [`GpuProfile::process_cleanup`] by the delivery model).
    pub fn destroy_context(&self) {
        let c = self.inner.contexts.get();
        self.inner.contexts.set(c.saturating_sub(1));
    }

    /// Copies `bytes` host→device. `fresh` contexts pay the flat
    /// lazy-initialization penalty.
    pub async fn copy_in(&self, bytes: u64, fresh: bool) -> Duration {
        let extra = if fresh {
            self.inner.profile.fresh_copy_penalty
        } else {
            Duration::ZERO
        };
        self.inner.pcie.transfer(bytes, extra).await
    }

    /// Copies `bytes` device→host. `fresh` contexts pay the flat
    /// lazy-initialization penalty.
    pub async fn copy_out(&self, bytes: u64, fresh: bool) -> Duration {
        self.copy_in(bytes, fresh).await
    }

    /// Launches a kernel of `work` FLOPs (at the work's efficiency) with
    /// standalone occupancy `demand_ref` (scaled by the device's
    /// [`GpuProfile::demand_scale`]). Returns occupancy time.
    pub async fn launch_kernel(&self, work: &WorkUnits, demand_ref: f64) -> Duration {
        let p = &self.inner.profile;
        sleep(p.launch_overhead).await;
        let demand = (demand_ref * p.demand_scale).clamp(1e-3, 1.0);
        let scaled = work.flops / work.efficiency;
        p.launch_overhead + self.inner.compute.execute_with_demand(scaled, demand).await
    }

    /// Full device-side sequence for one invocation: copy-in, kernel,
    /// copy-out. `demand_ref` is the kernel's reference occupancy and
    /// `fresh` selects fresh-context copy rates.
    pub async fn execute(&self, work: &WorkUnits, demand_ref: f64, fresh: bool) -> GpuTimings {
        let copy_in = self.copy_in(work.bytes_in, fresh).await;
        let kernel = self.launch_kernel(work, demand_ref).await;
        let copy_out = self.copy_out(work.bytes_out, fresh).await;
        GpuTimings {
            copy_in,
            kernel,
            copy_out,
        }
    }

    /// Acquires the whole device (time-sharing / exclusive mode).
    pub async fn lock_exclusive(&self) -> SemaphoreGuard {
        self.inner.exclusive.acquire(1).await
    }

    /// Instantaneous compute utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.inner.compute.current_load()
    }

    /// Utilization-weighted busy seconds (compute + copies).
    pub fn busy_seconds(&self) -> f64 {
        self.inner.compute.busy_seconds() + self.inner.pcie.busy_seconds()
    }

    /// Energy drawn over a window of `total` given this device's recorded
    /// busy time.
    pub fn energy_joules(&self, total: Duration) -> f64 {
        self.inner
            .profile
            .power
            .energy_joules(total, self.busy_seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_simtime::{spawn, Simulation};

    fn p100(id: u32) -> GpuDevice {
        GpuDevice::new(DeviceId(id), GpuProfile::p100())
    }

    #[test]
    fn kernel_time_scales_with_flops() {
        let mut sim = Simulation::new();
        let (t1, t2) = sim.block_on(async {
            let gpu = p100(0);
            let a = gpu.launch_kernel(&WorkUnits::new(3.0e12), 1.0).await;
            let b = gpu.launch_kernel(&WorkUnits::new(6.0e12), 1.0).await;
            (a, b)
        });
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-3, "t1={t1:?}");
        assert!((t2.as_secs_f64() - 2.0).abs() < 1e-3, "t2={t2:?}");
    }

    #[test]
    fn efficiency_stretches_kernel_time() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            let gpu = p100(0);
            gpu.launch_kernel(&WorkUnits::new(3.0e12).with_efficiency(0.5), 1.0)
                .await
        });
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-3);
    }

    #[test]
    fn fresh_copies_pay_a_flat_penalty() {
        let mut sim = Simulation::new();
        let (warm, fresh) = sim.block_on(async {
            let gpu = p100(0);
            let w = gpu.copy_in(1_200_000_000, false).await;
            let f = gpu.copy_in(1_200_000_000, true).await;
            (w, f)
        });
        assert!((warm.as_secs_f64() - 0.1).abs() < 1e-6);
        // Same bandwidth plus the 25 ms lazy-init penalty.
        assert!(
            (fresh.as_secs_f64() - 0.125).abs() < 1e-6,
            "fresh={fresh:?}"
        );
    }

    #[test]
    fn two_heavy_kernels_contend_on_p100() {
        // MM-style kernels (reference demand 0.25, P100 scale 2.8 → 0.7
        // each) oversubscribe at 2 concurrent (Σ = 1.4): each slows by
        // the 1.4× contention factor.
        let mut sim = Simulation::new();
        let times = sim.block_on(async {
            let gpu = p100(0);
            let mut hs = Vec::new();
            for _ in 0..2 {
                let gpu = gpu.clone();
                hs.push(spawn(async move {
                    gpu.launch_kernel(&WorkUnits::new(3.0e12), 0.25).await
                }));
            }
            let mut out = Vec::new();
            for h in hs {
                out.push(h.await.as_secs_f64());
            }
            out
        });
        for t in &times {
            assert!((*t - 1.4).abs() < 1e-3, "expected 1.4 s shared, got {t}");
        }
    }

    #[test]
    fn four_light_kernels_coexist_on_v100() {
        // Fig. 13: a V100 absorbs four MM tasks without significant
        // slowdown (reference demand 0.25, scale 1.0 → Σ = 1.0): each
        // still runs at its standalone rate.
        let mut sim = Simulation::new();
        let times = sim.block_on(async {
            let gpu = GpuDevice::new(DeviceId(0), GpuProfile::v100());
            let mut hs = Vec::new();
            for _ in 0..4 {
                let gpu = gpu.clone();
                hs.push(spawn(async move {
                    gpu.launch_kernel(&WorkUnits::new(4.4e11), 0.25).await
                }));
            }
            let mut out = Vec::new();
            for h in hs {
                out.push(h.await.as_secs_f64());
            }
            out
        });
        for t in &times {
            assert!((*t - 0.1).abs() < 1e-2, "expected ~0.1 s unshared, got {t}");
        }
    }

    #[test]
    fn speed_factor_slows_the_unit() {
        let mut sim = Simulation::new();
        let (fast, slow) = sim.block_on(async {
            let fast = GpuDevice::new(DeviceId(0), GpuProfile::p100());
            let slow = GpuDevice::new(DeviceId(1), GpuProfile::p100().with_speed_factor(0.875));
            let w = WorkUnits::new(3.0e12);
            (
                fast.launch_kernel(&w, 1.0).await,
                slow.launch_kernel(&w, 1.0).await,
            )
        });
        let ratio = slow.as_secs_f64() / fast.as_secs_f64();
        assert!((ratio - 1.0 / 0.875).abs() < 1e-3, "ratio={ratio}");
    }

    #[test]
    fn context_lifecycle_tracks_count() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let gpu = p100(0);
            assert_eq!(gpu.context_count(), 0);
            gpu.create_context().await;
            gpu.create_context().await;
            assert_eq!(gpu.context_count(), 2);
            gpu.destroy_context();
            assert_eq!(gpu.context_count(), 1);
        });
    }

    #[test]
    fn context_creation_costs_410ms_on_p100() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            let gpu = p100(0);
            gpu.create_context().await;
            kaas_simtime::now()
        });
        assert_eq!(t.as_secs_f64(), 0.41);
    }

    #[test]
    fn exclusive_lock_serializes() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            let gpu = p100(0);
            let g2 = gpu.clone();
            let h = spawn(async move {
                let _g = g2.lock_exclusive().await;
                g2.launch_kernel(&WorkUnits::new(3.0e12), 1.0).await;
            });
            kaas_simtime::yield_now().await;
            let _g = gpu.lock_exclusive().await;
            gpu.launch_kernel(&WorkUnits::new(3.0e12), 1.0).await;
            h.await;
            kaas_simtime::now()
        });
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-3, "t={t:?}");
    }

    #[test]
    fn energy_accounts_busy_and_idle() {
        let mut sim = Simulation::new();
        let joules = sim.block_on(async {
            let gpu = p100(0);
            // 1 s busy at full demand.
            gpu.launch_kernel(&WorkUnits::new(3.0e12), 1.0).await;
            kaas_simtime::sleep(Duration::from_secs(9)).await;
            gpu.energy_joules(Duration::from_secs(10))
        });
        // 10 s idle floor (30 W) + 1 s dynamic (220 W) = 520 J.
        assert!((joules - 520.0).abs() < 1.0, "joules={joules}");
    }
}

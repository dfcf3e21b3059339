//! CPU device model: the general-purpose host that runs clients, the KaaS
//! server, and CPU-only baselines.

use std::rc::Rc;
use std::time::Duration;

use crate::device::DeviceId;
use crate::power::PowerProfile;
use crate::ps::SharedProcessor;
use crate::work::WorkUnits;

/// Static parameters of a CPU (dual-socket server view).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuProfile {
    /// Marketing name.
    pub name: &'static str,
    /// Physical cores across sockets.
    pub cores: u32,
    /// Sustained aggregate throughput (parallel numba-class code) in
    /// FLOP/s.
    pub effective_flops: f64,
    /// Package power (RAPL view).
    pub power: PowerProfile,
    /// Cost of launching a bare Python client process (the thin KaaS
    /// client pays only this; Fig. 7's 123 ms small-task KaaS overhead is
    /// dominated by it).
    pub python_launch: Duration,
    /// Cost of importing the numeric stack (numpy/numba) for CPU-only
    /// compute programs; KaaS clients skip it ("our client code has no
    /// need to import the numba dependency", §5.1).
    pub runtime_import: Duration,
}

impl CpuProfile {
    /// Two 20-core Xeon E5-2698 v4 (the §5.1 GPU-host CPUs).
    pub fn xeon_e5_2698v4_dual() -> Self {
        CpuProfile {
            name: "2x Xeon E5-2698 v4",
            cores: 40,
            effective_flops: 140.0e9,
            power: PowerProfile::cpu_dual_xeon(),
            python_launch: Duration::from_millis(120),
            runtime_import: Duration::from_millis(350),
        }
    }

    /// Two 10-core Xeon E5-2650 v3 (the Fig. 2 motivating-example host).
    pub fn xeon_e5_2650v3_dual() -> Self {
        CpuProfile {
            name: "2x Xeon E5-2650 v3",
            cores: 20,
            effective_flops: 70.0e9,
            power: PowerProfile::new(40.0, 210.0),
            python_launch: Duration::from_millis(130),
            runtime_import: Duration::from_millis(350),
        }
    }
}

struct CpuInner {
    id: DeviceId,
    profile: CpuProfile,
    compute: SharedProcessor,
    online: std::cell::Cell<bool>,
}

/// A simulated CPU with processor-sharing cores.
///
/// # Examples
///
/// ```
/// use kaas_accel::{CpuDevice, CpuProfile, WorkUnits, DeviceId};
/// use kaas_simtime::Simulation;
///
/// let mut sim = Simulation::new();
/// let t = sim.block_on(async {
///     let cpu = CpuDevice::new(DeviceId(0), CpuProfile::xeon_e5_2698v4_dual());
///     cpu.run(&WorkUnits::new(14.0e9)).await
/// });
/// assert!((t.as_secs_f64() - 0.1).abs() < 1e-6);
/// ```
#[derive(Clone)]
pub struct CpuDevice {
    inner: Rc<CpuInner>,
}

impl std::fmt::Debug for CpuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuDevice")
            .field("id", &self.inner.id)
            .field("name", &self.inner.profile.name)
            .finish()
    }
}

impl CpuDevice {
    /// Creates a CPU with the given identity and profile.
    pub fn new(id: DeviceId, profile: CpuProfile) -> Self {
        CpuDevice {
            inner: Rc::new(CpuInner {
                id,
                compute: SharedProcessor::new(profile.effective_flops),
                online: std::cell::Cell::new(true),
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
    pub fn profile(&self) -> &CpuProfile {
        &self.inner.profile
    }

    /// Runs `work` using all cores (demand 1), sharing with concurrent
    /// jobs. Returns the occupancy duration.
    pub async fn run(&self, work: &WorkUnits) -> Duration {
        self.run_with_demand(work, 1.0).await
    }

    /// Runs `work` at a core-fraction `demand` ∈ (0, 1].
    ///
    /// Accelerator-class kernels may carry a CPU-specific efficiency
    /// override (`WorkUnits::cpu_efficiency`); it takes precedence here.
    pub async fn run_with_demand(&self, work: &WorkUnits, demand: f64) -> Duration {
        let efficiency = work.cpu_efficiency.unwrap_or(work.efficiency);
        self.inner
            .compute
            .execute_with_demand(work.flops / efficiency, demand)
            .await
    }

    /// Utilization-weighted busy seconds.
    pub fn busy_seconds(&self) -> f64 {
        self.inner.compute.busy_seconds()
    }

    /// Instantaneous utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.inner.compute.current_load()
    }

    /// Energy drawn over a window of `total`.
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

    #[test]
    fn concurrent_jobs_share_cores() {
        let mut sim = Simulation::new();
        let times = sim.block_on(async {
            let cpu = CpuDevice::new(DeviceId(0), CpuProfile::xeon_e5_2698v4_dual());
            let mut hs = Vec::new();
            for _ in 0..2 {
                let cpu = cpu.clone();
                hs.push(spawn(async move { cpu.run(&WorkUnits::new(14.0e9)).await }));
            }
            let mut out = Vec::new();
            for h in hs {
                out.push(h.await.as_secs_f64());
            }
            out
        });
        for t in times {
            assert!(
                (t - 0.2).abs() < 1e-6,
                "two sharers double the time, got {t}"
            );
        }
    }

    #[test]
    fn cpu_is_much_slower_than_gpu_for_matmul() {
        let cpu = CpuProfile::xeon_e5_2698v4_dual();
        let gpu = crate::GpuProfile::p100();
        assert!(gpu.effective_flops / cpu.effective_flops > 4.0);
    }

    #[test]
    fn energy_includes_idle_floor() {
        let mut sim = Simulation::new();
        let j = sim.block_on(async {
            let cpu = CpuDevice::new(DeviceId(0), CpuProfile::xeon_e5_2698v4_dual());
            cpu.run(&WorkUnits::new(140.0e9)).await; // 1 s busy
            kaas_simtime::sleep(Duration::from_secs(1)).await;
            cpu.energy_joules(Duration::from_secs(2))
        });
        // 2 s × 60 W idle + 1 s × 210 W dynamic = 330 J.
        assert!((j - 330.0).abs() < 1.0, "j={j}");
    }
}

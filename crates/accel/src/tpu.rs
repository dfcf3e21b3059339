//! TPU device model (Google Cloud TPU v3-8 class).
//!
//! Calibration (§5.6.3 / Fig. 16): a v3-8 board has four dual-core chips
//! that "can be controlled individually", but "running multiple processes
//! on the same TPU chip leads to errors" — so KaaS allocates one task
//! runner per chip. In exclusive mode each kernel execution blocks (and
//! uses) the entire board; in shared mode each concurrent instance pins
//! one chip. The dominant overheads KaaS removes are the TensorFlow
//! import ("a large part of the total task completion time … is the time
//! required to import the necessary libraries, most notably TensorFlow",
//! which also initializes the TPU system) and per-process XLA
//! compilation; removing them cuts TPU time by 81.3–99.6 % and total task
//! time by 95.9–98.6 %.

use std::rc::Rc;
use std::time::Duration;

use kaas_simtime::sleep;
use kaas_simtime::sync::{Semaphore, SemaphoreGuard};

use crate::device::DeviceId;
use crate::power::PowerProfile;
use crate::ps::SharedProcessor;
use crate::work::WorkUnits;

/// Static parameters of a TPU board.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpuProfile {
    /// Marketing name.
    pub name: &'static str,
    /// Number of individually controllable chips.
    pub chips: u32,
    /// Sustained per-chip throughput in FLOP/s (at efficiency 1.0).
    pub flops_per_chip: f64,
    /// Per-process TensorFlow import + TPU system initialization.
    pub runtime_init: Duration,
    /// Per-process XLA compilation of the kernel graph (cached inside a
    /// warm runner).
    pub xla_compile: Duration,
    /// Host→TPU infeed bandwidth.
    pub infeed_bps: f64,
    /// Per-chip power.
    pub power_per_chip: PowerProfile,
}

impl TpuProfile {
    /// Google Cloud v3-8: four chips, eight cores, 16 GB/chip.
    pub fn v3_8() -> Self {
        TpuProfile {
            name: "TPU v3-8",
            chips: 4,
            flops_per_chip: 4.2e13,
            runtime_init: Duration::from_millis(12_000),
            xla_compile: Duration::from_millis(10_000),
            infeed_bps: 10.0e9,
            power_per_chip: PowerProfile::tpu_v3_chip(),
        }
    }
}

struct TpuInner {
    id: DeviceId,
    profile: TpuProfile,
    chips: Vec<SharedProcessor>,
    board: Semaphore,
    exclusive_busy: std::cell::Cell<f64>,
    next_chip: std::cell::Cell<u32>,
    online: std::cell::Cell<bool>,
}

/// A simulated TPU board: per-chip compute plus a board-exclusive mode.
///
/// # Examples
///
/// ```
/// use kaas_accel::{TpuDevice, TpuProfile, WorkUnits, DeviceId};
/// use kaas_simtime::Simulation;
///
/// let mut sim = Simulation::new();
/// let t = sim.block_on(async {
///     let tpu = TpuDevice::new(DeviceId(0), TpuProfile::v3_8());
///     tpu.run_on_chip(0, &WorkUnits::new(4.2e12)).await
/// });
/// assert!((t.as_secs_f64() - 0.1).abs() < 1e-6);
/// ```
#[derive(Clone)]
pub struct TpuDevice {
    inner: Rc<TpuInner>,
}

impl std::fmt::Debug for TpuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TpuDevice")
            .field("id", &self.inner.id)
            .field("name", &self.inner.profile.name)
            .field("chips", &self.inner.profile.chips)
            .finish()
    }
}

impl TpuDevice {
    /// Creates a TPU board with the given identity and profile.
    pub fn new(id: DeviceId, profile: TpuProfile) -> Self {
        let chips = (0..profile.chips)
            .map(|_| SharedProcessor::new(profile.flops_per_chip))
            .collect();
        TpuDevice {
            inner: Rc::new(TpuInner {
                id,
                chips,
                board: Semaphore::new(profile.chips as usize),
                exclusive_busy: std::cell::Cell::new(0.0),
                next_chip: std::cell::Cell::new(0),
                online: std::cell::Cell::new(true),
                profile,
            }),
        }
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

    /// Device identity.
    pub fn id(&self) -> DeviceId {
        self.inner.id
    }

    /// Static profile.
    pub fn profile(&self) -> &TpuProfile {
        &self.inner.profile
    }

    /// Number of chips.
    pub fn chips(&self) -> u32 {
        self.inner.profile.chips
    }

    /// Imports TensorFlow and initializes the TPU system (baselines pay
    /// this per task; KaaS once per runner).
    pub async fn init_runtime(&self) {
        sleep(self.inner.profile.runtime_init).await;
    }

    /// Compiles the kernel graph with XLA (cached inside a warm runner).
    pub async fn compile(&self) {
        sleep(self.inner.profile.xla_compile).await;
    }

    /// Runs `work` on one chip (shared/KaaS mode).
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub async fn run_on_chip(&self, chip: u32, work: &WorkUnits) -> Duration {
        let ps = &self.inner.chips[chip as usize];
        let infeed =
            Duration::from_secs_f64(work.total_bytes() as f64 / self.inner.profile.infeed_bps);
        sleep(infeed).await;
        infeed + ps.execute(work.flops / work.efficiency).await
    }

    /// Acquires every chip (exclusive mode). Holding this guard, use
    /// [`TpuDevice::run_board`] to execute — it does not re-acquire.
    pub async fn lock_board(&self) -> SemaphoreGuard {
        self.inner
            .board
            .acquire(self.inner.profile.chips as usize)
            .await
    }

    /// Executes `work` across all chips **without acquiring the board
    /// lock** — the caller must hold the [`TpuDevice::lock_board`] guard
    /// (this split lets baselines hold the board across TensorFlow import
    /// and XLA compilation, as real exclusive TPU use does).
    pub async fn run_board(&self, work: &WorkUnits) -> Duration {
        let start = kaas_simtime::now();
        let infeed =
            Duration::from_secs_f64(work.total_bytes() as f64 / self.inner.profile.infeed_bps);
        sleep(infeed).await;
        let rate = self.inner.profile.flops_per_chip * self.inner.profile.chips as f64;
        let compute = Duration::from_secs_f64(work.flops / work.efficiency / rate);
        sleep(compute).await;
        // All chips are busy for the compute interval.
        self.inner.exclusive_busy.set(
            self.inner.exclusive_busy.get()
                + compute.as_secs_f64() * self.inner.profile.chips as f64,
        );
        kaas_simtime::now() - start
    }

    /// Reserves one chip slot (shared-mode admission).
    pub async fn acquire_chip_slot(&self) -> SemaphoreGuard {
        self.inner.board.acquire(1).await
    }

    /// Hands out chip indices round-robin (how the shared baseline pins
    /// "each concurrent instance … one of the four TPU chips", §5.6.3).
    pub fn assign_chip(&self) -> u32 {
        let i = self.inner.next_chip.get();
        self.inner.next_chip.set(i.wrapping_add(1));
        i % self.inner.profile.chips
    }

    /// Utilization-weighted busy seconds summed over chips (including
    /// board-exclusive runs).
    pub fn busy_seconds(&self) -> f64 {
        self.inner
            .chips
            .iter()
            .map(|c| c.busy_seconds())
            .sum::<f64>()
            + self.inner.exclusive_busy.get()
    }

    /// Energy drawn over a window of `total` (all chips powered).
    pub fn energy_joules(&self, total: Duration) -> f64 {
        let p = &self.inner.profile;
        let idle_all = p.power_per_chip.idle_w * p.chips as f64 * total.as_secs_f64();
        let dynamic = (p.power_per_chip.active_w - p.power_per_chip.idle_w)
            * self
                .busy_seconds()
                .min(total.as_secs_f64() * p.chips as f64);
        idle_all + dynamic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_simtime::{now, spawn, Simulation};

    fn v3_8() -> TpuDevice {
        TpuDevice::new(DeviceId(0), TpuProfile::v3_8())
    }

    #[test]
    fn exclusive_uses_whole_board() {
        let mut sim = Simulation::new();
        let (chip, board) = sim.block_on(async {
            let tpu = v3_8();
            let w = WorkUnits::new(1.68e14);
            let c = tpu.run_on_chip(0, &w).await;
            let _board = tpu.lock_board().await;
            let b = tpu.run_board(&w).await;
            (c, b)
        });
        assert!((chip.as_secs_f64() - 4.0).abs() < 1e-6);
        assert!((board.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn exclusive_blocks_chip_users() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            let tpu = v3_8();
            let t2 = tpu.clone();
            let w = WorkUnits::new(1.68e14);
            let h = spawn(async move {
                let _board = t2.lock_board().await;
                t2.run_board(&w).await
            });
            kaas_simtime::yield_now().await;
            // A chip-slot user must wait for the exclusive run to finish.
            let _slot = tpu.acquire_chip_slot().await;
            h.await;
            now()
        });
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn chips_run_independently() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            let tpu = v3_8();
            let w = WorkUnits::new(4.2e13);
            let mut hs = Vec::new();
            for chip in 0..4 {
                let tpu = tpu.clone();
                hs.push(spawn(async move { tpu.run_on_chip(chip, &w).await }));
            }
            for h in hs {
                let d = h.await;
                assert!((d.as_secs_f64() - 1.0).abs() < 1e-6);
            }
            now()
        });
        // All four chips in parallel: wall clock is one second.
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn runtime_init_dominates_small_kernels() {
        let p = TpuProfile::v3_8();
        assert!(p.runtime_init + p.xla_compile > Duration::from_secs(20));
    }

    #[test]
    #[should_panic]
    fn bad_chip_index_panics() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            v3_8().run_on_chip(9, &WorkUnits::new(1.0)).await;
        });
    }
}

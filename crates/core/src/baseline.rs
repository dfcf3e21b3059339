//! The delivery-model baselines the paper compares KaaS against:
//! **time sharing** (exclusive device, per-task runtime initialization,
//! Fig. 4a) and **space sharing** (MPS-style concurrency, still per-task
//! initialization, Fig. 4b), plus CPU-only execution.
//!
//! Each run models a standalone accelerator program: launch the
//! interpreter, import the accelerator runtime, create a device context,
//! move data at fresh-context rates, execute, clean up — every task, every
//! time. That per-task initialization is exactly what KaaS amortizes.

use std::time::Duration;

use kaas_accel::{CpuDevice, CpuProfile, Device};
use kaas_kernels::{Kernel, Value};
use kaas_simtime::{now, sleep};

use crate::protocol::InvokeError;

/// Timing result of a baseline task execution.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// Total task completion time (program launch to cleanup).
    pub total: Duration,
    /// Data copies + kernel execution only (the paper's "kernel time",
    /// the Fig. 9 numerator).
    pub kernel_time: Duration,
    /// Device context/session/compile initialization inside the task
    /// (CUDA context, XLA compile, circuit transpilation). The paper's
    /// Fig. 7 "computation" is `device_init + kernel_time` — its
    /// measured computation window starts at the first device API call,
    /// which triggers lazy initialization.
    pub device_init: Duration,
    /// Kernel output.
    pub output: Value,
}

impl BaselineReport {
    /// The Fig. 7 "computation" time: lazy device initialization plus
    /// copies and kernel execution.
    pub fn computation(&self) -> Duration {
        self.device_init + self.kernel_time
    }
}

fn bad_input(e: kaas_kernels::KernelError) -> InvokeError {
    InvokeError::BadInput(e.to_string())
}

/// Runs `kernel` once in the **time-sharing** model: the whole device is
/// held exclusively for the task, and every per-process initialization is
/// on the critical path.
///
/// # Errors
///
/// [`InvokeError::BadInput`] if the kernel rejects `input`;
/// [`InvokeError::NoDevice`] if the device class cannot run it.
pub async fn run_time_sharing(
    device: &Device,
    kernel: &dyn Kernel,
    input: &Value,
    host: &CpuProfile,
) -> Result<BaselineReport, InvokeError> {
    run_baseline(device, kernel, input, host, true).await
}

/// Runs `kernel` once in the **space-sharing** model (MPS-style): the
/// device executes concurrent kernels, but each task still pays its own
/// process/runtime/context initialization.
///
/// # Errors
///
/// As [`run_time_sharing`].
pub async fn run_space_sharing(
    device: &Device,
    kernel: &dyn Kernel,
    input: &Value,
    host: &CpuProfile,
) -> Result<BaselineReport, InvokeError> {
    run_baseline(device, kernel, input, host, false).await
}

async fn run_baseline(
    device: &Device,
    kernel: &dyn Kernel,
    input: &Value,
    host: &CpuProfile,
    exclusive: bool,
) -> Result<BaselineReport, InvokeError> {
    let start = now();
    let input = input.payload();
    let work = kernel.work(input).map_err(bad_input)?;
    sleep(host.python_launch).await;

    let kernel_time;
    let mut device_init = Duration::ZERO;
    match device {
        Device::Gpu(gpu) => {
            sleep(gpu.profile().runtime_import).await;
            let _lock = if exclusive {
                Some(gpu.lock_exclusive().await)
            } else {
                None
            };
            // Lazy CUDA initialization at the first device API call: the
            // paper attributes a constant ≈410 ms per-execution cost to
            // it and counts it towards the computation window (§5.1).
            gpu.create_context().await;
            device_init = gpu.profile().context_init;
            let t = gpu.execute(&work, kernel.demand(), true).await;
            kernel_time = t.kernel_time();
            gpu.destroy_context();
            drop(_lock);
            sleep(gpu.profile().process_cleanup).await;
        }
        Device::Fpga(fpga) => {
            // PyLog offers no spatial sharing (§4.2): both models behave
            // identically apart from queueing inside the device.
            fpga.init_runtime().await;
            let t = fpga.execute(&work).await;
            kernel_time = t.kernel_time();
        }
        Device::Tpu(tpu) => {
            if exclusive {
                // TensorFlow import initializes (and holds) the TPU, so
                // exclusive tasks serialize the whole program (§5.6.3).
                let _board = tpu.lock_board().await;
                tpu.init_runtime().await;
                // Per-process XLA compilation lands inside the measured
                // TPU window — the §5.6.3 "TPU time" KaaS removes.
                tpu.compile().await;
                kernel_time = tpu.profile().xla_compile + tpu.run_board(&work).await;
            } else {
                // Shared: each instance pins one chip; imports overlap.
                tpu.init_runtime().await;
                tpu.compile().await;
                let chip = tpu.assign_chip();
                let _slot = tpu.acquire_chip_slot().await;
                kernel_time = tpu.profile().xla_compile + tpu.run_on_chip(chip, &work).await;
            }
        }
        Device::Qpu(qpu) => {
            let cost = work.circuit.ok_or_else(|| {
                InvokeError::BadInput("QPU kernels must declare a circuit cost".into())
            })?;
            // Baseline: session + transpilation on every call (§5.6.4
            // "cold starts of our quantum operation").
            qpu.init_session().await;
            device_init = qpu.profile().session_init;
            qpu.transpile().await;
            kernel_time = qpu.profile().transpile + qpu.execute(&cost).await;
        }
        Device::Cpu(cpu) => {
            kernel_time = cpu.run(&work).await;
        }
    }

    let output = kernel.execute(input).map_err(bad_input)?;
    Ok(BaselineReport {
        total: now() - start,
        kernel_time,
        device_init,
        output,
    })
}

/// Runs `kernel` on the CPU only (the paper's CPU-only comparison in
/// Fig. 2, Fig. 10, and Fig. 11): same work profile, host throughput.
///
/// # Errors
///
/// [`InvokeError::BadInput`] if the kernel rejects `input`.
pub async fn run_cpu_only(
    cpu: &CpuDevice,
    kernel: &dyn Kernel,
    input: &Value,
) -> Result<BaselineReport, InvokeError> {
    let start = now();
    let input = input.payload();
    let work = kernel.work(input).map_err(bad_input)?;
    sleep(cpu.profile().python_launch).await;
    sleep(cpu.profile().runtime_import).await;
    let kernel_time = cpu.run(&work).await;
    let output = kernel.execute(input).map_err(bad_input)?;
    Ok(BaselineReport {
        total: now() - start,
        kernel_time,
        device_init: Duration::ZERO,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_accel::{DeviceId, FpgaDevice, FpgaProfile, GpuDevice, GpuProfile};
    use kaas_kernels::{Histogram, MatMul};
    use kaas_simtime::Simulation;

    fn host() -> CpuProfile {
        CpuProfile::xeon_e5_2698v4_dual()
    }

    #[test]
    fn exclusive_run_pays_full_overhead() {
        let mut sim = Simulation::new();
        let report = sim.block_on(async {
            let gpu: Device = GpuDevice::new(DeviceId(0), GpuProfile::p100()).into();
            run_time_sharing(&gpu, &MatMul::new(), &Value::U64(500), &host())
                .await
                .unwrap()
        });
        // 120 ms launch + 430 ms numba + 410 ms context + 139 ms cleanup
        // ≈ 1.1 s floor plus a tiny kernel.
        let total = report.total.as_secs_f64();
        assert!((1.09..1.25).contains(&total), "total={total}");
        // Copies (incl. the 2×25 ms fresh-context penalty) + kernel stay
        // far below the initialization overhead.
        assert!(report.kernel_time < Duration::from_millis(100));
        assert_eq!(report.device_init, Duration::from_millis(410));
    }

    #[test]
    fn exclusive_tasks_serialize_on_the_gpu() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            let gpu: Device = GpuDevice::new(DeviceId(0), GpuProfile::p100()).into();
            let g2 = gpu.clone();
            let h = kaas_simtime::spawn(async move {
                run_time_sharing(&g2, &MatMul::new(), &Value::U64(10_000), &host())
                    .await
                    .unwrap()
            });
            run_time_sharing(&gpu, &MatMul::new(), &Value::U64(10_000), &host())
                .await
                .unwrap();
            h.await;
            now()
        });
        // Each large task's device section ≈ 0.41 ctx + ~0.25 s copies +
        // ~0.67 s kernel; exclusive => the sections cannot overlap, so
        // the makespan ≈ one task total plus one full device section.
        assert!(t.as_secs_f64() > 3.2, "t={t:?}");
        assert!(t.as_secs_f64() < 4.2, "t={t:?}");
    }

    #[test]
    fn space_sharing_beats_time_sharing_makespan() {
        let run = |exclusive: bool| {
            let mut sim = Simulation::new();
            sim.block_on(async move {
                let gpu: Device = GpuDevice::new(DeviceId(0), GpuProfile::p100()).into();
                let g2 = gpu.clone();
                let h = kaas_simtime::spawn(async move {
                    run_baseline(&g2, &MatMul::new(), &Value::U64(10_000), &host(), exclusive)
                        .await
                        .unwrap()
                });
                run_baseline(
                    &gpu,
                    &MatMul::new(),
                    &Value::U64(10_000),
                    &host(),
                    exclusive,
                )
                .await
                .unwrap();
                h.await;
                now()
            })
        };
        let exclusive = run(true);
        let shared = run(false);
        // MPS-style sharing overlaps the two tasks; time sharing
        // serializes their device sections.
        assert!(
            shared < exclusive,
            "shared={shared:?} !< exclusive={exclusive:?}"
        );
    }

    #[test]
    fn fpga_baseline_includes_runtime_init() {
        let mut sim = Simulation::new();
        let report = sim.block_on(async {
            let fpga: Device = FpgaDevice::new(DeviceId(0), FpgaProfile::alveo_u250()).into();
            run_time_sharing(
                &fpga,
                &Histogram::new(),
                &Value::U64(kaas_kernels::HISTOGRAM_LEN),
                &host(),
            )
            .await
            .unwrap()
        });
        // ≈ 0.12 launch + 1.15 init + ~0.39 kernel ≈ 1.7 s (Fig. 15's
        // baseline bar).
        let total = report.total.as_secs_f64();
        assert!((1.5..1.9).contains(&total), "total={total}");
    }

    #[test]
    fn cpu_only_run_uses_cpu_rate() {
        let mut sim = Simulation::new();
        let report = sim.block_on(async {
            let cpu = CpuDevice::new(DeviceId(9), CpuProfile::xeon_e5_2698v4_dual());
            run_cpu_only(&cpu, &MatMul::new(), &Value::U64(2000))
                .await
                .unwrap()
        });
        // 2·2000³ = 1.6e10 flops at 140 GF/s / eff — seconds-scale.
        assert!(report.kernel_time.as_secs_f64() > 0.05);
        assert!(matches!(report.output, Value::F64(_)));
    }
}

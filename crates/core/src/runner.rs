//! [`TaskRunner`]: a warm, device-resident copy of a kernel (§4.1:
//! "Python-based host processes combining developer-provided kernel code
//! with a wrapper").
//!
//! A runner is created by a **cold start** — process spawn, runtime
//! import, device context/compile/transpile — and then serves invocations
//! at warm cost: data copies plus kernel execution only.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use kaas_accel::{Device, DeviceId};
use kaas_kernels::{Kernel, KernelError, Value};
use kaas_simtime::sleep;
use kaas_simtime::sync::Semaphore;

use crate::metrics::RunnerId;
use crate::protocol::InvokeError;

/// Runner tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunnerConfig {
    /// Maximum concurrently served invocations per runner (the paper's
    /// §5.5 autoscaling experiment caps this at four).
    pub max_inflight: usize,
    /// Cost of forking the runner process from the KaaS server's
    /// pre-initialized pool.
    pub spawn_process: Duration,
    /// Whether runners fork from a pool with accelerator libraries
    /// already imported (§5.1: on a KaaS cold start "the kernel is
    /// already registered in host memory and large dependencies such as
    /// numba are initialized"). When false, each cold start re-imports
    /// the runtime like a baseline process.
    pub preloaded_runtime: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            max_inflight: 4,
            spawn_process: Duration::from_millis(60),
            preloaded_runtime: true,
        }
    }
}

/// Device-side timing of one invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunnerTimings {
    /// Host→device copy.
    pub copy_in: Duration,
    /// Kernel occupancy.
    pub kernel_exec: Duration,
    /// Device→host copy.
    pub copy_out: Duration,
    /// Whether this was the runner's first (cold) invocation.
    pub first_invocation: bool,
}

/// A warm kernel instance bound to one device (and, on TPUs, one chip).
pub struct TaskRunner {
    id: RunnerId,
    kernel: Rc<dyn Kernel>,
    device: Device,
    chip: u32,
    admission: Semaphore,
    invocations: Cell<u64>,
    alive: Cell<bool>,
}

impl std::fmt::Debug for TaskRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskRunner")
            .field("id", &self.id)
            .field("kernel", &self.kernel.name())
            .field("device", &self.device.id())
            .field("alive", &self.alive.get())
            .finish()
    }
}

impl TaskRunner {
    /// Cold-starts a runner: process spawn + runtime import + device
    /// context creation / kernel compilation / circuit transpilation.
    pub async fn cold_start(
        id: RunnerId,
        kernel: Rc<dyn Kernel>,
        device: Device,
        chip: u32,
        config: RunnerConfig,
    ) -> TaskRunner {
        sleep(config.spawn_process).await;
        if !config.preloaded_runtime {
            sleep(device.runtime_init()).await;
        }
        match &device {
            Device::Gpu(gpu) => gpu.create_context().await,
            Device::Tpu(tpu) => tpu.compile().await,
            Device::Qpu(qpu) => qpu.transpile().await,
            Device::Cpu(_) | Device::Fpga(_) => {}
        }
        // Warm-init is the last phase: compiled-in kernels are resident
        // in the runner binary (free), while guest kernels pay either a
        // full instantiate or a snapshot restore here.
        if let Some((_, cost)) = kernel.warmup().cost() {
            sleep(cost).await;
        }
        TaskRunner {
            id,
            kernel,
            device,
            chip,
            admission: Semaphore::new(config.max_inflight),
            invocations: Cell::new(0),
            alive: Cell::new(true),
        }
    }

    /// Runner identity.
    pub fn id(&self) -> RunnerId {
        self.id
    }

    /// The device this runner occupies.
    pub fn device_id(&self) -> DeviceId {
        self.device.id()
    }

    /// Simulates a runner crash: subsequent invocations fail.
    pub fn kill(&self) {
        self.alive.set(false);
    }

    /// Whether the runner is alive.
    #[cfg(test)]
    pub(crate) fn is_alive(&self) -> bool {
        self.alive.get()
    }

    /// Serves one invocation: admission (FIFO, capped in-flight), device
    /// copies and kernel occupancy in virtual time, and the *real*
    /// computation of the kernel.
    ///
    /// # Errors
    ///
    /// [`InvokeError::RunnerFailed`] if the runner was killed;
    /// [`InvokeError::BadInput`] if the kernel rejects `input`.
    pub fn invoke<'a>(
        &'a self,
        input: &'a Value,
    ) -> impl Future<Output = Result<(Value, RunnerTimings), InvokeError>> + 'a {
        self.invoke_inner(input, false)
    }

    /// Serves one invocation whose input is already resident in this
    /// runner's device memory (a data-plane cache hit): the host→device
    /// copy is skipped entirely, so `copy_in` comes back zero.
    ///
    /// # Errors
    ///
    /// As for [`invoke`](TaskRunner::invoke).
    pub fn invoke_cached<'a>(
        &'a self,
        input: &'a Value,
    ) -> impl Future<Output = Result<(Value, RunnerTimings), InvokeError>> + 'a {
        self.invoke_inner(input, true)
    }

    async fn invoke_inner(
        &self,
        input: &Value,
        input_resident: bool,
    ) -> Result<(Value, RunnerTimings), InvokeError> {
        self.check_healthy()?;
        let _permit = self.admission.acquire(1).await;
        self.check_healthy()?;
        // Transport envelopes are a framing concern; kernels see content.
        let input = input.payload();
        let mut work = self.kernel.work(input).map_err(kernel_error)?;
        if input_resident {
            // The operand never crosses the host↔device boundary.
            work.bytes_in = 0;
        }
        let first = self.invocations.get() == 0;
        self.invocations.set(self.invocations.get() + 1);

        let timings = match &self.device {
            Device::Gpu(gpu) => {
                // KaaS runners copy through the server's pre-pinned
                // buffer pool even on their first invocation.
                let t = gpu.execute(&work, self.kernel.demand(), false).await;
                RunnerTimings {
                    copy_in: t.copy_in,
                    kernel_exec: t.kernel,
                    copy_out: t.copy_out,
                    first_invocation: first,
                }
            }
            Device::Cpu(cpu) => RunnerTimings {
                kernel_exec: cpu.run(&work).await,
                first_invocation: first,
                ..Default::default()
            },
            Device::Fpga(fpga) => {
                let t = fpga.execute(&work).await;
                RunnerTimings {
                    copy_in: t.dma_in,
                    kernel_exec: t.kernel,
                    copy_out: t.dma_out,
                    first_invocation: first,
                }
            }
            Device::Tpu(tpu) => RunnerTimings {
                kernel_exec: tpu.run_on_chip(self.chip, &work).await,
                first_invocation: first,
                ..Default::default()
            },
            Device::Qpu(qpu) => {
                let cost = work.circuit.ok_or_else(|| {
                    InvokeError::BadInput("QPU kernels must declare a circuit cost".into())
                })?;
                RunnerTimings {
                    kernel_exec: qpu.execute(&cost).await,
                    first_invocation: first,
                    ..Default::default()
                }
            }
        };

        // A crash or device flap during the device work above means the
        // result never made it back to the server process.
        self.check_healthy()?;

        // The real computation (costless in virtual time — its cost is
        // the device model above).
        let output = self.kernel.execute(input).map_err(kernel_error)?;
        Ok((output, timings))
    }

    /// Fails fast when the runner process is dead or its device is
    /// offline — checked at entry, after admission, and again after the
    /// device work so mid-flight faults surface as `RunnerFailed`.
    fn check_healthy(&self) -> Result<(), InvokeError> {
        if !self.alive.get() {
            return Err(InvokeError::RunnerFailed(format!("{} is dead", self.id)));
        }
        if !self.device.is_online() {
            return Err(InvokeError::RunnerFailed(format!(
                "{} lost its device ({} offline)",
                self.id,
                self.device.id()
            )));
        }
        Ok(())
    }
}

/// Maps kernel faults onto the wire error space, preserving the guest
/// trap/fuel kinds so clients can tell "my code is wrong" from "my
/// budget is too small" from "my input is malformed".
fn kernel_error(e: KernelError) -> InvokeError {
    // Pass the inner message through: each `InvokeError` variant's
    // Display adds its own prefix, so keeping `e.to_string()` here
    // would double it ("guest kernel trapped: guest kernel trapped:").
    match e {
        KernelError::BadInput(m) => InvokeError::BadInput(m),
        KernelError::Trap(m) => InvokeError::GuestTrap(m),
        KernelError::FuelExhausted(m) => InvokeError::FuelExhausted(m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_accel::{CpuDevice, CpuProfile, GpuDevice, GpuProfile};
    use kaas_kernels::{MatMul, MonteCarlo};
    use kaas_simtime::{now, Simulation};

    fn gpu_device() -> Device {
        GpuDevice::new(DeviceId(0), GpuProfile::p100()).into()
    }

    #[test]
    fn cold_start_pays_spawn_and_context_only() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            let _runner = TaskRunner::cold_start(
                RunnerId(0),
                Rc::new(MatMul::new()),
                gpu_device(),
                0,
                RunnerConfig::default(),
            )
            .await;
            now()
        });
        // 60 ms pooled fork + 410 ms CUDA context; numba is pre-imported.
        assert!((t.as_secs_f64() - 0.47).abs() < 1e-6, "t={t:?}");
    }

    #[test]
    fn unpooled_cold_start_also_imports_the_runtime() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            let _runner = TaskRunner::cold_start(
                RunnerId(0),
                Rc::new(MatMul::new()),
                gpu_device(),
                0,
                RunnerConfig {
                    preloaded_runtime: false,
                    ..RunnerConfig::default()
                },
            )
            .await;
            now()
        });
        // + 430 ms numba import.
        assert!((t.as_secs_f64() - 0.90).abs() < 1e-6, "t={t:?}");
    }

    #[test]
    fn invocations_report_first_flag() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let runner = TaskRunner::cold_start(
                RunnerId(0),
                Rc::new(MatMul::new()),
                gpu_device(),
                0,
                RunnerConfig::default(),
            )
            .await;
            let (_, a) = runner.invoke(&Value::U64(500)).await.unwrap();
            let (_, b) = runner.invoke(&Value::U64(500)).await.unwrap();
            assert!(a.first_invocation);
            assert!(!b.first_invocation);
        });
    }

    #[test]
    fn cached_invocation_skips_copy_in() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let runner = TaskRunner::cold_start(
                RunnerId(0),
                Rc::new(MatMul::new()),
                gpu_device(),
                0,
                RunnerConfig::default(),
            )
            .await;
            let (_, miss) = runner.invoke(&Value::U64(500)).await.unwrap();
            let (_, hit) = runner.invoke_cached(&Value::U64(500)).await.unwrap();
            assert!(miss.copy_in > Duration::ZERO);
            assert_eq!(hit.copy_in, Duration::ZERO);
            assert!(
                hit.copy_out > Duration::ZERO,
                "only the inbound copy is cached"
            );
            assert_eq!(hit.kernel_exec, miss.kernel_exec);
        });
    }

    #[test]
    fn admission_caps_in_flight() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            let runner = Rc::new(
                TaskRunner::cold_start(
                    RunnerId(0),
                    Rc::new(MonteCarlo::default()),
                    Device::Cpu(CpuDevice::new(
                        DeviceId(0),
                        CpuProfile::xeon_e5_2698v4_dual(),
                    )),
                    0,
                    RunnerConfig {
                        max_inflight: 1,
                        spawn_process: Duration::ZERO,
                        preloaded_runtime: true,
                    },
                )
                .await,
            );
            // Two invocations with cap 1 must serialize.
            let r2 = Rc::clone(&runner);
            let h = kaas_simtime::spawn(async move {
                r2.invoke(&Value::U64(5_600_000_000)).await.unwrap();
            });
            runner.invoke(&Value::U64(5_600_000_000)).await.unwrap();
            h.await;
            now()
        });
        // Each runs 1 s on the CPU (5.6e9×25 flops at 140 GF/s, eff 0.5 →
        // 2.8e11/1.4e11 = 2 s each... cap forces them to serialize, and
        // CPU PS would have shared otherwise; with cap 1 total = 2 runs.
        assert!(t.as_secs_f64() > 1.5, "t={t:?}");
    }

    #[test]
    fn killed_runner_rejects() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let runner = TaskRunner::cold_start(
                RunnerId(3),
                Rc::new(MatMul::new()),
                gpu_device(),
                0,
                RunnerConfig::default(),
            )
            .await;
            assert!(runner.is_alive());
            runner.kill();
            let err = runner.invoke(&Value::U64(10)).await.unwrap_err();
            assert!(matches!(err, InvokeError::RunnerFailed(_)));
        });
    }

    #[test]
    fn bad_input_propagates() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let runner = TaskRunner::cold_start(
                RunnerId(0),
                Rc::new(MatMul::new()),
                gpu_device(),
                0,
                RunnerConfig::default(),
            )
            .await;
            let err = runner.invoke(&Value::Unit).await.unwrap_err();
            assert!(matches!(err, InvokeError::BadInput(_)));
        });
    }
}

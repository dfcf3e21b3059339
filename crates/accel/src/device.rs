//! Common device identity types and the heterogeneous [`Device`] wrapper.

use std::time::Duration;

use crate::cpu::CpuDevice;
use crate::fpga::FpgaDevice;
use crate::gpu::GpuDevice;
use crate::qpu::QpuDevice;
use crate::tpu::TpuDevice;

/// The accelerator families KaaS targets (§4.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceClass {
    /// General-purpose host processors.
    Cpu,
    /// Graphics processing units.
    Gpu,
    /// Field-programmable gate arrays.
    Fpga,
    /// Tensor processing units.
    Tpu,
    /// Quantum processing units.
    Qpu,
}

impl std::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeviceClass::Cpu => "CPU",
            DeviceClass::Gpu => "GPU",
            DeviceClass::Fpga => "FPGA",
            DeviceClass::Tpu => "TPU",
            DeviceClass::Qpu => "QPU",
        };
        f.write_str(s)
    }
}

/// Identity of a physical device within a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// A heterogeneous device handle (enum dispatch over the five families).
///
/// Cloning is cheap: devices are shared handles onto the same simulated
/// hardware.
#[derive(Debug, Clone)]
pub enum Device {
    /// A CPU.
    Cpu(CpuDevice),
    /// A GPU.
    Gpu(GpuDevice),
    /// An FPGA.
    Fpga(FpgaDevice),
    /// A TPU board.
    Tpu(TpuDevice),
    /// A quantum backend.
    Qpu(QpuDevice),
}

impl Device {
    /// The device's family.
    pub fn class(&self) -> DeviceClass {
        match self {
            Device::Cpu(_) => DeviceClass::Cpu,
            Device::Gpu(_) => DeviceClass::Gpu,
            Device::Fpga(_) => DeviceClass::Fpga,
            Device::Tpu(_) => DeviceClass::Tpu,
            Device::Qpu(_) => DeviceClass::Qpu,
        }
    }

    /// The device's identity.
    pub fn id(&self) -> DeviceId {
        match self {
            Device::Cpu(d) => d.id(),
            Device::Gpu(d) => d.id(),
            Device::Fpga(d) => d.id(),
            Device::Tpu(d) => d.id(),
            Device::Qpu(d) => d.id(),
        }
    }

    /// Human-readable model name.
    pub fn name(&self) -> &'static str {
        match self {
            Device::Cpu(d) => d.profile().name,
            Device::Gpu(d) => d.profile().name,
            Device::Fpga(d) => d.profile().name,
            Device::Tpu(d) => d.profile().name,
            Device::Qpu(d) => d.profile().name,
        }
    }

    /// Per-process runtime/library initialization cost for this device's
    /// toolchain (numba, PyLog/PYNQ, TensorFlow, Qiskit session) — the
    /// overhead baselines pay per task and KaaS pays once per runner.
    pub fn runtime_init(&self) -> Duration {
        match self {
            Device::Cpu(_) => Duration::ZERO,
            Device::Gpu(d) => d.profile().runtime_import,
            Device::Fpga(d) => d.profile().runtime_init,
            Device::Tpu(d) => d.profile().runtime_init,
            Device::Qpu(d) => d.profile().session_init,
        }
    }

    /// Device context/session creation cost (CUDA context, XLA compile,
    /// circuit transpilation).
    pub fn context_init(&self) -> Duration {
        match self {
            Device::Cpu(_) => Duration::ZERO,
            Device::Gpu(d) => d.profile().context_init,
            Device::Fpga(_) => Duration::ZERO,
            Device::Tpu(d) => d.profile().xla_compile,
            Device::Qpu(d) => d.profile().transpile,
        }
    }

    /// Whether the device is online. Offline devices (see
    /// [`set_online`](Device::set_online)) host no new runners and fail
    /// in-flight work — the fault-injection model of a device dropping
    /// off the bus / out of the cluster.
    pub fn is_online(&self) -> bool {
        match self {
            Device::Cpu(d) => d.is_online(),
            Device::Gpu(d) => d.is_online(),
            Device::Fpga(d) => d.is_online(),
            Device::Tpu(d) => d.is_online(),
            Device::Qpu(d) => d.is_online(),
        }
    }

    /// Takes the device offline (or back online). Shared across every
    /// clone of the handle: the fault-injection hook used to simulate
    /// device flaps.
    pub fn set_online(&self, online: bool) {
        match self {
            Device::Cpu(d) => d.set_online(online),
            Device::Gpu(d) => d.set_online(online),
            Device::Fpga(d) => d.set_online(online),
            Device::Tpu(d) => d.set_online(online),
            Device::Qpu(d) => d.set_online(online),
        }
    }

    /// Device memory capacity in bytes — the budget the data plane's
    /// per-device [`MemoryManager`](crate::MemoryManager) manages. GPUs
    /// report their profile's HBM size; the other families use fixed
    /// representative capacities (host DRAM for CPUs, on-card DDR for
    /// FPGAs, per-board HBM for TPUs, a small classical staging buffer
    /// for QPU control stacks).
    pub fn mem_bytes(&self) -> u64 {
        const GIB: u64 = 1 << 30;
        match self {
            Device::Cpu(_) => 256 * GIB,
            Device::Gpu(d) => d.profile().mem_bytes,
            Device::Fpga(_) => 64 * GIB,
            Device::Tpu(_) => 128 * GIB,
            Device::Qpu(_) => GIB,
        }
    }

    /// Accumulated utilization-weighted busy time, in device-seconds
    /// (dispatches to each family's own accounting). Divide by elapsed
    /// virtual time for a utilization fraction.
    pub fn busy_seconds(&self) -> f64 {
        match self {
            Device::Cpu(d) => d.busy_seconds(),
            Device::Gpu(d) => d.busy_seconds(),
            Device::Fpga(d) => d.busy_seconds(),
            Device::Tpu(d) => d.busy_seconds(),
            Device::Qpu(d) => d.busy_seconds(),
        }
    }

    /// Borrows the GPU handle.
    ///
    /// # Panics
    ///
    /// Panics if the device is not a GPU.
    pub fn as_gpu(&self) -> &GpuDevice {
        match self {
            Device::Gpu(d) => d,
            other => panic!("expected a GPU, found {}", other.class()),
        }
    }
}

impl From<CpuDevice> for Device {
    fn from(d: CpuDevice) -> Self {
        Device::Cpu(d)
    }
}
impl From<GpuDevice> for Device {
    fn from(d: GpuDevice) -> Self {
        Device::Gpu(d)
    }
}
impl From<FpgaDevice> for Device {
    fn from(d: FpgaDevice) -> Self {
        Device::Fpga(d)
    }
}
impl From<TpuDevice> for Device {
    fn from(d: TpuDevice) -> Self {
        Device::Tpu(d)
    }
}
impl From<QpuDevice> for Device {
    fn from(d: QpuDevice) -> Self {
        Device::Qpu(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuProfile, FpgaProfile, GpuProfile, QpuProfile, TpuProfile};

    fn all_devices() -> Vec<Device> {
        vec![
            CpuDevice::new(DeviceId(0), CpuProfile::xeon_e5_2698v4_dual()).into(),
            GpuDevice::new(DeviceId(1), GpuProfile::p100()).into(),
            FpgaDevice::new(DeviceId(2), FpgaProfile::alveo_u250()).into(),
            TpuDevice::new(DeviceId(3), TpuProfile::v3_8()).into(),
            QpuDevice::new(DeviceId(4), QpuProfile::qasm_simulator()).into(),
        ]
    }

    #[test]
    fn classes_cover_all_families() {
        let classes: Vec<DeviceClass> = all_devices().iter().map(Device::class).collect();
        assert_eq!(
            classes,
            vec![
                DeviceClass::Cpu,
                DeviceClass::Gpu,
                DeviceClass::Fpga,
                DeviceClass::Tpu,
                DeviceClass::Qpu
            ]
        );
    }

    #[test]
    fn ids_and_names_roundtrip() {
        for (i, d) in all_devices().iter().enumerate() {
            assert_eq!(d.id(), DeviceId(i as u32));
            assert!(!d.name().is_empty());
        }
    }

    #[test]
    fn accelerators_have_nonzero_runtime_init() {
        for d in all_devices() {
            if d.class() != DeviceClass::Cpu {
                assert!(d.runtime_init() > Duration::ZERO, "{}", d.class());
            }
        }
    }

    #[test]
    fn online_flag_is_shared_across_clones() {
        for d in all_devices() {
            let clone = d.clone();
            assert!(d.is_online());
            clone.set_online(false);
            assert!(!d.is_online(), "{}", d.class());
            d.set_online(true);
            assert!(clone.is_online());
        }
    }

    #[test]
    #[should_panic(expected = "expected a GPU")]
    fn wrong_downcast_panics() {
        let d: Device = CpuDevice::new(DeviceId(0), CpuProfile::xeon_e5_2698v4_dual()).into();
        let _ = d.as_gpu();
    }

    #[test]
    fn every_family_reports_memory_capacity() {
        for d in all_devices() {
            assert!(d.mem_bytes() > 0, "{}", d.class());
        }
        let gpu: Device = GpuDevice::new(DeviceId(1), GpuProfile::p100()).into();
        assert_eq!(gpu.mem_bytes(), 16 * (1u64 << 30));
    }

    #[test]
    fn display_formats() {
        assert_eq!(DeviceClass::Gpu.to_string(), "GPU");
        assert_eq!(DeviceId(3).to_string(), "dev3");
    }
}

//! [`GuestKernel`]: the adapter that makes a warm guest instance look
//! like any compiled-in kernel to the dispatch path, plus the cumulative
//! per-kernel meters the server bills tenants from.

use std::cell::Cell;
use std::rc::Rc;

use kaas_accel::{DeviceClass, WorkUnits};
use kaas_kernels::{Kernel, KernelError, Value, Warmup};

use crate::interp::{full_instantiate_cost, restore_cost, Instance, Trap};
use crate::program::GuestProgram;
use crate::verify::Verified;

/// Cumulative usage counters for one registered guest kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuestMeter {
    /// Body invocations completed successfully.
    pub invocations: u64,
    /// Fuel consumed by successful invocations.
    pub fuel: u64,
    /// Wire bytes moved (input + output) by successful invocations.
    pub bytes: u64,
}

/// A registered, warm, versioned guest kernel.
///
/// One `GuestKernel` backs every runner for its `tenant/name@vN` — the
/// instance is immutable post-init (validation forbids body writes to
/// globals), so sharing it is sound and replay-deterministic. The
/// cold-start path a fresh runner pays is carried by [`Kernel::warmup`]:
/// full instantiate, or restore of the snapshot image taken here at
/// registration time.
#[derive(Debug)]
pub struct GuestKernel {
    full_name: String,
    instance: Instance,
    cert: Option<Verified>,
    warmup: Warmup,
    image: Option<Vec<u8>>,
    invocations: Cell<u64>,
    fuel: Cell<u64>,
    bytes: Cell<u64>,
}

impl GuestKernel {
    /// Instantiates a validated program under its server-assigned
    /// `tenant/name@vN` identity, taking the snapshot image now if the
    /// program opted into the restore path.
    ///
    /// # Errors
    ///
    /// Propagates a [`Trap`] from the init program.
    pub fn instantiate(full_name: &str, program: Rc<GuestProgram>) -> Result<GuestKernel, Trap> {
        Self::build(full_name, program, None)
    }

    /// [`instantiate`](GuestKernel::instantiate), carrying a verifier
    /// certificate: invocations whose input class verified `Clean` run
    /// the compiled tier, and [`predicted_fuel`] exposes the
    /// static worst-case bound to the registry. A certificate that does
    /// not cover `program` (content hash) is discarded — execution then
    /// stays on the checking path.
    ///
    /// [`predicted_fuel`]: GuestKernel::predicted_fuel
    ///
    /// # Errors
    ///
    /// Propagates a [`Trap`] from the init program.
    pub fn instantiate_verified(
        full_name: &str,
        program: Rc<GuestProgram>,
        cert: Verified,
    ) -> Result<GuestKernel, Trap> {
        let cert = cert.covers(&program).then_some(cert);
        Self::build(full_name, program, cert)
    }

    fn build(
        full_name: &str,
        program: Rc<GuestProgram>,
        cert: Option<Verified>,
    ) -> Result<GuestKernel, Trap> {
        let instance = Instance::instantiate(program.clone())?;
        let (warmup, image) = if program.snapshot {
            let image = instance.snapshot();
            (Warmup::Restore(restore_cost(image.len())), Some(image))
        } else {
            (
                Warmup::Instantiate(full_instantiate_cost(&program, instance.init_fuel())),
                None,
            )
        };
        Ok(GuestKernel {
            full_name: full_name.to_string(),
            instance,
            cert,
            warmup,
            image,
            invocations: Cell::new(0),
            fuel: Cell::new(0),
            bytes: Cell::new(0),
        })
    }

    /// The warm instance (exposed for snapshot bit-equivalence checks).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The snapshot image, when registered on the restore path.
    pub fn image(&self) -> Option<&[u8]> {
        self.image.as_deref()
    }

    /// The verification certificate, when registered through
    /// [`instantiate_verified`](GuestKernel::instantiate_verified).
    pub fn certificate(&self) -> Option<&Verified> {
        self.cert.as_ref()
    }

    /// The static worst-case fuel for one invocation, when verified —
    /// the registry's predicted-cost hint.
    pub fn predicted_fuel(&self) -> Option<u64> {
        self.cert.as_ref().map(Verified::predicted_fuel)
    }

    /// Cumulative usage since registration.
    pub fn meter(&self) -> GuestMeter {
        GuestMeter {
            invocations: self.invocations.get(),
            fuel: self.fuel.get(),
            bytes: self.bytes.get(),
        }
    }
}

impl Kernel for GuestKernel {
    fn name(&self) -> &str {
        &self.full_name
    }

    fn device_class(&self) -> DeviceClass {
        self.instance.program().device_class
    }

    fn work(&self, input: &Value) -> Result<WorkUnits, KernelError> {
        let p = self.instance.program();
        let bytes_in = input.wire_bytes();
        let flops = p.base_flops + p.flops_per_byte * bytes_in as f64;
        Ok(WorkUnits::new(flops.max(0.0)).with_bytes(bytes_in, p.bytes_out_hint))
    }

    fn execute(&self, input: &Value) -> Result<Value, KernelError> {
        let run = match &self.cert {
            Some(cert) => self.instance.run_verified(cert, input),
            None => self.instance.run(input),
        };
        match run {
            Ok((output, fuel)) => {
                self.invocations.set(self.invocations.get() + 1);
                self.fuel.set(self.fuel.get() + fuel);
                self.bytes
                    .set(self.bytes.get() + input.wire_bytes() + output.wire_bytes());
                Ok(output)
            }
            Err(Trap::FuelExhausted { limit }) => Err(KernelError::FuelExhausted(format!(
                "{}: fuel limit {limit} exhausted",
                self.full_name
            ))),
            Err(trap) => Err(KernelError::Trap(format!("{}: {trap}", self.full_name))),
        }
    }

    fn warmup(&self) -> Warmup {
        self.warmup
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Op;

    fn doubler(snapshot: bool) -> GuestKernel {
        let mut p = GuestProgram::new("double", DeviceClass::Gpu)
            .with_fuel(1000)
            .with_work(10.0, 1.0, 16)
            .with_body(vec![Op::Input, Op::PushU(2), Op::Mul, Op::Return]);
        if snapshot {
            p = p.with_snapshot();
        }
        p.validate().unwrap();
        GuestKernel::instantiate("acme/double@v1", Rc::new(p)).unwrap()
    }

    #[test]
    fn behaves_like_a_kernel() {
        let k = doubler(false);
        assert_eq!(k.name(), "acme/double@v1");
        assert_eq!(k.device_class(), DeviceClass::Gpu);
        assert!(matches!(k.warmup(), Warmup::Instantiate(_)));
        assert!(k.image().is_none());
        let out = k.execute(&Value::U64(21)).unwrap();
        assert_eq!(out, Value::U64(42));
        let w = k.work(&Value::U64(21)).unwrap();
        assert_eq!(w.bytes_in, 16);
        assert_eq!(w.flops, 10.0 + 16.0);
    }

    #[test]
    fn meters_accumulate_on_success_only() {
        let k = doubler(false);
        k.execute(&Value::U64(1)).unwrap();
        k.execute(&Value::U64(2)).unwrap();
        let m = k.meter();
        assert_eq!(m.invocations, 2);
        assert_eq!(m.fuel, 2 * 4);
        assert_eq!(m.bytes, 2 * 32);
        // A trap leaves the meters untouched.
        assert!(k.execute(&Value::F64s(vec![1.0])).is_err());
        assert_eq!(k.meter(), m);
    }

    #[test]
    fn snapshot_path_reports_restore_warmup() {
        let k = doubler(true);
        assert!(matches!(k.warmup(), Warmup::Restore(_)));
        let image = k.image().unwrap().to_vec();
        let restored = Instance::restore(k.instance().program().clone(), &image).unwrap();
        assert_eq!(restored.image_bytes(), image);
    }

    #[test]
    fn verified_registration_runs_fast_and_predicts_fuel() {
        let p = GuestProgram::new("double", DeviceClass::Cpu)
            .with_fuel(1000)
            .with_body(vec![Op::Input, Op::PushU(2), Op::Mul, Op::Return]);
        let cert = crate::verify::verify(&p).unwrap();
        let k = GuestKernel::instantiate_verified("t/double@v1", Rc::new(p), cert).unwrap();
        assert_eq!(k.predicted_fuel(), Some(4));
        assert!(k.certificate().is_some());
        assert_eq!(k.execute(&Value::U64(21)).unwrap(), Value::U64(42));
        // Non-clean inputs fall back to the checking path and still
        // trap honestly.
        assert!(matches!(
            k.execute(&Value::F64s(vec![1.0])),
            Err(KernelError::Trap(_))
        ));
        // A certificate for a different program is discarded.
        let other = GuestProgram::new("other", DeviceClass::Cpu)
            .with_fuel(1000)
            .with_body(vec![Op::Input, Op::Return]);
        let stale = crate::verify::verify(&other).unwrap();
        let p2 = GuestProgram::new("double", DeviceClass::Cpu)
            .with_fuel(1000)
            .with_body(vec![Op::Input, Op::PushU(2), Op::Mul, Op::Return]);
        let k = GuestKernel::instantiate_verified("t/double@v2", Rc::new(p2), stale).unwrap();
        assert!(k.certificate().is_none());
        assert_eq!(k.predicted_fuel(), None);
    }

    #[test]
    fn error_mapping_is_kind_preserving() {
        let spin = GuestProgram::new("spin", DeviceClass::Cpu)
            .with_fuel(8)
            .with_body(vec![Op::Jump(0)]);
        let k = GuestKernel::instantiate("t/spin@v1", Rc::new(spin)).unwrap();
        assert!(matches!(
            k.execute(&Value::Unit),
            Err(KernelError::FuelExhausted(_))
        ));
        let div = GuestProgram::new("div", DeviceClass::Cpu)
            .with_fuel(100)
            .with_body(vec![Op::Input, Op::PushU(0), Op::Div, Op::Return]);
        let k = GuestKernel::instantiate("t/div@v1", Rc::new(div)).unwrap();
        assert!(matches!(
            k.execute(&Value::U64(1)),
            Err(KernelError::Trap(_))
        ));
    }
}

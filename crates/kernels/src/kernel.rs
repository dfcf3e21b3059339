//! The [`Kernel`] trait: what developers register with a KaaS server.
//!
//! A kernel couples a *real computation* ([`Kernel::execute`]) with a
//! *work profile* ([`Kernel::work`]) that device models turn into virtual
//! time. For workloads whose full-scale computation is infeasible on a
//! laptop (e.g. a 20 000×20 000 matrix product), `execute` computes a
//! truth-preserving reduced instance while `work` still describes the
//! full-scale cost — the timing experiments depend only on `work`.

use std::time::Duration;

use kaas_accel::{DeviceClass, WorkUnits};

use crate::value::Value;

/// Errors raised by kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The input value has the wrong shape or type for this kernel.
    BadInput(String),
    /// A guest kernel trapped (division by zero, out-of-bounds access,
    /// type confusion, …). The computation is deterministic, so retrying
    /// the same input traps the same way.
    Trap(String),
    /// A guest kernel ran out of fuel before returning.
    FuelExhausted(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::BadInput(msg) => write!(f, "bad kernel input: {msg}"),
            KernelError::Trap(msg) => write!(f, "guest kernel trapped: {msg}"),
            KernelError::FuelExhausted(msg) => write!(f, "guest kernel out of fuel: {msg}"),
        }
    }
}

/// How a kernel comes up on a fresh runner (the last cold-start phase).
///
/// Compiled-in kernels are [`Warmup::Resident`]: their code is part of
/// the runner binary, so bringing one up costs nothing beyond the
/// process/context phases the runner already pays. Guest kernels pay an
/// extra warm-init phase whose cost depends on the path the tenant
/// registered them with: a full instantiate (parse + validate + run the
/// init program) or a Proto-Faaslet-style restore of a pre-initialized
/// interpreter image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Warmup {
    /// Compiled into the runner; no warm-init cost.
    Resident,
    /// Full instantiate: parse + validate + run the init program.
    Instantiate(Duration),
    /// Restore a pre-initialized snapshot image.
    Restore(Duration),
}

impl Warmup {
    /// The warm-init cost, if any, with its cold-start path label
    /// (`"full"` or `"restore"` — the `guest.cold_start.{path}` hole).
    pub fn cost(&self) -> Option<(&'static str, Duration)> {
        match self {
            Warmup::Resident => None,
            Warmup::Instantiate(d) => Some(("full", *d)),
            Warmup::Restore(d) => Some(("restore", *d)),
        }
    }
}

impl std::error::Error for KernelError {}

/// A registrable accelerator kernel (the paper's §3.1 unit of
/// registration and invocation).
pub trait Kernel {
    /// Unique kernel name used at registration/invocation time.
    fn name(&self) -> &str;

    /// The device family this kernel targets.
    fn device_class(&self) -> DeviceClass;

    /// Reference standalone occupancy on a large GPU (fraction of the
    /// device a single instance can use). Scaled per device by
    /// `GpuProfile::demand_scale`.
    fn demand(&self) -> f64 {
        0.25
    }

    /// How this kernel comes up on a fresh runner. Compiled-in kernels
    /// are resident in the runner binary; guest kernels override this
    /// with their instantiate/restore cost.
    fn warmup(&self) -> Warmup {
        Warmup::Resident
    }

    /// The work profile for `input` (FLOPs, transfer volumes, efficiency,
    /// FPGA cycles, circuit cost).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::BadInput`] if `input` has the wrong shape.
    fn work(&self, input: &Value) -> Result<WorkUnits, KernelError>;

    /// Runs the computation.
    ///
    /// An implementation may memoize its output per instance for
    /// descriptor inputs (`Value::U64(n)`) when that output is a pure
    /// function of the input, as `MatMul`, `SoftDtw` and `ResNet50` do:
    /// timing comes from [`Kernel::work`], so a memo changes host time
    /// only.
    /// A kernel whose output depends on state that evolves across calls
    /// (an RNG stream, as in `MonteCarlo`) must not memoize.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::BadInput`] if `input` has the wrong shape.
    fn execute(&self, input: &Value) -> Result<Value, KernelError>;
}

/// Convenience: validates and extracts the `U64` task-granularity
/// parameter most kernels take.
pub(crate) fn require_n(kernel: &str, input: &Value) -> Result<u64, KernelError> {
    input.as_u64().ok_or_else(|| {
        KernelError::BadInput(format!("{kernel} expects Value::U64(n), got {input:?}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;

    impl Kernel for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn device_class(&self) -> DeviceClass {
            DeviceClass::Cpu
        }
        fn work(&self, input: &Value) -> Result<WorkUnits, KernelError> {
            Ok(WorkUnits::new(0.0).with_bytes(input.wire_bytes(), input.wire_bytes()))
        }
        fn execute(&self, input: &Value) -> Result<Value, KernelError> {
            Ok(input.clone())
        }
    }

    #[test]
    fn trait_object_is_usable() {
        let k: Box<dyn Kernel> = Box::new(Echo);
        assert_eq!(k.name(), "echo");
        assert_eq!(k.demand(), 0.25);
        let out = k.execute(&Value::U64(3)).unwrap();
        assert_eq!(out, Value::U64(3));
        assert_eq!(k.work(&Value::U64(3)).unwrap().bytes_in, 16);
    }

    #[test]
    fn require_n_rejects_non_scalars() {
        assert!(require_n("k", &Value::Unit).is_err());
        assert_eq!(require_n("k", &Value::U64(9)).unwrap(), 9);
    }

    #[test]
    fn error_display() {
        let e = KernelError::BadInput("nope".into());
        assert!(e.to_string().contains("nope"));
        assert!(KernelError::Trap("div".into()).to_string().contains("div"));
        assert!(KernelError::FuelExhausted("f".into())
            .to_string()
            .contains("fuel"));
    }

    #[test]
    fn warmup_defaults_and_costs() {
        let k: Box<dyn Kernel> = Box::new(Echo);
        assert_eq!(k.warmup(), Warmup::Resident);
        assert_eq!(Warmup::Resident.cost(), None);
        let d = Duration::from_micros(5);
        assert_eq!(Warmup::Instantiate(d).cost(), Some(("full", d)));
        assert_eq!(Warmup::Restore(d).cost(), Some(("restore", d)));
    }
}

//! # kaas-guest — deterministic guest kernel runtime
//!
//! The paper's tenants *bring* their kernels; this crate is the runtime
//! that makes that possible without compiling them in. A guest kernel is
//! a small stack-machine program ([`GuestProgram`]) over the existing
//! [`Value`](kaas_kernels::Value) type: fuel-metered, sandboxed (no host
//! calls, no ambient time or randomness), and statically validated at
//! registration. A warm [`Instance`] pairs the program with its
//! post-init globals; [`GuestKernel`] adapts it to the ordinary
//! [`Kernel`](kaas_kernels::Kernel) trait so dispatch, placement, and
//! device models treat tenant code exactly like compiled-in kernels.
//!
//! Cold start is a two-path artifact (Faasm's Proto-Faaslets, applied to
//! the KaaS runner model): a fresh runner either pays **full
//! instantiate** (parse + validate + replay the init program) or
//! **restores** a pre-initialized snapshot image serialized at register
//! time — [`full_instantiate_cost`] vs [`restore_cost`] in virtual time,
//! with [`Instance::snapshot`]/[`Instance::restore`] carrying the bytes.
//!
//! Registration also runs [`verify`]: an abstract interpreter that
//! types every reachable instruction, proves stack depths, bounds
//! worst-case fuel, and rejects programs that provably trap. The
//! resulting [`Verified`] certificate carries, per clean input class,
//! the body lowered into typed register code: the compiled tier, which
//! runs with every type and underflow check discharged statically and
//! charges fuel per straight-line block.
//!
//! ```
//! use std::rc::Rc;
//! use kaas_accel::DeviceClass;
//! use kaas_guest::{verify, FuelBound, GuestKernel, GuestProgram, Op};
//! use kaas_kernels::{Kernel, Value};
//!
//! let program = GuestProgram::new("double", DeviceClass::Cpu)
//!     .with_fuel(100)
//!     .with_body(vec![Op::Input, Op::PushU(2), Op::Mul, Op::Return]);
//! let cert = verify(&program).unwrap();
//! assert_eq!(cert.fuel_bound, FuelBound::Bounded(4));
//! let kernel = GuestKernel::instantiate_verified("acme/double@v1", Rc::new(program), cert)
//!     .unwrap();
//! assert_eq!(kernel.predicted_fuel(), Some(4));
//! assert_eq!(kernel.execute(&Value::U64(21)).unwrap(), Value::U64(42));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compiled;
mod interp;
mod kernel;
mod program;
mod verify;

pub use interp::{full_instantiate_cost, restore_cost, Instance, RestoreError, RunStats, Trap};
pub use kernel::{GuestKernel, GuestMeter};
pub use program::{GuestProgram, Op, ProgramError, MAX_VEC_LEN};
pub use verify::{
    verify, AbsTy, ClassVerdict, FuelBound, InputClass, SeqFacts, SeqName, Verified, VerifyDiag,
    VerifyError,
};

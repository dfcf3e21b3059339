//! Guest-kernel bytecode: the [`Op`] instruction set, the [`GuestProgram`]
//! container tenants register, static validation and the content hash.

use kaas_accel::DeviceClass;
use kaas_kernels::Value;

/// Hard cap on vector lengths a guest may materialize (per value).
pub const MAX_VEC_LEN: u64 = 1 << 22;

/// One stack-machine instruction.
///
/// The machine operates on [`Value`]s: scalars (`U64`, `F64`) and flat
/// float vectors (`F64s`). There is no heap, no host calls, no ambient
/// time or randomness — a program is a pure function of its input and
/// its post-init globals, which is what makes registered kernels safe to
/// replay and snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push an unsigned integer literal.
    PushU(u64),
    /// Push a float literal.
    PushF(f64),
    /// Push a copy of the invocation input (Unit during init).
    Input,
    /// Push a copy of global `g`.
    Global(u8),
    /// Pop into global `g`. Valid only in the init program; validation
    /// rejects it in the body so instances are immutable once warm.
    SetGlobal(u8),
    /// Duplicate the top of stack.
    Dup,
    /// Drop the top of stack.
    Pop,
    /// Swap the top two stack slots.
    Swap,
    /// Pop b, pop a, push a + b (wrapping on integers).
    Add,
    /// Pop b, pop a, push a − b (wrapping on integers).
    Sub,
    /// Pop b, pop a, push a × b (wrapping on integers).
    Mul,
    /// Pop b, pop a, push a ÷ b; traps on a zero divisor.
    Div,
    /// Pop b, pop a, push a mod b; traps on a zero divisor.
    Rem,
    /// Pop a, push −a (as a float).
    Neg,
    /// Pop a, push √a; traps on negative input.
    Sqrt,
    /// Pop b, pop a, push min(a, b).
    Min,
    /// Pop b, pop a, push max(a, b).
    Max,
    /// Pop b, pop a, push 1 if a < b else 0.
    Lt,
    /// Pop b, pop a, push 1 if a = b else 0.
    Eq,
    /// Pop a value, push its element count (vector/bytes/text/list).
    Len,
    /// Pop index i, pop vector v, push v\[i\]; traps out of bounds.
    Get,
    /// Pop fill value f, pop count n, push a vector of n copies of f.
    VecFill,
    /// Pop scalar s, pop vector v, push v scaled by s.
    VecScale,
    /// Pop vector b, pop vector a, push a + b elementwise.
    VecAdd,
    /// Pop vector v, push the sum of its elements.
    VecSum,
    /// Pop vector b, pop vector a, push their dot product.
    VecDot,
    /// Unconditional jump to absolute instruction index.
    Jump(u16),
    /// Pop condition c, jump to absolute index if c is zero.
    JumpIfZero(u16),
    /// Pop the top of stack and return it as the kernel output.
    Return,
}

impl Op {
    /// Mnemonic (the name used in the content hash and in verifier
    /// diagnostics).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::PushU(_) => "push.u",
            Op::PushF(_) => "push.f",
            Op::Input => "input",
            Op::Global(_) => "global",
            Op::SetGlobal(_) => "set_global",
            Op::Dup => "dup",
            Op::Pop => "pop",
            Op::Swap => "swap",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Div => "div",
            Op::Rem => "rem",
            Op::Neg => "neg",
            Op::Sqrt => "sqrt",
            Op::Min => "min",
            Op::Max => "max",
            Op::Lt => "lt",
            Op::Eq => "eq",
            Op::Len => "len",
            Op::Get => "get",
            Op::VecFill => "vec.fill",
            Op::VecScale => "vec.scale",
            Op::VecAdd => "vec.add",
            Op::VecSum => "vec.sum",
            Op::VecDot => "vec.dot",
            Op::Jump(_) => "jump",
            Op::JumpIfZero(_) => "jump.ez",
            Op::Return => "return",
        }
    }
}

/// A validated-on-registration guest kernel program.
///
/// `init` runs once per instance (at register time, and conceptually on
/// every full-instantiate cold start); `body` runs per invocation with
/// read-only globals. `fuel_limit` bounds both.
#[derive(Debug, Clone, PartialEq)]
pub struct GuestProgram {
    /// Kernel name (no `/`, `@`, whitespace, or leading `_`); the server
    /// namespaces it as `tenant/name@vN`.
    pub name: String,
    /// Device family the kernel targets.
    pub device_class: DeviceClass,
    /// Fuel budget per run (init and each body invocation separately).
    pub fuel_limit: u64,
    /// Declared work profile: fixed FLOPs per invocation…
    pub base_flops: f64,
    /// …plus FLOPs per input wire byte.
    pub flops_per_byte: f64,
    /// Declared output size for transfer modeling.
    pub bytes_out_hint: u64,
    /// Number of global slots.
    pub globals: u8,
    /// Register with a pre-initialized snapshot image (restore-path cold
    /// start) instead of paying full instantiate on every fresh runner.
    pub snapshot: bool,
    /// Runs once at instantiate time; may write globals.
    pub init: Vec<Op>,
    /// Runs per invocation; globals are read-only.
    pub body: Vec<Op>,
}

/// Why a program failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The kernel name is empty or contains reserved characters.
    BadName(String),
    /// `fuel_limit` is zero.
    ZeroFuel,
    /// The body is empty (nothing to run).
    EmptyBody,
    /// An instruction sequence exceeds the `u16` addressing range.
    TooLong(usize),
    /// A jump targets past the end of its sequence.
    BadJump {
        /// Instruction index of the offending jump.
        at: usize,
        /// Its (invalid) target.
        target: u16,
    },
    /// A global index is out of range for the declared slot count.
    BadGlobal {
        /// Instruction index of the offending access.
        at: usize,
        /// The out-of-range slot index.
        slot: u8,
    },
    /// `SetGlobal` appeared in the body (instances must stay immutable).
    SetGlobalInBody(usize),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::BadName(n) => write!(f, "bad kernel name {n:?}"),
            ProgramError::ZeroFuel => write!(f, "fuel_limit must be positive"),
            ProgramError::EmptyBody => write!(f, "body has no instructions"),
            ProgramError::TooLong(n) => write!(f, "program too long ({n} ops)"),
            ProgramError::BadJump { at, target } => {
                write!(f, "op {at}: jump target {target} out of range")
            }
            ProgramError::BadGlobal { at, slot } => {
                write!(f, "op {at}: global slot {slot} out of range")
            }
            ProgramError::SetGlobalInBody(at) => {
                write!(f, "op {at}: set_global is init-only")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl GuestProgram {
    /// A minimal program skeleton; fill in `init`/`body` and tune the
    /// knobs with the `with_*` builders.
    pub fn new(name: &str, device_class: DeviceClass) -> Self {
        GuestProgram {
            name: name.to_string(),
            device_class,
            fuel_limit: 1 << 20,
            base_flops: 0.0,
            flops_per_byte: 0.0,
            bytes_out_hint: 16,
            globals: 0,
            snapshot: false,
            init: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Sets the per-run fuel budget.
    pub fn with_fuel(mut self, fuel_limit: u64) -> Self {
        self.fuel_limit = fuel_limit;
        self
    }

    /// Declares the work profile used for device-time modeling.
    pub fn with_work(mut self, base_flops: f64, flops_per_byte: f64, bytes_out_hint: u64) -> Self {
        self.base_flops = base_flops;
        self.flops_per_byte = flops_per_byte;
        self.bytes_out_hint = bytes_out_hint;
        self
    }

    /// Declares `n` global slots and the init program that fills them.
    pub fn with_init(mut self, globals: u8, init: Vec<Op>) -> Self {
        self.globals = globals;
        self.init = init;
        self
    }

    /// Sets the per-invocation body.
    pub fn with_body(mut self, body: Vec<Op>) -> Self {
        self.body = body;
        self
    }

    /// Opts into the pre-initialized snapshot/restore cold-start path.
    pub fn with_snapshot(mut self) -> Self {
        self.snapshot = true;
        self
    }

    /// Statically validates the program: name shape, fuel, jump targets,
    /// global indices, and init-only `SetGlobal`.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let bad_name = self.name.is_empty()
            || self.name.starts_with('_')
            || self
                .name
                .chars()
                .any(|c| c == '/' || c == '@' || c.is_whitespace());
        if bad_name {
            return Err(ProgramError::BadName(self.name.clone()));
        }
        if self.fuel_limit == 0 {
            return Err(ProgramError::ZeroFuel);
        }
        if self.body.is_empty() {
            return Err(ProgramError::EmptyBody);
        }
        for seq in [&self.init, &self.body] {
            if seq.len() > u16::MAX as usize {
                return Err(ProgramError::TooLong(seq.len()));
            }
        }
        self.check_seq(&self.init, true)?;
        self.check_seq(&self.body, false)
    }

    fn check_seq(&self, seq: &[Op], allow_set: bool) -> Result<(), ProgramError> {
        for (at, op) in seq.iter().enumerate() {
            match *op {
                Op::Jump(target) | Op::JumpIfZero(target) if target as usize > seq.len() => {
                    return Err(ProgramError::BadJump { at, target });
                }
                Op::SetGlobal(_) if !allow_set => {
                    return Err(ProgramError::SetGlobalInBody(at));
                }
                Op::Global(slot) | Op::SetGlobal(slot) if slot >= self.globals => {
                    return Err(ProgramError::BadGlobal { at, slot });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Content hash (FNV-1a over the canonical encoding); snapshot images
    /// embed it so a restore against the wrong program is rejected.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.update(self.name.as_bytes());
        h.update(self.device_class.to_string().as_bytes());
        h.update(&self.fuel_limit.to_le_bytes());
        h.update(&self.base_flops.to_bits().to_le_bytes());
        h.update(&self.flops_per_byte.to_bits().to_le_bytes());
        h.update(&self.bytes_out_hint.to_le_bytes());
        h.update(&[self.globals, self.snapshot as u8]);
        for seq in [&self.init, &self.body] {
            h.update(&(seq.len() as u64).to_le_bytes());
            for op in seq {
                for v in encode_op(op) {
                    match v {
                        Value::Text(t) => h.update(t.as_bytes()),
                        Value::U64(n) => h.update(&n.to_le_bytes()),
                        Value::F64(x) => h.update(&x.to_bits().to_le_bytes()),
                        _ => {}
                    }
                }
            }
        }
        h.finish()
    }
}

fn encode_op(op: &Op) -> Vec<Value> {
    let mut parts = vec![Value::Text(op.mnemonic().to_string())];
    match *op {
        Op::PushU(n) => parts.push(Value::U64(n)),
        Op::PushF(x) => parts.push(Value::F64(x)),
        Op::Global(g) | Op::SetGlobal(g) => parts.push(Value::U64(g as u64)),
        Op::Jump(target) | Op::JumpIfZero(target) => parts.push(Value::U64(target as u64)),
        _ => {}
    }
    parts
}

/// Incremental FNV-1a (64-bit).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GuestProgram {
        GuestProgram::new("axpy", DeviceClass::Gpu)
            .with_fuel(10_000)
            .with_work(100.0, 2.0, 64)
            .with_init(
                1,
                vec![Op::PushU(4), Op::PushF(2.5), Op::VecFill, Op::SetGlobal(0)],
            )
            .with_body(vec![Op::Input, Op::Global(0), Op::VecDot, Op::Return])
    }

    #[test]
    fn hash_is_content_sensitive() {
        let p = sample();
        let mut q = sample();
        q.body.push(Op::Pop);
        assert_ne!(p.hash(), q.hash());
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut p = sample();
        p.name = "a/b".to_string();
        assert!(matches!(p.validate(), Err(ProgramError::BadName(_))));
        let mut p = sample();
        p.name = "_sneaky".to_string();
        assert!(matches!(p.validate(), Err(ProgramError::BadName(_))));
        let mut p = sample();
        p.fuel_limit = 0;
        assert_eq!(p.validate(), Err(ProgramError::ZeroFuel));
        let mut p = sample();
        p.body.clear();
        assert_eq!(p.validate(), Err(ProgramError::EmptyBody));
        let mut p = sample();
        p.body = vec![Op::Jump(99), Op::Return];
        assert_eq!(
            p.validate(),
            Err(ProgramError::BadJump { at: 0, target: 99 })
        );
        let mut p = sample();
        p.body = vec![Op::Global(7), Op::Return];
        assert_eq!(
            p.validate(),
            Err(ProgramError::BadGlobal { at: 0, slot: 7 })
        );
        let mut p = sample();
        p.body = vec![Op::PushU(1), Op::SetGlobal(0), Op::Return];
        assert_eq!(p.validate(), Err(ProgramError::SetGlobalInBody(1)));
    }
}

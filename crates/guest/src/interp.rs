//! The fuel-metered stack interpreter, instance snapshot/restore, and
//! the virtual-time cold-start cost model.

use std::rc::Rc;
use std::time::Duration;

use kaas_kernels::Value;

use crate::program::{GuestProgram, Op, MAX_VEC_LEN};
use crate::verify::{InputClass, Verified};

/// A runtime fault inside a guest program. Traps are deterministic:
/// the same program and input trap identically on every run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Integer or float division (or remainder) by zero.
    DivByZero,
    /// Vector access past the end.
    OobIndex {
        /// The requested index.
        index: u64,
        /// The vector length.
        len: u64,
    },
    /// An operand had the wrong type for the instruction.
    TypeMismatch(&'static str),
    /// `set_global` executed outside the init program.
    InitOnly,
    /// A binary vector op over vectors of different lengths.
    LengthMismatch {
        /// Length of the left operand.
        left: u64,
        /// Length of the right operand.
        right: u64,
    },
    /// An instruction popped an empty stack.
    StackUnderflow,
    /// The body ran off the end without executing `Return`.
    NoReturn,
    /// A math-domain fault (negative sqrt, oversized vector, …).
    Domain(&'static str),
    /// The fuel budget ran out mid-program.
    FuelExhausted {
        /// The program's fuel limit.
        limit: u64,
    },
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::OobIndex { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            Trap::TypeMismatch(what) => write!(f, "type mismatch: {what}"),
            Trap::InitOnly => write!(f, "set_global outside init"),
            Trap::LengthMismatch { left, right } => {
                write!(f, "vector length mismatch: {left} vs {right}")
            }
            Trap::StackUnderflow => write!(f, "stack underflow"),
            Trap::NoReturn => write!(f, "body ended without return"),
            Trap::Domain(what) => write!(f, "domain fault: {what}"),
            Trap::FuelExhausted { limit } => write!(f, "fuel limit {limit} exhausted"),
        }
    }
}

impl std::error::Error for Trap {}

/// Per-run execution counters: retired instructions plus the dynamic
/// type/underflow checks the interpreter performed. The compiled tier
/// discharges those checks statically, so its `checks` stays 0 — the
/// delta is what the `verify` bench turns into modeled time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions retired.
    pub ops: u64,
    /// Dynamic type and underflow checks performed.
    pub checks: u64,
}

/// Execution metering, monomorphized away on the uncounted paths.
pub(crate) trait Meter {
    fn ops(&mut self, n: u64);
    fn checks(&mut self, n: u64);
}

struct NoMeter;

impl Meter for NoMeter {
    #[inline(always)]
    fn ops(&mut self, _: u64) {}
    #[inline(always)]
    fn checks(&mut self, _: u64) {}
}

impl Meter for RunStats {
    #[inline(always)]
    fn ops(&mut self, n: u64) {
        self.ops += n;
    }
    #[inline(always)]
    fn checks(&mut self, n: u64) {
        self.checks += n;
    }
}

/// The global table as one execution phase sees it: init may write,
/// invocations share the post-init table read-only (so `run` never
/// clones it).
enum Globals<'a> {
    Init(&'a mut [Value]),
    Frozen(&'a [Value]),
}

impl Globals<'_> {
    fn get(&self, g: u8) -> &Value {
        match self {
            Globals::Init(xs) => &xs[g as usize],
            Globals::Frozen(xs) => &xs[g as usize],
        }
    }

    fn set(&mut self, g: u8, v: Value) -> Result<(), Trap> {
        match self {
            Globals::Init(xs) => {
                xs[g as usize] = v;
                Ok(())
            }
            Globals::Frozen(_) => Err(Trap::InitOnly),
        }
    }
}

/// Why a snapshot image failed to restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The image was built from a different program (content hash).
    HashMismatch,
    /// The image ended mid-field.
    Truncated,
    /// An unknown value tag in the global table.
    BadTag(u8),
    /// The image's global count disagrees with the program's.
    WrongGlobals,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::HashMismatch => write!(f, "snapshot is for a different program"),
            RestoreError::Truncated => write!(f, "snapshot image truncated"),
            RestoreError::BadTag(t) => write!(f, "snapshot image has unknown value tag {t}"),
            RestoreError::WrongGlobals => write!(f, "snapshot global count mismatch"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// A warm guest-kernel instance: the program plus its post-init globals.
///
/// Because validation forbids `SetGlobal` in the body, an instance never
/// mutates after init — invocations are pure reads, so one instance can
/// back any number of runners and a snapshot taken at register time
/// stays valid forever.
#[derive(Debug, Clone)]
pub struct Instance {
    program: Rc<GuestProgram>,
    globals: Vec<Value>,
    init_fuel: u64,
}

impl Instance {
    /// Full instantiate: run the init program against fresh globals.
    ///
    /// # Errors
    ///
    /// Propagates any [`Trap`] raised by the init program.
    pub fn instantiate(program: Rc<GuestProgram>) -> Result<Instance, Trap> {
        let mut globals = vec![Value::Unit; program.globals as usize];
        let (_, init_fuel) = exec(
            &program.init,
            Globals::Init(&mut globals),
            &Value::Unit,
            program.fuel_limit,
            &mut NoMeter,
        )?;
        Ok(Instance {
            program,
            globals,
            init_fuel,
        })
    }

    /// The program this instance was built from.
    pub fn program(&self) -> &Rc<GuestProgram> {
        &self.program
    }

    /// Fuel the init program consumed (drives the full-instantiate cost).
    pub fn init_fuel(&self) -> u64 {
        self.init_fuel
    }

    /// Runs the body once. Returns the output and the fuel consumed.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] the body raised, if any.
    pub fn run(&self, input: &Value) -> Result<(Value, u64), Trap> {
        let (v, fuel, _) = self.run_metered(input, &mut NoMeter)?;
        Ok((v, fuel))
    }

    /// [`run`](Instance::run) plus the [`RunStats`] the checking
    /// interpreter accumulated.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] the body raised, if any.
    pub fn run_counted(&self, input: &Value) -> Result<(Value, u64, RunStats), Trap> {
        let mut stats = RunStats::default();
        self.run_metered(input, &mut stats)
            .map(|(v, fuel, _)| (v, fuel, stats))
    }

    /// Runs the body under a verification certificate: inputs whose
    /// class verdict is [`ClassVerdict::Clean`](crate::ClassVerdict::Clean)
    /// run the certificate's compiled code for that class, typed
    /// register code with every type and underflow check discharged and
    /// fuel charged per straight-line block; every other class falls
    /// back to the checking interpreter. Output, fuel, op count and
    /// trap are identical on both paths.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] the body raised, if any.
    ///
    /// # Panics
    ///
    /// Debug builds assert the certificate covers this program
    /// (content hash) — a stale certificate is a caller bug.
    pub fn run_verified(&self, cert: &Verified, input: &Value) -> Result<(Value, u64), Trap> {
        let (v, fuel, _) = self.run_verified_metered(cert, input, &mut NoMeter)?;
        Ok((v, fuel))
    }

    /// [`run_verified`](Instance::run_verified) plus [`RunStats`] and
    /// whether the compiled tier ran.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] the body raised, if any.
    pub fn run_verified_counted(
        &self,
        cert: &Verified,
        input: &Value,
    ) -> Result<(Value, u64, RunStats, bool), Trap> {
        let mut stats = RunStats::default();
        self.run_verified_metered(cert, input, &mut stats)
            .map(|(v, fuel, fast)| (v, fuel, stats, fast))
    }

    fn run_metered<M: Meter>(&self, input: &Value, m: &mut M) -> Result<(Value, u64, bool), Trap> {
        let (out, fuel) = exec(
            &self.program.body,
            Globals::Frozen(&self.globals),
            input,
            self.program.fuel_limit,
            m,
        )?;
        match out {
            Some(v) => Ok((v, fuel, false)),
            None => Err(Trap::NoReturn),
        }
    }

    fn run_verified_metered<M: Meter>(
        &self,
        cert: &Verified,
        input: &Value,
        m: &mut M,
    ) -> Result<(Value, u64, bool), Trap> {
        debug_assert!(
            cert.covers(&self.program),
            "certificate is for a different program"
        );
        match cert.compiled(InputClass::of(input)) {
            Some(code) => {
                let (v, fuel) = code.run(&self.globals, input, self.program.fuel_limit, m)?;
                Ok((v, fuel, true))
            }
            None => self.run_metered(input, m),
        }
    }

    /// The canonical byte image of this instance: program hash, init
    /// fuel, then the serialized global table. Two instances of the same
    /// program always produce byte-identical images — the bit-equivalence
    /// the snapshot path depends on.
    pub fn image_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.program.hash().to_le_bytes());
        out.extend_from_slice(&self.init_fuel.to_le_bytes());
        out.extend_from_slice(&(self.globals.len() as u64).to_le_bytes());
        for g in &self.globals {
            encode_value(g, &mut out);
        }
        out
    }

    /// Serializes the pre-initialized image (alias of [`image_bytes`]
    /// kept for intent at call sites).
    ///
    /// [`image_bytes`]: Instance::image_bytes
    pub fn snapshot(&self) -> Vec<u8> {
        self.image_bytes()
    }

    /// Proto-Faaslet-style restore: rebuild a warm instance from a
    /// snapshot image without re-running init.
    ///
    /// # Errors
    ///
    /// Returns a [`RestoreError`] if the image is corrupt or belongs to
    /// a different program.
    pub fn restore(program: Rc<GuestProgram>, image: &[u8]) -> Result<Instance, RestoreError> {
        let mut cur = Cursor { buf: image, at: 0 };
        let hash = u64::from_le_bytes(cur.take8()?);
        if hash != program.hash() {
            return Err(RestoreError::HashMismatch);
        }
        let init_fuel = u64::from_le_bytes(cur.take8()?);
        let n = u64::from_le_bytes(cur.take8()?);
        if n != program.globals as u64 {
            return Err(RestoreError::WrongGlobals);
        }
        let mut globals = Vec::with_capacity(n as usize);
        for _ in 0..n {
            globals.push(decode_value(&mut cur)?);
        }
        if cur.at != image.len() {
            return Err(RestoreError::Truncated);
        }
        Ok(Instance {
            program,
            globals,
            init_fuel,
        })
    }
}

/// Virtual-time cost of a full instantiate on a fresh runner: a fixed
/// parse/validate floor, a per-op compile pass, and replaying the init
/// program at 1 µs per unit of init fuel.
pub fn full_instantiate_cost(program: &GuestProgram, init_fuel: u64) -> Duration {
    let ops = (program.init.len() + program.body.len()) as u64;
    Duration::from_nanos(200_000 + 2_000 * ops + 1_000 * init_fuel)
}

/// Virtual-time cost of restoring a pre-initialized snapshot image:
/// a small fixed mapping cost plus a per-byte copy.
pub fn restore_cost(image_len: usize) -> Duration {
    Duration::from_nanos(30_000 + 2 * image_len as u64)
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], RestoreError> {
        if self.at + n > self.buf.len() {
            return Err(RestoreError::Truncated);
        }
        let slice = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }
    fn take8(&mut self) -> Result<[u8; 8], RestoreError> {
        let mut out = [0u8; 8];
        out.copy_from_slice(self.take(8)?);
        Ok(out)
    }
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Unit => out.push(0),
        Value::U64(n) => {
            out.push(1);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::F64s(xs) => {
            out.push(3);
            out.extend_from_slice(&(xs.len() as u64).to_le_bytes());
            for x in xs {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        // Init programs can only produce the four kinds above (their
        // input is Unit), so anything else marks the image unrestorable.
        _ => out.push(255),
    }
}

fn decode_value(cur: &mut Cursor<'_>) -> Result<Value, RestoreError> {
    let tag = cur.take(1)?[0];
    Ok(match tag {
        0 => Value::Unit,
        1 => Value::U64(u64::from_le_bytes(cur.take8()?)),
        2 => Value::F64(f64::from_bits(u64::from_le_bytes(cur.take8()?))),
        3 => {
            let n = u64::from_le_bytes(cur.take8()?);
            let mut xs = Vec::with_capacity(n as usize);
            for _ in 0..n {
                xs.push(f64::from_bits(u64::from_le_bytes(cur.take8()?)));
            }
            Value::F64s(xs)
        }
        other => return Err(RestoreError::BadTag(other)),
    })
}

/// Dynamic type and underflow checks the checking interpreter performs
/// for one instruction — exactly the checks the verifier discharges, so
/// exactly what [`RunStats::checks`] counts. Value guards (div-by-zero,
/// bounds, domain, length, fuel) run on both paths and are not counted.
fn discharged_checks(op: Op) -> u64 {
    match op {
        Op::PushU(_) | Op::PushF(_) | Op::Input | Op::Global(_) | Op::Jump(_) => 0,
        Op::SetGlobal(_) | Op::Dup | Op::Pop | Op::Return => 1,
        Op::Neg | Op::Sqrt | Op::Len | Op::VecSum | Op::JumpIfZero(_) | Op::Swap => 2,
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Rem
        | Op::Min
        | Op::Max
        | Op::Lt
        | Op::Eq
        | Op::Get
        | Op::VecFill
        | Op::VecScale
        | Op::VecAdd
        | Op::VecDot => 4,
    }
}

/// Runs one instruction sequence. Returns the value passed to `Return`
/// (or `None` if the sequence ran off the end) and the fuel consumed.
fn exec<M: Meter>(
    ops: &[Op],
    mut globals: Globals<'_>,
    input: &Value,
    fuel_limit: u64,
    m: &mut M,
) -> Result<(Option<Value>, u64), Trap> {
    let mut stack: Vec<Value> = Vec::new();
    let mut pc: usize = 0;
    let mut fuel: u64 = 0;
    let spend = |fuel: &mut u64, cost: u64| -> Result<(), Trap> {
        *fuel = fuel.saturating_add(cost);
        if *fuel > fuel_limit {
            return Err(Trap::FuelExhausted { limit: fuel_limit });
        }
        Ok(())
    };
    while pc < ops.len() {
        let op = ops[pc];
        pc += 1;
        spend(&mut fuel, 1)?;
        m.ops(1);
        m.checks(discharged_checks(op));
        match op {
            Op::PushU(n) => stack.push(Value::U64(n)),
            Op::PushF(x) => stack.push(Value::F64(x)),
            Op::Input => stack.push(input.clone()),
            Op::Global(g) => stack.push(globals.get(g).clone()),
            Op::SetGlobal(g) => {
                let v = pop(&mut stack)?;
                globals.set(g, v)?;
            }
            Op::Dup => {
                let top = stack.last().ok_or(Trap::StackUnderflow)?.clone();
                stack.push(top);
            }
            Op::Pop => {
                pop(&mut stack)?;
            }
            Op::Swap => {
                let b = pop(&mut stack)?;
                let a = pop(&mut stack)?;
                stack.push(b);
                stack.push(a);
            }
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Rem | Op::Min | Op::Max => {
                let b = pop(&mut stack)?;
                let a = pop(&mut stack)?;
                let bin = Bin::of(op).expect("arithmetic op");
                stack.push(bin.value(&a, &b)?);
            }
            Op::Neg => {
                let x = pop_num(&mut stack)?;
                stack.push(Value::F64(-x));
            }
            Op::Sqrt => {
                let x = pop_num(&mut stack)?;
                if x < 0.0 {
                    return Err(Trap::Domain("sqrt of negative"));
                }
                stack.push(Value::F64(x.sqrt()));
            }
            Op::Lt | Op::Eq => {
                let b = pop_num(&mut stack)?;
                let a = pop_num(&mut stack)?;
                let hit = if matches!(op, Op::Lt) { a < b } else { a == b };
                stack.push(Value::U64(hit as u64));
            }
            Op::Len => {
                let v = pop(&mut stack)?;
                let len = match &v {
                    Value::F64s(xs) => xs.len() as u64,
                    Value::Bytes(bs) => bs.len() as u64,
                    Value::Text(t) => t.len() as u64,
                    Value::List(items) => items.len() as u64,
                    _ => return Err(Trap::TypeMismatch("len of scalar")),
                };
                stack.push(Value::U64(len));
            }
            Op::Get => {
                let index = pop_u64(&mut stack)?;
                let v = pop(&mut stack)?;
                match &v {
                    Value::F64s(xs) => {
                        let x = *xs.get(index as usize).ok_or(Trap::OobIndex {
                            index,
                            len: xs.len() as u64,
                        })?;
                        stack.push(Value::F64(x));
                    }
                    Value::Bytes(bs) => {
                        let b = *bs.get(index as usize).ok_or(Trap::OobIndex {
                            index,
                            len: bs.len() as u64,
                        })?;
                        stack.push(Value::U64(b as u64));
                    }
                    _ => return Err(Trap::TypeMismatch("get on non-vector")),
                }
            }
            Op::VecFill => {
                let fill = pop_num(&mut stack)?;
                let n = pop_u64(&mut stack)?;
                if n > MAX_VEC_LEN {
                    return Err(Trap::Domain("vector too large"));
                }
                spend(&mut fuel, n / 16)?;
                stack.push(Value::F64s(vec![fill; n as usize]));
            }
            Op::VecScale => {
                let s = pop_num(&mut stack)?;
                let mut xs = pop_vec(&mut stack)?;
                spend(&mut fuel, xs.len() as u64 / 16)?;
                for x in &mut xs {
                    *x *= s;
                }
                stack.push(Value::F64s(xs));
            }
            Op::VecAdd => {
                let b = pop_vec(&mut stack)?;
                let mut a = pop_vec(&mut stack)?;
                if a.len() != b.len() {
                    return Err(Trap::LengthMismatch {
                        left: a.len() as u64,
                        right: b.len() as u64,
                    });
                }
                spend(&mut fuel, a.len() as u64 / 16)?;
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += *y;
                }
                stack.push(Value::F64s(a));
            }
            Op::VecSum => {
                let xs = pop_vec(&mut stack)?;
                spend(&mut fuel, xs.len() as u64 / 16)?;
                stack.push(Value::F64(xs.iter().sum()));
            }
            Op::VecDot => {
                let b = pop_vec(&mut stack)?;
                let a = pop_vec(&mut stack)?;
                if a.len() != b.len() {
                    return Err(Trap::LengthMismatch {
                        left: a.len() as u64,
                        right: b.len() as u64,
                    });
                }
                spend(&mut fuel, a.len() as u64 / 16)?;
                let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
                stack.push(Value::F64(dot));
            }
            Op::Jump(target) => pc = target as usize,
            Op::JumpIfZero(target) => {
                if pop_u64(&mut stack)? == 0 {
                    pc = target as usize;
                }
            }
            Op::Return => return Ok((Some(pop(&mut stack)?), fuel)),
        }
    }
    Ok((None, fuel))
}

fn pop(stack: &mut Vec<Value>) -> Result<Value, Trap> {
    stack.pop().ok_or(Trap::StackUnderflow)
}

fn pop_num(stack: &mut Vec<Value>) -> Result<f64, Trap> {
    match pop(stack)? {
        Value::U64(n) => Ok(n as f64),
        Value::F64(x) => Ok(x),
        _ => Err(Trap::TypeMismatch("expected a scalar")),
    }
}

fn pop_u64(stack: &mut Vec<Value>) -> Result<u64, Trap> {
    match pop(stack)? {
        Value::U64(n) => Ok(n),
        _ => Err(Trap::TypeMismatch("expected a u64")),
    }
}

fn pop_vec(stack: &mut Vec<Value>) -> Result<Vec<f64>, Trap> {
    match pop(stack)? {
        Value::F64s(xs) => Ok(xs),
        _ => Err(Trap::TypeMismatch("expected a float vector")),
    }
}

/// A binary arithmetic op, shared by the checking interpreter and the
/// compiled tier so both compute every result with the same expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bin {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
}

impl Bin {
    /// The arithmetic op `op` stands for, if any.
    pub(crate) fn of(op: Op) -> Option<Bin> {
        Some(match op {
            Op::Add => Bin::Add,
            Op::Sub => Bin::Sub,
            Op::Mul => Bin::Mul,
            Op::Div => Bin::Div,
            Op::Rem => Bin::Rem,
            Op::Min => Bin::Min,
            Op::Max => Bin::Max,
            _ => return None,
        })
    }

    /// Integer arithmetic: wrapping, with a zero divisor trapping.
    #[inline(always)]
    pub(crate) fn u64(self, x: u64, y: u64) -> Result<u64, Trap> {
        Ok(match self {
            Bin::Add => x.wrapping_add(y),
            Bin::Sub => x.wrapping_sub(y),
            Bin::Mul => x.wrapping_mul(y),
            Bin::Div => x.checked_div(y).ok_or(Trap::DivByZero)?,
            Bin::Rem => x.checked_rem(y).ok_or(Trap::DivByZero)?,
            Bin::Min => x.min(y),
            Bin::Max => x.max(y),
        })
    }

    /// Float arithmetic, with a zero divisor trapping.
    #[inline(always)]
    pub(crate) fn f64(self, x: f64, y: f64) -> Result<f64, Trap> {
        Ok(match self {
            Bin::Add => x + y,
            Bin::Sub => x - y,
            Bin::Mul => x * y,
            Bin::Div | Bin::Rem if y == 0.0 => return Err(Trap::DivByZero),
            Bin::Div => x / y,
            Bin::Rem => x % y,
            Bin::Min => x.min(y),
            Bin::Max => x.max(y),
        })
    }

    /// Arithmetic on two scalar values: two `u64`s stay integral, any
    /// float operand promotes both.
    pub(crate) fn value(self, a: &Value, b: &Value) -> Result<Value, Trap> {
        if let (Value::U64(x), Value::U64(y)) = (a, b) {
            return Ok(Value::U64(self.u64(*x, *y)?));
        }
        let num = |v: &Value| match v {
            Value::U64(n) => Ok(*n as f64),
            Value::F64(x) => Ok(*x),
            _ => Err(Trap::TypeMismatch("expected a scalar")),
        };
        Ok(Value::F64(self.f64(num(a)?, num(b)?)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_accel::DeviceClass;

    fn program(body: Vec<Op>) -> Rc<GuestProgram> {
        Rc::new(
            GuestProgram::new("t", DeviceClass::Cpu)
                .with_fuel(10_000)
                .with_body(body),
        )
    }

    fn run(body: Vec<Op>, input: Value) -> Result<(Value, u64), Trap> {
        let inst = Instance::instantiate(program(body)).unwrap();
        inst.run(&input)
    }

    #[test]
    fn scalar_arithmetic_and_coercion() {
        let (v, fuel) = run(
            vec![Op::Input, Op::PushU(3), Op::Add, Op::Return],
            Value::U64(4),
        )
        .unwrap();
        assert_eq!(v, Value::U64(7));
        assert_eq!(fuel, 4);
        let (v, _) = run(
            vec![Op::PushU(3), Op::PushF(0.5), Op::Mul, Op::Return],
            Value::Unit,
        )
        .unwrap();
        assert_eq!(v, Value::F64(1.5));
    }

    #[test]
    fn loops_jumps_and_compare() {
        // Count input down to zero, then return what's left (0).
        let body = vec![
            Op::Input,         // 0: [i]
            Op::Dup,           // 1: loop head, [i, i]
            Op::JumpIfZero(6), // 2: exit when i == 0
            Op::PushU(1),      // 3
            Op::Sub,           // 4: i -= 1
            Op::Jump(1),       // 5
            Op::Return,        // 6
        ];
        let (v, fuel) = run(body, Value::U64(5)).unwrap();
        assert_eq!(v, Value::U64(0));
        assert_eq!(fuel, 1 + 5 * 5 + 3);
        let (lt, _) = run(
            vec![Op::PushU(2), Op::PushU(3), Op::Lt, Op::Return],
            Value::Unit,
        )
        .unwrap();
        assert_eq!(lt, Value::U64(1));
        let (eq, _) = run(
            vec![Op::PushF(2.0), Op::PushU(2), Op::Eq, Op::Return],
            Value::Unit,
        )
        .unwrap();
        assert_eq!(eq, Value::U64(1));
    }

    #[test]
    fn vector_ops_match_hand_math() {
        let xs = Value::F64s(vec![1.0, 2.0, 3.0]);
        let (v, _) = run(
            vec![
                Op::Input,
                Op::PushF(2.0),
                Op::VecScale,
                Op::VecSum,
                Op::Return,
            ],
            xs.clone(),
        )
        .unwrap();
        assert_eq!(v, Value::F64(12.0));
        let (v, _) = run(
            vec![Op::Input, Op::Input, Op::VecDot, Op::Return],
            xs.clone(),
        )
        .unwrap();
        assert_eq!(v, Value::F64(14.0));
        let (v, _) = run(vec![Op::Input, Op::Len, Op::Return], xs).unwrap();
        assert_eq!(v, Value::U64(3));
    }

    #[test]
    fn traps_are_precise() {
        assert_eq!(
            run(
                vec![Op::PushU(1), Op::PushU(0), Op::Div, Op::Return],
                Value::Unit
            ),
            Err(Trap::DivByZero)
        );
        assert_eq!(
            run(
                vec![Op::Input, Op::PushU(9), Op::Get, Op::Return],
                Value::F64s(vec![1.0, 2.0])
            ),
            Err(Trap::OobIndex { index: 9, len: 2 })
        );
        assert_eq!(
            run(vec![Op::Pop, Op::Return], Value::Unit),
            Err(Trap::StackUnderflow)
        );
        assert_eq!(
            run(vec![Op::PushF(-1.0), Op::Sqrt, Op::Return], Value::Unit),
            Err(Trap::Domain("sqrt of negative"))
        );
        assert_eq!(
            run(vec![Op::PushU(1), Op::Pop], Value::Unit),
            Err(Trap::NoReturn)
        );
    }

    #[test]
    fn fuel_exhaustion_stops_infinite_loops() {
        let p = Rc::new(
            GuestProgram::new("spin", DeviceClass::Cpu)
                .with_fuel(64)
                .with_body(vec![Op::Jump(0)]),
        );
        let inst = Instance::instantiate(p).unwrap();
        assert_eq!(
            inst.run(&Value::Unit),
            Err(Trap::FuelExhausted { limit: 64 })
        );
    }

    #[test]
    fn snapshot_restore_is_bit_equivalent() {
        let p = Rc::new(
            GuestProgram::new("warm", DeviceClass::Gpu)
                .with_fuel(100_000)
                .with_init(
                    2,
                    vec![
                        Op::PushU(128),
                        Op::PushF(0.25),
                        Op::VecFill,
                        Op::SetGlobal(0),
                        Op::PushF(3.0),
                        Op::SetGlobal(1),
                    ],
                )
                .with_body(vec![
                    Op::Global(0),
                    Op::Global(1),
                    Op::VecScale,
                    Op::VecSum,
                    Op::Return,
                ]),
        );
        let full = Instance::instantiate(p.clone()).unwrap();
        let image = full.snapshot();
        let restored = Instance::restore(p.clone(), &image).unwrap();
        assert_eq!(restored.image_bytes(), full.image_bytes());
        assert_eq!(
            restored.run(&Value::Unit).unwrap(),
            full.run(&Value::Unit).unwrap()
        );

        // Wrong-program restores are rejected by the content hash.
        let other = Rc::new(
            GuestProgram::new("other", DeviceClass::Gpu)
                .with_fuel(100_000)
                .with_body(vec![Op::Input, Op::Return]),
        );
        assert_eq!(
            Instance::restore(other, &image).err(),
            Some(RestoreError::HashMismatch)
        );
        assert_eq!(
            Instance::restore(p, &image[..image.len() - 1]).err(),
            Some(RestoreError::Truncated)
        );
    }

    #[test]
    fn init_only_and_length_traps_are_named_honestly() {
        // An unvalidated program (built by hand) that writes a global
        // from the body traps with the dedicated InitOnly kind.
        let p = Rc::new(GuestProgram {
            body: vec![Op::PushU(1), Op::SetGlobal(0), Op::Return],
            globals: 1,
            ..GuestProgram::new("raw", DeviceClass::Cpu)
        });
        let inst = Instance::instantiate(p).unwrap();
        assert_eq!(inst.run(&Value::Unit), Err(Trap::InitOnly));
        assert_eq!(Trap::InitOnly.to_string(), "set_global outside init");
        // Mismatched vector lengths carry both lengths.
        let err = run(
            vec![
                Op::Input,
                Op::PushU(2),
                Op::PushF(0.0),
                Op::VecFill,
                Op::VecAdd,
                Op::Return,
            ],
            Value::F64s(vec![1.0, 2.0, 3.0]),
        )
        .unwrap_err();
        assert_eq!(err, Trap::LengthMismatch { left: 3, right: 2 });
    }

    #[test]
    fn fast_path_matches_checking_path() {
        let body = vec![
            Op::Input,         // 0
            Op::Dup,           // 1
            Op::JumpIfZero(6), // 2
            Op::PushU(1),      // 3
            Op::Sub,           // 4
            Op::Jump(1),       // 5
            Op::PushU(7),      // 6
            Op::Add,           // 7
            Op::Return,        // 8
        ];
        let p = program(body);
        let cert = crate::verify::verify(&p).unwrap();
        let inst = Instance::instantiate(p).unwrap();
        for n in [0u64, 1, 5, 100] {
            let input = Value::U64(n);
            let slow = inst.run_counted(&input).unwrap();
            let (v, fuel, stats, fast) = inst.run_verified_counted(&cert, &input).unwrap();
            assert!(fast, "u64 inputs verify clean");
            assert_eq!((v, fuel), (slow.0, slow.1));
            assert_eq!(stats.ops, slow.2.ops);
            assert_eq!(stats.checks, 0);
            assert!(slow.2.checks > 0);
        }
        // A non-clean class falls back to the checking interpreter and
        // traps exactly as `run` does.
        assert_eq!(
            inst.run_verified(&cert, &Value::F64s(vec![1.0])),
            inst.run(&Value::F64s(vec![1.0]))
        );
        // Fuel exhaustion still fires in the compiled tier.
        let spin = Rc::new(
            GuestProgram::new("spin", DeviceClass::Cpu)
                .with_fuel(64)
                .with_body(vec![Op::PushU(1), Op::Pop, Op::Jump(0)]),
        );
        let cert = crate::verify::verify(&spin).unwrap();
        let inst = Instance::instantiate(spin).unwrap();
        assert_eq!(
            inst.run_verified(&cert, &Value::Unit),
            Err(Trap::FuelExhausted { limit: 64 })
        );
    }

    #[test]
    fn cost_model_favors_restore() {
        let p = Rc::new(
            GuestProgram::new("table", DeviceClass::Gpu)
                .with_fuel(1 << 20)
                .with_init(
                    1,
                    vec![
                        Op::PushU(1024),
                        Op::PushF(1.0),
                        Op::VecFill,
                        Op::SetGlobal(0),
                    ],
                )
                .with_body(vec![Op::Global(0), Op::VecSum, Op::Return]),
        );
        let inst = Instance::instantiate(p.clone()).unwrap();
        let full = full_instantiate_cost(&p, inst.init_fuel());
        let restore = restore_cost(inst.snapshot().len());
        assert!(
            full >= restore * 3,
            "full {full:?} should dominate restore {restore:?}"
        );
    }
}

//! Registration-time bytecode verification: an abstract interpreter
//! that proves type- and stack-safety of a guest program before it is
//! admitted to the registry (the eBPF/Wasm-verifier analogue for the
//! guest instruction set).
//!
//! For each instruction sequence (init and body) the verifier walks the
//! control-flow graph with a worklist, carrying an abstract stack over
//! the lattice `U64 ⊔ F64 = Num`, `Vec`, `Unit`, everything ⊔ `Any`
//! (⊤). Constants feeding `vec.fill` and vector lengths are tracked so
//! fuel costs stay exact where they can be. The pass computes the exact
//! stack depth at every pc (merge points must agree, Wasm-style, so the
//! per-pc minimum and maximum coincide), flags unreachable code, and
//! rejects any program with a reachable instruction that provably traps:
//! a definite operand type mismatch, a stack underflow, or a body path
//! that falls off the end without `Return`.
//!
//! **Input polymorphism.** A body's `input` type is unknown until
//! invocation, so the body is analyzed once with the input at ⊤ (the
//! *acceptance* pass — its faults reject the program) and once per
//! concrete input class (`u64` / `f64` / vector / other). A class whose
//! pass needs no dynamic type dispatch is [`ClassVerdict::Clean`]:
//! the verifier lowers the body for that class into typed register code
//! (the compiled tier), and invocations with that input shape run it
//! ([`Instance::run_verified`](crate::Instance::run_verified)) with no
//! per-op type or underflow check. Classes that still need a check — or
//! provably trap — fall back to the checking interpreter, which traps
//! honestly at runtime.
//!
//! **Soundness argument.** The compiled tier only runs when every
//! reachable instruction, under the concrete input class, has fully
//! known operand types that satisfy its signature and an entry stack
//! depth at least its arity. Value-dependent faults (division by zero,
//! out-of-bounds `get`, vector length mismatch, oversized `vec.fill`,
//! negative `sqrt`, fuel exhaustion) stay dynamically checked on both
//! paths — the verifier only discharges *type* and *underflow* checks.
//!
//! **Fuel bounds.** Loop-free programs whose vector costs are statically
//! known get an exact worst-case bound (the longest acyclic path through
//! the cost-annotated CFG). A reachable backward jump, or a vector op
//! over input-dependent lengths, makes intrinsic termination unprovable:
//! the verdict is [`FuelBound::Unbounded`] and the only sound cap is the
//! program's own fuel limit, which the interpreter enforces per run.

use kaas_kernels::Value;
use std::collections::VecDeque;

use crate::compiled::{lower, Compiled};
use crate::program::{GuestProgram, Op};

/// Abstract value type: the verifier's lattice.
///
/// Ordering (⊑): `U64(Some(k)) ⊑ U64(None) ⊑ Num ⊑ Any`, likewise for
/// `F64 ⊑ Num` and `Vec(Some(n)) ⊑ Vec(None) ⊑ Any`, `Unit ⊑ Any`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsTy {
    /// An unsigned integer, optionally a known constant.
    U64(Option<u64>),
    /// A float scalar.
    F64,
    /// A scalar of unknown width (join of `U64` and `F64`).
    Num,
    /// A float vector, optionally of known length.
    Vec(Option<u64>),
    /// The unit value (the init program's input).
    Unit,
    /// ⊤ — anything, e.g. an invocation input of unknown shape.
    Any,
}

impl AbsTy {
    fn join(self, other: AbsTy) -> AbsTy {
        match (self, other) {
            (a, b) if a == b => a,
            (AbsTy::U64(x), AbsTy::U64(y)) => AbsTy::U64(if x == y { x } else { None }),
            (AbsTy::Vec(x), AbsTy::Vec(y)) => AbsTy::Vec(if x == y { x } else { None }),
            (AbsTy::U64(_) | AbsTy::F64 | AbsTy::Num, AbsTy::U64(_) | AbsTy::F64 | AbsTy::Num) => {
                AbsTy::Num
            }
            _ => AbsTy::Any,
        }
    }

    fn name(self) -> &'static str {
        match self {
            AbsTy::U64(_) => "u64",
            AbsTy::F64 => "f64",
            AbsTy::Num => "scalar",
            AbsTy::Vec(_) => "vector",
            AbsTy::Unit => "unit",
            AbsTy::Any => "⊤",
        }
    }
}

/// The shape class of an invocation input, as the verifier partitions
/// it. Each class gets its own typing pass and [`ClassVerdict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputClass {
    /// `Value::U64`.
    U64,
    /// `Value::F64`.
    F64,
    /// `Value::F64s`.
    Vec,
    /// Anything else (unit, bytes, text, lists).
    Other,
}

impl InputClass {
    /// Every class, in verdict-table order.
    pub const ALL: [InputClass; 4] = [
        InputClass::U64,
        InputClass::F64,
        InputClass::Vec,
        InputClass::Other,
    ];

    /// Classifies a concrete invocation input.
    pub fn of(v: &Value) -> InputClass {
        match v {
            Value::U64(_) => InputClass::U64,
            Value::F64(_) => InputClass::F64,
            Value::F64s(_) => InputClass::Vec,
            _ => InputClass::Other,
        }
    }

    fn ty(self) -> AbsTy {
        match self {
            InputClass::U64 => AbsTy::U64(None),
            InputClass::F64 => AbsTy::F64,
            InputClass::Vec => AbsTy::Vec(None),
            InputClass::Other => AbsTy::Any,
        }
    }

    fn index(self) -> usize {
        match self {
            InputClass::U64 => 0,
            InputClass::F64 => 1,
            InputClass::Vec => 2,
            InputClass::Other => 3,
        }
    }

    /// Stable lowercase label (bench/report output).
    pub fn name(self) -> &'static str {
        match self {
            InputClass::U64 => "u64",
            InputClass::F64 => "f64",
            InputClass::Vec => "vec",
            InputClass::Other => "other",
        }
    }
}

/// What the typing pass concluded for one input class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassVerdict {
    /// Every reachable instruction is fully typed: the compiled tier
    /// is sound for inputs of this class.
    Clean,
    /// Some instruction still consumes a ⊤-typed operand: run the
    /// checking interpreter (it may trap honestly at runtime).
    Checked,
    /// Some reachable instruction provably traps under this class:
    /// the checking interpreter reports the trap when it is reached.
    Trapping,
}

impl ClassVerdict {
    /// Stable lowercase label (bench/report output).
    pub fn name(self) -> &'static str {
        match self {
            ClassVerdict::Clean => "clean",
            ClassVerdict::Checked => "checked",
            ClassVerdict::Trapping => "trapping",
        }
    }
}

/// The verifier's worst-case fuel verdict for the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuelBound {
    /// Loop-free with statically known costs: no run — successful or
    /// trapping — spends more fuel than this.
    Bounded(u64),
    /// A reachable backward jump or an input-dependent vector cost:
    /// intrinsic termination is unprovable, so the only sound cap is
    /// the program's own fuel limit (enforced per run).
    Unbounded {
        /// The program's `fuel_limit`.
        cap: u64,
    },
}

impl FuelBound {
    /// The sound worst-case fuel any single run can consume.
    pub fn worst_case(&self) -> u64 {
        match self {
            FuelBound::Bounded(n) => *n,
            FuelBound::Unbounded { cap } => *cap,
        }
    }
}

/// Which instruction sequence a diagnostic points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqName {
    /// The init program.
    Init,
    /// The per-invocation body.
    Body,
    /// A program-level fault with no single pc (shape validation).
    Program,
}

impl std::fmt::Display for SeqName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeqName::Init => write!(f, "init"),
            SeqName::Body => write!(f, "body"),
            SeqName::Program => write!(f, "program"),
        }
    }
}

/// One structured, file-free verifier finding: an instruction sequence,
/// a pc into it, a stable rule slug, and a rendered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyDiag {
    /// The sequence the finding is in.
    pub seq: SeqName,
    /// Instruction index (`seq.len()` marks the fall-off-the-end point;
    /// meaningless for [`SeqName::Program`]).
    pub pc: usize,
    /// Stable rule slug: `type`, `underflow`, `depth`, `no-return`,
    /// `unreachable`, or `validate`.
    pub rule: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for VerifyDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.seq {
            SeqName::Program => write!(f, "program: [{}] {}", self.rule, self.message),
            seq => write!(f, "{seq}@{}: [{}] {}", self.pc, self.rule, self.message),
        }
    }
}

/// Verification rejected the program. Carries every finding, in
/// discovery order (deterministic for a given program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The findings that caused rejection.
    pub diags: Vec<VerifyDiag>,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// Per-sequence facts the typing pass computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqFacts {
    /// Exact stack depth at entry to each pc (`None` = unreachable).
    /// Index `len` is the fall-off-the-end point. Merge points must
    /// agree on depth, so per-pc min and max coincide.
    pub depth: Vec<Option<usize>>,
    /// The deepest stack any execution of the sequence can reach —
    /// the compiled tier allocates exactly this many slots per bank.
    pub max_stack: usize,
}

/// The certificate a program carries out of [`verify`]: proof-derived
/// facts the interpreter and the registry consume.
#[derive(Debug, Clone, PartialEq)]
pub struct Verified {
    hash: u64,
    fuel_limit: u64,
    /// Stack facts for the init program.
    pub init: SeqFacts,
    /// Stack facts for the body.
    pub body: SeqFacts,
    classes: [ClassVerdict; 4],
    /// The body lowered per clean class, in [`InputClass::ALL`] order.
    compiled: [Option<Compiled>; 4],
    /// Worst-case fuel verdict for one body invocation.
    pub fuel_bound: FuelBound,
    /// Non-fatal findings (unreachable code), in discovery order.
    pub warnings: Vec<VerifyDiag>,
}

impl Verified {
    /// Does this certificate belong to `program` (content hash)?
    pub fn covers(&self, program: &GuestProgram) -> bool {
        self.hash == program.hash()
    }

    /// The verdict for one input class.
    pub fn verdict_for(&self, class: InputClass) -> ClassVerdict {
        self.classes[class.index()]
    }

    /// All four class verdicts, in [`InputClass::ALL`] order.
    pub fn classes(&self) -> [ClassVerdict; 4] {
        self.classes
    }

    /// The registry's predicted-cost hint: the worst-case fuel one
    /// invocation can consume, clamped to the fuel limit the
    /// interpreter enforces anyway.
    pub fn predicted_fuel(&self) -> u64 {
        self.fuel_bound.worst_case().min(self.fuel_limit)
    }

    /// The compiled code for inputs of `class`, when it verified clean.
    pub(crate) fn compiled(&self, class: InputClass) -> Option<&Compiled> {
        self.compiled[class.index()].as_ref()
    }

    /// The body's exact maximum stack depth.
    pub fn max_stack(&self) -> usize {
        self.body.max_stack
    }
}

/// One abstract machine state: the typed stack plus the global table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct State {
    pub(crate) stack: Vec<AbsTy>,
    pub(crate) globals: Vec<AbsTy>,
}

/// What the abstract step of one instruction concluded.
pub(crate) enum StepFault {
    Underflow { need: usize, have: usize },
    Type { message: String },
}

pub(crate) struct StepOk {
    /// Worst-case fuel this instruction spends (`None` = data-dependent).
    cost: Option<u64>,
    /// Did the instruction consume a ⊤-typed operand (dynamic check)?
    checked: bool,
}

/// Operand requirement of a typed slot.
enum Req {
    Scalar,
    ExactU64,
    Vector,
    Sized,
}

/// `Ok(true)` = needs a dynamic check, `Ok(false)` = statically fine.
fn require(t: AbsTy, req: Req, op: Op) -> Result<bool, StepFault> {
    let ok = |fine: bool| Ok(fine);
    let bad = |expected: &str| {
        Err(StepFault::Type {
            message: format!(
                "{}: {} operand where {expected} is required",
                op.mnemonic(),
                t.name()
            ),
        })
    };
    match (req, t) {
        (Req::Scalar, AbsTy::U64(_) | AbsTy::F64 | AbsTy::Num) => ok(false),
        (Req::Scalar, AbsTy::Any) => ok(true),
        (Req::Scalar, _) => bad("a scalar"),
        (Req::ExactU64, AbsTy::U64(_)) => ok(false),
        (Req::ExactU64, AbsTy::Num | AbsTy::Any) => ok(true),
        (Req::ExactU64, _) => bad("a u64"),
        (Req::Vector, AbsTy::Vec(_)) => ok(false),
        (Req::Vector, AbsTy::Any) => ok(true),
        (Req::Vector, _) => bad("a float vector"),
        // `len` accepts vectors plus the sized wire kinds only an
        // invocation input can carry (bytes/text/list) — so ⊤ stays
        // dynamically checked and scalars/unit are definite faults.
        (Req::Sized, AbsTy::Vec(_)) => ok(false),
        (Req::Sized, AbsTy::Any) => ok(true),
        (Req::Sized, _) => bad("a sized value"),
    }
}

fn arity(op: Op) -> usize {
    match op {
        Op::PushU(_) | Op::PushF(_) | Op::Input | Op::Global(_) | Op::Jump(_) => 0,
        Op::SetGlobal(_)
        | Op::Dup
        | Op::Pop
        | Op::Neg
        | Op::Sqrt
        | Op::Len
        | Op::VecSum
        | Op::JumpIfZero(_)
        | Op::Return => 1,
        Op::Swap
        | Op::Add
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
        | Op::VecDot => 2,
    }
}

/// Abstractly executes `op` against `st` (stack and, in init, globals).
/// On success the state reflects the post-instruction machine.
pub(crate) fn step(op: Op, st: &mut State, input: AbsTy) -> Result<StepOk, StepFault> {
    let need = arity(op);
    let have = st.stack.len();
    if have < need {
        return Err(StepFault::Underflow { need, have });
    }
    let mut checked = false;
    let mut cost = Some(1u64);
    // Worst-case extra fuel of a vector op whose length operand is `t`.
    let vec_extra = |t: AbsTy| match t {
        AbsTy::Vec(Some(n)) => Some(1 + n / 16),
        _ => None,
    };
    match op {
        Op::PushU(n) => st.stack.push(AbsTy::U64(Some(n))),
        Op::PushF(_) => st.stack.push(AbsTy::F64),
        Op::Input => st.stack.push(input),
        Op::Global(g) => st.stack.push(st.globals[g as usize]),
        Op::SetGlobal(g) => {
            // Body occurrences are rejected by `validate()` before the
            // verifier runs, so this write is init-only by construction.
            let v = st.stack.pop().expect("arity checked");
            st.globals[g as usize] = v;
        }
        Op::Dup => {
            let top = *st.stack.last().expect("arity checked");
            st.stack.push(top);
        }
        Op::Pop => {
            st.stack.pop();
        }
        Op::Swap => {
            let len = st.stack.len();
            st.stack.swap(len - 1, len - 2);
        }
        Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Rem | Op::Min | Op::Max => {
            let b = st.stack.pop().expect("arity checked");
            let a = st.stack.pop().expect("arity checked");
            checked |= require(a, Req::Scalar, op)?;
            checked |= require(b, Req::Scalar, op)?;
            // (u64, u64) stays integral; any float operand promotes.
            let out = match (a, b) {
                (AbsTy::U64(_), AbsTy::U64(_)) => AbsTy::U64(None),
                (AbsTy::F64, AbsTy::U64(_) | AbsTy::F64) | (AbsTy::U64(_), AbsTy::F64) => {
                    AbsTy::F64
                }
                _ => AbsTy::Num,
            };
            st.stack.push(out);
        }
        Op::Neg | Op::Sqrt => {
            let x = st.stack.pop().expect("arity checked");
            checked |= require(x, Req::Scalar, op)?;
            st.stack.push(AbsTy::F64);
        }
        Op::Lt | Op::Eq => {
            let b = st.stack.pop().expect("arity checked");
            let a = st.stack.pop().expect("arity checked");
            checked |= require(a, Req::Scalar, op)?;
            checked |= require(b, Req::Scalar, op)?;
            st.stack.push(AbsTy::U64(None));
        }
        Op::Len => {
            let v = st.stack.pop().expect("arity checked");
            checked |= require(v, Req::Sized, op)?;
            let out = match v {
                AbsTy::Vec(n) => AbsTy::U64(n),
                _ => AbsTy::U64(None),
            };
            st.stack.push(out);
        }
        Op::Get => {
            let index = st.stack.pop().expect("arity checked");
            let v = st.stack.pop().expect("arity checked");
            checked |= require(index, Req::ExactU64, op)?;
            checked |= require(v, Req::Sized, op)?;
            // A vector element is f64; a ⊤ container may be bytes
            // (u64 elements), so the result degrades to scalar.
            let out = match v {
                AbsTy::Vec(_) => AbsTy::F64,
                _ => AbsTy::Num,
            };
            st.stack.push(out);
        }
        Op::VecFill => {
            let fill = st.stack.pop().expect("arity checked");
            let count = st.stack.pop().expect("arity checked");
            checked |= require(fill, Req::Scalar, op)?;
            checked |= require(count, Req::ExactU64, op)?;
            let len = match count {
                AbsTy::U64(k) => k,
                _ => None,
            };
            cost = len.map(|n| 1 + n / 16);
            st.stack.push(AbsTy::Vec(len));
        }
        Op::VecScale => {
            let s = st.stack.pop().expect("arity checked");
            let v = st.stack.pop().expect("arity checked");
            checked |= require(s, Req::Scalar, op)?;
            checked |= require(v, Req::Vector, op)?;
            cost = vec_extra(v);
            let out = match v {
                AbsTy::Vec(n) => AbsTy::Vec(n),
                _ => AbsTy::Vec(None),
            };
            st.stack.push(out);
        }
        Op::VecAdd | Op::VecDot => {
            let b = st.stack.pop().expect("arity checked");
            let a = st.stack.pop().expect("arity checked");
            checked |= require(a, Req::Vector, op)?;
            checked |= require(b, Req::Vector, op)?;
            if let (AbsTy::Vec(Some(x)), AbsTy::Vec(Some(y))) = (a, b) {
                if x != y {
                    return Err(StepFault::Type {
                        message: format!(
                            "{}: vectors of provably different lengths ({x} vs {y})",
                            op.mnemonic()
                        ),
                    });
                }
            }
            cost = vec_extra(a);
            let out = if matches!(op, Op::VecDot) {
                AbsTy::F64
            } else {
                match (a, b) {
                    (AbsTy::Vec(n), _) => AbsTy::Vec(n),
                    _ => AbsTy::Vec(None),
                }
            };
            st.stack.push(out);
        }
        Op::VecSum => {
            let v = st.stack.pop().expect("arity checked");
            checked |= require(v, Req::Vector, op)?;
            cost = vec_extra(v);
            st.stack.push(AbsTy::F64);
        }
        Op::Jump(_) => {}
        Op::JumpIfZero(_) => {
            let c = st.stack.pop().expect("arity checked");
            checked |= require(c, Req::ExactU64, op)?;
        }
        Op::Return => {
            st.stack.pop();
        }
    }
    Ok(StepOk { cost, checked })
}

/// Everything one typing pass over one sequence computed.
struct SeqAnalysis {
    /// Abstract state at entry to each pc; index `len` is the
    /// fall-off-the-end exit.
    states: Vec<Option<State>>,
    /// Definite faults, in discovery order.
    faults: Vec<VerifyDiag>,
    /// Any reachable instruction needed a dynamic type check.
    needs_check: bool,
    /// Join of the global table over every exit (Return or fall-off);
    /// `None` when no exit is reachable.
    exit_globals: Option<Vec<AbsTy>>,
    /// Worst-case fuel per pc (`None` = data-dependent), where reachable.
    costs: Vec<Option<u64>>,
    /// A reachable jump targets itself or an earlier pc.
    back_edge: bool,
    max_stack: usize,
}

impl SeqAnalysis {
    fn falloff_reachable(&self) -> bool {
        self.states.last().is_some_and(Option::is_some)
    }

    fn facts(&self) -> SeqFacts {
        SeqFacts {
            depth: self
                .states
                .iter()
                .map(|s| s.as_ref().map(|st| st.stack.len()))
                .collect(),
            max_stack: self.max_stack,
        }
    }
}

/// Worklist fixpoint over one instruction sequence.
fn analyze(seq: &[Op], name: SeqName, input: AbsTy, globals_in: &[AbsTy]) -> SeqAnalysis {
    let n = seq.len();
    let mut states: Vec<Option<State>> = vec![None; n + 1];
    states[0] = Some(State {
        stack: Vec::new(),
        globals: globals_in.to_vec(),
    });
    let mut faults: Vec<VerifyDiag> = Vec::new();
    let mut step_faulted = vec![false; n];
    let mut depth_faulted = vec![false; n + 1];
    let mut costs: Vec<Option<u64>> = vec![None; n];
    let mut needs_check = false;
    let mut back_edge = false;
    let mut exit_globals: Option<Vec<AbsTy>> = None;
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut queued = vec![false; n];
    if n > 0 {
        queue.push_back(0);
        queued[0] = true;
    }
    let join_globals = |slot: &mut Option<Vec<AbsTy>>, g: &[AbsTy]| match slot {
        Some(cur) => {
            for (c, v) in cur.iter_mut().zip(g) {
                *c = c.join(*v);
            }
        }
        None => *slot = Some(g.to_vec()),
    };
    while let Some(pc) = queue.pop_front() {
        queued[pc] = false;
        let Some(entry) = states[pc].clone() else {
            continue;
        };
        let op = seq[pc];
        let mut st = entry;
        let out = match step(op, &mut st, input) {
            Ok(out) => out,
            Err(fault) => {
                // A definite fault kills the path: execution cannot
                // continue past it, so successors get no state.
                if !step_faulted[pc] {
                    step_faulted[pc] = true;
                    let (rule, message) = match fault {
                        StepFault::Underflow { need, have } => (
                            "underflow",
                            format!("{}: pops {need} with stack depth {have}", op.mnemonic()),
                        ),
                        StepFault::Type { message } => ("type", message),
                    };
                    faults.push(VerifyDiag {
                        seq: name,
                        pc,
                        rule,
                        message,
                    });
                }
                continue;
            }
        };
        costs[pc] = out.cost;
        needs_check |= out.checked;
        let succs: [Option<usize>; 2] = match op {
            Op::Jump(t) => [Some(t as usize), None],
            Op::JumpIfZero(t) => [Some(t as usize), Some(pc + 1)],
            Op::Return => {
                join_globals(&mut exit_globals, &st.globals);
                [None, None]
            }
            _ => [Some(pc + 1), None],
        };
        if matches!(op, Op::Jump(_) | Op::JumpIfZero(_)) {
            let t = match op {
                Op::Jump(t) | Op::JumpIfZero(t) => t as usize,
                _ => unreachable!(),
            };
            back_edge |= t <= pc;
        }
        for succ in succs.into_iter().flatten() {
            match &mut states[succ] {
                None => {
                    states[succ] = Some(st.clone());
                    if succ < n && !queued[succ] {
                        queue.push_back(succ);
                        queued[succ] = true;
                    }
                }
                Some(old) => {
                    if old.stack.len() != st.stack.len() {
                        if !depth_faulted[succ] {
                            depth_faulted[succ] = true;
                            faults.push(VerifyDiag {
                                seq: name,
                                pc: succ,
                                rule: "depth",
                                message: format!(
                                    "inconsistent stack depth at join ({} vs {})",
                                    old.stack.len(),
                                    st.stack.len()
                                ),
                            });
                        }
                        continue;
                    }
                    let mut changed = false;
                    for (o, v) in old.stack.iter_mut().zip(&st.stack) {
                        let j = o.join(*v);
                        changed |= j != *o;
                        *o = j;
                    }
                    for (o, v) in old.globals.iter_mut().zip(&st.globals) {
                        let j = o.join(*v);
                        changed |= j != *o;
                        *o = j;
                    }
                    if changed && succ < n && !queued[succ] {
                        queue.push_back(succ);
                        queued[succ] = true;
                    }
                }
            }
        }
    }
    if let Some(fall) = states[n].as_ref() {
        join_globals(&mut exit_globals, &fall.globals);
    }
    let max_stack = states
        .iter()
        .flatten()
        .map(|s| s.stack.len())
        .max()
        .unwrap_or(0);
    SeqAnalysis {
        states,
        faults,
        needs_check,
        exit_globals,
        costs,
        back_edge,
        max_stack,
    }
}

/// Unreachable-code warnings: one per contiguous dead range.
fn unreachable_warnings(name: SeqName, an: &SeqAnalysis, out: &mut Vec<VerifyDiag>) {
    let n = an.states.len() - 1;
    let mut pc = 0;
    while pc < n {
        if an.states[pc].is_some() {
            pc += 1;
            continue;
        }
        let start = pc;
        while pc < n && an.states[pc].is_none() {
            pc += 1;
        }
        out.push(VerifyDiag {
            seq: name,
            pc: start,
            rule: "unreachable",
            message: if pc - start == 1 {
                format!("op {start} is unreachable")
            } else {
                format!("ops {start}..{} are unreachable", pc - 1)
            },
        });
    }
}

/// Worst-case fuel for the body from the acceptance pass: the longest
/// path through the (acyclic, forward-edge-only) cost-annotated CFG, or
/// `Unbounded` when a back edge or data-dependent cost blocks that.
fn fuel_bound(seq: &[Op], an: &SeqAnalysis, fuel_limit: u64) -> FuelBound {
    if an.back_edge {
        return FuelBound::Unbounded { cap: fuel_limit };
    }
    let n = seq.len();
    for pc in 0..n {
        if an.states[pc].is_some() && an.costs[pc].is_none() {
            return FuelBound::Unbounded { cap: fuel_limit };
        }
    }
    // No back edges ⇒ every jump target is strictly greater than its
    // source, so increasing pc order is a topological order.
    let mut dist: Vec<Option<u64>> = vec![None; n + 2]; // n = fall-off, n+1 = return
    dist[0] = Some(0);
    for pc in 0..n {
        let (Some(d), Some(_)) = (dist[pc], an.states[pc].as_ref()) else {
            continue;
        };
        let total = d.saturating_add(an.costs[pc].unwrap_or(1));
        let mut relax = |t: usize| {
            let slot = &mut dist[t.min(n + 1)];
            *slot = Some(slot.map_or(total, |old: u64| old.max(total)));
        };
        match seq[pc] {
            Op::Jump(t) => relax(t as usize),
            Op::JumpIfZero(t) => {
                relax(t as usize);
                relax(pc + 1);
            }
            Op::Return => relax(n + 1),
            _ => relax(pc + 1),
        }
    }
    FuelBound::Bounded(dist[n].unwrap_or(0).max(dist[n + 1].unwrap_or(0)))
}

/// Verifies a guest program, producing a [`Verified`] certificate or
/// the full list of findings that reject it.
///
/// Runs shape validation first (so the verifier never indexes out of
/// range on malformed input), then the init pass (input is `Unit`), the
/// body acceptance pass (input at ⊤), and one typing pass per concrete
/// input class for the verdicts, lowering each clean class's typing into
/// compiled code.
///
/// # Errors
///
/// Returns every [`VerifyDiag`] finding when the program has a
/// reachable provable trap: a type mismatch, a stack underflow, an
/// inconsistent-depth join, or a body path that falls off the end.
pub fn verify(program: &GuestProgram) -> Result<Verified, VerifyError> {
    if let Err(e) = program.validate() {
        return Err(VerifyError {
            diags: vec![VerifyDiag {
                seq: SeqName::Program,
                pc: 0,
                rule: "validate",
                message: e.to_string(),
            }],
        });
    }
    let globals0 = vec![AbsTy::Unit; program.globals as usize];
    let init_an = analyze(&program.init, SeqName::Init, AbsTy::Unit, &globals0);
    // If init provably never completes (no reachable exit) the fuel
    // meter stops it at instantiate time; analyze the body under ⊤
    // globals so that failure surfaces with its honest runtime kind.
    let body_globals = init_an
        .exit_globals
        .clone()
        .unwrap_or_else(|| vec![AbsTy::Any; program.globals as usize]);
    let body_an = analyze(&program.body, SeqName::Body, AbsTy::Any, &body_globals);
    let mut diags = init_an.faults.clone();
    diags.extend(body_an.faults.clone());
    if body_an.falloff_reachable() {
        diags.push(VerifyDiag {
            seq: SeqName::Body,
            pc: program.body.len(),
            rule: "no-return",
            message: "a path falls off the end without `return`".to_string(),
        });
    }
    if !diags.is_empty() {
        return Err(VerifyError { diags });
    }
    let mut compiled: [Option<Compiled>; 4] = Default::default();
    let classes = InputClass::ALL.map(|class| {
        let an = analyze(&program.body, SeqName::Body, class.ty(), &body_globals);
        if !an.faults.is_empty() {
            ClassVerdict::Trapping
        } else if an.needs_check {
            ClassVerdict::Checked
        } else {
            compiled[class.index()] = lower(&program.body, &an.states, class.ty());
            ClassVerdict::Clean
        }
    });
    let bound = fuel_bound(&program.body, &body_an, program.fuel_limit);
    let mut warnings = Vec::new();
    unreachable_warnings(SeqName::Init, &init_an, &mut warnings);
    unreachable_warnings(SeqName::Body, &body_an, &mut warnings);
    Ok(Verified {
        hash: program.hash(),
        fuel_limit: program.fuel_limit,
        init: init_an.facts(),
        body: body_an.facts(),
        classes,
        compiled,
        fuel_bound: bound,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_accel::DeviceClass;

    fn prog(body: Vec<Op>) -> GuestProgram {
        GuestProgram::new("t", DeviceClass::Cpu)
            .with_fuel(10_000)
            .with_body(body)
    }

    #[test]
    fn accepts_and_classifies_a_polymorphic_doubler() {
        let cert = verify(&prog(vec![Op::Input, Op::PushU(2), Op::Mul, Op::Return])).unwrap();
        assert_eq!(cert.verdict_for(InputClass::U64), ClassVerdict::Clean);
        assert_eq!(cert.verdict_for(InputClass::F64), ClassVerdict::Clean);
        assert_eq!(cert.verdict_for(InputClass::Vec), ClassVerdict::Trapping);
        assert_eq!(cert.verdict_for(InputClass::Other), ClassVerdict::Checked);
        assert_eq!(cert.fuel_bound, FuelBound::Bounded(4));
        assert_eq!(cert.max_stack(), 2);
        assert_eq!(
            cert.body.depth,
            vec![Some(0), Some(1), Some(2), Some(1), None]
        );
        assert!(cert.warnings.is_empty());
    }

    #[test]
    fn rejects_provable_underflow() {
        let err = verify(&prog(vec![Op::Pop, Op::Return])).unwrap_err();
        assert_eq!(err.diags.len(), 1);
        assert_eq!(err.diags[0].rule, "underflow");
        assert_eq!(err.diags[0].seq, SeqName::Body);
        assert_eq!(err.diags[0].pc, 0);
    }

    #[test]
    fn rejects_fall_off_the_end() {
        let err = verify(&prog(vec![Op::PushU(1), Op::Pop])).unwrap_err();
        assert!(err.diags.iter().any(|d| d.rule == "no-return"));
        // A jump straight to the end is the same fault.
        let err = verify(&prog(vec![Op::Jump(1)])).unwrap_err();
        assert!(err.diags.iter().any(|d| d.rule == "no-return"));
    }

    #[test]
    fn rejects_definite_type_faults() {
        // A float condition always traps `jump.ez`.
        let err = verify(&prog(vec![
            Op::PushF(1.0),
            Op::JumpIfZero(0),
            Op::PushU(1),
            Op::Return,
        ]))
        .unwrap_err();
        assert!(err.diags.iter().any(|d| d.rule == "type" && d.pc == 1));
        // Arithmetic over a vector operand always traps.
        let err = verify(&prog(vec![
            Op::PushU(2),
            Op::PushF(1.0),
            Op::VecFill,
            Op::PushU(1),
            Op::Add,
            Op::Return,
        ]))
        .unwrap_err();
        assert!(err.diags.iter().any(|d| d.rule == "type" && d.pc == 4));
        // Provably mismatched vector lengths.
        let err = verify(&prog(vec![
            Op::PushU(2),
            Op::PushF(1.0),
            Op::VecFill,
            Op::PushU(3),
            Op::PushF(1.0),
            Op::VecFill,
            Op::VecAdd,
            Op::Return,
        ]))
        .unwrap_err();
        assert!(err.diags.iter().any(|d| d.rule == "type" && d.pc == 6));
    }

    #[test]
    fn rejects_inconsistent_join_depths() {
        // The taken branch reaches pc 3 with depth 0, the fallthrough
        // with depth 1.
        let err = verify(&prog(vec![
            Op::Input,
            Op::JumpIfZero(3),
            Op::PushU(1),
            Op::Return,
        ]))
        .unwrap_err();
        assert!(err.diags.iter().any(|d| d.rule == "depth" && d.pc == 3));
    }

    #[test]
    fn warns_on_unreachable_code_without_rejecting() {
        let cert = verify(&prog(vec![Op::PushU(1), Op::Return, Op::Pop, Op::Pop])).unwrap();
        assert_eq!(cert.warnings.len(), 1);
        assert_eq!(cert.warnings[0].rule, "unreachable");
        assert_eq!(cert.warnings[0].pc, 2);
        assert_eq!(cert.body.depth[2], None);
    }

    #[test]
    fn fuel_bound_is_exact_on_loop_free_known_costs() {
        // 5 base ops + vec.fill(64)/16 + vec.sum(64)/16 = 5 + 4 + 4.
        let cert = verify(&prog(vec![
            Op::PushU(64),
            Op::PushF(1.0),
            Op::VecFill,
            Op::VecSum,
            Op::Return,
        ]))
        .unwrap();
        assert_eq!(cert.fuel_bound, FuelBound::Bounded(13));
        // Branches take the longest path: the expensive arm dominates.
        let cert = verify(&prog(vec![
            Op::Input,         // 0
            Op::JumpIfZero(5), // 1
            Op::PushU(64),     // 2
            Op::PushF(1.0),    // 3
            Op::Jump(7),       // 4
            Op::PushU(0),      // 5
            Op::PushF(0.0),    // 6
            Op::VecFill,       // 7
            Op::VecSum,        // 8 (length differs per path -> unknown)
            Op::Return,        // 9
        ]))
        .unwrap();
        assert_eq!(cert.fuel_bound, FuelBound::Unbounded { cap: 10_000 });
    }

    #[test]
    fn fuel_bound_caps_loops_and_input_vectors_at_the_limit() {
        let mut p = prog(vec![Op::Jump(0)]);
        p.fuel_limit = 64;
        assert_eq!(
            verify(&p).unwrap().fuel_bound,
            FuelBound::Unbounded { cap: 64 }
        );
        let cert = verify(&prog(vec![Op::Input, Op::VecSum, Op::Return])).unwrap();
        assert_eq!(cert.fuel_bound, FuelBound::Unbounded { cap: 10_000 });
        assert_eq!(cert.predicted_fuel(), 10_000);
    }

    #[test]
    fn loops_over_u64_inputs_verify_clean() {
        let cert = verify(&prog(vec![
            Op::Input,
            Op::Dup,
            Op::JumpIfZero(6),
            Op::PushU(1),
            Op::Sub,
            Op::Jump(1),
            Op::Return,
        ]))
        .unwrap();
        assert_eq!(cert.verdict_for(InputClass::U64), ClassVerdict::Clean);
        assert_eq!(cert.verdict_for(InputClass::F64), ClassVerdict::Trapping);
        assert!(matches!(cert.fuel_bound, FuelBound::Unbounded { .. }));
    }

    #[test]
    fn init_globals_type_the_body() {
        // Global 0 is a 4-vector, global 1 a float; the body is fully
        // typed for every input class (input unused).
        let p = GuestProgram::new("t", DeviceClass::Cpu)
            .with_fuel(10_000)
            .with_init(
                2,
                vec![
                    Op::PushU(4),
                    Op::PushF(0.5),
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
            ]);
        let cert = verify(&p).unwrap();
        for class in InputClass::ALL {
            assert_eq!(cert.verdict_for(class), ClassVerdict::Clean);
        }
        // 5 base ops, both vector ops over a known 4-vector (4/16 = 0).
        assert_eq!(cert.fuel_bound, FuelBound::Bounded(5));
        // An un-set global stays Unit: summing it is a definite fault.
        let mut q = p.clone();
        q.init.truncate(4);
        q.body = vec![Op::Global(1), Op::VecSum, Op::Return];
        let err = verify(&q).unwrap_err();
        assert!(err.diags.iter().any(|d| d.rule == "type"));
    }

    #[test]
    fn certificate_covers_its_program_only() {
        let p = prog(vec![Op::Input, Op::Return]);
        let cert = verify(&p).unwrap();
        assert!(cert.covers(&p));
        let q = prog(vec![Op::PushU(1), Op::Return]);
        assert!(!cert.covers(&q));
    }

    #[test]
    fn malformed_shapes_fail_with_validate_rule() {
        let mut p = prog(vec![Op::Return]);
        p.body = vec![Op::Jump(99), Op::Return];
        let err = verify(&p).unwrap_err();
        assert_eq!(err.diags[0].rule, "validate");
        assert_eq!(err.diags[0].seq, SeqName::Program);
    }

    #[test]
    fn diagnostics_render_file_free() {
        let err = verify(&prog(vec![Op::Pop, Op::Return])).unwrap_err();
        assert_eq!(
            err.to_string(),
            "body@0: [underflow] pop: pops 1 with stack depth 0"
        );
    }
}

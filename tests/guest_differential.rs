//! Seeded differential property test for the bytecode verifier.
//!
//! Generates a corpus of random guest programs (structured stack-aware
//! bodies, injected loops, and fully random chaos) from
//! `kaas_simtime`'s deterministic RNG, then checks the verifier's
//! soundness contract on every accepted program:
//!
//! * the checking interpreter and the compiled tier agree on every
//!   input — same output bits, same fuel, same trap — and the compiled
//!   tier runs exactly for the `Clean` classes, retiring the same op
//!   count with no dynamic checks;
//! * they still agree when the fuel limit is cut to the successful
//!   run's fuel, one less, or a point inside the run, so fuel charged
//!   per block traps exactly where the op-by-op meter does;
//! * no input ever hits `StackUnderflow`, `NoReturn`, or `InitOnly`
//!   (depth and placement analysis is input-independent);
//! * inputs whose class verdict is `Clean` never hit `TypeMismatch`;
//! * every successful run's fuel is within the static worst-case bound.
//!
//! That corpus is type-blind, so few of its programs verify `Clean`.
//! A second, type-directed generator builds programs that are well
//! typed for one input class and holds both tiers to the same agreement
//! on them, fuel cuts included.

use std::rc::Rc;

use kaas_accel::DeviceClass;
use kaas_guest::{
    verify, ClassVerdict, GuestProgram, InputClass, Instance, Op, RunStats, Trap, Verified,
};
use kaas_kernels::Value;
use kaas_simtime::rng::DetRng;

const FUEL: u64 = 10_000;

/// Ops that push one value from nothing (any stack depth).
fn gen_source(rng: &mut DetRng, globals: u8) -> Op {
    match rng.gen_range(0..if globals > 0 { 4u32 } else { 3 }) {
        0 => Op::Input,
        1 => Op::PushU(rng.gen_range(0u64..64)),
        2 => Op::PushF(rng.gen_range(-8.0..8.0)),
        _ => Op::Global(rng.gen_range(0..globals as u32) as u8),
    }
}

/// Ops legal at the given tracked stack depth (type-blind — the
/// verifier is the one deciding whether the types work out).
fn gen_op(rng: &mut DetRng, depth: usize, globals: u8) -> Op {
    if depth == 0 {
        return gen_source(rng, globals);
    }
    if depth == 1 || rng.gen_bool(0.4) {
        return match rng.gen_range(0..8u32) {
            0 => gen_source(rng, globals),
            1 => Op::Dup,
            2 => Op::Pop,
            3 => Op::Neg,
            4 => Op::Sqrt,
            5 => Op::VecSum,
            6 => Op::Len,
            _ => gen_source(rng, globals),
        };
    }
    match rng.gen_range(0..14u32) {
        0 => Op::Add,
        1 => Op::Sub,
        2 => Op::Mul,
        3 => Op::Div,
        4 => Op::Rem,
        5 => Op::Min,
        6 => Op::Max,
        7 => Op::Lt,
        8 => Op::Eq,
        9 => Op::Swap,
        10 => Op::Get,
        11 => Op::VecFill,
        12 => Op::VecScale,
        _ => Op::VecDot,
    }
}

fn stack_effect(op: Op) -> (usize, usize) {
    match op {
        Op::Input | Op::PushU(_) | Op::PushF(_) | Op::Global(_) => (0, 1),
        Op::Dup => (1, 2),
        Op::Pop => (1, 0),
        Op::Neg | Op::Sqrt | Op::VecSum | Op::Len => (1, 1),
        Op::Swap => (2, 2),
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
        | Op::VecDot => (2, 1),
        Op::SetGlobal(_) | Op::JumpIfZero(_) | Op::Return => (1, 0),
        Op::Jump(_) => (0, 0),
    }
}

/// A structured body: depth-tracked random ops, optionally prefixed
/// with a countdown loop over the input, always ending in `Return`.
fn gen_structured_body(rng: &mut DetRng, globals: u8) -> Vec<Op> {
    let mut body = Vec::new();
    let mut depth = 0usize;
    if rng.gen_bool(0.25) {
        // Countdown loop skeleton; leaves the exhausted counter (0) on
        // the stack at the exit.
        body.extend([
            Op::Input,
            Op::Dup,
            Op::JumpIfZero(6),
            Op::PushU(1),
            Op::Sub,
            Op::Jump(1),
        ]);
        depth = 1;
    }
    for _ in 0..rng.gen_range(2usize..14) {
        let op = gen_op(rng, depth, globals);
        let (pops, pushes) = stack_effect(op);
        assert!(depth >= pops, "generator tracks depth");
        depth = depth - pops + pushes;
        body.push(op);
    }
    if depth == 0 {
        body.push(gen_source(rng, globals));
    }
    body.push(Op::Return);
    body
}

/// Pure chaos: random ops with random (in-range) jump targets. Almost
/// always rejected — exercises the verifier's rejection paths and the
/// property that it never panics or accepts an unsound program.
fn gen_chaos_body(rng: &mut DetRng, globals: u8) -> Vec<Op> {
    let len = rng.gen_range(1usize..12);
    (0..len)
        .map(|_| match rng.gen_range(0..10u32) {
            0..=3 => gen_source(rng, globals),
            4 => Op::Jump(rng.gen_range(0..len as u32 + 1) as u16),
            5 => Op::JumpIfZero(rng.gen_range(0..len as u32 + 1) as u16),
            6 => Op::Return,
            7 => Op::Pop,
            8 => Op::Add,
            _ => Op::VecDot,
        })
        .collect()
}

fn gen_program(rng: &mut DetRng, i: u64) -> GuestProgram {
    let globals = rng.gen_range(0u8..3);
    let mut init = Vec::new();
    for g in 0..globals {
        match rng.gen_range(0..3u32) {
            0 => init.push(Op::PushF(rng.gen_range(-2.0..2.0))),
            1 => init.push(Op::PushU(rng.gen_range(0u64..32))),
            _ => init.extend([
                Op::PushU(rng.gen_range(1u64..24)),
                Op::PushF(rng.gen_range(-1.0..1.0)),
                Op::VecFill,
            ]),
        }
        init.push(Op::SetGlobal(g));
    }
    let body = if rng.gen_bool(0.3) {
        gen_chaos_body(rng, globals)
    } else {
        gen_structured_body(rng, globals)
    };
    let mut p = GuestProgram::new(&format!("p{i}"), DeviceClass::Cpu)
        .with_fuel(FUEL)
        .with_init(globals, init)
        .with_body(body);
    p.globals = globals;
    p
}

fn gen_inputs(rng: &mut DetRng) -> Vec<Value> {
    let vec_len = rng.gen_range(0usize..9);
    vec![
        Value::Unit,
        Value::U64(0),
        Value::U64(rng.gen_range(1u64..24)),
        Value::F64(rng.gen_range(-4.0..4.0)),
        Value::F64s((0..vec_len).map(|_| rng.gen_range(-2.0..2.0)).collect()),
        Value::F64s(vec![1.0, -2.0, 3.0]),
        Value::Bytes(vec![3, 1, 4]),
        Value::Text("abc".to_string()),
    ]
}

/// Output bits: floats compare by bit pattern, so NaNs and signed
/// zeros must match exactly.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::F64s(xs), Value::F64s(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => a == b,
    }
}

type Counted = Result<(Value, u64, RunStats), Trap>;

/// Runs `input` through both tiers and asserts they agree: output bits,
/// fuel, trap, op count, and that the compiled tier ran exactly when the
/// class verified clean (with no dynamic checks). Returns the checking
/// run.
fn agree(inst: &Instance, cert: &Verified, input: &Value, what: &str) -> Counted {
    let slow = inst.run_counted(input);
    let fast = inst.run_verified_counted(cert, input);
    let clean = cert.verdict_for(InputClass::of(input)) == ClassVerdict::Clean;
    match (&slow, &fast) {
        (Ok((v, fuel, stats)), Ok((w, fuel2, stats2, compiled))) => {
            assert!(same_bits(v, w), "{what}: outputs {v:?} vs {w:?}");
            assert_eq!(fuel, fuel2, "{what}: fuel");
            assert_eq!(*compiled, clean, "{what}: compiled tier ran iff clean");
            assert_eq!(stats.ops, stats2.ops, "{what}: op count");
            let checks = if clean { 0 } else { stats.checks };
            assert_eq!(stats2.checks, checks, "{what}: dynamic checks");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: traps"),
        _ => panic!("{what}: one tier trapped: {slow:?} vs {fast:?}"),
    }
    slow
}

/// Fuel limits to re-run a successful run of `fuel` under: every limit
/// for short runs, otherwise `fuel − 1`, `fuel` and a spread of points
/// inside the run.
fn cut_limits(fuel: u64) -> Vec<u64> {
    if fuel <= 48 {
        return (1..=fuel).collect();
    }
    let mut limits: Vec<u64> = (1..16).map(|k| fuel * k / 16).collect();
    limits.extend([fuel / 2 + 1, fuel - 1, fuel]);
    limits
}

/// Re-runs `input` on `program` with its fuel limit cut to each of
/// [`cut_limits`], both tiers, and asserts they agree every time.
fn agree_under_cut_fuel(program: &GuestProgram, input: &Value, fuel: u64, i: u64) -> u64 {
    let mut runs = 0;
    for limit in cut_limits(fuel) {
        let cut = program.clone().with_fuel(limit);
        let cert = verify(&cut).expect("a fuel cut keeps the program verified");
        let Ok(inst) = Instance::instantiate(Rc::new(cut)) else {
            continue; // init alone needs more fuel than this
        };
        let run = agree(
            &inst,
            &cert,
            input,
            &format!("program {i} at limit {limit}"),
        );
        match run {
            Ok((_, used, _)) => assert!(limit >= fuel && used == fuel),
            Err(trap) => assert!(limit < fuel && trap == Trap::FuelExhausted { limit }),
        }
        runs += 1;
    }
    runs
}

/// Traps the verifier promises can never escape an accepted program,
/// regardless of input class.
fn statically_impossible(trap: &Trap) -> bool {
    matches!(trap, Trap::StackUnderflow | Trap::NoReturn | Trap::InitOnly)
}

#[test]
fn accepted_programs_never_break_the_static_contract() {
    let mut rng = DetRng::seed_from_u64(0x5EED_2026);
    let (mut accepted, mut clean_classes, mut rejected) = (0u64, 0u64, 0u64);
    let mut cut_runs = 0u64;
    for i in 0..400 {
        let program = gen_program(&mut rng, i);
        if program.validate().is_err() {
            // Shape-invalid programs must be rejected, never accepted.
            assert!(verify(&program).is_err(), "program {i} validates nowhere");
            rejected += 1;
            continue;
        }
        let cert = match verify(&program) {
            Ok(cert) => cert,
            Err(_) => {
                rejected += 1;
                continue;
            }
        };
        accepted += 1;
        let inst = match Instance::instantiate(Rc::new(program.clone())) {
            Ok(inst) => inst,
            Err(trap) => {
                // Init may still fault on values (div by zero, fuel, …)
                // but never on anything the verifier discharged.
                assert!(
                    !statically_impossible(&trap) && !matches!(trap, Trap::TypeMismatch(_)),
                    "program {i}: init hit verifier-discharged trap {trap:?}"
                );
                continue;
            }
        };
        for input in gen_inputs(&mut rng) {
            let class = InputClass::of(&input);
            let verdict = cert.verdict_for(class);
            if verdict == ClassVerdict::Clean {
                clean_classes += 1;
            }
            let what = format!("program {i} on {input:?} (verdict {verdict:?})");
            let slow = agree(&inst, &cert, &input, &what);
            match &slow {
                Ok((_, fuel, _)) => {
                    assert!(
                        *fuel <= cert.fuel_bound.worst_case(),
                        "program {i}: fuel {fuel} exceeds static bound {:?}",
                        cert.fuel_bound
                    );
                    if verdict == ClassVerdict::Clean {
                        cut_runs += agree_under_cut_fuel(&program, &input, *fuel, i);
                    }
                }
                Err(trap) => {
                    assert!(
                        !statically_impossible(trap),
                        "program {i}: accepted but trapped {trap:?} on {input:?}"
                    );
                    if verdict == ClassVerdict::Clean {
                        assert!(
                            !matches!(trap, Trap::TypeMismatch(_)),
                            "program {i}: Clean class hit {trap:?} on {input:?}"
                        );
                    }
                }
            }
        }
    }
    // The corpus must actually exercise both outcomes and the fast path.
    assert!(
        accepted >= 100,
        "only {accepted} accepted — generator too hostile"
    );
    assert!(
        rejected >= 50,
        "only {rejected} rejected — generator too tame"
    );
    assert!(
        clean_classes >= 100,
        "compiled tier rarely exercised: {clean_classes}"
    );
    assert!(cut_runs >= 1_000, "fuel cuts rarely exercised: {cut_runs}");
}

/// The verified type of a stack slot, as the typed generator tracks it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ty {
    U,
    F,
    /// A join of `U` and `F`: a scalar of dynamic width.
    Num,
    V,
}

fn scalar(t: Ty) -> bool {
    t != Ty::V
}

/// Generates bodies that are well typed for one input class, so that
/// class verifies `Clean` and runs in the compiled tier: scalar and
/// vector arithmetic, `dup`/`swap`/`pop` over mixed kinds, vectors long
/// enough to cost length-dependent fuel, a counted loop that swaps its
/// counter past a carried scalar, and a branch whose arms push a `u64`
/// and an `f64` into one slot.
struct TypedGen<'a> {
    rng: &'a mut DetRng,
    body: Vec<Op>,
    stack: Vec<Ty>,
    input: Ty,
}

impl TypedGen<'_> {
    fn emit(&mut self, op: Op, pops: usize, push: Option<Ty>) {
        self.body.push(op);
        self.stack.truncate(self.stack.len() - pops);
        self.stack.extend(push);
    }

    fn literal(&mut self, t: Ty) {
        match t {
            Ty::U => {
                let k = self.rng.gen_range(0u64..40);
                self.emit(Op::PushU(k), 0, Some(Ty::U));
            }
            _ => {
                let x = self.rng.gen_range(-4.0..4.0);
                self.emit(Op::PushF(x), 0, Some(Ty::F));
            }
        }
    }

    fn source(&mut self) {
        match self.rng.gen_range(0..4u32) {
            0 => self.emit(Op::Input, 0, Some(self.input)),
            1 => self.literal(Ty::U),
            2 => self.literal(Ty::F),
            _ => {
                let n = self.rng.gen_range(0u64..48);
                self.emit(Op::PushU(n), 0, Some(Ty::U));
                self.literal(Ty::F);
                self.emit(Op::VecFill, 2, Some(Ty::V));
            }
        }
    }

    /// `[.., s, k]` → `[.., s']`: count `k` down, updating `s` with a
    /// literal each round, swapping the two every round as the
    /// host-performance benchmark's guest does.
    fn counted_loop(&mut self, s: Ty) {
        let k = self.rng.gen_range(0u64..12);
        self.emit(Op::PushU(k), 0, Some(Ty::U));
        let head = self.body.len() as u16;
        let rounds = self.rng.gen_range(1usize..4);
        let end = head + 7 + 2 * rounds as u16;
        self.body.extend([
            Op::Dup,
            Op::JumpIfZero(end),
            Op::PushU(1),
            Op::Sub,
            Op::Swap,
        ]);
        for _ in 0..rounds {
            let op = [Op::Add, Op::Sub, Op::Mul, Op::Min, Op::Max][self.rng.gen_range(0..5usize)];
            match s {
                Ty::U => self.body.push(Op::PushU(self.rng.gen_range(0u64..5))),
                _ => self.body.push(Op::PushF(self.rng.gen_range(-1.5..1.5))),
            }
            self.body.push(op);
        }
        self.body.extend([Op::Swap, Op::Jump(head), Op::Pop]);
        debug_assert_eq!(self.body.len() as u16, end + 1);
        self.stack.pop();
    }

    /// Pushes a `u64` on one arm and an `f64` (or a `u64`) on the other.
    fn branch(&mut self) {
        let k = self.rng.gen_range(0u64..2);
        self.emit(Op::PushU(k), 0, Some(Ty::U));
        let at = self.body.len() as u16;
        let (a, b) = (self.rng.gen_range(0u64..9), self.rng.gen_range(-3.0..3.0));
        let float = self.rng.gen_bool(0.7);
        self.body.extend([
            Op::JumpIfZero(at + 3),
            Op::PushU(a),
            Op::Jump(at + 4),
            if float {
                Op::PushF(b)
            } else {
                Op::PushU(a + 1)
            },
        ]);
        self.stack.pop();
        self.stack.push(if float { Ty::Num } else { Ty::U });
    }

    fn step(&mut self) {
        let depth = self.stack.len();
        if depth == 0 || self.rng.gen_bool(0.2) {
            return self.source();
        }
        let top = self.stack[depth - 1];
        if depth == 1 || self.rng.gen_bool(0.35) {
            match (self.rng.gen_range(0..5u32), top) {
                (0, t) => self.emit(Op::Dup, 0, Some(t)),
                (1, _) => self.emit(Op::Pop, 1, None),
                (2, t) if scalar(t) => self.emit(Op::Neg, 1, Some(Ty::F)),
                (3, t) if scalar(t) => self.emit(Op::Sqrt, 1, Some(Ty::F)),
                (_, Ty::V) if self.rng.gen_bool(0.5) => self.emit(Op::VecSum, 1, Some(Ty::F)),
                (_, Ty::V) => self.emit(Op::Len, 1, Some(Ty::U)),
                _ => self.source(),
            }
            return;
        }
        let (a, b) = (self.stack[depth - 2], top);
        let arith = [
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Rem,
            Op::Min,
            Op::Max,
        ];
        match self.rng.gen_range(0..6u32) {
            0 => {
                self.emit(Op::Swap, 2, Some(b));
                self.stack.push(a);
            }
            1 | 2 if scalar(a) && scalar(b) => {
                let op = arith[self.rng.gen_range(0..arith.len())];
                let out = match (a, b) {
                    (Ty::U, Ty::U) => Ty::U,
                    (Ty::Num, _) | (_, Ty::Num) => Ty::Num,
                    _ => Ty::F,
                };
                self.emit(op, 2, Some(out));
            }
            3 if scalar(a) && scalar(b) => {
                let op = if self.rng.gen_bool(0.5) {
                    Op::Lt
                } else {
                    Op::Eq
                };
                self.emit(op, 2, Some(Ty::U));
            }
            _ => match (a, b) {
                (Ty::V, Ty::U) => self.emit(Op::Get, 2, Some(Ty::F)),
                (Ty::V, Ty::V) if self.rng.gen_bool(0.5) => self.emit(Op::VecAdd, 2, Some(Ty::V)),
                (Ty::V, Ty::V) => self.emit(Op::VecDot, 2, Some(Ty::F)),
                (Ty::V, t) if scalar(t) => self.emit(Op::VecScale, 2, Some(Ty::V)),
                (Ty::U, Ty::U | Ty::F) if self.rng.gen_bool(0.3) => {
                    // Bound the count so the vector stays small.
                    self.body
                        .extend([Op::Swap, Op::PushU(64), Op::Rem, Op::Swap]);
                    self.emit(Op::VecFill, 2, Some(Ty::V));
                }
                _ => self.source(),
            },
        }
    }
}

fn gen_typed_program(rng: &mut DetRng, i: u64) -> (GuestProgram, InputClass) {
    let (input, class) = match rng.gen_range(0..3u32) {
        0 => (Ty::U, InputClass::U64),
        1 => (Ty::F, InputClass::F64),
        _ => (Ty::V, InputClass::Vec),
    };
    let mut g = TypedGen {
        rng,
        body: Vec::new(),
        stack: Vec::new(),
        input,
    };
    for _ in 0..g.rng.gen_range(3usize..16) {
        g.step();
        let depth = g.stack.len();
        if depth >= 1 && g.rng.gen_bool(0.08) {
            g.branch();
        }
        let carried = g.stack.last().copied();
        if let Some(s @ (Ty::U | Ty::F)) = carried {
            if g.rng.gen_bool(0.1) {
                g.counted_loop(s);
            }
        }
    }
    if g.stack.is_empty() {
        g.source();
    }
    g.body.push(Op::Return);
    let program = GuestProgram::new(&format!("t{i}"), DeviceClass::Cpu)
        .with_fuel(FUEL)
        .with_body(g.body);
    (program, class)
}

#[test]
fn typed_programs_agree_in_both_tiers_at_every_fuel_cut() {
    let mut rng = DetRng::seed_from_u64(0x7E5_2026);
    let (mut compiled, mut cut_runs) = (0u64, 0u64);
    for i in 0..300 {
        let (program, class) = gen_typed_program(&mut rng, i);
        let cert = match verify(&program) {
            Ok(cert) => cert,
            // Two vectors of provably different lengths meeting in
            // `vec.add`/`vec.dot` are rightly rejected.
            Err(e) => {
                assert!(e.diags.iter().all(|d| d.rule == "type"), "program {i}: {e}");
                continue;
            }
        };
        assert_eq!(
            cert.verdict_for(class),
            ClassVerdict::Clean,
            "program {i} is typed for {class:?}: {:?}",
            program.body
        );
        let inst = Instance::instantiate(Rc::new(program.clone())).expect("no init");
        for input in gen_inputs(&mut rng).into_iter().chain([
            Value::F64s((0..40).map(|k| (k as f64 * 0.7).sin()).collect()),
            Value::U64(rng.gen_range(0u64..64)),
        ]) {
            let what = format!("typed program {i} on {input:?}");
            if let Ok((_, fuel, _)) = agree(&inst, &cert, &input, &what) {
                if InputClass::of(&input) == class {
                    compiled += 1;
                    cut_runs += agree_under_cut_fuel(&program, &input, fuel, i);
                }
            }
        }
    }
    assert!(compiled >= 300, "compiled tier rarely ran: {compiled}");
    assert!(cut_runs >= 3_000, "fuel cuts rarely exercised: {cut_runs}");
}

#[test]
fn corpus_is_seed_deterministic() {
    let gen_all = |seed: u64| {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..40)
            .map(|i| gen_program(&mut rng, i))
            .collect::<Vec<_>>()
    };
    let (a, b) = (gen_all(7), gen_all(7));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.hash(), y.hash(), "same seed, same corpus");
    }
}

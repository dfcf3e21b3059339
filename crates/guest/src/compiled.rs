//! The compiled guest tier: typed register code lowered from a verified
//! body, once per [`ClassVerdict::Clean`](crate::ClassVerdict::Clean)
//! input class, and the loop that runs it.
//!
//! The verifier proves the exact stack depth at every pc and, for a
//! clean class, the type of every slot a reachable instruction reads.
//! Lowering turns each stack position into a register named by its
//! depth, in one of three banks:
//!
//! * **scalar** — a `u64` or the bits of an `f64` (the verifier knows
//!   which);
//! * **vector** — a `Cow<[f64]>` that borrows the input or a global
//!   until an op must own it;
//! * **value** — a whole [`Value`], for slots the verifier typed only
//!   as "some scalar" (`Num`), `Unit` or ⊤.
//!
//! So `Dup` becomes a slot copy and `Pop` nothing. Within a block the
//! scalar bank is renamed: `swap` of two scalars only exchanges which
//! physical register holds which depth, and the identity is restored
//! (by register swaps) before a block ends or an instruction that
//! addresses two banks at one depth. A literal feeding an arithmetic op
//! becomes an immediate operand, and a `dup` feeding `jump.ez` a
//! non-consuming test.
//!
//! **Fuel.** The code is cut into straight-line blocks; an op whose
//! fuel depends on a vector length always ends its block. Entering a
//! block charges its whole op count at once when that fits under the
//! limit. Otherwise the block runs op by op, each instruction charging
//! the source ops it retires before it executes. Both give the checking
//! interpreter's fuel, op count and trap: a block charged at once cannot
//! exhaust fuel before its last op, and on a trap neither fuel nor op
//! count is reported. A source op that cannot trap may hand its charge
//! to the next instruction that retires ops, for the same reason. Vector ops charge their length-dependent fuel at
//! the same point, after the same value checks, as the checking path.
//! Floating-point expressions are the checking path's, in its order.

use std::borrow::Cow;

use kaas_kernels::Value;

use crate::interp::{Bin, Meter, Trap};
use crate::program::{Op, MAX_VEC_LEN};
use crate::verify::{step, AbsTy, State};

/// A register: the verifier's stack depth of the value it holds (in
/// the scalar bank, up to the block's renaming).
type Slot = u16;

/// Where a slot's value lives, by its verified type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `u64` in the scalar bank.
    U,
    /// `f64` bits in the scalar bank.
    F,
    /// The vector bank.
    V,
    /// The value bank (`Num`, `Unit`, ⊤).
    X,
}

impl Kind {
    fn of(t: AbsTy) -> Kind {
        match t {
            AbsTy::U64(_) => Kind::U,
            AbsTy::F64 => Kind::F,
            AbsTy::Vec(_) => Kind::V,
            AbsTy::Num | AbsTy::Unit | AbsTy::Any => Kind::X,
        }
    }
}

/// One register instruction. Scalar-bank operands are physical
/// registers (`a`, `b`, `d`, `c`, `to`, `from`): binary ops read `a` and
/// `b` and write `a`. Instructions that address the vector or value bank
/// run with the renaming settled, so their scalar operands are the
/// depths `a + 1` and `d` themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ins {
    /// Block entry: the number of source ops the block retires.
    Block(u32),
    /// Retires source ops that lowered to nothing (`pop`, `swap`).
    Nop,
    /// `s[d] = bits` (`push.u`, `push.f`).
    Const { d: Slot, bits: u64 },
    /// `s[d]` = the scalar input.
    InputScalar(Slot),
    /// `v[d]` borrows the vector input.
    InputVec(Slot),
    /// `x[d]` = a copy of the input.
    InputValue(Slot),
    /// `s[d]` = scalar global `g`.
    GlobalScalar { d: Slot, g: u8 },
    /// `v[d]` borrows vector global `g`.
    GlobalVec { d: Slot, g: u8 },
    /// `x[d]` = a copy of global `g`.
    GlobalValue { d: Slot, g: u8 },
    /// `dup` in the scalar bank.
    DupS { to: Slot, from: Slot },
    /// `dup` in the vector bank.
    DupV(Slot),
    /// `dup` in the value bank.
    DupX(Slot),
    /// Exchanges two scalar registers (settles the renaming).
    SwapS { a: Slot, b: Slot },
    /// `swap` of two vectors.
    SwapV(Slot),
    /// `swap` of two values.
    SwapX(Slot),
    /// Half of a `swap` across banks (the scalar half is a rename):
    /// `v[to] = take(v[from])`.
    MoveV { to: Slot, from: Slot },
    /// Half of a `swap` across banks: `x[to] = take(x[from])`.
    MoveX { to: Slot, from: Slot },
    /// Promotes a `u64` scalar to `f64` in place.
    UtoF(Slot),
    /// `s[d]` = the `f64` value of the scalar in `x[d]`.
    XtoF(Slot),
    /// `x[d]` = the scalar in `s[d]` (`float` says which kind).
    StoX { d: Slot, float: bool },
    /// `x[d]` = the vector in `v[d]`.
    VtoX(Slot),
    /// `u64` arithmetic.
    BinU { op: Bin, a: Slot, b: Slot },
    /// `u64` arithmetic with a literal right operand.
    BinUImm { op: Bin, a: Slot, imm: u64 },
    /// `f64` arithmetic.
    BinF { op: Bin, a: Slot, b: Slot },
    /// `f64` arithmetic with a literal right operand.
    BinFImm { op: Bin, a: Slot, imm: f64 },
    /// Arithmetic on two values of dynamic scalar width.
    BinX { op: Bin, a: Slot },
    /// `f64` negation.
    Neg(Slot),
    /// `f64` square root.
    Sqrt(Slot),
    /// `f64` compare (`lt` or `eq`) into a `u64` flag.
    Cmp { lt: bool, a: Slot, b: Slot },
    /// `s[d]` = the length of `v[d]`.
    Len(Slot),
    /// `s[a]` = `v[a][s[a + 1]]`.
    Get(Slot),
    /// `v[a]` = `s[a]` copies of `s[a + 1]`.
    VecFill(Slot),
    /// `v[a]` scaled by `s[a + 1]`.
    VecScale(Slot),
    /// `v[a] += v[a + 1]`.
    VecAdd(Slot),
    /// `s[d]` = the sum of `v[d]`.
    VecSum(Slot),
    /// `s[a]` = `v[a] · v[a + 1]`.
    VecDot(Slot),
    /// Jump to an instruction index.
    Goto(u32),
    /// Jump to `to` when `s[c]` is zero.
    IfZero { c: Slot, to: u32 },
    /// Return `s[d]` as a `u64`.
    RetU(Slot),
    /// Return `s[d]` as an `f64`.
    RetF(Slot),
    /// Return `v[d]`.
    RetV(Slot),
    /// Return `x[d]`.
    RetX(Slot),
}

/// A body lowered for one input class.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Compiled {
    code: Vec<Ins>,
    /// Source ops each instruction retires (charged op by op when its
    /// block does not fit under the fuel limit).
    ticks: Vec<u32>,
    scalars: usize,
    vectors: usize,
    values: usize,
}

/// A jump target before layout.
#[derive(Clone, Copy)]
enum Label {
    /// The block that starts at this source pc.
    Pc(usize),
    /// An edge stub (coercions, then a jump to a block).
    Stub(usize),
}

/// Lowers a body for one input class from that class's typing pass:
/// `states[pc]` is the abstract state at entry to each pc (index
/// `seq.len()` is the fall-off point), `input` the class's input type.
/// `None` means the typing holds something lowering does not expect;
/// the class then stays on the checking interpreter.
pub(crate) fn lower(seq: &[Op], states: &[Option<State>], input: AbsTy) -> Option<Compiled> {
    let n = seq.len();
    if n == 0 || states.get(n)?.is_some() || states[0].is_none() {
        return None;
    }
    let mut leader = vec![false; n];
    leader[0] = true;
    for (pc, op) in seq.iter().enumerate() {
        if states[pc].is_none() {
            continue;
        }
        match *op {
            Op::Jump(t) | Op::JumpIfZero(t) => leader[t as usize] = true,
            _ => {}
        }
        let ends_block = matches!(
            op,
            Op::Jump(_)
                | Op::JumpIfZero(_)
                | Op::Return
                | Op::VecFill
                | Op::VecScale
                | Op::VecAdd
                | Op::VecSum
                | Op::VecDot
        );
        if ends_block && pc + 1 < n {
            leader[pc + 1] = true;
        }
    }
    let mut max_stack = 0;
    let (mut vectors, mut values) = (false, false);
    for st in states.iter().flatten() {
        max_stack = max_stack.max(st.stack.len());
        for t in &st.stack {
            vectors |= Kind::of(*t) == Kind::V;
            values |= Kind::of(*t) == Kind::X;
        }
    }
    let mut l = Lowering {
        seq,
        states,
        leader,
        code: Vec::new(),
        ticks: Vec::new(),
        pending: 0,
        header: None,
        block_ops: 0,
        starts: vec![None; n],
        stubs: Vec::new(),
        fixups: Vec::new(),
        map: (0..max_stack as Slot).collect(),
        renamed: false,
    };
    let mut pc = 0;
    // The state that falls through into the next pc, if any.
    let mut fall: Option<State> = None;
    while pc < n {
        let Some(entry) = &states[pc] else {
            fall = None;
            pc += 1;
            continue;
        };
        if l.leader[pc] {
            l.close_block();
            if let Some(out) = fall.take() {
                for ins in Lowering::coercions(&out, entry)? {
                    l.push(ins);
                }
            }
            l.starts[pc] = Some(l.code.len() as u32);
            l.header = Some(l.code.len());
            l.push(Ins::Block(0));
        }
        let consumed = l.op(pc, input)?;
        let last = pc + consumed - 1;
        fall = match seq[last] {
            Op::Jump(_) | Op::Return => None,
            op => {
                let mut out = states[last].clone()?;
                step(op, &mut out, input).ok()?;
                Some(out)
            }
        };
        pc += consumed;
    }
    if fall.is_some() {
        // The verifier rejects bodies that can run off the end.
        return None;
    }
    l.close_block();
    l.layout()?;
    let banks = |used: bool| if used { max_stack } else { 0 };
    Some(Compiled {
        code: l.code,
        ticks: l.ticks,
        scalars: max_stack,
        vectors: banks(vectors),
        values: banks(values),
    })
}

struct Lowering<'a> {
    seq: &'a [Op],
    states: &'a [Option<State>],
    /// Does a block start at this pc?
    leader: Vec<bool>,
    code: Vec<Ins>,
    ticks: Vec<u32>,
    /// Source ops lowered since the last instruction that retired ops.
    pending: u32,
    /// Index of the open block's header.
    header: Option<usize>,
    /// Source ops in the open block.
    block_ops: u32,
    /// Instruction index of the block starting at each pc.
    starts: Vec<Option<u32>>,
    /// Edge stubs: coercions, then the target pc.
    stubs: Vec<(Vec<Ins>, usize)>,
    /// Jumps whose target is resolved at layout.
    fixups: Vec<(usize, Label)>,
    /// The scalar renaming: the physical register holding each depth.
    map: Vec<Slot>,
    /// Is `map` possibly not the identity?
    renamed: bool,
}

impl Lowering<'_> {
    /// Appends an instruction that retires no source op of its own.
    fn push(&mut self, ins: Ins) {
        self.code.push(ins);
        self.ticks.push(0);
    }

    /// Appends the instruction that completes the pending source ops.
    fn retire(&mut self, ins: Ins) {
        self.code.push(ins);
        self.ticks.push(self.pending);
        self.pending = 0;
    }

    /// Counts `k` source ops into the open block.
    fn count(&mut self, k: u32) {
        self.pending += k;
        self.block_ops += k;
    }

    /// The physical scalar register holding depth `d`.
    fn reg(&self, d: usize) -> Slot {
        self.map[d]
    }

    /// Restores the identity renaming with register swaps.
    fn settle(&mut self) {
        if !std::mem::take(&mut self.renamed) {
            return;
        }
        for d in 0..self.map.len() {
            let r = self.map[d];
            if r as usize == d {
                continue;
            }
            // Depth `j` lives in register `d`: exchange the two.
            let j = (0..self.map.len())
                .find(|&j| self.map[j] as usize == d)
                .expect("the renaming is a permutation");
            self.push(Ins::SwapS { a: d as Slot, b: r });
            self.map[j] = r;
            self.map[d] = d as Slot;
        }
    }

    fn close_block(&mut self) {
        self.settle();
        if self.pending > 0 {
            self.retire(Ins::Nop);
        }
        if let Some(h) = self.header.take() {
            debug_assert_eq!(
                self.ticks[h..].iter().sum::<u32>(),
                self.block_ops,
                "block ticks"
            );
            self.code[h] = Ins::Block(self.block_ops);
        }
        self.block_ops = 0;
    }

    /// Moves each slot of `out` whose bank differs from `target`'s into
    /// the value bank (joins only widen, so the target is always ⊤-ish).
    fn coercions(out: &State, target: &State) -> Option<Vec<Ins>> {
        if out.stack.len() != target.stack.len() {
            return None;
        }
        let mut ins = Vec::new();
        for (d, (from, to)) in out.stack.iter().zip(&target.stack).enumerate() {
            let (from, to) = (Kind::of(*from), Kind::of(*to));
            if from == to {
                continue;
            }
            if to != Kind::X {
                return None;
            }
            let d = d as Slot;
            ins.push(match from {
                Kind::U => Ins::StoX { d, float: false },
                Kind::F => Ins::StoX { d, float: true },
                Kind::V => Ins::VtoX(d),
                Kind::X => return None,
            });
        }
        Some(ins)
    }

    /// The label a jump from state `out` to `target` goes through.
    fn edge(&mut self, out: &State, target: usize) -> Option<Label> {
        let coerce = Self::coercions(out, self.states[target].as_ref()?)?;
        if coerce.is_empty() {
            Some(Label::Pc(target))
        } else {
            self.stubs.push((coerce, target));
            Some(Label::Stub(self.stubs.len() - 1))
        }
    }

    fn jump(&mut self, ins: Ins, label: Label) {
        self.fixups.push((self.code.len(), label));
        self.retire(ins);
    }

    /// Appends the stubs and resolves every jump.
    fn layout(&mut self) -> Option<()> {
        let mut stub_at = Vec::with_capacity(self.stubs.len());
        for (coerce, target) in std::mem::take(&mut self.stubs) {
            stub_at.push(self.code.len() as u32);
            for ins in coerce {
                self.push(ins);
            }
            self.fixups.push((self.code.len(), Label::Pc(target)));
            self.push(Ins::Goto(0));
        }
        for &(at, label) in &self.fixups {
            let to = match label {
                Label::Pc(pc) => self.starts[pc]?,
                Label::Stub(i) => stub_at[i],
            };
            match &mut self.code[at] {
                Ins::Goto(t) | Ins::IfZero { to: t, .. } => *t = to,
                _ => return None,
            }
        }
        Some(())
    }

    /// Converts the scalar at depth `d` to an `f64` in the scalar bank.
    fn float_at(&mut self, d: usize, t: AbsTy) -> Option<()> {
        match Kind::of(t) {
            Kind::U => self.push(Ins::UtoF(self.reg(d))),
            Kind::F => {}
            Kind::X => {
                self.settle();
                self.push(Ins::XtoF(d as Slot));
            }
            Kind::V => return None,
        }
        Some(())
    }

    /// Lowers the op at `pc` (and the op after it, when the two fuse).
    /// Returns how many source ops it consumed.
    fn op(&mut self, pc: usize, input: AbsTy) -> Option<usize> {
        let states = self.states;
        let st = states[pc].as_ref()?;
        let stack = &st.stack;
        let depth = stack.len();
        let ty = |k: usize| stack[depth - k];
        let top = (depth as Slot).wrapping_sub(1);
        let pair = (depth as Slot).wrapping_sub(2);
        // The next op, when it continues this block.
        let next = (pc + 1 < self.seq.len() && self.states[pc + 1].is_some())
            .then(|| self.seq[pc + 1])
            .filter(|_| !self.leader[pc + 1]);
        let op = self.seq[pc];
        self.count(1);
        match op {
            Op::PushU(_) | Op::PushF(_) => {
                let fused = next.and_then(Bin::of).filter(|_| depth >= 1);
                let a = fused.map(|_| self.reg(depth - 1));
                match (op, fused, a) {
                    (Op::PushU(k), Some(bin), Some(a)) if Kind::of(ty(1)) == Kind::U => {
                        self.count(1);
                        self.retire(Ins::BinUImm { op: bin, a, imm: k });
                        return Some(2);
                    }
                    (Op::PushU(k), Some(bin), Some(a)) if Kind::of(ty(1)) == Kind::F => {
                        self.count(1);
                        let imm = k as f64;
                        self.retire(Ins::BinFImm { op: bin, a, imm });
                        return Some(2);
                    }
                    (Op::PushF(imm), Some(bin), Some(a))
                        if matches!(Kind::of(ty(1)), Kind::U | Kind::F) =>
                    {
                        self.float_at(depth - 1, ty(1))?;
                        self.count(1);
                        self.retire(Ins::BinFImm { op: bin, a, imm });
                        return Some(2);
                    }
                    (Op::PushU(bits), ..) => self.retire(Ins::Const {
                        d: self.reg(depth),
                        bits,
                    }),
                    (Op::PushF(x), ..) => self.retire(Ins::Const {
                        d: self.reg(depth),
                        bits: x.to_bits(),
                    }),
                    _ => unreachable!("push ops"),
                }
            }
            Op::Input => {
                let d = depth as Slot;
                self.retire(match Kind::of(input) {
                    Kind::U | Kind::F => Ins::InputScalar(self.reg(depth)),
                    Kind::V => Ins::InputVec(d),
                    Kind::X => Ins::InputValue(d),
                });
            }
            Op::Global(g) => {
                let d = depth as Slot;
                self.retire(match Kind::of(*st.globals.get(g as usize)?) {
                    Kind::U | Kind::F => Ins::GlobalScalar {
                        d: self.reg(depth),
                        g,
                    },
                    Kind::V => Ins::GlobalVec { d, g },
                    Kind::X => Ins::GlobalValue { d, g },
                });
            }
            Op::SetGlobal(_) => return None,
            Op::Dup => {
                let kind = Kind::of(ty(1));
                if let (Some(Op::JumpIfZero(t)), Kind::U) = (next, kind) {
                    // `dup; jump.ez` tests the value without copying it,
                    // leaving the stack as it found it.
                    let label = self.edge(st, t as usize)?;
                    self.settle();
                    self.count(1);
                    self.jump(Ins::IfZero { c: top, to: 0 }, label);
                    return Some(2);
                }
                let d = depth as Slot;
                self.retire(match kind {
                    Kind::U | Kind::F => Ins::DupS {
                        to: self.reg(depth),
                        from: self.reg(depth - 1),
                    },
                    Kind::V => Ins::DupV(d),
                    Kind::X => Ins::DupX(d),
                });
            }
            // Neither can trap, so their fuel rides on the next
            // instruction that retires ops.
            Op::Pop => {}
            Op::Swap => {
                let (lo, hi) = (Kind::of(ty(2)), Kind::of(ty(1)));
                let scalar = |k: Kind| matches!(k, Kind::U | Kind::F);
                if scalar(lo) || scalar(hi) {
                    self.map.swap(depth - 2, depth - 1);
                    self.renamed = true;
                }
                match (lo, hi) {
                    (Kind::V, Kind::V) => self.push(Ins::SwapV(pair)),
                    (Kind::X, Kind::X) => self.push(Ins::SwapX(pair)),
                    _ => {
                        for (k, to, from) in [(lo, top, pair), (hi, pair, top)] {
                            match k {
                                Kind::V => self.push(Ins::MoveV { to, from }),
                                Kind::X => self.push(Ins::MoveX { to, from }),
                                Kind::U | Kind::F => {}
                            }
                        }
                    }
                }
            }
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Rem | Op::Min | Op::Max => {
                let bin = Bin::of(op)?;
                let (ta, tb) = (ty(2), ty(1));
                let (a, b) = (self.reg(depth - 2), self.reg(depth - 1));
                match (Kind::of(ta), Kind::of(tb)) {
                    (Kind::U, Kind::U) => self.retire(Ins::BinU { op: bin, a, b }),
                    (Kind::U | Kind::F, Kind::U | Kind::F) => {
                        self.float_at(depth - 2, ta)?;
                        self.float_at(depth - 1, tb)?;
                        self.retire(Ins::BinF { op: bin, a, b });
                    }
                    (ka, kb) => {
                        self.settle();
                        for (d, k) in [(pair, ka), (top, kb)] {
                            match k {
                                Kind::U => self.push(Ins::StoX { d, float: false }),
                                Kind::F => self.push(Ins::StoX { d, float: true }),
                                Kind::X => {}
                                Kind::V => return None,
                            }
                        }
                        self.retire(Ins::BinX { op: bin, a: pair });
                    }
                }
            }
            Op::Neg | Op::Sqrt => {
                self.float_at(depth - 1, ty(1))?;
                let d = self.reg(depth - 1);
                self.retire(if op == Op::Neg {
                    Ins::Neg(d)
                } else {
                    Ins::Sqrt(d)
                });
            }
            Op::Lt | Op::Eq => {
                self.float_at(depth - 2, ty(2))?;
                self.float_at(depth - 1, ty(1))?;
                let (a, b) = (self.reg(depth - 2), self.reg(depth - 1));
                let lt = op == Op::Lt;
                self.retire(Ins::Cmp { lt, a, b });
            }
            Op::Len | Op::VecSum => {
                if Kind::of(ty(1)) != Kind::V {
                    return None;
                }
                self.settle();
                self.retire(if op == Op::Len {
                    Ins::Len(top)
                } else {
                    Ins::VecSum(top)
                });
            }
            Op::Get => {
                if (Kind::of(ty(2)), Kind::of(ty(1))) != (Kind::V, Kind::U) {
                    return None;
                }
                self.settle();
                self.retire(Ins::Get(pair));
            }
            Op::VecFill | Op::VecScale => {
                let want = if op == Op::VecFill { Kind::U } else { Kind::V };
                if Kind::of(ty(2)) != want {
                    return None;
                }
                self.settle();
                self.float_at(depth - 1, ty(1))?;
                self.retire(if op == Op::VecFill {
                    Ins::VecFill(pair)
                } else {
                    Ins::VecScale(pair)
                });
            }
            Op::VecAdd | Op::VecDot => {
                if (Kind::of(ty(2)), Kind::of(ty(1))) != (Kind::V, Kind::V) {
                    return None;
                }
                self.settle();
                self.retire(if op == Op::VecAdd {
                    Ins::VecAdd(pair)
                } else {
                    Ins::VecDot(pair)
                });
            }
            Op::Jump(t) => {
                let label = self.edge(st, t as usize)?;
                self.settle();
                self.jump(Ins::Goto(0), label);
            }
            Op::JumpIfZero(t) => {
                if Kind::of(ty(1)) != Kind::U {
                    return None;
                }
                let mut out = st.clone();
                out.stack.pop();
                let label = self.edge(&out, t as usize)?;
                self.settle();
                self.jump(Ins::IfZero { c: top, to: 0 }, label);
            }
            Op::Return => {
                self.retire(match Kind::of(ty(1)) {
                    Kind::U => Ins::RetU(self.reg(depth - 1)),
                    Kind::F => Ins::RetF(self.reg(depth - 1)),
                    Kind::V => Ins::RetV(top),
                    Kind::X => Ins::RetX(top),
                });
            }
        }
        Some(1)
    }
}

/// Lowering proved this state impossible. Kept as a cold panic (not UB)
/// so a verifier bug can never corrupt the host; release builds pay one
/// never-taken branch where a bank's contents are matched.
#[cold]
#[inline(never)]
fn unsound(what: &'static str) -> ! {
    panic!("compiled guest tier invariant violated: {what}");
}

fn scalar_bits(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        Value::F64(x) => x.to_bits(),
        _ => unsound("scalar operand"),
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::F64(x) => *x,
        _ => unsound("scalar operand"),
    }
}

fn vector(v: &Value) -> &[f64] {
    match v {
        Value::F64s(xs) => xs,
        _ => unsound("vector operand"),
    }
}

fn f(bits: u64) -> f64 {
    f64::from_bits(bits)
}

impl Compiled {
    /// Runs the code against an instance's frozen globals. Returns the
    /// output and the fuel consumed, exactly as the checking interpreter
    /// would.
    pub(crate) fn run<M: Meter>(
        &self,
        globals: &[Value],
        input: &Value,
        fuel_limit: u64,
        m: &mut M,
    ) -> Result<(Value, u64), Trap> {
        let code = &self.code[..];
        let mut s = vec![0u64; self.scalars];
        let mut v: Vec<Cow<'_, [f64]>> = vec![Cow::Borrowed(&[]); self.vectors];
        let mut x = vec![Value::Unit; self.values];
        let mut fuel: u64 = 0;
        // Is the current block charged op by op?
        let mut slow = false;
        // Debug builds check that a block charged at entry retires
        // exactly the ops it charged.
        let mut owed = 0u64;
        let spend = |fuel: &mut u64, cost: u64| -> Result<(), Trap> {
            *fuel = fuel.saturating_add(cost);
            if *fuel > fuel_limit {
                return Err(Trap::FuelExhausted { limit: fuel_limit });
            }
            Ok(())
        };
        let mut pc = 0usize;
        loop {
            let ins = code[pc];
            if slow {
                let t = self.ticks[pc] as u64;
                spend(&mut fuel, t)?;
                m.ops(t);
            } else if cfg!(debug_assertions) {
                owed -= self.ticks[pc] as u64;
            }
            pc += 1;
            match ins {
                Ins::Block(ops) => {
                    debug_assert_eq!(owed, 0, "block before {}", pc - 1);
                    let ops = ops as u64;
                    slow = fuel.saturating_add(ops) > fuel_limit;
                    if !slow {
                        fuel += ops;
                        m.ops(ops);
                        if cfg!(debug_assertions) {
                            owed = ops;
                        }
                    }
                }
                Ins::Nop => {}
                Ins::Const { d, bits } => s[d as usize] = bits,
                Ins::InputScalar(d) => s[d as usize] = scalar_bits(input),
                Ins::InputVec(d) => v[d as usize] = Cow::Borrowed(vector(input)),
                Ins::InputValue(d) => x[d as usize] = input.clone(),
                Ins::GlobalScalar { d, g } => s[d as usize] = scalar_bits(&globals[g as usize]),
                Ins::GlobalVec { d, g } => {
                    v[d as usize] = Cow::Borrowed(vector(&globals[g as usize]))
                }
                Ins::GlobalValue { d, g } => x[d as usize] = globals[g as usize].clone(),
                Ins::DupS { to, from } => s[to as usize] = s[from as usize],
                Ins::DupV(d) => v[d as usize] = v[d as usize - 1].clone(),
                Ins::DupX(d) => x[d as usize] = x[d as usize - 1].clone(),
                Ins::SwapS { a, b } => s.swap(a as usize, b as usize),
                Ins::SwapV(a) => v.swap(a as usize, a as usize + 1),
                Ins::SwapX(a) => x.swap(a as usize, a as usize + 1),
                Ins::MoveV { to, from } => v[to as usize] = std::mem::take(&mut v[from as usize]),
                Ins::MoveX { to, from } => {
                    x[to as usize] = std::mem::replace(&mut x[from as usize], Value::Unit)
                }
                Ins::UtoF(d) => s[d as usize] = (s[d as usize] as f64).to_bits(),
                Ins::XtoF(d) => s[d as usize] = num(&x[d as usize]).to_bits(),
                Ins::StoX { d, float } => {
                    let bits = s[d as usize];
                    x[d as usize] = if float {
                        Value::F64(f(bits))
                    } else {
                        Value::U64(bits)
                    };
                }
                Ins::VtoX(d) => {
                    x[d as usize] = Value::F64s(std::mem::take(&mut v[d as usize]).into_owned())
                }
                Ins::BinU { op, a, b } => s[a as usize] = op.u64(s[a as usize], s[b as usize])?,
                Ins::BinUImm { op, a, imm } => s[a as usize] = op.u64(s[a as usize], imm)?,
                Ins::BinF { op, a, b } => {
                    s[a as usize] = op.f64(f(s[a as usize]), f(s[b as usize]))?.to_bits()
                }
                Ins::BinFImm { op, a, imm } => {
                    s[a as usize] = op.f64(f(s[a as usize]), imm)?.to_bits()
                }
                Ins::BinX { op, a } => {
                    let a = a as usize;
                    x[a] = op.value(&x[a], &x[a + 1])?;
                }
                Ins::Neg(d) => s[d as usize] = (-f(s[d as usize])).to_bits(),
                Ins::Sqrt(d) => {
                    let r = f(s[d as usize]);
                    if r < 0.0 {
                        return Err(Trap::Domain("sqrt of negative"));
                    }
                    s[d as usize] = r.sqrt().to_bits();
                }
                Ins::Cmp { lt, a, b } => {
                    let (l, r) = (f(s[a as usize]), f(s[b as usize]));
                    s[a as usize] = (if lt { l < r } else { l == r }) as u64;
                }
                Ins::Len(d) => s[d as usize] = v[d as usize].len() as u64,
                Ins::Get(a) => {
                    let a = a as usize;
                    let (xs, index) = (&v[a], s[a + 1]);
                    let e = *xs.get(index as usize).ok_or(Trap::OobIndex {
                        index,
                        len: xs.len() as u64,
                    })?;
                    s[a] = e.to_bits();
                }
                Ins::VecFill(a) => {
                    let a = a as usize;
                    let (n, fill) = (s[a], f(s[a + 1]));
                    if n > MAX_VEC_LEN {
                        return Err(Trap::Domain("vector too large"));
                    }
                    spend(&mut fuel, n / 16)?;
                    v[a] = Cow::Owned(vec![fill; n as usize]);
                }
                Ins::VecScale(a) => {
                    let a = a as usize;
                    let k = f(s[a + 1]);
                    spend(&mut fuel, v[a].len() as u64 / 16)?;
                    for e in v[a].to_mut() {
                        *e *= k;
                    }
                }
                Ins::VecAdd(a) => {
                    let a = a as usize;
                    let (left, right) = (v[a].len(), v[a + 1].len());
                    if left != right {
                        return Err(Trap::LengthMismatch {
                            left: left as u64,
                            right: right as u64,
                        });
                    }
                    spend(&mut fuel, left as u64 / 16)?;
                    let b = std::mem::take(&mut v[a + 1]);
                    for (e, y) in v[a].to_mut().iter_mut().zip(b.iter()) {
                        *e += *y;
                    }
                }
                Ins::VecSum(d) => {
                    let d = d as usize;
                    spend(&mut fuel, v[d].len() as u64 / 16)?;
                    let sum: f64 = v[d].iter().sum();
                    s[d] = sum.to_bits();
                }
                Ins::VecDot(a) => {
                    let a = a as usize;
                    let (xs, ys) = (&v[a], &v[a + 1]);
                    if xs.len() != ys.len() {
                        return Err(Trap::LengthMismatch {
                            left: xs.len() as u64,
                            right: ys.len() as u64,
                        });
                    }
                    spend(&mut fuel, xs.len() as u64 / 16)?;
                    let dot: f64 = xs.iter().zip(ys.iter()).map(|(p, q)| p * q).sum();
                    s[a] = dot.to_bits();
                }
                Ins::Goto(to) => pc = to as usize,
                Ins::IfZero { c, to } => {
                    if s[c as usize] == 0 {
                        pc = to as usize;
                    }
                }
                Ins::RetU(d) | Ins::RetF(d) | Ins::RetV(d) | Ins::RetX(d) => {
                    debug_assert!(slow || owed == 0, "return at {}", pc - 1);
                    let d = d as usize;
                    let out = match ins {
                        Ins::RetU(_) => Value::U64(s[d]),
                        Ins::RetF(_) => Value::F64(f(s[d])),
                        Ins::RetV(_) => Value::F64s(std::mem::take(&mut v[d]).into_owned()),
                        _ => std::mem::replace(&mut x[d], Value::Unit),
                    };
                    return Ok((out, fuel));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use kaas_accel::DeviceClass;

    use super::*;
    use crate::interp::Instance;
    use crate::program::GuestProgram;
    use crate::verify::{verify, InputClass};

    fn program(body: Vec<Op>) -> GuestProgram {
        GuestProgram::new("t", DeviceClass::Cpu)
            .with_fuel(100_000)
            .with_body(body)
    }

    /// Runs `input` under every fuel limit from 1 to one past what the
    /// run needs and asserts the compiled tier reproduces the checking
    /// interpreter each time: output, fuel, op count, trap.
    fn agree_at_every_limit(body: Vec<Op>, input: &Value) -> u64 {
        let full = Instance::instantiate(Rc::new(program(body.clone()))).unwrap();
        let need = match full.run(input) {
            Ok((_, fuel)) => fuel,
            Err(_) => 64,
        };
        for limit in 1..=need + 1 {
            let p = program(body.clone()).with_fuel(limit);
            let cert = verify(&p).unwrap();
            assert!(
                cert.compiled(InputClass::of(input)).is_some(),
                "clean class"
            );
            let inst = Instance::instantiate(Rc::new(p)).unwrap();
            let slow = inst.run_counted(input);
            let fast = inst.run_verified_counted(&cert, input);
            match (&slow, &fast) {
                (Ok((v, fuel, stats)), Ok((w, fuel2, stats2, true))) => {
                    assert_eq!(
                        (v, fuel, stats.ops),
                        (w, fuel2, stats2.ops),
                        "limit {limit}"
                    );
                    assert_eq!(stats2.checks, 0);
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "limit {limit}"),
                _ => panic!("limit {limit}: {slow:?} vs {fast:?}"),
            }
        }
        need
    }

    fn code(body: Vec<Op>, class: InputClass) -> Compiled {
        verify(&program(body))
            .unwrap()
            .compiled(class)
            .cloned()
            .expect("clean class")
    }

    /// The host-performance benchmark's guest loop.
    fn settle_loop() -> Vec<Op> {
        vec![
            Op::Input,
            Op::Dup,
            Op::VecDot,
            Op::Sqrt,
            Op::PushU(8),
            Op::Dup, // 5: loop head, [r, k]
            Op::JumpIfZero(16),
            Op::PushU(1),
            Op::Sub,
            Op::Swap,
            Op::PushF(0.999),
            Op::Mul,
            Op::PushF(0.001),
            Op::Add,
            Op::Swap,
            Op::Jump(5),
            Op::Pop, // 16: [r, 0]
            Op::Return,
        ]
    }

    #[test]
    fn scalar_swaps_are_renames_and_literals_fuse() {
        let c = code(settle_loop(), InputClass::Vec);
        // Eleven source ops per round run as six instructions (7..=13),
        // and neither `swap` leaves a trace.
        assert_eq!(
            c.code,
            vec![
                Ins::Block(3),
                Ins::InputVec(0),
                Ins::DupV(1),
                Ins::VecDot(0),
                Ins::Block(2),
                Ins::Sqrt(0),
                Ins::Const { d: 1, bits: 8 },
                Ins::Block(2),
                Ins::IfZero { c: 1, to: 14 },
                Ins::Block(9),
                Ins::BinUImm {
                    op: Bin::Sub,
                    a: 1,
                    imm: 1
                },
                Ins::BinFImm {
                    op: Bin::Mul,
                    a: 0,
                    imm: 0.999
                },
                Ins::BinFImm {
                    op: Bin::Add,
                    a: 0,
                    imm: 0.001
                },
                Ins::Goto(7),
                Ins::Block(2),
                Ins::RetF(0),
            ]
        );
        let input = Value::F64s((0..40).map(|i| i as f64 * 0.25).collect());
        agree_at_every_limit(settle_loop(), &input);
    }

    #[test]
    fn a_fuel_cut_inside_a_block_traps_before_the_value_fault() {
        // 1 / 0: the block is [push, push, div, return]. Under a limit of
        // 2 fuel runs out at the div, before its divide-by-zero.
        let body = vec![Op::PushU(1), Op::PushU(0), Op::Div, Op::Return];
        agree_at_every_limit(body.clone(), &Value::Unit);
        let p = program(body).with_fuel(2);
        let cert = verify(&p).unwrap();
        let inst = Instance::instantiate(Rc::new(p)).unwrap();
        assert_eq!(
            inst.run_verified(&cert, &Value::Unit),
            Err(Trap::FuelExhausted { limit: 2 })
        );
    }

    #[test]
    fn vector_fuel_is_charged_where_the_checking_path_charges_it() {
        // 100 elements cost 6 extra fuel per vector op.
        let body = vec![
            Op::Input,
            Op::PushF(2.0),
            Op::VecScale,
            Op::Input,
            Op::VecAdd,
            Op::Dup,
            Op::VecDot,
            Op::PushU(70),
            Op::PushF(0.5),
            Op::VecFill,
            Op::VecSum,
            Op::Add,
            Op::Return,
        ];
        let input = Value::F64s((0..100).map(|i| i as f64 - 50.0).collect());
        let need = agree_at_every_limit(body, &input);
        assert_eq!(need, 13 + 3 * (100 / 16) + 2 * (70 / 16));
    }

    #[test]
    fn joins_of_u64_and_f64_widen_into_the_value_bank() {
        let body = vec![
            Op::Input,
            Op::JumpIfZero(4),
            Op::PushU(3),
            Op::Jump(5),    // [u64] widens to [scalar] through a stub
            Op::PushF(0.5), // [f64] widens on the fall-through
            Op::PushU(2),   // 5: [scalar]
            Op::Mul,
            Op::Return,
        ];
        let c = code(body.clone(), InputClass::U64);
        assert!(c.code.contains(&Ins::StoX { d: 0, float: false }));
        assert!(c.code.contains(&Ins::StoX { d: 0, float: true }));
        assert!(c.code.iter().any(|i| matches!(i, Ins::BinX { .. })));
        assert!(c.values > 0);
        agree_at_every_limit(body.clone(), &Value::U64(0));
        agree_at_every_limit(body, &Value::U64(7));
    }

    #[test]
    fn any_typed_inputs_move_through_the_value_bank() {
        // Class `other`: the input is ⊤, but only moved and returned.
        let body = vec![Op::PushF(1.5), Op::Input, Op::Swap, Op::Pop, Op::Return];
        let c = code(body.clone(), InputClass::Other);
        assert!(c.code.iter().any(|i| matches!(i, Ins::InputValue(_))));
        agree_at_every_limit(body.clone(), &Value::Text("kaas".to_string()));
        agree_at_every_limit(body, &Value::Bytes(vec![1, 2, 3]));
    }
}

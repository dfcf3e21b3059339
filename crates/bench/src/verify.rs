//! Verifier benchmark: the checking interpreter vs the certificate's
//! compiled tier on the same programs and inputs. (The report keeps its
//! historical "fast path" labels and `fast_us` field.)
//!
//! Wall-clock time is banned in the deterministic crates (and CI diffs
//! two same-seed runs byte for byte), so the bench models per-invocation
//! cost from the interpreter's own [`RunStats`] counters: every retired
//! instruction costs [`OP_NS`] and every dynamic type/underflow check
//! costs [`CHECK_NS`]. The compiled tier retires the same instruction
//! stream with `checks = 0` — the verifier discharged them at
//! registration — so the modeled speedup isolates exactly the work the
//! certificate removes. Outputs, traps, and fuel are asserted identical
//! on both paths for every invocation, making the sweep a differential
//! check as well as a benchmark.

use kaas_accel::DeviceClass;
use kaas_guest::{verify, FuelBound, GuestProgram, InputClass, Instance, Op, RunStats};
use kaas_kernels::Value;
use kaas_simtime::rng::DetRng;
use std::rc::Rc;

/// Modeled cost of retiring one instruction, nanoseconds.
pub const OP_NS: u64 = 6;
/// Modeled cost of one dynamic type/underflow check, nanoseconds.
pub const CHECK_NS: u64 = 2;

/// One benched program: modeled checking-path vs compiled-tier cost.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyRun {
    /// Program label.
    pub program: &'static str,
    /// The input class every invocation used (all verify `Clean`).
    pub class: &'static str,
    /// The verifier's worst-case fuel verdict, rendered.
    pub fuel_bound: String,
    /// Invocations measured.
    pub invocations: u64,
    /// Instructions retired across all invocations (identical on both
    /// paths).
    pub ops: u64,
    /// Dynamic checks the checking path performed (the compiled
    /// tier's is zero by construction).
    pub checks: u64,
    /// Modeled checking-path cost, microseconds.
    pub checked_us: f64,
    /// Modeled compiled-tier cost, microseconds.
    pub fast_us: f64,
}

impl VerifyRun {
    /// How many times cheaper the compiled tier is.
    pub fn speedup(&self) -> f64 {
        self.checked_us / self.fast_us
    }
}

/// The whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// The input-stream seed.
    pub seed: u64,
    /// One row per benched program.
    pub runs: Vec<VerifyRun>,
}

/// A benched program plus its per-invocation input generator.
struct Case {
    label: &'static str,
    program: GuestProgram,
    input: fn(&mut DetRng) -> Value,
}

fn cases() -> Vec<Case> {
    let prog = |name: &str, fuel: u64, body: Vec<Op>| {
        GuestProgram::new(name, DeviceClass::Cpu)
            .with_fuel(fuel)
            .with_body(body)
    };
    vec![
        // Scalar loop: count the u64 input down to zero.
        Case {
            label: "countdown",
            program: prog(
                "countdown",
                1 << 16,
                vec![
                    Op::Input,
                    Op::Dup,
                    Op::JumpIfZero(6),
                    Op::PushU(1),
                    Op::Sub,
                    Op::Jump(1),
                    Op::Return,
                ],
            ),
            input: |rng| Value::U64(rng.gen_range(16u64..96)),
        },
        // Loop-free float polynomial: x*x + 3x + 1.
        Case {
            label: "poly",
            program: prog(
                "poly",
                1 << 16,
                vec![
                    Op::Input,
                    Op::Dup,
                    Op::Mul,
                    Op::Input,
                    Op::PushF(3.0),
                    Op::Mul,
                    Op::Add,
                    Op::PushF(1.0),
                    Op::Add,
                    Op::Return,
                ],
            ),
            input: |rng| Value::F64(rng.gen_range(-4.0..4.0)),
        },
        // Vector pipeline over the input vector.
        Case {
            label: "pipeline",
            program: prog(
                "pipeline",
                1 << 20,
                vec![
                    Op::Input,
                    Op::PushF(2.5),
                    Op::VecScale,
                    Op::Input,
                    Op::VecAdd,
                    Op::VecSum,
                    Op::Return,
                ],
            ),
            input: |rng| {
                let n = rng.gen_range(8usize..64);
                Value::F64s((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            },
        },
        // Dot product against an init-built table.
        Case {
            label: "table-dot",
            program: GuestProgram::new("table-dot", DeviceClass::Cpu)
                .with_fuel(1 << 20)
                .with_init(
                    1,
                    vec![Op::PushU(32), Op::PushF(0.5), Op::VecFill, Op::SetGlobal(0)],
                )
                .with_body(vec![Op::Global(0), Op::Input, Op::VecDot, Op::Return]),
            input: |rng| Value::F64s((0..32).map(|_| rng.gen_range(-1.0..1.0)).collect()),
        },
        // Branchy scalar control flow over a u64 input.
        Case {
            label: "branchy",
            program: prog(
                "branchy",
                1 << 16,
                vec![
                    Op::Input,         // 0
                    Op::PushU(2),      // 1
                    Op::Rem,           // 2: parity
                    Op::JumpIfZero(7), // 3
                    Op::Input,         // 4: odd: 3n + 1
                    Op::PushU(3),      // 5
                    Op::Jump(9),       // 6
                    Op::Input,         // 7: even: n * 1
                    Op::PushU(1),      // 8
                    Op::Mul,           // 9
                    Op::PushU(1),      // 10
                    Op::Add,           // 11
                    Op::Return,        // 12
                ],
            ),
            input: |rng| Value::U64(rng.gen_range(1u64..1000)),
        },
    ]
}

fn measure(case: &Case, invocations: u64, seed: u64) -> VerifyRun {
    let cert = verify(&case.program).expect("bench programs verify");
    let fuel_bound = match cert.fuel_bound {
        FuelBound::Bounded(n) => format!("bounded({n})"),
        FuelBound::Unbounded { cap } => format!("unbounded(cap {cap})"),
    };
    let inst = Instance::instantiate(Rc::new(case.program.clone())).expect("init succeeds");
    let mut rng = DetRng::seed_from_u64(seed);
    let mut checked = RunStats::default();
    let mut fast = RunStats::default();
    let mut class = None;
    for _ in 0..invocations {
        let input = (case.input)(&mut rng);
        class.get_or_insert_with(|| InputClass::of(&input).name());
        let (v_slow, fuel_slow, s) = inst.run_counted(&input).expect("checking path succeeds");
        let (v_fast, fuel_fast, f, took_fast) = inst
            .run_verified_counted(&cert, &input)
            .expect("fast path succeeds");
        assert!(took_fast, "{}: input class must verify clean", case.label);
        assert_eq!(v_slow, v_fast, "{}: outputs diverge", case.label);
        assert_eq!(fuel_slow, fuel_fast, "{}: fuel diverges", case.label);
        assert!(
            fuel_slow <= cert.fuel_bound.worst_case(),
            "{}: fuel exceeds the static bound",
            case.label
        );
        checked.ops += s.ops;
        checked.checks += s.checks;
        fast.ops += f.ops;
        fast.checks += f.checks;
    }
    assert_eq!(checked.ops, fast.ops, "both paths retire the same stream");
    assert_eq!(fast.checks, 0, "the fast path performs no checks");
    let model = |s: &RunStats| (s.ops * OP_NS + s.checks * CHECK_NS) as f64 / 1e3;
    VerifyRun {
        program: case.label,
        class: class.unwrap_or("other"),
        fuel_bound,
        invocations,
        ops: checked.ops,
        checks: checked.checks,
        checked_us: model(&checked),
        fast_us: model(&fast),
    }
}

/// Runs the sweep. `quick` trims the invocation count for CI.
pub fn run(quick: bool, seed: u64) -> VerifyReport {
    let invocations = if quick { 200 } else { 5_000 };
    let runs = cases()
        .iter()
        .enumerate()
        .map(|(i, case)| measure(case, invocations, seed.wrapping_add(i as u64)))
        .collect();
    VerifyReport { seed, runs }
}

/// Renders the report as a fixed-width table (deterministic — CI diffs
/// two same-seed runs byte for byte).
pub fn to_table(report: &VerifyReport) -> String {
    let mut out = String::new();
    out.push_str("# verify — checking interpreter vs certificate fast path (modeled ns/op)\n");
    out.push_str(&format!(
        "# seed: {} (op = {OP_NS} ns, check = {CHECK_NS} ns)\n",
        report.seed
    ));
    out.push_str("program,class,fuel_bound,invocations,ops,checks,checked_us,fast_us,speedup\n");
    for r in &report.runs {
        out.push_str(&format!(
            "{},{},{},{},{},{},{:.3},{:.3},{:.3}\n",
            r.program,
            r.class,
            r.fuel_bound,
            r.invocations,
            r.ops,
            r.checks,
            r.checked_us,
            r.fast_us,
            r.speedup()
        ));
    }
    out
}

/// Renders the report as a small JSON document for
/// `results/verify.json` (hand-rolled — no JSON dependency).
pub fn to_json(report: &VerifyReport) -> String {
    let rows: Vec<String> = report
        .runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"program\": \"{}\", \"class\": \"{}\", \"fuel_bound\": \"{}\", \
                 \"invocations\": {}, \"ops\": {}, \"checks\": {}, \"checked_us\": {:.3}, \
                 \"fast_us\": {:.3}, \"speedup\": {:.4}}}",
                r.program,
                r.class,
                r.fuel_bound,
                r.invocations,
                r.ops,
                r.checks,
                r.checked_us,
                r.fast_us,
                r.speedup()
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"verify\",\n  \"seed\": {},\n  \"op_ns\": {OP_NS},\n  \
         \"check_ns\": {CHECK_NS},\n  \"runs\": [\n{}\n  ]\n}}\n",
        report.seed,
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_is_measurably_faster_on_every_program() {
        let report = run(true, 7);
        assert_eq!(report.runs.len(), 5);
        for r in &report.runs {
            assert!(r.checks > 0, "{}: no checks to discharge", r.program);
            assert!(
                r.speedup() > 1.1,
                "{}: only {:.3}× faster",
                r.program,
                r.speedup()
            );
        }
    }

    #[test]
    fn loop_free_programs_carry_exact_bounds() {
        let report = run(true, 7);
        let poly = report.runs.iter().find(|r| r.program == "poly").unwrap();
        assert_eq!(poly.fuel_bound, "bounded(10)");
        let countdown = report
            .runs
            .iter()
            .find(|r| r.program == "countdown")
            .unwrap();
        assert!(countdown.fuel_bound.starts_with("unbounded"));
    }

    #[test]
    fn report_rendering_is_deterministic() {
        let a = run(true, 7);
        let b = run(true, 7);
        assert_eq!(to_table(&a), to_table(&b));
        assert_eq!(to_json(&a), to_json(&b));
    }
}

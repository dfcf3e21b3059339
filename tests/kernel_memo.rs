//! Integration: the descriptor-mode memo inside `MatMul`, `SoftDtw` and
//! `ResNet50`. Repeated `execute(U64(n))` calls on one instance return
//! exactly what a fresh instance computes, on both sides of every
//! execution clamp and past the memo's capacity; bad inputs fail on
//! every call; stateful kernels keep drawing fresh samples.

use kaas::kernels::{Kernel, MatMul, MonteCarlo, ResNet50, SoftDtw, Value};

/// A fresh instance of the memoized kernel called `name`.
fn fresh(name: &str) -> Box<dyn Kernel> {
    match name {
        "matmul" => Box::new(MatMul::new()),
        "dtw" => Box::new(SoftDtw::default()),
        "resnet50" => Box::new(ResNet50::new()),
        other => panic!("no memoized kernel {other}"),
    }
}

/// Descriptor sizes per memoized kernel, on both sides of each kernel's
/// execution clamp: MatMul 1 and 128, DTW 2 and 256, ResNet-50 64.
/// Every call at these sizes must succeed; ResNet-50's batch of 0 is an
/// error and is checked in `bad_inputs_fail_on_every_call`.
const SIZES: [(&str, &[u64]); 3] = [
    ("matmul", &[0, 1, 2, 127, 128, 129, 2_000]),
    ("dtw", &[0, 1, 2, 3, 255, 256, 257, 512]),
    ("resnet50", &[1, 8, 63, 64, 65, 2_000]),
];

/// The output's floats as raw bits, so that equality is bit for bit.
fn bits(k: &dyn Kernel, n: u64) -> Vec<u64> {
    match k.execute(&Value::U64(n)) {
        Ok(Value::F64(x)) => vec![x.to_bits()],
        Ok(Value::F64s(xs)) => xs.iter().map(|x| x.to_bits()).collect(),
        other => panic!("{}({n}) returned {other:?}", k.name()),
    }
}

#[test]
fn repeated_calls_equal_a_fresh_computation() {
    for (name, sizes) in SIZES {
        // One instance across all sizes, so clamped sizes share entries.
        let k = fresh(name);
        for &n in sizes {
            let want = bits(fresh(name).as_ref(), n);
            for call in 0..10 {
                assert_eq!(bits(k.as_ref(), n), want, "{name}({n}), call {call}");
            }
        }
    }
}

#[test]
fn bad_inputs_fail_on_every_call() {
    for (name, sizes) in SIZES {
        let k = fresh(name);
        // Warm the memo first: a cached descriptor must not leak into
        // the answer for a malformed input.
        for &n in sizes {
            bits(k.as_ref(), n);
        }
        for call in 0..2 {
            assert!(
                k.execute(&Value::Unit).is_err(),
                "{name}(Unit) must fail on call {call}"
            );
        }
    }
    // ResNet-50's empty batch is an error, before and after its memo
    // holds every other size.
    let k = ResNet50::new();
    assert!(
        k.execute(&Value::U64(0)).is_err(),
        "resnet50(0) on a cold memo"
    );
    for (_, sizes) in SIZES.iter().filter(|(name, _)| *name == "resnet50") {
        for &n in *sizes {
            bits(&k, n);
        }
    }
    for call in 0..2 {
        assert!(
            k.execute(&Value::U64(0)).is_err(),
            "resnet50(0) must fail on call {call}"
        );
    }
}

#[test]
fn stateful_kernels_are_not_memoized() {
    let k = MonteCarlo::default();
    let a = k.execute(&Value::U64(1_000)).unwrap();
    let b = k.execute(&Value::U64(1_000)).unwrap();
    assert_ne!(a, b, "MCI draws fresh samples on every call");
}

#[test]
fn more_distinct_sizes_than_the_memo_holds_stay_correct() {
    // Past the memo's capacity of distinct keys, twice over: sizes past
    // the cap are recomputed on every call and never mixed up with
    // cached ones.
    let k = MatMul::new();
    for round in 0..2 {
        for n in 0..=100 {
            assert_eq!(bits(&k, n), bits(&MatMul::new(), n), "round {round}, n {n}");
        }
    }
}

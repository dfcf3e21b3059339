//! Soft dynamic time warping (the paper's §5.6.1 DTW kernel, implemented
//! as soft-DTW after Cuturi & Blondel 2017).

use kaas_accel::{DeviceClass, WorkUnits};
use kaas_simtime::rng::DetRng;

use crate::kernel::{Kernel, KernelError};
use crate::memo::DescriptorMemo;
use crate::value::Value;

/// The paper batches 200 groups of ten sequences per task.
const BATCHES: u64 = 200;
const SEQS_PER_BATCH: u64 = 10;
/// One lane per sequence of a batch in [`soft_dtw_lanes`].
const LANES: usize = SEQS_PER_BATCH as usize;
/// Longest sequence `execute` computes for real in descriptor mode.
const EXEC_CAP: usize = 256;

/// Numerically stable soft-minimum with smoothing `gamma`.
fn soft_min(a: f64, b: f64, c: f64, gamma: f64) -> f64 {
    if gamma <= 0.0 {
        return a.min(b).min(c);
    }
    let m = a.min(b).min(c);
    // The minimum's own term is exp(-0 / gamma) = 1 exactly, so skipping
    // its `exp` keeps the result bit-identical. A non-finite minimum
    // still takes the `exp` path (inf - inf is NaN there, as before).
    let term = |x: f64| {
        if x == m && m.is_finite() {
            1.0
        } else {
            (-(x - m) / gamma).exp()
        }
    };
    let sum = term(a) + term(b) + term(c);
    m - gamma * sum.ln()
}

/// Computes the soft-DTW discrepancy between two sequences.
///
/// With `gamma == 0` this reduces to classic DTW.
///
/// # Panics
///
/// Panics if either sequence is empty.
pub fn soft_dtw(a: &[f64], b: &[f64], gamma: f64) -> f64 {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "sequences must be non-empty"
    );
    let (n, m) = (a.len(), b.len());
    let inf = f64::INFINITY;
    // One rolling row of the DP table, with a virtual border of +inf.
    let mut prev = vec![inf; m + 1];
    let mut curr = vec![inf; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        curr[0] = inf;
        for j in 1..=m {
            let cost = (a[i - 1] - b[j - 1]).powi(2);
            curr[j] = cost + soft_min(prev[j - 1], prev[j], curr[j - 1], gamma);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

/// Computes [`soft_dtw`] of `a` against [`LANES`] sequences of equal
/// length at once, where `cols[j][k]` is sample `j` of sequence `k`.
///
/// Each lane does exactly the arithmetic `soft_dtw(a, seq_k, gamma)`
/// does, so every result is bit-identical to it. Filling the ten tables
/// in lockstep overlaps their independent `exp`/`ln` chains, where one
/// table alone makes every cell wait on its left neighbour.
fn soft_dtw_lanes(a: &[f64], cols: &[[f64; LANES]], gamma: f64) -> [f64; LANES] {
    assert!(
        !a.is_empty() && !cols.is_empty(),
        "sequences must be non-empty"
    );
    let m = cols.len();
    let inf = [f64::INFINITY; LANES];
    let mut prev = vec![inf; m + 1];
    let mut curr = vec![inf; m + 1];
    prev[0] = [0.0; LANES];
    for &x in a {
        curr[0] = inf;
        let (mut diag, mut left) = (prev[0], inf);
        for (j, b) in cols.iter().enumerate() {
            let up = prev[j + 1];
            for k in 0..LANES {
                let cost = (x - b[k]).powi(2);
                left[k] = cost + soft_min(diag[k], up[k], left[k], gamma);
            }
            curr[j + 1] = left;
            diag = up;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

/// The DTW kernel: 200 batches of ten random sequences of length `N`
/// scored against a per-batch query (2 000 soft-DTW evaluations).
///
/// Input modes:
///
/// * `Value::U64(n)` — descriptor mode (sequence length `n`); `execute`
///   scores one representative batch at `min(n, 256)` and returns the
///   mean discrepancy, memoized per instance by `n` (which also seeds
///   the sequences).
/// * `Value::List([a, b])` of two `F64s` — one real soft-DTW evaluation.
#[derive(Debug, Clone)]
pub struct SoftDtw {
    gamma: f64,
    memo: DescriptorMemo,
}

impl Default for SoftDtw {
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl SoftDtw {
    /// Creates the kernel with smoothing `gamma`.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma >= 0.0, "gamma must be non-negative");
        SoftDtw {
            gamma,
            memo: DescriptorMemo::default(),
        }
    }
}

impl Kernel for SoftDtw {
    fn name(&self) -> &str {
        "dtw"
    }

    fn device_class(&self) -> DeviceClass {
        DeviceClass::Gpu
    }

    fn demand(&self) -> f64 {
        0.2
    }

    fn work(&self, input: &Value) -> Result<WorkUnits, KernelError> {
        match input {
            Value::U64(n) => {
                let n = *n as f64;
                // 9 FLOPs per DP cell (cost + 3 exp-class soft-min ops).
                let flops = BATCHES as f64 * SEQS_PER_BATCH as f64 * n * n * 9.0;
                Ok(WorkUnits::new(flops)
                    // Sequences in, one score per (batch, sequence) out.
                    .with_bytes(
                        BATCHES * SEQS_PER_BATCH * (n as u64) * 8,
                        BATCHES * SEQS_PER_BATCH * 8,
                    )
                    // Wavefront dependences keep GPU efficiency low.
                    .with_efficiency(0.0047))
            }
            Value::List(items) if items.len() == 2 => {
                let a = items[0]
                    .as_f64s()
                    .ok_or_else(|| KernelError::BadInput("dtw expects F64s".into()))?;
                let b = items[1]
                    .as_f64s()
                    .ok_or_else(|| KernelError::BadInput("dtw expects F64s".into()))?;
                Ok(WorkUnits::new((a.len() * b.len()) as f64 * 9.0)
                    .with_bytes(8 * (a.len() + b.len()) as u64, 8)
                    .with_efficiency(0.0047))
            }
            other => Err(KernelError::BadInput(format!(
                "dtw expects U64(n) or List([a, b]), got {other:?}"
            ))),
        }
    }

    fn execute(&self, input: &Value) -> Result<Value, KernelError> {
        match input {
            Value::U64(n) => self.memo.get_or_compute(*n, || {
                let len = (*n as usize).clamp(2, EXEC_CAP);
                let mut rng = DetRng::seed_from_u64(7 ^ *n);
                let query: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
                // Each sequence is drawn whole, one after another, and
                // stored by column for the lanes.
                let mut cols = vec![[0.0; LANES]; len];
                for k in 0..LANES {
                    for col in &mut cols {
                        col[k] = rng.gen_range(-1.0..1.0);
                    }
                }
                let scores = soft_dtw_lanes(&query, &cols, self.gamma);
                let total = scores.iter().fold(0.0, |total, s| total + s);
                Ok(Value::F64(total / SEQS_PER_BATCH as f64))
            }),
            Value::List(items) if items.len() == 2 => {
                let a = items[0]
                    .as_f64s()
                    .ok_or_else(|| KernelError::BadInput("dtw expects F64s".into()))?;
                let b = items[1]
                    .as_f64s()
                    .ok_or_else(|| KernelError::BadInput("dtw expects F64s".into()))?;
                if a.is_empty() || b.is_empty() {
                    return Err(KernelError::BadInput(
                        "dtw sequences must be non-empty".into(),
                    ));
                }
                Ok(Value::F64(soft_dtw(a, b, self.gamma)))
            }
            other => Err(KernelError::BadInput(format!(
                "dtw expects U64(n) or List([a, b]), got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::require_n;

    #[test]
    fn identical_sequences_have_zero_hard_dtw() {
        let a = vec![0.0, 1.0, 2.0, 1.0];
        assert_eq!(soft_dtw(&a, &a, 0.0), 0.0);
    }

    #[test]
    fn hard_dtw_matches_hand_computed() {
        // a=[0,1], b=[0,1,1]: perfect warp, distance 0.
        assert_eq!(soft_dtw(&[0.0, 1.0], &[0.0, 1.0, 1.0], 0.0), 0.0);
        // a=[0], b=[2]: single cell (0-2)² = 4.
        assert_eq!(soft_dtw(&[0.0], &[2.0], 0.0), 4.0);
    }

    #[test]
    fn soft_dtw_lower_bounds_hard_dtw() {
        // soft-min ≤ min, so soft-DTW ≤ DTW for γ > 0.
        let a = vec![0.0, 0.5, 1.3, -0.4, 0.9];
        let b = vec![0.1, 0.4, 1.0, -0.2];
        assert!(soft_dtw(&a, &b, 1.0) <= soft_dtw(&a, &b, 0.0) + 1e-12);
    }

    #[test]
    fn gamma_zero_limit_is_continuous() {
        let a = vec![0.3, 1.1, 0.2];
        let b = vec![0.2, 1.0, 0.4];
        let hard = soft_dtw(&a, &b, 0.0);
        let soft = soft_dtw(&a, &b, 1e-6);
        assert!((hard - soft).abs() < 1e-3);
    }

    #[test]
    fn dtw_is_symmetric() {
        let a = vec![0.0, 1.0, 0.5, 0.2];
        let b = vec![0.3, 0.8, 0.1];
        assert!((soft_dtw(&a, &b, 0.5) - soft_dtw(&b, &a, 0.5)).abs() < 1e-12);
    }

    #[test]
    fn kernel_work_scales_quadratically() {
        let k = SoftDtw::default();
        let w1 = k.work(&Value::U64(100)).unwrap().flops;
        let w2 = k.work(&Value::U64(200)).unwrap().flops;
        assert!((w2 / w1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_executes_both_modes() {
        let k = SoftDtw::default();
        let by_n = k.execute(&Value::U64(64)).unwrap();
        assert!(matches!(by_n, Value::F64(v) if v.is_finite()));
        let pair = Value::List(vec![
            Value::F64s(vec![0.0, 1.0]),
            Value::F64s(vec![0.0, 1.0]),
        ]);
        let direct = k.execute(&pair).unwrap();
        assert!(matches!(direct, Value::F64(v) if v <= 1e-9));
        let _ = require_n("dtw", &Value::U64(1)).unwrap();
    }

    /// The soft-minimum with an `exp` for every term, as first written.
    fn soft_min_reference(a: f64, b: f64, c: f64, gamma: f64) -> f64 {
        if gamma <= 0.0 {
            return a.min(b).min(c);
        }
        let m = a.min(b).min(c);
        let sum = (-(a - m) / gamma).exp() + (-(b - m) / gamma).exp() + (-(c - m) / gamma).exp();
        m - gamma * sum.ln()
    }

    /// [`soft_dtw`] over [`soft_min_reference`].
    fn soft_dtw_reference(a: &[f64], b: &[f64], gamma: f64) -> f64 {
        let m = b.len();
        let mut prev = vec![f64::INFINITY; m + 1];
        let mut curr = vec![f64::INFINITY; m + 1];
        prev[0] = 0.0;
        for &x in a {
            curr[0] = f64::INFINITY;
            for j in 1..=m {
                let cost = (x - b[j - 1]).powi(2);
                curr[j] = cost + soft_min_reference(prev[j - 1], prev[j], curr[j - 1], gamma);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[m]
    }

    const GAMMAS: [f64; 5] = [1e-6, 0.1, 0.5, 1.0, 7.0];

    /// Bit equality, except that any two NaNs match: Rust leaves the sign
    /// and payload of a NaN result unspecified, so they may differ
    /// between two compilations of the same arithmetic.
    fn same(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    #[test]
    fn soft_min_matches_the_reference_bit_for_bit() {
        let xs = [
            0.0,
            -0.0,
            1.0,
            -3.5,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for gamma in GAMMAS {
            for a in xs {
                for b in xs {
                    for c in xs {
                        assert!(
                            same(soft_min(a, b, c, gamma), soft_min_reference(a, b, c, gamma)),
                            "soft_min({a}, {b}, {c}, {gamma})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn soft_dtw_matches_the_reference_bit_for_bit() {
        let mut rng = DetRng::seed_from_u64(0xD7);
        let mut seqs: Vec<Vec<f64>> = vec![
            vec![0.0, f64::INFINITY, 1.0],
            vec![f64::NEG_INFINITY, 0.5, -0.5],
            vec![f64::NAN, 0.2, 0.3],
            vec![0.1, -0.2, f64::INFINITY, f64::NAN, f64::NEG_INFINITY],
        ];
        let specials = seqs.len();
        for len in 1..=200 {
            seqs.push((0..len).map(|_| rng.gen_range(-1.0..1.0)).collect());
        }
        for gamma in GAMMAS {
            // Every length 1–200 against a shorter partner, both ways.
            for (i, a) in seqs[specials..].iter().enumerate() {
                let b = &seqs[specials + (i * 7) % 50];
                for (x, y) in [(a, b), (b, a)] {
                    assert_eq!(
                        soft_dtw(x, y, gamma).to_bits(),
                        soft_dtw_reference(x, y, gamma).to_bits(),
                        "lengths {}×{}, gamma {gamma}",
                        x.len(),
                        y.len()
                    );
                }
            }
            // Infinite and NaN samples against each other and a random one.
            for x in &seqs[..=specials] {
                for y in &seqs[..=specials] {
                    assert!(
                        same(soft_dtw(x, y, gamma), soft_dtw_reference(x, y, gamma)),
                        "{x:?} vs {y:?}, gamma {gamma}"
                    );
                }
            }
        }
    }

    /// `seqs` (equal lengths, one per lane) stored as `soft_dtw_lanes`
    /// reads them.
    fn columns(seqs: &[Vec<f64>; LANES]) -> Vec<[f64; LANES]> {
        (0..seqs[0].len())
            .map(|j| std::array::from_fn(|k| seqs[k][j]))
            .collect()
    }

    /// Asserts that every lane equals `soft_dtw` on its own pair.
    fn assert_lanes_match(a: &[f64], seqs: &[Vec<f64>; LANES], gamma: f64) {
        let lanes = soft_dtw_lanes(a, &columns(seqs), gamma);
        for (k, seq) in seqs.iter().enumerate() {
            assert!(
                same(lanes[k], soft_dtw(a, seq, gamma)),
                "lane {k}: lengths {}×{}, gamma {gamma}",
                a.len(),
                seq.len()
            );
        }
    }

    #[test]
    fn soft_dtw_lanes_match_soft_dtw_bit_for_bit() {
        let mut rng = DetRng::seed_from_u64(0x1A7E);
        let mut draw =
            |len: usize| -> Vec<f64> { (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for gamma in [0.0, 1e-6, 0.1, 1.0, 7.0] {
            // Every length 1–256 against a shorter partner, both ways.
            for len in 1..=256 {
                let short = 1 + len % 5;
                let long: [Vec<f64>; LANES] = std::array::from_fn(|_| draw(len));
                assert_lanes_match(&draw(short), &long, gamma);
                let short_seqs: [Vec<f64>; LANES] = std::array::from_fn(|_| draw(short));
                assert_lanes_match(&draw(len), &short_seqs, gamma);
            }
            // Infinite and NaN samples in some lanes and in the query.
            for (i, &bad) in specials.iter().enumerate() {
                let mut seqs: [Vec<f64>; LANES] = std::array::from_fn(|_| draw(6));
                for (k, seq) in seqs.iter_mut().enumerate().skip(i) {
                    seq[k % 6] = specials[(i + k) % specials.len()];
                }
                let mut query = draw(5);
                assert_lanes_match(&query, &seqs, gamma);
                query[i + 1] = bad;
                assert_lanes_match(&query, &seqs, gamma);
            }
        }
    }

    #[test]
    fn descriptor_outputs_are_pinned() {
        // Bits of each descriptor output as scored one table at a time,
        // before the lanes: lockstep scoring must not move one of them.
        const GOLDEN: [(u64, u64); 8] = [
            (0, 0x3fed4acf1405a2e8),
            (2, 0x3fcc6eaf0c5688b8),
            (3, 0xbfe9ecfc0fdb6b5a),
            (64, 0xc04a11e8417e9b00),
            (255, 0xc06e6b5ddb45f885),
            (256, 0xc06d69147a6bb4c0),
            (257, 0xc06e1ec867ff7bd0),
            (512, 0xc06ddb177d091408),
        ];
        for (n, bits) in GOLDEN {
            match SoftDtw::default().execute(&Value::U64(n)) {
                Ok(Value::F64(x)) => assert_eq!(x.to_bits(), bits, "n = {n}: {x:e}"),
                other => panic!("n = {n}: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_sequence_rejected() {
        let k = SoftDtw::default();
        let pair = Value::List(vec![Value::F64s(vec![]), Value::F64s(vec![1.0])]);
        assert!(k.execute(&pair).is_err());
    }
}

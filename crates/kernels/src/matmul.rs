//! Matrix multiplication (the paper's §5.1 MM kernel).

use kaas_accel::{DeviceClass, WorkUnits};
use kaas_simtime::rng::DetRng;

use crate::kernel::{Kernel, KernelError};
use crate::memo::DescriptorMemo;
use crate::value::Value;

/// Largest dimension `execute` computes for real when given a descriptor
/// input (timing always uses the declared dimension).
const EXEC_CAP: usize = 128;

/// Dense `N×N · N×N` matrix multiplication.
///
/// Two input modes:
///
/// * `Value::U64(n)` — descriptor mode, as in the paper's experiments
///   (the client controls task granularity through `n`). `execute`
///   multiplies a deterministic `min(n, 128)²` instance and returns a
///   checksum, memoized per instance by the clamped size; `work`
///   describes the full `n` cost.
/// * `Value::List([a, b])` of two matrices — computes the real product.
///
/// # Examples
///
/// ```
/// use kaas_kernels::{Kernel, MatMul, Value};
///
/// let k = MatMul::new();
/// let a = Value::matrix(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
/// let b = Value::matrix(vec![5.0, 6.0, 7.0, 8.0], 2, 2);
/// let c = k.execute(&Value::List(vec![a, b])).unwrap();
/// assert_eq!(c, Value::matrix(vec![19.0, 22.0, 43.0, 50.0], 2, 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MatMul {
    memo: DescriptorMemo,
}

impl MatMul {
    /// Creates the kernel.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Multiplies row-major `a (n×m)` by `b (m×p)` with blocked loops.
pub fn matmul(a: &[f64], b: &[f64], n: usize, m: usize, p: usize) -> Vec<f64> {
    assert_eq!(a.len(), n * m, "lhs shape mismatch");
    assert_eq!(b.len(), m * p, "rhs shape mismatch");
    const BLOCK: usize = 32;
    let mut c = vec![0.0; n * p];
    for ii in (0..n).step_by(BLOCK) {
        for kk in (0..m).step_by(BLOCK) {
            for jj in (0..p).step_by(BLOCK) {
                for i in ii..(ii + BLOCK).min(n) {
                    for k in kk..(kk + BLOCK).min(m) {
                        let aik = a[i * m + k];
                        let row = &b[k * p + jj..k * p + (jj + BLOCK).min(p)];
                        let out = &mut c[i * p + jj..i * p + (jj + BLOCK).min(p)];
                        for (cij, bkj) in out.iter_mut().zip(row) {
                            *cij += aik * bkj;
                        }
                    }
                }
            }
        }
    }
    c
}

/// GPU efficiency of an `n×n` product relative to the device's sustained
/// rate: small products underutilize the SMs.
fn mm_efficiency(n: u64) -> f64 {
    (n as f64 / 1024.0).clamp(0.02, 1.0)
}

impl Kernel for MatMul {
    fn name(&self) -> &str {
        "matmul"
    }

    fn device_class(&self) -> DeviceClass {
        DeviceClass::Gpu
    }

    fn work(&self, input: &Value) -> Result<WorkUnits, KernelError> {
        let (n, m, p) = match input {
            Value::U64(n) => (*n, *n, *n),
            Value::List(items) if items.len() == 2 => match (&items[0], &items[1]) {
                (
                    Value::Matrix { rows, cols, .. },
                    Value::Matrix {
                        rows: r2, cols: c2, ..
                    },
                ) if cols == r2 => (*rows as u64, *cols as u64, *c2 as u64),
                other => {
                    return Err(KernelError::BadInput(format!(
                        "matmul expects two compatible matrices, got {other:?}"
                    )))
                }
            },
            other => {
                return Err(KernelError::BadInput(format!(
                    "matmul expects U64(n) or List([a, b]), got {other:?}"
                )))
            }
        };
        Ok(WorkUnits::new(2.0 * n as f64 * m as f64 * p as f64)
            .with_bytes(8 * (n * m + m * p), 8 * n * p)
            .with_efficiency(mm_efficiency(n.max(p)))
            // numba's CPU path still runs a vectorized product at the
            // host's full sustained rate.
            .with_cpu_efficiency(1.0)
            .with_device_mem(8 * (n * m + m * p + n * p)))
    }

    fn execute(&self, input: &Value) -> Result<Value, KernelError> {
        match input {
            Value::U64(n) => {
                let n = (*n as usize).clamp(1, EXEC_CAP);
                self.memo.get_or_compute(n as u64, || {
                    let mut rng = DetRng::seed_from_u64(42 ^ n as u64);
                    let a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let b: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let c = matmul(&a, &b, n, n, n);
                    Ok(Value::F64(c.iter().sum()))
                })
            }
            Value::List(items) if items.len() == 2 => match (&items[0], &items[1]) {
                (
                    Value::Matrix {
                        data: a,
                        rows: n,
                        cols: m,
                    },
                    Value::Matrix {
                        data: b,
                        rows: r2,
                        cols: p,
                    },
                ) if m == r2 => Ok(Value::matrix(matmul(a, b, *n, *m, *p), *n, *p)),
                other => Err(KernelError::BadInput(format!(
                    "matmul expects compatible matrices, got {other:?}"
                ))),
            },
            other => Err(KernelError::BadInput(format!(
                "matmul expects U64(n) or List([a, b]), got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::require_n;

    fn naive(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
        let mut c = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    c[i * n + j] += a[i * n + k] * b[k * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn blocked_matches_naive() {
        let mut rng = DetRng::seed_from_u64(1);
        for n in [1usize, 7, 32, 50, 65] {
            let a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let fast = matmul(&a, &b, n, n, n);
            let slow = naive(&a, &b, n);
            for (f, s) in fast.iter().zip(&slow) {
                assert!((f - s).abs() < 1e-9, "mismatch at n={n}");
            }
        }
    }

    #[test]
    fn rectangular_shapes_work() {
        // (2×3)·(3×1)
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = vec![1.0, 0.0, -1.0];
        let c = matmul(&a, &b, 2, 3, 1);
        assert_eq!(c, vec![-2.0, -2.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0];
        let mut id = vec![0.0; 9];
        for i in 0..3 {
            id[i * 3 + i] = 1.0;
        }
        assert_eq!(matmul(&a, &id, 3, 3, 3), a);
    }

    #[test]
    fn work_profile_counts_flops_and_bytes() {
        let k = MatMul::new();
        let w = k.work(&Value::U64(500)).unwrap();
        assert_eq!(w.flops, 2.0 * 500f64.powi(3));
        assert_eq!(w.bytes_in, 2 * 500 * 500 * 8);
        assert_eq!(w.bytes_out, 500 * 500 * 8);
    }

    #[test]
    fn small_tasks_have_low_efficiency() {
        let k = MatMul::new();
        let small = k.work(&Value::U64(100)).unwrap().efficiency;
        let large = k.work(&Value::U64(10_000)).unwrap().efficiency;
        assert!(small < 0.2);
        assert_eq!(large, 1.0);
    }

    #[test]
    fn descriptor_execution_is_deterministic() {
        let k = MatMul::new();
        let a = k.execute(&Value::U64(64)).unwrap();
        let b = k.execute(&Value::U64(64)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_input_is_rejected() {
        let k = MatMul::new();
        assert!(k.execute(&Value::Unit).is_err());
        assert!(k.work(&Value::Unit).is_err());
        // Incompatible shapes.
        let a = Value::matrix(vec![0.0; 4], 2, 2);
        let b = Value::matrix(vec![0.0; 3], 3, 1);
        assert!(k.execute(&Value::List(vec![a, b])).is_err());
    }

    #[test]
    fn kernel_metadata() {
        let k = MatMul::new();
        assert_eq!(k.name(), "matmul");
        assert_eq!(k.device_class(), DeviceClass::Gpu);
        let _ = require_n("matmul", &Value::U64(1)).unwrap();
    }
}

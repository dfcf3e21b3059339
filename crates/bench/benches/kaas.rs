//! Wall-clock micro-benchmarks of the simulator substrate and the real
//! kernel computations, plus end-to-end figure cores at reduced sizes.
//! These guard the harness's own performance — the *virtual-time*
//! results live in the `fig*` binaries.
//!
//! Uses a small in-tree timing harness (no external benchmark
//! framework) so the workspace builds with no registry access. Run
//! with: `cargo bench -p kaas-bench --features bench-harness`.

use std::rc::Rc;
use std::time::{Duration, Instant}; // audit:allow(ambient): wall-clock micro-bench harness, not simulation code

use kaas_accel::DeviceClass;
use kaas_bench::common::{deploy, experiment_server_config, p100_cluster};
use kaas_core::content_hash;
use kaas_guest::{verify, GuestProgram, Instance, Op};
use kaas_kernels::{matmul, soft_dtw, Kernel, MatMul, MonteCarlo, ResNet50, SoftDtw, Value};
use kaas_quantum::{transpile, Circuit, Hamiltonian};
use kaas_simtime::rng::det_rng;
use kaas_simtime::{sleep, spawn, Simulation};

/// Times `f` over enough iterations to fill ~0.5 s of wall clock and
/// prints mean per-iteration latency.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm-up and calibration.
    let t0 = Instant::now(); // audit:allow(ambient): measures real elapsed time by design
    f();
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let iters = (Duration::from_millis(500).as_nanos() / once.as_nanos()).clamp(1, 100_000) as u32;

    let t0 = Instant::now(); // audit:allow(ambient): measures real elapsed time by design
    for _ in 0..iters {
        f();
    }
    let per_iter = t0.elapsed() / iters;
    println!("{name:<32} {per_iter:>12.2?}/iter  ({iters} iters)");
}

/// Executor throughput: ten thousand spawn+sleep round trips.
fn bench_simtime_executor() {
    bench("simtime/10k_tasks", || {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let mut handles = Vec::with_capacity(10_000);
            for i in 0..10_000u64 {
                handles.push(spawn(async move {
                    sleep(Duration::from_nanos(i % 977)).await;
                }));
            }
            for h in handles {
                h.await;
            }
        });
    });
}

/// Real blocked matrix multiplication, 128³.
fn bench_matmul_compute() {
    let n = 128;
    let a: Vec<f64> = (0..n * n).map(|i| (i % 13) as f64).collect();
    let b_mat: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64).collect();
    bench("kernels/matmul_128", || {
        std::hint::black_box(matmul(&a, &b_mat, n, n, n));
    });
}

/// Real soft-DTW on 256-point sequences.
fn bench_soft_dtw() {
    let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
    let y: Vec<f64> = (0..256).map(|i| (i as f64 * 0.11).cos()).collect();
    bench("kernels/soft_dtw_256", || {
        std::hint::black_box(soft_dtw(&x, &y, 1.0));
    });
}

/// One descriptor-mode DTW batch (ten 256-point tables) on a fresh
/// instance, so every call misses the memo.
fn bench_soft_dtw_descriptor() {
    bench("kernels/soft_dtw_descriptor_512", || {
        std::hint::black_box(SoftDtw::default().execute(&Value::U64(512)).unwrap());
    });
}

/// One descriptor-mode ResNet-50 batch of eight on a fresh instance, so
/// every call misses the memo.
fn bench_resnet50_descriptor() {
    bench("kernels/resnet50_descriptor_8", || {
        std::hint::black_box(ResNet50::new().execute(&Value::U64(8)).unwrap());
    });
}

/// Real state-vector simulation: 200 random CX gates on 12 qubits.
fn bench_statevector() {
    bench("quantum/statevector_12q_200cx", || {
        let mut rng = det_rng(3);
        let qc = Circuit::random_cx(12, 200, &mut rng);
        std::hint::black_box(qc.statevector().norm());
    });
}

/// Transpilation of a mid-size circuit.
fn bench_transpile() {
    let mut rng = det_rng(9);
    let qc = Circuit::random_cx(8, 400, &mut rng);
    bench("quantum/transpile_400gates", || {
        std::hint::black_box(transpile(&qc).1);
    });
}

/// Exact H₂ expectation over a bound ansatz.
fn bench_expectation() {
    let h = Hamiltonian::h2_sto3g();
    let mut qc = Circuit::new(2);
    qc.ry(0.3, 0).ry(-0.8, 1).cx(0, 1).ry(0.5, 0).ry(0.2, 1);
    let psi = qc.statevector();
    bench("quantum/h2_expectation", || {
        std::hint::black_box(h.expectation(&psi));
    });
}

/// End-to-end warm KaaS invocation (whole simulated pipeline).
fn bench_warm_invocation() {
    bench("e2e/warm_invoke_mci", || {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let dep = deploy(
                p100_cluster(),
                vec![Rc::new(MonteCarlo::default()) as Rc<dyn Kernel>],
                experiment_server_config(),
            );
            dep.server.prewarm("mci", 1).await.expect("prewarm");
            let mut client = dep.local_client().await;
            for _ in 0..10 {
                client
                    .call("mci")
                    .arg(Value::U64(10_000))
                    .out_of_band()
                    .send()
                    .await
                    .expect("invocation succeeds");
            }
        });
    });
}

/// The content address of a 900-element float vector: the size of the
/// GA populations the object store hashes on every put.
fn bench_content_hash() {
    let v = Value::F64s((0..900).map(|i| (i as f64 * 0.37).sin()).collect());
    bench("core/content_hash_f64s_900", || {
        std::hint::black_box(content_hash(std::hint::black_box(&v)));
    });
}

/// A verified guest running a 256-round scalar loop on a float vector:
/// `r = sqrt(x·x)`, then `r ← 0.999·r + 0.001` per round. The op shape
/// (`dup`, `jump.ez`, `sub`, `swap`, literal `mul`/`add`) is the one
/// the host-performance benchmark's pipeline guest runs.
fn bench_guest_scalar_loop() {
    const END: u16 = 16;
    let program = GuestProgram::new("settle", DeviceClass::Gpu).with_body(vec![
        Op::Input,
        Op::Dup,
        Op::VecDot,
        Op::Sqrt,
        Op::PushU(256),
        // loop head (pc 5): [r, k]
        Op::Dup,
        Op::JumpIfZero(END),
        Op::PushU(1),
        Op::Sub,
        Op::Swap,
        Op::PushF(0.999),
        Op::Mul,
        Op::PushF(0.001),
        Op::Add,
        Op::Swap,
        Op::Jump(5),
        // END: [r, 0]
        Op::Pop,
        Op::Return,
    ]);
    let cert = verify(&program).expect("the loop verifies");
    let inst = Instance::instantiate(Rc::new(program)).expect("no init to trap");
    let input = Value::F64s((0..90).map(|i| (i as f64 * 0.11).cos()).collect());
    bench("guest/scalar_loop_256", || {
        std::hint::black_box(inst.run_verified(&cert, &input).unwrap());
    });
}

/// Kernel work-profile computation (hot path of every dispatch).
fn bench_work_profile() {
    let mm = MatMul::new();
    bench("kernels/work_profile", || {
        std::hint::black_box(mm.work(&Value::U64(10_000)).unwrap());
    });
}

fn main() {
    bench_simtime_executor();
    bench_matmul_compute();
    bench_soft_dtw();
    bench_soft_dtw_descriptor();
    bench_resnet50_descriptor();
    bench_statevector();
    bench_transpile();
    bench_expectation();
    bench_warm_invocation();
    bench_work_profile();
    bench_content_hash();
    bench_guest_scalar_loop();
}

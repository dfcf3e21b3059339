//! Integration: a chaos-style stress run — heterogeneous kernels,
//! bursty multi-tenant load, autoscaling, idle reaping, and a mid-run
//! runner crash, all in one deployment. Everything must stay correct
//! and deterministic.

use std::time::Duration;

use kaas::accel::{
    Device, DeviceId, FpgaDevice, FpgaProfile, GpuDevice, GpuProfile, QpuDevice, QpuProfile,
};
use kaas::core::{KaasClient, KaasNetwork, KaasServer, KernelRegistry, RunnerConfig, ServerConfig};
use kaas::kernels::{Histogram, MatMul, MonteCarlo, Value, VqeEstimator};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::{sleep, spawn, Simulation};

fn build() -> (KaasServer, KaasNetwork, SharedMemory) {
    let devices: Vec<Device> = vec![
        GpuDevice::new(DeviceId(0), GpuProfile::p100()).into(),
        GpuDevice::new(DeviceId(1), GpuProfile::p100().with_speed_factor(0.9)).into(),
        FpgaDevice::new(DeviceId(2), FpgaProfile::alveo_u250()).into(),
        QpuDevice::new(DeviceId(3), QpuProfile::statevector_simulator()).into(),
    ];
    let registry = KernelRegistry::new();
    registry.register(MatMul::new()).unwrap();
    registry.register(MonteCarlo::default()).unwrap();
    registry.register(Histogram::new()).unwrap();
    registry.register(VqeEstimator::h2(512)).unwrap();
    let shm = SharedMemory::host();
    let config = ServerConfig::default()
        .with_idle_timeout(Duration::from_secs(120))
        .with_tenant_quota(3)
        .with_runner(RunnerConfig {
            max_inflight: 2,
            ..RunnerConfig::default()
        });
    let server = KaasServer::new(devices, registry, shm.clone(), config);
    let net: KaasNetwork = KaasNetwork::new();
    spawn(server.clone().serve(net.listen("kaas").unwrap()));
    (server, net, shm)
}

fn run_chaos() -> (usize, u64, u64) {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net, shm) = build();
        // Three tenants, four kernels, staggered bursts.
        let mut workers = Vec::new();
        for (w, tenant) in ["alpha", "beta", "gamma"].iter().enumerate() {
            let mut client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
                .await
                .unwrap()
                .with_shared_memory(shm.clone())
                .with_tenant(*tenant);
            workers.push(async move {
                let mut ok = 0usize;
                for round in 0..6u64 {
                    let (kernel, input): (&str, Value) = match (round + w as u64) % 4 {
                        0 => ("matmul", Value::U64(512 + 64 * round)),
                        1 => ("mci", Value::U64(10_000)),
                        2 => ("histogram", Value::U64(200_000)),
                        _ => ("vqe-estimator", Value::F64s(vec![0.1 * round as f64; 4])),
                    };
                    if client
                        .call(kernel)
                        .arg(input)
                        .out_of_band()
                        .send()
                        .await
                        .is_ok()
                    {
                        ok += 1;
                    }
                    sleep(Duration::from_millis(350 * (w as u64 + 1))).await;
                }
                ok
            });
        }

        // Chaos: kill the first GPU's matmul runner mid-run.
        let saboteur = {
            let server = server.clone();
            spawn(async move {
                sleep(Duration::from_secs(2)).await;
                server.kill_runner("matmul", DeviceId(0));
            })
        };

        let workers: Vec<_> = workers.into_iter().map(spawn).collect();
        let mut total_ok = 0;
        for worker in workers {
            total_ok += worker.await;
        }
        saboteur.await;
        let reg = server.metrics_registry();
        (
            total_ok,
            reg.counter("invocations"),
            reg.counter("cold_starts"),
        )
    })
}

#[test]
fn chaos_run_completes_every_request() {
    let (ok, recorded, cold) = run_chaos();
    // 3 tenants × 6 rounds, all successful despite the killed runner.
    assert_eq!(ok, 18);
    // Retries may add extra recorded attempts; never fewer than issued.
    assert!(recorded >= 18, "recorded={recorded}");
    // Cold starts: ≥ one per (kernel, device) actually used, plus the
    // respawn after the crash.
    assert!(cold >= 4, "cold={cold}");
}

#[test]
fn chaos_run_is_deterministic() {
    assert_eq!(run_chaos(), run_chaos());
}

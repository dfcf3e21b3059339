//! Integration tests for the §6 future-work extensions: workflow
//! composition, kernel fusion, idle scale-down, and the RDMA-class
//! transport profile.

use std::rc::Rc;
use std::time::Duration;

use kaas::accel::{Device, DeviceId, GpuDevice, GpuProfile};
use kaas::core::{
    fuse, FillFirst, KaasClient, KaasNetwork, KaasServer, KernelRegistry, RoundRobin, Scheduler,
    ServerConfig, Workflow,
};
use kaas::kernels::{GaGeneration, Kernel, MatMul, MonteCarlo, Value, GENERATIONS};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::{now, sleep, spawn, Simulation};

fn gpus(n: u32) -> Vec<Device> {
    (0..n)
        .map(|i| GpuDevice::new(DeviceId(i), GpuProfile::p100()).into())
        .collect()
}

fn boot_with(
    kernels: Vec<Rc<dyn Kernel>>,
    config: ServerConfig,
) -> (KaasServer, KaasNetwork, SharedMemory) {
    let registry = KernelRegistry::new();
    for k in kernels {
        registry.register_rc(k).unwrap();
    }
    let shm = SharedMemory::host();
    let server = KaasServer::new(gpus(2), registry, shm.clone(), config);
    let net: KaasNetwork = KaasNetwork::new();
    spawn(server.clone().serve(net.listen("kaas").unwrap()));
    (server, net, shm)
}

async fn client(net: &KaasNetwork, shm: SharedMemory) -> KaasClient {
    KaasClient::connect(net, "kaas", LinkProfile::loopback())
        .await
        .unwrap()
        .with_shared_memory(shm)
}

#[test]
fn workflows_thread_outputs_through_steps() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (_s, net, shm) = boot_with(
            vec![Rc::new(GaGeneration::seeded(1))],
            ServerConfig::default(),
        );
        let mut c = client(&net, shm).await;
        // Three GA generations registered once, triggered with one
        // request: the server threads outputs device-to-device.
        let wf = Workflow::linear("evolve", ["ga", "ga", "ga"]).unwrap();
        let handle = c.register_workflow(&wf).await.unwrap();
        let sent_before = c.requests_sent();
        let run = c.flow(&handle).input(Value::U64(64)).send().await.unwrap();
        assert_eq!(c.requests_sent() - sent_before, 1, "one trigger round trip");
        assert_eq!(run.report.steps.len(), 3);
        assert_eq!(run.cold_starts(), 1, "only the first step cold-starts");
        assert_eq!(
            run.chained_hits(),
            2,
            "both downstream steps consume device-resident intermediates"
        );
        match &run.output {
            Value::F64s(pop) => assert_eq!(pop.len(), 64 * 100),
            other => panic!("expected a population, got {other:?}"),
        }
        assert!(run.latency > run.kernel_time());
    });
}

#[test]
fn fused_kernels_cut_invocation_and_copy_overhead() {
    // Ten GA generations: ten invocations vs five fused-pair invocations.
    let run = |fused: bool| {
        let mut sim = Simulation::new();
        sim.block_on(async move {
            let kernels: Vec<Rc<dyn Kernel>> = if fused {
                vec![Rc::new(
                    fuse(
                        "ga2",
                        vec![
                            Rc::new(GaGeneration::seeded(1)) as Rc<dyn Kernel>,
                            Rc::new(GaGeneration::seeded(2)),
                        ],
                    )
                    .unwrap(),
                )]
            } else {
                vec![Rc::new(GaGeneration::seeded(1))]
            };
            let (server, net, shm) = boot_with(kernels, ServerConfig::default());
            let name = if fused { "ga2" } else { "ga" };
            server.prewarm(name, 1).await.unwrap();
            let mut c = client(&net, shm).await;
            let t0 = now();
            let mut pop = Value::U64(2048);
            let rounds = if fused { GENERATIONS / 2 } else { GENERATIONS };
            for _ in 0..rounds {
                pop = c
                    .call(name)
                    .arg(pop)
                    .out_of_band()
                    .send()
                    .await
                    .unwrap()
                    .output;
            }
            (now() - t0).as_secs_f64()
        })
    };
    let unfused = run(false);
    let fused = run(true);
    assert!(
        fused < unfused,
        "fusion must save data movement: fused {fused}s !< unfused {unfused}s"
    );
}

#[test]
fn idle_runners_are_reaped_and_cold_start_again() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let config = ServerConfig {
            idle_timeout: Some(Duration::from_secs(30)),
            ..ServerConfig::default()
        };
        let (server, net, shm) = boot_with(vec![Rc::new(MatMul::new())], config);
        let mut c = client(&net, shm).await;
        let first = c
            .call("matmul")
            .arg(Value::U64(128))
            .out_of_band()
            .send()
            .await
            .unwrap();
        assert!(first.report.cold_start);
        // Stay active: short gaps keep the runner warm.
        for _ in 0..3 {
            sleep(Duration::from_secs(10)).await;
            let inv = c
                .call("matmul")
                .arg(Value::U64(128))
                .out_of_band()
                .send()
                .await
                .unwrap();
            assert!(!inv.report.cold_start, "active runner must stay warm");
        }
        assert_eq!(server.snapshot().reaped, 0);
        // Go idle past the timeout: the runner is reaped.
        sleep(Duration::from_secs(40)).await;
        assert_eq!(server.snapshot().reaped, 1);
        let again = c
            .call("matmul")
            .arg(Value::U64(128))
            .out_of_band()
            .send()
            .await
            .unwrap();
        assert!(again.report.cold_start, "post-reap invocation cold-starts");
    });
}

#[test]
fn rdma_transport_cuts_remote_invocation_latency() {
    let run = |profile: LinkProfile| {
        let mut sim = Simulation::new();
        sim.block_on(async move {
            let (server, net, _shm) = boot_with(
                vec![Rc::new(GaGeneration::seeded(1))],
                ServerConfig::default(),
            );
            server.prewarm("ga", 1).await.unwrap();
            let mut c = KaasClient::connect(&net, "kaas", profile).await.unwrap();
            let t0 = now();
            let mut pop = Value::U64(2048);
            for _ in 0..GENERATIONS {
                pop = c.call("ga").arg(pop).send().await.unwrap().output;
            }
            (now() - t0).as_secs_f64()
        })
    };
    let tcp = run(LinkProfile::lan_1gbps());
    let rdma = run(LinkProfile::rdma_100g());
    assert!(
        rdma < tcp - 0.1,
        "RDMA-class fabric should cut remote latency: rdma {rdma}s vs tcp {tcp}s"
    );
}

#[test]
fn scheduler_policies_trade_consolidation_for_balance() {
    // FillFirst packs work onto few runners; RoundRobin spreads it.
    let distinct_runners = |scheduler: Scheduler| {
        let mut sim = Simulation::new();
        sim.block_on(async move {
            let config = ServerConfig::default().with_scheduler(scheduler);
            let (server, net, shm) = boot_with(vec![Rc::new(MatMul::new())], config);
            server.prewarm("matmul", 2).await.unwrap();
            let mut c = client(&net, shm).await;
            let mut runners = std::collections::BTreeSet::new();
            for _ in 0..6 {
                let inv = c
                    .call("matmul")
                    .arg(Value::U64(64))
                    .out_of_band()
                    .send()
                    .await
                    .unwrap();
                runners.insert(inv.report.runner);
            }
            runners.len()
        })
    };
    assert_eq!(distinct_runners(FillFirst), 1);
    assert_eq!(distinct_runners(RoundRobin::default().into()), 2);
}

/// Round-robin keeps one cursor for the whole server: two kernels
/// interleaved on one server share it, so each kernel's picks depend on
/// the other's calls. The picks were recorded before the scheduler
/// became an enum; a per-kernel cursor gives `matmul runner1` third.
#[test]
fn round_robin_shares_one_cursor_across_kernels() {
    let mut sim = Simulation::new();
    let picks = sim.block_on(async move {
        let config = ServerConfig::default().with_scheduler(RoundRobin::default());
        let kernels: Vec<Rc<dyn Kernel>> =
            vec![Rc::new(MatMul::new()), Rc::new(MonteCarlo::default())];
        let (server, net, shm) = boot_with(kernels, config);
        server.prewarm("matmul", 2).await.unwrap();
        server.prewarm("mci", 2).await.unwrap();
        let mut c = client(&net, shm).await;
        let mut picks = Vec::new();
        for kernel in [
            "matmul", "mci", "matmul", "mci", "mci", "matmul", "matmul", "mci", "matmul", "mci",
            "mci", "mci",
        ] {
            let arg = if kernel == "matmul" { 64 } else { 1_000 };
            let inv = c
                .call(kernel)
                .arg(Value::U64(arg))
                .out_of_band()
                .send()
                .await
                .unwrap();
            picks.push(format!("{kernel} {}", inv.report.runner));
        }
        picks
    });
    assert_eq!(
        picks,
        [
            "matmul runner0",
            "mci runner3",
            "matmul runner0",
            "mci runner3",
            "mci runner2",
            "matmul runner1",
            "matmul runner0",
            "mci runner3",
            "matmul runner0",
            "mci runner3",
            "mci runner2",
            "mci runner3",
        ]
    );
}

#[test]
fn tenant_quotas_protect_polite_tenants_from_floods() {
    // A greedy tenant floods the server with long tasks; a polite tenant
    // sends one short task. With a per-tenant quota, the polite tenant's
    // latency stays bounded by one task, not the whole flood.
    let polite_latency = |quota: Option<usize>| {
        let mut sim = Simulation::new();
        sim.block_on(async move {
            let config = ServerConfig::default()
                .with_tenant_quota(quota)
                .with_runner(kaas::core::RunnerConfig {
                    max_inflight: 1,
                    ..kaas::core::RunnerConfig::default()
                })
                .with_autoscale(false);
            let registry = KernelRegistry::new();
            registry.register(MatMul::new()).unwrap();
            let shm = SharedMemory::host();
            let server = KaasServer::new(gpus(1), registry, shm.clone(), config);
            let net: KaasNetwork = KaasNetwork::new();
            spawn(server.clone().serve(net.listen("kaas").unwrap()));
            server.prewarm("matmul", 1).await.unwrap();

            // Greedy tenant: eight large tasks at once.
            for _ in 0..8 {
                let mut greedy = client(&net, shm.clone()).await.with_tenant("greedy");
                spawn(async move {
                    let _ = greedy
                        .call("matmul")
                        .arg(Value::U64(8_000))
                        .out_of_band()
                        .send()
                        .await;
                });
            }
            // Give the flood a moment to arrive first.
            sleep(Duration::from_millis(10)).await;
            let mut polite = client(&net, shm).await.with_tenant("polite");
            let inv = polite
                .call("matmul")
                .arg(Value::U64(256))
                .out_of_band()
                .send()
                .await
                .unwrap();
            inv.latency.as_secs_f64()
        })
    };
    let without = polite_latency(None);
    let with_quota = polite_latency(Some(1));
    assert!(
        with_quota < without / 2.0,
        "quota must shield the polite tenant: with={with_quota}s, without={without}s"
    );
}

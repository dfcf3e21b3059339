//! Autoscaling demo (§5.5): clients arrive every ten seconds; the KaaS
//! server spills work to new task runners on fresh GPUs as existing
//! runners hit their in-flight cap. Prints the Fig. 13 timeline, then
//! contrasts two schedulers on a mixed warm/cold fleet.
//!
//! Run with: `cargo run --example autoscaling`

use kaas::accel::{Device, DeviceId, GpuDevice, GpuProfile};
use kaas::core::{
    KaasClient, KaasNetwork, KaasServer, KernelRegistry, LeastLoaded, RunnerConfig, Scheduler,
    ServerConfig, WarmFirst,
};
use kaas::kernels::{MonteCarlo, Value};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::{spawn, Simulation};

fn main() {
    println!("t(s)  clients  runners  gpu_util(%)  completion(s)");
    for s in kaas_bench::fig13::run_timeline(180, 10) {
        if (s.t as u64).is_multiple_of(10) {
            println!(
                "{:>4}  {:>7}  {:>7}  {:>11.0}  {:>12.2}",
                s.t, s.clients, s.runners, s.gpu_utilization_pct, s.task_completion
            );
        }
    }
    println!(
        "\nEach runner admits four in-flight tasks; client-side turnaround \
         lets fewer runners serve more clients (the paper reaches 32 \
         clients on 7 of 8 GPUs).\n"
    );

    // The scheduler is a placement policy. With a warm runner beside a
    // second one that is still cold-starting, LeastLoaded routes new
    // work to the empty — but cold — slot and eats the cold start,
    // while WarmFirst keeps placing on the warm runner.
    println!("scheduler     cold_starts  mean_latency(ms)");
    for scheduler in [LeastLoaded, WarmFirst] {
        let name = scheduler.name();
        let (cold, mean_ms) = scheduler_burst(scheduler);
        println!("{name:<12}  {cold:>11}  {mean_ms:>16.2}");
    }
    println!("\nWarmFirst trades load balance for warm hits — fewer cold starts.");
}

/// One prewarmed runner plus a second one started but not yet warm,
/// then two clients issuing four invocations each. Returns
/// (cold-started invocations, mean latency).
fn scheduler_burst(scheduler: Scheduler) -> (usize, f64) {
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let registry = KernelRegistry::new();
        registry.register(MonteCarlo::default()).unwrap();
        let gpus: Vec<Device> = (0..2)
            .map(|i| GpuDevice::new(DeviceId(i), GpuProfile::p100()).into())
            .collect();
        let shm = SharedMemory::host();
        let config = ServerConfig::default().with_scheduler(scheduler);
        let server = KaasServer::new(gpus, registry, shm.clone(), config);
        let net: KaasNetwork = KaasNetwork::new();
        spawn(server.clone().serve(net.listen("kaas").unwrap()));
        server.prewarm("mci", 1).await.unwrap();
        // Start a second runner without waiting for it to warm up.
        let mci = server.registry().lookup("mci").unwrap();
        server
            .pool()
            .spawn_runner(&mci, RunnerConfig::default())
            .unwrap();

        let mut handles = Vec::new();
        for _ in 0..2 {
            let net = net.clone();
            let shm = shm.clone();
            handles.push(spawn(async move {
                let mut client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
                    .await
                    .unwrap()
                    .with_shared_memory(shm);
                let mut cold = 0;
                let mut total = std::time::Duration::ZERO;
                for _ in 0..4 {
                    let inv = client
                        .call("mci")
                        .arg(Value::U64(1_000_000))
                        .send()
                        .await
                        .unwrap();
                    cold += usize::from(inv.report.cold_start);
                    total += inv.latency;
                }
                (cold, total)
            }));
        }
        let mut cold = 0;
        let mut total = std::time::Duration::ZERO;
        for h in handles {
            let (c, t) = h.await;
            cold += c;
            total += t;
        }
        (cold, total.as_secs_f64() * 1e3 / 8.0)
    })
}

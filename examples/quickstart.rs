//! Quickstart: boot a KaaS deployment, register a kernel, and watch the
//! cold-start → warm-start transition the paper is built around — with
//! end-to-end tracing of the final invocation.
//!
//! Run with: `cargo run --example quickstart`
//!
//! With the `trace` feature the full span dump also lands in
//! `results/trace_quickstart.json`, loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>:
//! `cargo run --features trace --example quickstart`

use std::rc::Rc;

use kaas::accel::{Device, DeviceId, GpuDevice, GpuProfile};
use kaas::core::{KaasClient, KaasNetwork, KaasServer, KernelRegistry, ServerConfig, SpanSink};
use kaas::kernels::{MatMul, Value};
use kaas::net::{LinkProfile, SerializationProfile, SharedMemory};
use kaas::simtime::{spawn, Simulation};

fn main() {
    let mut sim = Simulation::new();
    let tracer = SpanSink::new();
    let sink = tracer.clone();
    sim.block_on(async move {
        // 1. A shared pool of accelerators: two P100 GPUs.
        let devices: Vec<Device> = (0..2)
            .map(|i| GpuDevice::new(DeviceId(i), GpuProfile::p100()).into())
            .collect();

        // 2. Developers register kernels (Fig. 3 step ①).
        let registry = KernelRegistry::new();
        registry.register(MatMul::new()).expect("fresh registry");

        // 3. The KaaS server wraps and deploys them (steps ② and ④).
        // One shared span sink traces requests across client, server,
        // and runner.
        let shm = SharedMemory::host();
        let config = ServerConfig::default().with_tracer(sink.clone());
        let server = KaasServer::new(devices, registry, shm.clone(), config);
        let net: KaasNetwork = KaasNetwork::new();
        let listener = net.listen("kaas:7000").expect("fresh network");
        spawn(server.clone().serve(listener));

        // 4. Applications invoke kernels over the network (step ③).
        let mut client = KaasClient::connect(&net, "kaas:7000", LinkProfile::loopback())
            .await
            .expect("server is listening")
            .with_shared_memory(shm)
            .with_serialization(SerializationProfile::numpy())
            .with_tracer(sink);

        println!("invoking matmul(500x500) five times:");
        let mut last_latency = std::time::Duration::ZERO;
        for i in 0..5 {
            let input = Value::sized(2 * 8 * 500 * 500, Value::U64(500));
            let inv = client
                .call("matmul")
                .arg(input)
                .out_of_band()
                .send()
                .await
                .expect("invocation succeeds");
            last_latency = inv.latency;
            println!(
                "  #{i}: {:>8.1} ms total | kernel {:>6.2} ms | {} | runner {} on {}",
                inv.latency.as_secs_f64() * 1e3,
                inv.report.kernel_time().as_secs_f64() * 1e3,
                if inv.report.cold_start {
                    "COLD"
                } else {
                    "warm"
                },
                inv.report.runner,
                inv.report.device,
            );
        }

        let metrics = server.metrics_registry();
        println!(
            "\nserver handled {} invocations ({} cold start)",
            metrics.counter("invocations"),
            metrics.counter("cold_starts")
        );
        println!("registry:\n{}", metrics.render());
        let kernel: Rc<dyn kaas::kernels::Kernel> = Rc::new(MatMul::new());
        println!(
            "kernel '{}' targets {} devices",
            kernel.name(),
            kernel.device_class()
        );
        last_latency
    });

    // Where did the last (warm) invocation spend its time? Walk the span
    // tree of the final root recorded by the shared sink.
    let root = tracer
        .roots()
        .into_iter()
        .rfind(|s| s.name == "invoke")
        .expect("traced invocations");
    println!(
        "\nlast invocation breakdown ({:.3} ms end to end):",
        root.duration().as_secs_f64() * 1e3
    );
    let mut stack: Vec<(usize, kaas::core::Span)> = vec![(0, root)];
    while let Some((depth, span)) = stack.pop() {
        println!(
            "  {:indent$}{:<12} {:>9.3} ms  [{}]",
            "",
            span.name,
            span.duration().as_secs_f64() * 1e3,
            span.track,
            indent = depth * 2
        );
        let mut children = tracer.children_of(span.id);
        children.sort_by_key(|s| std::cmp::Reverse((s.start, s.id.0)));
        stack.extend(children.into_iter().map(|c| (depth + 1, c)));
    }

    #[cfg(feature = "trace")]
    {
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write("results/trace_quickstart.json", tracer.to_chrome_json())
            .expect("write trace");
        println!(
            "\nwrote results/trace_quickstart.json ({} spans)",
            tracer.len()
        );
    }
    println!("\nsimulated time elapsed: {}", sim.now());
}

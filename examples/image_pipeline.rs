//! The paper's Fig. 1 motivating workflow as a KaaS application: image
//! preprocessing on the CPU, bitmap conversion on an FPGA, and ML
//! inference on a GPU — three kernels, three device classes, one server.
//!
//! The data flowing between stages is real: a synthetic 4K frame is
//! resized, thresholded, and checksummed end to end.
//!
//! Run with: `cargo run --example image_pipeline`

use std::rc::Rc;

use kaas::accel::{
    CpuDevice, CpuProfile, Device, DeviceId, FpgaDevice, FpgaProfile, GpuDevice, GpuProfile,
};
use kaas::core::{KaasClient, KaasNetwork, KaasServer, KernelRegistry, ServerConfig, Workflow};
use kaas::kernels::{BitmapConversion, Kernel, Preprocess, ResNet50, Value};
use kaas::net::{LinkProfile, SerializationProfile, SharedMemory};
use kaas::simtime::{now, spawn, Simulation};

fn main() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        // A heterogeneous host: CPU + FPGA + GPU (the Fig. 2 testbed).
        let devices: Vec<Device> = vec![
            CpuDevice::new(DeviceId(0), CpuProfile::xeon_e5_2650v3_dual()).into(),
            FpgaDevice::new(DeviceId(1), FpgaProfile::alveo_u250()).into(),
            GpuDevice::new(DeviceId(2), GpuProfile::a100()).into(),
        ];
        let registry = KernelRegistry::new();
        registry.register(Preprocess::new()).expect("register");
        registry
            .register(BitmapConversion::default())
            .expect("register");
        registry.register(ResNet50::new()).expect("register");

        let shm = SharedMemory::host();
        let server = KaasServer::new(devices, registry, shm.clone(), ServerConfig::default());
        let net: KaasNetwork = KaasNetwork::new();
        spawn(server.clone().serve(net.listen("kaas:7000").expect("bind")));
        // Pre-warm the whole workflow (the KaaS fix for Fig. 2's naive
        // accelerator overheads).
        for kernel in ["preprocess", "bitmap", "resnet50"] {
            server.prewarm(kernel, 1).await.expect("prewarm");
        }

        let mut client = KaasClient::connect(&net, "kaas:7000", LinkProfile::loopback())
            .await
            .expect("server listening")
            .with_shared_memory(shm)
            .with_serialization(SerializationProfile::numpy());

        // A synthetic 4K frame.
        let (w, h) = (3840usize, 2160usize);
        let pixels: Vec<u8> = (0..w * h * 3).map(|i| ((i * 31) % 251) as u8).collect();
        let frame = Value::image(pixels, w, h, 3);
        println!(
            "input frame: {w}x{h} RGB ({} MB)",
            frame.wire_bytes() / 1_000_000
        );

        // Stages 1+2 as a registered flow: preprocess (CPU) → bitmap
        // (FPGA) in a single round trip, the resized frame handed
        // device-to-device on the server instead of through the client.
        let wf = Workflow::linear("frame-to-bitmap", ["preprocess", "bitmap"]).expect("non-empty");
        let handle = client.register_workflow(&wf).await.expect("registration");

        let t0 = now();
        let sent = client.requests_sent();
        let run = client
            .flow(&handle)
            .input(frame)
            .out_of_band()
            .send()
            .await
            .expect("flow runs");
        for step in &run.report.steps {
            let report = step.report.as_ref().expect("completed step");
            println!(
                "{:<11} → {:>7.1} ms on {}{}",
                step.kernel,
                report.kernel_time().as_secs_f64() * 1e3,
                report.device,
                if step.chained {
                    " (chained device-resident)"
                } else {
                    ""
                },
            );
        }
        if let Value::Image { pixels, .. } = &run.output {
            let whites = pixels.iter().filter(|&&p| p == 1).count();
            println!(
                "bitmap out  → {} of {} pixels white (flow latency {:.1} ms, {} round trip)",
                whites,
                pixels.len(),
                run.latency.as_secs_f64() * 1e3,
                client.requests_sent() - sent,
            );
        }

        // Stage 3: GPU inference on the processed batch.
        let inf = client
            .call("resnet50")
            .arg(Value::U64(8))
            .out_of_band()
            .send()
            .await
            .expect("inference");
        println!(
            "inference   → {:>7.1} ms on {} (kernel {:.2} ms)",
            inf.latency.as_secs_f64() * 1e3,
            inf.report.device,
            inf.report.kernel_exec.as_secs_f64() * 1e3,
        );

        let total = (now() - t0).as_secs_f64();
        println!("\nworkflow total: {total:.3} s (warm KaaS)");
        println!(
            "paper context: the same workflow with naive accelerator use \
             spends >95% of its time initializing runtimes (Fig. 2)"
        );
        let resnet: Rc<dyn Kernel> = Rc::new(ResNet50::new());
        let work = resnet.work(&Value::U64(8)).expect("valid");
        println!(
            "resnet50 batch profile: {:.1} GFLOPs, {:.1} MB in",
            work.flops / 1e9,
            work.bytes_in as f64 / 1e6
        );
    });
}

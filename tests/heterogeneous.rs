//! Integration: one KaaS deployment spanning every device class the
//! paper targets (CPU, GPU, FPGA, TPU, QPU), serving five kernels.

use kaas::accel::{
    CpuDevice, CpuProfile, Device, DeviceId, FpgaDevice, FpgaProfile, GpuDevice, GpuProfile,
    QpuDevice, QpuProfile, TpuDevice, TpuProfile,
};
use kaas::core::{KaasClient, KaasNetwork, KaasServer, KernelRegistry, ServerConfig};
use kaas::kernels::{Conv2d, Histogram, MatMul, Preprocess, Value, VqeEstimator};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::{spawn, Simulation};

fn heterogeneous_devices() -> Vec<Device> {
    vec![
        CpuDevice::new(DeviceId(0), CpuProfile::xeon_e5_2698v4_dual()).into(),
        GpuDevice::new(DeviceId(1), GpuProfile::p100()).into(),
        FpgaDevice::new(DeviceId(2), FpgaProfile::alveo_u250()).into(),
        TpuDevice::new(DeviceId(3), TpuProfile::v3_8()).into(),
        QpuDevice::new(DeviceId(4), QpuProfile::qasm_simulator()).into(),
    ]
}

async fn connect(net: &KaasNetwork, shm: SharedMemory) -> KaasClient {
    KaasClient::connect(net, "kaas", LinkProfile::loopback())
        .await
        .expect("server listening")
        .with_shared_memory(shm)
}

#[test]
fn one_server_serves_all_five_device_classes() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let registry = KernelRegistry::new();
        registry.register(Preprocess::new()).unwrap(); // CPU
        registry.register(MatMul::new()).unwrap(); // GPU
        registry.register(Histogram::new()).unwrap(); // FPGA
        registry.register(Conv2d::new()).unwrap(); // TPU
        registry.register(VqeEstimator::h2(1024)).unwrap(); // QPU
        let shm = SharedMemory::host();
        let server = KaasServer::new(
            heterogeneous_devices(),
            registry,
            shm.clone(),
            ServerConfig::default(),
        );
        let net: KaasNetwork = KaasNetwork::new();
        spawn(server.clone().serve(net.listen("kaas").unwrap()));

        let mut client = connect(&net, shm).await;
        // (kernel, input, expected device id)
        let calls: Vec<(&str, Value, u32)> = vec![
            ("preprocess", Value::U64(512 * 512), 0),
            ("matmul", Value::U64(256), 1),
            ("histogram", Value::U64(100_000), 2),
            ("conv2d", Value::U64(512), 3),
            ("vqe-estimator", Value::F64s(vec![0.1; 4]), 4),
        ];
        for (kernel, input, device) in calls {
            let inv = client
                .call(kernel)
                .arg(input)
                .out_of_band()
                .send()
                .await
                .unwrap_or_else(|e| panic!("{kernel} failed: {e}"));
            assert_eq!(
                inv.report.device,
                kaas::accel::DeviceId(device),
                "{kernel} landed on the wrong device class"
            );
            assert!(inv.report.cold_start, "{kernel}: first call should be cold");
        }
        let reg = server.metrics_registry();
        assert_eq!(reg.counter("invocations"), 5);
        assert_eq!(reg.counter("cold_starts"), 5);
        // Each kernel now has a warm runner.
        for kernel in [
            "preprocess",
            "matmul",
            "histogram",
            "conv2d",
            "vqe-estimator",
        ] {
            assert_eq!(server.snapshot().runners(kernel), 1);
        }
    });
}

#[test]
fn warm_runners_are_reused_across_clients() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let registry = KernelRegistry::new();
        registry.register(MatMul::new()).unwrap();
        let shm = SharedMemory::host();
        let server = KaasServer::new(
            heterogeneous_devices(),
            registry,
            shm.clone(),
            ServerConfig::default(),
        );
        let net: KaasNetwork = KaasNetwork::new();
        spawn(server.clone().serve(net.listen("kaas").unwrap()));

        let mut c1 = connect(&net, shm.clone()).await;
        let mut c2 = connect(&net, shm).await;
        let a = c1
            .call("matmul")
            .arg(Value::U64(128))
            .out_of_band()
            .send()
            .await
            .unwrap();
        let b = c2
            .call("matmul")
            .arg(Value::U64(128))
            .out_of_band()
            .send()
            .await
            .unwrap();
        assert!(a.report.cold_start);
        assert!(!b.report.cold_start, "second client must hit the warm copy");
        assert_eq!(a.report.runner, b.report.runner);
        assert_eq!(a.output, b.output, "deterministic kernel output");
    });
}

#[test]
fn kernels_are_transparently_polyglot() {
    // §3.4: a workflow mixes kernels for different hardware without the
    // client knowing which device serves it — verify by driving a
    // CPU→FPGA chain with real data.
    let mut sim = Simulation::new();
    sim.block_on(async {
        let registry = KernelRegistry::new();
        registry.register(Preprocess::new()).unwrap();
        registry
            .register(kaas::kernels::BitmapConversion::default())
            .unwrap();
        let shm = SharedMemory::host();
        let server = KaasServer::new(
            heterogeneous_devices(),
            registry,
            shm.clone(),
            ServerConfig::default(),
        );
        let net: KaasNetwork = KaasNetwork::new();
        spawn(server.clone().serve(net.listen("kaas").unwrap()));
        let mut client = connect(&net, shm).await;

        let frame = Value::image(vec![200u8; 64 * 64 * 3], 64, 64, 3);
        let resized = client
            .call("preprocess")
            .arg(frame)
            .out_of_band()
            .send()
            .await
            .unwrap()
            .output;
        match &resized {
            Value::Image { width, height, .. } => assert_eq!((*width, *height), (224, 224)),
            other => panic!("expected an image, got {other:?}"),
        }
        let bitmap = client
            .call("bitmap")
            .arg(resized)
            .out_of_band()
            .send()
            .await
            .unwrap()
            .output;
        match bitmap {
            Value::Image {
                pixels, channels, ..
            } => {
                assert_eq!(channels, 1);
                // A uniformly bright frame thresholds to all white.
                assert!(pixels.iter().all(|&p| p == 1));
            }
            other => panic!("expected a bitmap, got {other:?}"),
        }
    });
}

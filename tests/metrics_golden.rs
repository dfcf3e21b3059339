//! Integration: the server's full metric render is pinned byte for byte.
//!
//! One seeded scenario walks every emission family the server feeds —
//! an MCI batch (per-kernel counters and stage histograms, batch-frame
//! counters), data-plane put/seal plus cache misses that evict, an
//! unknown-kernel error, sheds under a `queue_cap` of 1, a guest
//! register + call (fuel billing, predicted fuel, cold-start path), and
//! a registered flow run — then compares
//! [`MetricsRegistry::render`](kaas::core::MetricsRegistry::render)
//! against `tests/golden/metrics_render.txt`.
//!
//! The golden file is the contract that how a name is emitted (string
//! lookup or pre-resolved handle) changes nothing observable: the same
//! names, created at the same moments, with the same values. The file
//! was captured from the string-keyed registry before emission sites
//! moved to handles; an intended change to what the server emits
//! updates it in the same commit, with the diff explained.

use kaas::accel::{Device, DeviceClass, DeviceId, GpuDevice, GpuProfile};
use kaas::core::{
    BatchCall, BreakerConfig, DispatchMode, InvokeError, KaasClient, KaasNetwork, KaasServer,
    KernelRegistry, ServerConfig, ShardConfig, Workflow,
};
use kaas::guest::{GuestProgram, Op};
use kaas::kernels::{GaGeneration, MatMul, MonteCarlo, Value};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::{spawn, Simulation};

const GOLDEN: &str = "tests/golden/metrics_render.txt";

/// A GPU whose 16 KiB of memory holds two 6 kB operands but not three,
/// so the third sealed operand forces an eviction.
fn tiny_gpu(id: u32) -> Device {
    GpuDevice::new(
        DeviceId(id),
        GpuProfile {
            mem_bytes: 16 * 1024,
            ..GpuProfile::p100()
        },
    )
    .into()
}

fn scenario() -> String {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let registry = KernelRegistry::new();
        registry.register(MonteCarlo::default()).unwrap();
        registry.register(MatMul::new()).unwrap();
        registry.register(GaGeneration::default()).unwrap();
        let shm = SharedMemory::host();
        let shard = ShardConfig {
            shards: 1,
            queue_cap: Some(1),
            seed: 11,
            ..ShardConfig::default()
        };
        let config = ServerConfig::default()
            .with_dispatch(DispatchMode::Sharded(shard))
            .with_breaker(BreakerConfig::default());
        let server = KaasServer::new(vec![tiny_gpu(0)], registry, shm.clone(), config);
        let net: KaasNetwork = KaasNetwork::new();
        spawn(server.clone().serve(net.listen("kaas").unwrap()));
        let mut client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);

        // MCI batch: members arrive together against a depth-1 queue,
        // so the first is served and the rest are shed as overloaded.
        let mut batch = client.batch();
        for n in [1_000u64, 2_000, 3_000, 4_000] {
            batch = batch.call(BatchCall::new("mci").arg(Value::U64(n)));
        }
        let results = batch.send().await.unwrap();
        assert!(results[0].is_ok());
        assert!(results
            .iter()
            .any(|r| matches!(r, Err(InvokeError::Overloaded { .. }))));
        // One call at a time is never shed.
        client
            .call("mci")
            .arg(Value::U64(5_000))
            .send()
            .await
            .unwrap();

        // Data plane: three sealed operands through a device that holds
        // two of them — the third admit evicts the least recently used.
        for n in [16u64, 24, 32] {
            let r = client
                .put(Value::sized(6_000, Value::U64(n)))
                .await
                .unwrap();
            client.seal(r).await.unwrap();
            client.call("matmul").arg_ref(r).send().await.unwrap();
        }

        // Unknown kernel.
        let err = client.call("no-such-kernel").send().await.unwrap_err();
        assert_eq!(err, InvokeError::UnknownKernel("no-such-kernel".into()));

        // Guest kernel: register, then call it twice (cold, then warm).
        let program = GuestProgram::new("adder", DeviceClass::Gpu).with_body(vec![
            Op::Input,
            Op::PushU(3),
            Op::Add,
            Op::Return,
        ]);
        client.register_kernel("acme", &program).await.unwrap();
        for x in [1u64, 2] {
            client
                .call("acme/adder")
                .arg(Value::U64(x))
                .send()
                .await
                .unwrap();
        }

        // A registered two-step flow.
        let wf = Workflow::linear("evolve", vec!["ga"; 2]).unwrap();
        let handle = client.register_workflow(&wf).await.unwrap();
        client
            .flow(&handle)
            .input(Value::U64(8))
            .send()
            .await
            .unwrap();

        let m = server.metrics_registry();
        assert!(m.counter("dataplane.evictions") > 0, "scenario must evict");
        assert!(m.counter("dispatch.ejected") > 0, "scenario must shed");
        assert!(m.counter("guest.invocations") > 0);
        assert_eq!(m.counter("workflow.runs"), 1);
        m.render()
    })
}

#[test]
fn render_matches_golden() {
    let text = scenario();
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    assert_eq!(text, golden, "metric render drifted from {GOLDEN}");
}

#[test]
fn render_is_reproducible() {
    assert_eq!(scenario(), scenario());
}

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
//! A second scenario covers the fault and recovery names the first one
//! never writes — injected faults, server retries and evictions,
//! degraded placement, adaptive admission, client timeouts, retries and
//! retry budgets, guest removal and a failed flow — and renders the server
//! and client registries of each sub-scenario under `# <scenario>`
//! headers into `tests/golden/metrics_render_faults.txt`.
//!
//! The golden files are the contract that how a name is emitted changes
//! nothing observable: the same names, created at the same moments,
//! with the same values. `metrics_render.txt` was captured from the
//! string-keyed registry before emission sites moved to handles, and
//! `metrics_render_faults.txt` before the last string emitters went; an
//! intended change to what the server emits updates them in the same
//! commit, with the diff explained.

use std::rc::Rc;
use std::time::Duration;

use kaas::accel::{CpuDevice, CpuProfile, Device, DeviceClass, DeviceId, GpuDevice, GpuProfile};
use kaas::core::{
    AimdConfig, BatchCall, BreakerConfig, ClientRetryConfig, DispatchMode, FallbackConfig, Fault,
    FaultInjector, FaultPlan, InvokeError, KaasClient, KaasNetwork, KaasServer, KernelRegistry,
    RetryBudget, RetryBudgetConfig, ServerConfig, ShardConfig, Workflow,
};
use kaas::guest::{GuestProgram, Op};
use kaas::kernels::{GaGeneration, MatMul, MonteCarlo, SoftDtw, Value};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::{spawn, Simulation};

const GOLDEN: &str = "tests/golden/metrics_render.txt";
const FAULTS_GOLDEN: &str = "tests/golden/metrics_render_faults.txt";

/// Names the first scenario never writes; the second must render each
/// (`faults.runner-crash` stands for `faults.{kind}`).
const FAULT_NAMES: [&str; 9] = [
    "faults.injected",
    "faults.runner-crash",
    "retries.attempted",
    "retries.budget_exhausted",
    "degraded.served",
    "evictions",
    "admission.limit",
    "guest.removed",
    "workflow.failures",
];

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

/// A server of `devices` serving `kernels`, listening as `kaas`, and one
/// client connected to it.
async fn boot(
    devices: Vec<Device>,
    kernels: KernelRegistry,
    config: ServerConfig,
) -> (KaasServer, KaasClient) {
    let server = KaasServer::new(devices, kernels, SharedMemory::host(), config);
    let net: KaasNetwork = KaasNetwork::new();
    spawn(server.clone().serve(net.listen("kaas").unwrap()));
    let client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
        .await
        .unwrap();
    (server, client)
}

/// Appends the server and client renders of `scenario` to `out`.
fn render_into(out: &mut String, scenario: &str, server: &KaasServer, client: &KaasClient) {
    out.push_str(&format!("# {scenario}: server\n"));
    out.push_str(&server.metrics_registry().render());
    out.push_str(&format!("# {scenario}: client\n"));
    out.push_str(&client.metrics_registry().render());
}

async fn mci(client: &mut KaasClient) {
    client
        .call("mci")
        .arg(Value::U64(5_000))
        .send()
        .await
        .unwrap();
}

fn faults_scenario() -> String {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let mut out = String::new();

        // Faults: a GPU with a CPU fallback under adaptive admission.
        let registry = KernelRegistry::new();
        registry.register(MonteCarlo::default()).unwrap();
        let devices: Vec<Device> = vec![
            GpuDevice::new(DeviceId(0), GpuProfile::p100()).into(),
            CpuDevice::new(DeviceId(1), CpuProfile::xeon_e5_2698v4_dual()).into(),
        ];
        let config = ServerConfig::default()
            .with_fallback(FallbackConfig::gpu_to_cpu())
            .with_adaptive_admission(AimdConfig::default());
        let (server, mut client) = boot(devices, registry, config).await;
        mci(&mut client).await;
        // A crashed runner: the next call fails on it, the slot is
        // evicted and the server retries onto a fresh runner.
        let crash = FaultPlan::new(0).push(
            Duration::ZERO,
            Fault::RunnerCrash {
                kernel: "mci".into(),
            },
        );
        FaultInjector::new(&server, crash).run().await;
        mci(&mut client).await;
        // A dropped request frame: the call times out and its retry
        // answers.
        let drop = FaultPlan::new(0).push(Duration::ZERO, Fault::LinkDrop { frames: 1 });
        FaultInjector::new(&server, drop)
            .with_link(client.link_fault())
            .run()
            .await;
        let mut client = client.with_retry(ClientRetryConfig::new(2));
        client
            .call("mci")
            .arg(Value::U64(5_000))
            .timeout(Duration::from_millis(1))
            .send()
            .await
            .unwrap();
        // The only GPU goes offline: served anyway, degraded to the CPU.
        let outage = FaultPlan::new(0).push(
            Duration::ZERO,
            Fault::DeviceOffline {
                device: DeviceId(0),
                down_for: Duration::from_secs(2),
            },
        );
        FaultInjector::new(&server, outage).run().await;
        let degraded = client
            .call("mci")
            .arg(Value::U64(5_000))
            .send()
            .await
            .unwrap();
        assert!(degraded.report.degraded);
        render_into(&mut out, "faults", &server, &client);

        // Lifecycle: a guest kernel registered then removed, and a flow
        // whose second step rejects its input.
        let registry = KernelRegistry::new();
        registry.register(GaGeneration::seeded(1)).unwrap();
        registry.register(SoftDtw::default()).unwrap();
        let devices = vec![GpuDevice::new(DeviceId(0), GpuProfile::p100()).into()];
        let (server, mut client) = boot(devices, registry, ServerConfig::default()).await;
        let program = GuestProgram::new("adder", DeviceClass::Gpu).with_body(vec![
            Op::Input,
            Op::PushU(1),
            Op::Add,
            Op::Return,
        ]);
        client.register_kernel("acme", &program).await.unwrap();
        assert_eq!(client.remove_kernel("acme/adder").await.unwrap(), 1);
        let wf = Workflow::linear("doomed", ["ga", "dtw"]).unwrap();
        let handle = client.register_workflow(&wf).await.unwrap();
        let err = client
            .flow(&handle)
            .input(Value::U64(8))
            .send()
            .await
            .unwrap_err();
        assert!(matches!(err.error, InvokeError::BadInput(_)));
        render_into(&mut out, "lifecycle", &server, &client);

        // Overload: a server that sheds everything, and a client whose
        // retry budget runs dry after two retries.
        let registry = KernelRegistry::new();
        registry.register(MonteCarlo::default()).unwrap();
        let devices = vec![GpuDevice::new(DeviceId(0), GpuProfile::p100()).into()];
        let config = ServerConfig::default().with_adaptive_admission(AimdConfig {
            min_limit: 0,
            max_limit: 0,
            initial_limit: 0,
            ..AimdConfig::default()
        });
        let (server, client) = boot(devices, registry, config).await;
        let budget = Rc::new(RetryBudget::new(
            RetryBudgetConfig::default()
                .with_ratio_pct(10)
                .with_burst(2),
        ));
        let mut client = client.with_retry(ClientRetryConfig::new(8).with_budget(budget));
        let err = client
            .call("mci")
            .arg(Value::U64(5_000))
            .send()
            .await
            .unwrap_err();
        assert!(matches!(err, InvokeError::Overloaded { .. }));
        render_into(&mut out, "overload", &server, &client);
        out
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

#[test]
fn faults_render_covers_every_fault_name() {
    let text = faults_scenario();
    for name in FAULT_NAMES {
        assert!(
            text.lines().any(|l| l
                .strip_prefix(name)
                .is_some_and(|rest| rest.starts_with([' ', '{']))),
            "`{name}` missing from the faults render:\n{text}"
        );
    }
}

#[test]
fn faults_render_matches_golden() {
    let text = faults_scenario();
    let golden = std::fs::read_to_string(FAULTS_GOLDEN).expect("golden file present");
    assert_eq!(text, golden, "metric render drifted from {FAULTS_GOLDEN}");
}

#[test]
fn faults_render_is_reproducible() {
    assert_eq!(faults_scenario(), faults_scenario());
}

//! Integration: end-to-end invocation tracing, the metrics registry,
//! and the builder-style invoke API.

use std::rc::Rc;
use std::time::Duration;

use kaas::accel::{Device, DeviceId, GpuDevice, GpuProfile};
use kaas::core::{
    percentile, InvokeError, KaasClient, KaasNetwork, KaasServer, KernelRegistry, ServerConfig,
    Span, SpanSink, Workflow,
};
use kaas::kernels::{Kernel, MatMul, MonteCarlo, Value};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::{spawn, Simulation};

fn gpus(n: u32) -> Vec<Device> {
    (0..n)
        .map(|i| GpuDevice::new(DeviceId(i), GpuProfile::p100()).into())
        .collect()
}

fn boot_traced(
    kernels: Vec<Rc<dyn Kernel>>,
    tracer: SpanSink,
) -> (KaasServer, KaasNetwork, SharedMemory) {
    let registry = KernelRegistry::new();
    for k in kernels {
        registry.register_rc(k).unwrap();
    }
    let shm = SharedMemory::host();
    let config = ServerConfig::default().with_tracer(tracer);
    let server = KaasServer::new(gpus(2), registry, shm.clone(), config);
    let net: KaasNetwork = KaasNetwork::new();
    spawn(server.clone().serve(net.listen("kaas").unwrap()));
    (server, net, shm)
}

async fn traced_client(net: &KaasNetwork, shm: SharedMemory, tracer: SpanSink) -> KaasClient {
    KaasClient::connect(net, "kaas", LinkProfile::loopback())
        .await
        .unwrap()
        .with_shared_memory(shm)
        .with_tracer(tracer)
}

/// Asserts that `root`'s direct client-side children are exactly
/// `names`, in order, and tile it: contiguous, no gaps, no overlap.
fn assert_children_tile(tracer: &SpanSink, root: &Span, names: &[&str]) {
    let mut children: Vec<Span> = tracer
        .children_of(root.id)
        .into_iter()
        .filter(|s| s.track == root.track)
        .collect();
    children.sort_by_key(|s| s.start);
    let got: Vec<&str> = children.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(got, names, "client children of `{}`", root.name);
    assert_eq!(children.first().unwrap().start, root.start);
    assert_eq!(children.last().unwrap().end, root.end);
    for pair in children.windows(2) {
        assert_eq!(pair[0].end, pair[1].start, "children must not overlap");
    }
    let sum: Duration = children.iter().map(Span::duration).sum();
    assert_eq!(sum, root.duration(), "child durations sum to the root");
}

/// The most recently recorded root span called `name`.
fn last_root(tracer: &SpanSink, name: &str) -> Span {
    tracer
        .roots()
        .into_iter()
        .rev()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no `{name}` root span"))
}

/// The acceptance criterion: the root `invoke` span's direct client-side
/// children tile it exactly, so their durations sum to the
/// client-observed latency. Flow triggers record the same tree under a
/// `flow` root.
#[test]
fn span_durations_tile_client_latency() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (_s, net, shm) = boot_traced(vec![Rc::new(MatMul::new())], tracer.clone());
        let mut client = traced_client(&net, shm, tracer.clone()).await;
        let inv = client
            .call("matmul")
            .arg(Value::U64(256))
            .out_of_band()
            .send()
            .await
            .unwrap();

        let roots: Vec<Span> = tracer
            .roots()
            .into_iter()
            .filter(|s| s.name == "invoke")
            .collect();
        assert_eq!(roots.len(), 1, "one traced invocation, one root span");
        let root = &roots[0];
        assert_eq!(root.duration(), inv.latency, "root span IS the latency");
        assert_children_tile(&tracer, root, &["shm_put", "roundtrip", "shm_take"]);

        // Flow triggers: in-band, out-of-band, and ref-returning.
        let wf = Workflow::linear("square", ["matmul"]).unwrap();
        let handle = client.register_workflow(&wf).await.unwrap();
        let id = handle.id().to_string();
        let run = client
            .flow(&handle)
            .input(Value::U64(64))
            .send()
            .await
            .unwrap();
        let root = last_root(&tracer, "flow");
        assert_eq!(root.duration(), run.latency, "flow root IS the latency");
        let arg = |root: &Span, key: &str| {
            root.args
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(arg(&root, "flow"), Some(id.clone()));
        assert_eq!(arg(&root, "name").as_deref(), Some("square"));
        assert_children_tile(&tracer, &root, &["serialize", "roundtrip", "deserialize"]);

        let run = client
            .flow(&handle)
            .input(Value::U64(64))
            .out_of_band()
            .send()
            .await
            .unwrap();
        let root = last_root(&tracer, "flow");
        assert_eq!(root.duration(), run.latency);
        assert_eq!(arg(&root, "flow"), Some(id.clone()));
        assert_children_tile(&tracer, &root, &["shm_put", "roundtrip", "shm_take"]);

        // A ref input rides in the frame and a ref reply comes back as
        // is: nothing to serialize either way.
        let r = client.put(Value::U64(64)).await.unwrap();
        client.flow(&handle).input_ref(r).send_ref().await.unwrap();
        let root = last_root(&tracer, "flow");
        assert_eq!(arg(&root, "flow"), Some(id));
        assert_children_tile(&tracer, &root, &["roundtrip"]);
    });
}

/// Every span the client records hangs under a recorded parent, on
/// every exit. Here the reply comes back through a shared-memory region
/// the client is not attached to, so the call fails with `BadHandle`
/// after its `roundtrip` child finished; the `invoke` root must still be
/// recorded.
#[test]
fn failed_calls_record_their_root_span() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (_s, net, shm) = boot_traced(vec![Rc::new(MatMul::new())], tracer.clone());
        let mut plain = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);
        let r = plain.put(Value::U64(64)).await.unwrap();

        let mut client = traced_client(&net, SharedMemory::host(), tracer.clone()).await;
        let err = client
            .call("matmul")
            .arg_ref(r)
            .out_of_band()
            .send()
            .await
            .unwrap_err();
        assert_eq!(err, InvokeError::BadHandle);

        let spans = tracer.spans();
        let track = format!("client{}", client.id());
        assert!(spans
            .iter()
            .any(|s| s.track == track && s.name == "roundtrip"));
        for s in &spans {
            if let Some(parent) = s.parent {
                assert!(
                    spans.iter().any(|p| p.id == parent),
                    "`{}` on {} has an unrecorded parent",
                    s.name,
                    s.track
                );
            }
        }
        assert_eq!(last_root(&tracer, "invoke").track, track);
    });
}

/// Every server- and device-side hop appears in the trace, parented
/// under the client's `roundtrip` span; cold starts get their own root
/// span on the runner's track.
#[test]
fn server_and_device_hops_nest_under_roundtrip() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (_s, net, shm) = boot_traced(vec![Rc::new(MonteCarlo::default())], tracer.clone());
        let mut client = traced_client(&net, shm, tracer.clone()).await;
        client
            .call("mci")
            .arg(Value::U64(10_000))
            .send()
            .await
            .unwrap();

        let spans = tracer.spans();
        let rt = spans
            .iter()
            .find(|s| s.name == "roundtrip")
            .expect("roundtrip span");
        let under_rt: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(rt.id)).collect();
        for hop in [
            "admission",
            "dispatch",
            "deserialize",
            "queue_wait",
            "copy_in",
            "kernel_exec",
            "copy_out",
            "reply",
        ] {
            assert!(
                under_rt.iter().any(|s| s.name == hop),
                "missing {hop} under roundtrip"
            );
        }
        // Device phases live on the runner's track, not the server's.
        let exec = under_rt.iter().find(|s| s.name == "kernel_exec").unwrap();
        assert!(exec.track.starts_with("runner"), "track: {}", exec.track);
        // The cold start is a root on the same runner track.
        let cold = spans
            .iter()
            .find(|s| s.name == "cold_start")
            .expect("cold-start span");
        assert_eq!(cold.parent, None);
        assert_eq!(cold.track, exec.track);
    });
}

fn traced_run_chrome_json() -> String {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (_s, net, shm) = boot_traced(
            vec![Rc::new(MatMul::new()), Rc::new(MonteCarlo::default())],
            tracer.clone(),
        );
        let mut client = traced_client(&net, shm, tracer.clone()).await;
        for n in [128u64, 256, 512] {
            client
                .call("matmul")
                .arg(Value::U64(n))
                .out_of_band()
                .send()
                .await
                .unwrap();
        }
        client
            .call("mci")
            .arg(Value::U64(50_000))
            .send()
            .await
            .unwrap();
        tracer.to_chrome_json()
    })
}

#[test]
fn identical_runs_export_byte_identical_chrome_json() {
    let a = traced_run_chrome_json();
    let b = traced_run_chrome_json();
    assert!(a.trim_start().starts_with('['), "bare event-array format");
    assert!(a.contains("\"ph\":\"X\""));
    assert!(a.contains("\"invoke\""));
    assert_eq!(a, b, "tracing must be deterministic");
}

/// The registry's histogram summaries agree with the exact numbers in
/// the reports the client received: means match, quantiles land within
/// one log-bucket (±10 %) of the exact percentile.
#[test]
fn registry_quantiles_agree_with_invocation_reports() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let registry = KernelRegistry::new();
        registry.register(MatMul::new()).unwrap();
        let shm = SharedMemory::host();
        let server = KaasServer::new(gpus(2), registry, shm.clone(), ServerConfig::default());
        let net: KaasNetwork = KaasNetwork::new();
        spawn(server.clone().serve(net.listen("kaas").unwrap()));
        let mut client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);
        let mut exact = Vec::new();
        for i in 0..20u64 {
            let inv = client
                .call("matmul")
                .arg(Value::U64(64 + 32 * i))
                .out_of_band()
                .send()
                .await
                .unwrap();
            exact.push(inv.report.server_latency().as_secs_f64());
        }

        let reg = server.metrics_registry();
        assert_eq!(reg.counter("invocations"), 20);
        assert_eq!(reg.counter("invocations.matmul"), 20);
        assert_eq!(reg.counter("cold_starts"), 1);
        let summary = reg.summary("latency.server").expect("recorded");
        assert_eq!(summary.count, exact.len() as u64);
        let exact_mean = exact.iter().sum::<f64>() / exact.len() as f64;
        assert!((summary.mean - exact_mean).abs() / exact_mean < 1e-9);
        // The log-bucketed histogram resolves quantiles to nearest rank
        // within one bucket (8 buckets per octave → ≲ ±5 % at the
        // geometric midpoint); compare against the same-rank exact value.
        let mut sorted = exact.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (q, got) in [(0.50, summary.p50), (0.99, summary.p99)] {
            let rank = (q * (sorted.len() - 1) as f64).round() as usize;
            let want = sorted[rank];
            assert!(
                (got - want).abs() / want < 0.10,
                "p{}: histogram {got} vs exact {want}",
                (q * 100.0) as u32
            );
        }
        // The interpolating percentile helper stays in the same league.
        let p50_exact = percentile(&exact, 0.50);
        assert!((summary.p50 - p50_exact).abs() / p50_exact < 0.15);
    });
}

#[test]
fn expired_deadlines_shed_before_placement() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (server, net, shm) = boot_traced(vec![Rc::new(MatMul::new())], tracer);
        let mut client = KaasClient::connect(&net, "kaas", LinkProfile::lan_1gbps())
            .await
            .unwrap()
            .with_shared_memory(shm);
        // A zero deadline has always expired by the time the request
        // crosses the network and reaches dispatch.
        let err = client
            .call("matmul")
            .arg(Value::U64(64))
            .deadline(Duration::ZERO)
            .send()
            .await
            .unwrap_err();
        assert_eq!(err, InvokeError::DeadlineExceeded);
        assert_eq!(
            server
                .metrics_registry()
                .counter("errors.deadline-exceeded"),
            1
        );
        // A generous deadline sails through.
        let ok = client
            .call("matmul")
            .arg(Value::U64(64))
            .deadline(Duration::from_secs(60))
            .send()
            .await;
        assert!(ok.is_ok());
    });
}

#[test]
fn snapshot_captures_fleet_state_in_one_call() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let registry = KernelRegistry::new();
        registry.register(MatMul::new()).unwrap();
        registry.register(MonteCarlo::default()).unwrap();
        let shm = SharedMemory::host();
        let server = KaasServer::new(gpus(2), registry, shm.clone(), ServerConfig::default());
        let net: KaasNetwork = KaasNetwork::new();
        spawn(server.clone().serve(net.listen("kaas").unwrap()));
        let mut client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);
        client
            .call("matmul")
            .arg(Value::U64(128))
            .out_of_band()
            .send()
            .await
            .unwrap();
        client
            .call("mci")
            .arg(Value::U64(10_000))
            .send()
            .await
            .unwrap();

        let snap = server.snapshot();
        assert_eq!(snap.runners("matmul"), 1);
        assert_eq!(snap.runners("mci"), 1);
        assert_eq!(snap.total_runners(), 2);
        assert_eq!(snap.in_flight("matmul"), 0);
        assert_eq!(snap.total_in_flight(), 0);
        assert_eq!(snap.reaped, 0);
        assert_eq!(snap.kernels.len(), 2);
        assert!(!snap.device_classes.is_empty());
    });
}

/// The deprecated `invoke`/`invoke_oob` shims are gone (removed after
/// PR 2 migrated every call site): the builder covers both transfer
/// modes with identical results.
#[test]
fn builder_covers_in_band_and_out_of_band() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let registry = KernelRegistry::new();
        registry.register(MatMul::new()).unwrap();
        let shm = SharedMemory::host();
        let server = KaasServer::new(gpus(1), registry, shm.clone(), ServerConfig::default());
        let net: KaasNetwork = KaasNetwork::new();
        spawn(server.clone().serve(net.listen("kaas").unwrap()));
        let mut client = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);
        let a = client
            .call("matmul")
            .arg(Value::U64(100))
            .send()
            .await
            .unwrap();
        let b = client
            .call("matmul")
            .arg(Value::U64(100))
            .out_of_band()
            .send()
            .await
            .unwrap();
        assert_eq!(a.output, b.output);
        let snap = server.snapshot();
        assert_eq!(snap.runners("matmul"), 1);
        assert_eq!(snap.in_flight("matmul"), 0);
    });
}

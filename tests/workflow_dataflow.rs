//! Integration tests for the server-side dataflow engine: registered
//! workflow DAGs triggered with one request, step outputs chained
//! device-to-device as object refs, dispatcher retries under runner
//! faults, and deterministic replay.

use std::rc::Rc;
use std::time::Duration;

use kaas::accel::{
    CpuDevice, CpuProfile, Device, DeviceId, FpgaDevice, FpgaProfile, GpuDevice, GpuProfile,
};
use kaas::core::{
    InvokeError, KaasClient, KaasNetwork, KaasServer, KernelRegistry, ObjectRef, ServerConfig,
    SpanSink, Workflow,
};
use kaas::kernels::{BitmapConversion, GaGeneration, Kernel, Preprocess, SoftDtw, Value};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::Simulation;
use kaas::simtime::{sleep, spawn};

fn gpus(n: u32) -> Vec<Device> {
    (0..n)
        .map(|i| GpuDevice::new(DeviceId(i), GpuProfile::p100()).into())
        .collect()
}

fn boot_at(
    net: &KaasNetwork,
    addr: &str,
    kernels: Vec<Rc<dyn Kernel>>,
    config: ServerConfig,
) -> (KaasServer, SharedMemory) {
    let registry = KernelRegistry::new();
    for k in kernels {
        registry.register_rc(k).unwrap();
    }
    let shm = SharedMemory::host();
    let server = KaasServer::new(gpus(2), registry, shm.clone(), config);
    spawn(server.clone().serve(net.listen(addr).unwrap()));
    (server, shm)
}

fn boot_with(
    kernels: Vec<Rc<dyn Kernel>>,
    config: ServerConfig,
) -> (KaasServer, KaasNetwork, SharedMemory) {
    let net: KaasNetwork = KaasNetwork::new();
    let (server, shm) = boot_at(&net, "kaas", kernels, config);
    (server, net, shm)
}

fn ga_dtw() -> Vec<Rc<dyn Kernel>> {
    vec![
        Rc::new(GaGeneration::seeded(1)),
        Rc::new(SoftDtw::default()),
    ]
}

/// The diamond: one source fanning out to two branches whose outputs
/// join in a fan-in step.
fn diamond() -> Workflow {
    let mut b = Workflow::builder("diamond");
    let src = b.step("ga");
    let left = b.then("ga", src);
    let right = b.then("ga", src.inline());
    b.join("dtw", [left.into(), right.into()]);
    b.build().unwrap()
}

#[test]
fn dag_fan_out_fan_in_matches_client_driven_baseline() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        // Two identically-seeded servers: the GA kernel is stateful
        // (its RNG advances per invocation), so the baseline must not
        // perturb the server the flow runs on.
        let net: KaasNetwork = KaasNetwork::new();
        let (_s1, shm1) = boot_at(&net, "kaas:base", ga_dtw(), ServerConfig::default());
        let (_s2, shm) = boot_at(&net, "kaas:flow", ga_dtw(), ServerConfig::default());

        // Client-driven baseline: four round trips, every intermediate
        // hauled through the client.
        let mut base = KaasClient::connect(&net, "kaas:base", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm1);
        let sent0 = base.requests_sent();
        let pop = base
            .call("ga")
            .arg(Value::U64(16))
            .send()
            .await
            .unwrap()
            .output;
        let left = base
            .call("ga")
            .arg(pop.clone())
            .send()
            .await
            .unwrap()
            .output;
        let right = base.call("ga").arg(pop).send().await.unwrap().output;
        let expected = base
            .call("dtw")
            .arg(Value::List(vec![left, right]))
            .send()
            .await
            .unwrap()
            .output;
        assert_eq!(
            base.requests_sent() - sent0,
            4,
            "baseline pays 4 round trips"
        );

        // Registered flow: one registration, one trigger. The server
        // walks the DAG and returns only the sink's output.
        let mut c = KaasClient::connect(&net, "kaas:flow", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);
        let sent1 = c.requests_sent();
        let handle = c.register_workflow(&diamond()).await.unwrap();
        let sent2 = c.requests_sent();
        let run = c.flow(&handle).input(Value::U64(16)).send().await.unwrap();
        assert_eq!(
            c.requests_sent() - sent2,
            1,
            "the trigger is one round trip"
        );
        assert_eq!(
            c.requests_sent() - sent1,
            2,
            "register + trigger is the whole conversation"
        );
        assert_eq!(run.report.steps.len(), 4);
        assert_eq!(run.report.name, "diamond");
        assert!(
            run.report.steps.iter().all(|s| s.error.is_none()),
            "every step completed"
        );
        assert_eq!(
            run.output, expected,
            "the DAG must compute exactly what the client-driven chain does"
        );
    });
}

#[test]
fn chained_steps_skip_the_host_copy_entirely() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let sink = SpanSink::new();
        let (server, net, _shm) = boot_with(
            vec![Rc::new(GaGeneration::seeded(1))],
            ServerConfig::default().with_tracer(sink.clone()),
        );
        server.prewarm("ga", 1).await.unwrap();

        // A *remote* client: only the trigger and the final population
        // cross the 1 Gbps link; intermediates never leave the device.
        let mut c = KaasClient::connect(&net, "kaas", LinkProfile::lan_1gbps())
            .await
            .unwrap();
        let wf = Workflow::linear("evolve", vec!["ga"; 4]).unwrap();
        let handle = c.register_workflow(&wf).await.unwrap();
        let sent = c.requests_sent();
        let run = c.flow(&handle).input(Value::U64(64)).send().await.unwrap();

        assert_eq!(
            c.requests_sent() - sent,
            1,
            "an N-step pipeline is one round trip"
        );
        assert_eq!(run.chained_hits(), 3, "every downstream step chains");
        for step in &run.report.steps[1..] {
            assert!(step.chained);
            assert_eq!(
                step.report.as_ref().unwrap().copy_in,
                Duration::ZERO,
                "a chained step must not pay a host→device copy"
            );
        }
        // The trace agrees: the runner tracks carry one `copy_in` span
        // per step, and only the first has width.
        let copies: Vec<_> = sink
            .spans()
            .into_iter()
            .filter(|s| s.name == "copy_in")
            .collect();
        assert_eq!(copies.len(), 4);
        let zero_width = copies.iter().filter(|s| s.duration() == Duration::ZERO);
        assert_eq!(
            zero_width.count(),
            3,
            "three chained steps, three zero-width copies"
        );
        assert!(
            sink.spans().iter().any(|s| s.name == "workflow"),
            "the flow itself is a traced span"
        );
        assert!(
            server.metrics_registry().counter("dataplane.hits") >= 3,
            "chained inputs are served from device residency"
        );
        assert_eq!(server.metrics_registry().counter("workflow.runs"), 1);
        assert_eq!(
            server.metrics_registry().counter("workflow.chained_hits"),
            3
        );
    });
}

#[test]
fn flow_retries_steps_through_a_runner_fault_storm() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        // Each step is one dispatcher request: its default
        // `RetryConfig` is the only retry policy a step gets.
        let (server, net, shm) = boot_with(
            vec![Rc::new(GaGeneration::seeded(1))],
            ServerConfig::default(),
        );
        let mut c = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);

        // Warm a runner, then kill it: the flow's first step lands on
        // the corpse and must be retried by the dispatcher.
        let first = c.call("ga").arg(Value::U64(64)).send().await.unwrap();
        assert!(server.kill_runner("ga", first.report.device));

        let mut b = Workflow::builder("storm");
        let mut prev = b.step("ga");
        for _ in 1..8 {
            prev = b.then("ga", prev);
        }
        let wf = b.build().unwrap();
        let handle = c.register_workflow(&wf).await.unwrap();

        // Keep the storm going mid-flow: two more kills while steps run.
        let storm_server = server.clone();
        spawn(async move {
            for _ in 0..2 {
                sleep(Duration::from_millis(400)).await;
                storm_server.kill_runner("ga", DeviceId(0));
                storm_server.kill_runner("ga", DeviceId(1));
            }
        });

        let run = c.flow(&handle).input(Value::U64(64)).send().await.unwrap();
        assert_eq!(run.report.steps.len(), 8);
        assert!(
            run.report.steps.iter().all(|s| s.error.is_none()),
            "the flow rides out the storm"
        );
        let retried = server.metrics_registry().counter("retries.attempted");
        assert!(retried > 0, "at least one step must have been retried");
        match &run.output {
            Value::F64s(pop) => assert_eq!(pop.len(), 64 * 100),
            other => panic!("expected a population, got {other:?}"),
        }
    });
}

#[test]
fn failed_step_aborts_the_flow_with_partial_results() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net, shm) = boot_with(ga_dtw(), ServerConfig::default());
        let mut c = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);

        // "dtw" rejects a bare population — the second step fails with a
        // non-transient error and the flow aborts, reporting how far it
        // got.
        let wf = Workflow::linear("doomed", ["ga", "dtw"]).unwrap();
        let handle = c.register_workflow(&wf).await.unwrap();
        let err = c
            .flow(&handle)
            .input(Value::U64(8))
            .send()
            .await
            .unwrap_err();
        assert!(
            matches!(err.error, InvokeError::BadInput(_)),
            "the step's own error surfaces: {:?}",
            err.error
        );
        assert_eq!(err.partial.len(), 2, "both steps are accounted for");
        assert!(err.partial[0].error.is_none(), "step 0 completed");
        assert!(err.partial[0].report.is_some());
        assert!(err.partial[1].error.is_some(), "step 1 carries the failure");
        assert!(err.partial[1].report.is_none());
        assert_eq!(server.metrics_registry().counter("workflow.failures"), 1);
        assert_eq!(
            server
                .metrics_registry()
                .gauge("workflow.intermediates_live"),
            Some(0.0),
            "an aborted flow must release every intermediate pin"
        );
    });
}

#[test]
fn trigger_with_an_unknown_input_ref_fails_before_staging() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net, shm) = boot_with(ga_dtw(), ServerConfig::default());
        let mut c = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);
        let wf = Workflow::linear("orphan", ["ga", "ga"]).unwrap();
        let handle = c.register_workflow(&wf).await.unwrap();

        // A content address the store never saw.
        let never_put = ObjectRef {
            hash: 0xdead_beef,
            bytes: 64,
        };
        let err = c
            .flow(&handle)
            .input_ref(never_put)
            .send()
            .await
            .unwrap_err();
        assert_eq!(err.error, InvokeError::BadHandle);
        assert!(err.partial.is_empty(), "no step ran: {:?}", err.partial);
        let reg = server.metrics_registry();
        assert_eq!(reg.gauge("workflow.active"), Some(0.0));
        assert_eq!(reg.counter("workflow.failures"), 1);
        assert_eq!(
            reg.gauge("workflow.intermediates_live").unwrap_or(0.0),
            0.0,
            "the early exit pins nothing"
        );
    });
}

/// A trigger input is a plain value, even one shaped like the tagged
/// `["kaas.ref", hash, bytes]` list refs once travelled as: the source
/// step receives the list and rejects it exactly as a direct call does.
/// Neither a made-up address nor a stored object's is dereferenced. A
/// real ref, passed with `input_ref`, still chains.
#[test]
fn ref_shaped_trigger_values_stay_plain_values() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net, shm) = boot_with(ga_dtw(), ServerConfig::default());
        let mut c = KaasClient::connect(&net, "kaas", LinkProfile::loopback())
            .await
            .unwrap()
            .with_shared_memory(shm);
        let wf = Workflow::linear("ga-once", ["ga"]).unwrap();
        let handle = c.register_workflow(&wf).await.unwrap();
        let stored = c.put(Value::U64(8)).await.unwrap();
        let ref_shaped = |hash: u64, bytes: u64| {
            Value::List(vec![
                Value::Text("kaas.ref".into()),
                Value::U64(hash),
                Value::U64(bytes),
            ])
        };

        for input in [ref_shaped(1, 2), ref_shaped(stored.hash, stored.bytes)] {
            let direct = c.call("ga").arg(input.clone()).send().await.unwrap_err();
            assert!(matches!(direct, InvokeError::BadInput(_)), "{direct:?}");
            let err = c.flow(&handle).input(input).send().await.unwrap_err();
            assert_eq!(err.error, direct, "the step sees what a direct call sees");
            assert_eq!(err.partial.len(), 1);
            assert_eq!(err.partial[0].error.as_ref(), Some(&direct));
        }
        assert_eq!(server.metrics_registry().counter("workflow.failures"), 2);

        let run = c.flow(&handle).input_ref(stored).send().await.unwrap();
        match &run.output {
            Value::F64s(pop) => assert_eq!(pop.len(), 8 * 100),
            other => panic!("expected a population, got {other:?}"),
        }
    });
}

#[test]
fn a_ref_handed_between_servers_chains_two_flows() {
    // Flow A leaves its output server-resident; the value is fetched
    // once, stored and sealed on a second server, and flow B there
    // consumes it by ref. The chain must compute exactly what one
    // A→B flow on a single server does.
    let mut sim = Simulation::new();
    sim.block_on(async {
        let net: KaasNetwork = KaasNetwork::new();
        let cpu =
            || -> Device { CpuDevice::new(DeviceId(0), CpuProfile::xeon_e5_2650v3_dual()).into() };
        let fpga = || -> Device { FpgaDevice::new(DeviceId(1), FpgaProfile::alveo_u250()).into() };
        let boot = |addr: &str, devices: Vec<Device>, kernels: Vec<Rc<dyn Kernel>>| {
            let registry = KernelRegistry::new();
            for k in kernels {
                registry.register_rc(k).unwrap();
            }
            let server = KaasServer::new(
                devices,
                registry,
                SharedMemory::host(),
                ServerConfig::default(),
            );
            spawn(server.serve(net.listen(addr).unwrap()));
        };
        boot("edge", vec![cpu()], vec![Rc::new(Preprocess::new())]);
        boot(
            "dc",
            vec![fpga()],
            vec![Rc::new(BitmapConversion::default())],
        );
        boot(
            "whole",
            vec![cpu(), fpga()],
            vec![
                Rc::new(Preprocess::new()),
                Rc::new(BitmapConversion::default()),
            ],
        );
        let connect =
            |addr: &'static str| KaasClient::connect(&net, addr, LinkProfile::lan_1gbps());
        let frame: Vec<u8> = (0..96 * 96 * 3).map(|i| (i * 7 % 251) as u8).collect();
        let frame = Value::image(frame, 96, 96, 3);

        let mut whole = connect("whole").await.unwrap();
        let both = Workflow::linear("a-then-b", ["preprocess", "bitmap"]).unwrap();
        let handle = whole.register_workflow(&both).await.unwrap();
        let expected = whole
            .flow(&handle)
            .input(frame.clone())
            .send()
            .await
            .unwrap();

        let mut edge = connect("edge").await.unwrap();
        let a = Workflow::linear("a", ["preprocess"]).unwrap();
        let a = edge.register_workflow(&a).await.unwrap();
        let (r, report) = edge.flow(&a).input(frame).send_ref().await.unwrap();
        assert_eq!(report.steps.len(), 1);
        let value = edge.get(r).await.unwrap();

        let mut dc = connect("dc").await.unwrap();
        let shipped = dc.put(value).await.unwrap();
        dc.seal(shipped).await.unwrap();
        let b = Workflow::linear("b", ["bitmap"]).unwrap();
        let b = dc.register_workflow(&b).await.unwrap();
        let run = dc.flow(&b).input_ref(shipped).send().await.unwrap();

        assert_eq!(run.output, expected.output);
        assert!(matches!(&run.output, Value::Image { channels: 1, .. }));
    });
}

#[test]
fn same_seed_replay_is_byte_identical() {
    // The whole dataflow engine lives inside the deterministic
    // simulation: two fresh runs of the same scenario must agree on
    // every output byte, every latency, and every per-step report.
    let episode = || {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let (_s, net, shm) = boot_with(ga_dtw(), ServerConfig::default());
            let mut c = KaasClient::connect(&net, "kaas", LinkProfile::lan_1gbps())
                .await
                .unwrap()
                .with_shared_memory(shm);
            let handle = c.register_workflow(&diamond()).await.unwrap();
            let run = c.flow(&handle).input(Value::U64(16)).send().await.unwrap();
            let steps: Vec<String> = run
                .report
                .steps
                .iter()
                .map(|s| {
                    format!(
                        "{}:{}:{}:{:?}",
                        s.step,
                        s.kernel,
                        s.chained,
                        s.report
                            .as_ref()
                            .map(|r| (r.device, r.copy_in, r.kernel_exec)),
                    )
                })
                .collect();
            format!("{:?} {:?} {}", run.output, run.latency, steps.join("|"))
        })
    };
    assert_eq!(episode(), episode(), "same seed, same bytes");
}

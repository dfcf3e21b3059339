//! Integration: failure injection and error paths across the stack.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

use kaas::accel::{Device, DeviceClass, DeviceId, GpuDevice, GpuProfile};
use kaas::core::{
    AimdConfig, BatchCall, BreakerConfig, DataRef, Invocation, InvokeError, KaasClient,
    KaasNetwork, KaasServer, KernelRegistry, Request, RequestFrame, Response, ResponseFrame,
    RetryConfig, ServerConfig, Target, Workflow, WorkflowHandle,
};
use kaas::guest::{GuestProgram, Op};
use kaas::kernels::{Kernel, MatMul, MonteCarlo, Value};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::{now, sleep, spawn, timeout, Simulation};

fn gpus(n: u32) -> Vec<Device> {
    (0..n)
        .map(|i| GpuDevice::new(DeviceId(i), GpuProfile::p100()).into())
        .collect()
}

fn boot_with(
    devices: Vec<Device>,
    kernels: Vec<Rc<dyn Kernel>>,
    config: ServerConfig,
) -> (KaasServer, KaasNetwork, SharedMemory) {
    let registry = KernelRegistry::new();
    for k in kernels {
        registry.register_rc(k).unwrap();
    }
    let shm = SharedMemory::host();
    let server = KaasServer::new(devices, registry, shm.clone(), config);
    let net: KaasNetwork = KaasNetwork::new();
    spawn(server.clone().serve(net.listen("kaas").unwrap()));
    (server, net, shm)
}

fn boot(
    devices: Vec<Device>,
    kernels: Vec<Rc<dyn Kernel>>,
) -> (KaasServer, KaasNetwork, SharedMemory) {
    boot_with(devices, kernels, ServerConfig::default())
}

/// A server config that admits at most `cap` requests at once: the
/// admission limiter's one-value band.
fn fixed_cap(cap: usize) -> ServerConfig {
    ServerConfig::default().with_adaptive_admission(AimdConfig {
        min_limit: cap,
        max_limit: cap,
        initial_limit: cap,
        ..AimdConfig::default()
    })
}

async fn connect(net: &KaasNetwork, shm: SharedMemory) -> KaasClient {
    KaasClient::connect(net, "kaas", LinkProfile::loopback())
        .await
        .expect("listening")
        .with_shared_memory(shm)
}

/// Sends `req` as its own frame over a fresh connection, the way no
/// client call would, and returns the server's reply.
async fn send_raw(net: &KaasNetwork, req: Request) -> Response {
    let mut conn = net
        .connect("kaas", LinkProfile::loopback())
        .await
        .expect("listening");
    let frame = RequestFrame::One(req);
    let bytes = frame.wire_bytes();
    conn.send_traced(frame, bytes, None)
        .await
        .expect("server is up");
    match conn.recv().await.expect("server replies").body {
        ResponseFrame::One(resp) => resp,
        ResponseFrame::Batch(_) => panic!("one request, one reply"),
    }
}

#[test]
fn unknown_kernel_is_reported() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (_s, net, shm) = boot(gpus(1), vec![Rc::new(MatMul::new())]);
        let mut client = connect(&net, shm).await;
        let err = client
            .call("nonexistent")
            .arg(Value::U64(1))
            .send()
            .await
            .unwrap_err();
        assert_eq!(err, InvokeError::UnknownKernel("nonexistent".into()));
    });
}

#[test]
fn bad_input_is_reported_not_fatal() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (_s, net, shm) = boot(gpus(1), vec![Rc::new(MatMul::new())]);
        let mut client = connect(&net, shm).await;
        let err = client
            .call("matmul")
            .arg(Value::Unit)
            .send()
            .await
            .unwrap_err();
        assert!(matches!(err, InvokeError::BadInput(_)), "got {err:?}");
        // The server keeps serving after a bad request.
        let ok = client.call("matmul").arg(Value::U64(64)).send().await;
        assert!(ok.is_ok());
    });
}

#[test]
fn missing_device_class_is_reported() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        // A GPU kernel on a deployment with no GPU.
        let cpu: Device = kaas::accel::CpuDevice::new(
            DeviceId(0),
            kaas::accel::CpuProfile::xeon_e5_2698v4_dual(),
        )
        .into();
        let (_s, net, shm) = boot(vec![cpu], vec![Rc::new(MatMul::new())]);
        let mut client = connect(&net, shm).await;
        let err = client
            .call("matmul")
            .arg(Value::U64(64))
            .send()
            .await
            .unwrap_err();
        assert_eq!(err, InvokeError::NoDevice("GPU".into()));
    });
}

#[test]
fn killed_runner_is_replaced_transparently() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net, shm) = boot(gpus(2), vec![Rc::new(MonteCarlo::default())]);
        let mut client = connect(&net, shm).await;
        let first = client
            .call("mci")
            .arg(Value::U64(10_000))
            .out_of_band()
            .send()
            .await
            .unwrap();
        let dev0 = first.report.device;
        // Crash the runner that served us.
        assert!(server.kill_runner("mci", dev0));
        // The next invocation is retried onto a fresh runner and succeeds.
        let second = client
            .call("mci")
            .arg(Value::U64(10_000))
            .out_of_band()
            .send()
            .await
            .unwrap();
        assert!(second.report.cold_start, "replacement runner cold-starts");
        assert_ne!(
            second.report.runner, first.report.runner,
            "a new runner must serve after the crash"
        );
    });
}

#[test]
fn failed_invocation_releases_in_flight() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net, shm) = boot(gpus(1), vec![Rc::new(MatMul::new())]);
        let mut client = connect(&net, shm).await;
        // Bad-input path: the kernel rejects its argument after a slot
        // was claimed.
        let err = client
            .call("matmul")
            .arg(Value::Unit)
            .send()
            .await
            .unwrap_err();
        assert!(matches!(err, InvokeError::BadInput(_)));
        assert_eq!(
            server.snapshot().in_flight("matmul"),
            0,
            "failed invocation must release its in-flight claim"
        );
        // Crash path: a runner dying mid-service must not leak claims
        // either, even after the transparent retries.
        let first = client
            .call("matmul")
            .arg(Value::U64(64))
            .send()
            .await
            .unwrap();
        assert!(server.kill_runner("matmul", first.report.device));
        client
            .call("matmul")
            .arg(Value::U64(64))
            .send()
            .await
            .unwrap();
        assert_eq!(server.snapshot().in_flight("matmul"), 0);
    });
}

#[test]
fn deadline_shed_releases_the_admission_slot() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        // A server-wide cap of one admitted request: any leaked
        // admission permit wedges the server permanently.
        let (server, net, shm) = boot_with(gpus(1), vec![Rc::new(MatMul::new())], fixed_cap(1));
        let mut client = connect(&net, shm).await;
        let err = client
            .call("matmul")
            .arg(Value::U64(64))
            .deadline(Duration::ZERO)
            .send()
            .await
            .unwrap_err();
        assert_eq!(err, InvokeError::DeadlineExceeded);
        assert_eq!(server.snapshot().total_in_flight(), 0);
        // The shed request released its slot: the next one is admitted.
        assert!(client
            .call("matmul")
            .arg(Value::U64(64))
            .send()
            .await
            .is_ok());
    });
}

#[test]
fn disconnect_mid_flight_does_not_wedge_the_server() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net, shm) =
            boot_with(gpus(1), vec![Rc::new(MonteCarlo::default())], fixed_cap(1));
        // A client that gives up mid-flight and hangs up: the send
        // future is dropped while the server is still working, then the
        // connection itself is dropped with it.
        {
            let shm = shm.clone();
            let net = net.clone();
            spawn(async move {
                let mut client = connect(&net, shm).await;
                let _ = timeout(
                    Duration::from_millis(1),
                    client.call("mci").arg(Value::U64(10_000)).send(),
                )
                .await;
            })
            .await;
        }
        // Let the server finish the abandoned invocation (cold start
        // plus execution) and fail its reply send.
        sleep(Duration::from_secs(2)).await;
        assert_eq!(
            server.snapshot().total_in_flight(),
            0,
            "abandoned invocation leaked an in-flight claim"
        );
        // Both the admission slot and the pool claim are free again.
        let mut client = connect(&net, shm).await;
        assert!(client
            .call("mci")
            .arg(Value::U64(10_000))
            .send()
            .await
            .is_ok());
    });
}

#[test]
fn exhausted_retries_surface_the_failure_and_release_claims() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        // One attempt only: a crashed runner surfaces as RunnerFailed
        // instead of being retried onto a replacement.
        let (server, net, shm) = boot_with(
            gpus(1),
            vec![Rc::new(MonteCarlo::default())],
            ServerConfig::default().with_retry(RetryConfig::default().with_max_attempts(1)),
        );
        let mut client = connect(&net, shm).await;
        let first = client
            .call("mci")
            .arg(Value::U64(10_000))
            .send()
            .await
            .unwrap();
        assert!(server.kill_runner("mci", first.report.device));
        let err = client
            .call("mci")
            .arg(Value::U64(10_000))
            .send()
            .await
            .unwrap_err();
        assert!(matches!(err, InvokeError::RunnerFailed(_)), "got {err:?}");
        let snapshot = server.snapshot();
        assert_eq!(
            snapshot.total_in_flight(),
            0,
            "failed attempt leaked a claim"
        );
        assert_eq!(snapshot.quarantined, 1, "dead slot should be quarantined");
        let m = server.metrics_registry();
        assert!(m.counter("errors.runner-failed") >= 1);
        assert!(m.counter("evictions") >= 1);
        // The quarantined slot is replaced on the next invocation.
        assert!(client
            .call("mci")
            .arg(Value::U64(10_000))
            .send()
            .await
            .is_ok());
    });
}

#[test]
fn every_error_kind_is_inducible_and_counted() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let mut induced: BTreeSet<&'static str> = BTreeSet::new();

        // Server A: one GPU, retry disabled, hair-trigger breaker that
        // never cools down — covers the placement/runtime error kinds.
        let (server, net, shm) = boot_with(
            gpus(1),
            vec![Rc::new(MatMul::new()), Rc::new(MonteCarlo::default())],
            ServerConfig::default()
                .with_retry(RetryConfig::default().with_max_attempts(1))
                .with_breaker(
                    BreakerConfig::default()
                        .with_failure_threshold(1)
                        .with_cooldown(Duration::from_secs(3600)),
                ),
        );
        let mut client = connect(&net, shm.clone()).await;

        let err = client.call("nope").send().await.unwrap_err();
        induced.insert(err.kind());
        let err = client
            .call("matmul")
            .arg(Value::Unit)
            .send()
            .await
            .unwrap_err();
        induced.insert(err.kind());
        let err = client
            .call("matmul")
            .arg(Value::U64(64))
            .deadline(Duration::ZERO)
            .send()
            .await
            .unwrap_err();
        induced.insert(err.kind());

        // A stale shared-memory handle, sent as a raw frame (the client
        // API never produces one).
        let stale = shm.put(Value::U64(1), 8).await;
        shm.take(stale).await.unwrap();
        let resp = send_raw(
            &net,
            Request {
                id: u64::MAX,
                target: Target::Kernel("matmul".into()),
                data: DataRef::OutOfBand(stale),
                deadline: None,
                context: None,
                reply_out_of_band: false,
                reply_to_store: false,
            },
        )
        .await;
        let err = resp.result.unwrap_err();
        induced.insert(err.kind());

        // Crash the only runner: one attempt means the failure surfaces,
        // and the failure trips the device's breaker permanently.
        let first = client
            .call("mci")
            .arg(Value::U64(10_000))
            .send()
            .await
            .unwrap();
        assert!(server.kill_runner("mci", first.report.device));
        let err = client
            .call("mci")
            .arg(Value::U64(10_000))
            .send()
            .await
            .unwrap_err();
        induced.insert(err.kind());
        let err = client
            .call("mci")
            .arg(Value::U64(10_000))
            .send()
            .await
            .unwrap_err();
        assert_eq!(err, InvokeError::CircuitOpen("GPU".into()));
        induced.insert(err.kind());

        // Client-side kind: a dropped request frame times out.
        client.link_fault().drop_next(1);
        let err = client
            .call("matmul")
            .arg(Value::U64(64))
            .timeout(Duration::from_millis(20))
            .send()
            .await
            .unwrap_err();
        assert_eq!(err, InvokeError::TimedOut);
        induced.insert(err.kind());
        // A flow trigger lost the same way times out before any step ran.
        let wf = Workflow::linear("lost", ["matmul"]).unwrap();
        let handle = client.register_workflow(&wf).await.unwrap();
        client.link_fault().drop_next(1);
        let err = client
            .flow(&handle)
            .input(Value::U64(64))
            .timeout(Duration::from_millis(20))
            .send()
            .await
            .unwrap_err();
        assert_eq!(err.error, InvokeError::TimedOut);
        assert!(err.partial.is_empty(), "no step ran: {:?}", err.partial);

        // Every server-side kind induced so far is counted in the
        // registry under its stable label.
        let m = server.metrics_registry();
        for kind in [
            "unknown-kernel",
            "bad-input",
            "deadline-exceeded",
            "bad-handle",
            "runner-failed",
            "circuit-open",
        ] {
            assert!(
                m.counter(&format!("errors.{kind}")) >= 1,
                "errors.{kind} missing from registry:\n{}",
                m.render()
            );
        }

        // Server B: zero admission slots — everything is shed.
        let (_b, net_b, shm_b) = boot_with(gpus(1), vec![Rc::new(MatMul::new())], fixed_cap(0));
        let mut client_b = connect(&net_b, shm_b).await;
        let err = client_b
            .call("matmul")
            .arg(Value::U64(8))
            .send()
            .await
            .unwrap_err();
        let InvokeError::Overloaded { retry_after } = &err else {
            panic!("expected Overloaded, got {err:?}");
        };
        // Cooperative backpressure: a shed always names its price. The
        // hint is a pure function of backlog, so an idle server's shed
        // quotes exactly one dispatch overhead.
        assert_eq!(
            *retry_after,
            Some(ServerConfig::default().dispatch_overhead),
            "server-side sheds must carry a deterministic retry_after hint"
        );
        induced.insert(err.kind());
        assert!(_b.metrics_registry().counter("errors.overloaded") >= 1);

        // Server C: CPU-only deployment asked for a GPU kernel.
        let cpu: Device = kaas::accel::CpuDevice::new(
            DeviceId(0),
            kaas::accel::CpuProfile::xeon_e5_2698v4_dual(),
        )
        .into();
        let (_c, net_c, shm_c) = boot(vec![cpu], vec![Rc::new(MatMul::new())]);
        let mut client_c = connect(&net_c, shm_c).await;
        let err = client_c
            .call("matmul")
            .arg(Value::U64(8))
            .send()
            .await
            .unwrap_err();
        assert_eq!(err, InvokeError::NoDevice("GPU".into()));
        induced.insert(err.kind());
        assert!(_c.metrics_registry().counter("errors.no-device") >= 1);

        // Client-side kind: the server hangs up before answering.
        let net_d: KaasNetwork = KaasNetwork::new();
        let mut listener = net_d.listen("kaas").unwrap();
        let hangup = spawn(async move {
            let conn = listener.accept().await;
            drop(conn);
            drop(listener);
        });
        let mut client_d = KaasClient::connect(&net_d, "kaas", LinkProfile::loopback())
            .await
            .expect("listening");
        hangup.await;
        let err = client_d
            .call("matmul")
            .arg(Value::U64(8))
            .send()
            .await
            .unwrap_err();
        assert_eq!(err, InvokeError::Disconnected);
        induced.insert(err.kind());

        // Server E: a GPU too small to hold the operand — a sealed
        // object larger than device memory can never be admitted, and
        // evicting everything else would not help.
        let tiny: Device = GpuDevice::new(
            DeviceId(0),
            GpuProfile {
                mem_bytes: 1 << 20,
                ..GpuProfile::p100()
            },
        )
        .into();
        let (_e, net_e, shm_e) = boot(vec![tiny], vec![Rc::new(MatMul::new())]);
        let mut client_e = connect(&net_e, shm_e).await;
        let big = client_e
            .put(Value::sized(8 << 20, Value::U64(64)))
            .await
            .unwrap();
        client_e.seal(big).await.unwrap();
        let err = client_e
            .call("matmul")
            .arg_ref(big)
            .send()
            .await
            .unwrap_err();
        assert!(matches!(err, InvokeError::DeviceOom(_)), "got {err:?}");
        induced.insert(err.kind());
        assert!(_e.metrics_registry().counter("errors.device-oom") >= 1);

        // Server F: triggering a forged (never-registered) workflow
        // handle fails with a stable error kind, not a panic.
        let (_f, net_f, shm_f) = boot(
            vec![GpuDevice::new(DeviceId(0), GpuProfile::p100()).into()],
            vec![Rc::new(MatMul::new())],
        );
        let mut client_f = connect(&net_f, shm_f).await;
        let forged = WorkflowHandle::new(999, "ghost", 1);
        let err = client_f
            .flow(&forged)
            .input(Value::U64(8))
            .send()
            .await
            .unwrap_err();
        assert_eq!(err.error, InvokeError::UnknownFlow("999".into()));
        assert!(err.partial.is_empty(), "no step ever ran");
        induced.insert(err.error.kind());
        assert!(_f.metrics_registry().counter("errors.unknown-flow") >= 1);

        // Server G: guest kernel error kinds. An unregistered
        // `tenant/name` is UnknownGuestKernel (distinct from
        // UnknownKernel), a div-by-zero body is GuestTrap, and a
        // too-small fuel budget on a loop is FuelExhausted.
        let (_g, net_g, shm_g) = boot(gpus(1), vec![Rc::new(MatMul::new())]);
        let mut client_g = connect(&net_g, shm_g).await;
        let err = client_g
            .call("ghost/tenant-code")
            .arg(Value::U64(1))
            .send()
            .await
            .unwrap_err();
        assert_eq!(
            err,
            InvokeError::UnknownGuestKernel("ghost/tenant-code".into())
        );
        induced.insert(err.kind());
        let trapping = GuestProgram::new("halver", DeviceClass::Gpu)
            .with_fuel(100)
            .with_body(vec![Op::Input, Op::PushU(0), Op::Div, Op::Return]);
        let name = client_g.register_kernel("acme", &trapping).await.unwrap();
        let err = client_g
            .call(&name)
            .arg(Value::U64(8))
            .send()
            .await
            .unwrap_err();
        assert!(matches!(err, InvokeError::GuestTrap(_)), "got {err:?}");
        induced.insert(err.kind());
        let spinner = GuestProgram::new("spinner", DeviceClass::Gpu)
            .with_fuel(16)
            .with_body(vec![Op::Jump(0)]);
        let name = client_g.register_kernel("acme", &spinner).await.unwrap();
        let err = client_g
            .call(&name)
            .arg(Value::U64(8))
            .send()
            .await
            .unwrap_err();
        assert!(matches!(err, InvokeError::FuelExhausted(_)), "got {err:?}");
        induced.insert(err.kind());
        // A provably-trapping program (stack underflow on the only
        // path) is rejected by the verifier at register time, with the
        // structured diagnostics in the payload.
        let underflow = GuestProgram::new("underflow", DeviceClass::Gpu)
            .with_fuel(100)
            .with_body(vec![Op::Pop, Op::Return]);
        let err = client_g
            .register_kernel("acme", &underflow)
            .await
            .unwrap_err();
        assert!(matches!(err, InvokeError::VerifyRejected(_)), "got {err:?}");
        assert!(
            err.to_string().contains("body@0: [underflow]"),
            "diagnostics missing from {err}"
        );
        induced.insert(err.kind());
        let m_g = _g.metrics_registry();
        for kind in [
            "unknown-guest-kernel",
            "guest-trap",
            "fuel-exhausted",
            "verify-rejected",
        ] {
            assert!(
                m_g.counter(&format!("errors.{kind}")) >= 1,
                "errors.{kind} missing from registry:\n{}",
                m_g.render()
            );
        }

        // Exhaustiveness: every variant in the stable KINDS table was
        // induced somewhere above.
        for kind in InvokeError::KINDS {
            assert!(induced.contains(kind), "error kind {kind} never induced");
        }
        assert_eq!(induced.len(), InvokeError::KINDS.len());
    });
}

/// Scale-out is capped by hardware; with it off, the fleet stays at
/// the bootstrap runner.
#[test]
fn autoscaler_never_exceeds_device_count() {
    let devices = 2u32;
    for autoscale in [true, false] {
        let mut sim = Simulation::new();
        let peak = sim.block_on(async move {
            let (server, net, shm) = boot_with(
                gpus(devices),
                vec![Rc::new(MonteCarlo::default())],
                ServerConfig::default().with_autoscale(autoscale),
            );
            // Far more concurrent requests than 2 devices × default
            // per-runner capacity can absorb: the autoscaler wants to
            // grow on every saturated placement but is capped by
            // hardware.
            let mut handles = Vec::new();
            for _ in 0..64 {
                let shm = shm.clone();
                let net = net.clone();
                handles.push(spawn(async move {
                    let mut client = connect(&net, shm).await;
                    client
                        .call("mci")
                        .arg(Value::U64(10_000))
                        .send()
                        .await
                        .unwrap();
                }));
            }
            let watcher = {
                let server = server.clone();
                spawn(async move {
                    let mut peak = 0;
                    for _ in 0..1000 {
                        peak = peak.max(server.snapshot().runners("mci"));
                        kaas::simtime::sleep(std::time::Duration::from_micros(50)).await;
                    }
                    peak
                })
            };
            for h in handles {
                h.await;
            }
            watcher.await
        });
        if autoscale {
            assert!(peak >= 2, "load this heavy should use every device");
            assert!(
                peak <= devices as usize,
                "runner fleet ({peak}) exceeded physical device count ({devices})"
            );
        } else {
            assert_eq!(peak, 1, "autoscale off keeps only the bootstrap runner");
        }
    }
}

/// Enough MCI samples that the kernel runs for about 150 µs.
const SLOW: u64 = 2_000_000;

/// One slow MCI call, as a single call or as a one-member batch,
/// bounded by `within` when given.
async fn slow_call(
    client: &mut KaasClient,
    batched: bool,
    within: Option<Duration>,
) -> Result<Invocation, InvokeError> {
    if batched {
        let mut batch = client
            .batch()
            .call(BatchCall::new("mci").arg(Value::U64(SLOW)));
        if let Some(d) = within {
            batch = batch.timeout(d);
        }
        return batch.send().await?.pop().expect("one member");
    }
    let mut call = client.call("mci").arg(Value::U64(SLOW));
    if let Some(d) = within {
        call = call.timeout(d);
    }
    call.send().await
}

/// A call that times out while its reply is still on the way leaves
/// that reply to arrive during the client's next call. Every call and
/// every batch takes only the reply that answers it, whichever of the
/// two timed out before it.
#[test]
fn late_replies_to_timed_out_calls_are_skipped() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net, shm) = boot(gpus(1), vec![Rc::new(MonteCarlo::default())]);
        server.prewarm("mci", 1).await.unwrap();
        let mut client = connect(&net, shm).await;
        let late = Duration::from_micros(50);
        for (late_batched, next_batched) in
            [(false, false), (false, true), (true, true), (true, false)]
        {
            let err = slow_call(&mut client, late_batched, Some(late)).await;
            assert_eq!(err.unwrap_err(), InvokeError::TimedOut);
            let sent = now();
            let inv = slow_call(&mut client, next_batched, None).await.unwrap();
            assert!(
                inv.report.submitted >= sent,
                "a stale reply answered the call (batched: {late_batched} then {next_batched})"
            );
        }
        assert_eq!(client.requests_sent(), 8);
    });
}

#[test]
fn oob_without_shared_memory_fails_cleanly() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (_s, net, _shm) = boot(gpus(1), vec![Rc::new(MatMul::new())]);
        // No shared-memory attachment (a remote client).
        let mut client = KaasClient::connect(&net, "kaas", LinkProfile::lan_1gbps())
            .await
            .expect("listening");
        let err = client
            .call("matmul")
            .arg(Value::U64(8))
            .out_of_band()
            .send()
            .await
            .unwrap_err();
        assert_eq!(err, InvokeError::BadHandle);
        // In-band still works for remote clients.
        assert!(client
            .call("matmul")
            .arg(Value::U64(8))
            .send()
            .await
            .is_ok());
    });
}

#[test]
fn in_band_and_out_of_band_produce_identical_outputs() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (_s, net, shm) = boot(gpus(1), vec![Rc::new(MatMul::new())]);
        let mut client = connect(&net, shm).await;
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
    });
}

#[test]
fn sized_envelopes_round_trip() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (_s, net, shm) = boot(gpus(1), vec![Rc::new(MatMul::new())]);
        let mut client = connect(&net, shm).await;
        let input = Value::sized(2 * 8 * 2000 * 2000, Value::U64(2000));
        let inv = client
            .call("matmul")
            .arg(input)
            .out_of_band()
            .send()
            .await
            .unwrap();
        // The response mirrors the descriptor size (result matrix bytes).
        assert_eq!(inv.output.wire_bytes(), 8 * 2000 * 2000);
        assert!(matches!(inv.output.payload(), Value::F64(_)));
    });
}

//! Integration: the sharded dispatch engine and wire batching.
//!
//! Covers the sharded dispatcher's guarantees: per-shard queue
//! accounting in [`ServerSnapshot`] stays consistent even mid-storm,
//! same-seed runs replay byte-identically, batch members succeed and
//! fail individually and reply in request order, a queued batch member
//! holds no task of its own, and the serialized router baseline (a
//! one-shard layout behind a zero-cost front door) still works end to
//! end.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use kaas::accel::{CpuDevice, CpuProfile, Device, DeviceId, GpuDevice, GpuProfile};
use kaas::core::{
    BatchCall, BreakerConfig, Control, DataRef, DispatchMode, EvictionConfig, ExponentialBackoff,
    FallbackConfig, FaultInjector, FaultPlan, InvokeError, KaasClient, KaasNetwork, KaasServer,
    KernelRegistry, Request, RequestFrame, Response, ResponseFrame, RetryConfig, ServerConfig,
    ShardConfig, StormConfig, Target,
};
use kaas::kernels::{MonteCarlo, Value};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::{now, sleep, spawn, SimTime, Simulation, SpanSink};

const SEED: u64 = 2026;

fn testbed() -> Vec<Device> {
    vec![
        GpuDevice::new(DeviceId(0), GpuProfile::p100()).into(),
        GpuDevice::new(DeviceId(1), GpuProfile::p100()).into(),
        CpuDevice::new(DeviceId(2), CpuProfile::xeon_e5_2698v4_dual()).into(),
    ]
}

fn boot(config: ServerConfig) -> (KaasServer, KaasNetwork) {
    let registry = KernelRegistry::new();
    registry.register(MonteCarlo::default()).unwrap();
    let server = KaasServer::new(testbed(), registry, SharedMemory::host(), config);
    let net: KaasNetwork = KaasNetwork::new();
    spawn(server.clone().serve(net.listen("kaas").unwrap()));
    (server, net)
}

async fn connect(net: &KaasNetwork) -> KaasClient {
    KaasClient::connect(net, "kaas", LinkProfile::loopback())
        .await
        .unwrap()
}

fn resilient_sharded_config(seed: u64, tracer: SpanSink) -> ServerConfig {
    ServerConfig::default()
        .with_tracer(tracer)
        .with_dispatch(DispatchMode::Sharded(ShardConfig {
            shards: 3,
            ..ShardConfig::default()
        }))
        .with_retry(
            RetryConfig::default()
                .with_max_attempts(4)
                .with_backoff(
                    ExponentialBackoff::new(Duration::from_millis(1)).with_jitter(0.5, seed),
                )
                .with_budget(Duration::from_millis(100)),
        )
        .with_breaker(
            BreakerConfig::default()
                .with_failure_threshold(3)
                .with_cooldown(Duration::from_millis(200)),
        )
        .with_eviction(EvictionConfig::default().with_failure_threshold(2))
        .with_fallback(FallbackConfig::gpu_to_cpu())
}

/// Snapshot queue accounting holds at every sampled instant of a
/// seeded fault storm: the per-shard depths always sum to the total
/// queued work, queues actually build under the bursty load, and the
/// run drains to zero.
#[test]
fn shard_depths_sum_to_queued_under_a_fault_storm() {
    let mut sim = Simulation::new();
    let (violations, max_queued) = sim.block_on(async {
        let (server, net) = boot(resilient_sharded_config(SEED, SpanSink::new()));

        let mut clients = Vec::new();
        for _ in 0..6 {
            clients.push(connect(&net).await);
        }
        let storm = StormConfig {
            devices: vec![DeviceId(0), DeviceId(1)],
            horizon: Duration::from_secs(3),
            ..StormConfig::default()
        };
        let mut injector = FaultInjector::new(&server, FaultPlan::storm(SEED, &storm));
        for client in &clients {
            injector = injector.with_link(client.link_fault());
        }
        let storm_done = injector.run();

        // Sampler: checks the invariant every simulated millisecond
        // while the workers run. Violations are collected, not
        // asserted, so the executor is never unwound mid-step.
        let violations = Rc::new(RefCell::new(Vec::new()));
        let max_queued = Rc::new(Cell::new(0usize));
        let done = Rc::new(Cell::new(false));
        {
            let server = server.clone();
            let violations = Rc::clone(&violations);
            let max_queued = Rc::clone(&max_queued);
            let done = Rc::clone(&done);
            spawn(async move {
                while !done.get() {
                    let snap = server.snapshot();
                    let sum: usize = snap.shard_depths.iter().sum();
                    if sum != snap.dispatch_queued {
                        violations
                            .borrow_mut()
                            .push((snap.shard_depths.clone(), snap.dispatch_queued));
                    }
                    max_queued.set(max_queued.get().max(snap.dispatch_queued));
                    sleep(Duration::from_millis(1)).await;
                }
            });
        }

        // Bursty load: every client fires 25-call batch frames, so the
        // server sees waves of concurrent dispatches that pile onto the
        // shard queues while faults crash runners and flap devices.
        let mut workers = Vec::new();
        for (idx, mut client) in clients.into_iter().enumerate() {
            workers.push(spawn(async move {
                sleep(Duration::from_millis(idx as u64 * 7)).await;
                for _ in 0..8 {
                    let mut b = client.batch().timeout(Duration::from_secs(3));
                    for _ in 0..25 {
                        b = b.call(BatchCall::new("mci").arg(Value::U64(5_000)));
                    }
                    // Members resolve individually (Ok or typed error);
                    // only a dead connection fails the frame.
                    b.send().await.expect("batch frame resolves");
                    sleep(Duration::from_millis(40)).await;
                }
            }));
        }
        for w in workers {
            w.await;
        }
        storm_done.await;
        sleep(Duration::from_secs(1)).await;
        done.set(true);

        let snap = server.snapshot();
        assert_eq!(snap.dispatch_queued, 0, "queues must drain: {snap:?}");
        assert_eq!(snap.shard_depths, vec![0, 0, 0]);
        assert_eq!(snap.total_in_flight(), 0);
        let seen = violations.borrow().clone();
        (seen, max_queued.get())
    });
    assert!(
        violations.is_empty(),
        "shard depths must always sum to dispatch_queued: {violations:?}"
    );
    assert!(
        max_queued > 0,
        "the bursty load should actually queue work on the shards"
    );
}

/// Everything observable about one sharded chaos run.
#[derive(Debug, PartialEq, Eq)]
struct RunDigest {
    ok: usize,
    errors: BTreeMap<&'static str, usize>,
    registry: String,
    trace: String,
}

fn run_sharded_chaos(seed: u64) -> RunDigest {
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let tracer = SpanSink::new();
        let (server, net) = boot(resilient_sharded_config(seed, tracer.clone()));
        let mut clients = Vec::new();
        for _ in 0..4 {
            clients.push(connect(&net).await);
        }
        let storm = StormConfig {
            devices: vec![DeviceId(0), DeviceId(1)],
            horizon: Duration::from_secs(2),
            ..StormConfig::default()
        };
        let mut injector = FaultInjector::new(&server, FaultPlan::storm(seed, &storm));
        for client in &clients {
            injector = injector.with_link(client.link_fault());
        }
        let storm_done = injector.run();

        let mut workers = Vec::new();
        for (idx, mut client) in clients.into_iter().enumerate() {
            workers.push(spawn(async move {
                let mut ok = 0usize;
                let mut errors: BTreeMap<&'static str, usize> = BTreeMap::new();
                sleep(Duration::from_millis(idx as u64 * 11)).await;
                for _ in 0..30 {
                    match client
                        .call("mci")
                        .arg(Value::U64(5_000))
                        .timeout(Duration::from_secs(3))
                        .send()
                        .await
                    {
                        Ok(_) => ok += 1,
                        Err(e) => *errors.entry(e.kind()).or_default() += 1,
                    }
                    sleep(Duration::from_millis(25)).await;
                }
                (ok, errors)
            }));
        }
        let mut ok = 0usize;
        let mut errors: BTreeMap<&'static str, usize> = BTreeMap::new();
        for w in workers {
            let (o, errs) = w.await;
            ok += o;
            for (k, n) in errs {
                *errors.entry(k).or_default() += n;
            }
        }
        storm_done.await;
        sleep(Duration::from_secs(1)).await;
        RunDigest {
            ok,
            errors,
            registry: server.metrics_registry().render(),
            trace: tracer.to_chrome_json(),
        }
    })
}

/// Sharded dispatch replays byte-identically from the same seed.
#[test]
fn sharded_chaos_replays_byte_identically() {
    let a = run_sharded_chaos(SEED);
    let b = run_sharded_chaos(SEED);
    assert_eq!(
        a.trace, b.trace,
        "same seed must produce a byte-identical trace"
    );
    assert_eq!(a, b, "same seed must replay identically");
    assert!(a.ok > 0, "a healthy majority should succeed");
}

/// Batch members resolve individually and in order: good members
/// succeed even when a sibling in the same frame fails.
#[test]
fn batch_members_fail_and_succeed_individually() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net) = boot(ServerConfig::default());
        let mut client = connect(&net).await;

        let results = client
            .batch()
            .call(BatchCall::new("mci").arg(Value::U64(10_000)))
            .call(BatchCall::new("no-such-kernel").arg(Value::U64(1)))
            .call(BatchCall::new("mci").arg(Value::U64(20_000)))
            .send()
            .await
            .expect("the frame itself is delivered");
        assert_eq!(results.len(), 3);
        let first = results[0].as_ref().expect("member 0 succeeds");
        assert!(matches!(first.output, Value::F64(v) if (v - 10f64.ln()).abs() < 0.5));
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &InvokeError::UnknownKernel("no-such-kernel".into())
        );
        assert!(results[2].is_ok(), "member 2 unaffected by the sibling");

        // The frame counters saw one batch of three members.
        let m = server.metrics_registry();
        assert_eq!(m.counter("dispatch.batches"), 1);
        assert_eq!(m.counter("dispatch.batch_members"), 3);

        // An empty batch short-circuits client-side.
        let empty = client.batch().send().await.unwrap();
        assert!(empty.is_empty());
    });
}

/// A dropped batch frame times out as one unit: the outer send is `Ok`
/// (the protocol held) and every member reports [`InvokeError::TimedOut`].
#[test]
fn batch_timeout_fails_every_member() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net) = boot(ServerConfig::default());
        let mut client = connect(&net).await;

        client.link_fault().drop_next(1);
        let results = client
            .batch()
            .timeout(Duration::from_millis(50))
            .call(BatchCall::new("mci").arg(Value::U64(5_000)))
            .call(BatchCall::new("mci").arg(Value::U64(5_000)))
            .send()
            .await
            .unwrap();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.as_ref().unwrap_err(), &InvokeError::TimedOut);
        }

        // The connection survives: the next batch goes through.
        let ok = client
            .batch()
            .call(BatchCall::new("mci").arg(Value::U64(5_000)))
            .send()
            .await
            .unwrap();
        assert!(ok[0].is_ok());
        assert_eq!(server.snapshot().total_in_flight(), 0);
    });
}

/// The serialized router baseline — one shard behind a zero-cost front
/// door — serves calls and batches end to end, and its snapshot reports
/// exactly one drained shard.
#[test]
fn serialized_baseline_still_works_end_to_end() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let layout = kaas_bench::cluster::serialized_router();
        let (server, net) =
            boot(ServerConfig::default().with_dispatch(DispatchMode::Sharded(layout)));
        let mut client = connect(&net).await;

        let single = client.call("mci").arg(Value::U64(10_000)).send().await;
        assert!(single.is_ok());
        let batch = client
            .batch()
            .call(BatchCall::new("mci").arg(Value::U64(5_000)))
            .call(BatchCall::new("mci").arg(Value::U64(5_000)))
            .send()
            .await
            .unwrap();
        assert!(batch.iter().all(|r| r.is_ok()));

        let snap = server.snapshot();
        assert_eq!(snap.shard_depths, vec![0], "one drained shard: {snap:?}");
        assert_eq!(snap.dispatch_queued, 0);
    });
}

/// One GPU behind one dispatch shard, with `mci` prewarmed on it.
async fn one_gpu_one_shard(queue_cap: Option<usize>) -> (KaasServer, KaasNetwork) {
    let registry = KernelRegistry::new();
    registry.register(MonteCarlo::default()).unwrap();
    let gpu: Device = GpuDevice::new(DeviceId(0), GpuProfile::p100()).into();
    let config = ServerConfig::default().with_dispatch(DispatchMode::Sharded(ShardConfig {
        shards: 1,
        queue_cap,
        ..ShardConfig::default()
    }));
    let server = KaasServer::new(vec![gpu], registry, SharedMemory::host(), config);
    let net: KaasNetwork = KaasNetwork::new();
    spawn(server.clone().serve(net.listen("kaas").unwrap()));
    server.prewarm("mci", 1).await.unwrap();
    (server, net)
}

fn mci_request(id: u64, deadline: Option<SimTime>) -> Request {
    Request {
        id,
        target: Target::Kernel("mci".into()),
        data: DataRef::InBand(Value::U64(1_000)),
        deadline,
        context: None,
        reply_out_of_band: false,
        reply_to_store: false,
    }
}

/// Sends `reqs` as one raw batch frame and returns the coalesced
/// replies, ids included.
async fn send_batch(net: &KaasNetwork, reqs: Vec<Request>) -> Vec<Response> {
    let mut conn = net
        .connect("kaas", LinkProfile::loopback())
        .await
        .expect("listening");
    let frame = RequestFrame::Batch(reqs);
    let bytes = frame.wire_bytes();
    conn.send_traced(frame, bytes, None)
        .await
        .expect("server is up");
    match conn.recv().await.expect("server replies").body {
        ResponseFrame::Batch(resps) => resps,
        ResponseFrame::One(_) => panic!("a batch gets a batch reply"),
    }
}

/// A batch member's task ends at its enqueue: while a 256-member batch
/// waits in one shard's queue, the queued calls are shard jobs, not
/// live tasks.
#[test]
fn queued_batch_members_hold_no_task() {
    const MEMBERS: u64 = 256;
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let (live, queued) = sim.block_on(async move {
        let (server, net) = one_gpu_one_shard(None).await;
        let probe = {
            let server = server.clone();
            spawn(async move {
                let m = server.metrics_registry();
                let passed = || m.summary("dispatch.front_door_ns").map_or(0, |s| s.count);
                while passed() < MEMBERS {
                    sleep(Duration::from_micros(10)).await;
                }
                sleep(Duration::from_millis(1)).await;
                (handle.live_tasks(), server.snapshot().dispatch_queued)
            })
        };
        let reqs = (0..MEMBERS).map(|id| mci_request(id, None)).collect();
        let resps = send_batch(&net, reqs).await;
        assert!(resps.iter().all(|r| r.result.is_ok()));
        probe.await
    });
    assert!(
        queued > 64,
        "most members still wait in the shard queue: {queued} queued"
    );
    assert!(
        live <= 32,
        "{live} live tasks with {queued} calls queued: members outlive their enqueue"
    );
}

/// Every kind of member outcome in one frame: each reply comes back in
/// request order under its request's id, and every reject is counted
/// once, on the error counters and (sheds and ejections) on
/// `dispatch.ejected`.
#[test]
fn mixed_batch_replies_in_order_with_every_outcome() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net) = one_gpu_one_shard(Some(3)).await;
        // Passes the front door, then expires while two routing slots
        // (35 µs each) run ahead of it on the shard.
        let deadline = now() + Duration::from_micros(50);
        let unknown = Request {
            target: Target::Kernel("no-such-kernel".into()),
            ..mci_request(101, None)
        };
        let put = Request {
            target: Target::Control(Box::new(Control::DataPut)),
            ..mci_request(102, None)
        };
        let reqs = vec![
            mci_request(100, None),
            unknown,
            put,
            mci_request(103, None),
            mci_request(104, Some(deadline)),
            mci_request(105, None),
            // The shard already holds three jobs: shed.
            mci_request(106, None),
        ];
        let resps = send_batch(&net, reqs).await;
        let ids: Vec<u64> = resps.iter().map(|r| r.id).collect();
        assert_eq!(ids, (100..107).collect::<Vec<_>>());
        let errors: Vec<Option<&InvokeError>> =
            resps.iter().map(|r| r.result.as_ref().err()).collect();
        assert_eq!(
            errors,
            vec![
                None,
                Some(&InvokeError::UnknownKernel("no-such-kernel".into())),
                None,
                None,
                Some(&InvokeError::DeadlineExceeded),
                None,
                Some(&InvokeError::Overloaded {
                    retry_after: Some(Duration::from_micros(140)),
                }),
            ]
        );
        let put_report = resps[2].report.as_ref().expect("the put succeeded");
        assert_eq!(&*put_report.kernel, Control::DataPut.name());
        for r in &resps {
            assert_eq!(r.report.is_some(), r.result.is_ok(), "member {}", r.id);
        }

        let m = server.metrics_registry();
        assert_eq!(m.counter("errors"), 3);
        assert_eq!(m.counter("errors.unknown-kernel"), 1);
        assert_eq!(m.counter("errors.deadline-exceeded"), 1);
        assert_eq!(m.counter("errors.overloaded"), 1);
        assert_eq!(m.counter("dispatch.ejected"), 2);
        assert_eq!(m.counter("dispatch.batch_members"), 7);
        let snap = server.snapshot();
        assert_eq!(snap.dispatch_ejected, 2);
        assert_eq!(snap.dispatch_queued, 0);
        assert_eq!(snap.total_in_flight(), 0);
    });
}

//! Integration: the device-resident data plane. Content-addressed
//! put/get/seal/pin, cache hits that eliminate the host→device copy,
//! LRU eviction under memory pressure with pin protection, typed
//! [`InvokeError::DeviceOom`], cache-aware scheduling, and seeded
//! property-style invariants on the per-device memory manager.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

use kaas::accel::{Device, DeviceId, GpuDevice, GpuProfile, MemoryManager};
use kaas::core::{
    BatchCall, DataRef, InvokeError, KaasClient, KaasNetwork, KaasServer, KernelRegistry,
    ObjectRef, Request, RequestFrame, Response, ResponseFrame, ServerConfig, Span, SpanSink,
    Target, WarmFirst,
};
use kaas::kernels::{Kernel, MatMul, Value};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::rng::DetRng;
use kaas::simtime::{spawn, Simulation};

fn gpus(n: u32) -> Vec<Device> {
    (0..n)
        .map(|i| GpuDevice::new(DeviceId(i), GpuProfile::p100()).into())
        .collect()
}

/// A GPU with an artificially small memory capacity, to force eviction
/// pressure with byte-sized test objects.
fn tiny_gpu(id: u32, mem_bytes: u64) -> Device {
    GpuDevice::new(
        DeviceId(id),
        GpuProfile {
            mem_bytes,
            ..GpuProfile::p100()
        },
    )
    .into()
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
fn put_get_seal_pin_roundtrip() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net, shm) = boot_with(
            gpus(1),
            vec![Rc::new(MatMul::new())],
            ServerConfig::default(),
        );
        let mut client = connect(&net, shm).await;

        let payload = Value::F64s(vec![1.5; 1000]);
        let r = client.put(payload.clone()).await.unwrap();
        assert_eq!(r.bytes, payload.wire_bytes());
        // Identical content deduplicates to the same address.
        let again = client.put(payload.clone()).await.unwrap();
        assert_eq!(r, again);
        assert_eq!(server.dataplane().store().len(), 1);
        assert_eq!(server.metrics_registry().counter("dataplane.puts"), 2);

        // The object round-trips byte for byte.
        assert_eq!(client.get(r).await.unwrap(), payload);

        // A forged ref (right hash, wrong length) never resolves.
        let forged = ObjectRef {
            hash: r.hash,
            bytes: r.bytes + 1,
        };
        assert_eq!(
            client.get(forged).await.unwrap_err(),
            InvokeError::BadHandle
        );
        // Sealing / pinning something that was never stored fails typed.
        let bogus = ObjectRef {
            hash: 0xbad,
            bytes: 8,
        };
        assert_eq!(
            client.seal(bogus).await.unwrap_err(),
            InvokeError::BadHandle
        );
        assert_eq!(client.pin(bogus).await.unwrap_err(), InvokeError::BadHandle);

        // Seal and pin stick.
        client.seal(r).await.unwrap();
        client.pin(r).await.unwrap();
        assert!(server.dataplane().store().is_sealed(r.hash));
        assert!(server.dataplane().store().is_pinned(r.hash));
    });
}

/// Control ops are typed, not names: a kernel request spelled like the
/// put op's historical label is an ordinary (unknown) kernel, whether it
/// reaches the server in a raw frame, through `call`, or as a batch
/// member.
#[test]
fn a_reserved_looking_kernel_name_is_not_a_control_op() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net, shm) = boot_with(
            gpus(1),
            vec![Rc::new(MatMul::new())],
            ServerConfig::default(),
        );
        let payload = || Value::F64s(vec![1.5; 64]);
        let resp = send_raw(
            &net,
            Request {
                id: 1,
                target: Target::Kernel("_kaas/data/put".into()),
                data: DataRef::InBand(payload()),
                deadline: None,
                context: None,
                reply_out_of_band: false,
                reply_to_store: false,
            },
        )
        .await;
        // The name is tenant-shaped (`_kaas/…`), so it resolves as a
        // guest kernel that was never registered.
        let err = resp.result.unwrap_err();
        assert_eq!(
            err,
            InvokeError::UnknownGuestKernel("_kaas/data/put".into())
        );

        let mut client = connect(&net, shm).await;
        let err = client
            .call("_kaas/data/put")
            .arg(payload())
            .send()
            .await
            .unwrap_err();
        assert_eq!(err.kind(), "unknown-guest-kernel");
        let batch = client
            .batch()
            .call(BatchCall::new("_kaas/data/put").arg(payload()))
            .send()
            .await
            .unwrap();
        assert_eq!(
            batch[0].as_ref().unwrap_err().kind(),
            "unknown-guest-kernel"
        );

        assert_eq!(server.dataplane().store().len(), 0);
        assert_eq!(server.metrics_registry().counter("dataplane.puts"), 0);
    });
}

/// The tentpole acceptance: a warm invocation whose sealed operand is
/// already device-resident pays **zero** `copy_in` and lands strictly
/// below the warm miss path end to end — and the trace proves it.
#[test]
fn sealed_ref_hit_skips_copy_in_and_is_faster() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let tracer = SpanSink::new();
        let (server, net, shm) = boot_with(
            gpus(1),
            vec![Rc::new(MatMul::new())],
            ServerConfig::default().with_tracer(tracer.clone()),
        );
        let mut client = connect(&net, shm).await.with_tracer(tracer.clone());

        // A 1 MiB operand: sized so the declared envelope matches the
        // kernel's host→device volume for n=256 (2·8·256² bytes).
        let operand = Value::sized(1 << 20, Value::U64(256));
        let r = client.put(operand).await.unwrap();

        // Unsealed refs resolve but are never cached: both invocations
        // pay the full copy (the second is the warm *miss* baseline).
        let cold = client.call("matmul").arg_ref(r).send().await.unwrap();
        assert!(cold.report.copy_in > Duration::ZERO);
        let m = server.metrics_registry();
        assert_eq!(
            m.counter("dataplane.hits") + m.counter("dataplane.misses"),
            0
        );

        // Sealing makes it cacheable: the next invocation is the miss
        // that uploads, the one after is the hit.
        client.seal(r).await.unwrap();
        let miss = client.call("matmul").arg_ref(r).send().await.unwrap();
        let hit = client.call("matmul").arg_ref(r).send().await.unwrap();

        assert!(miss.report.copy_in > Duration::ZERO, "miss pays the upload");
        assert_eq!(hit.report.copy_in, Duration::ZERO, "hit skips copy_in");
        assert!(
            hit.report.copy_out > Duration::ZERO,
            "results still come back"
        );
        assert_eq!(hit.report.kernel_exec, miss.report.kernel_exec);
        assert!(
            hit.latency < miss.latency,
            "hit ({:?}) must beat the miss path ({:?})",
            hit.latency,
            miss.latency
        );

        assert_eq!(m.counter("dataplane.hits"), 1);
        assert_eq!(m.counter("dataplane.misses"), 1);
        assert_eq!(
            m.gauge("dataplane.bytes_resident"),
            Some(r.bytes as f64),
            "one resident object"
        );
        assert!(server.dataplane().is_resident(miss.report.device, r.hash));

        // Trace evidence. The cache was consulted twice, once each way.
        let spans = tracer.spans();
        let outcomes: Vec<&str> = spans
            .iter()
            .filter(|s| s.name == "cache_lookup")
            .filter_map(|s| {
                s.args
                    .iter()
                    .find(|(k, _)| k == "outcome")
                    .map(|(_, v)| v.as_str())
            })
            .collect();
        assert_eq!(outcomes, ["miss", "hit"]);
        // Exactly one upload (the miss), spanning the full copy_in.
        let uploads: Vec<&Span> = spans.iter().filter(|s| s.name == "upload").collect();
        assert_eq!(uploads.len(), 1);
        assert_eq!(uploads[0].duration(), miss.report.copy_in);
        // The runner still tiles its phases on every invocation; the
        // hit's copy_in span shrank to a zero-width marker.
        let copy_ins: Vec<&Span> = spans.iter().filter(|s| s.name == "copy_in").collect();
        assert_eq!(copy_ins.len(), 3);
        assert_eq!(copy_ins.last().unwrap().duration(), Duration::ZERO);
        assert!(copy_ins[..2].iter().all(|s| s.duration() > Duration::ZERO));
        // The ref resolved against the store on each of the three calls.
        assert_eq!(spans.iter().filter(|s| s.name == "ref_resolve").count(), 3);
    });
}

/// Under memory pressure the device evicts least-recently-used objects
/// (and only because the in-flight references of finished invocations
/// were released — a held refcount would make every admit fail).
#[test]
fn lru_eviction_under_memory_pressure() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        // Room for two 16-byte objects, not three.
        let (server, net, shm) = boot_with(
            vec![tiny_gpu(0, 40)],
            vec![Rc::new(MatMul::new())],
            ServerConfig::default(),
        );
        let mut client = connect(&net, shm).await;
        let mut refs = Vec::new();
        for n in [16u64, 24, 32] {
            let r = client.put(Value::U64(n)).await.unwrap();
            client.seal(r).await.unwrap();
            refs.push(r);
        }
        let (a, b, c) = (refs[0], refs[1], refs[2]);

        let dp = server.dataplane();
        let dev = DeviceId(0);
        client.call("matmul").arg_ref(a).send().await.unwrap();
        client.call("matmul").arg_ref(b).send().await.unwrap();
        assert!(dp.is_resident(dev, a.hash) && dp.is_resident(dev, b.hash));
        assert_eq!(dp.evictions(), 0);

        // C forces out A (least recently used), then re-admitting A
        // forces out B.
        client.call("matmul").arg_ref(c).send().await.unwrap();
        assert!(!dp.is_resident(dev, a.hash), "LRU victim was A");
        assert!(dp.is_resident(dev, b.hash) && dp.is_resident(dev, c.hash));
        client.call("matmul").arg_ref(a).send().await.unwrap();
        assert!(!dp.is_resident(dev, b.hash), "LRU victim was B");

        let m = server.metrics_registry();
        assert_eq!(dp.evictions(), 2);
        assert_eq!(m.counter("dataplane.evictions"), 2);
        assert_eq!(m.counter("dataplane.misses"), 4);
        assert_eq!(m.counter("dataplane.hits"), 0);
        assert!(dp.bytes_resident() <= 40, "capacity is a hard ceiling");
        assert_eq!(m.gauge("dataplane.dev0.bytes_resident"), Some(32.0));
    });
}

/// Pinned objects are never eviction victims; when pins leave no room,
/// the invocation fails with the stable `device-oom` error kind instead
/// of corrupting residency.
#[test]
fn pinned_objects_survive_pressure() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net, shm) = boot_with(
            vec![tiny_gpu(0, 40)],
            vec![Rc::new(MatMul::new())],
            ServerConfig::default(),
        );
        let mut client = connect(&net, shm).await;
        let a = client.put(Value::U64(16)).await.unwrap();
        let b = client.put(Value::U64(24)).await.unwrap();
        let c = client.put(Value::U64(32)).await.unwrap();
        for r in [a, b, c] {
            client.seal(r).await.unwrap();
        }
        client.pin(a).await.unwrap();

        let dp = server.dataplane();
        let dev = DeviceId(0);
        client.call("matmul").arg_ref(a).send().await.unwrap();
        client.call("matmul").arg_ref(b).send().await.unwrap();
        // A is older than B but pinned: pressure evicts B instead.
        client.call("matmul").arg_ref(c).send().await.unwrap();
        assert!(dp.is_resident(dev, a.hash), "pinned object survived");
        assert!(!dp.is_resident(dev, b.hash));

        // Pin C too: now nothing is evictable and the third object
        // cannot fit — a typed, counted failure.
        client.pin(c).await.unwrap();
        let err = client.call("matmul").arg_ref(b).send().await.unwrap_err();
        assert!(matches!(err, InvokeError::DeviceOom(_)), "got {err:?}");
        assert_eq!(err.kind(), "device-oom");
        assert!(server.metrics_registry().counter("errors.device-oom") >= 1);
        // The failed admit evicted nothing.
        assert!(dp.is_resident(dev, a.hash) && dp.is_resident(dev, c.hash));

        // Pinned residents still serve hits.
        let hit = client.call("matmul").arg_ref(a).send().await.unwrap();
        assert_eq!(hit.report.copy_in, Duration::ZERO);
    });
}

/// Cache-aware scheduling: with [`WarmFirst`], an invocation whose
/// sealed operand is resident on one device routes there even when a
/// warm runner on another device comes first in slot order.
#[test]
fn warm_first_routes_to_the_resident_device() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let (server, net, shm) = boot_with(
            gpus(2),
            vec![Rc::new(MatMul::new())],
            ServerConfig::default().with_scheduler(WarmFirst),
        );
        // Two warm runners: slot order is device 0 then device 1.
        server.prewarm("matmul", 2).await.unwrap();
        let mut client = connect(&net, shm).await;
        let r = client.put(Value::U64(128)).await.unwrap();
        client.seal(r).await.unwrap();

        // Seed residency on device 1 — the slot WarmFirst would *not*
        // pick on warmth alone.
        server.dataplane().admit(DeviceId(1), &r).unwrap();
        for _ in 0..3 {
            let inv = client.call("matmul").arg_ref(r).send().await.unwrap();
            assert_eq!(
                inv.report.device,
                DeviceId(1),
                "operand residency must steer placement"
            );
            assert_eq!(inv.report.copy_in, Duration::ZERO);
        }
        let m = server.metrics_registry();
        assert_eq!(m.counter("dataplane.hits"), 3);
        assert_eq!(m.counter("dataplane.misses"), 0);

        // Without residency anywhere, WarmFirst falls back to warmth:
        // device 0 serves (and the operand uploads there).
        server.dataplane().invalidate_device(DeviceId(1));
        let inv = client.call("matmul").arg_ref(r).send().await.unwrap();
        assert_eq!(inv.report.device, DeviceId(0));
        assert!(server.dataplane().is_resident(DeviceId(0), r.hash));
    });
}

/// Property-style: a seeded random op stream against one device's
/// memory manager. Invariants that must hold after every step:
/// residency never exceeds capacity, pinned objects are never evicted,
/// retained (in-flight) objects are never evicted, and the byte
/// ledger matches the set of resident objects exactly.
#[test]
fn seeded_random_ops_uphold_manager_invariants() {
    const CAPACITY: u64 = 1_000;
    const SEED: u64 = 0x4b61_6153; // "KaaS"
    let run = |seed: u64| -> (Vec<u64>, u64) {
        let mgr = MemoryManager::new(CAPACITY);
        let mut rng = DetRng::seed_from_u64(seed);
        let mut pinned: BTreeSet<u64> = BTreeSet::new();
        let mut retained: Vec<u64> = Vec::new();
        let mut eviction_log: Vec<u64> = Vec::new();
        for step in 0..2_000u32 {
            let hash = rng.gen_range(0u64..40);
            match rng.gen_range(0u32..10) {
                // Inserts dominate so pressure actually builds.
                0..=5 => {
                    let bytes = rng.gen_range(50u64..300);
                    match mgr.insert(hash, bytes) {
                        Ok(evicted) => {
                            for h in &evicted {
                                assert!(!pinned.contains(h), "step {step}: pinned {h:#x} evicted");
                                assert!(
                                    !retained.contains(h),
                                    "step {step}: in-flight {h:#x} evicted"
                                );
                            }
                            eviction_log.extend(evicted);
                        }
                        Err(e) => {
                            // Refusals must be honest: what it reported
                            // as evictable cannot cover the request.
                            assert!(e.evictable < e.requested || e.requested > e.capacity);
                        }
                    }
                }
                6 => {
                    if mgr.pin(hash) {
                        pinned.insert(hash);
                    }
                }
                7 => {
                    if mgr.contains(hash) {
                        mgr.retain(hash);
                        retained.push(hash);
                    }
                }
                8 => {
                    // Release one guard, as an InFlightGuard drop would.
                    if let Some(h) = retained.pop() {
                        mgr.release(h);
                    }
                }
                _ => {
                    mgr.touch(hash);
                }
            }
            assert!(
                mgr.bytes_resident() <= CAPACITY,
                "step {step}: {} bytes resident over the {CAPACITY} cap",
                mgr.bytes_resident()
            );
            for h in &pinned {
                assert!(mgr.contains(*h), "step {step}: pinned {h:#x} vanished");
            }
        }
        assert!(
            !eviction_log.is_empty(),
            "the stream must exercise eviction"
        );
        // Once every guard releases and pins stay, a full-capacity
        // insert of a fresh object evicts everything unpinned.
        for h in retained.drain(..) {
            mgr.release(h);
        }
        (eviction_log, mgr.evictions())
    };
    let (log_a, evictions_a) = run(SEED);
    let (log_b, evictions_b) = run(SEED);
    assert_eq!(log_a, log_b, "same seed, same eviction order");
    assert_eq!(evictions_a, evictions_b);
}

/// Two identical traced data-plane workloads export byte-identical
/// Chrome traces — the subsystem introduces no nondeterminism.
#[test]
fn dataplane_runs_replay_byte_identically() {
    let run = || {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let tracer = SpanSink::new();
            let (_s, net, shm) = boot_with(
                vec![tiny_gpu(0, 40)],
                vec![Rc::new(MatMul::new())],
                ServerConfig::default().with_tracer(tracer.clone()),
            );
            let mut client = connect(&net, shm).await.with_tracer(tracer.clone());
            let a = client.put(Value::U64(100)).await.unwrap();
            let b = client.put(Value::U64(200)).await.unwrap();
            let c = client.put(Value::U64(300)).await.unwrap();
            for r in [a, b, c] {
                client.seal(r).await.unwrap();
            }
            for r in [a, b, a, c, b, a] {
                client.call("matmul").arg_ref(r).send().await.unwrap();
            }
            tracer.to_chrome_json()
        })
    };
    let a = run();
    let b = run();
    assert!(a.contains("cache_lookup"));
    assert!(a.contains("evict"));
    assert_eq!(a, b, "the data plane must replay deterministically");
}

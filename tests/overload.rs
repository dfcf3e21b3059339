//! Integration: adaptive overload control. The AIMD admission limiter
//! must tighten under queue pressure and recover when it clears, bounded
//! shard queues must eject expired work honestly (every shed surfaces as
//! a typed error AND a counter — no silent drops), `Overloaded` must
//! carry a deterministic `retry_after` hint the client retry loop
//! honors, and retry budgets must cap the retry-to-fresh ratio.

use std::rc::Rc;
use std::time::Duration;

use kaas::accel::{Device, DeviceId, GpuDevice, GpuProfile};
use kaas::core::{
    AimdConfig, ClientRetryConfig, DispatchMode, InvokeError, KaasClient, KaasNetwork, KaasServer,
    KernelRegistry, RetryBudget, RetryBudgetConfig, ServerConfig, ShardConfig,
};
use kaas::kernels::{MonteCarlo, Value};
use kaas::net::{LinkProfile, SharedMemory};
use kaas::simtime::{now, spawn, Simulation};

async fn boot(config: ServerConfig) -> (KaasServer, KaasNetwork) {
    let devices: Vec<Device> = vec![GpuDevice::new(DeviceId(0), GpuProfile::v100()).into()];
    let registry = KernelRegistry::new();
    registry.register(MonteCarlo::default()).unwrap();
    let shm = SharedMemory::host();
    let server = KaasServer::new(devices, registry, shm, config);
    let net: KaasNetwork = KaasNetwork::new();
    spawn(server.clone().serve(net.listen("kaas").unwrap()));
    (server, net)
}

async fn connect(net: &KaasNetwork) -> KaasClient {
    KaasClient::connect(net, "kaas", LinkProfile::loopback())
        .await
        .unwrap()
}

/// The AIMD limiter tightens while observed queue wait exceeds the
/// target, never leaves its configured range, agrees with both the
/// snapshot and the `admission.limit` gauge, and climbs back once the
/// pressure clears.
#[test]
fn adaptive_limiter_tightens_under_pressure_and_recovers() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let aimd = AimdConfig::default()
            .with_target_queue_wait(Duration::from_millis(1))
            .with_limit_range(4, 64)
            .with_initial_limit(64)
            .with_cooldown(Duration::from_millis(2));
        let shard = ShardConfig {
            shards: 1,
            ..ShardConfig::default()
        };
        let config = ServerConfig::default()
            .with_dispatch(DispatchMode::Sharded(shard))
            .with_dispatch_overhead(Duration::from_millis(1))
            .with_adaptive_admission(aimd);
        let (server, net) = boot(config).await;
        server.prewarm("mci", 1).await.unwrap();

        // Flood: 16 closed-loop clients with zero think time against a
        // dispatch path that drains one job per millisecond keep the
        // single shard's queue wait well above the 1 ms target.
        let mut workers = Vec::new();
        for _ in 0..16 {
            let mut client = connect(&net).await;
            workers.push(spawn(async move {
                for _ in 0..20 {
                    let _ = client
                        .call("mci")
                        .arg(Value::U64(100))
                        .timeout(Duration::from_secs(2))
                        .send()
                        .await;
                }
            }));
        }
        for w in workers {
            w.await;
        }

        let snap = server.snapshot();
        let tightened = snap.admission_limit.expect("adaptive policy has a limit");
        assert!(
            tightened < 64,
            "sustained over-target queue wait must shrink the limit, got {tightened}"
        );
        assert!(tightened >= 4, "the limit must respect min_limit");
        assert_eq!(
            server.metrics_registry().gauge("admission.limit"),
            Some(tightened as f64),
            "the gauge must mirror the live limit"
        );

        // Recovery: a single sequential client observes ~zero queue
        // wait, so additive increase walks the limit back up.
        let mut client = connect(&net).await;
        for _ in 0..80 {
            client
                .call("mci")
                .arg(Value::U64(100))
                .send()
                .await
                .unwrap();
        }
        let recovered = server.snapshot().admission_limit.unwrap();
        assert!(
            recovered > tightened,
            "below-target queue wait must grow the limit back ({tightened} -> {recovered})"
        );
        assert!(recovered <= 64, "the limit must respect max_limit");
    });
}

/// Bounded queues shed honestly: expired work is ejected at dequeue
/// before it can reach placement, every ejection reaches the client as
/// a typed error, and the three accounting surfaces (per-shard metric,
/// snapshot, aggregate counter) agree exactly.
#[test]
fn bounded_queue_ejects_expired_work_before_placement() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let shard = ShardConfig {
            shards: 1,
            queue_cap: Some(4),
            ..ShardConfig::default()
        };
        let config = ServerConfig::default()
            .with_dispatch(DispatchMode::Sharded(shard))
            .with_dispatch_overhead(Duration::from_micros(500));
        let (server, net) = boot(config).await;
        server.prewarm("mci", 1).await.unwrap();

        // Ten simultaneous arrivals against a depth-4 queue draining at
        // one job per 500 µs: the tail of the queue expires before its
        // dequeue, the overflow is shed at the front door.
        let mut workers = Vec::new();
        for _ in 0..10 {
            let mut client = connect(&net).await;
            workers.push(spawn(async move {
                client
                    .call("mci")
                    .arg(Value::U64(1_000))
                    .deadline(Duration::from_micros(1_200))
                    .timeout(Duration::from_secs(1))
                    .send()
                    .await
            }));
        }
        let mut ok = 0usize;
        let mut deadline_exceeded = 0usize;
        let mut overloaded = 0usize;
        for w in workers {
            match w.await {
                Ok(_) => ok += 1,
                Err(InvokeError::DeadlineExceeded) => deadline_exceeded += 1,
                Err(InvokeError::Overloaded { retry_after }) => {
                    assert!(
                        retry_after.is_some(),
                        "server-side sheds must carry a retry_after hint"
                    );
                    overloaded += 1;
                }
                Err(e) => panic!("unexpected error under pure overload: {e:?}"),
            }
        }
        assert_eq!(ok + deadline_exceeded + overloaded, 10, "no lost requests");
        assert!(overloaded > 0, "the depth cap must shed at the front door");

        let snap = server.snapshot();
        let m = server.metrics_registry();
        let per_shard: u64 = snap.shard_ejected.iter().sum();
        assert!(
            snap.dispatch_ejected > 0,
            "queued work whose deadline expired must be ejected at dequeue: {snap:?}"
        );
        assert_eq!(per_shard, snap.dispatch_ejected);
        assert_eq!(snap.dispatch_ejected, m.counter("dispatch.ejected"));
        assert_eq!(snap.shard_ejected[0], m.counter("dispatch.shard.0.ejected"));
        // Overloaded errors map 1:1 to front-door depth-cap sheds
        // (admission is disabled here and arrivals were live, so no
        // other path produces them); the rest of the ejection count is
        // dequeue-time ejection of work that expired while queued.
        let dequeue_ejected = snap.dispatch_ejected - overloaded as u64;
        assert!(
            dequeue_ejected > 0,
            "expired queued work must be ejected at dequeue"
        );
        // Every ejection surfaced to its client as a typed error
        // (DeadlineExceeded may additionally come from work that
        // expired after dequeue, hence >=).
        assert!(deadline_exceeded as u64 >= dequeue_ejected);
        // Ejected work never reached placement: only the successes (and
        // the prewarm-free dispatch path) count as invocations.
        assert_eq!(m.counter("invocations"), ok as u64);
        assert_eq!(server.snapshot().total_in_flight(), 0);
    });
}

/// The `retry_after` hint is deterministic — two identical sheds quote
/// the identical pacing — and a budgeted client retry loop both honors
/// the hint and gives up (with an honest counter) once the budget runs
/// dry.
#[test]
fn retry_after_is_deterministic_and_budgets_cap_retries() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        let overhead = ServerConfig::default().dispatch_overhead;
        let config = ServerConfig::default().with_adaptive_admission(AimdConfig {
            min_limit: 0,
            max_limit: 0,
            initial_limit: 0,
            ..AimdConfig::default()
        });
        let (_server, net) = boot(config).await;

        // Two back-to-back sheds from an idle server quote the same
        // drain estimate: exactly one dispatch overhead.
        let mut plain = connect(&net).await;
        let mut hints = Vec::new();
        for _ in 0..2 {
            let err = plain
                .call("mci")
                .arg(Value::U64(1_000))
                .send()
                .await
                .unwrap_err();
            let InvokeError::Overloaded { retry_after } = err else {
                panic!("expected Overloaded, got {err:?}");
            };
            hints.push(retry_after.expect("sheds carry a hint"));
        }
        assert_eq!(hints[0], hints[1], "same state must quote the same hint");
        assert_eq!(hints[0], overhead);

        // A budgeted retry loop: full bucket of 2 tokens, so attempts
        // 2 and 3 run and attempt 4 is denied — surfaced on the
        // client-local registry, never silently swallowed.
        let budget = Rc::new(RetryBudget::new(
            RetryBudgetConfig::default()
                .with_ratio_pct(10)
                .with_burst(2),
        ));
        let mut budgeted = connect(&net)
            .await
            .with_retry(ClientRetryConfig::new(8).with_budget(Rc::clone(&budget)));
        let start = now();
        let err = budgeted
            .call("mci")
            .arg(Value::U64(1_000))
            .send()
            .await
            .unwrap_err();
        assert!(matches!(err, InvokeError::Overloaded { .. }));
        assert_eq!(
            budgeted
                .metrics_registry()
                .counter("retries.budget_exhausted"),
            1
        );
        assert_eq!(budget.exhausted(), 1);
        // Both retries were paced by the server's hint even though the
        // client itself configured no backoff.
        assert!(
            now().saturating_since(start) >= 2 * overhead,
            "retries must wait at least the server-quoted retry_after"
        );
    });
}

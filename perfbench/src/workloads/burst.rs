//! `burst` — the controlled overload scenario: a near-knee base load on
//! a single dispatch shard, then a 10× client burst, with AIMD
//! admission, bounded queues with deadline ejection, and budgeted,
//! hint-paced client retries.
//!
//! It mirrors `kaas_bench::overload` (controlled side, full timeline)
//! with two changes: every think pause carries seeded ±20 % jitter, so
//! the seed moves the schedule, and each request is timed client-side.
//! It is the only workload where requests fail by design; sheds,
//! ejections and timeouts are expected outcomes, anything else is wrong.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use kaas_bench::common::{connect_local, experiment_server_config, v100_cluster};
use kaas_core::{
    AimdConfig, ClientRetryConfig, DispatchMode, ExponentialBackoff, InvokeError, KaasClient,
    RetryBudget, RetryBudgetConfig, RoundRobin, RunnerConfig, ServerConfig, ShardConfig,
};
use kaas_kernels::{MonteCarlo, Value};
use kaas_simtime::rng::{stream_rng, DetRng};
use kaas_simtime::{now, sleep, spawn, SimTime, Simulation};

use super::storm::mci_ok;
use super::{
    busy_seconds, connect_measured, deploy, prewarm, server_metrics, spawn_client, timed, Ledger,
    Measure, SharedLedger,
};
use crate::host::Recorder;
use crate::{put, HostPass, Outcome};

/// Four V100s behind one dispatch shard.
pub const GPUS: u32 = 4;
/// Monte-Carlo samples per call.
pub const SAMPLES: u64 = 1_000;
/// Per-dispatch overhead: one shard serves at most 5,000 calls/s.
pub const OVERHEAD: Duration = Duration::from_micros(200);
/// Per-attempt deadline and round-trip timeout; also the latency limit.
pub const DEADLINE: Duration = Duration::from_millis(3);
/// Goodput accounting window.
pub const WINDOW: Duration = Duration::from_millis(100);
/// Windows in the horizon; the burst covers `[300 ms, 450 ms)`.
pub const WINDOWS: usize = 10;
const BURST_FROM: Duration = Duration::from_millis(300);
const BURST_LEN: Duration = Duration::from_millis(150);
/// Steady base fleet (≈72 % of the dispatch ceiling).
pub const BASE_CLIENTS: usize = 20;
const BASE_THINK: Duration = Duration::from_millis(5);
/// The trigger: ten times the base fleet.
pub const BURST_CLIENTS: usize = 200;
const BURST_THINK: Duration = Duration::from_millis(2);

fn config() -> ServerConfig {
    let shard = ShardConfig {
        shards: 1,
        queue_cap: Some(32),
        ..ShardConfig::default()
    };
    experiment_server_config()
        .with_scheduler(RoundRobin::default())
        .with_autoscale(false)
        .with_dispatch_overhead(OVERHEAD)
        .with_dispatch(DispatchMode::Sharded(shard))
        .with_runner(RunnerConfig {
            max_inflight: 16,
            ..RunnerConfig::default()
        })
        .with_adaptive_admission(
            AimdConfig::default()
                .with_target_queue_wait(Duration::from_millis(1))
                .with_limit_range(4, 32)
                .with_initial_limit(16)
                .with_cooldown(Duration::from_millis(5)),
        )
}

fn retry(seed: u64, stream: u64, budget: &Rc<RetryBudget>) -> ClientRetryConfig {
    ClientRetryConfig::new(4)
        .with_backoff(
            ExponentialBackoff::new(Duration::from_millis(1)).with_jitter(0.5, seed ^ stream),
        )
        .with_budget(Rc::clone(budget))
}

/// A think pause of `base` ± 20 %.
fn jittered(rng: &mut DetRng, base: Duration) -> Duration {
    base.mul_f64(rng.gen_range(0.8..1.2))
}

struct Loop {
    start: SimTime,
    stop: SimTime,
    think: Duration,
    rng: DetRng,
    ledger: SharedLedger,
    goodput: Rc<RefCell<Vec<u64>>>,
}

async fn client_loop(mut client: KaasClient, mut lp: Loop) -> KaasClient {
    while now() < lp.stop {
        let t0 = now();
        let res = client
            .call("mci")
            .arg(Value::U64(SAMPLES))
            .deadline(DEADLINE)
            .timeout(DEADLINE)
            .send()
            .await;
        {
            let mut l = lp.ledger.borrow_mut();
            match res {
                Ok(inv) => match mci_ok(&inv.output) {
                    Some(bits) => {
                        l.output(bits);
                        l.invocation(&inv);
                        l.ok(now() - t0);
                        let w = (now().saturating_since(lp.start).as_nanos() / WINDOW.as_nanos())
                            as usize;
                        if let Some(g) = lp.goodput.borrow_mut().get_mut(w) {
                            *g += 1;
                        }
                    }
                    None => l.wrong(),
                },
                Err(
                    e @ (InvokeError::Overloaded { .. }
                    | InvokeError::TimedOut
                    | InvokeError::DeadlineExceeded),
                ) => l.rejected(e.kind()),
                Err(_) => l.wrong(),
            }
        }
        sleep(jittered(&mut lp.rng, lp.think)).await;
    }
    client
}

/// Requests one pass is expected to settle (for the RSS quartiles).
const EXPECTED_REQUESTS: u64 = 6_000;

/// One burst pass.
pub fn pass(seed: u64, rec: &Rc<Recorder>, _verify: bool) -> Outcome {
    let rec = Rc::clone(rec);
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let mut host = HostPass::default();
        let dep = timed(&mut host.setup.deploy, || {
            deploy(
                v100_cluster(GPUS),
                vec![Rc::new(MonteCarlo::seeded(seed))],
                config(),
                &rec,
            )
        });
        prewarm(&mut host, &dep.server, &[("mci", GPUS as usize)]).await;
        let budget = Rc::new(RetryBudget::new(RetryBudgetConfig::default()));
        let total = (BASE_CLIENTS + BURST_CLIENTS) as u64;
        let (base, burst) = connect_measured(&mut host, total, async {
            let mut base = Vec::new();
            for i in 0..BASE_CLIENTS as u64 {
                base.push(dep.local_client().await.with_retry(retry(seed, i, &budget)));
            }
            let mut burst = Vec::new();
            for i in 0..BURST_CLIENTS as u64 {
                let c = connect_local(&dep.net, dep.shm.clone()).await;
                burst.push(c.with_retry(retry(seed, 1000 + i, &budget)));
            }
            (base, burst)
        })
        .await;
        let rngs: Vec<DetRng> = timed(&mut host.setup.inputs, || {
            (0..total).map(|i| stream_rng(seed, i)).collect()
        });
        let ledger = Ledger::shared(DEADLINE, EXPECTED_REQUESTS);
        let goodput = Rc::new(RefCell::new(vec![0u64; WINDOWS]));

        let measure = Measure::begin(&rec);
        let busy0 = busy_seconds(&dep.server);
        let start = now();
        let stop = start + WINDOW * WINDOWS as u32;
        // The admission ceiling's low-water mark, sampled every 5 ms.
        let limit_min = Rc::new(Cell::new(u64::MAX));
        let monitor = spawn({
            let server = dep.server.clone();
            let limit_min = Rc::clone(&limit_min);
            async move {
                while now() < stop {
                    if let Some(l) = server.snapshot().admission_limit {
                        limit_min.set(limit_min.get().min(l as u64));
                    }
                    sleep(Duration::from_millis(5)).await;
                }
            }
        });
        let mut rngs = rngs.into_iter();
        let mut handles = Vec::new();
        for (i, client) in base.into_iter().enumerate() {
            let lp = Loop {
                start,
                stop,
                think: BASE_THINK,
                rng: rngs.next().expect("one stream per client"),
                ledger: Rc::clone(&ledger),
                goodput: Rc::clone(&goodput),
            };
            handles.push(spawn_client(&rec, i as u64, client_loop(client, lp)));
        }
        // The trigger: the burst fleet joins after the steady phase and
        // leaves after the burst window.
        let burst_handle = spawn({
            let rec = Rc::clone(&rec);
            let ledger = Rc::clone(&ledger);
            let goodput = Rc::clone(&goodput);
            let rngs: Vec<DetRng> = rngs.collect();
            async move {
                sleep((start + BURST_FROM).saturating_since(now())).await;
                let mut inner = Vec::new();
                for (i, (client, rng)) in burst.into_iter().zip(rngs).enumerate() {
                    let lp = Loop {
                        start,
                        stop: start + BURST_FROM + BURST_LEN,
                        think: BURST_THINK,
                        rng,
                        ledger: Rc::clone(&ledger),
                        goodput: Rc::clone(&goodput),
                    };
                    let id = (BASE_CLIENTS + i) as u64;
                    inner.push(spawn_client(&rec, id, client_loop(client, lp)));
                }
                let mut back = Vec::new();
                for h in inner {
                    back.push(h.await);
                }
                back
            }
        });
        let mut clients = Vec::new();
        for h in handles {
            clients.push(h.await);
        }
        clients.extend(burst_handle.await);
        monitor.await;
        let window = now() - start;
        measure.end(&rec, &mut host);
        // Let the backlog drain before the server drops (outside the
        // measured phase: nothing is issued any more).
        sleep(Duration::from_secs(3)).await;

        let attempts: u64 = clients.iter().map(|c| c.requests_sent()).sum();
        let l = ledger.borrow();
        let mut virt = l.metrics(l.succeeded(), window);
        virt.extend(server_metrics(&dep.server, &busy0, window));
        let g = goodput.borrow();
        let mean = |w: &[u64]| w.iter().sum::<u64>() as f64 / w.len() as f64;
        let pre = mean(&g[..(BURST_FROM.as_millis() / WINDOW.as_millis()) as usize]);
        let post = mean(&g[WINDOWS - 2..]);
        put(&mut virt, "recovery_pct", 100.0 * post / pre.max(1.0), "%");
        let limit = limit_min.get();
        put(
            &mut virt,
            "admission.limit.min",
            if limit == u64::MAX { 0.0 } else { limit as f64 },
            "count",
        );
        put(
            &mut virt,
            "retry_amplification",
            attempts as f64 / l.requests().max(1) as f64,
            "ratio",
        );
        put(
            &mut virt,
            "retries.budget_exhausted",
            budget.exhausted() as f64,
            "count",
        );
        l.outcome(virt, attempts, host)
    })
}

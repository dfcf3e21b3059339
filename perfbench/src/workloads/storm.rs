//! `storm` — a closed loop of up to 1,024 simulated clients sending
//! 16-call wire batches of MCI (1,000 samples) to eight prewarmed V100s
//! under the default sharded dispatcher.
//!
//! The clients climb a short ladder (16, 128, 1,024 concurrent clients).
//! Each client starts after a seeded offset and thinks a seeded pause
//! between batches, so the seed moves every virtual latency a little.
//! Host time here goes to the client, front door, shard workers,
//! runners, net and executor; kernel `execute` is a small share.

use std::rc::Rc;
use std::time::Duration;

use kaas_bench::common::{experiment_server_config, v100_cluster};
use kaas_core::{BatchCall, DispatchMode, KaasClient, RoundRobin, RunnerConfig, ServerConfig};
use kaas_kernels::{MonteCarlo, Value};
use kaas_simtime::rng::stream_rng;
use kaas_simtime::{now, sleep, Simulation};

use super::{
    busy_seconds, deploy, local_clients, prewarm, server_metrics, spawn_client, timed, Ledger,
    Measure, SharedLedger,
};
use crate::host::Recorder;
use crate::stats::{ms, quantile};
use crate::{put, HostPass, Outcome};

/// The testbed: eight V100s.
pub const GPUS: u32 = 8;
/// Monte-Carlo samples per call.
pub const SAMPLES: u64 = 1_000;
/// Calls per wire batch.
pub const BATCH: usize = 16;
/// `(concurrent clients, batches per client)` per ladder step.
pub const LADDER: [(usize, usize); 3] = [(16, 64), (128, 16), (1024, 4)];
/// The virtual latency limit on a call's p99.
pub const SLO: Duration = Duration::from_millis(8);
/// How far an MCI estimate may sit from ln 10 (about 7 standard errors
/// at 1,000 samples).
pub const MCI_TOLERANCE: f64 = 0.4;

fn config() -> ServerConfig {
    experiment_server_config()
        .with_scheduler(RoundRobin::default())
        .with_autoscale(false)
        .with_dispatch(DispatchMode::default())
        .with_runner(RunnerConfig {
            max_inflight: 16,
            ..RunnerConfig::default()
        })
}

/// Total calls one pass issues.
pub fn calls() -> u64 {
    LADDER.iter().map(|&(c, b)| (c * b * BATCH) as u64).sum()
}

/// One client's schedule for one ladder step: start offset, then the
/// pause after each batch.
#[derive(Debug, Clone)]
struct Plan {
    start: Duration,
    think: Vec<Duration>,
}

fn plans(seed: u64) -> Vec<Vec<Plan>> {
    LADDER
        .iter()
        .enumerate()
        .map(|(step, &(clients, batches))| {
            (0..clients)
                .map(|c| {
                    let mut rng = stream_rng(seed, ((step as u64) << 32) | c as u64);
                    Plan {
                        start: Duration::from_nanos(rng.gen_range(0..500_000)),
                        think: (0..batches)
                            .map(|_| Duration::from_nanos(rng.gen_range(0..200_000)))
                            .collect(),
                    }
                })
                .collect()
        })
        .collect()
}

/// Whether an MCI output is a correct estimate of ∫₁¹⁰ dx/x = ln 10.
pub fn mci_ok(out: &Value) -> Option<u64> {
    match out.payload() {
        Value::F64(v) if (v - 10f64.ln()).abs() < MCI_TOLERANCE => Some(v.to_bits()),
        _ => None,
    }
}

async fn client_loop(mut client: KaasClient, plan: Plan, ledger: SharedLedger) -> KaasClient {
    sleep(plan.start).await;
    for think in plan.think {
        let mut batch = client.batch();
        for _ in 0..BATCH {
            batch = batch.call(BatchCall::new("mci").arg(Value::U64(SAMPLES)));
        }
        let t0 = now();
        let reply = batch.send().await;
        let latency = now() - t0;
        {
            let mut l = ledger.borrow_mut();
            match reply {
                Ok(members) => {
                    for member in members {
                        match member {
                            Ok(inv) => match mci_ok(&inv.output) {
                                Some(bits) => {
                                    l.output(bits);
                                    l.invocation(&inv);
                                    l.ok(latency);
                                }
                                None => l.wrong(),
                            },
                            Err(_) => l.wrong(),
                        }
                    }
                }
                Err(_) => (0..BATCH).for_each(|_| l.wrong()),
            }
        }
        sleep(think).await;
    }
    client
}

/// One storm pass.
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
        let top = LADDER[LADDER.len() - 1].0;
        let mut clients = local_clients(&mut host, &dep, top).await;
        let plans = timed(&mut host.setup.inputs, || plans(seed));
        let ledger = Ledger::shared(SLO, calls());

        let measure = Measure::begin(&rec);
        let busy0 = busy_seconds(&dep.server);
        let start = now();
        let mut steps = Vec::new();
        for step_plans in plans {
            let before = ledger.borrow().succeeded();
            let lat_from = ledger.borrow().lat_len();
            let t0 = now();
            let mut idle = clients.split_off(step_plans.len());
            let handles: Vec<_> = clients
                .into_iter()
                .zip(step_plans)
                .enumerate()
                .map(|(i, (client, plan))| {
                    spawn_client(
                        &rec,
                        i as u64,
                        client_loop(client, plan, Rc::clone(&ledger)),
                    )
                })
                .collect();
            let mut back = Vec::with_capacity(handles.len() + idle.len());
            for h in handles {
                back.push(h.await);
            }
            back.append(&mut idle);
            clients = back;
            let elapsed = (now() - t0).as_secs_f64();
            let l = ledger.borrow();
            let p99 = quantile(&ms(l.lat_since(lat_from)), 0.99);
            steps.push(((l.succeeded() - before) as f64 / elapsed, p99));
        }
        let window = now() - start;
        measure.end(&rec, &mut host);

        let attempts: u64 = clients.iter().map(|c| c.requests_sent()).sum();
        let l = ledger.borrow();
        let mut virt = l.metrics(l.succeeded(), window);
        virt.extend(server_metrics(&dep.server, &busy0, window));
        for (i, &(tput, p99)) in steps.iter().enumerate() {
            let clients = LADDER[i].0;
            put(
                &mut virt,
                &format!("ladder.{clients}.throughput_inv_s"),
                tput,
                "1/s",
            );
            put(&mut virt, &format!("ladder.{clients}.p99_ms"), p99, "ms");
        }
        let knee = steps
            .iter()
            .filter(|&&(_, p99)| p99 <= SLO.as_secs_f64() * 1e3)
            .map(|&(t, _)| t)
            .fold(0.0, f64::max);
        put(&mut virt, "virt_knee_inv_s", knee, "1/s");
        put(
            &mut virt,
            "retry_amplification",
            attempts as f64 / calls() as f64,
            "ratio",
        );
        l.outcome(virt, attempts, host)
    })
}

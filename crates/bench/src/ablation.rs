//! Ablation studies for the design choices DESIGN.md calls out and the
//! paper's §6 future-work directions: scheduling policy, kernel fusion,
//! transport fabric, and idle scale-down.

use std::rc::Rc;
use std::time::Duration;

use kaas_core::{fuse, FillFirst, KaasClient, LeastLoaded, RoundRobin, Scheduler, WarmFirst};
use kaas_kernels::{GaGeneration, Kernel, MatMul, Value, GENERATIONS};
use kaas_net::LinkProfile;
use kaas_simtime::{now, spawn, Simulation};

use crate::common::{deploy, experiment_server_config, p100_cluster, Figure, Series};
use crate::fig06::mm_input;

/// Makespan of a burst of `tasks` concurrent matmuls under a scheduler,
/// plus how many runners ended up used.
pub fn scheduler_burst(scheduler: impl Into<Scheduler>, tasks: usize, n: u64) -> (f64, usize) {
    let scheduler = scheduler.into();
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let config = experiment_server_config().with_scheduler(scheduler);
        let dep = deploy(p100_cluster(), vec![Rc::new(MatMul::new())], config);
        dep.server.prewarm("matmul", 4).await.expect("prewarm");
        let start = now();
        let mut handles = Vec::new();
        for _ in 0..tasks {
            let mut client = dep.local_client().await;
            handles.push(spawn(async move {
                client
                    .call("matmul")
                    .arg(mm_input(n))
                    .out_of_band()
                    .send()
                    .await
                    .expect("invocation succeeds")
                    .report
                    .runner
            }));
        }
        let mut used = std::collections::BTreeSet::new();
        for h in handles {
            used.insert(h.await);
        }
        ((now() - start).as_secs_f64(), used.len())
    })
}

/// Total time of a ten-generation GA with a given fusion factor
/// (1 = unfused, 2 = pairs, 5 = quintuples).
pub fn fusion_run(factor: usize) -> f64 {
    assert!(
        (GENERATIONS as usize).is_multiple_of(factor),
        "factor must divide 10"
    );
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let stages: Vec<Rc<dyn Kernel>> = (0..factor)
            .map(|i| Rc::new(GaGeneration::seeded(100 + i as u64)) as Rc<dyn Kernel>)
            .collect();
        let kernel: Rc<dyn Kernel> = if factor == 1 {
            stages[0].clone()
        } else {
            Rc::new(fuse("ga-fused", stages).expect("same class"))
        };
        let name = kernel.name().to_owned();
        let dep = deploy(p100_cluster(), vec![kernel], experiment_server_config());
        dep.server.prewarm(&name, 1).await.expect("prewarm");
        let mut client = dep.local_client().await;
        let t0 = now();
        let mut pop = Value::U64(2048);
        for _ in 0..(GENERATIONS as usize / factor) {
            pop = client
                .call(&name)
                .arg(pop)
                .out_of_band()
                .send()
                .await
                .expect("generation")
                .output;
        }
        (now() - t0).as_secs_f64()
    })
}

/// Remote ten-generation GA over a given fabric.
pub fn transport_run(profile: LinkProfile) -> f64 {
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let dep = deploy(
            p100_cluster(),
            vec![Rc::new(GaGeneration::seeded(5)) as Rc<dyn Kernel>],
            experiment_server_config(),
        );
        dep.server.prewarm("ga", 1).await.expect("prewarm");
        let mut client = KaasClient::connect(&dep.net, crate::common::KAAS_ADDR, profile)
            .await
            .expect("listening")
            .with_serialization(kaas_net::SerializationProfile::numpy());
        let t0 = now();
        let mut pop = Value::U64(2048);
        for _ in 0..GENERATIONS {
            pop = client
                .call("ga")
                .arg(pop)
                .send()
                .await
                .expect("generation")
                .output;
        }
        (now() - t0).as_secs_f64()
    })
}

/// Energy & cold-start trade-off of the idle reaper over a bursty day:
/// returns (reaped runners, cold starts, GPU energy in joules).
pub fn reaper_run(idle_timeout: Option<Duration>) -> (usize, u64, f64) {
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let config = experiment_server_config().with_idle_timeout(idle_timeout);
        let dep = deploy(p100_cluster(), vec![Rc::new(MatMul::new())], config);
        let mut client = dep.local_client().await;
        let start = now();
        // Three bursts separated by long idle gaps.
        for burst in 0..3 {
            for _ in 0..5 {
                client
                    .call("matmul")
                    .arg(mm_input(2000))
                    .out_of_band()
                    .send()
                    .await
                    .expect("invocation succeeds");
            }
            if burst < 2 {
                kaas_simtime::sleep(Duration::from_secs(600)).await;
            }
        }
        let window = now() - start;
        let energy: f64 = dep
            .server
            .devices()
            .iter()
            .map(|d| d.as_gpu().energy_joules(window))
            .sum();
        (
            dep.server.snapshot().reaped,
            dep.server.metrics_registry().counter("cold_starts"),
            energy,
        )
    })
}

/// Runs all four ablations and reports them as one figure-like table.
pub fn run(_quick: bool) -> Vec<Figure> {
    let mut fig = Figure::new(
        "ablation",
        "Design ablations: scheduler, fusion, transport, idle reaping",
        "variant index",
        "seconds (or see note)",
    );

    let mut sched = Series::new("scheduler makespan (12 tasks, MM 5000)");
    let policies = [
        FillFirst,
        RoundRobin::default().into(),
        LeastLoaded,
        WarmFirst,
    ];
    for (i, policy) in policies.into_iter().enumerate() {
        let name = policy.name();
        let (makespan, used) = scheduler_burst(policy, 12, 5_000);
        sched.push(i as f64, makespan);
        fig.note(format!(
            "scheduler {name}: makespan {makespan:.3}s on {used} runners"
        ));
    }
    fig.series.push(sched);

    let mut fusion = Series::new("GA total by fusion factor");
    for (i, factor) in [1usize, 2, 5].into_iter().enumerate() {
        let t = fusion_run(factor);
        fusion.push(i as f64, t);
        fig.note(format!("fusion x{factor}: 10 generations in {t:.3}s"));
    }
    fig.series.push(fusion);

    let mut transport = Series::new("remote GA by fabric");
    for (i, (label, profile)) in [
        ("loopback", LinkProfile::loopback()),
        ("tcp-1g", LinkProfile::lan_1gbps()),
        ("rdma-100g", LinkProfile::rdma_100g()),
    ]
    .into_iter()
    .enumerate()
    {
        let t = transport_run(profile);
        transport.push(i as f64, t);
        fig.note(format!("transport {label}: {t:.3}s"));
    }
    fig.series.push(transport);

    for (label, timeout) in [
        ("keep-warm", None),
        ("reap-5min", Some(Duration::from_secs(300))),
    ] {
        let (reaped, cold, energy) = reaper_run(timeout);
        fig.note(format!(
            "reaper {label}: {reaped} reaped, {cold} cold starts, {energy:.0} J GPU energy"
        ));
    }
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_first_consolidates_round_robin_spreads() {
        let (_, ff_used) = scheduler_burst(FillFirst, 6, 2_000);
        let (_, rr_used) = scheduler_burst(RoundRobin::default(), 6, 2_000);
        assert!(ff_used < rr_used, "ff={ff_used}, rr={rr_used}");
    }

    #[test]
    fn round_robin_wins_bursty_makespan() {
        // Spreading a burst across runners beats packing it.
        let (ff, _) = scheduler_burst(FillFirst, 12, 9_000);
        let (rr, _) = scheduler_burst(RoundRobin::default(), 12, 9_000);
        assert!(rr <= ff * 1.05, "rr={rr}, ff={ff}");
    }

    #[test]
    fn deeper_fusion_is_monotonically_faster() {
        let t1 = fusion_run(1);
        let t2 = fusion_run(2);
        let t5 = fusion_run(5);
        assert!(t2 < t1, "x2 {t2} !< x1 {t1}");
        assert!(t5 < t2, "x5 {t5} !< x2 {t2}");
    }

    #[test]
    fn faster_fabrics_cut_remote_time() {
        let tcp = transport_run(LinkProfile::lan_1gbps());
        let rdma = transport_run(LinkProfile::rdma_100g());
        let loopback = transport_run(LinkProfile::loopback());
        assert!(rdma < tcp, "rdma {rdma} !< tcp {tcp}");
        assert!(loopback < tcp, "loopback {loopback} !< tcp {tcp}");
        // An RDMA fabric approaches loopback cost (§6: it would "further
        // reduce the invocation overhead").
        assert!((rdma - loopback).abs() / loopback < 0.05);
    }

    #[test]
    fn reaping_trades_cold_starts_for_released_capacity() {
        let (reaped_off, cold_off, energy_off) = reaper_run(None);
        let (reaped_on, cold_on, energy_on) = reaper_run(Some(Duration::from_secs(300)));
        assert_eq!(reaped_off, 0);
        assert!(reaped_on >= 1, "idle gaps must trigger reaps");
        assert!(cold_on > cold_off, "reaping forces re-warms");
        // Our power model does not model power-gating of reaped
        // contexts, so energy stays in the same ballpark — the recovered
        // resource here is the device slot, not watts.
        let rel = (energy_on - energy_off).abs() / energy_off;
        assert!(rel < 0.05, "energy drift {rel}");
    }
}

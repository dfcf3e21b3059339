//! Server-side dataflow benchmark: registered workflow pipelines vs
//! client-driven step-by-step invocation.
//!
//! The Fig. 11 remote scenario pays the 1 Gbps link twice per GA
//! generation — the population ships client→server and back on every
//! step. A registered flow collapses the whole pipeline into one round
//! trip: the trigger input crosses the link once, intermediates chain
//! device-resident on the server (zero `copy_in` on every downstream
//! step), and only the final population returns.
//!
//! Two experiments:
//!
//! 1. **GA, 10 generations over 1 Gbps** — total task time per driving
//!    mode, over population size (the fig11-style sweep).
//! 2. **Pipeline depth** — total time as the chain grows; client-driven
//!    network cost scales with depth, the flow's stays flat.

use std::rc::Rc;
use std::time::Duration;

use kaas_core::Workflow;
use kaas_kernels::{GaGeneration, Kernel, Value, GENERATIONS};
use kaas_simtime::{now, Simulation};

use crate::common::{deploy, experiment_server_config, p100_cluster, Figure, Series};

/// Who walks the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// The remote client invokes every step itself, shipping each
    /// intermediate both ways over the link.
    ClientDriven,
    /// The pipeline is registered once as a server-side flow and
    /// triggered with a single request.
    RegisteredFlow,
}

impl Driver {
    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Driver::ClientDriven => "Client-driven (per-step RPC)",
            Driver::RegisteredFlow => "Registered flow (1 round trip)",
        }
    }

    /// Both modes in legend order.
    pub fn all() -> [Driver; 2] {
        [Driver::ClientDriven, Driver::RegisteredFlow]
    }
}

/// One measured pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct FlowRunStats {
    /// End-to-end task time in seconds.
    pub total: f64,
    /// Request round trips the client paid (registration excluded).
    pub round_trips: usize,
    /// Summed host→device copy time across all steps.
    pub copy_in: Duration,
    /// Steps that consumed a device-resident intermediate.
    pub chained: usize,
}

/// Runs `steps` GA generations on a population of size `n` over the
/// paper's 1 Gbps remote link, driven per `mode`.
pub fn run_pipeline(mode: Driver, n: u64, steps: usize) -> FlowRunStats {
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let dep = deploy(
            p100_cluster(),
            vec![Rc::new(GaGeneration::default()) as Rc<dyn Kernel>],
            experiment_server_config(),
        );
        dep.server.prewarm("ga", 1).await.expect("prewarm");
        let mut client = dep.remote_client().await;
        match mode {
            Driver::ClientDriven => {
                let t0 = now();
                let mut pop = Value::U64(n);
                let mut copy_in = Duration::ZERO;
                for _ in 0..steps {
                    let inv = client.call("ga").arg(pop).send().await.expect("ga runs");
                    copy_in += inv.report.copy_in;
                    pop = inv.output;
                }
                FlowRunStats {
                    total: (now() - t0).as_secs_f64(),
                    round_trips: steps,
                    copy_in,
                    chained: 0,
                }
            }
            Driver::RegisteredFlow => {
                let wf = Workflow::linear("evolve", vec!["ga"; steps]).expect("non-empty");
                let handle = client.register_workflow(&wf).await.expect("registration");
                let t0 = now();
                let sent = client.requests_sent();
                let run = client
                    .flow(&handle)
                    .input(Value::U64(n))
                    .send()
                    .await
                    .expect("flow runs");
                let copy_in = run
                    .report
                    .steps
                    .iter()
                    .filter_map(|s| s.report.as_ref())
                    .map(|r| r.copy_in)
                    .sum();
                FlowRunStats {
                    total: (now() - t0).as_secs_f64(),
                    round_trips: (client.requests_sent() - sent) as usize,
                    copy_in,
                    chained: run.chained_hits(),
                }
            }
        }
    })
}

/// Runs the two dataflow experiments.
pub fn run(quick: bool) -> Vec<Figure> {
    let mut figures = Vec::new();

    // 1. The fig11-style sweep: 10 generations over population size.
    let sizes: &[u64] = if quick {
        &[512, 4096]
    } else {
        &[128, 512, 2048, 4096, 8192]
    };
    let steps = GENERATIONS as usize;
    let mut ga = Figure::new(
        "dataflow-ga",
        "GA, 10 generations over 1 Gbps: per-step RPC vs registered flow",
        "population size N",
        "task completion time (s)",
    );
    let mut flow_stats = None;
    for mode in Driver::all() {
        let mut series = Series::new(mode.label());
        for &n in sizes {
            let stats = run_pipeline(mode, n, steps);
            series.push(n as f64, stats.total);
            if mode == Driver::RegisteredFlow {
                flow_stats = Some(stats);
            }
        }
        ga.series.push(series);
    }
    let rpc = ga.series(Driver::ClientDriven.label()).unwrap().last_y();
    let flow = ga.series(Driver::RegisteredFlow.label()).unwrap().last_y();
    let fs = flow_stats.expect("flow mode measured");
    ga.note(format!(
        "the registered flow removes {:.1}% of the remote task time at N={} \
         ({} round trips -> {}, {} of {} steps chained device-resident)",
        crate::common::reduction_pct(rpc, flow),
        sizes.last().unwrap(),
        steps,
        fs.round_trips,
        fs.chained,
        steps,
    ));
    ga.note(format!(
        "total copy_in across the {steps}-step flow: {:.3} ms (first upload only)",
        fs.copy_in.as_secs_f64() * 1e3
    ));
    figures.push(ga);

    // 2. Depth sweep: network cost vs pipeline length.
    let depths: &[usize] = if quick { &[2, 8] } else { &[1, 2, 4, 8, 16] };
    let n = 4096;
    let mut depth = Figure::new(
        "dataflow-depth",
        "Pipeline depth at N=4096: link crossings scale with steps only when the client drives",
        "pipeline steps",
        "task completion time (s)",
    );
    for mode in Driver::all() {
        let mut series = Series::new(mode.label());
        for &d in depths {
            series.push(d as f64, run_pipeline(mode, n, d).total);
        }
        depth.series.push(series);
    }
    let rpc_growth = depth.series(Driver::ClientDriven.label()).unwrap();
    let flow_growth = depth.series(Driver::RegisteredFlow.label()).unwrap();
    depth.note(format!(
        "growing the chain from {} to {} steps costs the client-driven mode \
         {:.3} s and the flow {:.3} s",
        depths.first().unwrap(),
        depths.last().unwrap(),
        rpc_growth.last_y() - rpc_growth.first_y(),
        flow_growth.last_y() - flow_growth.first_y(),
    ));
    figures.push(depth);

    figures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_flow_beats_client_driven_remote() {
        let rpc = run_pipeline(Driver::ClientDriven, 4096, GENERATIONS as usize);
        let flow = run_pipeline(Driver::RegisteredFlow, 4096, GENERATIONS as usize);
        assert!(
            flow.total < rpc.total,
            "flow {}s must beat per-step RPC {}s",
            flow.total,
            rpc.total
        );
        assert_eq!(flow.round_trips, 1);
        assert_eq!(flow.chained, GENERATIONS as usize - 1);
    }

    #[test]
    fn chained_steps_upload_once() {
        let flow = run_pipeline(Driver::RegisteredFlow, 2048, 8);
        let rpc = run_pipeline(Driver::ClientDriven, 2048, 8);
        // The flow pays one host→device copy (the trigger input); the
        // client-driven chain re-uploads the population every step.
        assert!(
            flow.copy_in < rpc.copy_in / 4,
            "flow copy_in {:?} vs client-driven {:?}",
            flow.copy_in,
            rpc.copy_in
        );
    }

    #[test]
    fn quick_run_is_deterministic() {
        let csv = |figs: Vec<Figure>| {
            figs.iter()
                .map(|f| f.to_csv())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = csv(run(true));
        let b = csv(run(true));
        assert_eq!(a, b, "bench must replay byte-identically");
    }
}

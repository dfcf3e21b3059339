//! Cluster-scale dispatch experiment: thousands of closed-loop clients
//! driving 10⁵+ invocations of a tiny GPU kernel against eight V100s.
//!
//! This is the router-contention study behind the Fig. 12b caveat: the
//! paper's prototype saturates its dispatcher near 64 000 dispatches,
//! and our historical serialized router (the one-shard layout of
//! [`serialized_router`]) has the same shape — throughput climbs with
//! client count until it knees at `1 / dispatch_overhead ≈ 28.6 k`
//! invocations/s, then goes flat. The default shard layout plus
//! client-side wire batching
//! ([`KaasClient::batch`](kaas_core::KaasClient::batch)) overlaps the
//! routing cost across per-device shard queues and amortizes the frame
//! header, moving the knee by ≥4× on the same testbed.

use std::rc::Rc;
use std::time::Duration;

use kaas_core::{BatchCall, DispatchMode, RoundRobin, RunnerConfig, ServerConfig, ShardConfig};
use kaas_kernels::{MonteCarlo, Value};
use kaas_simtime::{now, spawn, Simulation};

use crate::common::{deploy, experiment_server_config, v100_cluster, Figure, Series};

/// The §5.4 testbed: eight V100s.
pub const GPUS: u32 = 8;
/// Monte-Carlo samples per invocation — small on purpose: the study
/// stresses the dispatch path, not the device.
pub const SAMPLES: u64 = 1_000;
/// Wire-batch size for the sharded+batched configuration.
pub const BATCH: usize = 16;

/// One measured operating point of the load sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSample {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Total invocations completed.
    pub invocations: u64,
    /// Simulated seconds from first issue to last reply.
    pub elapsed_s: f64,
    /// Invocations per simulated second.
    pub throughput: f64,
}

/// The server configuration for one operating point: prewarmed-only
/// capacity (no autoscaler noise), round-robin placement, and a
/// generous per-runner in-flight cap so the dispatcher — not runner
/// admission — is the contended resource.
fn cluster_config(layout: ShardConfig) -> ServerConfig {
    experiment_server_config()
        .with_scheduler(RoundRobin::default())
        .with_autoscale(false)
        .with_dispatch(DispatchMode::Sharded(layout))
        .with_runner(RunnerConfig {
            max_inflight: 16,
            ..RunnerConfig::default()
        })
}

/// Runs `clients` closed-loop clients, each issuing `per_client`
/// invocations of the MCI kernel, and measures aggregate throughput.
///
/// `batch == 1` issues one request per wire frame (the historical
/// protocol); `batch > 1` coalesces that many calls per frame through
/// [`KaasClient::batch`](kaas_core::KaasClient::batch).
pub fn run_load(
    layout: ShardConfig,
    clients: usize,
    per_client: usize,
    batch: usize,
) -> ClusterSample {
    assert!(batch >= 1, "batch size must be at least 1");
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let dep = deploy(
            v100_cluster(GPUS),
            vec![Rc::new(MonteCarlo::default())],
            cluster_config(layout),
        );
        dep.server
            .prewarm("mci", GPUS as usize)
            .await
            .expect("prewarm");
        let t0 = now();
        let mut handles = Vec::with_capacity(clients);
        for _ in 0..clients {
            let mut client = dep.local_client().await;
            handles.push(spawn(async move {
                let mut remaining = per_client;
                while remaining > 0 {
                    let k = batch.min(remaining);
                    if k == 1 {
                        client
                            .call("mci")
                            .arg(Value::U64(SAMPLES))
                            .send()
                            .await
                            .expect("invocation succeeds");
                    } else {
                        let mut b = client.batch();
                        for _ in 0..k {
                            b = b.call(BatchCall::new("mci").arg(Value::U64(SAMPLES)));
                        }
                        for member in b.send().await.expect("batch frame delivered") {
                            member.expect("batch member succeeds");
                        }
                    }
                    remaining -= k;
                }
            }));
        }
        for h in handles {
            h.await;
        }
        let elapsed_s = (now() - t0).as_secs_f64();
        let invocations = (clients * per_client) as u64;
        ClusterSample {
            clients,
            invocations,
            elapsed_s,
            throughput: invocations as f64 / elapsed_s,
        }
    })
}

/// The saturation knee of a throughput-vs-clients series: the smallest
/// client count whose throughput reaches 90 % of the series plateau,
/// paired with the plateau itself (the maximum sustained throughput).
pub fn knee(series: &Series) -> (f64, f64) {
    let plateau = series
        .points
        .iter()
        .map(|&(_, y)| y)
        .fold(f64::MIN, f64::max);
    let at = series
        .points
        .iter()
        .find(|&&(_, y)| y >= 0.9 * plateau)
        .map(|&(x, _)| x)
        .unwrap_or(f64::NAN);
    (at, plateau)
}

/// The historical single-lock router as a shard layout: one shard
/// behind a zero-cost front door. Its one worker pays the full
/// [`dispatch_overhead`](ServerConfig::dispatch_overhead) per request
/// and nothing overlaps it, so throughput saturates near
/// `1 / dispatch_overhead` — the paper's router-contention knee.
pub fn serialized_router() -> ShardConfig {
    ShardConfig {
        shards: 1,
        front_door_overhead: Duration::ZERO,
        ..ShardConfig::default()
    }
}

/// The two A/B configurations the sweep compares.
fn configurations() -> Vec<(&'static str, ShardConfig, usize)> {
    vec![
        ("Serialized (unbatched)", serialized_router(), 1),
        ("Sharded + batched", ShardConfig::default(), BATCH),
    ]
}

/// Runs the load sweep for one dispatcher configuration.
fn sweep(label: &str, layout: &ShardConfig, batch: usize, quick: bool) -> (Series, u64) {
    let (client_counts, per_client): (&[usize], usize) = if quick {
        (&[2, 8, 32], 16)
    } else {
        (&[4, 16, 64, 256, 1024, 2048], 64)
    };
    let mut s = Series::new(label);
    let mut total = 0u64;
    for &c in client_counts {
        let sample = run_load(layout.clone(), c, per_client, batch);
        total += sample.invocations;
        s.push(c as f64, sample.throughput);
    }
    (s, total)
}

/// The A/B figure: serialized-unbatched vs sharded+batched throughput
/// across the client sweep (full mode tops out at 2 048 clients ×
/// 64 calls = 131 072 invocations per point).
pub fn run(quick: bool) -> Vec<Figure> {
    let mut fig = figure();
    let mut knees = Vec::new();
    let mut grand_total = 0u64;
    for (label, layout, batch) in configurations() {
        let (series, total) = sweep(label, &layout, batch, quick);
        grand_total += total;
        knees.push((label, knee(&series)));
        fig.series.push(series);
    }
    let (_, (knee_old_at, knee_old)) = knees[0];
    let (_, (knee_new_at, knee_new)) = knees[1];
    fig.note(format!(
        "serialized knee: {knee_old:.0} inv/s from {knee_old_at:.0} clients \
         (ceiling 1/35 µs ≈ 28 571/s); sharded+batched sustains {knee_new:.0} inv/s \
         from {knee_new_at:.0} clients — knee moved {:.1}×",
        knee_new / knee_old
    ));
    fig.note(format!("{grand_total} invocations total across the sweep"));
    vec![fig]
}

fn figure() -> Figure {
    Figure::new(
        "cluster",
        "Dispatch throughput vs. concurrent clients (8 V100s, MCI)",
        "concurrent clients",
        "sustained invocations per second",
    )
}

/// Renders the figures as a small JSON document (for
/// `results/cluster.json`). Hand-rolled: the repo carries no JSON
/// dependency, and the schema is three levels deep.
pub fn to_json(figs: &[Figure]) -> String {
    let mut out = String::from("{\n  \"bench\": \"cluster\",\n  \"gpus\": 8,\n  \"figures\": [\n");
    for (i, f) in figs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"id\": \"{}\",\n      \"series\": [\n",
            f.id
        ));
        for (j, s) in f.series.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"label\": \"{}\", \"points\": [",
                s.label
            ));
            let pts: Vec<String> = s
                .points
                .iter()
                .map(|(x, y)| format!("{{\"clients\": {x}, \"throughput\": {y:.3}}}"))
                .collect();
            out.push_str(&pts.join(", "));
            out.push_str("]}");
            out.push_str(if j + 1 < f.series.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ],\n      \"notes\": [");
        let notes: Vec<String> = f
            .notes
            .iter()
            .map(|n| format!("\"{}\"", n.replace('"', "\\\"")))
            .collect();
        out.push_str(&notes.join(", "));
        out.push_str("]\n    }");
        out.push_str(if i + 1 < figs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialized_knees_near_the_dispatch_ceiling() {
        let s = run_load(serialized_router(), 64, 16, 1);
        // The one shard worker pays one 35 µs routing cost at a time:
        // 64 closed-loop clients sit well past the knee.
        assert!(
            (20_000.0..29_000.0).contains(&s.throughput),
            "serialized plateau {:.0} inv/s (ceiling 1/35 µs ≈ 28 571)",
            s.throughput
        );
    }

    #[test]
    fn sharded_and_batched_breaks_the_knee() {
        let serialized = run_load(serialized_router(), 64, 16, 1);
        let sharded = run_load(ShardConfig::default(), 64, 16, 8);
        let ratio = sharded.throughput / serialized.throughput;
        assert!(
            ratio >= 4.0,
            "sharded+batched should move the knee ≥4×, got {ratio:.2}× \
             ({:.0} vs {:.0} inv/s)",
            sharded.throughput,
            serialized.throughput
        );
    }

    #[test]
    fn same_seed_reruns_are_bit_identical() {
        let a = run_load(ShardConfig::default(), 32, 8, 4);
        let b = run_load(ShardConfig::default(), 32, 8, 4);
        assert_eq!(a, b, "sharded dispatch must replay identically");
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let mut fig = figure();
        let mut s = Series::new("demo");
        s.push(2.0, 123.456);
        fig.series.push(s);
        fig.note("a \"quoted\" note");
        let json = to_json(&[fig]);
        assert!(json.contains("\"bench\": \"cluster\""));
        assert!(json.contains("{\"clients\": 2, \"throughput\": 123.456}"));
        assert!(json.contains("\\\"quoted\\\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}

//! Metastable-failure chaos bench: a 10× load burst against a
//! dispatcher running near its knee, with and without the overload
//! controls (adaptive admission, bounded queues with deadline ejection,
//! retry budgets, `retry_after`-honoring clients).
//!
//! The uncontrolled system reproduces the classic metastable shape
//! (Bronson et al., HotOS '21): the burst builds a queue whose wait
//! exceeds every client's deadline, so the server spends all of its
//! dispatch capacity on dead requests while client timeouts re-inject
//! the same work — goodput stays collapsed **after the trigger
//! clears**, because retries alone hold arrivals above capacity. The
//! controlled system sheds the burst at the front door (cheap, before
//! the dispatch overhead is paid), ejects expired work at dequeue,
//! clamps admissions with AIMD, and paces client retries through a
//! token-bucket budget plus the server's deterministic `retry_after`
//! hints — goodput dips during the burst and recovers.
//!
//! Everything is seeded and closed-loop: same-seed runs produce
//! byte-identical reports (CI diffs two `--quick` runs).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use kaas_core::{
    AimdConfig, ClientRetryConfig, DispatchMode, ExponentialBackoff, InvokeError, RetryBudget,
    RetryBudgetConfig, RoundRobin, RunnerConfig, ServerConfig, ShardConfig,
};
use kaas_kernels::{MonteCarlo, Value};
use kaas_simtime::{now, sleep, spawn, Simulation};

use crate::common::{deploy, experiment_server_config, v100_cluster};

/// Four V100s behind a single-shard dispatcher: the dispatch worker,
/// not the devices, is the contended resource.
pub const GPUS: u32 = 4;
/// Monte-Carlo samples per invocation — tiny on purpose.
pub const SAMPLES: u64 = 1_000;
/// Per-dispatch overhead: one shard at 200 µs caps service at 5 000/s.
pub const OVERHEAD: Duration = Duration::from_micros(200);
/// Client-side deadline *and* round-trip timeout per attempt: a request
/// that waits longer than this is dead on arrival at the worker.
pub const DEADLINE: Duration = Duration::from_millis(3);
/// Goodput accounting window.
pub const WINDOW: Duration = Duration::from_millis(100);
/// Steady base load: 20 closed-loop clients thinking 5 ms ≈ 3.6 k/s
/// offered, ~72 % of the 5 k/s dispatch ceiling.
pub const BASE_CLIENTS: usize = 20;
const BASE_THINK: Duration = Duration::from_millis(5);
/// The trigger: a 10×-the-base-fleet client burst.
pub const BURST_CLIENTS: usize = 200;
const BURST_THINK: Duration = Duration::from_millis(2);

/// The shape of one run's timeline, in whole windows.
#[derive(Debug, Clone, Copy)]
struct Timeline {
    /// Total horizon in windows.
    windows: usize,
    /// Window in which the burst starts.
    burst_from: usize,
    /// First window after the burst stops.
    burst_until: usize,
}

impl Timeline {
    fn new(quick: bool) -> Self {
        if quick {
            // 600 ms: 200 ms steady, 100 ms burst, 300 ms aftermath.
            Timeline {
                windows: 6,
                burst_from: 2,
                burst_until: 3,
            }
        } else {
            // 1 s: 300 ms steady, 150 ms burst, 550 ms aftermath.
            Timeline {
                windows: 10,
                burst_from: 3,
                burst_until: 5, // burst runs [300 ms, 450 ms)
            }
        }
    }

    fn horizon(&self) -> Duration {
        WINDOW * self.windows as u32
    }

    fn burst_start(&self) -> Duration {
        WINDOW * self.burst_from as u32
    }

    fn burst_len(&self) -> Duration {
        // The full timeline's burst covers 1.5 windows.
        if self.burst_until - self.burst_from == 2 {
            WINDOW + WINDOW / 2
        } else {
            WINDOW
        }
    }
}

/// One measured run of the scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadRun {
    /// `"uncontrolled"` or `"controlled"`.
    pub label: &'static str,
    /// Successful invocations per [`WINDOW`].
    pub goodput: Vec<u64>,
    /// `Overloaded` replies observed client-side (sheds, per attempt).
    pub shed: u64,
    /// Attempts that timed out or blew their deadline, client-side.
    pub dead: u64,
    /// Requests the server shed or ejected from its shard queues
    /// (always zero for the uncontrolled config — its queues are
    /// unbounded and nothing ejects).
    pub ejected: u64,
    /// Retries denied by the shared client retry budget.
    pub budget_exhausted: u64,
    /// Mean goodput/window over the steady windows before the burst.
    pub pre: f64,
    /// Mean goodput/window over the final two windows.
    pub post: f64,
}

impl OverloadRun {
    /// Post-trigger goodput as a fraction of the pre-burst knee.
    pub fn recovery(&self) -> f64 {
        if self.pre == 0.0 {
            0.0
        } else {
            self.post / self.pre
        }
    }
}

/// Both sides of the A/B for one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadReport {
    /// The seed both runs shared.
    pub seed: u64,
    /// No admission limiter, unbounded queues, naive immediate retries.
    pub uncontrolled: OverloadRun,
    /// AIMD admission + bounded/ejecting queues + budgeted, hint-paced
    /// retries.
    pub controlled: OverloadRun,
}

fn overload_config(controlled: bool) -> ServerConfig {
    let shard = ShardConfig {
        shards: 1,
        queue_cap: if controlled { Some(32) } else { None },
        ..ShardConfig::default()
    };
    let config = experiment_server_config()
        .with_scheduler(RoundRobin::default())
        .with_autoscale(false)
        .with_dispatch_overhead(OVERHEAD)
        .with_dispatch(DispatchMode::Sharded(shard))
        .with_runner(RunnerConfig {
            max_inflight: 16,
            ..RunnerConfig::default()
        });
    if controlled {
        config.with_adaptive_admission(
            AimdConfig::default()
                .with_target_queue_wait(Duration::from_millis(1))
                .with_limit_range(4, 32)
                .with_initial_limit(16)
                .with_cooldown(Duration::from_millis(5)),
        )
    } else {
        config
    }
}

/// Per-window success counters plus client-side error tallies, shared
/// by every client task of one run.
struct Tally {
    goodput: RefCell<Vec<u64>>,
    shed: Cell<u64>,
    dead: Cell<u64>,
}

async fn client_loop(
    mut client: kaas_core::KaasClient,
    start: kaas_simtime::SimTime,
    stop: kaas_simtime::SimTime,
    think: Duration,
    tally: Rc<Tally>,
) {
    while now() < stop {
        let res = client
            .call("mci")
            .arg(Value::U64(SAMPLES))
            .deadline(DEADLINE)
            .timeout(DEADLINE)
            .send()
            .await;
        match res {
            Ok(_) => {
                let w = ((now().saturating_since(start)).as_nanos() / WINDOW.as_nanos()) as usize;
                let mut goodput = tally.goodput.borrow_mut();
                if w < goodput.len() {
                    goodput[w] += 1;
                }
            }
            Err(InvokeError::Overloaded { .. }) => tally.shed.set(tally.shed.get() + 1),
            Err(InvokeError::TimedOut | InvokeError::DeadlineExceeded) => {
                tally.dead.set(tally.dead.get() + 1)
            }
            Err(e) => panic!("unexpected overload-bench error: {e:?}"),
        }
        sleep(think).await;
    }
}

/// Runs one side of the A/B and measures windowed goodput.
pub fn run_mode(controlled: bool, seed: u64, quick: bool) -> OverloadRun {
    let timeline = Timeline::new(quick);
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let dep = deploy(
            v100_cluster(GPUS),
            vec![Rc::new(MonteCarlo::default())],
            overload_config(controlled),
        );
        dep.server
            .prewarm("mci", GPUS as usize)
            .await
            .expect("prewarm");
        let budget = Rc::new(RetryBudget::new(RetryBudgetConfig::default()));
        let retry = |stream: u64| {
            if controlled {
                ClientRetryConfig::new(4)
                    .with_backoff(
                        ExponentialBackoff::new(Duration::from_millis(1))
                            .with_jitter(0.5, seed ^ stream),
                    )
                    .with_budget(Rc::clone(&budget))
            } else {
                // The naive fleet: immediate re-send on every failure,
                // no budget — the retry amplifier that sustains the
                // metastable state.
                ClientRetryConfig::new(4)
            }
        };
        let tally = Rc::new(Tally {
            goodput: RefCell::new(vec![0; timeline.windows]),
            shed: Cell::new(0),
            dead: Cell::new(0),
        });

        let start = now();
        let stop = start + timeline.horizon();
        let mut handles = Vec::new();
        for i in 0..BASE_CLIENTS {
            let client = dep.local_client().await.with_retry(retry(i as u64));
            handles.push(spawn(client_loop(
                client,
                start,
                stop,
                BASE_THINK,
                Rc::clone(&tally),
            )));
        }
        // The trigger: after the steady phase, a 10× client burst
        // arrives, runs for the burst window, and leaves.
        let burst_handle = {
            let dep_net = dep.net.clone();
            let dep_shm = dep.shm.clone();
            let tally = Rc::clone(&tally);
            let budget = Rc::clone(&budget);
            let burst_start = start + timeline.burst_start();
            let burst_stop = burst_start + timeline.burst_len();
            spawn(async move {
                sleep(burst_start.saturating_since(now())).await;
                let mut inner = Vec::new();
                for i in 0..BURST_CLIENTS {
                    let retry = if controlled {
                        ClientRetryConfig::new(4)
                            .with_backoff(
                                ExponentialBackoff::new(Duration::from_millis(1))
                                    .with_jitter(0.5, seed ^ (1000 + i as u64)),
                            )
                            .with_budget(Rc::clone(&budget))
                    } else {
                        ClientRetryConfig::new(4)
                    };
                    let client = crate::common::connect_local(&dep_net, dep_shm.clone())
                        .await
                        .with_retry(retry);
                    inner.push(spawn(client_loop(
                        client,
                        start,
                        burst_stop,
                        BURST_THINK,
                        Rc::clone(&tally),
                    )));
                }
                for h in inner {
                    h.await;
                }
            })
        };
        for h in handles {
            h.await;
        }
        burst_handle.await;
        // Let the uncontrolled backlog drain before the server drops,
        // so shutdown invariants (no queued jobs) hold in both modes.
        sleep(Duration::from_secs(3)).await;

        let snapshot = dep.server.snapshot();
        let goodput = tally.goodput.borrow().clone();
        let mean = |w: &[u64]| w.iter().sum::<u64>() as f64 / w.len() as f64;
        let pre = mean(&goodput[..timeline.burst_from]);
        let post = mean(&goodput[timeline.windows - 2..]);
        OverloadRun {
            label: if controlled {
                "controlled"
            } else {
                "uncontrolled"
            },
            goodput,
            shed: tally.shed.get(),
            dead: tally.dead.get(),
            ejected: snapshot.dispatch_ejected,
            budget_exhausted: budget.exhausted(),
            pre,
            post,
        }
    })
}

/// Runs the full A/B under one seed.
pub fn run(seed: u64, quick: bool) -> OverloadReport {
    OverloadReport {
        seed,
        uncontrolled: run_mode(false, seed, quick),
        controlled: run_mode(true, seed, quick),
    }
}

/// Renders a report as deterministic, diffable text.
pub fn render(report: &OverloadReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# overload — metastable-failure A/B (seed {}, {} base + {} burst clients, \
         1 shard @ {:?}/dispatch)\n",
        report.seed, BASE_CLIENTS, BURST_CLIENTS, OVERHEAD
    ));
    for run in [&report.uncontrolled, &report.controlled] {
        out.push_str(&format!(
            "{}: goodput/window {:?}\n\
             {}: pre {:.1}/win, post {:.1}/win, recovery {:.0}%, shed {}, dead {}, \
             ejected {}, budget_exhausted {}\n",
            run.label,
            run.goodput,
            run.label,
            run.pre,
            run.post,
            100.0 * run.recovery(),
            run.shed,
            run.dead,
            run.ejected,
            run.budget_exhausted,
        ));
    }
    out
}

/// Renders the report as a small JSON document for
/// `results/overload.json` (hand-rolled — no JSON dependency).
pub fn to_json(report: &OverloadReport) -> String {
    let run_json = |r: &OverloadRun| {
        let pts: Vec<String> = r.goodput.iter().map(|g| g.to_string()).collect();
        format!(
            "    {{\n      \"label\": \"{}\",\n      \"goodput_per_window\": [{}],\n      \
             \"pre_per_window\": {:.3},\n      \"post_per_window\": {:.3},\n      \
             \"recovery\": {:.4},\n      \"shed\": {},\n      \"dead\": {},\n      \
             \"ejected\": {},\n      \"budget_exhausted\": {}\n    }}",
            r.label,
            pts.join(", "),
            r.pre,
            r.post,
            r.recovery(),
            r.shed,
            r.dead,
            r.ejected,
            r.budget_exhausted
        )
    };
    format!(
        "{{\n  \"bench\": \"overload\",\n  \"seed\": {},\n  \"window_ms\": {},\n  \
         \"runs\": [\n{},\n{}\n  ]\n}}\n",
        report.seed,
        WINDOW.as_millis(),
        run_json(&report.uncontrolled),
        run_json(&report.controlled)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontrolled_run_is_metastable_after_the_trigger_clears() {
        let run = run_mode(false, 7, true);
        assert!(run.pre > 200.0, "healthy knee expected, got {:?}", run);
        assert!(
            run.post < 0.5 * run.pre,
            "uncontrolled goodput should stay collapsed after the burst: \
             pre {:.0}/win, post {:.0}/win ({:?})",
            run.pre,
            run.post,
            run.goodput
        );
        assert_eq!(run.ejected, 0, "unbounded queues never eject");
    }

    #[test]
    fn controlled_run_recovers_past_ninety_percent() {
        let run = run_mode(true, 7, true);
        assert!(run.pre > 200.0, "healthy knee expected, got {:?}", run);
        assert!(
            run.recovery() >= 0.9,
            "controlled goodput should recover to ≥90% of the knee: \
             pre {:.0}/win, post {:.0}/win ({:?})",
            run.pre,
            run.post,
            run.goodput
        );
        assert!(
            run.shed + run.ejected > 0,
            "the controls must actually have engaged"
        );
    }

    #[test]
    fn same_seed_reruns_are_byte_identical() {
        let a = run(7, true);
        let b = run(7, true);
        assert_eq!(a, b, "overload bench must replay identically");
        assert_eq!(to_json(&a), to_json(&b));
    }
}

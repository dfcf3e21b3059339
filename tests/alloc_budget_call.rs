//! Integration: the heap budget of one call attempt on the unbatched,
//! overloaded path.
//!
//! A counting global allocator tallies every allocation while a small
//! seeded burst-shaped scenario runs: four prewarmed V100s behind one
//! bounded dispatch shard with AIMD admission, and a closed loop of
//! same-host clients, each call carrying a start deadline, a round-trip
//! timeout and a budgeted, jittered retry policy. The offered load is
//! several times the shard's capacity, so most attempts are shed
//! (admission, queue cap, deadline) or time out, and the retry path
//! runs. The measured window covers only the client loops' work, not
//! deployment, connection set-up or spawning the loops. Allocation
//! counts in a deterministic simulation repeat exactly, so the budget
//! is a regression gate on every layer one attempt walks: client, wire,
//! front door, shard worker, runner, executor, and the reject paths.
//!
//! This file holds a single test so that nothing else allocates in the
//! process while it measures. The budget is for the default build: the
//! `sim-sanitizer` feature runs allocating invariant checks after every
//! executor step, so the test is compiled out under it.
#![cfg(not(feature = "sim-sanitizer"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use kaas::core::{
    AimdConfig, ClientRetryConfig, DispatchMode, ExponentialBackoff, InvokeError, KaasClient,
    RetryBudget, RetryBudgetConfig, RoundRobin, RunnerConfig, ShardConfig,
};
use kaas::kernels::{MonteCarlo, Value};
use kaas::simtime::rng::stream_rng;
use kaas::simtime::{sleep, spawn, Simulation};
use kaas_bench::common::{deploy, experiment_server_config, v100_cluster};

/// Forwards to the system allocator, counting allocations while
/// `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// plain atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const GPUS: u32 = 4;
const CLIENTS: u64 = 40;
const CALLS: usize = 25;
const SEED: u64 = 7;
/// Per-attempt start deadline and round-trip timeout.
const DEADLINE: Duration = Duration::from_millis(3);

/// Heap allocations per call attempt (each retry is an attempt).
const ALLOCS_PER_ATTEMPT: f64 = 4.005;

/// What one client's loop saw.
#[derive(Default)]
struct Tally {
    ok: usize,
    shed: usize,
    attempts: u64,
}

async fn client_loop(mut client: KaasClient, id: u64) -> Tally {
    let mut rng = stream_rng(SEED, id);
    sleep(Duration::from_nanos(rng.gen_range(0..500_000))).await;
    let mut tally = Tally::default();
    for _ in 0..CALLS {
        let res = client
            .call("mci")
            .arg(Value::U64(1_000))
            .deadline(DEADLINE)
            .timeout(DEADLINE)
            .send()
            .await;
        match res {
            Ok(_) => tally.ok += 1,
            Err(
                InvokeError::Overloaded { .. }
                | InvokeError::TimedOut
                | InvokeError::DeadlineExceeded,
            ) => tally.shed += 1,
            Err(e) => panic!("unexpected failure: {e}"),
        }
        sleep(Duration::from_nanos(rng.gen_range(500_000..1_500_000))).await;
    }
    tally.attempts = client.requests_sent();
    tally
}

#[test]
fn call_attempts_stay_within_heap_budget() {
    let mut sim = Simulation::new();
    let (tally, allocs) = sim.block_on(async {
        let config = experiment_server_config()
            .with_scheduler(RoundRobin::default())
            .with_autoscale(false)
            .with_dispatch_overhead(Duration::from_micros(200))
            .with_dispatch(DispatchMode::Sharded(ShardConfig {
                shards: 1,
                queue_cap: Some(32),
                ..ShardConfig::default()
            }))
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
            );
        let dep = deploy(
            v100_cluster(GPUS),
            vec![Rc::new(MonteCarlo::seeded(SEED))],
            config,
        );
        dep.server
            .prewarm("mci", GPUS as usize)
            .await
            .expect("mci is registered");
        let budget = Rc::new(RetryBudget::new(RetryBudgetConfig::default()));
        let mut clients = Vec::new();
        for id in 0..CLIENTS {
            let retry = ClientRetryConfig::new(4)
                .with_backoff(
                    ExponentialBackoff::new(Duration::from_millis(1)).with_jitter(0.5, SEED ^ id),
                )
                .with_budget(Rc::clone(&budget));
            clients.push(dep.local_client().await.with_retry(retry));
        }
        let loops: Vec<_> = clients
            .into_iter()
            .zip(0..)
            .map(|(client, id)| spawn(client_loop(client, id)))
            .collect();
        ALLOCS.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        let mut tally = Tally::default();
        for client_loop in loops {
            let t = client_loop.await;
            tally.ok += t.ok;
            tally.shed += t.shed;
            tally.attempts += t.attempts;
        }
        COUNTING.store(false, Ordering::Relaxed);
        (tally, ALLOCS.load(Ordering::Relaxed))
    });
    let calls = CLIENTS as usize * CALLS;
    assert_eq!(tally.ok + tally.shed, calls, "every call resolves");
    assert!(tally.ok > 0, "some calls succeed");
    assert!(
        tally.shed > calls / 4,
        "the load sheds: {} of {calls}",
        tally.shed
    );
    assert!(tally.attempts > calls as u64, "failed attempts are retried");
    let per_attempt = allocs as f64 / tally.attempts as f64;
    assert!(
        per_attempt <= ALLOCS_PER_ATTEMPT,
        "{per_attempt:.2} allocations per attempt over {} attempts, {} ok, {} shed (budget {ALLOCS_PER_ATTEMPT})",
        tally.attempts, tally.ok, tally.shed
    );
}

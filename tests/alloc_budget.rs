//! Integration: the heap budget of one invocation on the batched hot
//! path.
//!
//! A counting global allocator tallies every allocation while a small
//! seeded storm-shaped scenario runs: the storm server configuration,
//! eight prewarmed V100s, 48 same-host clients in a closed loop, each
//! sending 16-call MCI batches. The measured window covers only the
//! batches, not deployment, connection set-up or spawning the client
//! loops. Allocation counts in a deterministic simulation repeat
//! exactly, so the budget is a regression gate on every layer the call
//! walks: client, wire, front door, shard worker, runner, executor.
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

use kaas::core::{BatchCall, DispatchMode, KaasClient, RoundRobin, RunnerConfig};
use kaas::kernels::{MonteCarlo, Value};
use kaas::simtime::rng::stream_rng;
use kaas::simtime::{sleep, spawn, Simulation};
use kaas_bench::common::{deploy, experiment_server_config, v100_cluster};

/// Forwards to the system allocator, counting allocations and bytes
/// while `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

const GPUS: u32 = 8;
const CLIENTS: u64 = 48;
const BATCHES: usize = 8;
const BATCH: usize = 16;
const SEED: u64 = 7;

/// Heap allocations per invocation, and bytes they request.
const ALLOCS_PER_INV: f64 = 2.64;
const BYTES_PER_INV: f64 = 2_035.0;

async fn client_loop(mut client: KaasClient, seed: u64, id: u64) -> usize {
    let mut rng = stream_rng(seed, id);
    sleep(Duration::from_nanos(rng.gen_range(0..500_000))).await;
    let mut ok = 0;
    for _ in 0..BATCHES {
        let mut batch = client.batch();
        for _ in 0..BATCH {
            batch = batch.call(BatchCall::new("mci").arg(Value::U64(1_000)));
        }
        let members = batch.send().await.expect("the batch is answered");
        ok += members.iter().filter(|m| m.is_ok()).count();
        sleep(Duration::from_nanos(rng.gen_range(0..200_000))).await;
    }
    ok
}

#[test]
fn batched_invocations_stay_within_heap_budget() {
    let mut sim = Simulation::new();
    let (ok, allocs, bytes) = sim.block_on(async {
        let config = experiment_server_config()
            .with_scheduler(RoundRobin::default())
            .with_autoscale(false)
            .with_dispatch(DispatchMode::default())
            .with_runner(RunnerConfig {
                max_inflight: 16,
                ..RunnerConfig::default()
            });
        let dep = deploy(
            v100_cluster(GPUS),
            vec![Rc::new(MonteCarlo::seeded(SEED))],
            config,
        );
        dep.server
            .prewarm("mci", GPUS as usize)
            .await
            .expect("mci is registered");
        let mut clients = Vec::new();
        for _ in 0..CLIENTS {
            clients.push(dep.local_client().await);
        }
        let loops: Vec<_> = clients
            .into_iter()
            .zip(0..)
            .map(|(client, id)| spawn(client_loop(client, SEED, id)))
            .collect();
        ALLOCS.store(0, Ordering::Relaxed);
        BYTES.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        let mut ok = 0;
        for client_loop in loops {
            ok += client_loop.await;
        }
        COUNTING.store(false, Ordering::Relaxed);
        (
            ok,
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    });
    let invocations = CLIENTS as usize * BATCHES * BATCH;
    assert_eq!(ok, invocations, "every call succeeds");
    let per_inv = allocs as f64 / invocations as f64;
    let bytes_per_inv = bytes as f64 / invocations as f64;
    assert!(
        per_inv <= ALLOCS_PER_INV,
        "{per_inv:.2} allocations per invocation (budget {ALLOCS_PER_INV})"
    );
    assert!(
        bytes_per_inv <= BYTES_PER_INV,
        "{bytes_per_inv:.0} B allocated per invocation (budget {BYTES_PER_INV})"
    );
}

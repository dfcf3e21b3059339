//! # kaas-simtime — deterministic discrete-event simulation runtime
//!
//! A single-threaded async executor whose clock is **virtual**: awaiting
//! [`sleep`] does not block the thread, it schedules the task at a future
//! instant of simulated time and the executor jumps the clock forward once
//! all runnable work has drained. This turns ordinary async Rust into a
//! deterministic discrete-event simulator — the substrate on which the
//! whole KaaS reproduction (servers, clients, networks, accelerators) runs.
//!
//! ## Why a simulator?
//!
//! The KaaS paper (Middleware '23) evaluates a serverless runtime on real
//! GPUs, FPGAs, TPUs, and QPUs. Reproducing the *systems* results does not
//! require the silicon: every claim is about when work starts and ends and
//! which overheads sit on the critical path. Running all actors in virtual
//! time gives bit-for-bit reproducible experiments that finish in
//! milliseconds of wall-clock time.
//!
//! ## Quick start
//!
//! ```
//! use kaas_simtime::{Simulation, spawn, sleep, now, channel};
//! use std::time::Duration;
//!
//! let mut sim = Simulation::new();
//! let total = sim.block_on(async {
//!     let (tx, mut rx) = channel::unbounded();
//!     for id in 0..3u32 {
//!         let tx = tx.clone();
//!         spawn(async move {
//!             sleep(Duration::from_millis(10 * (id as u64 + 1))).await;
//!             tx.send(id).await.ok();
//!         });
//!     }
//!     drop(tx);
//!     let mut sum = 0;
//!     while let Some(v) = rx.recv().await {
//!         sum += v;
//!     }
//!     assert_eq!(now(), kaas_simtime::SimTime::from_nanos(30_000_000));
//!     sum
//! });
//! assert_eq!(total, 3);
//! ```
//!
//! ## Determinism guarantees
//!
//! * Tasks woken at the same instant run in wake order (FIFO).
//! * Timers with equal deadlines fire in registration order.
//! * Channel and semaphore queues are strictly FIFO.
//! * All randomness flows through seeded [`rng`] streams.
//!
//! ## Tasks, wakers and timers
//!
//! * A spawned task is one allocation at the size of its future (plus
//!   its join state), polled in place. A task spawned with
//!   [`spawn_detached`] has no join state and is the boxed future alone.
//! * A task that awaits several [`JoinHandle`]s in order is woken
//!   exactly when the lowest-index unfinished task completes, and by
//!   no other completion. A table that collects results out of order
//!   and wakes its one waiter by that rule is polled identically.
//! * Waiting on a [`sync::Semaphore`] allocates nothing once its waiter
//!   table has grown to the peak number of parked acquirers.
//! * A task's [`Waker`](std::task::Waker) carries its simulation's tag
//!   and its slot id. Cloning, dropping and waking allocate nothing and
//!   touch no lock or atomic. Tags are process-unique: a wake after the
//!   [`Simulation`] is dropped, or from another thread, is a no-op, and
//!   never wakes another simulation's task.
//! * A [`Sleep`] dropped before its deadline cancels its timer, which
//!   then never advances the clock; one dropped after its deadline
//!   leaves nothing behind.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
mod executor;
mod join;
pub mod rng;
mod sleep;
pub mod sync;
mod time;
pub mod trace;

pub use executor::{now, spawn, spawn_detached, try_now, Handle, Simulation};
pub use join::JoinHandle;
pub use sleep::{sleep, sleep_until, timeout, yield_now, Elapsed, Sleep, Timeout, YieldNow};
pub use time::SimTime;
pub use trace::{OpenSpan, Span, SpanId, SpanSink};

pub use std::time::Duration;

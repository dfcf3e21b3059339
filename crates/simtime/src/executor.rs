//! The deterministic single-threaded discrete-event executor.
//!
//! A [`Simulation`] owns a set of tasks (plain `Future`s, no `Send`
//! required), a virtual clock, and a timer wheel. Tasks advance only when
//! polled; the clock advances only when every runnable task has been
//! drained, jumping straight to the next timer deadline. The result is a
//! deterministic discrete-event simulation that is written like ordinary
//! async Rust.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use crate::join::{JoinHandle, JoinState};
use crate::time::SimTime;

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Queue of task ids that have been woken and must be re-polled.
///
/// This is the only piece of executor state shared with [`Waker`]s, which
/// the `std::task` contract requires to be `Send + Sync` even though this
/// executor never leaves its thread.
#[derive(Default)]
pub(crate) struct WakeQueue {
    queue: Mutex<VecDeque<usize>>,
}

impl WakeQueue {
    fn push(&self, id: usize) {
        self.queue
            .lock()
            .expect("wake queue poisoned")
            .push_back(id);
    }

    /// Moves every queued id, in wake order, to the back of `out`: one
    /// lock per batch of ready tasks instead of one per task.
    fn drain_into(&self, out: &mut VecDeque<usize>) {
        out.extend(self.queue.lock().expect("wake queue poisoned").drain(..));
    }
}

struct TaskWaker {
    id: usize,
    queue: Arc<WakeQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.queue.push(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.queue.push(self.id);
    }
}

/// A timer registered with the executor: wake `waker` once the clock
/// reaches `at`. Ties are broken by registration order (`seq`) so the
/// simulation stays deterministic. A cancelled timer (its future was
/// dropped) is discarded without advancing the clock.
struct TimerEntry {
    at: SimTime,
    seq: u64,
    waker: Waker,
    cancelled: Rc<Cell<bool>>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One task-table entry. The waker is built once, when the slot is
/// first allocated, and serves every task that later reuses the slot:
/// it names only the slot id, which is all a wake carries.
struct TaskSlot {
    future: Option<LocalFuture>,
    waker: Waker,
}

pub(crate) struct Core {
    now: SimTime,
    timer_seq: u64,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    tasks: Vec<TaskSlot>,
    free: Vec<usize>,
    live: usize,
    /// Sanitizer hooks run after every task poll (an "executor step").
    /// Only compiled under the `sim-sanitizer` feature so the hot loop
    /// stays hook-free in normal builds.
    #[cfg(feature = "sim-sanitizer")]
    step_hooks: Vec<Rc<dyn Fn()>>,
}

impl Core {
    fn new() -> Self {
        Core {
            now: SimTime::ZERO,
            timer_seq: 0,
            timers: BinaryHeap::new(),
            tasks: Vec::new(),
            free: Vec::new(),
            live: 0,
            #[cfg(feature = "sim-sanitizer")]
            step_hooks: Vec::new(),
        }
    }

    fn insert_task(&mut self, fut: LocalFuture, wake: &Arc<WakeQueue>) -> usize {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            debug_assert!(self.tasks[id].future.is_none());
            self.tasks[id].future = Some(fut);
            id
        } else {
            let id = self.tasks.len();
            self.tasks.push(TaskSlot {
                future: Some(fut),
                waker: Waker::from(Arc::new(TaskWaker {
                    id,
                    queue: Arc::clone(wake),
                })),
            });
            id
        }
    }

    fn register_timer(&mut self, at: SimTime, waker: Waker) -> Rc<Cell<bool>> {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        let cancelled = Rc::new(Cell::new(false));
        self.timers.push(Reverse(TimerEntry {
            at,
            seq,
            waker,
            cancelled: Rc::clone(&cancelled),
        }));
        cancelled
    }

    /// Discards cancelled timers sitting at the head of the heap so they
    /// never advance the clock.
    fn prune_cancelled_timers(&mut self) {
        while let Some(Reverse(head)) = self.timers.peek() {
            if head.cancelled.get() {
                self.timers.pop();
            } else {
                break;
            }
        }
    }
}

/// Handle to a running (or constructed) simulation.
///
/// Obtainable inside tasks via [`Handle::current`], or from
/// [`Simulation::handle`]. Cloning is cheap.
#[derive(Clone)]
pub struct Handle {
    core: Rc<RefCell<Core>>,
    wake: Arc<WakeQueue>,
}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle").field("now", &self.now()).finish()
    }
}

thread_local! {
    static CONTEXT: RefCell<Option<Handle>> = const { RefCell::new(None) };
}

const NO_CONTEXT: &str = "no simulation context: kaas_simtime free functions may only be \
                          used inside tasks driven by Simulation::run";

struct ContextGuard {
    prev: Option<Handle>,
}

impl ContextGuard {
    fn enter(handle: Handle) -> Self {
        let prev = CONTEXT.with(|c| c.borrow_mut().replace(handle));
        ContextGuard { prev }
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

impl Handle {
    /// The handle of the simulation currently running on this thread.
    ///
    /// # Panics
    ///
    /// Panics when called outside [`Simulation::run`] /
    /// [`Simulation::block_on`] (there is no ambient simulation).
    pub fn current() -> Handle {
        Handle::try_current().expect(NO_CONTEXT)
    }

    /// Like [`Handle::current`] but returns `None` instead of panicking.
    pub fn try_current() -> Option<Handle> {
        CONTEXT.with(|c| c.borrow().clone())
    }

    /// Runs `f` on the ambient handle, borrowed rather than cloned.
    fn with_current<R>(f: impl FnOnce(&Handle) -> R) -> R {
        CONTEXT.with(|c| f(c.borrow().as_ref().expect(NO_CONTEXT)))
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Spawns a task onto the simulation.
    ///
    /// The task starts running at the current virtual instant (before time
    /// next advances). Returns a [`JoinHandle`] that resolves to the task's
    /// output.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState::new()));
        let state2 = Rc::clone(&state);
        let wrapped = Box::pin(async move {
            let out = fut.await;
            JoinState::complete(&state2, out);
        });
        let id = self.core.borrow_mut().insert_task(wrapped, &self.wake);
        self.wake.push(id);
        JoinHandle::new(state)
    }

    /// Registers `waker` to be woken once the clock reaches `at`; returns
    /// a cancellation flag (set it to discard the timer).
    pub(crate) fn register_timer(&self, at: SimTime, waker: Waker) -> Rc<Cell<bool>> {
        self.core.borrow_mut().register_timer(at, waker)
    }

    /// Number of tasks that have been spawned and not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.core.borrow().live
    }

    /// Size of the task table: completed tasks' slots are reused, so
    /// this is the peak number of simultaneously live tasks so far.
    pub fn task_slots(&self) -> usize {
        self.core.borrow().tasks.len()
    }

    /// Registers a sanitizer hook run after every executor step (each
    /// task poll). Hooks must be cheap and must panic on invariant
    /// violation — that is their whole job.
    #[cfg(feature = "sim-sanitizer")]
    pub fn add_step_hook(&self, hook: Rc<dyn Fn()>) {
        self.core.borrow_mut().step_hooks.push(hook);
    }
}

/// A deterministic discrete-event simulation.
///
/// # Examples
///
/// ```
/// use kaas_simtime::{Simulation, sleep};
/// use std::time::Duration;
///
/// let mut sim = Simulation::new();
/// let out = sim.block_on(async {
///     sleep(Duration::from_secs(3)).await;
///     kaas_simtime::now()
/// });
/// assert_eq!(out.as_secs_f64(), 3.0);
/// ```
pub struct Simulation {
    handle: Handle,
    /// Woken task ids taken off the wake queue, polled in order.
    ready: VecDeque<usize>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now())
            .field("live_tasks", &self.handle.live_tasks())
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Simulation {
            handle: Handle {
                core: Rc::new(RefCell::new(Core::new())),
                wake: Arc::new(WakeQueue::default()),
            },
            ready: VecDeque::new(),
        }
    }

    /// A cloneable handle to this simulation.
    pub fn handle(&self) -> Handle {
        self.handle.clone()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// Number of live (incomplete) tasks.
    pub fn live_tasks(&self) -> usize {
        self.handle.live_tasks()
    }

    /// Spawns a task; see [`Handle::spawn`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.handle.spawn(fut)
    }

    /// Runs until no runnable task and no pending timer remains.
    ///
    /// Returns the final virtual time. Tasks blocked on external events that
    /// can never fire (a deadlock) are left pending; check
    /// [`Simulation::live_tasks`] afterwards if that matters to you.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the clock would pass `limit`, then stops with the clock
    /// at `limit` (or earlier if the event queue empties first).
    pub fn run_until(&mut self, limit: SimTime) -> SimTime {
        let _guard = ContextGuard::enter(self.handle());
        loop {
            self.drain_runnable();
            // Advance virtual time to the next (live) timer deadline.
            let next = {
                let mut core = self.handle.core.borrow_mut();
                core.prune_cancelled_timers();
                core.timers.peek().map(|Reverse(e)| e.at)
            };
            let Some(next) = next else {
                break;
            };
            if next > limit {
                let mut core = self.handle.core.borrow_mut();
                if limit != SimTime::MAX && limit > core.now {
                    core.now = limit;
                }
                break;
            }
            let mut core = self.handle.core.borrow_mut();
            debug_assert!(next >= core.now, "timer in the past");
            core.now = next;
            while let Some(Reverse(head)) = core.timers.peek() {
                if head.at > next {
                    break;
                }
                let Reverse(entry) = core.timers.pop().expect("peeked");
                if !entry.cancelled.get() {
                    entry.waker.wake();
                }
            }
        }
        self.now()
    }

    /// Advances the simulation by `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) -> SimTime {
        let limit = self.now() + d;
        self.run_until(limit)
    }

    /// Spawns `fut`, runs the simulation to completion, and returns the
    /// future's output.
    ///
    /// # Panics
    ///
    /// Panics if the simulation goes idle before `fut` completes (i.e. the
    /// future deadlocked waiting on an event nobody will ever send).
    pub fn block_on<F>(&mut self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let handle = self.spawn(fut);
        self.run();
        handle
            .try_take()
            .expect("simulation went idle before the root future completed (deadlock)")
    }

    /// Polls every woken task until the wake queue is empty, in wake
    /// order: a batch taken off the queue is polled before anything it
    /// wakes, exactly as if ids were popped one at a time.
    fn drain_runnable(&mut self) {
        let mut ready = std::mem::take(&mut self.ready);
        loop {
            self.handle.wake.drain_into(&mut ready);
            if ready.is_empty() {
                break;
            }
            while let Some(id) = ready.pop_front() {
                self.poll_task(id);
            }
        }
        self.ready = ready;
    }

    fn poll_task(&mut self, id: usize) {
        // Take the future out of its slot so the core is not borrowed while
        // the task runs (tasks may spawn, register timers, wake others...).
        let Some((mut fut, waker)) = self
            .handle
            .core
            .borrow_mut()
            .tasks
            .get_mut(id)
            .and_then(|slot| Some((slot.future.take()?, slot.waker.clone())))
        else {
            // Stale wake for a completed task.
            return;
        };
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                let mut core = self.handle.core.borrow_mut();
                core.free.push(id);
                core.live -= 1;
            }
            Poll::Pending => {
                self.handle.core.borrow_mut().tasks[id].future = Some(fut);
            }
        }
        // Every task poll is an executor step: give the sanitizer a
        // chance to check cross-module invariants at a quiescent point
        // (no task mid-poll, core unborrowed).
        #[cfg(feature = "sim-sanitizer")]
        {
            let hooks = self.handle.core.borrow().step_hooks.clone();
            for hook in hooks {
                hook();
            }
        }
    }
}

/// Current virtual time of the ambient simulation.
///
/// # Panics
///
/// Panics outside a running simulation; see [`Handle::current`].
pub fn now() -> SimTime {
    Handle::with_current(Handle::now)
}

/// Current virtual time of the ambient simulation, or `None` outside
/// one.
pub fn try_now() -> Option<SimTime> {
    CONTEXT.with(|c| c.borrow().as_ref().map(Handle::now))
}

/// Registers `waker` with the ambient simulation's timer wheel; see
/// [`Handle::register_timer`].
pub(crate) fn register_timer(at: SimTime, waker: Waker) -> Rc<Cell<bool>> {
    Handle::with_current(|h| h.register_timer(at, waker))
}

/// Spawns a task onto the ambient simulation; see [`Handle::spawn`].
///
/// # Panics
///
/// Panics outside a running simulation; see [`Handle::current`].
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    Handle::with_current(|h| h.spawn(fut))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sleep;
    use std::cell::Cell;

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let mut sim = Simulation::new();
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    fn block_on_returns_value() {
        let mut sim = Simulation::new();
        assert_eq!(sim.block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn sleep_advances_clock() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            sleep(Duration::from_millis(250)).await;
            now()
        });
        assert_eq!(t, SimTime::from_secs_f64(0.25));
        assert_eq!(sim.now(), t);
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let mut sim = Simulation::new();
        let log: Rc<RefCell<Vec<(u64, &str)>>> = Rc::new(RefCell::new(Vec::new()));
        let l1 = Rc::clone(&log);
        let l2 = Rc::clone(&log);
        sim.spawn(async move {
            for _ in 0..3 {
                sleep(Duration::from_secs(2)).await;
                l1.borrow_mut().push((now().as_nanos(), "a"));
            }
        });
        sim.spawn(async move {
            for _ in 0..2 {
                sleep(Duration::from_secs(3)).await;
                l2.borrow_mut().push((now().as_nanos(), "b"));
            }
        });
        sim.run();
        let log = log.borrow();
        let secs: Vec<(u64, &str)> = log.iter().map(|&(n, s)| (n / 1_000_000_000, s)).collect();
        // At t=6 both fire; "b" registered its timer at t=3, "a" at t=4,
        // so registration order puts "b" first.
        assert_eq!(secs, vec![(2, "a"), (3, "b"), (4, "a"), (6, "b"), (6, "a")]);
    }

    #[test]
    fn run_until_stops_at_limit() {
        let mut sim = Simulation::new();
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            sleep(Duration::from_secs(10)).await;
            d.set(true);
        });
        sim.run_until(SimTime::from_secs(5));
        assert!(!done.get());
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.run();
        assert!(done.get());
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn run_for_advances_relative() {
        let mut sim = Simulation::new();
        sim.spawn(async {
            sleep(Duration::from_secs(100)).await;
        });
        sim.run_for(Duration::from_secs(30));
        assert_eq!(sim.now(), SimTime::from_secs(30));
        sim.run_for(Duration::from_secs(30));
        assert_eq!(sim.now(), SimTime::from_secs(60));
    }

    #[test]
    fn spawn_inside_task() {
        let mut sim = Simulation::new();
        let out = sim.block_on(async {
            let h = spawn(async {
                sleep(Duration::from_secs(1)).await;
                7
            });
            h.await
        });
        assert_eq!(out, 7);
    }

    #[test]
    fn live_tasks_counts_unfinished() {
        let mut sim = Simulation::new();
        // A task that waits forever on a timerless pending future: model a
        // deadlock with a never-completing oneshot.
        let (_tx, rx) = crate::channel::oneshot::<()>();
        sim.spawn(async move {
            let _ = rx.await;
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn block_on_deadlock_panics() {
        let (_tx, rx) = crate::channel::oneshot::<()>();
        let mut sim = Simulation::new();
        sim.block_on(async move {
            let _ = rx.await;
        });
    }

    #[test]
    fn same_deadline_timers_fire_in_registration_order() {
        let mut sim = Simulation::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10u32 {
            let l = Rc::clone(&log);
            sim.spawn(async move {
                sleep(Duration::from_secs(1)).await;
                l.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handle_try_current_outside_run_is_none() {
        assert!(Handle::try_current().is_none());
    }

    #[test]
    fn many_tasks_reuse_slots() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            for _ in 0..100 {
                spawn(async { sleep(Duration::from_millis(1)).await }).await;
            }
        });
        assert_eq!(sim.live_tasks(), 0);
    }
}

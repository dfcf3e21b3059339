//! The deterministic single-threaded discrete-event executor.
//!
//! A [`Simulation`] owns a set of tasks (plain `Future`s, no `Send`
//! required), a virtual clock, and a timer wheel. Tasks advance only when
//! polled; the clock advances only when every runnable task has been
//! drained, jumping straight to the next timer deadline. The result is a
//! deterministic discrete-event simulation that is written like ordinary
//! async Rust.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::join::{JoinHandle, JoinState};
use crate::time::SimTime;

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A spawned future together with the completion state its
/// [`JoinHandle`] reads: the whole task, boxed once at the future's own
/// size.
struct Task<F: Future> {
    fut: Option<F>,
    state: Rc<RefCell<JoinState<F::Output>>>,
}

impl<F: Future> Future for Task<F> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: `fut` is structurally pinned: it is never moved out of
        // the task, only dropped in place (by `Pin::set` below, or with
        // the task). `state` is not pinned and is only read through a
        // shared reference. `Task` has no `Drop` impl.
        let this = unsafe { self.get_unchecked_mut() };
        let mut fut = unsafe { Pin::new_unchecked(&mut this.fut) };
        let Some(inner) = fut.as_mut().as_pin_mut() else {
            return Poll::Ready(());
        };
        match inner.poll(cx) {
            Poll::Ready(out) => {
                // Drop the finished future before waking the joiner, in
                // the order an `.await` on it would.
                fut.set(None);
                JoinState::complete(&this.state, out);
                Poll::Ready(())
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Bits of a waker's data word that hold the task's slot id; the bits
/// above them hold its simulation's tag.
const SLOT_BITS: u32 = usize::BITS / 2;
const SLOT_MASK: usize = (1 << SLOT_BITS) - 1;

/// Source of simulation tags: process-unique, so a waker never names a
/// simulation other than its own, on any thread.
static NEXT_TAG: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Every live simulation on this thread, by tag: where a wake finds
    /// its ready queue and a dropped [`Sleep`](crate::Sleep) its timer
    /// heap.
    static SIMULATIONS: RefCell<Vec<(usize, Rc<Shared>)>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the live simulation tagged `tag`, if it is registered on
/// this thread. `None` after the simulation was dropped, on another
/// thread, and during thread teardown.
fn with_simulation<R>(tag: usize, f: impl FnOnce(&Shared) -> R) -> Option<R> {
    SIMULATIONS
        .try_with(|sims| {
            let sims = sims.borrow();
            let (_, shared) = sims.iter().find(|(t, _)| *t == tag)?;
            Some(f(shared))
        })
        .ok()
        .flatten()
}

/// The waker of slot `id` of simulation `tag`. It carries both in its
/// data word, so cloning copies a word, dropping does nothing, and
/// waking pushes `id` onto that simulation's ready queue.
fn task_waker(tag: usize, id: usize) -> Waker {
    let word = (tag << SLOT_BITS) | id;
    // SAFETY: `WAKER_VTABLE`'s functions never dereference the data
    // word (it is an integer in pointer form) and touch only this
    // thread's state, so the waker is sound to clone, wake and drop
    // anywhere, from any thread.
    unsafe {
        Waker::from_raw(RawWaker::new(
            std::ptr::without_provenance(word),
            &WAKER_VTABLE,
        ))
    }
}

static WAKER_VTABLE: RawWakerVTable =
    RawWakerVTable::new(clone_waker, wake_task, wake_task, drop_waker);

fn clone_waker(word: *const ()) -> RawWaker {
    RawWaker::new(word, &WAKER_VTABLE)
}

/// A wake after the simulation is dropped, or from another thread, finds
/// no registered simulation and does nothing.
fn wake_task(word: *const ()) {
    let word = word.addr();
    with_simulation(word >> SLOT_BITS, |sim| {
        sim.ready.borrow_mut().push_back(word & SLOT_MASK);
    });
}

fn drop_waker(_: *const ()) {}

/// A timer's heap entry: its deadline, its sequence number and its slot
/// in [`Core::timer_slots`]. Ties are broken by registration order
/// (`seq`) so the simulation stays deterministic.
type TimerEntry = (SimTime, u64, u32);

/// The waker of timer `seq`, from registration until its entry leaves
/// the heap. Cancelling takes the waker; the entry stays queued, and
/// frees the slot when popped.
struct TimerSlot {
    seq: u64,
    waker: Option<Waker>,
}

/// What one simulation's handles, wakers and timers share.
struct Shared {
    core: RefCell<Core>,
    /// Task ids that have been woken and must be re-polled, in wake
    /// order. Apart from `core` so that a wake never needs the core.
    ready: RefCell<VecDeque<usize>>,
}

pub(crate) struct Core {
    now: SimTime,
    timer_seq: u64,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    /// One slot per entry in `timers`, reused once the entry is popped.
    timer_slots: Vec<TimerSlot>,
    free_timer_slots: Vec<u32>,
    /// Entries in `timers` whose `Sleep` was dropped before their
    /// deadline: their slot has no waker, and they are discarded when
    /// popped, so an abandoned sleep never advances the clock.
    dead_timers: usize,
    /// Task table: a completed task's slot is reused. A slot's waker
    /// names only its id, so it serves every task the slot holds.
    tasks: Vec<Option<LocalFuture>>,
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
            timer_slots: Vec::new(),
            free_timer_slots: Vec::new(),
            dead_timers: 0,
            tasks: Vec::new(),
            free: Vec::new(),
            live: 0,
            #[cfg(feature = "sim-sanitizer")]
            step_hooks: Vec::new(),
        }
    }

    fn insert_task(&mut self, fut: LocalFuture) -> usize {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            debug_assert!(self.tasks[id].is_none());
            self.tasks[id] = Some(fut);
            id
        } else {
            let id = self.tasks.len();
            assert!(id <= SLOT_MASK, "task table full: {id} live tasks");
            self.tasks.push(Some(fut));
            id
        }
    }

    fn register_timer(&mut self, at: SimTime, waker: Waker) -> (u64, u32) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        let timer = TimerSlot {
            seq,
            waker: Some(waker),
        };
        let slot = if let Some(slot) = self.free_timer_slots.pop() {
            debug_assert!(self.timer_slots[slot as usize].waker.is_none());
            self.timer_slots[slot as usize] = timer;
            slot
        } else {
            let slot = u32::try_from(self.timer_slots.len()).expect("timer table full");
            self.timer_slots.push(timer);
            slot
        };
        self.timers.push(Reverse((at, seq, slot)));
        (seq, slot)
    }

    /// Takes the waker of timer `seq`, if its entry is still queued and
    /// not cancelled yet. The seq check makes a late call a no-op: after
    /// the timer fired, its slot may already serve a newer timer.
    fn cancel_timer(&mut self, seq: u64, slot: u32) {
        let timer = &mut self.timer_slots[slot as usize];
        if timer.seq == seq && timer.waker.take().is_some() {
            self.dead_timers += 1;
        }
    }

    /// Pops the head of the heap and frees its slot. Returns the timer's
    /// waker, or `None` if the timer was cancelled.
    fn pop_timer(&mut self) -> Option<Waker> {
        let Reverse((_, seq, slot)) = self.timers.pop()?;
        let timer = &mut self.timer_slots[slot as usize];
        debug_assert_eq!(timer.seq, seq, "a queued timer's slot was reused");
        let waker = timer.waker.take();
        self.free_timer_slots.push(slot);
        if waker.is_none() {
            self.dead_timers -= 1;
        }
        waker
    }

    /// Discards cancelled timers sitting at the head of the heap so they
    /// never advance the clock.
    fn prune_cancelled_timers(&mut self) {
        while let Some(&Reverse((_, _, slot))) = self.timers.peek() {
            if self.timer_slots[slot as usize].waker.is_some() {
                break;
            }
            self.pop_timer();
        }
    }
}

/// Handle to a running (or constructed) simulation.
///
/// Obtainable inside tasks via [`Handle::try_current`], or from
/// [`Simulation::handle`]. Cloning is cheap.
#[derive(Clone)]
pub struct Handle {
    shared: Rc<Shared>,
    /// The simulation's tag, which its wakers carry.
    tag: usize,
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
        // The replaced handle drops after the cell is released.
        let _current = CONTEXT.with(|c| c.replace(self.prev.take()));
    }
}

impl Handle {
    /// The handle of the simulation currently running on this thread.
    ///
    /// # Panics
    ///
    /// Panics when called outside [`Simulation::run`] /
    /// [`Simulation::block_on`] (there is no ambient simulation).
    #[cfg(test)]
    pub(crate) fn current() -> Handle {
        Handle::try_current().expect(NO_CONTEXT)
    }

    /// The handle of the simulation currently running on this thread, or
    /// `None` outside [`Simulation::run`] / [`Simulation::block_on`].
    pub fn try_current() -> Option<Handle> {
        CONTEXT.with(|c| c.borrow().clone())
    }

    /// Runs `f` on the ambient handle, borrowed rather than cloned.
    fn with_current<R>(f: impl FnOnce(&Handle) -> R) -> R {
        CONTEXT.with(|c| f(c.borrow().as_ref().expect(NO_CONTEXT)))
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.core.borrow().now
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
        let task = Box::pin(Task {
            fut: Some(fut),
            state: Rc::clone(&state),
        });
        self.insert(task);
        JoinHandle::new(state)
    }

    /// Spawns a task whose output nobody awaits.
    ///
    /// It runs exactly as a [`spawn`](Handle::spawn)ed task would, from
    /// the same point of the ready queue, but it is stored as the boxed
    /// future alone: no join state is allocated. The future is dropped
    /// as soon as it completes, before the task leaves the
    /// [`live_tasks`](Handle::live_tasks) count.
    pub fn spawn_detached<F>(&self, fut: F)
    where
        F: Future<Output = ()> + 'static,
    {
        self.insert(Box::pin(fut));
    }

    /// Stores `task` in a free slot and queues its first poll.
    fn insert(&self, task: LocalFuture) {
        let id = self.shared.core.borrow_mut().insert_task(task);
        self.shared.ready.borrow_mut().push_back(id);
    }

    /// Number of tasks that have been spawned and not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.shared.core.borrow().live
    }

    /// Size of the task table: completed tasks' slots are reused, so
    /// this is the peak number of simultaneously live tasks so far.
    pub fn task_slots(&self) -> usize {
        self.shared.core.borrow().tasks.len()
    }

    /// Timers whose [`Sleep`](crate::Sleep) was dropped before its
    /// deadline and that have not reached the head of the timer heap
    /// yet. Each is discarded, without advancing the clock, by the time
    /// the clock passes its deadline.
    pub fn cancelled_timers(&self) -> usize {
        self.shared.core.borrow().dead_timers
    }

    /// Registers a sanitizer hook run after every executor step (each
    /// task poll). Hooks must be cheap and must panic on invariant
    /// violation — that is their whole job.
    #[cfg(feature = "sim-sanitizer")]
    pub fn add_step_hook(&self, hook: Rc<dyn Fn()>) {
        self.shared.core.borrow_mut().step_hooks.push(hook);
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
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Unregister first, so that wakes and timer cancellations from
        // the tasks dropped with the core find no simulation. The
        // registry's reference drops after the registry is released.
        let tag = self.handle.tag;
        let _registered = SIMULATIONS.try_with(|sims| {
            let mut sims = sims.borrow_mut();
            let at = sims.iter().position(|(t, _)| *t == tag)?;
            Some(sims.swap_remove(at))
        });
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
        let tag = NEXT_TAG.fetch_add(1, Ordering::Relaxed);
        assert!(
            tag < 1 << (usize::BITS - SLOT_BITS),
            "simulation tags exhausted"
        );
        let shared = Rc::new(Shared {
            core: RefCell::new(Core::new()),
            ready: RefCell::new(VecDeque::new()),
        });
        SIMULATIONS.with(|sims| sims.borrow_mut().push((tag, Rc::clone(&shared))));
        Simulation {
            handle: Handle { shared, tag },
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
    pub(crate) fn run_until(&mut self, limit: SimTime) -> SimTime {
        let _guard = ContextGuard::enter(self.handle());
        loop {
            self.drain_runnable();
            // Advance virtual time to the next (live) timer deadline.
            let next = {
                let mut core = self.handle.shared.core.borrow_mut();
                core.prune_cancelled_timers();
                core.timers.peek().map(|&Reverse((at, ..))| at)
            };
            let Some(next) = next else {
                break;
            };
            if next > limit {
                let mut core = self.handle.shared.core.borrow_mut();
                if limit != SimTime::MAX && limit > core.now {
                    core.now = limit;
                }
                break;
            }
            let mut core = self.handle.shared.core.borrow_mut();
            debug_assert!(next >= core.now, "timer in the past");
            core.now = next;
            while let Some(&Reverse((at, ..))) = core.timers.peek() {
                if at > next {
                    break;
                }
                if let Some(waker) = core.pop_timer() {
                    waker.wake();
                }
            }
        }
        self.now()
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

    /// Polls woken tasks in wake order until none is left.
    fn drain_runnable(&mut self) {
        loop {
            let next = self.handle.shared.ready.borrow_mut().pop_front();
            let Some(id) = next else {
                break;
            };
            self.poll_task(id);
        }
    }

    fn poll_task(&mut self, id: usize) {
        let core = &self.handle.shared.core;
        // Take the future out of its slot so the core is not borrowed while
        // the task runs (tasks may spawn, register timers, wake others...).
        let Some(mut fut) = core.borrow_mut().tasks.get_mut(id).and_then(Option::take) else {
            // Stale wake for a completed task.
            return;
        };
        let waker = task_waker(self.handle.tag, id);
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                // The finished task is dropped before it leaves the
                // live count and before the step hooks run, with the
                // core unborrowed: its destructors may cancel timers.
                drop(fut);
                let mut core = core.borrow_mut();
                core.free.push(id);
                core.live -= 1;
            }
            Poll::Pending => {
                core.borrow_mut().tasks[id] = Some(fut);
            }
        }
        // Every task poll is an executor step: give the sanitizer a
        // chance to check cross-module invariants at a quiescent point
        // (no task mid-poll, core unborrowed).
        #[cfg(feature = "sim-sanitizer")]
        {
            let hooks = core.borrow().step_hooks.clone();
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
/// Panics outside [`Simulation::run`] / [`Simulation::block_on`].
pub fn now() -> SimTime {
    Handle::with_current(Handle::now)
}

/// Current virtual time of the ambient simulation, or `None` outside
/// one.
pub fn try_now() -> Option<SimTime> {
    CONTEXT.with(|c| c.borrow().as_ref().map(Handle::now))
}

/// Registers `waker` with the ambient simulation's timer heap, to be
/// woken once the clock reaches `at`. Returns the timer's key: the
/// simulation's tag, the timer's sequence number and its slot.
pub(crate) fn register_timer(at: SimTime, waker: Waker) -> (usize, u64, u32) {
    Handle::with_current(|h| {
        let (seq, slot) = h.shared.core.borrow_mut().register_timer(at, waker);
        (h.tag, seq, slot)
    })
}

/// Cancels timer `seq` of simulation `tag`, in slot `slot`, whose future
/// is being dropped. A timer that already fired needs nothing; so does
/// one whose simulation is gone.
pub(crate) fn cancel_timer(tag: usize, seq: u64, slot: u32) {
    with_simulation(tag, |sim| sim.core.borrow_mut().cancel_timer(seq, slot));
}

/// Spawns a task onto the ambient simulation; see [`Handle::spawn`].
///
/// # Panics
///
/// Panics outside [`Simulation::run`] / [`Simulation::block_on`].
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    Handle::with_current(|h| h.spawn(fut))
}

/// Spawns a task whose output nobody awaits onto the ambient
/// simulation; see [`Handle::spawn_detached`].
///
/// # Panics
///
/// Panics outside [`Simulation::run`] / [`Simulation::block_on`].
pub fn spawn_detached<F>(fut: F)
where
    F: Future<Output = ()> + 'static,
{
    Handle::with_current(|h| h.spawn_detached(fut))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sleep;
    use std::cell::Cell;
    use std::time::Duration;

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
        // deadlock with a channel whose held sender never sends.
        let (_tx, mut rx) = crate::channel::unbounded::<()>();
        sim.spawn(async move {
            let _ = rx.recv().await;
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn block_on_deadlock_panics() {
        let (_tx, mut rx) = crate::channel::unbounded::<()>();
        let mut sim = Simulation::new();
        sim.block_on(async move {
            let _ = rx.recv().await;
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

    /// A spawned future is stored once, in place: the task adds only
    /// its join state to the future's own size.
    #[test]
    fn task_is_stored_at_its_futures_size() {
        let fut = async {
            let buf = [1u8; 1024];
            crate::yield_now().await;
            buf.iter().map(|&b| usize::from(b)).sum::<usize>()
        };
        let size = std::mem::size_of_val(&fut);
        assert!(size >= 1024, "the buffer is held across the await");
        let task = Task {
            fut: Some(fut),
            state: Rc::new(RefCell::new(JoinState::new())),
        };
        assert!(std::mem::size_of_val(&task) <= size + 16);
    }

    /// Records, when dropped, how many tasks its simulation counted
    /// live at that moment.
    struct DropProbe(Rc<Cell<Option<usize>>>);

    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.0.set(Some(Handle::current().live_tasks()));
        }
    }

    /// Sleeps 1 ms, flagging `finishing` as it completes. The probe is
    /// a field, so it drops with the task's box, not when the sleep
    /// returns (an `async` block would drop its locals on return).
    struct Probed {
        sleep: crate::Sleep,
        finishing: Rc<Cell<bool>>,
        _probe: DropProbe,
    }

    impl Probed {
        fn new(finishing: &Rc<Cell<bool>>, dropped: &Rc<Cell<Option<usize>>>) -> Self {
            Probed {
                sleep: sleep(Duration::from_millis(1)),
                finishing: Rc::clone(finishing),
                _probe: DropProbe(Rc::clone(dropped)),
            }
        }
    }

    impl Future for Probed {
        type Output = ();

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let out = Pin::new(&mut self.sleep).poll(cx);
            self.finishing.set(out.is_ready());
            out
        }
    }

    #[test]
    fn detached_future_drops_before_the_task_leaves_the_live_count() {
        let mut sim = Simulation::new();
        let finishing = Rc::new(Cell::new(false));
        let live_at_drop = Rc::new(Cell::new(None));
        sim.handle()
            .spawn_detached(Probed::new(&finishing, &live_at_drop));
        assert_eq!(sim.live_tasks(), 1);
        sim.run();
        assert!(finishing.get());
        assert_eq!(live_at_drop.get(), Some(1), "dropped while still live");
        assert_eq!(sim.live_tasks(), 0);
    }

    #[cfg(feature = "sim-sanitizer")]
    #[test]
    fn detached_future_drops_before_the_step_hooks_run() {
        let mut sim = Simulation::new();
        let finishing = Rc::new(Cell::new(false));
        let dropped = Rc::new(Cell::new(None));
        let checked = Rc::new(Cell::new(0u32));
        sim.handle().add_step_hook(Rc::new({
            let (finishing, dropped, checked) = (
                Rc::clone(&finishing),
                Rc::clone(&dropped),
                Rc::clone(&checked),
            );
            move || {
                if finishing.get() {
                    assert!(dropped.get().is_some(), "hook ran before the drop");
                    checked.set(checked.get() + 1);
                }
            }
        }));
        sim.handle()
            .spawn_detached(Probed::new(&finishing, &dropped));
        sim.run();
        assert_eq!(checked.get(), 1, "exactly one step follows the last poll");
    }

    #[test]
    fn detached_tasks_reuse_slots() {
        let mut sim = Simulation::new();
        let handle = sim.handle();
        sim.block_on(async move {
            for _ in 0..100 {
                handle.spawn_detached(async { sleep(Duration::from_millis(1)).await });
                sleep(Duration::from_millis(2)).await;
            }
        });
        assert_eq!(sim.live_tasks(), 0);
        assert_eq!(
            sim.handle().task_slots(),
            2,
            "the root task and one reused slot"
        );
    }

    /// Three tasks logging at same-instant wakes, timers and yields;
    /// `detach` picks which of them are spawned detached.
    fn interleaving(detach: [bool; 3]) -> (Vec<(u64, usize, u32)>, usize) {
        let mut sim = Simulation::new();
        let log: Rc<RefCell<Vec<(u64, usize, u32)>>> = Rc::default();
        for (task, detach) in detach.into_iter().enumerate() {
            let log = Rc::clone(&log);
            let fut = async move {
                for step in 0..4u32 {
                    log.borrow_mut().push((now().as_nanos(), task, step));
                    if step % 2 == 0 {
                        crate::yield_now().await;
                    }
                    sleep(Duration::from_millis(
                        1 + (task as u64 + u64::from(step)) % 2,
                    ))
                    .await;
                }
            };
            if detach {
                sim.handle().spawn_detached(fut);
            } else {
                drop(sim.spawn(fut));
            }
        }
        sim.run();
        let log = log.borrow().clone();
        (log, sim.handle().task_slots())
    }

    #[test]
    fn detached_and_joined_tasks_interleave_as_joined_ones_do() {
        let joined = interleaving([false; 3]);
        assert_eq!(joined.0.len(), 12);
        let same_instant = joined.0.windows(2).filter(|w| w[0].0 == w[1].0).count();
        assert!(same_instant >= 4, "the log exercises same-instant order");
        for detach in [[false, true, false], [true, false, true], [true; 3]] {
            assert_eq!(interleaving(detach), joined, "{detach:?}");
        }
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

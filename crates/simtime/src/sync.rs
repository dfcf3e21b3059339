//! Synchronization primitives in virtual time: [`Semaphore`] (FIFO-fair
//! counting semaphore with RAII permits) and [`Event`] (one-shot broadcast
//! flag).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WaiterPhase {
    Queued,
    Granted,
}

/// A parked [`Acquire`], from its first pending poll until it observes
/// its grant or is dropped. Its slot is then free for the next waiter.
struct Waiter {
    n: usize,
    phase: WaiterPhase,
    waker: Option<Waker>,
}

struct SemState {
    permits: usize,
    /// The slots of queued waiters, in FIFO order. A cancelled waiter
    /// leaves at once, so the length is the number of queued waiters.
    queue: VecDeque<u32>,
    /// Waiter slots, reused: a semaphore allocates only when more
    /// `Acquire`s are parked at once than ever before.
    slots: Vec<Waiter>,
    free: Vec<u32>,
}

impl SemState {
    fn park(&mut self, n: usize, waker: Waker) -> u32 {
        let waiter = Waiter {
            n,
            phase: WaiterPhase::Queued,
            waker: Some(waker),
        };
        let slot = if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = waiter;
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("semaphore waiter table full");
            self.slots.push(waiter);
            slot
        };
        self.queue.push_back(slot);
        slot
    }

    fn free_slot(&mut self, slot: u32) {
        self.slots[slot as usize].waker = None;
        self.free.push(slot);
    }

    /// Grants the head waiter its permits if they are available, and
    /// returns its waker.
    fn grant_head(&mut self) -> Option<Waker> {
        let &slot = self.queue.front()?;
        let waiter = &mut self.slots[slot as usize];
        if waiter.n > self.permits {
            return None;
        }
        self.permits -= waiter.n;
        waiter.phase = WaiterPhase::Granted;
        let waker = waiter.waker.take();
        self.queue.pop_front();
        waker
    }
}

/// A FIFO-fair counting semaphore.
///
/// Unlike `tokio::sync::Semaphore`, permits are plain `usize` counts and
/// acquisition order is strictly first-come-first-served — a large request
/// at the head of the queue blocks smaller later ones, which keeps
/// simulated resource contention deterministic and starvation-free.
///
/// # Examples
///
/// ```
/// use kaas_simtime::{Simulation, sync::Semaphore};
///
/// let mut sim = Simulation::new();
/// sim.block_on(async {
///     let sem = Semaphore::new(2);
///     let a = sem.acquire(1).await;
///     let b = sem.acquire(1).await;
///     assert_eq!(sem.available(), 0);
///     drop(a);
///     assert_eq!(sem.available(), 1);
///     drop(b);
/// });
/// ```
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

impl std::fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("Semaphore")
            .field("available", &s.permits)
            .field("waiters", &s.queue.len())
            .finish()
    }
}

impl Semaphore {
    /// Creates a semaphore with `permits` available permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(SemState {
                permits,
                queue: VecDeque::new(),
                slots: Vec::new(),
                free: Vec::new(),
            })),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.state.borrow().permits
    }

    /// Number of queued waiters.
    pub fn waiters(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// Acquires `n` permits, waiting in FIFO order; the returned
    /// [`SemaphoreGuard`] releases them when dropped.
    pub fn acquire(&self, n: usize) -> Acquire {
        Acquire {
            sem: self.clone(),
            n,
            phase: AcquirePhase::Idle,
        }
    }

    /// Attempts to acquire `n` permits without waiting.
    ///
    /// Fails (returns `None`) if fewer than `n` permits are available *or*
    /// earlier waiters are queued (FIFO fairness is never bypassed).
    #[cfg(test)]
    fn try_acquire(&self, n: usize) -> Option<SemaphoreGuard> {
        let mut s = self.state.borrow_mut();
        if !s.queue.is_empty() || s.permits < n {
            return None;
        }
        s.permits -= n;
        drop(s);
        Some(SemaphoreGuard {
            sem: self.clone(),
            n,
        })
    }

    /// Adds `n` new permits to the semaphore (capacity growth).
    pub(crate) fn add_permits(&self, n: usize) {
        self.state.borrow_mut().permits += n;
        self.grant();
    }

    /// Grants permits to waiters strictly in FIFO order, waking each
    /// as it is granted.
    fn grant(&self) {
        loop {
            let Some(waker) = self.state.borrow_mut().grant_head() else {
                return;
            };
            waker.wake();
        }
    }

    fn release(&self, n: usize) {
        self.add_permits(n);
    }
}

/// Where an [`Acquire`] stands. A parked one names its waiter slot.
#[derive(Clone, Copy, Debug)]
enum AcquirePhase {
    Idle,
    Parked(u32),
    Done,
}

/// Future returned by [`Semaphore::acquire`].
#[must_use = "futures do nothing unless awaited"]
#[derive(Debug)]
pub struct Acquire {
    sem: Semaphore,
    n: usize,
    phase: AcquirePhase,
}

impl Acquire {
    fn ready(&mut self) -> Poll<SemaphoreGuard> {
        self.phase = AcquirePhase::Done;
        Poll::Ready(SemaphoreGuard {
            sem: self.sem.clone(),
            n: self.n,
        })
    }
}

impl Future for Acquire {
    type Output = SemaphoreGuard;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.sem.state.borrow_mut();
        match self.phase {
            AcquirePhase::Idle => {
                if s.queue.is_empty() && s.permits >= self.n {
                    s.permits -= self.n;
                    drop(s);
                    return self.ready();
                }
                let slot = s.park(self.n, cx.waker().clone());
                drop(s);
                self.phase = AcquirePhase::Parked(slot);
                Poll::Pending
            }
            AcquirePhase::Parked(slot) => {
                let waiter = &mut s.slots[slot as usize];
                if waiter.phase == WaiterPhase::Granted {
                    s.free_slot(slot);
                    drop(s);
                    return self.ready();
                }
                // Refresh our stored waker.
                waiter.waker = Some(cx.waker().clone());
                Poll::Pending
            }
            AcquirePhase::Done => panic!("Acquire polled after completion"),
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        let AcquirePhase::Parked(slot) = self.phase else {
            return;
        };
        let mut s = self.sem.state.borrow_mut();
        let granted = s.slots[slot as usize].phase == WaiterPhase::Granted;
        s.free_slot(slot);
        if !granted {
            if let Some(at) = s.queue.iter().position(|&q| q == slot) {
                s.queue.remove(at);
            }
        }
        drop(s);
        if granted {
            // Granted but never observed: return the permits.
            self.sem.release(self.n);
        } else {
            // Leaving may unblock the waiters behind us.
            self.sem.grant();
        }
    }
}

/// RAII permit holder returned by [`Semaphore::acquire`]; releases its
/// permits on drop.
#[derive(Debug)]
pub struct SemaphoreGuard {
    sem: Semaphore,
    n: usize,
}

impl SemaphoreGuard {
    /// Number of permits held.
    pub fn permits(&self) -> usize {
        self.n
    }
}

impl Drop for SemaphoreGuard {
    fn drop(&mut self) {
        if self.n > 0 {
            self.sem.release(self.n);
        }
    }
}

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

struct EventState {
    set: bool,
    waiters: Vec<Waker>,
}

/// A one-shot broadcast flag: any number of tasks [`Event::wait`] until a
/// single [`Event::set`] releases them all (and all future waiters).
///
/// # Examples
///
/// ```
/// use kaas_simtime::{Simulation, spawn, sync::Event};
///
/// let mut sim = Simulation::new();
/// sim.block_on(async {
///     let ev = Event::new();
///     let ev2 = ev.clone();
///     let h = spawn(async move {
///         ev2.wait().await;
///         "released"
///     });
///     ev.set();
///     assert_eq!(h.await, "released");
/// });
/// ```
#[derive(Clone)]
pub struct Event {
    state: Rc<RefCell<EventState>>,
}

impl Default for Event {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("set", &self.is_set())
            .finish()
    }
}

impl Event {
    /// Creates an unset event.
    pub fn new() -> Self {
        Event {
            state: Rc::new(RefCell::new(EventState {
                set: false,
                waiters: Vec::new(),
            })),
        }
    }

    /// Sets the flag and wakes all current waiters. Idempotent.
    pub fn set(&self) {
        let wakers = {
            let mut s = self.state.borrow_mut();
            s.set = true;
            std::mem::take(&mut s.waiters)
        };
        for w in wakers {
            w.wake();
        }
    }

    /// Whether the flag has been set.
    pub fn is_set(&self) -> bool {
        self.state.borrow().set
    }

    /// Waits until the flag is set (immediately if it already is).
    pub fn wait(&self) -> EventWait {
        EventWait {
            state: Rc::clone(&self.state),
        }
    }
}

/// Future returned by [`Event::wait`].
#[must_use = "futures do nothing unless awaited"]
pub struct EventWait {
    state: Rc<RefCell<EventState>>,
}

impl std::fmt::Debug for EventWait {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventWait").finish_non_exhaustive()
    }
}

impl Future for EventWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut s = self.state.borrow_mut();
        if s.set {
            Poll::Ready(())
        } else {
            s.waiters.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{now, sleep, spawn, Simulation};
    use std::cell::Cell;
    use std::time::Duration;

    #[test]
    fn semaphore_limits_concurrency() {
        let mut sim = Simulation::new();
        let peak = Rc::new(Cell::new(0usize));
        let cur = Rc::new(Cell::new(0usize));
        sim.block_on(async move {
            let sem = Semaphore::new(3);
            let mut handles = Vec::new();
            for _ in 0..10 {
                let sem = sem.clone();
                let peak = Rc::clone(&peak);
                let cur = Rc::clone(&cur);
                handles.push(spawn(async move {
                    let _g = sem.acquire(1).await;
                    cur.set(cur.get() + 1);
                    peak.set(peak.get().max(cur.get()));
                    sleep(Duration::from_secs(1)).await;
                    cur.set(cur.get() - 1);
                }));
            }
            for h in handles {
                h.await;
            }
            assert_eq!(peak.get(), 3);
        });
    }

    #[test]
    fn semaphore_fifo_order() {
        let mut sim = Simulation::new();
        let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        sim.block_on({
            let order = Rc::clone(&order);
            async move {
                let sem = Semaphore::new(1);
                let mut handles = Vec::new();
                for i in 0..5u32 {
                    let sem = sem.clone();
                    let order = Rc::clone(&order);
                    handles.push(spawn(async move {
                        let _g = sem.acquire(1).await;
                        order.borrow_mut().push(i);
                        sleep(Duration::from_millis(10)).await;
                    }));
                    // Stagger arrivals so the queue order is well-defined.
                    sleep(Duration::from_millis(1)).await;
                }
                for h in handles {
                    h.await;
                }
            }
        });
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn large_request_blocks_smaller_later_ones() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let sem = Semaphore::new(2);
            let g = sem.acquire(2).await;
            let sem2 = sem.clone();
            let big = spawn(async move { drop(sem2.acquire(2).await) });
            sleep(Duration::from_millis(1)).await;
            // A small request arriving later must not overtake the big one.
            assert!(sem.try_acquire(1).is_none());
            drop(g);
            big.await;
            assert_eq!(sem.available(), 2);
        });
    }

    #[test]
    fn try_acquire_respects_availability() {
        let sem = Semaphore::new(1);
        let g = sem.try_acquire(1).expect("one available");
        assert!(sem.try_acquire(1).is_none());
        drop(g);
        assert!(sem.try_acquire(1).is_some());
    }

    #[test]
    fn add_permits_grows_capacity() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let sem = Semaphore::new(0);
            let sem2 = sem.clone();
            let h = spawn(async move {
                let _g = sem2.acquire(1).await;
                now()
            });
            sleep(Duration::from_secs(4)).await;
            sem.add_permits(1);
            assert_eq!(h.await, crate::SimTime::from_secs(4));
        });
    }

    #[test]
    fn cancelled_head_waiter_does_not_block_queue() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let sem = Semaphore::new(1);
            let g = sem.try_acquire(1).expect("free");
            let sem2 = sem.clone();
            let head = spawn(async move {
                // Give up waiting after 1s.
                crate::timeout(Duration::from_secs(1), sem2.acquire(1)).await
            });
            sleep(Duration::from_millis(10)).await;
            let sem3 = sem.clone();
            let tail = spawn(async move {
                let _g = sem3.acquire(1).await;
                now()
            });
            // Head cancels at t=1s; we release at t=3s; the cancelled head
            // must not prevent the tail waiter from acquiring.
            assert!(head.await.is_err());
            sleep(Duration::from_secs(2)).await;
            drop(g);
            let got_at = tail.await;
            assert_eq!(got_at.as_secs_f64(), 3.0);
        });
    }

    /// Slots in the waiter table, and how many of them are free.
    fn slot_table(sem: &Semaphore) -> (usize, usize) {
        let s = sem.state.borrow();
        (s.slots.len(), s.free.len())
    }

    #[test]
    fn sequential_parking_reuses_one_slot() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let sem = Semaphore::new(1);
            for _ in 0..1_000 {
                let g = sem.try_acquire(1).expect("free");
                let sem2 = sem.clone();
                let h = spawn(async move { drop(sem2.acquire(1).await) });
                crate::yield_now().await;
                assert_eq!(sem.waiters(), 1);
                drop(g);
                h.await;
            }
            assert_eq!(slot_table(&sem), (1, 1));
            assert_eq!(sem.available(), 1);
        });
    }

    #[test]
    fn waiter_cancelled_mid_queue_frees_its_slot() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let sem = Semaphore::new(1);
            let g = sem.try_acquire(1).expect("free");
            let order: Rc<RefCell<Vec<&str>>> = Rc::default();
            let waiter = |name: &'static str| {
                let (sem, order) = (sem.clone(), Rc::clone(&order));
                spawn(async move {
                    let _g = sem.acquire(1).await;
                    order.borrow_mut().push(name);
                })
            };
            let a = waiter("a");
            let sem2 = sem.clone();
            let b = spawn(async move {
                crate::timeout(Duration::from_secs(1), sem2.acquire(1))
                    .await
                    .is_err()
            });
            let c = waiter("c");
            crate::yield_now().await;
            assert_eq!((sem.waiters(), slot_table(&sem)), (3, (3, 0)));
            assert!(b.await, "b gave up waiting");
            assert_eq!((sem.waiters(), slot_table(&sem)), (2, (3, 1)));
            // A later waiter reuses b's slot and still queues behind c.
            let d = waiter("d");
            crate::yield_now().await;
            assert_eq!((sem.waiters(), slot_table(&sem)), (3, (3, 0)));
            drop(g);
            a.await;
            c.await;
            d.await;
            assert_eq!(*order.borrow(), ["a", "c", "d"]);
            assert_eq!(slot_table(&sem), (3, 3));
        });
    }

    #[test]
    fn acquire_dropped_after_grant_returns_permits_and_slot() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let sem = Semaphore::new(1);
            let g = sem.try_acquire(1).expect("free");
            let mut acquire = sem.acquire(1);
            std::future::poll_fn(|cx| {
                assert!(Pin::new(&mut acquire).poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            assert_eq!((sem.waiters(), slot_table(&sem)), (1, (1, 0)));
            // Granted while nobody polls it.
            drop(g);
            assert_eq!((sem.available(), sem.waiters()), (0, 0));
            drop(acquire);
            assert_eq!(sem.available(), 1);
            assert_eq!(slot_table(&sem), (1, 1));
        });
    }

    #[test]
    fn event_releases_all_waiters() {
        let mut sim = Simulation::new();
        let count = Rc::new(Cell::new(0));
        sim.block_on({
            let count = Rc::clone(&count);
            async move {
                let ev = Event::new();
                let mut hs = Vec::new();
                for _ in 0..5 {
                    let ev = ev.clone();
                    let count = Rc::clone(&count);
                    hs.push(spawn(async move {
                        ev.wait().await;
                        count.set(count.get() + 1);
                    }));
                }
                sleep(Duration::from_secs(1)).await;
                assert_eq!(count.get(), 0);
                ev.set();
                for h in hs {
                    h.await;
                }
                assert_eq!(count.get(), 5);
            }
        });
    }

    #[test]
    fn event_wait_after_set_is_immediate() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let ev = Event::new();
            ev.set();
            assert!(ev.is_set());
            ev.wait().await; // must not hang
        });
    }
}

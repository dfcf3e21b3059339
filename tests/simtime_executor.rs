//! Integration: the simtime executor's scheduling contract.
//!
//! Every seeded result in this repository replays byte for byte only
//! because the executor orders work deterministically. These tests pin
//! that order — same-instant tasks run in FIFO wake order, equal
//! deadlines fire in registration order — plus two resource properties:
//! a task keeps one waker for its whole life, and completed tasks' slots
//! are reused, so the task table never outgrows the peak live count.
//! Wakers name their own simulation: they never wake another one's
//! tasks, and outlive theirs as no-ops. A dropped timer never moves the
//! clock and leaves nothing behind, and never cancels the newer timer
//! that reuses its slot. A seeded timer mix replays a golden wake order.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use kaas::simtime::channel::unbounded;
use kaas::simtime::rng::stream_rng;
use kaas::simtime::{now, sleep, sleep_until, spawn, timeout, yield_now, SimTime, Simulation};

type Log = Rc<RefCell<Vec<String>>>;

fn push(log: &Log, entry: String) {
    log.borrow_mut().push(entry);
}

/// Tasks woken at one instant are polled in wake order, not spawn
/// order: here the wake order is reversed, then interleaved by yields.
#[test]
fn same_instant_tasks_run_in_fifo_wake_order() {
    let mut sim = Simulation::new();
    let log: Log = Rc::default();
    let l = Rc::clone(&log);
    sim.block_on(async move {
        let mut senders = Vec::new();
        let mut tasks = Vec::new();
        for name in ["a", "b", "c"] {
            let (tx, mut rx) = unbounded::<()>();
            senders.push(tx);
            let l = Rc::clone(&l);
            tasks.push(spawn(async move {
                push(&l, format!("{name}:start"));
                rx.recv().await.unwrap();
                for step in 0..2 {
                    push(&l, format!("{name}:{step}"));
                    yield_now().await;
                }
            }));
        }
        // Let every task park on its channel, then wake c, b, a.
        yield_now().await;
        for tx in senders.iter().rev() {
            tx.try_send(()).unwrap();
        }
        for t in tasks {
            t.await;
        }
    });
    let expected = [
        "a:start", "b:start", "c:start", "c:0", "b:0", "a:0", "c:1", "b:1", "a:1",
    ];
    assert_eq!(*log.borrow(), expected);
    assert_eq!(sim.now(), SimTime::ZERO, "nothing here advances the clock");
}

/// Timers with equal deadlines fire in the order they were registered,
/// whatever order their tasks were spawned in.
#[test]
fn equal_deadline_timers_fire_in_registration_order() {
    let mut sim = Simulation::new();
    let log: Log = Rc::default();
    for i in 0..5u64 {
        let l = Rc::clone(&log);
        sim.spawn(async move {
            // Task 4 registers its 1 s timer first, task 0 last.
            sleep(Duration::from_millis(10 * (5 - i))).await;
            push(&l, format!("registered {i}"));
            sleep_until(SimTime::from_secs(1)).await;
            push(&l, format!("fired {i}"));
        });
    }
    sim.run();
    let expected: Vec<String> = (0..5)
        .rev()
        .map(|i| format!("registered {i}"))
        .chain((0..5).rev().map(|i| format!("fired {i}")))
        .collect();
    assert_eq!(*log.borrow(), expected);
    assert_eq!(sim.now(), SimTime::from_secs(1));
}

/// Resolves at once to a clone of the waker it was polled with.
struct CurrentWaker;

impl Future for CurrentWaker {
    type Output = Waker;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Waker> {
        Poll::Ready(cx.waker().clone())
    }
}

/// A task is polled with the same waker every time — across a yield, a
/// timer, and a channel wake — so futures that cache it with
/// `will_wake` never need to re-register.
#[test]
fn a_task_keeps_one_waker_across_polls() {
    let mut sim = Simulation::new();
    let (same, other) = sim.block_on(async {
        let first = CurrentWaker.await;
        yield_now().await;
        let after_yield = CurrentWaker.await;
        sleep(Duration::from_millis(5)).await;
        let after_timer = CurrentWaker.await;
        let (tx, mut rx) = unbounded::<()>();
        spawn(async move { tx.try_send(()).unwrap() });
        rx.recv().await.unwrap();
        let after_channel = CurrentWaker.await;
        let other = spawn(CurrentWaker).await;
        (
            [after_yield, after_timer, after_channel]
                .iter()
                .all(|w| first.will_wake(w)),
            first.will_wake(&other),
        )
    });
    assert!(same, "a task's waker must be stable across polls");
    assert!(!other, "distinct live tasks must have distinct wakers");
}

/// 100 000 spawn/complete cycles reuse completed tasks' slots: the
/// task table stays at the peak number of simultaneously live tasks.
#[test]
fn task_table_is_bounded_by_peak_live_tasks() {
    let mut sim = Simulation::new();
    sim.block_on(async {
        for _ in 0..100_000 {
            spawn(async {}).await;
        }
    });
    // The root task plus one child at a time.
    assert_eq!(sim.handle().task_slots(), 2);

    let mut sim = Simulation::new();
    sim.block_on(async {
        for round in 0..10_000u64 {
            let wave: Vec<_> = (0..10)
                .map(|i| spawn(async move { sleep(Duration::from_nanos(round + i)).await }))
                .collect();
            for t in wave {
                t.await;
            }
        }
    });
    assert_eq!(sim.handle().task_slots(), 11);
    assert_eq!(sim.live_tasks(), 0);
}

/// Parks forever, counting its polls and keeping the last waker it saw.
struct Parked {
    polls: Rc<Cell<u32>>,
    waker: Rc<RefCell<Option<Waker>>>,
}

impl Future for Parked {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.polls.set(self.polls.get() + 1);
        *self.waker.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Spawns a [`Parked`] task on `sim`, runs it once, and returns its poll
/// count and waker.
fn park(sim: &mut Simulation) -> (Rc<Cell<u32>>, Waker) {
    let polls = Rc::new(Cell::new(0));
    let waker = Rc::new(RefCell::new(None));
    sim.spawn(Parked {
        polls: Rc::clone(&polls),
        waker: Rc::clone(&waker),
    });
    sim.run();
    assert_eq!(polls.get(), 1);
    let waker = waker.borrow().clone().expect("polled once");
    (polls, waker)
}

/// Two simulations on one thread each put a task in slot 0; a wake of
/// one's waker, from inside the other's run or from outside both, only
/// ever re-polls its own task.
#[test]
fn interleaved_simulations_never_wake_each_others_tasks() {
    let mut a = Simulation::new();
    let mut b = Simulation::new();
    let (a_polls, a_waker) = park(&mut a);
    let (b_polls, b_waker) = park(&mut b);
    assert!(!a_waker.will_wake(&b_waker));

    b.block_on(async move { a_waker.wake() });
    assert_eq!(b_polls.get(), 1, "A's wake reached B's task");
    b_waker.wake_by_ref();
    a.run();
    assert_eq!(a_polls.get(), 2, "A's task runs once for its own wake");
    assert_eq!(b_polls.get(), 1, "B's wake stays queued on B");
    b.run();
    assert_eq!(b_polls.get(), 2);
}

/// A waker that outlives its simulation wakes nothing, even when a new
/// simulation reuses the same slot id.
#[test]
fn a_waker_woken_after_its_simulation_is_dropped_is_a_noop() {
    let mut old = Simulation::new();
    let (_, stale) = park(&mut old);
    drop(old);
    let mut sim = Simulation::new();
    let (polls, _) = park(&mut sim);
    stale.wake_by_ref();
    stale.wake();
    sim.run();
    assert_eq!(
        polls.get(),
        1,
        "a stale wake re-polled another simulation's task"
    );
}

/// A sleep abandoned before its deadline (here, by a timeout) never
/// advances the clock to that deadline, and its cancellation is gone
/// once the clock passes it.
#[test]
fn a_sleep_dropped_before_its_deadline_never_moves_the_clock() {
    let mut sim = Simulation::new();
    let out = sim.block_on(timeout(
        Duration::from_secs(1),
        sleep(Duration::from_secs(10)),
    ));
    assert!(out.is_err());
    assert_eq!(sim.now(), SimTime::from_secs(1));

    let mut sim = Simulation::new();
    let handle = sim.handle();
    let log: Log = Rc::default();
    let l = Rc::clone(&log);
    sim.block_on(async move {
        let _ = timeout(Duration::from_secs(1), sleep(Duration::from_secs(10))).await;
        push(
            &l,
            format!("{} cancelled at 1 s", handle.cancelled_timers()),
        );
        sleep_until(SimTime::from_secs(5)).await;
        push(
            &l,
            format!("{} cancelled at 5 s", handle.cancelled_timers()),
        );
        sleep_until(SimTime::from_secs(11)).await;
        push(
            &l,
            format!("{} cancelled at 11 s", handle.cancelled_timers()),
        );
    });
    let expected = [
        "1 cancelled at 1 s",
        "1 cancelled at 5 s",
        "0 cancelled at 11 s",
    ];
    assert_eq!(*log.borrow(), expected);
    assert_eq!(sim.handle().cancelled_timers(), 0);
}

/// A sleep dropped after its timer fired, without being polled again,
/// has nothing left to cancel.
#[test]
fn a_sleep_dropped_after_it_fired_records_nothing() {
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let cancelled = sim.block_on(async move {
        let mut fired = Box::pin(sleep(Duration::from_secs(1)));
        // Arm the timer, then wait past its deadline without polling it.
        std::future::poll_fn(|cx| {
            assert!(fired.as_mut().poll(cx).is_pending());
            Poll::Ready(())
        })
        .await;
        sleep(Duration::from_secs(2)).await;
        drop(fired);
        handle.cancelled_timers()
    });
    assert_eq!(cancelled, 0);
    assert_eq!(sim.now(), SimTime::from_secs(2));
}

/// Pending on its first poll, without arranging a wake; ready on the
/// next. Lets a task wait for whatever else holds its waker.
#[derive(Default)]
struct AwaitWake(bool);

impl Future for AwaitWake {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if std::mem::replace(&mut self.0, true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// A timer's slot is reused once its entry leaves the heap. Here a
/// sleep fires without being polled again and a second timer takes its
/// slot: dropping the fired sleep afterwards must not cancel the second,
/// which fires at its own deadline.
#[test]
fn a_fired_sleep_dropped_late_never_cancels_the_timer_reusing_its_slot() {
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let out = sim.block_on(async move {
        let mut first = Box::pin(sleep(Duration::from_secs(1)));
        assert!(!poll_once(&mut first).await);
        // `first`'s timer is the only one: it fires, wakes this task and
        // frees its slot.
        AwaitWake::default().await;
        let fired_at = now();
        let mut second = Box::pin(sleep(Duration::from_secs(1)));
        assert!(!poll_once(&mut second).await);
        drop(first);
        let cancelled = handle.cancelled_timers();
        second.await;
        (fired_at, cancelled, now())
    });
    assert_eq!(
        out,
        (SimTime::from_secs(1), 0, SimTime::from_secs(2)),
        "(first fired, cancelled after the late drop, second fired)"
    );
    assert_eq!(sim.handle().cancelled_timers(), 0);
}

/// The same with the first sleep cancelled before its deadline: its
/// dead entry is popped, freeing the slot, and the timer that takes the
/// slot next fires at its deadline.
#[test]
fn a_cancelled_timers_slot_serves_the_next_timer_once_popped() {
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let out = sim.block_on(async move {
        let at = SimTime::from_secs(2);
        let mut wake = Box::pin(sleep_until(at));
        assert!(!poll_once(&mut wake).await);
        // Registered after `wake` at the same deadline, so its entry pops
        // after `wake`'s and its slot is the last one freed.
        let mut first = Box::pin(sleep_until(at));
        assert!(!poll_once(&mut first).await);
        drop(first);
        let before = handle.cancelled_timers();
        wake.await;
        let at_deadline = handle.cancelled_timers();
        sleep(Duration::from_secs(1)).await;
        (before, at_deadline, now(), handle.cancelled_timers())
    });
    assert_eq!(
        out,
        (1, 0, SimTime::from_secs(3), 0),
        "(cancelled before 2 s, cancelled at 2 s, second fired, cancelled after)"
    );
}

/// Where [`timer_order_log`]'s golden log lives.
const TIMER_ORDER_GOLDEN: &str = "tests/golden/timer_order.txt";

/// Appends `(instant, task, event)` to `log` as one line.
fn log_event(log: &RefCell<String>, task: u64, event: &str) {
    use std::fmt::Write as _;
    let at = now().as_nanos();
    writeln!(log.borrow_mut(), "{at} {task} {event}").expect("writing to a String");
}

/// Polls `fut` exactly once, arming its timer if it has one.
async fn poll_once<F: Future + Unpin>(fut: &mut F) -> bool {
    std::future::poll_fn(|cx| Poll::Ready(Pin::new(&mut *fut).poll(cx).is_ready())).await
}

/// A seeded mix of timers: 64 tasks arm `sleep`, `sleep_until` and
/// `timeout` at deadlines on a coarse 1 ms grid, so many fall on the
/// same instant; they drop a random share of armed sleeps before their
/// deadline (some re-arm the same deadline afterwards) and others after
/// they fired. Returns every event in wake order.
fn timer_order_log() -> String {
    const SEED: u64 = 23;
    const TASKS: u64 = 64;
    const ROUNDS: usize = 12;
    let ms = |n: u64| Duration::from_millis(n);

    let mut sim = Simulation::new();
    let log: Rc<RefCell<String>> = Rc::default();
    for task in 0..TASKS {
        let log = Rc::clone(&log);
        sim.spawn(async move {
            let mut rng = stream_rng(SEED, task);
            for _ in 0..ROUNDS {
                let d = ms(rng.gen_range(0..6));
                match rng.gen_range(0..6u32) {
                    0 => {
                        sleep(d).await;
                        log_event(&log, task, "sleep");
                    }
                    1 => {
                        // A deadline on the grid, shared by many tasks.
                        let grid = now().as_nanos() / 1_000_000;
                        let at = SimTime::from_nanos((grid + rng.gen_range(0..4)) * 1_000_000);
                        sleep_until(at).await;
                        log_event(&log, task, "sleep_until");
                    }
                    2 => {
                        let inner = ms(rng.gen_range(0..6));
                        let event = match timeout(d, sleep(inner)).await {
                            Ok(()) => "timeout ok",
                            Err(_) => "timeout elapsed",
                        };
                        log_event(&log, task, event);
                    }
                    3 => {
                        // Arm a sleep, then abandon it before its deadline.
                        let at = now() + d + ms(1 + rng.gen_range(0..4));
                        let mut armed = Box::pin(sleep_until(at));
                        assert!(!poll_once(&mut armed).await);
                        sleep(d).await;
                        drop(armed);
                        log_event(&log, task, "dropped early");
                        if rng.gen_bool(0.5) {
                            sleep_until(at).await;
                            log_event(&log, task, "re-armed");
                        }
                    }
                    4 => {
                        // Arm a sleep, let it fire unpolled, then drop it.
                        let mut armed = Box::pin(sleep(ms(1) + d));
                        assert!(!poll_once(&mut armed).await);
                        sleep(ms(1 + rng.gen_range(1..6)) + d).await;
                        drop(armed);
                        log_event(&log, task, "dropped fired");
                    }
                    _ => {
                        yield_now().await;
                        log_event(&log, task, "yield");
                    }
                }
            }
            log_event(&log, task, "done");
        });
    }
    sim.run();
    assert_eq!(sim.live_tasks(), 0);
    assert_eq!(sim.handle().cancelled_timers(), 0);
    Rc::try_unwrap(log)
        .expect("every task finished")
        .into_inner()
}

/// The seeded timer mix wakes its tasks in exactly the order recorded
/// in the golden log: equal deadlines fire in registration order and a
/// cancelled timer neither fires nor moves the clock.
#[test]
fn seeded_timer_mix_fires_in_the_golden_order() {
    let log = timer_order_log();
    let golden = std::fs::read_to_string(TIMER_ORDER_GOLDEN).expect("golden file present");
    assert_eq!(
        log, golden,
        "timer wake order drifted from {TIMER_ORDER_GOLDEN}"
    );
}

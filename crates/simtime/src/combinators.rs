//! [`join_all`]: await a batch of futures concurrently.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::spawn_detached;

/// Spawns every future and awaits all outputs, preserving input order.
///
/// Unlike sequentially awaiting, the futures run concurrently — in a
/// simulation that means their virtual-time activities overlap.
///
/// Nothing is spawned until the first poll. Members are detached tasks
/// that store their outputs in one shared table, and the joiner is woken
/// exactly when spawning each member and awaiting the
/// [`JoinHandle`](crate::JoinHandle)s in order would wake it: when the
/// lowest-index unfinished member completes.
///
/// # Examples
///
/// ```
/// use kaas_simtime::{join_all, now, sleep, Simulation};
/// use std::time::Duration;
///
/// let mut sim = Simulation::new();
/// let outs = sim.block_on(async {
///     let futs = (1..=3u64).map(|i| async move {
///         sleep(Duration::from_secs(i)).await;
///         i
///     });
///     join_all(futs).await
/// });
/// assert_eq!(outs, vec![1, 2, 3]);
/// // All three slept concurrently: 3 s total, not 6 s.
/// assert_eq!(sim.now().as_secs_f64(), 3.0);
/// ```
pub async fn join_all<I, F>(futures: I) -> Vec<F::Output>
where
    I: IntoIterator<Item = F>,
    F: Future + 'static,
    F::Output: 'static,
{
    let futures = futures.into_iter();
    let joined = Rc::new(RefCell::new(Joined {
        outputs: Vec::with_capacity(futures.size_hint().0),
        next: 0,
        waker: None,
    }));
    for (index, fut) in futures.enumerate() {
        joined.borrow_mut().outputs.push(None);
        spawn_detached(Member {
            fut: Some(fut),
            index,
            joined: Rc::clone(&joined),
        });
    }
    JoinAll { joined }.await
}

/// What [`join_all`]'s members share with its joiner.
struct Joined<T> {
    /// Each member's output, by input index, once it has completed.
    outputs: Vec<Option<T>>,
    /// The lowest index whose output the joiner has not seen: the one
    /// member it waits for.
    next: usize,
    /// The joiner's waker, while it waits for member `next`.
    waker: Option<Waker>,
}

/// One [`join_all`] member, shaped like the executor's joined task: the
/// future is stored once and dropped in place when it completes, before
/// its output is stored and the joiner woken.
struct Member<F: Future> {
    fut: Option<F>,
    index: usize,
    joined: Rc<RefCell<Joined<F::Output>>>,
}

impl<F: Future> Future for Member<F> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: `fut` is structurally pinned: it is never moved out of
        // the member, only dropped in place (by `Pin::set` below, or with
        // the member). `index` and `joined` are not pinned. `Member` has
        // no `Drop` impl.
        let this = unsafe { self.get_unchecked_mut() };
        let mut fut = unsafe { Pin::new_unchecked(&mut this.fut) };
        let Some(inner) = fut.as_mut().as_pin_mut() else {
            return Poll::Ready(());
        };
        let Poll::Ready(out) = inner.poll(cx) else {
            return Poll::Pending;
        };
        fut.set(None);
        let waker = {
            let mut joined = this.joined.borrow_mut();
            joined.outputs[this.index] = Some(out);
            if joined.next == this.index {
                joined.waker.take()
            } else {
                None
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
        Poll::Ready(())
    }
}

/// The joiner of a [`join_all`]: resolves to every output, in input
/// order, once the last one is stored.
struct JoinAll<T> {
    joined: Rc<RefCell<Joined<T>>>,
}

impl<T> Future for JoinAll<T> {
    type Output = Vec<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<T>> {
        let mut joined = self.joined.borrow_mut();
        let joined = &mut *joined;
        while let Some(out) = joined.outputs.get(joined.next) {
            if out.is_none() {
                joined.waker = Some(cx.waker().clone());
                return Poll::Pending;
            }
            joined.next += 1;
        }
        let outputs = std::mem::take(&mut joined.outputs);
        Poll::Ready(
            outputs
                .into_iter()
                .map(|out| out.expect("every member has completed"))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{now, sleep, spawn, yield_now, Simulation};
    use std::time::Duration;

    /// One entry per executor poll of a logged future: virtual time, the
    /// future's name, and whether the poll completed it.
    type PollLog = Rc<RefCell<Vec<(u64, u32, bool)>>>;

    /// A future that records each of its polls in a [`PollLog`].
    struct Logged<T> {
        name: u32,
        fut: Pin<Box<dyn Future<Output = T>>>,
        log: PollLog,
    }

    impl<T> Future for Logged<T> {
        type Output = T;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
            let out = self.fut.as_mut().poll(cx);
            let entry = (now().as_nanos(), self.name, out.is_ready());
            self.log.borrow_mut().push(entry);
            out
        }
    }

    /// Members that sleep, then yield: several finish at one instant
    /// with a higher index first, one finishes on its first poll.
    fn members(log: &PollLog) -> Vec<Logged<u32>> {
        let plan: [(u64, u32); 6] = [(2, 3), (1, 0), (2, 0), (0, 0), (2, 1), (1, 2)];
        plan.into_iter()
            .zip(0u32..)
            .map(|((ms, yields), name)| Logged {
                name,
                fut: Box::pin(async move {
                    if ms > 0 {
                        sleep(Duration::from_millis(ms)).await;
                    }
                    for _ in 0..yields {
                        yield_now().await;
                    }
                    name
                }),
                log: Rc::clone(log),
            })
            .collect()
    }

    /// Runs [`members`] under a logged joiner: through `join_all`, or
    /// spawned one by one and awaited in order.
    fn joined_poll_log(by_join_all: bool) -> Vec<(u64, u32, bool)> {
        const JOINER: u32 = 99;
        let log = PollLog::default();
        let mut sim = Simulation::new();
        let futs = members(&log);
        let joiner: Pin<Box<dyn Future<Output = Vec<u32>>>> = if by_join_all {
            Box::pin(join_all(futs))
        } else {
            Box::pin(async move {
                let handles: Vec<_> = futs.into_iter().map(spawn).collect();
                let mut outs = Vec::new();
                for h in handles {
                    outs.push(h.await);
                }
                outs
            })
        };
        let outs = sim.block_on(Logged {
            name: JOINER,
            fut: joiner,
            log: Rc::clone(&log),
        });
        assert_eq!(outs, (0..6).collect::<Vec<_>>());
        let log = log.borrow().clone();
        log
    }

    #[test]
    fn join_all_polls_as_in_order_awaited_join_handles_do() {
        let by_handles = joined_poll_log(false);
        let done: Vec<(u64, u32)> = by_handles
            .iter()
            .filter(|&&(_, name, ready)| ready && name < 6)
            .map(|&(at, name, _)| (at, name))
            .collect();
        assert!(
            done.windows(2).any(|w| w[0].0 == w[1].0 && w[0].1 > w[1].1),
            "some members finish at one instant out of index order: {done:?}"
        );
        assert_eq!(joined_poll_log(true), by_handles);
    }

    /// A member adds at most its index and the shared table's `Rc` to
    /// the future it runs, which it holds once.
    #[test]
    fn member_stays_small() {
        let fut = async {
            let buf = [1u8; 256];
            yield_now().await;
            u32::from(buf[7])
        };
        let size = std::mem::size_of_val(&fut);
        let member = Member {
            fut: Some(fut),
            index: 0,
            joined: Rc::new(RefCell::new(Joined {
                outputs: Vec::new(),
                next: 0,
                waker: None,
            })),
        };
        assert!(std::mem::size_of_val(&member) <= size + 24);
    }

    #[test]
    fn join_all_preserves_order_under_reversed_completion() {
        let mut sim = Simulation::new();
        let outs = sim.block_on(async {
            let futs = (0..4u64).map(|i| async move {
                // Later items finish earlier.
                sleep(Duration::from_secs(10 - i)).await;
                i
            });
            join_all(futs).await
        });
        assert_eq!(outs, vec![0, 1, 2, 3]);
        assert_eq!(sim.now(), crate::SimTime::from_secs(10));
    }

    #[test]
    fn join_all_of_empty_is_empty() {
        let mut sim = Simulation::new();
        let outs: Vec<u8> =
            sim.block_on(async { join_all(Vec::<std::future::Ready<u8>>::new()).await });
        assert!(outs.is_empty());
    }
}

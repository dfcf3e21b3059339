//! [`JoinHandle`]: awaiting the output of a spawned task.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Shared completion state between a spawned task and its [`JoinHandle`].
pub(crate) struct JoinState<T> {
    result: Option<T>,
    finished: bool,
    waker: Option<Waker>,
}

impl<T> JoinState<T> {
    pub(crate) fn new() -> Self {
        JoinState {
            result: None,
            finished: false,
            waker: None,
        }
    }

    pub(crate) fn complete(state: &Rc<RefCell<Self>>, value: T) {
        let waker = {
            let mut s = state.borrow_mut();
            s.result = Some(value);
            s.finished = true;
            s.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// Owned permission to await a spawned task's output.
///
/// Returned by [`crate::spawn`] and [`crate::Handle::spawn`]. Unlike most
/// runtimes, dropping a `JoinHandle` does *not* cancel the task — in a
/// simulation every spawned process keeps running unless the whole
/// simulation ends.
///
/// # Examples
///
/// ```
/// use kaas_simtime::{Simulation, spawn};
///
/// let mut sim = Simulation::new();
/// let out = sim.block_on(async {
///     let h = spawn(async { 2 + 2 });
///     h.await
/// });
/// assert_eq!(out, 4);
/// ```
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> JoinHandle<T> {
    pub(crate) fn new(state: Rc<RefCell<JoinState<T>>>) -> Self {
        JoinHandle { state }
    }

    /// Whether the task has run to completion.
    pub(crate) fn is_finished(&self) -> bool {
        self.state.borrow().finished
    }

    /// Takes the output if the task has completed and the output has not
    /// been taken yet (by `await` or a previous `try_take`).
    pub(crate) fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics if awaited again after the output was already taken.
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        if s.finished {
            match s.result.take() {
                Some(v) => Poll::Ready(v),
                None => panic!("JoinHandle output already taken"),
            }
        } else {
            s.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{sleep, spawn, Simulation};
    use std::time::Duration;

    #[test]
    fn try_take_before_completion_is_none() {
        let mut sim = Simulation::new();
        let h = sim.spawn(async {
            sleep(Duration::from_secs(1)).await;
            5
        });
        assert!(!h.is_finished());
        assert!(h.try_take().is_none());
        sim.run();
        assert!(h.is_finished());
        assert_eq!(h.try_take(), Some(5));
        assert_eq!(h.try_take(), None);
    }

    #[test]
    fn awaiting_finished_handle_is_immediate() {
        let mut sim = Simulation::new();
        let out = sim.block_on(async {
            let h = spawn(async { "done" });
            // Let the child run first.
            sleep(Duration::from_secs(1)).await;
            assert!(h.is_finished());
            h.await
        });
        assert_eq!(out, "done");
    }

    #[test]
    fn join_wakes_waiter() {
        let mut sim = Simulation::new();
        let out = sim.block_on(async {
            let h = spawn(async {
                sleep(Duration::from_secs(2)).await;
                99
            });
            h.await
        });
        assert_eq!(out, 99);
        assert_eq!(sim.now().as_secs_f64(), 2.0);
    }
}

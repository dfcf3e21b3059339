//! Virtual-time message passing: multi-producer single-consumer queues
//! ([`unbounded`], [`bounded`]).
//!
//! All channels are single-threaded (the simulation never leaves its
//! thread) but follow the familiar async-channel API shape so simulation
//! code reads like production service code.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// mpsc
// ---------------------------------------------------------------------------

/// Error returned by [`Sender::send`] / [`Sender::try_send`] when the
/// receiver is gone (or, for `try_send`, the queue is full); carries the
/// unsent value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed or full")
    }
}

impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

struct ParkedSend<T> {
    id: u64,
    value: Option<T>,
    waker: Option<Waker>,
    done: Rc<Cell<bool>>,
}

struct MpscState<T> {
    queue: VecDeque<T>,
    capacity: Option<usize>,
    parked: VecDeque<ParkedSend<T>>,
    senders: usize,
    rx_alive: bool,
    rx_waker: Option<Waker>,
    next_park_id: u64,
}

impl<T> MpscState<T> {
    fn wake_rx(&mut self) {
        if let Some(w) = self.rx_waker.take() {
            w.wake();
        }
    }

    /// After the queue shrank, promote parked sends into free slots.
    fn promote_parked(&mut self) {
        while let Some(cap) = self.capacity {
            if self.queue.len() >= cap {
                break;
            }
            let Some(mut park) = self.parked.pop_front() else {
                break;
            };
            if let Some(v) = park.value.take() {
                self.queue.push_back(v);
            }
            park.done.set(true);
            if let Some(w) = park.waker.take() {
                w.wake();
            }
        }
    }
}

/// Sending half of an mpsc channel. Cloneable.
pub struct Sender<T> {
    state: Rc<RefCell<MpscState<T>>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("len", &self.state.borrow().queue.len())
            .finish()
    }
}

/// Receiving half of an mpsc channel.
pub struct Receiver<T> {
    state: Rc<RefCell<MpscState<T>>>,
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("len", &self.state.borrow().queue.len())
            .finish()
    }
}

/// Creates a channel with no capacity limit: sends always complete
/// immediately.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Creates a channel holding at most `capacity` queued messages; senders
/// wait (in FIFO order) for space.
///
/// # Panics
///
/// Panics if `capacity == 0`.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "bounded channel capacity must be at least 1");
    with_capacity(Some(capacity))
}

fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(RefCell::new(MpscState {
        queue: VecDeque::new(),
        capacity,
        parked: VecDeque::new(),
        senders: 1,
        rx_alive: true,
        rx_waker: None,
        next_park_id: 0,
    }));
    (
        Sender {
            state: Rc::clone(&state),
        },
        Receiver { state },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().senders += 1;
        Sender {
            state: Rc::clone(&self.state),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.senders -= 1;
        if s.senders == 0 {
            s.wake_rx();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.rx_alive = false;
        // Unblock every parked sender; their sends fail. Entries stay in
        // the queue (with their values) so each `Send` future can recover
        // its value for the returned `SendError`.
        let mut wakers = Vec::new();
        for p in s.parked.iter_mut() {
            p.done.set(true);
            if let Some(w) = p.waker.take() {
                wakers.push(w);
            }
        }
        drop(s);
        for w in wakers {
            w.wake();
        }
    }
}

impl<T> Sender<T> {
    /// Sends `value`, waiting for queue space on bounded channels.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] carrying the value if the receiver was dropped
    /// (possibly while this send was parked; in that case the value is
    /// lost — it was already moved into the channel internals — and the
    /// error carries `None`-like semantics via [`SendError`] on entry only).
    pub fn send(&self, value: T) -> Send<'_, T> {
        Send {
            sender: self,
            value: Some(value),
            parked: None,
        }
    }

    /// Attempts to send without waiting.
    ///
    /// # Errors
    ///
    /// Returns the value if the channel is full or the receiver is gone.
    pub fn try_send(&self, value: T) -> Result<(), SendError<T>> {
        let mut s = self.state.borrow_mut();
        if !s.rx_alive {
            return Err(SendError(value));
        }
        if let Some(cap) = s.capacity {
            if s.queue.len() >= cap || !s.parked.is_empty() {
                return Err(SendError(value));
            }
        }
        s.queue.push_back(value);
        s.wake_rx();
        Ok(())
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the receiver is still alive.
    pub fn is_open(&self) -> bool {
        self.state.borrow().rx_alive
    }
}

/// Future returned by [`Sender::send`].
#[must_use = "futures do nothing unless awaited"]
pub struct Send<'a, T> {
    sender: &'a Sender<T>,
    value: Option<T>,
    parked: Option<(u64, Rc<Cell<bool>>)>,
}

impl<T> std::fmt::Debug for Send<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Send").finish_non_exhaustive()
    }
}

impl<T> Unpin for Send<'_, T> {}

impl<T> Future for Send<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        // Already parked: resolve when the channel marks us done.
        if let Some((id, done)) = &this.parked {
            if done.get() {
                let id = *id;
                let mut s = this.sender.state.borrow_mut();
                if s.rx_alive {
                    // Entry was promoted into the queue and removed.
                    drop(s);
                    this.parked = None;
                    return Poll::Ready(Ok(()));
                }
                // Channel closed while parked: recover our value.
                let pos = s
                    .parked
                    .iter()
                    .position(|p| p.id == id)
                    .expect("parked entry must survive channel close");
                let mut entry = s.parked.remove(pos).expect("indexed");
                drop(s);
                this.parked = None;
                let v = entry.value.take().expect("parked value intact on close");
                return Poll::Ready(Err(SendError(v)));
            }
            // Refresh waker.
            let mut s = this.sender.state.borrow_mut();
            let id = this.parked.as_ref().expect("parked").0;
            if let Some(p) = s.parked.iter_mut().find(|p| p.id == id) {
                p.waker = Some(cx.waker().clone());
            }
            return Poll::Pending;
        }

        let mut s = this.sender.state.borrow_mut();
        if !s.rx_alive {
            drop(s);
            let v = this.value.take().expect("send polled after completion");
            return Poll::Ready(Err(SendError(v)));
        }
        let must_park = match s.capacity {
            Some(cap) => s.queue.len() >= cap || !s.parked.is_empty(),
            None => false,
        };
        if must_park {
            let id = s.next_park_id;
            s.next_park_id += 1;
            let done = Rc::new(Cell::new(false));
            let v = this.value.take().expect("send value");
            s.parked.push_back(ParkedSend {
                id,
                value: Some(v),
                waker: Some(cx.waker().clone()),
                done: Rc::clone(&done),
            });
            drop(s);
            this.parked = Some((id, done));
            Poll::Pending
        } else {
            let v = this.value.take().expect("send polled after completion");
            s.queue.push_back(v);
            s.wake_rx();
            Poll::Ready(Ok(()))
        }
    }
}

impl<T> Drop for Send<'_, T> {
    fn drop(&mut self) {
        if let Some((id, _done)) = self.parked.take() {
            // Cancelled while parked (or closed before the final poll):
            // withdraw the entry if it is still queued.
            let mut s = self.sender.state.borrow_mut();
            s.parked.retain(|p| p.id != id);
        }
    }
}

impl<T> Receiver<T> {
    /// Receives the next message, waiting if the queue is empty.
    ///
    /// Resolves to `None` once every sender has been dropped and the queue
    /// is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { receiver: self }
    }

    /// Attempts to receive without waiting.
    pub fn try_recv(&mut self) -> Option<T> {
        let mut s = self.state.borrow_mut();
        let v = s.queue.pop_front();
        if v.is_some() {
            s.promote_parked();
        }
        v
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Receiver::recv`].
#[must_use = "futures do nothing unless awaited"]
pub struct Recv<'a, T> {
    receiver: &'a mut Receiver<T>,
}

impl<T> std::fmt::Debug for Recv<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recv").finish_non_exhaustive()
    }
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.receiver.state.borrow_mut();
        if let Some(v) = s.queue.pop_front() {
            s.promote_parked();
            return Poll::Ready(Some(v));
        }
        if s.senders == 0 {
            return Poll::Ready(None);
        }
        s.rx_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sleep, spawn, Simulation};
    use std::time::Duration;

    #[test]
    fn unbounded_fifo_order() {
        let mut sim = Simulation::new();
        let got = sim.block_on(async {
            let (tx, mut rx) = unbounded::<u32>();
            for i in 0..5 {
                tx.send(i).await.unwrap();
            }
            drop(tx);
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_waits_for_sender() {
        let mut sim = Simulation::new();
        let (tx, mut rx) = unbounded::<&str>();
        let h = sim.spawn(async move { rx.recv().await });
        sim.spawn(async move {
            sleep(Duration::from_secs(2)).await;
            tx.send("hi").await.unwrap();
        });
        sim.run();
        assert_eq!(h.try_take(), Some(Some("hi")));
        assert_eq!(sim.now().as_secs_f64(), 2.0);
    }

    #[test]
    fn recv_none_after_all_senders_drop() {
        let mut sim = Simulation::new();
        let out = sim.block_on(async {
            let (tx, mut rx) = unbounded::<u32>();
            let tx2 = tx.clone();
            drop(tx);
            spawn(async move {
                sleep(Duration::from_secs(1)).await;
                drop(tx2);
            });
            rx.recv().await
        });
        assert_eq!(out, None);
    }

    #[test]
    fn bounded_blocks_sender_until_space() {
        let mut sim = Simulation::new();
        let out = sim.block_on(async {
            let (tx, mut rx) = bounded::<u32>(1);
            tx.send(1).await.unwrap();
            let h = spawn(async move {
                // This send must wait until the receiver drains a slot.
                tx.send(2).await.unwrap();
                crate::now()
            });
            sleep(Duration::from_secs(3)).await;
            assert_eq!(rx.recv().await, Some(1));
            let sent_at = h.await;
            assert_eq!(sent_at.as_secs_f64(), 3.0);
            rx.recv().await
        });
        assert_eq!(out, Some(2));
    }

    #[test]
    fn bounded_preserves_order_across_parking() {
        let mut sim = Simulation::new();
        let got = sim.block_on(async {
            let (tx, mut rx) = bounded::<u32>(2);
            for i in 0..6 {
                let tx = tx.clone();
                spawn(async move {
                    tx.send(i).await.unwrap();
                });
            }
            drop(tx);
            sleep(Duration::from_secs(1)).await;
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn try_send_full_returns_value() {
        let (tx, _rx) = bounded::<u32>(1);
        assert!(tx.try_send(1).is_ok());
        assert_eq!(tx.try_send(2), Err(SendError(2)));
        assert_eq!(tx.len(), 1);
    }

    #[test]
    fn try_send_closed_returns_value() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(!tx.is_open());
        assert_eq!(tx.try_send(9), Err(SendError(9)));
    }

    #[test]
    fn try_recv_nonblocking() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let (tx, mut rx) = unbounded::<u32>();
            assert_eq!(rx.try_recv(), None);
            tx.send(3).await.unwrap();
            assert_eq!(rx.try_recv(), Some(3));
        });
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let mut sim = Simulation::new();
        let out = sim.block_on(async {
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            tx.send(11).await
        });
        assert_eq!(out, Err(SendError(11)));
    }

    #[test]
    fn receiver_drop_unblocks_parked_senders() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).await.unwrap();
            let h = spawn(async move {
                match tx.send(2).await {
                    Err(SendError(v)) => v,
                    Ok(()) => panic!("send should fail after receiver drop"),
                }
            });
            sleep(Duration::from_secs(1)).await;
            drop(rx);
            // The parked sender gets its value back in the error.
            assert_eq!(h.await, 2);
        });
    }
}

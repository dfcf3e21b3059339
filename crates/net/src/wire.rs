//! A unidirectional, order-preserving message pipe with link timing.
//!
//! A [`Wire`] models a TCP-like byte stream at message granularity:
//! transmissions serialize on the link (bandwidth sharing), then propagate
//! for the link latency, and arrive in order. Multiple messages may be "in
//! flight" (transmitted but still propagating) simultaneously, so long
//! fat pipes behave correctly.
//!
//! A [`Frame`] carries whatever the application calls one message — the
//! KaaS protocol coalesces a whole client batch into a single frame
//! (`RequestFrame::Batch` in `kaas-core`), so the batch pays one
//! transmission slot and one propagation latency instead of one per
//! call; its `bytes` field is the coalesced wire size.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use kaas_simtime::channel::{self, Receiver, Sender};
use kaas_simtime::sync::Semaphore;
use kaas_simtime::{sleep, spawn_detached};

use crate::profile::LinkProfile;

#[derive(Debug, Default)]
struct LinkFaultState {
    extra_delay: Cell<Duration>,
    drop_next: Cell<u32>,
    dropped: Cell<u64>,
}

/// A shared fault-injection handle for one wire direction.
///
/// Every [`WireSender`] owns one; clones share state, so a handle taken
/// from a connection keeps steering the link afterwards. Two fault
/// modes, both deterministic:
///
/// * **delay spike** — [`set_extra_delay`](LinkFault::set_extra_delay)
///   adds a fixed extra propagation delay to every frame until cleared.
/// * **drop** — [`drop_next`](LinkFault::drop_next) silently discards
///   the next *n* frames after transmission (the sender still pays the
///   transmission time, like a packet lost past the NIC). The receiver
///   never sees them; recovery is the caller's timeout.
#[derive(Debug, Clone, Default)]
pub struct LinkFault {
    state: Rc<LinkFaultState>,
}

impl LinkFault {
    /// Creates an inert handle (no delay, no drops).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the extra propagation delay added to every subsequent frame
    /// (pass [`Duration::ZERO`] to end the spike).
    pub fn set_extra_delay(&self, extra: Duration) {
        self.state.extra_delay.set(extra);
    }

    /// The currently injected extra delay.
    pub fn extra_delay(&self) -> Duration {
        self.state.extra_delay.get()
    }

    /// Arms the link to drop the next `n` frames.
    pub fn drop_next(&self, n: u32) {
        self.state.drop_next.set(self.state.drop_next.get() + n);
    }

    /// Total frames dropped by this handle so far.
    pub fn dropped(&self) -> u64 {
        self.state.dropped.get()
    }

    /// Consumes one armed drop, returning whether the frame should be
    /// discarded.
    fn take_drop(&self) -> bool {
        let n = self.state.drop_next.get();
        if n > 0 {
            self.state.drop_next.set(n - 1);
            self.state.dropped.set(self.state.dropped.get() + 1);
            true
        } else {
            false
        }
    }
}

/// A message travelling over a wire: an application value annotated with
/// its on-wire size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<T> {
    /// Application payload.
    pub body: T,
    /// Wire size in bytes (drives transmission time).
    pub bytes: u64,
}

impl<T> Frame<T> {
    /// Creates a frame of `bytes` on-wire size.
    pub fn new(body: T, bytes: u64) -> Self {
        Frame { body, bytes }
    }
}

/// Sending half of a [`wire`].
pub struct WireSender<T> {
    profile: LinkProfile,
    link: Semaphore,
    tx: Sender<Frame<T>>,
    fault: LinkFault,
}

impl<T> std::fmt::Debug for WireSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireSender")
            .field("profile", &self.profile)
            .finish()
    }
}

impl<T> Clone for WireSender<T> {
    fn clone(&self) -> Self {
        WireSender {
            profile: self.profile,
            link: self.link.clone(),
            tx: self.tx.clone(),
            fault: self.fault.clone(),
        }
    }
}

/// Receiving half of a [`wire`].
pub struct WireReceiver<T> {
    rx: Receiver<Frame<T>>,
}

impl<T> std::fmt::Debug for WireReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireReceiver").finish_non_exhaustive()
    }
}

/// Creates a unidirectional wire with the given link timing.
pub fn wire<T: 'static>(profile: LinkProfile) -> (WireSender<T>, WireReceiver<T>) {
    let (tx, rx) = channel::unbounded();
    (
        WireSender {
            profile,
            link: Semaphore::new(1),
            tx,
            fault: LinkFault::new(),
        },
        WireReceiver { rx },
    )
}

/// Error returned by [`WireSender::send`] when the receiving endpoint has
/// been dropped before transmission begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire peer disconnected")
    }
}

impl std::error::Error for Disconnected {}

impl<T: 'static> WireSender<T> {
    /// Transmits `frame`: waits for the link (FIFO), spends the
    /// transmission time, then lets the frame propagate in the background
    /// and delivers it after the link latency.
    ///
    /// Resolves when transmission completes (the sender is free again),
    /// *not* when the frame arrives — like a socket write returning once
    /// the bytes hit the send buffer/wire.
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] if the receiver is gone.
    // An `async fn` would move `frame` into a second slot of its future,
    // so the frame would be stored twice.
    #[allow(clippy::manual_async_fn)]
    pub fn send(&self, frame: Frame<T>) -> impl Future<Output = Result<(), Disconnected>> + '_ {
        async move {
            if !self.tx.is_open() {
                return Err(Disconnected);
            }
            let _guard = self.link.acquire(1).await;
            sleep(self.profile.transmission_time(frame.bytes)).await;
            if self.fault.take_drop() {
                // The frame is lost past the NIC: the sender already paid
                // the transmission time, the receiver never hears about it.
                return Ok(());
            }
            let latency = self.profile.latency + self.fault.extra_delay();
            let tx = self.tx.clone();
            // Propagation happens off the sender's critical path so the
            // link can pipeline subsequent transmissions. The channel is
            // unbounded, so delivery never waits: `try_send` is the
            // `send().await` it would otherwise be, minus the future.
            spawn_detached(async move {
                sleep(latency).await;
                let _ = tx.try_send(frame);
            });
            Ok(())
        }
    }

    /// The link timing profile.
    pub fn profile(&self) -> LinkProfile {
        self.profile
    }

    /// The fault-injection handle steering this wire direction (shared
    /// across clones of the sender).
    pub fn fault(&self) -> LinkFault {
        self.fault.clone()
    }

    /// Whether the receiving endpoint still exists.
    pub fn is_open(&self) -> bool {
        self.tx.is_open()
    }
}

impl<T> WireReceiver<T> {
    /// Receives the next frame; `None` once all senders are gone and the
    /// pipe is drained.
    pub async fn recv(&mut self) -> Option<Frame<T>> {
        self.rx.recv().await
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<Frame<T>> {
        self.rx.try_recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::LinkProfile;
    use kaas_simtime::{now, spawn, Simulation};
    use std::time::Duration;

    fn test_link() -> LinkProfile {
        // 1 MB/s, 10 ms latency, no per-message overhead: easy arithmetic.
        LinkProfile::new(Duration::from_millis(10), 1.0e6)
    }

    #[test]
    fn frame_arrives_after_transmission_plus_latency() {
        let mut sim = Simulation::new();
        let arrived = sim.block_on(async {
            let (tx, mut rx) = wire::<&str>(test_link());
            spawn(async move {
                tx.send(Frame::new("hello", 1_000_000)).await.unwrap();
            });
            rx.recv().await.expect("frame");
            now()
        });
        // 1 s transmission + 10 ms latency.
        assert!((arrived.as_secs_f64() - 1.01).abs() < 1e-9);
    }

    #[test]
    fn messages_arrive_in_order_and_pipeline() {
        let mut sim = Simulation::new();
        let (order, t_last) = sim.block_on(async {
            let (tx, mut rx) = wire::<u32>(test_link());
            spawn(async move {
                for i in 0..3 {
                    tx.send(Frame::new(i, 500_000)).await.unwrap();
                }
            });
            let mut order = Vec::new();
            while order.len() < 3 {
                order.push(rx.recv().await.unwrap().body);
            }
            (order, now())
        });
        assert_eq!(order, vec![0, 1, 2]);
        // Three 0.5 s transmissions serialize; last arrives at 1.5 s + 10 ms,
        // NOT at 3 × (0.5 + 0.01): propagation overlaps transmission.
        assert!((t_last.as_secs_f64() - 1.51).abs() < 1e-9);
    }

    #[test]
    fn send_returns_at_transmission_end() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            let (tx, _rx) = wire::<u8>(test_link());
            tx.send(Frame::new(1, 1_000_000)).await.unwrap();
            now()
        });
        assert!(
            (t.as_secs_f64() - 1.0).abs() < 1e-9,
            "send resolves pre-latency"
        );
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let mut sim = Simulation::new();
        let out = sim.block_on(async {
            let (tx, rx) = wire::<u8>(test_link());
            drop(rx);
            assert!(!tx.is_open());
            tx.send(Frame::new(1, 10)).await
        });
        assert_eq!(out, Err(Disconnected));
    }

    #[test]
    fn dropped_frames_cost_transmission_but_never_arrive() {
        let mut sim = Simulation::new();
        let (got, dropped, t) = sim.block_on(async {
            let (tx, mut rx) = wire::<u32>(test_link());
            tx.fault().drop_next(1);
            tx.send(Frame::new(1, 1_000_000)).await.unwrap();
            let t_after_drop = now();
            // The dropped frame still held the link for its 1 s
            // transmission time.
            assert!((t_after_drop.as_secs_f64() - 1.0).abs() < 1e-9);
            tx.send(Frame::new(2, 1_000_000)).await.unwrap();
            let got = rx.recv().await.unwrap().body;
            (got, tx.fault().dropped(), now())
        });
        assert_eq!(got, 2, "the dropped frame is never delivered");
        assert_eq!(dropped, 1);
        assert!((t.as_secs_f64() - 2.01).abs() < 1e-9);
    }

    #[test]
    fn extra_delay_spikes_propagation() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            let (tx, mut rx) = wire::<u8>(test_link());
            tx.fault().set_extra_delay(Duration::from_millis(90));
            spawn(async move {
                tx.send(Frame::new(1, 1_000_000)).await.unwrap();
            });
            rx.recv().await.unwrap();
            now()
        });
        // 1 s transmission + 10 ms latency + 90 ms injected delay.
        assert!((t.as_secs_f64() - 1.1).abs() < 1e-9, "t={t:?}");
    }

    #[test]
    fn concurrent_senders_share_the_link() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            let (tx, mut rx) = wire::<u32>(test_link());
            for i in 0..4u32 {
                let tx = tx.clone();
                spawn(async move {
                    tx.send(Frame::new(i, 250_000)).await.unwrap();
                });
            }
            for _ in 0..4 {
                rx.recv().await.unwrap();
            }
            now()
        });
        // 4 × 0.25 s serialized + 10 ms propagation of the last frame.
        assert!((t.as_secs_f64() - 1.01).abs() < 1e-9);
    }
}

//! Bidirectional connections, listeners, and a tiny in-simulation
//! "network" with named endpoints — the TCP analogue the KaaS prototype
//! builds on (§4.1: client ↔ KaaS server ↔ task runners all speak TCP).
//!
//! The `Out`/`In` payload types are opaque here; the KaaS protocol
//! instantiates them with framed envelopes (`RequestFrame` /
//! `ResponseFrame` in `kaas-core`) so one [`send`](Connection::send)
//! can carry either a single call or a coalesced batch — batching is
//! purely an application-level choice of what constitutes a frame, and
//! replies coalesce symmetrically on the return wire.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::rc::Rc;

use kaas_simtime::channel::{self, Receiver, Sender};
use kaas_simtime::trace::{SpanId, SpanSink};
use kaas_simtime::{now, sleep};

use crate::profile::LinkProfile;
use crate::wire::{wire, Disconnected, Frame, LinkFault, WireReceiver, WireSender};

/// One side of a bidirectional connection: sends `Out` frames, receives
/// `In` frames.
#[derive(Debug)]
pub struct Connection<Out, In> {
    tx: WireSender<Out>,
    rx: WireReceiver<In>,
    tracer: Option<(SpanSink, String)>,
}

impl<Out: 'static, In: 'static> Connection<Out, In> {
    /// Sends a frame (resolves at end of transmission; delivery happens
    /// after the link latency).
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] if the peer is gone.
    pub fn send(
        &self,
        body: Out,
        bytes: u64,
    ) -> impl Future<Output = Result<(), Disconnected>> + '_ {
        self.tx.send(Frame::new(body, bytes))
    }

    /// Attaches a span sink: every traced send records a `net_send` span
    /// on `track` covering the transmission time (see
    /// [`send_traced`](Connection::send_traced)).
    pub fn set_tracer(&mut self, sink: SpanSink, track: impl Into<String>) {
        self.tracer = Some((sink, track.into()));
    }

    /// Like [`send`](Connection::send), but records a `net_send` span
    /// (child of `parent`, annotated with the frame size) when a tracer
    /// is attached via [`set_tracer`](Connection::set_tracer).
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] if the peer is gone.
    // An `async fn` would hold `body` in its own slot beside the send
    // future that also holds it.
    #[allow(clippy::manual_async_fn)]
    pub fn send_traced(
        &self,
        body: Out,
        bytes: u64,
        parent: Option<SpanId>,
    ) -> impl Future<Output = Result<(), Disconnected>> + '_ {
        async move {
            let t0 = now();
            let result = self.tx.send(Frame::new(body, bytes)).await;
            if let Some((sink, track)) = &self.tracer {
                sink.record(
                    track.clone(),
                    "net_send",
                    t0,
                    now(),
                    parent,
                    vec![("bytes".into(), bytes.to_string())],
                );
            }
            result
        }
    }

    /// Receives the next frame; `None` when the peer hung up.
    pub async fn recv(&mut self) -> Option<Frame<In>> {
        self.rx.recv().await
    }

    /// The link profile of the sending direction.
    pub fn profile(&self) -> LinkProfile {
        self.tx.profile()
    }

    /// The fault-injection handle for the sending direction (shared with
    /// every clone of the underlying wire — see [`LinkFault`]).
    pub fn fault(&self) -> LinkFault {
        self.tx.fault()
    }

    /// Whether the peer's receiving half still exists.
    pub fn is_open(&self) -> bool {
        self.tx.is_open()
    }

    /// Splits into independently owned halves.
    pub fn split(self) -> (WireSender<Out>, WireReceiver<In>) {
        (self.tx, self.rx)
    }
}

/// Creates a directly-wired connection pair (no listener involved), with
/// symmetric link timing.
fn pair<A: 'static, B: 'static>(profile: LinkProfile) -> (Connection<A, B>, Connection<B, A>) {
    let (atx, arx) = wire::<A>(profile);
    let (btx, brx) = wire::<B>(profile);
    (
        Connection {
            tx: atx,
            rx: brx,
            tracer: None,
        },
        Connection {
            tx: btx,
            rx: arx,
            tracer: None,
        },
    )
}

/// Errors from [`Network::connect`] / [`Network::listen`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No listener is bound to the address.
    ConnectionRefused(String),
    /// The address already has a listener.
    AddrInUse(String),
    /// The listener was dropped while connecting.
    ListenerClosed(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::ConnectionRefused(a) => write!(f, "connection refused: {a}"),
            NetError::AddrInUse(a) => write!(f, "address in use: {a}"),
            NetError::ListenerClosed(a) => write!(f, "listener closed: {a}"),
        }
    }
}

impl std::error::Error for NetError {}

type ServerConn<Req, Resp> = Connection<Resp, Req>;

struct NetState<Req, Resp> {
    listeners: BTreeMap<String, Sender<ServerConn<Req, Resp>>>,
    next_client: u64,
}

/// A named-endpoint network for one request/response protocol.
///
/// Servers [`listen`](Network::listen) on string addresses; clients
/// [`connect`](Network::connect) with a chosen [`LinkProfile`] (loopback
/// for same-host, `lan_1gbps` for remote — the caller decides topology).
///
/// # Examples
///
/// ```
/// use kaas_net::{Network, LinkProfile};
/// use kaas_simtime::{Simulation, spawn};
///
/// let mut sim = Simulation::new();
/// let got = sim.block_on(async {
///     let net: Network<&str, u32> = Network::new();
///     let mut listener = net.listen("kaas:7000").unwrap();
///     spawn(async move {
///         let mut conn = listener.accept().await.unwrap();
///         let req = conn.recv().await.unwrap();
///         assert_eq!(req.body, "len?");
///         conn.send(4, 8).await.unwrap();
///     });
///     let mut c = net.connect("kaas:7000", LinkProfile::loopback()).await.unwrap();
///     c.send("len?", 4).await.unwrap();
///     c.recv().await.unwrap().body
/// });
/// assert_eq!(got, 4);
/// ```
pub struct Network<Req, Resp> {
    state: Rc<RefCell<NetState<Req, Resp>>>,
}

impl<Req, Resp> std::fmt::Debug for Network<Req, Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("listeners", &self.state.borrow().listeners.len())
            .finish()
    }
}

impl<Req, Resp> Clone for Network<Req, Resp> {
    fn clone(&self) -> Self {
        Network {
            state: Rc::clone(&self.state),
        }
    }
}

impl<Req: 'static, Resp: 'static> Default for Network<Req, Resp> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Req: 'static, Resp: 'static> Network<Req, Resp> {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network {
            state: Rc::new(RefCell::new(NetState {
                listeners: BTreeMap::new(),
                next_client: 0,
            })),
        }
    }

    /// Hands out the next client identity on this network (0, 1, 2, …).
    ///
    /// Protocols use this to namespace per-client sequence numbers:
    /// two clients of the same network that both start counting requests
    /// from zero would otherwise collide in merged traces. Allocation is
    /// per-network state, so identical simulation runs hand out
    /// identical ids.
    pub fn alloc_client_id(&self) -> u64 {
        let mut s = self.state.borrow_mut();
        let id = s.next_client;
        s.next_client += 1;
        id
    }

    /// Binds a listener to `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::AddrInUse`] if `addr` already has a listener.
    pub fn listen(&self, addr: &str) -> Result<Listener<Req, Resp>, NetError> {
        let mut s = self.state.borrow_mut();
        if s.listeners.contains_key(addr) {
            return Err(NetError::AddrInUse(addr.to_owned()));
        }
        let (tx, rx) = channel::unbounded();
        s.listeners.insert(addr.to_owned(), tx);
        Ok(Listener {
            addr: addr.to_owned(),
            incoming: rx,
            net: Rc::clone(&self.state),
        })
    }

    /// Opens a connection to `addr` over a link with `profile` timing.
    /// Establishment costs one round trip.
    ///
    /// # Errors
    ///
    /// [`NetError::ConnectionRefused`] if nothing listens on `addr`;
    /// [`NetError::ListenerClosed`] if the listener disappeared mid-dial.
    pub async fn connect(
        &self,
        addr: &str,
        profile: LinkProfile,
    ) -> Result<Connection<Req, Resp>, NetError> {
        let acceptor = self
            .state
            .borrow()
            .listeners
            .get(addr)
            .cloned()
            .ok_or_else(|| NetError::ConnectionRefused(addr.to_owned()))?;
        // TCP-style handshake: one round trip before data can flow.
        sleep(profile.latency * 2).await;
        let (client, server) = pair::<Req, Resp>(profile);
        acceptor
            .send(server)
            .await
            .map_err(|_| NetError::ListenerClosed(addr.to_owned()))?;
        Ok(client)
    }
}

/// Accepts inbound connections for an address; unbinds on drop.
pub struct Listener<Req, Resp> {
    addr: String,
    incoming: Receiver<ServerConn<Req, Resp>>,
    net: Rc<RefCell<NetState<Req, Resp>>>,
}

impl<Req, Resp> std::fmt::Debug for Listener<Req, Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Listener")
            .field("addr", &self.addr)
            .finish()
    }
}

impl<Req, Resp> Listener<Req, Resp> {
    /// The bound address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Waits for the next inbound connection; `None` if the network side
    /// dropped (cannot normally happen while the listener is bound).
    pub async fn accept(&mut self) -> Option<ServerConn<Req, Resp>> {
        self.incoming.recv().await
    }
}

impl<Req, Resp> Drop for Listener<Req, Resp> {
    fn drop(&mut self) {
        self.net.borrow_mut().listeners.remove(&self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_simtime::{now, spawn, Simulation};
    use std::time::Duration;

    #[test]
    fn connect_without_listener_refused() {
        let mut sim = Simulation::new();
        let out = sim.block_on(async {
            let net: Network<u8, u8> = Network::new();
            net.connect("nowhere", LinkProfile::loopback()).await.err()
        });
        assert_eq!(out, Some(NetError::ConnectionRefused("nowhere".into())));
    }

    #[test]
    fn double_listen_rejected() {
        let net: Network<u8, u8> = Network::new();
        let _l = net.listen("a").unwrap();
        assert_eq!(net.listen("a").err(), Some(NetError::AddrInUse("a".into())));
    }

    #[test]
    fn listener_drop_unbinds() {
        let net: Network<u8, u8> = Network::new();
        drop(net.listen("a").unwrap());
        assert!(net.listen("a").is_ok());
    }

    #[test]
    fn handshake_costs_one_rtt() {
        let mut sim = Simulation::new();
        let t = sim.block_on(async {
            let net: Network<u8, u8> = Network::new();
            let _l = net.listen("srv").unwrap();
            let link = LinkProfile::new(Duration::from_millis(50), 1e9);
            net.connect("srv", link).await.unwrap();
            now()
        });
        assert_eq!(t.as_secs_f64(), 0.1);
    }

    #[test]
    fn request_response_roundtrip() {
        let mut sim = Simulation::new();
        let reply = sim.block_on(async {
            let net: Network<u32, u32> = Network::new();
            let mut l = net.listen("echo").unwrap();
            spawn(async move {
                while let Some(mut conn) = l.accept().await {
                    spawn(async move {
                        while let Some(req) = conn.recv().await {
                            conn.send(req.body * 2, 8).await.ok();
                        }
                    });
                }
            });
            let mut c = net.connect("echo", LinkProfile::loopback()).await.unwrap();
            c.send(21, 8).await.unwrap();
            c.recv().await.unwrap().body
        });
        assert_eq!(reply, 42);
    }

    #[test]
    fn client_ids_are_sequential_per_network() {
        let a: Network<u8, u8> = Network::new();
        let b: Network<u8, u8> = Network::new();
        assert_eq!(a.alloc_client_id(), 0);
        assert_eq!(a.alloc_client_id(), 1);
        // A fresh network starts over — ids are per-network state.
        assert_eq!(b.alloc_client_id(), 0);
        // Clones share the counter.
        assert_eq!(a.clone().alloc_client_id(), 2);
    }

    #[test]
    fn multiple_clients_are_isolated() {
        let mut sim = Simulation::new();
        let (a, b) = sim.block_on(async {
            let net: Network<u32, u32> = Network::new();
            let mut l = net.listen("svc").unwrap();
            spawn(async move {
                while let Some(mut conn) = l.accept().await {
                    spawn(async move {
                        while let Some(req) = conn.recv().await {
                            conn.send(req.body + 100, 8).await.ok();
                        }
                    });
                }
            });
            let mut c1 = net.connect("svc", LinkProfile::loopback()).await.unwrap();
            let mut c2 = net.connect("svc", LinkProfile::loopback()).await.unwrap();
            c1.send(1, 8).await.unwrap();
            c2.send(2, 8).await.unwrap();
            (c1.recv().await.unwrap().body, c2.recv().await.unwrap().body)
        });
        assert_eq!((a, b), (101, 102));
    }
}

//! # kaas-net — simulated network substrate
//!
//! Models everything the KaaS prototype's TCP plumbing does (§4.1 of the
//! paper), in virtual time on top of [`kaas_simtime`]:
//!
//! * [`LinkProfile`] — latency/bandwidth timing for loopback, the paper's
//!   1 Gbps LAN, and an RDMA-class fabric (§6 future work).
//! * [`wire`]/[`Connection`]/[`Network`] — order-preserving message pipes,
//!   bidirectional connections, and named listeners with TCP-style
//!   handshakes.
//! * [`SerializationProfile`] — CPU cost of in-band payload encoding
//!   (calibrated to the prototype's Python serializer).
//! * [`SharedMemory`]/[`ShmHandle`] — out-of-band data transfer at memcpy
//!   rates.
//!
//! ```
//! use kaas_net::{Network, LinkProfile};
//! use kaas_simtime::{Simulation, spawn};
//!
//! let mut sim = Simulation::new();
//! let answer = sim.block_on(async {
//!     let net: Network<u64, u64> = Network::new();
//!     let mut srv = net.listen("kaas").unwrap();
//!     spawn(async move {
//!         let mut conn = srv.accept().await.unwrap();
//!         while let Some(req) = conn.recv().await {
//!             conn.send(req.body * req.body, 8).await.ok();
//!         }
//!     });
//!     let mut conn = net.connect("kaas", LinkProfile::lan_1gbps()).await.unwrap();
//!     conn.send(12, 8).await.unwrap();
//!     conn.recv().await.unwrap().body
//! });
//! assert_eq!(answer, 144);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod conn;
mod profile;
mod shm;
mod wire;

pub use conn::{Connection, Listener, NetError, Network};
pub use profile::{size, LinkProfile, SerializationProfile};
pub use shm::{SharedMemory, ShmHandle, HANDLE_WIRE_BYTES};
pub use wire::{wire, Disconnected, Frame, LinkFault, WireReceiver, WireSender};

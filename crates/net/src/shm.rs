//! Same-host shared memory for out-of-band data transfer (§4.1).
//!
//! Instead of serializing payloads onto the connection, a client `put`s
//! the data into a [`SharedMemory`] region and sends only the small
//! [`ShmHandle`] in-band; the task runner then `take`s the payload by
//! handle. Both sides pay only a memcpy-rate cost, never serialization or
//! network transmission.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap; // audit:allow(unordered): keyed get/insert/remove only, never iterated
use std::marker::PhantomData;
use std::rc::Rc;

use kaas_simtime::sleep;

use crate::profile::MemcpyProfile;

/// Wire size of a shared-memory handle when sent in-band (a key plus a
/// length — the whole point of out-of-band transfer).
pub const HANDLE_WIRE_BYTES: u64 = 64;

/// A typed reference to a payload stored in a [`SharedMemory`] region.
pub struct ShmHandle<T> {
    key: u64,
    bytes: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for ShmHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmHandle")
            .field("key", &self.key)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl<T> Clone for ShmHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ShmHandle<T> {}

impl<T> ShmHandle<T> {
    /// Size of the referenced payload in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

struct ShmState {
    slots: HashMap<u64, Box<dyn Any>>, // audit:allow(unordered): keyed lookups only; iteration order never observed
    next_key: u64,
    bytes_stored: u64,
}

/// A host-local shared-memory region with memcpy-rate access costs.
///
/// # Examples
///
/// ```
/// use kaas_net::SharedMemory;
/// use kaas_simtime::Simulation;
///
/// let mut sim = Simulation::new();
/// sim.block_on(async {
///     let shm = SharedMemory::host();
///     let h = shm.put(vec![1.0f64; 1024], 8 * 1024).await;
///     let back: Vec<f64> = shm.take(h).await.unwrap();
///     assert_eq!(back.len(), 1024);
/// });
/// ```
#[derive(Clone)]
pub struct SharedMemory {
    state: Rc<RefCell<ShmState>>,
    memcpy: MemcpyProfile,
}

impl std::fmt::Debug for SharedMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("SharedMemory")
            .field("slots", &s.slots.len())
            .field("bytes_stored", &s.bytes_stored)
            .finish()
    }
}

impl SharedMemory {
    /// A region backed by host DDR4 (the prototype's configuration).
    pub fn host() -> Self {
        Self::with_profile(MemcpyProfile::host_ddr4())
    }

    /// A region with custom copy bandwidth.
    pub(crate) fn with_profile(memcpy: MemcpyProfile) -> Self {
        SharedMemory {
            state: Rc::new(RefCell::new(ShmState {
                slots: HashMap::new(), // audit:allow(unordered): keyed lookups only; iteration order never observed
                next_key: 0,
                bytes_stored: 0,
            })),
            memcpy,
        }
    }

    /// Copies `value` (logical size `bytes`) into the region, returning a
    /// handle. Costs one memcpy of `bytes`.
    pub async fn put<T: 'static>(&self, value: T, bytes: u64) -> ShmHandle<T> {
        sleep(self.memcpy.time(bytes)).await;
        let mut s = self.state.borrow_mut();
        let key = s.next_key;
        s.next_key += 1;
        s.slots.insert(key, Box::new(value));
        s.bytes_stored += bytes;
        ShmHandle {
            key,
            bytes,
            _marker: PhantomData,
        }
    }

    /// Removes and returns the payload for `handle`.
    ///
    /// Consuming a region is a zero-copy **mapping** (the paper's task
    /// runner accesses the client's region "by providing a pointer to
    /// that region", §4.1) — only [`SharedMemory::put`] pays memcpy time.
    ///
    /// Returns `None` if the handle was already taken (or never valid for
    /// this region).
    pub async fn take<T: 'static>(&self, handle: ShmHandle<T>) -> Option<T> {
        let boxed = {
            let mut s = self.state.borrow_mut();
            let v = s.slots.remove(&handle.key)?;
            s.bytes_stored = s.bytes_stored.saturating_sub(handle.bytes);
            v
        };
        Some(
            *boxed
                .downcast::<T>()
                .expect("ShmHandle type is enforced at put time"),
        )
    }

    /// Total bytes currently stored.
    pub fn bytes_stored(&self) -> u64 {
        self.state.borrow().bytes_stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_simtime::{now, Simulation};

    #[test]
    fn put_charges_copy_time_take_is_zero_copy() {
        let mut sim = Simulation::new();
        let (value, elapsed) = sim.block_on(async {
            let shm = SharedMemory::with_profile(MemcpyProfile { bytes_per_sec: 1e6 });
            let h = shm.put(7u32, 500_000).await;
            let v = shm.take(h).await.unwrap();
            (v, now())
        });
        assert_eq!(value, 7);
        assert!(
            (elapsed.as_secs_f64() - 0.5).abs() < 1e-9,
            "0.5 s put, free take"
        );
    }

    #[test]
    fn double_take_returns_none() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let shm = SharedMemory::host();
            let h = shm.put(1u8, 1).await;
            assert!(shm.take(h).await.is_some());
            assert!(shm.take(h).await.is_none());
        });
    }

    #[test]
    fn bytes_stored_tracks_occupancy() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let shm = SharedMemory::host();
            let h1 = shm.put(vec![0u8; 10], 10).await;
            let _h2 = shm.put(vec![0u8; 20], 20).await;
            assert_eq!(shm.bytes_stored(), 30);
            shm.take(h1).await;
            assert_eq!(shm.bytes_stored(), 20);
        });
    }

    #[test]
    fn handles_are_copy_and_small() {
        const _: () = assert!(HANDLE_WIRE_BYTES < 1024);
        let mut sim = Simulation::new();
        sim.block_on(async {
            let shm = SharedMemory::host();
            let h = shm.put(5i64, 8).await;
            let h2 = h; // Copy
            assert_eq!(h2.bytes(), 8);
            assert_eq!(shm.take(h).await, Some(5));
        });
    }
}

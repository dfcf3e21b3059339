//! The device-resident data plane: a content-addressed object store
//! with per-device memory residency.
//!
//! The paper's out-of-band path (§4.1) only avoids *serialization*;
//! every invocation still pays the host→device copy, even when the same
//! bytes (GA populations, model weights, reference matrices) were
//! uploaded moments ago by the previous warm invocation. The data plane
//! closes that gap:
//!
//! * Clients [`put`](crate::KaasClient::put) a [`Value`] once and get
//!   back an [`ObjectRef`] — a content address (hash + length). Repeat
//!   invocations pass the 24-byte ref
//!   ([`InvokeBuilder::arg_ref`](crate::InvokeBuilder::arg_ref))
//!   instead of re-shipping the payload.
//! * [`seal`](crate::KaasClient::seal)ing a ref declares the object
//!   immutable, which makes device-side caching safe: the dispatcher
//!   tracks which devices already hold a sealed object (a
//!   [`MemoryManager`] per device) and serves cache hits with **zero
//!   `copy_in` cost**.
//! * Under memory pressure the device manager evicts least-recently-used
//!   objects; [`pin`](crate::KaasClient::pin)ned objects and operands of
//!   in-flight invocations are never victims. When nothing can be
//!   freed, the invocation fails with
//!   [`InvokeError::DeviceOom`](crate::InvokeError::DeviceOom).
//! * Device memory contents die with the runner process that owns them:
//!   runner crashes, device flaps, and idle reaps invalidate the
//!   device's residency, so a post-fault retry re-uploads instead of
//!   reading a stale device pointer.
//!
//! The store itself is host-side and unbounded (host RAM is the paper's
//! shared-memory region); only *device* residency is capacity-managed.
//!
//! On the wire `put`/`get`/`seal`/`pin` are the `Data*` [`Control`]
//! ops, with payloads in-band or through shared memory
//! (the fast path).
//!
//! [`Control`]: crate::Control

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use kaas_accel::{Device, DeviceId, MemoryManager, OomError};
use kaas_kernels::Value;

/// On-wire size of an [`ObjectRef`]: hash + length + framing tag.
pub(crate) const OBJECT_REF_WIRE_BYTES: u64 = 24;

/// A content address into the server's object store: the
/// [`content_hash`] of the object's canonical encoding plus its logical
/// length. Obtained
/// from [`KaasClient::put`](crate::KaasClient::put); passed to
/// invocations with
/// [`InvokeBuilder::arg_ref`](crate::InvokeBuilder::arg_ref).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectRef {
    /// Content hash ([`content_hash`] of the [`Value`]).
    pub hash: u64,
    /// Logical payload size in bytes (the object's wire size).
    pub bytes: u64,
}

impl std::fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj:{:016x}/{}B", self.hash, self.bytes)
    }
}

/// The content address of the data plane: a word-at-a-time
/// multiply–xorshift hash over a canonical encoding of `value`, closed
/// by a SplitMix64 finaliser. The encoding writes a tag word per
/// variant, every length and declared `Sized` size as a word, each f64
/// as its bit pattern, and byte payloads as 8-byte little-endian chunks
/// plus a tail word that carries the tail's length in its top byte.
/// Deterministic and platform-independent (no hasher randomization, no
/// native-endian reads), so identical simulations produce identical
/// refs.
pub fn content_hash(value: &Value) -> u64 {
    let mut h = WordHash::new();
    hash_value(value, &mut h);
    h.finish()
}

struct WordHash(u64);

impl WordHash {
    fn new() -> Self {
        WordHash(0x243f_6a88_85a3_08d3)
    }

    #[inline(always)]
    fn word(&mut self, w: u64) {
        let x = (self.0 ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }

    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn bytes(&mut self, b: &[u8]) {
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.word(u64::from_le_bytes(w));
        }
        let tail = chunks.remainder();
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        self.word(u64::from_le_bytes(w) | (tail.len() as u64) << 56);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn hash_value(value: &Value, h: &mut WordHash) {
    match value {
        Value::Unit => h.word(0),
        Value::U64(n) => {
            h.word(1);
            h.word(*n);
        }
        Value::F64(x) => {
            h.word(2);
            h.word(x.to_bits());
        }
        Value::F64s(v) => {
            h.word(3);
            h.word(v.len() as u64);
            h.f64s(v);
        }
        Value::Bytes(b) => {
            h.word(4);
            h.word(b.len() as u64);
            h.bytes(b);
        }
        Value::Matrix { data, rows, cols } => {
            h.word(5);
            h.word(*rows as u64);
            h.word(*cols as u64);
            h.f64s(data);
        }
        Value::Image {
            pixels,
            width,
            height,
            channels,
        } => {
            h.word(6);
            h.word(*width as u64);
            h.word(*height as u64);
            h.word(*channels as u64);
            h.word(pixels.len() as u64);
            h.bytes(pixels);
        }
        Value::Text(s) => {
            h.word(7);
            h.word(s.len() as u64);
            h.bytes(s.as_bytes());
        }
        Value::List(items) => {
            h.word(8);
            h.word(items.len() as u64);
            for item in items {
                hash_value(item, h);
            }
        }
        Value::Sized { bytes, body } => {
            // The declared size is part of the content: two envelopes
            // with the same body but different logical sizes are
            // different objects (they cost differently to copy).
            h.word(9);
            h.word(*bytes);
            hash_value(body, h);
        }
    }
}

#[derive(Debug)]
struct Stored {
    value: Value,
    bytes: u64,
    sealed: Cell<bool>,
    /// Pin count: client pins and flow-lifetime pins both increment it;
    /// the object is protected from device eviction (and from
    /// [`ObjectStore::remove`]) while it is non-zero. Client pins are
    /// sticky (never decremented); flow pins are released when the flow
    /// completes.
    pins: Cell<u32>,
}

/// The host-side content-addressed object store: deduplicated by
/// content hash, unbounded (host RAM), with seal/pin markers consulted
/// by the device-residency layer.
#[derive(Debug, Default)]
pub struct ObjectStore {
    objects: RefCell<BTreeMap<u64, Stored>>,
    /// Sum of `bytes` over `objects`, kept by every insert and removal.
    total_bytes: Cell<u64>,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value`, returning its content address. Identical content
    /// deduplicates to the same ref.
    pub fn put(&self, value: Value) -> ObjectRef {
        self.put_tracked(value).0
    }

    /// Stores `value` and reports whether this call **created** the
    /// entry (`false` = deduplicated against existing content). Flow
    /// executors use the flag to garbage-collect only the intermediates
    /// they introduced.
    pub fn put_tracked(&self, value: Value) -> (ObjectRef, bool) {
        let hash = content_hash(&value);
        let bytes = value.wire_bytes();
        let mut objects = self.objects.borrow_mut();
        let created = !objects.contains_key(&hash);
        if created {
            objects.insert(
                hash,
                Stored {
                    value,
                    bytes,
                    sealed: Cell::new(false),
                    pins: Cell::new(0),
                },
            );
            self.total_bytes.set(self.total_bytes.get() + bytes);
        }
        (ObjectRef { hash, bytes }, created)
    }

    /// The stored object for `r`, if present (and the ref's length
    /// matches — a mismatched length means a forged or stale ref).
    pub fn get(&self, r: &ObjectRef) -> Option<Value> {
        self.objects
            .borrow()
            .get(&r.hash)
            .filter(|s| s.bytes == r.bytes)
            .map(|s| s.value.clone())
    }

    /// Marks the object immutable, making it eligible for device-side
    /// caching. Returns whether the object exists.
    pub fn seal(&self, hash: u64) -> bool {
        match self.objects.borrow().get(&hash) {
            Some(s) => {
                s.sealed.set(true);
                true
            }
            None => false,
        }
    }

    /// Marks the object pinned: device residency of this object is
    /// never evicted. Client pins are sticky — there is no public
    /// unpin. Returns whether the object exists.
    pub fn pin(&self, hash: u64) -> bool {
        match self.objects.borrow().get(&hash) {
            Some(s) => {
                s.pins.set(s.pins.get().saturating_add(1));
                true
            }
            None => false,
        }
    }

    /// Releases one flow-lifetime pin, returning the remaining pin
    /// count (0 also when the object does not exist).
    pub fn flow_unpin(&self, hash: u64) -> u32 {
        match self.objects.borrow().get(&hash) {
            Some(s) => {
                let left = s.pins.get().saturating_sub(1);
                s.pins.set(left);
                left
            }
            None => 0,
        }
    }

    /// Drops an unpinned object from the store (flow GC of
    /// intermediates). Refuses — returning `false` — while any pin is
    /// outstanding or when the object does not exist.
    pub fn remove(&self, hash: u64) -> bool {
        let mut objects = self.objects.borrow_mut();
        match objects.get(&hash) {
            Some(s) if s.pins.get() == 0 => {
                self.total_bytes.set(self.total_bytes.get() - s.bytes);
                objects.remove(&hash);
                true
            }
            _ => false,
        }
    }

    /// Whether the object is sealed (immutable, cacheable).
    pub fn is_sealed(&self, hash: u64) -> bool {
        self.objects
            .borrow()
            .get(&hash)
            .is_some_and(|s| s.sealed.get())
    }

    /// Whether the object is pinned against device eviction.
    pub fn is_pinned(&self, hash: u64) -> bool {
        self.pins(hash) > 0
    }

    /// The object's outstanding pin count (0 when absent).
    pub fn pins(&self, hash: u64) -> u32 {
        self.objects.borrow().get(&hash).map_or(0, |s| s.pins.get())
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.borrow().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.borrow().is_empty()
    }

    /// Total logical bytes stored.
    pub fn bytes_stored(&self) -> u64 {
        self.total_bytes.get()
    }
}

/// The server's data plane: the host [`ObjectStore`] plus one
/// [`MemoryManager`] per managed device tracking which objects are
/// resident in that device's memory.
///
/// Owned by the [`KaasServer`](crate::KaasServer) and consulted on the
/// dispatch hot path; reachable for inspection via
/// [`KaasServer::dataplane`](crate::KaasServer::dataplane).
#[derive(Debug)]
pub struct DataPlane {
    store: ObjectStore,
    devices: BTreeMap<DeviceId, Rc<MemoryManager>>,
}

impl DataPlane {
    /// Creates a data plane for `devices`, sizing each device's memory
    /// manager from [`Device::mem_bytes`].
    pub fn new(devices: &[Device]) -> Self {
        DataPlane {
            store: ObjectStore::new(),
            devices: devices
                .iter()
                .map(|d| (d.id(), Rc::new(MemoryManager::new(d.mem_bytes()))))
                .collect(),
        }
    }

    /// The host-side object store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Stores `value` in the host object store.
    pub fn put(&self, value: Value) -> ObjectRef {
        self.store.put(value)
    }

    /// Resolves `r` to its stored value.
    pub fn resolve(&self, r: &ObjectRef) -> Option<Value> {
        self.store.get(r)
    }

    /// The memory manager of `device`, if this plane manages it.
    pub fn manager(&self, device: DeviceId) -> Option<&Rc<MemoryManager>> {
        self.devices.get(&device)
    }

    /// Whether object `hash` is resident in `device`'s memory.
    pub fn is_resident(&self, device: DeviceId, hash: u64) -> bool {
        self.devices.get(&device).is_some_and(|m| m.contains(hash))
    }

    /// Marks the object pinned in the store and in every device where it
    /// is currently resident (future admissions pin on upload). Returns
    /// whether the object exists.
    pub fn pin(&self, hash: u64) -> bool {
        if !self.store.pin(hash) {
            return false;
        }
        for mgr in self.devices.values() {
            mgr.pin(hash);
        }
        true
    }

    /// Marks the object sealed (immutable, device-cacheable). Returns
    /// whether the object exists.
    pub fn seal(&self, hash: u64) -> bool {
        self.store.seal(hash)
    }

    /// Releases one flow-lifetime pin; when the last pin drops, the
    /// device copies become ordinary LRU-evictable residents again.
    /// Returns the remaining pin count.
    pub fn flow_unpin(&self, hash: u64) -> u32 {
        let left = self.store.flow_unpin(hash);
        if left == 0 {
            for mgr in self.devices.values() {
                mgr.unpin(hash);
            }
        }
        left
    }

    /// Garbage-collects an unpinned object: drops it from the store and
    /// from every device's residency. Refuses while pins are
    /// outstanding. Returns whether the object was removed.
    pub fn remove(&self, hash: u64) -> bool {
        if !self.store.remove(hash) {
            return false;
        }
        for mgr in self.devices.values() {
            mgr.remove(hash);
        }
        true
    }

    /// Admits object `r` into `device`'s memory (the caller pays the
    /// upload as its `copy_in`), evicting LRU victims as needed and
    /// preserving the object's pin. Returns the evicted hashes.
    ///
    /// # Errors
    ///
    /// [`OomError`] when the device cannot free enough memory.
    pub fn admit(&self, device: DeviceId, r: &ObjectRef) -> Result<Vec<u64>, OomError> {
        let mgr = self.devices.get(&device).ok_or(OomError {
            requested: r.bytes,
            capacity: 0,
            evictable: 0,
        })?;
        let evicted = mgr.insert(r.hash, r.bytes)?;
        if self.store.is_pinned(r.hash) {
            mgr.pin(r.hash);
        }
        Ok(evicted)
    }

    /// Drops a single residency entry (a failed upload must not look
    /// resident).
    pub fn unmark(&self, device: DeviceId, hash: u64) {
        if let Some(mgr) = self.devices.get(&device) {
            mgr.remove(hash);
        }
    }

    /// Invalidates every residency entry of `device`: its memory
    /// contents died with the runner process that owned them (crash,
    /// device flap, idle reap). Returns the number of objects dropped.
    pub fn invalidate_device(&self, device: DeviceId) -> usize {
        self.devices.get(&device).map_or(0, |m| m.clear())
    }

    /// Total bytes resident across every device.
    pub fn bytes_resident(&self) -> u64 {
        self.devices.values().map(|m| m.bytes_resident()).sum()
    }

    /// Total evictions across every device.
    pub fn evictions(&self) -> u64 {
        self.devices.values().map(|m| m.evictions()).sum()
    }

    /// Per-device `(device, bytes_resident)` in device order.
    pub fn residency(&self) -> Vec<(DeviceId, u64)> {
        self.devices
            .iter()
            .map(|(id, m)| (*id, m.bytes_resident()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_accel::{GpuDevice, GpuProfile};

    fn tiny_gpu(id: u32, mem: u64) -> Device {
        GpuDevice::new(
            DeviceId(id),
            GpuProfile {
                mem_bytes: mem,
                ..GpuProfile::p100()
            },
        )
        .into()
    }

    #[test]
    fn content_hash_is_deterministic_and_collision_aware() {
        let a = Value::F64s(vec![1.0, 2.0, 3.0]);
        assert_eq!(content_hash(&a), content_hash(&a.clone()));
        assert_ne!(
            content_hash(&Value::F64s(vec![1.0, 2.0])),
            content_hash(&Value::F64s(vec![2.0, 1.0]))
        );
        assert_ne!(content_hash(&Value::U64(1)), content_hash(&Value::F64(1.0)));
        // Envelope size is content: same body, different declared size.
        assert_ne!(
            content_hash(&Value::sized(10, Value::U64(1))),
            content_hash(&Value::sized(20, Value::U64(1)))
        );
    }

    /// One value per [`Value`] variant, for the golden content hashes.
    fn golden_values() -> Vec<(&'static str, Value)> {
        vec![
            ("unit", Value::Unit),
            ("u64", Value::U64(42)),
            ("f64", Value::F64(-1.5)),
            ("f64s", Value::F64s(vec![0.25, -3.0, 1e300])),
            ("bytes", Value::Bytes((0u8..11).collect())),
            (
                "matrix",
                Value::matrix(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3),
            ),
            ("image", Value::image(vec![7; 12], 2, 2, 3)),
            ("text", Value::Text("kaas.ref".to_owned())),
            (
                "list",
                Value::List(vec![Value::U64(1), Value::Text("a".to_owned())]),
            ),
            ("sized", Value::sized(1 << 30, Value::F64s(vec![1.0; 3]))),
        ]
    }

    #[test]
    fn content_hash_is_pinned_per_variant() {
        // The content address is part of the data plane's behaviour:
        // a change to the encoding or the mixer must show up here.
        const GOLDEN: [u64; 10] = [
            0xbf8f_ec90_feaa_8750,
            0x2878_eff3_141d_62f7,
            0x9b09_5411_f648_76d2,
            0x63f1_6c51_a19b_a04c,
            0xd9a3_c10c_3afb_ec76,
            0x3fdd_c9a4_93a9_175c,
            0x6276_6709_a1bc_f222,
            0x258a_b2d3_16cd_8159,
            0x09f4_3b0e_572a_f45a,
            0x96e6_1d1d_39fb_6820,
        ];
        let got: Vec<u64> = golden_values()
            .iter()
            .map(|(_, v)| content_hash(v))
            .collect();
        for ((name, _), (g, want)) in golden_values().iter().zip(got.iter().zip(GOLDEN)) {
            assert_eq!(*g, want, "{name}: got {g:#018x}");
        }
    }

    #[test]
    fn content_hash_separates_lengths_padding_signs_and_nesting() {
        let mut seen = BTreeMap::new();
        let mut distinct = |label: String, v: Value| {
            if let Some(prev) = seen.insert(content_hash(&v), label.clone()) {
                panic!("{label} collides with {prev}");
            }
        };
        for n in 0..=17usize {
            let bytes: Vec<u8> = (0..n).map(|i| (i * 37 + 5) as u8).collect();
            distinct(format!("bytes[{n}]"), Value::Bytes(bytes.clone()));
            if n > 0 {
                distinct(format!("zeros[{n}]"), Value::Bytes(vec![0; n]));
            }
            distinct(
                format!("text[{n}]"),
                Value::Text(
                    String::from_utf8(bytes.iter().map(|b| b'a' + b % 26).collect()).unwrap(),
                ),
            );
            distinct(format!("image[{n}]"), Value::image(bytes, n, 1, 1));
        }
        distinct("golden unit".into(), Value::Unit);
        for (name, v) in golden_values().into_iter().skip(1) {
            distinct(format!("golden {name}"), v);
        }
        // Zero-padded twins: the tail is length-tagged.
        distinct("bytes [1]".into(), Value::Bytes(vec![1]));
        distinct("bytes [1, 0]".into(), Value::Bytes(vec![1, 0]));
        distinct("image [1]x8".into(), Value::image(vec![1; 8], 8, 1, 1));
        distinct(
            "image [1]x8+0".into(),
            Value::Image {
                pixels: [vec![1; 8], vec![0]].concat(),
                width: 8,
                height: 1,
                channels: 1,
            },
        );
        // Signed zeros are different bit patterns.
        distinct("0.0".into(), Value::F64(0.0));
        distinct("-0.0".into(), Value::F64(-0.0));
        distinct("[0.0]".into(), Value::F64s(vec![0.0]));
        distinct("[-0.0]".into(), Value::F64s(vec![-0.0]));
        // Nesting is part of the content.
        let (a, b) = (Value::U64(1), Value::U64(2));
        distinct(
            "[[a], b]".into(),
            Value::List(vec![Value::List(vec![a.clone()]), b.clone()]),
        );
        distinct(
            "[a, [b]]".into(),
            Value::List(vec![a, Value::List(vec![b])]),
        );
    }

    #[test]
    fn put_dedupes_identical_content() {
        let store = ObjectStore::new();
        let a = store.put(Value::F64s(vec![1.0; 100]));
        let b = store.put(Value::F64s(vec![1.0; 100]));
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        assert_eq!(a.bytes, 816);
        assert_eq!(store.get(&a), Some(Value::F64s(vec![1.0; 100])));
    }

    /// The running total matches a full recount through puts, deduped
    /// puts, refused removes of pinned objects, and removes.
    #[test]
    fn bytes_stored_tracks_puts_dedupes_and_removes() {
        let store = ObjectStore::new();
        let recount =
            |store: &ObjectStore| -> u64 { store.objects.borrow().values().map(|s| s.bytes).sum() };
        let values: Vec<Value> = (1..=6).map(|n| Value::F64s(vec![n as f64; n])).collect();
        let mut refs = Vec::new();
        for v in &values {
            let (r, created) = store.put_tracked(v.clone());
            assert!(created);
            refs.push(r);
            assert_eq!(store.bytes_stored(), recount(&store));
        }
        let before = store.bytes_stored();
        for v in &values[..3] {
            let (_, created) = store.put_tracked(v.clone());
            assert!(!created);
        }
        assert_eq!(
            store.bytes_stored(),
            before,
            "a deduplicated put adds nothing"
        );
        assert!(store.pin(refs[0].hash));
        assert!(!store.remove(refs[0].hash));
        assert_eq!(store.bytes_stored(), before);
        for r in &refs[1..4] {
            assert!(store.remove(r.hash));
            assert!(!store.remove(r.hash));
            assert_eq!(store.bytes_stored(), recount(&store));
        }
        assert_eq!(
            store.bytes_stored(),
            refs[0].bytes + refs[4].bytes + refs[5].bytes
        );
    }

    #[test]
    fn get_rejects_mismatched_length() {
        let store = ObjectStore::new();
        let r = store.put(Value::U64(7));
        let forged = ObjectRef {
            hash: r.hash,
            bytes: r.bytes + 1,
        };
        assert!(store.get(&forged).is_none());
    }

    #[test]
    fn admit_and_invalidate_track_residency() {
        let dp = DataPlane::new(&[tiny_gpu(0, 1000), tiny_gpu(1, 1000)]);
        let r = dp.put(Value::F64s(vec![0.0; 10]));
        assert_eq!(dp.admit(DeviceId(0), &r).unwrap(), Vec::<u64>::new());
        assert!(dp.is_resident(DeviceId(0), r.hash));
        assert!(!dp.is_resident(DeviceId(1), r.hash));
        assert_eq!(dp.bytes_resident(), r.bytes);
        assert_eq!(dp.invalidate_device(DeviceId(0)), 1);
        assert!(!dp.is_resident(DeviceId(0), r.hash));
        assert_eq!(dp.bytes_resident(), 0);
    }

    #[test]
    fn pin_applies_to_resident_and_future_devices() {
        let dp = DataPlane::new(&[tiny_gpu(0, 200), tiny_gpu(1, 200)]);
        let heavy = dp.put(Value::F64s(vec![1.0; 20])); // 176 B
        let small = dp.put(Value::U64(1)); // 16 B
        dp.admit(DeviceId(0), &heavy).unwrap();
        assert!(dp.pin(heavy.hash));
        // Already-resident copy is pinned: nothing can evict it.
        assert!(dp.admit(DeviceId(0), &heavy).is_ok());
        let err = dp.admit(DeviceId(0), &dp.put(Value::F64s(vec![2.0; 20])));
        assert!(err.is_err(), "pinned resident blocks a same-size admit");
        // A later admit on another device inherits the pin.
        dp.admit(DeviceId(1), &heavy).unwrap();
        dp.admit(DeviceId(1), &small).unwrap();
        assert!(dp
            .admit(DeviceId(1), &dp.put(Value::F64s(vec![3.0; 20])))
            .is_err());
        assert!(dp.is_resident(DeviceId(1), heavy.hash));
    }

    #[test]
    fn seal_is_a_store_marker() {
        let dp = DataPlane::new(&[tiny_gpu(0, 100)]);
        let r = dp.put(Value::U64(5));
        assert!(!dp.store().is_sealed(r.hash));
        assert!(dp.seal(r.hash));
        assert!(dp.store().is_sealed(r.hash));
        assert!(!dp.seal(0xbad));
    }

    #[test]
    fn counted_pins_gate_removal() {
        let store = ObjectStore::new();
        let (r, created) = store.put_tracked(Value::U64(9));
        assert!(created);
        let (_, again) = store.put_tracked(Value::U64(9));
        assert!(!again, "dedup is not creation");
        assert!(store.pin(r.hash));
        assert!(store.is_pinned(r.hash));
        assert_eq!(store.pins(r.hash), 1);
        assert!(!store.remove(r.hash), "pinned objects cannot be removed");
        assert_eq!(store.flow_unpin(r.hash), 0);
        assert!(!store.is_pinned(r.hash));
        assert!(store.remove(r.hash));
        assert!(store.get(&r).is_none());
        assert!(!store.remove(r.hash));
    }

    #[test]
    fn flow_unpin_releases_device_pins() {
        let dp = DataPlane::new(&[tiny_gpu(0, 200)]);
        let heavy = dp.put(Value::F64s(vec![1.0; 20])); // 176 B
        dp.admit(DeviceId(0), &heavy).unwrap();
        assert!(dp.pin(heavy.hash));
        let rival = dp.put(Value::F64s(vec![2.0; 20]));
        assert!(
            dp.admit(DeviceId(0), &rival).is_err(),
            "flow pin blocks eviction"
        );
        assert_eq!(dp.flow_unpin(heavy.hash), 0);
        assert!(
            dp.admit(DeviceId(0), &rival).is_ok(),
            "released pin makes the resident evictable again"
        );
        assert!(dp.remove(heavy.hash));
        assert!(!dp.is_resident(DeviceId(0), heavy.hash));
    }

    #[test]
    fn unknown_device_admit_is_oom() {
        let dp = DataPlane::new(&[]);
        let r = dp.put(Value::U64(5));
        assert!(dp.admit(DeviceId(9), &r).is_err());
    }
}

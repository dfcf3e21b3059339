//! Cost profiles for links, serialization, and memory copies.

use std::time::Duration;

/// Byte-size helpers used across the workspace.
pub mod size {
    /// One kibibyte.
    pub const KIB: u64 = 1024;
    /// One mebibyte.
    pub const MIB: u64 = 1024 * KIB;
    /// One gibibyte.
    pub const GIB: u64 = 1024 * MIB;
}

/// Timing model of a network link: fixed one-way latency plus a serial
/// transmission time proportional to message size.
///
/// # Examples
///
/// ```
/// use kaas_net::LinkProfile;
///
/// let lan = LinkProfile::lan_1gbps();
/// // A 1 MB message takes ~8 ms of transmission plus 75 µs propagation.
/// let one_way = lan.transmission_time(1_000_000) + lan.latency;
/// assert!(one_way.as_secs_f64() > 0.008);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// One-way propagation delay.
    pub latency: Duration,
    /// Transmission rate in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed per-message processing overhead (NIC, kernel, framing).
    pub per_message_overhead: Duration,
}

impl LinkProfile {
    /// Same-host loopback: negligible latency, memory-speed bandwidth.
    pub fn loopback() -> Self {
        LinkProfile {
            latency: Duration::from_micros(5),
            bandwidth_bytes_per_sec: 8.0e9,
            per_message_overhead: Duration::from_micros(10),
        }
    }

    /// The paper's client↔server link: 1 Gbps Ethernet, 0.15 ms RTT
    /// (§5.3), i.e. 75 µs one-way.
    pub fn lan_1gbps() -> Self {
        LinkProfile {
            latency: Duration::from_micros(75),
            bandwidth_bytes_per_sec: 1.0e9 / 8.0,
            per_message_overhead: Duration::from_micros(20),
        }
    }

    /// An RDMA-class fabric (future-work profile from §6): single-digit
    /// microsecond latency and 100 Gbps bandwidth, no kernel overhead.
    pub fn rdma_100g() -> Self {
        LinkProfile {
            latency: Duration::from_micros(2),
            bandwidth_bytes_per_sec: 100.0e9 / 8.0,
            per_message_overhead: Duration::from_nanos(500),
        }
    }

    /// Creates a custom profile.
    pub fn new(latency: Duration, bandwidth_bytes_per_sec: f64) -> Self {
        assert!(bandwidth_bytes_per_sec > 0.0, "bandwidth must be positive");
        LinkProfile {
            latency,
            bandwidth_bytes_per_sec,
            per_message_overhead: Duration::ZERO,
        }
    }

    /// Serial transmission time for a message of `bytes` (excludes
    /// propagation latency).
    pub fn transmission_time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
            + self.per_message_overhead
    }

    /// End-to-end time for a single message of `bytes` on an idle link.
    #[cfg(test)]
    pub(crate) fn transfer_time(&self, bytes: u64) -> Duration {
        self.transmission_time(bytes) + self.latency
    }
}

/// CPU-side cost of converting a payload to/from wire format.
///
/// Calibrated to an interpreted-language serializer (the paper's prototype
/// pickles Python objects): §5.3 observes 490–832 ms of added delay for
/// multi-megabyte genetic-algorithm payloads, which a ~55 MB/s
/// serialization rate over a 1 Gbps link reproduces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerializationProfile {
    /// Serialization/deserialization throughput in bytes per second.
    pub bytes_per_sec: f64,
    /// Fixed per-call overhead (object graph walk, buffers).
    pub per_call: Duration,
}

impl SerializationProfile {
    /// Interpreted-language serializer (Python pickle class).
    pub fn python_pickle() -> Self {
        SerializationProfile {
            bytes_per_sec: 55.0e6,
            per_call: Duration::from_micros(200),
        }
    }

    /// Buffer-protocol serialization of large numeric arrays (numpy
    /// pickle protocol 5 class): fast enough that §5.3 "cannot observe a
    /// difference in execution time between in-band and out-of-band data
    /// transfer" for array payloads.
    pub fn numpy() -> Self {
        SerializationProfile {
            bytes_per_sec: 1.2e9,
            per_call: Duration::from_micros(300),
        }
    }

    /// A fast binary serializer (bincode class).
    #[cfg(test)]
    fn binary() -> Self {
        SerializationProfile {
            bytes_per_sec: 2.0e9,
            per_call: Duration::from_micros(5),
        }
    }

    /// Time to serialize (or deserialize) `bytes`.
    pub fn time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec) + self.per_call
    }
}

/// Cost of a same-host shared-memory copy, used for out-of-band data
/// transfer (§4.1: "a shared memory region may be defined by the client,
/// which can then be accessed by the task runner").
///
/// Calibrated so KaaS invocation overhead equals the baseline's at
/// 20 000 × 20 000 matrices (Fig. 7): ≈ 17 GB/s effective copy bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MemcpyProfile {
    /// Copy throughput in bytes per second.
    pub(crate) bytes_per_sec: f64,
}

impl MemcpyProfile {
    /// Host DDR4 shared-memory copy.
    pub(crate) fn host_ddr4() -> Self {
        MemcpyProfile {
            bytes_per_sec: 17.0e9,
        }
    }

    /// Time to copy `bytes`.
    pub(crate) fn time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_rtt_matches_paper() {
        let lan = LinkProfile::lan_1gbps();
        // 0.15 ms RTT => 75 µs one-way.
        assert_eq!(lan.latency * 2, Duration::from_micros(150));
    }

    #[test]
    fn transmission_scales_with_bytes() {
        let lan = LinkProfile::lan_1gbps();
        let t1 = lan.transmission_time(1_000_000);
        let t2 = lan.transmission_time(2_000_000);
        assert!(t2 > t1);
        let delta = (t2 - t1).as_secs_f64();
        assert!(
            (delta - 0.008).abs() < 1e-4,
            "1 MB at 1 Gbps ≈ 8 ms, got {delta}"
        );
    }

    #[test]
    fn loopback_is_much_faster_than_lan() {
        let msg = 10 * size::MIB;
        assert!(
            LinkProfile::loopback().transfer_time(msg)
                < LinkProfile::lan_1gbps().transfer_time(msg) / 10
        );
    }

    #[test]
    fn rdma_beats_lan_on_latency_and_bandwidth() {
        let rdma = LinkProfile::rdma_100g();
        let lan = LinkProfile::lan_1gbps();
        assert!(rdma.latency < lan.latency);
        assert!(rdma.transfer_time(size::MIB) < lan.transfer_time(size::MIB));
    }

    #[test]
    fn pickle_much_slower_than_binary() {
        let b = 50 * size::MIB;
        assert!(
            SerializationProfile::python_pickle().time(b)
                > SerializationProfile::binary().time(b) * 10
        );
    }

    #[test]
    fn memcpy_time_linear() {
        let m = MemcpyProfile::host_ddr4();
        let t = m.time(17_000_000_000);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = LinkProfile::new(Duration::ZERO, 0.0);
    }
}

//! Order statistics and the output digest.

/// The `q`-quantile of `samples` by linear interpolation (the
/// repository's [`kaas_core::percentile`]); `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    kaas_core::percentile(samples, q)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Nanosecond samples as milliseconds.
pub fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// FNV-1a over 64-bit words: a cheap, order-sensitive digest of a
/// pass's outputs and latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
    }
}

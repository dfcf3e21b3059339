//! A bounded per-instance memo for descriptor-mode (`Value::U64(n)`)
//! executions of pure kernels.
//!
//! In descriptor mode a pure kernel regenerates seeded synthetic
//! operands that depend only on `n` and computes the same output every
//! time. The memo keeps that output so repeated calls skip the compute.
//! It never changes what `execute` returns, and it never touches `work`,
//! so virtual time is unaffected.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::kernel::KernelError;
use crate::value::Value;

/// Most entries one kernel instance keeps. Once full, the memo stops
/// inserting: later keys are computed on every call.
const CAP: usize = 64;

/// Descriptor outputs by key (the per-kernel key is chosen by the
/// caller: the clamped `n` where the output depends only on the clamp,
/// the raw `n` where `n` also seeds the operands).
#[derive(Debug, Clone, Default)]
pub(crate) struct DescriptorMemo {
    entries: RefCell<BTreeMap<u64, Value>>,
}

impl DescriptorMemo {
    /// Returns the cached output for `key`, or runs `compute` and caches
    /// its output while there is room. Errors are never cached.
    pub(crate) fn get_or_compute(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<Value, KernelError>,
    ) -> Result<Value, KernelError> {
        if let Some(hit) = self.entries.borrow().get(&key) {
            return Ok(hit.clone());
        }
        let out = compute()?;
        let mut entries = self.entries.borrow_mut();
        if entries.len() < CAP {
            entries.insert(key, out.clone());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    #[test]
    fn hits_skip_the_computation() {
        let memo = DescriptorMemo::default();
        let runs = Cell::new(0);
        for _ in 0..3 {
            let out = memo.get_or_compute(5, || {
                runs.set(runs.get() + 1);
                Ok(Value::U64(25))
            });
            assert_eq!(out, Ok(Value::U64(25)));
        }
        assert_eq!(runs.get(), 1);
    }

    #[test]
    fn never_holds_more_than_its_cap() {
        let memo = DescriptorMemo::default();
        for round in 0..2 {
            for key in 0..(3 * CAP as u64) {
                let out = memo.get_or_compute(key, || Ok(Value::U64(key * 2)));
                assert_eq!(out, Ok(Value::U64(key * 2)), "round {round}, key {key}");
                assert!(memo.entries.borrow().len() <= CAP);
            }
        }
        // The first CAP keys were kept; the rest are recomputed.
        let kept: Vec<u64> = memo.entries.borrow().keys().copied().collect();
        assert_eq!(kept, (0..CAP as u64).collect::<Vec<_>>());
    }

    #[test]
    fn errors_are_not_cached() {
        let memo = DescriptorMemo::default();
        let runs = Cell::new(0);
        for _ in 0..2 {
            let out = memo.get_or_compute(1, || {
                runs.set(runs.get() + 1);
                Err(KernelError::BadInput("no".into()))
            });
            assert!(out.is_err());
        }
        assert_eq!(runs.get(), 2);
        assert!(memo.entries.borrow().is_empty());
    }
}

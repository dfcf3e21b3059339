//! Invocation scheduling: how the server chooses a runner slot for each
//! request.
//!
//! A [`Scheduler`] is one of four fixed policies — [`FillFirst`],
//! [`RoundRobin`], [`LeastLoaded`] (the paper's §5.4–§5.5 behaviours)
//! and [`WarmFirst`] (prefers runners that finished cold-starting). Its
//! pick walks one kernel's runner slots in start order, in place, and
//! either returns one or declines, signalling that every eligible runner
//! is saturated. On a decline the server may start a fresh runner
//! ([`ServerConfig::autoscale`](crate::ServerConfig::autoscale)).
//!
//! ```
//! use kaas_core::{RoundRobin, ServerConfig, WarmFirst};
//!
//! let config = ServerConfig::default().with_scheduler(WarmFirst);
//! assert_eq!(config.scheduler.name(), "warm-first");
//! let config = config.with_scheduler(RoundRobin::default());
//! assert_eq!(config.scheduler.name(), "round-robin");
//! ```

use std::cell::Cell;
use std::rc::Rc;

use crate::pool::RunnerSlot;

pub use Scheduler::{FillFirst, LeastLoaded, WarmFirst};

/// Placement policy: routes an invocation to one of a kernel's runner
/// slots, or declines when all eligible runners are saturated.
///
/// Every policy is a deterministic function of its own state and the
/// slots it sees, so the whole simulation replays bit-for-bit.
#[derive(Debug, Clone, Default)]
pub enum Scheduler {
    /// Fill the earliest-started runner to its in-flight cap before
    /// spilling to the next (the paper's §5.5 autoscaling behaviour).
    #[default]
    FillFirst,
    /// Rotate across all runners (the paper's §5.4 weak-scaling
    /// "round-robin scheduler"). Never declines: a saturated runner
    /// simply queues the invocation, so round-robin deployments scale
    /// out only through explicit prewarming.
    RoundRobin(RoundRobin),
    /// Pick the runner with the fewest in-flight invocations (first such
    /// runner in start order on ties); declines when even the
    /// least-loaded runner is at the cap.
    LeastLoaded,
    /// Prefer runners that finished their cold start, and among the warm
    /// ones, runners whose device already holds the invocation's operand
    /// (the data-plane cache hint — a resident hit skips the host→device
    /// copy entirely). Order: warm + resident → warm → cold (its cold
    /// start is already underway, which beats paying a fresh one).
    /// Declines only when everything is saturated.
    ///
    /// Compared to fill-first this avoids stacking invocations behind a
    /// still-starting runner while warm capacity sits idle, and avoids
    /// re-uploading operands another device already holds.
    WarmFirst,
}

/// The round-robin policy's cursor: one per server, advanced by every
/// placement that finds an eligible slot, whatever the kernel.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    cursor: Cell<usize>,
}

impl From<RoundRobin> for Scheduler {
    fn from(rr: RoundRobin) -> Self {
        Scheduler::RoundRobin(rr)
    }
}

impl Scheduler {
    /// Short policy name (printed by the scheduler ablation).
    pub fn name(&self) -> &'static str {
        match self {
            FillFirst => "fill-first",
            Scheduler::RoundRobin(_) => "round-robin",
            LeastLoaded => "least-loaded",
            WarmFirst => "warm-first",
        }
    }

    /// Picks one of `slots` — a kernel's runner slots in start order —
    /// among the usable ones that `eligible` admits, or declines with
    /// `None` (the server may then scale out). `cap` is the per-runner
    /// in-flight cap; `resident` tells whether a slot's device holds the
    /// request's operand, and only warm-first asks it. With no eligible
    /// slot every policy declines and round-robin's cursor stays put.
    pub(crate) fn pick<'a>(
        &self,
        slots: &'a [Rc<RunnerSlot>],
        eligible: impl Fn(&RunnerSlot) -> bool,
        cap: usize,
        resident: impl Fn(&RunnerSlot) -> bool,
    ) -> Option<&'a Rc<RunnerSlot>> {
        let mut usable = slots.iter().filter(|s| s.is_usable() && eligible(s));
        let open = |s: &&Rc<RunnerSlot>| s.claimed() < cap;
        match self {
            FillFirst => usable.find(open),
            Scheduler::RoundRobin(rr) => {
                let n = usable.clone().count();
                if n == 0 {
                    return None;
                }
                let i = rr.cursor.get();
                rr.cursor.set(i + 1);
                usable.nth(i % n)
            }
            LeastLoaded => usable.min_by_key(|s| s.claimed()).filter(open),
            WarmFirst => usable
                .clone()
                .find(|s| s.is_warm() && resident(s) && open(s))
                .or_else(|| usable.clone().find(|s| s.is_warm() && open(s)))
                .or_else(|| usable.find(|s| !s.is_warm() && open(s))),
        }
    }
}

#[cfg(test)]
mod tests {
    use kaas_accel::DeviceId;

    use super::*;

    /// One slot per entry, on device `index`, in start order.
    fn slots(claims: &[usize], warm: &[bool]) -> Vec<Rc<RunnerSlot>> {
        claims
            .iter()
            .zip(warm)
            .enumerate()
            .map(|(i, (&claimed, &warm))| RunnerSlot::for_test(DeviceId(i as u32), claimed, warm))
            .collect()
    }

    /// The index of `policy`'s pick among `slots`, every slot eligible.
    fn pick(
        policy: &Scheduler,
        slots: &[Rc<RunnerSlot>],
        cap: usize,
        resident: &[usize],
    ) -> Option<usize> {
        let resident = |s: &RunnerSlot| resident.contains(&(s.device().0 as usize));
        let chosen = policy.pick(slots, |_| true, cap, resident)?;
        slots.iter().position(|s| Rc::ptr_eq(s, chosen))
    }

    #[test]
    fn fill_first_packs_the_earliest_runner() {
        let s = slots(&[3, 0, 0], &[true, true, true]);
        assert_eq!(pick(&FillFirst, &s, 4, &[]), Some(0));
        let full = slots(&[4, 4], &[true, true]);
        assert_eq!(pick(&FillFirst, &full, 4, &[]), None);
    }

    #[test]
    fn round_robin_rotates_and_never_declines() {
        let rr = Scheduler::from(RoundRobin::default());
        let s = slots(&[9, 9, 9], &[true, true, true]);
        let picks: Vec<usize> = (0..6)
            .map(|_| pick(&rr, &s, 4, &[]).expect("never declines"))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_ineligible_slots_without_moving_the_cursor() {
        let rr = Scheduler::from(RoundRobin::default());
        let s = slots(&[0, 0, 0], &[true, true, true]);
        let not_1 = |slot: &RunnerSlot| slot.device() != DeviceId(1);
        let chosen = |c: Option<&Rc<RunnerSlot>>| c.map(|c| c.device().0);
        assert_eq!(chosen(rr.pick(&s, not_1, 4, |_| false)), Some(0));
        assert_eq!(chosen(rr.pick(&s, not_1, 4, |_| false)), Some(2));
        assert_eq!(chosen(rr.pick(&s, |_| false, 4, |_| false)), None);
        assert_eq!(chosen(rr.pick(&s, |_| true, 4, |_| false)), Some(2));
    }

    #[test]
    fn least_loaded_breaks_ties_by_start_order() {
        let s = slots(&[2, 1, 1], &[true, true, true]);
        assert_eq!(pick(&LeastLoaded, &s, 4, &[]), Some(1));
        let full = slots(&[4, 4, 4], &[true, true, true]);
        assert_eq!(pick(&LeastLoaded, &full, 4, &[]), None);
    }

    #[test]
    fn warm_first_prefers_started_runners() {
        // Slot 0 is still cold-starting; 1 is warm.
        let s = slots(&[1, 0], &[false, true]);
        assert_eq!(pick(&WarmFirst, &s, 4, &[]), Some(1));
        // All warm slots saturated: fall back to the cold one.
        let s = slots(&[1, 4], &[false, true]);
        assert_eq!(pick(&WarmFirst, &s, 4, &[]), Some(0));
        // Everything saturated: decline so the server can scale out.
        let s = slots(&[4, 4], &[false, true]);
        assert_eq!(pick(&WarmFirst, &s, 4, &[]), None);
    }

    #[test]
    fn warm_first_prefers_resident_operands() {
        // Slots 0 and 1 are warm; only 1 holds the operand.
        let s = slots(&[0, 0, 0], &[true, true, false]);
        assert_eq!(pick(&WarmFirst, &s, 4, &[1]), Some(1));
        // Resident slot saturated: fall back to any warm slot.
        let s = slots(&[0, 4, 0], &[true, true, false]);
        assert_eq!(pick(&WarmFirst, &s, 4, &[1]), Some(0));
        // A resident-but-cold slot never beats a warm one: the cold
        // start would cost more than the copy it saves.
        let s = slots(&[0, 0], &[false, true]);
        assert_eq!(pick(&WarmFirst, &s, 4, &[0]), Some(1));
    }

    #[test]
    fn identical_runs_produce_identical_placement_sequences() {
        // Same policy state + same slots ⇒ same choices, for every
        // policy (the determinism contract).
        let policies = [
            FillFirst,
            RoundRobin::default().into(),
            LeastLoaded,
            WarmFirst,
        ];
        for policy in policies {
            let (a, b) = (policy.clone(), policy);
            let mut claims = vec![0usize, 2, 1, 3];
            let warm = [true, false, true, true];
            for step in 0..32 {
                let s = slots(&claims, &warm);
                let pa = pick(&a, &s, 4, &[2]);
                let pb = pick(&b, &s, 4, &[2]);
                assert_eq!(pa, pb, "{} diverged at step {step}", a.name());
                if let Some(i) = pa {
                    claims[i] = (claims[i] + step) % 5;
                }
            }
        }
    }

    #[test]
    fn cloning_preserves_round_robin_state() {
        let rr = Scheduler::from(RoundRobin::default());
        let s = slots(&[0, 0, 0], &[true, true, true]);
        pick(&rr, &s, 4, &[]);
        let cloned = rr.clone();
        assert_eq!(pick(&cloned, &s, 4, &[]), Some(1));
        assert_eq!(pick(&rr, &s, 4, &[]), Some(1));
    }
}

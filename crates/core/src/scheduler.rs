//! Pluggable invocation scheduling: how the server chooses a runner
//! slot for each request.
//!
//! The [`Scheduler`] trait sees an immutable snapshot of the usable
//! slots for one kernel ([`SchedCtx`]) and either picks one
//! ([`SlotChoice`]) or declines, signalling that every eligible runner
//! is saturated. On a decline the server may start a fresh runner
//! ([`ServerConfig::autoscale`](crate::ServerConfig::autoscale)).
//!
//! Four policies ship in-tree — [`FillFirst`], [`RoundRobin`],
//! [`LeastLoaded`] (the paper's §5.4–§5.5 behaviours) and
//! [`WarmFirst`] (prefers runners that finished cold-starting).
//! Custom policies implement the trait:
//!
//! ```
//! use kaas_core::{SchedCtx, Scheduler, SlotChoice};
//!
//! /// Sends everything to the most recently started runner.
//! #[derive(Debug, Clone)]
//! struct NewestFirst;
//!
//! impl Scheduler for NewestFirst {
//!     fn name(&self) -> &'static str {
//!         "newest-first"
//!     }
//!     fn pick(&self, ctx: &SchedCtx) -> Option<SlotChoice> {
//!         ctx.slots
//!             .iter()
//!             .rev()
//!             .find(|s| s.claimed < ctx.cap)
//!             .map(|s| SlotChoice { index: s.index })
//!     }
//!     fn box_clone(&self) -> Box<dyn Scheduler> {
//!         Box::new(self.clone())
//!     }
//! }
//! ```

use std::cell::Cell;

use kaas_accel::DeviceId;

/// One usable runner slot as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotView {
    /// Position in [`SchedCtx::slots`], in runner start order. Return
    /// this in [`SlotChoice::index`] to pick the slot.
    pub index: usize,
    /// In-flight invocations currently claimed against the slot.
    pub claimed: usize,
    /// Device hosting the runner.
    pub device: DeviceId,
    /// Whether the runner finished its cold start (a cold slot can be
    /// picked — the invocation waits for readiness).
    pub warm: bool,
    /// Whether the invocation's referenced operand is already resident
    /// in this slot's device memory (data-plane cache hint; always
    /// `false` when the request carries no sealed object ref).
    pub resident: bool,
}

/// Everything a scheduler may consult for one placement decision.
#[derive(Debug, Clone)]
pub struct SchedCtx<'a> {
    /// Kernel being invoked.
    pub kernel: &'a str,
    /// Usable (non-dead) slots for this kernel, in start order.
    pub slots: &'a [SlotView],
    /// Per-runner in-flight cap
    /// ([`RunnerConfig::max_inflight`][crate::RunnerConfig::max_inflight]).
    pub cap: usize,
}

/// A scheduler's verdict: the index (into [`SchedCtx::slots`]) of the
/// chosen slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotChoice {
    /// Index of the chosen [`SlotView`].
    pub index: usize,
}

/// Placement policy: routes an invocation to one of a kernel's runner
/// slots, or declines when all eligible runners are saturated.
///
/// Implementations must be deterministic functions of their own state
/// and the [`SchedCtx`] — the whole simulation replays bit-for-bit, so
/// schedulers cannot consult wall clocks or ambient randomness.
pub trait Scheduler {
    /// Short policy name (used in `Debug` output).
    fn name(&self) -> &'static str;

    /// Chooses a slot, or `None` to decline (the server may then scale
    /// out).
    ///
    /// `ctx.slots` is never empty — the server handles the zero-runner
    /// bootstrap case before consulting the scheduler.
    fn pick(&self, ctx: &SchedCtx) -> Option<SlotChoice>;

    /// Clones the policy, preserving its internal state.
    fn box_clone(&self) -> Box<dyn Scheduler>;
}

impl Clone for Box<dyn Scheduler> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

impl<S: Scheduler + 'static> From<S> for Box<dyn Scheduler> {
    fn from(scheduler: S) -> Self {
        Box::new(scheduler)
    }
}

impl std::fmt::Debug for Box<dyn Scheduler> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scheduler({})", self.name())
    }
}

/// Fill the earliest-started runner to its in-flight cap before
/// spilling to the next (the paper's §5.5 autoscaling behaviour).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillFirst;

impl Scheduler for FillFirst {
    fn name(&self) -> &'static str {
        "fill-first"
    }

    fn pick(&self, ctx: &SchedCtx) -> Option<SlotChoice> {
        ctx.slots
            .iter()
            .find(|s| s.claimed < ctx.cap)
            .map(|s| SlotChoice { index: s.index })
    }

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(*self)
    }
}

/// Rotate across all runners (the paper's §5.4 weak-scaling
/// "round-robin scheduler"). Never declines: a saturated runner simply
/// queues the invocation, so round-robin deployments scale out only
/// through explicit prewarming.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    cursor: Cell<usize>,
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn pick(&self, ctx: &SchedCtx) -> Option<SlotChoice> {
        let i = self.cursor.get();
        self.cursor.set(i + 1);
        Some(SlotChoice {
            index: ctx.slots[i % ctx.slots.len()].index,
        })
    }

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

/// Pick the runner with the fewest in-flight invocations (first such
/// runner in start order on ties); declines when even the least-loaded
/// runner is at the cap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastLoaded;

impl Scheduler for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn pick(&self, ctx: &SchedCtx) -> Option<SlotChoice> {
        let slot = ctx.slots.iter().min_by_key(|s| s.claimed)?;
        (slot.claimed < ctx.cap).then_some(SlotChoice { index: slot.index })
    }

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(*self)
    }
}

/// Prefer runners that finished their cold start, and among the warm
/// ones, runners whose device already holds the invocation's operands
/// ([`SlotView::resident`], the data-plane cache hint — a resident hit
/// skips the host→device copy entirely). Order: warm + resident →
/// warm → cold (its cold start is already underway, which beats paying
/// a fresh one). Declines only when everything is saturated.
///
/// Compared to [`FillFirst`] this avoids stacking invocations behind a
/// still-starting runner while warm capacity sits idle, and avoids
/// re-uploading operands another device already holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmFirst;

impl Scheduler for WarmFirst {
    fn name(&self) -> &'static str {
        "warm-first"
    }

    fn pick(&self, ctx: &SchedCtx) -> Option<SlotChoice> {
        let under_cap = |s: &&SlotView| s.claimed < ctx.cap;
        ctx.slots
            .iter()
            .filter(|s| s.warm && s.resident)
            .find(under_cap)
            .or_else(|| ctx.slots.iter().filter(|s| s.warm).find(under_cap))
            .or_else(|| ctx.slots.iter().filter(|s| !s.warm).find(under_cap))
            .map(|s| SlotChoice { index: s.index })
    }

    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(claims: &[usize], warm: &[bool]) -> Vec<SlotView> {
        claims
            .iter()
            .zip(warm)
            .enumerate()
            .map(|(index, (&claimed, &warm))| SlotView {
                index,
                claimed,
                device: DeviceId(index as u32),
                warm,
                resident: false,
            })
            .collect()
    }

    fn ctx<'a>(slots: &'a [SlotView], cap: usize) -> SchedCtx<'a> {
        SchedCtx {
            kernel: "k",
            slots,
            cap,
        }
    }

    #[test]
    fn fill_first_packs_the_earliest_runner() {
        let slots = views(&[3, 0, 0], &[true, true, true]);
        assert_eq!(
            FillFirst.pick(&ctx(&slots, 4)),
            Some(SlotChoice { index: 0 })
        );
        let full = views(&[4, 4], &[true, true]);
        assert_eq!(FillFirst.pick(&ctx(&full, 4)), None);
    }

    #[test]
    fn round_robin_rotates_and_never_declines() {
        let rr = RoundRobin::default();
        let slots = views(&[9, 9, 9], &[true, true, true]);
        let picks: Vec<usize> = (0..6)
            .map(|_| rr.pick(&ctx(&slots, 4)).expect("never declines").index)
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_loaded_breaks_ties_by_start_order() {
        let slots = views(&[2, 1, 1], &[true, true, true]);
        assert_eq!(
            LeastLoaded.pick(&ctx(&slots, 4)),
            Some(SlotChoice { index: 1 })
        );
        let full = views(&[4, 4, 4], &[true, true, true]);
        assert_eq!(LeastLoaded.pick(&ctx(&full, 4)), None);
    }

    #[test]
    fn warm_first_prefers_started_runners() {
        // Slot 0 is still cold-starting; 1 is warm.
        let slots = views(&[1, 0], &[false, true]);
        assert_eq!(
            WarmFirst.pick(&ctx(&slots, 4)),
            Some(SlotChoice { index: 1 })
        );
        // All warm slots saturated: fall back to the cold one.
        let slots = views(&[1, 4], &[false, true]);
        assert_eq!(
            WarmFirst.pick(&ctx(&slots, 4)),
            Some(SlotChoice { index: 0 })
        );
        // Everything saturated: decline so the server can scale out.
        let slots = views(&[4, 4], &[false, true]);
        assert_eq!(WarmFirst.pick(&ctx(&slots, 4)), None);
    }

    #[test]
    fn warm_first_prefers_resident_operands() {
        // Slots 0 and 1 are warm; only 1 holds the operand.
        let mut slots = views(&[0, 0, 0], &[true, true, false]);
        slots[1].resident = true;
        assert_eq!(
            WarmFirst.pick(&ctx(&slots, 4)),
            Some(SlotChoice { index: 1 })
        );
        // Resident slot saturated: fall back to any warm slot.
        slots[1].claimed = 4;
        assert_eq!(
            WarmFirst.pick(&ctx(&slots, 4)),
            Some(SlotChoice { index: 0 })
        );
        // A resident-but-cold slot never beats a warm one: the cold
        // start would cost more than the copy it saves.
        let mut slots = views(&[0, 0], &[false, true]);
        slots[0].resident = true;
        assert_eq!(
            WarmFirst.pick(&ctx(&slots, 4)),
            Some(SlotChoice { index: 1 })
        );
    }

    #[test]
    fn identical_runs_produce_identical_placement_sequences() {
        // Same policy state + same contexts ⇒ same choices, for every
        // built-in policy (the determinism contract).
        let policies: [fn() -> Box<dyn Scheduler>; 4] = [
            || Box::new(FillFirst),
            || Box::<RoundRobin>::default(),
            || Box::new(LeastLoaded),
            || Box::new(WarmFirst),
        ];
        for make in policies {
            let a: Box<dyn Scheduler> = make();
            let b: Box<dyn Scheduler> = make();
            let mut claims = vec![0usize, 2, 1, 3];
            let warm = [true, false, true, true];
            for step in 0..32 {
                let slots = views(&claims, &warm);
                let c = ctx(&slots, 4);
                let pa = a.pick(&c).map(|s| s.index);
                let pb = b.pick(&c).map(|s| s.index);
                assert_eq!(pa, pb, "{} diverged at step {step}", a.name());
                if let Some(i) = pa {
                    claims[i] = (claims[i] + step) % 5;
                }
            }
        }
    }

    #[test]
    fn cloning_preserves_round_robin_state() {
        let rr = RoundRobin::default();
        let slots = views(&[0, 0, 0], &[true, true, true]);
        rr.pick(&ctx(&slots, 4));
        let cloned = rr.box_clone();
        assert_eq!(cloned.pick(&ctx(&slots, 4)).unwrap().index, 1);
        assert_eq!(rr.pick(&ctx(&slots, 4)).unwrap().index, 1);
    }
}

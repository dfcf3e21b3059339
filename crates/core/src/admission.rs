//! Admission control: per-tenant fairness quotas and whole-server
//! overload rejection, applied before a request touches the dispatch
//! path.
//!
//! Two independent knobs (see [`AdmissionConfig`]):
//!
//! * **Tenant quota** (§3.1 fairness) — a tenant over its concurrent
//!   quota queues FIFO behind its *own* requests instead of starving
//!   other tenants.
//! * **Limiter** — a ceiling on concurrently admitted requests (queued
//!   or executing); beyond it the server sheds load with
//!   [`InvokeError::Overloaded`] instead of building an unbounded
//!   queue. The limiter is an AIMD controller ([`AimdConfig`]) that
//!   moves the ceiling against observed dispatch queue-wait, so the
//!   server finds its own knee instead of trusting a hand-tuned
//!   constant. A fixed cap `n` is the one-value band
//!   `min_limit = max_limit = initial_limit = n`: every step clamps
//!   back to `n`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use kaas_simtime::sync::{Semaphore, SemaphoreGuard};
use kaas_simtime::SimTime;

use crate::protocol::InvokeError;

/// Tuning for the admission limiter: AIMD on observed dispatch
/// queue-wait, with additive increase while waits sit under the target
/// and multiplicative decrease (rate limited by a cooldown) when they
/// overshoot. All fields are integral so the controller stays exactly
/// reproducible across replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AimdConfig {
    /// Queue-wait the controller steers toward: completions that waited
    /// less raise the limit, completions that waited more lower it.
    pub target_queue_wait: Duration,
    /// Floor for the limit — the controller never starves the server
    /// entirely.
    pub min_limit: usize,
    /// Ceiling for the limit.
    pub max_limit: usize,
    /// Where the limit starts before any signal has arrived.
    pub initial_limit: usize,
    /// Additive step applied per below-target observation.
    pub increase: usize,
    /// Multiplicative-decrease percentage (e.g. `50` halves the limit).
    pub decrease_pct: u32,
    /// Minimum virtual time between two decreases, so one congested
    /// drain does not collapse the limit to the floor in a single
    /// burst of late completions.
    pub cooldown: Duration,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            target_queue_wait: Duration::from_millis(2),
            min_limit: 4,
            max_limit: 4096,
            initial_limit: 64,
            increase: 1,
            decrease_pct: 50,
            cooldown: Duration::from_millis(1),
        }
    }
}

impl AimdConfig {
    /// Sets the queue-wait target the limit steers toward.
    pub fn with_target_queue_wait(mut self, target: Duration) -> Self {
        self.target_queue_wait = target;
        self
    }

    /// Sets the `[min, max]` clamp on the limit.
    pub fn with_limit_range(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 1 && min <= max, "need 1 <= min <= max");
        self.min_limit = min;
        self.max_limit = max;
        self.initial_limit = self.initial_limit.clamp(min, max);
        self
    }

    /// Sets the starting limit (clamped into the configured range).
    pub fn with_initial_limit(mut self, initial: usize) -> Self {
        self.initial_limit = initial.clamp(self.min_limit, self.max_limit);
        self
    }

    /// Sets the minimum virtual time between multiplicative decreases.
    pub fn with_cooldown(mut self, cooldown: Duration) -> Self {
        self.cooldown = cooldown;
        self
    }
}

/// Admission-control settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionConfig {
    /// Per-tenant concurrent-invocation quota (§3.1 fairness): a tenant
    /// exceeding it queues FIFO behind its own requests instead of
    /// starving others. `None` disables tenant accounting.
    pub tenant_quota: Option<usize>,
    /// Server-wide concurrency limiter; requests beyond its current
    /// ceiling are rejected with [`InvokeError::Overloaded`]. `None`
    /// (the default) admits everything.
    pub limiter: Option<AimdConfig>,
}

/// Applies [`AdmissionConfig`] to incoming requests.
pub(crate) struct AdmissionController {
    config: AdmissionConfig,
    tenants: std::cell::RefCell<BTreeMap<String, Semaphore>>,
    admitted: Rc<Cell<usize>>,
    /// Current concurrency ceiling (meaningful only with a limiter).
    limit: Cell<usize>,
    last_decrease: Cell<Option<SimTime>>,
    /// Monotone issue/release tally backing the sanitizer's
    /// conservation invariant (`issued - released == admitted`).
    issued: Cell<u64>,
    released: Rc<Cell<u64>>,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("config", &self.config)
            .field("admitted", &self.admitted.get())
            .field("limit", &self.limit.get())
            .finish()
    }
}

/// Proof of admission; releases the server-wide slot (and any tenant
/// permit) on drop, on every exit path.
#[derive(Debug)]
pub(crate) struct AdmissionPermit {
    admitted: Rc<Cell<usize>>,
    released: Rc<Cell<u64>>,
    _tenant: Option<SemaphoreGuard>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.admitted.set(self.admitted.get() - 1);
        self.released.set(self.released.get() + 1);
    }
}

impl AdmissionController {
    pub(crate) fn new(config: AdmissionConfig) -> Self {
        let limit = config.limiter.map_or(usize::MAX, |aimd| aimd.initial_limit);
        AdmissionController {
            config,
            tenants: std::cell::RefCell::new(BTreeMap::new()),
            admitted: Rc::new(Cell::new(0)),
            limit: Cell::new(limit),
            last_decrease: Cell::new(None),
            issued: Cell::new(0),
            released: Rc::new(Cell::new(0)),
        }
    }

    /// Requests currently admitted (queued on a tenant quota or being
    /// dispatched/executed).
    #[cfg(any(test, feature = "sim-sanitizer"))]
    pub(crate) fn admitted(&self) -> usize {
        self.admitted.get()
    }

    /// Current concurrency ceiling, when a limiter is configured.
    pub(crate) fn current_limit(&self) -> Option<usize> {
        self.config.limiter.map(|_| self.limit.get())
    }

    /// The configured limiter, if any.
    #[cfg(feature = "sim-sanitizer")]
    pub(crate) fn limiter(&self) -> Option<AimdConfig> {
        self.config.limiter
    }

    /// Permits handed out since boot (monotone).
    #[cfg(any(test, feature = "sim-sanitizer"))]
    pub(crate) fn issued(&self) -> u64 {
        self.issued.get()
    }

    /// Permits returned since boot (monotone).
    #[cfg(any(test, feature = "sim-sanitizer"))]
    pub(crate) fn released(&self) -> u64 {
        self.released.get()
    }

    /// Feeds one completed dispatch's observed queue wait into the
    /// limiter: additive increase below the target, cooldown-gated
    /// multiplicative decrease above it, both clamped to the band.
    /// No-op without a limiter.
    pub(crate) fn observe_queue_wait(&self, wait: Duration) {
        let Some(aimd) = self.config.limiter else {
            return;
        };
        let limit = self.limit.get();
        if wait > aimd.target_queue_wait {
            let now = kaas_simtime::now();
            let off_cooldown = match self.last_decrease.get() {
                None => true,
                Some(at) => now.saturating_since(at) >= aimd.cooldown,
            };
            if off_cooldown {
                let cut =
                    (limit as u64 * u64::from(100 - aimd.decrease_pct.min(99)) / 100) as usize;
                self.limit.set(cut.max(aimd.min_limit));
                self.last_decrease.set(Some(now));
            }
        } else {
            self.limit.set((limit + aimd.increase).min(aimd.max_limit));
        }
    }

    /// Admits one request: sheds load if the concurrency ceiling is
    /// hit, then waits for the tenant's quota (FIFO per tenant).
    ///
    /// # Errors
    ///
    /// [`InvokeError::Overloaded`] when the limiter's current ceiling
    /// is already reached. The `retry_after` hint is left `None` here;
    /// the dispatch layer, which can see its own backlog, fills it in.
    pub(crate) async fn admit(&self, tenant: Option<&str>) -> Result<AdmissionPermit, InvokeError> {
        if self.config.limiter.is_some() && self.admitted.get() >= self.limit.get() {
            return Err(InvokeError::Overloaded { retry_after: None });
        }
        // Count the request before any quota wait (so queued tenant
        // traffic contributes to overload pressure), releasing through
        // the permit even if this future is dropped mid-wait.
        self.admitted.set(self.admitted.get() + 1);
        self.issued.set(self.issued.get() + 1);
        let mut permit = AdmissionPermit {
            admitted: Rc::clone(&self.admitted),
            released: Rc::clone(&self.released),
            _tenant: None,
        };
        if let (Some(tenant), Some(quota)) = (tenant, self.config.tenant_quota) {
            let sem = self
                .tenants
                .borrow_mut()
                .entry(tenant.to_owned())
                .or_insert_with(|| Semaphore::new(quota))
                .clone();
            permit._tenant = Some(sem.acquire(1).await);
        }
        Ok(permit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_simtime::{sleep, spawn, Simulation};
    use std::time::Duration;

    #[test]
    fn unlimited_by_default() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let ctl = AdmissionController::new(AdmissionConfig::default());
            let mut permits = Vec::new();
            for _ in 0..1000 {
                permits.push(ctl.admit(Some("t")).await.expect("no limits configured"));
            }
            assert_eq!(ctl.admitted(), 1000);
            assert_eq!(ctl.current_limit(), None);
            drop(permits);
            assert_eq!(ctl.admitted(), 0);
            assert_eq!(ctl.issued(), 1000);
            assert_eq!(ctl.released(), 1000);
        });
    }

    #[test]
    fn fixed_cap_sheds_and_recovers() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let ctl = AdmissionController::new(AdmissionConfig {
                tenant_quota: None,
                limiter: Some(AimdConfig {
                    min_limit: 2,
                    max_limit: 2,
                    initial_limit: 2,
                    ..AimdConfig::default()
                }),
            });
            let a = ctl.admit(None).await.unwrap();
            let _b = ctl.admit(None).await.unwrap();
            assert!(matches!(
                ctl.admit(None).await,
                Err(InvokeError::Overloaded { retry_after: None })
            ));
            drop(a);
            // Capacity freed: admission resumes.
            assert!(ctl.admit(None).await.is_ok());
            // Queue-wait signal must not move a fixed cap.
            ctl.observe_queue_wait(Duration::from_secs(1));
            assert_eq!(ctl.current_limit(), Some(2));
            ctl.observe_queue_wait(Duration::ZERO);
            assert_eq!(ctl.current_limit(), Some(2));
        });
    }

    #[test]
    fn adaptive_limit_tracks_queue_wait_within_bounds() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let aimd = AimdConfig::default()
                .with_limit_range(4, 128)
                .with_initial_limit(64)
                .with_cooldown(Duration::from_millis(1));
            let ctl = AdmissionController::new(AdmissionConfig {
                tenant_quota: None,
                limiter: Some(aimd),
            });
            assert_eq!(ctl.current_limit(), Some(64));

            // Overshoot: one multiplicative decrease...
            ctl.observe_queue_wait(Duration::from_millis(10));
            assert_eq!(ctl.current_limit(), Some(32));
            // ...then the cooldown swallows the rest of the burst.
            ctl.observe_queue_wait(Duration::from_millis(10));
            ctl.observe_queue_wait(Duration::from_millis(10));
            assert_eq!(ctl.current_limit(), Some(32));
            sleep(Duration::from_millis(2)).await;
            ctl.observe_queue_wait(Duration::from_millis(10));
            assert_eq!(ctl.current_limit(), Some(16));

            // Sustained congestion bottoms out at the floor, never 0.
            for _ in 0..64 {
                sleep(Duration::from_millis(2)).await;
                ctl.observe_queue_wait(Duration::from_millis(10));
            }
            assert_eq!(ctl.current_limit(), Some(4));

            // Healthy waits climb additively back up, clamped at max.
            for _ in 0..500 {
                ctl.observe_queue_wait(Duration::from_micros(10));
            }
            assert_eq!(ctl.current_limit(), Some(128));
        });
    }

    #[test]
    fn adaptive_limit_gates_admission() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let aimd = AimdConfig::default()
                .with_limit_range(1, 8)
                .with_initial_limit(2);
            let ctl = AdmissionController::new(AdmissionConfig {
                tenant_quota: None,
                limiter: Some(aimd),
            });
            let _a = ctl.admit(None).await.unwrap();
            let _b = ctl.admit(None).await.unwrap();
            assert!(matches!(
                ctl.admit(None).await,
                Err(InvokeError::Overloaded { .. })
            ));
            // A healthy completion raises the ceiling and unblocks.
            ctl.observe_queue_wait(Duration::ZERO);
            assert_eq!(ctl.current_limit(), Some(3));
            assert!(ctl.admit(None).await.is_ok());
        });
    }

    #[test]
    fn tenant_quota_queues_fifo_without_starving_others() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let ctl = Rc::new(AdmissionController::new(AdmissionConfig {
                tenant_quota: Some(1),
                limiter: None,
            }));
            // Tenant A saturates its quota for 10 ms.
            let a1 = ctl.admit(Some("a")).await.unwrap();
            let ctl2 = Rc::clone(&ctl);
            let queued = spawn(async move {
                let start = kaas_simtime::now();
                let _a2 = ctl2.admit(Some("a")).await.unwrap();
                kaas_simtime::now() - start
            });
            sleep(Duration::from_millis(1)).await;
            // Tenant B is unaffected by A's backlog.
            let t0 = kaas_simtime::now();
            let _b = ctl.admit(Some("b")).await.unwrap();
            assert_eq!(kaas_simtime::now(), t0, "tenant b must not wait");
            sleep(Duration::from_millis(9)).await;
            drop(a1);
            let waited = queued.await;
            assert!(waited >= Duration::from_millis(10), "waited {waited:?}");
        });
    }
}

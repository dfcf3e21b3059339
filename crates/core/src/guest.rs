//! Tenant-registered guest kernels: the per-tenant versioned registry
//! behind the `Code*` control ops, and usage accounting.
//!
//! The paper's programming model has tenants *bring* their kernels; the
//! [`kaas_guest`] runtime makes that concrete. A tenant registers a
//! validated [`GuestProgram`] through the
//! [`Control::CodeRegister`](crate::Control::CodeRegister) op and gets
//! back a versioned identity `tenant/name@vN` —
//! registration never mutates an existing version, so in-flight and
//! retried invocations keep resolving the exact code they started with.
//! Dispatch resolves guest names alongside compiled-in kernels: a plain
//! `tenant/name` means "latest live version", an explicit `@vN` pins
//! one. Removal tombstones versions (ids are never reused).
//!
//! Every successful guest invocation is fuel- and byte-metered into the
//! per-tenant `guest.*` counters, billed from each kernel's cumulative
//! meter so retries and interleavings can never double-count.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use kaas_guest::{GuestKernel, GuestMeter, GuestProgram, Trap};

use crate::metrics::handles::ServerMetrics;
use crate::protocol::InvokeError;

/// Is `name` shaped like a guest kernel reference (`tenant/...`) rather
/// than a compiled-in kernel?
pub(crate) fn is_guest_name(name: &str) -> bool {
    name.contains('/')
}

struct GuestEntry {
    kernel: Rc<GuestKernel>,
    /// Cumulative meter already billed into the metrics registry.
    billed: Cell<GuestMeter>,
}

/// Per-server guest kernel registry: `tenant/name` → versions, where a
/// version slot is `None` once tombstoned (indices are never reused, so
/// `@vN` stays stable forever).
pub(crate) struct GuestState {
    kernels: RefCell<BTreeMap<String, Vec<Option<GuestEntry>>>>,
}

impl std::fmt::Debug for GuestState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.kernels.borrow();
        let live: usize = map.values().map(|vs| vs.iter().flatten().count()).sum();
        f.debug_struct("GuestState")
            .field("names", &map.len())
            .field("live_versions", &live)
            .finish()
    }
}

impl GuestState {
    pub(crate) fn new() -> Self {
        GuestState {
            kernels: RefCell::new(BTreeMap::new()),
        }
    }

    /// Validates and instantiates `program` under `tenant`, assigning
    /// the next version id. Returns the full `tenant/name@vN` identity.
    pub(crate) fn register(
        &self,
        tenant: &str,
        program: GuestProgram,
    ) -> Result<String, InvokeError> {
        let bad_tenant = tenant.is_empty()
            || tenant.starts_with('_')
            || tenant
                .chars()
                .any(|c| c == '/' || c == '@' || c.is_whitespace());
        if bad_tenant {
            return Err(InvokeError::BadInput(format!(
                "bad tenant identity {tenant:?}"
            )));
        }
        program
            .validate()
            .map_err(|e| InvokeError::BadInput(e.to_string()))?;
        // The abstract interpreter rejects programs that provably trap
        // (type mismatch, underflow, fall-off-the-end) before they ever
        // reach a runner; its certificate carries the compiled tier for
        // clean input classes and the worst-case fuel bound.
        let cert =
            kaas_guest::verify(&program).map_err(|e| InvokeError::VerifyRejected(e.to_string()))?;
        let key = format!("{tenant}/{}", program.name);
        let mut map = self.kernels.borrow_mut();
        let versions = map.entry(key.clone()).or_default();
        let full = format!("{key}@v{}", versions.len() + 1);
        let kernel = GuestKernel::instantiate_verified(&full, Rc::new(program), cert).map_err(
            |e| match e {
                Trap::FuelExhausted { .. } => InvokeError::FuelExhausted(format!("{full}: {e}")),
                _ => InvokeError::GuestTrap(format!("{full} failed init: {e}")),
            },
        )?;
        versions.push(Some(GuestEntry {
            kernel: Rc::new(kernel),
            billed: Cell::new(GuestMeter::default()),
        }));
        Ok(full)
    }

    /// Resolves `tenant/name` (latest live version) or `tenant/name@vN`
    /// (that exact version, if still live).
    pub(crate) fn resolve(&self, name: &str) -> Option<Rc<GuestKernel>> {
        let map = self.kernels.borrow();
        match name.rsplit_once("@v") {
            Some((base, v)) => {
                let version: usize = v.parse().ok().filter(|&n| n >= 1)?;
                map.get(base)?
                    .get(version - 1)?
                    .as_ref()
                    .map(|e| e.kernel.clone())
            }
            None => map
                .get(name)?
                .iter()
                .rev()
                .flatten()
                .next()
                .map(|e| e.kernel.clone()),
        }
    }

    /// Every live `tenant/name@vN` under `tenant`, in name-then-version
    /// order.
    pub(crate) fn list(&self, tenant: &str) -> Vec<String> {
        let prefix = format!("{tenant}/");
        self.kernels
            .borrow()
            .iter()
            .filter(|(key, _)| key.starts_with(&prefix))
            .flat_map(|(key, versions)| {
                versions
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, e)| e.as_ref().map(|_| format!("{key}@v{}", i + 1)))
            })
            .collect()
    }

    /// Tombstones one version (`tenant/name@vN`) or every live version
    /// (`tenant/name`). Returns how many versions were removed.
    pub(crate) fn remove(&self, name: &str) -> u64 {
        let mut map = self.kernels.borrow_mut();
        match name.rsplit_once("@v") {
            Some((base, v)) => {
                let Some(version) = v.parse::<usize>().ok().filter(|&n| n >= 1) else {
                    return 0;
                };
                map.get_mut(base)
                    .and_then(|vs| vs.get_mut(version - 1))
                    .and_then(Option::take)
                    .is_some() as u64
            }
            None => match map.get_mut(name) {
                Some(versions) => {
                    let mut removed = 0;
                    for slot in versions.iter_mut() {
                        removed += slot.take().is_some() as u64;
                    }
                    removed
                }
                None => 0,
            },
        }
    }

    /// Bills everything `full_name` has metered since the last call into
    /// the `guest.*` counters. Cumulative-meter deltas make this safe to
    /// call after every invocation regardless of interleaving: usage is
    /// counted exactly once. No-op for tombstoned or unknown names.
    pub(crate) fn account(&self, full_name: &str, m: &ServerMetrics) {
        let map = self.kernels.borrow();
        let Some((base, v)) = full_name.rsplit_once("@v") else {
            return;
        };
        let Some(version) = v.parse::<usize>().ok().filter(|&n| n >= 1) else {
            return;
        };
        let Some(entry) = map
            .get(base)
            .and_then(|vs| vs.get(version - 1))
            .and_then(|e| e.as_ref())
        else {
            return;
        };
        let cur = entry.kernel.meter();
        let prev = entry.billed.get();
        if cur == prev {
            return;
        }
        entry.billed.set(cur);
        m.guest_invocations.add(cur.invocations - prev.invocations);
        m.guest_fuel_used.add(cur.fuel - prev.fuel);
        m.guest_bytes.add(cur.bytes - prev.bytes);
        let tenant = base.split('/').next().unwrap_or(base);
        m.tenant_fuel(tenant).add(cur.fuel - prev.fuel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_accel::DeviceClass;
    use kaas_guest::Op;
    use kaas_kernels::{Kernel, Value};

    fn program(name: &str) -> GuestProgram {
        GuestProgram::new(name, DeviceClass::Cpu)
            .with_fuel(100)
            .with_body(vec![Op::Input, Op::Return])
    }

    #[test]
    fn versions_are_stable_and_tombstoned() {
        let state = GuestState::new();
        assert_eq!(
            state.register("acme", program("echo")).unwrap(),
            "acme/echo@v1"
        );
        assert_eq!(
            state.register("acme", program("echo")).unwrap(),
            "acme/echo@v2"
        );
        // Bare name resolves latest; @vN pins.
        assert_eq!(state.resolve("acme/echo").unwrap().name(), "acme/echo@v2");
        assert_eq!(
            state.resolve("acme/echo@v1").unwrap().name(),
            "acme/echo@v1"
        );
        assert!(state.resolve("acme/echo@v3").is_none());
        assert!(state.resolve("other/echo").is_none());
        // Removing v2 falls back to v1; ids are never reused.
        assert_eq!(state.remove("acme/echo@v2"), 1);
        assert_eq!(state.remove("acme/echo@v2"), 0);
        assert_eq!(state.resolve("acme/echo").unwrap().name(), "acme/echo@v1");
        assert_eq!(
            state.register("acme", program("echo")).unwrap(),
            "acme/echo@v3"
        );
        assert_eq!(state.remove("acme/echo"), 2);
        assert!(state.resolve("acme/echo").is_none());
    }

    #[test]
    fn listing_is_per_tenant() {
        let state = GuestState::new();
        state.register("a", program("x")).unwrap();
        state.register("a", program("y")).unwrap();
        state.register("ab", program("z")).unwrap();
        assert_eq!(state.list("a"), vec!["a/x@v1", "a/y@v1"]);
        assert_eq!(state.list("ab"), vec!["ab/z@v1"]);
        assert!(state.list("nobody").is_empty());
    }

    #[test]
    fn register_rejects_bad_tenants_and_programs() {
        let state = GuestState::new();
        for tenant in ["", "_sys", "a/b", "a@b", "a b"] {
            assert!(matches!(
                state.register(tenant, program("k")),
                Err(InvokeError::BadInput(_))
            ));
        }
        let mut bad = program("k");
        bad.body.clear();
        assert!(matches!(
            state.register("acme", bad),
            Err(InvokeError::BadInput(_))
        ));
        // An init that traps surfaces as a guest trap at register time.
        let mut trapping = program("boom");
        trapping.globals = 1;
        trapping.init = vec![Op::PushU(1), Op::PushU(0), Op::Div, Op::SetGlobal(0)];
        assert!(matches!(
            state.register("acme", trapping),
            Err(InvokeError::GuestTrap(_))
        ));
    }

    #[test]
    fn register_runs_the_verifier() {
        let state = GuestState::new();
        // A provable stack underflow is rejected before instantiation,
        // with the verifier's structured diagnostics in the payload.
        let mut bad = program("under");
        bad.body = vec![Op::Pop, Op::Return];
        let err = state.register("acme", bad).unwrap_err();
        assert!(matches!(err, InvokeError::VerifyRejected(_)));
        assert_eq!(err.kind(), "verify-rejected");
        assert!(err.to_string().contains("body@0: [underflow]"));
        // Accepted programs carry the static fuel bound into the
        // registry entry.
        let full = state.register("acme", program("echo")).unwrap();
        let k = state.resolve(&full).unwrap();
        assert_eq!(k.predicted_fuel(), Some(2));
        assert!(k.certificate().is_some());
    }

    #[test]
    fn accounting_bills_deltas_exactly_once() {
        let state = GuestState::new();
        let full = state.register("acme", program("echo")).unwrap();
        let k = state.resolve(&full).unwrap();
        k.execute(&Value::U64(1)).unwrap();
        k.execute(&Value::U64(2)).unwrap();
        let handles = ServerMetrics::new(&[], 0);
        let m = handles.registry();
        state.account(&full, &handles);
        assert_eq!(m.counter("guest.invocations"), 2);
        assert_eq!(
            m.counter("guest.tenant.acme.fuel"),
            m.counter("guest.fuel_used")
        );
        // Re-accounting with no new work adds nothing.
        state.account(&full, &handles);
        assert_eq!(m.counter("guest.invocations"), 2);
        k.execute(&Value::U64(3)).unwrap();
        state.account(&full, &handles);
        assert_eq!(m.counter("guest.invocations"), 3);
    }

    #[test]
    fn guest_name_shapes() {
        assert!(is_guest_name("acme/echo"));
        assert!(is_guest_name("acme/echo@v2"));
        assert!(!is_guest_name("matmul"));
    }
}

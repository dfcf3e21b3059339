//! Control operations: one handler serving every [`Control`] op — data
//! plane, guest code and workflows.
//!
//! Control ops bypass admission and placement (no device work happens)
//! but pay the same transport costs as a kernel invocation: the input
//! is unpacked like a kernel's (deserialized in-band, taken from shared
//! memory, or resolved from the object store) and the reply shaped like
//! one (serialized in-band, or put in shared memory out-of-band).

use std::time::Duration;

use kaas_accel::DeviceId;
use kaas_kernels::Value;
use kaas_simtime::{now, sleep};

use crate::dataplane::ObjectRef;
use crate::flow::{decode_trigger, FLOW_REPLY_REF};
use crate::guest::decode_register;
use crate::metrics::{InvocationReport, RunnerId};
use crate::protocol::{Control, DataRef, InvokeError, Request};
use crate::server::KaasServer;
use crate::workflow::{Workflow, WorkflowReport};

impl KaasServer {
    /// Serves one control operation. A [`Control::FlowRun`] leaves its
    /// per-step report in `flow`, on failure too (the partial results).
    pub(crate) async fn control(
        &self,
        op: Control,
        req: Request,
        flow: &mut Option<Box<WorkflowReport>>,
    ) -> Result<(DataRef, InvocationReport), InvokeError> {
        let inner = self.inner();
        let oob = matches!(req.data, DataRef::OutOfBand(_)) || req.reply_out_of_band;
        let input = match req.data {
            DataRef::InBand(v) => {
                sleep(inner.config.serialization.time(v.wire_bytes())).await;
                v
            }
            DataRef::OutOfBand(h) => inner.shm.take(h).await.ok_or(InvokeError::BadHandle)?,
            DataRef::Object(r) => inner.dataplane.resolve(&r).ok_or(InvokeError::BadHandle)?,
        };
        let dp = &inner.dataplane;
        let m = &inner.handles;
        let object_ref = || {
            ObjectRef::from_value(&input)
                .ok_or_else(|| InvokeError::BadInput("expected an object ref".into()))
        };
        let text = |what: &str| match input.payload() {
            Value::Text(t) => Ok(t.clone()),
            _ => Err(InvokeError::BadInput(format!("expected {what} as text"))),
        };
        let output = match op {
            Control::DataPut => {
                let r = dp.put(input);
                m.dataplane_puts.inc();
                m.dataplane_objects.set(dp.store().len() as f64);
                m.dataplane_bytes_stored
                    .set(dp.store().bytes_stored() as f64);
                r.to_value()
            }
            Control::DataGet => dp.resolve(&object_ref()?).ok_or(InvokeError::BadHandle)?,
            Control::DataSeal => {
                if !dp.seal(object_ref()?.hash) {
                    return Err(InvokeError::BadHandle);
                }
                Value::Unit
            }
            Control::DataPin => {
                if !dp.pin(object_ref()?.hash) {
                    return Err(InvokeError::BadHandle);
                }
                Value::Unit
            }
            Control::CodeRegister => {
                let (tenant, program) = decode_register(&input)?;
                let full = inner.guests.register(&tenant, program)?;
                m.guest_registered.inc();
                Value::Text(full)
            }
            Control::CodeList => {
                let names = inner.guests.list(&text("a tenant identity")?);
                Value::List(names.into_iter().map(Value::Text).collect())
            }
            Control::CodeRemove => {
                let name = text("a guest kernel name")?;
                let removed = inner.guests.remove(&name);
                if removed == 0 {
                    return Err(InvokeError::UnknownGuestKernel(name));
                }
                m.guest_removed.add(removed);
                Value::U64(removed)
            }
            Control::FlowRegister => {
                let wf = Workflow::from_value(&input).ok_or_else(|| {
                    InvokeError::BadInput("expected a workflow definition".into())
                })?;
                // Fail registration, not a later trigger, when a step
                // names a kernel this site does not serve.
                if let Some(step) = wf
                    .steps()
                    .iter()
                    .find(|s| inner.registry.lookup(s.kernel()).is_none())
                {
                    return Err(InvokeError::UnknownKernel(step.kernel().to_owned()));
                }
                let flow_id = inner.flows.register(wf);
                m.workflow_registered.inc();
                Value::U64(flow_id)
            }
            Control::FlowRun => {
                let (flow_id, flags, trigger) = decode_trigger(&input)
                    .ok_or_else(|| InvokeError::BadInput("expected a flow trigger".into()))?;
                let wf = inner
                    .flows
                    .get(flow_id)
                    .ok_or_else(|| InvokeError::UnknownFlow(flow_id.to_string()))?;
                let t0 = now();
                let (span, tenant) = req.context.map_or((None, None), |c| (c.span, c.tenant));
                let run = self
                    .run_flow(flow_id, &wf, trigger, span, tenant, req.deadline)
                    .await;
                let (final_ref, report) = match run {
                    Ok(ok) => ok,
                    Err((e, report)) => {
                        m.workflow_failures.inc();
                        *flow = Some(Box::new(report));
                        return Err(e);
                    }
                };
                m.workflow_runs.inc();
                m.workflow_steps.add(report.steps.len() as u64);
                m.workflow_chained_hits.add(report.chained_hits() as u64);
                m.workflow_latency.observe((now() - t0).as_secs_f64());
                *flow = Some(Box::new(report));
                if flags & FLOW_REPLY_REF != 0 {
                    // Segment handoff: only the 24-byte address travels;
                    // the value stays server-side.
                    return Ok((DataRef::Object(final_ref), self.control_report(op)));
                }
                dp.resolve(&final_ref).ok_or(InvokeError::BadHandle)?
            }
        };
        let report = self.control_report(op);
        Ok((self.reply_data(output, oob).await, report))
    }

    /// The synthetic report attached to control responses: no runner or
    /// device was involved.
    fn control_report(&self, op: Control) -> InvocationReport {
        InvocationReport {
            kernel: op.name().into(),
            runner: RunnerId(u32::MAX),
            device: DeviceId(u32::MAX),
            cold_start: false,
            submitted: now(),
            started: now(),
            completed: now(),
            copy_in: Duration::ZERO,
            kernel_exec: Duration::ZERO,
            copy_out: Duration::ZERO,
            degraded: false,
        }
    }
}

//! Control operations: one handler serving every [`Control`] op — data
//! plane, guest code and workflows.
//!
//! Control ops bypass admission and placement (no device work happens)
//! but pay the same transport costs as a kernel invocation: the payload
//! is unpacked like a kernel's input (deserialized in-band or taken from
//! shared memory; a stored object's ref stays a ref) and the reply
//! shaped like one (serialized in-band, or put in shared memory
//! out-of-band). The op's own arguments are typed fields of the
//! request, so no arm decodes a value to find them.

use std::time::Duration;

use kaas_accel::DeviceId;
use kaas_kernels::Value;
use kaas_simtime::{now, sleep};

use crate::metrics::{InvocationReport, RunnerId};
use crate::protocol::{Control, DataRef, Input, InvokeError, Request, Target};
use crate::server::KaasServer;
use crate::workflow::WorkflowReport;

impl KaasServer {
    /// Serves one control operation; `req` targets a [`Control`] op. A
    /// [`Control::FlowRun`] leaves its per-step report in `flow`, on
    /// failure too (the partial results).
    pub(crate) async fn control(
        &self,
        req: Request,
        flow: &mut Option<Box<WorkflowReport>>,
    ) -> Result<(DataRef, InvocationReport), InvokeError> {
        let Request {
            target: Target::Control(op),
            data,
            deadline,
            context,
            reply_out_of_band,
            ..
        } = req
        else {
            unreachable!("only control targets reach the control handler")
        };
        let inner = self.inner();
        let oob = matches!(data, DataRef::OutOfBand(_)) || reply_out_of_band;
        // A stored object stays a ref: a flow consumes it in place.
        let input = match data {
            DataRef::InBand(v) => {
                sleep(inner.config.serialization.time(v.wire_bytes())).await;
                Input::Value(v)
            }
            DataRef::OutOfBand(h) => {
                Input::Value(inner.shm.take(h).await.ok_or(InvokeError::BadHandle)?)
            }
            DataRef::Object(r) => Input::Object(r),
        };
        let dp = &inner.dataplane;
        let m = &inner.handles;
        let name = op.name();
        let output = match *op {
            Control::DataPut => {
                let value = match input {
                    Input::Value(v) => v,
                    Input::Object(r) => dp.resolve(&r).ok_or(InvokeError::BadHandle)?,
                };
                let r = dp.put(value);
                m.dataplane_puts.inc();
                m.dataplane_objects.set(dp.store().len() as f64);
                m.dataplane_bytes_stored
                    .set(dp.store().bytes_stored() as f64);
                return Ok((DataRef::Object(r), self.control_report(name)));
            }
            Control::DataGet(r) => dp.resolve(&r).ok_or(InvokeError::BadHandle)?,
            Control::DataSeal(r) => {
                if !dp.seal(r.hash) {
                    return Err(InvokeError::BadHandle);
                }
                Value::Unit
            }
            Control::DataPin(r) => {
                if !dp.pin(r.hash) {
                    return Err(InvokeError::BadHandle);
                }
                Value::Unit
            }
            Control::CodeRegister { tenant, program } => {
                let full = inner.guests.register(&tenant, program)?;
                m.guest_registered.inc();
                Value::Text(full)
            }
            Control::CodeList(tenant) => {
                let names = inner.guests.list(&tenant);
                Value::List(names.into_iter().map(Value::Text).collect())
            }
            Control::CodeRemove(name) => {
                let removed = inner.guests.remove(&name);
                if removed == 0 {
                    return Err(InvokeError::UnknownGuestKernel(name));
                }
                m.guest_removed.add(removed);
                Value::U64(removed)
            }
            Control::FlowRegister(wf) => {
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
            Control::FlowRun {
                flow: flow_id,
                reply_ref,
            } => {
                let wf = inner
                    .flows
                    .get(flow_id)
                    .ok_or_else(|| InvokeError::UnknownFlow(flow_id.to_string()))?;
                let t0 = now();
                let (span, tenant) = context.map_or((None, None), |c| (c.span, c.tenant));
                let run = self
                    .run_flow(flow_id, &wf, input, span, tenant, deadline)
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
                if reply_ref {
                    // Segment handoff: only the 24-byte address travels;
                    // the value stays server-side.
                    return Ok((DataRef::Object(final_ref), self.control_report(name)));
                }
                dp.resolve(&final_ref).ok_or(InvokeError::BadHandle)?
            }
        };
        let report = self.control_report(name);
        Ok((self.reply_data(output, oob).await, report))
    }

    /// The synthetic report attached to control responses: no runner or
    /// device was involved.
    fn control_report(&self, name: &str) -> InvocationReport {
        InvocationReport {
            kernel: name.into(),
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

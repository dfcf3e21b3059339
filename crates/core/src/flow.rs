//! The server-side dataflow engine: registered workflow DAGs executed
//! device-to-device.
//!
//! Clients register a [`Workflow`] once through the
//! [`Control::FlowRegister`](crate::Control::FlowRegister) op and
//! trigger it with a single [`Control::FlowRun`](crate::Control::FlowRun)
//! request. The server walks the DAG itself: as each
//! step completes, its output is sealed into the object store, admitted
//! to the device that produced it, and handed to its consumers as a
//! device-resident [`ObjectRef`] — intermediates never cross the wire,
//! and a consumer placed on the producer's device serves the input as a
//! cache hit with **zero `copy_in`**. Ready steps are enqueued into the
//! ordinary sharded dispatcher as their dependencies resolve, so flows
//! and standalone invocations share admission, placement, retry, and
//! metrics.
//!
//! Every intermediate carries a flow-lifetime pin (it cannot be evicted
//! or garbage-collected mid-flow); on completion — success or abort —
//! the executor releases every pin and removes the intermediates it
//! created, keeping only the final output (the client may still
//! [`get`](crate::KaasClient::get) it or feed it to another flow). The
//! sim-sanitizer's shutdown sweep verifies no flow is active and no
//! intermediate pin survives when the server drops.
//!
//! This closes the paper's §6 open problem: the client-driven loop paid
//! one round trip per step and shipped every intermediate through the
//! client; a registered flow pays one round trip total.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use kaas_kernels::Value;
use kaas_simtime::channel::{self, Sender};
use kaas_simtime::{spawn_detached, SimTime, SpanId};

use crate::dataplane::ObjectRef;
use crate::metrics::InvocationReport;
use crate::protocol::{DataRef, Input, InvokeError, Request, RequestContext, Target};
use crate::server::KaasServer;
use crate::workflow::{Edge, EdgeTransfer, StepReport, Workflow, WorkflowReport};

/// Per-server flow registry and run accounting.
pub(crate) struct FlowState {
    /// Registered DAGs by server-assigned id.
    flows: RefCell<BTreeMap<u64, Rc<Workflow>>>,
    /// Next registration id (ids start at 1 so 0 is never valid).
    next_id: Cell<u64>,
    /// Next run number (trace-track and request-id namespace).
    next_run: Cell<u64>,
    /// Flow runs currently executing.
    active: Cell<usize>,
    /// Flow-lifetime pins currently outstanding across all runs; the
    /// sanitizer requires 0 at server drop (completed flows release
    /// every intermediate ref).
    intermediates: Cell<usize>,
}

impl std::fmt::Debug for FlowState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowState")
            .field("registered", &self.flows.borrow().len())
            .field("active", &self.active.get())
            .field("intermediates", &self.intermediates.get())
            .finish()
    }
}

impl FlowState {
    pub(crate) fn new() -> Self {
        FlowState {
            flows: RefCell::new(BTreeMap::new()),
            next_id: Cell::new(1),
            next_run: Cell::new(1),
            active: Cell::new(0),
            intermediates: Cell::new(0),
        }
    }

    pub(crate) fn register(&self, wf: Workflow) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        self.flows.borrow_mut().insert(id, Rc::new(wf));
        id
    }

    pub(crate) fn get(&self, id: u64) -> Option<Rc<Workflow>> {
        self.flows.borrow().get(&id).cloned()
    }

    /// Flow runs currently executing (sanitizer: 0 at server drop).
    #[cfg(feature = "sim-sanitizer")]
    pub(crate) fn active(&self) -> usize {
        self.active.get()
    }

    /// Outstanding flow-lifetime intermediate pins (sanitizer: 0 at
    /// server drop).
    #[cfg(feature = "sim-sanitizer")]
    pub(crate) fn intermediates_live(&self) -> usize {
        self.intermediates.get()
    }
}

/// What one step task reports back to the run.
type StepDone = (usize, Result<(Value, InvocationReport), InvokeError>);

/// One executing run of a registered workflow: the state `run_flow`
/// threads between launching ready steps and draining their results.
struct FlowRun<'a> {
    server: &'a KaasServer,
    wf: &'a Workflow,
    run_no: u64,
    tenant: Option<Rc<str>>,
    deadline: Option<SimTime>,
    /// The flow's trace track and root span. Linear chains run strictly
    /// one step at a time, so their step spans tile on this track;
    /// concurrent DAG branches get a sub-track each (cross-track
    /// parenting is exempt from the tiling contract, same as client →
    /// server).
    track: String,
    linear: bool,
    root: Option<SpanId>,
    /// The staged trigger input every source step consumes.
    input: ObjectRef,
    /// Every object the run pinned: `(hash, created)` — created entries
    /// the run introduced are garbage-collected on completion (minus
    /// the final output).
    tracked: Vec<(u64, bool)>,
    /// Producers each step still waits on.
    pending: Vec<usize>,
    /// Each finished step's sealed output.
    outputs: Vec<Option<ObjectRef>>,
    reports: Vec<Option<StepReport>>,
    failure: Option<InvokeError>,
    in_flight: usize,
    done: Sender<StepDone>,
}

impl FlowRun<'_> {
    /// Seals and flow-pins `r` for the rest of the run, tracking it for
    /// release at the end.
    fn keep(&mut self, (r, created): (ObjectRef, bool)) -> ObjectRef {
        let inner = self.server.inner();
        inner.dataplane.seal(r.hash);
        inner.dataplane.pin(r.hash);
        self.tracked.push((r.hash, created));
        let flows = &inner.flows;
        flows.intermediates.set(flows.intermediates.get() + 1);
        inner
            .handles
            .workflow_intermediates_live
            .set(flows.intermediates.get() as f64);
        r
    }

    /// Records step `step`'s outcome; the first error fails the run.
    fn report(
        &mut self,
        step: usize,
        chained: bool,
        outcome: Result<InvocationReport, InvokeError>,
    ) {
        let (report, error) = match outcome {
            Ok(report) => (Some(report), None),
            Err(e) => {
                self.failure.get_or_insert_with(|| e.clone());
                (None, Some(e))
            }
        };
        self.reports[step] = Some(StepReport {
            step,
            kernel: self.wf.steps()[step].kernel().to_owned(),
            chained,
            error,
            report,
        });
    }

    /// Builds step `i`'s input from its finished producers.
    fn stage(&mut self, i: usize) -> Result<DataRef, InvokeError> {
        let dp = &self.server.inner().dataplane;
        let edges = self.wf.steps()[i].inputs();
        let output = |e: &Edge| self.outputs[e.from.index()].expect("dependency resolved");
        match edges {
            [] => Ok(DataRef::Object(self.input)),
            [e] if e.transfer == EdgeTransfer::Resident => Ok(DataRef::Object(output(e))),
            [e] => dp
                .resolve(&output(e))
                .map(DataRef::InBand)
                .ok_or(InvokeError::BadHandle),
            _ => {
                // Fan-in: the kernel receives a list of its inputs in
                // edge order. All-inline joins travel in-band;
                // otherwise the combined object is staged in the store
                // and chained by ref like any intermediate.
                let vals = edges
                    .iter()
                    .map(|e| dp.resolve(&output(e)).ok_or(InvokeError::BadHandle))
                    .collect::<Result<Vec<_>, _>>()?;
                let combined = Value::List(vals);
                if edges.iter().all(|e| e.transfer == EdgeTransfer::Inline) {
                    Ok(DataRef::InBand(combined))
                } else {
                    Ok(DataRef::Object(self.keep(dp.store().put_tracked(combined))))
                }
            }
        }
    }

    /// Launches step `i`, whose producers have all finished, unless the
    /// run already failed.
    fn launch_ready(&mut self, i: usize) {
        if self.failure.is_some() {
            return;
        }
        match self.stage(i) {
            Ok(data) => self.spawn_step(i, data),
            Err(e) => self.report(i, false, Err(e)),
        }
    }

    /// Spawns step `i` as a simtime task: one request through the
    /// ordinary dispatch path (admission → shards → placement →
    /// execute, whose `RetryConfig` retries runner failures) with
    /// `reply_to_store` set, reporting back on `done`.
    fn spawn_step(&mut self, i: usize, data: DataRef) {
        let server = self.server.clone();
        let tracer = server.inner().config.tracer.clone();
        let kernel: Rc<str> = self.wf.steps()[i].kernel().into();
        let step_track = if self.linear {
            self.track.clone()
        } else {
            format!("{}.s{i}", self.track)
        };
        let (root, done) = (self.root, self.done.clone());
        let req = Request {
            // Internal correlation id: the flow-step namespace (high
            // bit) never collides with client ids.
            id: 0x8000_0000_0000_0000 | (self.run_no << 16) | i as u64,
            target: Target::Kernel(Rc::clone(&kernel)),
            data,
            deadline: self.deadline,
            context: RequestContext::boxed(self.tenant.clone(), None),
            reply_out_of_band: false,
            reply_to_store: true,
        };
        self.in_flight += 1;
        spawn_detached(async move {
            let span = tracer.as_ref().map(|t| {
                let mut s = t.open(&step_track, "step", root);
                s.push_arg("kernel", kernel.to_string());
                s.push_arg("step", i.to_string());
                s
            });
            let mut req = req;
            req.set_span(span.as_ref().map(|s| s.id()));
            let outcome = match server.invoke(req).await {
                Ok((DataRef::InBand(v), report)) => Ok((v, report)),
                // `reply_to_store` replies are always in-band.
                Ok(_) => Err(InvokeError::BadHandle),
                Err(e) => Err(e),
            };
            if let Some(s) = span {
                s.finish();
            }
            let _ = done.send((i, outcome)).await;
        });
    }

    /// Takes in step `i`'s result: seals its output, records the
    /// producer's residency and launches every consumer it unblocks.
    fn finish_step(&mut self, i: usize, outcome: Result<(Value, InvocationReport), InvokeError>) {
        self.in_flight -= 1;
        let (output, report) = match outcome {
            Ok(done) => done,
            Err(e) => return self.report(i, false, Err(e)),
        };
        // A step with a resident edge received an object ref; it
        // chained if that ref was a cache hit on its device.
        let steps = self.wf.steps();
        let chained = steps[i]
            .inputs()
            .iter()
            .any(|e| e.transfer == EdgeTransfer::Resident)
            && report.copy_in == Duration::ZERO;
        let inner = self.server.inner();
        let dp = &inner.dataplane;
        let r = self.keep(dp.store().put_tracked(output));
        // The output was born in the producing device's memory: record
        // the residency (no upload happens — this is bookkeeping, not a
        // copy). A full device simply skips the record; consumers
        // re-upload.
        if !dp.is_resident(report.device, r.hash) {
            if let Ok(evicted) = dp.admit(report.device, &r) {
                inner.handles.dataplane_evictions.add(evicted.len() as u64);
            }
        }
        self.outputs[i] = Some(r);
        self.report(i, chained, Ok(report));
        // Edges point strictly backwards, so every consumer comes later.
        for (j, step) in steps.iter().enumerate().skip(i + 1) {
            let fed = step.inputs().iter().filter(|e| e.from.index() == i).count();
            if fed > 0 {
                self.pending[j] -= fed;
                if self.pending[j] == 0 {
                    self.launch_ready(j);
                }
            }
        }
    }
}

impl KaasServer {
    /// Executes one run of a registered workflow: walks the DAG,
    /// enqueuing ready steps into the dispatcher as dependencies
    /// resolve, chaining intermediates device-resident. Returns the
    /// sink output's ref plus the per-step report; on failure the
    /// report carries the steps that did run (partial results).
    pub(crate) async fn run_flow(
        &self,
        flow_id: u64,
        wf: &Rc<Workflow>,
        input: Input,
        parent: Option<SpanId>,
        tenant: Option<Rc<str>>,
        deadline: Option<SimTime>,
    ) -> Result<(ObjectRef, WorkflowReport), (InvokeError, WorkflowReport)> {
        let inner = self.inner();
        let flows = &inner.flows;
        let dp = &inner.dataplane;
        let m = &inner.handles;
        let run_no = flows.next_run.get();
        flows.next_run.set(run_no + 1);
        flows.active.set(flows.active.get() + 1);
        m.workflow_active.set(flows.active.get() as f64);
        let track = format!("flow{run_no}");
        let root = inner.config.tracer.as_ref().map(|t| {
            let mut s = t.open(&track, "workflow", parent);
            s.push_arg("flow", flow_id.to_string());
            s.push_arg("name", wf.name());
            s
        });
        let mut report = WorkflowReport {
            flow: flow_id,
            name: wf.name().to_owned(),
            steps: Vec::new(),
        };

        // Stage the trigger input as a sealed store object so source
        // steps consume it exactly like any chained intermediate. A
        // trigger that is already a content address (the client `put`
        // the input earlier, or a previous segment produced it) is used
        // directly after a resolve check.
        let staged = match input {
            Input::Object(r) if dp.resolve(&r).is_none() => {
                flows.active.set(flows.active.get() - 1);
                m.workflow_active.set(flows.active.get() as f64);
                if let Some(root) = root {
                    root.finish();
                }
                return Err((InvokeError::BadHandle, report));
            }
            Input::Object(r) => (r, false),
            Input::Value(v) => dp.store().put_tracked(v),
        };
        let n = wf.len();
        let (done, mut done_rx) = channel::unbounded::<StepDone>();
        let mut run = FlowRun {
            server: self,
            wf,
            run_no,
            tenant,
            deadline,
            track,
            linear: wf.is_linear(),
            root: root.as_ref().map(|s| s.id()),
            input: staged.0,
            tracked: Vec::new(),
            pending: wf.steps().iter().map(|s| s.inputs().len()).collect(),
            outputs: vec![None; n],
            reports: vec![None; n],
            failure: None,
            in_flight: 0,
            done,
        };
        run.keep(staged);
        for i in 0..n {
            if run.pending[i] == 0 {
                run.launch_ready(i);
            }
        }

        // Drain until every launched step reported back. On failure we
        // stop launching but still drain the in-flight steps, so no
        // claim, permit, or pin outlives the run.
        while run.in_flight > 0 {
            let Some((i, outcome)) = done_rx.recv().await else {
                break;
            };
            run.finish_step(i, outcome);
        }

        let result = match run.failure {
            None => Ok(run.outputs[wf.sink()].expect("sink completed on the success path")),
            Some(e) => Err(e),
        };
        let final_hash = result.as_ref().ok().map(|r| r.hash);

        // GC: release every flow pin; drop the intermediates this run
        // created (dedup'd content and the final output stay — the
        // former is shared, the latter is the client's result).
        for (hash, created) in run.tracked {
            let left = dp.flow_unpin(hash);
            flows.intermediates.set(flows.intermediates.get() - 1);
            if created && left == 0 && Some(hash) != final_hash {
                dp.remove(hash);
            }
        }
        m.workflow_intermediates_live
            .set(flows.intermediates.get() as f64);
        flows.active.set(flows.active.get() - 1);
        m.workflow_active.set(flows.active.get() as f64);
        if let Some(root) = root {
            root.finish();
        }

        report.steps = run.reports.into_iter().flatten().collect();
        match result {
            Ok(r) => Ok((r, report)),
            Err(e) => Err((e, report)),
        }
    }
}

//! Federated deployments (§1: "workflows ... that can be dynamically
//! composed and deployed on heterogeneous infrastructure" across
//! "increasingly federated and distributed cluster deployments").
//!
//! A [`FederatedClient`] connects to several KaaS sites, discovers which
//! kernels each serves, and routes every invocation to a serving site —
//! transparently to the application, exactly like a single-site client.
//! Sites are addressed through [`SiteHandle`]s, consistent with how
//! registered workflows are addressed through
//! [`WorkflowHandle`](crate::WorkflowHandle)s.
//!
//! Workflows that span sites are split into contiguous same-site
//! **segments**, each registered as a server-side dataflow at its site
//! ([`FederatedClient::register_workflow`] →  [`FederatedFlow`]).
//! Running the flow pays one round trip per segment: within a segment
//! the intermediates chain device-to-device and never leave the site;
//! at a segment boundary only the output's content address returns to
//! the client, which ships the value site-to-site over the federation
//! fabric — the client's wire carries refs, not payloads (replacing the
//! §6 data-shipping loop that hauled every intermediate through the
//! client).

use std::collections::BTreeMap;

use kaas_kernels::Value;
use kaas_net::{LinkProfile, NetError, SharedMemory};

use crate::client::{Invocation, KaasClient};
use crate::protocol::{Control, InvokeError};
use crate::workflow::{
    FlowError, StepReport, Workflow, WorkflowHandle, WorkflowReport, WorkflowRun,
};
use crate::KaasNetwork;

/// Where and how to reach one KaaS site.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Listener address of the site's server (doubles as the site's
    /// name in [`FederatedClient::site`]).
    pub addr: String,
    /// Link timing from this client to the site.
    pub link: LinkProfile,
    /// Shared memory for out-of-band transfer (same-host sites only).
    pub shm: Option<SharedMemory>,
    /// Link timing of the federation fabric used to ship intermediates
    /// **into** this site from a peer site at a segment boundary.
    pub fabric: LinkProfile,
}

impl SiteSpec {
    /// A remote site over the paper's 1 Gbps LAN.
    pub fn remote(addr: impl Into<String>) -> Self {
        SiteSpec {
            addr: addr.into(),
            link: LinkProfile::lan_1gbps(),
            shm: None,
            fabric: LinkProfile::lan_1gbps(),
        }
    }

    /// A same-host site with shared-memory transfer.
    pub fn local(addr: impl Into<String>, shm: SharedMemory) -> Self {
        SiteSpec {
            addr: addr.into(),
            link: LinkProfile::loopback(),
            shm: Some(shm),
            fabric: LinkProfile::lan_1gbps(),
        }
    }
}

/// An opaque reference to one connected site, handed out by
/// [`FederatedClient::site`] and [`FederatedClient::route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteHandle {
    index: usize,
    name: String,
}

impl SiteHandle {
    /// The site's name (its listener address).
    pub fn name(&self) -> &str {
        &self.name
    }
}

struct Site {
    spec: SiteSpec,
    client: KaasClient,
    /// A second connection over the federation fabric: segment-boundary
    /// shipments pay this link's timing, not the client link's.
    fabric: KaasClient,
    kernels: Vec<String>,
}

/// A client spanning multiple KaaS sites with kernel-based routing.
pub struct FederatedClient {
    sites: Vec<Site>,
    routes: BTreeMap<String, usize>,
}

impl std::fmt::Debug for FederatedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederatedClient")
            .field("sites", &self.sites.len())
            .field("kernels", &self.routes.len())
            .finish()
    }
}

/// One same-site run of contiguous workflow steps, registered as a
/// server-side dataflow at that site.
#[derive(Debug, Clone)]
struct Segment {
    site: usize,
    handle: WorkflowHandle,
}

/// A workflow registered across a federation: one server-side dataflow
/// per same-site segment. Create via
/// [`FederatedClient::register_workflow`], run via
/// [`FederatedClient::run_flow`].
#[derive(Debug, Clone)]
pub struct FederatedFlow {
    name: String,
    segments: Vec<Segment>,
}

impl FederatedFlow {
    /// The workflow's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Same-site segments the workflow was split into — also the
    /// number of client↔server round trips one run costs.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments.len()
    }
}

impl FederatedClient {
    /// Connects to every site and discovers its kernel registry.
    ///
    /// Kernels served by several sites route to the earliest-listed one.
    ///
    /// # Errors
    ///
    /// Propagates the first connection failure ([`NetError`]).
    pub async fn connect(
        net: &KaasNetwork,
        specs: Vec<SiteSpec>,
    ) -> Result<FederatedClient, NetError> {
        let mut sites = Vec::with_capacity(specs.len());
        let mut routes = BTreeMap::new();
        for (index, spec) in specs.into_iter().enumerate() {
            let mut client = KaasClient::connect(net, &spec.addr, spec.link).await?;
            if let Some(shm) = &spec.shm {
                client = client.with_shared_memory(shm.clone());
            }
            let fabric = KaasClient::connect(net, &spec.addr, spec.fabric).await?;
            let kernels = discover(&mut client).await;
            for k in &kernels {
                routes.entry(k.clone()).or_insert(index);
            }
            sites.push(Site {
                spec,
                client,
                fabric,
                kernels,
            });
        }
        Ok(FederatedClient { sites, routes })
    }

    /// Number of connected sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Handles to every connected site, in connect order.
    pub fn sites(&self) -> Vec<SiteHandle> {
        self.sites
            .iter()
            .enumerate()
            .map(|(index, s)| SiteHandle {
                index,
                name: s.spec.addr.clone(),
            })
            .collect()
    }

    /// The handle of the site named `name` (its listener address).
    pub fn site(&self, name: &str) -> Option<SiteHandle> {
        self.sites
            .iter()
            .position(|s| s.spec.addr == name)
            .map(|index| SiteHandle {
                index,
                name: name.to_owned(),
            })
    }

    /// Every kernel reachable through this client, sorted.
    pub fn kernels(&self) -> Vec<String> {
        let mut names: Vec<String> = self.routes.keys().cloned().collect();
        names.sort();
        names
    }

    /// The site a kernel routes to.
    pub fn route(&self, kernel: &str) -> Option<SiteHandle> {
        self.routes.get(kernel).map(|&index| SiteHandle {
            index,
            name: self.sites[index].spec.addr.clone(),
        })
    }

    /// Kernels served by one site (as discovered at connect time).
    pub fn site_kernels(&self, site: &SiteHandle) -> &[String] {
        &self.sites[site.index].kernels
    }

    /// Invokes `kernel` on whichever site serves it, using out-of-band
    /// transfer where the site is local and in-band otherwise.
    ///
    /// # Errors
    ///
    /// [`InvokeError::UnknownKernel`] if no site serves the kernel;
    /// otherwise whatever the serving site reports.
    pub async fn invoke(&mut self, kernel: &str, input: Value) -> Result<Invocation, InvokeError> {
        let index = self
            .routes
            .get(kernel)
            .copied()
            .ok_or_else(|| InvokeError::UnknownKernel(kernel.to_owned()))?;
        let site = &mut self.sites[index];
        let call = site.client.call(kernel).arg(input);
        if site.spec.shm.is_some() {
            call.out_of_band().send().await
        } else {
            call.send().await
        }
    }

    /// Registers `workflow` across the federation: splits it into
    /// contiguous same-site segments (by each step's kernel route) and
    /// registers each segment as a server-side dataflow at its site.
    ///
    /// A workflow whose steps all route to one site registers as a
    /// single segment regardless of shape; a workflow that hops sites
    /// must be linear — a DAG cannot be cut into a chain of segments.
    ///
    /// # Errors
    ///
    /// [`InvokeError::UnknownKernel`] if no site serves some step;
    /// [`InvokeError::BadInput`] for a site-hopping non-linear
    /// workflow; otherwise whatever a site's registration reports.
    pub async fn register_workflow(
        &mut self,
        workflow: &Workflow,
    ) -> Result<FederatedFlow, InvokeError> {
        // Route every step first so an unroutable kernel fails before
        // any site holds a half-registered flow.
        let mut sites_per_step = Vec::with_capacity(workflow.len());
        for step in workflow.steps() {
            let index = self
                .routes
                .get(step.kernel())
                .copied()
                .ok_or_else(|| InvokeError::UnknownKernel(step.kernel().to_owned()))?;
            sites_per_step.push(index);
        }
        let one_site = sites_per_step.windows(2).all(|w| w[0] == w[1]);
        if one_site {
            let site = &mut self.sites[sites_per_step[0]];
            let handle = site.client.register_workflow(workflow).await?;
            return Ok(FederatedFlow {
                name: workflow.name().to_owned(),
                segments: vec![Segment {
                    site: sites_per_step[0],
                    handle,
                }],
            });
        }
        if !workflow.is_linear() {
            return Err(InvokeError::BadInput(
                "a site-hopping workflow must be linear (DAGs cannot split into segments)".into(),
            ));
        }
        // Cut the chain at every site change and register each run of
        // steps as its own linear flow.
        let mut segments = Vec::new();
        let mut start = 0;
        let steps = workflow.steps();
        for i in 1..=steps.len() {
            if i < steps.len() && sites_per_step[i] == sites_per_step[start] {
                continue;
            }
            let kernels: Vec<&str> = steps[start..i].iter().map(|s| s.kernel()).collect();
            let segment =
                Workflow::linear(format!("{}[{}]", workflow.name(), segments.len()), kernels)
                    .map_err(|e| InvokeError::BadInput(e.to_string()))?;
            let site = &mut self.sites[sites_per_step[start]];
            let handle = site.client.register_workflow(&segment).await?;
            segments.push(Segment {
                site: sites_per_step[start],
                handle,
            });
            start = i;
        }
        Ok(FederatedFlow {
            name: workflow.name().to_owned(),
            segments,
        })
    }

    /// Runs a registered federated flow: one round trip per segment.
    /// Non-final segments reply with the segment output's content
    /// address only; the value is fetched from the producing site and
    /// shipped over the federation fabric into the next segment's site,
    /// where the next trigger chains off it by ref.
    ///
    /// # Errors
    ///
    /// [`FlowError`] from the failing segment, carrying the step
    /// reports of every step that completed across all segments so far.
    pub async fn run_flow(
        &mut self,
        flow: &FederatedFlow,
        input: Value,
    ) -> Result<WorkflowRun, FlowError> {
        let start = kaas_simtime::now();
        let n = flow.segments.len();
        let mut steps: Vec<StepReport> = Vec::new();
        let mut current = input;
        let mut current_ref = None;
        for (i, segment) in flow.segments.iter().enumerate() {
            let last = i + 1 == n;
            let site = &mut self.sites[segment.site];
            let mut trigger = site.client.flow(&segment.handle);
            trigger = match current_ref.take() {
                Some(r) => trigger.input_ref(r),
                None => trigger.input(std::mem::replace(&mut current, Value::Unit)),
            };
            if last {
                let run = trigger.send().await.map_err(|e| FlowError {
                    error: e.error,
                    partial: merge_steps(&steps, e.partial),
                })?;
                steps.extend(relabel(run.report.steps, steps.len()));
                return Ok(WorkflowRun {
                    output: run.output,
                    report: WorkflowReport {
                        flow: flow.segments[0].handle.id(),
                        name: flow.name.clone(),
                        steps,
                    },
                    latency: kaas_simtime::now() - start,
                    round_trips: n,
                });
            }
            let (r, report) = trigger.send_ref().await.map_err(|e| FlowError {
                error: e.error,
                partial: merge_steps(&steps, e.partial),
            })?;
            steps.extend(relabel(report.steps, steps.len()));
            // Segment boundary: pull the intermediate from the
            // producing site and push it into the next site over the
            // federation fabric, then chain by ref.
            let value = site.client.get(r).await.map_err(|e| FlowError {
                error: e,
                partial: steps.clone(),
            })?;
            let next = &mut self.sites[flow.segments[i + 1].site];
            let shipped = next.fabric.put(value).await.map_err(|e| FlowError {
                error: e,
                partial: steps.clone(),
            })?;
            next.fabric.seal(shipped).await.map_err(|e| FlowError {
                error: e,
                partial: steps.clone(),
            })?;
            current_ref = Some(shipped);
        }
        // A registered flow always has at least one segment.
        Err(FlowError::from(InvokeError::BadInput(
            "federated flow has no segments".into(),
        )))
    }
}

/// Re-numbers a segment's step reports into whole-workflow step order.
fn relabel(reports: Vec<StepReport>, offset: usize) -> Vec<StepReport> {
    reports
        .into_iter()
        .map(|mut r| {
            r.step += offset;
            r
        })
        .collect()
}

/// Joins completed-segment reports with the failing segment's partials.
fn merge_steps(done: &[StepReport], partial: Vec<StepReport>) -> Vec<StepReport> {
    let mut out = done.to_vec();
    let offset = done.len();
    out.extend(relabel(partial, offset));
    out
}

/// Queries a site's kernel list with the [`Control::Discover`] op.
async fn discover(client: &mut KaasClient) -> Vec<String> {
    match client.control(Control::Discover).send().await {
        Ok(inv) => match inv.output.payload() {
            Value::List(items) => items
                .iter()
                .filter_map(|v| match v {
                    Value::Text(name) => Some(name.clone()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    }
}

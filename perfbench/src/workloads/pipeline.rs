//! `pipeline` — a closed loop of a few clients, each request a small
//! data-plane + dataflow + guest round:
//!
//! 1. `put` a distinct seeded GA population (`F64s`) and `seal` it;
//! 2. trigger a registered three-generation GA workflow (resident
//!    edges) on that object by ref, leaving the result server-side;
//! 3. call a registered guest bytecode kernel on the result by ref.
//!
//! Device memory is small, so sealed objects are evicted LRU-first.
//! Inputs never repeat, so a pure-kernel memo must not move this
//! workload. Registered workflows only name compiled-in kernels, so
//! the guest step runs as a ref call right after the flow.
//!
//! Every GA call runs on a fresh `GaGeneration` seeded by its input's
//! content hash, which makes each step a pure function of its input:
//! the benchmark recomposes every flow client-side and checks the
//! guest's result against the public interpreter.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use kaas_accel::{DeviceClass, DeviceId, GpuDevice, GpuProfile, WorkUnits};
use kaas_bench::common::experiment_server_config;
use kaas_core::{content_hash, KaasClient, Workflow};
use kaas_guest::{verify, GuestProgram, Instance, Op};
use kaas_kernels::{GaGeneration, Kernel, KernelError, Value, GENES};
use kaas_simtime::rng::{stream_rng, DetRng};
use kaas_simtime::{now, sleep, Simulation};

use super::{
    busy_seconds, deploy, local_clients, prewarm, server_metrics, spawn_client, timed, Ledger,
    Measure, SharedLedger,
};
use crate::host::{Recorder, Stopwatch};
use crate::{put, HostPass, Outcome};

/// Closed-loop clients.
pub const CLIENTS: usize = 4;
/// Requests per client per pass.
pub const REQUESTS: usize = 400;
/// GA generations per flow.
pub const GENERATIONS: usize = 3;
/// Individuals per population, drawn per request from this range.
pub const INDIVIDUALS: std::ops::Range<usize> = 6..13;
/// Device memory per GPU: room for a few dozen populations.
pub const DEVICE_MEM: u64 = 256 * 1024;
/// The virtual latency limit on one flow.
pub const SLO: Duration = Duration::from_millis(30);
/// Iterations of the guest's scalar loop.
pub const GUEST_ITERS: u64 = 256;
/// The tenant the guest kernel is registered under.
pub const TENANT: &str = "bench";

/// One GA generation on a fresh instance seeded by the input's content
/// hash: the library's GA kernel, made a pure function of its input.
#[derive(Debug, Default)]
pub struct FreshGa;

impl Kernel for FreshGa {
    fn name(&self) -> &str {
        "ga"
    }

    fn device_class(&self) -> DeviceClass {
        DeviceClass::Gpu
    }

    fn demand(&self) -> f64 {
        GaGeneration::default().demand()
    }

    fn work(&self, input: &Value) -> Result<WorkUnits, KernelError> {
        GaGeneration::default().work(input)
    }

    fn execute(&self, input: &Value) -> Result<Value, KernelError> {
        GaGeneration::seeded(content_hash(input.payload())).execute(input)
    }
}

/// The guest kernel: `r = sqrt(x·x)`, then `r ← 0.999·r + 0.001` for
/// [`GUEST_ITERS`] rounds of interpreted scalar work.
pub fn guest_program() -> GuestProgram {
    const END: u16 = 16;
    GuestProgram::new("settle", DeviceClass::Gpu)
        .with_work(2.0e5, 2.0, 16)
        .with_body(vec![
            Op::Input,
            Op::Dup,
            Op::VecDot,
            Op::Sqrt,
            Op::PushU(GUEST_ITERS),
            // loop head (pc 5): [r, k]
            Op::Dup,
            Op::JumpIfZero(END),
            Op::PushU(1),
            Op::Sub,
            Op::Swap,
            Op::PushF(0.999),
            Op::Mul,
            Op::PushF(0.001),
            Op::Add,
            Op::Swap,
            Op::Jump(5),
            // END: [r, 0]
            Op::Pop,
            Op::Return,
        ])
}

/// The devices: two P100s with [`DEVICE_MEM`] bytes each.
fn devices() -> Vec<kaas_accel::Device> {
    (0..2)
        .map(|i| {
            GpuDevice::new(
                DeviceId(i),
                GpuProfile {
                    mem_bytes: DEVICE_MEM,
                    ..GpuProfile::p100()
                },
            )
            .into()
        })
        .collect()
}

/// The seeded population of request `j` of client `c`.
pub fn population(seed: u64, c: usize, j: usize) -> Vec<f64> {
    let mut rng = stream_rng(seed, ((c as u64) << 32) | j as u64);
    let n = rng.gen_range(INDIVIDUALS);
    (0..n * GENES).map(|_| rng.gen_range(-5.12..5.12)).collect()
}

/// A seeded think pause between two requests of one client.
fn think(rng: &mut DetRng) -> Duration {
    Duration::from_nanos(rng.gen_range(0..500_000))
}

/// What the benchmark expects request `(c, j)` to return: the flow
/// recomposed client-side, then the guest program on a fresh instance.
pub fn expected(seed: u64, c: usize, j: usize) -> u64 {
    let mut v = Value::F64s(population(seed, c, j));
    for _ in 0..GENERATIONS {
        v = FreshGa.execute(&v).expect("reference GA step");
    }
    let inst = Instance::instantiate(Rc::new(guest_program())).expect("guest instantiates");
    match inst.run(&v).expect("guest runs").0 {
        Value::F64(x) => x.to_bits(),
        other => panic!("unexpected guest output {other:?}"),
    }
}

/// Host nanoseconds per unit of fuel of the public interpreter's
/// verified fast path on this workload's program and seeded inputs.
pub fn interp_ns_per_fuel(seed: u64) -> f64 {
    let program = guest_program();
    let cert = verify(&program).expect("guest program verifies");
    let inst = Instance::instantiate(Rc::new(program)).expect("guest instantiates");
    let inputs: Vec<Value> = (0..64)
        .map(|j| Value::F64s(population(seed, CLIENTS, j)))
        .collect();
    let mut fuel = 0u64;
    let sw = Stopwatch::start();
    for _ in 0..8 {
        for input in &inputs {
            let (out, f) = inst.run_verified(&cert, input).expect("guest runs");
            std::hint::black_box(out);
            fuel += f;
        }
    }
    sw.secs() * 1e9 / fuel.max(1) as f64
}

struct Work {
    client: usize,
    flow: kaas_core::WorkflowHandle,
    guest: String,
    pops: Vec<Vec<f64>>,
    rng: DetRng,
    ledger: SharedLedger,
    results: Rc<RefCell<Vec<(usize, usize, u64)>>>,
}

async fn client_loop(mut client: KaasClient, mut w: Work) -> KaasClient {
    for (j, pop) in std::mem::take(&mut w.pops).into_iter().enumerate() {
        let res = async {
            let r = client.put(Value::F64s(pop)).await?;
            client.seal(r).await?;
            let t0 = now();
            let (out, report) = client
                .flow(&w.flow)
                .input_ref(r)
                .send_ref()
                .await
                .map_err(|e| e.error)?;
            let flow_latency = now() - t0;
            let inv = client.call(&w.guest).arg_ref(out).send().await?;
            Ok::<_, kaas_core::InvokeError>((flow_latency, report, inv))
        }
        .await;
        {
            let mut l = w.ledger.borrow_mut();
            match res {
                Ok((latency, report, inv)) => match inv.output.payload() {
                    Value::F64(x) => {
                        for step in &report.steps {
                            if let Some(r) = &step.report {
                                l.report(r, None);
                            }
                        }
                        l.invocation(&inv);
                        l.output(x.to_bits());
                        l.ok(latency);
                        w.results.borrow_mut().push((w.client, j, x.to_bits()));
                    }
                    _ => l.wrong(),
                },
                Err(_) => l.wrong(),
            }
        }
        sleep(think(&mut w.rng)).await;
    }
    client
}

/// One pipeline pass.
pub fn pass(seed: u64, rec: &Rc<Recorder>, verify_outputs: bool) -> Outcome {
    let rec = Rc::clone(rec);
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let mut host = HostPass::default();
        let dep = timed(&mut host.setup.deploy, || {
            deploy(
                devices(),
                vec![Rc::new(FreshGa)],
                experiment_server_config(),
                &rec,
            )
        });
        prewarm(&mut host, &dep.server, &[("ga", 2)]).await;
        let mut clients = local_clients(&mut host, &dep, CLIENTS).await;
        let sw = Stopwatch::start();
        let guest = clients[0]
            .register_kernel(TENANT, &guest_program())
            .await
            .expect("guest program registers");
        let wf = Workflow::linear("evolve", vec!["ga"; GENERATIONS]).expect("non-empty");
        let flow = clients[0]
            .register_workflow(&wf)
            .await
            .expect("workflow registers");
        host.setup.register += sw.secs();
        let pops: Vec<Vec<Vec<f64>>> = timed(&mut host.setup.inputs, || {
            (0..CLIENTS)
                .map(|c| (0..REQUESTS).map(|j| population(seed, c, j)).collect())
                .collect()
        });
        let ledger = Ledger::shared(SLO, (CLIENTS * REQUESTS) as u64);
        let results = Rc::new(RefCell::new(Vec::new()));
        let sent0: u64 = clients.iter().map(|c| c.requests_sent()).sum();

        let measure = Measure::begin(&rec);
        let busy0 = busy_seconds(&dep.server);
        let start = now();
        let handles: Vec<_> = clients
            .drain(..)
            .zip(pops)
            .enumerate()
            .map(|(c, (client, pops))| {
                let w = Work {
                    client: c,
                    flow: flow.clone(),
                    guest: guest.clone(),
                    pops,
                    rng: stream_rng(seed ^ 0x7417, c as u64),
                    ledger: Rc::clone(&ledger),
                    results: Rc::clone(&results),
                };
                spawn_client(&rec, c as u64, client_loop(client, w))
            })
            .collect();
        for h in handles {
            clients.push(h.await);
        }
        let window = now() - start;
        measure.end(&rec, &mut host);

        let attempts = clients.iter().map(|c| c.requests_sent()).sum::<u64>() - sent0;
        let mut l = ledger.borrow_mut();
        if verify_outputs {
            let wrong = results
                .borrow()
                .iter()
                .filter(|&&(c, j, bits)| expected(seed, c, j) != bits)
                .count();
            l.mark_wrong(wrong as u64);
        }
        // Each successful request made four calls: put, seal, the flow
        // trigger and the guest call.
        let mut virt = l.metrics(4 * l.succeeded(), window);
        virt.extend(server_metrics(&dep.server, &busy0, window));
        put(
            &mut virt,
            "retry_amplification",
            attempts as f64 / (4 * l.requests().max(1)) as f64,
            "ratio",
        );
        l.outcome(virt, attempts, host)
    })
}

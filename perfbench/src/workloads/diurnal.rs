//! `diurnal` — an open loop replaying a seeded diurnal Poisson trace
//! (`kaas_bench::trace_replay::synthesize_trace`: MCI, MatMul and
//! soft-DTW) against four P100s that reap runners idle for 60 s.
//!
//! Each request is timed from its scheduled send instant. Real kernel
//! compute dominates host time, the dispatcher is nearly idle, and the
//! night valley reaps runners so the cold-start path runs. Inputs are
//! size-only and repeat, so a pure-kernel memo would show here.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use kaas_bench::common::{experiment_server_config, p100_cluster};
use kaas_bench::fig06::mm_input;
use kaas_bench::trace_replay::{synthesize_trace, TraceEvent};
use kaas_kernels::{Kernel, MatMul, MonteCarlo, SoftDtw, Value};
use kaas_simtime::rng::stream_rng;
use kaas_simtime::{now, sleep, Simulation};

use super::storm::mci_ok;
use super::{
    busy_seconds, deploy, local_clients, prewarm, server_metrics, spawn_client, timed, Ledger,
    Measure,
};
use crate::host::Recorder;
use crate::{put, HostPass, Outcome};

/// Requests per kernel: the first this many arrivals of each kernel's
/// stream are replayed, so every seed runs the same mix (the host cost
/// of a pass depends on it) while the arrival instants stay seeded.
pub const COUNTS: [(&str, usize); 3] = [("mci", 700), ("matmul", 350), ("dtw", 175)];
/// The generator's horizon and its compressed "day": the counts above
/// are reached after about two days.
const HORIZON_S: f64 = 3_000.0;
const DAY_S: f64 = 850.0;
/// The replay's span: arrival instants are rescaled so the last one
/// lands exactly here, which fixes the virtual window for every seed.
pub const SPAN: Duration = Duration::from_secs(1_700);
/// Idle runners are reaped after this long.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(60);
/// The virtual latency limit on a request (scheduled send to reply).
pub const SLO: Duration = Duration::from_millis(100);
/// Clients connected up front; the generator connects more only when
/// every one is busy.
pub const POOL: usize = 16;
/// Distinct sizes per kernel. Each seed draws this many scale factors
/// in `[0.97, 1.03)` of the trace's size per kernel, and each request
/// one of them: few enough distinct inputs that they repeat (a memo
/// would hit), and seeded, so the seed moves every latency percentile
/// a little.
pub const SIZES: usize = 5;

/// One replayed request: when, which kernel, what size.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Scheduled send instant, seconds from the start of the replay.
    pub at: f64,
    /// Kernel name.
    pub kernel: &'static str,
    /// Granularity parameter.
    pub n: u64,
}

/// The request a trace event turns into (the trace replay's sizing).
pub fn input(kernel: &str, n: u64) -> Value {
    match kernel {
        "matmul" => mm_input(n),
        "dtw" => Value::sized(200 * 10 * 8 * n, Value::U64(n)),
        _ => Value::U64(n),
    }
}

/// The kernels the deployment serves, freshly built.
fn kernels(seed: u64) -> Vec<Rc<dyn Kernel>> {
    vec![
        Rc::new(MonteCarlo::seeded(seed)),
        Rc::new(MatMul::new()),
        Rc::new(SoftDtw::default()),
    ]
}

/// The seeded schedule: the first [`COUNTS`] arrivals per kernel of the
/// repository's diurnal trace generator, each with a seeded size.
pub fn schedule(seed: u64) -> Vec<Request> {
    let events: Vec<TraceEvent> = synthesize_trace(HORIZON_S, DAY_S, seed);
    let mut rng = stream_rng(seed, 0xd1a1);
    let scales: Vec<f64> = (0..SIZES).map(|_| rng.gen_range(0.97..1.03)).collect();
    let mut taken = [0usize; COUNTS.len()];
    let mut out = Vec::new();
    for ev in events {
        let Some(k) = COUNTS.iter().position(|&(name, _)| name == ev.kernel) else {
            continue;
        };
        if taken[k] == COUNTS[k].1 {
            continue;
        }
        taken[k] += 1;
        let scale = *rng.choose(&scales).expect("non-empty");
        out.push(Request {
            at: ev.at,
            kernel: ev.kernel,
            n: (ev.n as f64 * scale) as u64,
        });
    }
    assert_eq!(
        taken.iter().sum::<usize>(),
        COUNTS.iter().map(|c| c.1).sum::<usize>(),
        "the horizon holds every requested arrival"
    );
    // Stretch or squeeze time so the replay spans exactly `SPAN`.
    let last = out.last().map_or(1.0, |r| r.at);
    for r in &mut out {
        r.at *= SPAN.as_secs_f64() / last;
    }
    out
}

/// How often each `(kernel, size, output bits)` came back.
type Outputs = BTreeMap<(&'static str, u64, u64), u64>;

/// One diurnal pass.
pub fn pass(seed: u64, rec: &Rc<Recorder>, verify: bool) -> Outcome {
    let rec = Rc::clone(rec);
    let mut sim = Simulation::new();
    sim.block_on(async move {
        let mut host = HostPass::default();
        let dep = timed(&mut host.setup.deploy, || {
            deploy(
                p100_cluster(),
                kernels(seed),
                experiment_server_config().with_idle_timeout(Some(IDLE_TIMEOUT)),
                &rec,
            )
        });
        // The day starts with one warm runner per kernel; the night
        // valley reaps them, so later requests pay the cold start.
        prewarm(
            &mut host,
            &dep.server,
            &[("mci", 1), ("matmul", 1), ("dtw", 1)],
        )
        .await;
        let pool = local_clients(&mut host, &dep, POOL).await;
        let pool = Rc::new(RefCell::new(pool));
        let events = timed(&mut host.setup.inputs, || schedule(seed));
        let ledger = Ledger::shared(SLO, events.len() as u64);
        // Distinct (kernel, output bits) pairs with their counts, checked
        // against fresh-instance references after the pass.
        let outputs: Rc<RefCell<Outputs>> = Rc::default();
        let late_max = Rc::new(Cell::new(Duration::ZERO));
        let extra_clients = Rc::new(Cell::new(0u64));

        let measure = Measure::begin(&rec);
        let busy0 = busy_seconds(&dep.server);
        let start = now();
        let mut handles = Vec::with_capacity(events.len());
        for (i, ev) in events.iter().enumerate() {
            let due = start + Duration::from_secs_f64(ev.at);
            sleep(due.saturating_since(now())).await;
            let client = pool.borrow_mut().pop();
            let mut client = match client {
                Some(c) => c,
                None => {
                    extra_clients.set(extra_clients.get() + 1);
                    dep.local_client().await
                }
            };
            late_max.set(late_max.get().max(now().saturating_since(due)));
            let (pool, ledger, outputs) =
                (Rc::clone(&pool), Rc::clone(&ledger), Rc::clone(&outputs));
            let (kernel, n) = (ev.kernel, ev.n);
            let arg = input(kernel, n);
            handles.push(spawn_client(&rec, i as u64, async move {
                let res = client.call(kernel).arg(arg).out_of_band().send().await;
                let mut l = ledger.borrow_mut();
                match res {
                    Ok(inv) => {
                        let bits = match inv.output.payload() {
                            Value::F64(v) => Some(v.to_bits()),
                            _ => None,
                        };
                        let ok = match (kernel, bits) {
                            ("mci", _) => mci_ok(&inv.output).is_some(),
                            (_, Some(b)) => {
                                *outputs.borrow_mut().entry((kernel, n, b)).or_default() += 1;
                                true
                            }
                            (_, None) => false,
                        };
                        if ok {
                            l.output(bits.unwrap_or_default());
                            l.invocation(&inv);
                            l.ok(now().saturating_since(due));
                        } else {
                            l.wrong();
                        }
                    }
                    Err(_) => l.wrong(),
                }
                drop(l);
                pool.borrow_mut().push(client);
            }));
        }
        for h in handles {
            h.await;
        }
        let window = now() - start;
        measure.end(&rec, &mut host);

        let attempts: u64 = pool.borrow().iter().map(|c| c.requests_sent()).sum();
        let mut l = ledger.borrow_mut();
        if verify {
            let wrong = check_outputs(&outputs.borrow());
            l.mark_wrong(wrong);
        }
        let mut virt = l.metrics(l.succeeded(), window);
        virt.extend(server_metrics(&dep.server, &busy0, window));
        put(
            &mut virt,
            "generator.late_ms.max",
            late_max.get().as_secs_f64() * 1e3,
            "ms",
        );
        put(
            &mut virt,
            "generator.extra_clients",
            extra_clients.get() as f64,
            "count",
        );
        put(
            &mut virt,
            "retry_amplification",
            attempts as f64 / l.requests().max(1) as f64,
            "ratio",
        );
        l.outcome(virt, attempts, host)
    })
}

/// Counts outputs that differ from a direct `Kernel::execute` of the
/// same input on a fresh kernel instance.
fn check_outputs(seen: &Outputs) -> u64 {
    let mut reference: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    let mut wrong = 0;
    for (&(kernel, n, bits), &count) in seen {
        let want = *reference.entry((kernel, n)).or_insert_with(|| {
            let fresh: Box<dyn Kernel> = match kernel {
                "matmul" => Box::new(MatMul::new()),
                _ => Box::new(SoftDtw::default()),
            };
            match fresh
                .execute(input(kernel, n).payload())
                .expect("reference runs")
            {
                Value::F64(v) => v.to_bits(),
                other => panic!("unexpected reference output {other:?}"),
            }
        });
        if want != bits {
            wrong += count;
        }
    }
    wrong
}

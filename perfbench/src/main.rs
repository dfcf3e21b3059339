//! The benchmark command:
//!
//! ```text
//! kaas-perfbench --workload <storm|diurnal|pipeline|burst> --seed <n>
//!                --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Runs passes of one workload until `--seconds` of host time are spent
//! (at least [`MIN_PASSES`]), checks every output, prints each metric by
//! name with its unit, and ends with one JSON line: the end-to-end
//! metrics of untraced passes (`--trace 0`), or the per-layer metrics
//! (`--trace 1`, where untraced and traced passes alternate so the
//! tracing overhead is measured in the same process). Exits non-zero
//! when an output is wrong or a same-seed pass diverges.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;

use kaas_perfbench::host::{
    reference_secs, status_kb, KernelHost, Recorder, Stopwatch, REFERENCE_NOMINAL_S,
};
use kaas_perfbench::report::{json, table, END_TO_END, PER_LAYER};
use kaas_perfbench::stats::median;
use kaas_perfbench::workloads::{pipeline, Workload};
use kaas_perfbench::{put, Metrics, Outcome};

/// Passes per run at the least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// A hard cap on passes, so a fast machine still ends promptly.
const MAX_PASSES: usize = 400;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_build");
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// One finished pass with its probe readings.
struct Pass {
    out: Outcome,
    traced: bool,
    kernels: BTreeMap<String, KernelHost>,
    client_ns: u64,
    client_polls: u64,
    /// Reference-computation seconds around the pass (the mean of the
    /// readings just before and just after it).
    reference_s: f64,
    /// Invocations per on-CPU second and set-up seconds, uncalibrated.
    raw_rate: f64,
    raw_setup_s: f64,
}

impl Pass {
    fn inv_per_cpu_s(&self) -> f64 {
        self.out.attempts as f64 / self.out.host.cpu_s.max(1e-9)
    }
}

fn median_of(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    let v: Vec<f64> = passes.iter().map(|p| f(p)).collect();
    median(&v)
}

/// Per-layer host metrics from the traced passes.
fn layer_metrics(m: &mut Metrics, traced: &[&Pass], untraced: &[&Pass]) {
    let exec_ns = |p: &Pass| p.kernels.values().map(|k| k.exec_ns).sum::<u64>() as f64;
    let work_ns = |p: &Pass| p.kernels.values().map(|k| k.work_ns).sum::<u64>() as f64;
    let calls = |p: &Pass| p.kernels.values().map(|k| k.exec_calls).sum::<u64>() as f64;
    let wall_ns = |p: &Pass| p.out.host.wall_s * 1e9;
    let attempts = |p: &Pass| p.out.attempts.max(1) as f64;
    let names: Vec<String> = traced[0].kernels.keys().cloned().collect();
    for name in &names {
        let k = |p: &Pass| p.kernels.get(name).copied().unwrap_or_default();
        if traced[0].kernels[name].exec_calls > 0 {
            put(
                m,
                &format!("kernels.{name}.exec_us_per_call"),
                median_of(traced, |p| {
                    k(p).exec_ns as f64 / k(p).exec_calls.max(1) as f64 / 1e3
                }),
                "us",
            );
            put(
                m,
                &format!("kernels.{name}.calls"),
                k(traced[0]).exec_calls as f64,
                "count",
            );
        }
    }
    put(
        m,
        "kernels.exec_us_per_call",
        median_of(traced, |p| exec_ns(p) / calls(p).max(1.0) / 1e3),
        "us",
    );
    put(
        m,
        "kernels.exec_share_pct",
        median_of(traced, |p| 100.0 * exec_ns(p) / wall_ns(p)),
        "%",
    );
    put(
        m,
        "kernels.work_ns_per_call",
        median_of(traced, |p| {
            work_ns(p) / p.kernels.values().map(|k| k.work_calls).sum::<u64>().max(1) as f64
        }),
        "ns",
    );
    put(
        m,
        "client.poll_ns_per_inv",
        median_of(traced, |p| p.client_ns as f64 / attempts(p)),
        "ns",
    );
    put(
        m,
        "client.polls_per_inv",
        median_of(traced, |p| p.client_polls as f64 / attempts(p)),
        "count",
    );
    put(
        m,
        "client.share_pct",
        median_of(traced, |p| 100.0 * p.client_ns as f64 / wall_ns(p)),
        "%",
    );
    let residual = |p: &Pass| wall_ns(p) - p.client_ns as f64 - exec_ns(p) - work_ns(p);
    put(
        m,
        "server.residual_ns_per_inv",
        median_of(traced, |p| residual(p) / attempts(p)),
        "ns",
    );
    put(
        m,
        "server.residual_share_pct",
        median_of(traced, |p| 100.0 * residual(p) / wall_ns(p)),
        "%",
    );
    let traced_rate = median_of(traced, Pass::inv_per_cpu_s);
    let untraced_rate = median_of(untraced, Pass::inv_per_cpu_s);
    put(m, "host_inv_per_s.traced", traced_rate, "1/s");
    put(
        m,
        "trace_overhead_pct",
        100.0 * (untraced_rate / traced_rate - 1.0),
        "%",
    );
}

/// Host metrics every run reports.
fn host_metrics(m: &mut Metrics, all: &[&Pass], untraced: &[&Pass]) {
    put(
        m,
        "host_inv_per_s",
        median_of(untraced, Pass::inv_per_cpu_s),
        "1/s",
    );
    put(
        m,
        "host_inv_per_s.raw",
        median_of(untraced, |p| p.raw_rate),
        "1/s",
    );
    put(m, "host_passes", untraced.len() as f64, "count");
    put(
        m,
        "host.reference_ms",
        median_of(all, |p| p.reference_s * 1e3),
        "ms",
    );
    put(
        m,
        "host_attempts_per_pass",
        untraced[0].out.attempts as f64,
        "count",
    );
    put(m, "peak_rss_mb", status_kb("VmHWM") as f64 / 1024.0, "MB");
    put(
        m,
        "setup_s",
        median_of(all, |p| p.out.host.setup.total()),
        "s",
    );
    put(m, "setup_s.raw", median_of(all, |p| p.raw_setup_s), "s");
    put(
        m,
        "setup.deploy_s",
        median_of(all, |p| p.out.host.setup.deploy),
        "s",
    );
    put(
        m,
        "setup.prewarm_s",
        median_of(all, |p| p.out.host.setup.prewarm),
        "s",
    );
    put(
        m,
        "setup.register_s",
        median_of(all, |p| p.out.host.setup.register),
        "s",
    );
    put(
        m,
        "setup.inputs_s",
        median_of(all, |p| p.out.host.setup.inputs),
        "s",
    );
    // Memory checkpoints come from the first pass: later passes reuse
    // the allocator's pages and barely move VmRSS.
    let first = &all[0].out;
    let h = &first.host;
    put(
        m,
        "rss.kb_per_client",
        h.connect_rss_kb as f64 / h.clients.max(1) as f64,
        "kB",
    );
    let per_request = first.attempts as f64 / first.requests.max(1) as f64;
    let b_per_inv = match (h.rss_quartiles.first(), h.rss_quartiles.last()) {
        (Some(&(r0, kb0)), Some(&(r1, kb1))) if r1 > r0 => {
            (kb1 as f64 - kb0 as f64) * 1024.0 / ((r1 - r0) as f64 * per_request)
        }
        _ => 0.0,
    };
    put(m, "rss.b_per_inv", b_per_inv, "B");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kaas-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let clock = Stopwatch::start();
    let mut passes: Vec<Pass> = Vec::new();
    let mut last_traced: Option<Rc<Recorder>> = None;
    let mut before = reference_secs();
    while passes.len() < MAX_PASSES && (passes.len() < MIN_PASSES || clock.secs() < args.seconds) {
        let traced = args.trace && passes.len() % 2 == 1;
        let rec = Recorder::new(traced);
        let mut out = args.workload.run_pass(args.seed, &rec, passes.is_empty());
        let after = reference_secs();
        let reference_s = (before + after) / 2.0;
        before = after;
        let raw_rate = out.attempts as f64 / out.host.cpu_s.max(1e-9);
        let raw_setup_s = out.host.setup.total();
        // Express the pass's host times at the nominal host speed.
        let speed = REFERENCE_NOMINAL_S / reference_s;
        let mut kernels = rec.kernels();
        let kernel_s = kernels.values().map(|h| h.exec_ns).sum::<u64>() as f64 / 1e9;
        out.host.calibrate(kernel_s, speed);
        for h in kernels.values_mut() {
            h.work_ns = (h.work_ns as f64 * speed) as u64;
        }
        passes.push(Pass {
            out,
            traced,
            kernels,
            client_ns: (rec.client_ns() as f64 * speed) as u64,
            client_polls: rec.client_polls(),
            reference_s,
            raw_rate,
            raw_setup_s,
        });
        if traced {
            last_traced = Some(rec);
        }
    }

    // Correctness: the first pass checked every output; every later
    // pass must reproduce it exactly (same seed, same virtual world).
    let first = &passes[0].out;
    let mut failed = first.wrong;
    let mut diverged = 0;
    for p in &passes[1..] {
        if p.out.digest != first.digest || p.out.virt != first.virt {
            diverged += 1;
            failed += p.out.requests;
        }
    }
    let attempted: u64 = passes.iter().map(|p| p.out.requests).sum();
    let correct = first.wrong == 0 && diverged == 0;

    let all: Vec<&Pass> = passes.iter().collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let mut m = first.virt.clone();
    host_metrics(&mut m, &all, &untraced);
    put(&mut m, "wrong_outputs", first.wrong as f64, "count");
    put(&mut m, "diverged_passes", diverged as f64, "count");
    if !traced.is_empty() {
        layer_metrics(&mut m, &traced, &untraced);
        let ns_per_fuel: Vec<f64> = (0..3)
            .map(|_| {
                let speed = REFERENCE_NOMINAL_S / reference_secs();
                pipeline::interp_ns_per_fuel(args.seed) * speed
            })
            .collect();
        put(&mut m, "guest.ns_per_fuel", median(&ns_per_fuel), "ns");
    }

    print!(
        "{}",
        table(
            &format!(
                "kaas-perfbench {} seed={} passes={} traced={}",
                args.workload.name(),
                args.seed,
                passes.len(),
                traced.len()
            ),
            &m
        )
    );
    let rates: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.0}", p.raw_rate))
        .collect();
    println!(
        "# uncalibrated pass rates (1/s, in run order): {}",
        rates.join(" ")
    );
    let refs: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.3}", p.reference_s * 1e3))
        .collect();
    println!(
        "# reference ms around each untraced pass: {}",
        refs.join(" ")
    );
    if let Some(rec) = last_traced {
        let path = args.out.join("perfbench-spans").join(format!(
            "{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        match rec.write_spans(&path) {
            Ok(()) => println!("# spans of the last traced pass: {}", path.display()),
            Err(e) => eprintln!("kaas-perfbench: could not write spans: {e}"),
        }
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", json(correct, attempted, failed, &m, names));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "kaas-perfbench: {} wrong outputs, {diverged} diverged passes",
            first.wrong
        );
        ExitCode::FAILURE
    }
}

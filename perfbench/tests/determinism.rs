//! The benchmark's own checks: same-seed passes replay exactly, the
//! seed reaches the inputs, traced passes measure the same virtual
//! world, and the benchmark's sources stay audit-clean.
//!
//! The passes are full-size; run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use kaas_perfbench::host::Recorder;
use kaas_perfbench::workloads::{diurnal, pipeline, Workload};
use kaas_perfbench::Outcome;

fn pass(w: Workload, seed: u64, traced: bool) -> (Outcome, Rc<Recorder>) {
    let rec = Recorder::new(traced);
    let out = w.run_pass(seed, &rec, true);
    (out, rec)
}

#[test]
fn same_seed_passes_are_identical_and_correct() {
    for w in Workload::ALL {
        let (a, ra) = pass(w, 7, false);
        let (b, rb) = pass(w, 7, false);
        assert_eq!(a.wrong, 0, "{}: wrong outputs", w.name());
        assert_eq!(a.virt, b.virt, "{}: virtual metrics differ", w.name());
        assert_eq!(a.digest, b.digest, "{}: outputs differ", w.name());
        assert_eq!(
            (a.attempts, a.requests, a.rejected),
            (b.attempts, b.requests, b.rejected),
            "{}: counts differ",
            w.name()
        );
        let calls = |r: &Recorder| -> Vec<(String, u64, u64)> {
            r.kernels()
                .into_iter()
                .map(|(k, h)| (k, h.exec_calls, h.work_calls))
                .collect()
        };
        assert_eq!(
            calls(&ra),
            calls(&rb),
            "{}: per-layer counts differ",
            w.name()
        );
    }
}

#[test]
fn tracing_does_not_change_the_virtual_world() {
    for w in [Workload::Storm, Workload::Pipeline, Workload::Burst] {
        let (plain, _) = pass(w, 3, false);
        let (traced, rec) = pass(w, 3, true);
        assert_eq!(plain.virt, traced.virt, "{}", w.name());
        assert_eq!(plain.digest, traced.digest, "{}", w.name());
        assert!(rec.client_ns() > 0, "{}: client polls were timed", w.name());
        assert!(
            rec.kernels().values().any(|h| h.exec_ns > 0),
            "{}: kernel execute was timed",
            w.name()
        );
    }
}

#[test]
fn the_seed_changes_the_inputs() {
    assert_ne!(diurnal::schedule(1), diurnal::schedule(2));
    assert_eq!(diurnal::schedule(5), diurnal::schedule(5));
    assert_ne!(pipeline::population(1, 0, 0), pipeline::population(2, 0, 0));
    // Burst's inputs are its seeded think-time and retry-jitter streams:
    // the seed must move its virtual outcome.
    let (a, _) = pass(Workload::Burst, 1, false);
    let (b, _) = pass(Workload::Burst, 2, false);
    assert_ne!(a.digest, b.digest);
}

#[test]
fn json_lists_match_benchmark_json() {
    use kaas_perfbench::report::{END_TO_END, PER_LAYER};
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let contract = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let declared = contract.matches("\"name\": ").count();
    for name in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\"");
        assert!(contract.contains(&entry), "{name} is not declared");
    }
    // Every declared name is a workload or one of the two lists.
    assert_eq!(
        declared,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn benchmark_sources_are_audit_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("tests"), &mut files);
    let mut diags = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable source");
        let ctx = kaas_audit::FileCtx::from_path(&path);
        diags.extend(kaas_audit::scan_determinism(&path, &src, ctx));
    }
    assert!(diags.is_empty(), "audit findings: {diags:#?}");
}

//! Drives the `kaas-audit` binary over the bad fixtures in
//! `tests/fixtures/` — each rule must fire exactly once and exit
//! nonzero — and over the real workspace, which must be clean.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// Runs the audit binary; returns (exit-success, stdout).
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_kaas-audit"))
        .args(args)
        .output()
        .expect("spawn kaas-audit");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
    )
}

/// Asserts a fixture run exits nonzero with exactly one finding, for
/// the given rule.
fn assert_fires_once(args: &[&str], rule: &str) {
    let (ok, stdout) = run(args);
    assert!(!ok, "expected nonzero exit; stdout:\n{stdout}");
    assert!(
        stdout.contains("\"diagnostics\":1"),
        "expected exactly one diagnostic; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains(&format!("\"{rule}\":1")),
        "expected the one diagnostic to be {rule}; stdout:\n{stdout}"
    );
}

#[test]
fn d1_unannotated_hashmap_fires_once() {
    assert_fires_once(&["--files", &fixture("d1_unordered.rs")], "D1");
}

#[test]
fn d1_iterated_annotated_map_fires_once() {
    assert_fires_once(&["--files", &fixture("d1_iterated.rs")], "D1");
}

#[test]
fn d2_wall_clock_fires_once() {
    assert_fires_once(&["--files", &fixture("d2_ambient.rs")], "D2");
}

#[test]
fn d3_static_mut_fires_once() {
    assert_fires_once(&["--files", &fixture("d3_static_mut.rs")], "D3");
}

#[test]
fn r1_uncovered_variant_fires_once() {
    assert_fires_once(
        &["--r1", &fixture("r1_protocol.rs"), &fixture("r1_test.rs")],
        "R1",
    );
}

/// The meta-test: the real workspace must be clean — zero diagnostics,
/// zero exit. Anything this catches is a regression the bad-fixture
/// tests above prove the scanner *would* report.
#[test]
fn workspace_is_clean() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let (ok, stdout) = run(&[&root.to_string_lossy()]);
    assert!(ok, "workspace audit must exit 0; stdout:\n{stdout}");
    assert!(
        stdout.contains("\"diagnostics\":0"),
        "workspace must be clean; stdout:\n{stdout}"
    );
}

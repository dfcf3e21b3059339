//! `kaas-audit` CLI: runs the workspace determinism/resource-safety
//! lint and exits nonzero on any finding.
//!
//! ```text
//! kaas-audit [ROOT]                  # full workspace audit
//! kaas-audit --files <f.rs>...       # D1–D3 only, on explicit files
//! kaas-audit --r1 <protocol> <test>  # R1 only, on explicit files
//! ```
//!
//! Diagnostics print as `path:line: [RULE] message`; the last line is a
//! machine-readable JSON summary. With `--format=json` (any position)
//! each finding prints as one JSON object instead — stable field names
//! `file`, `line`, `rule`, `slug`, `message` — for CI annotation.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use kaas_audit::{audit_files, audit_workspace, check_error_kinds, Report};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

fn finish(report: Report, format: Format) -> ExitCode {
    for d in &report.diagnostics {
        match format {
            Format::Text => println!("{d}"),
            Format::Json => println!("{}", d.to_json()),
        }
    }
    println!("kaas-audit: {}", report.summary_json());
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("kaas-audit: {msg}");
    ExitCode::from(2)
}

/// The workspace root: an explicit argument, else the nearest ancestor
/// of the manifest dir (or cwd) containing a `[workspace]` Cargo.toml.
fn find_root(explicit: Option<&str>) -> Option<PathBuf> {
    if let Some(p) = explicit {
        return Some(PathBuf::from(p));
    }
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .ok()?;
    let mut dir = start.as_path();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        dir = dir.parent()?;
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = Format::Text;
    args.retain(|a| {
        if a == "--format=json" {
            format = Format::Json;
            false
        } else {
            true
        }
    });
    match args.first().map(String::as_str) {
        Some("--files") => {
            let paths: Vec<PathBuf> = args[1..].iter().map(PathBuf::from).collect();
            if paths.is_empty() {
                return fail("--files requires at least one path");
            }
            match audit_files(&paths) {
                Ok(r) => finish(r, format),
                Err(e) => fail(&format!("io error: {e}")),
            }
        }
        Some("--r1") => {
            let [proto, test] = &args[1..] else {
                return fail("--r1 requires <protocol.rs> <test.rs>");
            };
            let (Ok(ps), Ok(ts)) = (
                std::fs::read_to_string(proto),
                std::fs::read_to_string(test),
            ) else {
                return fail("could not read --r1 inputs");
            };
            finish(
                Report {
                    diagnostics: check_error_kinds(Path::new(proto), &ps, Path::new(test), &ts),
                    files_scanned: 2,
                },
                format,
            )
        }
        Some(flag) if flag.starts_with("--") => fail(&format!("unknown flag {flag}")),
        root => {
            let Some(root) = find_root(root) else {
                return fail("could not locate the workspace root");
            };
            match audit_workspace(&root) {
                Ok(r) => finish(r, format),
                Err(e) => fail(&format!("io error: {e}")),
            }
        }
    }
}

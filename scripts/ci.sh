#!/usr/bin/env bash
# Offline CI gate: build, test, format, lint. No network access needed —
# the workspace has zero external dependencies.
#
# Usage: scripts/ci.sh [--quick]
#   --quick   skip the feature-gated property tests and bench build
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> audit stage: kaas-audit static pass + sim-sanitizer test run"
# Static determinism/resource-safety lint over the whole workspace, in
# machine-readable mode: each finding is one JSON object which we turn
# into a CI error annotation before failing the gate.
if ! audit_out="$(cargo run -q --release -p kaas-audit -- --format=json)"; then
    printf '%s\n' "$audit_out" | sed -n 's/^{.*}$/::error ::&/p' >&2
    printf '%s\n' "$audit_out" | tail -n 1 >&2
    exit 1
fi
# The full suite again with the runtime invariant auditor attached to
# every server (chaos + dataplane included): zero violations expected.
cargo test -q --release --workspace --features sim-sanitizer

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --release --workspace

if [[ $quick -eq 0 ]]; then
    echo "==> cargo test -q --all-features (property tests + bench harness)"
    cargo test -q --release --workspace --all-features
fi

echo "==> chaos stage: seeded fault storm + determinism replay"
cargo test -q --release --test chaos
# Replay check: the same seeded storm twice; the example's recovery
# timeline (and everything else it prints) must be byte-identical.
chaos_a="$(cargo run -q --release --example chaos)"
chaos_b="$(cargo run -q --release --example chaos)"
if [[ "$chaos_a" != "$chaos_b" ]]; then
    echo "chaos replay diverged between two same-seed runs" >&2
    diff <(printf '%s\n' "$chaos_a") <(printf '%s\n' "$chaos_b") >&2 || true
    exit 1
fi

echo "==> dataplane stage: cache/eviction tests + bench determinism"
cargo test -q --release --test dataplane
# The data-plane bench must replay byte-identically run to run.
dp_a="$(cargo run -q --release -p kaas-bench --bin dataplane -- --quick)"
dp_b="$(cargo run -q --release -p kaas-bench --bin dataplane -- --quick)"
if [[ "$dp_a" != "$dp_b" ]]; then
    echo "dataplane bench diverged between two runs" >&2
    diff <(printf '%s\n' "$dp_a") <(printf '%s\n' "$dp_b") >&2 || true
    exit 1
fi

echo "==> dataflow stage: workflow DAG tests + bench determinism"
cargo test -q --release --test workflow_dataflow
# The registered-flow bench must replay byte-identically run to run.
df_a="$(cargo run -q --release -p kaas-bench --bin dataflow -- --quick)"
df_b="$(cargo run -q --release -p kaas-bench --bin dataflow -- --quick)"
if [[ "$df_a" != "$df_b" ]]; then
    echo "dataflow bench diverged between two runs" >&2
    diff <(printf '%s\n' "$df_a") <(printf '%s\n' "$df_b") >&2 || true
    exit 1
fi

echo "==> cluster stage: sharded-dispatch tests + bench determinism"
cargo test -q --release --test dispatch_shard
# The dispatch A/B bench (serialized knee vs sharded+batched) must
# replay byte-identically run to run.
cl_a="$(cargo run -q --release -p kaas-bench --bin cluster -- --quick)"
cl_b="$(cargo run -q --release -p kaas-bench --bin cluster -- --quick)"
if [[ "$cl_a" != "$cl_b" ]]; then
    echo "cluster bench diverged between two runs" >&2
    diff <(printf '%s\n' "$cl_a") <(printf '%s\n' "$cl_b") >&2 || true
    exit 1
fi

echo "==> overload stage: overload-control tests + bench determinism"
cargo test -q --release --test overload
# The metastable-failure A/B bench must replay byte-identically run to
# run (burst timing, sheds, ejections, budget denials included).
ov_a="$(cargo run -q --release -p kaas-bench --bin overload -- --quick)"
ov_b="$(cargo run -q --release -p kaas-bench --bin overload -- --quick)"
if [[ "$ov_a" != "$ov_b" ]]; then
    echo "overload bench diverged between two runs" >&2
    diff <(printf '%s\n' "$ov_a") <(printf '%s\n' "$ov_b") >&2 || true
    exit 1
fi

echo "==> guest stage: guest runtime tests + coldstart bench determinism"
cargo test -q --release -p kaas-guest
cargo test -q --release --test guest_runtime
# The two-path cold-start sweep must replay byte-identically run to run.
gk_a="$(cargo run -q --release -p kaas-bench --bin coldstart -- --quick)"
gk_b="$(cargo run -q --release -p kaas-bench --bin coldstart -- --quick)"
if [[ "$gk_a" != "$gk_b" ]]; then
    echo "coldstart bench diverged between two runs" >&2
    diff <(printf '%s\n' "$gk_a") <(printf '%s\n' "$gk_b") >&2 || true
    exit 1
fi

echo "==> verify stage: bytecode verifier differential test + bench determinism"
cargo test -q --release -p kaas-guest --test differential
# The checking-vs-fast-path sweep is modeled from instruction/check
# counters, so it must replay byte-identically run to run.
vf_a="$(cargo run -q --release -p kaas-bench --bin verify -- --quick)"
vf_b="$(cargo run -q --release -p kaas-bench --bin verify -- --quick)"
if [[ "$vf_a" != "$vf_b" ]]; then
    echo "verify bench diverged between two runs" >&2
    diff <(printf '%s\n' "$vf_a") <(printf '%s\n' "$vf_b") >&2 || true
    exit 1
fi

echo "==> trace stage: diurnal replay matches the committed archive"
# Archive-vs-fresh: the replay must reproduce results/trace.csv byte for
# byte, so a change that moves its numbers must refresh the archive.
if ! diff <(cargo run -q --release -p kaas-bench --bin trace) results/trace.csv >&2; then
    echo "results/trace.csv no longer matches --bin trace" >&2
    exit 1
fi

echo "==> perfbench stage: benchmark same-seed and correctness tests"
# The benchmark is its own Cargo workspace; its tests check that outputs
# match fresh kernel instances and that same-seed passes replay exactly.
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "==> cargo build --features trace --examples"
cargo build --release --features trace --examples

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --release --workspace --all-targets -- -D warnings
if [[ $quick -eq 0 ]]; then
    cargo clippy --release --workspace --all-targets --all-features -- -D warnings
fi

echo "CI OK"

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

# Every figure and bench below runs through this one binary:
# `kaas-bench <id> [--quick]`.
cargo build -q --release -p kaas-bench
bench="$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)/kaas-bench"

# replay_twice <label> <cmd...>: runs <cmd> twice and fails the gate if
# the two outputs differ. Every bench and example here is seeded, so a
# difference is a determinism bug.
replay_twice() {
    local label="$1"
    shift
    local a b
    a="$("$@")"
    b="$("$@")"
    if [[ "$a" != "$b" ]]; then
        echo "$label replay diverged between two same-seed runs" >&2
        diff <(printf '%s\n' "$a") <(printf '%s\n' "$b") >&2 || true
        exit 1
    fi
}

# matches_archive <file> <id> [args...]: runs `kaas-bench <id>` in a
# scratch directory, so the tree is untouched, and fails the gate unless
# what it archives matches results/<file> byte for byte: the file it
# writes under results/ if it writes one, its stdout otherwise.
matches_archive() {
    local file="$1" id="$2" dir out
    shift 2
    dir="$(mktemp -d)"
    (cd "$dir" && "$bench" "$id" "$@" >stdout)
    out="$dir/results/$file"
    [[ -f "$out" ]] || out="$dir/stdout"
    if ! diff "$out" "results/$file" >&2; then
        echo "results/$file no longer matches kaas-bench $id $*" >&2
        exit 1
    fi
    rm -rf "$dir"
}

echo "==> executor stage: simtime scheduling contract in the debug profile"
# The debug profile runs the executor's debug assertions (a popped
# timer's slot still holds that timer) over the crate's own suites,
# the processor-sharing model's wake-order tests and the seeded
# timer-order golden.
cargo test -q -p kaas-simtime
cargo test -q -p kaas-accel
cargo test -q --test simtime_executor

echo "==> chaos stage: seeded fault storm + determinism replay"
cargo test -q --release --test chaos
# The same seeded storm twice; the example's recovery timeline (and
# everything else it prints) must be byte-identical.
replay_twice chaos cargo run -q --release --example chaos

echo "==> dataplane stage: cache/eviction tests + bench determinism"
cargo test -q --release --test dataplane
replay_twice dataplane "$bench" dataplane --quick

echo "==> dataflow stage: workflow DAG tests + bench determinism"
cargo test -q --release --test workflow_dataflow
replay_twice dataflow "$bench" dataflow --quick
# Registered flows end to end: workflow_fusion runs a 10-step and a
# 2-step chain.
replay_twice workflow_fusion cargo run -q --release --example workflow_fusion

echo "==> cluster stage: sharded-dispatch tests + bench determinism"
cargo test -q --release --test dispatch_shard
# The dispatch A/B bench (serialized-router knee vs sharded+batched).
replay_twice cluster "$bench" cluster --quick
# Scale-out and the schedulers: the Fig. 13 timeline, then
# WarmFirst vs LeastLoaded beside a still-cold-starting runner.
replay_twice autoscaling cargo run -q --release --example autoscaling

echo "==> overload stage: overload-control tests + bench determinism"
cargo test -q --release --test overload
# Burst timing, sheds, ejections and budget denials included.
replay_twice overload "$bench" overload --quick

echo "==> guest stage: guest runtime tests + coldstart bench determinism"
cargo test -q --release -p kaas-guest
cargo test -q --release --test guest_runtime
replay_twice coldstart "$bench" coldstart --quick

echo "==> verify stage: bytecode verifier differential test + bench determinism"
cargo test -q --release --test guest_differential
# Again in the debug profile, so the compiled tier's debug assertions
# (every block's fuel charge against what its instructions retire) run
# over the whole corpus.
cargo test -q --test guest_differential
# The checking-interpreter-vs-compiled-tier sweep is modeled from
# instruction/check counters.
replay_twice verify "$bench" verify --quick

echo "==> results stage: fresh full runs match the committed archives"
# A change that moves one of these numbers must refresh the archive.
# Every figure and bench archive is listed. The scheduler rows
# (ablation, fig12–fig14, fig16) pin every placement: a policy that
# picks a different slot moves their numbers.
matches_archive ablation.csv ablation
matches_archive cluster.json cluster
matches_archive coldstart.json coldstart
matches_archive dataflow.csv dataflow
matches_archive fig02.csv fig02
matches_archive fig06.csv fig06
matches_archive fig07.csv fig07
matches_archive fig08.csv fig08
matches_archive fig09.csv fig09
matches_archive fig10.csv fig10
matches_archive fig11.csv fig11
matches_archive fig12.csv fig12
matches_archive fig13.csv fig13
matches_archive fig14.csv fig14
matches_archive fig15.csv fig15
matches_archive fig16.csv fig16
matches_archive fig17.csv fig17
matches_archive overload.json overload
matches_archive trace.csv trace
matches_archive verify.json verify
# The traced quickstart's span dump, written by the built example from a
# scratch directory.
cargo build -q --release --features trace --example quickstart
quickstart="$(cd "${CARGO_TARGET_DIR:-target}/release/examples" && pwd)/quickstart"
dir="$(mktemp -d)"
mkdir "$dir/results"
(cd "$dir" && "$quickstart" >/dev/null)
if ! diff "$dir/results/trace_quickstart.json" results/trace_quickstart.json >&2; then
    echo "results/trace_quickstart.json no longer matches the traced quickstart example" >&2
    exit 1
fi
rm -rf "$dir"

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

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

echo "==> chaos stage: seeded fault storm + determinism replay"
cargo test -q --release --test chaos
# The same seeded storm twice; the example's recovery timeline (and
# everything else it prints) must be byte-identical.
replay_twice chaos cargo run -q --release --example chaos

echo "==> dataplane stage: cache/eviction tests + bench determinism"
cargo test -q --release --test dataplane
replay_twice dataplane cargo run -q --release -p kaas-bench --bin dataplane -- --quick

echo "==> dataflow stage: workflow DAG tests + bench determinism"
cargo test -q --release --test workflow_dataflow
replay_twice dataflow cargo run -q --release -p kaas-bench --bin dataflow -- --quick

echo "==> cluster stage: sharded-dispatch tests + bench determinism + archive"
cargo test -q --release --test dispatch_shard
# The dispatch A/B bench (serialized-router knee vs sharded+batched).
replay_twice cluster cargo run -q --release -p kaas-bench --bin cluster -- --quick
# Archive-vs-fresh: a full run, in a scratch directory so the tree is
# untouched, must write results/cluster.json byte for byte.
cl_dir="$(mktemp -d)"
(cd "$cl_dir" && cargo run -q --release --manifest-path "$OLDPWD/Cargo.toml" \
    -p kaas-bench --bin cluster >/dev/null)
if ! diff "$cl_dir/results/cluster.json" results/cluster.json >&2; then
    echo "results/cluster.json no longer matches --bin cluster" >&2
    exit 1
fi
rm -rf "$cl_dir"

echo "==> overload stage: overload-control tests + bench determinism"
cargo test -q --release --test overload
# Burst timing, sheds, ejections and budget denials included.
replay_twice overload cargo run -q --release -p kaas-bench --bin overload -- --quick

echo "==> guest stage: guest runtime tests + coldstart bench determinism"
cargo test -q --release -p kaas-guest
cargo test -q --release --test guest_runtime
replay_twice coldstart cargo run -q --release -p kaas-bench --bin coldstart -- --quick

echo "==> verify stage: bytecode verifier differential test + bench determinism"
cargo test -q --release -p kaas-guest --test differential
# The checking-vs-fast-path sweep is modeled from instruction/check
# counters.
replay_twice verify cargo run -q --release -p kaas-bench --bin verify -- --quick

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

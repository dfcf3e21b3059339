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

# matches_archive <file> <bin> [args...]: runs kaas-bench's <bin> in a
# scratch directory, so the tree is untouched, and fails the gate unless
# what it archives matches results/<file> byte for byte: the file it
# writes under results/ if it writes one, its stdout otherwise.
matches_archive() {
    local file="$1" bin="$2" root="$PWD" dir out
    shift 2
    dir="$(mktemp -d)"
    (cd "$dir" && cargo run -q --release --manifest-path "$root/Cargo.toml" \
        -p kaas-bench --bin "$bin" -- "$@" >stdout)
    out="$dir/results/$file"
    [[ -f "$out" ]] || out="$dir/stdout"
    if ! diff "$out" "results/$file" >&2; then
        echo "results/$file no longer matches --bin $bin $*" >&2
        exit 1
    fi
    rm -rf "$dir"
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

echo "==> cluster stage: sharded-dispatch tests + bench determinism"
cargo test -q --release --test dispatch_shard
# The dispatch A/B bench (serialized-router knee vs sharded+batched).
replay_twice cluster cargo run -q --release -p kaas-bench --bin cluster -- --quick

echo "==> overload stage: overload-control tests + bench determinism"
cargo test -q --release --test overload
# Burst timing, sheds, ejections and budget denials included.
replay_twice overload cargo run -q --release -p kaas-bench --bin overload -- --quick

echo "==> guest stage: guest runtime tests + coldstart bench determinism"
cargo test -q --release -p kaas-guest
cargo test -q --release --test guest_runtime
replay_twice coldstart cargo run -q --release -p kaas-bench --bin coldstart -- --quick

echo "==> verify stage: bytecode verifier differential test + bench determinism"
cargo test -q --release --test guest_differential
# Again in the debug profile, so the compiled tier's debug assertions
# (every block's fuel charge against what its instructions retire) run
# over the whole corpus.
cargo test -q --test guest_differential
# The checking-interpreter-vs-compiled-tier sweep is modeled from
# instruction/check counters.
replay_twice verify cargo run -q --release -p kaas-bench --bin verify -- --quick

echo "==> results stage: fresh full runs match the committed archives"
# A change that moves one of these numbers must refresh the archive.
# Archives not listed here still drift from the code (ROADMAP item 4).
matches_archive cluster.json cluster
matches_archive coldstart.json coldstart
matches_archive dataflow.csv dataflow
matches_archive fig02.csv fig02
matches_archive fig09.csv fig09
matches_archive overload.json overload
matches_archive trace.csv trace
matches_archive verify.json verify
# The full fig12 sweep is not pinned yet (its archive still drifts), but
# it must replay exactly.
replay_twice fig12 cargo run -q --release -p kaas-bench --bin fig12

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

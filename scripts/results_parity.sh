#!/usr/bin/env bash
# Results parity: runs every kaas-bench experiment on the working tree and
# on a base revision and diffs their standard output byte for byte.
#
#   scripts/results_parity.sh <rev>      # e.g. scripts/results_parity.sh HEAD~
#
# The base revision is exported with `git archive` into a temporary
# directory and built there offline; the working tree builds into its
# usual target directory. Every experiment runs in full mode, some with
# --quick as well; `all_figures`, which repeats the others, runs with
# --quick only. Each side runs in an empty scratch directory, so the
# results/*.json files some experiments write are compared too and the
# committed ones stay untouched. The tree runs `kaas-bench <id> <args>`;
# a base revision that predates that dispatcher runs its per-id binary
# `<id> <args>` instead.
# Then both sides run the host-performance benchmark (perfbench/run.sh)
# on every workload at one seed with its minimum pass count, and the
# virtual-time metrics of its JSON line (virt_p50_ms, virt_p99_ms,
# slo_pct, virt_throughput_inv_s) must match to the last digit; host
# metrics vary from run to run and are not compared. The base side builds
# its benchmark into the temporary directory, the tree side into
# perfbench/run.sh's usual target directory.
# The exit status is non-zero when anything differs (or a run fails on
# one side). Set KEEP_PARITY_DIR=1 to keep the temporary directory
# with both sides' outputs.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:?usage: scripts/results_parity.sh <rev>}"

# Experiment id and arguments, one run per line.
runs=(
    "ablation"
    "all_figures --quick"
    "cluster"
    "cluster --quick"
    "coldstart"
    "dataflow"
    "dataplane"
    "dataplane --quick"
    "fig02"
    "fig06"
    "fig07"
    "fig08"
    "fig09"
    "fig10"
    "fig11"
    "fig12"
    "fig12 --quick"
    "fig13"
    "fig14"
    "fig15"
    "fig16"
    "fig17"
    "overload"
    "trace"
    "verify"
)

work="$(mktemp -d "${TMPDIR:-/tmp}/kaas-parity.XXXXXX")"
if [[ "${KEEP_PARITY_DIR:-0}" == 1 ]]; then
    echo "outputs kept in $work"
else
    trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work/base" "$work/run_base" "$work/run_tree"
git archive --format=tar "$rev" | tar -x -C "$work/base"

echo "==> building $rev"
(cd "$work/base" && CARGO_TARGET_DIR="$work/target" \
    cargo build --release --offline --quiet -p kaas-bench --bins)
echo "==> building the working tree"
cargo build --release --offline --quiet -p kaas-bench --bin kaas-bench
tree_bin="$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)/kaas-bench"
base_bin="$work/target/release"

differ=0
for run in "${runs[@]}"; do
    read -r id args <<<"$run"
    out="${run// /_}.stdout"
    base_ok=1
    tree_ok=1
    if [[ -x "$base_bin/kaas-bench" ]]; then
        base_cmd=("$base_bin/kaas-bench" "$id")
    else
        base_cmd=("$base_bin/$id")
    fi
    # shellcheck disable=SC2086
    (cd "$work/run_base" && "${base_cmd[@]}" $args >"$out" 2>/dev/null) || base_ok=0
    # shellcheck disable=SC2086
    (cd "$work/run_tree" && "$tree_bin" "$id" $args >"$out" 2>/dev/null) || tree_ok=0
    if [[ $base_ok == 0 || $tree_ok == 0 ]]; then
        echo "FAILED     $run (base ok=$base_ok, tree ok=$tree_ok)"
        differ=1
    elif cmp -s "$work/run_base/$out" "$work/run_tree/$out"; then
        echo "identical  $run"
    else
        echo "DIFFERS    $run"
        diff "$work/run_base/$out" "$work/run_tree/$out" | head -n 20 || true
        differ=1
    fi
done

# Files the experiments wrote (results/*.json), as left by the last run.
if diff -r "$work/run_base/results" "$work/run_tree/results" >/dev/null; then
    echo "identical  written files: $(cd "$work/run_tree/results" && echo *)"
else
    echo "DIFFERS    written files"
    diff -r "$work/run_base/results" "$work/run_tree/results" | head -n 20 || true
    differ=1
fi

# The benchmark's virtual-time metrics, one line per workload.
virt_metrics() {
    local json="$1" m
    grep -q '"correct": true' <<<"$json" || return 1
    for m in virt_p50_ms virt_p99_ms slo_pct virt_throughput_inv_s; do
        grep -o "\"$m\": {\"value\": [^,}]*" <<<"$json" |
            sed 's/^"\([a-z0-9_]*\)": {"value": /\1=/' || return 1
    done
}

if [[ -f "$work/base/perfbench/run.sh" ]]; then
    for workload in storm diurnal pipeline burst; do
        args=(--workload "$workload" --seed 7 --seconds 0 --trace 0)
        base_json="$(cd "$work/base" && CARGO_TARGET_DIR="$work/bench_target" \
            bash perfbench/run.sh "${args[@]}" 2>/dev/null | tail -n 1)" || true
        tree_json="$(bash perfbench/run.sh "${args[@]}" 2>/dev/null | tail -n 1)" || true
        if ! base_virt="$(virt_metrics "$base_json")" ||
            ! tree_virt="$(virt_metrics "$tree_json")"; then
            echo "FAILED     perfbench $workload (no correct result on one side)"
            differ=1
        elif [[ "$base_virt" == "$tree_virt" ]]; then
            echo "identical  perfbench $workload: $(tr '\n' ' ' <<<"$tree_virt")"
        else
            echo "DIFFERS    perfbench $workload virtual metrics"
            diff <(printf '%s\n' "$base_virt") <(printf '%s\n' "$tree_virt") || true
            differ=1
        fi
    done
else
    echo "skipped    perfbench virtual metrics ($rev has no perfbench/run.sh)"
fi

if [[ $differ == 0 ]]; then
    echo "results parity OK: every kaas-bench experiment and perfbench virtual metric matches $rev"
else
    echo "results parity FAILED against $rev" >&2
    exit 1
fi

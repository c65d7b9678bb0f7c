#!/usr/bin/env bash
# Repo CI: formatting, lints, and the tier-1 test suite.
#
#   ./ci.sh          fmt + clippy + build + tests
#   ./ci.sh --quick  the above plus a bench --json smoke run at tiny scale
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test"
cargo build --release
cargo test -q

# The benchmark package (wsbench/) builds against the repo crates by
# path, so renaming any public name it uses fails here rather than in a
# benchmark run.
echo "== benchmark package build"
cargo build --release --offline --manifest-path wsbench/Cargo.toml

# Its tests drive the engine end to end at a tiny scale and check every
# result against the relational oracle, so a stream-read regression
# fails CI rather than a benchmark run.
echo "== benchmark package tests"
cargo test --release --offline --manifest-path wsbench/Cargo.toml

# Execution-mode matrix: the equivalence suites must pass at both the
# serial baseline and a wide pool, with delta maintenance off and on and
# adaptive re-planning off and on — incremental and adaptive firings are
# required to be byte-identical to static recompute at every point.
for workers in 1 4; do
    for inc in 0 1; do
        for adaptive in 0 1; do
            echo "== matrix: WUKONG_WORKERS=$workers WUKONG_INCREMENTAL=$inc WUKONG_ADAPTIVE=$adaptive"
            WUKONG_WORKERS=$workers WUKONG_INCREMENTAL=$inc WUKONG_ADAPTIVE=$adaptive \
                cargo test -q -p wukong-bench \
                --test differential --test integration_parallel \
                --test props_incremental --test props_planner --test regression_replan
        done
    done
done

# Overload matrix: the bounded-ingest path must hold its invariants with
# the budget injected from the environment, and the suites that talk to
# a possibly-shedding engine must stay green under admission control.
for budget in 64 1024; do
    echo "== matrix: WUKONG_INGEST_BUDGET=$budget"
    WUKONG_INGEST_BUDGET=$budget cargo test -q -p wukong-bench \
        --test integration_stress --test props_overload --test integration_obs
done

# Trace matrix: the flight recorder is always-on by default and must be
# observationally transparent — the quick equivalence suites pass with
# recording forced on and forced off (`WUKONG_TRACE=0`).
for trace in 0 1; do
    echo "== matrix: WUKONG_TRACE=$trace"
    WUKONG_TRACE=$trace cargo test -q -p wukong-bench \
        --test integration_trace --test integration_obs --test differential \
        --test integration_parallel
done

if [[ "${1:-}" == "--quick" ]]; then
    echo "== bench JSON smoke (tiny scale)"
    out="$(mktemp -d)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin table2_latency_single -- --json "$out/table2.json"
    grep -q '"schema_version": 8' "$out/table2.json"
    echo "smoke OK: $out/table2.json"

    echo "== recovery drill smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_recovery_drill -- --quick --json "$out/drill.json"
    grep -q '"all_match": 1' "$out/drill.json"
    echo "drill OK: $out/drill.json"

    echo "== worker scaling smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_worker_scaling -- --quick --json "$out/scaling.json"
    grep -q '"all_match": 1' "$out/scaling.json"
    grep -q '"pool"' "$out/scaling.json"
    echo "scaling OK: $out/scaling.json"

    echo "== incremental overlap smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_incremental -- --quick --json "$out/incremental.json"
    grep -q '"all_match": 1' "$out/incremental.json"
    grep -q '"incremental"' "$out/incremental.json"
    echo "incremental OK: $out/incremental.json"

    echo "== overload drill smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_overload -- --quick --json "$out/overload.json"
    grep -q '"all_match": 1' "$out/overload.json"
    grep -q '"overload"' "$out/overload.json"
    echo "overload OK: $out/overload.json"

    echo "== adaptive re-planning smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_adaptive -- --quick --json "$out/adaptive.json"
    grep -q '"all_match": 1' "$out/adaptive.json"
    grep -q '"plan"' "$out/adaptive.json"
    echo "adaptive OK: $out/adaptive.json"

    echo "== composed-fault chaos smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_chaos -- --quick --json "$out/chaos.json"
    grep -q '"all_pass": 1' "$out/chaos.json"
    grep -q '"integrity"' "$out/chaos.json"
    echo "chaos OK: $out/chaos.json"

    echo "== trace fidelity smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_trace -- --quick --json "$out/trace.json" --dump "$out/trace_dump.json"
    grep -q '"all_pass": 1' "$out/trace.json"
    grep -q '"trace"' "$out/trace.json"
    grep -q '"kind": "trace_dump"' "$out/trace_dump.json"
    cargo run -q --release -p wukong-bench --bin wukong-trace -- "$out/trace_dump.json" \
        > "$out/trace_render.txt"
    grep -q 'trace_dump: trigger quarantine' "$out/trace_render.txt"
    echo "trace OK: $out/trace.json"
fi

echo "CI green"

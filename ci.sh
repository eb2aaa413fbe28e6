#!/usr/bin/env bash
# CI gate: formatting, lints, build, tests.
#
# Usage: ./ci.sh [--quick]
#   --quick  skip the release build, the release-mode smoke runs and the
#            dead-surface sweep
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
    QUICK=1
fi

echo "==> cargo fmt --check"
cargo fmt --check

# The request path must stay panic-free: the modules the fallible API,
# the durability layer, tracing, the SIMD/launch kernels, the socket
# frontend and the replication layer flow through each carry
# `#![deny(clippy::unwrap_used, clippy::expect_used)]` (tests exempted), so
# this step is also the gate that hostile input sheds typed errors.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The gate's own harness is a separate package (own workspace table and
# lock file): an API edit under crates/ must not break it unnoticed.
# `--locked`: a dependency edit under crates/ that would rewrite the frozen
# benchmark/Cargo.lock fails here instead of silently dirtying benchmark/.
echo "==> cargo build --locked --manifest-path benchmark/Cargo.toml (benchmark harness)"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> cargo test --workspace"
cargo test --workspace

if [[ "$QUICK" == "0" ]]; then
    echo "==> cargo build --workspace --release"
    cargo build --workspace --release

    # The shipped binary and its exit codes, not only `run()` in-process:
    # a forecast off a generated series prints a `t+1` line, a misspelt
    # flag or switch fails instead of being ignored, and a flag value
    # outside its domain is a typed error (exit 1) before anything runs —
    # not a hang (124 under timeout) or a panic (101).
    echo "==> smiler binary: generate, forecast, misspelt flag, flag domains"
    series="$(mktemp)"
    target/release/smiler generate --dataset road --days 2 > "$series"
    forecast="$(target/release/smiler forecast --input "$series")"
    if ! grep -q '^t+1 ' <<< "$forecast"; then
        echo "smiler forecast printed no t+1 line" >&2
        exit 1
    fi
    if target/release/smiler generate --dataset road --dayz 1 > /dev/null 2>&1; then
        echo "smiler accepted the misspelt flag --dayz" >&2
        exit 1
    fi
    if err="$(target/release/smiler forecast --input "$series" --intervall 2>&1)" \
        || ! grep -q 'unknown flag --intervall' <<< "$err"; then
        echo "smiler forecast --intervall: want 'unknown flag --intervall', got: $err" >&2
        exit 1
    fi
    status=0
    timeout 10 target/release/smiler serve --shards 1 --sensors 2 --clients 1 --requests 4 \
        --predictor ar --days 2 --qps 0 > /dev/null 2>&1 || status=$?
    if [[ "$status" == 0 || "$status" == 124 ]]; then
        echo "smiler serve --qps 0 exited $status: want a typed error" >&2
        exit 1
    fi
    # An empty fleet, and a rate whose run no `Duration` can span, exit 1
    # with the flag named: at the parent the first served nothing and
    # exited 0, the second panicked a connection thread.
    serve_refuses() { # <flag> <serve args...>
        local flag="$1" status=0 err
        shift
        err="$(timeout 10 target/release/smiler serve "$@" 2>&1 > /dev/null)" || status=$?
        if [[ "$status" != 1 ]] || ! grep -q "invalid --$flag" <<< "$err"; then
            echo "smiler serve $*: exited $status, want 1 naming --$flag; got: $err" >&2
            exit 1
        fi
    }
    serve_refuses sensors --shards 1 --sensors 0 --clients 1 --requests 4 --predictor ar --days 2
    serve_refuses qps --shards 1 --sensors 2 --clients 1 --requests 4 --predictor ar --days 2 \
        --qps 1e-30
    status=0
    target/release/smiler forecast --input "$series" --horizons 0 > /dev/null 2>&1 || status=$?
    if [[ "$status" != 1 ]]; then
        echo "smiler forecast --horizons 0 exited $status: want 1" >&2
        exit 1
    fi
    rm -f "$series"

    # The DTW and linear-algebra kernels are pinned bit for bit to verbatim
    # oracles by property tests; give those 4096 cases instead of the
    # default 96.
    echo "==> PROPTEST_CASES=4096 cargo test --release -p smiler-dtw -p smiler-linalg"
    PROPTEST_CASES=4096 cargo test --release -p smiler-dtw -p smiler-linalg

    # Serve smoke with tracing on: a real CLI run writing request traces
    # and status lines, every trace schema-validated by the CLI test; then
    # the observability budget — trace-path cost must stay under 5% of a
    # served request, traces complete and schema-valid, predictions
    # bitwise-identical with tracing on.
    echo "==> expt bench-obs --smoke --enforce-budget (observability budget)"
    cargo run -p smiler-bench --release --bin expt -- \
        bench-obs --smoke --enforce-budget --out "$(mktemp -d)/BENCH_obs_smoke.json"

    # Accuracy-under-chaos smoke: adaptive must beat the fixed schedule
    # on regime shifts while the clean scenario stays bitwise identical
    # (the run exits nonzero if the invariance proof fails).
    echo "==> expt bench-chaos --smoke (adaptation accuracy + invariance)"
    cargo run -p smiler-bench --release --bin expt -- \
        bench-chaos --smoke --out "$(mktemp -d)/BENCH_chaos_smoke.json"

    # Replication smoke: bootstrap + streaming throughput, follower lag
    # quantiles, and the kill/promote failover timing — the run exits
    # nonzero if the promoted forecasts diverge from the dead primary's.
    echo "==> expt bench-cluster --smoke (replication + failover)"
    cargo run -p smiler-bench --release --bin expt -- \
        bench-cluster --smoke --out "$(mktemp -d)/BENCH_cluster_smoke.json"

    # Every benchmark workload at 1/50 scale with its output checks
    # (bitwise in-process replay of the wire run, kill -> restore).
    echo "==> benchmark run --seed 1 --smoke (all four workloads + output checks)"
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --seed 1 --smoke

    # Host parallelism is decided in one place: `Device::host_map` is the
    # only code that sizes or spawns a team of compute threads. A scoped
    # team (`std::thread::scope`) in the compute crates counts too; the
    # socket frontend's per-connection scope is I/O, not compute.
    echo "==> one host scheduler"
    if { grep -rnE 'available_parallelism|crossbeam::thread' crates/*/src || true
        grep -rnE 'thread::scope' crates/{core,index,gp,dtw,linalg,gpu}/src || true; } \
        | grep -v '^crates/gpu/src/device.rs:'; then
        echo "host compute threads belong to crates/gpu/src/device.rs (Device::host_map)" >&2
        exit 1
    fi

    # One health owner: a sensor's quarantine state is a field of its
    # `SensorPredictor`, so every handoff of the predictors carries it; no
    # parallel health vector, slice or (predictor, health) pair may return.
    echo "==> one health owner"
    if grep -rnE 'Vec<SensorHealth>|&\[SensorHealth\]|SensorHealth\)' crates/*/src; then
        echo "a sensor's health is a field of its SensorPredictor" >&2
        exit 1
    fi

    # One build body: the window index is built only by the catch-up every
    # search runs first (`SmilerIndex::catch_up`); no other product code
    # calls `WindowIndex::build(` (test modules are exempt).
    echo "==> one build body"
    if find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_test = 0; cur = "" }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        match($0, /fn [A-Za-z0-9_]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) }
        !in_test && $0 !~ /^[ \t]*\/\// && /WindowIndex::build\(/ \
            && !(FILENAME ~ /index\/src\/search\.rs$/ && cur == "catch_up") {
            print FILENAME ":" FNR ": " $0; found = 1
        }
        END { exit !found }'; then
        echo "the window index is built only by SmilerIndex::catch_up" >&2
        exit 1
    fi

    # Dead public surface fails the build: any `pub` item that only its own
    # definition and unit tests reference (checked in a copy of the tree).
    echo "==> dead-surface sweep"
    python3 tools/dead_surface_sweep.py . "$(mktemp -d)"
fi

echo "==> ci.sh: all checks passed"

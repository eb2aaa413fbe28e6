#!/usr/bin/env bash
# CI gate: formatting, lints, build, tests.
#
# Usage: ./ci.sh [--quick]
#   --quick  skip the release build and run only the fast test subset
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

# The scalar fallback is always compiled and must stay bitwise-identical to
# the lane kernels; the kernel crates are also built and tested with the
# `simd` feature off so the scalar dispatch path itself stays green.
echo "==> cargo test (kernel crates, scalar dispatch: --no-default-features)"
cargo test -p smiler-simd -p smiler-dtw -p smiler-timeseries -p smiler-linalg -p smiler-gp \
    --no-default-features --lib

# The gate's own harness is a separate package (own workspace table and
# lock file): an API edit under crates/ must not break it unnoticed.
# `--locked`: a dependency edit under crates/ that would rewrite the frozen
# benchmark/Cargo.lock fails here instead of silently dirtying benchmark/.
echo "==> cargo build --locked --manifest-path benchmark/Cargo.toml (benchmark harness)"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

if [[ "$QUICK" == "1" ]]; then
    echo "==> cargo test --workspace (lib + bins only)"
    cargo test --workspace --lib --bins

    # The suffix kNN pipeline against a brute-force DTW oracle on
    # adversarial inputs: solo = fleet bit for bit, no false dismissals.
    echo "==> cargo test --test knn_oracle (search differential oracle)"
    cargo test -p smiler-index --test knn_oracle

    # Both launch backends over full continuous steps, bitwise-identical
    # predictions and kNN sets (plus the scalar/lane oracles).
    echo "==> cargo test --test hotpath_equivalence (backend + kernel equivalence)"
    cargo test -p smiler-core --test hotpath_equivalence

    echo "==> cargo test --test fault_tolerance"
    cargo test -p smiler-core --test fault_tolerance

    echo "==> cargo test --test serving"
    cargo test -p smiler-core --test serving

    # Checkpoint/restore smoke: runs a fleet, kills it mid-run, restores
    # from checkpoint + WAL, and compares predictions bitwise against a
    # never-stopped fleet (plus torn-tail and checkpoint-corruption cases).
    echo "==> cargo test --test durability (kill/restore bitwise smoke)"
    cargo test -p smiler-core --test durability

    # Request tracing: exactly one schema-valid terminal per admitted
    # request, bitwise-invisible to predictions, batch-id linking, and the
    # status surface (windowed tails, rung mix, SLO burn, model quality).
    echo "==> cargo test --test tracing (request traces + status surface)"
    cargo test -p smiler-core --test tracing

    # Wire protocol: frame-decoder fuzz/property sweep plus a loopback
    # serve smoke (bitwise wire-vs-in-process, 2x-saturation typed sheds,
    # HTTP gateway, per-tenant QoS) — the socket-facing request path must
    # never panic or hang on hostile bytes.
    echo "==> cargo test --test net (protocol fuzz + loopback serve smoke)"
    cargo test -p smiler-net --test net

    # Adaptation under chaos: clean-workload bitwise invariance, drift
    # and sensor-swap changepoints, spike cleaning, dropout holdoff —
    # plus the dirty-input regression sweep (stuck-at flat rung in
    # fault_tolerance, dropout-burst gap caps and jitter-storm duplicate
    # rejection in the stream suite, chaos feeds through the server and
    # the wire in serving/net above).
    echo "==> cargo test --test chaos (adaptation smoke)"
    cargo test -p smiler-core --test chaos

    # Cluster smoke: WAL-shipping replication, the lagging-follower
    # segment-pinning regression, and the headline kill/promote test — a
    # promoted follower's forecasts must be bitwise identical to what the
    # dead primary would have served.
    echo "==> cargo test --test cluster (kill/promote bitwise smoke)"
    cargo test -p smiler-cluster --test cluster

    # The experiment harness must at least compile.
    echo "==> cargo build -p smiler-bench (expt compile check)"
    cargo build -p smiler-bench --bin expt
else
    echo "==> cargo build --workspace --release"
    cargo build --workspace --release

    echo "==> cargo test --workspace"
    cargo test --workspace

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
fi

echo "==> ci.sh: all checks passed"

#!/bin/sh
# Gate for the benchmark itself: build offline, unit-test the statistics
# and verdict logic, check BENCHMARK.json against the tables in spec.rs,
# run the smoke matrix (every workload, every phase, every lap verified,
# traced run included), and check that the emitted result names exactly
# the listed workloads and metrics. POSIX sh, like ci/check.sh.
set -eu
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
bench() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
}

cargo build --release --offline --manifest-path "$manifest"
cargo test --offline --quiet --manifest-path "$manifest"

mkdir -p benchmark/out
bench contract > benchmark/out/contract.json
cmp benchmark/out/contract.json BENCHMARK.json || {
    echo "check.sh: BENCHMARK.json differs from 'bruck-benchmark contract'" >&2
    exit 1
}

bench run --smoke --traced --seed 1 --out benchmark/out/smoke.json
bench check benchmark/out/smoke.json
echo "check.sh: ok"

#!/bin/sh
# The workspace gate: formatting and clippy (hard-failing), every test in
# the workspace once, the named robustness / autotune / TCP gates, and the
# tracked benchmark's own check.
# POSIX sh — the bench harness spawns it via `sh` (see harness::prerun_check).
#
# Run standalone (`ci/check.sh`) or let the bench harness run it before
# measuring by setting BRUCK_PRERUN_CHECK=1 — benchmarking an unlinted
# tree wastes machine time.
set -eu
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets --offline -- -D warnings

# Everything once: the ~440 crate-level unit tests (frame codec, ARQ
# window, fabric replay log and handshake, planners, schedules, …) that
# tier-1 (`cargo test -q`, root package only) does not reach, plus
# every integration suite. The named gates below rerun the robustness
# suites under their own caps and hard timeouts.
timeout 900 cargo test --workspace -q

# Robustness gate: fault injection, the chaos soak, and the
# sliding-window property suite. Every fault plan is seeded
# (FaultPlan::with_seed / the xorshift case generators in tests/chaos.rs
# and tests/window.rs), so failures replay deterministically from the
# seed printed in the assertion message.
cargo test -q --test faults
cargo test -q --test chaos
cargo test -q --test window

# Autotune gate: the planner must match an exhaustive arg-min over the
# radix family, the calibrator must recover (β, τ) with R² ≥ 0.99, and
# planner-dispatched collectives must verify at n ∈ {4, 8, 16},
# k ∈ {1, 2} with a model fitted live against the transport.
cargo test -q --test autotune

# Liveness gate: 200 seeded chaos schedules per shape (n ∈ {4, 8})
# mixing partitions, stalls, ack loss, and kills, plus the dedicated
# deadline/straggler/partition tests. The suite asserts no-hang
# internally; the hard wall-clock `timeout` is the backstop for the one
# failure mode the suite cannot report on itself — the harness hanging.
# 300 s ≈ 10x the observed soak time on a 1-core CI box.
timeout 300 cargo test -q --test liveness

# Idle-wait gate: an idle rank sleeps until a message arrives that no
# scan has examined (it does not spin while something non-matching is
# parked), and round accounting stays O(1) in the length of the run.
# Counter-based, so it does not flake on a loaded box; a regression to a
# level-triggered wait turns the ~1 s suite into a ~40 s one on 2 cores,
# which the hard `timeout` bounds like the liveness gate's.
timeout 300 cargo test -q --test idle_wait

# Rejoin gate: the full recovery lifecycle — kill, shrink, quarantine,
# flap damping, rejoin at the next collective boundary, bit-correct
# full-group result under all three RecoveryPolicy variants — plus a
# 200-seed rejoin soak per shape with per-view verdict consistency.
# Failing soak iterations persist a minimized TSV reproducer under
# target/ replayable with `bruckctl chaos --replay`. Set
# BRUCK_CHAOS_SEED=<s> to narrow either soak to a single seed when
# bisecting. Same hard-timeout backstop rationale as the liveness gate.
timeout 300 cargo test -q --test rejoin

# V-ops gate: the non-uniform property suite (direct/padded/two-phase/
# auto bit-exact on random ragged, zero-riddled, and hot-spot matrices
# across n ∈ {1,2,5,8,16}, k ∈ {1,2}, plus a fault-injected skewed run
# through run_resilient).
cargo test -q --test vops

# Perf smoke: the data plane must clear a throughput floor on the wire
# microbench. The floor is ~30% under the slowest alltoall throughput
# observed on a 1-core CI box (545 MB/s at this shape; a stop-and-wait
# plane measured ~300-360 MB/s, so a data plane regressed to that
# discipline lands under the floor while normal machine noise stays
# above it). BENCH_pr3.json records the full-size run against the
# since-deleted stop-and-wait plane. Small shape so the gate stays fast.
cargo build -q --release -p bruck-bench
./target/release/bruckctl bench --n 4 --ports 2 --block 16384 --reps 3 \
    --samples 2 --out /tmp/bruck-bench-smoke.json --min-mbps 380

# The same at the tracked benchmark's shape (n=8, k=2, 64 KiB), where
# the first smoke is blind: there no message exceeds one 64 KiB
# fragment and only the alltoall row is gated, which is how a
# byte-at-a-time reassembly (0.46 GB/s) sat under the concat's
# multi-fragment last round for thirteen PRs. Here the allgather row has
# a floor of its own: ~30 % under the 305-419 MB/s the in-place
# reassembly measures pinned to one core, above the 169-193 MB/s of the
# tree before it.
./target/release/bruckctl bench --n 8 --ports 2 --block 65536 --reps 3 \
    --samples 2 --out /tmp/bruck-bench-smoke-frag.json --min-mbps 380 \
    --min-allgather-mbps 230

# Zipf smoke: a short skewed sweep at the PR 6 shape (n=8, k=2). Every
# lap is verified bit-exactly inside run_skew_matrix, so this gates the
# whole skewed data path (metadata exchange, padded/two-phase executors,
# planner dispatch) end to end through the real uds transport. Small
# reps/samples keep it to a few seconds; BENCH_pr6.json tracks the full
# 16x8 matrix.
./target/release/bruckctl bench --skew 0,0.5,1.0,1.5 --n 8 --ports 2 \
    --block 256 --reps 4 --samples 2 --out /tmp/bruck-skew-smoke.json

# TCP + scale gate: the event-driven fabric's integration suites (the
# faultless invariants — a clean stream carries no ARQ traffic — fault
# injection over real loopback streams, hierarchical plans at n = 64,
# the n = 128 thread-multiplexing claim), then a one-rep scale sweep —
# flat vs two-level over the TCP fabric with the watchdog and deadline
# armed, every lap verified bit-exactly inside run_scale_matrix.
# BRUCK_SCALE_MAX_N caps the sweep (default 128 here so the gate stays
# fast; raise it to 1024 to reproduce the full BENCH_pr9.json matrix).
# Hard wall-clock timeout as the no-hang backstop, same rationale as
# the liveness gate.
timeout 300 cargo test -q --test tcp --test hierarchical
# By name, what the two transports' receive paths rest on: fragment
# placement and the fragment rules (10 000 seeded malformed headers),
# and the stream parser fed the same bytes under every cut.
timeout 120 cargo test -q -p bruck-net --lib -- frame:: tcp::tests::stream_parser \
    tcp::tests::oversize_record tcp::tests::malformed_records
BRUCK_SCALE_MAX_N="${BRUCK_SCALE_MAX_N:-128}" timeout 300 \
    ./target/release/bruckctl bench --scale --reps 1 \
    --out /tmp/bruck-scale-smoke.json

# TCP recovery gate: the connection-healing lifecycle over real
# loopback streams — mid-collective stream kill → reconnect → replay →
# byte-identical to the faultless run with zero ARQ retransmissions,
# resets amid multi-fragment messages, seeded malformed re-handshakes,
# budget-exhausted handshake blackhole → consistent node-level
# eviction, and a 100-seed connection-chaos soak with per-view verdict
# consistency.
# BRUCK_SCALE_MAX_N caps the eviction matrix (128 here skips the n=256
# leg); BRUCK_CHAOS_SEED narrows the soak when bisecting. Failing soak
# iterations persist a minimized TSV reproducer under target/
# replayable with `bruckctl chaos --transport tcp --replay`. Hard
# wall-clock timeout as the no-hang backstop (~20x the observed suite
# time on a 1-core CI box). The bruckctl smoke then drives one
# generated socket-chaos schedule end to end through the CLI path the
# reproducers replay through.
BRUCK_SCALE_MAX_N="${BRUCK_SCALE_MAX_N:-128}" timeout 300 \
    cargo test -q --test tcp_recovery
timeout 120 ./target/release/bruckctl chaos --transport tcp \
    --n 64 --node-size 8 --block 8 --seed 7

# The tracked benchmark's own gate, consumed read-only: it builds the
# standalone `benchmark/` package against this tree (so a source-
# incompatible change to anything it calls fails here), unit-tests its
# statistics, checks BENCHMARK.json against its spec, and runs the smoke
# matrix with every lap oracle-checked. Nothing under benchmark/ is
# edited by this script; outputs land in the ignored benchmark/out/.
sh benchmark/check.sh

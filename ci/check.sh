#!/bin/sh
# The workspace gate: formatting and clippy (hard-failing), every test in
# the workspace once, the named robustness / autotune / TCP gates, and the
# tracked benchmark's own check.
# POSIX sh (`set -eu`, no `pipefail`, no arrays).
set -eu
cd "$(dirname "$0")/.."

# A performance number comes from benchmark/ and nowhere else: the
# per-PR BENCH_*.json artifacts are retired and must not come back.
if ls BENCH_*.json >/dev/null 2>&1; then echo "ci/check.sh: per-PR BENCH_*.json at the repo root" >&2; exit 1; fi

# Every index algorithm (the Bruck family, the direct, pairwise-XOR and
# hypercube baselines) and every concatenation has one executable form —
# a lowered RankProgram run by one RankMachine (model/program.rs), which
# core/program_exec.rs, the TCP fabric and `simulate` drive. Their
# hand-written executors are retired and must not come back.
for f in index/bruck index/mixed index/hierarchical index/direct index/pairwise \
    index/hypercube concat/bruck concat/ring concat/recursive_doubling \
    concat/gather_bcast; do
    if [ -e "crates/core/src/$f.rs" ]; then echo "ci/check.sh: crates/core/src/$f.rs is back; lower a program instead" >&2; exit 1; fi
done
# So is every non-uniform payload (RankProgram::lower_vindex and
# lower_allgatherv): vbruck.rs and vops.rs keep the metadata round,
# validation and planning, and run no round of their own.
if grep -n '\.round(\|\.round_gather(' crates/core/src/vbruck.rs crates/core/src/vops.rs; then
    echo "ci/check.sh: vbruck.rs / vops.rs run a round by hand; lower a program instead" >&2; exit 1
fi
# So is every reduction and scan (RankProgram::lower_{reduce,
# reduce_scatter, allreduce, scan}): reduce.rs and scan.rs lower a program
# and hand it to program_exec.
if grep -n '\.round(\|\.round_gather(\|send_and_recv' crates/core/src/reduce.rs crates/core/src/scan.rs; then
    echo "ci/check.sh: reduce.rs / scan.rs run a round by hand; lower a program instead" >&2; exit 1
fi

cargo fmt --all -- --check
cargo clippy --workspace --all-targets --offline -- -D warnings

# Rustdoc is warning-free: an unresolved or private intra-doc link fails
# here instead of rotting in the generated docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

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
# The bare Unix-socket contract: a clean socket wire under
# `with_reliability` carries no ARQ traffic, and a kill there is still
# root-caused. A stack that stops reporting a dead peer hangs rather
# than fails, so it gets the liveness gate's hard-timeout backstop.
timeout 300 cargo test -q --test sockets

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
# smoke. The floor is ~30% under the slowest alltoall throughput
# observed on a 1-core CI box (545 MB/s at this shape; a stop-and-wait
# plane measured ~300-360 MB/s, so a data plane regressed to that
# discipline lands under the floor while normal machine noise stays
# above it). Small shape so the gate stays fast. The smoke prints its
# table and gates; it writes no file.
cargo build -q --release -p bruck-bench
./target/release/bruckctl bench --n 4 --ports 2 --block 16384 --reps 3 \
    --samples 2 --min-mbps 380

# The same at the tracked benchmark's shape (n=8, k=2, 64 KiB), where
# the first smoke is blind: there no message exceeds one 64 KiB
# fragment and only the alltoall row is gated, which is how a
# byte-at-a-time reassembly (0.46 GB/s) sat under the concat's
# multi-fragment last round for thirteen PRs. Here the allgather row has
# a floor of its own. Pinned to one core this tree measures 555-821 MB/s
# (885-1194 on both cores); the 351-425 MB/s of the tree before it paid
# a per-byte last-round plan check in every call, the 169-193 MB/s of
# the one before that a per-byte reassembly. The floor stays at 230:
# absolute floors sit inside this box's noise, so it is set to catch
# the second kind of regression, not to track the current number.
./target/release/bruckctl bench --n 8 --ports 2 --block 65536 --reps 3 \
    --samples 2 --min-mbps 380 --min-allgather-mbps 230

# Figure files follow the code: regenerate every virtual-time artefact
# under results/ (deterministic — virtual clock, seeded inputs) and fail
# if one differs from what is committed. `table1` and `schedules` print
# to stdout only, so their output is the artefact (`table1.txt`,
# `schedules.txt`). `calibrate.tsv` is a wall-clock fit and differs on
# every run, so it is neither regenerated nor compared. (`ablation.tsv`
# sat stale for a dozen PRs because nothing looked.)
cargo build -q --release -p bruck-bench --bin figures
for fig in fig4 fig5 fig6 bounds concat model-gap ablation mixed \
    hierarchy pareto models; do
    ./target/release/figures "$fig" >/dev/null 2>&1
done
./target/release/figures table1 >results/table1.txt
./target/release/figures schedules >results/schedules.txt
if ! git diff --exit-code -- results/ ':!results/calibrate.tsv'; then
    echo "ci/check.sh: results/ is stale; commit the regenerated files" >&2
    exit 1
fi

# No Zipf smoke and no scale sweep here: `sh benchmark/check.sh` (the
# last line) runs the same paths oracle-checked on every lap —
# `uds_skew_v` is alltoallv_auto on a seeded Zipf matrix at the old
# smoke's shape (n=8, k=2), `tcp_scale` the flat plan on the TCP fabric
# at n=512 — and tests/hierarchical.rs holds the two-level n=128 cell.

# TCP gate: the event-driven fabric's integration suites (the
# faultless invariants — a clean stream carries no ARQ traffic — fault
# injection over real loopback streams, hierarchical plans at n = 64
# and n = 128 with reliability requested and the deadline armed, the
# n = 128 thread-multiplexing claim). Hard wall-clock timeout as the
# no-hang backstop, same rationale as the liveness gate.
timeout 300 cargo test -q --test tcp --test hierarchical
# By name, what the two transports' receive paths rest on: fragment
# placement and the fragment rules (10 000 seeded malformed headers),
# and the stream parser fed the same bytes under every cut.
timeout 120 cargo test -q -p bruck-net --lib -- frame:: tcp::tests::stream_parser \
    tcp::tests::oversize_record tcp::tests::malformed_records
# By name and in release (the build the tracked benchmark runs; built
# outside the hard timeout), what the wake-by-signal fabric rests on:
# the replay log hands a confirmed arena to the pool and a burst-end
# "delivered N" record empties the peer's log; a drained fabric makes no
# reactor pass; fresh allocations do not grow with the round count; the
# first permute reads the caller's input in place on every plan family;
# and the reactor alone (no workers) still heals, stalls and blocks.
cargo test -q --release -p bruck-net --lib --no-run
cargo test -q --release --test tcp --no-run
timeout 120 cargo test -q --release -p bruck-net --lib -- tcp::tests::tx_log \
    tcp::tests::burst_end tcp::tests::scale_cluster_matches \
    tcp::tests::reset_mid_message tcp::tests::half_open_pair \
    tcp::tests::full_outbox tcp::tests::blocked_sender
timeout 120 cargo test -q --release --test tcp -- quiet_fabric arena_allocations \
    scale_run_moves

# By name, what lowering and last-round planning rest on now that
# neither keeps a table: every descriptor expanded against the
# index-vector lowering it replaced (76 461 programs), the mixed
# lowering expanded against MixedRadix's enumerated digit sets for every
# minimal covering vector at n ≤ 64 (19 741 vectors) and swept through
# the simulator against the transpose oracle, the arithmetic
# `validate` against the per-byte check it replaced (10 000 seeded
# mutations, each invariant broken ≥ 100 times) with the b = 2^40 size
# guard, and the simulator at the benchmark's n = 1 024. With them, the
# rank machine every substrate drives: each malformed delivery (unknown
# or repeated (peer, tag), wrong length, after done) is an error naming
# rank, peer and tag with the buffer untouched, over 10 000 seeded
# mutations of random lowered index and concatenation programs, then the
# non-uniform and reduction ones; a hand-built span, place, fold or
# copy-in that does not fit its buffer is
# refused before any byte moves; and Figs. 1–3 read off the machine
# running the radix programs. Planning rests on closed forms
# too: the uniform and mixed radix costs against the enumerated block
# sets of every step (every radix at n < 200; every vector the mixed
# search visits at n ≤ 64; k ≤ 5), and the one-pass v-planner against
# the n²-walking, sorting planner it replaced, bit for bit, on seeded
# matrices at n ≤ 48, k ≤ 4 and the benchmark's n = 1 024 Zipf matrix.
# In release; built outside the hard timeout.
cargo test -q --release -p bruck-model --lib --no-run
cargo test -q --release --test paper_artifacts --no-run
timeout 120 cargo test -q --release -p bruck-model --lib -- \
    program::tests::descriptors_expand program::tests::larger_scale \
    program::tests::mixed_descriptors_expand program::tests::mixed_lowering \
    program::tests::malformed_deliveries program::tests::mutated_deliveries \
    program::tests::hand_built \
    partition::tests::arithmetic_validate partition::tests::block_size \
    radix::tests::profile_matches radix::tests::step_sizes_never_grow \
    mixed_radix::tests::closed_form_matches \
    planner::tests::v_planner_matches
timeout 120 cargo test -q --release --test paper_artifacts
# Allocation gate, by name: a lowered program is two heap allocations
# (its ops and its transfers, each sized in closed form) for every index
# plan family, the circulant concatenation and the one-port baselines at
# n ∈ {64, 1024}, k ∈ {1, 2}; every lowering fills exactly the lists it
# sizes at n ≤ 17, k ≤ 4; and plan_vindex picks its median quota without
# an n²-byte allocation at n = 1024 — counted by a per-thread counting
# global allocator.
cargo test -q --test lowering_allocations
# By name and in release, the concatenations' and reductions' programs in
# pure math: every concatenation, both last-round preferences, n ≤ 64 and
# {127, 128, 200, 256}, k ≤ 4, b ∈ {0, 1, 2, 3, 5, 16}; every reduction
# and scan, every operator, n ≤ 33 and {64, 100, 128}, k ≤ 4, five vector
# lengths, the reduce at every root — each simulated onto its oracle (a
# local fold on integer-valued lanes, bit for bit), its schedule on the
# closed form, and the threaded runs of a sample equal to their simulation.
cargo test -q --release -p bruck-collectives --lib --no-run
timeout 120 cargo test -q --release -p bruck-collectives --lib -- \
    program_exec::tests::concat_programs_simulate \
    program_exec::tests::concat_threaded_runs \
    program_exec::tests::reduction_programs_simulate \
    program_exec::tests::reduction_threaded_runs

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

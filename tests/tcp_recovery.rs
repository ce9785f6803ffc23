//! Fault-tolerant TCP fabric: connection healing, node-level eviction,
//! and socket-level chaos — the recovery lifecycle on the scale path.
//!
//! Three contracts:
//!
//! * a stream killed mid-collective reconnects (jittered backoff,
//!   re-handshake of delivered counts, replay of the unconfirmed
//!   records) and the run completes bit-correct, byte-for-byte equal to
//!   a faultless run, with `reconnects > 0` in the fabric stats and —
//!   the wire being clean — not one ARQ retransmission; a malformed
//!   re-handshake costs one reconnect attempt, nothing more;
//! * a pair whose reconnect budget is exhausted (handshake blackhole)
//!   raises a *node-level* eviction with a cluster-consistent
//!   `RanksFailed` verdict, and `run_resilient` shrinks by whole nodes
//!   and completes dense on the survivors;
//! * a seeded connection-chaos soak at n = 128 over real TCP loopback:
//!   every surviving rank bit-correct, every view consistent, failures
//!   persist a minimized TSV reproducer for `bruckctl chaos --replay`.

use std::time::{Duration, Instant};

use bruck::collectives::verify;
use bruck::model::planner::IndexPlan;
use bruck::net::{
    ChaosSchedule, ClusterConfig, FaultPlan, NetError, RecoveryPolicy, Reliability,
    ScaleResilientOutput, TcpScaleCluster,
};

fn scale_inputs(n: usize, block: usize) -> Vec<Vec<u8>> {
    (0..n).map(|r| verify::index_input(r, n, block)).collect()
}

fn assert_oracle(results: &[Vec<u8>], n: usize, block: usize, label: &str) {
    for (rank, got) in results.iter().enumerate() {
        assert_eq!(
            got,
            &verify::index_expected(rank, n, block),
            "{label} rank={rank}"
        );
    }
}

/// Check a resilient run's dense survivor results against the original
/// input matrix: survivor `i`'s slot `j` must hold the block original
/// rank `survivors[j]` addressed to original rank `survivors[i]`.
/// Returns the first violation.
fn dense_violation(res: &ScaleResilientOutput, inputs: &[Vec<u8>], block: usize) -> Option<String> {
    let m = res.survivors.len();
    if res.output.results.len() != m {
        return Some(format!(
            "{} results for {m} survivors",
            res.output.results.len()
        ));
    }
    for (i, got) in res.output.results.iter().enumerate() {
        if got.len() != m * block {
            return Some(format!(
                "survivor {i}: {} bytes, want {}",
                got.len(),
                m * block
            ));
        }
        for (j, &src) in res.survivors.iter().enumerate() {
            let dst = res.survivors[i];
            let want = &inputs[src][dst * block..(dst + 1) * block];
            if &got[j * block..(j + 1) * block] != want {
                return Some(format!(
                    "survivor {i} (orig {dst}) slot {j} (orig {src}): wrong bytes"
                ));
            }
        }
    }
    None
}

fn base_cfg(n: usize, node_size: usize) -> ClusterConfig {
    ClusterConfig::new(n)
        .with_node_size(node_size)
        .with_reliability(Reliability::default())
        .with_timeout(Duration::from_secs(60))
        .with_deadline(Duration::from_secs(120))
}

/// Worker counts the scale-level recovery tests run under. A worker with
/// receives outstanding and empty mailboxes drives the streams itself,
/// next to the reactor: one worker owns every rank (and helps whenever
/// it waits), four contend for the pair locks — while every transition
/// (teardown, reconnect, eviction) stays the reactor's.
const WORKERS: [usize; 3] = [1, 2, 4];

/// `BRUCK_SCALE_MAX_N` caps the sizes the eviction matrix covers
/// (mirrors the scale bench's cap so CI boxes stay fast).
fn scale_cap() -> usize {
    std::env::var("BRUCK_SCALE_MAX_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

/// Tentpole contract 1: kill a node pair's streams mid-collective via
/// an injected reset (plus a flapping link elsewhere); the fabric must
/// reconnect and finish bit-correct, byte-for-byte equal to the
/// faultless run.
#[test]
fn injected_reset_heals_and_matches_faultless() {
    for workers in WORKERS {
        injected_reset_heals(workers);
    }
}

fn injected_reset_heals(workers: usize) {
    let (n, node_size, block) = (16, 4, 8);
    let inputs = scale_inputs(n, block);
    let plan = IndexPlan::Hierarchical {
        node_size,
        radix_local: 2,
        radix_remote: 2,
    };
    // Reset the node-0↔node-2 stream after the first round; flap the
    // node-1↔node-3 stream (reset at round 1, once more after healing).
    let faults = FaultPlan::new()
        .with_conn_reset(0, 2 * node_size, 1)
        .with_reconnect_flap(node_size, 3 * node_size, 1, 1);
    let faulted_cfg = base_cfg(n, node_size).with_faults(faults);
    let faulted =
        TcpScaleCluster::run_with_workers(&faulted_cfg, &plan, block, &inputs, Some(workers))
            .unwrap();
    assert_oracle(&faulted.results, n, block, "healed");

    let clean_cfg = base_cfg(n, node_size);
    let clean = TcpScaleCluster::run_with_workers(&clean_cfg, &plan, block, &inputs, Some(workers))
        .unwrap();
    assert_eq!(
        faulted.results, clean.results,
        "a healed run must equal the faultless run byte-for-byte"
    );

    let fs = faulted.metrics.fabric;
    assert!(fs.reconnects > 0, "healing must reconnect: {fs:?}");
    assert!(fs.link_failures > 0, "{fs:?}");
    assert!(
        fs.injected_resets >= 2,
        "one reset + one flap (2 teardowns minimum): {fs:?}"
    );
    assert_eq!(fs.pairs_evicted, 0, "healed links must not evict: {fs:?}");
    let cs = clean.metrics.fabric;
    assert_eq!(
        (cs.link_failures, cs.reconnects),
        (0, 0),
        "faultless run saw phantom outages: {cs:?}"
    );
    // The wire was clean: the fabric's replay healed the gap, no ARQ
    // was stacked to retransmit across it.
    let link = faulted.metrics.link_totals();
    assert_eq!(
        (link.retransmits, link.acks_sent, link.dups_dropped),
        (0, 0, 0),
        "healing a clean wire went through the ARQ: {link:?}"
    );
}

/// Resets landing while multi-fragment messages are in flight: 160 KiB
/// messages are three records each, so a teardown finds records half
/// written and messages half reassembled. The replay must resume at the
/// record boundary — nothing lost, nothing delivered twice.
#[test]
fn reset_amid_multi_fragment_messages_replays_from_the_record_boundary() {
    for workers in WORKERS {
        reset_amid_multi_fragment_messages(workers);
    }
}

fn reset_amid_multi_fragment_messages(workers: usize) {
    let (n, node_size, block) = (8, 2, 40 << 10);
    let inputs = scale_inputs(n, block);
    let plan = IndexPlan::Radix(2);
    // Every round loses a stream, one of them twice over.
    let faults = FaultPlan::new()
        .with_conn_reset(0, 2, 0)
        .with_reconnect_flap(2, 4, 0, 1)
        .with_conn_reset(0, 4, 1)
        .with_conn_reset(2, 6, 1)
        .with_reconnect_flap(0, 6, 2, 2);
    let cfg = base_cfg(n, node_size).with_faults(faults);
    let faulted =
        TcpScaleCluster::run_with_workers(&cfg, &plan, block, &inputs, Some(workers)).unwrap();
    assert_oracle(&faulted.results, n, block, "multi-fragment replay");
    let clean = TcpScaleCluster::run_with_workers(
        &base_cfg(n, node_size),
        &plan,
        block,
        &inputs,
        Some(workers),
    )
    .unwrap();
    assert_eq!(faulted.results, clean.results);
    // The round-0 events fire before any traffic and sit on pairs the
    // first round needs, so those three outages must have healed; the
    // later ones land mid-flight and heal if the run still needs them.
    let fs = faulted.metrics.fabric;
    assert!(
        fs.reconnects >= 3 && fs.injected_resets >= 3,
        "the round-0 resets must fire and heal: {fs:?}"
    );
    assert_eq!(fs.pairs_evicted, 0, "{fs:?}");
    assert_eq!(faulted.metrics.link_totals().retransmits, 0);
}

/// Seeded malformed re-handshakes — a short write, a foreign pair id, a
/// delivered count beyond anything sent, random bytes — each burn one
/// reconnect attempt and nothing else: no panic, no eviction while
/// budget remains, and the healed run is still bit-correct.
#[test]
fn malformed_rehandshakes_burn_one_attempt_each() {
    for workers in WORKERS {
        malformed_rehandshakes(workers);
    }
}

fn malformed_rehandshakes(workers: usize) {
    let (n, node_size, block) = (16, 4, 8);
    let inputs = scale_inputs(n, block);
    for seed in [1u64, 0xBAD5EED, 0xFFFF_FFFF_FFFF_FFFF] {
        // Four malformed handshakes (one of each kind) fit the budget of
        // six; the fifth attempt heals. Reset before any traffic, on a
        // pair the first round needs: the run cannot finish around it.
        let faults = FaultPlan::new()
            .with_conn_reset(0, node_size, 0)
            .with_malformed_handshakes(0, node_size, seed, 4);
        let cfg = base_cfg(n, node_size).with_faults(faults);
        let out = TcpScaleCluster::run_with_workers(
            &cfg,
            &IndexPlan::Radix(2),
            block,
            &inputs,
            Some(workers),
        )
        .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        assert_oracle(&out.results, n, block, "malformed handshakes");
        let fs = out.metrics.fabric;
        assert_eq!(
            (fs.reconnect_failures, fs.injected_handshake_drops),
            (4, 4),
            "seed {seed:#x}: one attempt per malformed handshake: {fs:?}"
        );
        assert_eq!(
            (fs.reconnects, fs.pairs_evicted),
            (1, 0),
            "seed {seed:#x}: {fs:?}"
        );
        assert_eq!(out.metrics.link_totals().retransmits, 0, "seed {seed:#x}");
    }
    // Past the budget the same garbage is an eviction with the usual
    // cluster-consistent verdict, never a hang.
    let faults = FaultPlan::new()
        .with_conn_reset(0, node_size, 0)
        .with_malformed_handshakes(0, node_size, 7, 64);
    let cfg = base_cfg(n, node_size).with_faults(faults);
    let err = TcpScaleCluster::run_with_workers(
        &cfg,
        &IndexPlan::Radix(2),
        block,
        &inputs,
        Some(workers),
    )
    .unwrap_err();
    let NetError::RanksFailed { ranks } = &err else {
        panic!("want RanksFailed, got {err:?}");
    };
    assert_eq!(ranks, &(node_size..2 * node_size).collect::<Vec<_>>());
}

/// Tentpole contract 2: a handshake blackhole exhausts the reconnect
/// budget → the pair is declared dead → the whole victim node is
/// evicted with one cluster-consistent `RanksFailed` verdict, at
/// n ∈ {128, 256}.
#[test]
fn budget_exhausted_eviction_is_node_level_and_consistent() {
    for workers in WORKERS {
        budget_exhausted_eviction(workers);
    }
}

fn budget_exhausted_eviction(workers: usize) {
    for n in [128usize, 256] {
        if n > scale_cap() {
            continue;
        }
        let node_size = 32;
        let block = 4;
        let inputs = scale_inputs(n, block);
        // Reset the node-0↔node-1 stream at round 0 and blackhole every
        // reconnect handshake: budget (6) exhausts, node 1 (the pair
        // end with the higher id) is evicted.
        let faults = FaultPlan::new()
            .with_conn_reset(0, node_size, 0)
            .with_handshake_drops(0, node_size, 64);
        let victim: Vec<usize> = (node_size..2 * node_size).collect();

        let cfg = base_cfg(n, node_size).with_faults(faults.clone());
        let err = TcpScaleCluster::run_with_workers(
            &cfg,
            &IndexPlan::Radix(2),
            block,
            &inputs,
            Some(workers),
        )
        .unwrap_err();
        let NetError::RanksFailed { ranks } = &err else {
            panic!("n={n}: want RanksFailed, got {err:?}");
        };
        assert!(
            victim.iter().all(|r| ranks.contains(r)),
            "n={n}: victim node ranks missing from verdict {ranks:?}"
        );
        assert!(
            ranks.iter().all(|r| victim.contains(r)),
            "n={n}: verdict bled past the victim node: {ranks:?}"
        );

        // The resilient driver turns the same verdict into a whole-node
        // shrink and completes dense on the survivors.
        let cfg = base_cfg(n, node_size).with_faults(faults);
        let res = TcpScaleCluster::run_resilient_with_workers(
            &cfg,
            &IndexPlan::Radix(2),
            block,
            &inputs,
            3,
            Some(workers),
        )
        .unwrap_or_else(|e| panic!("n={n}: resilient run failed: {e:?}"));
        assert_eq!(res.attempts, 2, "n={n}");
        let expect: Vec<usize> = (0..n).filter(|r| !victim.contains(r)).collect();
        assert_eq!(res.survivors, expect, "n={n}");
        assert!(
            res.survivors.len().is_multiple_of(node_size),
            "n={n}: eviction must keep whole nodes"
        );
        if let Some(v) = dense_violation(&res, &inputs, block) {
            panic!("n={n}: {v}");
        }
        let fs = res.output.metrics.fabric;
        assert!(fs.pairs_evicted >= 1, "n={n}: {fs:?}");
        assert!(fs.injected_handshake_drops >= 6, "n={n}: {fs:?}");
        assert!(fs.reconnect_failures >= 6, "n={n}: {fs:?}");
        let ms = res.output.metrics.membership;
        assert_eq!(ms.evictions as usize, node_size, "n={n}");
    }
}

/// `BRUCK_CHAOS_SEED` narrows the soak to one seed for replaying a CI
/// failure; unset, the full range runs.
fn soak_seeds() -> std::ops::Range<u64> {
    match std::env::var("BRUCK_CHAOS_SEED") {
        Ok(s) => {
            let seed: u64 = s
                .parse()
                .unwrap_or_else(|e| panic!("BRUCK_CHAOS_SEED={s}: {e}"));
            seed..seed + 1
        }
        Err(_) => 0..SOAK_SEEDS,
    }
}

const SOAK_SEEDS: u64 = 100;

/// Longest one schedule may take before it counts as a hang: the
/// per-op timeout never fires on a healthy heal, so a run is bounded
/// by reconnect backoff + retransmission, well under this.
const HANG_BUDGET: Duration = Duration::from_secs(30);

/// Persist a failing schedule for `bruckctl chaos --transport tcp
/// --replay` (best effort — the panic message is the primary artifact).
fn persist_reproducer(s: &ChaosSchedule, label: &str) -> String {
    let path = format!("target/chaos-repro-{label}-n{}-seed{}.tsv", s.n, s.seed);
    match std::fs::write(&path, bruck::sched::chaos_to_tsv(s)) {
        Ok(()) => path,
        Err(e) => format!("<unwritable {path}: {e}>"),
    }
}

/// Run one connection-chaos schedule through the resilient scale
/// driver and check every recovery invariant. `None` means clean.
fn run_conn_schedule(s: &ChaosSchedule) -> Option<String> {
    let (node_size, block) = (32, 4);
    let inputs = scale_inputs(s.n, block);
    let cfg = ClusterConfig::new(s.n)
        .with_node_size(node_size)
        .with_reliability(Reliability::default())
        .with_timeout(Duration::from_secs(20))
        .with_deadline(Duration::from_secs(25))
        .with_faults(s.plan())
        .with_recovery(RecoveryPolicy::ShrinkOnly);
    let started = Instant::now();
    let outcome = TcpScaleCluster::run_resilient_with_workers(
        &cfg,
        &IndexPlan::Radix(2),
        block,
        &inputs,
        3,
        Some(4),
    );
    if started.elapsed() > HANG_BUDGET {
        return Some(format!(
            "no-hang: run took {:?} (budget {HANG_BUDGET:?})",
            started.elapsed()
        ));
    }
    match outcome {
        Ok(res) => {
            // Bit-correctness across the survivor view.
            if let Some(v) = dense_violation(&res, &inputs, block) {
                return Some(format!("bit-correctness: {v}"));
            }
            // Whole-node eviction keeps the survivor set node-aligned.
            if !res.survivors.len().is_multiple_of(node_size) && res.survivors.len() >= node_size {
                return Some(format!(
                    "membership: {} survivors not node-aligned",
                    res.survivors.len()
                ));
            }
            // View bookkeeping agrees with itself.
            let ms = res.output.metrics.membership;
            if ms.view_changes != ms.evictions + ms.rejoins {
                return Some(format!(
                    "counters: {} view changes ≠ {} evictions + {} rejoins",
                    ms.view_changes, ms.evictions, ms.rejoins
                ));
            }
            if res.attempts > 1 && ms.evictions == 0 {
                return Some("counters: a retry without an eviction".into());
            }
            None
        }
        // Structured verdicts (attempts exhausted, quorum) are allowed
        // soak outcomes; hangs and wrong bytes are not.
        Err(NetError::RanksFailed { .. } | NetError::Killed { .. }) => None,
        Err(e) => Some(format!("verdict: unexpected error {e:?}")),
    }
}

/// The connection-chaos soak: seeded socket-level schedules (resets,
/// flaps, half-open stalls, handshake blackholes, mild loss) at
/// n = 128 over real TCP loopback. Zero tolerance; failures persist a
/// minimized reproducer TSV.
#[test]
fn connection_chaos_soak_heals_or_shrinks_consistently() {
    let n = 128.min(scale_cap());
    for seed in soak_seeds() {
        let schedule = ChaosSchedule::generate_socket_chaos(seed, n);
        if let Some(reason) = run_conn_schedule(&schedule) {
            let minimized = schedule.minimized(|c| run_conn_schedule(c).is_some());
            let path = persist_reproducer(&minimized, "tcp-conn");
            panic!(
                "connection-chaos violation at seed {seed}, n {n}: {reason}\n\
                 minimized reproducer written to {path}\n\
                 replay with: cargo run -p bruck-bench --bin bruckctl -- \
                 chaos --transport tcp --replay {path}\n{minimized}"
            );
        }
    }
}

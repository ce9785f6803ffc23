//! An idle rank sleeps, and round accounting does not grow with the run.
//!
//! Both halves are asserted on counters, not on timings, so a loaded box
//! cannot flake them:
//!
//! * `RankMetrics::scan_passes` counts the passes the round engine makes
//!   over a round's outstanding receives. Every pass either matches a
//!   message or is followed by a wait, and a wait returns only because a
//!   message was parked since the last one, because one arrived, or
//!   because the 2 ms failure-detector slice ran out — so passes are
//!   bounded by `3 × messages received + wall ÷ 2 ms`. A wait that
//!   returns whenever *anything* is parked breaks that bound by orders of
//!   magnitude as soon as ranks outnumber cores.
//! * `RankMetrics` is `Copy`, so it cannot own per-round storage, and
//!   `RunMetrics::global_complexity` is still exact after 20 000 rounds.

use std::time::{Duration, Instant};

use bruck::collectives::api::{alltoall, alltoall_into, Tuning};
use bruck::collectives::primitives::barrier_dissemination;
use bruck::collectives::verify;
use bruck::model::complexity::Complexity;
use bruck::net::{Cluster, ClusterConfig, Endpoint, FaultPlan, NetError, RankMetrics, RunMetrics};

const LAPS: usize = 500;
const BLOCK: usize = 64;

/// `LAPS` verified alltoalls, each followed by a dissemination barrier.
fn laps(ep: &mut Endpoint) -> Result<(), NetError> {
    let n = ep.size();
    let tuning = Tuning::builder().radix(2).build();
    let input = verify::index_input(ep.rank(), n, BLOCK);
    let expected = verify::index_expected(ep.rank(), n, BLOCK);
    let mut out = vec![0u8; n * BLOCK];
    for _ in 0..LAPS {
        alltoall_into(ep, &input, BLOCK, &tuning, &mut out)?;
        if out != expected {
            return Err(NetError::App("alltoall bytes wrong".into()));
        }
        barrier_dissemination(ep)?;
    }
    Ok(())
}

fn assert_no_spin(what: &str, metrics: &RunMetrics, wall: Duration) {
    let slices = wall.as_millis() as u64 / 2 + 1;
    for (rank, m) in metrics.per_rank.iter().enumerate() {
        assert!(m.msgs_received > 0, "{what}: rank {rank} received nothing");
        let bound = 3 * m.msgs_received + m.rounds() + slices;
        assert!(
            m.scan_passes <= bound,
            "{what}: rank {rank} made {} scan passes for {} messages in {} rounds over {wall:?} \
             (bound {bound}) — it is spinning, not sleeping",
            m.scan_passes,
            m.msgs_received,
            m.rounds(),
        );
    }
}

#[test]
fn channel_ranks_sleep_when_ranks_outnumber_cores() {
    let cfg = ClusterConfig::new(16).with_timeout(Duration::from_secs(60));
    let start = Instant::now();
    let out = Cluster::run(&cfg, laps).unwrap();
    assert_no_spin("channels n=16", &out.metrics, start.elapsed());
}

#[cfg(unix)]
#[test]
fn uds_ranks_sleep_without_a_reliability_layer() {
    let cfg = ClusterConfig::new(8).with_timeout(Duration::from_secs(60));
    let start = Instant::now();
    let out = bruck::net::SocketCluster::run(&cfg, laps).unwrap();
    assert_no_spin("uds n=8", &out.metrics, start.elapsed());
}

/// Ring rounds with a payload that depends on rank and round, so `C2`
/// has a closed form: round `i`'s largest message is `i % 7 + n - 1`.
fn ring_rounds(ep: &mut Endpoint, rounds: u64) -> Result<(), NetError> {
    let n = ep.size();
    let (right, left) = ((ep.rank() + 1) % n, (ep.rank() + n - 1) % n);
    let payload = [0u8; 16];
    for i in 0..rounds {
        let len = (i % 7) as usize + ep.rank();
        let got = ep.send_and_recv(right, &payload[..len], left, i)?;
        ep.recycle(got);
    }
    Ok(())
}

fn ring_complexity(n: u64, rounds: u64) -> Complexity {
    Complexity::new(rounds, (0..rounds).map(|i| i % 7 + n - 1).sum())
}

#[test]
fn round_accounting_is_exact_and_constant_size_over_a_long_run() {
    // No per-round storage, by construction: a `Copy` type owns no heap.
    fn assert_copy<T: Copy>() {}
    assert_copy::<RankMetrics>();

    let n = 4;
    let cfg = ClusterConfig::new(n).with_timeout(Duration::from_secs(60));
    for rounds in [20, 20_000] {
        let out = Cluster::run(&cfg, |ep| ring_rounds(ep, rounds)).unwrap();
        assert!(out.metrics.per_rank.iter().all(|m| m.rounds() == rounds));
        assert_eq!(
            out.metrics.global_complexity(),
            Some(ring_complexity(n as u64, rounds)),
            "{rounds} rounds"
        );
    }

    // Ranks that disagree on the round count have no global complexity.
    let out = Cluster::run(&cfg, |ep| {
        ring_rounds(ep, 50)?;
        if ep.rank() == 0 {
            ep.idle_round()?;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(out.metrics.global_complexity(), None);
}

#[test]
fn round_accounting_restarts_with_each_resilient_attempt() {
    let n = 6;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_faults(FaultPlan::new().kill_rank_after(2, 1));
    let tuning = Tuning::builder().radix(2).build();
    let resilient = Cluster::run_resilient(&cfg, 3, |ep, _view| {
        let input = verify::index_input(ep.rank(), ep.size(), BLOCK);
        alltoall(ep, &input, BLOCK, &tuning)
    })
    .unwrap();
    assert_eq!(resilient.survivors, vec![0, 1, 3, 4, 5]);
    // Radix-2 Bruck among the 5 survivors: ⌈log2 5⌉ = 3 rounds moving
    // the blocks whose index has bit 0, 1, 2 set — 2, 2 and 1 of them.
    assert_eq!(
        resilient.output.metrics.global_complexity(),
        Some(Complexity::new(3, (2 + 2 + 1) * BLOCK as u64))
    );
}

//! Sliding-window reliability: property coverage.
//!
//! The window protocol's contract is the same as stop-and-wait's —
//! exactly-once, in-order, bit-identical delivery per link — it just
//! keeps more frames in flight. These tests drive randomized
//! loss/duplication interleavings (below the retry cap) through
//! random window shapes and assert the contract holds, plus the
//! `window = 1` backward-compat escape hatch and the idle-endpoint
//! no-retry regression for the blocking-read socket transport.
//! Fault plans draw from the same dependency-free xorshift generator as
//! `tests/proptests.rs`, so every case replays from its seed.

use std::time::Duration;

use bruck::collectives::api::{alltoall, Tuning};
use bruck::collectives::verify;
use bruck::net::{Cluster, ClusterConfig, FaultPlan, Reliability, WireTuning};

/// Deterministic xorshift64 over half-open ranges.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(2654435761).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// A rate in `[0, max)`.
    fn rate(&mut self, max: f64) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * max
    }
}

/// A random window shape: any window in `[1, 12]`, any sack budget,
/// piggybacking on or off.
fn random_wire(g: &mut Gen) -> WireTuning {
    WireTuning::default()
        .with_window(g.pick(1, 13))
        .with_sack_limit(g.pick(0, 9))
        .with_piggyback(g.flag())
}

/// A loss/duplication plan mild enough that the retry cap is never
/// the binding constraint — the window must *heal*, not fail cleanly.
fn lossy_plan(g: &mut Gen) -> FaultPlan {
    let mut plan = FaultPlan::new().with_seed(g.next());
    if g.flag() {
        plan = plan.with_loss(g.rate(0.15));
    }
    if g.flag() {
        plan = plan.with_duplication(g.rate(0.15));
    }
    // The retired virtual-delay fault's draws: kept so that every seed
    // yields the same remaining faults.
    if g.flag() {
        g.rate(0.2);
    }
    plan
}

/// The round-stamped payload rank `src` sends in round `round`.
fn stamped(src: usize, round: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (src as u8) ^ (round as u8).wrapping_mul(31) ^ (i as u8))
        .collect()
}

/// Any interleaving of loss and duplication below the retry cap
/// delivers bit-identical payloads *in order* per link: a ring exchange
/// stamps every payload with its round, so a reordered, duplicated, or
/// corrupted delivery shows up as a stamp mismatch in some round.
#[test]
fn lossy_window_delivers_in_order_per_link() {
    for seed in 0..24u64 {
        let mut g = Gen::new(0x51D0 ^ seed);
        let n = g.pick(2, 6);
        let rounds = g.pick(6, 16);
        let len = g.pick(1, 64);
        let cfg = ClusterConfig::new(n)
            .with_timeout(Duration::from_secs(10))
            .with_faults(lossy_plan(&mut g))
            .with_reliability(Reliability::default().with_wire(random_wire(&mut g)));
        Cluster::run(&cfg, |ep| {
            let right = (ep.rank() + 1) % n;
            let left = (ep.rank() + n - 1) % n;
            for round in 0..rounds {
                let out = stamped(ep.rank(), round, len);
                let got = ep.send_and_recv(right, &out, left, 3)?;
                assert_eq!(
                    got,
                    stamped(left, round, len),
                    "seed {seed}: rank {} round {round} out-of-order or corrupt",
                    ep.rank()
                );
                ep.recycle(got);
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("seed {seed} (n={n}): {e:?}"));
    }
}

/// Random window shapes under full wire chaos (corruption included):
/// alltoall stays bit-correct for every window in `[1, 12]`.
#[test]
fn random_windows_survive_chaos_alltoall() {
    for seed in 0..16u64 {
        let mut g = Gen::new(0xD00F ^ seed);
        let n = g.pick(2, 9);
        let block = g.pick(1, 25);
        let plan = lossy_plan(&mut g).with_corruption(g.rate(0.08));
        let wire = random_wire(&mut g);
        let cfg = ClusterConfig::new(n)
            .with_timeout(Duration::from_secs(10))
            .with_faults(plan)
            .with_reliability(Reliability::default().with_wire(wire));
        let out = Cluster::run(&cfg, |ep| {
            let input = verify::index_input(ep.rank(), n, block);
            alltoall(ep, &input, block, &Tuning::default())
        })
        .unwrap_or_else(|e| panic!("seed {seed} (n={n} b={block} wire={wire:?}): {e:?}"));
        for (rank, result) in out.results.iter().enumerate() {
            assert_eq!(
                result,
                &verify::index_expected(rank, n, block),
                "seed {seed}: alltoall corrupted at rank {rank} (wire={wire:?})"
            );
        }
    }
}

/// `window = 1` reproduces stop-and-wait: never more than one unacked
/// frame per link (mean occupancy exactly 1) and no piggybacked acks —
/// the backward-compatible escape hatch still behaves like the old
/// discipline, lossy wire included.
#[test]
fn window_one_is_stop_and_wait() {
    let n = 4;
    let block = 16;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(10))
        .with_faults(FaultPlan::new().with_seed(7).with_loss(0.05))
        .with_reliability(Reliability::default().with_wire(WireTuning::stop_and_wait()));
    let out = Cluster::run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        alltoall(ep, &input, block, &Tuning::default())
    })
    .unwrap();
    for (rank, result) in out.results.iter().enumerate() {
        assert_eq!(result, &verify::index_expected(rank, n, block));
    }
    let link = out.metrics.link_totals();
    assert!(link.window_samples > 0, "occupancy was never sampled");
    assert_eq!(
        link.window_occupancy_sum, link.window_samples,
        "window=1 must never pipeline"
    );
    assert_eq!(link.piggyback_acks, 0, "piggybacking is off in compat mode");
}

/// With the default window and a bidirectional two-rank exchange, acks
/// ride on reverse-path data frames instead of costing dedicated frames.
#[test]
fn bidirectional_exchange_piggybacks_acks() {
    let cfg = ClusterConfig::new(2)
        .with_timeout(Duration::from_secs(10))
        .with_reliability(Reliability {
            // A roomy rto keeps the delayed-ack budget (rto/8) far above
            // the round time, so owed acks wait for the next data frame.
            rto: Duration::from_millis(100),
            ..Reliability::default()
        });
    let out = Cluster::run(&cfg, |ep| {
        let peer = 1 - ep.rank();
        for round in 0..20 {
            let msg = stamped(ep.rank(), round, 32);
            let got = ep.send_and_recv(peer, &msg, peer, 5)?;
            assert_eq!(got, stamped(peer, round, 32));
            ep.recycle(got);
        }
        Ok(())
    })
    .unwrap();
    let link = out.metrics.link_totals();
    assert!(
        link.piggyback_acks > 0,
        "no acks piggybacked across 20 bidirectional rounds: {link:?}"
    );
    assert_eq!(link.retransmits, 0, "clean wire must not retransmit");
}

/// Regression for the socket transport's blocking reads: an endpoint
/// that sits idle (parked in a kernel read, nothing in flight) must not
/// burn retransmissions or retry budget — the old 50µs sleep-poll loop
/// is gone and patience is now free.
#[cfg(unix)]
#[test]
fn idle_endpoint_burns_no_retries() {
    use bruck::net::SocketCluster;
    let n = 2;
    // A clean socket wire runs bare; a cut that never fires stacks the
    // ARQ under test without touching a frame.
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(10))
        .with_faults(FaultPlan::new().cut_link(0, 1, u64::MAX))
        .with_reliability(Reliability::default());
    let out = SocketCluster::run(&cfg, |ep| {
        // A shared quiet period with zero frames in flight: every rank is
        // idle at once, so any timer that fires here is a protocol bug.
        std::thread::sleep(Duration::from_millis(60));
        let peer = 1 - ep.rank();
        for round in 0..5 {
            let msg = stamped(ep.rank(), round, 64);
            let got = ep.send_and_recv(peer, &msg, peer, 9)?;
            assert_eq!(got, stamped(peer, round, 64));
            ep.recycle(got);
        }
        Ok(())
    })
    .unwrap();
    let link = out.metrics.link_totals();
    assert_eq!(
        link.retransmits, 0,
        "idle endpoint burned retry budget: {link:?}"
    );
    assert!(
        link.acks_sent + link.piggyback_acks > 0,
        "reliability layer was not exercised"
    );
}

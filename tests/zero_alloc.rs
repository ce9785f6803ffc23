//! Regression test for the zero-copy hot path: once the buffer pool is
//! warm, steady-state Bruck index rounds draw every data-plane buffer
//! (send staging, receive payloads, phase scratch) from the pool instead
//! of the allocator.
//!
//! The pool counts three events — `allocated` (a fresh heap buffer was
//! created because no shelved one fit), `reused` (an acquire was served
//! from a shelf), and `recycled` (a buffer was returned). The invariant
//! under test: after a prewarm pass stocks the shelves (see
//! [`BufferPool::set_prewarm`](bruck::net::BufferPool::set_prewarm)),
//! further `run_into` iterations leave `allocated` flat while `reused`
//! keeps climbing — deterministically, not just usually. Ranks meet at a
//! `std::sync::Barrier` between passes, which touches no pool counter.

use std::sync::Barrier;

use bruck::net::PoolStats;
use bruck::prelude::*;

const WARMUP: usize = 3;
const STEADY: usize = 10;

fn steady_state_stats(
    algo: IndexAlgorithm,
    n: usize,
    block: usize,
    ports: usize,
) -> (PoolStats, PoolStats) {
    let cfg = ClusterConfig::new(n).with_ports(ports);
    let rendezvous = &Barrier::new(n);
    let out = Cluster::run(&cfg, move |ep| {
        let rank = ep.rank() as u8;
        let sendbuf: Vec<u8> = (0..n * block).map(|i| rank ^ (i % 251) as u8).collect();
        let mut recvbuf = vec![0u8; n * block];
        // Prewarm: every acquire allocates fresh, so the shelves end up
        // stocked to the pass's total demand and later passes can never
        // miss, regardless of how the rank threads interleave.
        ep.pool().set_prewarm(true);
        rendezvous.wait();
        for _ in 0..WARMUP {
            algo.run_into(ep, &sendbuf, block, &mut recvbuf)?;
            rendezvous.wait();
        }
        ep.pool().set_prewarm(false);
        // All ranks are past warmup before anyone snapshots, so a stable
        // `allocated` counter really means nobody hit the allocator.
        rendezvous.wait();
        let warm = ep.pool().stats();
        for _ in 0..STEADY {
            algo.run_into(ep, &sendbuf, block, &mut recvbuf)?;
            rendezvous.wait();
        }
        // Every rank verifies the collective still computes the transpose;
        // a pool bug that hands out stale bytes would surface here.
        for src in 0..n {
            let blk = &recvbuf[src * block..(src + 1) * block];
            let expect: Vec<u8> = (0..block)
                .map(|k| src as u8 ^ ((ep.rank() * block + k) % 251) as u8)
                .collect();
            assert_eq!(blk, &expect[..], "corrupt block from rank {src}");
        }
        rendezvous.wait();
        let steady = ep.pool().stats();
        Ok((warm, steady))
    })
    .expect("run failed");
    // The pool is cluster-shared; every rank saw the same counters at the
    // two barriers, so rank 0's snapshots describe the whole cluster.
    out.results[0]
}

#[test]
fn bruck_steady_state_allocates_nothing() {
    for (n, block, ports, radix) in [
        (8usize, 64usize, 1usize, 2usize),
        (6, 96, 2, 3),
        (16, 32, 1, 4),
    ] {
        let (warm, steady) = steady_state_stats(IndexAlgorithm::BruckRadix(radix), n, block, ports);
        assert_eq!(
            steady.allocated,
            warm.allocated,
            "n={n} block={block} r={radix}: steady-state rounds hit the allocator \
             ({} fresh buffers after warmup)",
            steady.allocated - warm.allocated
        );
        assert!(
            steady.reused > warm.reused,
            "n={n} block={block} r={radix}: steady state should be served from the pool"
        );
        assert!(
            steady.recycled > warm.recycled,
            "n={n} block={block} r={radix}: steady state should return buffers to the pool"
        );
    }
}

#[test]
fn direct_and_hypercube_steady_state_allocate_nothing() {
    for algo in [IndexAlgorithm::Direct, IndexAlgorithm::Hypercube] {
        let (warm, steady) = steady_state_stats(algo, 8, 48, 1);
        assert_eq!(steady.allocated, warm.allocated, "{algo:?}");
        assert!(steady.reused > warm.reused, "{algo:?}");
    }
}

/// The non-uniform path under every family member: once warm, repeated
/// `alltoallv_into` calls (metadata concat + payload member) draw all
/// scratch — size rows, the gathered matrix, padded/quota staging,
/// receive payloads — from the pool.
#[test]
fn alltoallv_into_steady_state_allocates_nothing() {
    use bruck::collectives::api::Tuning;
    use bruck::collectives::vops::{alltoallv_into, VLayout, VMethod};

    let n = 8;
    let methods = [
        VMethod::Direct,
        VMethod::Padded { radix: 2 },
        VMethod::TwoPhase {
            radix: 2,
            quota: None,
        },
    ];
    for method in methods {
        let cfg = ClusterConfig::new(n).with_ports(2);
        let rendezvous = &Barrier::new(n);
        let out = Cluster::run(&cfg, move |ep| {
            let rank = ep.rank();
            // Skewed sizes: destination 0 is hot, the rest ragged.
            let counts: Vec<usize> = (0..n)
                .map(|j| if j == 0 { 96 } else { 8 + (rank + j) % 16 })
                .collect();
            let layout = VLayout::from_counts(&counts);
            let mut flat = vec![0u8; layout.total()];
            for (i, byte) in flat.iter_mut().enumerate() {
                *byte = (rank ^ (i % 251)) as u8;
            }
            let tuning = Tuning::builder().vmethod(method).build();
            let mut got = Vec::new();
            ep.pool().set_prewarm(true);
            rendezvous.wait();
            for _ in 0..WARMUP {
                alltoallv_into(ep, &flat, &layout, &tuning, &mut got)?;
                rendezvous.wait();
            }
            ep.pool().set_prewarm(false);
            rendezvous.wait();
            let warm = ep.pool().stats();
            for _ in 0..STEADY {
                alltoallv_into(ep, &flat, &layout, &tuning, &mut got)?;
                rendezvous.wait();
            }
            rendezvous.wait();
            let steady = ep.pool().stats();
            Ok((warm, steady))
        })
        .expect("run failed");
        let (warm, steady) = out.results[0];
        assert_eq!(
            steady.allocated,
            warm.allocated,
            "{method:?}: steady-state alltoallv_into hit the allocator \
             ({} fresh buffers after warmup)",
            steady.allocated - warm.allocated
        );
        assert!(steady.reused > warm.reused, "{method:?}");
        assert!(steady.recycled > warm.recycled, "{method:?}");
    }
}

#[test]
fn run_metrics_report_pool_activity() {
    let n = 8;
    let block = 64;
    let cfg = ClusterConfig::new(n);
    let out = Cluster::run(&cfg, move |ep| {
        let sendbuf = vec![ep.rank() as u8; n * block];
        let mut recvbuf = vec![0u8; n * block];
        IndexAlgorithm::BruckRadix(2).run_into(ep, &sendbuf, block, &mut recvbuf)?;
        Ok(())
    })
    .expect("run failed");
    let p = out.metrics.pool;
    assert!(p.allocated > 0, "first iteration must populate the pool");
    assert!(p.recycled > 0, "executors must return their scratch: {p:?}");
    assert!(
        p.recycled <= p.allocated + p.reused,
        "cannot recycle more buffers than were acquired: {p:?}"
    );
}

/// The flat-`allocated` check over Unix sockets, where the transport
/// draws its receive buffers from the cluster's pool and returns every
/// payload it sent: once warm, alltoall and allgather laps at a small
/// block and at the tracked benchmark's 64 KiB one (one fragment, the
/// allgather's last round several) allocate no fresh buffer.
#[cfg(unix)]
#[test]
fn socket_cluster_steady_state_allocates_nothing() {
    use bruck::collectives::api::{allgather_into, alltoall_into, Tuning};
    use bruck::net::SocketCluster;

    let (n, ports) = (8, 2);
    for block in [64usize, 64 * 1024] {
        let cfg = ClusterConfig::new(n).with_ports(ports);
        let rendezvous = &Barrier::new(n);
        let out = SocketCluster::run(&cfg, move |ep| {
            let rank = ep.rank() as u8;
            let sendbuf: Vec<u8> = (0..n * block).map(|i| rank ^ (i % 251) as u8).collect();
            let mut recvbuf = vec![0u8; n * block];
            let tuning = Tuning::default();
            let mut lap = |ep: &mut Endpoint| -> Result<(), NetError> {
                alltoall_into(ep, &sendbuf, block, &tuning, &mut recvbuf)?;
                allgather_into(ep, &sendbuf[..block], &tuning, &mut recvbuf)
            };
            ep.pool().set_prewarm(true);
            rendezvous.wait();
            for _ in 0..WARMUP {
                lap(ep)?;
                rendezvous.wait();
            }
            ep.pool().set_prewarm(false);
            rendezvous.wait();
            let warm = ep.pool().stats();
            for _ in 0..STEADY {
                lap(ep)?;
                rendezvous.wait();
            }
            rendezvous.wait();
            let steady = ep.pool().stats();
            Ok((warm, steady))
        })
        .expect("run failed");
        let (warm, steady) = out.results[0];
        assert_eq!(
            steady.allocated,
            warm.allocated,
            "block {block}: steady-state socket laps hit the allocator \
             ({} fresh buffers after warmup)",
            steady.allocated - warm.allocated
        );
        assert!(steady.reused > warm.reused, "block {block}");
        assert!(steady.recycled > warm.recycled, "block {block}");
    }
}

//! The full algorithm stack over the real-I/O Unix-socket transport:
//! transports are invisible to algorithms, results and metrics identical
//! to the channel substrate.

#![cfg(unix)]

use std::time::{Duration, Instant};

use bruck::collectives::api::{allgather, alltoall, Tuning};
use bruck::collectives::concat::ConcatAlgorithm;
use bruck::collectives::index::IndexAlgorithm;
use bruck::collectives::verify;
use bruck::model::partition::Preference;
use bruck::net::{Cluster, ClusterConfig, FaultPlan, NetError, Reliability, SocketCluster};

#[test]
fn index_over_sockets() {
    let n = 8;
    let b = 512;
    let cfg = ClusterConfig::new(n);
    for algo in [
        IndexAlgorithm::BruckRadix(2),
        IndexAlgorithm::BruckRadix(4),
        IndexAlgorithm::Direct,
    ] {
        let out = SocketCluster::run(&cfg, |ep| {
            let input = verify::index_input(ep.rank(), n, b);
            algo.run(ep, &input, b)
        })
        .unwrap_or_else(|e| panic!("{} over sockets: {e}", algo.name()));
        for (rank, result) in out.results.iter().enumerate() {
            assert_eq!(
                result,
                &verify::index_expected(rank, n, b),
                "{}",
                algo.name()
            );
        }
    }
}

#[test]
fn concat_over_sockets_multiport() {
    let n = 10;
    let b = 64;
    let cfg = ClusterConfig::new(n).with_ports(3);
    let out = SocketCluster::run(&cfg, |ep| {
        let input = verify::concat_input(ep.rank(), b);
        ConcatAlgorithm::Bruck(Preference::Rounds).run(ep, &input)
    })
    .unwrap();
    let expected = verify::concat_expected(n, b);
    for r in &out.results {
        assert_eq!(r, &expected);
    }
}

#[test]
fn metrics_agree_across_transports() {
    let n = 6;
    let b = 128;
    let cfg = ClusterConfig::new(n);
    let body = |ep: &mut bruck::net::Endpoint| {
        let input = verify::index_input(ep.rank(), n, b);
        IndexAlgorithm::BruckRadix(3).run(ep, &input, b)
    };
    let sock = SocketCluster::run(&cfg, body).unwrap();
    let chan = Cluster::run(&cfg, body).unwrap();
    assert_eq!(sock.results, chan.results);
    assert_eq!(
        sock.metrics.global_complexity(),
        chan.metrics.global_complexity()
    );
}

#[test]
fn large_blocks_over_sockets_fragment_transparently() {
    // Each phase-2 message well beyond one fragment.
    let n = 4;
    let b = 48 * 1024;
    let cfg = ClusterConfig::new(n).with_timeout(std::time::Duration::from_secs(30));
    let out = SocketCluster::run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, b);
        IndexAlgorithm::BruckRadix(2).run(ep, &input, b)
    })
    .unwrap();
    for (rank, result) in out.results.iter().enumerate() {
        assert_eq!(result, &verify::index_expected(rank, n, b));
    }
}

/// A clean Unix-socket wire already delivers exactly once and in order,
/// so asking for reliability stacks no ARQ on it: both collectives are
/// bit-equal to the oracle and not one ack, retransmission, probe or
/// duplicate crosses the wire.
#[test]
fn clean_sockets_run_bare_under_reliability() {
    let (n, b) = (8, 256);
    let cfg = ClusterConfig::new(n)
        .with_ports(2)
        .with_timeout(Duration::from_secs(10))
        .with_reliability(Reliability::default());
    let tuning = Tuning::default();
    let out = SocketCluster::run(&cfg, |ep| {
        let index = alltoall(ep, &verify::index_input(ep.rank(), n, b), b, &tuning)?;
        let concat = allgather(ep, &verify::concat_input(ep.rank(), b), &tuning)?;
        Ok((index, concat))
    })
    .unwrap();
    for (rank, (index, concat)) in out.results.iter().enumerate() {
        assert_eq!(index, &verify::index_expected(rank, n, b), "rank {rank}");
        assert_eq!(concat, &verify::concat_expected(n, b), "rank {rank}");
    }
    let link = out.metrics.link_totals();
    assert_eq!(
        (
            link.acks_sent,
            link.retransmits,
            link.probes_sent,
            link.dups_dropped
        ),
        (0, 0, 0, 0),
        "a clean socket wire carried ARQ traffic: {link:?}"
    );
}

/// Without the ARQ a killed rank is still reported, by its own mark in
/// the failure detector: the run ends with the root-caused `Killed`
/// well inside the receive timeout, so no survivor idled into it.
#[test]
fn bare_sockets_root_cause_a_kill() {
    let n = 4;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_faults(FaultPlan::new().kill_rank_after(1, 0))
        .with_reliability(Reliability::default());
    let started = Instant::now();
    let err = SocketCluster::run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, 4);
        IndexAlgorithm::BruckRadix(2).run(ep, &input, 4)
    })
    .unwrap_err();
    assert!(matches!(err, NetError::Killed { rank: 1, .. }), "{err:?}");
    assert!(
        started.elapsed() < cfg.timeout,
        "a survivor waited out its timeout"
    );
}

//! Supporting collective primitives: broadcast and gather along
//! `(k+1)`-ary spanning trees, and a dissemination barrier.
//!
//! These are the building blocks the paper's CCL library context assumes
//! (its §1 lists broadcast/scatter/gather alongside index and
//! concatenation); the folklore concatenation baseline composes the first
//! two. Each runs in the k-port model in `⌈log_{k+1} n⌉` rounds, and each
//! is a lowered program ([`RankProgram::lower_broadcast`],
//! [`RankProgram::lower_gather`], [`RankProgram::lower_barrier`]) that
//! [`run_program_into`] drives.

use bruck_model::program::RankProgram;
use bruck_net::{Comm, NetError};

use crate::program_exec::run_program_into;

/// Broadcast `buf` from `root` in place: every rank passes a buffer of
/// the broadcast's length, and leaves with root's bytes in it.
///
/// # Errors
///
/// Network failures propagate; [`NetError::App`] when the ranks' lengths
/// disagree.
pub fn broadcast<C: Comm + ?Sized>(
    ep: &mut C,
    root: usize,
    buf: &mut [u8],
) -> Result<(), NetError> {
    let (n, rank) = (ep.size(), ep.rank());
    let program = RankProgram::lower_broadcast(n, ep.ports(), rank, root, buf.len());
    if rank != root {
        return run_program_into(ep, &program, &[], buf);
    }
    // The root already holds the result: its program sends from a copy.
    let mut copy = ep.acquire(buf.len());
    let sent = run_program_into(ep, &program, buf, &mut copy);
    ep.recycle(copy);
    sent
}

/// Gather every rank's `b`-byte block to `root`; `root` returns the
/// `n·b`-byte concatenation (block `i` at offset `i·b`), others `None`.
///
/// # Errors
///
/// Network failures propagate; [`NetError::App`] on inconsistent sizes.
pub fn gather<C: Comm + ?Sized>(
    ep: &mut C,
    root: usize,
    myblock: &[u8],
) -> Result<Option<Vec<u8>>, NetError> {
    let (n, b, rank) = (ep.size(), myblock.len(), ep.rank());
    let program = RankProgram::lower_gather(n, ep.ports(), rank, root, b);
    if rank == root {
        let mut out = vec![0u8; n * b];
        run_program_into(ep, &program, myblock, &mut out)?;
        return Ok(Some(out));
    }
    // A non-root rank ends with its subtree's blocks, which nobody reads.
    let mut subtree = ep.acquire(n * b);
    let sent = run_program_into(ep, &program, myblock, &mut subtree);
    ep.recycle(subtree);
    sent.map(|()| None)
}

/// Dissemination barrier: no rank returns until every rank has entered.
///
/// This is exactly the circulant concatenation's communication pattern
/// with empty payloads — round `i` exchanges zero-byte tokens at the
/// offsets `S_i = {j·(k+1)^i}` — so it completes in the round-optimal
/// `⌈log_{k+1} n⌉` rounds, which count toward `C1`. Its tags sit in a
/// phase of their own, below any epoch of a [`bruck_net::GroupComm`], so
/// it never matches a data message.
///
/// # Errors
///
/// Network failures propagate.
pub fn barrier_dissemination<C: Comm + ?Sized>(ep: &mut C) -> Result<(), NetError> {
    let program = RankProgram::lower_barrier(ep.size(), ep.ports(), ep.rank());
    run_program_into(ep, &program, &[], &mut [])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_net::{Cluster, ClusterConfig};

    #[test]
    fn broadcast_reaches_all() {
        for (n, k, root) in [(1usize, 1usize, 0usize), (5, 1, 0), (9, 2, 4), (12, 3, 11)] {
            let cfg = ClusterConfig::new(n).with_ports(k);
            let out = Cluster::run(&cfg, |ep| {
                let mut data: Vec<u8> = if ep.rank() == root {
                    vec![7, 8, 9]
                } else {
                    vec![0; 3]
                };
                broadcast(ep, root, &mut data).map(|()| data)
            })
            .unwrap();
            for r in &out.results {
                assert_eq!(r, &vec![7, 8, 9], "n={n} k={k} root={root}");
            }
        }
    }

    #[test]
    fn broadcast_round_optimal() {
        let cfg = ClusterConfig::new(9).with_ports(2);
        let out = Cluster::run(&cfg, |ep| broadcast(ep, 0, &mut [1])).unwrap();
        // ⌈log3 9⌉ = 2 rounds.
        assert_eq!(out.metrics.global_complexity().unwrap().c1, 2);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        for (n, k, root) in [(6usize, 1usize, 0usize), (9, 2, 3), (10, 3, 9)] {
            let cfg = ClusterConfig::new(n).with_ports(k);
            let out = Cluster::run(&cfg, |ep| {
                let block = crate::verify::concat_input(ep.rank(), 2);
                gather(ep, root, &block)
            })
            .unwrap();
            for (rank, r) in out.results.iter().enumerate() {
                if rank == root {
                    assert_eq!(r.as_ref().unwrap(), &crate::verify::concat_expected(n, 2));
                } else {
                    assert!(r.is_none());
                }
            }
        }
    }

    #[test]
    fn dissemination_barrier_round_count() {
        for (n, k, want) in [(8usize, 1usize, 3u64), (9, 2, 2), (10, 3, 2), (5, 4, 1)] {
            let cfg = ClusterConfig::new(n).with_ports(k);
            let out = Cluster::run(&cfg, barrier_dissemination).unwrap();
            let c = out.metrics.global_complexity().unwrap();
            assert_eq!(c.c1, want, "n={n} k={k}");
            assert_eq!(c.c2, 0, "barrier moves no payload");
        }
    }

    #[test]
    fn dissemination_barrier_waits_for_slowest() {
        // Rank 3 enters 5 ms late on the wall clock; everyone must leave
        // at least 5 ms after the shared start.
        let cfg = ClusterConfig::new(6);
        let start = std::time::Instant::now();
        let late = std::time::Duration::from_millis(5);
        let out = Cluster::run(&cfg, |ep| {
            if ep.rank() == 3 {
                std::thread::sleep(late);
            }
            barrier_dissemination(ep)?;
            Ok(start.elapsed())
        })
        .unwrap();
        for (rank, &t) in out.results.iter().enumerate() {
            assert!(t >= late, "rank {rank} left the barrier after {t:?}");
        }
    }
}

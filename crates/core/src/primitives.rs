//! Supporting collective primitives: broadcast and gather along
//! `(k+1)`-ary spanning trees, and a dissemination barrier.
//!
//! These are the building blocks the paper's CCL library context assumes
//! (its §1 lists broadcast/scatter/gather alongside index and
//! concatenation); the folklore concatenation baseline composes the first
//! two. Each runs in the k-port model in `⌈log_{k+1} n⌉` rounds.

use bruck_model::spanning_tree::SpanningTree;
use bruck_net::{Comm, NetError, RecvSpec, SendSpec};

/// The sorted members of the subtree rooted at `node`.
fn subtree(tree: &SpanningTree, node: usize) -> Vec<usize> {
    let mut children: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for e in tree.edges() {
        children.entry(e.from).or_default().push(e.to);
    }
    let mut members = Vec::new();
    let mut stack = vec![node];
    while let Some(v) = stack.pop() {
        members.push(v);
        if let Some(cs) = children.get(&v) {
            stack.extend(cs.iter().copied());
        }
    }
    members.sort_unstable();
    members
}

/// Broadcast `data` (significant only at `root`) to every rank; every
/// rank returns the broadcast bytes.
///
/// # Errors
///
/// Network failures propagate.
pub fn broadcast<C: Comm + ?Sized>(
    ep: &mut C,
    root: usize,
    data: &[u8],
) -> Result<Vec<u8>, NetError> {
    let n = ep.size();
    let rank = ep.rank();
    if n == 1 {
        return Ok(data.to_vec());
    }
    let tree = SpanningTree::build(n, ep.ports(), root);
    let mut buf: Option<Vec<u8>> = (rank == root).then(|| data.to_vec());
    for g in 0..tree.num_rounds() {
        let edges = tree.edges_in_round(g);
        let outgoing: Vec<usize> = edges
            .iter()
            .filter(|e| e.from == rank)
            .map(|e| e.to)
            .collect();
        let incoming: Option<usize> = edges.iter().find(|e| e.to == rank).map(|e| e.from);
        let payload = buf.clone().unwrap_or_default();
        let sends: Vec<SendSpec<'_>> = outgoing
            .iter()
            .map(|&to| SendSpec {
                to,
                tag: u64::from(g),
                payload: &payload,
            })
            .collect();
        let recvs: Vec<RecvSpec> = incoming
            .map(|from| RecvSpec {
                from,
                tag: u64::from(g),
            })
            .into_iter()
            .collect();
        let msgs = ep.round(&sends, &recvs)?;
        if incoming.is_some() {
            buf = Some(msgs.into_iter().next().expect("one recv requested").payload);
        }
    }
    Ok(buf.expect("spanning tree reaches every rank"))
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
    let n = ep.size();
    let b = myblock.len();
    let rank = ep.rank();
    if n == 1 {
        return Ok(Some(myblock.to_vec()));
    }
    let tree = SpanningTree::build(n, ep.ports(), root);
    let mut buf = vec![0u8; n * b];
    buf[rank * b..(rank + 1) * b].copy_from_slice(myblock);
    for g in (0..tree.num_rounds()).rev() {
        let edges = tree.edges_in_round(g);
        let parent: Option<usize> = edges.iter().find(|e| e.to == rank).map(|e| e.from);
        let children: Vec<usize> = edges
            .iter()
            .filter(|e| e.from == rank)
            .map(|e| e.to)
            .collect();
        let own = subtree(&tree, rank);
        let payload: Vec<u8> = parent
            .map(|_| {
                own.iter()
                    .flat_map(|&i| buf[i * b..(i + 1) * b].iter().copied())
                    .collect()
            })
            .unwrap_or_default();
        let sends: Vec<SendSpec<'_>> = parent
            .map(|p| SendSpec {
                to: p,
                tag: u64::from(g),
                payload: &payload,
            })
            .into_iter()
            .collect();
        let recvs: Vec<RecvSpec> = children
            .iter()
            .map(|&c| RecvSpec {
                from: c,
                tag: u64::from(g),
            })
            .collect();
        let msgs = ep.round(&sends, &recvs)?;
        for (&c, msg) in children.iter().zip(&msgs) {
            let blocks = subtree(&tree, c);
            if msg.payload.len() != blocks.len() * b {
                return Err(NetError::App("gather bundle size mismatch".into()));
            }
            for (slot, &i) in blocks.iter().enumerate() {
                buf[i * b..(i + 1) * b].copy_from_slice(&msg.payload[slot * b..(slot + 1) * b]);
            }
        }
    }
    Ok((rank == root).then_some(buf))
}

/// Dissemination barrier: no rank returns until every rank has entered.
///
/// This is exactly the circulant concatenation's communication pattern
/// with empty payloads — round `i` exchanges zero-byte tokens at the
/// offsets `S_i = {j·(k+1)^i}` — so it completes in the round-optimal
/// `⌈log_{k+1} n⌉` rounds. (Unlike [`bruck_net::Endpoint::barrier`],
/// which synchronizes out-of-band, this one costs real rounds and counts
/// toward `C1`.)
///
/// # Errors
///
/// Network failures propagate.
pub fn barrier_dissemination<C: Comm + ?Sized>(ep: &mut C) -> Result<(), NetError> {
    let n = ep.size();
    if n == 1 {
        return Ok(());
    }
    let k = ep.ports();
    let rank = ep.rank();
    let d = bruck_model::radix::ceil_log(k + 1, n);
    for i in 0..d {
        let base = bruck_model::radix::pow(k + 1, i);
        let offsets = (1..=k).map(|j| j * base).filter(|&o| o < n);
        let sends: Vec<SendSpec<'_>> = offsets
            .clone()
            .map(|o| SendSpec {
                to: (rank + o) % n,
                tag: u64::from(i),
                payload: &[],
            })
            .collect();
        let recvs: Vec<RecvSpec> = offsets
            .map(|o| RecvSpec {
                from: (rank + n - o) % n,
                tag: u64::from(i),
            })
            .collect();
        ep.round(&sends, &recvs)?;
    }
    Ok(())
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
                let data: Vec<u8> = if ep.rank() == root {
                    vec![7, 8, 9]
                } else {
                    Vec::new()
                };
                broadcast(ep, root, &data)
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
        let out = Cluster::run(&cfg, |ep| broadcast(ep, 0, &[1])).unwrap();
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
        // Rank 3 enters 5 ms (virtual) late; everyone must leave at or
        // after that entry.
        let cfg = ClusterConfig::new(6);
        let out = Cluster::run(&cfg, |ep| {
            if ep.rank() == 3 {
                ep.advance_compute(5e-3);
            }
            barrier_dissemination(ep)?;
            Ok(ep.virtual_time())
        })
        .unwrap();
        for (rank, &t) in out.results.iter().enumerate() {
            assert!(t >= 5e-3, "rank {rank} left the barrier at {t}");
        }
    }
}

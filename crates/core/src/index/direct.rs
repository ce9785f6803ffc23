//! Direct (linear) exchange: the `r = n` end of the trade-off, written
//! without the rotation phases. Step `i` sends block `rank+i` directly to
//! processor `rank+i` and receives block `rank` of processor `rank-i`;
//! steps are grouped `k` per round.
//!
//! Complexity: `C1 = ⌈(n-1)/k⌉`, `C2 = b·⌈(n-1)/k⌉` — transfer-optimal
//! (Proposition 2.4), round-pessimal (Theorem 2.6 shows this is forced).
//!
//! Kept next to the lowered `IndexPlan::Direct` program because it is
//! out of place — sends borrow from `sendbuf`, receives land in `out` —
//! which the program IR cannot say yet; as a program it would add two
//! `n·b` passes per rank to an executor that makes none.

use bruck_net::{Comm, NetError, RecvSpec, SendSpec};

/// Execute the direct exchange.
///
/// Thin allocating wrapper over [`run_into`].
///
/// # Errors
///
/// Buffer-size mismatch as [`NetError::App`]; network failures propagate.
pub fn run<C: Comm + ?Sized>(
    ep: &mut C,
    sendbuf: &[u8],
    block: usize,
) -> Result<Vec<u8>, NetError> {
    let mut out = vec![0u8; sendbuf.len()];
    run_into(ep, sendbuf, block, &mut out)?;
    Ok(out)
}

/// Execute the direct exchange into a caller-provided output buffer of
/// `n·b` bytes. Sends borrow straight from `sendbuf` and received
/// payloads are recycled to the cluster's pool, so steady-state rounds
/// are allocation-free.
///
/// # Errors
///
/// Buffer-size mismatch as [`NetError::App`]; network failures propagate.
pub fn run_into<C: Comm + ?Sized>(
    ep: &mut C,
    sendbuf: &[u8],
    block: usize,
    out: &mut [u8],
) -> Result<(), NetError> {
    let n = ep.size();
    if sendbuf.len() != n * block {
        return Err(NetError::App(format!(
            "send buffer is {} bytes, expected n·b = {}",
            sendbuf.len(),
            n * block
        )));
    }
    if out.len() != n * block {
        return Err(NetError::App(format!(
            "output buffer is {} bytes, expected n·b = {}",
            out.len(),
            n * block
        )));
    }
    let rank = ep.rank();
    let k = ep.ports();
    out[rank * block..(rank + 1) * block]
        .copy_from_slice(&sendbuf[rank * block..(rank + 1) * block]);

    let mut i = 1usize;
    while i < n {
        let group: Vec<usize> = (i..n.min(i + k)).collect();
        let sends: Vec<SendSpec<'_>> = group
            .iter()
            .map(|&d| {
                let dst = (rank + d) % n;
                SendSpec {
                    to: dst,
                    tag: d as u64,
                    payload: &sendbuf[dst * block..(dst + 1) * block],
                }
            })
            .collect();
        let recvs: Vec<RecvSpec> = group
            .iter()
            .map(|&d| RecvSpec {
                from: (rank + n - d) % n,
                tag: d as u64,
            })
            .collect();
        let msgs = ep.round(&sends, &recvs)?;
        for (&d, msg) in group.iter().zip(&msgs) {
            let src = (rank + n - d) % n;
            out[src * block..(src + 1) * block].copy_from_slice(&msg.payload);
        }
        for msg in msgs {
            ep.recycle(msg.payload);
        }
        i += group.len();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_model::bounds::index_bounds;
    use bruck_net::{Cluster, ClusterConfig};
    use bruck_sched::ScheduleStats;

    #[test]
    fn correct_one_port() {
        for n in [1usize, 2, 5, 9] {
            let cfg = ClusterConfig::new(n);
            let out = Cluster::run(&cfg, |ep| {
                let input = crate::verify::index_input(ep.rank(), n, 3);
                run(ep, &input, 3)
            })
            .unwrap();
            for (rank, result) in out.results.iter().enumerate() {
                assert_eq!(
                    result,
                    &crate::verify::index_expected(rank, n, 3),
                    "n={n} rank={rank}"
                );
            }
        }
    }

    #[test]
    fn correct_multiport() {
        for k in [2usize, 4] {
            let n = 10;
            let cfg = ClusterConfig::new(n).with_ports(k);
            let out = Cluster::run(&cfg, |ep| {
                let input = crate::verify::index_input(ep.rank(), n, 2);
                run(ep, &input, 2)
            })
            .unwrap();
            for (rank, result) in out.results.iter().enumerate() {
                assert_eq!(result, &crate::verify::index_expected(rank, n, 2));
            }
            // ⌈9/k⌉ rounds.
            let c = out.metrics.global_complexity().unwrap();
            assert_eq!(c.c1, (9usize.div_ceil(k)) as u64);
        }
    }

    #[test]
    fn plan_is_transfer_optimal() {
        for n in [2usize, 7, 16, 33] {
            for k in [1usize, 2, 3] {
                // Read off the lowered `IndexPlan::Direct` programs, whose
                // wire pattern is this executor's.
                let s = crate::index::IndexAlgorithm::Direct.plan(n, 5, k);
                s.validate().unwrap();
                let stats = ScheduleStats::of(&s);
                let lb = index_bounds(n, k, 5);
                // Within one round's rounding of the C2 lower bound.
                assert!(stats.complexity.c2 <= ((n - 1).div_ceil(k) * 5) as u64);
                assert!(stats.complexity.c2 >= lb.c2);
                assert_eq!(stats.complexity.c1, ((n - 1).div_ceil(k)) as u64);
            }
        }
    }
}

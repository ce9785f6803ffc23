//! Line-faithful ports of the paper's Appendix A and Appendix B
//! pseudocode (the one-port `index` and `concat` functions as shipped in
//! IBM's CCL/EUI), kept deliberately close to the paper's structure —
//! same variable names, same loop shape, same `pack`/`unpack`/`copy`/
//! `mod`/`getrank` helpers — and tested equivalent to the idiomatic
//! implementations in [`crate::index::bruck`] and [`crate::concat::bruck`].
//!
//! Like the paper's code, these operate on a *process array* `A`: a list
//! of processor ids such that `A[i] = p_i`. That is the 1994 spelling of
//! a process group; [`bruck_net::Group`] is the modern one.

use bruck_net::{Comm, NetError};

/// The paper's `mod(x, y)`: remainder in `[0, y)` even for negative `x`.
fn pmod(x: i64, y: i64) -> usize {
    debug_assert!(y > 0);
    (((x % y) + y) % y) as usize
}

/// The paper's `getrank(id, n, A)`: the index `i` with `A[i] == id`.
fn getrank(id: usize, a: &[usize]) -> Result<usize, NetError> {
    a.iter()
        .position(|&p| p == id)
        .ok_or_else(|| NetError::App(format!("processor {id} is not in the process array")))
}

/// The paper's `copy(A, B, len)` is `B[..len].copy_from_slice(&A[..len])`
/// at call sites; `pack` selects the blocks whose `i`-th radix-`r` digit
/// equals `j` (Appendix A's description).
fn pack(tmp: &[u8], blklen: usize, n: usize, r: usize, i: u32, j: usize) -> (Vec<u8>, usize) {
    let mut packed = Vec::new();
    let mut nblocks = 0;
    let weight = r.pow(i);
    for blk in 0..n {
        if (blk / weight) % r == j {
            packed.extend_from_slice(&tmp[blk * blklen..(blk + 1) * blklen]);
            nblocks += 1;
        }
    }
    (packed, nblocks)
}

/// Inverse of [`pack`].
fn unpack(msg: &[u8], tmp: &mut [u8], blklen: usize, n: usize, r: usize, i: u32, j: usize) {
    let weight = r.pow(i);
    let mut slot = 0usize;
    for blk in 0..n {
        if (blk / weight) % r == j {
            tmp[blk * blklen..(blk + 1) * blklen]
                .copy_from_slice(&msg[slot * blklen..(slot + 1) * blklen]);
            slot += 1;
        }
    }
}

/// Appendix A: `index(outmsg, blklen, inmsg, n, A, r)` — the one-port
/// radix-`r` index operation over the process array `A`.
///
/// `outmsg` is the `n·blklen`-byte send buffer (block `i` destined for
/// `A[i]`); the returned `inmsg` holds block `i` from `A[i]`. `my_pid` is
/// this caller's processor id (the paper's `my_pid`).
///
/// # Errors
///
/// [`NetError::App`] if `my_pid ∉ A` or sizes mismatch.
#[allow(clippy::many_single_char_names)]
pub fn index_appendix_a<C: Comm + ?Sized>(
    ep: &mut C,
    outmsg: &[u8],
    blklen: usize,
    a: &[usize],
    r: usize,
) -> Result<Vec<u8>, NetError> {
    let n = a.len();
    if outmsg.len() != n * blklen {
        return Err(NetError::App("outmsg must be n·blklen bytes".into()));
    }
    if r < 2 {
        return Err(NetError::App("radix must be ≥ 2".into()));
    }
    if n == 1 {
        return Ok(outmsg.to_vec());
    }
    let r = r.min(n);
    // (1) w = ⌈log_r n⌉
    let w = bruck_model::radix::ceil_log(r, n);
    // (2) my_rank = getrank(my_pid, n, A)
    let my_rank = getrank(ep.rank(), a)?;

    // (3)–(4) phase 1: tmp = outmsg rotated up by my_rank.
    let mut tmp = vec![0u8; n * blklen];
    tmp[..(n - my_rank) * blklen].copy_from_slice(&outmsg[my_rank * blklen..]);
    tmp[(n - my_rank) * blklen..].copy_from_slice(&outmsg[..my_rank * blklen]);

    // (5)–(20) phase 2.
    let mut dist = 1usize;
    for i in 0..w {
        // (7)–(11): the last subphase has ⌈n / r^{w-1}⌉ - 1 steps.
        let h = if i == w - 1 {
            n.div_ceil(r.pow(w - 1)) - 1
        } else {
            r - 1
        };
        for j in 1..=h {
            // (13)–(14)
            let dest_rank = pmod(my_rank as i64 + (j * dist) as i64, n as i64);
            let src_rank = pmod(my_rank as i64 - (j * dist) as i64, n as i64);
            // (15) pack
            let (packed_msg, nblocks) = pack(&tmp, blklen, n, r, i, j);
            debug_assert!(nblocks > 0);
            // (16) send_and_recv
            let received = ep.send_and_recv(
                a[dest_rank],
                &packed_msg,
                a[src_rank],
                (u64::from(i) << 32) | j as u64,
            )?;
            if received.len() != packed_msg.len() {
                return Err(NetError::App("appendix-A message size mismatch".into()));
            }
            // (17) unpack
            unpack(&received, &mut tmp, blklen, n, r, i, j);
        }
        // (19)
        dist *= r;
    }

    // (21)–(23) phase 3: inmsg[i] = tmp[mod(my_rank - i, n)].
    let mut inmsg = vec![0u8; n * blklen];
    for i in 0..n {
        let src = pmod(my_rank as i64 - i as i64, n as i64);
        inmsg[i * blklen..(i + 1) * blklen].copy_from_slice(&tmp[src * blklen..(src + 1) * blklen]);
    }
    Ok(inmsg)
}

/// Appendix B: `concat(outmsg, len, inmsg, n, A)` — the one-port
/// concatenation over the process array `A`.
///
/// Note the paper's convention here: the spanning trees are grown with
/// *negative* offsets (left rotations), so data is sent to
/// `my_rank - nblk` and the result accumulates below `my_rank`; lines
/// (17)–(18) rotate the temp buffer so `inmsg` begins with `B[0]`.
///
/// # Errors
///
/// [`NetError::App`] if `my_pid ∉ A`.
pub fn concat_appendix_b<C: Comm + ?Sized>(
    ep: &mut C,
    outmsg: &[u8],
    a: &[usize],
) -> Result<Vec<u8>, NetError> {
    let n = a.len();
    let len = outmsg.len();
    if n == 1 {
        return Ok(outmsg.to_vec());
    }
    // (1) d = ⌈log2 n⌉  (2) my_rank
    let d = bruck_model::radix::ceil_log(2, n);
    let my_rank = getrank(ep.rank(), a)?;
    // (3)–(5)
    let mut temp = vec![0u8; n * len];
    temp[..len].copy_from_slice(outmsg);
    let mut nblk = 1usize;
    let mut current_len = len;

    // (6)–(12): the first d-1 doubling rounds.
    for i in 0..d.saturating_sub(1) {
        // (7)–(8)
        let dest_rank = pmod(my_rank as i64 - nblk as i64, n as i64);
        let src_rank = pmod(my_rank as i64 + nblk as i64, n as i64);
        // (9) send_and_recv of the current prefix.
        let payload = temp[..current_len].to_vec();
        let received = ep.send_and_recv(a[dest_rank], &payload, a[src_rank], u64::from(i))?;
        if received.len() != current_len {
            return Err(NetError::App("appendix-B phase-1 size mismatch".into()));
        }
        temp[current_len..2 * current_len].copy_from_slice(&received);
        // (10)–(11)
        nblk *= 2;
        current_len *= 2;
    }

    // (13)–(16): the last (possibly partial) round.
    let last_len = len * (n - nblk);
    if last_len > 0 {
        let dest_rank = pmod(my_rank as i64 - nblk as i64, n as i64);
        let src_rank = pmod(my_rank as i64 + nblk as i64, n as i64);
        let payload = temp[..last_len].to_vec();
        let received = ep.send_and_recv(a[dest_rank], &payload, a[src_rank], u64::from(d))?;
        if received.len() != last_len {
            return Err(NetError::App("appendix-B last-round size mismatch".into()));
        }
        temp[nblk * len..nblk * len + last_len].copy_from_slice(&received);
    }

    // (17)–(18): rotate so that inmsg starts with block 0. With negative
    // offsets, temp[j] holds the block of rank (my_rank + j) mod n, so
    // block 0 sits at offset (n - my_rank) mod n.
    let mut inmsg = vec![0u8; n * len];
    let start = pmod(-(my_rank as i64), n as i64);
    inmsg[..(n - start) * len].copy_from_slice(&temp[start * len..n * len]);
    inmsg[(n - start) * len..].copy_from_slice(&temp[..start * len]);
    Ok(inmsg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_net::{Cluster, ClusterConfig};

    #[test]
    fn pmod_handles_negatives() {
        assert_eq!(pmod(-1, 5), 4);
        assert_eq!(pmod(-7, 5), 3);
        assert_eq!(pmod(7, 5), 2);
        assert_eq!(pmod(0, 5), 0);
    }

    #[test]
    fn appendix_a_matches_oracle() {
        for n in [2usize, 3, 5, 8, 11] {
            for r in [2usize, 3, n] {
                let a: Vec<usize> = (0..n).collect();
                let cfg = ClusterConfig::new(n);
                let out = Cluster::run(&cfg, |ep| {
                    let input = crate::verify::index_input(ep.rank(), n, 3);
                    index_appendix_a(ep, &input, 3, &a, r)
                })
                .unwrap();
                for (rank, result) in out.results.iter().enumerate() {
                    assert_eq!(
                        result,
                        &crate::verify::index_expected(rank, n, 3),
                        "n={n} r={r} rank={rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn appendix_a_matches_idiomatic_rounds() {
        // Same wire behaviour as the lowered radix program in the one-port case.
        let n = 13;
        let r = 3;
        let a: Vec<usize> = (0..n).collect();
        let cfg = ClusterConfig::new(n);
        let apdx = Cluster::run(&cfg, |ep| {
            let input = crate::verify::index_input(ep.rank(), n, 2);
            index_appendix_a(ep, &input, 2, &a, r)
        })
        .unwrap();
        let idio = Cluster::run(&cfg, |ep| {
            let input = crate::verify::index_input(ep.rank(), n, 2);
            crate::index::IndexAlgorithm::BruckRadix(r).run(ep, &input, 2)
        })
        .unwrap();
        assert_eq!(apdx.results, idio.results);
        assert_eq!(
            apdx.metrics.global_complexity(),
            idio.metrics.global_complexity()
        );
    }

    #[test]
    fn appendix_a_over_permuted_process_array() {
        // The process array maps logical ranks to arbitrary processor
        // ids — the paper's groups-avant-la-lettre.
        let n = 6;
        let a = vec![4usize, 2, 0, 5, 1, 3];
        let cfg = ClusterConfig::new(n);
        let out = Cluster::run(&cfg, |ep| {
            let my_rank = a.iter().position(|&p| p == ep.rank()).unwrap();
            let input = crate::verify::index_input(my_rank, n, 2);
            let result = index_appendix_a(ep, &input, 2, &a, 2)?;
            Ok((my_rank, result))
        })
        .unwrap();
        for (my_rank, result) in &out.results {
            assert_eq!(result, &crate::verify::index_expected(*my_rank, n, 2));
        }
    }

    #[test]
    fn appendix_b_matches_oracle() {
        for n in [2usize, 3, 5, 8, 13, 16] {
            let a: Vec<usize> = (0..n).collect();
            let cfg = ClusterConfig::new(n);
            let out = Cluster::run(&cfg, |ep| {
                let input = crate::verify::concat_input(ep.rank(), 4);
                concat_appendix_b(ep, &input, &a)
            })
            .unwrap();
            let expected = crate::verify::concat_expected(n, 4);
            for (rank, result) in out.results.iter().enumerate() {
                assert_eq!(result, &expected, "n={n} rank={rank}");
            }
        }
    }

    #[test]
    fn appendix_b_complexity_matches_idiomatic() {
        // d rounds, C2 = ⌈b(n-1)⌉ — same as the k=1 circulant algorithm.
        let n = 11;
        let b = 3;
        let a: Vec<usize> = (0..n).collect();
        let cfg = ClusterConfig::new(n);
        let apdx = Cluster::run(&cfg, |ep| {
            let input = crate::verify::concat_input(ep.rank(), b);
            concat_appendix_b(ep, &input, &a)
        })
        .unwrap();
        let idio = Cluster::run(&cfg, |ep| {
            let input = crate::verify::concat_input(ep.rank(), b);
            crate::concat::bruck::run(ep, &input, Default::default())
        })
        .unwrap();
        assert_eq!(
            apdx.metrics.global_complexity(),
            idio.metrics.global_complexity()
        );
    }

    #[test]
    fn unknown_pid_rejected() {
        let cfg = ClusterConfig::new(3);
        let err = Cluster::run(&cfg, |ep| {
            // Process array omits rank 2.
            let a = vec![0usize, 1];
            if ep.rank() == 2 {
                index_appendix_a(ep, &[0u8; 4], 2, &a, 2)
            } else {
                Ok(Vec::new())
            }
        })
        .unwrap_err();
        assert!(matches!(err, NetError::App(_)));
    }
}

//! Non-uniform (“v”) variants: `alltoallv` and `allgatherv` over a
//! typed [`VLayout`].
//!
//! The paper's operations assume a uniform block size `b`; MPI's
//! `MPI_Alltoallv` / `MPI_Allgatherv` drop that assumption. Both
//! variants here are *compositions of the paper's algorithms*:
//!
//! * [`alltoallv_into`] first concats every rank's count row (one
//!   circulant metadata round, after which each rank holds the full
//!   `n×n` size matrix and validates it **before** any payload moves),
//!   then plans a member of the configurable non-uniform Bruck family of
//!   [`vbruck`]: **direct** exchange, **padded Bruck** (pad to the max
//!   count, run the radix digit rounds, strip), or **two-phase Bruck** (a
//!   uniform quota slice through the log-round digit rounds plus direct
//!   heavy tails). With no forced [`VMethod`] the planner arg-mins the
//!   three from the matrix's measured skew (max/mean) under the tuning's
//!   cost model — rank-consistently, because every rank plans from the
//!   same matrix.
//! * [`allgatherv_into`] first runs the circulant concatenation on the
//!   size table, then the circulant structure over the ragged blocks in
//!   their final layout: `⌈log_{k+1} n⌉ - 1` doubling rounds plus a
//!   column-aligned last round. Round count stays optimal at
//!   `1 + ⌈log_{k+1} n⌉`.
//!
//! Both payloads are lowered [`RankProgram`]s run by
//! [`run_program_into`], like every uniform algorithm: sends read the
//! caller's buffer, scratch and received payloads come from the
//! cluster's buffer pool, and the caller-owned output `Vec` is only
//! resized (no reallocation once its capacity has seen the working set).

use bruck_model::cost::CostModel;
use bruck_model::planner::{quota_candidates, PlanChoice, Planner, VIndexPlan};
use bruck_model::program::RankProgram;
use bruck_net::{Comm, NetError};

use crate::api::Tuning;
use crate::concat::ConcatAlgorithm;
use crate::primitives::barrier_dissemination;
use crate::program_exec::run_program_into;
use crate::vbruck;

pub use crate::vbruck::{VLayout, VMethod};

/// Personalized all-to-all with per-destination sizes, into a
/// caller-owned output buffer.
///
/// `sendbuf` holds this rank's outgoing blocks addressed by `layout`
/// (block `j` for rank `j`; block `rank` is delivered back verbatim).
/// `out` is resized to the incoming total and filled dense in source
/// order; the returned [`VLayout`] addresses it. The payload algorithm
/// is `tuning.vmethod` when forced, otherwise the planner's arg-min of
/// {direct, padded Bruck, two-phase Bruck} under `tuning.model` — see
/// [`alltoallv_auto_into`] to also learn which member ran.
///
/// # Errors
///
/// [`NetError::App`] if `layout` does not address exactly `n` blocks
/// inside `sendbuf`, or if a peer's announced sizes cannot be laid out
/// in memory (checked before any payload round); network failures
/// propagate.
pub fn alltoallv_into<C: Comm + ?Sized>(
    ep: &mut C,
    sendbuf: &[u8],
    layout: &VLayout,
    tuning: &Tuning,
    out: &mut Vec<u8>,
) -> Result<VLayout, NetError> {
    let (recv, _) = dispatch(
        ep,
        sendbuf,
        layout,
        tuning.model.as_ref(),
        tuning.vmethod,
        out,
    )?;
    Ok(recv)
}

/// [`alltoallv_into`] with planner dispatch under an explicit model,
/// returning the receive layout **and** the family member that ran
/// with its predicted cost — the bench harness's entry point.
///
/// # Errors
///
/// See [`alltoallv_into`].
pub fn alltoallv_auto_into<C: Comm + ?Sized>(
    ep: &mut C,
    sendbuf: &[u8],
    layout: &VLayout,
    model: &dyn CostModel,
    out: &mut Vec<u8>,
) -> Result<(VLayout, PlanChoice<VIndexPlan>), NetError> {
    dispatch(ep, sendbuf, layout, model, None, out)
}

/// Outcome of [`alltoallv_resilient`]: survivor-dense data, the layout
/// addressing it, and the membership it corresponds to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilientAlltoallv {
    /// Received bytes, dense in survivor order: span `i` (addressed by
    /// [`layout`](Self::layout)) came from global rank `survivors[i]`.
    pub data: Vec<u8>,
    /// Layout of `data`: `layout.range(i)` is survivor `i`'s block.
    pub layout: VLayout,
    /// Global ranks that completed the successful attempt, ascending.
    pub survivors: Vec<usize>,
    /// Attempts (epochs) consumed, including the successful one.
    pub attempts: usize,
}

/// In-run shrink-and-retry [`alltoallv_into`]: the non-uniform
/// counterpart of [`alltoall_resilient`](crate::api::alltoall_resilient),
/// with the same epoch discipline (attempts tag with the acknowledged
/// failure-detector version) and the same per-attempt completion
/// barrier — see that function for the protocol argument; only the
/// payload step differs (dense sub-*layout* instead of dense blocks).
///
/// `sendbuf`/`layout` still address one variable-size block per
/// *original* rank; blocks addressed to dead ranks are skipped and the
/// survivor blocks are repacked dense under a fresh [`VLayout`] before
/// each attempt. The returned layout addresses survivor-dense data.
///
/// # Errors
///
/// [`NetError::Killed`] immediately if fault injection kills *this*
/// rank; non-failure errors (including `layout` arity/fit validation)
/// immediately; the last failure verdict when `max_attempts` are
/// exhausted.
///
/// # Panics
///
/// Panics if `max_attempts == 0`.
pub fn alltoallv_resilient(
    ep: &mut bruck_net::Endpoint,
    sendbuf: &[u8],
    layout: &VLayout,
    tuning: &Tuning,
    max_attempts: usize,
) -> Result<ResilientAlltoallv, NetError> {
    alltoallv_resilient_with_policy(
        ep,
        sendbuf,
        layout,
        tuning,
        max_attempts,
        bruck_net::RecoveryPolicy::default(),
    )
}

/// [`alltoallv_resilient`] under an explicit
/// [`RecoveryPolicy`](bruck_net::RecoveryPolicy) — the policy semantics
/// (and the `WaitForRejoin`-degrades-to-`ShrinkOnly` caveat for in-run
/// retries) match
/// [`alltoall_resilient_with_policy`](crate::api::alltoall_resilient_with_policy).
///
/// # Errors
///
/// See [`alltoallv_resilient`]; additionally
/// [`NetError::RanksFailed`] when `FailFast` quorum is lost.
///
/// # Panics
///
/// Panics if `max_attempts == 0`.
pub fn alltoallv_resilient_with_policy(
    ep: &mut bruck_net::Endpoint,
    sendbuf: &[u8],
    layout: &VLayout,
    tuning: &Tuning,
    max_attempts: usize,
    policy: bruck_net::RecoveryPolicy,
) -> Result<ResilientAlltoallv, NetError> {
    use bruck_net::Endpoint;
    assert!(max_attempts >= 1, "need at least one attempt");
    let n = Endpoint::size(ep);
    if layout.len() != n {
        return Err(NetError::App(format!(
            "layout addresses {} blocks for {n} ranks",
            layout.len()
        )));
    }
    if !layout.fits(sendbuf.len()) {
        return Err(NetError::App(format!(
            "layout needs {} bytes, sendbuf has {}",
            layout.total(),
            sendbuf.len()
        )));
    }
    let me = Endpoint::rank(ep);
    let mut last_failure = None;
    for attempt in 0..max_attempts {
        let (epoch, dead) = ep.acknowledge_failures();
        if dead.contains(&me) {
            return Err(NetError::RanksFailed { ranks: dead });
        }
        crate::api::check_recovery_policy(policy, n - dead.len(), &dead)?;
        let group = bruck_net::Group::new((0..n).filter(|r| !dead.contains(r)).collect());
        let survivors = group.members().to_vec();
        // Repack the survivor blocks dense and re-derive the layout so
        // the group-sized collective sees a self-consistent (buffer,
        // layout) pair in *dense* numbering.
        let counts: Vec<usize> = survivors.iter().map(|&m| layout.count(m)).collect();
        let dense_layout = VLayout::from_counts(&counts);
        let mut dense = Vec::with_capacity(dense_layout.total());
        for &m in &survivors {
            dense.extend_from_slice(layout.slice(sendbuf, m));
        }
        let mut gc = group.bind(ep).with_epoch(epoch);
        let mut out = Vec::new();
        let outcome = alltoallv_into(&mut gc, &dense, &dense_layout, tuning, &mut out)
            .and_then(|recv| barrier_dissemination(&mut gc).map(|()| recv));
        match outcome {
            Ok(recv) => {
                return Ok(ResilientAlltoallv {
                    data: out,
                    layout: recv,
                    survivors,
                    attempts: attempt + 1,
                })
            }
            Err(e) => {
                // Same exit discipline as the uniform resilient loop: a
                // killed rank must leave, programming errors are not
                // survivable, and stale epoch-tagged traffic needs no
                // purge (its tags can never match a later attempt).
                if matches!(e, NetError::Killed { rank, .. } if rank == me) || !e.is_rank_failure()
                {
                    return Err(e);
                }
                last_failure = Some(e);
            }
        }
    }
    Err(last_failure.expect("loop body ran at least once"))
}

/// Metadata + validation + plan + payload, shared by every `alltoallv`
/// entry point.
fn dispatch<C: Comm + ?Sized>(
    ep: &mut C,
    sendbuf: &[u8],
    layout: &VLayout,
    model: &dyn CostModel,
    forced: Option<VMethod>,
    out: &mut Vec<u8>,
) -> Result<(VLayout, PlanChoice<VIndexPlan>), NetError> {
    let n = ep.size();
    if layout.len() != n {
        return Err(NetError::App(format!(
            "alltoallv needs one block per rank: layout has {}, need {n}",
            layout.len()
        )));
    }
    if !layout.fits(sendbuf.len()) {
        return Err(NetError::App(format!(
            "alltoallv: layout needs {} bytes but sendbuf has {}",
            layout.total(),
            sendbuf.len()
        )));
    }
    let trivial = PlanChoice {
        plan: VIndexPlan::Direct,
        complexity: bruck_model::Complexity::ZERO,
        predicted_time: 0.0,
    };
    if n == 1 {
        // Single rank: the block comes straight back — no metadata, no
        // clone of the caller's buffer beyond the copy into `out`.
        let blk = layout.slice(sendbuf, 0);
        out.clear();
        out.extend_from_slice(blk);
        return Ok((VLayout::from_counts(&[blk.len()]), trivial));
    }
    let rank = ep.rank();
    let matrix = vbruck::exchange_size_matrix(ep, layout)?;
    let (sizes, recv) = vbruck::validate_matrix(n, rank, &matrix)?;
    let planner = Planner::new(model);
    let choice = match forced {
        None => planner.plan_vindex(n, ep.ports(), &matrix),
        Some(method) => {
            let plan = match method {
                VMethod::Direct => VIndexPlan::Direct,
                VMethod::Padded { radix } => VIndexPlan::Padded {
                    radix: radix.clamp(2, n),
                },
                VMethod::TwoPhase { radix, quota } => {
                    // The default quota is the planner's first candidate
                    // (mean travelling count) — computed from the shared
                    // matrix, hence identical on every rank.
                    let quota = quota.or_else(|| quota_candidates(n, &matrix).first().copied());
                    VIndexPlan::TwoPhase {
                        radix: radix.clamp(2, n),
                        quota: quota.unwrap_or(usize::MAX),
                    }
                }
            };
            let complexity = planner.vindex_complexity(&plan, n, ep.ports(), &matrix);
            PlanChoice {
                plan,
                complexity,
                predicted_time: model.estimate(complexity),
            }
        }
    };
    let displs: Vec<usize> = (0..n).map(|j| layout.displ(j)).collect();
    let program = RankProgram::lower_vindex(&choice.plan, n, ep.ports(), rank, &sizes, &displs)
        .map_err(NetError::App)?;
    if out.len() != recv.total() {
        out.clear();
        out.resize(recv.total(), 0);
    }
    run_program_into(ep, &program, &sendbuf[..layout.total()], out)?;
    Ok((recv, choice))
}

/// All-gather with per-rank block sizes into a caller-owned output
/// buffer. `out` is resized to the cluster total and filled dense in
/// rank order; the returned [`VLayout`] addresses it (identical on
/// every rank).
///
/// Every round's bundle is at most two byte runs of `out`, gathered into
/// the transport's pooled staging — one copy per hop, no per-slot
/// buffers.
///
/// # Errors
///
/// [`NetError::App`] if a peer's announced sizes cannot be laid out in
/// memory; network failures propagate.
pub fn allgatherv_into<C: Comm + ?Sized>(
    ep: &mut C,
    myblock: &[u8],
    out: &mut Vec<u8>,
) -> Result<VLayout, NetError> {
    let n = ep.size();
    if n == 1 {
        out.clear();
        out.extend_from_slice(myblock);
        return Ok(VLayout::from_counts(&[myblock.len()]));
    }
    let rank = ep.rank();

    // Metadata: the uniform circulant concatenation on the size table
    // (pooled staging), validated before any payload round.
    let mut sizes_flat = ep.acquire(n * 8);
    ConcatAlgorithm::Bruck(Default::default()).run_into(
        ep,
        &(myblock.len() as u64).to_le_bytes(),
        &mut sizes_flat,
    )?;
    let mut counts = Vec::with_capacity(n);
    for src in 0..n {
        let s = u64::from_le_bytes(
            sizes_flat[src * 8..(src + 1) * 8]
                .try_into()
                .expect("8 bytes"),
        );
        counts.push(usize::try_from(s).map_err(|_| {
            NetError::App(format!(
                "allgatherv: rank {src} announced a {s}-byte block that cannot fit in usize"
            ))
        })?);
    }
    ep.recycle(sizes_flat);
    let layout = VLayout::try_from_counts(&counts)?;

    if out.len() != layout.total() {
        out.clear();
        out.resize(layout.total(), 0);
    }
    let program = RankProgram::lower_allgatherv(ep.ports(), rank, layout.counts());
    run_program_into(ep, &program, myblock, out)?;
    Ok(layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_model::cost::LinearModel;
    use bruck_net::{Cluster, ClusterConfig};

    /// Rank i's payload for rank j: (i + j + 1) % 13 bytes of content.
    fn v_payload(i: usize, j: usize) -> Vec<u8> {
        (0..(i + j + 1) % 13)
            .map(|t| crate::verify::content_byte(i, j, t))
            .collect()
    }

    /// Rank i's allgatherv block: (i * 7) % 19 bytes (some empty).
    fn g_payload(i: usize) -> Vec<u8> {
        (0..(i * 7) % 19)
            .map(|t| crate::verify::content_byte(i, 0, t))
            .collect()
    }

    fn flat_input(rank: usize, n: usize) -> (Vec<u8>, VLayout) {
        let bufs: Vec<Vec<u8>> = (0..n).map(|j| v_payload(rank, j)).collect();
        let layout = VLayout::from_counts(&bufs.iter().map(Vec::len).collect::<Vec<_>>());
        (bufs.concat(), layout)
    }

    #[test]
    fn alltoallv_into_every_method_bit_exact() {
        let methods = [
            None,
            Some(VMethod::Direct),
            Some(VMethod::Padded { radix: 2 }),
            Some(VMethod::TwoPhase {
                radix: 3,
                quota: None,
            }),
            Some(VMethod::TwoPhase {
                radix: 2,
                quota: Some(4),
            }),
        ];
        // Every member at n = 8, k = 2; planner dispatch alone over the
        // ragged shape matrix (single rank, non-powers, k > 2).
        let shapes = [1usize, 2, 5, 8, 13]
            .into_iter()
            .flat_map(|n| [1usize, 2, 3].map(|k| (n, k, None)))
            .chain(methods.map(|m| (8, 2, m)));
        for (n, k, method) in shapes {
            let cfg = ClusterConfig::new(n).with_ports(k);
            let out = Cluster::run(&cfg, move |ep| {
                let (flat, layout) = flat_input(ep.rank(), n);
                let tuning = match method {
                    None => Tuning::default(),
                    Some(m) => Tuning::builder().vmethod(m).build(),
                };
                let mut got = Vec::new();
                let recv = alltoallv_into(ep, &flat, &layout, &tuning, &mut got)?;
                Ok((got, recv))
            })
            .unwrap();
            for (rank, (got, recv)) in out.results.iter().enumerate() {
                for src in 0..n {
                    assert_eq!(
                        recv.slice(got, src),
                        &v_payload(src, rank)[..],
                        "n={n} k={k} {method:?} {src}→{rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn alltoallv_auto_reports_member_and_matches() {
        let n = 5;
        let cfg = ClusterConfig::new(n).with_ports(2);
        let out = Cluster::run(&cfg, |ep| {
            let (flat, layout) = flat_input(ep.rank(), n);
            let model = LinearModel::sp1();
            let mut got = Vec::new();
            let (recv, choice) = alltoallv_auto_into(ep, &flat, &layout, &model, &mut got)?;
            Ok((got, recv, choice))
        })
        .unwrap();
        let first_plan = &out.results[0].2.plan;
        for (rank, (got, recv, choice)) in out.results.iter().enumerate() {
            assert_eq!(&choice.plan, first_plan, "ranks disagreed on the plan");
            assert!(choice.predicted_time.is_finite());
            for src in 0..n {
                assert_eq!(recv.slice(got, src), &v_payload(src, rank)[..]);
            }
        }
    }

    #[test]
    fn alltoallv_with_empty_messages() {
        let n = 6;
        let cfg = ClusterConfig::new(n);
        let out = Cluster::run(&cfg, |ep| {
            // Only even→odd pairs carry data.
            let counts: Vec<usize> = (0..n)
                .map(|j| 4 * usize::from(ep.rank() % 2 == 0 && j % 2 == 1))
                .collect();
            let layout = VLayout::from_counts(&counts);
            let flat = vec![ep.rank() as u8; layout.total()];
            let mut got = Vec::new();
            let recv = alltoallv_into(ep, &flat, &layout, &Tuning::default(), &mut got)?;
            Ok((got, recv))
        })
        .unwrap();
        for (rank, (got, recv)) in out.results.iter().enumerate() {
            for src in 0..n {
                if src % 2 == 0 && rank % 2 == 1 {
                    assert_eq!(recv.slice(got, src), &[src as u8; 4]);
                } else {
                    assert!(recv.slice(got, src).is_empty());
                }
            }
        }
    }

    #[test]
    fn alltoallv_rejects_bad_arity() {
        let cfg = ClusterConfig::new(3);
        let err = Cluster::run(&cfg, |ep| {
            let layout = VLayout::from_counts(&[0]);
            let mut out = Vec::new();
            alltoallv_into(ep, &[], &layout, &Tuning::default(), &mut out)
        })
        .unwrap_err();
        assert!(
            matches!(&err, NetError::App(m) if m.contains("one block per rank")),
            "one block for three ranks: {err:?}"
        );
        let cfg = ClusterConfig::new(3);
        let err = Cluster::run(&cfg, |ep| {
            let layout = VLayout::from_counts(&[4, 4, 4]);
            let mut out = Vec::new();
            alltoallv_into(ep, &[0u8; 4], &layout, &Tuning::default(), &mut out)
        })
        .unwrap_err();
        assert!(
            matches!(err, NetError::App(_)),
            "undersized sendbuf: {err:?}"
        );
    }

    #[test]
    fn alltoallv_single_rank_into() {
        let cfg = ClusterConfig::new(1);
        let out = Cluster::run(&cfg, |ep| {
            let layout = VLayout::from_counts(&[5]);
            let mut got = Vec::new();
            let recv = alltoallv_into(ep, b"hello", &layout, &Tuning::default(), &mut got)?;
            Ok((got, recv.counts().to_vec()))
        })
        .unwrap();
        assert_eq!(out.results[0].0, b"hello");
        assert_eq!(out.results[0].1, vec![5]);
    }

    #[test]
    fn allgatherv_into_layout_addresses_out() {
        for &n in &[1usize, 2, 5, 7, 9, 10, 16, 21] {
            for &k in &[1usize, 2, 3, 4] {
                let cfg = ClusterConfig::new(n).with_ports(k);
                let out = Cluster::run(&cfg, |ep| {
                    let mine = g_payload(ep.rank());
                    let mut got = Vec::new();
                    let layout = allgatherv_into(ep, &mine, &mut got)?;
                    Ok((got, layout))
                })
                .unwrap();
                for (got, layout) in &out.results {
                    assert_eq!(layout.total(), got.len());
                    for src in 0..n {
                        assert_eq!(
                            layout.slice(got, src),
                            &g_payload(src)[..],
                            "n={n} k={k} src={src}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn allgatherv_round_count_stays_logarithmic() {
        // 1 metadata concat (d rounds) + d-1 doubling + 1 tail.
        let n = 16;
        let cfg = ClusterConfig::new(n);
        let out = Cluster::run(&cfg, |ep| {
            let mine = g_payload(ep.rank());
            allgatherv_into(ep, &mine, &mut Vec::new())
        })
        .unwrap();
        let c = out.metrics.global_complexity().unwrap();
        assert_eq!(c.c1, 4 + 4); // metadata d=4 + payload d=4
    }

    #[test]
    fn allgatherv_uniform_degenerates_to_same_totals() {
        // With equal sizes, the payload phase moves the same volume as the
        // uniform circulant algorithm.
        let n = 9;
        let b = 8;
        let cfg = ClusterConfig::new(n).with_ports(2);
        let out = Cluster::run(&cfg, |ep| {
            let mine = vec![ep.rank() as u8; b];
            allgatherv_into(ep, &mine, &mut Vec::new())
        })
        .unwrap();
        let c = out.metrics.global_complexity().unwrap();
        let uniform = bruck_sched::ScheduleStats::of(
            &ConcatAlgorithm::Bruck(Default::default()).plan(n, b, 2),
        )
        .complexity;
        let metadata = bruck_sched::ScheduleStats::of(
            &ConcatAlgorithm::Bruck(Default::default()).plan(n, 8, 2),
        )
        .complexity;
        assert_eq!(c.c1, uniform.c1 + metadata.c1);
        // Payload volume matches the uniform algorithm exactly (the tail
        // is column-aligned; with b=8=block it coincides with greedy).
        assert_eq!(c.c2, uniform.c2 + metadata.c2);
    }

    #[test]
    fn forced_direct_round_count_matches_plan() {
        // Metadata ⌈log₃ 8⌉ = 2 concat rounds + ⌈7/2⌉ = 4 direct rounds.
        let n = 8;
        let cfg = ClusterConfig::new(n).with_ports(2);
        let out = Cluster::run(&cfg, |ep| {
            let flat = vec![ep.rank() as u8; n * 16];
            let layout = VLayout::from_counts(&[16; 8]);
            let tuning = Tuning::builder().vmethod(VMethod::Direct).build();
            let mut got = Vec::new();
            alltoallv_into(ep, &flat, &layout, &tuning, &mut got)?;
            Ok(())
        })
        .unwrap();
        let c = out.metrics.global_complexity().unwrap();
        assert_eq!(c.c1, 2 + 4);
    }
}

//! Execute a lowered [`RankProgram`] over any [`Comm`].
//!
//! `bruck_model::program` lowers an [`IndexPlan`] to pure data — local
//! permutations and k-port rounds whose block slots are closed-form
//! descriptors, consumed here as contiguous runs. This module is the
//! threaded-substrate interpreter for that data: each op maps onto the
//! same [`Comm`] surface the hand-written executors use (`round_gather`
//! for the exchanges, pooled scratch for the permutes), so a program runs
//! on a full [`Endpoint`](bruck_net::Endpoint), on a
//! [`GroupComm`](bruck_net::GroupComm), or on any future context — and
//! the event-driven TCP executor in `bruck-net` interprets the *same*
//! programs without threads. One lowering, two substrates, bit-identical
//! results; the integration tests assert exactly that.

use bruck_model::planner::IndexPlan;
use bruck_model::program::{ProgramOp, RankProgram};
use bruck_net::{Comm, GatherSendSpec, NetError, RecvSpec};

use crate::blocks::unpack_spans;

/// Lower `plan` for this rank and execute it (see [`run_program_into`]).
///
/// # Errors
///
/// [`NetError::App`] when the plan has no lowering (mixed radices, a
/// `node_size` that does not divide `n`) or on buffer-size mismatches;
/// network failures propagate.
pub fn run_plan_into<C: Comm + ?Sized>(
    ep: &mut C,
    plan: &IndexPlan,
    sendbuf: &[u8],
    block: usize,
    out: &mut [u8],
) -> Result<(), NetError> {
    let program =
        RankProgram::lower(plan, ep.size(), ep.rank(), block, ep.ports()).map_err(NetError::App)?;
    run_program_into(ep, &program, sendbuf, out)
}

/// Interpret one rank's program against the communication context.
///
/// # Errors
///
/// [`NetError::App`] on header or buffer-size mismatches; network
/// failures propagate.
pub fn run_program_into<C: Comm + ?Sized>(
    ep: &mut C,
    program: &RankProgram,
    sendbuf: &[u8],
    out: &mut [u8],
) -> Result<(), NetError> {
    let n = program.n;
    let block = program.block;
    if ep.size() != n || ep.rank() != program.rank {
        return Err(NetError::App(format!(
            "program for rank {}/{} run on rank {}/{}",
            program.rank,
            n,
            ep.rank(),
            ep.size()
        )));
    }
    if sendbuf.len() != n * block || out.len() != n * block {
        return Err(NetError::App(format!(
            "program buffers must be n·b = {} bytes (send {}, out {})",
            n * block,
            sendbuf.len(),
            out.len()
        )));
    }
    if n == 1 {
        out.copy_from_slice(sendbuf);
        return Ok(());
    }
    program.check_shape().map_err(NetError::App)?;
    let mut work = ep.acquire(n * block);
    work[..n * block].copy_from_slice(sendbuf);
    let mut scratch = ep.acquire(n * block);
    // Reused across rounds: all sends' byte spans, and where each ends.
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    for op in &program.ops {
        match op {
            ProgramOp::Permute(perm) => {
                perm.apply(block, &work, &mut scratch);
                std::mem::swap(&mut work, &mut scratch);
                ep.charge_copy((n * block) as u64);
            }
            ProgramOp::Round(round) => {
                spans.clear();
                ends.clear();
                for s in &round.sends {
                    spans.extend(s.slots.runs(block));
                    ends.push(spans.len());
                }
                let mut sends: Vec<GatherSendSpec<'_>> = Vec::with_capacity(ends.len());
                let mut from = 0;
                for (s, &end) in round.sends.iter().zip(&ends) {
                    sends.push(GatherSendSpec {
                        to: s.peer,
                        tag: s.tag,
                        src: &work,
                        spans: &spans[from..end],
                    });
                    from = end;
                }
                let recvs: Vec<RecvSpec> = round
                    .recvs
                    .iter()
                    .map(|r| RecvSpec {
                        from: r.peer,
                        tag: r.tag,
                    })
                    .collect();
                let msgs = ep.round_gather(&sends, &recvs)?;
                let mut received = 0u64;
                for (r, msg) in round.recvs.iter().zip(&msgs) {
                    if msg.payload.len() != r.slots.blocks() * block {
                        return Err(NetError::App(format!(
                            "rank {} tag {}: {} payload bytes for {} slots",
                            program.rank,
                            r.tag,
                            msg.payload.len(),
                            r.slots.blocks()
                        )));
                    }
                    spans.clear();
                    spans.extend(r.slots.runs(block));
                    unpack_spans(&mut work, &spans, &msg.payload);
                    received += msg.payload.len() as u64;
                }
                ep.charge_copy(received);
                for msg in msgs {
                    ep.recycle(msg.payload);
                }
            }
        }
    }
    out.copy_from_slice(&work[..n * block]);
    ep.charge_copy((n * block) as u64);
    ep.recycle(work);
    ep.recycle(scratch);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use bruck_net::{Cluster, ClusterConfig};

    fn run_plan(plan: &IndexPlan, n: usize, block: usize, ports: usize) -> Vec<Vec<u8>> {
        let cfg = ClusterConfig::new(n).with_ports(ports);
        let label = plan.label();
        Cluster::run(&cfg, |ep| {
            let input = verify::index_input(ep.rank(), n, block);
            let mut out = vec![0u8; n * block];
            run_plan_into(ep, plan, &input, block, &mut out)?;
            Ok(out)
        })
        .unwrap_or_else(|e| panic!("{label} n={n} b={block} k={ports}: {e}"))
        .results
    }

    #[test]
    fn programs_match_oracle_on_the_threaded_substrate() {
        for &(n, k) in &[(5usize, 1usize), (8, 2), (12, 1)] {
            for plan in [IndexPlan::Radix(2), IndexPlan::Radix(3), IndexPlan::Direct] {
                let results = run_plan(&plan, n, 3, k);
                for (rank, r) in results.iter().enumerate() {
                    assert_eq!(
                        r,
                        &verify::index_expected(rank, n, 3),
                        "{} n={n} k={k} rank={rank}",
                        plan.label()
                    );
                }
            }
        }
    }

    #[test]
    fn hierarchical_program_matches_oracle_and_dedicated_executor() {
        let n = 12;
        let block = 4;
        let plan = IndexPlan::Hierarchical {
            node_size: 3,
            radix_local: 2,
            radix_remote: 2,
        };
        let via_program = run_plan(&plan, n, block, 1);
        let cfg = ClusterConfig::new(n);
        let dedicated = Cluster::run(&cfg, move |ep| {
            let input = verify::index_input(ep.rank(), n, block);
            crate::index::hierarchical::run(ep, &input, block, 3, 2, 2)
        })
        .unwrap()
        .results;
        for (rank, (a, b)) in via_program.iter().zip(&dedicated).enumerate() {
            assert_eq!(a, &verify::index_expected(rank, n, block), "rank {rank}");
            assert_eq!(a, b, "program vs dedicated executor, rank {rank}");
        }
    }

    #[test]
    fn unlowerable_plan_is_a_clean_error() {
        let cfg = ClusterConfig::new(4);
        let err = Cluster::run(&cfg, |ep| {
            let input = verify::index_input(ep.rank(), 4, 2);
            let mut out = vec![0u8; 8];
            run_plan_into(ep, &IndexPlan::Mixed(vec![2, 2]), &input, 2, &mut out)
        })
        .unwrap_err();
        assert!(matches!(err, NetError::App(_)), "{err}");
    }
}

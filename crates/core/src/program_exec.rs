//! Run a lowered [`RankProgram`] over any [`Comm`].
//!
//! `bruck_model::program` lowers an [`IndexPlan`] to pure data and
//! interprets it in one place, the [`RankMachine`]. This module is the
//! machine's threaded-substrate driver, and the only way the Bruck family
//! (uniform radix, mixed radix, two-level) reaches the wire on that
//! substrate: [`IndexAlgorithm::BruckRadix`](crate::index::IndexAlgorithm)
//! and [`alltoall`](crate::api::alltoall)'s planner dispatch both end
//! here. Each round the machine yields is one `round_gather`, and its
//! local passes move the data between `out` and one pooled work buffer,
//! so a program runs on a full [`Endpoint`](bruck_net::Endpoint), on a
//! [`GroupComm`](bruck_net::GroupComm), or on any future context — and
//! the TCP fabric and `simulate` drive the *same* machine. One
//! interpreter, three substrates, bit-identical results; the tests
//! assert exactly that.
//!
//! A radix program costs what the paper's three phases cost and no
//! more: its first permute (the rotation) reads the caller's `sendbuf`,
//! its last (the inverse placement) writes the caller's `out`, so the
//! local work is two passes over `n·b` bytes plus one scatter of every
//! received byte — each charged to the virtual clock as it happens.

use bruck_model::planner::IndexPlan;
use bruck_model::program::{Action, RankMachine, RankProgram};
use bruck_net::{Comm, GatherSendSpec, NetError, RecvSpec};

/// Lower `plan` for this rank and execute it into a fresh buffer.
///
/// Thin allocating wrapper over [`run_plan_into`].
///
/// # Errors
///
/// See [`run_plan_into`].
pub fn run_plan<C: Comm + ?Sized>(
    ep: &mut C,
    plan: &IndexPlan,
    sendbuf: &[u8],
    block: usize,
) -> Result<Vec<u8>, NetError> {
    let mut out = vec![0u8; sendbuf.len()];
    run_plan_into(ep, plan, sendbuf, block, &mut out)?;
    Ok(out)
}

/// Lower `plan` for this rank and drive its [`RankMachine`] against the
/// communication context: each round's sends and receives are one
/// `round_gather`.
///
/// The data lives in one of two `n·b` buffers at any time — `out` and a
/// single pooled work buffer — and every local pass moves it to the
/// other one. The parity of [`RankProgram::passes`] decides which of the
/// two the machine starts on, so that the last pass lands in `out`; the
/// first reads `sendbuf` directly.
///
/// # Errors
///
/// [`NetError::App`] when the plan has no lowering at this size (a radix
/// below 2, a mixed vector that does not cover `n`, a `node_size` that
/// does not divide `n`), on buffer-size mismatches and on a delivery the
/// machine refuses; network failures propagate.
pub fn run_plan_into<C: Comm + ?Sized>(
    ep: &mut C,
    plan: &IndexPlan,
    sendbuf: &[u8],
    block: usize,
    out: &mut [u8],
) -> Result<(), NetError> {
    let program =
        RankProgram::lower(plan, ep.size(), ep.rank(), block, ep.ports()).map_err(NetError::App)?;
    // The machine checks that every buffer is n·b bytes.
    let mut work = ep.acquire(out.len());
    let outcome = interpret(ep, &program, sendbuf, out, &mut work);
    ep.recycle(work);
    outcome
}

/// The driver loop of [`run_plan_into`], split out so the work buffer
/// is recycled on every exit.
fn interpret<C: Comm + ?Sized>(
    ep: &mut C,
    program: &RankProgram,
    sendbuf: &[u8],
    out: &mut [u8],
    work: &mut [u8],
) -> Result<(), NetError> {
    // An odd number of passes must start by writing `out`: lend it as
    // the scratch.
    let (start, mut scratch) = if program.passes() % 2 == 1 {
        (work, out)
    } else {
        (out, work)
    };
    let mut m = RankMachine::new(program, sendbuf, start).map_err(NetError::App)?;
    // Reused across rounds: all sends' byte spans, and where each ends.
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    loop {
        match m.step(&mut scratch) {
            Action::Local => ep.charge_copy(sendbuf.len() as u64),
            Action::Send(round) => {
                spans.clear();
                ends.clear();
                for s in &round.sends {
                    spans.extend(m.spans(s));
                    ends.push(spans.len());
                }
                let mut from = 0;
                let sends: Vec<GatherSendSpec<'_>> = (round.sends.iter().zip(&ends))
                    .map(|(s, &end)| GatherSendSpec {
                        to: s.peer,
                        tag: s.tag,
                        src: m.buffer(),
                        spans: &spans[std::mem::replace(&mut from, end)..end],
                    })
                    .collect();
                let recvs: Vec<RecvSpec> = (round.recvs.iter())
                    .map(|r| RecvSpec {
                        from: r.peer,
                        tag: r.tag,
                    })
                    .collect();
                let msgs = ep.round_gather(&sends, &recvs)?;
                // Only the receive side is a local copy to charge: the
                // send side's single staging gather is the transport's
                // own, already accounted by the endpoint.
                let mut received = 0u64;
                for (r, msg) in round.recvs.iter().zip(msgs) {
                    m.deliver(r.peer, r.tag, &msg.payload)
                        .map_err(NetError::App)?;
                    received += msg.payload.len() as u64;
                    ep.recycle(msg.payload);
                }
                ep.charge_copy(received);
            }
            Action::Await(_) => return Err(NetError::App("round_gather came back short".into())),
            Action::Done => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexAlgorithm;
    use crate::verify;
    use bruck_model::cost::{CostModel, HierarchicalModel, Sp1Model};
    use bruck_model::mixed_radix::MixedRadix;
    use bruck_model::program::{simulate, ProgramOp};
    use bruck_model::tuning::index_complexity_kport;
    use bruck_net::{Cluster, ClusterConfig, RunOutput};
    use bruck_sched::{Schedule, ScheduleStats};
    use std::sync::Arc;

    fn run_on(cfg: &ClusterConfig, plan: &IndexPlan, block: usize) -> RunOutput<Vec<u8>> {
        let n = cfg.n;
        Cluster::run(cfg, |ep| {
            let input = verify::index_input(ep.rank(), n, block);
            run_plan(ep, plan, &input, block)
        })
        .unwrap_or_else(|e| panic!("{} n={n} b={block}: {e}", plan.label()))
    }

    /// Run `plan` on a threaded cluster and hold every rank's result to
    /// the transpose oracle and to the same programs run in memory.
    fn run_cluster(plan: &IndexPlan, n: usize, block: usize, ports: usize) {
        let out = run_on(&ClusterConfig::new(n).with_ports(ports), plan, block);
        let programs: Vec<RankProgram> = (0..n)
            .map(|rank| RankProgram::lower(plan, n, rank, block, ports).unwrap())
            .collect();
        let inputs: Vec<Vec<u8>> = (0..n).map(|r| verify::index_input(r, n, block)).collect();
        let simulated = simulate(&programs, &inputs, |_, _, _| {}).expect("simulate");
        for (rank, result) in out.results.iter().enumerate() {
            let expected = verify::index_expected(rank, n, block);
            assert_eq!(
                result,
                &expected,
                "{} n={n} b={block} k={ports} rank={rank}: first bad block {:?}",
                plan.label(),
                verify::first_block_mismatch(result, &expected, block)
            );
        }
        assert_eq!(
            out.results,
            simulated,
            "{} n={n} b={block} k={ports}",
            plan.label()
        );
    }

    fn two_level(node_size: usize, radix_local: usize, radix_remote: usize) -> IndexPlan {
        IndexPlan::Hierarchical {
            node_size,
            radix_local,
            radix_remote,
        }
    }

    fn app_error(n: usize, plan: IndexPlan, sendbuf_len: usize) -> String {
        let err = Cluster::run(&ClusterConfig::new(n), |ep| {
            run_plan(ep, &plan, &vec![0u8; sendbuf_len], 2)
        })
        .unwrap_err();
        match err {
            NetError::App(msg) => msg,
            other => panic!("expected App error, got {other}"),
        }
    }

    #[test]
    fn radix_correct_all_radices_small() {
        run_cluster(&IndexPlan::Radix(2), 5, 3, 1);
        // r = n: the direct case, one subphase of n − 1 steps.
        run_cluster(&IndexPlan::Radix(5), 5, 3, 1);
        for n in [2usize, 3, 4, 6, 7, 8] {
            for r in 2..=n {
                run_cluster(&IndexPlan::Radix(r), n, 2, 1);
            }
        }
    }

    #[test]
    fn radix_correct_multiport() {
        for k in [2usize, 3] {
            for n in [6usize, 9, 10] {
                for r in [2usize, 3, 4] {
                    run_cluster(&IndexPlan::Radix(r), n, 2, k);
                }
            }
        }
    }

    #[test]
    fn radix_edge_shapes() {
        // A radix above n is clamped; zero-byte blocks; one processor.
        run_cluster(&IndexPlan::Radix(64), 5, 2, 1);
        run_cluster(&IndexPlan::Radix(2), 4, 0, 1);
        run_cluster(&IndexPlan::Radix(2), 1, 4, 1);
    }

    #[test]
    fn direct_and_hypercube_programs_match_oracle() {
        // Programs that open with a round (no leading permute).
        for &(n, k) in &[(5usize, 1usize), (8, 2), (12, 1)] {
            run_cluster(&IndexPlan::Direct, n, 3, k);
        }
        run_cluster(&IndexPlan::Hypercube, 8, 3, 1);
    }

    #[test]
    fn mixed_correct_small_vectors() {
        run_cluster(&IndexPlan::Mixed(vec![2, 3]), 6, 3, 1);
        run_cluster(&IndexPlan::Mixed(vec![3, 2]), 6, 3, 1);
        run_cluster(&IndexPlan::Mixed(vec![2, 2, 3]), 12, 2, 1);
        run_cluster(&IndexPlan::Mixed(vec![2, 3, 5]), 30, 1, 1);
        run_cluster(&IndexPlan::Mixed(vec![2, 2, 3, 3]), 33, 2, 1);
        // Multi-port, and an oversized vector trimmed like the model's.
        run_cluster(&IndexPlan::Mixed(vec![3, 4]), 12, 2, 2);
        run_cluster(&IndexPlan::Mixed(vec![4, 5]), 20, 2, 3);
        run_cluster(&IndexPlan::Mixed(vec![2, 3, 5, 7]), 6, 2, 1);
    }

    #[test]
    fn hierarchical_correct_various_shapes() {
        run_cluster(&two_level(2, 2, 2), 8, 3, 1);
        run_cluster(&two_level(3, 2, 4), 12, 2, 1);
        run_cluster(&two_level(4, 4, 4), 16, 2, 1);
        run_cluster(&two_level(6, 3, 3), 18, 1, 1);
        // Degenerate hierarchies run flat: node_size 1, and one node.
        run_cluster(&two_level(1, 2, 2), 6, 2, 1);
        run_cluster(&two_level(6, 2, 2), 6, 2, 1);
    }

    #[test]
    fn unrunnable_calls_are_structured_errors() {
        assert!(app_error(2, IndexPlan::Radix(2), 3).contains("n·b"));
        assert!(app_error(4, IndexPlan::Radix(1), 8).contains("radix must be ≥ 2"));
        assert!(app_error(10, IndexPlan::Mixed(vec![2, 2]), 20).contains("does not cover"));
        assert!(app_error(7, two_level(3, 2, 2), 14).contains("not divisible"));
    }

    #[test]
    fn radix_schedule_matches_closed_form_complexity() {
        for n in [2usize, 5, 8, 13, 16, 27, 64] {
            for r in [2usize, 3, 4, 8, 64] {
                for k in [1usize, 2, 3] {
                    let schedule = IndexAlgorithm::BruckRadix(r).plan(n, 4, k);
                    schedule
                        .validate()
                        .unwrap_or_else(|e| panic!("invalid plan n={n} r={r} k={k}: {e}"));
                    let stats = ScheduleStats::of(&schedule);
                    assert_eq!(
                        stats.complexity,
                        index_complexity_kport(n, r.min(n), 4, k),
                        "n={n} r={r} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_schedule_matches_model_complexity() {
        for (n, radices) in [
            (33usize, vec![2usize, 2, 3, 3]),
            (30, vec![2, 3, 5]),
            (12, vec![4, 3]),
        ] {
            for k in [1usize, 2] {
                let s = Schedule::of_index_plan(&IndexPlan::Mixed(radices.clone()), n, 4, k)
                    .expect("covering");
                s.validate().unwrap();
                assert_eq!(
                    ScheduleStats::of(&s).complexity,
                    MixedRadix::new(n, &radices).complexity(4, k),
                    "n={n} radices={radices:?} k={k}"
                );
            }
        }
        // Same wire behaviour as the §3 algorithm for (r, r, …).
        assert_eq!(
            Schedule::of_index_plan(&IndexPlan::Mixed(vec![3, 3]), 9, 2, 1),
            Ok(IndexAlgorithm::BruckRadix(3).plan(9, 2, 1))
        );
    }

    #[test]
    fn executed_trace_is_the_schedule() {
        for plan in [IndexPlan::Radix(3), IndexPlan::Mixed(vec![2, 2, 3])] {
            let (n, block) = (12, 4);
            let out = run_on(&ClusterConfig::new(n).with_trace(), &plan, block);
            let planned = Schedule::of_index_plan(&plan, n, block, 1).unwrap();
            assert_eq!(
                out.metrics.global_complexity().unwrap(),
                ScheduleStats::of(&planned).complexity,
                "{}",
                plan.label()
            );
            let traced = Schedule::from_trace(&out.trace.unwrap(), n, 1);
            assert_eq!(traced, planned.without_empty_rounds(), "{}", plan.label());
        }
    }

    /// A radix run's local work under a copy-charging model, in closed
    /// form: the rotation and the inverse placement — two passes over
    /// `n·b` bytes — plus one scatter of every received byte. The
    /// schedule is translation-invariant, so every rank is charged the
    /// same amount at the same points and the makespan moves by exactly
    /// that much; a third whole-buffer pass (a copy-in before the
    /// rotation, a copy-out after the placement) fails here by name.
    #[test]
    fn radix_run_charges_two_passes_plus_received_bytes() {
        let per_byte = 0.025e-6;
        for &(n, r, block) in &[(8usize, 2usize, 64usize), (12, 3, 40), (5, 5, 16)] {
            let plan = IndexPlan::Radix(r);
            let makespan = |model: Sp1Model| {
                let model: Arc<dyn CostModel> = Arc::new(model);
                run_on(&ClusterConfig::new(n).with_cost(model), &plan, block).virtual_makespan()
            };
            let charged = makespan(Sp1Model::calibrated().with_copy_per_byte(per_byte))
                - makespan(Sp1Model::calibrated());
            let program = RankProgram::lower(&plan, n, 0, block, 1).unwrap();
            let received: usize = program
                .ops
                .iter()
                .map(|op| match op {
                    ProgramOp::Round(round) => round.recvs.iter().map(|x| x.slots.blocks()).sum(),
                    ProgramOp::Permute(_) => 0,
                })
                .sum();
            let expected = per_byte * (2 * n * block + received * block) as f64;
            assert!(
                (charged - expected).abs() <= 1e-9 * expected,
                "n={n} r={r} b={block}: charged {charged:e} s, closed form {expected:e} s"
            );
        }
    }

    #[test]
    fn two_level_beats_flat_on_a_two_level_machine() {
        // 4 nodes × 4 cores, fast local / slow remote: the two-level
        // composition must beat the flat r=2 index in virtual time.
        let (n, node_size, block) = (16, 4, 64);
        let model: Arc<dyn CostModel> = Arc::new(HierarchicalModel::smp_cluster(node_size));
        let cfg = ClusterConfig::new(n).with_cost(model);
        let flat = run_on(&cfg, &IndexPlan::Radix(2), block).virtual_makespan();
        let hier = run_on(&cfg, &two_level(node_size, 2, 2), block).virtual_makespan();
        assert!(
            hier < flat,
            "hierarchical {hier} s should beat flat {flat} s"
        );
    }

    #[test]
    fn two_level_remote_traffic_stays_below_flat() {
        // The lane-group index with radix 2 relays bundles through
        // intermediate nodes, but never more bytes across the inter-node
        // boundary than the flat algorithm on the same machine.
        let (n, node_size, block) = (12, 3, 5);
        let remote_bytes = |plan: IndexPlan| -> u64 {
            let out = run_on(&ClusterConfig::new(n).with_trace(), &plan, block);
            let events = out.trace.unwrap().snapshot();
            let remote = events
                .iter()
                .filter(|e| e.src / node_size != e.dst / node_size);
            remote.map(|e| e.bytes).sum()
        };
        let hier = remote_bytes(two_level(node_size, 2, 2));
        let flat = remote_bytes(IndexPlan::Radix(2));
        assert!(
            hier <= flat,
            "hierarchical remote {hier} vs flat remote {flat}"
        );
    }
}

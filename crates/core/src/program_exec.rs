//! Run a lowered [`RankProgram`] over any [`Comm`].
//!
//! `bruck_model::program` lowers an [`IndexPlan`] or a concatenation to
//! pure data and interprets it in one place, the [`RankMachine`]. This
//! module is the machine's threaded-substrate driver, and the way every
//! lowered algorithm reaches the wire on that substrate:
//! [`IndexAlgorithm`](crate::index::IndexAlgorithm)'s radix and direct
//! members, [`alltoall`](crate::api::alltoall)'s planner dispatch and
//! every [`ConcatAlgorithm`](crate::concat::ConcatAlgorithm) end here.
//! Each round the machine yields is one `round_gather`, and its local
//! passes move the data between `out` and one pooled work buffer, so a
//! program runs on any [`Comm`] — and the TCP fabric and `simulate` drive
//! the *same* machine. One interpreter, three substrates, bit-identical
//! results; the tests assert exactly that.
//!
//! A program costs what its algorithm's local phases cost and no more:
//! a radix program's first permute (the rotation) reads the caller's
//! `sendbuf` and its last (the inverse placement) writes `out` — two
//! passes over `n·b` bytes — and a direct exchange places one block and
//! sends straight from `sendbuf`; each then scatters every received byte
//! once, charged to the virtual clock as it happens.

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

/// Lower `plan` for this rank and [run](run_program_into) it.
///
/// # Errors
///
/// [`NetError::App`] when the plan has no lowering at this size (a radix
/// below 2, a mixed vector that does not cover `n`, a `node_size` that
/// does not divide `n`); otherwise see [`run_program_into`].
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

/// Drive this rank's `program` [`RankMachine`] against the communication
/// context: each round's sends and receives are one `round_gather`.
///
/// The data lives in one of two `n·b` buffers at any time — `out` and a
/// single pooled work buffer — and every permute moves it to the other
/// one. The parity of [`RankProgram::passes`] decides which of the two
/// the machine starts on, so that the last pass lands in `out`; the first
/// reads `input` directly, and a program with no pass never takes the
/// work buffer.
///
/// # Errors
///
/// [`NetError::App`] on buffer-size mismatches and on a delivery the
/// machine refuses; network failures propagate.
pub fn run_program_into<C: Comm + ?Sized>(
    ep: &mut C,
    program: &RankProgram,
    input: &[u8],
    out: &mut [u8],
) -> Result<(), NetError> {
    // The machine checks that every buffer has its size.
    let mut work = ep.acquire(if program.passes() > 0 { out.len() } else { 0 });
    let outcome = interpret(ep, program, input, out, &mut work);
    ep.recycle(work);
    outcome
}

/// The driver loop of [`run_program_into`], split out so the work
/// buffer is recycled on every exit.
fn interpret<C: Comm + ?Sized>(
    ep: &mut C,
    program: &RankProgram,
    input: &[u8],
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
    let mut m = RankMachine::new(program, input, start).map_err(NetError::App)?;
    // Reused across rounds: all sends' byte spans, and where each ends.
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    loop {
        match m.step(&mut scratch) {
            Action::Local(copied) => ep.charge_copy(copied as u64),
            Action::Send(round) => {
                spans.clear();
                ends.clear();
                for s in &round.sends {
                    s.span
                        .for_each_run(program.block, |at, len| spans.push((at, len)));
                    ends.push(spans.len());
                }
                let mut from = 0;
                let sends: Vec<GatherSendSpec<'_>> = (round.sends.iter().zip(&ends))
                    .map(|(s, &end)| GatherSendSpec {
                        to: s.peer,
                        tag: s.tag,
                        src: m.source(s),
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
    use crate::concat::ConcatAlgorithm;
    use crate::index::IndexAlgorithm;
    use crate::verify;
    use bruck_model::bounds::{concat_bounds, index_bounds};
    use bruck_model::cost::{CostModel, HierarchicalModel, Sp1Model};
    use bruck_model::mixed_radix::MixedRadix;
    use bruck_model::partition::Preference;
    use bruck_model::program::{simulate, ProgramOp};
    use bruck_model::radix::ceil_log;
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
    fn run_cluster(plan: &IndexPlan, n: usize, block: usize, ports: usize) -> RunOutput<Vec<u8>> {
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
        out
    }

    /// `algo`'s programs at `(n, b, k)` run in memory, each rank's output.
    fn simulate_concat(algo: ConcatAlgorithm, n: usize, b: usize, k: usize) -> Vec<Vec<u8>> {
        let lowering = algo.lower(n, b, k).expect("lowerable");
        let programs: Vec<RankProgram> = (0..n).map(|rank| lowering.program(rank)).collect();
        let inputs: Vec<Vec<u8>> = (0..n).map(|r| verify::concat_input(r, b)).collect();
        simulate(&programs, &inputs, |_, _, _| {})
            .unwrap_or_else(|e| panic!("{} n={n} b={b} k={k}: {e}", algo.name()))
    }

    /// Every concatenation at `n`: both circulant preferences and the
    /// gather + broadcast at any `k`, the one-port ring, and recursive
    /// doubling at powers of two.
    fn concat_algorithms(n: usize) -> Vec<ConcatAlgorithm> {
        let mut algos = vec![
            ConcatAlgorithm::Bruck(Preference::Rounds),
            ConcatAlgorithm::Bruck(Preference::Bytes),
            ConcatAlgorithm::GatherBroadcast,
            ConcatAlgorithm::Ring,
        ];
        if n.is_power_of_two() {
            algos.push(ConcatAlgorithm::RecursiveDoubling);
        }
        algos
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
        // Out-of-place programs: one place, then sends from the input.
        for &(n, k) in &[(1usize, 1usize), (2, 1), (5, 1), (9, 1), (8, 2), (12, 1)] {
            run_cluster(&IndexPlan::Direct, n, 3, k);
        }
        // ⌈9/k⌉ rounds on ten ranks.
        for k in [2usize, 4] {
            let c = run_cluster(&IndexPlan::Direct, 10, 2, k)
                .metrics
                .global_complexity();
            assert_eq!(c.unwrap().c1, 9usize.div_ceil(k) as u64, "k={k}");
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
        let err = Cluster::run(&ClusterConfig::new(5), |ep| {
            ConcatAlgorithm::RecursiveDoubling.run(ep, &[1])
        });
        assert!(matches!(err, Err(NetError::App(e)) if e.contains("power-of-two")));
    }

    #[test]
    fn radix_schedule_matches_closed_form_complexity() {
        for n in [2usize, 5, 7, 8, 13, 16, 27, 33, 64] {
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
            // The direct exchange: transfer-optimal within one round's
            // rounding, ⌈(n−1)/k⌉ rounds.
            for k in [1usize, 2, 3] {
                let direct = IndexAlgorithm::Direct.plan(n, 5, k);
                direct.validate().unwrap();
                let c = ScheduleStats::of(&direct).complexity;
                let steps = (n - 1).div_ceil(k) as u64;
                assert_eq!(c.c1, steps, "direct n={n} k={k}");
                assert!(c.c2 <= steps * 5 && c.c2 >= index_bounds(n, k, 5).c2);
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

    /// Seconds of copying a run of `plan` is charged at this rate: the
    /// makespan with and without a copy-charging model.
    fn copy_charge(plan: &IndexPlan, n: usize, k: usize, block: usize, per_byte: f64) -> f64 {
        let makespan = |model: Sp1Model| {
            let model: Arc<dyn CostModel> = Arc::new(model);
            let cfg = ClusterConfig::new(n).with_ports(k).with_cost(model);
            run_on(&cfg, plan, block).virtual_makespan()
        };
        makespan(Sp1Model::calibrated().with_copy_per_byte(per_byte))
            - makespan(Sp1Model::calibrated())
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
            let charged = copy_charge(&plan, n, 1, block, per_byte);
            let program = RankProgram::lower(&plan, n, 0, block, 1).unwrap();
            let received: usize = program
                .ops
                .iter()
                .map(|op| match op {
                    ProgramOp::Round(round) => round.recvs.iter().map(|x| x.span.bytes(1)).sum(),
                    _ => 0,
                })
                .sum();
            let expected = per_byte * (2 * n * block + received * block) as f64;
            assert!(
                (charged - expected).abs() <= 1e-9 * expected,
                "n={n} r={r} b={block}: charged {charged:e} s, closed form {expected:e} s"
            );
        }
    }

    /// The direct exchange's local work in the same closed form: placing
    /// its own block and one scatter of every received byte — no pass
    /// over the `n·b` buffer at all.
    #[test]
    fn direct_run_charges_its_block_plus_received_bytes() {
        let per_byte = 0.025e-6;
        for &(n, k, block) in &[(8usize, 1usize, 64usize), (12, 3, 40), (5, 2, 16)] {
            let charged = copy_charge(&IndexPlan::Direct, n, k, block, per_byte);
            let expected = per_byte * (block + (n - 1) * block) as f64;
            assert!(
                (charged - expected).abs() <= 1e-9 * expected,
                "n={n} k={k} b={block}: charged {charged:e} s, closed form {expected:e} s"
            );
        }
    }

    /// Every concatenation's programs, run in memory, leave the oracle's
    /// concatenation on every rank: n ≤ 64 and four larger sizes, k ≤ 4
    /// (the one-port ring and recursive doubling at k = 1; their programs
    /// do not read k), both last-round preferences, zero-byte to 16-byte
    /// blocks.
    #[test]
    fn concat_programs_simulate_to_the_oracle() {
        let mut runs = 0usize;
        for n in (1..=64usize).chain([127, 128, 200, 256]) {
            for algo in concat_algorithms(n) {
                let one_port = matches!(
                    algo,
                    ConcatAlgorithm::Ring | ConcatAlgorithm::RecursiveDoubling
                );
                for k in 1..=if one_port { 1 } else { 4 } {
                    for b in [0usize, 1, 2, 3, 5, 16] {
                        let expected = verify::concat_expected(n, b);
                        for (rank, out) in simulate_concat(algo, n, b, k).iter().enumerate() {
                            assert_eq!(
                                out,
                                &expected,
                                "{} n={n} b={b} k={k} rank={rank}",
                                algo.name()
                            );
                        }
                        runs += 1;
                    }
                }
            }
        }
        assert!(runs > 5_000, "sweep shrank to {runs} runs");
    }

    /// On a sample, the threaded run of every concatenation is its
    /// simulation, rank for rank, and the oracle.
    #[test]
    fn concat_threaded_runs_equal_their_simulation() {
        for &(n, b, k) in &[
            (1usize, 3usize, 1usize),
            (2, 1, 1),
            (5, 1, 1),
            (10, 3, 3),
            (16, 4, 2),
            (21, 5, 4),
            (32, 2, 1),
        ] {
            for algo in concat_algorithms(n) {
                let cfg = ClusterConfig::new(n).with_ports(k);
                let out =
                    Cluster::run(&cfg, |ep| algo.run(ep, &verify::concat_input(ep.rank(), b)))
                        .unwrap_or_else(|e| panic!("{} n={n} b={b} k={k}: {e}", algo.name()));
                assert_eq!(
                    out.results,
                    simulate_concat(algo, n, b, k),
                    "{} n={n} b={b} k={k}",
                    algo.name()
                );
                assert!(out
                    .results
                    .iter()
                    .all(|r| r == &verify::concat_expected(n, b)));
            }
        }
    }

    /// The baselines' schedules, read off their programs, have their
    /// closed forms: the ring is transfer-optimal in `n − 1` rounds,
    /// recursive doubling optimal in both measures, gather + broadcast
    /// twice the tree depth.
    #[test]
    fn concat_baseline_schedules_have_their_closed_forms() {
        let stats = |algo: ConcatAlgorithm, n, k| {
            let s = algo.plan(n, 6, k);
            s.validate().unwrap();
            ScheduleStats::of(&s)
        };
        for n in [3usize, 9, 20] {
            let c = stats(ConcatAlgorithm::Ring, n, 1).complexity;
            assert_eq!(
                (c.c1, c.c2),
                ((n - 1) as u64, concat_bounds(n, 1, 6).c2),
                "ring n={n}"
            );
        }
        for n in [2usize, 4, 8, 16, 64] {
            let c = stats(ConcatAlgorithm::RecursiveDoubling, n, 1).complexity;
            let lb = concat_bounds(n, 1, 6);
            assert_eq!((c.c1, c.c2), (lb.c1, lb.c2), "recursive doubling n={n}");
        }
        for (n, k) in [(16usize, 1usize), (10, 2), (30, 3)] {
            let rounds = stats(ConcatAlgorithm::GatherBroadcast, n, k).complexity.c1;
            assert_eq!(
                rounds,
                2 * u64::from(ceil_log(k + 1, n)),
                "gather-bcast n={n} k={k}"
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

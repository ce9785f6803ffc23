//! Run a lowered [`RankProgram`] over any [`Comm`].
//!
//! `bruck_model::program` lowers an [`IndexPlan`], a concatenation, a
//! non-uniform exchange or a reduction to pure data and interprets it in
//! one place, the [`RankMachine`]. This module is the machine's
//! threaded-substrate driver, and the way every lowered algorithm reaches
//! the wire there: every [`IndexAlgorithm`](crate::index::IndexAlgorithm),
//! [`alltoall`](crate::api::alltoall)'s planner dispatch, every
//! [`ConcatAlgorithm`](crate::concat::ConcatAlgorithm), [`vops`](crate::vops)
//! payload, [`reduce`](crate::reduce), [`scan`](crate::scan) and
//! [`primitives`](crate::primitives) call ends here.
//! Each round the machine yields is one `round_gather`, and its local
//! passes move the data between `out` and one pooled work buffer, so a
//! program runs on any [`Comm`] — and the TCP fabric and `simulate` drive
//! the *same* machine. One interpreter, three substrates, bit-identical
//! results; the tests assert exactly that.
//!
//! A program costs what its algorithm's local phases cost and no more:
//! a radix or hypercube program's first permute reads the caller's
//! `sendbuf` and its last writes `out` — two passes over `n·b` bytes —
//! and a direct or pairwise exchange places one block and sends straight
//! from `sendbuf`; a padded exchange places its blocks and makes one strip
//! pass. Each then scatters every received byte once. What that costs in
//! virtual time is [`simulate`](bruck_model::program::simulate)'s to say:
//! it steps the same machines under a cost model.

use bruck_model::planner::IndexPlan;
use bruck_model::program::{Action, RankMachine, RankProgram};
use bruck_net::{Comm, GatherSendSpec, NetError, RecvSpec};

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
/// The data lives in one of two buffers at any time — `out` and a single
/// pooled work buffer of [`RankProgram::work`] bytes — and every permute
/// or strip moves it to the other one. The parity of
/// [`RankProgram::passes`] decides which of the two the machine starts
/// on, so that the last pass lands in `out`; the first reads `input`
/// directly, and a program with no pass never takes the work buffer.
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
    // The machine checks that every buffer has its size. An empty one
    // (the barrier's) is not worth a trip through the cluster-shared pool.
    let mut work = if program.passes() > 0 && program.work > 0 {
        ep.acquire(program.work)
    } else {
        Vec::new()
    };
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
    // Reused across rounds: all sends' byte spans, where each ends, and
    // the receives.
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    let mut recvs: Vec<RecvSpec> = Vec::new();
    loop {
        match m.step(&mut scratch) {
            Action::Local(_) => {}
            Action::Send(round) => {
                spans.clear();
                ends.clear();
                for s in round.sends {
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
                recvs.clear();
                recvs.extend(round.recvs.iter().map(|r| RecvSpec {
                    from: r.peer,
                    tag: r.tag,
                }));
                let msgs = ep.round_gather(&sends, &recvs)?;
                for (r, msg) in round.recvs.iter().zip(msgs) {
                    m.deliver(r.peer, r.tag, &msg.payload)
                        .map_err(NetError::App)?;
                    ep.recycle(msg.payload);
                }
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
    use crate::primitives::{barrier_dissemination, broadcast, gather};
    use crate::reduce::{allreduce, reduce, reduce_scatter, ReduceOp};
    use crate::scan::{exscan, scan};
    use crate::verify;
    use bruck_model::bounds::{concat_bounds, index_bounds};
    use bruck_model::complexity::Complexity;
    use bruck_model::cost::{CostModel, HierarchicalModel, LinearModel, Sp1Model};
    use bruck_model::mixed_radix::MixedRadix;
    use bruck_model::partition::Preference;
    use bruck_model::planner::{ConcatPlan, Planner, VIndexPlan};
    use bruck_model::program::simulate;
    use bruck_model::radix::ceil_log;
    use bruck_model::spanning_tree::SpanningTree;
    use bruck_model::tuning::index_complexity_kport;
    use bruck_net::{Cluster, ClusterConfig, RunOutput};
    use bruck_sched::{Schedule, ScheduleStats, Transfer};

    fn run_on(cfg: &ClusterConfig, plan: &IndexPlan, block: usize) -> RunOutput<Vec<u8>> {
        let n = cfg.n;
        Cluster::run(cfg, |ep| {
            let input = verify::index_input(ep.rank(), n, block);
            let mut out = vec![0u8; input.len()];
            run_plan_into(ep, plan, &input, block, &mut out).map(|()| out)
        })
        .unwrap_or_else(|e| panic!("{} n={n} b={block}: {e}", plan.label()))
    }

    /// `programs` run in memory on `inputs`, each rank's output.
    fn outputs(programs: &[RankProgram], inputs: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, String> {
        simulate(programs, inputs, &LinearModel::free(), |_, _, _| {}).map(|sim| sim.outputs)
    }

    /// The makespan of `plan`'s programs at `(n, b, k)` under `model`, on
    /// the index oracle's inputs.
    fn makespan(plan: &IndexPlan, n: usize, k: usize, block: usize, model: &dyn CostModel) -> f64 {
        let programs: Vec<RankProgram> = (0..n)
            .map(|rank| RankProgram::lower(plan, n, rank, block, k).unwrap())
            .collect();
        let inputs: Vec<Vec<u8>> = (0..n).map(|r| verify::index_input(r, n, block)).collect();
        let sim = simulate(&programs, &inputs, model, |_, _, _| {}).expect("simulate");
        for (rank, out) in sim.outputs.iter().enumerate() {
            assert_eq!(
                out,
                &verify::index_expected(rank, n, block),
                "{}",
                plan.label()
            );
        }
        sim.makespan()
    }

    /// Run `plan` on a threaded cluster and hold every rank's result to
    /// the transpose oracle and to the same programs run in memory.
    fn run_cluster(plan: &IndexPlan, n: usize, block: usize, ports: usize) -> RunOutput<Vec<u8>> {
        let out = run_on(&ClusterConfig::new(n).with_ports(ports), plan, block);
        let programs: Vec<RankProgram> = (0..n)
            .map(|rank| RankProgram::lower(plan, n, rank, block, ports).unwrap())
            .collect();
        let inputs: Vec<Vec<u8>> = (0..n).map(|r| verify::index_input(r, n, block)).collect();
        let simulated = outputs(&programs, &inputs).expect("simulate");
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
        outputs(&programs, &inputs)
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
            let mut out = vec![0u8; sendbuf_len];
            run_plan_into(ep, &plan, &vec![0u8; sendbuf_len], 2, &mut out)
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
        // The XOR baselines: every size the deleted executors were tested
        // at, multi-port too.
        for &(n, k) in &[(1usize, 1usize), (2, 1), (4, 1), (8, 3), (16, 1), (16, 2)] {
            run_cluster(&IndexPlan::Pairwise, n, 3, k);
            run_cluster(&IndexPlan::Hypercube, n, 3, k);
        }
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
        for algo in [IndexAlgorithm::Pairwise, IndexAlgorithm::Hypercube] {
            let err = Cluster::run(&ClusterConfig::new(6), |ep| algo.run(ep, &[0; 6], 1));
            assert!(matches!(err, Err(NetError::App(e)) if e.contains("power-of-two")));
        }
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
                // The pairwise exchange: the same cost, every round a set
                // of perfect matchings `p ↔ p ⊕ d`.
                if n.is_power_of_two() {
                    let pairwise = IndexAlgorithm::Pairwise.plan(n, 5, k);
                    pairwise.validate().unwrap();
                    assert_eq!(ScheduleStats::of(&pairwise).complexity, c, "n={n} k={k}");
                    for round in &pairwise.rounds {
                        for t in &round.transfers {
                            let back = (t.dst, t.src, t.bytes);
                            assert!(round
                                .transfers
                                .iter()
                                .any(|u| (u.src, u.dst, u.bytes) == back));
                        }
                    }
                }
            }
            // The hypercube: round x pairs p ↔ p ⊕ 2^x with n/2 blocks.
            if n.is_power_of_two() {
                let hypercube = IndexAlgorithm::Hypercube.plan(n, 4, 1);
                hypercube.validate().unwrap();
                assert_eq!(hypercube.num_rounds(), n.trailing_zeros() as usize);
                for (x, round) in hypercube.rounds.iter().enumerate() {
                    let bytes = (n / 2 * 4) as u64;
                    let pair = |src: usize| Transfer {
                        src,
                        dst: src ^ (1 << x),
                        bytes,
                    };
                    assert_eq!(round.transfers, (0..n).map(pair).collect::<Vec<_>>());
                }
                assert_eq!(
                    ScheduleStats::of(&hypercube).complexity,
                    index_complexity_kport(n, 2, 4, 1),
                    "n={n}"
                );
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
        let makespan = |model: Sp1Model| makespan(plan, n, k, block, &model);
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
            let rounds = program.ops.iter().filter_map(|op| program.round(op));
            let received: usize = rounds
                .map(|round| round.recvs.iter().map(|x| x.span.bytes(1)).sum::<usize>())
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
        let model = HierarchicalModel::smp_cluster(node_size);
        let flat = makespan(&IndexPlan::Radix(2), n, 1, block, &model);
        let hier = makespan(&two_level(node_size, 2, 2), n, 1, block, &model);
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

    /// Seeded `n×n` size matrices of the v-planner sweep's six shapes —
    /// uniform, all-zero, zero-riddled, one hot pair, Zipf(1.0) over
    /// rotated destinations, and entries up to 2⁴⁰ — every entry capped at
    /// `cap`.
    fn seeded_matrices(n: usize, seed: u64, cap: u64) -> [Vec<usize>; 6] {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut below = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let cells = n * n;
        let uniform = vec![1 + below(4096); cells];
        let riddled = (0..cells)
            .map(|_| if below(3) == 0 { below(512) } else { 0 })
            .collect();
        let mut hot = vec![below(64); cells];
        hot[below(cells as u64) as usize] = 1 << (10 + below(20));
        let harmonic: f64 = (1..=n).map(|p| 1.0 / p as f64).sum();
        let zipf = (0..cells)
            .map(|e| (256 * n) as f64 / harmonic / ((e / n + e % n) % n + 1) as f64)
            .map(|s| s as u64)
            .collect();
        let huge = (0..cells).map(|_| below(1 << 40)).collect();
        [uniform, vec![0; cells], riddled, hot, zipf, huge]
            .map(|m: Vec<u64>| m.into_iter().map(|s| s.min(cap) as usize).collect())
    }

    /// Every member of the non-uniform family over `sizes`: direct,
    /// padded at radix 2, 3 and `n`, and two-phase at radix 2 and `n` with
    /// quota 0, the mean travelling entry, the maximum and past it.
    fn v_plans(n: usize, sizes: &[usize]) -> Vec<VIndexPlan> {
        let travelling = (0..n * n).filter(|e| e / n != e % n).map(|e| sizes[e]);
        let (sum, max) = travelling.fold((0u128, 0), |(s, m), x| (s + x as u128, m.max(x)));
        let mean = (sum / (n * n - n).max(1) as u128) as usize;
        let mut plans = vec![VIndexPlan::Direct];
        for radix in [2, 3, n] {
            plans.push(VIndexPlan::Padded { radix });
        }
        for radix in [2, n] {
            for quota in [0, mean, max, usize::MAX] {
                plans.push(VIndexPlan::TwoPhase { radix, quota });
            }
        }
        plans
    }

    /// Where rank `rank`'s send blocks sit in its input: last rank first.
    fn v_displs(rank: usize, n: usize, sizes: &[usize]) -> Vec<usize> {
        let row = &sizes[rank * n..][..n];
        (0..n).map(|j| row[j + 1..].iter().sum()).collect()
    }

    /// Rank `rank`'s input: its block for every rank, at [`v_displs`].
    fn v_input(rank: usize, n: usize, sizes: &[usize]) -> Vec<u8> {
        let block =
            |j: usize| (0..sizes[rank * n + j]).map(move |t| verify::content_byte(rank, j, t));
        (0..n).rev().flat_map(block).collect()
    }

    /// What rank `rank` receives: every source's block for it, in rank order.
    fn v_expected(rank: usize, n: usize, sizes: &[usize]) -> Vec<u8> {
        let block = |src: usize| {
            (0..sizes[src * n + rank]).map(move |t| verify::content_byte(src, rank, t))
        };
        (0..n).flat_map(block).collect()
    }

    /// Every rank's program of `plan` over `sizes`.
    fn v_programs(plan: &VIndexPlan, n: usize, k: usize, sizes: &[usize]) -> Vec<RankProgram> {
        let program =
            |rank| RankProgram::lower_vindex(plan, n, k, rank, sizes, &v_displs(rank, n, sizes));
        (0..n)
            .map(|rank| program(rank).expect("lowerable"))
            .collect()
    }

    /// Every rank's allgatherv program over `counts`, and every input.
    fn allgatherv_programs(k: usize, counts: &[usize]) -> (Vec<RankProgram>, Vec<Vec<u8>>) {
        let input = |r: usize| {
            (0..counts[r])
                .map(|t| verify::content_byte(r, 0, t))
                .collect()
        };
        let program = |r| RankProgram::lower_allgatherv(k, r, counts);
        (0..counts.len()).map(|r| (program(r), input(r))).unzip()
    }

    /// The non-uniform lowerings run in memory land on their oracles:
    /// every member of the family (two-phase at quota 0, the mean and
    /// past the maximum) over five of the six seeded matrix shapes with
    /// entries capped at 4 KiB, each rank's blocks laid out in reverse;
    /// and allgatherv over each matrix's first row, zero-length blocks
    /// included. n ∈ {1, 2, 3, 5, 8, 13}, k ∈ {1, 2, 3}.
    #[test]
    fn v_programs_simulate_to_the_oracles() {
        let mut runs = 0usize;
        for n in [1usize, 2, 3, 5, 8, 13] {
            for k in 1..=3 {
                let matrices = seeded_matrices(n, (n * 10 + k) as u64, 4096);
                for sizes in &matrices[..5] {
                    let inputs: Vec<Vec<u8>> = (0..n).map(|r| v_input(r, n, sizes)).collect();
                    for plan in v_plans(n, sizes) {
                        let programs = v_programs(&plan, n, k, sizes);
                        let outs = outputs(&programs, &inputs)
                            .unwrap_or_else(|e| panic!("{} n={n} k={k}: {e}", plan.label()));
                        for (rank, out) in outs.iter().enumerate() {
                            let label = plan.label();
                            assert_eq!(
                                out,
                                &v_expected(rank, n, sizes),
                                "{label} n={n} k={k} rank={rank}"
                            );
                        }
                        runs += 1;
                    }
                    let (programs, inputs) = allgatherv_programs(k, &sizes[..n]);
                    let outs = outputs(&programs, &inputs).expect("allgatherv");
                    assert!(
                        outs.iter().all(|out| out == &inputs.concat()),
                        "allgatherv n={n} k={k}"
                    );
                }
            }
        }
        assert!(runs > 1_000, "sweep shrank to {runs} runs");
    }

    /// The schedule read off each non-uniform lowering has the planner's
    /// closed form: `Schedule::from_programs`' (C1, C2) equals
    /// `Planner::vindex_complexity` for every member over all six seeded
    /// shapes, 2⁴⁰ entries included (lowering moves nothing), so the cost
    /// `plan_vindex` minimizes is the cost of the pattern that runs.
    #[test]
    fn v_schedules_have_the_planner_closed_forms() {
        let model = Sp1Model::calibrated();
        let planner = Planner::new(&model);
        for n in [1usize, 2, 3, 5, 8, 13] {
            for k in 1..=3 {
                for sizes in &seeded_matrices(n, (n * 10 + k) as u64, u64::MAX) {
                    let announced: Vec<u64> = sizes.iter().map(|&s| s as u64).collect();
                    for plan in v_plans(n, sizes) {
                        let schedule = Schedule::from_programs(&v_programs(&plan, n, k, sizes), k);
                        assert_eq!(
                            ScheduleStats::of(&schedule).complexity,
                            planner.vindex_complexity(&plan, n, k, &announced),
                            "{} n={n} k={k}",
                            plan.label()
                        );
                    }
                }
            }
        }
    }

    /// On a sample, the threaded `alltoallv_into` of every member and
    /// `allgatherv_into` equal the same programs run in memory, bit for
    /// bit, rank for rank.
    #[test]
    fn v_threaded_runs_equal_their_simulation() {
        use crate::api::Tuning;
        use crate::vops::{allgatherv_into, alltoallv_into, VLayout, VMethod};
        for &(n, k) in &[(1usize, 1usize), (2, 1), (5, 2), (8, 3), (13, 2)] {
            for sizes in &seeded_matrices(n, 7, 4096)[1..5] {
                for plan in v_plans(n, sizes) {
                    let method = match plan {
                        VIndexPlan::Direct => VMethod::Direct,
                        VIndexPlan::Padded { radix } => VMethod::Padded { radix },
                        VIndexPlan::TwoPhase { radix, quota } => VMethod::TwoPhase {
                            radix,
                            quota: Some(quota),
                        },
                    };
                    let tuning = Tuning::builder().vmethod(method).build();
                    let out = Cluster::run(&ClusterConfig::new(n).with_ports(k), |ep| {
                        let rank = ep.rank();
                        let counts = sizes[rank * n..][..n].to_vec();
                        let layout = VLayout::new(counts, v_displs(rank, n, sizes))?;
                        let input = v_input(rank, n, sizes);
                        let mut got = Vec::new();
                        alltoallv_into(ep, &input, &layout, &tuning, &mut got)?;
                        Ok(got)
                    })
                    .unwrap_or_else(|e| panic!("{} n={n} k={k}: {e}", plan.label()));
                    // The lowering clamps the radix as the forced method does.
                    let inputs: Vec<Vec<u8>> = (0..n).map(|r| v_input(r, n, sizes)).collect();
                    let programs = v_programs(&plan, n, k, sizes);
                    let simulated = outputs(&programs, &inputs).unwrap();
                    assert_eq!(out.results, simulated, "{} n={n} k={k}", plan.label());
                }
                let counts = &sizes[..n];
                let out = Cluster::run(&ClusterConfig::new(n).with_ports(k), |ep| {
                    let mine: Vec<u8> = (0..counts[ep.rank()])
                        .map(|t| verify::content_byte(ep.rank(), 0, t))
                        .collect();
                    let mut got = Vec::new();
                    allgatherv_into(ep, &mine, &mut got)?;
                    Ok(got)
                })
                .unwrap();
                let (programs, inputs) = allgatherv_programs(k, counts);
                let simulated = outputs(&programs, &inputs).unwrap();
                assert_eq!(out.results, simulated, "allgatherv n={n} k={k}");
                assert!(simulated.iter().all(|r| r == &inputs.concat()));
            }
        }
    }

    /// Every rank's broadcast of `data` from `root`, gather of 2-byte
    /// blocks to `root` or barrier (`root` unused), and every input.
    fn tree_set(
        which: usize,
        (n, k, root): (usize, usize, usize),
        data: &[u8],
    ) -> (Vec<RankProgram>, Vec<Vec<u8>>) {
        let program = |v| match which {
            0 => RankProgram::lower_broadcast(n, k, v, root, data.len()),
            1 => RankProgram::lower_gather(n, k, v, root, 2),
            _ => RankProgram::lower_barrier(n, k, v),
        };
        let input = |v| match which {
            0 if v == root => data.to_vec(),
            1 => verify::concat_input(v, 2),
            _ => Vec::new(),
        };
        (0..n).map(|v| (program(v), input(v))).unzip()
    }

    /// The tree primitives' programs, run in memory, land on their oracles
    /// at n ≤ 64, k ≤ 4: the broadcast and the gather at every root, and
    /// the barrier. Each broadcast round's edges are those of
    /// `SpanningTree::build(n, k, root)`'s round (Fig. 7's tree is the one
    /// that runs), and the schedule read off every set is ⌈log_{k+1} n⌉
    /// rounds — the broadcast's of its bytes each, the barrier's of none.
    #[test]
    fn tree_programs_simulate_to_the_oracle() {
        let data = [7u8, 8, 9];
        let mut runs = 0usize;
        for n in 1..=64usize {
            for k in 1..=4 {
                let d = ceil_log(k + 1, n);
                let schedule = |programs: &[RankProgram]| Schedule::from_programs(programs, k);
                let (programs, inputs) = tree_set(2, (n, k, 0), &data);
                let outs = outputs(&programs, &inputs).expect("barrier");
                assert!(outs.iter().all(Vec::is_empty), "barrier n={n} k={k}");
                let c = ScheduleStats::of(&schedule(&programs)).complexity;
                assert_eq!(c, Complexity::new(d.into(), 0), "barrier n={n} k={k}");
                for root in 0..n {
                    let label = format!("n={n} k={k} root={root}");
                    let (programs, inputs) = tree_set(0, (n, k, root), &data);
                    let outs = outputs(&programs, &inputs)
                        .unwrap_or_else(|e| panic!("broadcast {label}: {e}"));
                    assert!(outs.iter().all(|out| out == &data), "broadcast {label}");
                    let s = schedule(&programs);
                    let c = ScheduleStats::of(&s).complexity;
                    assert_eq!(c, Complexity::new(d.into(), 3 * u64::from(d)), "{label}");
                    let tree = SpanningTree::build(n, k, root);
                    for (g, round) in (0..).zip(&s.rounds) {
                        let edges = round.transfers.iter().map(|t| (t.src, t.dst));
                        let mut tree_edges: Vec<_> = tree
                            .edges_in_round(g)
                            .iter()
                            .map(|e| (e.from, e.to))
                            .collect();
                        tree_edges.sort_unstable();
                        assert_eq!(edges.collect::<Vec<_>>(), tree_edges, "{label} round {g}");
                    }
                    let (programs, inputs) = tree_set(1, (n, k, root), &data);
                    let outs = outputs(&programs, &inputs)
                        .unwrap_or_else(|e| panic!("gather {label}: {e}"));
                    assert_eq!(outs[root], verify::concat_expected(n, 2), "gather {label}");
                    assert_eq!(schedule(&programs).num_rounds(), d as usize, "{label}");
                    runs += 2;
                }
            }
        }
        assert!(runs > 8_000, "sweep shrank to {runs} runs");
    }

    /// On a sample, the threaded broadcast, gather and barrier equal
    /// their simulation, rank for rank (the gather's root), in
    /// ⌈log_{k+1} n⌉ rounds.
    #[test]
    fn tree_threaded_runs_equal_their_simulation() {
        let data = [7u8, 8, 9];
        for &(n, k) in &[(1usize, 1usize), (2, 1), (5, 2), (10, 3), (16, 1), (21, 4)] {
            let d = u64::from(ceil_log(k + 1, n));
            let cfg = ClusterConfig::new(n).with_ports(k);
            let simulated = |which, root| {
                let (programs, inputs) = tree_set(which, (n, k, root), &data);
                outputs(&programs, &inputs).unwrap()
            };
            let out = Cluster::run(&cfg, barrier_dissemination).unwrap();
            assert_eq!(
                out.metrics.global_complexity().unwrap().c1,
                d,
                "n={n} k={k}"
            );
            for root in [0, n / 2, n - 1] {
                let label = format!("n={n} k={k} root={root}");
                let out = Cluster::run(&cfg, |ep| {
                    let mut buf = if ep.rank() == root { data } else { [0; 3] };
                    broadcast(ep, root, &mut buf)?;
                    Ok(buf.to_vec())
                })
                .unwrap_or_else(|e| panic!("broadcast {label}: {e}"));
                assert_eq!(out.results, simulated(0, root), "broadcast {label}");
                assert_eq!(out.metrics.global_complexity().unwrap().c1, d, "{label}");
                let out = Cluster::run(&cfg, |ep| {
                    gather(ep, root, &verify::concat_input(ep.rank(), 2))
                })
                .unwrap_or_else(|e| panic!("gather {label}: {e}"));
                let mut want = vec![None; n];
                want[root] = Some(simulated(1, root).swap_remove(root));
                assert_eq!(out.results, want, "gather {label}");
            }
        }
    }

    /// The reductions, each run at one shape through its public call and
    /// lowered for every rank.
    #[derive(Debug, Clone, Copy)]
    enum Reduction {
        Reduce { root: usize },
        ReduceScatter,
        Allreduce,
        Scan,
        Exscan,
    }

    impl Reduction {
        /// Every reduction at `n`: the reduce at every root.
        fn all(n: usize) -> impl Iterator<Item = Self> {
            let others = [
                Self::ReduceScatter,
                Self::Allreduce,
                Self::Scan,
                Self::Exscan,
            ];
            (0..n).map(|root| Self::Reduce { root }).chain(others)
        }

        fn program(self, n: usize, k: usize, rank: usize, m: usize, op: ReduceOp) -> RankProgram {
            match self {
                Self::Reduce { root } => RankProgram::lower_reduce(n, k, rank, root, m, op),
                Self::ReduceScatter => RankProgram::lower_reduce_scatter(n, k, rank, m, op),
                Self::Allreduce => RankProgram::lower_allreduce(n, k, rank, m, op),
                Self::Scan | Self::Exscan => {
                    RankProgram::lower_scan(n, rank, m, op, matches!(self, Self::Exscan))
                }
            }
        }

        /// Every rank's result by a local fold, in rank order; empty where
        /// the call returns `None`.
        fn expected(self, n: usize, m: usize, op: ReduceOp) -> Vec<Vec<f64>> {
            // prefixes[r]: the fold of ranks 0..r.
            let mut prefixes = vec![Vec::new(), lanes(0, m)];
            for r in 1..n {
                let mut next = prefixes[r].clone();
                op.fold_into(&mut next, &lanes(r, m));
                prefixes.push(next);
            }
            let b = m.div_ceil(n);
            let output = |rank: usize| match self {
                Self::Reduce { root } if rank != root => Vec::new(),
                Self::Reduce { .. } | Self::Allreduce => prefixes[n].clone(),
                Self::ReduceScatter => {
                    prefixes[n][(rank * b).min(m)..((rank + 1) * b).min(m)].to_vec()
                }
                Self::Scan => prefixes[rank + 1].clone(),
                Self::Exscan => prefixes[rank].clone(),
            };
            (0..n).map(output).collect()
        }

        /// The public call on `ep`; empty for `None`.
        fn run<C: Comm + ?Sized>(
            self,
            ep: &mut C,
            data: &[f64],
            op: ReduceOp,
        ) -> Result<Vec<f64>, NetError> {
            match self {
                Self::Reduce { root } => Ok(reduce(ep, root, data, op)?.unwrap_or_default()),
                Self::ReduceScatter => reduce_scatter(ep, data, op),
                Self::Allreduce => allreduce(ep, data, op),
                Self::Scan => scan(ep, data, op),
                Self::Exscan => Ok(exscan(ep, data, op)?.unwrap_or_default()),
            }
        }
    }

    /// Rank `rank`'s `m` lanes, integer-valued so that every fold order
    /// is exact.
    fn lanes(rank: usize, m: usize) -> Vec<f64> {
        (0..m)
            .map(|i| ((rank * 7 + i * 3) % 17) as f64 - 8.0)
            .collect()
    }

    fn to_bytes(lanes: &[f64]) -> Vec<u8> {
        lanes.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    /// `reduction`'s programs at `(n, k, m, op)` run in memory, each rank's
    /// output bytes.
    fn simulate_reduction(
        reduction: Reduction,
        (n, k, m): (usize, usize, usize),
        op: ReduceOp,
    ) -> Vec<Vec<u8>> {
        let programs: Vec<RankProgram> =
            (0..n).map(|r| reduction.program(n, k, r, m, op)).collect();
        let inputs: Vec<Vec<u8>> = (0..n).map(|r| to_bytes(&lanes(r, m))).collect();
        outputs(&programs, &inputs)
            .unwrap_or_else(|e| panic!("{reduction:?} n={n} k={k} m={m}: {e}"))
    }

    /// Every reduction's programs, run in memory, leave a local fold's
    /// result on every rank, bit for bit: reduce-scatter, allreduce, scan
    /// and exscan under every operator at n ≤ 33 and {64, 100, 128}, k ≤ 4
    /// (the one-port scans at k = 1), m ∈ {0, 1, n − 1, n, 3n + 1}; the
    /// reduce at every root, the operator and m cycling with the root. The
    /// schedule read off the programs has the closed form: the
    /// reduce-scatter is the round-preferring circulant concatenation's
    /// (C1, C2) at ⌈m/n⌉ bytes with C2 ×8, the allreduce twice that, the
    /// reduce (to root 0) ⌈log_{k+1} n⌉ rounds of m lanes, the scans
    /// ⌈log₂ n⌉.
    #[test]
    fn reduction_programs_simulate_to_the_oracle() {
        let model = Sp1Model::calibrated();
        let planner = Planner::new(&model);
        let ops = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max];
        let mut runs = 0usize;
        for n in (1..=33usize).chain([64, 100, 128]) {
            let mut ms = vec![0, 1, n - 1, n, 3 * n + 1];
            ms.dedup();
            for k in 1..=4 {
                let reduces = (0..n).map(|root| {
                    let reduction = Reduction::Reduce { root };
                    (reduction, ms[root % ms.len()], &ops[root % 3..][..1])
                });
                let mut others = vec![Reduction::ReduceScatter, Reduction::Allreduce];
                if k == 1 {
                    others.extend([Reduction::Scan, Reduction::Exscan]);
                }
                let (others, every_op) = (&others[..], &ops[..]);
                let others = (ms.iter()).flat_map(|&m| {
                    others
                        .iter()
                        .map(move |&reduction| (reduction, m, every_op))
                });
                for (reduction, m, ops) in reduces.chain(others) {
                    let label = format!("{reduction:?} n={n} k={k} m={m}");
                    let rounds = |d: u32| Complexity::new(d.into(), 8 * m as u64 * u64::from(d));
                    let circulant = ConcatPlan::Bruck(Preference::Rounds);
                    let c = planner.concat_complexity(&circulant, n, k, m.div_ceil(n));
                    let c = Complexity::new(c.c1, 8 * c.c2);
                    let want = match reduction {
                        Reduction::Reduce { root } if root > 0 => None,
                        Reduction::Reduce { .. } => Some(rounds(ceil_log(k + 1, n))),
                        Reduction::ReduceScatter => Some(c),
                        Reduction::Allreduce => Some(c + c),
                        Reduction::Scan | Reduction::Exscan => Some(rounds(ceil_log(2, n))),
                    };
                    if let Some(want) = want {
                        let programs: Vec<RankProgram> = (0..n)
                            .map(|r| reduction.program(n, k, r, m, ops[0]))
                            .collect();
                        let got = ScheduleStats::of(&Schedule::from_programs(&programs, k));
                        assert_eq!(got.complexity, want, "{label}");
                    }
                    for &op in ops {
                        let outs = simulate_reduction(reduction, (n, k, m), op);
                        for (rank, want) in reduction.expected(n, m, op).iter().enumerate() {
                            assert_eq!(outs[rank], to_bytes(want), "{label} {op:?} rank={rank}");
                        }
                        runs += 1;
                    }
                }
            }
        }
        assert!(runs > 8_000, "sweep shrank to {runs} runs");
    }

    /// On a sample, the threaded run of every reduction is its
    /// simulation, rank for rank, and the local fold's result.
    #[test]
    fn reduction_threaded_runs_equal_their_simulation() {
        let ops = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max];
        for (i, &(n, k, m)) in [
            (1usize, 1usize, 3usize),
            (2, 1, 1),
            (5, 2, 7),
            (10, 3, 31),
            (16, 1, 16),
            (21, 4, 64),
            (32, 2, 97),
        ]
        .iter()
        .enumerate()
        {
            let op = ops[i % 3];
            let sampled = |r: &Reduction| match r {
                Reduction::Reduce { root } => [0, n / 2, n - 1].contains(root),
                _ => true,
            };
            for reduction in Reduction::all(n).filter(sampled) {
                let cfg = ClusterConfig::new(n).with_ports(k);
                let out = Cluster::run(&cfg, |ep| reduction.run(ep, &lanes(ep.rank(), m), op))
                    .unwrap_or_else(|e| panic!("{reduction:?} n={n} k={k} m={m}: {e}"));
                let simulated = simulate_reduction(reduction, (n, k, m), op);
                let expected = reduction.expected(n, m, op);
                for (rank, got) in out.results.iter().enumerate() {
                    let label = format!("{reduction:?} n={n} k={k} m={m} rank={rank}");
                    assert_eq!(to_bytes(got), simulated[rank], "{label}");
                    assert_eq!(got, &expected[rank], "{label}");
                }
            }
        }
    }
}

//! The executed algorithms and their planners describe the same
//! communication: the trace of a live run, rebuilt into a schedule, must
//! equal the planner's schedule; the live metrics must match the
//! analyzer; and the replayer must accept every plan.

use bruck::collectives::concat::ConcatAlgorithm;
use bruck::collectives::index::IndexAlgorithm;
use bruck::collectives::program_exec::run_plan;
use bruck::collectives::verify;
use bruck::model::cost::LinearModel;
use bruck::model::partition::Preference;
use bruck::model::planner::{IndexPlan, Planner};
use bruck::net::{Cluster, ClusterConfig};
use bruck::sched::{replay_on_cluster, Schedule, ScheduleStats};

fn check_index(algo: IndexAlgorithm, n: usize, b: usize, k: usize) {
    let cfg = ClusterConfig::new(n).with_ports(k).with_trace();
    let out = Cluster::run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, b);
        algo.run(ep, &input, b)
    })
    .unwrap_or_else(|e| panic!("{} n={n} b={b} k={k}: {e}", algo.name()));
    let plan = algo.plan(n, b, k);
    plan.validate()
        .unwrap_or_else(|e| panic!("{} invalid plan: {e}", algo.name()));
    let traced = Schedule::from_trace(&out.trace.unwrap(), n, k);
    assert_eq!(
        traced,
        plan.without_empty_rounds(),
        "{} n={n} b={b} k={k}: executed ≠ planned",
        algo.name()
    );
    assert_eq!(
        out.metrics.global_complexity().unwrap(),
        ScheduleStats::of(&plan).complexity,
        "{} n={n} b={b} k={k}",
        algo.name()
    );
}

/// The same for a plan that has no [`IndexAlgorithm`] name (mixed
/// radices, the two-level composition): the trace of the interpreted
/// programs, the schedule read off those same programs, the live
/// metrics and the planner's closed form all describe one algorithm.
fn check_plan(plan: IndexPlan, n: usize, b: usize, k: usize) {
    let cfg = ClusterConfig::new(n).with_ports(k).with_trace();
    let out = Cluster::run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, b);
        run_plan(ep, &plan, &input, b)
    })
    .unwrap_or_else(|e| panic!("{} n={n} b={b} k={k}: {e}", plan.label()));
    for (rank, result) in out.results.iter().enumerate() {
        assert_eq!(
            result,
            &verify::index_expected(rank, n, b),
            "{} n={n} b={b} k={k} rank={rank}",
            plan.label()
        );
    }
    let schedule = Schedule::of_index_plan(&plan, n, b, k)
        .unwrap_or_else(|e| panic!("{} has no schedule: {e}", plan.label()));
    schedule
        .validate()
        .unwrap_or_else(|e| panic!("{} invalid schedule: {e}", plan.label()));
    let traced = Schedule::from_trace(&out.trace.unwrap(), n, k);
    assert_eq!(
        traced,
        schedule.without_empty_rounds(),
        "{} n={n} b={b} k={k}: executed ≠ planned",
        plan.label()
    );
    let complexity = ScheduleStats::of(&schedule).complexity;
    assert_eq!(
        out.metrics.global_complexity().unwrap(),
        complexity,
        "{} n={n} b={b} k={k}",
        plan.label()
    );
    assert_eq!(
        Planner::new(&LinearModel::sp1()).index_complexity(&plan, n, k, b),
        complexity,
        "{} n={n} b={b} k={k}: planner's closed form ≠ schedule",
        plan.label()
    );
}

fn check_concat(algo: ConcatAlgorithm, n: usize, b: usize, k: usize) {
    let cfg = ClusterConfig::new(n).with_ports(k).with_trace();
    let out = Cluster::run(&cfg, |ep| {
        let input = verify::concat_input(ep.rank(), b);
        algo.run(ep, &input)
    })
    .unwrap_or_else(|e| panic!("{} n={n} b={b} k={k}: {e}", algo.name()));
    let plan = algo.plan(n, b, k);
    plan.validate()
        .unwrap_or_else(|e| panic!("{} invalid plan: {e}", algo.name()));
    let traced = Schedule::from_trace(&out.trace.unwrap(), n, k);
    assert_eq!(
        traced,
        plan.without_empty_rounds(),
        "{} n={n} b={b} k={k}: executed ≠ planned",
        algo.name()
    );
}

#[test]
fn index_bruck_trace_equals_plan() {
    for &(n, b, k) in &[
        (5usize, 3usize, 1usize),
        (8, 1, 1),
        (13, 4, 2),
        (16, 2, 3),
        (27, 2, 2),
    ] {
        for r in [2usize, 3, 5, n] {
            check_index(IndexAlgorithm::BruckRadix(r), n, b, k);
        }
    }
}

#[test]
fn index_baselines_trace_equals_plan() {
    check_index(IndexAlgorithm::Direct, 9, 3, 1);
    check_index(IndexAlgorithm::Direct, 10, 3, 3);
    check_index(IndexAlgorithm::Pairwise, 8, 2, 1);
    check_index(IndexAlgorithm::Pairwise, 16, 2, 2);
    check_index(IndexAlgorithm::Hypercube, 8, 2, 1);
}

#[test]
fn index_mixed_trace_equals_schedule() {
    check_plan(IndexPlan::Mixed(vec![2, 3]), 6, 3, 1);
    check_plan(IndexPlan::Mixed(vec![3, 2]), 6, 3, 1);
    check_plan(IndexPlan::Mixed(vec![2, 2, 3]), 12, 2, 1);
    check_plan(IndexPlan::Mixed(vec![3, 4]), 12, 2, 2);
    check_plan(IndexPlan::Mixed(vec![4, 5]), 20, 2, 3);
    check_plan(IndexPlan::Mixed(vec![2, 2, 3, 3]), 33, 4, 1);
}

#[test]
fn index_hierarchical_trace_equals_schedule() {
    for &(n, node_size, radix_local, radix_remote, k) in &[
        (8usize, 2usize, 2usize, 2usize, 1usize),
        (12, 3, 2, 4, 1),
        (16, 4, 4, 4, 2),
        (18, 6, 3, 3, 1),
        (24, 4, 2, 3, 2),
    ] {
        let plan = IndexPlan::Hierarchical {
            node_size,
            radix_local,
            radix_remote,
        };
        check_plan(plan, n, 2, k);
    }
}

#[test]
fn concat_trace_equals_plan() {
    for &(n, b, k) in &[
        (5usize, 1usize, 1usize),
        (16, 4, 1),
        (9, 3, 2),
        (10, 3, 3),
        (21, 5, 4),
        (3, 2, 5),
    ] {
        check_concat(ConcatAlgorithm::Bruck(Preference::Rounds), n, b, k);
        check_concat(ConcatAlgorithm::Bruck(Preference::Bytes), n, b, k);
        check_concat(ConcatAlgorithm::GatherBroadcast, n, b, k);
    }
    check_concat(ConcatAlgorithm::Ring, 7, 2, 1);
    check_concat(ConcatAlgorithm::RecursiveDoubling, 8, 2, 1);
}

#[test]
fn every_plan_replays_on_a_live_cluster() {
    let plans = vec![
        IndexAlgorithm::BruckRadix(3).plan(10, 8, 1),
        IndexAlgorithm::BruckRadix(4).plan(9, 8, 3),
        IndexAlgorithm::Direct.plan(7, 8, 2),
        ConcatAlgorithm::Bruck(Preference::Rounds).plan(10, 3, 3),
        ConcatAlgorithm::GatherBroadcast.plan(12, 4, 1),
    ];
    for plan in plans {
        let cfg = ClusterConfig::new(plan.n).with_ports(plan.ports);
        let out = replay_on_cluster(&plan, &cfg).expect("replay failed");
        assert_eq!(
            out.metrics.global_complexity().unwrap(),
            ScheduleStats::of(&plan).complexity
        );
    }
}

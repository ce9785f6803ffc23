//! Property-style tests over pseudo-randomized parameters.
//!
//! Each property sweeps a fixed number of deterministic cases drawn from
//! a local xorshift generator — the same coverage shape as a property
//! test, but reproducible and dependency-free.

use bruck::collectives::concat::ConcatAlgorithm;
use bruck::collectives::index::IndexAlgorithm;
use bruck::collectives::verify;
use bruck::model::bounds::{concat_bounds, index_bounds};
use bruck::model::partition::{plan_last_round, Preference};
use bruck::model::planner::IndexPlan;
use bruck::model::program::{simulate, RankProgram};
use bruck::model::tuning::{index_complexity, index_complexity_kport};
use bruck::net::{Cluster, ClusterConfig};
use bruck::sched::ScheduleStats;

/// Deterministic xorshift64 over half-open ranges.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(2654435761).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform-ish draw from `lo..hi`.
    fn pick(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

const CASES: u64 = 64;

/// The Bruck index executor is correct for random (n, r, b, k).
#[test]
fn bruck_index_correct() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, r, b, k) = (g.pick(1, 20), g.pick(2, 24), g.pick(0, 12), g.pick(1, 4));
        let cfg = ClusterConfig::new(n).with_ports(k);
        let out = Cluster::run(&cfg, |ep| {
            let input = verify::index_input(ep.rank(), n, b);
            IndexAlgorithm::BruckRadix(r).run(ep, &input, b)
        })
        .unwrap();
        for (rank, result) in out.results.iter().enumerate() {
            assert_eq!(
                result,
                &verify::index_expected(rank, n, b),
                "n={n} r={r} b={b} k={k}"
            );
        }
    }
}

/// The circulant concat executor is correct for random (n, b, k, pref).
#[test]
fn bruck_concat_correct() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, b, k) = (g.pick(1, 24), g.pick(1, 12), g.pick(1, 5));
        let pref = if g.flag() {
            Preference::Bytes
        } else {
            Preference::Rounds
        };
        let cfg = ClusterConfig::new(n).with_ports(k);
        let out = Cluster::run(&cfg, |ep| {
            let input = verify::concat_input(ep.rank(), b);
            ConcatAlgorithm::Bruck(pref).run(ep, &input)
        })
        .unwrap();
        let expected = verify::concat_expected(n, b);
        for result in &out.results {
            assert_eq!(result, &expected, "n={n} b={b} k={k} pref={pref:?}");
        }
    }
}

/// Planner schedules are always valid under the k-port model, and the
/// closed-form complexity matches the schedule analyzer.
#[test]
fn index_plans_valid_and_consistent() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, r, b, k) = (g.pick(2, 40), g.pick(2, 40), g.pick(0, 16), g.pick(1, 5));
        let s = IndexAlgorithm::BruckRadix(r).plan(n, b, k);
        assert!(s.validate().is_ok(), "n={n} r={r} b={b} k={k}");
        let stats = ScheduleStats::of(&s);
        assert_eq!(stats.complexity, index_complexity_kport(n, r.min(n), b, k));
    }
}

/// No index plan ever beats the §2 lower bounds.
#[test]
fn index_plans_respect_lower_bounds() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, r, b, k) = (g.pick(2, 40), g.pick(2, 40), g.pick(1, 16), g.pick(1, 5));
        let s = IndexAlgorithm::BruckRadix(r).plan(n, b, k);
        let c = ScheduleStats::of(&s).complexity;
        let lb = index_bounds(n, k, b);
        assert!(
            lb.admits(c),
            "r={r} complexity {c} beats bounds ({}, {})",
            lb.c1,
            lb.c2
        );
    }
}

/// No concat plan ever beats the §2 lower bounds, and the circulant
/// algorithm is round-optimal for every (n, k, b).
#[test]
fn concat_plans_respect_lower_bounds() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, b, k) = (g.pick(2, 60), g.pick(1, 16), g.pick(1, 5));
        let lb = concat_bounds(n, k, b);
        for algo in [
            ConcatAlgorithm::Bruck(Preference::Rounds),
            ConcatAlgorithm::GatherBroadcast,
        ] {
            let c = ScheduleStats::of(&algo.plan(n, b, k)).complexity;
            assert!(
                lb.admits(c),
                "{} {} vs ({}, {})",
                algo.name(),
                c,
                lb.c1,
                lb.c2
            );
        }
        let c =
            ScheduleStats::of(&ConcatAlgorithm::Bruck(Preference::Rounds).plan(n, b, k)).complexity;
        assert_eq!(c.c1, lb.c1, "n={n} b={b} k={k}");
    }
}

/// The k-port grouping never hurts: complexity with k ports dominates
/// complexity with k+1 ports in rounds, with identical total steps.
#[test]
fn more_ports_never_more_rounds() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, r, b, k) = (g.pick(2, 40), g.pick(2, 16), g.pick(1, 8), g.pick(1, 4));
        let ck = index_complexity_kport(n, r, b, k);
        let ck1 = index_complexity_kport(n, r, b, k + 1);
        assert!(ck1.c1 <= ck.c1, "n={n} r={r} b={b} k={k}");
        assert!(ck1.c2 <= ck.c2, "n={n} r={r} b={b} k={k}");
    }
}

/// One-port k-port formula degenerates to the §3.2 closed form.
#[test]
fn one_port_formulas_agree() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, r, b) = (g.pick(2, 60), g.pick(2, 60), g.pick(0, 8));
        assert_eq!(
            index_complexity_kport(n, r, b, 1),
            index_complexity(n, r, b),
            "n={n} r={r}"
        );
    }
}

/// The last-round partitioner always covers the table exactly and
/// never exceeds the §4 Remark costs.
#[test]
fn partition_always_valid() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (k, d, extra, b) = (
            g.pick(1, 6),
            g.pick(1, 4) as u32,
            g.pick(1, 20),
            g.pick(1, 8),
        );
        let n1 = (k + 1).pow(d);
        let n2 = 1 + (extra - 1) % (k * n1);
        let pref = if g.flag() {
            Preference::Bytes
        } else {
            Preference::Rounds
        };
        let plan = plan_last_round(n1, n2, b, k, pref);
        assert!(plan.validate().is_ok(), "k={k} d={d} n2={n2} b={b}");
        let a = (b * n2).div_ceil(k) as u64;
        let c = plan.complexity();
        assert!(c.c2 < a + b as u64, "c2 {} vs a {} + b {}", c.c2, a, b);
        assert!(c.c1 <= 2, "k={k} d={d} n2={n2} b={b}");
    }
}

/// Simulated virtual time equals the closed-form prediction for the
/// synchronous Bruck index schedule (linear model).
#[test]
fn virtual_time_matches_prediction() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, r, b) = (g.pick(2, 12), g.pick(2, 12), g.pick(0, 64));
        let model = bruck::model::cost::LinearModel::sp1();
        let programs: Vec<RankProgram> = (0..n)
            .map(|rank| RankProgram::lower(&IndexPlan::Radix(r), n, rank, b, 1).unwrap())
            .collect();
        let inputs: Vec<Vec<u8>> = (0..n).map(|rank| verify::index_input(rank, n, b)).collect();
        let sim = simulate(&programs, &inputs, &model, |_, _, _| {}).unwrap();
        let c = ScheduleStats::of(&IndexAlgorithm::BruckRadix(r).plan(n, b, 1)).complexity;
        let predicted = c.linear_time(model.startup, model.per_byte);
        assert!(
            (sim.makespan() - predicted).abs() < 1e-9,
            "virtual {} vs predicted {} (n={n} r={r} b={b})",
            sim.makespan(),
            predicted
        );
    }
}

//! The self-tuning planner stack, end to end: the planner's arg-min
//! against an exhaustive search, the calibrator's parameter recovery,
//! and planner-dispatched collectives on live clusters.

use std::sync::Arc;

use bruck::collectives::api::{alltoall, Tuning};
use bruck::collectives::autotune::{calibrated_fit, clear_cache};
use bruck::collectives::verify;
use bruck::model::calibrate::Calibrator;
use bruck::model::complexity::Complexity;
use bruck::model::cost::{CostModel, LinearModel};
use bruck::model::planner::{IndexPlan, Planner};
use bruck::model::tuning::index_complexity_kport;
use bruck::net::{Cluster, ClusterConfig};

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

    fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// Property: over random `(β, τ, n, b, k)`, [`Planner::plan_index`]
/// never predicts worse than the exhaustive arg-min of `C1·β + C2·τ`
/// over the uniform radix family plus the direct exchange and the
/// hypercube — and when it picks a uniform radix, its cost *equals* that
/// arg-min.
#[test]
fn planner_matches_exhaustive_argmin_over_radix_family() {
    const CASES: u64 = 200;
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let n = g.in_range(2, 65) as usize;
        let b = 1usize << g.in_range(0, 18);
        let k = g.in_range(1, 4) as usize;
        // β from 1µs to 1ms, τ from 0.1ns to 1µs per byte.
        let beta = 1e-6 * 10f64.powi(g.in_range(0, 4) as i32);
        let tau = 1e-10 * 10f64.powi(g.in_range(0, 5) as i32);
        let model = LinearModel::new(beta, tau);

        let mut exhaustive = f64::INFINITY;
        for r in 2..=n {
            let c = index_complexity_kport(n, r, b, k);
            exhaustive = exhaustive.min(model.estimate(c));
        }
        // Direct has the same complexity as radix n; the hypercube (when
        // it applies) the same as radix 2 — neither can beat the family
        // minimum, so `exhaustive` is the bar for the whole family.
        let choice = Planner::new(&model).plan_index(n, k, b);
        assert!(
            choice.predicted_time <= exhaustive * (1.0 + 1e-12) + f64::MIN_POSITIVE,
            "seed {seed}: planner {:?} predicts {} but exhaustive minimum is {exhaustive} \
             (n={n} b={b} k={k} β={beta} τ={tau})",
            choice.plan,
            choice.predicted_time,
        );
        match &choice.plan {
            IndexPlan::Mixed(_) => {
                // A mixed plan is adopted only on a strict win.
                assert!(choice.predicted_time < exhaustive, "seed {seed}");
            }
            plan => {
                let r = plan.radix(n).expect("uniform plans have a radix");
                let c = index_complexity_kport(n, r, b, k);
                assert!(
                    (model.estimate(c) - exhaustive).abs() <= exhaustive * 1e-12,
                    "seed {seed}: chosen radix {r} is not the arg-min (n={n} b={b} k={k})"
                );
            }
        }
    }
}

/// The calibrator recovers known `(β, τ)` from clean synthetic samples
/// with `R² ≥ 0.99`.
#[test]
fn calibration_recovers_parameters() {
    let (beta, tau) = (40e-6, 2e-9);
    let mut cal = Calibrator::new();
    let mut g = Gen::new(7);
    for i in 0..40 {
        let c1 = 1 + i % 7;
        let c2 = 64u64 << (i % 11);
        // ±1% multiplicative noise keeps the fit honest but recoverable.
        let noise = 1.0 + (g.in_range(0, 2001) as f64 - 1000.0) / 100_000.0;
        let t = (c1 as f64 * beta + c2 as f64 * tau) * noise;
        cal.record_run(Complexity::new(c1, c2), t);
    }
    let fit = cal.fit();
    assert!(
        fit.r_squared >= 0.99,
        "R² = {} below 0.99 on near-clean samples",
        fit.r_squared
    );
    assert!(
        (fit.model.startup - beta).abs() / beta < 0.05,
        "β recovered as {} (true {beta})",
        fit.model.startup
    );
    assert!(
        (fit.model.per_byte - tau).abs() / tau < 0.05,
        "τ recovered as {} (true {tau})",
        fit.model.per_byte
    );
}

/// Smoke: planner dispatch picks a valid, correct schedule at every
/// small shape, with the model fitted live against the cluster's own
/// transport.
#[test]
fn autotune_smoke_planner_dispatch_is_correct() {
    clear_cache();
    for n in [4usize, 8, 16] {
        for k in [1usize, 2] {
            for block in [16usize, 1024] {
                let cfg = ClusterConfig::new(n).with_ports(k);
                let out = Cluster::run(&cfg, |ep| {
                    let fit = calibrated_fit(ep)?;
                    let input = verify::index_input(ep.rank(), n, block);
                    let tuning = Tuning::auto(Arc::new(fit.model));
                    let got = alltoall(ep, &input, block, &tuning)?;
                    let choice = tuning.chosen_plan(n, block, ep.ports());
                    Ok((got, choice.plan.label()))
                })
                .unwrap();
                let mut labels = Vec::new();
                for (rank, (got, label)) in out.results.iter().enumerate() {
                    assert_eq!(
                        got,
                        &verify::index_expected(rank, n, block),
                        "n={n} k={k} b={block} rank={rank} plan={label}"
                    );
                    labels.push(label.clone());
                }
                // Collective consistency: every rank must have dispatched
                // the same plan, or the rounds could not have matched.
                assert!(
                    labels.windows(2).all(|w| w[0] == w[1]),
                    "n={n} k={k} b={block}: ranks disagree on the plan: {labels:?}"
                );
            }
        }
    }
}

/// `Tuning::auto` routes the public `alltoall` through the same planner.
#[test]
fn tuning_auto_matches_direct_planner_choice() {
    let model: Arc<dyn CostModel> = Arc::new(LinearModel::sp1());
    let tuning = Tuning::auto(Arc::clone(&model));
    for n in [5usize, 8, 12] {
        for block in [1usize, 512, 1 << 16] {
            let via_tuning = tuning.chosen_plan(n, block, 2);
            let direct = Planner::new(model.as_ref()).plan_index(n, 2, block);
            assert_eq!(via_tuning.plan, direct.plan, "n={n} b={block}");
            assert_eq!(via_tuning.complexity, direct.complexity);
        }
    }
}

/// The planner's concat closed form agrees with the executable
/// schedule's stats for the plan it picks.
#[test]
fn planner_concat_complexity_matches_schedule() {
    use bruck::collectives::concat::ConcatAlgorithm;
    use bruck::model::planner::ConcatPlan;
    use bruck::sched::ScheduleStats;

    let model = LinearModel::sp1();
    for n in [2usize, 5, 8, 13, 27] {
        for k in [1usize, 2, 3] {
            for b in [1usize, 64, 4096] {
                let planner = Planner::new(&model);
                let choice = planner.plan_concat(n, k, b);
                let schedule = match &choice.plan {
                    ConcatPlan::Bruck(pref) => ConcatAlgorithm::Bruck(*pref).plan(n, b, k),
                    ConcatPlan::Ring => ConcatAlgorithm::Ring.plan(n, b, k),
                };
                let stats = ScheduleStats::of(&schedule);
                assert_eq!(
                    stats.complexity,
                    choice.complexity,
                    "n={n} k={k} b={b} plan={}",
                    choice.plan.label()
                );
            }
        }
    }
}

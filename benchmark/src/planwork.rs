//! Direct calls into `bruck-model` and `bruck-sched`: the steps of the
//! `plan_only` lap, and — at each workload's own `(n, k, b)` — the
//! planner/lowering/schedule layer probes.

use bruck_collectives::concat::ConcatAlgorithm;
use bruck_collectives::index::IndexAlgorithm;
use bruck_model::cost::LinearModel;
use bruck_model::partition::{plan_last_round, LastRoundPlan, Preference};
use bruck_model::planner::{ConcatPlan, IndexPlan, PlanChoice, Planner, VIndexPlan};
use bruck_model::radix::{ceil_log, pow};
use bruck_model::{index_bounds, RankProgram};
use bruck_sched::{Schedule, ScheduleStats};

use crate::trace::SpanLog;

/// Block sizes the `plan_only` lap plans at: the paper's start-up-bound,
/// break-even and bandwidth-bound regimes.
pub const PLAN_BLOCKS: [usize; 3] = [64, 4096, 65536];

/// Ports the `plan_only` lap plans for.
pub const PLAN_PORTS: usize = 2;

/// Node size of the hierarchical plan the `plan_only` lap lowers.
pub const PLAN_NODE_SIZE: usize = 32;

pub fn plan_index(n: usize, k: usize, b: usize) -> PlanChoice<IndexPlan> {
    Planner::new(&LinearModel::sp1()).plan_index(n, k, b)
}

pub fn plan_concat(n: usize, k: usize, b: usize) -> PlanChoice<ConcatPlan> {
    Planner::new(&LinearModel::sp1()).plan_concat(n, k, b)
}

pub fn plan_vindex(n: usize, k: usize, sizes: &[u64]) -> PlanChoice<VIndexPlan> {
    Planner::new(&LinearModel::sp1()).plan_vindex(n, k, sizes)
}

/// Lower `plan` for every rank, as `TcpScaleCluster` does per call.
pub fn lower_all(
    plan: &IndexPlan,
    n: usize,
    b: usize,
    ports: usize,
) -> Result<Vec<RankProgram>, String> {
    (0..n)
        .map(|rank| RankProgram::lower(plan, n, rank, b, ports))
        .collect()
}

pub fn index_schedule(n: usize, b: usize, k: usize) -> Schedule {
    IndexAlgorithm::BruckRadix(2).plan(n, b, k)
}

pub fn concat_schedule(n: usize, b: usize, k: usize) -> Schedule {
    ConcatAlgorithm::Bruck(Preference::Rounds).plan(n, b, k)
}

/// The circulant concatenation's last-round instance at `(n, k, b)`:
/// `n1 = (k+1)^(d-1)` blocks held, `n2 = n - n1` missing.
pub fn last_round(n: usize, k: usize, b: usize) -> Option<LastRoundPlan> {
    if n < 2 {
        return None;
    }
    let d = ceil_log(k + 1, n);
    let n1 = pow(k + 1, d - 1);
    Some(plan_last_round(n1, n - n1, b, k, Preference::Rounds))
}

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

fn mix_str(h: u64, s: &str) -> u64 {
    s.bytes().fold(h, |h, b| mix(h, u64::from(b)))
}

/// One `plan_only` lap: every planner at three block sizes, the v-planner
/// on the seeded matrix, both lowerings for all ranks, both schedules
/// built, validated and analysed, and the last-round partition. Returns
/// a checksum of everything produced (identical on every lap of a run)
/// or the first oracle violation.
pub fn full_pass(n: usize, sizes: &[u64], log: &mut SpanLog, lap: u32) -> Result<u64, String> {
    let k = PLAN_PORTS;
    let planner_model = LinearModel::sp1();
    let planner = Planner::new(&planner_model);
    let mut h = 0xCBF2_9CE4_8422_2325u64;

    for b in PLAN_BLOCKS {
        let choice = log.scope("model.planner.plan_index", lap, |_| plan_index(n, k, b));
        if planner.index_complexity(&choice.plan, n, k, b) != choice.complexity {
            return Err(format!(
                "plan_index b={b}: complexity disagrees with its plan"
            ));
        }
        if !index_bounds(n, k, b).admits(choice.complexity) {
            return Err(format!(
                "plan_index b={b}: complexity beats the lower bound"
            ));
        }
        h = mix(mix_str(h, &choice.plan.label()), choice.complexity.c2);

        let choice = log.scope("model.planner.plan_concat", lap, |_| plan_concat(n, k, b));
        if planner.concat_complexity(&choice.plan, n, k, b) != choice.complexity {
            return Err(format!(
                "plan_concat b={b}: complexity disagrees with its plan"
            ));
        }
        h = mix(mix_str(h, choice.plan.label()), choice.complexity.c2);
    }

    let choice = log.scope("model.planner.plan_vindex", lap, |_| {
        plan_vindex(n, k, sizes)
    });
    if planner.vindex_complexity(&choice.plan, n, k, sizes) != choice.complexity {
        return Err("plan_vindex: complexity disagrees with its plan".into());
    }
    h = mix(mix_str(h, &choice.plan.label()), choice.complexity.c2);

    let b = PLAN_BLOCKS[0];
    let plans = [
        IndexPlan::Radix(2),
        IndexPlan::Hierarchical {
            node_size: PLAN_NODE_SIZE,
            radix_local: 2,
            radix_remote: 2,
        },
    ];
    for plan in &plans {
        let programs = log.scope("model.program.lower", lap, |_| lower_all(plan, n, b, 1))?;
        let rounds = programs[0].rounds();
        if programs.iter().any(|p| p.rounds() != rounds || p.n != n) {
            return Err(format!(
                "{}: ranks lowered to different shapes",
                plan.label()
            ));
        }
        h = mix(h, rounds as u64);
        h = mix(h, programs.iter().map(|p| p.ops.len() as u64).sum());
    }

    let schedules = [
        log.scope("sched.schedule.build", lap, |_| index_schedule(n, b, k)),
        log.scope("sched.schedule.build", lap, |_| concat_schedule(n, b, k)),
    ];
    let expect = [
        planner.index_complexity(&IndexPlan::Radix(2), n, k, b),
        planner.concat_complexity(&ConcatPlan::Bruck(Preference::Rounds), n, k, b),
    ];
    for (schedule, expect) in schedules.iter().zip(expect) {
        log.scope("sched.schedule.validate", lap, |_| schedule.validate())?;
        let stats = log.scope("sched.analyze.stats", lap, |_| ScheduleStats::of(schedule));
        if stats.complexity != expect {
            return Err(format!(
                "schedule complexity {} differs from the planner's {}",
                stats.complexity, expect
            ));
        }
        h = mix(mix(h, stats.total_bytes), stats.total_msgs);
    }

    let last = log
        .scope("model.partition.plan_last_round", lap, |_| {
            last_round(n, k, b)
        })
        .ok_or("last round: n too small")?;
    last.validate()?;
    h = mix(mix(h, last.complexity().c1), last.complexity().c2);
    Ok(h)
}

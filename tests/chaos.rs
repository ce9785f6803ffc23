//! Chaos soak: seeded random fault plans against every collective.
//!
//! The contract under chaos is *fail-stop or succeed-exact*: with the
//! reliability sublayer on, every run either returns bit-correct results
//! or a clean error well inside the timeout — never a hang, never
//! silently corrupted bytes. Fault plans are drawn from the same
//! dependency-free xorshift generator as `tests/proptests.rs`, so every
//! case replays from its seed.

use std::time::Duration;

use bruck::collectives::api::{allgather, alltoall, Tuning};
use bruck::collectives::verify;
use bruck::net::{Cluster, ClusterConfig, FaultPlan, NetError, Reliability};

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

    fn pick(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// A rate in `[0, max)`.
    fn rate(&mut self, max: f64) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * max
    }
}

/// A seeded random wire-fault plan: mild rates the reliability layer is
/// expected to fully heal.
fn chaos_plan(g: &mut Gen) -> FaultPlan {
    let mut plan = FaultPlan::new().with_seed(g.next());
    if g.flag() {
        plan = plan.with_loss(g.rate(0.08));
    }
    if g.flag() {
        plan = plan.with_duplication(g.rate(0.08));
    }
    if g.flag() {
        plan = plan.with_corruption(g.rate(0.08));
    }
    // The retired virtual-delay fault's draws: kept so that every seed
    // yields the same remaining faults.
    if g.flag() {
        g.rate(0.1);
    }
    plan
}

const CASES: u64 = 24;

/// Every collective over a random lossy/duplicating/corrupting wire is
/// bit-correct with reliability on — or fails cleanly, never hangs.
#[test]
fn collectives_survive_random_wire_chaos() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let n = g.pick(2, 10);
        let block = g.pick(1, 33);
        let plan = chaos_plan(&mut g);
        let cfg = ClusterConfig::new(n)
            .with_timeout(Duration::from_secs(10))
            .with_faults(plan)
            .with_reliability(Reliability::default());
        let tuning = Tuning::default();
        let out = Cluster::run(&cfg, |ep| {
            let a2a_in = verify::index_input(ep.rank(), n, block);
            let a2a = alltoall(ep, &a2a_in, block, &tuning)?;
            let ag_in = verify::concat_input(ep.rank(), block);
            let ag = allgather(ep, &ag_in, &tuning)?;
            Ok((a2a, ag))
        })
        .unwrap_or_else(|e| panic!("seed {seed} (n={n} b={block}): {e:?}"));
        for (rank, (a2a, ag)) in out.results.iter().enumerate() {
            assert_eq!(
                a2a,
                &verify::index_expected(rank, n, block),
                "seed {seed}: alltoall corrupted at rank {rank}"
            );
            assert_eq!(
                ag,
                &verify::concat_expected(n, block),
                "seed {seed}: allgather corrupted at rank {rank}"
            );
        }
    }
}

/// Chaos plus a random kill: the run must fail *cleanly* — a root-caused
/// `Killed` or a consistent `RanksFailed`, inside the timeout, never a
/// hang and never an Ok with wrong bytes.
#[test]
fn random_kill_under_chaos_fails_clean() {
    for seed in 0..CASES {
        let mut g = Gen::new(0xDEAD ^ seed);
        let n = g.pick(3, 9);
        let block = g.pick(1, 17);
        let victim = g.pick(0, n);
        let round = g.pick(0, 3) as u64;
        let plan = chaos_plan(&mut g).kill_rank_after(victim, round);
        let cfg = ClusterConfig::new(n)
            .with_timeout(Duration::from_secs(10))
            .with_faults(plan)
            .with_reliability(Reliability::default());
        let tuning = Tuning::default();
        let report = Cluster::try_run(&cfg, |ep| {
            let input = verify::index_input(ep.rank(), n, block);
            alltoall(ep, &input, block, &tuning)
        });
        for (rank, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                // A rank may legitimately finish before the kill lands
                // (e.g. the victim dies after its last round) — but bytes
                // must then be exact.
                Ok(data) => assert_eq!(
                    data,
                    &verify::index_expected(rank, n, block),
                    "seed {seed}: rank {rank} returned corrupt data"
                ),
                Err(
                    NetError::Killed { .. }
                    | NetError::RanksFailed { .. }
                    | NetError::Timeout { .. },
                ) => {}
                Err(e) => panic!("seed {seed}: rank {rank} unclean failure {e:?}"),
            }
        }
        // The victim must be in the cluster's verdict unless it finished
        // its whole collective before its kill round arrived.
        if report.outcomes[victim].is_err() {
            assert!(
                report.failed.contains(&victim),
                "seed {seed}: dead rank {victim} missing from verdict {:?}",
                report.failed
            );
        }
    }
}

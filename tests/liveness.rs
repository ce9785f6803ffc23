//! Liveness under chaos: deadlines, stragglers, partitions.
//!
//! The contract this suite enforces is the tentpole of the
//! deadline-aware collectives work: every collective either completes
//! bit-correct or returns a *structured* error on every survivor within
//! a bounded wall-clock window — no hangs, ever, whatever the schedule
//! of partitions, stalls, ack losses, and crashes. The soak enumerates
//! hundreds of seeded [`ChaosSchedule`]s per cluster shape; a violation
//! is greedily shrunk to a 1-minimal schedule and printed for replay.

use std::time::{Duration, Instant};

use bruck::collectives::api::{alltoall, alltoall_deadline, alltoall_resilient, Tuning};
use bruck::collectives::verify;
use bruck::net::{ChaosSchedule, Cluster, ClusterConfig, Comm, FaultPlan, NetError, Reliability};

/// Aggressive reliability tuning for chaos runs: millisecond RTOs and a
/// tight probe budget, so stall escalation lands in tens of
/// milliseconds and a 400-schedule soak stays fast.
fn tight_reliability() -> Reliability {
    Reliability {
        rto: Duration::from_millis(2),
        max_rto: Duration::from_millis(20),
        max_retries: 8,
        ..Reliability::default()
    }
    .with_probing(Duration::from_millis(2), 3)
}

fn chaos_cfg(n: usize, plan: FaultPlan) -> ClusterConfig {
    ClusterConfig::new(n)
        .with_timeout(Duration::from_millis(500))
        .with_faults(plan)
        .with_reliability(tight_reliability())
        .with_deadline(Duration::from_secs(3))
}

/// Longest a single schedule may take wall-clock before it counts as a
/// hang: the 3 s cluster deadline, plus a stalled rank sleeping through
/// it, plus scheduling slack. The deadline layer is what keeps real
/// runs far below this.
const HANG_BUDGET: Duration = Duration::from_secs(12);

/// Execute one chaos schedule and check every liveness invariant.
/// Returns `Some(reason)` on a violation — deterministic for a fixed
/// schedule, so the minimizer can replay it.
fn run_schedule(s: &ChaosSchedule) -> Option<String> {
    let n = s.n;
    let block = 4;
    let started = Instant::now();
    let report = Cluster::try_run(&chaos_cfg(n, s.plan()), |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        alltoall_resilient(ep, &input, block, &Tuning::default(), 4)
    });
    if started.elapsed() > HANG_BUDGET {
        return Some(format!(
            "no-hang: run took {:?} (budget {HANG_BUDGET:?})",
            started.elapsed()
        ));
    }
    // Survivor agreement: every rank that completed must hold the same
    // membership (the epoch argument: same detector version ⇒ same dead
    // set), and its bytes must be exactly the survivor-dense all-to-all.
    let mut agreed: Option<Vec<usize>> = None;
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        let res = match outcome {
            Ok(res) => res,
            // Structured failure is an allowed outcome — the invariant
            // is only that it *is* structured (an Err, not a hang) and
            // that completers agree.
            Err(_) => continue,
        };
        match &agreed {
            None => agreed = Some(res.survivors.clone()),
            Some(prev) if *prev != res.survivors => {
                return Some(format!(
                    "verdict-agreement: rank {rank} completed with survivors \
                     {:?}, another with {prev:?}",
                    res.survivors
                ));
            }
            Some(_) => {}
        }
        let Some(me) = res.survivors.iter().position(|&x| x == rank) else {
            return Some(format!(
                "membership: completer {rank} is not one of its own survivors {:?}",
                res.survivors
            ));
        };
        for (i, &src) in res.survivors.iter().enumerate() {
            let got = &res.data[i * block..(i + 1) * block];
            let full = verify::index_input(src, n, block);
            if got != &full[rank * block..(rank + 1) * block] {
                return Some(format!(
                    "bit-correctness: rank {rank} (dense {me}) holds a wrong \
                     block from rank {src}"
                ));
            }
        }
    }
    None
}

const SCHEDULES_PER_SHAPE: u64 = 200;

/// `BRUCK_CHAOS_SEED` narrows the soak to one seed for replaying a CI
/// failure; unset, the full range runs.
fn soak_seeds() -> std::ops::Range<u64> {
    match std::env::var("BRUCK_CHAOS_SEED") {
        Ok(s) => {
            let seed: u64 = s
                .parse()
                .unwrap_or_else(|e| panic!("BRUCK_CHAOS_SEED={s}: {e}"));
            seed..seed + 1
        }
        Err(_) => 0..SCHEDULES_PER_SHAPE,
    }
}

/// The soak: hundreds of seeded schedules per shape, each mixing wire
/// rates with partitions, directed cuts, stalls, and kills. Zero
/// tolerance: any hang, byte error, or membership disagreement fails
/// the suite with a minimized replay schedule, persisted as a TSV for
/// `bruckctl chaos --replay`.
#[test]
fn chaos_soak_no_hangs_consistent_verdicts_correct_bytes() {
    for n in [4usize, 8] {
        for seed in soak_seeds() {
            let schedule = ChaosSchedule::generate(seed, n);
            if let Some(reason) = run_schedule(&schedule) {
                let minimized = schedule.minimized(|c| run_schedule(c).is_some());
                let path = format!("target/chaos-repro-liveness-n{n}-seed{seed}.tsv");
                let path = match std::fs::write(&path, bruck::sched::chaos_to_tsv(&minimized)) {
                    Ok(()) => path,
                    Err(e) => format!("<unwritable {path}: {e}>"),
                };
                panic!(
                    "liveness violation at seed {seed}, n {n}: {reason}\n\
                     minimized reproducer written to {path}\n\
                     minimized schedule for replay:\n{minimized}"
                );
            }
        }
    }
}

/// An asymmetric partition — `0 → 1` severed, `1 → 0` intact — must
/// converge on ONE cluster-consistent verdict: both ends accuse each
/// other (rank 0 gets no acks; rank 1's probes go unanswered because
/// the replies are cut), the detector's arbiter honours exactly one
/// accusation, and the survivors complete the collective among
/// themselves.
#[test]
fn asymmetric_partition_yields_one_consistent_verdict() {
    let n = 4;
    let block = 4;
    let cfg = chaos_cfg(n, FaultPlan::new().cut_link(0, 1, 0));
    let report = Cluster::try_run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        alltoall_resilient(ep, &input, block, &Tuning::default(), 4)
    });
    assert_eq!(
        report.failed.len(),
        1,
        "exactly one end of the cut may die, got {:?}",
        report.failed
    );
    let dead = report.failed[0];
    assert!(dead == 0 || dead == 1, "verdict named a bystander: {dead}");
    let survivors: Vec<usize> = (0..n).filter(|&r| r != dead).collect();
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        if rank == dead {
            assert!(outcome.is_err(), "the dead end must not report success");
            continue;
        }
        let res = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("survivor {rank} failed: {e:?}"));
        assert_eq!(res.survivors, survivors, "survivor {rank} disagrees");
        for (i, &src) in survivors.iter().enumerate() {
            let got = &res.data[i * block..(i + 1) * block];
            let full = verify::index_input(src, n, block);
            assert_eq!(got, &full[rank * block..(rank + 1) * block]);
        }
    }
}

/// A stall shorter than the probe budget is *slow, not dead*: the
/// watchdog's probes go unanswered during the pause, but the first
/// intact frame after it resets the strikes — nobody is escalated and
/// the collective completes bit-correct on the full membership.
#[test]
fn short_stall_is_healed_not_escalated() {
    let n = 4;
    let block = 4;
    // 30 ms pause against a probe budget of 25 ms + 50 ms + 100 ms of
    // doubling patience: the watchdog must ride it out.
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_faults(FaultPlan::new().stall_rank(1, 1, Duration::from_millis(30)))
        .with_reliability(Reliability::default().with_probing(Duration::from_millis(25), 3));
    let report = Cluster::try_run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        alltoall(ep, &input, block, &Tuning::default())
    });
    assert_eq!(report.failed, Vec::<usize>::new(), "a pause is not a death");
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        let data = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} failed on a mere stall: {e:?}"));
        assert_eq!(data, &verify::index_expected(rank, n, block));
    }
}

/// A stall long enough to exhaust the probe budget gets the same
/// cluster-consistent treatment as a crash: the sleeper is escalated to
/// the failure detector, survivors shrink and complete, and the sleeper
/// itself wakes into the structured verdict (not a hang, not an `Ok`).
#[test]
fn long_stall_escalates_like_a_crash() {
    let n = 4;
    let block = 4;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_millis(500))
        .with_faults(FaultPlan::new().stall_rank(1, 1, Duration::from_millis(400)))
        .with_reliability(tight_reliability());
    let report = Cluster::try_run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        alltoall_resilient(ep, &input, block, &Tuning::default(), 4)
    });
    assert_eq!(report.failed, vec![1], "the sleeper must be escalated");
    let survivors = vec![0, 2, 3];
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        if rank == 1 {
            let err = outcome.as_ref().unwrap_err();
            assert!(
                matches!(err, NetError::RanksFailed { .. } | NetError::Timeout { .. }),
                "the sleeper must wake into a structured verdict, got {err:?}"
            );
            continue;
        }
        let res = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("survivor {rank} failed: {e:?}"));
        assert_eq!(res.survivors, survivors);
    }
}

/// [`Cluster::try_run`] over Unix sockets bound in a fresh directory.
#[cfg(unix)]
fn try_run_over_sockets<T: Send>(
    name: &str,
    cfg: &ClusterConfig,
    body: impl Fn(&mut bruck::net::Endpoint) -> Result<T, NetError> + Sync,
) -> bruck::net::RunReport<T> {
    use bruck::net::socket::UdsTransport;
    use bruck::net::Transport;
    let dir = std::env::temp_dir().join(format!("bruck-liveness-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let transports = (0..cfg.n)
        .map(|rank| Box::new(UdsTransport::bind(&dir, rank, cfg.n).unwrap()) as Box<dyn Transport>)
        .collect();
    let report = Cluster::try_run_with_transports(cfg, transports, body);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The two stall scenarios above over Unix sockets. A clean socket wire
/// runs without the ARQ, but a plan that stalls a rank stacks it: its
/// watchdog is what tells a pause from a death.
#[cfg(unix)]
#[test]
fn short_stall_over_sockets_is_healed_not_escalated() {
    let n = 4;
    let block = 4;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_faults(FaultPlan::new().stall_rank(1, 1, Duration::from_millis(30)))
        .with_reliability(Reliability::default().with_probing(Duration::from_millis(25), 3));
    let report = try_run_over_sockets("short-stall", &cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        alltoall(ep, &input, block, &Tuning::default())
    });
    assert_eq!(report.failed, Vec::<usize>::new(), "a pause is not a death");
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        let data = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} failed on a mere stall: {e:?}"));
        assert_eq!(data, &verify::index_expected(rank, n, block));
    }
}

#[cfg(unix)]
#[test]
fn long_stall_over_sockets_escalates_like_a_crash() {
    let n = 4;
    let block = 4;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_millis(500))
        .with_faults(FaultPlan::new().stall_rank(1, 1, Duration::from_millis(400)))
        .with_reliability(tight_reliability());
    let report = try_run_over_sockets("long-stall", &cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        alltoall_resilient(ep, &input, block, &Tuning::default(), 4)
    });
    assert_eq!(report.failed, vec![1], "the sleeper must be escalated");
    let survivors = vec![0, 2, 3];
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        if rank == 1 {
            let err = outcome.as_ref().unwrap_err();
            assert!(
                matches!(err, NetError::RanksFailed { .. } | NetError::Timeout { .. }),
                "the sleeper must wake into a structured verdict, got {err:?}"
            );
            continue;
        }
        let res = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("survivor {rank} failed: {e:?}"));
        assert_eq!(res.survivors, survivors);
    }
}

/// With the watchdog disabled and retries effectively unbounded, a full
/// partition would block forever on the per-round timeout ladder — the
/// armed cluster deadline is the only thing bounding the run, and it
/// must fail every rank with the structured `DeadlineExceeded` within
/// the budget (plus slack), never a hang.
#[test]
fn deadline_bounds_a_partitioned_run() {
    let n = 4;
    let block = 4;
    let budget = Duration::from_millis(150);
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(30))
        .with_faults(FaultPlan::new().with_partition(vec![0, 1], 0))
        .with_reliability(
            Reliability {
                max_retries: u32::MAX,
                ..Reliability::default()
            }
            .with_probing(Duration::from_millis(25), 0),
        )
        .with_deadline(budget);
    let started = Instant::now();
    let report = Cluster::try_run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        alltoall(ep, &input, block, &Tuning::default())
    });
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline failed to bound the run: {elapsed:?}"
    );
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        let err = outcome.as_ref().unwrap_err();
        assert!(
            matches!(err, NetError::DeadlineExceeded { .. }),
            "rank {rank}: expected DeadlineExceeded, got {err:?}"
        );
    }
}

/// The per-collective deadline API: a budget the plan cannot possibly
/// meet fails fast with the structured verdict (per-round sub-budget
/// below one adaptive RTO), and a generous budget arms, completes
/// bit-correct, and disarms.
#[test]
fn alltoall_deadline_is_structured_and_disarms() {
    let n = 4;
    let block = 4;
    let cfg = ClusterConfig::new(n)
        .with_timeout(Duration::from_secs(5))
        .with_reliability(Reliability::default());
    let report = Cluster::try_run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        // Infeasible: whole-call budget far below one RTO per round.
        let err =
            alltoall_deadline(ep, &input, block, &Tuning::default(), Duration::ZERO).unwrap_err();
        assert!(matches!(err, NetError::DeadlineExceeded { .. }), "{err:?}");
        assert_eq!(
            ep.deadline_remaining(),
            None,
            "a failed call must leave the deadline disarmed"
        );
        // Feasible: completes bit-correct and disarms on the way out.
        let data = alltoall_deadline(
            ep,
            &input,
            block,
            &Tuning::default(),
            Duration::from_secs(5),
        )?;
        assert_eq!(ep.deadline_remaining(), None);
        Ok(data)
    });
    for (rank, outcome) in report.outcomes.iter().enumerate() {
        let data = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} failed: {e:?}"));
        assert_eq!(data, &verify::index_expected(rank, n, block));
    }
}

//! High-level tuned entry points — the `MPI_Alltoall` / `MPI_Allgather`
//! equivalents a downstream application calls.
//!
//! The paper's §3.3: "r can be fine-tuned according to the parameters of
//! the underlying machines to balance between the start-up time and the
//! data transfer time". That tuning is an input, not another function:
//! each collective is one `*_into` call taking a [`Tuning`], plus an
//! allocating wrapper. Under the tuning's cost model [`alltoall`]
//! evaluates the closed-form complexity of every candidate radix (or,
//! with [`Tuning::planner`], the whole plan family) and runs the
//! predicted-time minimizer.

use std::sync::Arc;
use std::time::Duration;

use bruck_model::cost::{CostModel, LinearModel};
use bruck_model::partition::Preference;
use bruck_model::planner::{ConcatPlan, IndexPlan, PlanChoice, Planner};
use bruck_model::tuning::{all_radices, best_radix};
use bruck_net::{Comm, Endpoint, Group, NetError, RecoveryPolicy};

use crate::concat::ConcatAlgorithm;
use crate::primitives::barrier_dissemination;
use crate::program_exec::run_plan_into;

/// Tuning knobs for the high-level operations.
///
/// Construct via [`Tuning::default`] or, to override fields, the builder:
///
/// ```
/// use bruck_collectives::api::Tuning;
///
/// let tuning = Tuning::builder().radix(4).build();
/// assert_eq!(tuning.radix, Some(4));
/// ```
///
/// The struct is `#[non_exhaustive]`: new knobs may be added without a
/// breaking release, so downstream crates must go through the builder
/// (or `Default`) rather than a struct literal.
#[derive(Clone)]
#[non_exhaustive]
pub struct Tuning {
    /// Cost model used to select the index radix.
    pub model: Arc<dyn CostModel>,
    /// Force a specific radix instead of auto-tuning.
    pub radix: Option<usize>,
    /// Preference inside the concatenation exception range.
    pub concat_preference: Preference,
    /// Dispatch through the full [`Planner`] family: for alltoall every
    /// uniform radix, the direct exchange and mixed radix instead of the
    /// uniform-radix search only (ignored when [`radix`](Self::radix) is
    /// forced); for allgather both circulant preferences and the ring
    /// instead of [`concat_preference`](Self::concat_preference).
    pub planner: bool,
    /// Force a non-uniform family member for
    /// [`alltoallv_into`](crate::vops::alltoallv_into) instead of the
    /// planner's skew-driven arg-min.
    pub vmethod: Option<crate::vbruck::VMethod>,
    /// Wall-clock completion budget: the call either completes within it
    /// or fails with [`NetError::DeadlineExceeded`] — see
    /// [`alltoall_into`]. Read by alltoall only, like
    /// [`radix`](Self::radix).
    pub budget: Option<Duration>,
}

/// Incremental constructor for [`Tuning`], starting from the defaults.
///
/// Obtained from [`Tuning::builder`]; finish with
/// [`build`](TuningBuilder::build).
#[derive(Clone, Debug)]
pub struct TuningBuilder {
    inner: Tuning,
}

impl TuningBuilder {
    /// Set the cost model used to select the index radix.
    #[must_use]
    pub fn model(mut self, model: Arc<dyn CostModel>) -> Self {
        self.inner.model = model;
        self
    }

    /// Force a specific radix instead of auto-tuning.
    #[must_use]
    pub fn radix(mut self, radix: usize) -> Self {
        self.inner.radix = Some(radix);
        self
    }

    /// Set the preference inside the concatenation exception range.
    #[must_use]
    pub fn concat_preference(mut self, pref: Preference) -> Self {
        self.inner.concat_preference = pref;
        self
    }

    /// Enable (or disable) full planner dispatch — see [`Tuning::planner`].
    #[must_use]
    pub fn planner(mut self, enabled: bool) -> Self {
        self.inner.planner = enabled;
        self
    }

    /// Force a non-uniform family member (direct, padded Bruck, or
    /// two-phase Bruck) for the v-ops instead of skew-driven dispatch.
    #[must_use]
    pub fn vmethod(mut self, method: crate::vbruck::VMethod) -> Self {
        self.inner.vmethod = Some(method);
        self
    }

    /// Bound alltoall's wall-clock time — see [`Tuning::budget`].
    #[must_use]
    pub fn budget(mut self, budget: Duration) -> Self {
        self.inner.budget = Some(budget);
        self
    }

    /// Finish, yielding the configured [`Tuning`].
    #[must_use]
    pub fn build(self) -> Tuning {
        self.inner
    }
}

impl Default for Tuning {
    /// SP-1 linear parameters, auto radix, round-preserving concatenation.
    fn default() -> Self {
        Self {
            model: Arc::new(LinearModel::sp1()),
            radix: None,
            concat_preference: Preference::Rounds,
            planner: false,
            vmethod: None,
            budget: None,
        }
    }
}

impl core::fmt::Debug for Tuning {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Tuning")
            .field("model", &self.model.name())
            .field("radix", &self.radix)
            .field("concat_preference", &self.concat_preference)
            .field("planner", &self.planner)
            .field("vmethod", &self.vmethod)
            .field("budget", &self.budget)
            .finish()
    }
}

impl Tuning {
    /// Start building a `Tuning` from the default configuration.
    #[must_use]
    pub fn builder() -> TuningBuilder {
        TuningBuilder {
            inner: Self::default(),
        }
    }

    /// A tuning that dispatches through the full [`Planner`] family under
    /// the given cost model, for alltoall and allgather alike (see
    /// [`planner`](Self::planner)). Pair with a model fitted by
    /// [`autotune`](crate::autotune) against the live transport.
    #[must_use]
    pub fn auto(model: Arc<dyn CostModel>) -> Self {
        Self {
            model,
            planner: true,
            ..Self::default()
        }
    }

    /// The index plan [`alltoall`] will execute for `n` ranks, `b`-byte
    /// blocks, and `k` ports under this tuning. A forced radix always
    /// wins; otherwise the full planner family is searched when
    /// [`planner`](Self::planner) is set, and the uniform radices only
    /// when it is not.
    #[must_use]
    pub fn chosen_plan(&self, n: usize, block: usize, ports: usize) -> PlanChoice<IndexPlan> {
        if let Some(r) = self.radix {
            let r = r.clamp(2, n.max(2));
            let complexity = bruck_model::tuning::index_complexity_kport(n.max(2), r, block, ports);
            return PlanChoice {
                plan: IndexPlan::Radix(r),
                complexity,
                predicted_time: self.model.estimate(complexity),
            };
        }
        if self.planner {
            Planner::new(self.model.as_ref()).plan_index(n, ports, block)
        } else {
            let choice = best_radix(n, block, ports, self.model.as_ref(), all_radices(n));
            PlanChoice {
                plan: IndexPlan::Radix(choice.radix),
                complexity: choice.complexity,
                predicted_time: choice.predicted_time,
            }
        }
    }

    /// The concatenation plan [`allgather`] will execute for `n` ranks,
    /// `b`-byte blocks, and `k` ports under this tuning: the planner's
    /// arg-min when [`planner`](Self::planner) is set, otherwise the
    /// circulant algorithm under
    /// [`concat_preference`](Self::concat_preference).
    #[must_use]
    pub fn chosen_concat(&self, n: usize, block: usize, ports: usize) -> PlanChoice<ConcatPlan> {
        let planner = Planner::new(self.model.as_ref());
        if self.planner {
            return planner.plan_concat(n, ports, block);
        }
        let plan = ConcatPlan::Bruck(self.concat_preference);
        let complexity = planner.concat_complexity(&plan, n, ports, block);
        PlanChoice {
            plan,
            complexity,
            predicted_time: self.model.estimate(complexity),
        }
    }
}

/// All-to-all personalized communication with an auto-tuned radix.
///
/// `sendbuf` holds `n` blocks of `block` bytes (block `j` destined for
/// rank `j`); the result holds block `j` *from* rank `j`.
///
/// # Example
///
/// ```
/// use bruck_collectives::api::{alltoall, Tuning};
/// use bruck_net::{Cluster, ClusterConfig};
///
/// let n = 4;
/// let out = Cluster::run(&ClusterConfig::new(n), |ep| {
///     // Block j carries one byte naming the (source, destination) pair.
///     let sendbuf: Vec<u8> = (0..n).map(|j| (ep.rank() * 16 + j) as u8).collect();
///     let result = alltoall(ep, &sendbuf, 1, &Tuning::default())?;
///     // Block j of the result came *from* rank j and names us.
///     for (j, &byte) in result.iter().enumerate() {
///         assert_eq!(byte as usize, j * 16 + ep.rank());
///     }
///     Ok(())
/// })
/// .unwrap();
/// assert_eq!(out.results.len(), n);
/// ```
///
/// # Errors
///
/// See [`run_plan_into`].
pub fn alltoall<C: Comm + ?Sized>(
    ep: &mut C,
    sendbuf: &[u8],
    block: usize,
    tuning: &Tuning,
) -> Result<Vec<u8>, NetError> {
    let mut out = vec![0u8; sendbuf.len()];
    alltoall_into(ep, sendbuf, block, tuning, &mut out)?;
    Ok(out)
}

/// [`alltoall`] into a caller-provided `n·b`-byte output buffer, running
/// the plan [`Tuning::chosen_plan`] reports.
///
/// The zero-copy entry point: every scratch buffer comes from the
/// cluster's buffer pool, so steady-state calls take no fresh buffer
/// (`tests/zero_alloc.rs` counts pool events). Planning, lowering and
/// round bookkeeping still make a few small heap allocations per call.
///
/// With a [`Tuning::budget`] the call either completes bit-correct within
/// it or fails with the structured [`NetError::DeadlineExceeded`] — it
/// can never hang. The budget is armed on the context's
/// [`Deadline`](bruck_net::Deadline) (shared with the reliability
/// sublayer, so even an ARQ-level blocking wait aborts within one poll
/// slice) and disarmed on the way out, success or failure. Before
/// arming, the plan's round count divides the budget into per-round
/// sub-budgets; when the context's adaptive RTO ([`Comm::rto_hint`],
/// warmed by calibration traffic) shows a single round could not even
/// complete one lost-frame recovery inside its sub-budget, the call
/// fails fast instead of burning the wire on a budget it cannot meet.
///
/// # Example
///
/// ```
/// use bruck_collectives::api::{alltoall_into, Tuning};
/// use bruck_net::{Cluster, ClusterConfig};
///
/// let n = 4;
/// let out = Cluster::run(&ClusterConfig::new(n), |ep| {
///     let sendbuf: Vec<u8> = (0..n).map(|j| (ep.rank() * 16 + j) as u8).collect();
///     let mut recvbuf = vec![0u8; n];
///     alltoall_into(ep, &sendbuf, 1, &Tuning::default(), &mut recvbuf)?;
///     for (j, &byte) in recvbuf.iter().enumerate() {
///         assert_eq!(byte as usize, j * 16 + ep.rank());
///     }
///     Ok(())
/// })
/// .unwrap();
/// assert_eq!(out.results.len(), n);
/// ```
///
/// # Errors
///
/// [`NetError::DeadlineExceeded`] on an infeasible or blown budget;
/// otherwise see [`run_plan_into`].
pub fn alltoall_into<C: Comm + ?Sized>(
    ep: &mut C,
    sendbuf: &[u8],
    block: usize,
    tuning: &Tuning,
    out: &mut [u8],
) -> Result<(), NetError> {
    let choice = tuning.chosen_plan(ep.size(), block, ep.ports());
    let Some(budget) = tuning.budget else {
        return run_plan_into(ep, &choice.plan, sendbuf, block, out);
    };
    if let Some(rto) = ep.rto_hint() {
        // Feasibility: a round that loses a frame needs ~one RTO to
        // retransmit and be acked; a per-round sub-budget below that is
        // a guaranteed miss, so fail fast with the same structured
        // verdict the blown budget would produce.
        let per_round = budget.div_f64(choice.complexity.c1.max(1) as f64);
        if per_round < rto {
            return Err(NetError::DeadlineExceeded {
                rank: ep.rank(),
                budget,
            });
        }
    }
    ep.arm_deadline(budget);
    let result = run_plan_into(ep, &choice.plan, sendbuf, block, out);
    ep.disarm_deadline();
    result
}

/// Outcome of [`alltoall_resilient`]: survivor-dense data plus the
/// membership it corresponds to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilientAlltoall {
    /// One `block`-byte block per survivor, in `survivors` order: block
    /// `i` came from global rank `survivors[i]`.
    pub data: Vec<u8>,
    /// Global ranks that completed the successful attempt, ascending.
    pub survivors: Vec<usize>,
    /// Attempts (epochs) consumed, including the successful one.
    pub attempts: usize,
}

/// Enforce an in-run [`RecoveryPolicy`] against an attempt's survivor
/// count. Within one cluster run the failure detector's dead set is
/// monotone — a dead rank cannot come back until the run ends — so
/// `WaitForRejoin` has nothing to wait *for* here and degrades to
/// `ShrinkOnly`; restart-scope rejoin is
/// [`Cluster::run_resilient`](bruck_net::Cluster::run_resilient)'s job.
/// `FailFast` turns a below-quorum membership into an immediate
/// [`NetError::RanksFailed`] carrying the full dead set.
pub(crate) fn check_recovery_policy(
    policy: RecoveryPolicy,
    survivors: usize,
    dead: &[usize],
) -> Result<(), NetError> {
    if policy.below_quorum(survivors) {
        return Err(NetError::RanksFailed {
            ranks: dead.to_vec(),
        });
    }
    Ok(())
}

/// In-run shrink-and-retry all-to-all: on a rank failure mid-collective,
/// the survivors rebuild a dense [`Group`] from the cluster's failure
/// verdict, re-tune the radix for the shrunken size, and re-run among
/// themselves — inside the *same* cluster run, without restarting.
///
/// Each attempt runs in a tag **epoch**
/// ([`GroupComm::with_epoch`](bruck_net::GroupComm::with_epoch)) equal
/// to the failure-detector version the rank acknowledged
/// ([`Endpoint::acknowledge_failures`]): ranks tagging with the same
/// epoch provably hold the same dead set and build identical groups, so
/// neither stale messages from an aborted attempt nor messages from a
/// rank with a different membership view can ever match a receive.
///
/// `sendbuf` still holds one block per *original* rank; blocks addressed
/// to dead ranks are skipped. The result is survivor-dense.
///
/// Every attempt ends with a **completion barrier**
/// ([`barrier_dissemination`], its tags in a phase of their own within
/// the attempt's epoch): a rank returns `Ok` only once every group member
/// has provably finished the same attempt. Without it, a rank whose
/// windowed sends were all fire-and-forget could complete and leave while
/// a peer was still mid-collective; if that peer then triggered a retry, the departed
/// rank could never be recalled and the survivors would stall until the
/// watchdog excommunicated it. With the barrier, a membership change
/// aborts the barrier like any other round, the locally-finished rank
/// discards its result, and it rejoins the shrink-and-retry loop.
///
/// # Errors
///
/// [`NetError::Killed`] immediately if fault injection kills *this*
/// rank; non-failure errors immediately; the last failure verdict when
/// `max_attempts` are exhausted.
///
/// # Panics
///
/// Panics if `max_attempts == 0` or `sendbuf.len() != n·block`.
pub fn alltoall_resilient(
    ep: &mut Endpoint,
    sendbuf: &[u8],
    block: usize,
    tuning: &Tuning,
    max_attempts: usize,
) -> Result<ResilientAlltoall, NetError> {
    alltoall_resilient_with_policy(
        ep,
        sendbuf,
        block,
        tuning,
        max_attempts,
        RecoveryPolicy::default(),
    )
}

/// [`alltoall_resilient`] under an explicit [`RecoveryPolicy`]:
///
/// * [`ShrinkOnly`](RecoveryPolicy::ShrinkOnly) — retry dense among the
///   survivors (the [`alltoall_resilient`] default);
/// * [`FailFast`](RecoveryPolicy::FailFast) — abort with
///   [`NetError::RanksFailed`] as soon as the acknowledged membership
///   drops below `min_quorum`, instead of completing degraded;
/// * [`WaitForRejoin`](RecoveryPolicy::WaitForRejoin) — in-run the dead
///   set is monotone (an evicted rank cannot return before the run
///   ends), so this degrades to `ShrinkOnly` here; pair it with
///   [`Cluster::run_resilient`](bruck_net::Cluster::run_resilient),
///   where the budget is honored at the attempt boundary.
///
/// # Errors
///
/// See [`alltoall_resilient`]; additionally [`NetError::RanksFailed`]
/// when `FailFast` quorum is lost.
///
/// # Panics
///
/// Panics if `max_attempts == 0` or `sendbuf.len() != n·block`.
pub fn alltoall_resilient_with_policy(
    ep: &mut Endpoint,
    sendbuf: &[u8],
    block: usize,
    tuning: &Tuning,
    max_attempts: usize,
    policy: RecoveryPolicy,
) -> Result<ResilientAlltoall, NetError> {
    assert!(max_attempts >= 1, "need at least one attempt");
    let n = Endpoint::size(ep);
    assert_eq!(sendbuf.len(), n * block, "sendbuf must hold n blocks");
    let me = Endpoint::rank(ep);
    let mut last_failure = None;
    for attempt in 0..max_attempts {
        // The acknowledged detector version is the attempt's tag epoch:
        // the dead set is monotone and the version counts it, so ranks
        // tagging with the same epoch hold exactly the same dead set and
        // build identically-shaped groups. A rank whose view is stale
        // aborts its receive on the version bump and lands back here.
        let (epoch, dead) = ep.acknowledge_failures();
        if dead.contains(&me) {
            // Our peers gave up on us (e.g. past their retry cap while we
            // were stalled): we are outside the agreed membership.
            return Err(NetError::RanksFailed { ranks: dead });
        }
        check_recovery_policy(policy, n - dead.len(), &dead)?;
        let group = Group::new((0..n).filter(|r| !dead.contains(r)).collect());
        let survivors = group.members().to_vec();
        let mut dense = Vec::with_capacity(survivors.len() * block);
        for &m in &survivors {
            dense.extend_from_slice(&sendbuf[m * block..(m + 1) * block]);
        }
        let mut gc = group.bind(ep).with_epoch(epoch);
        // A locally-complete attempt only counts once the whole group
        // confirms it: the barrier keeps early finishers recallable, so
        // a failure observed by *any* member sends *every* member around
        // the retry loop with the same verdict.
        let outcome = alltoall(&mut gc, &dense, block, tuning)
            .and_then(|data| barrier_dissemination(&mut gc).map(|()| data));
        match outcome {
            Ok(data) => {
                return Ok(ResilientAlltoall {
                    data,
                    survivors,
                    attempts: attempt + 1,
                })
            }
            Err(e) => {
                // A killed rank must exit, not retry (its kill re-fires
                // every attempt); programming errors are not survivable.
                // Stale traffic from this aborted attempt is NOT purged:
                // its epoch tags can never match a later attempt's
                // receives, while purging would race against
                // already-arrived messages from peers ahead of us.
                if matches!(e, NetError::Killed { rank, .. } if rank == me) || !e.is_rank_failure()
                {
                    return Err(e);
                }
                last_failure = Some(e);
            }
        }
    }
    Err(last_failure.expect("loop body ran at least once"))
}

/// All-to-all broadcast: every rank contributes `myblock` and receives
/// all `n` blocks in rank order — see [`allgather_into`].
///
/// # Example
///
/// ```
/// use bruck_collectives::api::{allgather, Tuning};
/// use bruck_net::{Cluster, ClusterConfig};
///
/// let n = 5;
/// let out = Cluster::run(&ClusterConfig::new(n), |ep| {
///     let mine = vec![ep.rank() as u8; 3];
///     let all = allgather(ep, &mine, &Tuning::default())?;
///     assert_eq!(all.len(), n * 3);
///     for src in 0..n {
///         assert!(all[src * 3..(src + 1) * 3].iter().all(|&x| x == src as u8));
///     }
///     Ok(())
/// })
/// .unwrap();
/// assert_eq!(out.results.len(), n);
/// ```
///
/// # Errors
///
/// See [`ConcatAlgorithm::run`].
pub fn allgather<C: Comm + ?Sized>(
    ep: &mut C,
    myblock: &[u8],
    tuning: &Tuning,
) -> Result<Vec<u8>, NetError> {
    let mut out = vec![0u8; ep.size() * myblock.len()];
    allgather_into(ep, myblock, tuning, &mut out)?;
    Ok(out)
}

/// [`allgather`] into a caller-provided `n·b`-byte output buffer, running
/// the plan [`Tuning::chosen_concat`] reports.
///
/// The zero-copy entry point: every scratch buffer comes from the
/// cluster's buffer pool, so steady-state calls take no fresh buffer
/// (`tests/zero_alloc.rs` counts pool events). Planning, lowering and
/// round bookkeeping still make a few small heap allocations per call.
///
/// # Errors
///
/// See [`ConcatAlgorithm::run_into`].
pub fn allgather_into<C: Comm + ?Sized>(
    ep: &mut C,
    myblock: &[u8],
    tuning: &Tuning,
    out: &mut [u8],
) -> Result<(), NetError> {
    let choice = tuning.chosen_concat(ep.size(), myblock.len(), ep.ports());
    let algorithm = match choice.plan {
        ConcatPlan::Bruck(pref) => ConcatAlgorithm::Bruck(pref),
        ConcatPlan::Ring => ConcatAlgorithm::Ring,
    };
    algorithm.run_into(ep, myblock, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_model::complexity::Complexity;
    use bruck_net::{Cluster, ClusterConfig};

    #[test]
    fn alltoall_auto_tuned_is_correct() {
        for block in [1usize, 64, 1024] {
            let n = 8;
            let cfg = ClusterConfig::new(n);
            let tuning = Tuning::default();
            let out = Cluster::run(&cfg, |ep| {
                let input = crate::verify::index_input(ep.rank(), n, block);
                alltoall(ep, &input, block, &tuning)
            })
            .unwrap();
            for (rank, result) in out.results.iter().enumerate() {
                assert_eq!(result, &crate::verify::index_expected(rank, n, block));
            }
        }
    }

    /// The radix of a uniform-radix plan.
    fn radix_of(choice: PlanChoice<IndexPlan>) -> usize {
        match choice.plan {
            IndexPlan::Radix(r) => r,
            other => panic!("not a uniform radix: {other:?}"),
        }
    }

    #[test]
    fn radix_override_is_respected() {
        let tuning = Tuning::builder().radix(4).build();
        assert_eq!(radix_of(tuning.chosen_plan(16, 100, 1)), 4);
        // Clamped into [2, n].
        let tuning = Tuning::builder().radix(100).build();
        assert_eq!(radix_of(tuning.chosen_plan(16, 100, 1)), 16);
    }

    #[test]
    fn builder_covers_every_knob() {
        let method = crate::vbruck::VMethod::Direct;
        let tuning = Tuning::builder()
            .model(Arc::new(LinearModel::new(1e-3, 1e-8)))
            .radix(3)
            .concat_preference(Preference::Bytes)
            .planner(true)
            .vmethod(method)
            .budget(Duration::from_secs(2))
            .build();
        assert_eq!(tuning.model.estimate(Complexity::new(1, 0)), 1e-3);
        assert_eq!(tuning.radix, Some(3));
        assert_eq!(tuning.concat_preference, Preference::Bytes);
        assert!(tuning.planner);
        assert_eq!(tuning.vmethod, Some(method));
        assert_eq!(tuning.budget, Some(Duration::from_secs(2)));
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        let n = 6;
        let block = 4;
        let cfg = ClusterConfig::new(n).with_ports(2);
        let tuning = Tuning::builder().radix(3).build();
        let out = Cluster::run(&cfg, |ep| {
            let input = crate::verify::index_input(ep.rank(), n, block);
            let a = alltoall(ep, &input, block, &tuning)?;
            let mut b = vec![0u8; n * block];
            alltoall_into(ep, &input, block, &tuning, &mut b)?;
            let mine = crate::verify::concat_input(ep.rank(), block);
            let c = allgather(ep, &mine, &tuning)?;
            let mut d = vec![0u8; n * block];
            allgather_into(ep, &mine, &tuning, &mut d)?;
            Ok((a, b, c, d))
        })
        .unwrap();
        for (rank, (a, b, c, d)) in out.results.iter().enumerate() {
            assert_eq!(a, b, "alltoall variants disagree at rank {rank}");
            assert_eq!(c, d, "allgather variants disagree at rank {rank}");
            assert_eq!(a, &crate::verify::index_expected(rank, n, block));
            assert_eq!(c, &crate::verify::concat_expected(n, block));
        }
    }

    #[test]
    fn auto_radix_adapts_to_block_size() {
        let tuning = Tuning::default();
        let small = radix_of(tuning.chosen_plan(64, 1, 1));
        let large = radix_of(tuning.chosen_plan(64, 16384, 1));
        assert!(
            small < large,
            "small-block radix {small} should be below large-block {large}"
        );
    }

    #[test]
    fn planner_tuning_is_correct_across_block_sizes() {
        // Small blocks dispatch a low radix, large blocks the direct
        // exchange — both must produce the right answer.
        for block in [1usize, 2048] {
            let n = 8;
            let cfg = ClusterConfig::new(n).with_ports(2);
            let tuning = Tuning::auto(Arc::new(LinearModel::sp1()));
            let out = Cluster::run(&cfg, |ep| {
                let input = crate::verify::index_input(ep.rank(), n, block);
                alltoall(ep, &input, block, &tuning)
            })
            .unwrap();
            for (rank, result) in out.results.iter().enumerate() {
                assert_eq!(result, &crate::verify::index_expected(rank, n, block));
            }
        }
    }

    #[test]
    fn forced_radix_overrides_planner() {
        let tuning = Tuning::builder().planner(true).radix(4).build();
        let choice = tuning.chosen_plan(16, 1 << 20, 1);
        assert_eq!(choice.plan, bruck_model::planner::IndexPlan::Radix(4));
    }

    #[test]
    fn auto_entry_points_report_winning_plan() {
        let n = 8;
        let block = 4096;
        let model = LinearModel::sp1();
        let tuning = Tuning::auto(Arc::new(model));
        let cfg = ClusterConfig::new(n).with_ports(2);
        let out = Cluster::run(&cfg, |ep| {
            let input = crate::verify::index_input(ep.rank(), n, block);
            let data = alltoall(ep, &input, block, &tuning)?;
            let choice = tuning.chosen_plan(n, block, ep.ports());
            let mine = crate::verify::concat_input(ep.rank(), block);
            let all = allgather(ep, &mine, &tuning)?;
            let cchoice = tuning.chosen_concat(n, block, ep.ports());
            Ok((data, choice, all, cchoice))
        })
        .unwrap();
        let expected_choice = Planner::new(&model).plan_index(n, 2, block);
        for (rank, (data, choice, all, cchoice)) in out.results.iter().enumerate() {
            assert_eq!(data, &crate::verify::index_expected(rank, n, block));
            assert_eq!(choice.plan, expected_choice.plan);
            assert_eq!(all, &crate::verify::concat_expected(n, block));
            assert!(cchoice.predicted_time.is_finite());
        }
    }

    /// What `allgather_into` runs: the circulant with the round-preferring
    /// last round at the benchmark's and the CI smokes' shapes under
    /// planner dispatch, and a plan the non-planner path never runs where
    /// the planner picks one — run bit-exact, at the complexity it claims.
    #[test]
    fn allgather_dispatch_is_pinned() {
        let planner = Tuning::builder().planner(true).build();
        for (n, block) in [(8, 65_536), (4, 16_384)] {
            let choice = planner.chosen_concat(n, block, 2);
            assert_eq!(
                choice.plan,
                ConcatPlan::Bruck(Preference::Rounds),
                "n={n} b={block}"
            );
        }
        let (n, block, k) = (15, 4096, 3);
        let tuning = Tuning::auto(Arc::new(LinearModel::sp1()));
        let choice = tuning.chosen_concat(n, block, k);
        assert_eq!(choice.plan, ConcatPlan::Bruck(Preference::Bytes));
        assert_eq!(choice.complexity, Complexity::new(3, 19_115));
        let fixed = Tuning::default().chosen_concat(n, block, k);
        assert_eq!(fixed.plan, ConcatPlan::Bruck(Preference::Rounds));
        let out = Cluster::run(&ClusterConfig::new(n).with_ports(k), |ep| {
            allgather(ep, &crate::verify::concat_input(ep.rank(), block), &tuning)
        })
        .unwrap();
        for result in &out.results {
            assert_eq!(result, &crate::verify::concat_expected(n, block));
        }
        assert_eq!(out.metrics.global_complexity(), Some(choice.complexity));
    }

    #[test]
    fn allgather_is_correct() {
        let n = 9;
        let cfg = ClusterConfig::new(n).with_ports(2);
        let tuning = Tuning::default();
        let out = Cluster::run(&cfg, |ep| {
            let input = crate::verify::concat_input(ep.rank(), 5);
            allgather(ep, &input, &tuning)
        })
        .unwrap();
        for result in &out.results {
            assert_eq!(result, &crate::verify::concat_expected(n, 5));
        }
    }
}

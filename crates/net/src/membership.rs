//! Cluster membership views, rank rejoin, and flap-damped recovery
//! policies.
//!
//! The [`FailureDetector`](crate::failure::FailureDetector) answers one
//! question — *who died during this run?* — as a monotone dead set
//! whose version number tags every in-run retry epoch. That is the
//! right primitive **inside** an attempt (a dead set can only grow
//! while traffic is in flight), but it cannot express recovery: a rank
//! that was killed, restarted, and is ready to serve again is still
//! "dead" forever.
//!
//! This module generalizes the one-shot verdict into a **membership
//! view log** that lives *across* attempts. Between attempts — at a
//! **collective boundary**, when no traffic is in flight and every
//! surviving rank holds the same verdict — the
//! [`Cluster::run_resilient`](crate::cluster::Cluster::run_resilient)
//! driver folds the attempt's evictions into the log, optionally waits
//! for quarantined ranks to become re-admittable, and starts the next
//! attempt from the new view. In-flight attempts therefore never see a
//! membership change mid-round: within an attempt the detector's
//! monotone epoch tags still rule, and the view only steps at the
//! boundary.
//!
//! # View ids subsume epoch tags
//!
//! A [`MembershipView`]'s `id` is the length of the delta log: every
//! eviction and every admission appends exactly one [`ViewDelta`], so
//! two views with the same id over the same cluster hold the *same
//! member set* (the log is deterministic given the same fault
//! history). Within one attempt the failure-detector version (the tag
//! epoch) counts in-run deaths; at the boundary each of those deaths
//! becomes one `Evict` delta, so the view id advances by at least as
//! much as the epoch did — the view id is the cross-attempt
//! generalization of the in-run epoch (`view id ⊇ epoch tags`).
//!
//! # Rejoin and flap damping
//!
//! An evicted rank enters **quarantine**: a hold-down window that
//! doubles with every eviction of the same rank
//! (`base · 2^(flaps−1)`, capped), so a *flapping* rank — one that
//! repeatedly fails and rejoins — earns exponentially growing
//! exclusion instead of destabilizing every collective. When the
//! window has elapsed and the caller's [`RecoveryPolicy`] allows it,
//! the rank is re-admitted at the next collective boundary with a
//! designated **sponsor** (the lowest-ranked current member) recorded
//! in the admission delta — the member a rejoining rank syncs the
//! current view from.
//!
//! The state machine, per rank:
//!
//! ```text
//! member ──(accused in-run)──▶ suspected ──(verdict)──▶ evicted
//!    ▲                                                     │
//!    │                                        flap-damped quarantine
//!    └────────────(re-admitted at boundary)── quarantined ◀┘
//!                        = rejoined
//! ```
//!
//! `suspected` is transient and lives inside the
//! [`FailureDetector`](crate::failure::FailureDetector) (an accusation
//! under arbitration); this registry only sees the settled verdict, so
//! [`RankState`] has no `Suspected` variant.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::error::NetError;

/// How [`Cluster::run_resilient`](crate::cluster::Cluster::run_resilient)
/// responds to rank failures between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Evict failed ranks and continue with the survivors — the PR 2
    /// behavior. Evicted ranks never return.
    #[default]
    ShrinkOnly,
    /// After evicting, wait up to `budget` at the collective boundary
    /// for quarantined ranks whose hold-down window expires in time,
    /// re-admit them, and run the next attempt over the restored
    /// membership. Ranks whose (flap-damped) quarantine exceeds the
    /// budget stay out and the survivors proceed without them.
    WaitForRejoin {
        /// Maximum boundary wait per failed attempt.
        budget: Duration,
    },
    /// Evict failed ranks, but abort the whole run with
    /// [`NetError::RanksFailed`](crate::error::NetError::RanksFailed)
    /// as soon as fewer than `min_quorum` members remain — for callers
    /// who would rather fail fast than compute on a degraded group.
    FailFast {
        /// Minimum acceptable member count.
        min_quorum: usize,
    },
}

impl RecoveryPolicy {
    /// Whether a membership of `members` ranks is too small to go on
    /// under this policy — only [`FailFast`](Self::FailFast) has a
    /// quorum. The one quorum test: the resilient drivers (through
    /// [`Membership::fold_failures`]) and the in-collective
    /// `alltoall_resilient` family both ask here.
    #[must_use]
    pub fn below_quorum(&self, members: usize) -> bool {
        matches!(*self, Self::FailFast { min_quorum } if members < min_quorum)
    }
}

/// A rank's position in the recovery lifecycle, as seen by the
/// membership registry (the transient `suspected` stage lives in the
/// failure detector — see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankState {
    /// In the current view and never evicted.
    Member,
    /// Out of the view; the flap-damped quarantine window is still
    /// running, so the rank cannot be re-admitted yet.
    Quarantined,
    /// Out of the view with the quarantine window elapsed; awaiting a
    /// boundary admission (never granted under
    /// [`RecoveryPolicy::ShrinkOnly`], so this is its terminal state).
    Evicted,
    /// Back in the current view after at least one eviction.
    Rejoined,
}

/// One step of the membership view log. The view id is the log length,
/// so every delta advances the view by exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewDelta {
    /// `rank` left the view (failure verdict folded at a boundary).
    Evict {
        /// The evicted rank (original numbering).
        rank: usize,
    },
    /// `rank` re-entered the view, syncing through `sponsor` — the
    /// lowest-ranked member at admission time, the designated server
    /// of the current view for the rejoiner.
    Admit {
        /// The re-admitted rank (original numbering).
        rank: usize,
        /// The member that sponsored the admission.
        sponsor: usize,
    },
}

/// An immutable snapshot of the membership at one view id.
///
/// Two snapshots of the same cluster with equal `id` hold equal
/// `members` — the id is the length of the deterministic delta log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    /// Number of deltas applied to reach this view. Strictly increases
    /// with every eviction and admission; majorizes any in-attempt
    /// failure-detector epoch folded at the boundary.
    pub id: u64,
    /// Current members, ascending, in original-rank numbering.
    pub members: Vec<usize>,
}

impl MembershipView {
    /// Whether `rank` is in this view.
    #[must_use]
    pub fn contains(&self, rank: usize) -> bool {
        self.members.binary_search(&rank).is_ok()
    }

    /// Member count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view is empty (every rank evicted).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Per-run membership counters, folded into
/// [`RunMetrics`](crate::metrics::RunMetrics) by the resilient driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MembershipStats {
    /// View-log length: total evictions + admissions.
    pub view_changes: u64,
    /// Ranks evicted (a flapping rank counts once per eviction).
    pub evictions: u64,
    /// Ranks re-admitted after quarantine.
    pub rejoins: u64,
    /// Quarantine windows started (== evictions while rejoin-capable
    /// accounting is on; kept separate so a future suspend-without-
    /// eviction path can diverge).
    pub quarantines: u64,
}

impl MembershipStats {
    /// Sum of two counter sets (for folding sub-runs together).
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            view_changes: self.view_changes + other.view_changes,
            evictions: self.evictions + other.evictions,
            rejoins: self.rejoins + other.rejoins,
            quarantines: self.quarantines + other.quarantines,
        }
    }
}

/// Default flap-damping base quarantine (first eviction's hold-down).
pub const DEFAULT_BASE_QUARANTINE: Duration = Duration::from_millis(10);

/// Hard cap on any single quarantine window, however many flaps.
pub const MAX_QUARANTINE: Duration = Duration::from_secs(30);

struct Inner {
    member: Vec<bool>,
    /// Evictions per rank; drives the exponential hold-down.
    flaps: Vec<u32>,
    /// End of the rank's current quarantine window, if ever evicted.
    until: Vec<Option<Instant>>,
    /// Restart count: bumped on every admission (incarnation 0 is the
    /// original membership).
    incarnation: Vec<u64>,
    log: Vec<ViewDelta>,
    stats: MembershipStats,
}

/// The cross-attempt membership registry: a delta log over the
/// original rank set with flap-damped quarantine accounting.
///
/// One instance lives for the duration of a
/// [`Cluster::run_resilient`](crate::cluster::Cluster::run_resilient)
/// call; all mutation happens at collective boundaries (between
/// attempts), never while an attempt is in flight.
pub struct Membership {
    n: usize,
    base_quarantine: Duration,
    max_quarantine: Duration,
    inner: Mutex<Inner>,
}

impl Membership {
    /// A full membership over ranks `0..n` at view id 0.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "membership needs at least one rank");
        Self {
            n,
            base_quarantine: DEFAULT_BASE_QUARANTINE,
            max_quarantine: MAX_QUARANTINE,
            inner: Mutex::new(Inner {
                member: vec![true; n],
                flaps: vec![0; n],
                until: vec![None; n],
                incarnation: vec![0; n],
                log: Vec::new(),
                stats: MembershipStats::default(),
            }),
        }
    }

    /// Override the first-eviction quarantine window (doubles per flap).
    #[must_use]
    pub fn with_base_quarantine(mut self, base: Duration) -> Self {
        self.base_quarantine = base;
        self
    }

    /// Override the quarantine cap.
    #[must_use]
    pub fn with_max_quarantine(mut self, max: Duration) -> Self {
        self.max_quarantine = max;
        self
    }

    /// The original cluster size this registry was built over.
    #[must_use]
    pub fn original_n(&self) -> usize {
        self.n
    }

    /// Snapshot the current view.
    #[must_use]
    pub fn view(&self) -> MembershipView {
        let inner = self.inner.lock().expect("membership lock");
        MembershipView {
            id: inner.log.len() as u64,
            members: (0..self.n).filter(|&r| inner.member[r]).collect(),
        }
    }

    /// Current view id (the delta-log length).
    #[must_use]
    pub fn view_id(&self) -> u64 {
        self.inner.lock().expect("membership lock").log.len() as u64
    }

    /// Current members, ascending, original numbering.
    #[must_use]
    pub fn members(&self) -> Vec<usize> {
        self.view().members
    }

    /// The rank's lifecycle state right now.
    #[must_use]
    pub fn state(&self, rank: usize) -> RankState {
        let inner = self.inner.lock().expect("membership lock");
        if inner.member[rank] {
            if inner.flaps[rank] == 0 {
                RankState::Member
            } else {
                RankState::Rejoined
            }
        } else {
            match inner.until[rank] {
                Some(t) if Instant::now() < t => RankState::Quarantined,
                _ => RankState::Evicted,
            }
        }
    }

    /// Evictions recorded against `rank` so far.
    #[must_use]
    pub fn flaps(&self, rank: usize) -> u32 {
        self.inner.lock().expect("membership lock").flaps[rank]
    }

    /// The rank's restart count (bumped on every admission).
    #[must_use]
    pub fn incarnation(&self, rank: usize) -> u64 {
        self.inner.lock().expect("membership lock").incarnation[rank]
    }

    /// Remaining quarantine for a non-member, if its window is still
    /// running.
    #[must_use]
    pub fn quarantine_remaining(&self, rank: usize) -> Option<Duration> {
        let inner = self.inner.lock().expect("membership lock");
        if inner.member[rank] {
            return None;
        }
        inner.until[rank].and_then(|t| t.checked_duration_since(Instant::now()))
    }

    /// Snapshot of the delta log (the view id is its length).
    #[must_use]
    pub fn log(&self) -> Vec<ViewDelta> {
        self.inner.lock().expect("membership lock").log.clone()
    }

    /// Counter snapshot for folding into run metrics.
    #[must_use]
    pub fn stats(&self) -> MembershipStats {
        self.inner.lock().expect("membership lock").stats
    }

    /// Members that have been evicted and re-admitted at least once
    /// and are in the current view.
    #[must_use]
    pub fn rejoined_ranks(&self) -> Vec<usize> {
        let inner = self.inner.lock().expect("membership lock");
        (0..self.n)
            .filter(|&r| inner.member[r] && inner.flaps[r] > 0)
            .collect()
    }

    /// Ranks currently outside the view, ascending.
    #[must_use]
    pub fn evicted_ranks(&self) -> Vec<usize> {
        let inner = self.inner.lock().expect("membership lock");
        (0..self.n).filter(|&r| !inner.member[r]).collect()
    }

    /// Fold a failure verdict into the view at a collective boundary:
    /// evict `rank` and start its flap-damped quarantine window
    /// (`base · 2^(flaps−1)`, capped). Returns the window length.
    /// Evicting a rank that is already out is a no-op returning its
    /// remaining window (zero if elapsed).
    pub fn evict(&self, rank: usize) -> Duration {
        assert!(rank < self.n, "rank {rank} out of range 0..{}", self.n);
        let mut inner = self.inner.lock().expect("membership lock");
        if !inner.member[rank] {
            return inner.until[rank]
                .and_then(|t| t.checked_duration_since(Instant::now()))
                .unwrap_or(Duration::ZERO);
        }
        inner.member[rank] = false;
        inner.flaps[rank] += 1;
        let exp = inner.flaps[rank].saturating_sub(1).min(20);
        let window = self
            .base_quarantine
            .saturating_mul(1u32 << exp)
            .min(self.max_quarantine);
        inner.until[rank] = Some(Instant::now() + window);
        inner.log.push(ViewDelta::Evict { rank });
        inner.stats.evictions += 1;
        inner.stats.quarantines += 1;
        inner.stats.view_changes += 1;
        window
    }

    /// The attempt-boundary step every resilient driver takes after a
    /// failed attempt: evict `failed` (original numbering), then let
    /// `policy` decide how the next attempt starts. Returns the ranks
    /// re-admitted at this boundary — empty unless the policy is
    /// [`WaitForRejoin`](RecoveryPolicy::WaitForRejoin).
    ///
    /// # Errors
    ///
    /// [`NetError::RanksFailed`] carrying every rank outside the view
    /// when the evictions leave nobody, or fewer members than a
    /// [`FailFast`](RecoveryPolicy::FailFast) quorum.
    pub fn fold_failures(
        &self,
        failed: impl IntoIterator<Item = usize>,
        policy: RecoveryPolicy,
    ) -> Result<Vec<usize>, NetError> {
        for rank in failed {
            self.evict(rank);
        }
        let members = self.members().len();
        if members == 0 || policy.below_quorum(members) {
            return Err(NetError::RanksFailed {
                ranks: self.evicted_ranks(),
            });
        }
        Ok(match policy {
            RecoveryPolicy::WaitForRejoin { budget } => self.wait_for_rejoin(budget),
            RecoveryPolicy::ShrinkOnly | RecoveryPolicy::FailFast { .. } => Vec::new(),
        })
    }

    /// Re-admit every non-member whose quarantine window has elapsed
    /// by `now`, recording each admission with its sponsor (the lowest
    /// current member, or the rejoiner itself if the view was empty).
    /// Returns the admitted ranks, ascending.
    pub fn admit_ready(&self, now: Instant) -> Vec<usize> {
        let mut inner = self.inner.lock().expect("membership lock");
        let ready: Vec<usize> = (0..self.n)
            .filter(|&r| !inner.member[r] && inner.until[r].is_some_and(|t| t <= now))
            .collect();
        for &rank in &ready {
            let sponsor = (0..self.n).find(|&r| inner.member[r]).unwrap_or(rank);
            inner.member[rank] = true;
            inner.until[rank] = None;
            inner.incarnation[rank] += 1;
            inner.log.push(ViewDelta::Admit { rank, sponsor });
            inner.stats.rejoins += 1;
            inner.stats.view_changes += 1;
        }
        ready
    }

    /// Boundary wait for [`RecoveryPolicy::WaitForRejoin`]: if any
    /// quarantined rank's window expires within `budget`, sleep —
    /// with jittered exponential backoff, modelling the restarted
    /// rank's reconnect attempts — until the last such window has
    /// elapsed, then re-admit everything that became ready. Ranks
    /// whose window outlasts the budget are left quarantined. Returns
    /// the admitted ranks, ascending (empty when nothing could rejoin
    /// in time).
    pub fn wait_for_rejoin(&self, budget: Duration) -> Vec<usize> {
        let now = Instant::now();
        let deadline = now + budget;
        let target = {
            let inner = self.inner.lock().expect("membership lock");
            (0..self.n)
                .filter(|&r| !inner.member[r])
                .filter_map(|r| inner.until[r])
                .filter(|&t| t <= deadline)
                .max()
        };
        let Some(target) = target else {
            return Vec::new();
        };
        // Jittered exponential backoff toward the release instant: the
        // same discipline a restarted rank uses when re-binding its
        // socket, so boundary waits and reconnect storms stay
        // desynchronized across ranks. Deterministic jitter (splitmix64
        // of the iteration count) keeps runs reproducible.
        let mut slice = Duration::from_micros(200);
        let mut iter = 0u64;
        loop {
            let now = Instant::now();
            let Some(remaining) = target.checked_duration_since(now) else {
                break;
            };
            let jitter_ns =
                mix64(iter.wrapping_add(0x9E37_79B9)) % (slice.as_nanos().max(1) as u64 / 2 + 1);
            let nap = (slice + Duration::from_nanos(jitter_ns)).min(remaining);
            std::thread::sleep(nap.max(Duration::from_micros(50)));
            slice = (slice * 2).min(Duration::from_millis(16));
            iter += 1;
        }
        self.admit_ready(Instant::now())
    }
}

/// splitmix64 finalizer — the same mixer the fault layer uses for its
/// deterministic wire draws.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_membership_is_full_at_view_zero() {
        let m = Membership::new(4);
        let v = m.view();
        assert_eq!(v.id, 0);
        assert_eq!(v.members, vec![0, 1, 2, 3]);
        assert!(v.contains(2) && !v.is_empty() && v.len() == 4);
        for r in 0..4 {
            assert_eq!(m.state(r), RankState::Member);
            assert_eq!(m.incarnation(r), 0);
        }
    }

    #[test]
    fn evict_starts_quarantine_and_steps_view() {
        let m = Membership::new(4).with_base_quarantine(Duration::from_millis(50));
        let w = m.evict(2);
        assert_eq!(w, Duration::from_millis(50));
        assert_eq!(m.view_id(), 1);
        assert_eq!(m.members(), vec![0, 1, 3]);
        assert_eq!(m.state(2), RankState::Quarantined);
        assert!(m.quarantine_remaining(2).is_some());
        assert_eq!(m.log(), vec![ViewDelta::Evict { rank: 2 }]);
        let s = m.stats();
        assert_eq!((s.evictions, s.quarantines, s.view_changes), (1, 1, 1));
        // Double eviction is a no-op.
        m.evict(2);
        assert_eq!(m.view_id(), 1);
        assert_eq!(m.stats().evictions, 1);
    }

    #[test]
    fn fold_failures_applies_each_policy_at_the_boundary() {
        let fresh = || Membership::new(4).with_base_quarantine(Duration::from_millis(5));
        // ShrinkOnly: evict, nobody returns.
        let m = fresh();
        assert_eq!(m.fold_failures([1], RecoveryPolicy::ShrinkOnly), Ok(vec![]));
        assert_eq!(m.members(), vec![0, 2, 3]);
        // FailFast: the verdict names every rank outside the view once
        // the quorum is lost, and not before.
        let policy = RecoveryPolicy::FailFast { min_quorum: 3 };
        assert!(!policy.below_quorum(3) && policy.below_quorum(2));
        assert_eq!(m.fold_failures([], policy), Ok(vec![]));
        assert_eq!(
            m.fold_failures([3], policy),
            Err(NetError::RanksFailed { ranks: vec![1, 3] })
        );
        // WaitForRejoin: the evicted rank is back at the same boundary.
        let m = fresh();
        let budget = Duration::from_secs(2);
        assert_eq!(
            m.fold_failures([2], RecoveryPolicy::WaitForRejoin { budget }),
            Ok(vec![2])
        );
        assert_eq!(m.members(), vec![0, 1, 2, 3]);
        // Nobody left is a verdict under every policy, before any wait.
        for policy in [
            RecoveryPolicy::ShrinkOnly,
            RecoveryPolicy::WaitForRejoin { budget },
        ] {
            assert_eq!(
                fresh().fold_failures(0..4, policy),
                Err(NetError::RanksFailed {
                    ranks: vec![0, 1, 2, 3]
                })
            );
        }
    }

    #[test]
    fn quarantine_grows_exponentially_and_caps() {
        let m = Membership::new(2)
            .with_base_quarantine(Duration::from_millis(10))
            .with_max_quarantine(Duration::from_millis(35));
        assert_eq!(m.evict(1), Duration::from_millis(10));
        m.admit_ready(Instant::now() + Duration::from_secs(1));
        assert_eq!(m.evict(1), Duration::from_millis(20));
        m.admit_ready(Instant::now() + Duration::from_secs(1));
        // 40 ms would be next; the cap clamps it.
        assert_eq!(m.evict(1), Duration::from_millis(35));
        assert_eq!(m.flaps(1), 3);
    }

    #[test]
    fn admission_records_sponsor_and_incarnation() {
        let m = Membership::new(4).with_base_quarantine(Duration::ZERO);
        m.evict(1);
        m.evict(0);
        let admitted = m.admit_ready(Instant::now());
        assert_eq!(admitted, vec![0, 1]);
        assert_eq!(m.state(0), RankState::Rejoined);
        assert_eq!(m.state(1), RankState::Rejoined);
        assert_eq!(m.incarnation(0), 1);
        assert_eq!(m.rejoined_ranks(), vec![0, 1]);
        let log = m.log();
        // Rank 0 was admitted first (ascending) with sponsor 2 — the
        // lowest member while 0 and 1 were both out.
        assert_eq!(
            log[2],
            ViewDelta::Admit {
                rank: 0,
                sponsor: 2
            }
        );
        // By rank 1's admission, 0 was back and sponsors it.
        assert_eq!(
            log[3],
            ViewDelta::Admit {
                rank: 1,
                sponsor: 0
            }
        );
        assert_eq!(m.view_id(), 4);
        assert_eq!(m.stats().rejoins, 2);
    }

    #[test]
    fn wait_for_rejoin_admits_within_budget() {
        let m = Membership::new(4).with_base_quarantine(Duration::from_millis(20));
        m.evict(3);
        let t0 = Instant::now();
        let admitted = m.wait_for_rejoin(Duration::from_millis(500));
        assert_eq!(admitted, vec![3]);
        assert!(
            t0.elapsed() >= Duration::from_millis(15),
            "must wait out the window"
        );
        assert_eq!(m.members(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn wait_for_rejoin_leaves_long_quarantines_out() {
        let m = Membership::new(4).with_base_quarantine(Duration::from_millis(200));
        m.evict(1);
        let t0 = Instant::now();
        let admitted = m.wait_for_rejoin(Duration::from_millis(20));
        assert!(admitted.is_empty());
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "must not wait past the budget for an unreachable window"
        );
        assert_eq!(m.state(1), RankState::Quarantined);
        assert_eq!(
            m.members(),
            vec![0, 1, 2, 3]
                .into_iter()
                .filter(|&r| r != 1)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn same_delta_sequence_yields_same_view() {
        let a = Membership::new(8).with_base_quarantine(Duration::ZERO);
        let b = Membership::new(8).with_base_quarantine(Duration::ZERO);
        for m in [&a, &b] {
            m.evict(5);
            m.evict(2);
            m.admit_ready(Instant::now());
        }
        assert_eq!(a.view_id(), b.view_id());
        assert_eq!(a.view(), b.view());
        assert_eq!(a.log(), b.log());
    }
}

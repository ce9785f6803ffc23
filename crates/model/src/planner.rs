//! Cost-model dispatch over the paper's whole algorithm family (§3.5).
//!
//! The paper's headline practical result is not any single algorithm but
//! the *selection rule*: evaluate `T = C1·β + C2·τ` for every member of
//! the family and run the arg-min. This module is that rule, factored out
//! of any particular executor:
//!
//! * **index** (all-to-all personalized, MPI_Alltoall): uniform radices
//!   `r ∈ [2, n]` (§3.2–3.3, with `r = n` degenerating to the direct
//!   algorithm), the direct exchange, and mixed-radix vectors (the §3.2
//!   generalization);
//! * **concatenation** (all-to-all broadcast, MPI_Allgather): the
//!   circulant-graph doubling algorithm of §4.1 with either last-round
//!   preference of Proposition 4.2, against the one-port ring baseline.
//!
//! The planner is pure math over a [`CostModel`]; feeding it a
//! [calibrated](crate::calibrate::Calibrator) fit of the live substrate
//! closes the measure → fit → dispatch loop.

use crate::complexity::Complexity;
use crate::cost::CostModel;
use crate::mixed_radix::best_radix_vector;
use crate::partition::{concat_last_round, Preference};
use crate::radix::{ceil_log, pow, RadixDecomposition};

/// The index-algorithm family member a plan dispatches to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexPlan {
    /// The uniform radix-`r` index algorithm (§3.2).
    Radix(usize),
    /// The direct algorithm: every pair exchanges its block straight,
    /// `⌈(n-1)/k⌉` rounds with no rotate/pack phases. Cost-equal to
    /// `Radix(n)` but cheaper in memory traffic, so it wins ties.
    Direct,
    /// The pairwise-XOR exchange (power-of-two `n`): the direct exchange
    /// with peer `rank ⊕ d`, so each step is a perfect matching.
    /// Cost-equal to `Direct`; a baseline, never a planner candidate.
    Pairwise,
    /// Johnsson & Ho's store-and-forward hypercube index (power-of-two
    /// `n`, one port): `log₂ n` rounds of `n/2` blocks with `rank ⊕ 2^x`.
    /// Cost-equal to `Radix(2)`; a baseline, never a planner candidate.
    Hypercube,
    /// The mixed-radix index algorithm with a per-subphase radix vector.
    Mixed(Vec<usize>),
    /// The two-level hierarchical composition: an intra-node index over
    /// lane bundles followed by an inter-node index over node bundles
    /// (Träff's k-lane decomposition applied to the §3.2 algorithm).
    /// Only offered when the cost model declares a node topology
    /// ([`CostModel::node_size`]) that divides `n`.
    Hierarchical {
        /// Ranks per node.
        node_size: usize,
        /// Radix of the intra-node index phase.
        radix_local: usize,
        /// Radix of the inter-node index phase.
        radix_remote: usize,
    },
}

impl IndexPlan {
    /// The effective uniform radix of this plan, when it has one
    /// (`Direct` ≡ radix `n`; mixed vectors have none).
    #[must_use]
    pub fn radix(&self, n: usize) -> Option<usize> {
        match self {
            Self::Radix(r) => Some(*r),
            Self::Direct | Self::Pairwise => Some(n.max(2)),
            Self::Hypercube => Some(2),
            Self::Mixed(_) | Self::Hierarchical { .. } => None,
        }
    }

    /// Short human-readable label (for bench tables and reports).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Radix(r) => format!("bruck-r{r}"),
            Self::Direct => "direct".to_string(),
            Self::Pairwise => "pairwise-xor".to_string(),
            Self::Hypercube => "hypercube".to_string(),
            Self::Mixed(v) => {
                let digits: Vec<String> = v.iter().map(ToString::to_string).collect();
                format!("mixed-r({})", digits.join(","))
            }
            Self::Hierarchical {
                node_size,
                radix_local,
                radix_remote,
            } => format!("hier-s{node_size}-r{radix_local}x{radix_remote}"),
        }
    }
}

/// The non-uniform ("v") index-algorithm family member a plan
/// dispatches to — the configurable non-uniform Bruck family for
/// per-pair message sizes (`MPI_Alltoallv`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VIndexPlan {
    /// Direct exchange: every pair ships its exact bytes straight,
    /// distance-scheduled `k` pairs per round. Transfer-optimal; pays
    /// up to `⌈(n-1)/k⌉` start-ups.
    Direct,
    /// Padded Bruck: every block is padded to the global maximum count,
    /// the uniform radix-`r` index moves the padded matrix, and the
    /// padding is stripped on unpack. Round-optimal; inflates volume by
    /// the skew.
    Padded {
        /// Radix of the uniform index phase.
        radix: usize,
    },
    /// Two-phase Bruck: a uniform `quota`-byte slice of every block
    /// rides the radix-`r` log-round index, the heavy tails above the
    /// quota move direct. Interpolates between the other two.
    TwoPhase {
        /// Radix of the uniform quota phase.
        radix: usize,
        /// Bytes of every block carried by the uniform phase.
        quota: usize,
    },
}

impl VIndexPlan {
    /// Short human-readable label (for bench tables and reports).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Direct => "v-direct".to_string(),
            Self::Padded { radix } => format!("v-padded-r{radix}"),
            Self::TwoPhase { radix, quota } => format!("v-twophase-r{radix}-q{quota}"),
        }
    }
}

/// The concatenation-algorithm family member a plan dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcatPlan {
    /// The circulant-graph doubling algorithm (§4.1) with the given
    /// last-round partitioning preference (Proposition 4.2).
    Bruck(Preference),
    /// The one-port ring baseline: `n-1` rounds of `b` bytes.
    Ring,
}

impl ConcatPlan {
    /// Short human-readable label (for bench tables and reports).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Bruck(Preference::Rounds) => "bruck-circulant",
            Self::Bruck(Preference::Bytes) => "bruck-circulant-b",
            Self::Ring => "ring",
        }
    }
}

/// A planned algorithm with its predicted cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChoice<P> {
    /// The chosen family member.
    pub plan: P,
    /// Its closed-form complexity.
    pub complexity: Complexity,
    /// Its predicted time under the planner's model (seconds).
    pub predicted_time: f64,
}

/// Evaluates the fitted cost model over the algorithm family and returns
/// the arg-min schedule.
pub struct Planner<'m> {
    model: &'m dyn CostModel,
    mixed_radix_limit: usize,
}

/// Largest `n` for which the mixed-radix vector search runs by default
/// (the DFS over factor coverings grows super-linearly with `n`).
pub const DEFAULT_MIXED_RADIX_LIMIT: usize = 128;

impl<'m> Planner<'m> {
    /// A planner over the given cost model, with the mixed-radix search
    /// enabled up to [`DEFAULT_MIXED_RADIX_LIMIT`] processors.
    #[must_use]
    pub fn new(model: &'m dyn CostModel) -> Self {
        Self {
            model,
            mixed_radix_limit: DEFAULT_MIXED_RADIX_LIMIT,
        }
    }

    /// Bound (or disable, with `0`) the mixed-radix vector search.
    #[must_use]
    pub fn with_mixed_radix_limit(mut self, limit: usize) -> Self {
        self.mixed_radix_limit = limit;
        self
    }

    /// The model this planner evaluates.
    #[must_use]
    pub fn model(&self) -> &dyn CostModel {
        self.model
    }

    /// Closed-form complexity of one index-family member for `n`
    /// processors, `k` ports, and `b`-byte blocks.
    #[must_use]
    pub fn index_complexity(&self, plan: &IndexPlan, n: usize, k: usize, b: usize) -> Complexity {
        assert!(k >= 1, "plan: ports must be ≥ 1");
        if n <= 1 {
            return Complexity::ZERO;
        }
        match plan {
            IndexPlan::Radix(r) => RadixDecomposition::new(n, *r).complexity(b, k),
            IndexPlan::Direct | IndexPlan::Pairwise => {
                RadixDecomposition::new(n, n).complexity(b, k)
            }
            IndexPlan::Hypercube => {
                assert!(n.is_power_of_two(), "hypercube needs power-of-two n");
                RadixDecomposition::new(n, 2).complexity(b, 1)
            }
            IndexPlan::Mixed(v) => crate::mixed_radix::MixedRadix::new(n, v).complexity(b, k),
            IndexPlan::Hierarchical {
                node_size,
                radix_local,
                radix_remote,
            } => {
                let (local, remote) = hierarchical_phase_complexities(
                    n,
                    *node_size,
                    *radix_local,
                    *radix_remote,
                    b,
                    k,
                );
                local + remote
            }
        }
    }

    /// Evaluate the whole index family and return the predicted-time
    /// arg-min. Ties go to the earliest-evaluated candidate: `Direct`
    /// before the uniform radix sweep (it does the same communication as
    /// `Radix(n)` without the rotate/pack phases), with a mixed-radix
    /// vector adopted only when *strictly* better than every uniform
    /// choice.
    #[must_use]
    pub fn plan_index(&self, n: usize, k: usize, b: usize) -> PlanChoice<IndexPlan> {
        assert!(k >= 1, "plan: ports must be ≥ 1");
        if n <= 1 {
            return PlanChoice {
                plan: IndexPlan::Radix(2),
                complexity: Complexity::ZERO,
                predicted_time: 0.0,
            };
        }
        let candidates = std::iter::once(IndexPlan::Direct).chain((2..=n).map(IndexPlan::Radix));
        let mut best: Option<PlanChoice<IndexPlan>> = None;
        for plan in candidates {
            let complexity = self.index_complexity(&plan, n, k, b);
            let predicted_time = self.model.estimate(complexity);
            if best
                .as_ref()
                .is_none_or(|cur| predicted_time < cur.predicted_time)
            {
                best = Some(PlanChoice {
                    plan,
                    complexity,
                    predicted_time,
                });
            }
        }
        let mut best = best.expect("n ≥ 2 always yields candidates");
        // Topology-aware candidates: when the model declares a node
        // grouping that divides n, evaluate the two-level composition
        // with each phase charged to its own side of the hierarchy
        // (intra-node traffic at the local parameters, inter-node at the
        // remote ones). Flat candidates above were charged uniformly, so
        // the hierarchy wins exactly when concentrating the expensive
        // hops into the smaller inter-node index pays for the extra
        // local traffic — the quantity this planner exists to decide.
        if let Some(node_size) = self.model.node_size() {
            let nodes = n.checked_div(node_size).unwrap_or(0);
            if node_size > 1 && nodes > 1 && n.is_multiple_of(node_size) {
                let mut locals: Vec<usize> = vec![2, 3, node_size];
                locals.retain(|r| (2..=node_size).contains(r));
                locals.dedup();
                let mut remotes: Vec<usize> = vec![2, 3, nodes];
                remotes.retain(|r| (2..=nodes).contains(r));
                remotes.dedup();
                for &radix_local in &locals {
                    for &radix_remote in &remotes {
                        let (local_c, remote_c) = hierarchical_phase_complexities(
                            n,
                            node_size,
                            radix_local,
                            radix_remote,
                            b,
                            k,
                        );
                        let predicted_time =
                            self.model.local_estimate(local_c) + self.model.estimate(remote_c);
                        if predicted_time < best.predicted_time {
                            best = PlanChoice {
                                plan: IndexPlan::Hierarchical {
                                    node_size,
                                    radix_local,
                                    radix_remote,
                                },
                                complexity: local_c + remote_c,
                                predicted_time,
                            };
                        }
                    }
                }
            }
        }
        if self.mixed_radix_limit >= n {
            let (vector, complexity, predicted_time) = best_radix_vector(n, b, k, self.model);
            // A uniform vector is a member of the mixed search space, so
            // the search can only tie or beat `best`; adopt it only on a
            // strict win (the uniform executor is simpler).
            if predicted_time < best.predicted_time {
                best = PlanChoice {
                    plan: IndexPlan::Mixed(vector),
                    complexity,
                    predicted_time,
                };
            }
        }
        best
    }

    /// Closed-form complexity of one non-uniform index-family member
    /// for an `n×n` row-major per-pair size matrix (`sizes[i·n + j]` =
    /// bytes rank `i` sends rank `j`; the diagonal never travels).
    ///
    /// Matches the lowering's geometry exactly
    /// ([`RankProgram::lower_vindex`](crate::program::RankProgram::lower_vindex)),
    /// as the schedule read off its programs shows: the direct phase skips
    /// distances no pair uses and charges each round its largest
    /// message; the padded phase is the uniform index at the global
    /// maximum count; two-phase is the uniform index at the quota plus
    /// the direct phase over the tails. The metadata concat — identical
    /// for every member — is excluded.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `sizes.len() != n²`.
    #[must_use]
    pub fn vindex_complexity(
        &self,
        plan: &VIndexPlan,
        n: usize,
        k: usize,
        sizes: &[u64],
    ) -> Complexity {
        assert!(k >= 1, "plan: ports must be ≥ 1");
        assert_eq!(sizes.len(), n * n, "vindex: need an n×n size matrix");
        if n <= 1 {
            return Complexity::ZERO;
        }
        let profile = SizeProfile::scan(n, sizes, false);
        let uniform = |radix: usize, bytes| {
            let unit = RadixDecomposition::new(n, radix.clamp(2, n)).profile(k);
            uniform_phase(unit, bytes)
        };
        match *plan {
            VIndexPlan::Direct => profile.direct(k, 0),
            VIndexPlan::Padded { radix } => uniform(radix, profile.max),
            VIndexPlan::TwoPhase { radix, quota } => {
                let q = (quota as u64).min(profile.max);
                uniform(radix, q) + profile.direct(k, q)
            }
        }
    }

    /// Evaluate the non-uniform index family — direct, padded Bruck at
    /// every radix, two-phase Bruck at every radix × a small quota
    /// candidate set (mean and median of the travelling blocks) — and
    /// return the predicted-time arg-min. Ties go to the
    /// earliest-evaluated candidate: `Direct` first (no pack/strip
    /// memory traffic), then padded, then two-phase.
    ///
    /// Deterministic in `(n, k, sizes, model)`: ranks holding the same
    /// size matrix (as established by the metadata round) and the same
    /// model provably pick the same plan, so every rank lowers the same
    /// member.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `sizes.len() != n²`.
    #[must_use]
    pub fn plan_vindex(&self, n: usize, k: usize, sizes: &[u64]) -> PlanChoice<VIndexPlan> {
        assert!(k >= 1, "plan: ports must be ≥ 1");
        assert_eq!(sizes.len(), n * n, "vindex: need an n×n size matrix");
        if n <= 1 {
            return PlanChoice {
                plan: VIndexPlan::Direct,
                complexity: Complexity::ZERO,
                predicted_time: 0.0,
            };
        }
        // Same candidate set and evaluation order as one
        // `vindex_complexity` per candidate (Direct, padded by ascending
        // radix, then two-phase quota-major), but the matrix is read once
        // and each radix profiled once: a candidate then costs O(n) (a
        // direct tail, one per quota) or O(1) (a uniform phase). The
        // sweep runs on every `alltoallv_into` call — between the
        // metadata and payload rounds — so its CPU cost is part of the
        // measured collective.
        let profile = SizeProfile::scan(n, sizes, true);
        let radices: Vec<(usize, (u64, u64))> = (2..=n)
            .map(|r| (r, RadixDecomposition::new(n, r).profile(k)))
            .collect();
        let mut best: Option<PlanChoice<VIndexPlan>> = None;
        let mut consider = |plan: VIndexPlan, complexity: Complexity| {
            let predicted_time = self.model.estimate(complexity);
            if best
                .as_ref()
                .is_none_or(|cur| predicted_time < cur.predicted_time)
            {
                best = Some(PlanChoice {
                    plan,
                    complexity,
                    predicted_time,
                });
            }
        };
        consider(VIndexPlan::Direct, profile.direct(k, 0));
        for &(radix, unit) in &radices {
            consider(
                VIndexPlan::Padded { radix },
                uniform_phase(unit, profile.max),
            );
        }
        for &quota in &profile.quotas {
            // Quota candidates lie strictly between 0 and the maximum.
            let q = quota as u64;
            let tail = profile.direct(k, q);
            for &(radix, unit) in &radices {
                consider(
                    VIndexPlan::TwoPhase { radix, quota },
                    uniform_phase(unit, q) + tail,
                );
            }
        }
        best.expect("n ≥ 2 always yields candidates")
    }

    /// Closed-form complexity of one concatenation-family member:
    /// mirrors the lowering's geometry exactly (doubling rounds over the
    /// circulant graph, then the Proposition 4.2 last round; the ring
    /// pays `n-1` rounds of `b` bytes).
    #[must_use]
    pub fn concat_complexity(&self, plan: &ConcatPlan, n: usize, k: usize, b: usize) -> Complexity {
        assert!(k >= 1, "plan: ports must be ≥ 1");
        if n <= 1 || b == 0 {
            return Complexity::ZERO;
        }
        match plan {
            ConcatPlan::Ring => {
                assert!(k == 1, "ring is a one-port algorithm");
                Complexity::new((n - 1) as u64, ((n - 1) * b) as u64)
            }
            ConcatPlan::Bruck(pref) => {
                let d = ceil_log(k + 1, n);
                if d <= 1 {
                    return Complexity::new(1, b as u64);
                }
                let mut c = Complexity::ZERO;
                for i in 0..d - 1 {
                    c = c.plus_round((pow(k + 1, i) * b) as u64);
                }
                let last = concat_last_round(n, k, b, *pref).expect("d ≥ 2 and b ≥ 1");
                c + last.complexity()
            }
        }
    }

    /// Evaluate the concatenation family (circulant doubling under both
    /// last-round preferences, plus the ring when one-port) and return
    /// the predicted-time arg-min. Ties go to the circulant algorithm.
    #[must_use]
    pub fn plan_concat(&self, n: usize, k: usize, b: usize) -> PlanChoice<ConcatPlan> {
        assert!(k >= 1, "plan: ports must be ≥ 1");
        if n <= 1 || b == 0 {
            return PlanChoice {
                plan: ConcatPlan::Bruck(Preference::Rounds),
                complexity: Complexity::ZERO,
                predicted_time: 0.0,
            };
        }
        let mut candidates = vec![
            ConcatPlan::Bruck(Preference::Rounds),
            ConcatPlan::Bruck(Preference::Bytes),
        ];
        if k == 1 {
            candidates.push(ConcatPlan::Ring);
        }
        candidates
            .into_iter()
            .map(|plan| {
                let complexity = self.concat_complexity(&plan, n, k, b);
                PlanChoice {
                    plan,
                    complexity,
                    predicted_time: self.model.estimate(complexity),
                }
            })
            .min_by(|x, y| x.predicted_time.total_cmp(&y.predicted_time))
            .expect("concat candidate set is never empty")
    }
}

/// Per-phase complexities of the two-level hierarchical composition:
/// `(intra-node, inter-node)`. The local phase is a radix index over the
/// `node_size` lanes moving `nodes·b`-byte bundles; the remote phase is
/// a radix index over the `nodes` node groups moving `node_size·b`-byte
/// bundles. Degenerate hierarchies (one node, or one rank per node)
/// collapse to a flat index at the stronger radix, charged remote —
/// matching the executor's fallback.
///
/// # Panics
///
/// Panics if `node_size` is zero or does not divide `n`.
fn hierarchical_phase_complexities(
    n: usize,
    node_size: usize,
    radix_local: usize,
    radix_remote: usize,
    b: usize,
    k: usize,
) -> (Complexity, Complexity) {
    assert!(
        node_size >= 1 && n.is_multiple_of(node_size),
        "hierarchical: node_size {node_size} must divide n = {n}"
    );
    let nodes = n / node_size;
    if nodes == 1 || node_size == 1 {
        let r = radix_local.max(radix_remote).clamp(2, n.max(2));
        return (
            Complexity::ZERO,
            RadixDecomposition::new(n, r).complexity(b, k),
        );
    }
    let local = RadixDecomposition::new(node_size, radix_local.clamp(2, node_size))
        .complexity(nodes * b, k);
    let remote =
        RadixDecomposition::new(nodes, radix_remote.clamp(2, nodes)).complexity(node_size * b, k);
    (local, remote)
}

/// The uniform index phase at `bytes` per block, from its radix's
/// [`profile`](RadixDecomposition::profile); empty blocks cost nothing.
fn uniform_phase((rounds, blocks): (u64, u64), bytes: u64) -> Complexity {
    if bytes == 0 {
        Complexity::ZERO
    } else {
        Complexity::new(rounds, blocks * bytes)
    }
}

/// What every non-uniform cost reads off an `n×n` size matrix, gathered
/// in one row-major pass.
struct SizeProfile {
    /// `dmax[d] = max_i sizes[i·n + (i+d) mod n]`: the largest message at
    /// distance `d` (`dmax[0]` is the diagonal, which never travels).
    dmax: Vec<u64>,
    /// The largest travelling (off-diagonal) entry.
    max: u64,
    /// The [`quota_candidates`]; empty unless asked for.
    quotas: Vec<usize>,
}

impl SizeProfile {
    /// Read `sizes` once for the distance maxima and the mean;
    /// `with_quotas` then selects the median where the entries lie.
    fn scan(n: usize, sizes: &[u64], with_quotas: bool) -> Self {
        assert_eq!(sizes.len(), n * n, "vindex: need an n×n size matrix");
        let mut dmax = vec![0u64; n];
        let mut sum = 0u128;
        for (i, row) in sizes.chunks_exact(n.max(1)).enumerate() {
            // Entry j of row i sits at distance j − i mod n: the entries
            // from the diagonal on at 0, 1, …; those before it at n − i, ….
            let (before, from_diag) = row.split_at(i);
            let (near, far) = dmax.split_at_mut(n - i);
            for (m, &s) in near.iter_mut().zip(from_diag) {
                *m = (*m).max(s);
            }
            for (m, &s) in far.iter_mut().zip(before) {
                *m = (*m).max(s);
            }
            if with_quotas {
                sum += row.iter().map(|&s| u128::from(s)).sum::<u128>() - u128::from(row[i]);
            }
        }
        let max = dmax.iter().skip(1).copied().max().unwrap_or(0);
        let mut quotas = Vec::new();
        let len = n * n - n;
        if with_quotas && len > 0 {
            let mean = (sum / len as u128) as u64;
            for q in [mean, travelling_median(n, sizes, max)] {
                let q = usize::try_from(q).unwrap_or(usize::MAX);
                if q > 0 && (q as u64) < max && !quotas.contains(&q) {
                    quotas.push(q);
                }
            }
        }
        Self { dmax, max, quotas }
    }

    /// The direct exchange of every block's bytes above `quota` (`0`: the
    /// whole matrix): the distances whose largest message exceeds the
    /// quota, grouped `k` per round, each round charged its largest
    /// remainder (the multiport round completes when its slowest port
    /// does). Exact: `saturating_sub` is monotone, so a distance's largest
    /// remainder is its `dmax` less the quota.
    fn direct(&self, k: usize, quota: u64) -> Complexity {
        let mut tails = self.dmax[1..]
            .iter()
            .filter(|&&m| m > quota)
            .map(|&m| m - quota);
        let rounds = std::iter::from_fn(|| tails.by_ref().take(k).max());
        rounds.fold(Complexity::ZERO, Complexity::plus_round)
    }
}

/// The off-diagonal entry of the `n×n` matrix `sizes` (`n ≥ 2`, largest
/// off-diagonal entry `max`) at rank `len / 2` ascending — the one
/// `select_nth_unstable(len / 2)` returns — by radix select over 16-bit
/// digits, read where the entries lie. Each pass counts one digit, from
/// the top digit of `max` down, of the entries up to `max` whose higher
/// digits are those chosen so far (the whole matrix, less its diagonal),
/// and chooses the digit whose bucket holds the rank: entries below 2^32
/// take at most two passes, and the counts at most 2^16 words.
fn travelling_median(n: usize, sizes: &[u64], max: u64) -> u64 {
    let (mut rank, mut chosen) = ((n * n - n) / 2, 0u64);
    let mut shift = (63 - max.max(1).leading_zeros()) / 16 * 16;
    let mut counts = vec![0usize; (max >> shift) as usize + 1];
    loop {
        // The entries counted are those in [chosen, chosen + span].
        let span = max.min(chosen | (u64::MAX >> (48 - shift))) - chosen;
        let bucket = |&s: &u64| {
            let above = s.wrapping_sub(chosen);
            (above <= span).then_some((above >> shift) as usize)
        };
        sizes.iter().filter_map(bucket).for_each(|b| counts[b] += 1);
        let diagonal = sizes.iter().step_by(n + 1);
        diagonal.filter_map(bucket).for_each(|b| counts[b] -= 1);
        let mut digit = 0;
        while rank >= counts[digit] {
            rank -= counts[digit];
            digit += 1;
        }
        chosen |= (digit as u64) << shift;
        if shift == 0 {
            return chosen;
        }
        shift -= 16;
        counts = vec![0; 1 << 16];
    }
}

/// Quota candidates for the two-phase plan: the mean and the median of
/// the off-diagonal (travelling) entries, deduplicated, keeping only
/// values strictly between `0` and the maximum (a zero quota *is* the
/// direct plan; a max quota *is* the padded plan — both already in the
/// candidate set). The first entry, when present, is the default quota
/// of a forced two-phase run.
#[must_use]
pub fn quota_candidates(n: usize, sizes: &[u64]) -> Vec<usize> {
    assert_eq!(sizes.len(), n * n, "quota: need an n×n size matrix");
    SizeProfile::scan(n, sizes, true).quotas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LinearModel;
    use crate::tuning::index_complexity_kport;

    #[test]
    fn planner_matches_exhaustive_uniform_argmin() {
        let model = LinearModel::sp1();
        let planner = Planner::new(&model);
        for n in [2usize, 4, 7, 8, 16, 33] {
            for k in [1usize, 2, 3] {
                for b in [1usize, 64, 4096, 65536] {
                    let choice = planner.plan_index(n, k, b);
                    let exhaustive = (2..=n)
                        .map(|r| model.estimate(index_complexity_kport(n, r, b, k)))
                        .fold(f64::INFINITY, f64::min);
                    assert!(
                        choice.predicted_time <= exhaustive,
                        "n={n} k={k} b={b}: planner {} > exhaustive {exhaustive}",
                        choice.predicted_time
                    );
                }
            }
        }
    }

    #[test]
    fn tiny_blocks_pick_round_optimal_radix() {
        // β-dominated: the planner must minimize rounds, i.e. pick a
        // radix near k+1 (§3.4), never the direct algorithm.
        let model = LinearModel::new(1e-3, 1e-12);
        let planner = Planner::new(&model);
        let choice = planner.plan_index(64, 1, 1);
        assert_eq!(
            choice.complexity.c1,
            u64::from(ceil_log(2, 64)),
            "round-optimal C1 expected, got {:?}",
            choice.plan
        );
    }

    #[test]
    fn huge_blocks_pick_direct() {
        // τ-dominated: the planner must minimize bytes — the direct
        // algorithm, preferred over Radix(n) on the tie.
        let model = LinearModel::new(1e-9, 1e-3);
        let planner = Planner::new(&model);
        let choice = planner.plan_index(16, 2, 1 << 20);
        assert_eq!(choice.plan, IndexPlan::Direct);
    }

    #[test]
    fn mixed_radix_wins_when_strictly_better() {
        // n = 33 with moderate blocks is the documented case where a
        // mixed vector strictly beats every uniform radix.
        let model = LinearModel::sp1();
        let planner = Planner::new(&model);
        let choice = planner.plan_index(33, 1, 64);
        let (vector, _, t) = best_radix_vector(33, 64, 1, &model);
        let uniform_best = (2..=33)
            .map(|r| model.estimate(index_complexity_kport(33, r, 64, 1)))
            .fold(f64::INFINITY, f64::min);
        if t < uniform_best {
            assert_eq!(choice.plan, IndexPlan::Mixed(vector));
        } else {
            assert!(choice.predicted_time <= uniform_best);
        }
    }

    #[test]
    fn mixed_radix_can_be_disabled() {
        let model = LinearModel::sp1();
        let planner = Planner::new(&model).with_mixed_radix_limit(0);
        let choice = planner.plan_index(33, 1, 64);
        assert!(!matches!(choice.plan, IndexPlan::Mixed(_)));
    }

    #[test]
    fn hierarchical_plan_wins_on_a_two_level_machine() {
        // Fast intra-node lane, SP-1-like interconnect: concentrating
        // the expensive hops into the inter-node index must beat every
        // flat schedule once messages matter.
        let model = crate::cost::HierarchicalModel::smp_cluster(4);
        let planner = Planner::new(&model);
        let choice = planner.plan_index(16, 1, 4096);
        match choice.plan {
            IndexPlan::Hierarchical { node_size, .. } => assert_eq!(node_size, 4),
            other => panic!("expected a hierarchical plan, got {other:?}"),
        }
        // Combined complexity is the sum of both phases — non-zero in
        // each measure.
        assert!(choice.complexity.c1 > 0 && choice.complexity.c2 > 0);
    }

    #[test]
    fn uniform_models_never_offer_hierarchy() {
        let model = LinearModel::sp1();
        let planner = Planner::new(&model);
        for n in [8usize, 16, 64] {
            let choice = planner.plan_index(n, 1, 4096);
            assert!(
                !matches!(choice.plan, IndexPlan::Hierarchical { .. }),
                "n={n}: {:?}",
                choice.plan
            );
        }
    }

    #[test]
    fn non_divisible_topology_stays_flat() {
        // node_size 4 does not divide 18: the hierarchy must not be
        // offered, not crash.
        let model = crate::cost::HierarchicalModel::smp_cluster(4);
        let planner = Planner::new(&model);
        let choice = planner.plan_index(18, 1, 4096);
        assert!(!matches!(choice.plan, IndexPlan::Hierarchical { .. }));
    }

    #[test]
    fn hierarchical_complexity_is_phase_sum() {
        let model = crate::cost::HierarchicalModel::smp_cluster(4);
        let planner = Planner::new(&model);
        let plan = IndexPlan::Hierarchical {
            node_size: 4,
            radix_local: 2,
            radix_remote: 2,
        };
        let c = planner.index_complexity(&plan, 16, 1, 8);
        let local = RadixDecomposition::new(4, 2).complexity(4 * 8, 1);
        let remote = RadixDecomposition::new(4, 2).complexity(4 * 8, 1);
        assert_eq!(c, local + remote);
        // Degenerate hierarchies collapse to the flat schedule.
        let degen = IndexPlan::Hierarchical {
            node_size: 16,
            radix_local: 2,
            radix_remote: 3,
        };
        assert_eq!(
            planner.index_complexity(&degen, 16, 1, 8),
            RadixDecomposition::new(16, 3).complexity(8, 1)
        );
    }

    #[test]
    fn concat_prefers_circulant_over_ring() {
        // The circulant algorithm is round-optimal; the ring only ties it
        // at n = 2.
        let model = LinearModel::sp1();
        let planner = Planner::new(&model);
        for n in [2usize, 5, 8, 16] {
            let choice = planner.plan_concat(n, 1, 256);
            assert!(
                matches!(choice.plan, ConcatPlan::Bruck(_)),
                "n={n}: {:?}",
                choice.plan
            );
        }
    }

    #[test]
    fn concat_ring_wins_when_startup_is_free_and_bytes_tie() {
        // With b large and β = 0, time is pure C2; the ring moves
        // (n-1)·b which the circulant algorithm also cannot beat
        // (Proposition 2.3 lower bound), so predicted times tie or the
        // circulant wins — the planner must still produce a valid plan.
        let model = LinearModel::new(0.0, 1e-6);
        let planner = Planner::new(&model);
        let choice = planner.plan_concat(6, 1, 4096);
        assert!(choice.predicted_time <= model.estimate(Complexity::new(5, 5 * 4096)));
    }

    #[test]
    fn concat_complexity_small_n_single_round() {
        let model = LinearModel::sp1();
        let planner = Planner::new(&model);
        for k in 1..4usize {
            for n in 2..=k + 1 {
                let c = planner.concat_complexity(&ConcatPlan::Bruck(Preference::Rounds), n, k, 10);
                assert_eq!(c, Complexity::new(1, 10), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn trivial_sizes() {
        let model = LinearModel::sp1();
        let planner = Planner::new(&model);
        assert_eq!(planner.plan_index(1, 1, 64).predicted_time, 0.0);
        assert_eq!(planner.plan_concat(1, 2, 64).predicted_time, 0.0);
        assert_eq!(planner.plan_concat(8, 2, 0).predicted_time, 0.0);
    }

    /// A uniform matrix with every off-diagonal entry `b`.
    fn uniform_matrix(n: usize, b: u64) -> Vec<u64> {
        let mut m = vec![b; n * n];
        for i in 0..n {
            m[i * n + i] = 0;
        }
        m
    }

    #[test]
    fn vindex_uniform_padded_matches_uniform_index() {
        let model = LinearModel::sp1();
        let planner = Planner::new(&model);
        for n in [4usize, 8, 13] {
            for k in [1usize, 2] {
                let sizes = uniform_matrix(n, 64);
                for r in 2..=n {
                    let c =
                        planner.vindex_complexity(&VIndexPlan::Padded { radix: r }, n, k, &sizes);
                    assert_eq!(c, index_complexity_kport(n, r, 64, k), "n={n} k={k} r={r}");
                }
            }
        }
    }

    #[test]
    fn vindex_direct_matches_uniform_direct() {
        let model = LinearModel::sp1();
        let planner = Planner::new(&model);
        for n in [2usize, 5, 8] {
            for k in [1usize, 2, 3] {
                let sizes = uniform_matrix(n, 100);
                let c = planner.vindex_complexity(&VIndexPlan::Direct, n, k, &sizes);
                assert_eq!(c.c1, ((n - 1) as u64).div_ceil(k as u64), "n={n} k={k}");
                assert_eq!(c.c2, c.c1 * 100, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn vindex_two_phase_degenerates_at_extremes() {
        let model = LinearModel::sp1();
        let planner = Planner::new(&model);
        let sizes = uniform_matrix(8, 64);
        // Quota 0 ≡ direct; quota ≥ max ≡ padded.
        let zero =
            planner.vindex_complexity(&VIndexPlan::TwoPhase { radix: 2, quota: 0 }, 8, 2, &sizes);
        assert_eq!(
            zero,
            planner.vindex_complexity(&VIndexPlan::Direct, 8, 2, &sizes)
        );
        let full = planner.vindex_complexity(
            &VIndexPlan::TwoPhase {
                radix: 2,
                quota: 64,
            },
            8,
            2,
            &sizes,
        );
        assert_eq!(
            full,
            planner.vindex_complexity(&VIndexPlan::Padded { radix: 2 }, 8, 2, &sizes)
        );
    }

    #[test]
    fn plan_vindex_low_skew_avoids_direct_on_tiny_blocks() {
        // β-dominated uniform traffic: the log-round padded (or
        // two-phase) plan must beat the ⌈(n-1)/k⌉-round direct plan.
        let model = LinearModel::new(1e-3, 1e-12);
        let planner = Planner::new(&model);
        let sizes = uniform_matrix(16, 8);
        let choice = planner.plan_vindex(16, 2, &sizes);
        assert_ne!(choice.plan, VIndexPlan::Direct, "got {:?}", choice.plan);
    }

    #[test]
    fn plan_vindex_high_skew_picks_direct() {
        // One hot pair dominating the volume under a τ-dominated model:
        // padding would multiply the hot size by every relay hop.
        let model = LinearModel::new(1e-9, 1e-3);
        let planner = Planner::new(&model);
        let mut sizes = uniform_matrix(8, 16);
        sizes[1] = 1 << 20; // 0 → 1 is hot
        let choice = planner.plan_vindex(8, 2, &sizes);
        assert_eq!(choice.plan, VIndexPlan::Direct, "got {:?}", choice.plan);
    }

    #[test]
    fn plan_vindex_beats_every_member_it_considers() {
        let model = LinearModel::sp1();
        let planner = Planner::new(&model);
        let mut sizes = uniform_matrix(8, 256);
        sizes[2] = 8192;
        sizes[8 + 3] = 0;
        let choice = planner.plan_vindex(8, 2, &sizes);
        for plan in [
            VIndexPlan::Direct,
            VIndexPlan::Padded { radix: 2 },
            VIndexPlan::TwoPhase {
                radix: 2,
                quota: 256,
            },
        ] {
            let t = model.estimate(planner.vindex_complexity(&plan, 8, 2, &sizes));
            assert!(
                choice.predicted_time <= t,
                "{:?} beat the arg-min {:?}",
                plan,
                choice.plan
            );
        }
    }

    /// The v-planner before the one-pass profile, kept verbatim as the
    /// oracle it is held to: `direct_v_complexity` walks all n² entries
    /// per call, `quota_candidates` sorts them, `plan_vindex` prices each
    /// radix with the per-step walk.
    mod by_walks {
        use super::super::{PlanChoice, VIndexPlan};
        use crate::complexity::Complexity;
        use crate::cost::CostModel;
        use crate::radix::RadixDecomposition;

        pub fn direct_v_complexity(
            n: usize,
            k: usize,
            size: impl Fn(usize, usize) -> u64,
        ) -> Complexity {
            let active: Vec<usize> = (1..n)
                .filter(|&d| (0..n).any(|i| size(i, (i + d) % n) > 0))
                .collect();
            let mut c = Complexity::ZERO;
            for group in active.chunks(k) {
                let mut max = 0u64;
                for &d in group {
                    for i in 0..n {
                        max = max.max(size(i, (i + d) % n));
                    }
                }
                c = c.plus_round(max);
            }
            c
        }

        pub fn quota_candidates(n: usize, sizes: &[u64]) -> Vec<usize> {
            let mut travelling: Vec<u64> = (0..n)
                .flat_map(|i| {
                    (0..n)
                        .filter(move |&j| j != i)
                        .map(move |j| sizes[i * n + j])
                })
                .collect();
            if travelling.is_empty() {
                return Vec::new();
            }
            travelling.sort_unstable();
            let max = *travelling.last().expect("non-empty");
            let sum: u128 = travelling.iter().map(|&s| u128::from(s)).sum();
            let mean = (sum / travelling.len() as u128) as u64;
            let median = travelling[travelling.len() / 2];
            let mut out = Vec::new();
            for q in [mean, median] {
                let q = usize::try_from(q).unwrap_or(usize::MAX);
                if q > 0 && (q as u64) < max && !out.contains(&q) {
                    out.push(q);
                }
            }
            out
        }

        fn off_diag_max(n: usize, sizes: &[u64]) -> u64 {
            (0..n)
                .flat_map(|i| {
                    (0..n)
                        .filter(move |&j| j != i)
                        .map(move |j| sizes[i * n + j])
                })
                .max()
                .unwrap_or(0)
        }

        pub fn vindex_complexity(
            plan: &VIndexPlan,
            n: usize,
            k: usize,
            sizes: &[u64],
        ) -> Complexity {
            if n <= 1 {
                return Complexity::ZERO;
            }
            let off_diag_max = off_diag_max(n, sizes);
            match plan {
                VIndexPlan::Direct => direct_v_complexity(n, k, |i, j| sizes[i * n + j]),
                VIndexPlan::Padded { radix } => {
                    if off_diag_max == 0 {
                        return Complexity::ZERO;
                    }
                    let r = (*radix).clamp(2, n);
                    RadixDecomposition::new(n, r).complexity_by_groups(off_diag_max as usize, k)
                }
                VIndexPlan::TwoPhase { radix, quota } => {
                    let q = (*quota as u64).min(off_diag_max);
                    let r = (*radix).clamp(2, n);
                    let uniform = if q == 0 {
                        Complexity::ZERO
                    } else {
                        RadixDecomposition::new(n, r).complexity_by_groups(q as usize, k)
                    };
                    uniform + direct_v_complexity(n, k, |i, j| sizes[i * n + j].saturating_sub(q))
                }
            }
        }

        pub fn plan_vindex(
            model: &dyn CostModel,
            n: usize,
            k: usize,
            sizes: &[u64],
        ) -> PlanChoice<VIndexPlan> {
            if n <= 1 {
                return PlanChoice {
                    plan: VIndexPlan::Direct,
                    complexity: Complexity::ZERO,
                    predicted_time: 0.0,
                };
            }
            let off_diag_max = off_diag_max(n, sizes);
            let mut best: Option<PlanChoice<VIndexPlan>> = None;
            let mut consider = |plan: VIndexPlan, complexity: Complexity| {
                let predicted_time = model.estimate(complexity);
                if best
                    .as_ref()
                    .is_none_or(|cur| predicted_time < cur.predicted_time)
                {
                    best = Some(PlanChoice {
                        plan,
                        complexity,
                        predicted_time,
                    });
                }
            };
            consider(
                VIndexPlan::Direct,
                direct_v_complexity(n, k, |i, j| sizes[i * n + j]),
            );
            let decomps: Vec<RadixDecomposition> =
                (2..=n).map(|r| RadixDecomposition::new(n, r)).collect();
            for (radix, decomp) in (2..=n).zip(&decomps) {
                let complexity = if off_diag_max == 0 {
                    Complexity::ZERO
                } else {
                    decomp.complexity_by_groups(off_diag_max as usize, k)
                };
                consider(VIndexPlan::Padded { radix }, complexity);
            }
            for quota in quota_candidates(n, sizes) {
                let q = (quota as u64).min(off_diag_max);
                let tail = direct_v_complexity(n, k, |i, j| sizes[i * n + j].saturating_sub(q));
                for (radix, decomp) in (2..=n).zip(&decomps) {
                    let uniform = if q == 0 {
                        Complexity::ZERO
                    } else {
                        decomp.complexity_by_groups(q as usize, k)
                    };
                    consider(VIndexPlan::TwoPhase { radix, quota }, uniform + tail);
                }
            }
            best.expect("n ≥ 2 always yields candidates")
        }
    }

    /// xorshift64* — the stream the size-matrix sweeps draw from.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1) | 1)
        }

        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    /// The tracked benchmark's seeded Zipf(`s`) matrix: destination
    /// popularity from a seeded permutation each source rotates by its
    /// rank, rows summing to ~`base·n` bytes.
    fn zipf_matrix(n: usize, base: usize, s: f64, seed: u64) -> Vec<u64> {
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = Rng::new(seed);
        for i in (1..n).rev() {
            perm.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let weight: Vec<f64> = (0..n).map(|p| 1.0 / ((p + 1) as f64).powf(s)).collect();
        let scale = (base * n) as f64 / weight.iter().sum::<f64>();
        let mut m = Vec::with_capacity(n * n);
        for source in 0..n {
            m.extend((0..n).map(|j| (scale * weight[perm[(j + source) % n]]).round() as u64));
        }
        m
    }

    /// Seeded n×n matrices of every shape the planner must price alike:
    /// uniform, all-zero, zero-riddled, one hot pair, Zipf, and entries
    /// up to 2⁴⁰. Diagonals are not cleared: they must be ignored.
    fn seeded_matrices(n: usize, rng: &mut Rng) -> Vec<Vec<u64>> {
        let cells = n * n;
        let uniform = vec![1 + rng.below(4096); cells];
        let riddled = (0..cells)
            .map(|_| if rng.below(3) == 0 { rng.below(512) } else { 0 })
            .collect();
        let mut hot = vec![rng.below(64); cells];
        hot[rng.below(cells as u64) as usize] = 1 << (10 + rng.below(20));
        let huge = (0..cells).map(|_| rng.below(1 << 40)).collect();
        let zipf = zipf_matrix(n, 256, 1.0, rng.next());
        vec![uniform, vec![0; cells], riddled, hot, zipf, huge]
    }

    fn assert_matches_the_walking_planner(
        models: &[LinearModel],
        n: usize,
        k: usize,
        sizes: &[u64],
    ) {
        let quotas = quota_candidates(n, sizes);
        assert_eq!(quotas, by_walks::quota_candidates(n, sizes), "n={n}");
        for model in models {
            let fast = Planner::new(model).plan_vindex(n, k, sizes);
            let slow = by_walks::plan_vindex(model, n, k, sizes);
            assert_eq!(fast, slow, "n={n} k={k} {model:?}");
            assert_eq!(
                fast.predicted_time.to_bits(),
                slow.predicted_time.to_bits(),
                "n={n} k={k} {model:?}"
            );
        }
    }

    #[test]
    fn v_planner_matches_the_walking_planner_bit_for_bit() {
        let models = [
            LinearModel::sp1(),
            LinearModel::new(1e-3, 1e-12),
            LinearModel::new(1e-9, 1e-3),
        ];
        let planner = Planner::new(&models[0]);
        let mut rng = Rng::new(27);
        for n in 1..=48usize {
            for k in 1..=4usize {
                for sizes in seeded_matrices(n, &mut rng) {
                    assert_matches_the_walking_planner(&models, n, k, &sizes);
                    // Every member's cost on its own, quotas at and past
                    // both ends included.
                    let max = sizes.iter().copied().max().unwrap_or(0) as usize;
                    let mut quotas = quota_candidates(n, &sizes);
                    quotas.extend([0, 1, max / 2, max, max + 1, usize::MAX]);
                    let mut plans = vec![VIndexPlan::Direct];
                    for radix in [0, 2, 3, n / 2, n, n + 1] {
                        plans.push(VIndexPlan::Padded { radix });
                        plans.extend(
                            quotas
                                .iter()
                                .map(|&quota| VIndexPlan::TwoPhase { radix, quota }),
                        );
                    }
                    for plan in &plans {
                        assert_eq!(
                            planner.vindex_complexity(plan, n, k, &sizes),
                            by_walks::vindex_complexity(plan, n, k, &sizes),
                            "n={n} k={k} {plan:?}"
                        );
                    }
                }
            }
        }
        // The tracked benchmark's `plan_only` matrix.
        let sizes = zipf_matrix(1024, 256, 1.0, 7);
        assert_matches_the_walking_planner(&models[..1], 1024, 2, &sizes);
    }

    /// The in-place radix select against `select_nth_unstable` over a
    /// copy of the travelling entries: constant and all-zero matrices,
    /// n = 2, one hot entry, a diagonal far above every travelling entry
    /// (it must not count), and seeded matrices over the digit edges
    /// 2^16 ± 1, 2^32 ± 1, 2^48 and `u64::MAX`, where the median needs a
    /// second, third or fourth pass.
    #[test]
    fn travelling_median_matches_select_nth_unstable() {
        let mut shapes: Vec<(usize, Vec<u64>)> = vec![
            (5, vec![7; 25]),
            (6, vec![0; 36]),
            (2, vec![1, 9, 4, 3]),
            (2, vec![0, u64::MAX, 0, 0]),
            (2, vec![u64::MAX; 4]),
        ];
        let mut hot = vec![3; 64];
        hot[2 * 8 + 5] = u64::MAX;
        shapes.push((8, hot));
        let diagonal = |n: usize, off: u64| {
            (0..n * n).map(move |e| [off, u64::MAX][usize::from(e % (n + 1) == 0)])
        };
        shapes.push((4, diagonal(4, 5).collect()));
        shapes.push((3, diagonal(3, 0).collect()));
        let edges = [
            0,
            1,
            (1 << 16) - 1,
            1 << 16,
            (1 << 16) + 1,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            1 << 48,
            (1 << 48) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut rng = Rng::new(0x3ed1a);
        for n in [2, 3, 4, 7, 16] {
            for width in [2, 4, edges.len()] {
                for _ in 0..25 {
                    let lo = rng.below((edges.len() - width + 1) as u64) as usize;
                    let pick = |rng: &mut Rng| edges[lo + rng.below(width as u64) as usize];
                    shapes.push((n, (0..n * n).map(|_| pick(&mut rng)).collect()));
                }
            }
        }
        for (n, sizes) in &shapes {
            let n = *n;
            let mut travelling: Vec<u64> = (0..n * n)
                .filter(|e| e / n != e % n)
                .map(|e| sizes[e])
                .collect();
            let max = travelling.iter().copied().max().unwrap();
            let len = travelling.len();
            let want = *travelling.select_nth_unstable(len / 2).1;
            assert_eq!(travelling_median(n, sizes, max), want, "n={n} {sizes:?}");
        }
    }

    #[test]
    fn quota_candidates_are_strictly_interior() {
        let mut sizes = uniform_matrix(4, 10);
        sizes[1] = 1000;
        for q in quota_candidates(4, &sizes) {
            assert!(q > 0 && q < 1000, "quota {q} out of the open interval");
        }
        // A uniform matrix has no interior candidate (mean = median = max).
        assert!(quota_candidates(4, &uniform_matrix(4, 10)).is_empty());
        assert!(quota_candidates(1, &[0]).is_empty());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(IndexPlan::Radix(3).label(), "bruck-r3");
        assert_eq!(IndexPlan::Direct.label(), "direct");
        assert_eq!(IndexPlan::Pairwise.label(), "pairwise-xor");
        assert_eq!(IndexPlan::Hypercube.label(), "hypercube");
        assert_eq!(IndexPlan::Mixed(vec![2, 3]).label(), "mixed-r(2,3)");
        assert_eq!(VIndexPlan::Direct.label(), "v-direct");
        assert_eq!(VIndexPlan::Padded { radix: 4 }.label(), "v-padded-r4");
        assert_eq!(
            VIndexPlan::TwoPhase {
                radix: 2,
                quota: 96
            }
            .label(),
            "v-twophase-r2-q96"
        );
        assert_eq!(ConcatPlan::Ring.label(), "ring");
        assert_eq!(
            ConcatPlan::Bruck(Preference::Rounds).label(),
            "bruck-circulant"
        );
    }

    #[test]
    fn effective_radix() {
        assert_eq!(IndexPlan::Radix(4).radix(8), Some(4));
        assert_eq!(IndexPlan::Direct.radix(8), Some(8));
        assert_eq!(IndexPlan::Pairwise.radix(8), Some(8));
        assert_eq!(IndexPlan::Hypercube.radix(8), Some(2));
        assert_eq!(IndexPlan::Mixed(vec![2, 2]).radix(8), None);
    }
}

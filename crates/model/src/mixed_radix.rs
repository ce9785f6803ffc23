//! Mixed-radix digit decomposition — a strict generalization of §3.2.
//!
//! The paper's algorithm encodes block ids in a *uniform* radix `r`; its
//! complexity analysis only uses that each position `x` has a weight
//! `w_x` (the product of the radices below it) and a digit range
//! `[0, r_x)`. Nothing requires the radices to be equal: any vector
//! `(r_0, r_1, …)` with `Π r_x ≥ n` yields a correct index algorithm
//! whose subphase `x` performs up to `r_x - 1` steps moving blocks by
//! `z·w_x`. The uniform algorithm is the special case `r_x = r`; the
//! direct algorithm is the single-digit case `r_0 = n`.
//!
//! Mixed radices matter for tuning: for `n = 33` the vector
//! `(2, 2, 3, 3)` takes the same 6 rounds as uniform `r = 2` but moves
//! strictly less data (296 B vs 324 B per unit block), beating *every*
//! uniform radix for small messages. The tuner in [`best_radix_vector`]
//! searches the vector space exactly.

use crate::complexity::Complexity;
use crate::cost::CostModel;
use crate::radix::index_profile;

/// A mixed-radix decomposition of the block-id space `[0, n)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedRadix {
    n: usize,
    radices: Vec<usize>,
    /// `weights[x] = r_0 · r_1 ⋯ r_{x-1}` (so `weights[0] = 1`).
    weights: Vec<usize>,
}

impl MixedRadix {
    /// Build a decomposition of `[0, n)` with the given radix vector.
    ///
    /// Trailing positions whose weight already reaches `n` are dropped
    /// (they would have zero steps).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, any radix is `< 2`, or the radices do not cover
    /// `[0, n)` (`Π r_x < n`).
    #[must_use]
    pub fn new(n: usize, radices: &[usize]) -> Self {
        assert!(n >= 1);
        assert!(radices.iter().all(|&r| r >= 2), "radices must be ≥ 2");
        let mut kept = Vec::new();
        let mut weights = Vec::new();
        let mut w = 1usize;
        for &r in radices {
            if w >= n {
                break;
            }
            kept.push(r);
            weights.push(w);
            w = w.checked_mul(r).expect("radix product overflow");
        }
        assert!(
            w >= n || n == 1,
            "radix vector covers only [0, {w}) < n = {n}"
        );
        Self {
            n,
            radices: kept,
            weights,
        }
    }

    /// Closed-form `(C1, C2)` of the mixed-radix index algorithm in the
    /// k-port model: steps of a subphase grouped `k` per round, a round's
    /// `C2` contribution the largest message in the group — the uniform
    /// radix's closed form ([`index_profile`]) over this vector's digit
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0`.
    #[must_use]
    pub fn complexity(&self, block: usize, ports: usize) -> Complexity {
        let digits = self
            .weights
            .iter()
            .zip(&self.radices)
            .map(|(&w, &r)| (w, r));
        let (rounds, blocks) = index_profile(self.n, digits, ports);
        Complexity::new(rounds, blocks * block as u64)
    }
}

/// The enumerating view — digit sets and distances per step — kept as
/// the reference the closed forms above and the mixed lowering in
/// `program.rs` are tested against.
#[cfg(test)]
impl MixedRadix {
    /// Number of subphases.
    #[must_use]
    pub fn num_subphases(&self) -> usize {
        self.radices.len()
    }

    /// Number of steps in subphase `x`: the largest digit value that
    /// actually occurs among ids `< n`.
    #[must_use]
    pub fn steps_in_subphase(&self, x: usize) -> usize {
        crate::radix::digit_steps(self.n, self.weights[x], self.radices[x])
    }

    /// Exact count of ids `j ∈ [0, n)` with `digit_x(j) = z`.
    #[must_use]
    pub fn blocks_in_step(&self, x: usize, z: usize) -> usize {
        let w = self.weights[x];
        let period = w * self.radices[x];
        let full = (self.n / period) * w;
        let rem = self.n % period;
        full + rem.saturating_sub(z * w).min(w)
    }

    /// The (trimmed) radix vector.
    #[must_use]
    pub fn radices(&self) -> &[usize] {
        &self.radices
    }

    /// Digit of `value` at position `x`.
    #[must_use]
    pub fn digit(&self, value: usize, x: usize) -> usize {
        (value / self.weights[x]) % self.radices[x]
    }

    /// The rotation distance of step `(x, z)`: `z · w_x`.
    #[must_use]
    pub fn step_distance(&self, x: usize, z: usize) -> usize {
        z * self.weights[x]
    }

    /// The ids moved in step `(x, z)`.
    #[must_use]
    pub fn blocks_for_step(&self, x: usize, z: usize) -> Vec<usize> {
        (0..self.n).filter(|&j| self.digit(j, x) == z).collect()
    }

    /// All `(subphase, step)` pairs in execution order.
    pub fn steps(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_subphases())
            .flat_map(move |x| (1..=self.steps_in_subphase(x)).map(move |z| (x, z)))
    }
}

/// Exhaustively search radix vectors (non-decreasing, product in
/// `[n, …)`, minimal — no radix can be removed) for the predicted-time
/// minimizer. Complexity of the search is modest for the processor counts
/// of interest (`n ≤ 1024`): the candidate set is the set of ordered
/// factor-coverings of `n`.
#[must_use]
pub fn best_radix_vector(
    n: usize,
    block: usize,
    ports: usize,
    model: &dyn CostModel,
) -> (Vec<usize>, Complexity, f64) {
    if n <= 1 {
        return (vec![2], Complexity::ZERO, 0.0);
    }
    let mut best: Option<(Vec<usize>, Complexity, f64)> = None;
    for_each_searched_vector(n, |radices| {
        let c = MixedRadix::new(n, radices).complexity(block, ports);
        let t = model.estimate(c);
        if best.as_ref().is_none_or(|(_, _, bt)| t < *bt) {
            best = Some((radices.to_vec(), c, t));
        }
    });
    best.expect("at least the single-digit vector [n] is always explored")
}

/// Visit, depth first, every radix vector [`best_radix_vector`] costs:
/// non-decreasing, extended one radix at a time until the product first
/// reaches `n`.
fn for_each_searched_vector(n: usize, mut visit: impl FnMut(&[usize])) {
    let mut stack: Vec<Vec<usize>> = vec![vec![]];
    while let Some(prefix) = stack.pop() {
        let product: usize = prefix.iter().product();
        if product >= n {
            visit(&prefix);
            continue;
        }
        // Extend with any radix ≥ the last one (canonical non-decreasing
        // order). Radices beyond ⌈n/product⌉ are pointless — the top
        // digit's step count depends only on ⌈n/weight⌉ — but the
        // non-decreasing floor must still be allowed to finish a branch
        // (e.g. [3,3,3] for n = 48 finishes with another 3 even though
        // ⌈48/27⌉ = 2).
        let lo = prefix.last().copied().unwrap_or(2);
        let hi = n.div_ceil(product).max(lo);
        for r in lo..=hi {
            let mut next = prefix.clone();
            next.push(r);
            stack.push(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LinearModel;
    use crate::radix::RadixDecomposition;

    #[test]
    fn uniform_case_matches_radix_decomposition() {
        for n in 2..60usize {
            for r in 2..=n {
                let w = crate::radix::ceil_log(r, n);
                let mixed = MixedRadix::new(n, &vec![r; w as usize]);
                let uni = RadixDecomposition::new(n, r);
                assert_eq!(mixed.num_subphases(), w as usize, "n={n} r={r}");
                for x in 0..w {
                    assert_eq!(
                        mixed.steps_in_subphase(x as usize),
                        uni.steps_in_subphase(x),
                        "n={n} r={r} x={x}"
                    );
                    for z in 1..=uni.steps_in_subphase(x) {
                        assert_eq!(
                            mixed.blocks_in_step(x as usize, z),
                            uni.blocks_in_step(x, z)
                        );
                        assert_eq!(mixed.step_distance(x as usize, z), uni.step_distance(x, z));
                    }
                }
            }
        }
    }

    #[test]
    fn digits_sum_to_value() {
        let d = MixedRadix::new(30, &[2, 3, 5]);
        for j in 0..30 {
            let total: usize = (0..3).map(|x| d.digit(j, x) * d.step_distance(x, 1)).sum();
            assert_eq!(total, j);
        }
    }

    #[test]
    fn n33_vector_2233_beats_uniform_2_in_volume() {
        // The motivating example: for n = 33, the vector (2,2,3,3) covers
        // [0, 36) in the same 6 rounds as uniform r = 2 (which needs 6
        // bits) but moves strictly less data per processor.
        let mixed = MixedRadix::new(33, &[2, 2, 3, 3]).complexity(1, 1);
        let uniform = crate::tuning::index_complexity(33, 2, 1);
        assert_eq!(mixed.c1, uniform.c1);
        assert!(mixed.c2 < uniform.c2, "mixed {mixed} vs uniform {uniform}");
    }

    #[test]
    fn trailing_radices_trimmed() {
        let d = MixedRadix::new(6, &[2, 3, 7, 5]);
        assert_eq!(d.radices(), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "covers only")]
    fn insufficient_radices_rejected() {
        let _ = MixedRadix::new(100, &[2, 3]);
    }

    #[test]
    fn blocks_partition_like_uniform() {
        let d = MixedRadix::new(14, &[3, 5]);
        let mut moved = [0usize; 14];
        for (x, z) in d.steps() {
            for j in d.blocks_for_step(x, z) {
                moved[j] += d.step_distance(x, z);
            }
            assert_eq!(d.blocks_for_step(x, z).len(), d.blocks_in_step(x, z));
        }
        for (j, &total) in moved.iter().enumerate() {
            assert_eq!(total, j);
        }
    }

    #[test]
    fn best_vector_never_worse_than_best_uniform() {
        let model = LinearModel::sp1();
        for n in [6usize, 12, 24, 30, 60] {
            for b in [8usize, 256] {
                let (vector, _, t) = best_radix_vector(n, b, 1, &model);
                let uniform =
                    crate::tuning::best_radix(n, b, 1, &model, crate::tuning::all_radices(n));
                assert!(
                    t <= uniform.predicted_time + 1e-15,
                    "n={n} b={b}: vector {vector:?} at {t} vs uniform r={} at {}",
                    uniform.radix,
                    uniform.predicted_time
                );
            }
        }
    }

    #[test]
    fn best_vector_strictly_wins_somewhere() {
        // There must exist (n, b) where mixed radices strictly beat every
        // uniform radix — that is their raison d'être.
        let model = LinearModel::sp1();
        let mut strict = false;
        for n in [33usize, 34, 35, 36] {
            for b in [4usize, 8, 16, 32] {
                let (_, _, t) = best_radix_vector(n, b, 1, &model);
                let uniform =
                    crate::tuning::best_radix(n, b, 1, &model, crate::tuning::all_radices(n));
                if t < uniform.predicted_time - 1e-12 {
                    strict = true;
                }
            }
        }
        assert!(strict, "mixed radices never beat uniform — tuner is broken");
    }

    #[test]
    fn closed_form_matches_the_enumerated_steps_of_every_searched_vector() {
        // Every vector the tuner costs for n ≤ 64: the step count against
        // the largest digit an id takes, every step's block set
        // enumerated (never growing with the digit), and C1 / C2 grouped
        // by hand for k ≤ 5.
        for n in 2..=64usize {
            for_each_searched_vector(n, |radices| {
                let d = MixedRadix::new(n, radices);
                let steps: Vec<Vec<usize>> = (0..d.num_subphases())
                    .map(|x| {
                        let largest = (0..n).map(|j| d.digit(j, x)).max().unwrap_or(0);
                        assert_eq!(d.steps_in_subphase(x), largest, "n={n} {radices:?} x={x}");
                        (1..=largest)
                            .map(|z| d.blocks_for_step(x, z).len())
                            .collect()
                    })
                    .collect();
                for (x, sizes) in steps.iter().enumerate() {
                    for (z, &size) in (1..).zip(sizes) {
                        assert_eq!(d.blocks_in_step(x, z), size, "n={n} {radices:?} x={x}");
                    }
                    assert!(
                        sizes.windows(2).all(|w| w[1] <= w[0]),
                        "n={n} {radices:?} x={x}: {sizes:?}"
                    );
                }
                for k in 1..=5 {
                    let (rounds, blocks) = crate::radix::grouped_profile(&steps, k);
                    assert_eq!(
                        d.complexity(3, k),
                        Complexity::new(rounds, 3 * blocks),
                        "n={n} {radices:?} k={k}"
                    );
                }
            });
        }
    }

    #[test]
    fn kport_grouping() {
        let d = MixedRadix::new(20, &[4, 5]);
        let c1 = d.complexity(2, 1);
        let c2 = d.complexity(2, 2);
        assert!(c2.c1 <= c1.c1);
        assert!(c2.c2 <= c1.c2);
    }
}

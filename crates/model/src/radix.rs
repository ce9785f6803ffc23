//! Radix-`r` positional decomposition of block indices (§3.2).
//!
//! The communication phase of the index algorithm encodes every block id
//! `j ∈ [0, n)` in radix-`r` using `w = ⌈log_r n⌉` digits. Subphase `x`
//! handles digit `x` (least significant first); step `z` of subphase `x`
//! moves every block whose digit `x` equals `z` by `z·r^x` processors.

use crate::complexity::Complexity;

/// Smallest `w ≥ 0` such that `base^w ≥ n`, i.e. `⌈log_base n⌉`.
///
/// This is the number of radix-`base` digits needed to express every value
/// in `[0, n)` — and therefore the number of subphases of the index
/// algorithm and the round count of the concatenation algorithm
/// (`d = ⌈log_{k+1} n⌉`).
///
/// # Panics
///
/// Panics if `base < 2` or `n == 0`.
///
/// # Examples
///
/// ```
/// use bruck_model::ceil_log;
/// assert_eq!(ceil_log(2, 64), 6);
/// assert_eq!(ceil_log(2, 65), 7);
/// assert_eq!(ceil_log(4, 10), 2); // 4^2 = 16 ≥ 10
/// assert_eq!(ceil_log(5, 1), 0);
/// ```
#[must_use]
pub fn ceil_log(base: usize, n: usize) -> u32 {
    assert!(base >= 2, "ceil_log: base must be at least 2, got {base}");
    assert!(n >= 1, "ceil_log: n must be at least 1");
    let mut w = 0u32;
    let mut pow = 1usize;
    while pow < n {
        // The multiplication can overflow only when n > usize::MAX / base;
        // at that point one more digit is certainly enough.
        pow = match pow.checked_mul(base) {
            Some(p) => p,
            None => return w + 1,
        };
        w += 1;
    }
    w
}

/// `base^exp` with a panic on overflow (inputs in this crate are processor
/// counts, far below overflow in practice).
#[must_use]
pub fn pow(base: usize, exp: u32) -> usize {
    base.checked_pow(exp)
        .unwrap_or_else(|| panic!("pow overflow: {base}^{exp}"))
}

/// Full radix decomposition of the block-id space `[0, n)` for a given
/// radix, exposing exactly the quantities the index algorithm needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RadixDecomposition {
    n: usize,
    r: usize,
    w: u32,
}

impl RadixDecomposition {
    /// Decomposition of `[0, n)` in radix `r`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `r < 2`.
    #[must_use]
    pub fn new(n: usize, r: usize) -> Self {
        assert!(n >= 1, "RadixDecomposition: n must be ≥ 1");
        assert!(r >= 2, "RadixDecomposition: radix must be ≥ 2");
        Self {
            n,
            r,
            w: ceil_log(r, n),
        }
    }

    /// `(C1, Σ blocks)` of the communication phase in the `k`-port model:
    /// its round count and the blocks its rounds' largest messages carry,
    /// whatever the block size — see `index_profile`. A planner that
    /// prices one radix at many block sizes builds this once.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0`.
    #[must_use]
    pub fn profile(&self, ports: usize) -> (u64, u64) {
        let weights = std::iter::successors(Some(1usize), |&w| w.checked_mul(self.r));
        let digits = weights.take(self.w as usize).map(|w| (w, self.r));
        index_profile(self.n, digits, ports)
    }

    /// Closed-form `(C1, C2)` of the radix-`r` index algorithm's
    /// communication phase in the `k`-port model: `(C1, b · Σ blocks)`
    /// from [`profile`](Self::profile).
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0`.
    #[must_use]
    pub fn complexity(&self, block: usize, ports: usize) -> Complexity {
        let (rounds, blocks) = self.profile(ports);
        Complexity::new(rounds, blocks * block as u64)
    }
}

/// Steps of the subphase with digit weight `weight` and radix `radix`
/// over `[0, n)`: the non-zero digit values some id there takes.
pub(crate) fn digit_steps(n: usize, weight: usize, radix: usize) -> usize {
    radix.min(n.div_ceil(weight)) - 1
}

/// `(C1, Σ blocks)` of the index algorithm over `[0, n)` whose subphases
/// have the digit `(weight, radix)` pairs `digits`: a subphase's steps
/// are independent, so they are grouped `ports` per round, and a round
/// carries its largest message.
///
/// One closed form per subphase. Each full period `weight · radix` of
/// `[0, n)` gives every digit value `weight` ids; the remainder
/// `a · weight + t` gives `weight` more to each digit below `a` and `t`
/// to digit `a`. So a step's block count never grows with its digit, a
/// round's largest message is its first step `1 + g · ports`, and the
/// rounds add `weight` for each first step below `a` and `t` for one
/// at `a`.
///
/// # Panics
///
/// Panics if `ports == 0`.
pub(crate) fn index_profile(
    n: usize,
    digits: impl Iterator<Item = (usize, usize)>,
    ports: usize,
) -> (u64, u64) {
    assert!(ports >= 1, "complexity: ports must be ≥ 1");
    let (mut rounds, mut blocks) = (0usize, 0usize);
    for (weight, radix) in digits {
        let groups = digit_steps(n, weight, radix).div_ceil(ports);
        // A period past usize::MAX exceeds n: no full period, all remainder.
        let period = weight.saturating_mul(radix);
        let (a, t) = (n % period / weight, n % period % weight);
        let round_starts_at_a = a >= 1 && (a - 1) % ports == 0;
        rounds += groups;
        blocks += groups * (n / period * weight)
            + weight * a.saturating_sub(1).div_ceil(ports)
            + if round_starts_at_a { t } else { 0 };
    }
    (rounds as u64, blocks as u64)
}

/// The enumerating view of the decomposition — the block sets and
/// distances §3.2 steps through — kept as the reference the closed forms
/// above and the lowering in `program.rs` are tested against.
#[cfg(test)]
impl RadixDecomposition {
    /// Number of digits / subphases, `w = ⌈log_r n⌉`.
    #[must_use]
    pub fn num_subphases(&self) -> u32 {
        self.w
    }

    /// Number of *steps* in subphase `x`: the number of distinct non-zero
    /// values the digit actually takes over `[0, n)`.
    ///
    /// For `x < w-1` this is `r - 1`; for the most significant subphase it
    /// is `⌈n / r^{w-1}⌉ - 1` (pseudocode lines 7–11 of Appendix A).
    #[must_use]
    pub fn steps_in_subphase(&self, x: u32) -> usize {
        assert!(x < self.w, "subphase {x} out of range (w = {})", self.w);
        if x + 1 == self.w {
            self.n.div_ceil(pow(self.r, self.w - 1)) - 1
        } else {
            self.r - 1
        }
    }

    /// Exact number of blocks `j ∈ [0, n)` with `digit_x(j) = z`, in
    /// closed form (no enumeration).
    #[must_use]
    pub fn blocks_in_step(&self, x: u32, z: usize) -> usize {
        let period = pow(self.r, x + 1);
        let unit = pow(self.r, x);
        let full = (self.n / period) * unit;
        let rem = self.n % period;
        full + rem.saturating_sub(z * unit).min(unit)
    }

    /// [`complexity`](Self::complexity) as the per-step walk it replaced:
    /// every step's [`blocks_in_step`](Self::blocks_in_step), each round
    /// charged the largest of its group.
    #[must_use]
    pub fn complexity_by_groups(&self, block: usize, ports: usize) -> Complexity {
        assert!(ports >= 1, "complexity: ports must be ≥ 1");
        let mut c = Complexity::ZERO;
        if self.n <= 1 {
            return c;
        }
        for x in 0..self.w {
            let steps = self.steps_in_subphase(x);
            let mut z = 1usize;
            while z <= steps {
                let hi = steps.min(z + ports - 1);
                let max_blocks = (z..=hi)
                    .map(|zz| self.blocks_in_step(x, zz))
                    .max()
                    .unwrap_or(0);
                c = c.plus_round((max_blocks * block) as u64);
                z = hi + 1;
            }
        }
        c
    }

    /// Total number of steps over all subphases: the one-port round count
    /// `C1 = (r-1)(w-1) + ⌈n/r^{w-1}⌉ - 1 ≤ (r-1)·⌈log_r n⌉`.
    #[must_use]
    pub fn total_steps(&self) -> usize {
        (0..self.w).map(|x| self.steps_in_subphase(x)).sum()
    }

    /// The digit of `value` at subphase `x`.
    #[must_use]
    pub fn digit(&self, value: usize, x: u32) -> usize {
        digit(value, self.r, x)
    }

    /// Block ids `j ∈ [0, n)` whose digit at subphase `x` equals `z`
    /// (`z ≥ 1`): exactly the blocks packed into the single message of step
    /// `(x, z)`.
    #[must_use]
    pub fn blocks_for_step(&self, x: u32, z: usize) -> Vec<usize> {
        assert!(
            z >= 1 && z <= self.steps_in_subphase(x),
            "step z={z} out of range"
        );
        (0..self.n).filter(|&j| self.digit(j, x) == z).collect()
    }

    /// The rotation amount of step `(x, z)`: blocks move `z·r^x` processors
    /// to the right (toward higher ranks, cyclically).
    #[must_use]
    pub fn step_distance(&self, x: u32, z: usize) -> usize {
        z * pow(self.r, x)
    }

    /// The largest number of blocks in any one message of any step.
    ///
    /// For subphases below the top digit this is at most `⌈n/r⌉` (the
    /// paper's §3.2 bound); the top subphase can carry up to `r^{w-1}`
    /// blocks when `n` is not a power of `r` (e.g. `n=6, r=3`: step
    /// `(1, 1)` carries blocks {3, 4, 5}).
    #[must_use]
    pub fn max_blocks_per_message(&self) -> usize {
        self.steps()
            .map(|(x, z)| self.blocks_in_step(x, z))
            .max()
            .unwrap_or(0)
    }

    /// Iterator over all `(subphase, step)` pairs in execution order.
    pub fn steps(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        (0..self.w).flat_map(move |x| (1..=self.steps_in_subphase(x)).map(move |z| (x, z)))
    }
}

/// The radix-`r` digit at position `x` (0 = least significant) of `value`.
#[cfg(test)]
#[must_use]
pub fn digit(value: usize, r: usize, x: u32) -> usize {
    debug_assert!(r >= 2);
    (value / pow(r, x)) % r
}

/// `(C1, Σ blocks)` by hand from enumerated step sizes (one list per
/// subphase): `ports` steps to a round, each round charged its largest.
#[cfg(test)]
pub(crate) fn grouped_profile(subphases: &[Vec<usize>], ports: usize) -> (u64, u64) {
    subphases.iter().flat_map(|steps| steps.chunks(ports)).fold(
        (0, 0),
        |(rounds, blocks), round| {
            let largest = *round.iter().max().expect("chunks are non-empty");
            (rounds + 1, blocks + largest as u64)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log_basics() {
        assert_eq!(ceil_log(2, 1), 0);
        assert_eq!(ceil_log(2, 2), 1);
        assert_eq!(ceil_log(2, 3), 2);
        assert_eq!(ceil_log(3, 9), 2);
        assert_eq!(ceil_log(3, 10), 3);
        assert_eq!(ceil_log(10, 1000), 3);
        assert_eq!(ceil_log(10, 1001), 4);
    }

    #[test]
    #[should_panic(expected = "base must be at least 2")]
    fn ceil_log_rejects_base_one() {
        let _ = ceil_log(1, 5);
    }

    #[test]
    fn digit_extraction() {
        // 5 in radix 3 is "12": digit 0 = 2, digit 1 = 1 (paper's example:
        // with r = 3, block 5 moves 2·3^0 then 1·3^1).
        assert_eq!(digit(5, 3, 0), 2);
        assert_eq!(digit(5, 3, 1), 1);
        assert_eq!(digit(5, 3, 2), 0);
    }

    #[test]
    fn subphase_counts_match_paper_r2() {
        // r = 2, n = 5: w = 3 subphases; digits of 0..4 in binary need
        // bits 0,1,2; last subphase has ⌈5/4⌉-1 = 1 step.
        let d = RadixDecomposition::new(5, 2);
        assert_eq!(d.num_subphases(), 3);
        assert_eq!(d.steps_in_subphase(0), 1);
        assert_eq!(d.steps_in_subphase(1), 1);
        assert_eq!(d.steps_in_subphase(2), 1);
        assert_eq!(d.total_steps(), 3); // C1 = ⌈log2 5⌉ = 3
    }

    #[test]
    fn subphase_counts_r_equals_n() {
        // r = n: a single subphase with n-1 steps — the direct algorithm.
        let d = RadixDecomposition::new(7, 7);
        assert_eq!(d.num_subphases(), 1);
        assert_eq!(d.steps_in_subphase(0), 6);
        assert_eq!(d.total_steps(), 6);
    }

    #[test]
    fn total_steps_upper_bound() {
        for n in 2..200 {
            for r in 2..=n {
                let d = RadixDecomposition::new(n, r);
                let w = ceil_log(r, n) as usize;
                assert!(
                    d.total_steps() <= (r - 1) * w,
                    "C1 bound violated for n={n} r={r}"
                );
            }
        }
    }

    #[test]
    fn blocks_for_step_partition_blocks() {
        // Every non-zero block id appears in exactly one (x, z) step.
        for n in [2usize, 5, 12, 16, 31] {
            for r in 2..=n {
                let d = RadixDecomposition::new(n, r);
                let mut seen = vec![0u32; n];
                for (x, z) in d.steps() {
                    for j in d.blocks_for_step(x, z) {
                        // block j is *touched* once per non-zero digit
                        assert_eq!(d.digit(j, x), z);
                        seen[j] += 1;
                    }
                }
                for (j, &count) in seen.iter().enumerate() {
                    let nonzero_digits = (0..d.num_subphases())
                        .filter(|&x| d.digit(j, x) != 0)
                        .count() as u32;
                    assert_eq!(count, nonzero_digits, "n={n} r={r} j={j}");
                }
                // block 0 never moves
                assert_eq!(seen[0], 0);
            }
        }
    }

    #[test]
    fn step_distances_sum_to_block_id() {
        // The total distance a block travels over all steps equals its id,
        // which is why it lands at processor (i + j) mod n.
        for n in [5usize, 9, 16, 27] {
            for r in 2..=n {
                let d = RadixDecomposition::new(n, r);
                let mut moved = vec![0usize; n];
                for (x, z) in d.steps() {
                    for j in d.blocks_for_step(x, z) {
                        moved[j] += d.step_distance(x, z);
                    }
                }
                for (j, &total) in moved.iter().enumerate() {
                    assert_eq!(total, j, "n={n} r={r}");
                }
            }
        }
    }

    #[test]
    fn closed_form_block_count_matches_enumeration() {
        for n in 2..80 {
            for r in 2..=n {
                let d = RadixDecomposition::new(n, r);
                for (x, z) in d.steps() {
                    assert_eq!(
                        d.blocks_in_step(x, z),
                        d.blocks_for_step(x, z).len(),
                        "n={n} r={r} x={x} z={z}"
                    );
                }
            }
        }
    }

    #[test]
    fn profile_matches_the_enumerated_steps() {
        // Every step's block set enumerated and grouped by hand, against
        // the closed form and the per-step walk it replaced: every radix,
        // n < 200, k ≤ 5.
        for n in 1..200usize {
            for r in 2..=n.max(2) {
                let d = RadixDecomposition::new(n, r);
                let steps: Vec<Vec<usize>> = (0..d.num_subphases())
                    .map(|x| {
                        (1..=d.steps_in_subphase(x))
                            .map(|z| d.blocks_for_step(x, z).len())
                            .collect()
                    })
                    .collect();
                for k in 1..=5 {
                    assert_eq!(
                        d.profile(k),
                        grouped_profile(&steps, k),
                        "n={n} r={r} k={k}"
                    );
                    assert_eq!(
                        d.complexity(3, k),
                        d.complexity_by_groups(3, k),
                        "n={n} r={r} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn step_sizes_never_grow_with_the_digit() {
        // What lets a round be charged its first step.
        for n in 1..200usize {
            for r in 2..=n.max(2) {
                let d = RadixDecomposition::new(n, r);
                for (x, z) in d.steps().filter(|&(_, z)| z >= 2) {
                    assert!(
                        d.blocks_in_step(x, z) <= d.blocks_in_step(x, z - 1),
                        "n={n} r={r} x={x} z={z}"
                    );
                }
            }
        }
    }

    #[test]
    fn message_size_bound() {
        // The exact per-step bound is ⌈n/r^{x+1}⌉·r^x blocks; the paper's
        // simpler ⌈n/r⌉ holds exactly whenever n is a power of r.
        for n in 2..100 {
            for r in 2..=n {
                let d = RadixDecomposition::new(n, r);
                for (x, z) in d.steps() {
                    let blocks = d.blocks_in_step(x, z);
                    assert!(blocks <= d.max_blocks_per_message());
                    let exact_bound = n.div_ceil(pow(r, x + 1)) * pow(r, x);
                    assert!(
                        blocks <= exact_bound,
                        "per-step bound violated n={n} r={r} x={x} z={z}"
                    );
                }
                if n == pow(r, d.num_subphases()) {
                    assert!(d.max_blocks_per_message() <= n.div_ceil(r), "n={n} r={r}");
                }
            }
        }
    }
}

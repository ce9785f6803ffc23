//! The last-round table-partitioning problem (Proposition 4.2, Table 1).
//!
//! After the first `d-1` rounds of the concatenation algorithm, every node
//! `v` holds the blocks of the `n1 = (k+1)^{d-1}` nodes preceding it
//! (`v, v-1, …, v-n1+1`, circularly) and still needs the blocks at
//! circular distances `δ ∈ [n1, n1+n2)`, where `n2 = n - n1 ≤ k·n1`.
//!
//! The last round must deliver, to every node, `n2` blocks of `b` bytes
//! through at most `k` input ports. By symmetry it suffices to schedule the
//! *relative* pattern once: picture a table with `n2` columns (column `m`
//! is the missing block at distance `δ = n1 + m`) and `b` rows (bytes of a
//! block). The table is partitioned into at most `k` **areas**; an area
//! with leftmost column `L` is served with offset `o = n1 + L`: node `v`
//! receives the area's bytes of column `m` from node `v - o`, which holds
//! them iff the area's column span is at most `n1`.
//!
//! Optimality requires every area to carry at most `a = ⌈b·n2/k⌉` bytes
//! (Proposition 4.2). A greedy byte-granular, column-major partition
//! achieves this for all `(n1, n2, b, k)` outside the paper's exception
//! range; inside it, the §4 Remark's two fallbacks are provided:
//!
//! * **column-aligned** — still one round (`C1` optimal), areas up to
//!   `b-1` bytes over `a` (`C2` suboptimal by `< b`);
//! * **extra round** — two rounds whose per-round maxima sum to `a`
//!   (`C2` optimal, `C1` one over the bound).
//!
//! A plan is a list of slices, never a table: building and validating
//! one ([`LastRoundPlan::validate`]) cost O(S log S) in its `S ≤ n2 + k`
//! slices whatever `b` is — the concat lowering plans the last round on every
//! call. Only [`LastRoundPlan::render`] draws the `n2 × b` picture.

use crate::complexity::Complexity;
use crate::radix::{ceil_log, pow};

/// A contiguous run of byte-rows within one column of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnSlice {
    /// Column index `m ∈ [0, n2)` — the missing block at distance `n1 + m`.
    pub col: usize,
    /// First byte-row (inclusive).
    pub row_start: usize,
    /// Last byte-row (exclusive).
    pub row_end: usize,
}

impl ColumnSlice {
    /// Number of bytes in this slice.
    #[must_use]
    pub fn len(&self) -> usize {
        self.row_end - self.row_start
    }

    /// Whether the slice is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.row_end == self.row_start
    }
}

/// One area of the partition: a set of column slices served by a single
/// point-to-point message at a fixed circular offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Area {
    /// Circular sender distance: node `v` receives this area from
    /// `v - offset (mod n)` and symmetrically sends it to `v + offset`.
    pub offset: usize,
    /// The slices carried, in column order.
    pub slices: Vec<ColumnSlice>,
}

impl Area {
    /// Total bytes carried by this area (= size of the message).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.slices.iter().map(ColumnSlice::len).sum()
    }

    /// Leftmost column touched.
    #[must_use]
    pub fn leftmost(&self) -> usize {
        self.slices
            .iter()
            .map(|s| s.col)
            .min()
            .expect("area is non-empty")
    }

    /// Rightmost column touched.
    #[must_use]
    pub fn rightmost(&self) -> usize {
        self.slices
            .iter()
            .map(|s| s.col)
            .max()
            .expect("area is non-empty")
    }

    /// Column span `R - L + 1`.
    #[must_use]
    pub fn span(&self) -> usize {
        self.rightmost() - self.leftmost() + 1
    }
}

/// Which strategy produced the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Greedy byte-granular partition: optimal in both `C1` and `C2`.
    Greedy,
    /// Column-aligned partition: `C1`-optimal, `C2` at most `b-1` over.
    ColumnAligned,
    /// Two-round partition: `C2`-optimal, one extra round.
    ExtraRound,
}

/// Preference between the two fallbacks inside the exception range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preference {
    /// Keep `C1 = ⌈log_{k+1} n⌉` (default; pays ≤ `b-1` extra bytes).
    #[default]
    Rounds,
    /// Keep `C2 = ⌈b(n-1)/k⌉` (pays one extra round).
    Bytes,
}

/// The scheduled tail of the concatenation: one or two rounds of areas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LastRoundPlan {
    /// Parameters the plan was built for.
    pub n1: usize,
    /// Number of missing blocks.
    pub n2: usize,
    /// Block size in bytes.
    pub b: usize,
    /// Ports.
    pub k: usize,
    /// The rounds; each round holds at most `k` areas.
    pub rounds: Vec<Vec<Area>>,
    /// Which strategy was used.
    pub strategy: Strategy,
}

impl LastRoundPlan {
    /// The complexity contribution of the plan's rounds: one `C1` unit per
    /// round, and per round the largest area in bytes.
    #[must_use]
    pub fn complexity(&self) -> Complexity {
        let mut c = Complexity::ZERO;
        for round in &self.rounds {
            let max = round.iter().map(Area::bytes).max().unwrap_or(0) as u64;
            c = c.plus_round(max);
        }
        c
    }

    /// Check the plan: every table entry covered exactly once, at most `k`
    /// areas per round with distinct offsets, every area's span within
    /// `n1`, the offset inside its feasible window, every slice inside
    /// the table. Exact cover is proved arithmetically — ordered by
    /// (column, first row), the slices must tile `[0, b)` in every column
    /// — so the cost follows the slice count, never `b`: O(S log S) when
    /// slices arrive in table order, as in every plan built here.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        // The slices seen so far, disjoint, sorted by (column, first row).
        let mut covered: Vec<ColumnSlice> = Vec::new();
        for (ri, round) in self.rounds.iter().enumerate() {
            if round.len() > self.k {
                return Err(format!(
                    "round {ri} has {} areas > k={}",
                    round.len(),
                    self.k
                ));
            }
            let mut offsets: Vec<usize> = round.iter().map(|a| a.offset).collect();
            offsets.sort_unstable();
            offsets.dedup();
            if offsets.len() != round.len() {
                return Err(format!(
                    "round {ri} has duplicate offsets — two messages to one peer"
                ));
            }
            for area in round {
                if area.slices.is_empty() {
                    return Err("empty area".into());
                }
                let (left, right) = (area.leftmost(), area.rightmost());
                if right - left + 1 > self.n1 {
                    return Err(format!(
                        "area at offset {} spans {} columns > n1={}",
                        area.offset,
                        right - left + 1,
                        self.n1
                    ));
                }
                // The sender must hold every column it forwards:
                // o ∈ [R + 1, L + n1] for leftmost L and rightmost R.
                let (lo, hi) = (right + 1, left + self.n1);
                if area.offset < lo || area.offset > hi {
                    return Err(format!(
                        "offset {} outside feasible window [{lo}, {hi}]",
                        area.offset
                    ));
                }
                for s in &area.slices {
                    if s.col >= self.n2 || s.row_end > self.b || s.row_start >= s.row_end {
                        return Err(format!("bad slice {s:?}"));
                    }
                    // Among disjoint slices only the neighbours on either
                    // side of the new one can overlap it.
                    let at =
                        covered.partition_point(|c| (c.col, c.row_start) <= (s.col, s.row_start));
                    let before = covered[..at].last().filter(|c| c.col == s.col);
                    let after = covered.get(at).filter(|c| c.col == s.col);
                    let twice = match (before, after) {
                        (Some(c), _) if c.row_end > s.row_start => Some(s.row_start),
                        (_, Some(c)) if c.row_start < s.row_end => Some(c.row_start),
                        _ => None,
                    };
                    if let Some(row) = twice {
                        return Err(format!("entry ({}, {row}) covered twice", s.col));
                    }
                    covered.insert(at, *s);
                }
            }
        }
        // Column-major, the slices must now chain from (0, 0) to (n2, 0).
        let mut next = (0usize, 0usize);
        for c in &covered {
            if (c.col, c.row_start) != next {
                break;
            }
            next = if c.row_end == self.b {
                (c.col + 1, 0)
            } else {
                (c.col, c.row_end)
            };
        }
        if self.b > 0 && next.0 < self.n2 {
            return Err(format!("entry ({}, {}) not covered", next.0, next.1));
        }
        Ok(())
    }

    /// The per-byte check [`validate`](Self::validate) replaced, verbatim:
    /// tick an `n2 × b` table entry by entry. Kept as the oracle the
    /// arithmetic check is held against.
    #[cfg(test)]
    fn validate_by_table(&self) -> Result<(), String> {
        let mut covered = vec![vec![false; self.b]; self.n2];
        for (ri, round) in self.rounds.iter().enumerate() {
            if round.len() > self.k {
                return Err(format!(
                    "round {ri} has {} areas > k={}",
                    round.len(),
                    self.k
                ));
            }
            let mut offsets: Vec<usize> = round.iter().map(|a| a.offset).collect();
            offsets.sort_unstable();
            offsets.dedup();
            if offsets.len() != round.len() {
                return Err(format!(
                    "round {ri} has duplicate offsets — two messages to one peer"
                ));
            }
            for area in round {
                if area.slices.is_empty() {
                    return Err("empty area".into());
                }
                if area.span() > self.n1 {
                    return Err(format!(
                        "area at offset {} spans {} columns > n1={}",
                        area.offset,
                        area.span(),
                        self.n1
                    ));
                }
                // The offset must be valid for every column of the area:
                // o ∈ [m+1, m+n1] in missing-index terms means
                // o - n1 ≤ L and o ≥ R + 1 + 0 … concretely o ∈ [R+1+n1-n1, L+n1]:
                let lo = area.rightmost() + 1;
                let hi = area.leftmost() + self.n1;
                if area.offset < lo || area.offset > hi {
                    return Err(format!(
                        "offset {} outside feasible window [{lo}, {hi}]",
                        area.offset
                    ));
                }
                for s in &area.slices {
                    if s.col >= self.n2 || s.row_end > self.b || s.is_empty() {
                        return Err(format!("bad slice {s:?}"));
                    }
                    for (row, cell) in covered[s.col][s.row_start..s.row_end]
                        .iter_mut()
                        .enumerate()
                    {
                        if *cell {
                            return Err(format!(
                                "entry ({}, {}) covered twice",
                                s.col,
                                s.row_start + row
                            ));
                        }
                        *cell = true;
                    }
                }
            }
        }
        for (m, col) in covered.iter().enumerate() {
            for (row, &c) in col.iter().enumerate() {
                if !c {
                    return Err(format!("entry ({m}, {row}) not covered"));
                }
            }
        }
        Ok(())
    }

    /// Render the partition as the paper's Table 1: one row per byte, one
    /// column per missing node, each cell showing its area number.
    #[must_use]
    pub fn render(&self) -> String {
        let mut grid = vec![vec![0usize; self.n2]; self.b];
        let mut id = 0usize;
        for round in &self.rounds {
            for area in round {
                id += 1;
                for s in &area.slices {
                    for line in &mut grid[s.row_start..s.row_end] {
                        line[s.col] = id;
                    }
                }
            }
        }
        let mut out = String::new();
        out.push_str("byte\\node |");
        for m in 0..self.n2 {
            out.push_str(&format!(" p{:<3}", self.n1 + m));
        }
        out.push('\n');
        for (row, line) in grid.iter().enumerate() {
            out.push_str(&format!("{row:9} |"));
            for &cell in line {
                out.push_str(&format!(" A{cell:<3}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Assign distinct offsets to an ordered run of areas.
///
/// Area `i`'s feasible offsets form the window `[R_i + 1, L_i + n1]`
/// (the sender must already hold every column it forwards). Two areas may
/// not share an offset within one round — that would be two messages to
/// the same peer, which the k-port model forbids. Because the areas are
/// built left-to-right, their windows form a staircase, so the greedy
/// earliest-point rule is optimal; returns `false` if no assignment
/// exists (e.g. more areas packed into one column than `n1` senders can
/// cover).
fn assign_offsets(areas: &mut [Area], n1: usize) -> bool {
    // Walk right-to-left taking the highest available point, so that a
    // lone area gets the paper's canonical offset `n1 + L`.
    let mut prev: Option<usize> = None;
    for area in areas.iter_mut().rev() {
        let lo = area.rightmost() + 1;
        let hi = area.leftmost() + n1;
        let candidate = match prev {
            Some(p) => {
                if p == 0 {
                    return false;
                }
                hi.min(p - 1)
            }
            None => hi,
        };
        if candidate < lo {
            return false;
        }
        area.offset = candidate;
        prev = Some(candidate);
    }
    true
}

/// Cut the column-major entry range `[start, end)` (global byte indices,
/// column = `t / b`) into one area.
fn area_from_range(n1: usize, b: usize, start: usize, end: usize) -> Area {
    debug_assert!(start < end);
    let mut slices = Vec::new();
    let mut t = start;
    while t < end {
        let col = t / b;
        let row_start = t % b;
        let row_end = (b).min(row_start + (end - t));
        slices.push(ColumnSlice {
            col,
            row_start,
            row_end,
        });
        t += row_end - row_start;
    }
    let leftmost = slices[0].col;
    Area {
        offset: n1 + leftmost,
        slices,
    }
}

/// Greedy byte-granular partition into `k` chunks of at most `chunk` bytes
/// each. Returns `None` if any chunk's span exceeds `n1` or more than `k`
/// chunks would be needed.
fn greedy(n1: usize, n2: usize, b: usize, k: usize, chunk: usize) -> Option<Vec<Area>> {
    let total = n2 * b;
    let mut areas = Vec::new();
    let mut start = 0usize;
    while start < total {
        if areas.len() == k {
            return None;
        }
        let end = total.min(start + chunk);
        let area = area_from_range(n1, b, start, end);
        if area.span() > n1 {
            return None;
        }
        areas.push(area);
        start = end;
    }
    assign_offsets(&mut areas, n1).then_some(areas)
}

/// Column-aligned partition: distribute whole columns as evenly as
/// possible over `k` areas. Always feasible (span ≤ ⌈n2/k⌉ ≤ n1).
fn column_aligned(n1: usize, n2: usize, b: usize, k: usize) -> Vec<Area> {
    let mut areas = Vec::new();
    let mut col = 0usize;
    let areas_needed = k.min(n2);
    for i in 0..areas_needed {
        let cols = n2 / areas_needed + usize::from(i < n2 % areas_needed);
        if cols == 0 {
            continue;
        }
        areas.push(area_from_range(n1, b, col * b, (col + cols) * b));
        col += cols;
    }
    let ok = assign_offsets(&mut areas, n1);
    debug_assert!(
        ok,
        "column-aligned offset assignment cannot fail (disjoint columns)"
    );
    areas
}

/// The circulant concatenation's last round(s) on `n` nodes with
/// `b`-byte blocks and `k` ports: after `d − 1 = ⌈log_{k+1} n⌉ − 1`
/// doubling rounds every node holds `n1 = (k+1)^{d−1}` blocks and misses
/// `n2 = n − n1`. `None` when there is no last round to plan (`d < 2` or
/// `b = 0`). The concatenation's lowering and the Table 1 figure both
/// read it here.
#[must_use]
pub fn concat_last_round(n: usize, k: usize, b: usize, pref: Preference) -> Option<LastRoundPlan> {
    let d = ceil_log(k + 1, n);
    (d >= 2 && b > 0).then(|| {
        let n1 = pow(k + 1, d - 1);
        plan_last_round(n1, n - n1, b, k, pref)
    })
}

/// Build the last-round plan for `(n1, n2, b, k)`.
///
/// `n1` is the number of blocks every node already holds, `n2` the number
/// still missing; the caller guarantees `1 ≤ n2 ≤ k·n1` (Theorem 4.1's
/// precondition). The returned plan is validated.
///
/// # Panics
///
/// Panics on parameter violations (`n2 > k·n1`, zero sizes).
#[must_use]
pub fn plan_last_round(
    n1: usize,
    n2: usize,
    b: usize,
    k: usize,
    pref: Preference,
) -> LastRoundPlan {
    assert!(n1 >= 1 && n2 >= 1 && b >= 1 && k >= 1);
    assert!(
        n2 <= k * n1,
        "last round infeasible: n2={n2} > k·n1={}",
        k * n1
    );
    let a = (b * n2).div_ceil(k);
    let plan = if let Some(areas) = greedy(n1, n2, b, k, a) {
        LastRoundPlan {
            n1,
            n2,
            b,
            k,
            rounds: vec![areas],
            strategy: Strategy::Greedy,
        }
    } else {
        match pref {
            Preference::Rounds => LastRoundPlan {
                n1,
                n2,
                b,
                k,
                rounds: vec![column_aligned(n1, n2, b, k)],
                strategy: Strategy::ColumnAligned,
            },
            Preference::Bytes if n1 == 1 || a <= b => {
                // With n1 = 1 every area must be a single column, and with
                // a ≤ b the per-port budget is below one block; in both
                // degenerate geometries an extra round cannot reduce the
                // maxima, so the column-aligned plan is the best we offer.
                LastRoundPlan {
                    n1,
                    n2,
                    b,
                    k,
                    rounds: vec![column_aligned(n1, n2, b, k)],
                    strategy: Strategy::ColumnAligned,
                }
            }
            Preference::Bytes => {
                // Two rounds: chunks of a-b bytes, then chunks of b bytes.
                // Span of an (a-b)-byte chunk is ≤ n1 and of a b-byte chunk
                // ≤ 2 ≤ n1; per-round maxima sum to exactly a.
                // (Greedy cannot fail with a ≤ b unless n1 = 1, handled
                // above, so the subtraction is safe.)
                let s1 = a - b;
                debug_assert!(s1 >= 1);
                let total = n2 * b;
                let cut = total.min(k * s1);
                let mut round1 = Vec::new();
                let mut start = 0usize;
                while start < cut {
                    let end = cut.min(start + s1);
                    round1.push(area_from_range(n1, b, start, end));
                    start = end;
                }
                let mut round2 = Vec::new();
                let mut start = cut;
                while start < total {
                    let end = total.min(start + b);
                    round2.push(area_from_range(n1, b, start, end));
                    start = end;
                }
                let ok = assign_offsets(&mut round1, n1)
                    && assign_offsets(&mut round2, n1)
                    && round1.iter().all(|ar| ar.span() <= n1)
                    && round2.iter().all(|ar| ar.span() <= n1);
                if ok {
                    LastRoundPlan {
                        n1,
                        n2,
                        b,
                        k,
                        rounds: vec![round1, round2],
                        strategy: Strategy::ExtraRound,
                    }
                } else {
                    // Degenerate geometry (tiny n1 relative to k): the
                    // column-aligned single round is the best we offer.
                    LastRoundPlan {
                        n1,
                        n2,
                        b,
                        k,
                        rounds: vec![column_aligned(n1, n2, b, k)],
                        strategy: Strategy::ColumnAligned,
                    }
                }
            }
        }
    };
    plan.validate().unwrap_or_else(|e| {
        panic!("internal error: generated invalid last-round plan for n1={n1} n2={n2} b={b} k={k}: {e}")
    });
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 1: n1 = 3, n2 = 7, b = 3, k = 3 (nodes p3..p9 of a
    /// 10-node instance). The greedy partition reproduces it exactly.
    #[test]
    fn table1_example() {
        let plan = plan_last_round(3, 7, 3, 3, Preference::Rounds);
        assert_eq!(plan.strategy, Strategy::Greedy);
        assert_eq!(plan.rounds.len(), 1);
        let areas = &plan.rounds[0];
        assert_eq!(areas.len(), 3);
        // a = ⌈3·7/3⌉ = 7 bytes per area.
        assert!(areas.iter().all(|ar| ar.bytes() == 7));
        // Offsets 3, 5, 7 — "each node i sends seven bytes to nodes
        // (i+3), (i+5) and (i+7) mod n".
        let offsets: Vec<usize> = areas.iter().map(|ar| ar.offset).collect();
        assert_eq!(offsets, vec![3, 5, 7]);
        // Area 1: p3 gets 3 bytes, p4 gets 3, p5 gets 1 (columns 0..2).
        assert_eq!(
            areas[0].slices,
            vec![
                ColumnSlice {
                    col: 0,
                    row_start: 0,
                    row_end: 3
                },
                ColumnSlice {
                    col: 1,
                    row_start: 0,
                    row_end: 3
                },
                ColumnSlice {
                    col: 2,
                    row_start: 0,
                    row_end: 1
                },
            ]
        );
        // Area 2: p5 two bytes, p6 three, p7 two.
        assert_eq!(
            areas[1].slices,
            vec![
                ColumnSlice {
                    col: 2,
                    row_start: 1,
                    row_end: 3
                },
                ColumnSlice {
                    col: 3,
                    row_start: 0,
                    row_end: 3
                },
                ColumnSlice {
                    col: 4,
                    row_start: 0,
                    row_end: 2
                },
            ]
        );
        // Area 3: p7 one byte, p8 three, p9 three.
        assert_eq!(
            areas[2].slices,
            vec![
                ColumnSlice {
                    col: 4,
                    row_start: 2,
                    row_end: 3
                },
                ColumnSlice {
                    col: 5,
                    row_start: 0,
                    row_end: 3
                },
                ColumnSlice {
                    col: 6,
                    row_start: 0,
                    row_end: 3
                },
            ]
        );
    }

    #[test]
    fn one_port_is_single_area() {
        // k = 1: the classic Bruck allgather tail — one message of n2·b.
        let plan = plan_last_round(4, 3, 8, 1, Preference::Rounds);
        assert_eq!(plan.strategy, Strategy::Greedy);
        assert_eq!(plan.rounds[0].len(), 1);
        assert_eq!(plan.rounds[0][0].bytes(), 24);
        assert_eq!(plan.rounds[0][0].offset, 4);
        assert_eq!(plan.complexity(), Complexity::new(1, 24));
    }

    /// The `(n1, n2)` pairs the concatenation algorithm actually hands to
    /// the partitioner: `n1 = (k+1)^{d-1}`, `n2 = n - n1`, over all
    /// non-trivial `n` (those with `d ≥ 2`, i.e. `n > k+1`).
    fn realizable(k: usize, n_max: usize) -> impl Iterator<Item = (usize, usize)> {
        (k + 2..=n_max).map(move |n| {
            let d = crate::radix::ceil_log(k + 1, n);
            let n1 = crate::radix::pow(k + 1, d - 1);
            (n1, n - n1)
        })
    }

    #[test]
    fn greedy_optimal_for_k_le_2() {
        // Theorem 4.3: k ≤ 2 is always in the optimal range.
        for k in 1..=2usize {
            for (n1, n2) in realizable(k, 200) {
                for b in 1..=5usize {
                    let plan = plan_last_round(n1, n2, b, k, Preference::Rounds);
                    assert_eq!(
                        plan.strategy,
                        Strategy::Greedy,
                        "n1={n1} n2={n2} b={b} k={k}"
                    );
                    let a = (b * n2).div_ceil(k) as u64;
                    assert_eq!(plan.complexity(), Complexity::new(1, a));
                }
            }
        }
    }

    #[test]
    fn greedy_optimal_for_b_le_2() {
        // Theorem 4.3: b ≤ 2 is always in the optimal range.
        for b in 1..=2usize {
            for k in 1..=6usize {
                for (n1, n2) in realizable(k, 300) {
                    let plan = plan_last_round(n1, n2, b, k, Preference::Rounds);
                    assert_eq!(
                        plan.strategy,
                        Strategy::Greedy,
                        "n1={n1} n2={n2} b={b} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn exception_range_exists_and_fallbacks_hold() {
        // Somewhere with k ≥ 3, b ≥ 3 the greedy partition must fail and
        // the fallbacks engage with the costs promised by the §4 Remark.
        let mut found = false;
        for k in 3..=5usize {
            for (n1, n2) in realizable(k, 250) {
                {
                    for b in 3..=5usize {
                        let a = (b * n2).div_ceil(k) as u64;
                        let rounds_plan = plan_last_round(n1, n2, b, k, Preference::Rounds);
                        let bytes_plan = plan_last_round(n1, n2, b, k, Preference::Bytes);
                        if rounds_plan.strategy == Strategy::Greedy {
                            assert_eq!(bytes_plan.strategy, Strategy::Greedy);
                            continue;
                        }
                        // C1-preserving fallback: 1 round, < b bytes over a.
                        let rc = rounds_plan.complexity();
                        assert_eq!(rc.c1, 1);
                        assert!(
                            rc.c2 < a + b as u64,
                            "column-aligned too fat: {rc} vs a={a} b={b}"
                        );
                        // C2-preserving fallback: 2 rounds, ≤ a bytes —
                        // except degenerate geometries where the extra
                        // round cannot be scheduled and the plan reports
                        // ColumnAligned instead.
                        if bytes_plan.strategy == Strategy::ExtraRound {
                            found = true;
                            let bc = bytes_plan.complexity();
                            assert_eq!(bc.c1, 2, "n1={n1} n2={n2} b={b} k={k}");
                            assert!(
                                bc.c2 <= a,
                                "extra-round plan not byte-optimal: {bc} vs a={a} (n1={n1} n2={n2} b={b} k={k})"
                            );
                        }
                    }
                }
            }
        }
        assert!(found, "no exception-range instance found — suspicious");
    }

    #[test]
    fn plans_always_validate() {
        for k in 1..=5usize {
            for n1 in 1..=8usize {
                for n2 in 1..=(k * n1) {
                    for b in 1..=4usize {
                        for pref in [Preference::Rounds, Preference::Bytes] {
                            // plan_last_round validates internally; also
                            // check complexity is sane.
                            let plan = plan_last_round(n1, n2, b, k, pref);
                            let c = plan.complexity();
                            assert!(c.c2 as usize >= (b * n2).div_ceil(k));
                            assert!(c.c1 >= 1 && c.c1 <= 2);
                        }
                    }
                }
            }
        }
    }

    /// Which invariant a `validate` verdict names: the error text up to
    /// its first number.
    fn invariant(verdict: &Result<(), String>) -> &'static str {
        let Err(e) = verdict else { return "ok" };
        [
            "areas > k",
            "duplicate offsets",
            "empty area",
            "columns > n1",
            "outside feasible window",
            "bad slice",
            "covered twice",
            "not covered",
        ]
        .into_iter()
        .find(|name| e.contains(name))
        .unwrap_or_else(|| panic!("unknown validate error: {e}"))
    }

    /// The arithmetic `validate` against the per-byte table it replaced:
    /// the same verdict, word for word, on every plan the partitioner
    /// builds for small shapes and on 10 000 seeded single mutations of
    /// them — each invariant broken at least a hundred times.
    #[test]
    fn arithmetic_validate_agrees_with_the_table_oracle() {
        let mut rng = 0x7ab1e_u64;
        let mut next = move || {
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        let mut seen: std::collections::BTreeMap<&str, u32> = std::collections::BTreeMap::new();
        for trial in 0..10_000 {
            let k = 1 + next() % 4;
            let n1 = 1 + next() % 6;
            let n2 = 1 + next() % (k * n1);
            let b = 1 + next() % 6;
            let pref = [Preference::Rounds, Preference::Bytes][next() % 2];
            let mut plan = plan_last_round(n1, n2, b, k, pref);
            assert_eq!(plan.validate_by_table(), Ok(()), "trial {trial}");
            let ri = next() % plan.rounds.len();
            let ai = next() % plan.rounds[ri].len();
            let si = next() % plan.rounds[ri][ai].slices.len();
            let round = &mut plan.rounds[ri];
            match next() % 12 {
                0 => round[ai].slices[si].row_start += 1,
                1 => {
                    round[ai].slices[si].row_start =
                        round[ai].slices[si].row_start.saturating_sub(1)
                }
                2 => round[ai].slices[si].row_end += 1,
                3 => round[ai].slices[si].row_end -= 1,
                4 => drop(round[ai].slices.remove(si)),
                5 => {
                    let dup = round[ai].slices[si];
                    round[ai].slices.push(dup);
                }
                6 => {
                    let other = next() % round.len();
                    let o = round[other].offset;
                    round[other].offset = std::mem::replace(&mut round[ai].offset, o);
                }
                7 => round[ai].slices[si].col += n1 + next() % 2,
                8 => round[ai].slices[si].col = n2 + next() % 2,
                9 => round[ai].slices.clear(),
                10 => round[ai].offset = round[next() % round.len()].offset,
                _ => {
                    while round.len() <= k {
                        let mut extra = round[ai].clone();
                        extra.offset += n1 + n2 + round.len();
                        round.push(extra);
                    }
                }
            }
            let got = plan.validate();
            assert_eq!(got, plan.validate_by_table(), "trial {trial}: {plan:?}");
            *seen.entry(invariant(&got)).or_default() += 1;
        }
        assert_eq!(seen.len(), 9, "an invariant was never exercised: {seen:?}");
        assert!(seen.values().all(|&hits| hits >= 100), "{seen:?}");
    }

    /// A per-byte table of this instance would be 5 TiB; the plan is
    /// built, validated and optimal all the same.
    #[test]
    fn block_size_does_not_bound_validation() {
        let b = 1usize << 40;
        let plan = plan_last_round(3, 5, b, 2, Preference::Rounds);
        plan.validate().expect("valid");
        assert_eq!(
            plan.complexity(),
            Complexity::new(1, (5 * b as u64).div_ceil(2))
        );
    }

    #[test]
    fn render_matches_dimensions() {
        let plan = plan_last_round(3, 7, 3, 3, Preference::Rounds);
        let table = plan.render();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 byte rows
        assert!(lines[0].contains("p3") && lines[0].contains("p9"));
        assert!(lines[1].contains("A1"));
        assert!(lines[3].contains("A3"));
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn rejects_oversized_n2() {
        let _ = plan_last_round(2, 5, 1, 2, Preference::Rounds);
    }
}

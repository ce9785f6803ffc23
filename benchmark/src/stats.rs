//! Order statistics and the compare verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the acceptance driver uses to
//! judge the benchmark's own run-to-run spread.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the finite values; NaN when there are none.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile mean: drop the lowest and the highest quarter (rounded
/// to whole values), average the rest. With three values it is the
/// median. Session medians of an oversubscribed workload cluster on
/// scheduler-tick multiples (8 ms or 10 ms on `chan_small`), so a median
/// over sessions flips between clusters from run to run while this
/// moves smoothly — and one stray session still cannot set the result.
pub fn midmean(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let drop = ((v.len() as f64 / 4.0).round() as usize).min((v.len() - 1) / 2);
    let kept = &v[drop..v.len() - drop];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` gives them.
/// With fewer than two values all three collapse onto the one value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        // Exclusive method: position i·(n+1)/4, 1-based, clamped.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median (the driver's
/// "spread"); 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 || !m.is_finite() {
        return 0.0;
    }
    (q3 - q1).abs() / m.abs()
}

/// Summary of the per-lap samples of one session, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LapStats {
    pub samples: usize,
    pub min_us: f64,
    /// Interquartile mean of the laps (mean of those between p25 and p75).
    pub mid_us: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub iqr_us: f64,
}

impl LapStats {
    pub fn of(laps_ns: &mut [u64]) -> Self {
        laps_ns.sort_unstable();
        let us = |p: f64| percentile_sorted(laps_ns, p) as f64 / 1e3;
        let n = laps_ns.len();
        let middle = &laps_ns[n / 4..(n - n / 4).max(n / 4 + usize::from(n > 0))];
        Self {
            samples: n,
            mid_us: middle.iter().sum::<u64>() as f64 / middle.len().max(1) as f64 / 1e3,
            min_us: laps_ns.first().copied().unwrap_or(0) as f64 / 1e3,
            p50_us: us(50.0),
            p90_us: us(90.0),
            p99_us: us(99.0),
            iqr_us: us(75.0) - us(25.0),
        }
    }
}

/// Outcome of comparing one (workload, metric) pair across two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound and the two
    /// sides' runs do not overlap in B's favour.
    Regressed,
    /// The run-to-run spread of a side is wider than the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The noise-aware gate (choosing-metrics §6.5): where either side's
/// spread is wider than the bound the pair is `Unresolved` — unless every
/// run of B reads better than every run of A, which is `Ok`. Otherwise
/// the medians decide against the bound.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let all_better = !a.is_empty()
        && !b.is_empty()
        && b.iter()
            .all(|&y| a.iter().all(|&x| worsening(x, y, better) < 0.0));
    if all_better {
        return Verdict::Ok;
    }
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    if worsening(median(a), median(b), better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[f64::NAN, 5.0]), 5.0);
    }

    #[test]
    fn midmean_drops_a_quarter_from_each_end() {
        assert!(midmean(&[]).is_nan());
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(midmean(&[1.0, 3.0]), 2.0);
        // Three values: the median, whatever the outlier.
        assert_eq!(midmean(&[2.0, 900.0, 1.0]), 2.0);
        // Nine values: two dropped from each end, five averaged.
        let v = [30.0, 8.0, 8.0, 8.0, 10.0, 10.0, 10.0, 10.0, 0.1];
        assert!((midmean(&v) - 9.2).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 90.0), 7);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn lap_stats_sort_and_summarise() {
        let mut laps: Vec<u64> = (1..=1000).rev().map(|x| x * 1000).collect();
        let s = LapStats::of(&mut laps);
        assert_eq!(s.samples, 1000);
        assert_eq!(s.min_us, 1.0);
        assert_eq!(s.p50_us, 500.0);
        assert_eq!(s.mid_us, 500.5);
        assert_eq!(LapStats::of(&mut [3000]).mid_us, 3.0);
        assert_eq!(LapStats::of(&mut []).mid_us, 0.0);
        assert_eq!(s.p99_us, 990.0);
        assert_eq!(s.iqr_us, 500.0);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert!(worsening(0.0, 1.0, Better::Lower).is_infinite());
    }

    #[test]
    fn verdict_ok_regressed_unresolved() {
        let a = [100.0, 101.0, 99.0];
        // Within the bound.
        assert_eq!(
            verdict(&a, &[104.0, 105.0, 103.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        // Clearly worse, both sides tight.
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Higher-is-better metric that dropped.
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0], Better::Higher, 0.10),
            Verdict::Regressed
        );
        // One side too noisy to tell.
        assert_eq!(
            verdict(&a, &[90.0, 130.0, 110.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Noisy, but every run of B beats every run of A.
        assert_eq!(
            verdict(&a, &[50.0, 90.0, 70.0], Better::Lower, 0.10),
            Verdict::Ok
        );
    }
}

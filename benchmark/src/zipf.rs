//! Seeded Zipf size matrix — the only input `--seed` drives.
//!
//! Destination at popularity position `p` gets weight `1/(p+1)^s`;
//! positions come from a seeded permutation that each source rotates by
//! its own rank, so every row is skewed while column loads stay
//! balanced (no synthetic incast). Rows sum to ~`base·n` bytes.

/// xorshift64* stream.
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
}

/// Row-major `n × n` matrix: `m[i·n + j]` = bytes source `i` sends `j`.
pub fn matrix(n: usize, base: usize, s: f64, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed);
    for i in (1..n).rev() {
        perm.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let weight: Vec<f64> = (0..n).map(|p| 1.0 / ((p + 1) as f64).powf(s)).collect();
    let scale = (base * n) as f64 / weight.iter().sum::<f64>();
    let mut m = Vec::with_capacity(n * n);
    for source in 0..n {
        m.extend((0..n).map(|j| (scale * weight[perm[(j + source) % n]]).round() as usize));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_matrix_other_seed_other_matrix() {
        assert_eq!(matrix(8, 256, 1.0, 7), matrix(8, 256, 1.0, 7));
        assert_ne!(matrix(8, 256, 1.0, 7), matrix(8, 256, 1.0, 8));
        assert_eq!(matrix(4, 100, 0.0, 3), vec![100; 16]);
    }

    #[test]
    fn rows_keep_their_volume_and_columns_stay_balanced() {
        let n = 8;
        let m = matrix(n, 1024, 1.0, 5);
        for i in 0..n {
            let row: usize = m[i * n..(i + 1) * n].iter().sum();
            assert!(row.abs_diff(1024 * n) <= n, "row {i} sums to {row}");
        }
        let mean = m.iter().sum::<usize>() / n;
        for j in 0..n {
            let col: usize = (0..n).map(|i| m[i * n + j]).sum();
            assert!(col < 2 * mean, "column {j} overloaded: {col}");
        }
    }
}

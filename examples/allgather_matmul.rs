//! Power iteration with a row-distributed matrix, using the
//! concatenation operation each step — the paper's §1.1: "The
//! concatenation operation can be used in matrix multiplication and in
//! basic linear algebra operations."
//!
//! The matrix `A` (n·s × n·s) is row-distributed; the iterate `x` is
//! slice-distributed. Every matvec needs the full `x`, so each iteration
//! performs one allgather (concatenation) of the slices, then a local
//! row-panel multiply, then an allgather of partial squared norms to
//! normalize. Converges to the dominant eigenvalue.
//!
//! ```text
//! cargo run --example allgather_matmul
//! ```

use bruck::model::program::{simulate, RankProgram};
use bruck::prelude::*;

const N: usize = 6; // processors
const S: usize = 8; // rows per processor ⇒ a 48×48 matrix
const ITERS: usize = 60;

/// A symmetric positive matrix with a known dominant structure:
/// diag-heavy plus smooth off-diagonal coupling.
fn a(row: usize, col: usize) -> f64 {
    let d = if row == col { 10.0 } else { 0.0 };
    d + 1.0 / (1.0 + (row as f64 - col as f64).abs())
}

/// The simulator's makespan for one `block`-byte allgather on `N` ranks
/// under the SP-1 linear model: the programs `allgather` runs.
fn allgather_time(block: usize) -> f64 {
    let lowering = ConcatAlgorithm::Bruck(Default::default()).lower(N, block, 1);
    let lowering = lowering.expect("lowerable");
    let programs: Vec<RankProgram> = (0..N).map(|rank| lowering.program(rank)).collect();
    let inputs = vec![vec![0; block]; N];
    let sim = simulate(&programs, &inputs, &LinearModel::sp1(), |_, _, _| {});
    sim.expect("the programs run").makespan()
}

fn encode(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn decode(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn main() {
    let dim = N * S;
    let cfg = ClusterConfig::new(N);
    let tuning = Tuning::builder().build();

    let out = Cluster::run(&cfg, |ep| {
        let rank = ep.rank();
        // My rows of A.
        let rows: Vec<f64> = (0..S)
            .flat_map(|r| (0..dim).map(move |c| a(rank * S + r, c)))
            .collect();
        // My slice of x, initialized to 1.
        let mut x_slice = vec![1.0f64; S];
        let mut lambda = 0.0f64;
        for _ in 0..ITERS {
            // Allgather the full iterate.
            let x = decode(&allgather(ep, &encode(&x_slice), &tuning)?);
            // Local panel multiply: y_slice = A_panel · x.
            let mut y_slice = vec![0.0f64; S];
            for r in 0..S {
                y_slice[r] = (0..dim).map(|c| rows[r * dim + c] * x[c]).sum();
            }
            // Rayleigh quotient pieces and norm via a second allgather.
            let partial = [
                y_slice
                    .iter()
                    .zip(&x_slice)
                    .map(|(y, x)| y * x)
                    .sum::<f64>(),
                x_slice.iter().map(|x| x * x).sum::<f64>(),
                y_slice.iter().map(|y| y * y).sum::<f64>(),
            ];
            let all = decode(&allgather(ep, &encode(&partial), &tuning)?);
            let yx: f64 = all.chunks(3).map(|c| c[0]).sum();
            let xx: f64 = all.chunks(3).map(|c| c[1]).sum();
            let yy: f64 = all.chunks(3).map(|c| c[2]).sum();
            lambda = yx / xx;
            let norm = yy.sqrt();
            for v in &mut y_slice {
                *v /= norm;
            }
            x_slice = y_slice;
        }
        Ok(lambda)
    })
    .expect("power iteration failed");

    let lambda = out.results[0];
    for &l in &out.results {
        assert!(
            (l - lambda).abs() < 1e-9,
            "ranks disagree on the eigenvalue"
        );
    }
    // Sequential verification on one node.
    let dense: Vec<f64> = (0..dim * dim).map(|i| a(i / dim, i % dim)).collect();
    let mut x = vec![1.0f64; dim];
    let mut lambda_seq = 0.0;
    for _ in 0..ITERS {
        let y: Vec<f64> = (0..dim)
            .map(|r| (0..dim).map(|c| dense[r * dim + c] * x[c]).sum())
            .collect();
        let yx: f64 = y.iter().zip(&x).map(|(a, b)| a * b).sum();
        let xx: f64 = x.iter().map(|v| v * v).sum();
        lambda_seq = yx / xx;
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        x = y.into_iter().map(|v| v / norm).collect();
    }
    assert!(
        (lambda - lambda_seq).abs() < 1e-9,
        "distributed {lambda} vs sequential {lambda_seq}"
    );
    let c = out.metrics.global_complexity().expect("aligned rounds");
    println!("power iteration on a {dim}×{dim} matrix over {N} processors");
    println!("dominant eigenvalue ≈ {lambda:.6} (sequential check: {lambda_seq:.6}) ✓");
    println!("total communication over {ITERS} iterations: {c}");
    let per_iteration = allgather_time(S * 8) + allgather_time(3 * 8);
    println!(
        "virtual time under SP-1 model: {:.2} ms",
        ITERS as f64 * per_iteration * 1e3
    );
}

//! Distributed matrix transpose via the index operation — the paper's
//! §1.1 flagship application ("the index operation can be used for
//! computing the transpose of a matrix, when the matrix is partitioned
//! into blocks of rows with different blocks residing on different
//! processors").
//!
//! A `(n·s) × (n·s)` matrix of `f64` is distributed block-row-wise over
//! `n` processors (`s` rows each). To transpose, each rank slices its row
//! panel into `n` column blocks (`s × s` tiles), runs one index
//! operation, and reassembles the arrived tiles — transposing each tile
//! locally.
//!
//! ```text
//! cargo run --example matrix_transpose
//! ```

use bruck::model::program::{simulate, RankProgram};
use bruck::prelude::*;

const N: usize = 8; // processors
const S: usize = 16; // rows per processor ⇒ a 128×128 matrix

/// The matrix is defined by a formula so every rank can verify its result
/// slice without gathering anything.
fn element(row: usize, col: usize) -> f64 {
    (row * 1009 + col) as f64 * 0.5
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

/// The simulator's makespan for `plan` on `n` ranks of `block`-byte
/// blocks under the SP-1 linear model: the programs `alltoall` ran.
fn virtual_time(plan: &IndexPlan, n: usize, block: usize) -> f64 {
    let lower = |rank| RankProgram::lower(plan, n, rank, block, 1).expect("lowerable");
    let programs: Vec<RankProgram> = (0..n).map(lower).collect();
    let inputs = vec![vec![0; n * block]; n];
    let sim = simulate(&programs, &inputs, &LinearModel::sp1(), |_, _, _| {});
    sim.expect("the programs run").makespan()
}

fn main() {
    let dim = N * S;
    let cfg = ClusterConfig::new(N);
    let tuning = Tuning::builder().build();

    let out = Cluster::run(&cfg, |ep| {
        let rank = ep.rank();
        // My row panel: rows [rank·S, (rank+1)·S).
        // Block j = my S×S tile of columns [j·S, (j+1)·S), row-major.
        let mut sendbuf = Vec::with_capacity(N * S * S * 8);
        for j in 0..N {
            let mut tile = Vec::with_capacity(S * S);
            for r in 0..S {
                for c in 0..S {
                    tile.push(element(rank * S + r, j * S + c));
                }
            }
            sendbuf.extend(encode(&tile));
        }
        let block = S * S * 8;
        let result = alltoall(ep, &sendbuf, block, &tuning)?;

        // Reassemble: tile from rank j holds rows [j·S..) × my columns;
        // transposed, it is my rows of the transposed matrix.
        let mut panel = vec![0f64; S * dim];
        for j in 0..N {
            let tile = decode(&result[j * block..(j + 1) * block]);
            for r in 0..S {
                for c in 0..S {
                    // element (j·S + r, rank·S + c) of A becomes element
                    // (rank·S + c, j·S + r) of Aᵀ — row c of my panel.
                    panel[c * dim + j * S + r] = tile[r * S + c];
                }
            }
        }
        // Verify the whole panel against the formula.
        for r in 0..S {
            for c in 0..dim {
                let expected = element(c, rank * S + r); // Aᵀ[x][y] = A[y][x]
                assert_eq!(panel[r * dim + c], expected, "rank {rank} ({r},{c})");
            }
        }
        Ok(())
    })
    .expect("transpose failed");

    let c = out.metrics.global_complexity().expect("aligned rounds");
    println!("transposed a {dim}×{dim} f64 matrix across {N} processors");
    println!("communication: {c}");
    println!(
        "virtual time under SP-1 model: {:.2} ms",
        virtual_time(&tuning.chosen_plan(N, S * S * 8, 1).plan, N, S * S * 8) * 1e3
    );
    println!("every rank verified its slice of Aᵀ element-by-element ✓");
}

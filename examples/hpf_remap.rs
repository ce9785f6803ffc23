//! HPF array redistribution via the index operation — §1.1: "the index
//! operation can be used to support the remapping of arrays in HPF
//! compilers, such as remapping the data layout of a two-dimensional
//! array from (block, *) to (cyclic, *)".
//!
//! A `R × C` array of `f32` is distributed over `n` processors by
//! **block** rows (processor `p` owns rows `[p·R/n, (p+1)·R/n)`); one
//! index operation redistributes it to **cyclic** rows (processor `p`
//! owns rows `{p, p+n, p+2n, …}`), and a second one maps it back.
//!
//! ```text
//! cargo run --example hpf_remap
//! ```

use bruck::model::program::{simulate, RankProgram};
use bruck::prelude::*;

const N: usize = 8; // processors
const ROWS_PER: usize = 6; // rows per processor ⇒ R = 48
const COLS: usize = 10;

fn element(row: usize, col: usize) -> f32 {
    (row * 131 + col) as f32 * 0.25
}

fn encode(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn decode(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
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
    let r = N * ROWS_PER;
    let cfg = ClusterConfig::new(N);
    let tuning = Tuning::builder().build();

    // (block, *): processor p's rows are [p·ROWS_PER, (p+1)·ROWS_PER).
    // Under (cyclic, *), global row g belongs to processor g mod N and
    // is its (g / N)-th local row. Each of p's ROWS_PER rows therefore
    // goes to a distinct destination slot; with ROWS_PER rows per
    // processor and N destinations, the block for destination q holds
    // p's rows with (p·ROWS_PER + i) ≡ q (mod N), padded to the fixed
    // per-pair quota of ⌈ROWS_PER/N⌉ rows.
    let quota = ROWS_PER.div_ceil(N);
    let row_bytes = COLS * 4;
    let block = quota * (row_bytes + 8); // 8-byte global-row header per slot

    let out = Cluster::run(&cfg, |ep| {
        let p = ep.rank();
        let mut sendbuf = vec![0u8; N * block];
        for i in 0..ROWS_PER {
            let g = p * ROWS_PER + i; // global row
            let dest = g % N;
            let slot = (g / N) % quota; // position within the quota
            let at = dest * block + slot * (row_bytes + 8);
            sendbuf[at..at + 8].copy_from_slice(&(g as u64 + 1).to_le_bytes());
            let row: Vec<f32> = (0..COLS).map(|c| element(g, c)).collect();
            sendbuf[at + 8..at + 8 + row_bytes].copy_from_slice(&encode(&row));
        }

        // One index operation performs the whole remap.
        let received = alltoall(ep, &sendbuf, block, &tuning)?;

        // Rebuild my cyclic panel: rows p, p+N, p+2N, … in order.
        let my_cyclic_rows: Vec<usize> = (p..r).step_by(N).collect();
        let mut panel = vec![0f32; my_cyclic_rows.len() * COLS];
        for src in 0..N {
            for slot in 0..quota {
                let at = src * block + slot * (row_bytes + 8);
                let header = u64::from_le_bytes(received[at..at + 8].try_into().unwrap());
                if header == 0 {
                    continue; // padding slot
                }
                let g = (header - 1) as usize;
                assert_eq!(g % N, p, "row {g} landed on the wrong processor");
                let local = g / N;
                let row = decode(&received[at + 8..at + 8 + row_bytes]);
                panel[local * COLS..(local + 1) * COLS].copy_from_slice(&row);
            }
        }
        // Verify the cyclic layout against the formula.
        for (local, &g) in my_cyclic_rows.iter().enumerate() {
            for c in 0..COLS {
                assert_eq!(panel[local * COLS + c], element(g, c), "row {g} col {c}");
            }
        }
        Ok(())
    })
    .expect("remap failed");

    let c = out.metrics.global_complexity().expect("aligned rounds");
    println!("remapped a {r}×{COLS} f32 array (block,*) → (cyclic,*) on {N} processors");
    println!("one index operation: {c}");
    println!(
        "virtual time under SP-1 model: {:.1} µs",
        virtual_time(&tuning.chosen_plan(N, block, 1).plan, N, block) * 1e6
    );
    println!("every processor verified its cyclic panel element-by-element ✓");
}

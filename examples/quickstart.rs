//! Quickstart: run the paper's two collectives on a simulated 8-processor
//! multiport message-passing system.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bruck::model::program::{simulate, RankProgram};
use bruck::prelude::*;

/// The simulator's makespan for `programs` under the paper's SP-1 linear
/// model (β = 29 µs start-up, τ = 0.12 µs/byte): every rank's clock,
/// stepped through the same programs the cluster ran.
fn virtual_time(programs: &[RankProgram]) -> f64 {
    let inputs: Vec<Vec<u8>> = programs.iter().map(|p| vec![0; p.input]).collect();
    let sim = simulate(programs, &inputs, &LinearModel::sp1(), |_, _, _| {});
    sim.expect("the programs run").makespan()
}

fn main() {
    // A fully connected message-passing system with 8 processors, each
    // with one send and one receive port (the paper's k = 1 model).
    let n = 8;
    let cfg = ClusterConfig::new(n);
    let tuning = Tuning::builder().build();

    // --- Index (all-to-all personalized / MPI_Alltoall) -----------------
    // Every rank prepares one 32-byte block for every destination; the
    // auto-tuner picks the radix that minimizes predicted time.
    let block = 32;
    Cluster::run(&cfg, |ep| {
        let rank = ep.rank() as u8;
        let mut sendbuf = vec![0u8; n * block];
        for dst in 0..n {
            sendbuf[dst * block..(dst + 1) * block].fill(rank * 16 + dst as u8);
        }
        // The `_into` variant writes into a caller-owned buffer — reuse it
        // across iterations and no call needs a fresh output buffer.
        let mut result = vec![0u8; n * block];
        alltoall_into(ep, &sendbuf, block, &tuning, &mut result)?;
        // Block j of the result came from rank j and was addressed to us.
        for src in 0..n {
            assert!(result[src * block..(src + 1) * block]
                .iter()
                .all(|&x| x == src as u8 * 16 + ep.rank() as u8));
        }
        Ok(())
    })
    .expect("index run failed");
    let choice = tuning.chosen_plan(n, block, 1);
    let lower = |rank| RankProgram::lower(&choice.plan, n, rank, block, 1).expect("lowerable");
    let programs: Vec<RankProgram> = (0..n).map(lower).collect();
    println!(
        "index     : n={n}, b={block} B  → auto plan {} ({}), virtual time {:.1} µs",
        choice.plan.label(),
        choice.complexity,
        virtual_time(&programs) * 1e6
    );

    // --- Concatenation (all-to-all broadcast / MPI_Allgather) -----------
    let out = Cluster::run(&cfg, |ep| {
        let mine = vec![ep.rank() as u8; block];
        let all = allgather(ep, &mine, &tuning)?;
        for src in 0..n {
            assert!(all[src * block..(src + 1) * block]
                .iter()
                .all(|&x| x == src as u8));
        }
        Ok(())
    })
    .expect("concat run failed");
    let c = out.metrics.global_complexity().expect("aligned rounds");
    println!(
        "concat    : n={n}, b={block} B  → {c} (lower bounds: C1={}, C2={})",
        bruck::model::bounds::concat_bounds(n, 1, block).c1,
        bruck::model::bounds::concat_bounds(n, 1, block).c2
    );
    let lowering = ConcatAlgorithm::Bruck(Default::default()).lower(n, block, 1);
    let lowering = lowering.expect("lowerable");
    let programs: Vec<RankProgram> = (0..n).map(|rank| lowering.program(rank)).collect();
    println!("virtual makespan {:.1} µs", virtual_time(&programs) * 1e6);
}

//! The §3.3/§3.5 tuning story, interactively: sweep the radix of the
//! index algorithm on a 64-node cluster for several message sizes, print
//! the `C1`/`C2` trade-off and predicted times, and show what the
//! auto-tuner picks.
//!
//! ```text
//! cargo run --release --example radix_tuning [block_bytes…]
//! ```

use std::sync::Arc;

use bruck::model::cost::{CostModel, Sp1Model};
use bruck::model::tuning::{all_radices, best_radix, index_complexity};
use bruck::prelude::*;

const N: usize = 64;

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("block sizes must be integers"))
        .collect();
    let blocks = if args.is_empty() {
        vec![16, 64, 256, 4096]
    } else {
        args
    };
    let model = Sp1Model::calibrated();

    for &b in &blocks {
        println!("\nindex on n = {N}, block = {b} bytes (SP-1 model, γs=1.5, γc=2.0):");
        println!(
            "{:>6} {:>8} {:>12} {:>12}",
            "radix", "C1", "C2 (bytes)", "pred (ms)"
        );
        for r in [2usize, 3, 4, 8, 16, 32, 64] {
            let c = index_complexity(N, r, b);
            println!(
                "{:>6} {:>8} {:>12} {:>12.3}",
                r,
                c.c1,
                c.c2,
                model.estimate(c) * 1e3
            );
        }
        let choice = best_radix(N, b, 1, &model, all_radices(N));
        println!(
            "→ auto-tuner picks r = {} (predicted {:.3} ms)",
            choice.radix,
            choice.predicted_time * 1e3
        );

        // Confirm on the live cluster: the tuned radix beats both extremes
        // (or ties one of them).
        let measure = |r: usize| {
            let cfg = ClusterConfig::new(N).with_cost(Arc::new(model));
            Cluster::run(&cfg, |ep| {
                let buf = vec![0u8; N * b];
                IndexAlgorithm::BruckRadix(r).run(ep, &buf, b)
            })
            .expect("run failed")
            .virtual_makespan()
        };
        let (t2, tn, tbest) = (measure(2), measure(N), measure(choice.radix));
        println!(
            "  measured: r=2 → {:.3} ms, r={N} → {:.3} ms, r={} → {:.3} ms",
            t2 * 1e3,
            tn * 1e3,
            choice.radix,
            tbest * 1e3
        );
        assert!(tbest <= t2 + 1e-12 && tbest <= tn + 1e-12);
    }
}

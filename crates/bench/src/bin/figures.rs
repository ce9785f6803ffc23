//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p bruck-bench --bin figures -- <subcommand>
//! ```
//!
//! Absolute numbers come from the simulator (`bruck_model::program::simulate`)
//! timing the lowered programs under the paper's SP-1 parameters (β = 29 µs, τ = 0.12 µs/B) plus the §3.5
//! congestion/system-noise factors; shapes (who wins, crossover points,
//! optimal-radix drift) are the reproduction targets. TSVs land in
//! `results/`.

use std::sync::Arc;

use bruck_bench::harness::{measure_concat, measure_index, ms, Measurement, TsvSink};
use bruck_collectives::concat::ConcatAlgorithm;
use bruck_collectives::index::IndexAlgorithm;
use bruck_model::bounds::{concat_bounds, index_bounds};
use bruck_model::cost::{CostModel, LinearModel, Sp1Model};
use bruck_model::partition::Preference;
use bruck_model::tuning::{best_radix, power_of_two_radices};
use bruck_sched::ScheduleStats;

const N: usize = 64; // the paper's 64-node SP-1

fn sp1() -> Arc<dyn CostModel> {
    Arc::new(Sp1Model::calibrated())
}

/// Fig. 4: index time vs message size for power-of-two radices on 64
/// nodes. The paper's observation: smaller radices win at small message
/// sizes and vice versa.
fn fig4() {
    println!("\n=== Fig. 4: index time vs message size, power-of-two radices, n = {N} ===");
    let radices: Vec<usize> = power_of_two_radices(N).collect();
    let mut sink = TsvSink::new("fig4");
    let header: Vec<String> = std::iter::once("bytes".to_string())
        .chain(radices.iter().map(|r| format!("r={r}_ms")))
        .collect();
    sink.row(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for exp in 0..=14u32 {
        let block = 1usize << exp; // 1 B .. 16 KiB
        let mut fields = vec![block.to_string()];
        for &r in &radices {
            let m = measure_index(IndexAlgorithm::BruckRadix(r), N, block, 1, sp1());
            fields.push(ms(m.virtual_time));
        }
        sink.row(&fields.iter().map(String::as_str).collect::<Vec<_>>());
    }
    sink.finish();
}

/// Fig. 5: r = 2 vs r = n vs the best power-of-two radix; the paper's
/// break-even between the two extremes sits at ~100–200 B.
fn fig5() {
    println!("\n=== Fig. 5: r=2 vs r={N} vs best power-of-two radix, n = {N} ===");
    let mut sink = TsvSink::new("fig5");
    sink.row(&["bytes", "r2_ms", "rn_ms", "best_pow2_ms", "best_r"]);
    let mut crossover: Option<(usize, usize)> = None;
    let mut prev: Option<(usize, f64, f64)> = None;
    for exp in 0..=14u32 {
        let block = 1usize << exp;
        let m2 = measure_index(IndexAlgorithm::BruckRadix(2), N, block, 1, sp1());
        let mn = measure_index(IndexAlgorithm::BruckRadix(N), N, block, 1, sp1());
        let choice = best_radix(N, block, 1, sp1().as_ref(), power_of_two_radices(N));
        let mb = measure_index(IndexAlgorithm::BruckRadix(choice.radix), N, block, 1, sp1());
        sink.row(&[
            &block.to_string(),
            &ms(m2.virtual_time),
            &ms(mn.virtual_time),
            &ms(mb.virtual_time),
            &choice.radix.to_string(),
        ]);
        if let Some((pb, p2, pn)) = prev {
            if (p2 <= pn) != (m2.virtual_time <= mn.virtual_time) {
                crossover = Some((pb, block));
            }
        }
        prev = Some((block, m2.virtual_time, mn.virtual_time));
    }
    if let Some((lo, hi)) = crossover {
        println!(
            "# break-even between r=2 and r={N}: between {lo} and {hi} bytes (paper: ~100–200 B)"
        );
    } else {
        println!("# no break-even found in sweep — unexpected");
    }
    sink.finish();
}

/// Fig. 6: index time vs radix for fixed message sizes 32/64/128 B; the
/// paper's observation: the minimum moves to larger radices as messages
/// grow.
fn fig6() {
    println!("\n=== Fig. 6: index time vs radix, message sizes 32/64/128 B (+512 B), n = {N} ===");
    // The paper's three sizes, plus 512 B to make the minimum's rightward
    // drift unmistakable at this model's granularity.
    let sizes = [32usize, 64, 128, 512];
    let mut sink = TsvSink::new("fig6");
    sink.row(&["radix", "b32_ms", "b64_ms", "b128_ms", "b512_ms"]);
    let mut minima = vec![(f64::INFINITY, 0usize); sizes.len()];
    for r in 2..=N {
        let mut fields = vec![r.to_string()];
        for (si, &b) in sizes.iter().enumerate() {
            let m = measure_index(IndexAlgorithm::BruckRadix(r), N, b, 1, sp1());
            if m.virtual_time < minima[si].0 {
                minima[si] = (m.virtual_time, r);
            }
            fields.push(ms(m.virtual_time));
        }
        sink.row(&fields.iter().map(String::as_str).collect::<Vec<_>>());
    }
    for (si, &b) in sizes.iter().enumerate() {
        println!("# minimum for {b} B at radix {}", minima[si].1);
    }
    sink.finish();
}

/// Table 1: the last-round partition for the paper's example geometry.
fn table1() {
    println!("\n=== Table 1: last-round table partitioning ===");
    println!("paper's standalone example (n1=3, n2=7, b=3, k=3):");
    let plan = bruck_model::partition::plan_last_round(3, 7, 3, 3, Preference::Rounds);
    print!("{}", plan.render());
    for (i, area) in plan.rounds[0].iter().enumerate() {
        println!(
            "# area A{}: offset {}, {} bytes (each node sends them to node i+{})",
            i + 1,
            area.offset,
            area.bytes(),
            area.offset
        );
    }
    println!("\nas produced inside concat for n=10, k=3, b=3 (n1=4):");
    if let Some(plan) = bruck_model::partition::concat_last_round(10, 3, 3, Preference::Rounds) {
        print!("{}", plan.render());
    }
}

/// Lower-bound sweep: both operations, several (n, k), algorithm vs bound.
fn bounds() {
    println!("\n=== Lower bounds (Props 2.1–2.4) vs algorithms ===");
    let mut sink = TsvSink::new("bounds");
    sink.row(&["op", "n", "k", "b", "algo", "C1", "C1_lb", "C2", "C2_lb"]);
    for &(n, k) in &[(16usize, 1usize), (64, 1), (60, 2), (64, 3), (100, 4)] {
        let b = 64usize;
        let ilb = index_bounds(n, k, b);
        for algo in [
            IndexAlgorithm::BruckRadix(k + 1),
            IndexAlgorithm::BruckRadix(n),
            IndexAlgorithm::Direct,
        ] {
            let c = ScheduleStats::of(&algo.plan(n, b, k)).complexity;
            sink.row(&[
                "index",
                &n.to_string(),
                &k.to_string(),
                &b.to_string(),
                &algo.name(),
                &c.c1.to_string(),
                &ilb.c1.to_string(),
                &c.c2.to_string(),
                &ilb.c2.to_string(),
            ]);
        }
        let clb = concat_bounds(n, k, b);
        let mut algos = vec![
            ConcatAlgorithm::Bruck(Preference::Rounds),
            ConcatAlgorithm::GatherBroadcast,
        ];
        if k == 1 {
            algos.push(ConcatAlgorithm::Ring);
            if n.is_power_of_two() {
                algos.push(ConcatAlgorithm::RecursiveDoubling);
            }
        }
        for algo in algos {
            let c = ScheduleStats::of(&algo.plan(n, b, k)).complexity;
            sink.row(&[
                "concat",
                &n.to_string(),
                &k.to_string(),
                &b.to_string(),
                &algo.name(),
                &c.c1.to_string(),
                &clb.c1.to_string(),
                &c.c2.to_string(),
                &clb.c2.to_string(),
            ]);
        }
    }
    sink.finish();
}

/// Concatenation algorithm comparison over n (one-port, simulated runs).
fn concat_compare() {
    println!("\n=== Concatenation algorithms, simulated virtual times (b = 256, k = 1) ===");
    let mut sink = TsvSink::new("concat");
    sink.row(&["n", "bruck_ms", "gather_bcast_ms", "ring_ms", "recdbl_ms"]);
    for n in [4usize, 8, 16, 32, 64, 17, 33] {
        let b = 256;
        let mb = measure_concat(ConcatAlgorithm::Bruck(Preference::Rounds), n, b, 1, sp1());
        let mg = measure_concat(ConcatAlgorithm::GatherBroadcast, n, b, 1, sp1());
        let mr = measure_concat(ConcatAlgorithm::Ring, n, b, 1, sp1());
        let md: Option<Measurement> = n
            .is_power_of_two()
            .then(|| measure_concat(ConcatAlgorithm::RecursiveDoubling, n, b, 1, sp1()));
        sink.row(&[
            &n.to_string(),
            &ms(mb.virtual_time),
            &ms(mg.virtual_time),
            &ms(mr.virtual_time),
            &md.map_or("-".into(), |m| ms(m.virtual_time)),
        ]);
    }
    sink.finish();
}

/// §3.5 model-gap study: linear prediction vs SP-1-factor prediction vs
/// simulated measurement.
fn model_gap() {
    println!("\n=== §3.5: linear model vs γ-factored SP-1 model ===");
    let mut sink = TsvSink::new("model_gap");
    sink.row(&["bytes", "radix", "linear_ms", "sp1_ms", "measured_sp1_ms"]);
    let linear: Arc<dyn CostModel> = Arc::new(LinearModel::sp1());
    for &block in &[16usize, 256, 4096] {
        for &r in &[2usize, 8, 64] {
            let plan = IndexAlgorithm::BruckRadix(r).plan(N, block, 1);
            let stats = ScheduleStats::of(&plan);
            let m = measure_index(IndexAlgorithm::BruckRadix(r), N, block, 1, sp1());
            sink.row(&[
                &block.to_string(),
                &r.to_string(),
                &ms(stats.predicted_time(linear.as_ref())),
                &ms(m.predicted_time),
                &ms(m.virtual_time),
            ]);
        }
    }
    sink.finish();
}

/// §3.5 factor (2) ablation: how much of the index algorithm's time is
/// the pack/unpack/rotation copying the linear model omits — per radix.
/// Small radices pack many blocks per message and pay the most; the
/// direct algorithm packs nothing.
fn ablation() {
    println!("\n=== Ablation: copy-cost modelling (§3.5 factor 2), n = {N}, b = 256 ===");
    let block = 256usize;
    // SP-1-class memory: ~40 MB/s copy ⇒ 0.025 µs/B (same order as τ).
    let with_copy: Arc<dyn CostModel> =
        Arc::new(Sp1Model::calibrated().with_copy_per_byte(0.025e-6));
    let mut sink = TsvSink::new("ablation");
    sink.row(&["radix", "no_copy_ms", "with_copy_ms", "overhead_pct"]);
    for &r in &[2usize, 4, 8, 16, 32, 64] {
        let base = measure_index(IndexAlgorithm::BruckRadix(r), N, block, 1, sp1());
        let copy = measure_index(
            IndexAlgorithm::BruckRadix(r),
            N,
            block,
            1,
            Arc::clone(&with_copy),
        );
        let pct = (copy.virtual_time / base.virtual_time - 1.0) * 100.0;
        sink.row(&[
            &r.to_string(),
            &ms(base.virtual_time),
            &ms(copy.virtual_time),
            &format!("{pct:.1}"),
        ]);
    }
    println!("# direct exchange (no pack/unpack, only the payload handoff):");
    let base = measure_index(IndexAlgorithm::Direct, N, block, 1, sp1());
    let copy = measure_index(IndexAlgorithm::Direct, N, block, 1, with_copy);
    println!(
        "# direct: {} ms → {} ms (+{:.1}%)",
        ms(base.virtual_time),
        ms(copy.virtual_time),
        (copy.virtual_time / base.virtual_time - 1.0) * 100.0
    );
    sink.finish();
}

/// Calibrate a linear model for THIS host's channel substrate from real
/// wall-clock ping-pong measurements, then compare its predictions with
/// measured algorithm wall times — the §3.5 methodology applied to the
/// simulation substrate itself.
fn calibrate() {
    use bruck_model::calibrate::fit_linear;
    use bruck_net::{Cluster, ClusterConfig};
    use std::time::Instant;

    println!("\n=== Calibrating both substrates (wall clock, §3.5 methodology) ===");
    let measure = |socket: bool| {
        let mut samples = Vec::new();
        for &bytes in &[64usize, 1024, 16384, 262_144, 1_048_576] {
            let reps = 64;
            let cfg = ClusterConfig::new(2);
            let body = move |ep: &mut bruck_net::Endpoint| {
                let peer = 1 - ep.rank();
                let payload = vec![0u8; bytes];
                for i in 0..reps {
                    ep.send_and_recv(peer, &payload, peer, i)?;
                }
                Ok(())
            };
            let start = Instant::now();
            if socket {
                bruck_net::SocketCluster::run(&cfg, body).expect("uds ping-pong failed");
            } else {
                Cluster::run(&cfg, body).expect("ping-pong failed");
            }
            let per_round = start.elapsed().as_secs_f64() / reps as f64;
            samples.push((bytes as u64, per_round));
        }
        fit_linear(&samples)
    };
    let chan = measure(false);
    let uds = measure(true);
    println!(
        "# channels     : β = {:.2} µs, τ = {:.4} µs/KiB (R² = {:.4})",
        chan.model.startup * 1e6,
        chan.model.per_byte * 1e6 * 1024.0,
        chan.r_squared
    );
    println!(
        "# unix sockets : β = {:.2} µs, τ = {:.4} µs/KiB (R² = {:.4})",
        uds.model.startup * 1e6,
        uds.model.per_byte * 1e6 * 1024.0,
        uds.r_squared
    );
    let fit = chan;
    // Validate: predict the r=2 and r=n index wall times on n=8 and
    // compare with measurement.
    let mut sink = TsvSink::new("calibrate");
    sink.row(&["radix", "predicted_us", "measured_us"]);
    for &r in &[2usize, 8] {
        let n = 8;
        let block = 4096;
        let plan = IndexAlgorithm::BruckRadix(r).plan(n, block, 1);
        let predicted = ScheduleStats::of(&plan).predicted_time(&fit.model);
        let cfg = ClusterConfig::new(n);
        let reps = 20;
        let start = Instant::now();
        for _ in 0..reps {
            Cluster::run(&cfg, |ep| {
                let input = vec![0u8; n * block];
                IndexAlgorithm::BruckRadix(r).run(ep, &input, block)
            })
            .expect("index failed");
        }
        let measured = start.elapsed().as_secs_f64() / f64::from(reps);
        sink.row(&[
            &r.to_string(),
            &format!("{:.1}", predicted * 1e6),
            &format!("{:.1}", measured * 1e6),
        ]);
    }
    println!("# (measured includes cluster spawn/teardown — expect a constant offset)");
    sink.finish();
}

/// Mixed-radix extension: where non-uniform digit vectors beat every
/// uniform radix.
fn mixed() {
    use bruck_model::mixed_radix::best_radix_vector;
    use bruck_model::tuning::all_radices;

    println!("\n=== Mixed-radix tuning (extension beyond the paper) ===");
    let model = Sp1Model::calibrated();
    let mut sink = TsvSink::new("mixed");
    sink.row(&[
        "n",
        "bytes",
        "best_uniform",
        "uniform_ms",
        "best_vector",
        "vector_ms",
        "win_pct",
    ]);
    for &n in &[33usize, 34, 36, 48, 64] {
        for &b in &[4usize, 16, 64] {
            let uniform = best_radix(n, b, 1, &model, all_radices(n));
            let (vector, _, vt) = best_radix_vector(n, b, 1, &model);
            let win = (1.0 - vt / uniform.predicted_time) * 100.0;
            sink.row(&[
                &n.to_string(),
                &b.to_string(),
                &format!("r={}", uniform.radix),
                &ms(uniform.predicted_time),
                &format!("{vector:?}"),
                &ms(vt),
                &format!("{win:.2}"),
            ]);
        }
    }
    sink.finish();
}

/// Extension: what happens when the paper's equal-distance assumption
/// breaks — flat index vs the two-level composition on an SMP cluster
/// (8 nodes × 8 cores), all under the hierarchical cost model.
fn hierarchy() {
    use bruck_bench::harness::measure_plan;
    use bruck_model::cost::HierarchicalModel;
    use bruck_model::planner::IndexPlan;

    println!("\n=== Hierarchy extension: 8 nodes × 8 cores, fast local / SP-1 remote ===");
    let n = 64;
    let node_size = 8;
    let model: Arc<dyn CostModel> = Arc::new(HierarchicalModel::smp_cluster(node_size));
    let mut sink = TsvSink::new("hierarchy");
    sink.row(&[
        "bytes",
        "flat_r2_ms",
        "flat_r8_ms",
        "flat_r64_ms",
        "two_level_ms",
    ]);
    for &block in &[16usize, 256, 4096] {
        let measure = |plan: IndexPlan| measure_plan(&plan, n, block, 1, Arc::clone(&model));
        let two_level = IndexPlan::Hierarchical {
            node_size,
            radix_local: node_size,
            radix_remote: node_size,
        };
        sink.row(&[
            &block.to_string(),
            &ms(measure(IndexPlan::Radix(2)).virtual_time),
            &ms(measure(IndexPlan::Radix(8)).virtual_time),
            &ms(measure(IndexPlan::Radix(64)).virtual_time),
            &ms(measure(two_level).virtual_time),
        ]);
    }
    sink.finish();
}

/// The §2/§3 trade-off as a Pareto frontier: every radix's `(C1, C2)`
/// point vs the stand-alone lower bounds and the Theorem 2.5 compound
/// bound — the conceptual figure behind the whole paper.
fn pareto() {
    use bruck_model::bounds::{index_bounds, index_c2_bound_when_round_optimal};

    println!("\n=== (C1, C2) Pareto frontier of the index family, n = {N}, b = 1 ===");
    let lb = index_bounds(N, 1, 1);
    println!(
        "# stand-alone bounds: C1 ≥ {}, C2 ≥ {}; compound (round-optimal ⇒) C2 ≥ {}",
        lb.c1,
        lb.c2,
        index_c2_bound_when_round_optimal(N, 1, 1)
    );
    let mut sink = TsvSink::new("pareto");
    sink.row(&["radix", "C1", "C2", "on_frontier"]);
    let points: Vec<(usize, u64, u64)> = (2..=N)
        .map(|r| {
            let c = ScheduleStats::of(&IndexAlgorithm::BruckRadix(r).plan(N, 1, 1)).complexity;
            (r, c.c1, c.c2)
        })
        .collect();
    for &(r, c1, c2) in &points {
        let dominated = points
            .iter()
            .any(|&(_, o1, o2)| (o1 < c1 && o2 <= c2) || (o1 <= c1 && o2 < c2));
        sink.row(&[
            &r.to_string(),
            &c1.to_string(),
            &c2.to_string(),
            if dominated { "no" } else { "yes" },
        ]);
    }
    sink.finish();
}

/// Model sensitivity: the tuner's radix choice under the linear, postal,
/// and LogP models the paper cites — same machine constants, different
/// structural assumptions.
fn models() {
    use bruck_model::cost::{LogPModel, PostalModel};
    use bruck_model::tuning::all_radices;

    println!("\n=== Optimal radix under alternative cost models, n = {N} ===");
    let linear = LinearModel::sp1();
    let postal = PostalModel::new(LinearModel::sp1(), 4.0);
    let logp = LogPModel::new(10e-6, 14e-6, 14e-6, 0.12e-6);
    let models: [(&str, &dyn CostModel); 3] = [
        ("linear", &linear),
        ("postal λ=4", &postal),
        ("logp", &logp),
    ];
    let mut sink = TsvSink::new("models");
    sink.row(&["bytes", "linear_r", "postal_r", "logp_r"]);
    for &b in &[4usize, 32, 256, 2048, 16384] {
        let mut fields = vec![b.to_string()];
        for (_, m) in &models {
            let choice = best_radix(N, b, 1, *m, all_radices(N));
            fields.push(choice.radix.to_string());
        }
        sink.row(&fields.iter().map(String::as_str).collect::<Vec<_>>());
    }
    println!("# (postal latency and LogP overheads inflate every round's cost,");
    println!("#  shifting the trade-off toward fewer rounds — the switch to large");
    println!("#  radices happens at larger message sizes than under the pure");
    println!("#  linear model)");
    sink.finish();
}

/// Appendix-style schedule dump: the actual wire schedule of the r = 2
/// index and the circulant concat on a small instance, rendered.
fn schedules() {
    println!("\n=== Rendered schedules (n = 8, b = 4, k = 1) ===");
    let s = IndexAlgorithm::BruckRadix(2).plan(8, 4, 1);
    println!("index r=2: {}", bruck_sched::summarize(&s));
    print!("{}", bruck_sched::render_rounds(&s));
    print!("{}", bruck_sched::render_activity(&s));
    let s = ConcatAlgorithm::Bruck(Preference::Rounds).plan(10, 3, 3);
    println!("\nconcat n=10 k=3: {}", bruck_sched::summarize(&s));
    print!("{}", bruck_sched::render_rounds(&s));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    match what {
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "table1" => table1(),
        "bounds" => bounds(),
        "concat" => concat_compare(),
        "model-gap" => model_gap(),
        "ablation" => ablation(),
        "calibrate" => calibrate(),
        "mixed" => mixed(),
        "hierarchy" => hierarchy(),
        "pareto" => pareto(),
        "models" => models(),
        "schedules" => schedules(),
        "all" => {
            fig4();
            fig5();
            fig6();
            table1();
            bounds();
            concat_compare();
            model_gap();
            ablation();
            mixed();
            hierarchy();
            pareto();
            models();
            schedules();
            calibrate();
        }
        other => {
            eprintln!(
                "unknown figure `{other}`; expected fig4|fig5|fig6|table1|bounds|concat|model-gap|ablation|calibrate|mixed|hierarchy|pareto|models|schedules|all"
            );
            std::process::exit(2);
        }
    }
}

//! `bruckctl` — run any collective from the command line and print its
//! complexity, predicted time, and virtual measurement.
//!
//! ```text
//! bruckctl index  --n 64 --block 256 --radix 8 [--ports 2] [--model sp1|linear|free] [--transport channel|uds]
//! bruckctl index  --n 64 --block 256            # auto-tuned radix
//! bruckctl concat --n 60 --block 64 --ports 3
//! bruckctl plan   --op index --n 16 --block 4 --radix 2   # print the schedule
//! bruckctl tune   --n 64 --block 128 [--ports 1]          # radix table
//! bruckctl chaos  --n 8 --block 64 --seed 2 --loss 0.05   # lossy-wire soak
//! bruckctl chaos  --n 8 --block 64 --kill 3               # shrink-and-retry
//! bruckctl chaos  --n 8 --partition 0,1@1 --deadline-ms 500   # partition + budget
//! bruckctl chaos  --n 8 --stall 3:40                      # straggler vs watchdog
//! bruckctl chaos  --replay repro.chaos.tsv                # rerun a persisted reproducer
//! bruckctl chaos  --transport tcp --n 128 --seed 7        # socket-level chaos on the TCP fabric
//! bruckctl chaos  --transport tcp --replay repro.tsv      # replay a connection-chaos reproducer
//! bruckctl bench  --n 8 --ports 2 --block 65536           # wire throughput smoke: table only, writes nothing
//! bruckctl bench  --min-mbps 50                           # CI floor: exit 1 if alltoall is below it
//! bruckctl bench  --min-allgather-mbps 50                 # the same for the allgather row
//! ```

use std::sync::Arc;

use bruck_collectives::api::{alltoall, Tuning};
use bruck_collectives::concat::ConcatAlgorithm;
use bruck_collectives::index::IndexAlgorithm;
use bruck_collectives::verify;
use bruck_model::bounds::{concat_bounds, index_bounds};
use bruck_model::cost::{CostModel, LinearModel, Sp1Model};
use bruck_model::partition::Preference;
use bruck_model::tuning::{all_radices, best_radix, index_complexity_kport};
use bruck_net::{Cluster, ClusterConfig, Endpoint, FaultPlan, NetError, Reliability};
use bruck_sched::{from_tsv, render_activity, render_rounds, summarize, to_tsv, ScheduleStats};

#[derive(Debug)]
struct Args {
    command: String,
    n: usize,
    block: usize,
    ports: usize,
    radix: Option<usize>,
    op: String,
    model: String,
    transport: String,
    save: Option<String>,
    load: Option<String>,
    seed: u64,
    loss: f64,
    dup: f64,
    corrupt: f64,
    reps: usize,
    kill: Option<usize>,
    partition: Option<(Vec<usize>, u64)>,
    stall: Option<(usize, u64)>,
    deadline_ms: Option<u64>,
    samples: usize,
    min_mbps: Option<f64>,
    min_allgather_mbps: Option<f64>,
    replay: Option<String>,
    node_size: Option<usize>,
    workers: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let command = raw.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        n: 8,
        block: 64,
        ports: 1,
        radix: None,
        op: "index".into(),
        model: "sp1".into(),
        transport: "channel".into(),
        save: None,
        load: None,
        seed: 0xB10C,
        loss: 0.0,
        dup: 0.0,
        corrupt: 0.0,
        reps: 4,
        kill: None,
        partition: None,
        stall: None,
        deadline_ms: None,
        samples: 3,
        min_mbps: None,
        min_allgather_mbps: None,
        replay: None,
        node_size: None,
        workers: None,
    };
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or(format!("flag {flag} needs a value"));
        match flag.as_str() {
            "--n" => args.n = value()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--block" => args.block = value()?.parse().map_err(|e| format!("--block: {e}"))?,
            "--ports" => args.ports = value()?.parse().map_err(|e| format!("--ports: {e}"))?,
            "--radix" => args.radix = Some(value()?.parse().map_err(|e| format!("--radix: {e}"))?),
            "--op" => args.op = value()?,
            "--model" => args.model = value()?,
            "--transport" => args.transport = value()?,
            "--save" => args.save = Some(value()?),
            "--load" => args.load = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--loss" => args.loss = value()?.parse().map_err(|e| format!("--loss: {e}"))?,
            "--dup" => args.dup = value()?.parse().map_err(|e| format!("--dup: {e}"))?,
            "--corrupt" => {
                args.corrupt = value()?.parse().map_err(|e| format!("--corrupt: {e}"))?;
            }
            "--reps" => args.reps = value()?.parse().map_err(|e| format!("--reps: {e}"))?,
            "--kill" => args.kill = Some(value()?.parse().map_err(|e| format!("--kill: {e}"))?),
            "--partition" => args.partition = Some(parse_partition(&value()?)?),
            "--stall" => args.stall = Some(parse_stall(&value()?)?),
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--samples" => {
                args.samples = value()?.parse().map_err(|e| format!("--samples: {e}"))?;
            }
            "--min-mbps" => {
                args.min_mbps = Some(value()?.parse().map_err(|e| format!("--min-mbps: {e}"))?);
            }
            "--min-allgather-mbps" => {
                args.min_allgather_mbps = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--min-allgather-mbps: {e}"))?,
                );
            }
            "--node-size" => {
                args.node_size = Some(value()?.parse().map_err(|e| format!("--node-size: {e}"))?);
            }
            "--workers" => {
                args.workers = Some(value()?.parse().map_err(|e| format!("--workers: {e}"))?);
            }
            "--replay" => args.replay = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// `--partition 0,1@2`: sever the links between `{0, 1}` and everyone
/// else once the sender has completed round 2.
fn parse_partition(spec: &str) -> Result<(Vec<usize>, u64), String> {
    let (ranks, round) = spec
        .split_once('@')
        .ok_or_else(|| format!("--partition {spec}: expected <r1,r2,...>@<round>"))?;
    let side = ranks
        .split(',')
        .map(|r| r.parse().map_err(|e| format!("--partition rank {r}: {e}")))
        .collect::<Result<Vec<usize>, String>>()?;
    if side.is_empty() {
        return Err("--partition needs at least one rank".into());
    }
    let round = round
        .parse()
        .map_err(|e| format!("--partition round: {e}"))?;
    Ok((side, round))
}

/// `--stall 3:40`: pause rank 3 for 40 ms at its round-1 preflight (the
/// same round `--kill` uses), a SIGSTOP-style straggler that stops
/// pumping acks entirely.
fn parse_stall(spec: &str) -> Result<(usize, u64), String> {
    let (rank, ms) = spec
        .split_once(':')
        .ok_or_else(|| format!("--stall {spec}: expected <rank>:<ms>"))?;
    let rank = rank.parse().map_err(|e| format!("--stall rank: {e}"))?;
    let ms = ms.parse().map_err(|e| format!("--stall ms: {e}"))?;
    Ok((rank, ms))
}

fn model_from(name: &str) -> Result<Arc<dyn CostModel>, String> {
    match name {
        "sp1" => Ok(Arc::new(Sp1Model::calibrated())),
        "linear" => Ok(Arc::new(LinearModel::sp1())),
        "free" => Ok(Arc::new(LinearModel::free())),
        other => Err(format!("unknown model {other} (sp1|linear|free)")),
    }
}

fn run_cluster<T: Send>(
    args: &Args,
    cfg: &ClusterConfig,
    body: impl Fn(&mut Endpoint) -> Result<T, NetError> + Sync,
) -> Result<bruck_net::RunOutput<T>, String> {
    match args.transport.as_str() {
        "channel" => Cluster::run(cfg, body).map_err(|e| e.to_string()),
        #[cfg(unix)]
        "uds" => bruck_net::SocketCluster::run(cfg, body).map_err(|e| e.to_string()),
        other => Err(format!("unknown transport {other} (channel|uds)")),
    }
}

fn cmd_index(args: &Args) -> Result<(), String> {
    let model = model_from(&args.model)?;
    let radix = args.radix.unwrap_or_else(|| {
        best_radix(
            args.n,
            args.block,
            args.ports,
            model.as_ref(),
            all_radices(args.n),
        )
        .radix
    });
    let algo = IndexAlgorithm::BruckRadix(radix);
    let cfg = ClusterConfig::new(args.n)
        .with_ports(args.ports)
        .with_cost(Arc::clone(&model));
    let (n, block) = (args.n, args.block);
    let out = run_cluster(args, &cfg, move |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        let result = algo.run(ep, &input, block)?;
        if result != verify::index_expected(ep.rank(), n, block) {
            return Err(NetError::App("wrong result".into()));
        }
        Ok(())
    })?;
    let c = out.metrics.global_complexity().ok_or("misaligned rounds")?;
    let lb = index_bounds(args.n, args.ports, args.block);
    println!(
        "index: n={n} b={block} k={} radix={radix} ({})",
        args.ports, args.transport
    );
    println!("  complexity : {c}");
    println!("  bounds     : C1 ≥ {}, C2 ≥ {}", lb.c1, lb.c2);
    println!(
        "  predicted  : {:.3} ms ({})",
        model.estimate(c) * 1e3,
        model.name()
    );
    println!("  virtual    : {:.3} ms", out.virtual_makespan() * 1e3);
    println!("  verified   : all ranks hold the transposed blocks ✓");
    Ok(())
}

fn cmd_concat(args: &Args) -> Result<(), String> {
    let model = model_from(&args.model)?;
    let algo = ConcatAlgorithm::Bruck(Preference::Rounds);
    let cfg = ClusterConfig::new(args.n)
        .with_ports(args.ports)
        .with_cost(Arc::clone(&model));
    let (n, block) = (args.n, args.block);
    let out = run_cluster(args, &cfg, move |ep| {
        let input = verify::concat_input(ep.rank(), block);
        let result = algo.run(ep, &input)?;
        if result != verify::concat_expected(n, block) {
            return Err(NetError::App("wrong result".into()));
        }
        Ok(())
    })?;
    let c = out.metrics.global_complexity().ok_or("misaligned rounds")?;
    let lb = concat_bounds(args.n, args.ports, args.block);
    println!(
        "concat: n={n} b={block} k={} ({})",
        args.ports, args.transport
    );
    println!("  complexity : {c}");
    println!("  bounds     : C1 ≥ {}, C2 ≥ {}", lb.c1, lb.c2);
    println!(
        "  predicted  : {:.3} ms ({})",
        model.estimate(c) * 1e3,
        model.name()
    );
    println!("  virtual    : {:.3} ms", out.virtual_makespan() * 1e3);
    println!("  verified   : all ranks hold the concatenation ✓");
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    let schedule = match args.op.as_str() {
        "index" => {
            IndexAlgorithm::BruckRadix(args.radix.unwrap_or(2)).plan(args.n, args.block, args.ports)
        }
        "concat" => ConcatAlgorithm::Bruck(Preference::Rounds).plan(args.n, args.block, args.ports),
        other => return Err(format!("unknown --op {other} (index|concat)")),
    };
    schedule
        .validate()
        .map_err(|e| format!("invalid schedule: {e}"))?;
    println!("{}", summarize(&schedule));
    print!("{}", render_rounds(&schedule));
    if args.n <= 32 {
        print!("{}", render_activity(&schedule));
    }
    if let Some(path) = &args.save {
        std::fs::write(path, to_tsv(&schedule)).map_err(|e| format!("write {path}: {e}"))?;
        println!("[schedule written to {path}]");
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let path = args.load.as_ref().ok_or("analyze needs --load <path>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let schedule = from_tsv(&text)?;
    schedule
        .validate()
        .map_err(|e| format!("invalid schedule: {e}"))?;
    let model = model_from(&args.model)?;
    let stats = ScheduleStats::of(&schedule);
    println!("{}", summarize(&schedule));
    println!(
        "predicted time under {}: {:.4} ms (closed form), {:.4} ms (event simulation)",
        model.name(),
        stats.predicted_time(model.as_ref()) * 1e3,
        bruck_sched::analyze::simulate_time(&schedule, model.as_ref()) * 1e3
    );
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    let model = model_from(&args.model)?;
    println!(
        "radix table for n={} b={} k={} under the {} model:",
        args.n,
        args.block,
        args.ports,
        model.name()
    );
    println!(
        "{:>6} {:>8} {:>12} {:>12}",
        "radix", "C1", "C2", "pred (ms)"
    );
    for r in all_radices(args.n) {
        let c = index_complexity_kport(args.n, r, args.block, args.ports);
        println!(
            "{r:>6} {:>8} {:>12} {:>12.4}",
            c.c1,
            c.c2,
            model.estimate(c) * 1e3
        );
    }
    let choice = best_radix(
        args.n,
        args.block,
        args.ports,
        model.as_ref(),
        all_radices(args.n),
    );
    println!(
        "→ best radix: {} ({:.4} ms)",
        choice.radix,
        choice.predicted_time * 1e3
    );
    Ok(())
}

fn print_link_report(metrics: &bruck_net::RunMetrics) {
    let link = metrics.link_totals();
    println!("  retransmits  : {}", link.retransmits);
    println!("  acks sent    : {}", link.acks_sent);
    println!("  dups dropped : {}", link.dups_dropped);
    println!("  corrupt drop : {}", link.corrupt_dropped);
    println!(
        "  injected     : {} losses, {} dups, {} corruptions, {} delays, {} ack losses",
        link.injected_losses,
        link.injected_dups,
        link.injected_corruptions,
        link.injected_delays,
        link.injected_ack_losses
    );
    println!(
        "  watchdog     : {} probes, {} replies, {} stall escalations, {} partition cuts",
        link.probes_sent, link.probe_replies, link.stall_escalations, link.partition_cuts
    );
    println!(
        "  window       : {:.2} mean occupancy, {:.0}% acks piggybacked",
        metrics.avg_window_occupancy(),
        metrics.piggyback_ratio() * 100.0
    );
    let per_rank: Vec<u64> = metrics
        .per_rank
        .iter()
        .map(|m| m.link.retransmits)
        .collect();
    println!("  per-rank retransmits: {per_rank:?}");
}

fn print_fabric_report(fs: &bruck_net::FabricStats) {
    println!(
        "  fabric       : {} link failures, {} reconnects ({} failed), {} pairs evicted",
        fs.link_failures, fs.reconnects, fs.reconnect_failures, fs.pairs_evicted
    );
    println!(
        "  socket inj   : {} resets, {} stalls, {} handshake drops; {:.1} ms in backoff, {} B shed",
        fs.injected_resets,
        fs.injected_stalls,
        fs.injected_handshake_drops,
        fs.backoff_ns as f64 / 1e6,
        fs.outbox_shed_bytes
    );
}

/// `bruckctl chaos --transport tcp`: drive a socket-level chaos
/// schedule (connection resets, half-open stalls, handshake
/// blackholes, reconnect flaps, mild wire loss) against the
/// event-driven TCP fabric via the resilient scale driver, then print
/// the membership outcome and the fabric's healing counters.
fn cmd_chaos_tcp(
    args: &Args,
    schedule: bruck_net::ChaosSchedule,
    source: &str,
) -> Result<(), String> {
    use bruck_model::planner::IndexPlan;
    use bruck_net::{RecoveryPolicy, TcpScaleCluster};
    let n = schedule.n;
    println!(
        "chaos (tcp fabric): {source} (seed={:#x} n={n})",
        schedule.seed
    );
    for e in &schedule.events {
        println!("  event        : {e}");
    }
    let node_size = args.node_size.unwrap_or_else(|| {
        (1..=32.min(n))
            .rev()
            .find(|&d| n.is_multiple_of(d))
            .unwrap_or(1)
    });
    let block = args.block;
    let policy = if schedule.has_rejoin() {
        RecoveryPolicy::WaitForRejoin {
            budget: std::time::Duration::from_secs(2),
        }
    } else {
        RecoveryPolicy::ShrinkOnly
    };
    let mut cfg = ClusterConfig::new(n)
        .with_node_size(node_size)
        .with_faults(schedule.plan())
        .with_reliability(Reliability::default())
        .with_timeout(std::time::Duration::from_secs(20))
        .with_quarantine(std::time::Duration::from_millis(5))
        .with_recovery(policy);
    cfg = cfg.with_deadline(std::time::Duration::from_millis(
        args.deadline_ms.unwrap_or(30_000),
    ));
    let inputs: Vec<Vec<u8>> = (0..n).map(|r| verify::index_input(r, n, block)).collect();
    let res = TcpScaleCluster::run_resilient_with_workers(
        &cfg,
        &IndexPlan::Radix(2),
        block,
        &inputs,
        4,
        args.workers,
    )
    .map_err(|e| e.to_string())?;
    for (i, got) in res.output.results.iter().enumerate() {
        for (j, &src) in res.survivors.iter().enumerate() {
            let dst = res.survivors[i];
            if got[j * block..(j + 1) * block] != inputs[src][dst * block..(dst + 1) * block] {
                return Err(format!(
                    "survivor {dst}: wrong bytes from original rank {src}"
                ));
            }
        }
    }
    let ms = &res.output.metrics.membership;
    println!("  node size    : {node_size}");
    println!("  policy       : {policy:?}");
    println!("  survivors    : {} of {n}", res.survivors.len());
    println!("  rejoined     : {:?}", res.rejoined);
    println!("  attempts     : {}", res.attempts);
    println!("  final view   : {}", res.view_id);
    println!(
        "  view changes : {} ({} evictions, {} rejoins, {} quarantines)",
        ms.view_changes, ms.evictions, ms.rejoins, ms.quarantines
    );
    print_fabric_report(&res.output.metrics.fabric);
    println!("  result       : bit-correct on the final membership ✓");
    Ok(())
}

/// `bruckctl chaos --replay <file>`: load a persisted (typically soak-
/// minimized) [`bruck_net::ChaosSchedule`] and drive it through the
/// full recovery stack — `WaitForRejoin` when the schedule marks its
/// killed rank as restartable, `ShrinkOnly` otherwise — printing the
/// final membership, the per-view counters, and the verdict.
fn cmd_chaos_replay(args: &Args, path: &str) -> Result<(), String> {
    use bruck_net::RecoveryPolicy;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let schedule = bruck_sched::chaos_from_tsv(&text)?;
    if args.transport == "tcp" || schedule.plan().has_socket_faults() {
        return cmd_chaos_tcp(args, schedule, path);
    }
    println!(
        "chaos replay: {path} (seed={:#x} n={})",
        schedule.seed, schedule.n
    );
    for e in &schedule.events {
        println!("  event        : {e}");
    }
    let policy = if schedule.has_rejoin() {
        RecoveryPolicy::WaitForRejoin {
            budget: std::time::Duration::from_secs(2),
        }
    } else {
        RecoveryPolicy::ShrinkOnly
    };
    let model = model_from(&args.model)?;
    let mut cfg = ClusterConfig::new(schedule.n)
        .with_ports(args.ports)
        .with_cost(model)
        .with_faults(schedule.plan())
        .with_reliability(Reliability::default())
        .with_timeout(std::time::Duration::from_secs(2))
        .with_quarantine(std::time::Duration::from_millis(5))
        .with_recovery(policy);
    if let Some(ms) = args.deadline_ms {
        cfg = cfg.with_deadline(std::time::Duration::from_millis(ms));
    }
    let (block, reps) = (args.block, args.reps.max(1));
    let tuning = Tuning::default();
    let resilient = Cluster::run_resilient(&cfg, 4, move |ep, _view| {
        let m = ep.size();
        let input = verify::index_input(ep.rank(), m, block);
        let mut last = Vec::new();
        for _ in 0..reps {
            last = alltoall(ep, &input, block, &tuning)?;
        }
        if last != verify::index_expected(ep.rank(), m, block) {
            return Err(NetError::App("wrong result".into()));
        }
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    let ms = &resilient.output.metrics.membership;
    println!("  policy       : {policy:?}");
    println!("  survivors    : {:?}", resilient.survivors);
    println!("  rejoined     : {:?}", resilient.rejoined);
    println!("  attempts     : {}", resilient.attempts);
    println!("  final view   : {}", resilient.view_id);
    println!(
        "  view changes : {} ({} evictions, {} rejoins, {} quarantines)",
        ms.view_changes, ms.evictions, ms.rejoins, ms.quarantines
    );
    println!("  result       : bit-correct on the final membership ✓");
    Ok(())
}

fn cmd_chaos(args: &Args) -> Result<(), String> {
    if let Some(path) = &args.replay {
        return cmd_chaos_replay(args, &path.clone());
    }
    if args.transport == "tcp" {
        let schedule = bruck_net::ChaosSchedule::generate_socket_chaos(args.seed, args.n);
        return cmd_chaos_tcp(args, schedule, "generated socket chaos");
    }
    let model = model_from(&args.model)?;
    let mut plan = FaultPlan::new()
        .with_seed(args.seed)
        .with_loss(args.loss)
        .with_duplication(args.dup)
        .with_corruption(args.corrupt);
    if let Some(victim) = args.kill {
        if victim >= args.n {
            return Err(format!("--kill {victim} out of range (n = {})", args.n));
        }
        plan = plan.kill_rank_after(victim, 1);
    }
    if let Some((side, round)) = &args.partition {
        if let Some(&bad) = side.iter().find(|&&r| r >= args.n) {
            return Err(format!(
                "--partition rank {bad} out of range (n = {})",
                args.n
            ));
        }
        plan = plan.with_partition(side.clone(), *round);
    }
    if let Some((rank, ms)) = args.stall {
        if rank >= args.n {
            return Err(format!("--stall rank {rank} out of range (n = {})", args.n));
        }
        plan = plan.stall_rank(rank, 1, std::time::Duration::from_millis(ms));
    }
    let mut cfg = ClusterConfig::new(args.n)
        .with_ports(args.ports)
        .with_cost(model)
        .with_faults(plan)
        .with_reliability(Reliability::default());
    if let Some(ms) = args.deadline_ms {
        cfg = cfg.with_deadline(std::time::Duration::from_millis(ms));
    }
    let (n, block, reps) = (args.n, args.block, args.reps.max(1));
    let tuning = Tuning::default();
    println!(
        "chaos: n={n} b={block} seed={:#x} loss={:.1}% dup={:.1}% corrupt={:.1}% reps={reps} ({})",
        args.seed,
        args.loss * 100.0,
        args.dup * 100.0,
        args.corrupt * 100.0,
        args.transport
    );
    if let Some(ms) = args.deadline_ms {
        println!("  deadline     : {ms} ms (structured abort past the budget)");
    }
    let disruptive = args.kill.is_some() || args.partition.is_some() || args.stall.is_some();
    if disruptive {
        if args.transport != "channel" {
            return Err(
                "--kill/--partition/--stall demo shrink-and-retry on the channel transport".into(),
            );
        }
        // Shrink-and-retry: the killed rank fails the first attempt, the
        // survivors re-plan for the smaller membership and complete.
        let resilient = Cluster::run_resilient(&cfg, 3, move |ep, view| {
            let m = ep.size();
            let input = verify::index_input(ep.rank(), m, block);
            let mut last = Vec::new();
            for _ in 0..reps {
                last = alltoall(ep, &input, block, &tuning)?;
            }
            if last != verify::index_expected(ep.rank(), m, block) {
                return Err(NetError::App("wrong result".into()));
            }
            Ok(view.attempt)
        })
        .map_err(|e| e.to_string())?;
        if let Some(victim) = args.kill {
            println!("  killed rank  : {victim} (after round 1)");
        }
        if let Some((side, round)) = &args.partition {
            println!("  partition    : {side:?} cut off at round {round}");
        }
        if let Some((rank, ms)) = args.stall {
            println!("  stalled rank : {rank} for {ms} ms at round 1");
        }
        println!("  survivors    : {:?}", resilient.survivors);
        println!("  attempts     : {}", resilient.attempts);
        println!("  result       : bit-correct on all survivors ✓");
        if resilient.attempts > 1 {
            println!(
                "  (counters below are the successful attempt's; faulted attempts are discarded)"
            );
        }
        print_link_report(&resilient.output.metrics);
    } else {
        let out = run_cluster(args, &cfg, move |ep| {
            let input = verify::index_input(ep.rank(), n, block);
            let mut last = Vec::new();
            for _ in 0..reps {
                last = alltoall(ep, &input, block, &tuning)?;
            }
            if last != verify::index_expected(ep.rank(), n, block) {
                return Err(NetError::App("wrong result".into()));
            }
            Ok(())
        })?;
        println!("  result       : bit-correct on all ranks ✓");
        print_link_report(&out.metrics);
    }
    Ok(())
}

/// `bruckctl bench`: the wire throughput smoke over real Unix sockets —
/// one alltoall and one allgather row, printed as a table and held
/// against the optional floors. It writes no file; numbers to compare
/// across commits come from the tracked benchmark in `benchmark/`.
#[cfg(unix)]
fn cmd_bench(args: &Args) -> Result<(), String> {
    use bruck_bench::wire;
    // An out-of-range radix is a hard error, not a silent fallback: a CI
    // job that typos `--radix 9` on an 8-rank bench must fail loudly
    // instead of gating a different schedule.
    if let Some(r) = args.radix {
        if r < 2 || r > args.n {
            return Err(format!(
                "--radix {r} is invalid for n = {}: need 2 ≤ r ≤ n",
                args.n
            ));
        }
    }
    let cfg = wire::WireBenchConfig {
        n: args.n,
        ports: args.ports,
        block: args.block,
        reps: args.reps.max(1),
        samples: args.samples.max(1),
        radix: args.radix,
        ..wire::WireBenchConfig::default()
    };
    println!(
        "wire bench: n={} k={} block={} reps={}x{} (uds)",
        cfg.n, cfg.ports, cfg.block, cfg.reps, cfg.samples
    );
    let rows = wire::run_matrix(&cfg)?;
    print!("{}", wire::render_table(&rows));
    for verdict in wire::check_floors(&rows, args.min_mbps, args.min_allgather_mbps) {
        println!("{}", verdict?);
    }
    Ok(())
}

#[cfg(not(unix))]
fn cmd_bench(_args: &Args) -> Result<(), String> {
    Err("bench needs the unix-socket transport".into())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bruckctl: {e}");
            eprintln!("usage: bruckctl <index|concat|plan|analyze|tune|chaos|bench> [--n N] [--block B] [--ports K] [--radix R] [--op index|concat] [--model sp1|linear|free] [--transport channel|uds|tcp] [--save PATH] [--load PATH] [--seed S] [--loss P] [--dup P] [--corrupt P] [--reps R] [--kill RANK] [--partition RANKS@ROUND] [--stall RANK:MS] [--deadline-ms MS] [--samples S] [--min-mbps F] [--min-allgather-mbps F] [--node-size S] [--workers W] [--replay FILE]");
            std::process::exit(2);
        }
    };
    let result = match args.command.as_str() {
        "index" => cmd_index(&args),
        "concat" => cmd_concat(&args),
        "plan" => cmd_plan(&args),
        "analyze" => cmd_analyze(&args),
        "tune" => cmd_tune(&args),
        "chaos" => cmd_chaos(&args),
        "bench" => cmd_bench(&args),
        other => Err(format!("unknown command {other}")),
    };
    if let Err(e) = result {
        eprintln!("bruckctl: {e}");
        std::process::exit(1);
    }
}

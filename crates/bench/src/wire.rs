//! Wire microbench: alltoall/allgather throughput and latency over the
//! real-I/O Unix-socket transport on the default data plane
//! (sliding-window ARQ over blocking reads). The comparison against the
//! stop-and-wait, sleep-polling plane it replaced is recorded in the
//! committed `BENCH_pr3.json`; that plane no longer exists to re-run.
//!
//! Each case spins up a [`SocketCluster`], runs one untimed warmup
//! collective (absorbs thread-spawn skew and pool warmup), then times
//! `reps` back-to-back collectives per rank. A rep's cluster-wide wall
//! clock is the *maximum* across ranks for that rep — the straggler
//! defines the collective. Percentiles pool every rep of every sample
//! run, so `p99` reflects cross-run variance too.
//!
//! The output is both a human table ([`render_table`]) and a
//! hand-rolled JSON artifact ([`render_json`], no external
//! serialization crates) that CI tracks as `BENCH_pr3.json`.

use std::time::{Duration, Instant};

use bruck_collectives::api::{allgather, alltoall, alltoall_auto, alltoall_deadline, Tuning};
use bruck_collectives::autotune::calibrated_fit;
use bruck_collectives::primitives::barrier_dissemination;
use bruck_collectives::verify;
use bruck_collectives::vops::{alltoallv_auto_into, alltoallv_into, VLayout, VMethod};
use bruck_model::calibrate::LinearFit;
use bruck_model::cost::CostModel;
use bruck_model::planner::{IndexPlan, Planner, VIndexPlan};
use bruck_net::{ClusterConfig, FaultPlan, NetError, Reliability, TcpScaleCluster};

// ---------------------------------------------------------------------
// Environment metadata and calibration quality — shared by every
// BENCH_*.json artifact.
// ---------------------------------------------------------------------

/// Environment metadata stamped into every tracked `BENCH_*.json` so
/// n-sweep numbers stay comparable across machines and PRs: a 1-core CI
/// runner and an 8-core laptop produce very different walls for the
/// same shape, and without the capture the artifact can't say which it
/// was.
#[derive(Debug, Clone)]
pub struct EnvMeta {
    /// Logical CPUs available to this process.
    pub cpus: usize,
    /// Transport the bench drove (`"uds"`, `"tcp"`, `"channel"`).
    pub transport: String,
    /// Short git commit of the tree that produced the numbers
    /// (`"unknown"` outside a git checkout).
    pub git_commit: String,
    /// Wire fragment payload size the transports ran with.
    pub frag_payload: usize,
}

impl EnvMeta {
    /// Capture the current environment for `transport`.
    #[must_use]
    pub fn capture(transport: &str) -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let git_commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
        Self {
            cpus,
            transport: transport.into(),
            git_commit,
            frag_payload: bruck_net::frame::FRAG_PAYLOAD,
        }
    }

    /// The `"env"` line of a JSON artifact (trailing comma included).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        format!(
            "  \"env\": {{\"cpus\": {}, \"transport\": \"{}\", \"git_commit\": \"{}\", \
             \"frag_payload\": {}}},\n",
            self.cpus, self.transport, self.git_commit, self.frag_payload
        )
    }
}

/// Fit quality below which planner dispatch is a guess, not a
/// prediction: R² = 0.5 means the linear model explains half the
/// measured variance. BENCH_pr4 recorded R² = 0.19 on the live UDS
/// wire, and nothing surfaced it.
pub const FIT_R2_FLOOR: f64 = 0.5;

/// A human-readable warning when the calibration fit is below
/// [`FIT_R2_FLOOR`], or `None` when the fit is trustworthy.
#[must_use]
pub fn fit_warning(fit: &LinearFit) -> Option<String> {
    (fit.r_squared < FIT_R2_FLOOR).then(|| {
        format!(
            "calibration fit R² = {:.2} is below {FIT_R2_FLOOR}: the linear cost model explains \
             little of the measured variance, so planner dispatch and predicted times are \
             best-effort on this wire",
            fit.r_squared
        )
    })
}

/// One benchmark case: a collective at a fixed shape under one window.
#[derive(Debug, Clone, Copy)]
pub struct WireBenchConfig {
    /// Cluster size.
    pub n: usize,
    /// Ports per round (the paper's `k`).
    pub ports: usize,
    /// Block size in bytes (per source-destination pair).
    pub block: usize,
    /// Timed collectives per cluster run.
    pub reps: usize,
    /// Independent cluster runs pooled into one distribution.
    pub samples: usize,
    /// Per-run watchdog.
    pub timeout: Duration,
    /// Force this index radix instead of planner dispatch.
    pub radix: Option<usize>,
}

impl Default for WireBenchConfig {
    /// The tracked shape: `n = 8`, `k = 2`, 64 KiB blocks.
    fn default() -> Self {
        Self {
            n: 8,
            ports: 2,
            block: 64 * 1024,
            reps: 6,
            samples: 3,
            timeout: Duration::from_secs(60),
            radix: None,
        }
    }
}

/// One row of the benchmark table.
#[derive(Debug, Clone)]
pub struct WireBenchRow {
    /// `"alltoall"` or `"allgather"`.
    pub collective: &'static str,
    /// Sliding-window size.
    pub window: usize,
    /// Cluster size.
    pub n: usize,
    /// Ports per round.
    pub k: usize,
    /// The radix the planner chose for this shape.
    pub radix: usize,
    /// Block size in bytes.
    pub block: usize,
    /// Executed communication rounds per collective.
    pub rounds: u64,
    /// Payload bytes the whole cluster moves per collective.
    pub bytes_moved: u64,
    /// Pooled rep count behind the percentiles.
    pub reps: usize,
    /// Median cluster-wide wall clock per collective (ns).
    pub p50_ns: u64,
    /// 99th-percentile wall clock (ns).
    pub p99_ns: u64,
    /// Mean wall clock (ns).
    pub mean_ns: u64,
    /// Cluster goodput: payload bytes moved per wall-clock second, MB/s.
    pub mbps: f64,
    /// Mean reliability-window occupancy observed at send time.
    pub avg_window_occupancy: f64,
    /// Fraction of acks that rode on reverse-path data frames.
    pub piggyback_ratio: f64,
    /// Reliability-layer retransmissions across the whole matrix cell —
    /// nonzero on a clean wire means the rto is losing to scheduling.
    pub retransmits: u64,
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

/// Run one collective shape over the socket transport and fold the
/// pooled timings into a row.
///
/// # Errors
///
/// Propagates cluster setup or collective failures as a message.
pub fn run_case(collective: &'static str, cfg: &WireBenchConfig) -> Result<WireBenchRow, String> {
    let reliability = Reliability::default();
    let (n, block, reps) = (cfg.n, cfg.block, cfg.reps.max(1));
    let tuning = match cfg.radix {
        Some(r) => Tuning::builder().radix(r).build(),
        None => Tuning::builder().planner(true).build(),
    };
    // Report the effective radix of the plan actually dispatched (the
    // planner's pick unless one was forced); 0 marks a mixed-radix plan.
    let choice = tuning.chosen_plan(n, block, cfg.ports);
    let radix = choice.plan.radix(n).unwrap_or(0);
    let cluster_cfg = ClusterConfig::new(n)
        .with_ports(cfg.ports)
        .with_timeout(cfg.timeout)
        .with_reliability(reliability);

    let mut pooled: Vec<u64> = Vec::with_capacity(reps * cfg.samples);
    let mut bytes_moved = 0u64;
    let mut rounds = 0u64;
    let mut occupancy = 0.0f64;
    let mut piggyback = 0.0f64;
    let mut retransmits = 0u64;
    for _ in 0..cfg.samples.max(1) {
        let body = |ep: &mut bruck_net::Endpoint| {
            // Test vectors are generated once per cluster run, outside
            // the timed laps: the bench measures the data plane, not
            // pattern generation.
            let (input, expected) = match collective {
                "alltoall" => (
                    verify::index_input(ep.rank(), n, block),
                    verify::index_expected(ep.rank(), n, block),
                ),
                _ => (
                    verify::concat_input(ep.rank(), block),
                    verify::concat_expected(n, block),
                ),
            };
            let run_one = |ep: &mut bruck_net::Endpoint| -> Result<(), NetError> {
                let got = match collective {
                    "alltoall" => alltoall(ep, &input, block, &tuning)?,
                    _ => allgather(ep, &input, &tuning)?,
                };
                if got != expected {
                    return Err(NetError::App(format!("{collective} bytes wrong")));
                }
                Ok(())
            };
            run_one(ep)?; // warmup, untimed
            let mut laps = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t0 = Instant::now();
                run_one(ep)?;
                laps.push(t0.elapsed().as_nanos() as u64);
            }
            Ok(laps)
        };
        let out = bruck_net::SocketCluster::run(&cluster_cfg, body)
            .map_err(|e| format!("{collective}: {e}"))?;
        // Cluster-wide wall clock for rep j = the straggler rank's lap.
        for j in 0..reps {
            pooled.push(
                out.results
                    .iter()
                    .map(|laps| laps[j])
                    .max()
                    .unwrap_or_default(),
            );
        }
        let per_collective = (reps + 1) as u64; // warmup included in metrics
        bytes_moved = out.metrics.total_bytes() / per_collective;
        rounds = out
            .metrics
            .per_rank
            .iter()
            .map(bruck_net::RankMetrics::rounds)
            .max()
            .unwrap_or(0)
            / per_collective;
        occupancy = out.metrics.avg_window_occupancy();
        piggyback = out.metrics.piggyback_ratio();
        retransmits += out.metrics.total_retransmits();
    }
    pooled.sort_unstable();
    let mean_ns = (pooled.iter().sum::<u64>() / pooled.len().max(1) as u64).max(1);
    Ok(WireBenchRow {
        collective,
        window: reliability.wire.window,
        n,
        k: cfg.ports,
        radix,
        block,
        rounds,
        bytes_moved,
        reps: pooled.len(),
        p50_ns: percentile(&pooled, 50),
        p99_ns: percentile(&pooled, 99),
        mean_ns,
        mbps: bytes_moved as f64 / (mean_ns as f64 / 1e9) / 1e6,
        avg_window_occupancy: occupancy,
        piggyback_ratio: piggyback,
        retransmits,
    })
}

/// Run the full matrix: both collectives.
///
/// # Errors
///
/// Propagates the first failing case.
pub fn run_matrix(cfg: &WireBenchConfig) -> Result<Vec<WireBenchRow>, String> {
    ["alltoall", "allgather"]
        .into_iter()
        .map(|collective| run_case(collective, cfg))
        .collect()
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

/// Render the human table: one row per collective.
#[must_use]
pub fn render_table(rows: &[WireBenchRow]) -> String {
    let mut out = format!(
        "{:<10} {:>6} {:>4} {:>3} {:>3} {:>8} {:>6} {:>9} {:>9} {:>9} {:>6} {:>5} {:>5}\n",
        "collective",
        "window",
        "n",
        "k",
        "r",
        "bytes",
        "rounds",
        "MB/s",
        "p50",
        "p99",
        "occ",
        "pig",
        "rexmt"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>6} {:>4} {:>3} {:>3} {:>8} {:>6} {:>9.1} {:>9} {:>9} {:>6.2} {:>5.2} {:>5}\n",
            r.collective,
            r.window,
            r.n,
            r.k,
            r.radix,
            r.block,
            r.rounds,
            r.mbps,
            fmt_ns(r.p50_ns),
            fmt_ns(r.p99_ns),
            r.avg_window_occupancy,
            r.piggyback_ratio,
            r.retransmits,
        ));
    }
    out
}

/// Render the machine-tracked JSON artifact (hand-rolled; the workspace
/// has no serialization dependency).
#[must_use]
pub fn render_json(rows: &[WireBenchRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"pr3-wire-pipelining\",\n");
    out.push_str(&EnvMeta::capture("uds").to_json_line());
    out.push_str("  \"transport\": \"uds\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"collective\": \"{}\", \"window\": {}, \"n\": {}, \
             \"k\": {}, \"radix\": {}, \
             \"block\": {}, \"rounds\": {}, \"bytes_moved\": {}, \"reps\": {}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}, \"mbps\": {:.2}, \
             \"avg_window_occupancy\": {:.3}, \"piggyback_ratio\": {:.3}, \
             \"retransmits\": {}}}{}\n",
            r.collective,
            r.window,
            r.n,
            r.k,
            r.radix,
            r.block,
            r.rounds,
            r.bytes_moved,
            r.reps,
            r.p50_ns,
            r.p99_ns,
            r.mean_ns,
            r.mbps,
            r.avg_window_occupancy,
            r.piggyback_ratio,
            r.retransmits,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Autotune bench: planner dispatch vs every fixed radix.
// ---------------------------------------------------------------------

/// The planner-vs-fixed-radix matrix: each block size runs once per
/// fixed radix plus once under full planner dispatch with a live
/// [`calibrated_fit`] of the socket transport.
#[derive(Debug, Clone)]
pub struct AutotuneBenchConfig {
    /// Cluster size.
    pub n: usize,
    /// Ports per round.
    pub ports: usize,
    /// Block sizes to sweep.
    pub blocks: Vec<usize>,
    /// Fixed radices to race the planner against.
    pub radices: Vec<usize>,
    /// Timed collectives per cluster run.
    pub reps: usize,
    /// Independent cluster runs pooled per cell.
    pub samples: usize,
    /// Per-run watchdog.
    pub timeout: Duration,
}

impl Default for AutotuneBenchConfig {
    /// The tracked shape (same cluster as the pr3 wire bench): `n = 8`,
    /// `k = 2`, blocks from start-up-bound to bandwidth-bound.
    fn default() -> Self {
        Self {
            n: 8,
            ports: 2,
            blocks: vec![256, 4096, 65536],
            radices: vec![2, 3, 4, 8],
            reps: 6,
            samples: 3,
            timeout: Duration::from_secs(60),
        }
    }
}

/// One cell of the autotune matrix.
#[derive(Debug, Clone)]
pub struct AutotuneRow {
    /// `"fixed-r<r>"` or `"auto"`.
    pub scheme: String,
    /// Label of the plan actually executed (e.g. `"bruck-r3"`,
    /// `"direct"`).
    pub plan: String,
    /// Cluster size.
    pub n: usize,
    /// Ports per round.
    pub k: usize,
    /// Block size in bytes.
    pub block: usize,
    /// Executed communication rounds per collective.
    pub rounds: u64,
    /// Payload bytes the cluster moves per collective.
    pub bytes_moved: u64,
    /// Pooled rep count behind the percentiles.
    pub reps: usize,
    /// Fastest cluster-wide lap (ns) — the schedule's cost with the
    /// least scheduler interference, the statistic the summary compares.
    pub min_ns: u64,
    /// Median cluster-wide wall clock per collective (ns).
    pub p50_ns: u64,
    /// 99th-percentile wall clock (ns).
    pub p99_ns: u64,
    /// Mean wall clock (ns).
    pub mean_ns: u64,
    /// Cluster goodput in MB/s.
    pub mbps: f64,
    /// Wall time the fitted model predicted for this plan (ns).
    pub predicted_ns: u64,
}

/// Probe the socket transport once and return the fit every subsequent
/// cluster run will reuse from the calibration cache.
///
/// # Errors
///
/// Propagates cluster setup or probe failures as a message.
pub fn probe_socket_fit(cfg: &AutotuneBenchConfig) -> Result<LinearFit, String> {
    let cluster_cfg = ClusterConfig::new(cfg.n)
        .with_ports(cfg.ports)
        .with_timeout(cfg.timeout)
        .with_reliability(Reliability::default());
    let out = bruck_net::SocketCluster::run(&cluster_cfg, calibrated_fit)
        .map_err(|e| format!("calibration probe: {e}"))?;
    Ok(out.results[0])
}

/// Run every scheme at one block size, **interleaved in one cluster
/// run**: each timed rep cycles through all fixed radices and the auto
/// path back to back, so every scheme's laps sample the same instant of
/// host-scheduler weather. Separate cells would let a noisy minute make
/// one radix look slow; pairing removes that.
///
/// # Errors
///
/// Propagates cluster setup or collective failures as a message.
pub fn run_autotune_block(
    cfg: &AutotuneBenchConfig,
    block: usize,
    fit: &LinearFit,
) -> Result<Vec<AutotuneRow>, String> {
    let (n, reps) = (cfg.n, cfg.reps.max(1));
    // `Some(r)` = forced radix, `None` = planner dispatch.
    let schemes: Vec<Option<usize>> = cfg
        .radices
        .iter()
        .map(|&r| Some(r))
        .chain(std::iter::once(None))
        .collect();
    let tunings: Vec<Tuning> = schemes
        .iter()
        .filter_map(|s| s.map(|r| Tuning::builder().radix(r).build()))
        .collect();
    let cluster_cfg = ClusterConfig::new(n)
        .with_ports(cfg.ports)
        .with_timeout(cfg.timeout)
        .with_reliability(Reliability::default());

    // pooled[scheme] = cluster-wide lap times across all samples.
    let mut pooled: Vec<Vec<u64>> = vec![Vec::with_capacity(reps * cfg.samples); schemes.len()];
    for _ in 0..cfg.samples.max(1) {
        let schemes_ref = &schemes;
        let tunings_ref = &tunings;
        let body = |ep: &mut bruck_net::Endpoint| {
            let input = verify::index_input(ep.rank(), n, block);
            let expected = verify::index_expected(ep.rank(), n, block);
            // The fit is cached process-globally under the transport
            // kind, so this is a cheap broadcast, not a re-probe. Doing
            // it inside the body keeps the auto path honest: it pays
            // for its own model lookup.
            let model = calibrated_fit(ep)?.model;
            let run_one =
                |ep: &mut bruck_net::Endpoint, scheme: &Option<usize>| -> Result<(), NetError> {
                    let got = match scheme {
                        Some(r) => {
                            let idx = schemes_ref
                                .iter()
                                .position(|s| s.as_ref() == Some(r))
                                .expect("scheme came from this list");
                            alltoall(ep, &input, block, &tunings_ref[idx])?
                        }
                        None => alltoall_auto(ep, &input, block, &model)?.0,
                    };
                    if got != expected {
                        return Err(NetError::App("alltoall bytes wrong".into()));
                    }
                    Ok(())
                };
            for scheme in schemes_ref {
                run_one(ep, scheme)?; // warmup, untimed
            }
            let mut laps = vec![Vec::with_capacity(reps); schemes_ref.len()];
            for rep in 0..reps {
                // Rotate the cycle's starting scheme each rep so no
                // scheme systematically inherits a fixed position's
                // cache/scheduler state (the last slot in a cycle
                // otherwise measures hot).
                for pos in 0..schemes_ref.len() {
                    let si = (rep + pos) % schemes_ref.len();
                    // Re-synchronise before every timed lap: without
                    // this, a straggler rank in one collective skews the
                    // measured start of the next, and the skew lands on
                    // whichever scheme happens to run next in the cycle.
                    barrier_dissemination(ep)?;
                    let t0 = Instant::now();
                    run_one(ep, &schemes_ref[si])?;
                    laps[si].push(t0.elapsed().as_nanos() as u64);
                }
            }
            Ok(laps)
        };
        let mut out = bruck_net::SocketCluster::run(&cluster_cfg, body)
            .map_err(|e| format!("autotune b={block}: {e}"))?;
        // Persist the calibration the schedules were planned under, so
        // the run's metrics can answer "was the model trustworthy?"
        // (BENCH_pr4 shipped with R² = 0.19 and nothing said so).
        out.metrics.fit = Some(*fit);
        // Cluster-wide lap for (scheme, rep) = the straggler rank's lap.
        for (si, bucket) in pooled.iter_mut().enumerate() {
            for j in 0..reps {
                bucket.push(
                    out.results
                        .iter()
                        .map(|laps| laps[si][j])
                        .max()
                        .unwrap_or_default(),
                );
            }
        }
    }

    let rows = schemes
        .iter()
        .zip(&mut pooled)
        .map(|(scheme, laps)| {
            let choice = match scheme {
                Some(r) => Tuning::builder()
                    .radix(*r)
                    .build()
                    .chosen_plan(n, block, cfg.ports),
                None => Planner::new(&fit.model).plan_index(n, cfg.ports, block),
            };
            laps.sort_unstable();
            let mean_ns = (laps.iter().sum::<u64>() / laps.len().max(1) as u64).max(1);
            // Goodput basis: the useful bytes an alltoall delivers are
            // n·(n−1)·b no matter which schedule carried them.
            let bytes_moved = (n * (n - 1) * block) as u64;
            AutotuneRow {
                scheme: scheme.map_or_else(|| "auto".into(), |r| format!("fixed-r{r}")),
                plan: choice.plan.label(),
                n,
                k: cfg.ports,
                block,
                rounds: choice.complexity.c1,
                bytes_moved,
                reps: laps.len(),
                min_ns: laps.first().copied().unwrap_or(0).max(1),
                p50_ns: percentile(laps, 50),
                p99_ns: percentile(laps, 99),
                mean_ns,
                mbps: bytes_moved as f64 / (mean_ns as f64 / 1e9) / 1e6,
                predicted_ns: (choice.predicted_time * 1e9) as u64,
            }
        })
        .collect();
    Ok(rows)
}

/// Run the full planner-vs-fixed matrix and return the rows plus the
/// fitted model they were planned under.
///
/// # Errors
///
/// Propagates the first failing cell.
pub fn run_autotune_matrix(
    cfg: &AutotuneBenchConfig,
) -> Result<(Vec<AutotuneRow>, LinearFit), String> {
    let fit = probe_socket_fit(cfg)?;
    let mut rows = Vec::new();
    for &block in &cfg.blocks {
        rows.extend(run_autotune_block(cfg, block, &fit)?);
    }
    Ok((rows, fit))
}

/// Per-block-size verdict: the auto row against the best and worst fixed
/// radix, on the **mean lap**. The schemes interleave inside one cluster
/// run with a barrier before every timed lap and a rotated cycle order
/// (see [`run_autotune_block`]) — a randomized block design — so every
/// scheme's laps sample the same host-scheduler noise and the paired
/// mean is the estimator that uses all of that pairing. The min is an
/// extreme order statistic of a heavy-tailed distribution and wanders
/// run to run; the paired means reproduce.
#[derive(Debug, Clone)]
pub struct AutotuneSummary {
    /// Block size in bytes.
    pub block: usize,
    /// Scheme label of the fastest fixed radix.
    pub best_fixed: String,
    /// Its mean lap (ns).
    pub best_fixed_ns: u64,
    /// Scheme label of the slowest fixed radix.
    pub worst_fixed: String,
    /// Its mean lap (ns).
    pub worst_fixed_ns: u64,
    /// Plan label the planner dispatched.
    pub auto_plan: String,
    /// The auto row's mean lap (ns).
    pub auto_ns: u64,
    /// `auto / best_fixed` — ≤ 1.05 means within 5% of the best.
    pub auto_vs_best: f64,
    /// `worst_fixed / auto` — ≥ 1.3 means the planner dodged a bad radix.
    pub worst_vs_auto: f64,
}

/// Fold the matrix rows into one [`AutotuneSummary`] per block size.
#[must_use]
pub fn summarize_autotune(rows: &[AutotuneRow]) -> Vec<AutotuneSummary> {
    let mut blocks: Vec<usize> = rows.iter().map(|r| r.block).collect();
    blocks.sort_unstable();
    blocks.dedup();
    blocks
        .iter()
        .filter_map(|&block| {
            let fixed: Vec<&AutotuneRow> = rows
                .iter()
                .filter(|r| r.block == block && r.scheme != "auto")
                .collect();
            let auto = rows
                .iter()
                .find(|r| r.block == block && r.scheme == "auto")?;
            let best = fixed.iter().min_by_key(|r| r.mean_ns)?;
            let worst = fixed.iter().max_by_key(|r| r.mean_ns)?;
            Some(AutotuneSummary {
                block,
                best_fixed: best.scheme.clone(),
                best_fixed_ns: best.mean_ns,
                worst_fixed: worst.scheme.clone(),
                worst_fixed_ns: worst.mean_ns,
                auto_plan: auto.plan.clone(),
                auto_ns: auto.mean_ns,
                auto_vs_best: auto.mean_ns as f64 / best.mean_ns.max(1) as f64,
                worst_vs_auto: worst.mean_ns as f64 / auto.mean_ns.max(1) as f64,
            })
        })
        .collect()
}

/// Render the autotune matrix as a human table.
#[must_use]
pub fn render_autotune_table(rows: &[AutotuneRow], fit: &LinearFit) -> String {
    let mut out = format!(
        "calibrated fit: β = {:.2}µs, τ = {:.4}µs/B, R² = {:.3} ({} samples)\n",
        fit.model.startup * 1e6,
        fit.model.per_byte * 1e6,
        fit.r_squared,
        fit.samples,
    );
    out.push_str(&format!(
        "{:<10} {:<12} {:>8} {:>4} {:>3} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "scheme", "plan", "block", "n", "k", "rounds", "MB/s", "min", "p50", "p99", "mean", "pred"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<12} {:>8} {:>4} {:>3} {:>6} {:>9.1} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            r.scheme,
            r.plan,
            r.block,
            r.n,
            r.k,
            r.rounds,
            r.mbps,
            fmt_ns(r.min_ns),
            fmt_ns(r.p50_ns),
            fmt_ns(r.p99_ns),
            fmt_ns(r.mean_ns),
            fmt_ns(r.predicted_ns),
        ));
    }
    for s in summarize_autotune(rows) {
        out.push_str(&format!(
            "b={}: auto ({}) {} vs best {} {} ({:.2}x) vs worst {} {} ({:.2}x)\n",
            s.block,
            s.auto_plan,
            fmt_ns(s.auto_ns),
            s.best_fixed,
            fmt_ns(s.best_fixed_ns),
            s.auto_vs_best,
            s.worst_fixed,
            fmt_ns(s.worst_fixed_ns),
            s.worst_vs_auto,
        ));
    }
    out
}

/// Render the tracked `BENCH_pr4.json` artifact (hand-rolled JSON).
#[must_use]
pub fn render_autotune_json(rows: &[AutotuneRow], fit: &LinearFit) -> String {
    let mut out = String::from("{\n  \"bench\": \"pr4-autotune\",\n");
    out.push_str(&EnvMeta::capture("uds").to_json_line());
    out.push_str("  \"transport\": \"uds\",\n");
    out.push_str(&format!(
        "  \"fit\": {{\"startup_s\": {:.9e}, \"per_byte_s\": {:.9e}, \"r_squared\": {:.4}, \"samples\": {}}},\n",
        fit.model.startup, fit.model.per_byte, fit.r_squared, fit.samples
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"plan\": \"{}\", \"n\": {}, \"k\": {}, \"block\": {}, \
             \"rounds\": {}, \"bytes_moved\": {}, \"reps\": {}, \"min_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"mean_ns\": {}, \"mbps\": {:.2}, \"predicted_ns\": {}}}{}\n",
            r.scheme,
            r.plan,
            r.n,
            r.k,
            r.block,
            r.rounds,
            r.bytes_moved,
            r.reps,
            r.min_ns,
            r.p50_ns,
            r.p99_ns,
            r.mean_ns,
            r.mbps,
            r.predicted_ns,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"summary\": [\n");
    let summaries = summarize_autotune(rows);
    for (i, s) in summaries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"block\": {}, \"auto_plan\": \"{}\", \"auto_mean_ns\": {}, \
             \"best_fixed\": \"{}\", \"best_fixed_mean_ns\": {}, \
             \"worst_fixed\": \"{}\", \"worst_fixed_mean_ns\": {}, \
             \"auto_vs_best\": {:.3}, \"worst_vs_auto\": {:.3}}}{}\n",
            s.block,
            s.auto_plan,
            s.auto_ns,
            s.best_fixed,
            s.best_fixed_ns,
            s.worst_fixed,
            s.worst_fixed_ns,
            s.auto_vs_best,
            s.worst_vs_auto,
            if i + 1 < summaries.len() { "," } else { "" },
        ));
    }
    let max_vs_best = summaries
        .iter()
        .map(|s| s.auto_vs_best)
        .fold(0.0f64, f64::max);
    let max_vs_worst = summaries
        .iter()
        .map(|s| s.worst_vs_auto)
        .fold(0.0f64, f64::max);
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"criteria\": {{\"max_auto_vs_best\": {:.3}, \"within_5pct_of_best_everywhere\": {}, \
         \"max_worst_vs_auto\": {:.3}, \"beats_worst_by_1_3x_somewhere\": {}}}\n}}\n",
        max_vs_best,
        max_vs_best <= 1.05,
        max_vs_worst,
        max_vs_worst >= 1.3,
    ));
    out
}

// ---------------------------------------------------------------------
// Liveness bench: the wall-clock price of the guard stack.
// ---------------------------------------------------------------------

/// One row of the liveness-overhead comparison. The deadline rows come
/// from **one** cluster run with plain and budgeted laps interleaved
/// (paired design, see [`run_liveness_overhead`]); the watchdog rows
/// are whole-cluster A/B runs because probing is a cluster-config knob.
#[derive(Debug, Clone)]
pub struct LivenessRow {
    /// `"deadline-off"` / `"deadline-on"` (paired, in-run) or
    /// `"watchdog-off"` / `"watchdog-on"` (alternating cluster runs).
    pub mode: &'static str,
    /// Cluster size.
    pub n: usize,
    /// Ports per round.
    pub k: usize,
    /// Block size in bytes.
    pub block: usize,
    /// Pooled rep count behind the percentiles.
    pub reps: usize,
    /// Median cluster-wide wall clock per collective (ns).
    pub p50_ns: u64,
    /// 99th-percentile wall clock (ns).
    pub p99_ns: u64,
    /// Mean wall clock (ns).
    pub mean_ns: u64,
    /// Cluster goodput in MB/s.
    pub mbps: f64,
    /// Watchdog probes the cluster sent — ordinary traffic is the
    /// heartbeat, so on a busy healthy wire this stays near zero.
    pub probes_sent: u64,
    /// Reliability-layer retransmissions across the run.
    pub retransmits: u64,
}

/// Per-lap budget the deadline-on laps arm. Generous: the point is to
/// pay the arm/feasibility/clamped-wait bookkeeping on every lap, not
/// to ever trip it on a healthy wire.
const LIVENESS_LAP_BUDGET: Duration = Duration::from_secs(10);

/// Straggler-max laps and wire counters accumulated toward one row.
#[derive(Default)]
struct LivenessAccum {
    laps: Vec<u64>,
    bytes_per_collective: u64,
    probes_sent: u64,
    retransmits: u64,
}

impl LivenessAccum {
    fn fold(&self, cfg: &WireBenchConfig, mode: &'static str) -> LivenessRow {
        let mut pooled = self.laps.clone();
        pooled.sort_unstable();
        let mean_ns = (pooled.iter().sum::<u64>() / pooled.len().max(1) as u64).max(1);
        LivenessRow {
            mode,
            n: cfg.n,
            k: cfg.ports,
            block: cfg.block,
            reps: pooled.len(),
            p50_ns: percentile(&pooled, 50),
            p99_ns: percentile(&pooled, 99),
            mean_ns,
            mbps: self.bytes_per_collective as f64 / (mean_ns as f64 / 1e9) / 1e6,
            probes_sent: self.probes_sent,
            retransmits: self.retransmits,
        }
    }
}

/// One cluster run measuring the **deadline** layer with a paired
/// design: every rep runs one plain [`alltoall`] lap and one
/// [`alltoall_deadline`] lap back to back behind a re-synchronising
/// barrier, with the in-pair order rotating each rep (the
/// [`run_autotune_block`] discipline). Both lap kinds sample the same
/// instant of host-scheduler weather, so their mean difference isolates
/// the arm/feasibility/clamped-wait bookkeeping — a separate-runs A/B
/// at this shape drifts by ±15% on a busy box, an order of magnitude
/// above the effect being measured.
fn liveness_deadline_sample(
    cfg: &WireBenchConfig,
    plain: &mut LivenessAccum,
    armed: &mut LivenessAccum,
) -> Result<(), String> {
    let (n, block, reps) = (cfg.n, cfg.block, cfg.reps.max(1));
    let tuning = Tuning::builder().planner(true).build();
    let cluster_cfg = ClusterConfig::new(n)
        .with_ports(cfg.ports)
        .with_timeout(cfg.timeout)
        .with_reliability(Reliability::default());
    let body = |ep: &mut bruck_net::Endpoint| {
        let input = verify::index_input(ep.rank(), n, block);
        let expected = verify::index_expected(ep.rank(), n, block);
        let run_one = |ep: &mut bruck_net::Endpoint, armed: bool| -> Result<(), NetError> {
            let got = if armed {
                alltoall_deadline(ep, &input, block, &tuning, LIVENESS_LAP_BUDGET)?
            } else {
                alltoall(ep, &input, block, &tuning)?
            };
            if got != expected {
                return Err(NetError::App("alltoall bytes wrong".into()));
            }
            Ok(())
        };
        run_one(ep, false)?; // warmup, untimed
        run_one(ep, true)?;
        let mut laps: Vec<Vec<u64>> = (0..2).map(|_| Vec::with_capacity(reps)).collect();
        for rep in 0..reps {
            for pos in 0..2 {
                let deadline_lap = (rep + pos) % 2 == 1;
                barrier_dissemination(ep)?;
                let t0 = Instant::now();
                run_one(ep, deadline_lap)?;
                laps[usize::from(deadline_lap)].push(t0.elapsed().as_nanos() as u64);
            }
        }
        Ok(laps)
    };
    let out = bruck_net::SocketCluster::run(&cluster_cfg, body)
        .map_err(|e| format!("liveness (deadline pair): {e}"))?;
    // Cluster-wide wall clock for (kind, rep) = the straggler's lap.
    for (kind, accum) in [&mut *plain, armed].into_iter().enumerate() {
        for j in 0..reps {
            accum.laps.push(
                out.results
                    .iter()
                    .map(|laps| laps[kind][j])
                    .max()
                    .unwrap_or_default(),
            );
        }
        // 2 timed laps + 2 warmups per rep-pair, half of each kind.
        accum.bytes_per_collective = out.metrics.total_bytes() / (2 * (reps + 1)) as u64;
    }
    let link = out.metrics.link_totals();
    armed.probes_sent += link.probes_sent;
    armed.retransmits += link.retransmits;
    Ok(())
}

/// One cluster run measuring the **watchdog** layer: plain laps only,
/// probing either at the [`Reliability`] default or disabled
/// (`probe_retries = 0` — the watchdog never scans, probes, or
/// escalates). Config-level, so this leg cannot be lap-paired.
fn liveness_watchdog_sample(
    cfg: &WireBenchConfig,
    probing: bool,
    accum: &mut LivenessAccum,
) -> Result<(), String> {
    let (n, block, reps) = (cfg.n, cfg.block, cfg.reps.max(1));
    let tuning = Tuning::builder().planner(true).build();
    let reliability = if probing {
        Reliability::default()
    } else {
        Reliability::default().with_probing(Duration::from_millis(25), 0)
    };
    let cluster_cfg = ClusterConfig::new(n)
        .with_ports(cfg.ports)
        .with_timeout(cfg.timeout)
        .with_reliability(reliability);
    let body = |ep: &mut bruck_net::Endpoint| {
        let input = verify::index_input(ep.rank(), n, block);
        let expected = verify::index_expected(ep.rank(), n, block);
        let run_one = |ep: &mut bruck_net::Endpoint| -> Result<(), NetError> {
            if alltoall(ep, &input, block, &tuning)? != expected {
                return Err(NetError::App("alltoall bytes wrong".into()));
            }
            Ok(())
        };
        run_one(ep)?; // warmup, untimed
        let mut laps = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            run_one(ep)?;
            laps.push(t0.elapsed().as_nanos() as u64);
        }
        Ok(laps)
    };
    let out = bruck_net::SocketCluster::run(&cluster_cfg, body).map_err(|e| {
        format!(
            "liveness (watchdog {}): {e}",
            if probing { "on" } else { "off" }
        )
    })?;
    for j in 0..reps {
        accum.laps.push(
            out.results
                .iter()
                .map(|laps| laps[j])
                .max()
                .unwrap_or_default(),
        );
    }
    accum.bytes_per_collective = out.metrics.total_bytes() / (reps + 1) as u64;
    let link = out.metrics.link_totals();
    accum.probes_sent += link.probes_sent;
    accum.retransmits += link.retransmits;
    Ok(())
}

/// Measure both liveness layers at one shape.
///
/// The deadline leg pairs plain and budgeted laps inside each cluster
/// run. The watchdog leg alternates whole cluster runs, flipping the
/// in-pair order every sample so neither config systematically
/// inherits the warmer machine the second run of a pair sees.
///
/// # Errors
///
/// Propagates the first failing cluster run.
pub fn run_liveness_overhead(cfg: &WireBenchConfig) -> Result<Vec<LivenessRow>, String> {
    let mut plain = LivenessAccum::default();
    let mut armed = LivenessAccum::default();
    let mut wd_off = LivenessAccum::default();
    let mut wd_on = LivenessAccum::default();
    for s in 0..cfg.samples.max(1) {
        liveness_deadline_sample(cfg, &mut plain, &mut armed)?;
        let first_on = s % 2 == 1;
        liveness_watchdog_sample(
            cfg,
            first_on,
            if first_on { &mut wd_on } else { &mut wd_off },
        )?;
        liveness_watchdog_sample(
            cfg,
            !first_on,
            if first_on { &mut wd_off } else { &mut wd_on },
        )?;
    }
    Ok(vec![
        plain.fold(cfg, "deadline-off"),
        armed.fold(cfg, "deadline-on"),
        wd_off.fold(cfg, "watchdog-off"),
        wd_on.fold(cfg, "watchdog-on"),
    ])
}

fn overhead_between(rows: &[LivenessRow], on: &str, off: &str) -> Option<f64> {
    let of = |mode: &str| {
        rows.iter()
            .find(|r| r.mode == mode)
            .map(|r| r.mean_ns as f64)
    };
    Some(of(on)? / of(off)? - 1.0)
}

/// Fractional mean-lap cost of arming a per-collective deadline
/// (`0.03` = 3% slower armed), from the lap-paired rows.
#[must_use]
pub fn deadline_overhead(rows: &[LivenessRow]) -> Option<f64> {
    overhead_between(rows, "deadline-on", "deadline-off")
}

/// Fractional mean-lap cost of the straggler watchdog, from the
/// alternating A/B rows.
#[must_use]
pub fn watchdog_overhead(rows: &[LivenessRow]) -> Option<f64> {
    overhead_between(rows, "watchdog-on", "watchdog-off")
}

/// Render the liveness comparison as a human table.
#[must_use]
pub fn render_liveness_table(rows: &[LivenessRow]) -> String {
    let mut out = format!(
        "{:<13} {:>4} {:>3} {:>8} {:>9} {:>9} {:>9} {:>9} {:>6} {:>5}\n",
        "mode", "n", "k", "block", "MB/s", "p50", "p99", "mean", "probes", "rexmt"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:>4} {:>3} {:>8} {:>9.1} {:>9} {:>9} {:>9} {:>6} {:>5}\n",
            r.mode,
            r.n,
            r.k,
            r.block,
            r.mbps,
            fmt_ns(r.p50_ns),
            fmt_ns(r.p99_ns),
            fmt_ns(r.mean_ns),
            r.probes_sent,
            r.retransmits,
        ));
    }
    if let Some(o) = deadline_overhead(rows) {
        out.push_str(&format!(
            "deadline overhead: {:+.2}% mean lap (paired in-run)\n",
            o * 100.0
        ));
    }
    if let Some(o) = watchdog_overhead(rows) {
        out.push_str(&format!(
            "watchdog overhead: {:+.2}% mean lap (alternating A/B runs)\n",
            o * 100.0
        ));
    }
    out
}

/// Render the tracked `BENCH_pr5.json` artifact (hand-rolled JSON).
#[must_use]
pub fn render_liveness_json(rows: &[LivenessRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"pr5-liveness-overhead\",\n");
    out.push_str(&EnvMeta::capture("uds").to_json_line());
    out.push_str("  \"transport\": \"uds\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"n\": {}, \"k\": {}, \"block\": {}, \"reps\": {}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}, \"mbps\": {:.2}, \
             \"probes_sent\": {}, \"retransmits\": {}}}{}\n",
            r.mode,
            r.n,
            r.k,
            r.block,
            r.reps,
            r.p50_ns,
            r.p99_ns,
            r.mean_ns,
            r.mbps,
            r.probes_sent,
            r.retransmits,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    let dl = deadline_overhead(rows).unwrap_or(0.0);
    let wd = watchdog_overhead(rows).unwrap_or(0.0);
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"criteria\": {{\"deadline_overhead\": {:.4}, \"watchdog_overhead\": {:.4}, \
         \"under_5pct\": {}}}\n}}\n",
        dl,
        wd,
        dl < 0.05 && wd < 0.05,
    ));
    out
}

// ---------------------------------------------------------------------
// Recovery bench: the steady-state price of the membership layer.
// ---------------------------------------------------------------------

/// One faultless cluster run toward the recovery A/B: the same plain
/// alltoall laps either under [`SocketCluster::run`] (no membership
/// machinery) or under [`SocketCluster::run_resilient`] with a
/// rejoin-capable policy armed (view registry allocated, recovery loop
/// wrapping the run, per-attempt socket incarnations). Driver-level, so
/// this leg cannot be lap-paired — samples alternate whole runs like
/// the watchdog leg.
fn recovery_sample(
    cfg: &WireBenchConfig,
    resilient: bool,
    accum: &mut LivenessAccum,
) -> Result<(), String> {
    use bruck_net::{RecoveryPolicy, SocketCluster};
    let (n, block, reps) = (cfg.n, cfg.block, cfg.reps.max(1));
    let tuning = Tuning::builder().planner(true).build();
    let cluster_cfg = ClusterConfig::new(n)
        .with_ports(cfg.ports)
        .with_timeout(cfg.timeout)
        .with_reliability(Reliability::default())
        .with_recovery(RecoveryPolicy::WaitForRejoin {
            budget: Duration::from_millis(100),
        });
    let body = |ep: &mut bruck_net::Endpoint| {
        let input = verify::index_input(ep.rank(), n, block);
        let expected = verify::index_expected(ep.rank(), n, block);
        let run_one = |ep: &mut bruck_net::Endpoint| -> Result<(), NetError> {
            if alltoall(ep, &input, block, &tuning)? != expected {
                return Err(NetError::App("alltoall bytes wrong".into()));
            }
            Ok(())
        };
        run_one(ep)?; // warmup, untimed
        let mut laps = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            run_one(ep)?;
            laps.push(t0.elapsed().as_nanos() as u64);
        }
        Ok(laps)
    };
    let out = if resilient {
        let res = SocketCluster::run_resilient(&cluster_cfg, 2, |ep, _view| body(ep))
            .map_err(|e| format!("recovery (resilient): {e}"))?;
        res.output
    } else {
        SocketCluster::run(&cluster_cfg, body).map_err(|e| format!("recovery (plain): {e}"))?
    };
    for j in 0..reps {
        accum.laps.push(
            out.results
                .iter()
                .map(|laps| laps[j])
                .max()
                .unwrap_or_default(),
        );
    }
    accum.bytes_per_collective = out.metrics.total_bytes() / (reps + 1) as u64;
    let link = out.metrics.link_totals();
    accum.probes_sent += link.probes_sent;
    accum.retransmits += link.retransmits;
    Ok(())
}

/// Measure the steady-state membership overhead at one shape: the same
/// faultless alltoall under the plain driver vs the resilient driver
/// with `WaitForRejoin` armed. In-pair order flips every sample so
/// neither driver systematically inherits the warmer machine.
///
/// # Errors
///
/// Propagates the first failing cluster run.
pub fn run_recovery_overhead(cfg: &WireBenchConfig) -> Result<Vec<LivenessRow>, String> {
    let mut plain = LivenessAccum::default();
    let mut armed = LivenessAccum::default();
    for s in 0..cfg.samples.max(1) {
        let first_on = s % 2 == 1;
        recovery_sample(
            cfg,
            first_on,
            if first_on { &mut armed } else { &mut plain },
        )?;
        recovery_sample(
            cfg,
            !first_on,
            if first_on { &mut plain } else { &mut armed },
        )?;
    }
    Ok(vec![
        plain.fold(cfg, "recovery-off"),
        armed.fold(cfg, "recovery-on"),
    ])
}

/// Fractional mean-lap cost of arming the membership/recovery layer on
/// a healthy cluster, from the alternating A/B rows.
#[must_use]
pub fn recovery_overhead(rows: &[LivenessRow]) -> Option<f64> {
    overhead_between(rows, "recovery-on", "recovery-off")
}

/// Render the recovery comparison as a human table.
#[must_use]
pub fn render_recovery_table(rows: &[LivenessRow]) -> String {
    let mut out = format!(
        "{:<13} {:>4} {:>3} {:>8} {:>9} {:>9} {:>9} {:>9} {:>6} {:>5}\n",
        "mode", "n", "k", "block", "MB/s", "p50", "p99", "mean", "probes", "rexmt"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:>4} {:>3} {:>8} {:>9.1} {:>9} {:>9} {:>9} {:>6} {:>5}\n",
            r.mode,
            r.n,
            r.k,
            r.block,
            r.mbps,
            fmt_ns(r.p50_ns),
            fmt_ns(r.p99_ns),
            fmt_ns(r.mean_ns),
            r.probes_sent,
            r.retransmits,
        ));
    }
    if let Some(o) = recovery_overhead(rows) {
        out.push_str(&format!(
            "recovery overhead: {:+.2}% mean lap (alternating A/B runs)\n",
            o * 100.0
        ));
    }
    out
}

/// Render the tracked `BENCH_pr7.json` artifact (hand-rolled JSON).
#[must_use]
pub fn render_recovery_json(rows: &[LivenessRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"pr7-recovery-overhead\",\n");
    out.push_str(&EnvMeta::capture("uds").to_json_line());
    out.push_str("  \"transport\": \"uds\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"n\": {}, \"k\": {}, \"block\": {}, \"reps\": {}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}, \"mbps\": {:.2}, \
             \"probes_sent\": {}, \"retransmits\": {}}}{}\n",
            r.mode,
            r.n,
            r.k,
            r.block,
            r.reps,
            r.p50_ns,
            r.p99_ns,
            r.mean_ns,
            r.mbps,
            r.probes_sent,
            r.retransmits,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    let ov = recovery_overhead(rows).unwrap_or(0.0);
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"criteria\": {{\"recovery_overhead\": {ov:.4}, \"under_5pct\": {}}}\n}}\n",
        ov < 0.05,
    ));
    out
}

// ---------------------------------------------------------------------
// Skew bench: the non-uniform Bruck family over Zipf workloads.
// ---------------------------------------------------------------------

/// The non-uniform family sweep: at each Zipf `s`, race the forced
/// direct, padded, and two-phase members against `alltoallv_auto`'s
/// skew-driven dispatch on the same seeded workload.
#[derive(Debug, Clone)]
pub struct SkewBenchConfig {
    /// Cluster size.
    pub n: usize,
    /// Ports per round.
    pub ports: usize,
    /// Mean per-pair bytes (each source sends `base · n` total).
    pub base: usize,
    /// Zipf exponents to sweep.
    pub svals: Vec<f64>,
    /// Workload seed.
    pub seed: u64,
    /// Timed collectives per cluster run.
    pub reps: usize,
    /// Independent cluster runs pooled per point.
    pub samples: usize,
    /// Per-run watchdog.
    pub timeout: Duration,
}

impl Default for SkewBenchConfig {
    /// The tracked shape: `n = 8`, `k = 2`, 8 KiB mean blocks,
    /// `s ∈ {0, 0.5, 1.0, 1.5}`.
    fn default() -> Self {
        Self {
            n: 8,
            ports: 2,
            base: 8 * 1024,
            svals: vec![0.0, 0.5, 1.0, 1.5],
            seed: 6,
            reps: 6,
            samples: 3,
            timeout: Duration::from_secs(60),
        }
    }
}

/// One cell of the skew matrix.
#[derive(Debug, Clone)]
pub struct SkewRow {
    /// `"direct"`, `"padded"`, `"twophase"`, or `"auto"`.
    pub scheme: &'static str,
    /// Label of the family member actually executed.
    pub plan: String,
    /// Zipf exponent of the workload.
    pub s: f64,
    /// Measured max/mean skew of the size matrix.
    pub skew_ratio: f64,
    /// Cluster size.
    pub n: usize,
    /// Ports per round.
    pub k: usize,
    /// Payload bytes the cluster moves per collective (off-diagonal sum).
    pub bytes_moved: u64,
    /// Pooled rep count behind the percentiles.
    pub reps: usize,
    /// Fastest cluster-wide lap (ns).
    pub min_ns: u64,
    /// Median cluster-wide wall clock (ns).
    pub p50_ns: u64,
    /// 99th-percentile wall clock (ns).
    pub p99_ns: u64,
    /// Mean wall clock (ns).
    pub mean_ns: u64,
    /// Cluster goodput in MB/s.
    pub mbps: f64,
    /// Wall time the fitted model predicts for this member (ns).
    pub predicted_ns: u64,
}

/// Pick the cheapest padded radix and the cheapest two-phase
/// `(radix, quota)` for a size matrix under a model — the forced
/// schemes the sweep races, so "padded" always means *the best padded
/// member*, not an arbitrary radix.
fn best_family_members(
    n: usize,
    k: usize,
    matrix: &[u64],
    model: &dyn bruck_model::cost::CostModel,
) -> (VMethod, VIndexPlan, VMethod, VIndexPlan) {
    let planner = Planner::new(model);
    let pick = |plans: Vec<VIndexPlan>| -> VIndexPlan {
        plans
            .into_iter()
            .min_by(|a, b| {
                let ta = model.estimate(planner.vindex_complexity(a, n, k, matrix));
                let tb = model.estimate(planner.vindex_complexity(b, n, k, matrix));
                ta.partial_cmp(&tb).expect("finite estimates")
            })
            .expect("non-empty candidate list")
    };
    let padded = pick((2..=n).map(|radix| VIndexPlan::Padded { radix }).collect());
    let quotas = bruck_model::planner::quota_candidates(n, matrix);
    let two_candidates: Vec<VIndexPlan> = if quotas.is_empty() {
        // Degenerate (uniform) workload: any quota ≥ max reduces to
        // padded; race that so the scheme still exists in the table.
        (2..=n)
            .map(|radix| VIndexPlan::TwoPhase {
                radix,
                quota: usize::MAX,
            })
            .collect()
    } else {
        quotas
            .iter()
            .flat_map(|&quota| (2..=n).map(move |radix| VIndexPlan::TwoPhase { radix, quota }))
            .collect()
    };
    let two = pick(two_candidates);
    let (pm, tm) = match (padded, two) {
        (VIndexPlan::Padded { radix: pr }, VIndexPlan::TwoPhase { radix: tr, quota }) => (
            VMethod::Padded { radix: pr },
            VMethod::TwoPhase {
                radix: tr,
                quota: Some(quota),
            },
        ),
        _ => unreachable!("candidates are padded / two-phase by construction"),
    };
    (pm, padded, tm, two)
}

/// Run every family member at one Zipf point, interleaved in one
/// cluster run with the same pairing discipline as
/// [`run_autotune_block`]: untimed warmup cycle, a dissemination
/// barrier before every timed lap, and a rotated cycle order so no
/// scheme inherits a fixed slot's cache state.
///
/// # Errors
///
/// Propagates cluster setup or collective failures as a message.
pub fn run_skew_point(
    cfg: &SkewBenchConfig,
    s: f64,
    fit: &LinearFit,
) -> Result<Vec<SkewRow>, String> {
    let (n, k, reps) = (cfg.n, cfg.ports, cfg.reps.max(1));
    let matrix = crate::skew::zipf_matrix(n, cfg.base, s, cfg.seed);
    let matrix_u64: Vec<u64> = matrix.iter().map(|&c| c as u64).collect();
    let skew_ratio = bruck_model::planner::skew_ratio(n, &matrix_u64);
    let (padded_m, padded_plan, two_m, two_plan) =
        best_family_members(n, k, &matrix_u64, &fit.model);
    let auto_choice = Planner::new(&fit.model).plan_vindex(n, k, &matrix_u64);
    // (label, forced member or None = planner dispatch, plan that runs).
    let schemes: Vec<(&'static str, Option<VMethod>, VIndexPlan)> = vec![
        ("direct", Some(VMethod::Direct), VIndexPlan::Direct),
        ("padded", Some(padded_m), padded_plan),
        ("twophase", Some(two_m), two_plan),
        ("auto", None, auto_choice.plan),
    ];
    let cluster_cfg = ClusterConfig::new(n)
        .with_ports(k)
        .with_timeout(cfg.timeout)
        .with_reliability(Reliability::default());

    let mut pooled: Vec<Vec<u64>> = vec![Vec::with_capacity(reps * cfg.samples); schemes.len()];
    for _ in 0..cfg.samples.max(1) {
        let schemes_ref = &schemes;
        let matrix_ref = &matrix;
        let body = |ep: &mut bruck_net::Endpoint| {
            let rank = bruck_net::Endpoint::rank(ep);
            let counts: Vec<usize> = matrix_ref[rank * n..(rank + 1) * n].to_vec();
            let layout = VLayout::from_counts(&counts);
            let mut input = vec![0u8; layout.total()];
            for j in 0..n {
                for (t, byte) in input[layout.range(j)].iter_mut().enumerate() {
                    *byte = verify::content_byte(rank, j, t);
                }
            }
            let mut expected = Vec::new();
            for src in 0..n {
                let len = matrix_ref[src * n + rank];
                expected.extend((0..len).map(|t| verify::content_byte(src, rank, t)));
            }
            let model = calibrated_fit(ep)?.model;
            let mut got = Vec::new();
            let run_one = |ep: &mut bruck_net::Endpoint,
                           got: &mut Vec<u8>,
                           forced: &Option<VMethod>|
             -> Result<(), NetError> {
                match forced {
                    Some(m) => {
                        let tuning = Tuning::builder().vmethod(*m).build();
                        alltoallv_into(ep, &input, &layout, &tuning, got)?;
                    }
                    None => {
                        alltoallv_auto_into(ep, &input, &layout, &model, got)?;
                    }
                }
                if *got != expected {
                    return Err(NetError::App("alltoallv bytes wrong".into()));
                }
                Ok(())
            };
            for (_, forced, _) in schemes_ref {
                run_one(ep, &mut got, forced)?; // warmup, untimed
            }
            let mut laps = vec![Vec::with_capacity(reps); schemes_ref.len()];
            for rep in 0..reps {
                for pos in 0..schemes_ref.len() {
                    // Rotate the starting scheme per rep AND flip the
                    // cycle direction on odd reps: rotation alone keeps
                    // the cyclic successor order fixed, so every scheme
                    // would always run right after the same predecessor
                    // and inherit its transport debt (owed acks,
                    // in-flight retransmit state) systematically.
                    let m = schemes_ref.len();
                    let si = if rep % 2 == 0 {
                        (rep + pos) % m
                    } else {
                        (rep + m - pos) % m
                    };
                    barrier_dissemination(ep)?;
                    let t0 = Instant::now();
                    run_one(ep, &mut got, &schemes_ref[si].1)?;
                    laps[si].push(t0.elapsed().as_nanos() as u64);
                }
            }
            Ok(laps)
        };
        let mut out = bruck_net::SocketCluster::run(&cluster_cfg, body)
            .map_err(|e| format!("skew s={s}: {e}"))?;
        out.metrics.fit = Some(*fit);
        for (si, bucket) in pooled.iter_mut().enumerate() {
            for j in 0..reps {
                bucket.push(
                    out.results
                        .iter()
                        .map(|laps| laps[si][j])
                        .max()
                        .unwrap_or_default(),
                );
            }
        }
    }

    let bytes_moved: u64 = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .filter(|&(i, j)| i != j)
        .map(|(i, j)| matrix_u64[i * n + j])
        .sum();
    let planner = Planner::new(&fit.model);
    let rows = schemes
        .iter()
        .zip(&mut pooled)
        .map(|((label, _, plan), laps)| {
            laps.sort_unstable();
            let mean_ns = (laps.iter().sum::<u64>() / laps.len().max(1) as u64).max(1);
            let predicted = fit
                .model
                .estimate(planner.vindex_complexity(plan, n, k, &matrix_u64));
            SkewRow {
                scheme: label,
                plan: plan.label(),
                s,
                skew_ratio,
                n,
                k,
                bytes_moved,
                reps: laps.len(),
                min_ns: laps.first().copied().unwrap_or(0).max(1),
                p50_ns: percentile(laps, 50),
                p99_ns: percentile(laps, 99),
                mean_ns,
                mbps: bytes_moved as f64 / (mean_ns as f64 / 1e9) / 1e6,
                predicted_ns: (predicted * 1e9) as u64,
            }
        })
        .collect();
    Ok(rows)
}

/// Run the full skew sweep and return the rows plus the fitted model
/// the forced members were selected under.
///
/// # Errors
///
/// Propagates the first failing point.
pub fn run_skew_matrix(cfg: &SkewBenchConfig) -> Result<(Vec<SkewRow>, LinearFit), String> {
    let fit = probe_socket_fit(&AutotuneBenchConfig {
        n: cfg.n,
        ports: cfg.ports,
        timeout: cfg.timeout,
        ..AutotuneBenchConfig::default()
    })?;
    let mut rows = Vec::new();
    for &s in &cfg.svals {
        rows.extend(run_skew_point(cfg, s, &fit)?);
    }
    Ok((rows, fit))
}

/// Per-skew-point verdict on the paired means: auto against the best
/// forced member, and the best of {padded, two-phase} against direct.
#[derive(Debug, Clone)]
pub struct SkewSummary {
    /// Zipf exponent.
    pub s: f64,
    /// Measured max/mean skew of the matrix.
    pub skew_ratio: f64,
    /// Scheme label of the fastest forced member.
    pub best_scheme: &'static str,
    /// Its median lap (ns). Medians, not means, rank the schemes: the
    /// cluster-wide lap is a straggler max, so a single scheduling
    /// spike on a loaded host shifts a mean by tens of percent while
    /// the p50 stays put.
    pub best_ns: u64,
    /// Direct's median lap (ns).
    pub direct_ns: u64,
    /// Best of padded/two-phase median lap (ns).
    pub family_ns: u64,
    /// Plan the auto path dispatched.
    pub auto_plan: String,
    /// Auto's median lap (ns).
    pub auto_ns: u64,
    /// `auto / best_forced` — ≤ 1.10 meets the PR criterion.
    pub auto_vs_best: f64,
    /// `direct / best_of(padded, two-phase)` — > 1.0 means the family
    /// beat the direct exchange at this point.
    pub direct_vs_family: f64,
}

/// Fold the sweep rows into one [`SkewSummary`] per Zipf point.
#[must_use]
pub fn summarize_skew(rows: &[SkewRow]) -> Vec<SkewSummary> {
    let mut svals: Vec<u64> = rows.iter().map(|r| r.s.to_bits()).collect();
    svals.dedup();
    svals
        .iter()
        .filter_map(|&bits| {
            let s = f64::from_bits(bits);
            let at = |scheme: &str| {
                rows.iter()
                    .find(|r| r.s.to_bits() == bits && r.scheme == scheme)
            };
            let direct = at("direct")?;
            let padded = at("padded")?;
            let two = at("twophase")?;
            let auto = at("auto")?;
            let forced = [direct, padded, two];
            let best = forced.iter().min_by_key(|r| r.p50_ns)?;
            let family_ns = padded.p50_ns.min(two.p50_ns);
            Some(SkewSummary {
                s,
                skew_ratio: direct.skew_ratio,
                best_scheme: best.scheme,
                best_ns: best.p50_ns,
                direct_ns: direct.p50_ns,
                family_ns,
                auto_plan: auto.plan.clone(),
                auto_ns: auto.p50_ns,
                auto_vs_best: auto.p50_ns as f64 / best.p50_ns.max(1) as f64,
                direct_vs_family: direct.p50_ns as f64 / family_ns.max(1) as f64,
            })
        })
        .collect()
}

/// Render the skew sweep as a human table.
#[must_use]
pub fn render_skew_table(rows: &[SkewRow], fit: &LinearFit) -> String {
    let mut out = format!(
        "calibrated fit: β = {:.2}µs, τ = {:.4}µs/B, R² = {:.3} ({} samples)\n",
        fit.model.startup * 1e6,
        fit.model.per_byte * 1e6,
        fit.r_squared,
        fit.samples,
    );
    out.push_str(&format!(
        "{:<9} {:<18} {:>5} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "scheme", "plan", "s", "skew", "MB/s", "min", "p50", "p99", "mean", "pred"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:<18} {:>5.2} {:>6.2} {:>9.1} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            r.scheme,
            r.plan,
            r.s,
            r.skew_ratio,
            r.mbps,
            fmt_ns(r.min_ns),
            fmt_ns(r.p50_ns),
            fmt_ns(r.p99_ns),
            fmt_ns(r.mean_ns),
            fmt_ns(r.predicted_ns),
        ));
    }
    for s in summarize_skew(rows) {
        out.push_str(&format!(
            "s={:.2}: auto ({}) {} vs best {} {} ({:.2}x); direct/family {:.2}x\n",
            s.s,
            s.auto_plan,
            fmt_ns(s.auto_ns),
            s.best_scheme,
            fmt_ns(s.best_ns),
            s.auto_vs_best,
            s.direct_vs_family,
        ));
    }
    out
}

/// Render the tracked `BENCH_pr6.json` artifact (hand-rolled JSON).
#[must_use]
pub fn render_skew_json(rows: &[SkewRow], fit: &LinearFit) -> String {
    let mut out = String::from("{\n  \"bench\": \"pr6-skew\",\n");
    out.push_str(&EnvMeta::capture("uds").to_json_line());
    out.push_str("  \"transport\": \"uds\",\n");
    out.push_str(&format!(
        "  \"fit\": {{\"startup_s\": {:.9e}, \"per_byte_s\": {:.9e}, \"r_squared\": {:.4}, \"samples\": {}}},\n",
        fit.model.startup, fit.model.per_byte, fit.r_squared, fit.samples
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"plan\": \"{}\", \"s\": {:.2}, \"skew_ratio\": {:.3}, \
             \"n\": {}, \"k\": {}, \"bytes_moved\": {}, \"reps\": {}, \"min_ns\": {}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}, \"mbps\": {:.2}, \"predicted_ns\": {}}}{}\n",
            r.scheme,
            r.plan,
            r.s,
            r.skew_ratio,
            r.n,
            r.k,
            r.bytes_moved,
            r.reps,
            r.min_ns,
            r.p50_ns,
            r.p99_ns,
            r.mean_ns,
            r.mbps,
            r.predicted_ns,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"summary\": [\n");
    let summaries = summarize_skew(rows);
    for (i, s) in summaries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"s\": {:.2}, \"skew_ratio\": {:.3}, \"best_scheme\": \"{}\", \"best_p50_ns\": {}, \
             \"direct_p50_ns\": {}, \"family_p50_ns\": {}, \"auto_plan\": \"{}\", \
             \"auto_p50_ns\": {}, \"auto_vs_best\": {:.3}, \"direct_vs_family\": {:.3}}}{}\n",
            s.s,
            s.skew_ratio,
            s.best_scheme,
            s.best_ns,
            s.direct_ns,
            s.family_ns,
            s.auto_plan,
            s.auto_ns,
            s.auto_vs_best,
            s.direct_vs_family,
            if i + 1 < summaries.len() { "," } else { "" },
        ));
    }
    let max_vs_best = summaries
        .iter()
        .map(|s| s.auto_vs_best)
        .fold(0.0f64, f64::max);
    let family_wins_low_skew = summaries
        .iter()
        .any(|s| s.s <= 0.75 && s.direct_vs_family > 1.0);
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"criteria\": {{\"max_auto_vs_best\": {:.3}, \"within_10pct_of_best_everywhere\": {}, \
         \"family_beats_direct_at_low_skew\": {}}}\n}}\n",
        max_vs_best,
        max_vs_best <= 1.10,
        family_wins_low_skew,
    ));
    out
}

// ---------------------------------------------------------------------
// Scale bench: event-driven TCP at n = 128–1024 (BENCH_pr9.json).
// ---------------------------------------------------------------------

/// Configuration for the TCP scale sweep: at each `n`, the flat
/// single-level plan against the two-level hierarchical plan, over the
/// same event-driven fabric and the same topology.
#[derive(Debug, Clone)]
pub struct ScaleBenchConfig {
    /// Rank counts to sweep (each must be divisible by `node_size`).
    pub ns: Vec<usize>,
    /// Ranks per simulated node (intra-node traffic stays on channels;
    /// inter-node traffic crosses the TCP streams).
    pub node_size: usize,
    /// Block size in bytes (each rank holds `n·block` send bytes).
    pub block: usize,
    /// Timed repetitions per `(n, plan)` cell.
    pub reps: usize,
    /// Worker threads driving the ranks (`None` = available
    /// parallelism, capped at 8).
    pub workers: Option<usize>,
    /// Per-operation patience.
    pub timeout: Duration,
    /// Whole-run deadline budget (arms the deadline layer, as the
    /// acceptance criteria require the guard stack live at scale).
    pub deadline: Duration,
}

impl Default for ScaleBenchConfig {
    fn default() -> Self {
        Self {
            ns: vec![128, 256, 512, 1024],
            node_size: 32,
            block: 64,
            reps: 3,
            workers: None,
            timeout: Duration::from_secs(60),
            deadline: Duration::from_secs(600),
        }
    }
}

/// One `(n, plan)` cell of the scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// `"flat"` (single-level over all n ranks) or `"two-level"`.
    pub topology: &'static str,
    /// Plan label (e.g. `bruck-r2`, `hier-s32-r2x2`).
    pub plan: String,
    /// Number of ranks.
    pub n: usize,
    /// Ranks per node.
    pub node_size: usize,
    /// Block size in bytes.
    pub block: usize,
    /// Communication rounds the lowered program executed.
    pub rounds: usize,
    /// Worker threads that drove the ranks.
    pub workers: usize,
    /// Total OS threads the run held (workers + reactor) — the
    /// multiplexing claim is `threads = O(workers)`, not `O(n)`.
    pub threads: usize,
    /// Useful payload bytes an index all-to-all delivers:
    /// `n·(n−1)·block`.
    pub bytes_moved: u64,
    /// Timed repetitions.
    pub reps: usize,
    /// Fastest end-to-end wall (ns), fabric setup included.
    pub min_ns: u64,
    /// Median end-to-end wall (ns).
    pub p50_ns: u64,
    /// Mean end-to-end wall (ns).
    pub mean_ns: u64,
    /// Goodput on the mean lap, MB/s.
    pub mbps: f64,
    /// ARQ retransmits summed over ranks and reps.
    pub retransmits: u64,
    /// Watchdog probes sent, summed over ranks and reps — nonzero
    /// probes prove the guard stack was armed, not bypassed, at scale.
    pub probes: u64,
    /// Every rank's output matched the oracle on every rep.
    pub bit_correct: bool,
}

/// Run the flat-vs-two-level sweep over [`TcpScaleCluster`] and fit a
/// TCP-wire cost model from the measured `(complexity, wall)` samples.
/// The returned fit (when the design matrix allows one) is what gets
/// persisted into `BENCH_pr9.json`; its R² says whether the linear
/// model describes the TCP substrate.
///
/// # Errors
///
/// Configuration errors (`n` not divisible by `node_size`) and the
/// first failing cell.
pub fn run_scale_matrix(
    cfg: &ScaleBenchConfig,
) -> Result<(Vec<ScaleRow>, Option<LinearFit>), String> {
    let mut cal = bruck_model::calibrate::Calibrator::new();
    let mut rows = Vec::new();
    for &n in &cfg.ns {
        if cfg.node_size == 0 || n % cfg.node_size != 0 {
            return Err(format!(
                "node_size {} must evenly partition n={n}",
                cfg.node_size
            ));
        }
        let schemes: [(&'static str, IndexPlan); 2] = [
            ("flat", IndexPlan::Radix(2)),
            (
                "two-level",
                IndexPlan::Hierarchical {
                    node_size: cfg.node_size,
                    radix_local: 2,
                    radix_remote: 2,
                },
            ),
        ];
        let inputs: Vec<Vec<u8>> = (0..n)
            .map(|r| verify::index_input(r, n, cfg.block))
            .collect();
        let cluster_cfg = ClusterConfig::new(n)
            .with_node_size(cfg.node_size)
            .with_timeout(cfg.timeout)
            .with_deadline(cfg.deadline)
            .with_reliability(Reliability::default());
        for (topology, plan) in schemes {
            let mut laps = Vec::with_capacity(cfg.reps.max(1));
            let mut bit_correct = true;
            let (mut retransmits, mut probes) = (0u64, 0u64);
            let (mut rounds, mut workers, mut threads) = (0usize, 0usize, 0usize);
            for _ in 0..cfg.reps.max(1) {
                let t0 = Instant::now();
                let out = TcpScaleCluster::run_with_workers(
                    &cluster_cfg,
                    &plan,
                    cfg.block,
                    &inputs,
                    cfg.workers,
                )
                .map_err(|e| format!("scale n={n} {topology}: {e}"))?;
                let lap = t0.elapsed().as_nanos() as u64;
                laps.push(lap);
                for (rank, got) in out.results.iter().enumerate() {
                    if got != &verify::index_expected(rank, n, cfg.block) {
                        bit_correct = false;
                    }
                }
                let link = out.metrics.link_totals();
                retransmits += link.retransmits;
                probes += link.probes_sent;
                rounds = out.rounds;
                workers = out.workers;
                threads = out.threads;
                if let Some(c) = out.metrics.global_complexity() {
                    cal.record_run(c, lap as f64 / 1e9);
                }
            }
            laps.sort_unstable();
            let mean_ns = (laps.iter().sum::<u64>() / laps.len().max(1) as u64).max(1);
            let bytes_moved = (n * (n - 1) * cfg.block) as u64;
            rows.push(ScaleRow {
                topology,
                plan: plan.label(),
                n,
                node_size: cfg.node_size,
                block: cfg.block,
                rounds,
                workers,
                threads,
                bytes_moved,
                reps: laps.len(),
                min_ns: laps.first().copied().unwrap_or(0).max(1),
                p50_ns: percentile(&laps, 50),
                mean_ns,
                mbps: bytes_moved as f64 / (mean_ns as f64 / 1e9) / 1e6,
                retransmits,
                probes,
                bit_correct,
            });
        }
    }
    Ok((rows, cal.try_fit()))
}

/// Per-`n` verdict: did the two-level plan beat the flat plan on the
/// mean end-to-end wall, and by how much?
#[derive(Debug, Clone)]
pub struct ScaleSummary {
    /// Number of ranks.
    pub n: usize,
    /// Flat plan's mean wall (ns).
    pub flat_ns: u64,
    /// Two-level plan's mean wall (ns).
    pub two_level_ns: u64,
    /// `flat / two-level` — above 1.0 means the hierarchy won.
    pub speedup: f64,
}

/// Pair up flat and two-level rows per `n`.
#[must_use]
pub fn summarize_scale(rows: &[ScaleRow]) -> Vec<ScaleSummary> {
    let mut ns: Vec<usize> = rows.iter().map(|r| r.n).collect();
    ns.dedup();
    ns.iter()
        .filter_map(|&n| {
            let find = |t: &str| {
                rows.iter()
                    .find(|r| r.n == n && r.topology == t)
                    .map(|r| r.mean_ns)
            };
            let (flat, two) = (find("flat")?, find("two-level")?);
            Some(ScaleSummary {
                n,
                flat_ns: flat,
                two_level_ns: two,
                speedup: flat as f64 / two.max(1) as f64,
            })
        })
        .collect()
}

/// Render the scale sweep as an aligned text table plus the per-`n`
/// verdict lines.
#[must_use]
pub fn render_scale_table(rows: &[ScaleRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>6} {:<16} {:>7} {:>8} {:>8} {:>11} {:>11} {:>9} {:>7} {:>7} {:>8}\n",
        "topology",
        "n",
        "plan",
        "rounds",
        "workers",
        "threads",
        "p50",
        "mean",
        "MB/s",
        "rexmit",
        "probes",
        "correct"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>6} {:<16} {:>7} {:>8} {:>8} {:>11} {:>11} {:>9.1} {:>7} {:>7} {:>8}\n",
            r.topology,
            r.n,
            r.plan,
            r.rounds,
            r.workers,
            r.threads,
            fmt_ns(r.p50_ns),
            fmt_ns(r.mean_ns),
            r.mbps,
            r.retransmits,
            r.probes,
            if r.bit_correct { "yes" } else { "NO" },
        ));
    }
    for s in summarize_scale(rows) {
        out.push_str(&format!(
            "n={}: flat {} vs two-level {} ({:.2}x)\n",
            s.n,
            fmt_ns(s.flat_ns),
            fmt_ns(s.two_level_ns),
            s.speedup,
        ));
    }
    out
}

/// Render the tracked `BENCH_pr9.json` artifact (hand-rolled JSON).
#[must_use]
pub fn render_scale_json(rows: &[ScaleRow], fit: Option<&LinearFit>) -> String {
    let mut out = String::from("{\n  \"bench\": \"pr9-tcp-scale\",\n");
    out.push_str(&EnvMeta::capture("tcp").to_json_line());
    out.push_str("  \"transport\": \"tcp\",\n");
    if let Some(fit) = fit {
        out.push_str(&format!(
            "  \"fit\": {{\"startup_s\": {:.9e}, \"per_byte_s\": {:.9e}, \"r_squared\": {:.4}, \"samples\": {}}},\n",
            fit.model.startup, fit.model.per_byte, fit.r_squared, fit.samples
        ));
    }
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"topology\": \"{}\", \"plan\": \"{}\", \"n\": {}, \"node_size\": {}, \
             \"block\": {}, \"rounds\": {}, \"workers\": {}, \"threads\": {}, \
             \"bytes_moved\": {}, \"reps\": {}, \"min_ns\": {}, \"p50_ns\": {}, \"mean_ns\": {}, \
             \"mbps\": {:.2}, \"retransmits\": {}, \"probes\": {}, \"bit_correct\": {}}}{}\n",
            r.topology,
            r.plan,
            r.n,
            r.node_size,
            r.block,
            r.rounds,
            r.workers,
            r.threads,
            r.bytes_moved,
            r.reps,
            r.min_ns,
            r.p50_ns,
            r.mean_ns,
            r.mbps,
            r.retransmits,
            r.probes,
            r.bit_correct,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"summary\": [\n");
    let summaries = summarize_scale(rows);
    for (i, s) in summaries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"flat_mean_ns\": {}, \"two_level_mean_ns\": {}, \"speedup\": {:.3}}}{}\n",
            s.n,
            s.flat_ns,
            s.two_level_ns,
            s.speedup,
            if i + 1 < summaries.len() { "," } else { "" },
        ));
    }
    let all_correct = rows.iter().all(|r| r.bit_correct);
    let guards_armed = rows.iter().all(|r| r.probes > 0);
    let threads_bounded = rows
        .iter()
        .all(|r| r.threads <= r.workers + 1 && r.threads < r.n);
    let two_level_wins = summaries
        .iter()
        .filter(|s| s.n >= 128)
        .all(|s| s.speedup > 1.0)
        && summaries.iter().any(|s| s.n >= 128);
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"criteria\": {{\"all_bit_correct\": {all_correct}, \"watchdog_armed_everywhere\": {guards_armed}, \
         \"threads_o_workers_not_o_n\": {threads_bounded}, \"two_level_beats_flat_at_128_plus\": {two_level_wins}}}\n}}\n",
    ));
    out
}

// ---------------------------------------------------------------------
// TCP recovery bench: the price of connection healing (BENCH_pr10.json).
// ---------------------------------------------------------------------

/// Configuration for the TCP recovery A/B: the same faultless
/// collective with the fabric's connection-healing machinery forced
/// off vs armed, plus one cell that injects a connection reset mid-run
/// and heals through it.
#[derive(Debug, Clone)]
pub struct TcpRecoveryBenchConfig {
    /// Cluster size (must be divisible by `node_size`).
    pub n: usize,
    /// Ranks per simulated node.
    pub node_size: usize,
    /// Block size in bytes.
    pub block: usize,
    /// Timed repetitions per sample (each rep is a full run, fabric
    /// setup included — healing's listener retention is part of the
    /// price being measured).
    pub reps: usize,
    /// A/B sample pairs; in-pair order flips every sample so neither
    /// leg systematically inherits the warmer machine.
    pub samples: usize,
    /// Worker threads driving the ranks.
    pub workers: Option<usize>,
    /// Per-operation patience.
    pub timeout: Duration,
    /// Whole-run deadline budget.
    pub deadline: Duration,
}

impl Default for TcpRecoveryBenchConfig {
    fn default() -> Self {
        Self {
            n: 128,
            node_size: 32,
            block: 64,
            reps: 3,
            samples: 3,
            workers: None,
            timeout: Duration::from_secs(60),
            deadline: Duration::from_secs(600),
        }
    }
}

/// One mode of the TCP recovery bench.
#[derive(Debug, Clone)]
pub struct TcpRecoveryRow {
    /// `"heal-off"`, `"heal-on"`, or `"mid-run-reconnect"`.
    pub mode: &'static str,
    /// Number of ranks.
    pub n: usize,
    /// Ranks per node.
    pub node_size: usize,
    /// Block size in bytes.
    pub block: usize,
    /// Total timed runs folded into this row.
    pub reps: usize,
    /// Fastest end-to-end wall (ns).
    pub min_ns: u64,
    /// Median end-to-end wall (ns).
    pub p50_ns: u64,
    /// Mean end-to-end wall (ns).
    pub mean_ns: u64,
    /// Goodput on the mean lap, MB/s.
    pub mbps: f64,
    /// Stream teardowns the fabric observed, summed over runs.
    pub link_failures: u64,
    /// Successful re-handshakes, summed over runs.
    pub reconnects: u64,
    /// Every rank matched the oracle on every run.
    pub bit_correct: bool,
}

/// One timed full run of a mode; folds the lap and the fabric's
/// healing counters into the accumulators.
fn tcp_recovery_run(
    cluster_cfg: &ClusterConfig,
    bench_cfg: &TcpRecoveryBenchConfig,
    inputs: &[Vec<u8>],
    laps: &mut Vec<u64>,
    link_failures: &mut u64,
    reconnects: &mut u64,
    bit_correct: &mut bool,
) -> Result<(), String> {
    let plan = IndexPlan::Hierarchical {
        node_size: bench_cfg.node_size,
        radix_local: 2,
        radix_remote: 2,
    };
    let t0 = Instant::now();
    let out = TcpScaleCluster::run_with_workers(
        cluster_cfg,
        &plan,
        bench_cfg.block,
        inputs,
        bench_cfg.workers,
    )
    .map_err(|e| format!("tcp recovery n={}: {e}", bench_cfg.n))?;
    laps.push(t0.elapsed().as_nanos() as u64);
    for (rank, got) in out.results.iter().enumerate() {
        if got != &verify::index_expected(rank, bench_cfg.n, bench_cfg.block) {
            *bit_correct = false;
        }
    }
    *link_failures += out.metrics.fabric.link_failures;
    *reconnects += out.metrics.fabric.reconnects;
    Ok(())
}

fn tcp_recovery_fold(
    cfg: &TcpRecoveryBenchConfig,
    mode: &'static str,
    mut laps: Vec<u64>,
    link_failures: u64,
    reconnects: u64,
    bit_correct: bool,
) -> TcpRecoveryRow {
    laps.sort_unstable();
    let mean_ns = (laps.iter().sum::<u64>() / laps.len().max(1) as u64).max(1);
    let bytes_moved = (cfg.n * (cfg.n - 1) * cfg.block) as u64;
    TcpRecoveryRow {
        mode,
        n: cfg.n,
        node_size: cfg.node_size,
        block: cfg.block,
        reps: laps.len(),
        min_ns: laps.first().copied().unwrap_or(0).max(1),
        p50_ns: percentile(&laps, 50),
        mean_ns,
        mbps: bytes_moved as f64 / (mean_ns as f64 / 1e9) / 1e6,
        link_failures,
        reconnects,
        bit_correct,
    }
}

/// Run the TCP recovery A/B plus the mid-run reconnect cell.
///
/// The A/B legs are both *faultless*: `heal-off` forces the legacy
/// fail-fast reactor ([`ClusterConfig::with_healing`]`(false)`),
/// `heal-on` arms reconnect/backoff/eviction machinery — the delta is
/// the steady-state price of the retained listener and the per-pair
/// healing state. The third cell injects one connection reset mid-run
/// with healing armed: its lap absorbs a real teardown + re-handshake
/// and must still end bit-correct with `reconnects > 0`.
///
/// # Errors
///
/// Configuration errors and the first failing run.
pub fn run_tcp_recovery(cfg: &TcpRecoveryBenchConfig) -> Result<Vec<TcpRecoveryRow>, String> {
    if cfg.node_size == 0 || !cfg.n.is_multiple_of(cfg.node_size) {
        return Err(format!(
            "node_size {} must evenly partition n={}",
            cfg.node_size, cfg.n
        ));
    }
    if cfg.n / cfg.node_size < 2 {
        return Err("the reconnect cell needs at least two nodes".into());
    }
    let inputs: Vec<Vec<u8>> = (0..cfg.n)
        .map(|r| verify::index_input(r, cfg.n, cfg.block))
        .collect();
    let base = ClusterConfig::new(cfg.n)
        .with_node_size(cfg.node_size)
        .with_timeout(cfg.timeout)
        .with_deadline(cfg.deadline)
        .with_reliability(Reliability::default());
    let off_cfg = base.clone().with_healing(false);
    let on_cfg = base.clone().with_healing(true);

    let (mut off_laps, mut on_laps) = (Vec::new(), Vec::new());
    let (mut off_lf, mut off_rc, mut off_ok) = (0u64, 0u64, true);
    let (mut on_lf, mut on_rc, mut on_ok) = (0u64, 0u64, true);
    for s in 0..cfg.samples.max(1) {
        let order: [bool; 2] = if s % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for on in order {
            for _ in 0..cfg.reps.max(1) {
                if on {
                    tcp_recovery_run(
                        &on_cfg,
                        cfg,
                        &inputs,
                        &mut on_laps,
                        &mut on_lf,
                        &mut on_rc,
                        &mut on_ok,
                    )?;
                } else {
                    tcp_recovery_run(
                        &off_cfg,
                        cfg,
                        &inputs,
                        &mut off_laps,
                        &mut off_lf,
                        &mut off_rc,
                        &mut off_ok,
                    )?;
                }
            }
        }
    }

    // The reconnect cell: reset the stream between the first two nodes
    // after round 1; healing must re-handshake and replay the
    // unconfirmed records, ending bit-correct.
    let reset_cfg = base
        .with_faults(FaultPlan::new().with_conn_reset(0, cfg.node_size, 1))
        .with_healing(true);
    let (mut rs_laps, mut rs_lf, mut rs_rc, mut rs_ok) = (Vec::new(), 0u64, 0u64, true);
    for _ in 0..cfg.reps.max(1) {
        tcp_recovery_run(
            &reset_cfg,
            cfg,
            &inputs,
            &mut rs_laps,
            &mut rs_lf,
            &mut rs_rc,
            &mut rs_ok,
        )?;
    }

    Ok(vec![
        tcp_recovery_fold(cfg, "heal-off", off_laps, off_lf, off_rc, off_ok),
        tcp_recovery_fold(cfg, "heal-on", on_laps, on_lf, on_rc, on_ok),
        tcp_recovery_fold(cfg, "mid-run-reconnect", rs_laps, rs_lf, rs_rc, rs_ok),
    ])
}

/// Fractional mean-lap cost of arming connection healing on a
/// faultless TCP run, from the A/B rows.
#[must_use]
pub fn tcp_recovery_overhead(rows: &[TcpRecoveryRow]) -> Option<f64> {
    let mean = |mode: &str| {
        rows.iter()
            .find(|r| r.mode == mode)
            .map(|r| r.mean_ns as f64)
    };
    let (on, off) = (mean("heal-on")?, mean("heal-off")?);
    (off > 0.0).then_some(on / off - 1.0)
}

/// Render the TCP recovery comparison as a human table.
#[must_use]
pub fn render_tcp_recovery_table(rows: &[TcpRecoveryRow]) -> String {
    let mut out = format!(
        "{:<18} {:>5} {:>5} {:>7} {:>9} {:>11} {:>11} {:>11} {:>6} {:>7} {:>8}\n",
        "mode", "n", "node", "block", "MB/s", "min", "p50", "mean", "fails", "reconn", "correct"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>5} {:>5} {:>7} {:>9.1} {:>11} {:>11} {:>11} {:>6} {:>7} {:>8}\n",
            r.mode,
            r.n,
            r.node_size,
            r.block,
            r.mbps,
            fmt_ns(r.min_ns),
            fmt_ns(r.p50_ns),
            fmt_ns(r.mean_ns),
            r.link_failures,
            r.reconnects,
            r.bit_correct,
        ));
    }
    if let Some(o) = tcp_recovery_overhead(rows) {
        out.push_str(&format!(
            "healing overhead: {:+.2}% mean lap (alternating A/B runs, both faultless)\n",
            o * 100.0
        ));
    }
    out
}

/// Render the tracked `BENCH_pr10.json` artifact (hand-rolled JSON).
#[must_use]
pub fn render_tcp_recovery_json(rows: &[TcpRecoveryRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"pr10-tcp-recovery\",\n");
    out.push_str(&EnvMeta::capture("tcp").to_json_line());
    out.push_str("  \"transport\": \"tcp\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"n\": {}, \"node_size\": {}, \"block\": {}, \
             \"reps\": {}, \"min_ns\": {}, \"p50_ns\": {}, \"mean_ns\": {}, \"mbps\": {:.2}, \
             \"link_failures\": {}, \"reconnects\": {}, \"bit_correct\": {}}}{}\n",
            r.mode,
            r.n,
            r.node_size,
            r.block,
            r.reps,
            r.min_ns,
            r.p50_ns,
            r.mean_ns,
            r.mbps,
            r.link_failures,
            r.reconnects,
            r.bit_correct,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    let ov = tcp_recovery_overhead(rows).unwrap_or(0.0);
    let healed = rows
        .iter()
        .find(|r| r.mode == "mid-run-reconnect")
        .is_some_and(|r| r.bit_correct && r.reconnects > 0);
    let all_correct = rows.iter().all(|r| r.bit_correct);
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"criteria\": {{\"healing_overhead\": {ov:.4}, \"under_5pct\": {}, \
         \"reconnect_healed_bit_correct\": {healed}, \"all_bit_correct\": {all_correct}}}\n}}\n",
        ov < 0.05,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(collective: &'static str, window: usize, mean_ns: u64) -> WireBenchRow {
        WireBenchRow {
            collective,
            window,
            n: 8,
            k: 2,
            radix: 4,
            block: 65536,
            rounds: 4,
            bytes_moved: 1 << 22,
            reps: 12,
            p50_ns: mean_ns,
            p99_ns: mean_ns * 2,
            mean_ns,
            mbps: 100.0,
            avg_window_occupancy: 1.5,
            piggyback_ratio: 0.5,
            retransmits: 0,
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rows = vec![row("alltoall", 8, 1_000_000), row("alltoall", 1, 2_000_000)];
        let json = render_json(&rows);
        assert_eq!(json.matches("\"collective\": \"alltoall\"").count(), 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn table_lists_every_row() {
        let rows = vec![row("alltoall", 8, 1_000), row("allgather", 1, 2_000)];
        let t = render_table(&rows);
        assert!(t.contains("alltoall") && t.contains("allgather"));
        assert!(t.lines().count() >= 3);
    }

    #[test]
    fn percentiles_clamp() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[5], 99), 5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 51);
        assert_eq!(percentile(&v, 99), 100);
    }

    fn arow(scheme: &str, block: usize, p50_ns: u64) -> AutotuneRow {
        AutotuneRow {
            scheme: scheme.into(),
            plan: if scheme == "auto" {
                "bruck-r3".into()
            } else {
                scheme.replace("fixed-", "bruck-")
            },
            n: 8,
            k: 2,
            block,
            rounds: 2,
            bytes_moved: 1 << 20,
            reps: 18,
            min_ns: p50_ns,
            p50_ns,
            p99_ns: p50_ns * 2,
            mean_ns: p50_ns,
            mbps: 50.0,
            predicted_ns: p50_ns,
        }
    }

    #[test]
    fn autotune_summary_ratios() {
        let rows = vec![
            arow("fixed-r2", 256, 3_000),
            arow("fixed-r3", 256, 1_000),
            arow("auto", 256, 1_010),
        ];
        let s = summarize_autotune(&rows);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].best_fixed, "fixed-r3");
        assert_eq!(s[0].worst_fixed, "fixed-r2");
        assert!((s[0].auto_vs_best - 1.01).abs() < 1e-9);
        assert!((s[0].worst_vs_auto - 3_000.0 / 1_010.0).abs() < 1e-9);
    }

    #[test]
    fn autotune_json_is_well_formed_enough() {
        let fit = LinearFit {
            model: bruck_model::cost::LinearModel::new(20e-6, 0.01e-6),
            r_squared: 0.999,
            samples: 30,
        };
        let rows = vec![
            arow("fixed-r2", 256, 3_000),
            arow("fixed-r3", 256, 1_000),
            arow("auto", 256, 1_000),
        ];
        let json = render_autotune_json(&rows, &fit);
        assert!(json.contains("\"bench\": \"pr4-autotune\""));
        assert!(json.contains("\"criteria\""));
        assert!(json.contains("\"within_5pct_of_best_everywhere\": true"));
        assert!(json.contains("\"beats_worst_by_1_3x_somewhere\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// Scaled-down end-to-end autotune matrix over real sockets.
    #[cfg(unix)]
    #[test]
    fn small_autotune_matrix_runs_end_to_end() {
        let cfg = AutotuneBenchConfig {
            n: 4,
            ports: 1,
            blocks: vec![512],
            radices: vec![2, 4],
            reps: 2,
            samples: 1,
            timeout: Duration::from_secs(30),
        };
        let (rows, fit) = run_autotune_matrix(&cfg).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(fit.samples > 0);
        assert!(rows.iter().all(|r| r.p50_ns > 0 && r.bytes_moved > 0));
        let auto = rows.iter().find(|r| r.scheme == "auto").unwrap();
        assert!(!auto.plan.is_empty());
        let table = render_autotune_table(&rows, &fit);
        assert!(table.contains("auto") && table.contains("fixed-r2"));
    }

    fn liveness_row(mode: &'static str, mean_ns: u64) -> LivenessRow {
        LivenessRow {
            mode,
            n: 8,
            k: 2,
            block: 65536,
            reps: 12,
            p50_ns: mean_ns,
            p99_ns: mean_ns * 2,
            mean_ns,
            mbps: 100.0,
            probes_sent: 0,
            retransmits: 0,
        }
    }

    #[test]
    fn liveness_overheads_are_on_over_off() {
        let rows = vec![
            liveness_row("deadline-off", 1_000_000),
            liveness_row("deadline-on", 1_030_000),
            liveness_row("watchdog-off", 2_000_000),
            liveness_row("watchdog-on", 2_020_000),
        ];
        assert!((deadline_overhead(&rows).unwrap() - 0.03).abs() < 1e-9);
        assert!((watchdog_overhead(&rows).unwrap() - 0.01).abs() < 1e-9);
        assert!(deadline_overhead(&rows[2..]).is_none());
        assert!(watchdog_overhead(&rows[..2]).is_none());
    }

    #[test]
    fn liveness_json_is_well_formed_enough() {
        let rows = vec![
            liveness_row("deadline-off", 1_000_000),
            liveness_row("deadline-on", 1_100_000),
            liveness_row("watchdog-off", 1_000_000),
            liveness_row("watchdog-on", 1_010_000),
        ];
        let json = render_liveness_json(&rows);
        assert!(json.contains("\"bench\": \"pr5-liveness-overhead\""));
        assert!(json.contains("\"deadline_overhead\": 0.1000"));
        assert!(json.contains("\"watchdog_overhead\": 0.0100"));
        assert!(json.contains("\"under_5pct\": false"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = render_liveness_table(&rows);
        assert!(table.contains("deadline-on") && table.contains("+10.00%"));
    }

    /// Scaled-down liveness comparison over real sockets.
    #[cfg(unix)]
    #[test]
    fn small_liveness_comparison_runs_end_to_end() {
        let cfg = WireBenchConfig {
            n: 4,
            ports: 1,
            block: 2048,
            reps: 2,
            samples: 1,
            timeout: Duration::from_secs(30),
            radix: None,
        };
        let rows = run_liveness_overhead(&cfg).unwrap();
        let modes: Vec<&str> = rows.iter().map(|r| r.mode).collect();
        assert_eq!(
            modes,
            ["deadline-off", "deadline-on", "watchdog-off", "watchdog-on"]
        );
        assert!(rows.iter().all(|r| r.p50_ns > 0 && r.mbps > 0.0));
        assert!(deadline_overhead(&rows).is_some() && watchdog_overhead(&rows).is_some());
    }

    /// The real thing, scaled down so the suite stays fast: a tiny
    /// matrix over the socket transport still produces sane rows.
    #[cfg(unix)]
    #[test]
    fn small_matrix_runs_end_to_end() {
        let cfg = WireBenchConfig {
            n: 4,
            ports: 1,
            block: 2048,
            reps: 2,
            samples: 1,
            timeout: Duration::from_secs(30),
            radix: None,
        };
        let row = run_case("alltoall", &cfg).unwrap();
        assert_eq!((row.n, row.k, row.block), (4, 1, 2048));
        assert!(row.p50_ns > 0 && row.p99_ns >= row.p50_ns);
        assert!(row.mbps > 0.0);
        assert!(row.bytes_moved > 0);
    }

    #[test]
    fn env_meta_is_sane_and_renders() {
        let env = EnvMeta::capture("tcp");
        assert!(env.cpus >= 1);
        assert_eq!(env.frag_payload, bruck_net::frame::FRAG_PAYLOAD);
        let line = env.to_json_line();
        assert!(line.contains("\"env\": {"));
        assert!(line.contains("\"transport\": \"tcp\""));
        assert!(line.ends_with(",\n"));
    }

    #[test]
    fn fit_warning_fires_only_below_floor() {
        let fit = |r2| LinearFit {
            model: bruck_model::cost::LinearModel::new(20e-6, 0.01e-6),
            r_squared: r2,
            samples: 10,
        };
        assert!(fit_warning(&fit(0.19)).unwrap().contains("0.19"));
        assert!(fit_warning(&fit(0.5)).is_none());
        assert!(fit_warning(&fit(0.97)).is_none());
    }

    fn srow(topology: &'static str, n: usize, mean_ns: u64) -> ScaleRow {
        ScaleRow {
            topology,
            plan: if topology == "flat" {
                "bruck-r2".into()
            } else {
                "hier-s32-r2x2".into()
            },
            n,
            node_size: 32,
            block: 64,
            rounds: 10,
            workers: 4,
            threads: 5,
            bytes_moved: (n * (n - 1) * 64) as u64,
            reps: 3,
            min_ns: mean_ns,
            p50_ns: mean_ns,
            mean_ns,
            mbps: 80.0,
            retransmits: 0,
            probes: 12,
            bit_correct: true,
        }
    }

    #[test]
    fn scale_summary_pairs_flat_with_two_level() {
        let rows = vec![
            srow("flat", 128, 3_000_000),
            srow("two-level", 128, 2_000_000),
            srow("flat", 256, 9_000_000),
            srow("two-level", 256, 4_500_000),
        ];
        let s = summarize_scale(&rows);
        assert_eq!(s.len(), 2);
        assert!((s[0].speedup - 1.5).abs() < 1e-9);
        assert!((s[1].speedup - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scale_json_is_well_formed_enough() {
        let rows = vec![
            srow("flat", 128, 3_000_000),
            srow("two-level", 128, 2_000_000),
        ];
        let fit = LinearFit {
            model: bruck_model::cost::LinearModel::new(20e-6, 0.01e-6),
            r_squared: 0.9,
            samples: 6,
        };
        let json = render_scale_json(&rows, Some(&fit));
        assert!(json.contains("\"bench\": \"pr9-tcp-scale\""));
        assert!(json.contains("\"transport\": \"tcp\""));
        assert!(json.contains("\"env\": {"));
        assert!(json.contains("\"r_squared\": 0.9000"));
        assert!(json.contains("\"all_bit_correct\": true"));
        assert!(json.contains("\"watchdog_armed_everywhere\": true"));
        assert!(json.contains("\"threads_o_workers_not_o_n\": true"));
        assert!(json.contains("\"two_level_beats_flat_at_128_plus\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Fit-less artifacts stay valid (a degenerate design matrix at
        // one sweep point must not block the bench).
        let bare = render_scale_json(&rows, None);
        assert!(!bare.contains("\"fit\""));
        assert_eq!(bare.matches('{').count(), bare.matches('}').count());
        let table = render_scale_table(&rows);
        assert!(table.contains("two-level") && table.contains("1.50x"));
    }

    /// Scaled-down end-to-end scale sweep over the real TCP fabric.
    #[test]
    fn small_scale_matrix_runs_end_to_end() {
        let cfg = ScaleBenchConfig {
            ns: vec![16],
            node_size: 4,
            block: 32,
            reps: 1,
            workers: Some(2),
            timeout: Duration::from_secs(30),
            deadline: Duration::from_secs(120),
        };
        let (rows, _fit) = run_scale_matrix(&cfg).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.bit_correct));
        assert!(rows.iter().all(|r| r.threads <= r.workers + 1));
        assert!(rows.iter().all(|r| r.mean_ns > 0 && r.mbps > 0.0));
        assert_eq!(rows[0].topology, "flat");
        assert_eq!(rows[1].topology, "two-level");
    }
}

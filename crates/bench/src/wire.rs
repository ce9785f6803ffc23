//! Wire throughput smoke: alltoall/allgather throughput and latency
//! over the real-I/O Unix-socket transport on the default data plane
//! (sliding-window ARQ over blocking reads) — `bruckctl bench`, which
//! `ci/check.sh` runs twice against throughput floors
//! ([`check_floors`]). It prints a table and gates; it records nothing.
//! A number meant to be compared across commits comes from the tracked
//! benchmark (`benchmark/README.md`), not from here.
//!
//! Each case spins up a [`SocketCluster`](bruck_net::SocketCluster),
//! runs one untimed warmup collective (absorbs thread-spawn skew and
//! pool warmup), then times `reps` back-to-back collectives per rank. A
//! rep's cluster-wide wall clock is the *maximum* across ranks for that
//! rep — the straggler defines the collective. Percentiles pool every
//! rep of every sample run, so `p99` reflects cross-run variance too.

use std::time::{Duration, Instant};

use bruck_collectives::api::{allgather, alltoall, Tuning};
use bruck_collectives::verify;
use bruck_net::{ClusterConfig, NetError, Reliability};

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

/// Hold each collective's slowest row against its floor. One verdict per
/// floor that is set, alltoall first: `Ok` is the report line, `Err` the
/// violation. Each collective has its own floor — at a shape whose
/// messages fragment, the concat's few large ones run at about half the
/// alltoall's rate, and a floor that fits one says nothing of the other.
/// A gated collective with no row is a violation, not a pass.
#[must_use]
pub fn check_floors(
    rows: &[WireBenchRow],
    min_alltoall_mbps: Option<f64>,
    min_allgather_mbps: Option<f64>,
) -> Vec<Result<String, String>> {
    [
        ("alltoall", min_alltoall_mbps),
        ("allgather", min_allgather_mbps),
    ]
    .into_iter()
    .filter_map(|(collective, floor)| {
        let floor = floor?;
        let worst = rows
            .iter()
            .filter(|r| r.collective == collective)
            .map(|r| r.mbps)
            .reduce(f64::min);
        Some(match worst {
            None => Err(format!(
                "no {collective} row to hold against the {floor:.1} MB/s floor"
            )),
            Some(worst) if worst < floor => Err(format!(
                "{collective} throughput {worst:.1} MB/s below the {floor:.1} MB/s floor"
            )),
            Some(worst) => Ok(format!(
                "floor      : {collective} {worst:.1} MB/s ≥ {floor:.1} MB/s ✓"
            )),
        })
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(collective: &'static str, mbps: f64) -> WireBenchRow {
        WireBenchRow {
            collective,
            window: 8,
            n: 8,
            k: 2,
            radix: 4,
            block: 65536,
            rounds: 4,
            bytes_moved: 1 << 22,
            reps: 12,
            p50_ns: 1_000,
            p99_ns: 2_000,
            mean_ns: 1_000,
            mbps,
            avg_window_occupancy: 1.5,
            piggyback_ratio: 0.5,
            retransmits: 0,
        }
    }

    #[test]
    fn table_lists_every_row() {
        let rows = vec![row("alltoall", 100.0), row("allgather", 100.0)];
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

    #[test]
    fn floors_gate_each_collective_on_its_own_rows() {
        let violations = |rows: &[WireBenchRow], a2a, ag| -> Vec<String> {
            check_floors(rows, a2a, ag)
                .into_iter()
                .filter_map(Result::err)
                .collect()
        };
        let rows = [row("alltoall", 500.0), row("allgather", 200.0)];
        // No floor, no verdict — whatever the rows say.
        assert!(check_floors(&rows, None, None).is_empty());
        assert!(check_floors(&[], None, None).is_empty());
        // Both clear: one report line per floor, alltoall first.
        let ok = check_floors(&rows, Some(380.0), Some(150.0));
        assert_eq!(
            ok,
            [
                Ok("floor      : alltoall 500.0 MB/s ≥ 380.0 MB/s ✓".to_string()),
                Ok("floor      : allgather 200.0 MB/s ≥ 150.0 MB/s ✓".to_string()),
            ]
        );
        // A row under its floor is reported, by name and with both numbers.
        assert_eq!(
            violations(&rows, Some(380.0), Some(230.0)),
            ["allgather throughput 200.0 MB/s below the 230.0 MB/s floor"]
        );
        // The slowest row of a collective is the one that counts.
        let two = [row("alltoall", 500.0), row("alltoall", 300.0)];
        assert_eq!(violations(&two, Some(380.0), None).len(), 1);
        // The alltoall floor never gates an allgather row (200 < 380
        // here), nor the allgather floor an alltoall row (100 < 230).
        assert!(violations(&rows, Some(380.0), None).is_empty());
        let slow_a2a = [row("alltoall", 100.0), row("allgather", 500.0)];
        assert!(violations(&slow_a2a, None, Some(230.0)).is_empty());
        // A gated collective without a row fails; an empty minimum must
        // not read as +∞ and pass.
        assert_eq!(
            violations(&rows[..1], Some(380.0), Some(230.0)),
            ["no allgather row to hold against the 230.0 MB/s floor"]
        );
        assert_eq!(violations(&[], Some(1.0), Some(1.0)).len(), 2);
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
}

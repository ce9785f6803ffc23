//! One-shot workloads: every lap is one whole call made from the
//! session's main thread — `TcpScaleCluster::run_with_workers` (fabric
//! bring-up included; there is no persistent-fabric API) or one
//! plan-and-lower pass. Closed loop, one caller.

use std::time::{Duration, Instant};

use bruck_collectives::verify;
use bruck_model::planner::IndexPlan;
use bruck_net::{ClusterConfig, Reliability, RunMetrics, TcpScaleCluster};

use crate::planwork;
use crate::procinfo::{peak_rss_mib, CpuMark};
use crate::session::{Monitor, Outcome, Report, SessionArgs, MIN_PHASE_LAPS};
use crate::spec::{Shape, ZIPF_S};
use crate::stats::LapStats;
use crate::trace::{self_times, SpanLog, NONE};
use crate::zipf;

/// The plan both TCP workloads run.
pub const TCP_PLAN: IndexPlan = IndexPlan::Radix(2);

/// Per-round patience and whole-call deadline of a TCP lap: both well
/// inside the hard lap timeout, so a stuck call fails in-band.
const TCP_TIMEOUT: Duration = Duration::from_secs(15);
const TCP_DEADLINE: Duration = Duration::from_secs(20);

pub fn tcp_config(n: usize, node_size: usize) -> ClusterConfig {
    ClusterConfig::new(n)
        .with_node_size(node_size)
        .with_timeout(TCP_TIMEOUT)
        .with_deadline(TCP_DEADLINE)
        .with_reliability(Reliability::default())
}

/// Drive `lap` through warm-up and the timed loop and fill the timing
/// values every one-shot workload reports. `lap` returns the per-lap
/// error, if any; the loop goes on after a failed lap (each call is
/// self-contained).
fn drive(
    args: &SessionArgs,
    monitor: &Monitor,
    log: &mut SpanLog,
    report: &mut Report,
    mut lap: impl FnMut(&mut SpanLog, u64) -> Result<(), String>,
) {
    let mut lap_id = 0u64;
    let mut checked = |log: &mut SpanLog, lap_id: u64| -> u64 {
        monitor.lap_begin();
        log.begin("lap", lap_id as u32);
        let t0 = Instant::now();
        let result = lap(log, lap_id);
        let took = t0.elapsed().as_nanos() as u64;
        log.end();
        if let Err(e) = result {
            monitor.fail(lap_id, e);
        }
        monitor.lap_end();
        took
    };

    log.begin("setup.warmup", NONE);
    for _ in 0..args.workload.warmup() {
        checked(log, lap_id);
        lap_id += 1;
    }
    log.end();

    report.set("setup_s", monitor.now_ns() as f64 / 1e9);
    log.begin("phase.timed", NONE);
    let cpu_start = CpuMark::now();
    let start = Instant::now();
    let mut laps = Vec::new();
    while (laps.len() as u64) < MIN_PHASE_LAPS || start.elapsed().as_secs_f64() < args.seconds {
        laps.push(checked(log, lap_id));
        lap_id += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let used = CpuMark::now().since(&cpu_start);
    log.end();

    let count = laps.len();
    let stats = LapStats::of(&mut laps);
    report.set("lap_mid_us", stats.mid_us);
    report.set("lap.p50_us", stats.p50_us);
    report.set("lap.samples", stats.samples as f64);
    report.set("lap.min_us", stats.min_us);
    report.set("lap.p90_us", stats.p90_us);
    report.set("lap.p99_us", stats.p99_us);
    report.set("lap.iqr_us", stats.iqr_us);
    report.set("laps_per_s", count as f64 / wall_s);
    report.set("cpu_ms_per_lap", used.cpu_s * 1e3 / count as f64);
    report.set("proc.busy_cores", used.busy_cores);
    report.set("proc.sys_share", used.sys_share);
    report.set("peak_rss_mb", peak_rss_mib());
    if args.traced {
        let totals = self_times(log);
        let laps_ns = totals.get("lap").map_or(0, |t| t.total_ns).max(1) as f64;
        for name in ["collective", "verify"] {
            let ns = totals.get(name).map_or(0, |t| t.total_ns);
            report.set(&format!("span.{name}_share"), ns as f64 / laps_ns);
        }
    }
}

/// Sums of the counters every TCP lap returns.
#[derive(Default)]
struct TcpCounters {
    laps: u64,
    metrics: Vec<RunMetrics>,
    threads: usize,
}

pub fn run_tcp(args: &SessionArgs, monitor: &Monitor, log: &mut SpanLog) -> Outcome {
    let Shape::TcpOneShot {
        n,
        node_size,
        b,
        workers,
        ..
    } = args.workload.shape
    else {
        unreachable!("run_tcp is dispatched on TcpOneShot");
    };
    let mut report = Report::default();
    report
        .notes
        .insert("transport".into(), "tcp-loopback".into());
    report.notes.insert("plan".into(), TCP_PLAN.label());
    report.set("payload_bytes_per_lap", (n * (n - 1) * b) as f64);

    log.begin("setup.inputs", NONE);
    let inputs: Vec<Vec<u8>> = (0..n).map(|r| verify::index_input(r, n, b)).collect();
    let expected: Vec<Vec<u8>> = (0..n).map(|r| verify::index_expected(r, n, b)).collect();
    let cfg = tcp_config(n, node_size);
    log.end();

    let mut seen = TcpCounters::default();
    drive(args, monitor, log, &mut report, |log, _| {
        log.begin("collective", NONE);
        let out = TcpScaleCluster::run_with_workers(&cfg, &TCP_PLAN, b, &inputs, Some(workers));
        log.end();
        let out = out.map_err(|e| e.to_string())?;
        log.begin("verify", NONE);
        let wrong = out
            .results
            .iter()
            .zip(&expected)
            .position(|(got, want)| got != want);
        log.end();
        seen.laps += 1;
        seen.threads = out.threads;
        seen.metrics.push(out.metrics);
        match wrong {
            None => Ok(()),
            Some(rank) => Err(format!(
                "rank {rank}: oracle mismatch, first wrong block {:?}",
                verify::first_block_mismatch(&out.results[rank], &expected[rank], b)
            )),
        }
    });
    tcp_counters(&mut report, &seen, n);
    Outcome {
        report,
        logs: Vec::new(),
    }
}

/// Per-lap means of what `ScaleOutput.metrics` counted (each lap is its
/// own run, so there is nothing to subtract).
fn tcp_counters(report: &mut Report, seen: &TcpCounters, n: usize) {
    if seen.laps == 0 {
        return;
    }
    let per = |f: &dyn Fn(&RunMetrics) -> u64| {
        seen.metrics.iter().map(f).sum::<u64>() as f64 / seen.laps as f64
    };
    report.set(
        "net.endpoint.rounds_per_lap",
        per(&|m| m.global_complexity().map_or(0, |c| c.c1)),
    );
    report.set(
        "net.endpoint.c2_bytes_per_lap",
        per(&|m| m.global_complexity().map_or(0, |c| c.c2)),
    );
    report.set("net.endpoint.msgs_per_lap", per(&RunMetrics::total_msgs));
    report.set("net.endpoint.bytes_per_lap", per(&RunMetrics::total_bytes));
    report.set(
        "core.bytes_copied_per_lap",
        per(&RunMetrics::total_bytes_copied),
    );
    report.set(
        "core.bytes_gathered_per_lap",
        per(&RunMetrics::total_bytes_gathered),
    );
    let ms_per_rank = |f: &dyn Fn(&RunMetrics) -> u64| per(f) / 1e6 / n as f64;
    report.set(
        "net.endpoint.send_ms_per_lap",
        ms_per_rank(&|m| m.wall_phase_ns().0),
    );
    report.set(
        "net.endpoint.recv_wait_ms_per_lap",
        ms_per_rank(&|m| m.wall_phase_ns().1),
    );
    report.set(
        "net.reliable.retransmits_per_lap",
        per(&|m| m.link_totals().retransmits),
    );
    report.set(
        "net.reliable.acks_per_lap",
        per(&|m| m.link_totals().acks_sent),
    );
    report.set(
        "net.reliable.probes_per_lap",
        per(&|m| m.link_totals().probes_sent),
    );
    report.set(
        "net.reliable.dups_dropped_per_lap",
        per(&|m| m.link_totals().dups_dropped),
    );
    let link = seen
        .metrics
        .iter()
        .fold(bruck_net::LinkStats::default(), |acc, m| {
            acc.merged(&m.link_totals())
        });
    report.set("net.reliable.piggyback_ratio", link.piggyback_ratio());
    report.set("net.reliable.window_occupancy", link.avg_window_occupancy());
    report.set(
        "net.reliable.stall_escalations",
        link.stall_escalations as f64,
    );
    report.set("net.tcp.threads", seen.threads as f64);
    report.set("net.tcp.reconnects_per_lap", per(&|m| m.fabric.reconnects));
    report.set(
        "net.tcp.link_failures_per_lap",
        per(&|m| m.fabric.link_failures),
    );
    report.set(
        "net.tcp.outbox_shed_bytes_per_lap",
        per(&|m| m.fabric.outbox_shed_bytes),
    );
}

pub fn run_plan(args: &SessionArgs, monitor: &Monitor, log: &mut SpanLog) -> Outcome {
    let Shape::PlanOnly { n, .. } = args.workload.shape else {
        unreachable!("run_plan is dispatched on PlanOnly");
    };
    let mut report = Report::default();
    report.notes.insert("transport".into(), "none".into());

    log.begin("setup.inputs", NONE);
    let sizes: Vec<u64> = zipf::matrix(n, 256, ZIPF_S, args.seed)
        .into_iter()
        .map(|c| c as u64)
        .collect();
    log.end();

    let mut first = None;
    drive(args, monitor, log, &mut report, |log, lap_id| {
        let sum = planwork::full_pass(n, &sizes, log, lap_id as u32)?;
        match *first.get_or_insert(sum) {
            want if want == sum => Ok(()),
            want => Err(format!("checksum {sum:#x} differs from lap 0's {want:#x}")),
        }
    });
    Outcome {
        report,
        logs: Vec::new(),
    }
}

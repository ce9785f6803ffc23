//! Thread-per-rank workloads: every rank calls one public collective in a
//! loop on `Cluster::run` (channels) or `SocketCluster::run` (Unix
//! datagrams). Closed loop: a rank's next call starts when its previous
//! one returned; the only threads are the library's rank threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bruck_collectives::api::{allgather_into, alltoall_into, Tuning};
use bruck_collectives::autotune::calibrated_fit;
use bruck_collectives::primitives::barrier_dissemination;
use bruck_collectives::vbruck::VLayout;
use bruck_collectives::verify;
use bruck_collectives::vops::alltoallv_auto_into;
use bruck_model::cost::LinearModel;
use bruck_net::{
    Cluster, ClusterConfig, Endpoint, NetError, Reliability, RunOutput, SocketCluster,
};

use crate::procinfo::{peak_rss_mib, CpuMark};
use crate::session::{Mode, Monitor, Outcome, Report, SessionArgs, MIN_PHASE_LAPS};
use crate::spec::{Collective, LoopShape, Shape, Wire, ZIPF_S};
use crate::stats::LapStats;
use crate::trace::{self_times, SpanLog, NONE};
use crate::zipf;

impl LoopShape {
    /// Run `body` on the workload's cluster type with `n` ranks: plain
    /// channels, or Unix sockets under the default reliability sublayer.
    pub fn run_cluster<T, F>(&self, n: usize, body: F) -> Result<RunOutput<T>, NetError>
    where
        T: Send,
        F: Fn(&mut Endpoint) -> Result<T, NetError> + Sync,
    {
        let cfg = ClusterConfig::new(n).with_ports(self.k.min(n - 1).max(1));
        match self.wire {
            Wire::Channel => Cluster::run(&cfg, body),
            _ => SocketCluster::run(&cfg.with_reliability(Reliability::default()), body),
        }
    }
}

/// One rank's buffers and the call it repeats.
struct RankOp<'a> {
    shape: &'a LoopShape,
    tuning: &'a Tuning,
    model: &'a LinearModel,
    input: Vec<u8>,
    expected: Vec<u8>,
    out: Vec<u8>,
    layout: Option<VLayout>,
    expected_counts: Vec<usize>,
    plan: String,
}

impl<'a> RankOp<'a> {
    /// Inputs are the fixed `verify::*` patterns; only the Zipf size
    /// matrix depends on the seed.
    fn new(
        shape: &'a LoopShape,
        tuning: &'a Tuning,
        model: &'a LinearModel,
        matrix: &[usize],
        rank: usize,
    ) -> Self {
        let (n, b) = (shape.n, shape.b);
        let (input, expected, layout, expected_counts) = match shape.collective {
            Collective::Alltoall => (
                verify::index_input(rank, n, b),
                verify::index_expected(rank, n, b),
                None,
                Vec::new(),
            ),
            Collective::Allgather => (
                verify::concat_input(rank, b),
                verify::concat_expected(n, b),
                None,
                Vec::new(),
            ),
            Collective::AlltoallvZipf => {
                let layout = VLayout::from_counts(&matrix[rank * n..(rank + 1) * n]);
                let mut input = vec![0u8; layout.total()];
                for j in 0..n {
                    for (t, byte) in input[layout.range(j)].iter_mut().enumerate() {
                        *byte = verify::content_byte(rank, j, t);
                    }
                }
                let counts: Vec<usize> = (0..n).map(|src| matrix[src * n + rank]).collect();
                let expected = counts
                    .iter()
                    .enumerate()
                    .flat_map(|(src, &len)| {
                        (0..len).map(move |t| verify::content_byte(src, rank, t))
                    })
                    .collect();
                (input, expected, Some(layout), counts)
            }
        };
        let out = vec![0u8; expected.len()];
        Self {
            shape,
            tuning,
            model,
            input,
            expected,
            out,
            layout,
            expected_counts,
            plan: String::new(),
        }
    }

    /// The one public API call a lap times. The output buffer is
    /// poisoned first so bytes left over from the previous lap cannot
    /// pass the oracle.
    fn call(&mut self, ep: &mut Endpoint) -> Result<(), NetError> {
        for byte in self.out.iter_mut().step_by(64) {
            *byte ^= 0xFF;
        }
        match self.shape.collective {
            Collective::Alltoall => {
                alltoall_into(ep, &self.input, self.shape.b, self.tuning, &mut self.out)
            }
            Collective::Allgather => allgather_into(ep, &self.input, self.tuning, &mut self.out),
            Collective::AlltoallvZipf => {
                let layout = self.layout.as_ref().expect("v-op has a layout");
                let (recv, choice) =
                    alltoallv_auto_into(ep, &self.input, layout, self.model, &mut self.out)?;
                if recv.counts() != self.expected_counts.as_slice() {
                    return Err(NetError::App(
                        "receive layout differs from the matrix".into(),
                    ));
                }
                if self.plan.is_empty() {
                    self.plan = choice.plan.label();
                }
                Ok(())
            }
        }
    }

    /// The oracle: `None` when every byte is right.
    fn mismatch(&self) -> Option<String> {
        if self.out == self.expected {
            return None;
        }
        if self.out.len() != self.expected.len() {
            return Some(format!(
                "output is {} bytes, oracle says {}",
                self.out.len(),
                self.expected.len()
            ));
        }
        let block = verify::first_block_mismatch(&self.out, &self.expected, self.shape.b);
        Some(format!("oracle mismatch, first wrong block {block:?}"))
    }
}

/// What one rank's timed phases produced.
struct RankTiming {
    /// Own duration of every latency-phase call, in lap order.
    laps_ns: Vec<u64>,
    /// Back-to-back phase: first call start / last call end (ns since
    /// the session epoch) and the lap count.
    b2b: (u64, u64, u64),
    /// Rank 0 only: when the first timed lap began, and CPU use of the
    /// timed phases.
    setup_done_ns: u64,
    cpu: Option<(CpuMark, CpuMark)>,
    plan: String,
}

/// What one rank thread hands back.
struct RankLog {
    timing: RankTiming,
    spans: SpanLog,
}

/// Run one lap's call and oracle check; an `Err` from the library ends
/// this rank's session (the cluster is no longer usable), a wrong byte
/// is recorded and the loop goes on.
fn lap(
    ep: &mut Endpoint,
    op: &mut RankOp<'_>,
    monitor: &Monitor,
    spans: &mut SpanLog,
    lap_id: u64,
) -> Result<u64, NetError> {
    let lead = ep.rank() == 0;
    if lead {
        monitor.lap_begin();
    }
    spans.begin("collective", lap_id as u32);
    let t0 = Instant::now();
    let result = op.call(ep);
    let took = t0.elapsed().as_nanos() as u64;
    spans.end();
    if let Err(e) = result {
        monitor.fail(lap_id, format!("rank {}: {e}", ep.rank()));
        return Err(e);
    }
    spans.begin("verify", lap_id as u32);
    if let Some(what) = op.mismatch() {
        monitor.fail(lap_id, format!("rank {}: {what}", ep.rank()));
    }
    spans.end();
    if lead {
        monitor.lap_end();
    }
    Ok(took)
}

struct Shared<'a> {
    args: &'a SessionArgs,
    shape: LoopShape,
    monitor: &'a Monitor,
    tuning: Tuning,
    model: LinearModel,
    matrix: Vec<usize>,
    /// Latency-phase lap at which every rank stops; rank 0 writes it
    /// before entering the barrier that precedes that lap, the others
    /// read it after leaving the same barrier.
    stop_at: AtomicU64,
}

fn rank_body(ep: &mut Endpoint, sh: &Shared<'_>) -> Result<RankLog, NetError> {
    let name = format!("rank{}", ep.rank());
    let mut spans = SpanLog::new(sh.args.traced, sh.monitor.epoch, name);
    spans.begin("rank", NONE);
    let timing = rank_phases(ep, sh, &mut spans);
    spans.close_all();
    timing.map(|timing| RankLog { timing, spans })
}

fn rank_phases(
    ep: &mut Endpoint,
    sh: &Shared<'_>,
    spans: &mut SpanLog,
) -> Result<RankTiming, NetError> {
    let lead = ep.rank() == 0;
    let monitor = sh.monitor;
    let budget_ns = (sh.args.seconds * 1e9) as u64;

    spans.begin("setup.inputs", NONE);
    let mut op = RankOp::new(&sh.shape, &sh.tuning, &sh.model, &sh.matrix, ep.rank());
    spans.end();

    spans.begin("setup.warmup", NONE);
    let mut lap_id = 0u64;
    for _ in 0..sh.shape.warmup {
        lap(ep, &mut op, monitor, spans, lap_id)?;
        lap_id += 1;
    }
    spans.end();

    let mut laps_ns = Vec::new();
    let mut setup_done_ns = 0;
    let mut cpu_start = None;
    let b2b;

    if sh.args.mode == Mode::Counters {
        // A fixed number of back-to-back laps and nothing else: no
        // barrier, no stop protocol, so every counter in `RunMetrics`
        // belongs to a collective call and divides exactly by the calls.
        spans.begin("phase.counters", NONE);
        let start = monitor.now_ns();
        for _ in 0..sh.args.laps {
            lap(ep, &mut op, monitor, spans, lap_id)?;
            lap_id += 1;
        }
        spans.end();
        b2b = (start, monitor.now_ns(), sh.args.laps);
    } else {
        // Latency phase: a dissemination barrier before every lap, each
        // rank times its own call. Half the session's seconds.
        spans.begin("phase.latency", NONE);
        let mut phase_start = 0;
        let mut i = 0u64;
        loop {
            if lead && i >= MIN_PHASE_LAPS && monitor.now_ns() - phase_start >= budget_ns / 2 {
                sh.stop_at.store(i, Ordering::SeqCst);
            }
            spans.begin("barrier", lap_id as u32);
            barrier_dissemination(ep)?;
            spans.end();
            if i >= sh.stop_at.load(Ordering::SeqCst) {
                break;
            }
            if lead && i == 0 {
                phase_start = monitor.now_ns();
                setup_done_ns = phase_start;
                cpu_start = Some(CpuMark::now());
            }
            laps_ns.push(lap(ep, &mut op, monitor, spans, lap_id)?);
            lap_id += 1;
            i += 1;
        }
        spans.end();

        // Back-to-back phase: the same number of laps with no barrier.
        spans.begin("phase.b2b", NONE);
        let start = monitor.now_ns();
        for _ in 0..i {
            lap(ep, &mut op, monitor, spans, lap_id)?;
            lap_id += 1;
        }
        b2b = (start, monitor.now_ns(), i);
        spans.begin("barrier", NONE);
        barrier_dissemination(ep)?;
        spans.end();
        spans.end();
    }

    Ok(RankTiming {
        laps_ns,
        b2b,
        setup_done_ns,
        cpu: cpu_start.map(|start| (start, CpuMark::now())),
        plan: op.plan,
    })
}

/// Run one session of a thread-per-rank workload.
pub fn run(args: &SessionArgs, monitor: &Monitor, main: &mut SpanLog) -> Outcome {
    let Shape::RankLoop(shape) = args.workload.shape else {
        unreachable!("rankloop::run is dispatched on RankLoop");
    };
    let mut report = Report::default();
    report
        .notes
        .insert("transport".into(), shape.wire.label().into());

    main.begin("setup.inputs", NONE);
    let matrix = match shape.collective {
        Collective::AlltoallvZipf => zipf::matrix(shape.n, shape.b, ZIPF_S, args.seed),
        _ => Vec::new(),
    };
    let n = shape.n;
    let payload: usize = match shape.collective {
        Collective::AlltoallvZipf => (0..n * n)
            .filter(|at| at / n != at % n)
            .map(|at| matrix[at])
            .sum(),
        _ => n * (n - 1) * shape.b,
    };
    report.set("payload_bytes_per_lap", payload as f64);
    let tuning = Tuning::builder().planner(true).build();
    main.end();

    // The v-op API takes a cost model: fit one against the live
    // transport first, as a caller would, in a cluster run of its own so
    // the probe traffic stays out of the counters.
    let mut model = LinearModel::sp1();
    if shape.collective == Collective::AlltoallvZipf {
        main.begin("setup.calibrate", NONE);
        match shape.run_cluster(shape.n, calibrated_fit) {
            Ok(out) => model = out.results[0].model,
            Err(e) => monitor.fail(0, format!("calibration: {e}")),
        }
        main.end();
    }

    let shared = Shared {
        args,
        shape,
        monitor,
        tuning,
        model,
        matrix,
        stop_at: AtomicU64::new(u64::MAX),
    };
    main.begin("cluster.run", NONE);
    let ran = shape.run_cluster(shape.n, |ep| rank_body(ep, &shared));
    main.end();

    let mut logs = Vec::new();
    match ran {
        Err(e) => {
            // The failing lap recorded its own error; make sure a
            // failure outside any lap is not lost either.
            if monitor.failed() == 0 {
                monitor.fail(monitor.attempted(), format!("cluster: {e}"));
            }
        }
        Ok(out) => {
            let timed_laps = summarize(&mut report, &out, args.mode);
            if args.mode == Mode::Counters {
                counters(&mut report, &shape, &out, shape.warmup + timed_laps);
            }
            if let Some(r) = out.results.iter().find(|r| !r.timing.plan.is_empty()) {
                report
                    .notes
                    .insert("vindex_plan".into(), r.timing.plan.clone());
            }
            logs = out.results.into_iter().map(|r| r.spans).collect();
        }
    }
    if args.traced {
        span_shares(&mut report, &logs);
    }
    report.set("peak_rss_mb", peak_rss_mib());
    Outcome { report, logs }
}

/// Fold the rank logs into the session's timing values; returns the
/// number of timed laps.
fn summarize(report: &mut Report, out: &RunOutput<RankLog>, mode: Mode) -> u64 {
    let ranks: Vec<&RankTiming> = out.results.iter().map(|r| &r.timing).collect();
    let (start, end, b2b_laps) = (
        ranks.iter().map(|r| r.b2b.0).min().unwrap_or(0),
        ranks.iter().map(|r| r.b2b.1).max().unwrap_or(0),
        ranks[0].b2b.2,
    );
    let b2b_s = end.saturating_sub(start) as f64 / 1e9;
    if b2b_s > 0.0 {
        report.set("laps_per_s", b2b_laps as f64 / b2b_s);
    }
    report.set("b2b_ms_per_lap", b2b_s * 1e3 / b2b_laps.max(1) as f64);
    if mode == Mode::Counters {
        return b2b_laps;
    }
    // A lap ends when its slowest rank ends.
    let count = ranks.iter().map(|r| r.laps_ns.len()).min().unwrap_or(0);
    let mut laps: Vec<u64> = (0..count)
        .map(|i| ranks.iter().map(|r| r.laps_ns[i]).max().unwrap_or(0))
        .collect();
    let stats = LapStats::of(&mut laps);
    report.set("lap_mid_us", stats.mid_us);
    report.set("lap.p50_us", stats.p50_us);
    report.set("lap.samples", stats.samples as f64);
    report.set("lap.min_us", stats.min_us);
    report.set("lap.p90_us", stats.p90_us);
    report.set("lap.p99_us", stats.p99_us);
    report.set("lap.iqr_us", stats.iqr_us);
    report.set("setup_s", ranks[0].setup_done_ns as f64 / 1e9);
    let timed = count as u64 + b2b_laps;
    if let Some((cpu_start, cpu_end)) = &ranks[0].cpu {
        let used = cpu_end.since(cpu_start);
        report.set("cpu_ms_per_lap", used.cpu_s * 1e3 / timed.max(1) as f64);
        report.set("proc.busy_cores", used.busy_cores);
        report.set("proc.sys_share", used.sys_share);
    }
    timed
}

/// Per-lap counters from a barrier-free run: every field of
/// `RunMetrics` divided by the number of collective calls made.
fn counters(report: &mut Report, shape: &LoopShape, out: &RunOutput<RankLog>, laps: u64) {
    let m = &out.metrics;
    let per = |x: u64| x as f64 / laps.max(1) as f64;
    if let Some(c) = m.global_complexity() {
        report.set("net.endpoint.rounds_per_lap", per(c.c1));
        report.set("net.endpoint.c2_bytes_per_lap", per(c.c2));
    }
    report.set("net.endpoint.msgs_per_lap", per(m.total_msgs()));
    report.set("net.endpoint.bytes_per_lap", per(m.total_bytes()));
    report.set("core.bytes_copied_per_lap", per(m.total_bytes_copied()));
    report.set("core.bytes_gathered_per_lap", per(m.total_bytes_gathered()));
    let (send_ns, recv_ns) = m.wall_phase_ns();
    let per_rank_lap_ms = |ns: u64| ns as f64 / 1e6 / (shape.n as u64 * laps.max(1)) as f64;
    report.set("net.endpoint.send_ms_per_lap", per_rank_lap_ms(send_ns));
    report.set(
        "net.endpoint.recv_wait_ms_per_lap",
        per_rank_lap_ms(recv_ns),
    );
    if let Some(&lap_ms) = report.values.get("b2b_ms_per_lap") {
        report.set(
            "net.endpoint.recv_wait_share",
            per_rank_lap_ms(recv_ns) / lap_ms,
        );
    }
    let link = m.link_totals();
    report.set("net.reliable.retransmits_per_lap", per(link.retransmits));
    report.set("net.reliable.acks_per_lap", per(link.acks_sent));
    report.set("net.reliable.piggyback_ratio", link.piggyback_ratio());
    report.set("net.reliable.window_occupancy", link.avg_window_occupancy());
    report.set("net.reliable.probes_per_lap", per(link.probes_sent));
    report.set("net.reliable.dups_dropped_per_lap", per(link.dups_dropped));
    report.set(
        "net.reliable.stall_escalations",
        link.stall_escalations as f64,
    );
    report.set("net.pool.alloc_per_lap", per(m.pool.allocated));
    let acquires = m.pool.allocated + m.pool.reused;
    if acquires > 0 {
        report.set(
            "net.pool.reuse_ratio",
            m.pool.reused as f64 / acquires as f64,
        );
    }
}

/// Self-time shares of the rank threads' spans.
fn span_shares(report: &mut Report, logs: &[SpanLog]) {
    let mut total = 0u64;
    let mut by_name = std::collections::BTreeMap::<&str, u64>::new();
    for log in logs {
        for (name, t) in self_times(log) {
            *by_name.entry(name).or_default() += t.self_ns;
            total += t.self_ns;
        }
    }
    if total == 0 {
        return;
    }
    for name in ["barrier", "collective", "verify"] {
        let ns = by_name.get(name).copied().unwrap_or(0);
        report.set(&format!("span.{name}_share"), ns as f64 / total as f64);
    }
}

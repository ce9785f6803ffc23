//! The supervisor: runs a workload as a sequence of child-process
//! sessions, never hangs on one, and folds what they report into the
//! workload's end-to-end and per-layer metrics.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bruck_model::{concat_bounds, index_bounds};

use crate::json::Json;
use crate::session::{Mode, Report, SessionArgs, HARD_LAP_TIMEOUT, MIN_PHASE_LAPS};
use crate::spec::{Collective, Shape, Wire, Workload, END_TO_END, PER_LAYER};
use crate::stats::midmean;

/// A whole invocation must end well inside the driver's 180 s limit.
const RUN_LIMIT: Duration = Duration::from_secs(165);

/// Directory for trace files and short-lived socket directories.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What one workload run produced, in the shape of the result file.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub end_to_end: BTreeMap<String, f64>,
    pub per_layer: BTreeMap<String, f64>,
    pub notes: BTreeMap<String, String>,
    pub wall_s: f64,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted >= 1
    }

    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("attempted", Json::Num(self.attempted as f64))
            .set("failed", Json::Num(self.failed as f64))
            .set("errors", Json::str_list(&self.errors))
            .set("wall_s", Json::Num(self.wall_s))
            .set("notes", Json::strs(&self.notes))
            .set("end_to_end", Json::nums(&self.end_to_end))
            .set("per_layer", Json::nums(&self.per_layer));
        o
    }
}

/// Run one child session to its end, or to `limit`, whichever is first.
fn run_child(c: &SessionArgs, label: &str, limit: Duration) -> Report {
    let started = Instant::now();
    let lost = |why: String, progress: (u64, u64)| {
        // The session died or was killed: everything after the last
        // progress line, starting with the lap in flight, did not run.
        let attempted = progress.0.max(1);
        Report {
            attempted,
            failed: (progress.1 + 1).min(attempted),
            errors: vec![format!(
                "session {label}: {why} after {:.1} s; laps beyond #{attempted} were not run",
                started.elapsed().as_secs_f64()
            )],
            ..Report::default()
        }
    };

    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return lost(format!("cannot find own executable: {e}"), (0, 0)),
    };
    let out = out_dir();
    let _ = std::fs::create_dir_all(&out);
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", c.workload.name])
        .args(["--seed", &c.seed.to_string()])
        .args(["--seconds", &c.seconds.to_string()])
        .args(["--mode", c.mode.label()])
        .args(["--laps", &c.laps.to_string()])
        .args(["--traced", if c.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if let Some(path) = &c.trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    // Keep the library's socket directories inside the checkout when the
    // path leaves room for `sockaddr_un` (108 bytes); else the system's.
    let tmp = out.join("tmp");
    if tmp.as_os_str().len() <= 40 && std::fs::create_dir_all(&tmp).is_ok() {
        cmd.env("TMPDIR", &tmp);
    }
    let mut child = match cmd.spawn() {
        Ok(child) => child,
        Err(e) => return lost(format!("spawn failed: {e}"), (0, 0)),
    };

    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let mut progress = (0u64, 0u64);
    let mut report = None;
    let why = loop {
        let left = limit.saturating_sub(started.elapsed());
        match rx.recv_timeout(left) {
            Ok(line) => {
                if let Some(rest) = line.strip_prefix("P ") {
                    let mut it = rest.split(' ').filter_map(|x| x.parse::<u64>().ok());
                    if let (Some(a), Some(f)) = (it.next(), it.next()) {
                        progress = (a, f);
                    }
                } else if let Some(rest) = line.strip_prefix("R ") {
                    report = Json::parse(rest).ok().as_ref().and_then(Report::from_json);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let _ = child.kill();
                break format!("killed at the {:.0} s session limit", limit.as_secs_f64());
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break String::new(),
        }
    };
    let status = child.wait();
    let _ = reader.join();
    match (report, status) {
        (Some(report), _) => report,
        (None, _) if !why.is_empty() => lost(why, progress),
        (None, Ok(status)) => lost(format!("child died ({status})"), progress),
        (None, Err(e)) => lost(format!("child lost ({e})"), progress),
    }
}

/// Spin every core for a moment before the first session. After an idle
/// gap this VM runs a fresh process on one core for up to a second (the
/// sizing runs showed `busy_cores` ≈ 1.1 and 2.5× laps in the first
/// session after a 5 s pause, never in the second); users calling a
/// collective in a loop are not in that state, so it is kept out of the
/// measurement the way cold caches are.
fn warm_host() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let until = Instant::now() + Duration::from_millis(300);
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// Interquartile mean of `key` over the sessions labelled `label` that
/// reported it.
fn across(reports: &[(&str, Report)], label: &str, key: &str) -> Option<f64> {
    let values: Vec<f64> = reports
        .iter()
        .filter(|(l, _)| *l == label)
        .filter_map(|(_, r)| r.values.get(key).copied())
        .collect();
    (!values.is_empty()).then(|| midmean(&values))
}

/// Run `workload` for `seconds` of timed laps. Untraced: `sessions` full
/// sessions, end-to-end metrics as interquartile means over them (set-up is paid and
/// timed once per session, and a one-off scheduling mode of one child
/// process cannot set the reported lap time). Traced: one
/// untraced and one traced full session, a barrier-free counting
/// session (thread-per-rank workloads), and the probe session.
pub fn run_workload(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    sessions: usize,
) -> WorkloadResult {
    let started = Instant::now();
    let rank_loop = matches!(workload.shape, Shape::RankLoop(_));
    let plan: Vec<(Mode, bool, f64, &str)> = if !traced {
        (0..sessions)
            .map(|_| (Mode::Full, false, seconds / sessions as f64, "full"))
            .collect()
    } else if rank_loop {
        vec![
            (Mode::Full, false, seconds * 0.3, "untraced"),
            (Mode::Full, true, seconds * 0.4, "traced"),
            (Mode::Counters, false, seconds * 0.3, "counters"),
            (Mode::Probes, true, 0.0, "probes"),
        ]
    } else {
        vec![
            (Mode::Full, false, seconds * 0.5, "untraced"),
            (Mode::Full, true, seconds * 0.5, "traced"),
            (Mode::Probes, true, 0.0, "probes"),
        ]
    };

    // A smoke run measures nothing worth protecting.
    if seconds >= 1.0 {
        warm_host();
    }
    let mut result = WorkloadResult::default();
    let mut reports: Vec<(&str, Report)> = Vec::new();
    for (i, (mode, with_spans, secs, label)) in plan.into_iter().enumerate() {
        let left = RUN_LIMIT.saturating_sub(started.elapsed());
        let limit = (Duration::from_secs_f64(60.0 + secs) + HARD_LAP_TIMEOUT).min(left);
        // The counting session repeats what the untraced one measured
        // as its back-to-back rate, for its share of the seconds.
        let laps = across(&reports, "untraced", "laps_per_s")
            .map_or(MIN_PHASE_LAPS, |rate| (rate * secs) as u64)
            .max(MIN_PHASE_LAPS);
        let session = SessionArgs {
            workload,
            seed,
            seconds: secs,
            mode,
            laps,
            traced: with_spans,
            trace_out: with_spans
                .then(|| out_dir().join(format!("trace-{}-{}.json", workload.name, mode.label()))),
        };
        let report = if left < Duration::from_secs(5) {
            Report {
                attempted: 1,
                failed: 1,
                errors: vec![format!(
                    "session {label}#{i}: not started, run limit reached"
                )],
                ..Report::default()
            }
        } else {
            run_child(&session, &format!("{label}#{i}"), limit)
        };
        result.attempted += report.attempted;
        result.failed += report.failed;
        result.errors.extend(report.errors.iter().cloned());
        for (k, v) in &report.notes {
            result.notes.insert(k.clone(), v.clone());
        }
        reports.push((label, report));
    }

    if traced {
        per_layer(&mut result, workload, &reports);
    } else {
        for m in &END_TO_END {
            if let Some(v) = across(&reports, "full", m.name) {
                result.end_to_end.insert(m.name.to_string(), v);
            }
        }
        if let Some(v) = across(&reports, "full", "payload_bytes_per_lap") {
            result
                .notes
                .insert("payload_bytes_per_lap".into(), format!("{v}"));
        }
    }
    result.wall_s = started.elapsed().as_secs_f64();
    result
}

/// Assemble the per-layer table of a traced run. A metric that does not
/// apply to the workload reads 0.
fn per_layer(result: &mut WorkloadResult, workload: &Workload, reports: &[(&str, Report)]) {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    // Later sources win: counters of a TCP lap come with every session,
    // the dedicated counting session (when there is one) overrides them.
    for source in ["untraced", "probes", "counters"] {
        for m in PER_LAYER {
            if let Some(x) = across(reports, source, m.name) {
                v.insert(m.name.to_string(), x);
            }
        }
    }
    for name in [
        "span.barrier_share",
        "span.collective_share",
        "span.verify_share",
        "unattributed_share",
    ] {
        if let Some(x) = across(reports, "traced", name) {
            v.insert(name.to_string(), x);
        }
    }
    let get = |v: &BTreeMap<String, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let lap_us = across(reports, "untraced", "lap_mid_us").unwrap_or(0.0);
    if let (Some(t), true) = (across(reports, "traced", "lap_mid_us"), lap_us > 0.0) {
        v.insert("trace_overhead_pct".into(), (t - lap_us) / lap_us * 100.0);
    }

    let (n, k, b, collective) = match workload.shape {
        Shape::RankLoop(l) => (l.n, l.k, l.b, Some(l.collective)),
        Shape::TcpOneShot { n, b, .. } => (n, 1, b, Some(Collective::Alltoall)),
        Shape::PlanOnly { n, .. } => (n, 1, 64, None),
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get) as f64;

    // Complexity against the paper's lower bounds. Ragged blocks (the
    // v-op): the round bound does not depend on the block size, and no
    // transfer bound is claimed.
    let (c1, c2) = (
        get(&v, "net.endpoint.rounds_per_lap"),
        get(&v, "net.endpoint.c2_bytes_per_lap"),
    );
    let bounds = match collective {
        Some(Collective::Alltoall) => Some((index_bounds(n, k, b), true)),
        Some(Collective::Allgather) => Some((concat_bounds(n, k, b), true)),
        Some(Collective::AlltoallvZipf) => Some((index_bounds(n, k, 1), false)),
        None => None,
    };
    if let Some((lb, uniform)) = bounds {
        v.insert("net.endpoint.c1_over_bound".into(), c1 / lb.c1 as f64);
        if uniform {
            v.insert("net.endpoint.c2_over_bound".into(), c2 / lb.c2 as f64);
        }
    }

    // Planning share: the thread-per-rank API re-plans in every rank on
    // every call; the TCP call lowers n programs.
    if lap_us > 0.0 {
        let plan_us = match (workload.shape, collective) {
            (Shape::RankLoop(_), Some(Collective::Alltoall)) => {
                n as f64 * get(&v, "model.planner.plan_index_us")
            }
            (Shape::RankLoop(_), Some(Collective::AlltoallvZipf)) => {
                n as f64 * get(&v, "model.planner.plan_vindex_us")
            }
            (Shape::TcpOneShot { .. }, _) => n as f64 * get(&v, "model.program.lower_us_per_rank"),
            _ => 0.0,
        };
        v.insert("model.plan_share".into(), plan_us / (cores * lap_us));
    }

    // Local block movement, computed from the measured rates and the
    // counted bytes: rotate + place over n·b, pack + unpack over what a
    // rank sends (allgather only copies).
    let nb = (n * b) as f64;
    let rate = |v: &BTreeMap<String, f64>, k: &str| get(v, k) * 1e3; // bytes per µs
    let sent_per_rank = get(&v, "net.endpoint.bytes_per_lap") / n as f64;
    let local_us = match collective {
        Some(Collective::Allgather) => nb / rate(&v, "core.blocks.copy_large_GBps"),
        Some(_) => {
            nb / rate(&v, "core.blocks.rotate_GBps")
                + nb / rate(&v, "core.blocks.place_GBps")
                + sent_per_rank / rate(&v, "core.blocks.pack_GBps")
                + sent_per_rank / rate(&v, "core.blocks.unpack_GBps")
        }
        None => 0.0,
    };
    if local_us.is_finite() {
        v.insert("core.blocks.local_us_per_lap".into(), local_us);
    }

    if let Shape::TcpOneShot { .. } = workload.shape {
        let execute_ms = lap_us / 1e3
            - get(&v, "net.tcp.fabric_setup_ms")
            - n as f64 * get(&v, "model.program.lower_us_per_rank") / 1e3;
        v.insert("tcp.execute_ms".into(), execute_ms);
    }

    // The lap the raw transport alone would allow on this box: the
    // fewest rounds any algorithm needs, each one raw one-way latency,
    // plus the lap's useful bytes at the raw one-stream rate (sender and
    // receiver of that stream already occupy both cores).
    if let (Some(wire), Some((lb, _))) = (workload.wire(), bounds) {
        let (rtt_us, mbps) = match wire {
            Wire::Channel => (
                get(&v, "ceiling.channel_rtt_us"),
                get(&v, "ceiling.memcpy_GBps") * 1e3,
            ),
            Wire::Uds => (
                get(&v, "ceiling.uds_dgram_rtt_us"),
                get(&v, "ceiling.uds_dgram_MBps"),
            ),
            Wire::Tcp => (
                get(&v, "ceiling.tcp_loopback_rtt_us"),
                get(&v, "ceiling.tcp_loopback_MBps"),
            ),
        };
        let payload = across(reports, "untraced", "payload_bytes_per_lap").unwrap_or(0.0);
        if lap_us > 0.0 && mbps > 0.0 {
            let ideal_us = lb.c1 as f64 * rtt_us / 2.0 + payload / mbps;
            v.insert("pct_of_ceiling".into(), ideal_us / lap_us * 100.0);
        }
    }

    for m in PER_LAYER {
        let x = v.get(m.name).copied().filter(|x| x.is_finite());
        result
            .per_layer
            .insert(m.name.to_string(), x.unwrap_or(0.0));
    }
}

//! One session = one child process running one workload once: set-up,
//! warm-up, timed laps. This module holds what the three workload shapes
//! share: the arguments, the report sent back to the supervisor, and the
//! monitor that makes failure accounting hang-proof.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::spec::Workload;
use crate::trace::SpanLog;

/// When no lap has begun or ended for this long — a lap that hangs, or
/// ranks stuck between laps behind one that left on an error — the lap
/// in flight is counted as failed and the session ends. Set-up is far
/// shorter, and the library's own receive timeout is 10 s, so an
/// in-band error normally arrives first.
pub const HARD_LAP_TIMEOUT: Duration = Duration::from_secs(30);

/// Fewest timed laps a phase runs, however short `--seconds` is.
pub const MIN_PHASE_LAPS: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set-up, warm-up, latency phase, back-to-back phase.
    Full,
    /// A fixed number of barrier-free laps only, so `RunMetrics` divides
    /// exactly by laps.
    Counters,
    /// Layer and ceiling probes; no workload laps.
    Probes,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Counters => "counters",
            Mode::Probes => "probes",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        [Mode::Full, Mode::Counters, Mode::Probes]
            .into_iter()
            .find(|m| m.label() == s)
    }
}

#[derive(Debug, Clone)]
pub struct SessionArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Wall seconds of timed laps this session should measure.
    pub seconds: f64,
    pub mode: Mode,
    /// Back-to-back laps of a `Counters` session (sized by the
    /// supervisor from the rate the untraced session measured).
    pub laps: u64,
    pub traced: bool,
    /// Where the Chrome trace goes when `traced`.
    pub trace_out: Option<std::path::PathBuf>,
}

/// What a session sends back: counts, error strings, named values.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub values: BTreeMap<String, f64>,
    /// Free-form facts (chosen plan labels, transport) for the result file.
    pub notes: BTreeMap<String, String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("attempted", Json::Num(self.attempted as f64))
            .set("failed", Json::Num(self.failed as f64))
            .set("errors", Json::str_list(&self.errors))
            .set("values", Json::nums(&self.values))
            .set("notes", Json::strs(&self.notes));
        o
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Self {
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            errors: j
                .get("errors")?
                .as_arr()
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
            values: j
                .get("values")?
                .fields()
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                .collect(),
            notes: j
                .get("notes")?
                .fields()
                .iter()
                .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                .collect(),
        })
    }
}

/// Shared between the workload threads and the watchdog thread.
#[derive(Debug)]
pub struct Monitor {
    /// Child-process start: the zero of `setup_s` and of every span.
    pub epoch: Instant,
    attempted: AtomicU64,
    /// Nanoseconds since `epoch` of the last lap begin or end.
    last_event: AtomicU64,
    /// First error string per failed lap.
    failures: Mutex<BTreeMap<u64, String>>,
    done: AtomicBool,
}

impl Monitor {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            attempted: AtomicU64::new(0),
            last_event: AtomicU64::new(0),
            failures: Mutex::new(BTreeMap::new()),
            done: AtomicBool::new(false),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// One thread (rank 0 or the driver loop) brackets every lap with
    /// these two, warm-up laps included: every lap is oracle-checked, so
    /// every lap counts as attempted.
    pub fn lap_begin(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        self.last_event.store(self.now_ns(), Ordering::Relaxed);
    }

    pub fn lap_end(&self) {
        self.last_event.store(self.now_ns(), Ordering::Relaxed);
    }

    /// Record that `lap` failed; the first message per lap is kept.
    pub fn fail(&self, lap: u64, msg: String) {
        self.failures
            .lock()
            .expect("no thread panics holding the failure map")
            .entry(lap)
            .or_insert(msg);
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failures.lock().map_or(0, |f| f.len() as u64)
    }

    /// Fill a report's counts and error strings (at most 8 are kept).
    pub fn stamp(&self, report: &mut Report) {
        let failures = self
            .failures
            .lock()
            .expect("no thread panics holding the failure map");
        report.failed = failures.len() as u64;
        // A failure before the first lap still counts as an attempt.
        report.attempted = self.attempted().max(report.failed);
        report.errors = failures
            .iter()
            .take(8)
            .map(|(lap, msg)| format!("lap {lap}: {msg}"))
            .collect();
    }

    pub fn finish(&self) {
        self.done.store(true, Ordering::SeqCst);
    }

    /// Watchdog loop, run on its own thread for the life of the session:
    /// prints a progress line the supervisor falls back on if this
    /// process dies, and ends the session when laps stop making progress
    /// — threads stuck inside the library cannot be cancelled, so it
    /// reports what is known (error strings included) and exits.
    pub fn watch(&self) {
        let mut last_progress = Instant::now();
        while !self.done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(25));
            if last_progress.elapsed() >= Duration::from_millis(250) {
                last_progress = Instant::now();
                emit(&format!("P {} {}", self.attempted(), self.failed()));
            }
            let idle = self
                .now_ns()
                .saturating_sub(self.last_event.load(Ordering::Relaxed));
            if idle > HARD_LAP_TIMEOUT.as_nanos() as u64 {
                self.fail(
                    self.attempted().saturating_sub(1),
                    format!(
                        "no lap began or ended for {} s; session ended early",
                        HARD_LAP_TIMEOUT.as_secs()
                    ),
                );
                let mut report = Report::default();
                self.stamp(&mut report);
                emit(&format!("R {}", report.to_json().render()));
                std::process::exit(0);
            }
        }
    }
}

/// One line to the supervisor, flushed.
pub fn emit(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Result of running a workload in-process: the report plus every
/// thread's span log (empty logs when tracing is off).
pub struct Outcome {
    pub report: Report,
    pub logs: Vec<SpanLog>,
}

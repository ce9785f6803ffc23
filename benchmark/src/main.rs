//! The repo's one tracked benchmark. See `benchmark/README.md`.
//!
//! ```text
//! bruck-benchmark run --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! bruck-benchmark run --seed N [--traced] [--smoke] [--repeat R]      the whole matrix, one result file
//! bruck-benchmark compare A.json B.json                               noise-aware regression gate
//! bruck-benchmark check RESULT.json                                   result names what spec.rs lists
//! bruck-benchmark contract                                            print BENCHMARK.json from spec.rs
//! ```

mod ceiling;
mod compare;
mod json;
mod layers;
mod oneshot;
mod planwork;
mod procinfo;
mod rankloop;
mod session;
mod spec;
mod stats;
mod supervise;
mod trace;
mod zipf;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use session::{Mode, Monitor, Outcome, SessionArgs};
use spec::{Metric, Shape, END_TO_END, PER_LAYER, WORKLOADS};
use supervise::WorkloadResult;
use trace::SpanLog;

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) if bare.contains(&key) => {
                    map.insert(key.to_string(), "1".to_string());
                }
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    map.insert(key.to_string(), value.clone());
                }
                None => return Err(format!("unexpected argument {a:?}")),
            }
        }
        Ok(Self(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.0
            .get(key)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("--{key}: bad value {v:?}"))
            })
            .transpose()
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("child") => child(&args[1..], epoch),
        Some("compare") => compare::main(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("contract") => {
            print!("{}", contract().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: bruck-benchmark run|compare|check … (see benchmark/README.md)".into()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bruck-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One session, in this process (the supervisor's child).
fn child(args: &[String], epoch: Instant) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[])?;
    let name: String = flags.get("workload")?.ok_or("child: --workload")?;
    let session = SessionArgs {
        workload: spec::workload(&name).ok_or(format!("unknown workload {name:?}"))?,
        seed: flags.get("seed")?.unwrap_or(0),
        seconds: flags.get("seconds")?.unwrap_or(1.0),
        mode: flags
            .get::<String>("mode")?
            .and_then(|m| Mode::parse(&m))
            .ok_or("child: --mode full|counters|probes")?,
        laps: flags.get("laps")?.unwrap_or(0),
        traced: flags.get::<u8>("traced")?.unwrap_or(0) != 0,
        trace_out: flags.get("trace-out")?,
    };
    let monitor = Monitor::new(epoch);
    let mut main_log = SpanLog::new(session.traced, epoch, "main");
    let Outcome { mut report, logs } = std::thread::scope(|scope| {
        // A probe session has no laps to watch; the supervisor's session
        // limit bounds it.
        if session.mode != Mode::Probes {
            scope.spawn(|| monitor.watch());
        }
        let outcome = match (session.mode, session.workload.shape) {
            (Mode::Probes, _) => Outcome {
                report: layers::run(&session, &mut main_log),
                logs: Vec::new(),
            },
            (_, Shape::RankLoop(_)) => rankloop::run(&session, &monitor, &mut main_log),
            (_, Shape::TcpOneShot { .. }) => oneshot::run_tcp(&session, &monitor, &mut main_log),
            (_, Shape::PlanOnly { .. }) => oneshot::run_plan(&session, &monitor, &mut main_log),
        };
        monitor.finish();
        outcome
    });
    main_log.close_all();
    monitor.stamp(&mut report);
    if session.traced {
        let wall_ns = monitor.now_ns();
        let covered = trace::covered_ns(&main_log, wall_ns);
        report.set(
            "unattributed_share",
            1.0 - covered as f64 / wall_ns.max(1) as f64,
        );
        if let Some(path) = &session.trace_out {
            let mut all = vec![main_log];
            all.extend(logs);
            let text = trace::chrome_trace(session.workload.name, &all);
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("bruck-benchmark: cannot write {}: {e}", path.display());
            }
        }
    }
    session::emit(&format!("R {}", report.to_json().render()));
    Ok(ExitCode::SUCCESS)
}

fn print_metrics(table: &[Metric], values: &BTreeMap<String, f64>) {
    for m in table {
        match values.get(m.name) {
            Some(v) => println!("  {:<40} {:>16.4} {}", m.name, v, m.unit),
            None => println!("  {:<40} {:>16} {}", m.name, "missing", m.unit),
        }
    }
}

fn print_result(name: &str, r: &WorkloadResult, traced: bool) {
    println!(
        "{name}: attempted {} failed {} ({:.1} s){}",
        r.attempted,
        r.failed,
        r.wall_s,
        if traced { " [traced]" } else { "" }
    );
    for e in &r.errors {
        println!("  error: {e}");
    }
    for (k, v) in &r.notes {
        println!("  note: {k} = {v}");
    }
    if traced {
        print_metrics(PER_LAYER, &r.per_layer);
    } else {
        print_metrics(&END_TO_END, &r.end_to_end);
    }
}

/// The last stdout line of a single-workload run: the driver's contract.
fn contract_line(r: &WorkloadResult, traced: bool) -> String {
    let (table, values): (&[Metric], _) = if traced {
        (PER_LAYER, &r.per_layer)
    } else {
        (&END_TO_END, &r.end_to_end)
    };
    let mut metrics = Json::obj();
    for m in table {
        let mut cell = Json::obj();
        cell.set(
            "value",
            Json::Num(values.get(m.name).copied().unwrap_or(f64::NAN)),
        )
        .set("unit", Json::Str(m.unit.to_string()));
        metrics.set(m.name, cell);
    }
    let complete = table.iter().all(|m| values.contains_key(m.name));
    let mut o = Json::obj();
    o.set("correct", Json::Bool(r.correct() && complete))
        .set("attempted", Json::Num(r.attempted.max(1) as f64))
        .set("failed", Json::Num(r.failed as f64))
        .set("metrics", metrics);
    o.render()
}

/// Timed seconds per workload of `run --smoke` (every phase still runs
/// its minimum of laps).
const SMOKE_SECONDS: f64 = 0.15;

const INPUTS_NOTE: &str = "--seed drives only the Zipf size matrix and its permutation \
(uds_skew_v, plan_only); every payload byte is the fixed verify::content_byte pattern";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["traced", "smoke"])?;
    let seed: u64 = flags.get("seed")?.unwrap_or(1);
    let smoke = flags.has("smoke");
    let seconds: f64 = flags.get("seconds")?.unwrap_or(if smoke {
        SMOKE_SECONDS
    } else {
        f64::from(spec::RUN_SECONDS)
    });
    // A smoke run checks that everything runs and verifies, not how fast.
    let sessions = |w: &spec::Workload| if smoke { 1 } else { w.sessions() };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }

    // Driver mode: one workload, one JSON line last on stdout.
    if let Some(name) = flags.get::<String>("workload")? {
        let workload = spec::workload(&name).ok_or(format!("unknown workload {name:?}"))?;
        let traced = flags.get::<u8>("trace")?.unwrap_or(0) != 0;
        println!("inputs: {INPUTS_NOTE}");
        let result = supervise::run_workload(workload, seed, seconds, traced, sessions(workload));
        print_result(workload.name, &result, traced);
        println!("{}", contract_line(&result, traced));
        return Ok(ExitCode::SUCCESS);
    }

    // Matrix mode: every workload, `--repeat` times, one result file.
    let traced = flags.has("traced");
    let repeat: u64 = flags.get("repeat")?.unwrap_or(1);
    let started = Instant::now();
    println!("inputs: {INPUTS_NOTE}");
    let mut runs = Vec::new();
    let mut all_correct = true;
    for rep in 0..repeat {
        let seed = seed + rep;
        let mut per_workload = Json::obj();
        for w in &WORKLOADS {
            let mut cell = supervise::run_workload(w, seed, seconds, false, sessions(w));
            print_result(w.name, &cell, false);
            all_correct &= cell.correct();
            if traced {
                let layers = supervise::run_workload(w, seed, seconds, true, sessions(w));
                print_result(w.name, &layers, true);
                all_correct &= layers.correct();
                cell.attempted += layers.attempted;
                cell.failed += layers.failed;
                cell.errors.extend(layers.errors);
                cell.per_layer = layers.per_layer;
                cell.wall_s += layers.wall_s;
            }
            per_workload.set(w.name, cell.to_json());
        }
        let mut run = Json::obj();
        run.set("seed", Json::Num(seed as f64))
            .set("workloads", per_workload);
        runs.push(run);
    }
    let mut file = Json::obj();
    file.set("schema", Json::Str("bruck-benchmark/1".into()))
        .set("env", procinfo::environment())
        .set("inputs", Json::Str(INPUTS_NOTE.into()))
        .set("seconds_per_workload", Json::Num(seconds))
        .set("smoke", Json::Bool(smoke))
        .set("traced", Json::Bool(traced))
        .set("wall_s", Json::Num(started.elapsed().as_secs_f64()))
        .set("runs", Json::Arr(runs));
    let path = match flags.get::<String>("out")? {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let dir = supervise::out_dir();
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            dir.join(format!("result-seed{seed}.json"))
        }
    };
    std::fs::write(&path, file.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} ({:.1} s)",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `BENCHMARK.json` as the tables in `spec.rs` define it; `check.sh`
/// fails when the committed file differs from this.
fn contract() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    let metric = |m: &Metric, bounded: bool| {
        let mut o = Json::obj();
        o.set("name", text(m.name))
            .set("unit", text(m.unit))
            .set("better", text(m.better.label()));
        if bounded {
            o.set("bound", Json::Num(m.bound));
        }
        o
    };
    let mut o = Json::obj();
    o.set(
        "command",
        Json::Arr(
            [
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]
            .map(text)
            .to_vec(),
        ),
    )
    .set("paths", Json::Arr(vec![text("benchmark")]))
    .set("run_seconds", Json::Num(f64::from(spec::RUN_SECONDS)))
    .set(
        "workloads",
        Json::Arr(
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut o = Json::obj();
                    o.set("name", text(w.name)).set("why", text(w.why));
                    o
                })
                .collect(),
        ),
    )
    .set(
        "end_to_end",
        Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
    )
    .set(
        "per_layer",
        Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    );
    o
}

/// `check RESULT.json`: an emitted result file names exactly the
/// workloads and metrics the tables in `spec.rs` list.
fn check(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("usage: check RESULT.json".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let result = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut problems = Vec::new();
    let want: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let traced = result.get("traced") == Some(&Json::Bool(true));
    let runs = result.get("runs").map(Json::as_arr).unwrap_or_default();
    if runs.is_empty() {
        problems.push("no runs in the file".to_string());
    }
    for run in runs {
        let cells = run.get("workloads").map(Json::fields).unwrap_or_default();
        let got: Vec<&str> = cells.iter().map(|(k, _)| k.as_str()).collect();
        if got != want {
            problems.push(format!("result names workloads {got:?}"));
        }
        for (name, cell) in cells {
            let mut tables = vec![("end_to_end", &END_TO_END[..])];
            if traced {
                tables.push(("per_layer", PER_LAYER));
            }
            for (key, table) in tables {
                let mut got: Vec<&str> = cell
                    .get(key)
                    .map(Json::fields)
                    .unwrap_or_default()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let mut want: Vec<&str> = table.iter().map(|m| m.name).collect();
                got.sort_unstable();
                want.sort_unstable();
                if got != want {
                    problems.push(format!("{name}: {key} metrics are not the listed ones"));
                }
            }
        }
    }
    if problems.is_empty() {
        println!("check: {path} names exactly the listed workloads and metrics");
        Ok(ExitCode::SUCCESS)
    } else {
        for p in &problems {
            println!("check: {p}");
        }
        Ok(ExitCode::from(1))
    }
}

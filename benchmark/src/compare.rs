//! `compare A.json B.json`: per (workload, end-to-end metric) both
//! medians, the ratio with its base, and ok / regressed / unresolved from
//! the bound fixed in the benchmark and each side's quartile spread.
//! Exits non-zero on any regression or any rise in the failure rate.

use std::process::ExitCode;

use crate::json::Json;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, spread, verdict, Verdict};

/// Counts that must repeat exactly between two runs of one commit.
const EXACT_COUNTS: [&str; 7] = [
    "net.endpoint.rounds_per_lap",
    "net.endpoint.c2_bytes_per_lap",
    "net.endpoint.msgs_per_lap",
    "net.endpoint.bytes_per_lap",
    "core.bytes_copied_per_lap",
    "core.bytes_gathered_per_lap",
    "net.tcp.threads",
];

/// One side of the comparison: a parsed result file.
struct Side {
    label: String,
    file: Json,
}

impl Side {
    fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if file.get("runs").is_none() {
            return Err(format!("{path}: not a bruck-benchmark result file"));
        }
        Ok(Self {
            label: path.to_string(),
            file,
        })
    }

    fn cells<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a Json> {
        self.file
            .get("runs")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(move |run| run.get("workloads")?.get(workload))
    }

    /// One value per run of `table.metric` on `workload`.
    fn values(&self, workload: &str, table: &str, metric: &str) -> Vec<f64> {
        self.cells(workload)
            .filter_map(|cell| cell.get(table)?.get(metric)?.as_f64())
            .collect()
    }

    /// `(failed, attempted)` summed over the runs.
    fn failures(&self, workload: &str) -> (f64, f64) {
        self.cells(workload).fold((0.0, 0.0), |(f, a), cell| {
            let num = |k: &str| cell.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            (f + num("failed"), a + num("attempted"))
        })
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: compare A.json B.json".into());
    };
    let (a, b) = (Side::load(a)?, Side::load(b)?);
    println!("A = {}\nB = {}", a.label, b.label);
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "IQR% A", "IQR% B", "bound"
    );
    let mut bad = 0usize;
    let mut unresolved = 0usize;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (
                a.values(w.name, "end_to_end", m.name),
                b.values(w.name, "end_to_end", m.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{:<14} {:<16} missing on one side", w.name, m.name);
                bad += 1;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let v = verdict(&va, &vb, m.better, m.bound);
            match v {
                Verdict::Regressed => bad += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>9.4} {:>7.2} {:>7.2} {:>6.2}  {}",
                w.name,
                m.name,
                ma,
                mb,
                mb / ma,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                m.bound,
                v.label()
            );
        }
        let ((fa, na), (fb, nb)) = (a.failures(w.name), b.failures(w.name));
        let (ra, rb) = (fa / na.max(1.0), fb / nb.max(1.0));
        let rose = rb > ra;
        println!(
            "{:<14} {:<16} {:>9}/{:<9} {:>9}/{:<9}  {}",
            w.name,
            "failed/attempted",
            fa,
            na,
            fb,
            nb,
            if rose { "failure rate rose" } else { "ok" }
        );
        bad += usize::from(rose);
        for count in EXACT_COUNTS {
            let (va, vb) = (
                a.values(w.name, "per_layer", count),
                b.values(w.name, "per_layer", count),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let same = va.iter().chain(&vb).all(|x| *x == va[0]);
            if !same {
                println!(
                    "{:<14} {count}: differs between runs (A {va:?}, B {vb:?})",
                    w.name
                );
            }
        }
    }
    println!("{bad} regressed or failing, {unresolved} unresolved (spread wider than the bound)");
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

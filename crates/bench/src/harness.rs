//! Measurement machinery behind the `figures` binary: each point is the
//! lowered programs run through `simulate`, checked against the oracle.

use std::sync::Arc;

use bruck_collectives::concat::ConcatAlgorithm;
use bruck_collectives::index::IndexAlgorithm;
use bruck_collectives::verify;
use bruck_model::complexity::Complexity;
use bruck_model::cost::CostModel;
use bruck_model::planner::IndexPlan;
use bruck_model::program::{simulate, RankProgram};
use bruck_sched::{Schedule, ScheduleStats};

/// One measured data point.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm display name.
    pub algo: String,
    /// Processors.
    pub n: usize,
    /// Ports.
    pub ports: usize,
    /// Block size in bytes.
    pub block: usize,
    /// Complexity of the schedule read off the programs that ran.
    pub complexity: Complexity,
    /// Virtual makespan of the simulated run (seconds) under the cost
    /// model.
    pub virtual_time: f64,
    /// Closed-form prediction from the planner's schedule (seconds).
    pub predicted_time: f64,
}

/// Simulate an index algorithm's programs under `model` and measure it.
///
/// # Panics
///
/// Panics if the algorithm has no lowering at this size or produces a
/// wrong result — a benchmark must never time an incorrect algorithm.
#[must_use]
pub fn measure_index(
    algo: IndexAlgorithm,
    n: usize,
    block: usize,
    ports: usize,
    model: Arc<dyn CostModel>,
) -> Measurement {
    measure_plan(&algo.index_plan(), n, block, ports, model)
}

/// Simulate an index plan's programs under `model` and measure it.
///
/// # Panics
///
/// As [`measure_index`].
#[must_use]
pub fn measure_plan(
    plan: &IndexPlan,
    n: usize,
    block: usize,
    ports: usize,
    model: Arc<dyn CostModel>,
) -> Measurement {
    let lower = |rank| RankProgram::lower(plan, n, rank, block, ports);
    let programs: Result<Vec<_>, _> = (0..n).map(lower).collect();
    let programs = programs.unwrap_or_else(|e| panic!("{}: {e}", plan.label()));
    let inputs: Vec<Vec<u8>> = (0..n).map(|r| verify::index_input(r, n, block)).collect();
    let expected = |rank| verify::index_expected(rank, n, block);
    let schedule = Schedule::from_programs(&programs, ports);
    measure(plan.label(), &programs, &inputs, expected, &schedule, model)
}

/// Simulate a concatenation algorithm's programs and measure it.
///
/// # Panics
///
/// Panics if the algorithm has no lowering at this size or produces a
/// wrong result.
#[must_use]
pub fn measure_concat(
    algo: ConcatAlgorithm,
    n: usize,
    block: usize,
    ports: usize,
    model: Arc<dyn CostModel>,
) -> Measurement {
    let lowering = algo.lower(n, block, ports);
    let lowering = lowering.unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
    let programs: Vec<RankProgram> = (0..n).map(|rank| lowering.program(rank)).collect();
    let inputs: Vec<Vec<u8>> = (0..n).map(|r| verify::concat_input(r, block)).collect();
    let expected = |_| verify::concat_expected(n, block);
    let schedule = Schedule::of_concat(&lowering);
    measure(algo.name(), &programs, &inputs, expected, &schedule, model)
}

/// Run `programs` on `inputs` through the simulator, hold every rank's
/// output to `expected(rank)`, and time it against `schedule`'s closed
/// form.
fn measure(
    algo: String,
    programs: &[RankProgram],
    inputs: &[Vec<u8>],
    expected: impl Fn(usize) -> Vec<u8>,
    schedule: &Schedule,
    model: Arc<dyn CostModel>,
) -> Measurement {
    let (n, ports) = (schedule.n, schedule.ports);
    let block = programs.first().map_or(0, |p| p.block);
    let sim = simulate(programs, inputs, model.as_ref(), |_, _, _| {})
        .unwrap_or_else(|e| panic!("{algo} failed on n={n} b={block} k={ports}: {e}"));
    for (rank, result) in sim.outputs.iter().enumerate() {
        assert_eq!(result, &expected(rank), "{algo} wrong at rank {rank}");
    }
    let stats = ScheduleStats::of(schedule);
    Measurement {
        algo,
        n,
        ports,
        block,
        complexity: stats.complexity,
        virtual_time: sim.makespan(),
        predicted_time: stats.predicted_time(model.as_ref()),
    }
}

/// Format seconds as milliseconds with fixed precision (figures use ms).
#[must_use]
pub fn ms(seconds: f64) -> String {
    format!("{:.4}", seconds * 1e3)
}

/// A minimal TSV writer that also mirrors rows to stdout.
#[derive(Debug)]
pub struct TsvSink {
    path: Option<std::path::PathBuf>,
    rows: Vec<String>,
}

impl TsvSink {
    /// A sink writing `results/<name>.tsv` (best-effort) and stdout.
    #[must_use]
    pub fn new(name: &str) -> Self {
        let dir = std::path::Path::new("results");
        let path = std::fs::create_dir_all(dir)
            .ok()
            .map(|()| dir.join(format!("{name}.tsv")));
        Self {
            path,
            rows: Vec::new(),
        }
    }

    /// Append one row (tab-separated fields).
    pub fn row(&mut self, fields: &[&str]) {
        let line = fields.join("\t");
        println!("{line}");
        self.rows.push(line);
    }

    /// Flush to disk.
    pub fn finish(self) {
        if let Some(path) = self.path {
            let _ = std::fs::write(&path, self.rows.join("\n") + "\n");
            eprintln!("[written {}]", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_model::cost::LinearModel;

    #[test]
    fn measure_index_agrees_with_plan() {
        let m = measure_index(
            IndexAlgorithm::BruckRadix(2),
            8,
            16,
            1,
            Arc::new(LinearModel::sp1()),
        );
        // Synchronous schedule: simulated time equals the closed form.
        assert!((m.virtual_time - m.predicted_time).abs() < 1e-9, "{m:?}");
        assert_eq!(m.complexity.c1, 3);
    }

    #[test]
    fn measure_concat_agrees_with_plan() {
        let m = measure_concat(
            ConcatAlgorithm::Bruck(Default::default()),
            9,
            8,
            2,
            Arc::new(LinearModel::sp1()),
        );
        assert!((m.virtual_time - m.predicted_time).abs() < 1e-9, "{m:?}");
        assert_eq!(m.complexity.c1, 2);
    }
}

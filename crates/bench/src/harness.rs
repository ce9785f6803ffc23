//! Measurement machinery behind the `figures` binary.

use std::sync::Arc;

use bruck_collectives::concat::ConcatAlgorithm;
use bruck_collectives::index::IndexAlgorithm;
use bruck_collectives::verify;
use bruck_model::complexity::Complexity;
use bruck_model::cost::CostModel;
use bruck_net::{Cluster, ClusterConfig};
use bruck_sched::ScheduleStats;

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
    /// Complexity measured from the live run's metrics.
    pub complexity: Complexity,
    /// Virtual makespan of the live run (seconds) under the cost model.
    pub virtual_time: f64,
    /// Closed-form prediction from the planner's schedule (seconds).
    pub predicted_time: f64,
}

/// Run an index algorithm on a live cluster under `model` and measure it.
///
/// # Panics
///
/// Panics if the run fails or produces a wrong result — a benchmark must
/// never time an incorrect algorithm.
#[must_use]
pub fn measure_index(
    algo: IndexAlgorithm,
    n: usize,
    block: usize,
    ports: usize,
    model: Arc<dyn CostModel>,
) -> Measurement {
    let cfg = ClusterConfig::new(n)
        .with_ports(ports)
        .with_cost(Arc::clone(&model));
    let out = Cluster::run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        let mut result = vec![0u8; n * block];
        algo.run_into(ep, &input, block, &mut result)?;
        Ok(result)
    })
    .unwrap_or_else(|e| panic!("{} failed on n={n} b={block} k={ports}: {e}", algo.name()));
    for (rank, result) in out.results.iter().enumerate() {
        assert_eq!(
            result,
            &verify::index_expected(rank, n, block),
            "{} produced wrong data at rank {rank}",
            algo.name()
        );
    }
    let plan = algo.plan(n, block, ports);
    Measurement {
        algo: algo.name(),
        n,
        ports,
        block,
        complexity: out.metrics.global_complexity().expect("aligned rounds"),
        virtual_time: out.virtual_makespan(),
        predicted_time: ScheduleStats::of(&plan).predicted_time(model.as_ref()),
    }
}

/// Run a concatenation algorithm on a live cluster and measure it.
///
/// # Panics
///
/// Panics on failure or wrong results.
#[must_use]
pub fn measure_concat(
    algo: ConcatAlgorithm,
    n: usize,
    block: usize,
    ports: usize,
    model: Arc<dyn CostModel>,
) -> Measurement {
    let cfg = ClusterConfig::new(n)
        .with_ports(ports)
        .with_cost(Arc::clone(&model));
    let out = Cluster::run(&cfg, |ep| {
        let input = verify::concat_input(ep.rank(), block);
        let mut result = vec![0u8; n * block];
        algo.run_into(ep, &input, &mut result)?;
        Ok(result)
    })
    .unwrap_or_else(|e| panic!("{} failed on n={n} b={block} k={ports}: {e}", algo.name()));
    let expected = verify::concat_expected(n, block);
    for (rank, result) in out.results.iter().enumerate() {
        assert_eq!(result, &expected, "{} wrong at rank {rank}", algo.name());
    }
    let plan = algo.plan(n, block, ports);
    Measurement {
        algo: algo.name(),
        n,
        ports,
        block,
        complexity: out.metrics.global_complexity().expect("aligned rounds"),
        virtual_time: out.virtual_makespan(),
        predicted_time: ScheduleStats::of(&plan).predicted_time(model.as_ref()),
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
        // Synchronous schedule: live virtual time equals the closed form.
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

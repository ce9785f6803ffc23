//! Processor-memory configurations of the index algorithm (the matrices
//! of the paper's Figs. 1–3), read off the code that runs.
//!
//! A configuration is the `n × n` matrix whose column `i` is processor
//! `p_i`'s memory and whose row `j` is memory offset `j`; every cell names
//! a block `(owner, index)` ("`ij`" in the paper's notation).
//! [`snapshots`] runs the lowered radix-`r` programs through the same
//! [`RankMachine`](bruck_model::program::RankMachine) every substrate drives, with
//! each block two bytes `(owner, index)`, so tests pin the exact
//! intermediate configurations the paper draws against the executed
//! algorithm, not a model of it.

use bruck_model::cost::LinearModel;
use bruck_model::planner::IndexPlan;
use bruck_model::program::{simulate, RankProgram};

/// A processor-memory configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration {
    n: usize,
    /// `cells[proc][offset] = (owner, block_index)`.
    cells: Vec<Vec<(usize, usize)>>,
}

impl Configuration {
    /// The initial configuration: processor `i` holds `B[i, j]` at offset
    /// `j` (Fig. 1 left).
    #[must_use]
    pub fn initial(n: usize) -> Self {
        Self {
            n,
            cells: (0..n).map(|i| (0..n).map(|j| (i, j)).collect()).collect(),
        }
    }

    /// The target configuration: processor `i` holds `B[j, i]` at offset
    /// `j` (Fig. 1 right).
    #[must_use]
    pub fn target(n: usize) -> Self {
        Self {
            n,
            cells: (0..n).map(|i| (0..n).map(|j| (j, i)).collect()).collect(),
        }
    }

    /// The block at `(proc, offset)`.
    #[must_use]
    pub fn cell(&self, proc: usize, offset: usize) -> (usize, usize) {
        self.cells[proc][offset]
    }

    /// Render as the paper's figures do: rows are offsets, columns are
    /// processors, each cell the two-index label `ij`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for offset in 0..self.n {
            for proc in 0..self.n {
                let (o, j) = self.cells[proc][offset];
                out.push_str(&format!(" {o}{j}"));
            }
            out.push('\n');
        }
        out
    }
}

/// A labelled snapshot of the algorithm's progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Human-readable phase/step label.
    pub label: String,
    /// The configuration after that step.
    pub config: Configuration,
}

/// Run the k = 1 radix-`r` index on `n ≤ 256` processors and return the
/// configuration before it and after every op: "initial", "after phase
/// 1", "after subphase x step z" for each round (read off its tag), and
/// "after phase 3". Figs. 2–3 are these sequences for `n = 5` with
/// `r = n` and `r = 2`.
///
/// # Panics
///
/// For `r < 2`, which has no lowering.
#[must_use]
pub fn snapshots(n: usize, r: usize) -> Vec<Snapshot> {
    let programs: Vec<RankProgram> = (0..n)
        .map(|rank| RankProgram::lower(&IndexPlan::Radix(r), n, rank, 2, 1).expect("radix ≥ 2"))
        .collect();
    let inputs: Vec<Vec<u8>> = (0..n)
        .map(|i| (0..n).flat_map(|j| [i as u8, j as u8]).collect())
        .collect();
    let ops = programs.first().map_or(&[][..], |p| &p.ops[..]);
    let mut configs = vec![Configuration::initial(n); ops.len() + 1];
    let free = LinearModel::free();
    simulate(&programs, &inputs, &free, |rank, op, data| {
        let cells = data.chunks(2).map(|b| (b[0].into(), b[1].into()));
        configs[op + 1].cells[rank] = cells.collect();
    })
    .expect("lowered programs run");
    let round = |op: usize| RankProgram::round(&programs[0], &ops[op]);
    let label = |op: usize| match round(op) {
        Some(round) => {
            let tag = round.sends[0].tag;
            let (x, z) = (tag >> 32, tag & u64::from(u32::MAX));
            format!("after subphase {x} step {z}")
        }
        _ if op == 0 => "after phase 1".to_string(),
        _ => "after phase 3".to_string(),
    };
    let labels = std::iter::once("initial".to_string()).chain((0..ops.len()).map(label));
    (labels.zip(configs))
        .map(|(label, config)| Snapshot { label, config })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 1: the before/after configurations for n = 5.
    #[test]
    fn fig1_before_after() {
        let before = Configuration::initial(5);
        assert_eq!(before.cell(2, 3), (2, 3)); // "23" in column p2, row 3
        let after = Configuration::target(5);
        assert_eq!(after.cell(2, 3), (3, 2)); // "32"
                                              // Columns of `after` are the rows of `before`: a block transpose.
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(after.cell(i, j), (before.cell(j, i).0, before.cell(j, i).1));
            }
        }
    }

    /// Fig. 2: the three phases for n = 5 (communication phase as one
    /// conceptual rotation per block).
    #[test]
    fn fig2_phase_configurations() {
        // r = 5: one subphase of 4 steps.
        let snaps = snapshots(5, 5);
        assert_eq!(snaps.len(), 7);
        let p1 = &snaps[1].config;
        // After phase 1, processor i holds B[i, (m+i) mod 5] at offset m;
        // e.g. p2's column reads 22, 23, 24, 20, 21.
        for m in 0..5 {
            assert_eq!(p1.cell(2, m), (2, (m + 2) % 5));
        }
        // After phase 2, processor p holds B[(p - m) mod 5, p] at offset m.
        let cfg = &snaps[5].config;
        for p in 0..5 {
            for m in 0..5 {
                assert_eq!(cfg.cell(p, m), ((p + 5 - m) % 5, p), "p={p} m={m}");
            }
        }
        // Phase 3 fixes offsets: the target configuration.
        assert_eq!(snaps[6].config, Configuration::target(5));
    }

    /// Fig. 3: the r = 2 subphase sequence for n = 5 reaches the target in
    /// ⌈log2 5⌉ = 3 communication steps.
    #[test]
    fn fig3_r2_subphases() {
        let snaps = snapshots(5, 2);
        // initial, phase1, three phase-2 steps (w=3 subphases × 1 step),
        // phase 3.
        assert_eq!(snaps.len(), 6);
        assert_eq!(snaps[1].label, "after phase 1");
        assert_eq!(snaps[2].label, "after subphase 0 step 1");
        assert_eq!(snaps[3].label, "after subphase 1 step 1");
        assert_eq!(snaps[4].label, "after subphase 2 step 1");
        assert_eq!(snaps[5].config, Configuration::target(5));
        // After subphase 0, blocks with odd offsets have moved one
        // processor right: offset 1 of p1 now holds what p0 had there.
        let s = &snaps[2].config;
        assert_eq!(s.cell(1, 1), (0, 1)); // B[0,1] (was at p0 offset 1 after phase 1)
    }

    #[test]
    fn all_radices_reach_target() {
        for n in 1..=12 {
            for r in 2..=n.max(2) {
                let snaps = snapshots(n, r);
                assert_eq!(
                    snaps.last().unwrap().config,
                    Configuration::target(n),
                    "n={n} r={r}"
                );
            }
        }
    }

    #[test]
    fn phase2_moves_exactly_digit_blocks() {
        let (n, snaps) = (9, snapshots(9, 3));
        assert_eq!(snaps[5].label, "after subphase 1 step 2");
        let (cfg, stepped) = (&snaps[4].config, &snaps[5].config);
        // Digit 1 == 2 → offsets 6, 7, 8 move 2·3 processors right.
        for m in 0..n {
            for p in 0..n {
                if (m / 3) % 3 == 2 {
                    assert_eq!(stepped.cell((p + 6) % n, m), cfg.cell(p, m));
                } else {
                    assert_eq!(stepped.cell(p, m), cfg.cell(p, m));
                }
            }
        }
    }

    #[test]
    fn render_shape() {
        let r = Configuration::initial(3).render();
        assert_eq!(r.lines().count(), 3);
        assert!(r.starts_with(" 00 10 20"));
    }
}

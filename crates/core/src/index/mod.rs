//! The index operation (all-to-all personalized communication,
//! `MPI_Alltoall`).
//!
//! Every processor `i` starts with `n` blocks; block `j` is `B[i, j]`,
//! destined for processor `j`. Afterwards processor `i` holds
//! `B[0, i], B[1, i], …, B[n-1, i]` in that order.
//!
//! No index algorithm has an executor here: the paper's §3 algorithm —
//! uniform radix, mixed radix, its two-level composition — and the
//! direct, pairwise-XOR and hypercube baselines are lowered to a
//! [`RankProgram`](bruck_model::program::RankProgram) and interpreted by
//! [`program_exec`], the same programs the TCP fabric runs, and their
//! [`Schedule`] is read off those programs. What this module holds is
//! the algorithm names and the single-process replay behind Figs. 1–3
//! ([`sim`]).

pub mod sim;

use bruck_model::planner::IndexPlan;
use bruck_net::{Comm, NetError};
use bruck_sched::Schedule;

use crate::program_exec;

/// Selects and parameterizes an index algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexAlgorithm {
    /// The paper's §3 algorithm with the given radix `r ∈ [2, n]`
    /// (larger radices are clamped to `n`). `r = 2` minimizes rounds,
    /// `r = n` minimizes volume. Runs as the lowered
    /// [`IndexPlan::Radix`] program.
    BruckRadix(usize),
    /// Direct exchange: every pair communicates once (`⌈(n-1)/k⌉`
    /// rounds of `b`-byte messages) — identical complexity to
    /// `BruckRadix(n)` but without the rotation phases. Runs as the
    /// lowered [`IndexPlan::Direct`] program.
    Direct,
    /// Pairwise XOR exchange (requires `n` a power of two): step `i`
    /// exchanges with `rank ⊕ i`. Runs as the lowered
    /// [`IndexPlan::Pairwise`] program.
    Pairwise,
    /// Store-and-forward hypercube index (\[20\], Johnsson & Ho; requires
    /// `n` a power of two, one-port): `log₂ n` rounds of `n/2` blocks.
    /// Runs as the lowered [`IndexPlan::Hypercube`] program.
    Hypercube,
}

impl IndexAlgorithm {
    /// Execute the algorithm. `sendbuf` is `n·b` bytes (block `j` at
    /// offset `j·b`); the result has the same layout with block `j` being
    /// the one received from processor `j`.
    ///
    /// # Errors
    ///
    /// Network errors, or [`NetError::App`] for unsupported parameters
    /// (e.g. non-power-of-two `n` for [`IndexAlgorithm::Pairwise`]).
    pub fn run<C: Comm + ?Sized>(
        &self,
        ep: &mut C,
        sendbuf: &[u8],
        block: usize,
    ) -> Result<Vec<u8>, NetError> {
        let mut out = vec![0u8; sendbuf.len()];
        self.run_into(ep, sendbuf, block, &mut out)?;
        Ok(out)
    }

    /// Execute the algorithm into a caller-provided `n·b`-byte output
    /// buffer. Every scratch buffer comes from the cluster's buffer pool,
    /// so steady-state calls take no fresh buffer (`tests/zero_alloc.rs`
    /// counts pool events); lowering and round bookkeeping still make a
    /// few small heap allocations per call.
    ///
    /// # Errors
    ///
    /// Network errors, or [`NetError::App`] for unsupported parameters
    /// or a mis-sized output buffer.
    pub fn run_into<C: Comm + ?Sized>(
        &self,
        ep: &mut C,
        sendbuf: &[u8],
        block: usize,
        out: &mut [u8],
    ) -> Result<(), NetError> {
        program_exec::run_plan_into(ep, &self.index_plan(), sendbuf, block, out)
    }

    /// Emit the algorithm's static communication schedule for `n`
    /// processors, `b`-byte blocks, and `k` ports.
    ///
    /// # Panics
    ///
    /// Panics for unsupported parameters (the executor returns an error
    /// instead; planners are used in analysis contexts where a panic is
    /// the right failure mode).
    #[must_use]
    pub fn plan(&self, n: usize, block: usize, ports: usize) -> Schedule {
        Schedule::of_index_plan(&self.index_plan(), n, block, ports)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The plan the algorithm lowers.
    pub fn index_plan(&self) -> IndexPlan {
        match *self {
            Self::BruckRadix(r) => IndexPlan::Radix(r),
            Self::Direct => IndexPlan::Direct,
            Self::Pairwise => IndexPlan::Pairwise,
            Self::Hypercube => IndexPlan::Hypercube,
        }
    }

    /// Short display name for reports and benches.
    #[must_use]
    pub fn name(&self) -> String {
        self.index_plan().label()
    }
}

//! The concatenation operation (all-to-all broadcast, `MPI_Allgather`):
//! every processor starts with one `b`-byte block and ends with
//! `B[0] ‖ B[1] ‖ … ‖ B[n-1]`. Each algorithm is a [`ConcatLowering`], run
//! by [`program_exec`] and planned by [`Schedule::of_concat`].

use bruck_model::partition::Preference;
use bruck_model::program::ConcatLowering;
use bruck_net::{Comm, NetError};
use bruck_sched::Schedule;

use crate::program_exec;

/// Selects and parameterizes a concatenation algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcatAlgorithm {
    /// The paper's §4 circulant-graph algorithm: `⌈log_{k+1} n⌉` rounds,
    /// `⌈b(n-1)/k⌉` bytes — optimal in both measures outside the §4
    /// exception range; inside it, the `Preference` picks the fallback.
    Bruck(Preference),
    /// The folklore two-phase algorithm the paper's §4 opens with:
    /// binomial-tree gather to processor 0, then a broadcast of the
    /// concatenation down the same tree (sending each recipient only the
    /// blocks it lacks).
    GatherBroadcast,
    /// Recursive doubling (\[20\]): requires a power-of-two `n`, one port;
    /// optimal in both measures where it applies.
    RecursiveDoubling,
    /// Ring: `n-1` rounds of single blocks — transfer-optimal,
    /// round-pessimal (one-port).
    Ring,
}

impl ConcatAlgorithm {
    /// Execute the algorithm. `myblock` is this rank's `b`-byte block; the
    /// result is the `n·b`-byte concatenation, identical on every rank.
    ///
    /// # Errors
    ///
    /// Network errors; [`NetError::App`] for unsupported parameters.
    pub fn run<C: Comm + ?Sized>(&self, ep: &mut C, myblock: &[u8]) -> Result<Vec<u8>, NetError> {
        let mut out = vec![0u8; ep.size() * myblock.len()];
        self.run_into(ep, myblock, &mut out)?;
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
    /// Network errors; [`NetError::App`] for unsupported parameters or a
    /// mis-sized output buffer.
    pub fn run_into<C: Comm + ?Sized>(
        &self,
        ep: &mut C,
        myblock: &[u8],
        out: &mut [u8],
    ) -> Result<(), NetError> {
        let lowering = self.lower(ep.size(), myblock.len(), ep.ports());
        let program = lowering.map_err(NetError::App)?.program(ep.rank());
        program_exec::run_program_into(ep, &program, myblock, out)
    }

    /// Every rank's program at `(n, b, k)`, built once.
    ///
    /// # Errors
    ///
    /// A message for [`RecursiveDoubling`](Self::RecursiveDoubling) at a
    /// processor count that is not a power of two.
    pub fn lower(&self, n: usize, block: usize, ports: usize) -> Result<ConcatLowering, String> {
        Ok(match *self {
            Self::Bruck(pref) => ConcatLowering::circulant(n, block, ports, pref),
            Self::GatherBroadcast => ConcatLowering::gather_broadcast(n, block, ports),
            Self::RecursiveDoubling => ConcatLowering::recursive_doubling(n, block)?,
            Self::Ring => ConcatLowering::ring(n, block),
        })
    }

    /// The static communication schedule, read off the programs.
    ///
    /// # Panics
    ///
    /// Panics for unsupported parameters.
    #[must_use]
    pub fn plan(&self, n: usize, block: usize, ports: usize) -> Schedule {
        let lowering = self.lower(n, block, ports);
        Schedule::of_concat(&lowering.unwrap_or_else(|e| panic!("{e}")))
    }

    /// Short display name for reports and benches.
    #[must_use]
    pub fn name(&self) -> String {
        match *self {
            Self::Bruck(Preference::Rounds) => "bruck-circulant".into(),
            Self::Bruck(Preference::Bytes) => "bruck-circulant-b".into(),
            Self::GatherBroadcast => "gather-bcast".into(),
            Self::RecursiveDoubling => "recursive-doubling".into(),
            Self::Ring => "ring".into(),
        }
    }
}

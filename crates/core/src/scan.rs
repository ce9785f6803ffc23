//! Prefix reductions (`MPI_Scan` / `MPI_Exscan`) over `f64` vectors.
//!
//! CCL-style companion operations: rank `i` ends with the reduction of
//! ranks `0..=i` (inclusive) or `0..i` (exclusive). Both run one lowered
//! program ([`RankProgram::lower_scan`]), the Hillis–Steele doubling
//! recursion — `⌈log₂ n⌉` rounds, each rank exchanging at most one
//! `m`-vector per round — which is exactly the non-circular cousin of the
//! concatenation's doubling phase.

use bruck_model::program::RankProgram;
use bruck_net::{Comm, NetError};

use crate::reduce::{run, ReduceOp};

/// Inclusive prefix reduction: rank `i` returns `op(data_0, …, data_i)`.
///
/// # Errors
///
/// Network failures propagate; a delivery the program refuses (a vector
/// length that differs across ranks) is [`NetError::App`].
pub fn scan<C: Comm + ?Sized>(
    ep: &mut C,
    data: &[f64],
    op: ReduceOp,
) -> Result<Vec<f64>, NetError> {
    let program = RankProgram::lower_scan(ep.size(), ep.rank(), data.len(), op, false);
    run(ep, &program, data)
}

/// Exclusive prefix reduction: rank `i` returns `op(data_0, …, data_{i-1})`,
/// and rank 0 returns `None` (there is no empty-prefix value for a
/// general operator).
///
/// # Errors
///
/// See [`scan`].
pub fn exscan<C: Comm + ?Sized>(
    ep: &mut C,
    data: &[f64],
    op: ReduceOp,
) -> Result<Option<Vec<f64>>, NetError> {
    let program = RankProgram::lower_scan(ep.size(), ep.rank(), data.len(), op, true);
    let acc = run(ep, &program, data)?;
    Ok((ep.rank() > 0).then_some(acc))
}

//! Reduction collectives over `f64` vectors: `reduce`, `allreduce`, and
//! `reduce_scatter`.
//!
//! The paper situates index and concatenation inside IBM's Collective
//! Communication Library, whose users compose them with reductions for
//! "basic linear algebra operations" (§1.1). Here the composition is
//! literal: each reduction is a lowered [`RankProgram`] run by
//! [`run_program_into`], its received lanes combined by a
//! [`ProgramOp::Fold`]. [`reduce_scatter`] is the circulant concatenation
//! run backwards, in `⌈log_{k+1} n⌉` rounds and `(n−1)·⌈m/n⌉` lanes
//! received, and [`allreduce`] is that followed by the concatenation
//! itself (Jocksch et al., arXiv:2006.13112) — `2⌈log_{k+1} n⌉` rounds,
//! any `n`, `k` and length.

use bruck_model::program::{ProgramOp, RankProgram};
use bruck_net::{Comm, NetError};

use crate::program_exec::run_program_into;

pub use bruck_model::program::ReduceOp;

/// Reduce every rank's vector to `root` along the (k+1)-ary spanning
/// tree (partial reductions folded at every internal node). Returns
/// `Some(result)` at `root`, `None` elsewhere.
///
/// # Errors
///
/// Network failures propagate; a delivery the program refuses (a vector
/// length that differs across ranks) is [`NetError::App`].
///
/// # Panics
///
/// If `root` is not a rank.
pub fn reduce<C: Comm + ?Sized>(
    ep: &mut C,
    root: usize,
    data: &[f64],
    op: ReduceOp,
) -> Result<Option<Vec<f64>>, NetError> {
    let (n, k, rank) = (ep.size(), ep.ports(), ep.rank());
    let program = RankProgram::lower_reduce(n, k, rank, root, data.len(), op);
    let acc = run(ep, &program, data)?;
    Ok((rank == root).then_some(acc))
}

/// Allreduce: every rank ends with the element-wise reduction of every
/// rank's vector — the reduce-scatter, then the circulant concatenation
/// of the reduced segments.
///
/// # Errors
///
/// Network failures propagate; a delivery the program refuses (a vector
/// length that differs across ranks) is [`NetError::App`].
pub fn allreduce<C: Comm + ?Sized>(
    ep: &mut C,
    data: &[f64],
    op: ReduceOp,
) -> Result<Vec<f64>, NetError> {
    let (n, k, rank) = (ep.size(), ep.ports(), ep.rank());
    let program = RankProgram::lower_allreduce(n, k, rank, data.len(), op);
    run(ep, &program, data)
}

/// Reduce-scatter: with `b = ⌈m/n⌉`, every rank ends with the segment
/// `[rank·b, (rank+1)·b) ∩ [0, m)` of the element-wise reduction — for
/// `m` divisible by `n`, its `m/n` lanes.
///
/// # Errors
///
/// Network failures propagate; a delivery the program refuses (a vector
/// length that differs across ranks) is [`NetError::App`].
pub fn reduce_scatter<C: Comm + ?Sized>(
    ep: &mut C,
    data: &[f64],
    op: ReduceOp,
) -> Result<Vec<f64>, NetError> {
    let (n, k, rank) = (ep.size(), ep.ports(), ep.rank());
    let program = RankProgram::lower_reduce_scatter(n, k, rank, data.len(), op);
    run(ep, &program, data)
}

/// Run a reduction program over `data`'s lanes and return the lanes its
/// closing strip keeps.
pub(crate) fn run<C: Comm + ?Sized>(
    ep: &mut C,
    program: &RankProgram,
    data: &[f64],
) -> Result<Vec<f64>, NetError> {
    let Some(&ProgramOp::Strip { len, .. }) = program.ops.last() else {
        unreachable!("a reduction closes with a strip into its result")
    };
    let (mut input, mut out) = (ep.acquire(data.len() * 8), ep.acquire(len));
    for (lane, x) in input.chunks_exact_mut(8).zip(data) {
        lane.copy_from_slice(&x.to_le_bytes());
    }
    let outcome = run_program_into(ep, program, &input, &mut out);
    let lane = |c: &[u8]| f64::from_le_bytes(c.try_into().expect("an 8-byte lane"));
    let result = out.chunks_exact(8).map(lane).collect();
    ep.recycle(input);
    ep.recycle(out);
    outcome.map(|()| result)
}

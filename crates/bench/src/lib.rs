//! Paper-figure harness and CLI for the Bruck all-to-all reproduction.
//!
//! The [`harness`] module runs collectives on live clusters under the
//! §3.5 SP-1 cost model and reports `(C1, C2)`, predicted time, and the
//! virtual-time measurement — the machinery behind the `figures` binary
//! that regenerates every figure and table of the paper's evaluation.
//! The [`wire`] module is the throughput-floor smoke behind
//! `bruckctl bench`. Neither is where a performance number comes from:
//! that is the tracked benchmark in `benchmark/` (see its README).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
#[cfg(unix)]
pub mod wire;

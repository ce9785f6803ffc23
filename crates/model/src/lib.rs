//! Analytical substrate for the Bruck et al. all-to-all reproduction.
//!
//! This crate is pure math — no threads, no I/O. It provides:
//!
//! * [`cost`] — communication cost models: the paper's linear model
//!   (`T = β + mτ`), the postal and LogP models it cites, and the SP-1
//!   calibration of §3.5 with congestion/system-noise factors.
//! * [`complexity`] — the two complexity measures of §1.2: `C1` (number of
//!   communication rounds) and `C2` (sum over rounds of the largest message).
//! * [`bounds`] — the lower bounds of §2 (Propositions 2.1–2.4 and the
//!   compound bounds of Theorems 2.5–2.7 / 2.9).
//! * [`radix`] — radix-`r` digit decomposition used by the index algorithm's
//!   communication phase (§3.2).
//! * [`circulant`] — circulant graphs `G(n; S)` and the offset sets
//!   `S_i = {(k+1)^i, 2(k+1)^i, …, k(k+1)^i}` used by the concatenation
//!   algorithm (§4.1).
//! * [`spanning_tree`] — the round-labelled spanning trees `T_0 … T_{n-1}`
//!   of Figs. 7–8 and their translation property.
//! * [`partition`] — the last-round table-partitioning problem of
//!   Proposition 4.2 / Table 1, solved byte-granularly with the fallbacks
//!   of the §4 Remark for the exception range.
//! * [`tuning`] — choosing the radix `r` that minimizes predicted time for
//!   given machine parameters (§3.3, §3.5).
//! * [`calibrate`] — fitting cost-model parameters (`β`, `τ`) from timed
//!   measurements, including a [`calibrate::Calibrator`] that folds live
//!   ping-ladder and executed-run observations into one fit.
//! * [`planner`] — cost-model dispatch over the whole algorithm family:
//!   evaluate the fitted model for every radix (plus direct, mixed-radix,
//!   and ring vs. circulant concatenation) and return the
//!   arg-min schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod calibrate;
pub mod circulant;
pub mod complexity;
pub mod cost;
pub mod mixed_radix;
pub mod partition;
pub mod planner;
pub mod program;
pub mod radix;
pub mod spanning_tree;
pub mod tuning;

pub use bounds::{concat_bounds, index_bounds, LowerBounds};
pub use calibrate::{Calibrator, LinearFit};
pub use complexity::Complexity;
pub use cost::{CostModel, HierarchicalModel, LinearModel, LogPModel, PostalModel, Sp1Model};
pub use mixed_radix::MixedRadix;
pub use planner::{ConcatPlan, IndexPlan, PlanChoice, Planner, VIndexPlan};
pub use program::{
    simulate, BlockPerm, ConcatLowering, ProgramOp, ProgramRound, ProgramXfer, RankProgram,
    ReduceOp, Simulation, SlotSet, Span,
};
pub use radix::{ceil_log, RadixDecomposition};
pub use tuning::WireTuning;

//! The paper's contribution: **index** (all-to-all personalized
//! communication, `MPI_Alltoall`) and **concatenation** (all-to-all
//! broadcast, `MPI_Allgather`) algorithms for multiport fully connected
//! message-passing systems, after
//!
//! > J. Bruck, C.-T. Ho, S. Kipnis, E. Upfal, D. Weathersby. *Efficient
//! > Algorithms for All-to-All Communications in Multiport Message-Passing
//! > Systems.* SPAA 1994; IEEE TPDS 8(11):1143–1156, 1997.
//!
//! # Operations
//!
//! * [`index`] — every processor `i` starts with `n` blocks
//!   `B[i,0..n]`; afterwards processor `i` holds `B[0,i], …, B[n-1,i]`.
//!   The paper's algorithm family is parameterized by a radix
//!   `r ∈ [2, n]` trading start-ups against volume; `r = 2` is round
//!   optimal, `r = n` transfer optimal, and everything in between is a
//!   tunable compromise (§3).
//! * [`concat`](mod@crate::concat) — every processor starts with one block; afterwards every
//!   processor holds all `n` blocks. The circulant-graph algorithm is
//!   simultaneously round and transfer optimal for most `(n, k, b)` (§4).
//!
//! The index family of §3 — uniform radix, mixed radix, the two-level
//! composition — its direct, pairwise-XOR and hypercube baselines, every
//! concatenation, the [`vops`], [`reduce`] and [`scan`] have one
//! executable form: a lowered [`RankProgram`](bruck_model::program::RankProgram),
//! interpreted by [`program_exec`] on threads (index plans also on
//! `bruck-net`'s TCP fabric), with its [`bruck_sched::Schedule`] read off
//! the same programs. Only the [`primitives`] (broadcast, gather, the
//! dissemination barrier) still move bytes through a hand-written SPMD
//! routine. Integration tests assert trace, schedule and program agree, so
//! the complexity numbers reported by the benches are the complexities of
//! the code that actually runs.
//!
//! Baselines the paper compares against (or that were folklore at the
//! time) are lowered too: direct/pairwise/hypercube index algorithms,
//! and gather+broadcast / recursive-doubling / ring concatenations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod appendix;
pub mod autotune;
pub mod blocks;
pub mod concat;
pub mod index;
pub mod primitives;
pub mod program_exec;
pub mod reduce;
pub mod scan;
pub mod vbruck;
pub mod verify;
pub mod vops;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::api::{
        allgather, allgather_auto, allgather_into, alltoall, alltoall_auto, alltoall_into,
        alltoall_resilient, alltoall_resilient_with_policy, ResilientAlltoall, Tuning,
        TuningBuilder,
    };
    pub use crate::autotune::{calibrated_fit, calibrated_model};
    pub use crate::concat::ConcatAlgorithm;
    pub use crate::index::IndexAlgorithm;
    pub use crate::reduce::{allreduce, reduce, ReduceOp};
    pub use crate::vbruck::{VLayout, VMethod};
    pub use crate::vops::{
        allgatherv_into, alltoallv_auto, alltoallv_auto_into, alltoallv_into, alltoallv_resilient,
        alltoallv_resilient_with_policy, ResilientAlltoallv,
    };
    pub use bruck_model::complexity::Complexity;
    pub use bruck_model::cost::{CostModel, LinearModel, Sp1Model};
    pub use bruck_model::planner::{ConcatPlan, IndexPlan, PlanChoice, Planner, VIndexPlan};
    pub use bruck_net::RecoveryPolicy;
    pub use bruck_net::{Cluster, ClusterConfig, Comm, Endpoint, Group, NetError};
}

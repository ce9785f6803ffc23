//! Facade crate re-exporting the whole Bruck all-to-all workspace.
//!
//! This crate ties together the four library crates of the reproduction of
//! Bruck, Ho, Kipnis, Upfal, Weathersby, *Efficient Algorithms for
//! All-to-All Communications in Multiport Message-Passing Systems*
//! (SPAA'94 / IEEE TPDS 8(11), 1997):
//!
//! * [`model`] — cost models, complexity measures, lower bounds, the
//!   combinatorial substrates (radix decomposition, circulant graphs,
//!   k-port spanning trees, last-round table partitioning), and the
//!   lowered rank programs with the simulator that times them.
//! * [`net`] — the in-process multiport message-passing substrate: an SPMD
//!   cluster with one thread per simulated processor, port enforcement,
//!   and metrics.
//! * [`sched`] — static communication schedules: building, validating, and
//!   analyzing (C1 / C2 / predicted time).
//! * [`collectives`] — the paper's contribution: the radix-r index
//!   (all-to-all personalized) algorithm family and the circulant
//!   concatenation (all-to-all broadcast) algorithm, with every baseline
//!   the paper compares against.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use bruck_collectives as collectives;
pub use bruck_model as model;
pub use bruck_net as net;
pub use bruck_sched as sched;

pub use bruck_collectives::prelude;

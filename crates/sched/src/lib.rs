//! Static communication schedules.
//!
//! Every collective algorithm in this workspace has an executable form
//! (real data moving through `bruck-net`) and a [`Schedule`] — the full
//! list of `(round, src, dst, bytes)` transfers, independent of payload
//! contents. For every index algorithm and concatenation the schedule
//! is not planned a second time: it is read off the lowered programs
//! that execute ([`Schedule::from_programs`]).
//!
//! Schedules make three things cheap:
//!
//! * **analysis** — `C1`, `C2`, total volume, per-round load, and
//!   predicted time under any cost model, without spawning threads
//!   ([`analyze::ScheduleStats`]);
//! * **validation** — port limits, distinct peers, self-send bans
//!   ([`Schedule::validate`]);
//! * **cross-checking** — a schedule reconstructed from a live trace
//!   ([`Schedule::from_trace`]) must equal the planned one, proving the
//!   executable and the analysis describe the same algorithm
//!   ([`replay`] runs the converse direction).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod persist;
pub mod render;
pub mod replay;
pub mod schedule;

pub use analyze::ScheduleStats;
pub use persist::{chaos_from_tsv, chaos_to_tsv, from_tsv, to_tsv};
pub use render::{render_activity, render_rounds, summarize};
pub use replay::replay_on_cluster;
pub use schedule::{Round, Schedule, Transfer};

//! An in-process **multiport fully connected message-passing system**.
//!
//! The paper's machine model (§1.2) is a set of `n` processors, each pair
//! equally distant, where in every communication round a processor may send
//! `k` distinct messages to `k` processors and simultaneously receive `k`
//! messages from `k` other processors. The paper ran on an IBM SP-1; this
//! crate substitutes an in-process cluster: one OS thread per simulated
//! processor, fully connected by channels.
//!
//! Two clocks run at once:
//!
//! * **wall clock** — real time; the tracked benchmark (`benchmark/`) measures it;
//! * **virtual clock** — per-rank simulated time advanced by a pluggable
//!   [`bruck_model::cost::CostModel`]; message timestamps propagate
//!   causally (`arrival = departure + latency`, receivers take `max`), so
//!   a synchronous schedule reproduces the paper's `T = C1·β + C2·τ`
//!   exactly under the linear model.
//!
//! The substrate *enforces* the model: a round may not use more than `k`
//! ports in either direction, destinations must be distinct, and
//! self-sends are rejected. Algorithms that violate the k-port model fail
//! loudly in tests instead of silently cheating.
//!
//! # The fault model and the self-healing stack
//!
//! The paper argues for the fully connected model partly on fault
//! tolerance: algorithms "can operate in the presence of faults
//! (assuming connectivity is maintained)". This crate makes that
//! concrete with three layers (all off by default, zero cost when off):
//!
//! * **Fault injection** ([`fault`]) — deterministic plans (kill a rank
//!   after a round, drop one exact message) applied at the round layer,
//!   plus seeded *probabilistic wire faults* (per-link loss,
//!   duplication, corruption, virtual delay) applied by
//!   [`fault::FaultyTransport`] to every physical transmission. The RNG
//!   is a keyed splitmix64 hash — deterministic under a fixed seed, no
//!   ambient entropy. When wire faults are on, payloads carry FNV-1a
//!   checksums so corruption surfaces as [`NetError::Corrupt`] instead
//!   of silently bad bytes.
//! * **Reliability** ([`reliable`]) — a sliding-window ack/retransmit
//!   sublayer ([`reliable::ReliableTransport`]) restoring exactly-once,
//!   in-order, uncorrupted delivery over a lossy wire: per-link sequence
//!   numbers with a configurable window of unacked frames in flight
//!   ([`bruck_model::tuning::WireTuning`], default 8), cumulative +
//!   selective acks, ack piggybacking on reverse-path data,
//!   exponential-backoff retransmission of only the unacked suffix, and
//!   duplicate suppression. Past the retry cap a peer is declared dead
//!   in the cluster-shared [`failure::FailureDetector`]. The runners
//!   stack it over [`Delivery::Datagram`] wires and, for its watchdog,
//!   under a plan that stalls a rank: clean Unix sockets ([`socket`])
//!   and a clean TCP fabric ([`tcp`], healing by per-node-pair replay)
//!   already deliver in order and carry no per-rank ARQ state at all.
//! * **Failure agreement + shrink-and-retry** ([`failure`],
//!   [`cluster`]) — the detector is a monotone dead set every endpoint
//!   polls while waiting, so one rank's death interrupts every waiter
//!   with the same [`NetError::RanksFailed`] verdict (no
//!   `Timeout`-vs-`Killed` mix, no hangs). [`Cluster::run`] reports the
//!   *root cause* across ranks; [`Cluster::run_resilient`] rebuilds a
//!   dense survivor cluster and re-runs the body, which re-plans its
//!   schedule for the shrunken size — the paper's "arbitrary and dynamic
//!   subsets" put to work as graceful degradation.
//!
//! # The pooled data plane
//!
//! Every message payload and every executor scratch buffer comes from one
//! cluster-shared, size-classed [`BufferPool`] (see [`pool`]). Senders
//! stage borrowed payloads into pooled buffers; the receiver recycles the
//! very buffer the sender staged, so after a warmup pass the steady state
//! performs **zero fresh heap allocations** per round — benches measure
//! the algorithm, not the allocator. The pool's counters are folded into
//! [`RunMetrics`] and asserted on by the allocation-regression tests
//! (`tests/zero_alloc.rs` at the workspace root).
//!
//! [`Comm`] exposes the zero-copy surface to algorithms:
//!
//! * [`Comm::acquire`] / [`Comm::recycle`] — pooled scratch;
//! * [`Comm::send_and_recv_into`] — one exchange, received bytes written
//!   into a caller-provided buffer (the allocating
//!   [`send_and_recv`](Comm::send_and_recv) remains as a wrapper);
//! * every collective in `bruck-collectives` has a `run_into` /
//!   `*_into` variant writing into caller-owned output, with the
//!   allocating form kept as a thin wrapper.
//!
//! # Example
//!
//! ```
//! use bruck_net::{Cluster, ClusterConfig};
//!
//! // 4 processors, 1 port, linear cost model: rotate a token.
//! let cfg = ClusterConfig::new(4).with_ports(1);
//! let out = Cluster::run(&cfg, |ep| {
//!     let right = (ep.rank() + 1) % ep.size();
//!     let left = (ep.rank() + ep.size() - 1) % ep.size();
//!     let msg = ep.send_and_recv(right, &[ep.rank() as u8], left, 7)?;
//!     Ok(msg[0] as usize)
//! })
//! .unwrap();
//! assert_eq!(out.results, vec![3, 0, 1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod comm;
pub mod deadline;
pub mod endpoint;
pub mod error;
pub mod failure;
pub mod fault;
pub mod frame;
pub mod mailbox;
pub mod membership;
pub mod message;
pub mod metrics;
mod parked;
pub mod pool;
pub mod reliable;
pub mod socket;
pub mod tcp;
pub mod trace;
pub mod transport;
pub mod vbarrier;

pub use bruck_model::tuning::WireTuning;
pub use cluster::{Cluster, ClusterConfig, ResilientOutput, RunOutput, RunReport, SurvivorView};
pub use comm::{Comm, Group, GroupComm};
pub use deadline::Deadline;
pub use endpoint::{Endpoint, GatherSendSpec, RecvSpec, SendSpec};
pub use error::NetError;
pub use failure::FailureDetector;
pub use fault::{ChaosEvent, ChaosSchedule, FaultPlan, LinkRates, RoundClock, SocketFault};
pub use membership::{
    Membership, MembershipStats, MembershipView, RankState, RecoveryPolicy, ViewDelta,
};
pub use message::{Message, Tag};
pub use metrics::{FabricStats, LinkStats, RankMetrics, RunMetrics};
pub use pool::{BufferPool, PoolStats};
pub use reliable::Reliability;
#[cfg(unix)]
pub use socket::SocketCluster;
pub use tcp::{
    FabricConfig, ScaleOutput, ScaleResilientOutput, TcpFabric, TcpRankTransport, TcpScaleCluster,
};
pub use trace::{Trace, TraceEvent};
pub use transport::{ChannelTransport, Delivery, Transport};

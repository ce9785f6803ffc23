//! The SPMD cluster runner.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::deadline::Deadline;
use crate::endpoint::Endpoint;
use crate::error::NetError;
use crate::failure::FailureDetector;
use crate::fault::{FaultPlan, FaultyTransport, RoundClock};
use crate::mailbox::Mailbox;
use crate::membership::{Membership, RecoveryPolicy};
use crate::metrics::RunMetrics;
use crate::pool::BufferPool;
use crate::reliable::{Reliability, ReliableTransport};
use crate::trace::Trace;
use crate::transport::{ChannelTransport, Delivery};

/// Configuration for one cluster run.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of simulated processors.
    pub n: usize,
    /// Ports per processor (`k`).
    pub ports: usize,
    /// Record a [`Trace`] of every send.
    pub trace: bool,
    /// Receive timeout (deadlock/fault detector).
    pub timeout: Duration,
    /// Injected faults.
    pub faults: Arc<FaultPlan>,
    /// Ask for "deliver every message or give one consistent verdict"
    /// (None = raw wire, a lost message is a timeout). Which layer
    /// provides it follows from the transport's [`Delivery`]: over
    /// datagram wires (channels, anything under injected wire faults)
    /// or a plan that stalls a rank, the ack/retransmit sublayer is
    /// stacked with this tuning; clean Unix sockets and TCP streams
    /// already deliver reliably and in order, and run without it.
    pub reliability: Option<Reliability>,
    /// Wall-clock completion budget for the whole run: every rank arms
    /// its [`Deadline`] against one shared expiry instant, so a stalled
    /// or partitioned run fails on *all* survivors with a structured
    /// [`NetError::DeadlineExceeded`] within one poll slice of the
    /// budget — no hangs, ever. `None` (the default) disables the
    /// budget; unarmed deadline checks cost one atomic load.
    /// Under [`Cluster::run_resilient`] the budget is re-armed fresh
    /// for each shrink-and-retry attempt.
    pub deadline: Option<Duration>,
    /// How [`Cluster::run_resilient`] reacts to rank failures between
    /// attempts: shrink and continue (the default), wait at the
    /// collective boundary for quarantined ranks to rejoin, or abort
    /// once membership falls below a quorum. See [`RecoveryPolicy`].
    pub recovery: RecoveryPolicy,
    /// Flap-damping base: the quarantine window a rank earns on its
    /// first eviction. Each further eviction of the same rank doubles
    /// it (`base · 2^(flaps−1)`, capped at
    /// [`MAX_QUARANTINE`](crate::membership::MAX_QUARANTINE)), so a
    /// flapping rank is excluded for exponentially longer each time.
    /// Only consulted under [`RecoveryPolicy::WaitForRejoin`].
    pub quarantine: Duration,
    /// Topology: ranks per node. `Some(s)` groups ranks `[0,s)`,
    /// `[s,2s)`, … onto simulated nodes — the TCP scale cluster
    /// ([`crate::tcp::TcpScaleCluster`]) routes intra-node traffic over
    /// in-process channels and inter-node traffic over one TCP stream
    /// per node pair, and the hierarchical planner can exploit the same
    /// grouping. `None` (the default) means a flat, single-node
    /// topology.
    pub node_size: Option<usize>,
}

impl ClusterConfig {
    /// `n` processors, 1 port, 10 s timeout, no tracing, no faults.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "cluster needs at least one processor");
        Self {
            n,
            ports: 1,
            trace: false,
            timeout: Duration::from_secs(10),
            faults: Arc::new(FaultPlan::new()),
            reliability: None,
            deadline: None,
            recovery: RecoveryPolicy::default(),
            quarantine: crate::membership::DEFAULT_BASE_QUARANTINE,
            node_size: None,
        }
    }

    /// Set the port count `k`.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0`.
    #[must_use]
    pub fn with_ports(mut self, ports: usize) -> Self {
        assert!(ports >= 1, "need at least one port");
        self.ports = ports;
        self
    }

    /// Enable trace recording.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Set the receive timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Install a fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Arc::new(faults);
        self
    }

    /// Enable reliable delivery (see [`ClusterConfig::reliability`]):
    /// the ack/retransmit sublayer, with the given tuning, under every
    /// rank whose transport is datagram-like.
    #[must_use]
    pub fn with_reliability(mut self, reliability: Reliability) -> Self {
        self.reliability = Some(reliability);
        self
    }

    /// Bound the whole run by a wall-clock completion budget (see
    /// [`ClusterConfig::deadline`]).
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Set the recovery policy [`Cluster::run_resilient`] applies at
    /// collective boundaries (see [`ClusterConfig::recovery`]).
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Set the flap-damping base quarantine window (see
    /// [`ClusterConfig::quarantine`]).
    #[must_use]
    pub fn with_quarantine(mut self, base: Duration) -> Self {
        self.quarantine = base;
        self
    }

    /// Group ranks onto simulated nodes of `node_size` ranks each (see
    /// [`ClusterConfig::node_size`]).
    ///
    /// # Panics
    ///
    /// Panics if `node_size == 0` or `n % node_size != 0` — the
    /// two-level machinery requires uniform nodes.
    #[must_use]
    pub fn with_node_size(mut self, node_size: usize) -> Self {
        assert!(node_size >= 1, "need at least one rank per node");
        assert_eq!(
            self.n % node_size,
            0,
            "node_size {node_size} must divide n = {}",
            self.n
        );
        self.node_size = Some(node_size);
        self
    }
}

impl core::fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("n", &self.n)
            .field("ports", &self.ports)
            .field("trace", &self.trace)
            .field("timeout", &self.timeout)
            .finish_non_exhaustive()
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutput<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Folded communication metrics.
    pub metrics: RunMetrics,
    /// The trace, if tracing was enabled.
    pub trace: Option<Trace>,
}

/// Root-cause ordering over error kinds: lower sorts earlier. A killed
/// rank *causes* its peers' timeouts; corruption causes a receiver abort
/// that strands its peers; the cluster-wide `RanksFailed` verdict is by
/// construction a *reaction* to some earlier failure, and an
/// unattributed timeout is the least informative symptom of all — so
/// aggregation prefers the lowest severity rank error.
fn severity(e: &NetError) -> u8 {
    match e {
        NetError::Killed { .. } => 0,
        NetError::Corrupt { .. } => 1,
        NetError::App(_) => 2,
        NetError::PortLimit { .. } | NetError::BadPeer { .. } | NetError::DuplicatePeer { .. } => 3,
        NetError::Disconnected { .. } => 4,
        NetError::Timeout { .. } => 5,
        NetError::DeadlineExceeded { .. } => 6,
        NetError::RanksFailed { .. } => 7,
    }
}

/// The uncollapsed outcome of a run: every rank's individual result,
/// plus the cluster's failure verdict. [`Cluster::try_run`] returns this
/// so callers (tests, the shrink-and-retry loop, chaos harnesses) can
/// inspect exactly what each rank observed.
#[derive(Debug)]
pub struct RunReport<T> {
    /// Per-rank results, indexed by rank.
    pub outcomes: Vec<Result<T, NetError>>,
    /// Folded communication metrics (all ranks, failed or not).
    pub metrics: RunMetrics,
    /// The trace, if tracing was enabled.
    pub trace: Option<Trace>,
    /// The failure detector's final verdict: ranks the cluster agreed
    /// are dead, ascending.
    pub failed: Vec<usize>,
}

impl<T> RunReport<T> {
    /// The root cause of the run's failure, if any: the minimum-severity
    /// error (see `severity`), ties broken by lowest rank. This is how
    /// a killed rank's `Killed` wins over the survivors' reactions.
    #[must_use]
    pub fn root_cause(&self) -> Option<(usize, &NetError)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(rank, o)| o.as_ref().err().map(|e| (rank, e)))
            .min_by_key(|(rank, e)| (severity(e), *rank))
    }

    /// Collapse into a [`RunOutput`], surfacing the root cause as the
    /// error if any rank failed.
    ///
    /// # Errors
    ///
    /// The root-cause error.
    pub fn into_result(self) -> Result<RunOutput<T>, NetError> {
        if let Some((_, e)) = self.root_cause() {
            return Err(e.clone());
        }
        Ok(RunOutput {
            results: self
                .outcomes
                .into_iter()
                .map(|o| o.expect("no errors per root_cause"))
                .collect(),
            metrics: self.metrics,
            trace: self.trace,
        })
    }
}

/// The membership a shrink-and-retry attempt runs under: dense ranks
/// `0..n` mapped back to the original cluster's rank ids.
#[derive(Debug, Clone)]
pub struct SurvivorView {
    /// Which attempt this is (0 = the original membership).
    pub attempt: usize,
    /// Original cluster size.
    pub original_n: usize,
    /// `original_ranks[dense]` = the original id of dense rank `dense`.
    pub original_ranks: Vec<usize>,
    /// Membership-view id this attempt runs under: the length of the
    /// view-delta log (evictions + admissions) folded so far. Strictly
    /// grows across attempts; attempt 0 runs at view 0.
    pub view_id: u64,
    /// Original ids re-admitted *into this attempt* after quarantine
    /// (empty under [`RecoveryPolicy::ShrinkOnly`] and on attempt 0).
    /// Each was synced to the current view by its sponsor — see
    /// [`ViewDelta::Admit`](crate::membership::ViewDelta::Admit).
    pub rejoined: Vec<usize>,
}

impl SurvivorView {
    /// The original id of dense rank `dense`.
    #[must_use]
    pub fn original_rank(&self, dense: usize) -> usize {
        self.original_ranks[dense]
    }

    /// Original ranks no longer participating, ascending.
    #[must_use]
    pub fn lost_ranks(&self) -> Vec<usize> {
        (0..self.original_n)
            .filter(|r| !self.original_ranks.contains(r))
            .collect()
    }
}

/// What a successful [`Cluster::run_resilient`] produces.
#[derive(Debug)]
pub struct ResilientOutput<T> {
    /// The successful attempt's output (dense survivor indexing).
    pub output: RunOutput<T>,
    /// Original ids of the ranks that completed, ascending.
    pub survivors: Vec<usize>,
    /// Attempts consumed, including the successful one.
    pub attempts: usize,
    /// Members of the final view that were evicted at least once and
    /// re-admitted after quarantine, ascending (always a subset of
    /// `survivors`; empty under [`RecoveryPolicy::ShrinkOnly`]).
    pub rejoined: Vec<usize>,
    /// The final membership-view id (total view changes folded).
    pub view_id: u64,
}

/// Rank threads a process may have alive at once across concurrent
/// cluster runs, unless `BRUCK_MAX_RANK_THREADS` overrides it (`0`
/// means unlimited). The threaded substrates cost one OS thread per
/// simulated rank, so two parallel `#[test]`s at `n = 64` would pile
/// 128 runnable threads onto a 1-core CI box; the gate serializes whole
/// runs instead.
pub const DEFAULT_MAX_RANK_THREADS: usize = 128;

/// A counting gate over rank threads: a cluster run takes `n` permits
/// before spawning and returns them when its scope joins.
///
/// Permits are granted all-or-nothing per run, so two half-admitted
/// runs can never deadlock against each other. A run wider than the
/// whole gate (`n ≥ capacity`) waits for an idle gate and then takes
/// every permit — it must run alone, but it must run.
struct RankThreadGate {
    capacity: usize,
    in_use: Mutex<usize>,
    freed: Condvar,
}

/// RAII permits from [`RankThreadGate::acquire`].
struct GatePermits<'a> {
    gate: &'a RankThreadGate,
    granted: usize,
}

impl RankThreadGate {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            in_use: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Block until `want` rank threads fit under the cap (clamped to the
    /// whole gate for oversized runs), then reserve them.
    fn acquire(&self, want: usize) -> GatePermits<'_> {
        if self.capacity == usize::MAX {
            return GatePermits {
                gate: self,
                granted: 0,
            };
        }
        let need = want.min(self.capacity);
        let mut in_use = self.in_use.lock().expect("rank-thread gate");
        while *in_use + need > self.capacity {
            in_use = self.freed.wait(in_use).expect("rank-thread gate");
        }
        *in_use += need;
        GatePermits {
            gate: self,
            granted: need,
        }
    }
}

impl Drop for GatePermits<'_> {
    fn drop(&mut self) {
        if self.granted > 0 {
            *self.gate.in_use.lock().expect("rank-thread gate") -= self.granted;
            self.gate.freed.notify_all();
        }
    }
}

/// The cluster runner (stateless; all state lives in the run).
#[derive(Debug)]
pub struct Cluster;

impl Cluster {
    /// Run `body` as an SPMD program on `config.n` threads.
    ///
    /// Every rank gets its own [`Endpoint`]; the call returns when all
    /// ranks return. If any rank fails, the *root cause* is returned:
    /// errors are ranked by causal severity (a kill beats the timeouts it
    /// provoked, which beat the cluster-wide `RanksFailed` reactions), so
    /// the caller sees what actually went wrong, not a secondary symptom.
    ///
    /// # Errors
    ///
    /// The root-cause rank error, if any.
    ///
    /// # Panics
    ///
    /// Propagates panics from the body.
    pub fn run<T, F>(config: &ClusterConfig, body: F) -> Result<RunOutput<T>, NetError>
    where
        T: Send,
        F: Fn(&mut Endpoint) -> Result<T, NetError> + Sync,
    {
        Self::run_with_transports(config, Self::channel_transports(config.n), body)
    }

    /// Run `body` over caller-provided transports (one per rank) — the
    /// engine behind both the channel cluster and
    /// [`crate::socket::SocketCluster`].
    ///
    /// # Errors
    ///
    /// The root-cause rank error, if any (see [`RunReport::root_cause`]).
    ///
    /// # Panics
    ///
    /// Panics if `transports.len() != config.n`; propagates body panics.
    pub fn run_with_transports<T, F>(
        config: &ClusterConfig,
        transports: Vec<Box<dyn crate::transport::Transport>>,
        body: F,
    ) -> Result<RunOutput<T>, NetError>
    where
        T: Send,
        F: Fn(&mut Endpoint) -> Result<T, NetError> + Sync,
    {
        Self::try_run_with_transports(config, transports, body).into_result()
    }

    /// Like [`Cluster::run`] but never collapses: every rank's individual
    /// result comes back in a [`RunReport`], alongside the cluster's
    /// failure verdict.
    ///
    /// # Panics
    ///
    /// Propagates panics from the body.
    pub fn try_run<T, F>(config: &ClusterConfig, body: F) -> RunReport<T>
    where
        T: Send,
        F: Fn(&mut Endpoint) -> Result<T, NetError> + Sync,
    {
        Self::try_run_with_transports(config, Self::channel_transports(config.n), body)
    }

    /// The process-global rank-thread gate (see [`RankThreadGate`]).
    fn thread_gate() -> &'static RankThreadGate {
        static GATE: OnceLock<RankThreadGate> = OnceLock::new();
        GATE.get_or_init(|| {
            let capacity = std::env::var("BRUCK_MAX_RANK_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .map_or(DEFAULT_MAX_RANK_THREADS, |v| {
                    if v == 0 {
                        usize::MAX
                    } else {
                        v
                    }
                });
            RankThreadGate::with_capacity(capacity)
        })
    }

    fn channel_transports(n: usize) -> Vec<Box<dyn crate::transport::Transport>> {
        let mut senders = Vec::with_capacity(n);
        let mut mailboxes = Vec::with_capacity(n);
        for rank in 0..n {
            let (tx, mb) = Mailbox::new(rank);
            senders.push(tx);
            mailboxes.push(mb);
        }
        mailboxes
            .into_iter()
            .map(|mb| {
                Box::new(ChannelTransport::new(senders.clone(), mb))
                    as Box<dyn crate::transport::Transport>
            })
            .collect()
    }

    /// The engine: wrap transports with the configured wire sublayers
    /// (fault injection below reliability), run one thread per rank, and
    /// report every rank's outcome.
    ///
    /// # Panics
    ///
    /// Panics if `transports.len() != config.n`; propagates body panics.
    pub fn try_run_with_transports<T, F>(
        config: &ClusterConfig,
        transports: Vec<Box<dyn crate::transport::Transport>>,
        body: F,
    ) -> RunReport<T>
    where
        T: Send,
        F: Fn(&mut Endpoint) -> Result<T, NetError> + Sync,
    {
        let n = config.n;
        assert_eq!(transports.len(), n, "one transport per rank");
        // Bound rank threads across *concurrent* cluster runs (parallel
        // `cargo test` binaries aside, parallel #[test]s in one binary
        // each spawn a full cluster): the run blocks here until the
        // process-wide budget has room. Deadlock-free because permits
        // are taken all-or-nothing per run, never incrementally.
        let _permits = Cluster::thread_gate().acquire(n);
        let trace = config.trace.then(Trace::new);
        // One pool for the whole cluster: a receiver recycles the very
        // buffer the sender's endpoint staged its payload into.
        let pool = Arc::new(BufferPool::new());
        let detector = Arc::new(FailureDetector::new(n));
        let wire_layer = config.faults.needs_wire_layer();
        // Completed-rounds clock shared by every rank's wire fault
        // layer: round-keyed partitions and cuts sever retransmissions
        // and acks too, not just the first transmission.
        let round_clock = Arc::new(RoundClock::new(n));
        // All ranks arm against the *same* expiry instant so survivors
        // observe a blown budget within one poll slice of each other.
        let shared_expiry = config
            .deadline
            .map(|budget| (Instant::now() + budget, budget));

        let mut endpoints: Vec<Endpoint> = transports
            .into_iter()
            .enumerate()
            .map(|(rank, transport)| {
                // Stack order (outermost first): reliability — fault
                // injection — wire. Faults hit every physical
                // transmission, including acks and retransmissions.
                let mut transport = transport;
                transport.use_pool(&pool);
                if wire_layer {
                    transport = Box::new(FaultyTransport::new(
                        transport,
                        Arc::clone(&config.faults),
                        Arc::clone(&round_clock),
                    ));
                }
                let deadline = Deadline::new();
                if let Some((expires, budget)) = shared_expiry {
                    deadline.arm_at(expires, budget);
                }
                // The ARQ only has work to do over a wire that can lose,
                // reorder or damage a message. A transport that already
                // delivers reliably and in order (clean Unix sockets or
                // TCP) runs bare: `with_reliability` asks for "deliver or
                // one consistent verdict", and there the wire provides
                // it — unless a rank stalls, which only the ARQ's
                // watchdog turns into a verdict.
                if let Some(rel) = config.reliability.filter(|_| {
                    transport.delivery() == Delivery::Datagram || config.faults.has_stalls()
                }) {
                    transport = Box::new(
                        ReliableTransport::new(transport, rank, n, rel, Arc::clone(&detector))
                            .with_deadline(deadline.clone()),
                    );
                }
                Endpoint::new(
                    rank,
                    n,
                    config.ports,
                    transport,
                    trace.clone(),
                    Arc::clone(&config.faults),
                    config.timeout,
                    Arc::clone(&pool),
                    Some(Arc::clone(&detector)),
                    deadline,
                    Arc::clone(&round_clock),
                )
            })
            .collect();

        let body = &body;
        let detector_ref = &detector;
        // Completion count for the linger phase below: under sliding-window
        // reliability, a rank that finishes first must keep answering
        // retransmitted frames (its final acks may have been lost on the
        // faulty wire) until every peer is done, or the stranded sender
        // would exhaust its retries against a peer that merely went quiet.
        let done = AtomicUsize::new(0);
        let done_ref = &done;
        let linger_fallback = config.timeout;
        let outcomes: Vec<(Result<T, NetError>, crate::metrics::RankMetrics, u64)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = endpoints
                    .drain(..)
                    .map(|mut ep| {
                        scope.spawn(move || {
                            let rank = ep.rank();
                            let result = body(&mut ep);
                            // A rank that died, hit corruption, or idled
                            // into a timeout is suspect: publish it so
                            // waiters abort with the cluster-wide verdict
                            // instead of their own timeouts. Reactions
                            // (`RanksFailed`) and programming errors do
                            // NOT poison the dead set.
                            if let Err(
                                NetError::Killed { .. }
                                | NetError::Timeout { .. }
                                | NetError::Corrupt { .. }
                                | NetError::Disconnected { .. },
                            ) = &result
                            {
                                detector_ref.mark_dead(rank);
                            }
                            // End-of-run patience is derived from the
                            // link latency this very run observed: the
                            // reliability layer's adaptive RTO bounds how
                            // long a peer needs to retransmit an un-acked
                            // tail and get answered, so shutdown waits a
                            // few RTOs instead of a fixed multi-second
                            // constant (the configured timeout stays as
                            // the upper bound). Only an ARQ sublayer has a
                            // hint — and only an ARQ sublayer has a tail
                            // to drain or retransmissions to keep acking.
                            let hint = ep.linger_hint();
                            let linger = hint.is_some();
                            let flush_cap = hint.unwrap_or(linger_fallback).min(linger_fallback);
                            // Windowed sends may still have an unacked
                            // tail when the body returns (the collective
                            // only matched the *data*, not the acks).
                            // Drain it before counting this rank as done,
                            // so shutdown cannot race an in-flight frame
                            // that a peer is still waiting to deliver.
                            if linger && !matches!(&result, Err(NetError::Killed { .. })) {
                                ep.flush(Instant::now() + flush_cap);
                            }
                            done_ref.fetch_add(1, Ordering::SeqCst);
                            // Linger: every rank whose *process* survived
                            // keeps its wire up (re-acking retransmitted
                            // frames) until all peers finish, or a peer
                            // with an in-flight send to it would exhaust
                            // its retries and falsely declare it dead.
                            // Only a killed rank goes silent — its
                            // self-mark makes peers fail fast through the
                            // detector, not through the retry cap.
                            if linger && !matches!(&result, Err(NetError::Killed { .. })) {
                                // The loop is event-bounded (every rank
                                // increments `done`, even on error); the
                                // configured timeout is only the hang
                                // backstop.
                                let deadline = Instant::now() + linger_fallback;
                                while done_ref.load(Ordering::SeqCst) < n
                                    && Instant::now() < deadline
                                {
                                    ep.service(Duration::from_millis(2));
                                }
                            }
                            let seen = ep.failures_seen();
                            (result, ep.into_metrics(), seen)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("rank thread panicked"))
                    .collect()
            });

        let mut results = Vec::with_capacity(n);
        let mut per_rank = Vec::with_capacity(n);
        let final_version = detector.version();
        for (result, metrics, seen) in outcomes {
            per_rank.push(metrics);
            // Verdict agreement: a rank whose data dependencies never
            // crossed a dead rank can race through its rounds and return
            // `Ok` before the death is even announced (an event-driven
            // wire makes this window real). The cluster-wide contract is
            // one consistent verdict, so an `Ok` from a rank that never
            // witnessed the final detector version — by aborting on it
            // or by acknowledging it for in-run recovery — is downgraded
            // to the same `RanksFailed` every blocked waiter got.
            results.push(match result {
                Ok(_) if final_version > seen => Err(NetError::RanksFailed {
                    ranks: detector.snapshot(),
                }),
                other => other,
            });
        }
        RunReport {
            outcomes: results,
            metrics: RunMetrics {
                per_rank,
                folded: round_clock.folded(),
                pool: pool.stats(),
                ..RunMetrics::default()
            },
            trace,
            failed: detector.snapshot(),
        }
    }

    /// Recovery-policy-driven retry: run `body`, and if ranks die
    /// (fault-injection kills or reliability-layer retry-cap verdicts),
    /// fold the verdict into a [`Membership`] view at the collective
    /// boundary and run again over the new view — up to `max_attempts`
    /// attempts in total. The body sees the current `ep.size()` and can
    /// re-plan (radix, schedule) for the membership; the
    /// [`SurvivorView`] maps dense ranks back to original ids and
    /// carries the view id.
    ///
    /// What happens between attempts is governed by
    /// [`ClusterConfig::recovery`]:
    ///
    /// * [`RecoveryPolicy::ShrinkOnly`] — evicted ranks never return
    ///   (the PR 2 behavior).
    /// * [`RecoveryPolicy::WaitForRejoin`] — the boundary waits up to
    ///   the budget for quarantined ranks whose flap-damped hold-down
    ///   window (see [`ClusterConfig::quarantine`]) expires in time and
    ///   re-admits them, so the next attempt runs over the restored
    ///   membership with fresh links. Because admission only ever
    ///   happens here — between attempts, when no traffic is in flight
    ///   and every survivor holds the same verdict — an in-flight
    ///   attempt never observes a membership change mid-round.
    /// * [`RecoveryPolicy::FailFast`] — aborts with the eviction
    ///   verdict as soon as membership falls below the quorum.
    ///
    /// Deterministic faults (kills, exact drops) are consumed by the
    /// original membership and cleared for retries; seeded probabilistic
    /// wire rates carry over ([`FaultPlan::survivor_plan`]); recurring
    /// kills ([`FaultPlan::kill_rank_recurring`]) re-fire on every
    /// attempt whose membership includes the victim — the flapping-rank
    /// generator.
    ///
    /// The final view's counters (view changes, evictions, rejoins,
    /// quarantines) are folded into the successful attempt's
    /// [`RunMetrics::membership`].
    ///
    /// # Errors
    ///
    /// Non-survivable root causes immediately; the eviction verdict when
    /// [`RecoveryPolicy::FailFast`] trips its quorum or no survivors
    /// remain; the last root cause when attempts are exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts == 0`; propagates body panics.
    pub fn run_resilient<T, F>(
        config: &ClusterConfig,
        max_attempts: usize,
        body: F,
    ) -> Result<ResilientOutput<T>, NetError>
    where
        T: Send,
        F: Fn(&mut Endpoint, &SurvivorView) -> Result<T, NetError> + Sync,
    {
        Self::run_resilient_with(
            config,
            max_attempts,
            &mut |n, _attempt| Ok(Self::channel_transports(n)),
            body,
        )
    }

    /// [`Cluster::run_resilient`] over caller-provided transports: the
    /// factory is called once per attempt with the attempt's member
    /// count and index, so a restarted rank can re-establish its links
    /// on fresh wires (e.g. a new socket incarnation — see
    /// [`SocketCluster::run_resilient`](crate::socket::SocketCluster::run_resilient)).
    ///
    /// # Errors
    ///
    /// Factory errors propagate verbatim; otherwise see
    /// [`Cluster::run_resilient`].
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts == 0`; propagates body panics.
    pub fn run_resilient_with<T, F>(
        config: &ClusterConfig,
        max_attempts: usize,
        transports: &mut dyn FnMut(
            usize,
            usize,
        )
            -> Result<Vec<Box<dyn crate::transport::Transport>>, NetError>,
        body: F,
    ) -> Result<ResilientOutput<T>, NetError>
    where
        T: Send,
        F: Fn(&mut Endpoint, &SurvivorView) -> Result<T, NetError> + Sync,
    {
        assert!(max_attempts >= 1, "need at least one attempt");
        let membership = Membership::new(config.n).with_base_quarantine(config.quarantine);
        let mut cfg = config.clone();
        let mut rejoined_now: Vec<usize> = Vec::new();
        for attempt in 0..max_attempts {
            let members = membership.members();
            cfg.n = members.len();
            cfg.faults = Arc::new(config.faults.for_attempt(attempt, &members));
            let view = SurvivorView {
                attempt,
                original_n: config.n,
                original_ranks: members.clone(),
                view_id: membership.view_id(),
                rejoined: std::mem::take(&mut rejoined_now),
            };
            let wires = transports(members.len(), attempt)?;
            let report = Self::try_run_with_transports(&cfg, wires, |ep| body(ep, &view));
            let Some((_, cause)) = report.root_cause() else {
                let mut output = report.into_result().expect("no errors per root_cause");
                output.metrics.membership = membership.stats();
                return Ok(ResilientOutput {
                    output,
                    survivors: members,
                    attempts: attempt + 1,
                    rejoined: membership.rejoined_ranks(),
                    view_id: membership.view_id(),
                });
            };
            let cause = cause.clone();
            if !cause.is_rank_failure() || attempt + 1 == max_attempts {
                return Err(cause);
            }
            if report.failed.is_empty() {
                return Err(cause);
            }
            // Collective boundary: the attempt is over, no traffic is in
            // flight, and `report.failed` is the verdict every survivor
            // agreed on — fold it into the view (dense ids map back
            // through this attempt's membership).
            let failed = report.failed.iter().map(|&dense| members[dense]);
            rejoined_now = membership.fold_failures(failed, config.recovery)?;
        }
        unreachable!("loop returns on success, exhaustion, or hard error")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{RecvSpec, SendSpec};
    use bruck_model::complexity::Complexity;

    #[test]
    fn rank_thread_gate_grants_all_or_nothing() {
        let gate = RankThreadGate::with_capacity(8);
        {
            let a = gate.acquire(5);
            assert_eq!(a.granted, 5);
            let b = gate.acquire(3);
            assert_eq!(b.granted, 3);
        }
        let c = gate.acquire(64);
        assert_eq!(c.granted, 8, "oversized run takes the whole gate");
        drop(c);
        assert_eq!(*gate.in_use.lock().unwrap(), 0, "permits all returned");
    }

    #[test]
    fn rank_thread_gate_blocks_until_permits_return() {
        let gate = RankThreadGate::with_capacity(2);
        let gate_ref = &gate;
        std::thread::scope(|s| {
            let held = gate_ref.acquire(2);
            let (tx, rx) = std::sync::mpsc::channel();
            s.spawn(move || {
                let _p = gate_ref.acquire(1);
                tx.send(()).unwrap();
            });
            assert!(
                rx.recv_timeout(Duration::from_millis(50)).is_err(),
                "acquire must block while the gate is full"
            );
            drop(held);
            rx.recv_timeout(Duration::from_secs(5))
                .expect("acquire unblocks once permits return");
        });
    }

    #[test]
    fn single_rank_trivial() {
        let out = Cluster::run(&ClusterConfig::new(1), |ep| Ok(ep.rank())).unwrap();
        assert_eq!(out.results, vec![0]);
        assert_eq!(out.metrics.global_complexity(), Some(Complexity::ZERO));
    }

    #[test]
    fn ring_rotation() {
        let cfg = ClusterConfig::new(5);
        let out = Cluster::run(&cfg, |ep| {
            let n = ep.size();
            let right = (ep.rank() + 1) % n;
            let left = (ep.rank() + n - 1) % n;
            let got = ep.send_and_recv(right, &[ep.rank() as u8], left, 0)?;
            Ok(got[0])
        })
        .unwrap();
        assert_eq!(out.results, vec![4, 0, 1, 2, 3]);
        // One round, max message 1 byte.
        assert_eq!(out.metrics.global_complexity(), Some(Complexity::new(1, 1)));
    }

    #[test]
    fn multiport_round() {
        // k = 2: every rank sends to rank±1 and receives from rank±1 in a
        // single round.
        let cfg = ClusterConfig::new(5).with_ports(2);
        let out = Cluster::run(&cfg, |ep| {
            let n = ep.size();
            let r = ep.rank();
            let right = (r + 1) % n;
            let left = (r + n - 1) % n;
            let payload = [r as u8];
            let msgs = ep.round(
                &[
                    SendSpec {
                        to: right,
                        tag: 1,
                        payload: &payload,
                    },
                    SendSpec {
                        to: left,
                        tag: 2,
                        payload: &payload,
                    },
                ],
                &[
                    RecvSpec { from: left, tag: 1 },
                    RecvSpec {
                        from: right,
                        tag: 2,
                    },
                ],
            )?;
            Ok((msgs[0].payload[0], msgs[1].payload[0]))
        })
        .unwrap();
        for (r, &(from_left, from_right)) in out.results.iter().enumerate() {
            assert_eq!(from_left as usize, (r + 4) % 5);
            assert_eq!(from_right as usize, (r + 1) % 5);
        }
        assert_eq!(out.metrics.global_complexity(), Some(Complexity::new(1, 1)));
    }

    #[test]
    fn port_limit_enforced() {
        let cfg = ClusterConfig::new(4).with_ports(1);
        let err = Cluster::run(&cfg, |ep| {
            if ep.rank() == 0 {
                let p = [0u8];
                ep.round(
                    &[
                        SendSpec {
                            to: 1,
                            tag: 0,
                            payload: &p,
                        },
                        SendSpec {
                            to: 2,
                            tag: 0,
                            payload: &p,
                        },
                    ],
                    &[],
                )?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(
            err,
            NetError::PortLimit {
                rank: 0,
                requested: 2,
                ports: 1,
                ..
            }
        ));
    }

    #[test]
    fn self_send_rejected() {
        let cfg = ClusterConfig::new(2);
        let err = Cluster::run(&cfg, |ep| {
            let p = [0u8];
            let rank = ep.rank();
            ep.round(
                &[SendSpec {
                    to: rank,
                    tag: 0,
                    payload: &p,
                }],
                &[],
            )?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, NetError::BadPeer { .. }));
    }

    #[test]
    fn duplicate_destination_rejected() {
        let cfg = ClusterConfig::new(3).with_ports(2);
        let err = Cluster::run(&cfg, |ep| {
            if ep.rank() == 0 {
                let p = [0u8];
                ep.round(
                    &[
                        SendSpec {
                            to: 1,
                            tag: 0,
                            payload: &p,
                        },
                        SendSpec {
                            to: 1,
                            tag: 1,
                            payload: &p,
                        },
                    ],
                    &[],
                )?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, NetError::DuplicatePeer { rank: 0, peer: 1 }));
    }

    #[test]
    fn timeout_surfaces_as_error() {
        let cfg = ClusterConfig::new(2).with_timeout(Duration::from_millis(50));
        let err = Cluster::run(&cfg, |ep| {
            if ep.rank() == 0 {
                // Rank 1 never sends.
                ep.round(&[], &[RecvSpec { from: 1, tag: 9 }])?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(
            err,
            NetError::Timeout {
                rank: 0,
                from: 1,
                tag: 9,
                ..
            }
        ));
    }

    #[test]
    fn killed_rank_propagates() {
        let cfg = ClusterConfig::new(3)
            .with_timeout(Duration::from_millis(100))
            .with_faults(FaultPlan::new().kill_rank_after(1, 0));
        let err = Cluster::run(&cfg, |ep| {
            let n = ep.size();
            let right = (ep.rank() + 1) % n;
            let left = (ep.rank() + n - 1) % n;
            ep.send_and_recv(right, &[1], left, 0)?;
            Ok(())
        })
        .unwrap_err();
        // Rank 0 times out waiting for rank 1's message *or* rank 1
        // reports Killed, whichever rank order surfaces first: rank order
        // makes rank 0's timeout the first error... but rank 0 may succeed
        // if message ordering lets it; accept either shape.
        assert!(
            matches!(err, NetError::Killed { rank: 1, .. })
                || matches!(err, NetError::Timeout { .. }),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn dropped_message_times_out_receiver() {
        let cfg = ClusterConfig::new(2)
            .with_timeout(Duration::from_millis(50))
            .with_faults(FaultPlan::new().drop_message(0, 1, 0));
        let err = Cluster::run(&cfg, |ep| {
            let peer = 1 - ep.rank();
            ep.send_and_recv(peer, &[7], peer, 0)?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(
            err,
            NetError::Timeout {
                rank: 1,
                from: 0,
                ..
            }
        ));
    }

    #[test]
    fn trace_records_all_sends() {
        let cfg = ClusterConfig::new(3).with_trace();
        let out = Cluster::run(&cfg, |ep| {
            let n = ep.size();
            let right = (ep.rank() + 1) % n;
            let left = (ep.rank() + n - 1) % n;
            ep.send_and_recv(right, &[0u8; 10], left, 0)?;
            Ok(())
        })
        .unwrap();
        let trace = out.trace.unwrap();
        assert_eq!(trace.len(), 3);
        let m = trace.traffic_matrix(3);
        assert_eq!(m[0][1], 10);
        assert_eq!(m[1][2], 10);
        assert_eq!(m[2][0], 10);
    }

    #[test]
    fn idle_round_keeps_alignment() {
        let cfg = ClusterConfig::new(2);
        let out = Cluster::run(&cfg, |ep| {
            if ep.rank() == 0 {
                ep.round(
                    &[SendSpec {
                        to: 1,
                        tag: 0,
                        payload: &[1, 2],
                    }],
                    &[],
                )?;
            } else {
                ep.round(&[], &[RecvSpec { from: 0, tag: 0 }])?;
            }
            ep.idle_round()?;
            Ok(())
        })
        .unwrap();
        assert_eq!(out.metrics.global_complexity(), Some(Complexity::new(2, 2)));
    }
}

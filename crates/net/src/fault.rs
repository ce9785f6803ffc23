//! Fault injection.
//!
//! The paper motivates the fully connected model partly by fault
//! tolerance: algorithms "can operate in the presence of faults (assuming
//! connectivity is maintained)". This module provides two kinds of
//! injected faults:
//!
//! * **Deterministic plans** — kill a rank after a round, or drop one
//!   exact `(src, dst, round)` message. These model application-level
//!   omission failures and are applied by the
//!   [`Endpoint`](crate::Endpoint), which knows round numbers.
//! * **Probabilistic wire faults** — seeded per-link loss, duplication
//!   and corruption rates, applied below the round layer by
//!   [`FaultyTransport`] to every physical transmission (including
//!   reliability-layer acks and retransmissions). The RNG is a keyed
//!   splitmix64 hash of `(seed, src, dst, transmission#)` — fully
//!   deterministic given the transmission sequence, no ambient entropy.
//!
//! Wire faults pair with the [`crate::reliable`] sublayer: loss and
//! corruption are healed by ack/retransmit, duplication by sequence
//! numbers. Without the reliability layer, loss surfaces as a receiver
//! timeout and corruption as [`crate::NetError::Corrupt`]; enabling
//! duplication without reliability may deliver stale messages and is
//! only meaningful for testing the reliability layer itself.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bruck_model::complexity::Complexity;

use crate::error::NetError;
use crate::message::{Message, Tag};
use crate::metrics::LinkStats;
use crate::transport::Transport;

/// Cluster-shared progress clock: each rank's count of *completed*
/// rounds, published by its endpoint and read by every
/// [`FaultyTransport`] so round-keyed link cuts apply below the round
/// layer — severing retransmissions and acks, not just the round's data
/// frames. Reading is lock-free; one relaxed load per transmission.
///
/// The clock is also where the paper's `(C1, C2)` is accumulated. Each
/// rank reports the largest message it sent in the round it completes;
/// once all `n` ranks have reported round `i`, the largest of those is
/// added to `C2` and the round is forgotten. What is kept is therefore
/// one `(reports, max)` pair per round some rank has finished and some
/// other has not — bounded by how far ranks drift apart, not by how long
/// the cluster runs.
#[derive(Debug)]
pub struct RoundClock {
    completed: Vec<AtomicU64>,
    fold: Mutex<RoundFold>,
}

#[derive(Debug, Default)]
struct RoundFold {
    /// Rounds every rank has reported, and the sum of their maxima.
    closed: Complexity,
    /// `(ranks reported, largest message so far)` for rounds
    /// `closed.c1, closed.c1 + 1, …` that are still missing a rank.
    open: VecDeque<(usize, u64)>,
}

impl RoundClock {
    /// A clock for `n` ranks, all at round 0.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            completed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            fold: Mutex::new(RoundFold::default()),
        }
    }

    /// Record that `rank` completed another round in which the largest
    /// message it sent was `send_max` bytes (0 for an idle round).
    pub fn advance(&self, rank: usize, send_max: u64) {
        let round = self.completed[rank].fetch_add(1, Ordering::Relaxed);
        let mut fold = self.fold.lock().expect("round fold lock poisoned");
        // A rank reports its rounds in order, so `round` is never one
        // that has already closed.
        let at = (round - fold.closed.c1) as usize;
        if fold.open.len() <= at {
            fold.open.resize(at + 1, (0, 0));
        }
        let slot = &mut fold.open[at];
        *slot = (slot.0 + 1, slot.1.max(send_max));
        while let Some(&(reports, max)) = fold.open.front() {
            if reports < self.completed.len() {
                break;
            }
            fold.open.pop_front();
            fold.closed = fold.closed.plus_round(max);
        }
    }

    /// How many rounds `rank` has completed. Ranks beyond the clock's
    /// size (never the case inside a cluster run) read as round 0.
    #[must_use]
    pub fn completed(&self, rank: usize) -> u64 {
        self.completed
            .get(rank)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// `(C1, C2)` over the rounds every rank has completed so far.
    #[must_use]
    pub fn folded(&self) -> Complexity {
        self.fold.lock().expect("round fold lock poisoned").closed
    }
}

/// Per-link probabilistic fault rates (each in `[0, 1]`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkRates {
    /// Probability a transmission is silently discarded.
    pub loss: f64,
    /// Probability a transmission is delivered twice.
    pub duplicate: f64,
    /// Probability one payload byte is flipped in flight.
    pub corrupt: f64,
}

impl LinkRates {
    /// Whether every rate is zero (the link is fault-free).
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.loss <= 0.0 && self.duplicate <= 0.0 && self.corrupt <= 0.0
    }
}

/// The per-transmission decision drawn from the seeded RNG.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireVerdict {
    /// Discard the transmission.
    pub drop: bool,
    /// Deliver it twice.
    pub duplicate: bool,
    /// Flip one payload byte.
    pub corrupt: bool,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` keyed by `(key, salt)`.
fn unit_draw(key: u64, salt: u64) -> f64 {
    let bits = splitmix64(key ^ salt.wrapping_mul(0xa076_1d64_78bd_642f));
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// A connection-level fault injected inside the TCP fabric, keyed by a
/// rank pair: the fabric maps the ranks to their simulated nodes and
/// arms the event on the stream carrying that node pair's traffic
/// (intra-node pairs have no stream, so the event is a no-op there).
/// Rounds are measured on the cluster's *slowest* rank — the event
/// fires once every rank has completed `round` rounds — so an armed
/// event can never race ahead of the traffic it is meant to disturb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketFault {
    /// Abruptly close both stream ends (TCP RST analogue): the reactor
    /// must detect the dead link, back off, and re-handshake.
    Reset {
        /// A rank on one of the two nodes.
        src: usize,
        /// A rank on the other node.
        dst: usize,
        /// Slowest-rank completed-round count at which the reset fires.
        round: u64,
    },
    /// Freeze the stream (no reads, no writes) for `millis` — the
    /// half-open analogue where the peer goes silent but the socket
    /// never errors, so only timeouts and retransmissions notice.
    HalfOpen {
        /// A rank on one of the two nodes.
        src: usize,
        /// A rank on the other node.
        dst: usize,
        /// Slowest-rank completed-round count at which the stall starts.
        round: u64,
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// Fail the pair's next `drops` reconnect handshakes, burning
    /// reconnect budget (SYN-blackhole analogue). Enough drops exhaust
    /// the budget and force a node-level eviction.
    HandshakeDrop {
        /// A rank on one of the two nodes.
        src: usize,
        /// A rank on the other node.
        dst: usize,
        /// Number of consecutive handshakes to fail.
        drops: u32,
    },
    /// Replace the connecting end's next `count` reconnect handshakes
    /// with seeded malformed ones, cycling through a short write, a
    /// foreign pair id, a delivered count beyond anything sent, and
    /// random bytes. Each must cost exactly one reconnect attempt.
    HandshakeGarble {
        /// A rank on one of the two nodes.
        src: usize,
        /// A rank on the other node.
        dst: usize,
        /// Seed for the malformed bytes.
        seed: u64,
        /// Number of consecutive handshakes to malform.
        count: u32,
    },
    /// Reset the link at `round` and then again after each of the next
    /// `flaps` successful heals — the flapping-connection generator.
    Flap {
        /// A rank on one of the two nodes.
        src: usize,
        /// A rank on the other node.
        dst: usize,
        /// Slowest-rank completed-round count of the first reset.
        round: u64,
        /// Additional resets fired right after each heal.
        flaps: u32,
    },
}

/// A declarative fault plan applied during a cluster run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Rank → round after which the rank's thread exits with
    /// [`crate::NetError::Killed`].
    kill_after: HashMap<usize, u64>,
    /// *Original* rank → round: a kill that re-fires on every
    /// shrink-and-retry attempt whose membership still (or again)
    /// includes the victim — the flapping-rank generator. Bound to an
    /// attempt's dense numbering by [`bind_recurring`](Self::bind_recurring).
    recurring_kills: HashMap<usize, u64>,
    /// `(src, dst, round)` triples whose message is silently dropped.
    drops: HashSet<(usize, usize, u64)>,
    /// Seed for the probabilistic wire faults.
    seed: u64,
    /// Default rates applied to every link.
    rates: LinkRates,
    /// Per-link overrides keyed by `(src, dst)`.
    link_rates: HashMap<(usize, usize), LinkRates>,
    /// Directed link cuts: `(src, dst)` → the sender round from which
    /// every `src → dst` transmission is severed.
    cut_links: HashMap<(usize, usize), u64>,
    /// Bipartitions: `(side, round)` — once the sender has completed
    /// `round` rounds, traffic crossing the `side` / complement boundary
    /// (either direction) is severed. Membership is evaluated per
    /// message, so the plan needs no knowledge of `n`.
    partitions: Vec<(Vec<usize>, u64)>,
    /// Stall events: `(rank, round, pause)` — the rank sleeps for
    /// `pause` before starting the round after completing `round` rounds
    /// (SIGSTOP-style: while asleep it pumps no acks and answers no
    /// probes).
    stalls: Vec<(usize, u64, Duration)>,
    /// Probability a dedicated ack frame is silently discarded —
    /// ack-path fault injection beyond the symmetric `rates` (which hit
    /// acks and data alike).
    ack_loss: f64,
    /// Connection-level events injected inside the TCP fabric (resets,
    /// half-open stalls, handshake drops, reconnect flaps). Ignored by
    /// transports without a shared stream data plane.
    socket: Vec<SocketFault>,
    /// Whether this plan came out of [`survivor_plan`](Self::survivor_plan)
    /// and therefore addresses an attempt's *dense* numbering. Recurring
    /// kills are keyed by original rank, so [`should_kill`](Self::should_kill)
    /// must not fall back to them on a shrunk plan until
    /// [`bind_recurring`](Self::bind_recurring) has translated the ids.
    shrunk: bool,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan injects anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kill_after.is_empty()
            && self.recurring_kills.is_empty()
            && self.drops.is_empty()
            && self.stalls.is_empty()
            && self.socket.is_empty()
            && !self.has_wire_faults()
            && !self.needs_wire_layer()
    }

    /// Kill `rank` once it has completed `round` rounds.
    #[must_use]
    pub fn kill_rank_after(mut self, rank: usize, round: u64) -> Self {
        self.kill_after.insert(rank, round);
        self
    }

    /// Kill *original* rank `rank` after `round` rounds on **every**
    /// attempt whose membership includes it — unlike
    /// [`kill_rank_after`](Self::kill_rank_after), the kill is not
    /// consumed by the first attempt, so a rank that rejoins dies
    /// again: the flapping-rank generator for recovery tests. The
    /// resilient driver maps it to the attempt's dense numbering via
    /// [`bind_recurring`](Self::bind_recurring); under a plain
    /// [`Cluster::run`](crate::cluster::Cluster::run) (original
    /// numbering) it behaves like a one-shot kill.
    #[must_use]
    pub fn kill_rank_recurring(mut self, rank: usize, round: u64) -> Self {
        self.recurring_kills.insert(rank, round);
        self
    }

    /// Drop the message `src → dst` sent in the sender's round `round`.
    #[must_use]
    pub fn drop_message(mut self, src: usize, dst: usize, round: u64) -> Self {
        self.drops.insert((src, dst, round));
        self
    }

    /// Seed the probabilistic wire-fault RNG (deterministic; no ambient
    /// entropy is ever consulted).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Lose each transmission on every link with probability `rate`.
    #[must_use]
    pub fn with_loss(mut self, rate: f64) -> Self {
        self.rates.loss = rate;
        self
    }

    /// Duplicate each transmission on every link with probability `rate`.
    #[must_use]
    pub fn with_duplication(mut self, rate: f64) -> Self {
        self.rates.duplicate = rate;
        self
    }

    /// Flip one payload byte on every link with probability `rate`.
    #[must_use]
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.rates.corrupt = rate;
        self
    }

    /// Override the rates of the single link `src → dst`.
    #[must_use]
    pub fn with_link_rates(mut self, src: usize, dst: usize, rates: LinkRates) -> Self {
        self.link_rates.insert((src, dst), rates);
        self
    }

    /// Sever the directed link `src → dst` from the sender's round
    /// `round` onward (data, acks, and retransmissions alike). The
    /// reverse link stays up — this is how asymmetric partitions are
    /// built.
    #[must_use]
    pub fn cut_link(mut self, src: usize, dst: usize, round: u64) -> Self {
        self.cut_links.insert((src, dst), round);
        self
    }

    /// Partition the cluster into `side` and its complement from round
    /// `round` onward: every transmission crossing the boundary (either
    /// direction) is severed once its sender has completed `round`
    /// rounds.
    #[must_use]
    pub fn with_partition(mut self, side: Vec<usize>, round: u64) -> Self {
        self.partitions.push((side, round));
        self
    }

    /// Stall `rank` for `pause` before it starts the round after
    /// completing `round` rounds. While stalled the rank is fully
    /// unresponsive (no ack pumping, no probe replies) — the in-process
    /// analogue of a SIGSTOP/SIGCONT pair.
    #[must_use]
    pub fn stall_rank(mut self, rank: usize, round: u64, pause: Duration) -> Self {
        self.stalls.push((rank, round, pause));
        self
    }

    /// Lose each dedicated ack frame with probability `rate` (on top of
    /// any symmetric per-link rates).
    #[must_use]
    pub fn with_ack_loss(mut self, rate: f64) -> Self {
        self.ack_loss = rate;
        self
    }

    /// Reset the TCP stream carrying `src ↔ dst` traffic once every
    /// rank has completed `round` rounds (see [`SocketFault::Reset`]).
    #[must_use]
    pub fn with_conn_reset(mut self, src: usize, dst: usize, round: u64) -> Self {
        self.socket.push(SocketFault::Reset { src, dst, round });
        self
    }

    /// Freeze the `src ↔ dst` stream for `stall` starting at `round`
    /// (see [`SocketFault::HalfOpen`]).
    #[must_use]
    pub fn with_half_open(mut self, src: usize, dst: usize, round: u64, stall: Duration) -> Self {
        self.socket.push(SocketFault::HalfOpen {
            src,
            dst,
            round,
            millis: stall.as_millis() as u64,
        });
        self
    }

    /// Fail the `src ↔ dst` pair's next `drops` reconnect handshakes
    /// (see [`SocketFault::HandshakeDrop`]).
    #[must_use]
    pub fn with_handshake_drops(mut self, src: usize, dst: usize, drops: u32) -> Self {
        self.socket
            .push(SocketFault::HandshakeDrop { src, dst, drops });
        self
    }

    /// Malform the `src ↔ dst` pair's next `count` reconnect handshakes
    /// (see [`SocketFault::HandshakeGarble`]).
    #[must_use]
    pub fn with_malformed_handshakes(
        mut self,
        src: usize,
        dst: usize,
        seed: u64,
        count: u32,
    ) -> Self {
        self.socket.push(SocketFault::HandshakeGarble {
            src,
            dst,
            seed,
            count,
        });
        self
    }

    /// Flap the `src ↔ dst` stream: reset at `round`, then `flaps` more
    /// resets, one after each heal (see [`SocketFault::Flap`]).
    #[must_use]
    pub fn with_reconnect_flap(mut self, src: usize, dst: usize, round: u64, flaps: u32) -> Self {
        self.socket.push(SocketFault::Flap {
            src,
            dst,
            round,
            flaps,
        });
        self
    }

    /// The connection-level events the TCP fabric must arm.
    #[must_use]
    pub fn socket_faults(&self) -> &[SocketFault] {
        &self.socket
    }

    /// Whether any connection-level (fabric-injected) event is present.
    #[must_use]
    pub fn has_socket_faults(&self) -> bool {
        !self.socket.is_empty()
    }

    /// Whether any probabilistic wire fault is configured (this is what
    /// switches payload checksumming on).
    #[must_use]
    pub fn has_wire_faults(&self) -> bool {
        !self.rates.is_quiet() || self.link_rates.values().any(|r| !r.is_quiet())
    }

    /// Whether the plan needs the [`FaultyTransport`] wrapper installed
    /// at all: probabilistic rates, link cuts/partitions, or ack-path
    /// loss (cuts and ack loss do not corrupt payloads, so they need the
    /// wire layer but not checksumming).
    #[must_use]
    pub fn needs_wire_layer(&self) -> bool {
        self.has_wire_faults()
            || !self.cut_links.is_empty()
            || !self.partitions.is_empty()
            || self.ack_loss > 0.0
    }

    /// Whether the plan stalls any rank (see [`stall_rank`](Self::stall_rank)).
    #[must_use]
    pub fn has_stalls(&self) -> bool {
        !self.stalls.is_empty()
    }

    /// Whether `src → dst` is severed once the sender has completed
    /// `completed` rounds — by a directed cut or by any active
    /// bipartition the two ranks straddle.
    #[must_use]
    pub fn is_cut(&self, src: usize, dst: usize, completed: u64) -> bool {
        if let Some(&round) = self.cut_links.get(&(src, dst)) {
            if completed >= round {
                return true;
            }
        }
        self.partitions
            .iter()
            .any(|(side, round)| completed >= *round && side.contains(&src) != side.contains(&dst))
    }

    /// Total stall this rank owes before starting the round after
    /// completing `completed` rounds.
    #[must_use]
    pub fn stall_for(&self, rank: usize, completed: u64) -> Option<Duration> {
        let total: Duration = self
            .stalls
            .iter()
            .filter(|&&(r, at, _)| r == rank && at == completed)
            .map(|&(_, _, pause)| pause)
            .sum();
        (total > Duration::ZERO).then_some(total)
    }

    /// The seeded verdict for dropping the `xmit`-th transmission as an
    /// ack-path loss (only consulted for dedicated ack frames).
    #[must_use]
    pub fn ack_loss_verdict(&self, src: usize, dst: usize, xmit: u64) -> bool {
        self.ack_loss > 0.0 && unit_draw(self.wire_key(src, dst, xmit), 5) < self.ack_loss
    }

    /// The rates in force on the link `src → dst`.
    #[must_use]
    pub fn rates_for(&self, src: usize, dst: usize) -> LinkRates {
        self.link_rates
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.rates)
    }

    fn wire_key(&self, src: usize, dst: usize, xmit: u64) -> u64 {
        self.seed
            ^ (src as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (dst as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            ^ xmit.wrapping_mul(0x1656_67b1_9e37_79f9)
    }

    /// The seeded verdict for the `xmit`-th transmission out of `src`
    /// toward `dst`.
    #[must_use]
    pub fn wire_verdict(&self, src: usize, dst: usize, xmit: u64) -> WireVerdict {
        let r = self.rates_for(src, dst);
        if r.is_quiet() {
            return WireVerdict::default();
        }
        let key = self.wire_key(src, dst, xmit);
        WireVerdict {
            drop: unit_draw(key, 1) < r.loss,
            duplicate: unit_draw(key, 2) < r.duplicate,
            corrupt: unit_draw(key, 3) < r.corrupt,
        }
    }

    /// The seeded payload byte index a corruption verdict flips.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` (empty payloads are never corrupted).
    #[must_use]
    pub fn corrupt_site(&self, src: usize, dst: usize, xmit: u64, len: usize) -> usize {
        assert!(len > 0, "cannot corrupt an empty payload");
        (splitmix64(self.wire_key(src, dst, xmit) ^ 0x5eed) % len as u64) as usize
    }

    /// Should `rank` die before starting its next round (having completed
    /// `completed_rounds`)?
    #[must_use]
    pub fn should_kill(&self, rank: usize, completed_rounds: u64) -> Option<u64> {
        // On a fresh plan dense and original numbering coincide, so an
        // unbound recurring kill may fire directly; on a shrunk plan it
        // must wait for `bind_recurring` to translate its original id.
        let recurring = (!self.shrunk)
            .then(|| self.recurring_kills.get(&rank))
            .flatten();
        match self.kill_after.get(&rank).or(recurring) {
            Some(&after) if completed_rounds >= after => Some(after),
            _ => None,
        }
    }

    /// Rebind the plan to one attempt's dense numbering: every
    /// recurring kill whose *original* victim appears in `original_of`
    /// (the attempt's dense→original map) becomes a one-shot
    /// [`kill_rank_after`](Self::kill_rank_after) on the victim's dense
    /// id; victims outside the membership are skipped for this attempt
    /// but stay armed in the source plan. Called by the resilient
    /// driver on every attempt.
    #[must_use]
    pub fn bind_recurring(&self, original_of: &[usize]) -> Self {
        let mut bound = self.clone();
        for (dense, orig) in original_of.iter().enumerate() {
            if let Some(&round) = self.recurring_kills.get(orig) {
                bound.kill_after.insert(dense, round);
            }
        }
        bound.recurring_kills.clear();
        bound
    }

    /// The plan attempt `attempt` of a resilient run executes under,
    /// re-derived from the *original* plan every time: attempt 0 keeps
    /// its deterministic faults, later attempts take the
    /// [`survivor_plan`](Self::survivor_plan) (consumed faults cleared,
    /// seeded wire rates kept), and either way recurring kills are bound
    /// to the attempt's dense numbering (`members` is its dense→original
    /// map) so they chase their victim across views.
    #[must_use]
    pub fn for_attempt(&self, attempt: usize, members: &[usize]) -> Self {
        if attempt == 0 {
            self.bind_recurring(members)
        } else {
            self.survivor_plan().bind_recurring(members)
        }
    }

    /// Should this message be dropped?
    #[must_use]
    pub fn should_drop(&self, src: usize, dst: usize, round: u64) -> bool {
        self.drops.contains(&(src, dst, round))
    }

    /// The plan a shrink-and-retry attempt runs under: deterministic
    /// kills/drops were consumed by (and are only meaningful for) the
    /// original membership, so they are cleared, while the seed and the
    /// cluster-wide probabilistic rates — which are topology-agnostic —
    /// carry over. Per-link overrides are keyed by original ranks and
    /// are cleared too.
    #[must_use]
    pub fn survivor_plan(&self) -> Self {
        Self {
            kill_after: HashMap::new(),
            // Recurring kills are the exception: they exist to re-fire
            // on later attempts, keyed by original rank until bound.
            recurring_kills: self.recurring_kills.clone(),
            drops: HashSet::new(),
            seed: self.seed,
            rates: self.rates,
            link_rates: HashMap::new(),
            // Cuts, partitions, and stalls are keyed by original ranks
            // and round numbers already consumed — cleared like kills.
            cut_links: HashMap::new(),
            partitions: Vec::new(),
            stalls: Vec::new(),
            // Ack-path loss is a topology-agnostic rate like `rates`.
            ack_loss: self.ack_loss,
            // Socket events are keyed by original ranks and were
            // consumed by the attempt that armed them — cleared like
            // kills, so a healed retry runs on a quiet fabric.
            socket: Vec::new(),
            shrunk: true,
        }
    }
}

/// A [`Transport`] wrapper injecting the plan's probabilistic wire
/// faults into every outbound transmission. Installed automatically by
/// the cluster runner (below the reliability layer, if any) whenever the
/// plan has wire faults — for both the channel and the socket transport.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    plan: Arc<FaultPlan>,
    /// Cluster-shared round progress, for round-keyed link cuts.
    clock: Arc<RoundClock>,
    /// Per-sender transmission counter driving the seeded RNG.
    xmit: u64,
    stats: LinkStats,
}

impl FaultyTransport {
    /// Wrap `inner`, injecting faults from `plan`. Link cuts and
    /// partitions activate against `clock`, the cluster-shared count of
    /// completed rounds per rank.
    #[must_use]
    pub fn new(inner: Box<dyn Transport>, plan: Arc<FaultPlan>, clock: Arc<RoundClock>) -> Self {
        Self {
            inner,
            plan,
            clock,
            xmit: 0,
            stats: LinkStats::default(),
        }
    }
}

impl Transport for FaultyTransport {
    fn send(&mut self, mut msg: Message) -> Result<(), NetError> {
        let xmit = self.xmit;
        self.xmit += 1;
        // Link cuts fire below everything else: a severed link carries
        // no data, no retransmissions, no acks, and no probes.
        if self
            .plan
            .is_cut(msg.src, msg.dst, self.clock.completed(msg.src))
        {
            self.stats.partition_cuts += 1;
            return Ok(());
        }
        if msg.tag == crate::reliable::ACK_TAG && self.plan.ack_loss_verdict(msg.src, msg.dst, xmit)
        {
            self.stats.injected_ack_losses += 1;
            return Ok(());
        }
        let verdict = self.plan.wire_verdict(msg.src, msg.dst, xmit);
        if verdict.drop {
            self.stats.injected_losses += 1;
            return Ok(());
        }
        if verdict.corrupt && !msg.payload.is_empty() {
            self.stats.injected_corruptions += 1;
            let site = self
                .plan
                .corrupt_site(msg.src, msg.dst, xmit, msg.payload.len());
            // The checksum is deliberately NOT recomputed: the receiver
            // must notice.
            msg.payload[site] ^= 0xa5;
        }
        if verdict.duplicate {
            self.stats.injected_dups += 1;
            if verdict.corrupt && !msg.payload.is_empty() {
                // The duplicate carries the same damaged bytes, so one
                // corruption verdict puts two corrupt frames on the
                // wire — count both, keeping the invariant that every
                // corrupt frame on the wire is accounted here exactly
                // once (receivers drop each on its own checksum).
                self.stats.injected_corruptions += 1;
            }
            self.inner.send(msg.clone())?;
        }
        self.inner.send(msg)
    }

    fn recv_match(
        &mut self,
        from: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        self.inner.recv_match(from, tag, timeout)
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        self.inner.recv_any(timeout)
    }

    fn try_match(&mut self, from: usize, tag: Tag) -> Result<Option<Message>, NetError> {
        self.inner.try_match(from, tag)
    }

    fn wait_any(&mut self, timeout: Duration) -> Result<(), NetError> {
        self.inner.wait_any(timeout)
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn flush(&mut self, deadline: std::time::Instant) -> Result<(), NetError> {
        self.inner.flush(deadline)
    }

    fn purge(&mut self) -> usize {
        self.inner.purge()
    }

    fn link_stats(&self) -> LinkStats {
        self.stats.merged(&self.inner.link_stats())
    }
}

/// One injectable fault in a [`ChaosSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosEvent {
    /// Per-link loss rate.
    Loss(f64),
    /// Per-link duplication rate.
    Duplication(f64),
    /// Per-link corruption rate.
    Corruption(f64),
    /// Dedicated-ack loss rate.
    AckLoss(f64),
    /// Bipartition cut at the given sender round.
    Partition {
        /// One side of the bipartition.
        side: Vec<usize>,
        /// Sender round from which cross traffic is severed.
        round: u64,
    },
    /// Directed link cut (the asymmetric-partition primitive).
    Cut {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Sender round from which `src → dst` is severed.
        round: u64,
    },
    /// SIGSTOP-style pause: the rank sleeps before one of its rounds.
    Stall {
        /// Paused rank.
        rank: usize,
        /// Completed-round count at which the pause fires.
        round: u64,
        /// Pause length in milliseconds.
        millis: u64,
    },
    /// Crash the rank after a round.
    Kill {
        /// Killed rank.
        rank: usize,
        /// Completed-round count after which it dies.
        round: u64,
    },
    /// The killed rank restarts and is eligible to rejoin once its
    /// flap-damped quarantine elapses. No wire effect —
    /// [`plan`](ChaosSchedule::plan) ignores it; the recovery layer
    /// (a rejoin-capable [`RecoveryPolicy`](crate::membership::RecoveryPolicy)
    /// driving [`Cluster::run_resilient`](crate::cluster::Cluster::run_resilient))
    /// consumes it via [`ChaosSchedule::rejoinable_ranks`].
    Rejoin {
        /// The restarting rank.
        rank: usize,
    },
    /// Abrupt stream reset between two ranks' nodes (TCP fabric only).
    ConnReset {
        /// A rank on one node of the pair.
        src: usize,
        /// A rank on the other node.
        dst: usize,
        /// Slowest-rank completed-round count at which the reset fires.
        round: u64,
    },
    /// Half-open stall: the stream goes silent without erroring.
    HalfOpenStall {
        /// A rank on one node of the pair.
        src: usize,
        /// A rank on the other node.
        dst: usize,
        /// Slowest-rank completed-round count at which the stall starts.
        round: u64,
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// Reconnect handshakes fail `drops` times, burning backoff budget.
    HandshakeDrop {
        /// A rank on one node of the pair.
        src: usize,
        /// A rank on the other node.
        dst: usize,
        /// Number of consecutive handshakes to fail.
        drops: u32,
    },
    /// Flapping link: reset at `round`, then again after each heal.
    ReconnectFlap {
        /// A rank on one node of the pair.
        src: usize,
        /// A rank on the other node.
        dst: usize,
        /// Slowest-rank completed-round count of the first reset.
        round: u64,
        /// Additional resets fired right after each heal.
        flaps: u32,
    },
}

impl fmt::Display for ChaosEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Loss(r) => write!(f, "loss {:.1}%", r * 100.0),
            Self::Duplication(r) => write!(f, "dup {:.1}%", r * 100.0),
            Self::Corruption(r) => write!(f, "corrupt {:.1}%", r * 100.0),
            Self::AckLoss(r) => write!(f, "ack-loss {:.1}%", r * 100.0),
            Self::Partition { side, round } => write!(f, "partition {side:?} @ round {round}"),
            Self::Cut { src, dst, round } => write!(f, "cut {src}→{dst} @ round {round}"),
            Self::Stall {
                rank,
                round,
                millis,
            } => {
                write!(f, "stall rank {rank} @ round {round} for {millis}ms")
            }
            Self::Kill { rank, round } => write!(f, "kill rank {rank} after round {round}"),
            Self::Rejoin { rank } => write!(f, "rejoin rank {rank} after quarantine"),
            Self::ConnReset { src, dst, round } => {
                write!(f, "conn-reset {src}↔{dst} @ round {round}")
            }
            Self::HalfOpenStall {
                src,
                dst,
                round,
                millis,
            } => write!(f, "half-open {src}↔{dst} @ round {round} for {millis}ms"),
            Self::HandshakeDrop { src, dst, drops } => {
                write!(f, "handshake-drop {src}↔{dst} ×{drops}")
            }
            Self::ReconnectFlap {
                src,
                dst,
                round,
                flaps,
            } => write!(f, "reconnect-flap {src}↔{dst} @ round {round} ×{flaps}"),
        }
    }
}

/// Two distinct ranks in `[0, n)` drawn from the schedule RNG (two
/// draws, same idiom as the Cut event's endpoints).
fn distinct_pair(rate: &mut impl FnMut(f64) -> f64, n: usize) -> (usize, usize) {
    let src = (rate(1.0) * n as f64) as usize % n;
    let dst = (src + 1 + (rate(1.0) * (n - 1) as f64) as usize % (n - 1)) % n;
    (src, dst)
}

/// A seeded, reproducible chaos schedule: a bag of [`ChaosEvent`]s plus
/// the wire-RNG seed, generated deterministically from `(seed, n)` by
/// [`generate`](Self::generate) and foldable into a [`FaultPlan`] via
/// [`plan`](Self::plan). The schedule-enumeration harness in
/// `tests/liveness.rs` runs hundreds of these per cluster shape; on an
/// invariant violation it greedily shrinks the schedule with
/// [`minimized`](Self::minimized) and prints the survivor for replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// Seed for the probabilistic wire-fault RNG.
    pub seed: u64,
    /// Cluster size the schedule targets.
    pub n: usize,
    /// The injected faults.
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Generate the schedule for `(seed, n)` — pure function of its
    /// arguments, no ambient entropy. Rates are kept mild (healable by
    /// the reliability layer); partitions, cuts, stalls, and kills are
    /// the hard liveness events.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn generate(seed: u64, n: usize) -> Self {
        assert!(n >= 2, "a chaos schedule needs at least two ranks");
        let mut state = splitmix64(seed ^ (n as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        let mut next = move || {
            state = splitmix64(state);
            state
        };
        let mut rate = |max: f64| (next() >> 11) as f64 / (1u64 << 53) as f64 * max;
        let mut events = Vec::new();
        if rate(1.0) < 0.5 {
            events.push(ChaosEvent::Loss(rate(0.05)));
        }
        if rate(1.0) < 0.5 {
            events.push(ChaosEvent::Duplication(rate(0.05)));
        }
        if rate(1.0) < 0.5 {
            events.push(ChaosEvent::Corruption(rate(0.05)));
        }
        // The draws of the retired virtual-delay fault, kept so that every
        // seed yields the same remaining faults.
        if rate(1.0) < 0.33 {
            rate(0.1);
        }
        if rate(1.0) < 0.33 {
            events.push(ChaosEvent::AckLoss(rate(0.15)));
        }
        if rate(1.0) < 0.5 {
            events.push(ChaosEvent::Stall {
                rank: (rate(1.0) * n as f64) as usize % n,
                round: (rate(1.0) * 3.0) as u64,
                millis: 1 + (rate(1.0) * 25.0) as u64,
            });
        }
        if rate(1.0) < 0.25 {
            // A random nonempty proper subset as one partition side.
            let mut side: Vec<usize> = (0..n).filter(|_| rate(1.0) < 0.5).collect();
            if side.is_empty() || side.len() == n {
                side = vec![(rate(1.0) * n as f64) as usize % n];
            }
            events.push(ChaosEvent::Partition {
                side,
                round: (rate(1.0) * 3.0) as u64,
            });
        }
        if rate(1.0) < 0.25 {
            let src = (rate(1.0) * n as f64) as usize % n;
            let dst = (src + 1 + (rate(1.0) * (n - 1) as f64) as usize % (n - 1)) % n;
            events.push(ChaosEvent::Cut {
                src,
                dst,
                round: (rate(1.0) * 3.0) as u64,
            });
        }
        if rate(1.0) < 0.16 {
            let rank = (rate(1.0) * n as f64) as usize % n;
            events.push(ChaosEvent::Kill {
                rank,
                round: (rate(1.0) * 3.0) as u64,
            });
            // Half of killed ranks come back: the restart/rejoin path
            // gets soaked alongside plain crashes. Drawn *after* every
            // other event so pre-rejoin seeds generate byte-identical
            // schedules up to this suffix.
            if rate(1.0) < 0.5 {
                events.push(ChaosEvent::Rejoin { rank });
            }
        }
        // Socket-level (fabric) events — again drawn after everything
        // above, so pre-existing seeds keep their exact schedules as a
        // prefix. They only bite on the TCP fabric; other transports
        // ignore them.
        if rate(1.0) < 0.25 {
            let (src, dst) = distinct_pair(&mut rate, n);
            let round = (rate(1.0) * 3.0) as u64;
            if rate(1.0) < 0.35 {
                events.push(ChaosEvent::ReconnectFlap {
                    src,
                    dst,
                    round,
                    flaps: 1 + (rate(1.0) * 2.0) as u32,
                });
            } else {
                events.push(ChaosEvent::ConnReset { src, dst, round });
            }
        }
        if rate(1.0) < 0.2 {
            let (src, dst) = distinct_pair(&mut rate, n);
            events.push(ChaosEvent::HalfOpenStall {
                src,
                dst,
                round: (rate(1.0) * 3.0) as u64,
                millis: 1 + (rate(1.0) * 20.0) as u64,
            });
        }
        if rate(1.0) < 0.15 {
            let (src, dst) = distinct_pair(&mut rate, n);
            events.push(ChaosEvent::HandshakeDrop {
                src,
                dst,
                drops: 1 + (rate(1.0) * 3.0) as u32,
            });
        }
        Self { seed, n, events }
    }

    /// A connection-chaos schedule for the TCP fabric: mild wire loss
    /// plus one to a few socket-level events (resets, flaps, half-open
    /// stalls, handshake drops — occasionally enough drops to exhaust
    /// the reconnect budget and force an eviction). Pure function of
    /// `(seed, n)` like [`generate`](Self::generate), but every drawn
    /// event targets the stream layer, so TCP recovery soaks spend
    /// their seeds on connection healing instead of rank kills.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn generate_socket_chaos(seed: u64, n: usize) -> Self {
        assert!(n >= 2, "a chaos schedule needs at least two ranks");
        let mut state = splitmix64(seed ^ 0x50c7_e7fa ^ (n as u64).wrapping_mul(0x9e37_79b9));
        let mut next = move || {
            state = splitmix64(state);
            state
        };
        let mut rate = |max: f64| (next() >> 11) as f64 / (1u64 << 53) as f64 * max;
        let mut events = Vec::new();
        if rate(1.0) < 0.4 {
            events.push(ChaosEvent::Loss(rate(0.03)));
        }
        // Always at least one reset or flap: a connection-chaos soak
        // with no connection event would test nothing.
        {
            let (src, dst) = distinct_pair(&mut rate, n);
            let round = (rate(1.0) * 3.0) as u64;
            if rate(1.0) < 0.4 {
                events.push(ChaosEvent::ReconnectFlap {
                    src,
                    dst,
                    round,
                    flaps: 1 + (rate(1.0) * 2.0) as u32,
                });
            } else {
                events.push(ChaosEvent::ConnReset { src, dst, round });
            }
        }
        if rate(1.0) < 0.35 {
            let (src, dst) = distinct_pair(&mut rate, n);
            events.push(ChaosEvent::HalfOpenStall {
                src,
                dst,
                round: (rate(1.0) * 3.0) as u64,
                millis: 1 + (rate(1.0) * 15.0) as u64,
            });
        }
        if rate(1.0) < 0.3 {
            let (src, dst) = distinct_pair(&mut rate, n);
            // Usually a budget-sized burst (forces an eviction and a
            // shrink-or-rejoin attempt); sometimes a small burst that
            // only burns backoff.
            let drops = if rate(1.0) < 0.5 {
                64
            } else {
                1 + (rate(1.0) * 3.0) as u32
            };
            events.push(ChaosEvent::HandshakeDrop { src, dst, drops });
        }
        Self { seed, n, events }
    }

    /// Fold the schedule into an executable [`FaultPlan`].
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        let mut p = FaultPlan::new().with_seed(self.seed);
        for ev in &self.events {
            p = match ev {
                ChaosEvent::Loss(r) => p.with_loss(*r),
                ChaosEvent::Duplication(r) => p.with_duplication(*r),
                ChaosEvent::Corruption(r) => p.with_corruption(*r),
                ChaosEvent::AckLoss(r) => p.with_ack_loss(*r),
                ChaosEvent::Partition { side, round } => p.with_partition(side.clone(), *round),
                ChaosEvent::Cut { src, dst, round } => p.cut_link(*src, *dst, *round),
                ChaosEvent::Stall {
                    rank,
                    round,
                    millis,
                } => p.stall_rank(*rank, *round, Duration::from_millis(*millis)),
                ChaosEvent::Kill { rank, round } => p.kill_rank_after(*rank, *round),
                // Rejoin has no wire effect: it marks the kill above as
                // restartable for the recovery layer (see
                // `rejoinable_ranks`).
                ChaosEvent::Rejoin { .. } => p,
                ChaosEvent::ConnReset { src, dst, round } => p.with_conn_reset(*src, *dst, *round),
                ChaosEvent::HalfOpenStall {
                    src,
                    dst,
                    round,
                    millis,
                } => p.with_half_open(*src, *dst, *round, Duration::from_millis(*millis)),
                ChaosEvent::HandshakeDrop { src, dst, drops } => {
                    p.with_handshake_drops(*src, *dst, *drops)
                }
                ChaosEvent::ReconnectFlap {
                    src,
                    dst,
                    round,
                    flaps,
                } => p.with_reconnect_flap(*src, *dst, *round, *flaps),
            };
        }
        p
    }

    /// Whether the schedule carries any rejoin events.
    #[must_use]
    pub fn has_rejoin(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, ChaosEvent::Rejoin { .. }))
    }

    /// Ranks marked as restarting after their kill, ascending and
    /// deduplicated — the set a rejoin-capable recovery policy expects
    /// back within quarantine.
    #[must_use]
    pub fn rejoinable_ranks(&self) -> Vec<usize> {
        let mut ranks: Vec<usize> = self
            .events
            .iter()
            .filter_map(|e| match e {
                ChaosEvent::Rejoin { rank } => Some(*rank),
                _ => None,
            })
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Greedily shrink the schedule while `fails` keeps returning `true`
    /// (ddmin-style, one event at a time): the result is 1-minimal — no
    /// single event can be removed without losing the failure. `fails`
    /// must be a deterministic replay of the original violation.
    #[must_use]
    pub fn minimized(&self, mut fails: impl FnMut(&Self) -> bool) -> Self {
        let mut best = self.clone();
        loop {
            let shrunk = (0..best.events.len()).find_map(|i| {
                let mut candidate = best.clone();
                candidate.events.remove(i);
                fails(&candidate).then_some(candidate)
            });
            match shrunk {
                Some(candidate) => best = candidate,
                None => return best,
            }
        }
    }
}

impl fmt::Display for ChaosSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos schedule: seed={:#x} n={} ({} events)",
            self.seed,
            self.n,
            self.events.len()
        )?;
        for ev in &self.events {
            writeln!(f, "  - {ev}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_does_nothing() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.should_kill(0, 100), None);
        assert!(!p.should_drop(0, 1, 0));
        assert!(!p.has_wire_faults());
        assert_eq!(p.wire_verdict(0, 1, 7), WireVerdict::default());
    }

    #[test]
    fn kill_threshold() {
        let p = FaultPlan::new().kill_rank_after(3, 2);
        assert_eq!(p.should_kill(3, 1), None);
        assert_eq!(p.should_kill(3, 2), Some(2));
        assert_eq!(p.should_kill(3, 5), Some(2));
        assert_eq!(p.should_kill(2, 5), None);
    }

    #[test]
    fn drop_is_exact() {
        let p = FaultPlan::new().drop_message(0, 1, 4);
        assert!(p.should_drop(0, 1, 4));
        assert!(!p.should_drop(1, 0, 4));
        assert!(!p.should_drop(0, 1, 3));
    }

    #[test]
    fn wire_verdicts_are_deterministic_and_seeded() {
        let p = FaultPlan::new().with_seed(42).with_loss(0.5);
        let q = FaultPlan::new().with_seed(42).with_loss(0.5);
        for x in 0..64 {
            assert_eq!(p.wire_verdict(0, 1, x), q.wire_verdict(0, 1, x));
        }
        // A different seed gives a different pattern somewhere.
        let r = FaultPlan::new().with_seed(43).with_loss(0.5);
        assert!((0..64).any(|x| p.wire_verdict(0, 1, x) != r.wire_verdict(0, 1, x)));
    }

    #[test]
    fn wire_loss_rate_is_roughly_honored() {
        let p = FaultPlan::new().with_seed(7).with_loss(0.25);
        let losses = (0..10_000)
            .filter(|&x| p.wire_verdict(2, 3, x).drop)
            .count();
        assert!(
            (2_000..3_000).contains(&losses),
            "25% loss drew {losses}/10000"
        );
    }

    #[test]
    fn link_override_beats_default() {
        let p = FaultPlan::new().with_loss(0.0).with_link_rates(
            1,
            2,
            LinkRates {
                loss: 1.0,
                ..LinkRates::default()
            },
        );
        assert!(p.has_wire_faults());
        assert!(p.wire_verdict(1, 2, 0).drop);
        assert!(!p.wire_verdict(2, 1, 0).drop);
    }

    #[test]
    fn survivor_plan_keeps_rates_drops_deterministic_faults() {
        let p = FaultPlan::new()
            .kill_rank_after(1, 0)
            .drop_message(0, 1, 0)
            .with_seed(9)
            .with_loss(0.1);
        let s = p.survivor_plan();
        assert_eq!(s.should_kill(1, 10), None);
        assert!(!s.should_drop(0, 1, 0));
        assert!(s.has_wire_faults());
        assert_eq!(s.rates_for(0, 1).loss, 0.1);
    }

    #[test]
    fn directed_cut_is_one_way_and_round_keyed() {
        let p = FaultPlan::new().cut_link(1, 2, 3);
        assert!(!p.is_cut(1, 2, 2), "not yet active");
        assert!(p.is_cut(1, 2, 3));
        assert!(p.is_cut(1, 2, 9));
        assert!(!p.is_cut(2, 1, 9), "reverse link stays up");
        assert!(p.needs_wire_layer());
        assert!(!p.has_wire_faults(), "cuts do not need checksumming");
    }

    #[test]
    fn partition_cuts_cross_traffic_both_ways() {
        let p = FaultPlan::new().with_partition(vec![0, 2], 1);
        assert!(!p.is_cut(0, 1, 0), "before the round the wire is whole");
        assert!(p.is_cut(0, 1, 1));
        assert!(p.is_cut(1, 0, 1));
        assert!(p.is_cut(3, 2, 5));
        assert!(!p.is_cut(0, 2, 5), "same side stays connected");
        assert!(!p.is_cut(1, 3, 5), "same side stays connected");
    }

    #[test]
    fn stalls_accumulate_per_round() {
        let p = FaultPlan::new()
            .stall_rank(2, 1, Duration::from_millis(10))
            .stall_rank(2, 1, Duration::from_millis(5))
            .stall_rank(2, 3, Duration::from_millis(7));
        assert_eq!(p.stall_for(2, 0), None);
        assert_eq!(p.stall_for(2, 1), Some(Duration::from_millis(15)));
        assert_eq!(p.stall_for(2, 3), Some(Duration::from_millis(7)));
        assert_eq!(p.stall_for(1, 1), None);
        assert!(!p.is_empty());
    }

    #[test]
    fn ack_loss_rate_is_roughly_honored() {
        let p = FaultPlan::new().with_seed(11).with_ack_loss(0.25);
        let losses = (0..10_000).filter(|&x| p.ack_loss_verdict(0, 1, x)).count();
        assert!(
            (2_000..3_000).contains(&losses),
            "25% ack loss drew {losses}/10000"
        );
        assert!(p.needs_wire_layer());
    }

    #[test]
    fn survivor_plan_clears_cuts_and_stalls() {
        let p = FaultPlan::new()
            .cut_link(0, 1, 0)
            .with_partition(vec![0], 0)
            .stall_rank(1, 0, Duration::from_millis(5))
            .with_ack_loss(0.1);
        let s = p.survivor_plan();
        assert!(!s.is_cut(0, 1, 10));
        assert_eq!(s.stall_for(1, 0), None);
        assert!(s.needs_wire_layer(), "ack loss carries over like rates");
    }

    #[test]
    fn recurring_kill_survives_shrink_and_binds_dense() {
        let p = FaultPlan::new().kill_rank_recurring(3, 1);
        assert!(!p.is_empty());
        // Unbound (plain run): fires on the original id.
        assert_eq!(p.should_kill(3, 1), Some(1));
        assert_eq!(p.should_kill(3, 0), None);
        // Survives the survivor plan (unlike one-shot kills)...
        let s = p.survivor_plan();
        assert_eq!(s.should_kill(3, 5), None, "unbound dense id must not fire");
        // ...and rebinds: in a membership [0, 2, 3, 5], original 3 is
        // dense 2.
        let bound = s.bind_recurring(&[0, 2, 3, 5]);
        assert_eq!(bound.should_kill(2, 1), Some(1));
        assert_eq!(bound.should_kill(3, 9), None, "dense 3 is original 5");
        // A membership without the victim arms nothing.
        let without = s.bind_recurring(&[0, 1, 2]);
        assert_eq!(without.should_kill(0, 9), None);
        assert_eq!(without.should_kill(2, 9), None);
    }

    #[test]
    fn attempt_plans_keep_one_shot_faults_for_attempt_zero_only() {
        let p = FaultPlan::new()
            .kill_rank_after(1, 0)
            .kill_rank_recurring(3, 1)
            .with_seed(9)
            .with_loss(0.1);
        let first = p.for_attempt(0, &[0, 1, 2, 3]);
        assert_eq!(first.should_kill(1, 0), Some(0));
        assert_eq!(first.should_kill(3, 1), Some(1));
        // After rank 1 is gone: its one-shot kill is consumed, the
        // recurring one follows original rank 3 to dense id 2, and the
        // seeded wire rates carry over.
        let retry = p.for_attempt(1, &[0, 2, 3]);
        assert_eq!(retry.should_kill(1, 0), None);
        assert_eq!(retry.should_kill(2, 1), Some(1));
        assert_eq!(retry.rates_for(0, 1).loss, 0.1);
    }

    #[test]
    fn rejoin_events_pair_with_kills_and_fold_to_no_wire_effect() {
        let all: Vec<ChaosSchedule> = (0..512).map(|s| ChaosSchedule::generate(s, 8)).collect();
        let mut saw_rejoin = false;
        for s in &all {
            for e in &s.events {
                if let ChaosEvent::Rejoin { rank } = e {
                    saw_rejoin = true;
                    // Every rejoin refers to a rank the schedule kills.
                    assert!(
                        s.events
                            .iter()
                            .any(|k| matches!(k, ChaosEvent::Kill { rank: kr, .. } if kr == rank)),
                        "dangling rejoin in seed {:#x}: {s}",
                        s.seed
                    );
                    assert_eq!(s.rejoinable_ranks(), vec![*rank]);
                    assert!(s.has_rejoin());
                }
            }
            // The folded plan is identical with rejoins stripped: no
            // wire effect.
            let mut stripped = s.clone();
            stripped
                .events
                .retain(|e| !matches!(e, ChaosEvent::Rejoin { .. }));
            assert_eq!(format!("{:?}", s.plan()), format!("{:?}", stripped.plan()));
        }
        assert!(saw_rejoin, "512 seeds must generate at least one rejoin");
        let shown = ChaosEvent::Rejoin { rank: 4 }.to_string();
        assert!(shown.contains("rejoin rank 4"), "{shown}");
    }

    #[test]
    fn round_clock_counts_per_rank() {
        let c = RoundClock::new(3);
        c.advance(1, 0);
        c.advance(1, 0);
        c.advance(2, 0);
        assert_eq!(c.completed(0), 0);
        assert_eq!(c.completed(1), 2);
        assert_eq!(c.completed(2), 1);
        assert_eq!(c.completed(99), 0);
    }

    #[test]
    fn round_clock_folds_a_round_when_the_last_rank_reports_it() {
        let c = RoundClock::new(3);
        // Rank 1 runs two rounds ahead; nothing closes until 0 and 2 come.
        c.advance(1, 7);
        c.advance(1, 50);
        c.advance(2, 9);
        assert_eq!(c.folded(), Complexity::ZERO);
        c.advance(0, 3);
        assert_eq!(c.folded(), Complexity::new(1, 9), "round 0 = max(3, 7, 9)");
        c.advance(0, 1);
        c.advance(2, 2);
        assert_eq!(c.folded(), Complexity::new(2, 59), "+ max(1, 50, 2)");
        // A long run leaves nothing behind once ranks are level again.
        for _ in 0..10_000 {
            for rank in 0..3 {
                c.advance(rank, 1);
            }
        }
        assert_eq!(c.folded(), Complexity::new(10_002, 10_059));
        assert!(c.fold.lock().unwrap().open.is_empty());
    }

    #[test]
    fn chaos_schedules_are_deterministic_and_varied() {
        for seed in 0..64u64 {
            assert_eq!(
                ChaosSchedule::generate(seed, 8),
                ChaosSchedule::generate(seed, 8)
            );
        }
        // Across seeds the generator must actually exercise the hard
        // event kinds.
        let all: Vec<ChaosSchedule> = (0..64).map(|s| ChaosSchedule::generate(s, 8)).collect();
        let has = |f: fn(&ChaosEvent) -> bool| all.iter().any(|s| s.events.iter().any(f));
        assert!(has(|e| matches!(e, ChaosEvent::Partition { .. })));
        assert!(has(|e| matches!(e, ChaosEvent::Cut { .. })));
        assert!(has(|e| matches!(e, ChaosEvent::Stall { .. })));
        assert!(has(|e| matches!(e, ChaosEvent::Kill { .. })));
        // Every event folds into a plan whose ranks are in range.
        for s in &all {
            let _ = s.plan();
            for e in &s.events {
                match e {
                    ChaosEvent::Partition { side, .. } => {
                        assert!(!side.is_empty() && side.len() < 8);
                        assert!(side.iter().all(|&r| r < 8));
                    }
                    ChaosEvent::Cut { src, dst, .. } => {
                        assert!(*src < 8 && *dst < 8 && src != dst);
                    }
                    ChaosEvent::Stall { rank, .. } | ChaosEvent::Kill { rank, .. } => {
                        assert!(*rank < 8);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn socket_fault_builders_round_trip_through_the_plan() {
        let p = FaultPlan::new()
            .with_conn_reset(0, 5, 2)
            .with_half_open(1, 6, 0, Duration::from_millis(12))
            .with_handshake_drops(2, 7, 4)
            .with_reconnect_flap(3, 4, 1, 2);
        assert!(p.has_socket_faults());
        assert!(!p.is_empty());
        assert_eq!(p.socket_faults().len(), 4);
        assert_eq!(
            p.socket_faults()[0],
            SocketFault::Reset {
                src: 0,
                dst: 5,
                round: 2
            }
        );
        assert_eq!(
            p.socket_faults()[1],
            SocketFault::HalfOpen {
                src: 1,
                dst: 6,
                round: 0,
                millis: 12
            }
        );
        // Socket events alone do not demand the FaultyTransport wrapper:
        // they live inside the fabric.
        assert!(!p.needs_wire_layer());
        // Consumed by the attempt that armed them: survivors run quiet.
        let s = p.survivor_plan();
        assert!(!s.has_socket_faults());
        assert!(s.socket_faults().is_empty());
    }

    #[test]
    fn socket_chaos_schedules_are_deterministic_and_connection_focused() {
        for seed in 0..64u64 {
            assert_eq!(
                ChaosSchedule::generate_socket_chaos(seed, 16),
                ChaosSchedule::generate_socket_chaos(seed, 16)
            );
        }
        let all: Vec<ChaosSchedule> = (0..128)
            .map(|s| ChaosSchedule::generate_socket_chaos(s, 16))
            .collect();
        for s in &all {
            // Every schedule carries at least one connection event.
            assert!(
                s.events.iter().any(|e| matches!(
                    e,
                    ChaosEvent::ConnReset { .. } | ChaosEvent::ReconnectFlap { .. }
                )),
                "seed {:#x} drew no connection event: {s}",
                s.seed
            );
            let plan = s.plan();
            assert!(plan.has_socket_faults(), "seed {:#x}", s.seed);
            for e in &s.events {
                match e {
                    ChaosEvent::ConnReset { src, dst, .. }
                    | ChaosEvent::HalfOpenStall { src, dst, .. }
                    | ChaosEvent::HandshakeDrop { src, dst, .. }
                    | ChaosEvent::ReconnectFlap { src, dst, .. } => {
                        assert!(*src < 16 && *dst < 16 && src != dst, "{e}");
                    }
                    ChaosEvent::Loss(r) => assert!(*r < 0.05),
                    other => panic!("socket chaos drew a non-socket event: {other}"),
                }
            }
        }
        // The full generator also reaches the socket suffix somewhere.
        let full: Vec<ChaosSchedule> = (0..256).map(|s| ChaosSchedule::generate(s, 8)).collect();
        assert!(full.iter().any(|s| s.events.iter().any(|e| matches!(
            e,
            ChaosEvent::ConnReset { .. }
                | ChaosEvent::HalfOpenStall { .. }
                | ChaosEvent::HandshakeDrop { .. }
                | ChaosEvent::ReconnectFlap { .. }
        ))));
    }

    #[test]
    fn minimizer_finds_the_single_culprit() {
        let full = ChaosSchedule {
            seed: 7,
            n: 4,
            events: vec![
                ChaosEvent::Loss(0.05),
                ChaosEvent::Kill { rank: 2, round: 1 },
                ChaosEvent::Duplication(0.03),
                ChaosEvent::Stall {
                    rank: 0,
                    round: 0,
                    millis: 5,
                },
            ],
        };
        // "Fails" iff the schedule still contains the kill.
        let min = full.minimized(|s| {
            s.events
                .iter()
                .any(|e| matches!(e, ChaosEvent::Kill { .. }))
        });
        assert_eq!(min.events, vec![ChaosEvent::Kill { rank: 2, round: 1 }]);
        let shown = min.to_string();
        assert!(shown.contains("kill rank 2"), "{shown}");
    }
}

//! Empirical complexity accounting.
//!
//! The paper's global measures are `C1` = number of rounds and `C2` = Σ
//! over rounds of the largest message over *all* ports of *all*
//! processors (§1.2). Each rank counts its rounds and reports the largest
//! message it sent in each to the cluster-shared
//! [`RoundClock`](crate::fault::RoundClock), which folds a round into
//! `(C1, C2)` as soon as every rank has reported it — so what a run keeps
//! is bounded by how far ranks drift apart, not by how long it lasts.

use bruck_model::complexity::Complexity;

use crate::membership::MembershipStats;
use crate::pool::PoolStats;

/// Counters from the wire sublayers (fault injection and reliability),
/// per rank, folded into [`RankMetrics`] after the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Retransmissions the reliability layer performed after an ack
    /// deadline expired.
    pub retransmits: u64,
    /// Acknowledgements sent by the reliability layer.
    pub acks_sent: u64,
    /// Duplicate data messages the reliability layer discarded.
    pub dups_dropped: u64,
    /// Checksum-failing data messages the reliability layer discarded
    /// (healed by the sender's retransmission), plus datagrams the
    /// framing layer dropped as malformed.
    pub corrupt_dropped: u64,
    /// Transmissions the fault injector silently discarded.
    pub injected_losses: u64,
    /// Transmissions the fault injector duplicated.
    pub injected_dups: u64,
    /// Transmissions the fault injector corrupted.
    pub injected_corruptions: u64,
    /// Transmissions the fault injector delayed in virtual time.
    pub injected_delays: u64,
    /// Acknowledgements conveyed by piggybacking on reverse-path data
    /// frames (window-opening information that cost zero extra frames).
    pub piggyback_acks: u64,
    /// Selective-ack entries sent on dedicated ack frames.
    pub sack_entries_sent: u64,
    /// Sum over data transmissions of the link's in-flight frame count
    /// at transmit time (numerator of the average window occupancy).
    pub window_occupancy_sum: u64,
    /// Number of data transmissions sampled into
    /// [`window_occupancy_sum`](Self::window_occupancy_sum).
    pub window_samples: u64,
    /// Explicit watchdog probe frames sent when a watched link idled.
    pub probes_sent: u64,
    /// Probe replies this rank sent back to a probing peer.
    pub probe_replies: u64,
    /// Watchdog escalations honoured by the failure detector: a watched
    /// peer exhausted its probe budget and was declared unreachable.
    pub stall_escalations: u64,
    /// Transmissions the fault injector cut on a severed link or across
    /// an active partition (data, ack, and retransmission frames alike).
    pub partition_cuts: u64,
    /// Dedicated ack frames the fault injector silently discarded
    /// (ack-path fault injection; healed by sender retransmission).
    pub injected_ack_losses: u64,
}

impl LinkStats {
    /// Field-wise sum of two stat sets (stacked wrappers, or folding
    /// ranks into run totals).
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            retransmits: self.retransmits + other.retransmits,
            acks_sent: self.acks_sent + other.acks_sent,
            dups_dropped: self.dups_dropped + other.dups_dropped,
            corrupt_dropped: self.corrupt_dropped + other.corrupt_dropped,
            injected_losses: self.injected_losses + other.injected_losses,
            injected_dups: self.injected_dups + other.injected_dups,
            injected_corruptions: self.injected_corruptions + other.injected_corruptions,
            injected_delays: self.injected_delays + other.injected_delays,
            piggyback_acks: self.piggyback_acks + other.piggyback_acks,
            sack_entries_sent: self.sack_entries_sent + other.sack_entries_sent,
            window_occupancy_sum: self.window_occupancy_sum + other.window_occupancy_sum,
            window_samples: self.window_samples + other.window_samples,
            probes_sent: self.probes_sent + other.probes_sent,
            probe_replies: self.probe_replies + other.probe_replies,
            stall_escalations: self.stall_escalations + other.stall_escalations,
            partition_cuts: self.partition_cuts + other.partition_cuts,
            injected_ack_losses: self.injected_ack_losses + other.injected_ack_losses,
        }
    }

    /// Mean in-flight frames per link at data-transmit time — how full
    /// the sliding window actually ran. `1.0` is stop-and-wait; values
    /// approaching the configured window mean the pipeline stayed fed.
    #[must_use]
    pub fn avg_window_occupancy(&self) -> f64 {
        if self.window_samples == 0 {
            return 0.0;
        }
        self.window_occupancy_sum as f64 / self.window_samples as f64
    }

    /// Fraction of acknowledgement information that rode on reverse-path
    /// data frames instead of dedicated ack frames.
    #[must_use]
    pub fn piggyback_ratio(&self) -> f64 {
        let total = self.piggyback_acks + self.acks_sent;
        if total == 0 {
            return 0.0;
        }
        self.piggyback_acks as f64 / total as f64
    }
}

/// Connection-lifecycle counters from a shared data plane (the TCP
/// fabric): healing, backoff, and fabric-level fault injection. One
/// instance per run — the fabric is shared, so unlike [`LinkStats`]
/// these are not per-rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Node-pair streams torn down by an I/O error, EOF, or an injected
    /// reset (each outage starts one reconnect cycle).
    pub link_failures: u64,
    /// Successful stream re-establishments (handshake completed and
    /// traffic resumed on the healed link).
    pub reconnects: u64,
    /// Reconnect attempts that failed (connect/handshake error, injected
    /// handshake drop, or handshake timeout) and fell back to backoff.
    pub reconnect_failures: u64,
    /// Node pairs whose per-outage reconnect budget was exhausted: the
    /// pair is declared dead and a node-level eviction is raised.
    pub pairs_evicted: u64,
    /// Total nanoseconds links spent down (from teardown to heal),
    /// summed over outages — the backoff/outage dwell time.
    pub backoff_ns: u64,
    /// Injected connection resets ([`FaultPlan`](crate::FaultPlan)
    /// socket events) the fabric executed.
    pub injected_resets: u64,
    /// Injected half-open stalls the fabric executed.
    pub injected_stalls: u64,
    /// Injected handshake drops consumed during reconnect attempts.
    pub injected_handshake_drops: u64,
    /// Bytes dropped at a full outbox. Always `0`: a sender at the
    /// outbox's high-water mark waits instead (nothing above the fabric
    /// would re-drive a shed frame). Kept so stored results still parse.
    pub outbox_shed_bytes: u64,
    /// Passes the reactor made over its pairs. It parks between passes
    /// and is woken by whoever stages or writes, so a quiet fabric makes
    /// none; a sweep-and-nap loop makes thousands a second.
    pub reactor_passes: u64,
}

impl FabricStats {
    /// Field-wise sum (folding attempts of a resilient run).
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            link_failures: self.link_failures + other.link_failures,
            reconnects: self.reconnects + other.reconnects,
            reconnect_failures: self.reconnect_failures + other.reconnect_failures,
            pairs_evicted: self.pairs_evicted + other.pairs_evicted,
            backoff_ns: self.backoff_ns + other.backoff_ns,
            injected_resets: self.injected_resets + other.injected_resets,
            injected_stalls: self.injected_stalls + other.injected_stalls,
            injected_handshake_drops: self.injected_handshake_drops
                + other.injected_handshake_drops,
            outbox_shed_bytes: self.outbox_shed_bytes + other.outbox_shed_bytes,
            reactor_passes: self.reactor_passes + other.reactor_passes,
        }
    }
}

/// Counters owned by one rank (no sharing, no atomics — folded after the
/// run).
///
/// `Copy` on purpose: nothing here may grow with the length of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankMetrics {
    /// Rounds this rank took part in (idle rounds included).
    pub rounds: u64,
    /// Passes the round engine made over a round's outstanding receive
    /// specs. An idle rank that sleeps makes a bounded number per message
    /// it receives; one that spins makes millions.
    pub scan_passes: u64,
    /// Total messages sent.
    pub msgs_sent: u64,
    /// Total bytes sent.
    pub bytes_sent: u64,
    /// Total messages received.
    pub msgs_received: u64,
    /// Bytes physically copied by the data plane on this rank (payload
    /// staging into pooled buffers and `_into` copy-outs).
    pub bytes_copied: u64,
    /// Bytes staged through the gather fast path: span lists copied
    /// straight from algorithm scratch into the transport's pooled
    /// buffer, skipping the separate pack step (each such byte saved one
    /// whole memcpy relative to pack-then-stage).
    pub bytes_gathered: u64,
    /// Wall-clock nanoseconds this rank spent in the send phase of its
    /// rounds (staging + injecting all k sends).
    pub wall_send_ns: u64,
    /// Wall-clock nanoseconds this rank spent in the receive phase of
    /// its rounds (waiting for and collecting all k receives).
    pub wall_recv_ns: u64,
    /// Wire-sublayer counters (fault injection + reliability).
    pub link: LinkStats,
}

impl RankMetrics {
    /// Number of rounds this rank participated in.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Record one round. Returns the size of the largest message sent in
    /// it (0 for an idle round) — this rank's term of the round's `C2`
    /// contribution, which the caller reports to the cluster's
    /// [`RoundClock`](crate::fault::RoundClock).
    #[must_use = "the round's largest message has to reach the RoundClock"]
    pub fn record_round(&mut self, sizes: impl IntoIterator<Item = u64>, received: usize) -> u64 {
        self.rounds += 1;
        self.msgs_received += received as u64;
        sizes.into_iter().fold(0, |max, size| {
            self.msgs_sent += 1;
            self.bytes_sent += size;
            max.max(size)
        })
    }
}

/// Folded metrics for a whole run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// One entry per rank.
    pub per_rank: Vec<RankMetrics>,
    /// The rounds every rank reported, as `(count, Σ of their per-round
    /// largest messages)` — the [`RoundClock`](crate::fault::RoundClock)'s
    /// fold at the end of the run.
    pub folded: Complexity,
    /// Buffer-pool activity over the whole run (cluster-shared pool).
    pub pool: PoolStats,
    /// Membership-view counters (view changes, evictions, rejoins,
    /// quarantines). Zero for plain [`Cluster::run`](crate::cluster::Cluster::run);
    /// filled by [`Cluster::run_resilient`](crate::cluster::Cluster::run_resilient)
    /// from its view log.
    pub membership: MembershipStats,
    /// Connection-lifecycle counters from the shared TCP fabric
    /// (reconnects, evictions, backoff dwell, fabric-level fault
    /// injection). Zero on the thread-per-rank substrates, which have no
    /// shared data plane.
    pub fabric: FabricStats,
}

impl RunMetrics {
    /// The global complexity, if all ranks executed the same number of
    /// rounds (required for the paper's synchronized-round measures to be
    /// well defined). `None` when ranks disagree on the round count.
    #[must_use]
    pub fn global_complexity(&self) -> Option<Complexity> {
        let rounds = self.per_rank.first().map_or(0, RankMetrics::rounds);
        // Ranks that agree on the count have each reported every one of
        // those rounds, so the fold covers exactly them.
        (self.per_rank.iter().all(|r| r.rounds == rounds) && self.folded.c1 == rounds)
            .then_some(self.folded)
    }

    /// Total bytes moved across the whole cluster.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.per_rank.iter().map(|r| r.bytes_sent).sum()
    }

    /// Total messages across the whole cluster.
    #[must_use]
    pub fn total_msgs(&self) -> u64 {
        self.per_rank.iter().map(|r| r.msgs_sent).sum()
    }

    /// The maximum bytes any single rank sent — per-node load balance.
    #[must_use]
    pub fn max_rank_bytes(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|r| r.bytes_sent)
            .max()
            .unwrap_or(0)
    }

    /// Total bytes physically copied by the data plane across all ranks.
    #[must_use]
    pub fn total_bytes_copied(&self) -> u64 {
        self.per_rank.iter().map(|r| r.bytes_copied).sum()
    }

    /// Total bytes staged through the gather fast path across all ranks
    /// (see [`RankMetrics::bytes_gathered`]).
    #[must_use]
    pub fn total_bytes_gathered(&self) -> u64 {
        self.per_rank.iter().map(|r| r.bytes_gathered).sum()
    }

    /// Wire-sublayer counters summed over all ranks: retransmissions,
    /// acks, discarded duplicates/corruptions, and injected faults.
    #[must_use]
    pub fn link_totals(&self) -> LinkStats {
        self.per_rank
            .iter()
            .fold(LinkStats::default(), |acc, r| acc.merged(&r.link))
    }

    /// Total reliability-layer retransmissions across all ranks.
    #[must_use]
    pub fn total_retransmits(&self) -> u64 {
        self.link_totals().retransmits
    }

    /// Mean payload bytes the cluster moved per round (total bytes over
    /// the per-rank maximum round count) — the executed-round density the
    /// pipelining work is trying to keep high.
    #[must_use]
    pub fn bytes_per_round(&self) -> f64 {
        let rounds = self
            .per_rank
            .iter()
            .map(RankMetrics::rounds)
            .max()
            .unwrap_or(0);
        if rounds == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 / rounds as f64
    }

    /// Wall-clock totals across ranks as `(send_phase, recv_phase)`
    /// nanoseconds — where executed rounds actually spent their time.
    #[must_use]
    pub fn wall_phase_ns(&self) -> (u64, u64) {
        self.per_rank
            .iter()
            .fold((0, 0), |(s, r), m| (s + m.wall_send_ns, r + m.wall_recv_ns))
    }

    /// Mean window occupancy over every rank's reliability sublayer.
    #[must_use]
    pub fn avg_window_occupancy(&self) -> f64 {
        self.link_totals().avg_window_occupancy()
    }

    /// Piggybacked-ack ratio over every rank's reliability sublayer.
    #[must_use]
    pub fn piggyback_ratio(&self) -> f64 {
        self.link_totals().piggyback_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RoundClock;

    /// Two ranks' rounds as `(sent sizes, received)`, recorded and
    /// reported to a shared clock the way an endpoint does.
    fn run_of(ranks: [&[(&[u64], usize)]; 2]) -> RunMetrics {
        let clock = RoundClock::new(2);
        let per_rank = ranks
            .iter()
            .enumerate()
            .map(|(rank, rounds)| {
                let mut m = RankMetrics::default();
                for &(sent, received) in *rounds {
                    clock.advance(rank, m.record_round(sent.iter().copied(), received));
                }
                m
            })
            .collect();
        RunMetrics {
            per_rank,
            folded: clock.folded(),
            ..RunMetrics::default()
        }
    }

    #[test]
    fn record_and_fold() {
        let run = run_of([&[(&[10, 20], 1), (&[], 2)], &[(&[5], 0), (&[30], 0)]]);
        // Round 0 max = 20, round 1 max = 30.
        assert_eq!(run.global_complexity(), Some(Complexity::new(2, 50)));
        assert_eq!(run.total_bytes(), 65);
        assert_eq!(run.total_msgs(), 4);
        assert_eq!(run.max_rank_bytes(), 35);
    }

    #[test]
    fn misaligned_rounds_yield_none() {
        let run = run_of([&[(&[1], 0)], &[]]);
        assert_eq!(run.global_complexity(), None);
        assert_eq!(run.folded, Complexity::ZERO, "nothing closed");
    }

    #[test]
    fn empty_run() {
        let run = RunMetrics::default();
        assert_eq!(run.global_complexity(), Some(Complexity::ZERO));
        assert_eq!(run.total_bytes(), 0);
        assert_eq!(run.bytes_per_round(), 0.0);
        assert_eq!(run.avg_window_occupancy(), 0.0);
        assert_eq!(run.piggyback_ratio(), 0.0);
    }

    #[test]
    fn window_and_piggyback_ratios() {
        let link = LinkStats {
            acks_sent: 3,
            piggyback_acks: 9,
            window_occupancy_sum: 24,
            window_samples: 8,
            ..LinkStats::default()
        };
        assert!((link.avg_window_occupancy() - 3.0).abs() < 1e-12);
        assert!((link.piggyback_ratio() - 0.75).abs() < 1e-12);
        let doubled = link.merged(&link);
        assert!((doubled.avg_window_occupancy() - 3.0).abs() < 1e-12);
        assert!((doubled.piggyback_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fabric_stats_merge_field_wise() {
        let a = FabricStats {
            link_failures: 2,
            reconnects: 1,
            reconnect_failures: 3,
            pairs_evicted: 1,
            backoff_ns: 500,
            injected_resets: 2,
            injected_stalls: 1,
            injected_handshake_drops: 4,
            outbox_shed_bytes: 128,
            reactor_passes: 9,
        };
        let sum = a.merged(&a);
        assert_eq!(sum.link_failures, 4);
        assert_eq!(sum.reconnects, 2);
        assert_eq!(sum.reconnect_failures, 6);
        assert_eq!(sum.pairs_evicted, 2);
        assert_eq!(sum.backoff_ns, 1000);
        assert_eq!(sum.injected_resets, 4);
        assert_eq!(sum.injected_stalls, 2);
        assert_eq!(sum.injected_handshake_drops, 8);
        assert_eq!(sum.outbox_shed_bytes, 256);
        assert_eq!(sum.reactor_passes, 18);
        assert_eq!(FabricStats::default().merged(&a), a);
    }

    #[test]
    fn bytes_per_round_and_wall_phases() {
        let mut a = RankMetrics::default();
        let _ = a.record_round([10, 20], 1);
        let _ = a.record_round([30], 0);
        a.wall_send_ns = 100;
        a.wall_recv_ns = 300;
        let mut b = RankMetrics::default();
        let _ = b.record_round([40], 1);
        b.wall_send_ns = 50;
        b.wall_recv_ns = 150;
        let run = RunMetrics {
            per_rank: vec![a, b],
            ..RunMetrics::default()
        };
        // 100 bytes over max(2, 1) = 2 rounds.
        assert!((run.bytes_per_round() - 50.0).abs() < 1e-12);
        assert_eq!(run.wall_phase_ns(), (150, 450));
    }
}

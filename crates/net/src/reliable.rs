//! Reliable delivery over a lossy wire: sliding-window ARQ.
//!
//! [`ReliableTransport`] wraps any [`Transport`] (in practice channels, a
//! [`crate::fault::FaultyTransport`] injecting seeded loss, duplication
//! and corruption, or a wire whose plan stalls a rank) and restores
//! exactly-once, uncorrupted delivery below the collective layer:
//!
//! * every data message carries a per-link **sequence number** and a
//!   payload checksum;
//! * the sender keeps up to [`WireTuning::window`] unacknowledged frames
//!   **in flight per destination** — a send returns as soon as the frame
//!   is injected (blocking only when the window is full), so the
//!   per-frame round-trip is paid once per window instead of once per
//!   frame. `window = 1` reproduces the old stop-and-wait discipline;
//! * the receiver acknowledges **cumulatively** (the highest in-order
//!   sequence delivered), and when a gap opens it advertises its
//!   out-of-order stash as **selective acks** so the sender retransmits
//!   only the truly missing frames; duplicates are discarded and
//!   re-acked (in case the first ack was itself lost); checksum-failing
//!   frames — data *and* ack alike — are discarded without an ack so the
//!   sender's retransmission heals them;
//! * acknowledgements **piggyback** on reverse-path data frames
//!   ([`Message::ack`]): a bidirectional exchange keeps both windows
//!   open without dedicated ack frames. Dedicated acks are slightly
//!   delayed to give a reverse-path frame the chance to carry them;
//! * an expired retransmission timer resends the link's unacked,
//!   un-sacked suffix with exponential backoff (`rto`, doubling up to
//!   `max_rto`, reset on cumulative progress); after `max_retries`
//!   consecutive no-progress timeouts the destination is declared dead
//!   in the cluster's [`FailureDetector`] and the caller gets
//!   [`NetError::RanksFailed`].
//!
//! The protocol is deadlock-free in the SPMD setting because every
//! blocked party keeps pumping: a sender waiting for window space and a
//! receiver waiting for a match both poll the wire (`recv_any`), ack
//! peers' data, and retransmit their own expired frames.
//!
//! Dedicated acks travel on the reserved [`ACK_TAG`], are checksummed
//! (their selective-ack payload is as corruptible as any data), and are
//! themselves subject to wire faults; a lost ack costs at most one
//! retransmission and one discarded duplicate. A *corrupted* selective
//! ack cannot wedge the window: sack marks are cleared on every
//! retransmission event, so a frame wrongly marked as held is resent one
//! timeout later.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bruck_model::tuning::WireTuning;

use crate::deadline::Deadline;
use crate::error::NetError;
use crate::failure::FailureDetector;
use crate::message::{payload_checksum, Message, Tag};
use crate::metrics::LinkStats;
use crate::parked::Parked;
use crate::transport::Transport;

/// Tag reserved for reliability-layer acknowledgements. Application and
/// collective tags must stay below this value (collective tags are small
/// round numbers plus epoch offsets, so this never collides in practice).
pub const ACK_TAG: Tag = u64::MAX;

/// Tag reserved for watchdog probe frames — unsequenced "are you alive?"
/// queries sent when a watched link idles.
pub const PROBE_TAG: Tag = u64::MAX - 1;

/// Tag reserved for watchdog probe replies. Any intact frame proves
/// liveness; this one exists purely to provoke such a frame.
pub const PROBE_ACK_TAG: Tag = u64::MAX - 2;

/// Whether the ARQ repairs the loss of `msg`: its sequenced data and its
/// reserved-tag control frames. Traffic with no ARQ above is neither.
pub(crate) fn repairs_loss(msg: &Message) -> bool {
    msg.seq != 0 || msg.tag >= PROBE_ACK_TAG
}

/// How long a blocked caller waits on `recv_any` per poll — short enough
/// to notice failure-detector updates and expired retransmission timers
/// promptly.
const POLL_SLICE: Duration = Duration::from_millis(2);

/// How recently a caller must have polled for a peer's traffic for the
/// watchdog to consider the link *watched*. Receive loops re-poll every
/// [`POLL_SLICE`], so an actively awaited peer stays fresh by orders of
/// magnitude; a peer nobody waits on goes stale and is never probed or
/// escalated.
const WATCH_FRESH: Duration = Duration::from_millis(50);

/// Tuning knobs for the ack/retransmit protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reliability {
    /// Initial retransmission timeout (doubles on each timeout event,
    /// resets on cumulative progress).
    pub rto: Duration,
    /// Ceiling for the backed-off retransmission timeout.
    pub max_rto: Duration,
    /// Consecutive no-progress timeout events before the peer is
    /// declared dead.
    pub max_retries: u32,
    /// Sliding-window pipelining knobs (window size, selective-ack
    /// budget, piggybacking).
    pub wire: WireTuning,
    /// Watchdog: how long a *watched* link may stay silent before an
    /// explicit probe is sent. The effective interval per link is the
    /// larger of this floor and the link's adaptive RTO estimate, so
    /// probing patience scales with measured latency.
    pub probe_interval: Duration,
    /// Consecutive unanswered probes before the watched peer is reported
    /// unreachable to the failure detector (probe spacing doubles per
    /// strike). `0` disables the watchdog.
    pub probe_retries: u32,
}

impl Default for Reliability {
    fn default() -> Self {
        Self {
            rto: Duration::from_millis(10),
            max_rto: Duration::from_millis(160),
            max_retries: 10,
            wire: WireTuning::default(),
            probe_interval: Duration::from_millis(25),
            probe_retries: 5,
        }
    }
}

impl Reliability {
    /// Replace the wire-pipelining knobs.
    #[must_use]
    pub fn with_wire(mut self, wire: WireTuning) -> Self {
        self.wire = wire;
        self
    }

    /// Set the watchdog's probe interval floor and retry budget
    /// (`retries = 0` disables probing entirely).
    #[must_use]
    pub fn with_probing(mut self, interval: Duration, retries: u32) -> Self {
        self.probe_interval = interval;
        self.probe_retries = retries;
        self
    }
}

/// One unacknowledged data frame queued on a link.
struct InFlight {
    msg: Message,
    /// The receiver advertised holding this frame out of order
    /// (selective ack): skip it on the next retransmission sweep.
    sacked: bool,
    /// When the frame was first put on the wire (for RTT sampling).
    sent_at: Instant,
    /// The frame has been retransmitted at least once, so its ack is
    /// ambiguous — Karn's algorithm: never sample RTT from it.
    retransmitted: bool,
}

/// Per-destination sender-side link state.
struct TxLink {
    /// Unacknowledged frames, oldest first (ascending `seq`).
    inflight: VecDeque<InFlight>,
    /// Last sequence number assigned (sequences start at 1; 0 marks
    /// unsequenced traffic).
    next_seq: u64,
    /// Retransmission timer: armed whenever the link has in-flight
    /// frames.
    timer: Option<Instant>,
    /// Current retransmission timeout: the adaptive estimate
    /// ([`base_rto`](Self::base_rto)) while acks make progress, doubled
    /// on each timeout up to the configured ceiling.
    rto: Duration,
    /// Consecutive timeout events without cumulative progress.
    strikes: u32,
    /// Smoothed round-trip estimate (RFC 6298 shape): `None` until the
    /// first unambiguous sample.
    srtt: Option<Duration>,
    /// Round-trip variance estimate.
    rttvar: Duration,
}

impl TxLink {
    fn new(floor: Duration, ceil: Duration) -> Self {
        Self {
            inflight: VecDeque::new(),
            next_seq: 0,
            timer: None,
            // Until the first RTT sample the timeout is deliberately
            // conservative (RFC 6298 spirit): a virgin link has no idea
            // how loaded the host is, and a spurious retransmission of
            // a large first message costs far more than a late first
            // recovery. The first unambiguous ack replaces this with
            // the measured estimate.
            rto: (floor * 4).min(ceil),
            strikes: 0,
            srtt: None,
            rttvar: Duration::ZERO,
        }
    }

    /// Fold one unambiguous RTT sample into the smoothed estimators:
    /// `srtt ← 7/8·srtt + 1/8·rtt`, `rttvar ← 3/4·rttvar + 1/4·|srtt − rtt|`.
    fn sample_rtt(&mut self, rtt: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let dev = srtt.abs_diff(rtt);
                self.rttvar = (self.rttvar * 3 + dev) / 4;
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
    }

    /// The un-backed-off timeout for this link: `srtt + 4·rttvar`,
    /// clamped to the configured floor and ceiling. The configured value
    /// alone is tuned for an unloaded wire; when ranks time-share cores,
    /// real round trips stretch with the run queue and a static timeout
    /// retransmits frames whose acks are merely late.
    fn base_rto(&self, floor: Duration, ceil: Duration) -> Duration {
        match self.srtt {
            Some(srtt) => (srtt + 4 * self.rttvar).clamp(floor, ceil),
            None => floor,
        }
    }
}

/// A [`Transport`] wrapper providing acked, deduplicated, checksummed,
/// windowed delivery. One per rank, installed by the cluster runner
/// above the fault-injection layer when reliability is enabled and the
/// transport below declares [`Delivery::Datagram`](crate::Delivery) or
/// the plan stalls a rank — a clean reliable wire is left bare.
pub struct ReliableTransport {
    inner: Box<dyn Transport>,
    rank: usize,
    cfg: Reliability,
    detector: Arc<FailureDetector>,
    /// Sender-side state per destination.
    tx: Vec<TxLink>,
    /// Highest in-order sequence delivered from each source.
    expected: Vec<u64>,
    /// A cumulative ack is owed to this source (set on in-order
    /// delivery; cleared by piggybacking or a dedicated ack). The
    /// instant records when it became owed, so dedicated acks can be
    /// briefly deferred in favor of a piggyback opportunity.
    ack_owed: Vec<Option<Instant>>,
    /// Out-of-order stash per source, keyed by sequence.
    ooo: Vec<BTreeMap<u64, Message>>,
    /// In-order messages ready for the matching layer.
    pending: Parked,
    /// Last instant an intact frame (data, ack, or probe) arrived from
    /// each peer — the piggyback heartbeat the watchdog consults before
    /// spending an explicit probe.
    last_heard: Vec<Instant>,
    /// Freshness stamp of the caller's interest in each peer: refreshed
    /// by every `recv_match`/`try_match` for that source, consulted by
    /// the watchdog so only links someone is actually blocked on are
    /// probed (and can be escalated).
    watch: Vec<Option<Instant>>,
    /// Outstanding probe per peer: `(reply deadline, current spacing)`.
    probe: Vec<Option<(Instant, Duration)>>,
    /// Consecutive unanswered probes per peer.
    probe_strikes: Vec<u32>,
    /// Shared completion budget — checked in every blocking loop.
    deadline: Deadline,
    stats: LinkStats,
}

impl ReliableTransport {
    /// Wrap `inner` for rank `rank` in an `n`-rank cluster.
    #[must_use]
    pub fn new(
        inner: Box<dyn Transport>,
        rank: usize,
        n: usize,
        cfg: Reliability,
        detector: Arc<FailureDetector>,
    ) -> Self {
        Self {
            inner,
            rank,
            cfg,
            detector,
            tx: (0..n).map(|_| TxLink::new(cfg.rto, cfg.max_rto)).collect(),
            expected: vec![0; n],
            ack_owed: vec![None; n],
            ooo: (0..n).map(|_| BTreeMap::new()).collect(),
            pending: Parked::default(),
            last_heard: vec![Instant::now(); n],
            watch: vec![None; n],
            probe: vec![None; n],
            probe_strikes: vec![0; n],
            deadline: Deadline::new(),
            stats: LinkStats::default(),
        }
    }

    /// Share a completion budget: every blocking loop (window
    /// backpressure, matching waits) checks it, so an armed deadline
    /// aborts an in-flight wait within one poll slice.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    fn ranks_failed(&self) -> NetError {
        NetError::RanksFailed {
            ranks: self.detector.snapshot(),
        }
    }

    /// How long a dedicated ack may wait for a reverse-path data frame
    /// to piggyback it. Zero when piggybacking is off — then there is
    /// nothing to wait for.
    fn ack_delay(&self) -> Duration {
        if self.cfg.wire.piggyback {
            self.cfg.rto / 8
        } else {
            Duration::ZERO
        }
    }

    /// Send a dedicated ack frame to `src`: cumulative in `seq`, the
    /// out-of-order stash as selective-ack entries in the payload
    /// (little-endian u64s, capped at the configured budget). The
    /// payload is checksummed so a corrupted sack list is discarded
    /// whole instead of poisoning the sender's window.
    fn send_dedicated_ack(&mut self, src: usize) -> Result<(), NetError> {
        self.ack_owed[src] = None;
        let mut payload = Vec::new();
        for &seq in self.ooo[src].keys().take(self.cfg.wire.sack_limit) {
            payload.extend_from_slice(&seq.to_le_bytes());
            self.stats.sack_entries_sent += 1;
        }
        let ack = Message {
            src: self.rank,
            dst: src,
            tag: ACK_TAG,
            checksum: Some(payload_checksum(&payload)),
            payload,
            arrival: 0.0,
            seq: self.expected[src],
            ack: 0,
        };
        self.stats.acks_sent += 1;
        self.inner.send(ack)
    }

    /// Apply a cumulative ack from `peer`: retire every in-flight frame
    /// with `seq ≤ upto`, sampling RTT from never-retransmitted frames
    /// (Karn's algorithm); progress resets the link's backoff and strike
    /// count and re-arms (or disarms) the retransmission timer at the
    /// adaptive estimate.
    fn apply_cumulative_ack(&mut self, peer: usize, upto: u64) {
        let (floor, ceil) = (self.cfg.rto, self.cfg.max_rto);
        let now = Instant::now();
        let link = &mut self.tx[peer];
        let mut progressed = false;
        let mut sampled = false;
        while link.inflight.front().is_some_and(|f| f.msg.seq <= upto) {
            let f = link.inflight.pop_front().expect("front checked above");
            if !f.retransmitted {
                link.sample_rtt(now.saturating_duration_since(f.sent_at));
                sampled = true;
            }
            progressed = true;
        }
        if progressed {
            if sampled {
                link.rto = link.base_rto(floor, ceil);
            }
            // No fresh sample (every retired frame had been
            // retransmitted, so its ack is ambiguous — Karn): keep the
            // backed-off rto rather than snapping back to an estimate
            // the timeout just proved too optimistic.
            link.strikes = 0;
            link.timer = (!link.inflight.is_empty()).then(|| now + link.rto);
        }
    }

    /// Apply a selective-ack payload from `peer`: each valid entry marks
    /// the matching in-flight frame as held by the receiver, exempting
    /// it from the next retransmission sweep. Entries outside
    /// `(cumulative, next_seq]` (corruption survivors, stale traffic)
    /// are ignored.
    fn apply_sacks(&mut self, peer: usize, cumulative: u64, payload: &[u8]) {
        if payload.is_empty() || !payload.len().is_multiple_of(8) {
            return;
        }
        let link = &mut self.tx[peer];
        for entry in payload.chunks_exact(8) {
            let seq = u64::from_le_bytes(entry.try_into().expect("8-byte chunk"));
            if seq <= cumulative || seq > link.next_seq {
                continue;
            }
            if let Some(f) = link.inflight.iter_mut().find(|f| f.msg.seq == seq) {
                f.sacked = true;
            }
        }
    }

    /// Classify one raw message off the wire: discard corruption, record
    /// acks (dedicated and piggybacked), discard duplicates, deliver
    /// in-order data (plus any now-contiguous stashed messages), park
    /// out-of-order data.
    fn process(&mut self, m: Message) -> Result<(), NetError> {
        if !m.checksum_ok() {
            // Damaged in flight — data or sack payload alike. No ack:
            // the sender's retransmission is the repair.
            self.stats.corrupt_dropped += 1;
            return Ok(());
        }
        // Any intact frame is a heartbeat: the peer is alive, whatever
        // the frame carries. Stand the watchdog down for this link.
        if m.src < self.last_heard.len() && m.src != self.rank {
            self.last_heard[m.src] = Instant::now();
            self.probe[m.src] = None;
            self.probe_strikes[m.src] = 0;
        }
        if m.tag == PROBE_TAG {
            // Answer immediately — the prober is blocked on us.
            self.stats.probe_replies += 1;
            let reply = Message {
                src: self.rank,
                dst: m.src,
                tag: PROBE_ACK_TAG,
                checksum: Some(payload_checksum(&[])),
                payload: Vec::new(),
                arrival: 0.0,
                seq: 0,
                ack: 0,
            };
            return self.inner.send(reply);
        }
        if m.tag == PROBE_ACK_TAG {
            // The heartbeat bookkeeping above was the whole point.
            return Ok(());
        }
        if m.tag == ACK_TAG {
            let src = m.src;
            self.apply_cumulative_ack(src, m.seq);
            self.apply_sacks(src, m.seq, &m.payload);
            return Ok(());
        }
        if m.ack > 0 {
            // Piggybacked cumulative ack on a reverse-path data frame.
            self.apply_cumulative_ack(m.src, m.ack);
        }
        if m.seq == 0 {
            // Unsequenced traffic (no reliability on the sending side):
            // pass through untouched.
            self.pending.park(m);
            return Ok(());
        }
        let src = m.src;
        if m.seq <= self.expected[src] {
            // Duplicate (wire duplication, or a retransmission whose
            // original made it). Re-ack immediately in case the ack was
            // lost — the sender is already waiting.
            self.stats.dups_dropped += 1;
            return self.send_dedicated_ack(src);
        }
        if m.seq == self.expected[src] + 1 {
            self.expected[src] = m.seq;
            self.pending.park(m);
            // Drain any stashed messages that are now contiguous.
            while let Some(next) = self.ooo[src].remove(&(self.expected[src] + 1)) {
                self.expected[src] = next.seq;
                self.pending.park(next);
            }
            // Owe a cumulative ack; pump flushes it after a short grace
            // period unless a reverse-path data frame piggybacks it
            // first.
            if self.ack_owed[src].is_none() {
                self.ack_owed[src] = Some(Instant::now());
            }
            return Ok(());
        }
        // A gap: stash, and tell the sender immediately what we hold
        // (cumulative + selective) so it retransmits only the missing
        // frames.
        self.ooo[src].insert(m.seq, m);
        self.send_dedicated_ack(src)
    }

    /// Drive the sender half: flush owed acks past their piggyback grace
    /// period, and sweep every link whose retransmission timer expired —
    /// resending the unacked, un-sacked suffix with backoff, and
    /// declaring destinations dead after `max_retries` consecutive
    /// no-progress timeouts.
    fn pump(&mut self) -> Result<(), NetError> {
        let now = Instant::now();
        let delay = self.ack_delay();
        for src in 0..self.ack_owed.len() {
            if self.ack_owed[src].is_some_and(|owed| now >= owed + delay) {
                self.send_dedicated_ack(src)?;
            }
        }
        let mut died = false;
        for dst in 0..self.tx.len() {
            if self.tx[dst].inflight.is_empty() {
                continue;
            }
            if self.detector.is_dead(dst) {
                // Never acknowledgeable: drop the frames so flush and
                // backpressure don't wait on a corpse.
                self.tx[dst].inflight.clear();
                self.tx[dst].timer = None;
                continue;
            }
            let expired = self.tx[dst].timer.is_some_and(|t| now >= t);
            if !expired {
                continue;
            }
            if self.tx[dst].strikes >= self.cfg.max_retries {
                // The peer has ignored every retransmission: accuse it
                // cluster-wide. Arbitrated, not authoritative — under an
                // asymmetric partition both ends accuse each other and
                // the detector honours exactly one accusation.
                if self.detector.report_unreachable(self.rank, dst) {
                    self.stats.stall_escalations += 1;
                }
                self.tx[dst].inflight.clear();
                self.tx[dst].timer = None;
                died = true;
                continue;
            }
            self.tx[dst].strikes += 1;
            // Resend the un-sacked suffix; clear sack marks so a bogus
            // (corrupted) sack can delay a frame by at most one timeout.
            let mut resend = Vec::new();
            for f in &mut self.tx[dst].inflight {
                if f.sacked {
                    f.sacked = false;
                } else {
                    f.retransmitted = true;
                    resend.push(f.msg.clone());
                }
            }
            for msg in resend {
                self.stats.retransmits += 1;
                self.inner.send(msg)?;
            }
            let link = &mut self.tx[dst];
            link.rto = (link.rto * 2).min(self.cfg.max_rto);
            link.timer = Some(now + link.rto);
        }
        died |= self.watchdog(now)?;
        if died {
            return Err(self.ranks_failed());
        }
        Ok(())
    }

    /// The per-link probe spacing: the configured floor stretched by the
    /// link's adaptive RTO estimate, so a calibrated slow link is probed
    /// with matching patience.
    fn probe_interval_for(&self, peer: usize) -> Duration {
        self.cfg
            .probe_interval
            .max(self.tx[peer].base_rto(self.cfg.rto, self.cfg.max_rto))
    }

    fn send_probe(&mut self, peer: usize) -> Result<(), NetError> {
        self.stats.probes_sent += 1;
        let probe = Message {
            src: self.rank,
            dst: peer,
            tag: PROBE_TAG,
            checksum: Some(payload_checksum(&[])),
            payload: Vec::new(),
            arrival: 0.0,
            seq: 0,
            ack: 0,
        };
        self.inner.send(probe)
    }

    /// The straggler watchdog: for every *watched* link (a peer some
    /// caller is actively blocked on) that has gone silent past its
    /// probe interval, send explicit probes with doubling spacing; after
    /// `probe_retries` unanswered probes, accuse the peer of being
    /// unreachable. Distinguishes slow from dead: any intact frame —
    /// including a probe reply after a stall ends — resets the strikes,
    /// so a pause shorter than the probe budget costs nothing, while a
    /// partitioned or SIGSTOP-paused peer exhausts it and gets the same
    /// cluster-consistent verdict as a crashed one. Returns whether an
    /// escalation fired.
    fn watchdog(&mut self, now: Instant) -> Result<bool, NetError> {
        if self.cfg.probe_retries == 0 {
            return Ok(false);
        }
        let mut died = false;
        for peer in 0..self.watch.len() {
            if peer == self.rank {
                continue;
            }
            if self.detector.is_dead(peer) {
                self.probe[peer] = None;
                continue;
            }
            let fresh =
                self.watch[peer].is_some_and(|w| now.saturating_duration_since(w) < WATCH_FRESH);
            if !fresh {
                // Nobody is waiting on this peer: an idle link is not a
                // straggler, stand down.
                self.probe[peer] = None;
                self.probe_strikes[peer] = 0;
                continue;
            }
            match self.probe[peer] {
                Some((reply_by, spacing)) if now >= reply_by => {
                    self.probe_strikes[peer] += 1;
                    if self.probe_strikes[peer] >= self.cfg.probe_retries {
                        if self.detector.report_unreachable(self.rank, peer) {
                            self.stats.stall_escalations += 1;
                        }
                        self.probe[peer] = None;
                        died = true;
                    } else {
                        let next = (spacing * 2).min(self.cfg.max_rto.max(self.cfg.probe_interval));
                        self.send_probe(peer)?;
                        self.probe[peer] = Some((now + next, next));
                    }
                }
                Some(_) => {}
                None => {
                    let interval = self.probe_interval_for(peer);
                    if now.saturating_duration_since(self.last_heard[peer]) >= interval {
                        self.send_probe(peer)?;
                        self.probe[peer] = Some((now + interval, interval));
                    }
                }
            }
        }
        Ok(died)
    }

    /// Release every owed ack immediately, aged or not. Called when the
    /// protocol is about to park on the wire: no outbound data frame can
    /// materialize until we wake again, so the piggyback opportunity is
    /// gone — and on a crowded host (ranks time-sharing a core), holding
    /// an ack across a blocking wait can push it past the peer's rto and
    /// trigger a spurious retransmission of the whole suffix.
    fn flush_owed_acks(&mut self) -> Result<(), NetError> {
        for src in 0..self.ack_owed.len() {
            if self.ack_owed[src].is_some() {
                self.send_dedicated_ack(src)?;
            }
        }
        Ok(())
    }

    /// Poll the wire once (bounded by `slice`), classify whatever
    /// arrived, then pump acks and retransmissions.
    fn poll(&mut self, slice: Duration) -> Result<(), NetError> {
        self.flush_owed_acks()?;
        if let Some(m) = self.inner.recv_any(slice)? {
            self.process(m)?;
            // Opportunistically drain anything else already queued.
            while let Some(m) = self.inner.recv_any(Duration::ZERO)? {
                self.process(m)?;
            }
        }
        self.pump()
    }

    /// Record that a caller is actively waiting on `from` — the
    /// watchdog's licence to probe (and escalate) that link. The silence
    /// clock starts when a link turns from unwatched to watched: silence
    /// nobody was waiting through says nothing about the peer, and
    /// counting it made the first wait on every new partner probe at
    /// once (a probe per message once a run outlived `probe_interval`).
    fn note_watch(&mut self, from: usize) {
        if from == self.rank || from >= self.watch.len() {
            return;
        }
        let now = Instant::now();
        let watched =
            self.watch[from].is_some_and(|w| now.saturating_duration_since(w) < WATCH_FRESH);
        if !watched {
            self.last_heard[from] = now;
        }
        self.watch[from] = Some(now);
    }
}

impl Transport for ReliableTransport {
    /// Windowed send: returns as soon as the frame is injected and
    /// queued for acknowledgement tracking, blocking only while the
    /// destination's window is full (and pumping the protocol while it
    /// waits, so peers keep progressing).
    fn send(&mut self, mut msg: Message) -> Result<(), NetError> {
        let dst = msg.dst;
        loop {
            if self.detector.is_dead(dst) {
                return Err(self.ranks_failed());
            }
            self.deadline.check(self.rank)?;
            if self.tx[dst].inflight.len() < self.cfg.wire.window {
                break;
            }
            // Backpressure is a wait on the destination's acks: watch
            // the link so a stalled receiver is probed and escalated
            // instead of wedging the window forever.
            self.note_watch(dst);
            self.poll(self.deadline.clamp(POLL_SLICE))?;
        }
        self.tx[dst].next_seq += 1;
        msg.seq = self.tx[dst].next_seq;
        if self.cfg.wire.piggyback {
            msg.ack = self.expected[dst];
            if self.ack_owed[dst].take().is_some() {
                // This data frame carries the ack a dedicated frame
                // would otherwise have had to.
                self.stats.piggyback_acks += 1;
            }
        }
        let now = Instant::now();
        let link = &mut self.tx[dst];
        if link.inflight.is_empty() {
            link.timer = Some(now + link.rto);
        }
        link.inflight.push_back(InFlight {
            msg: msg.clone(),
            sacked: false,
            sent_at: now,
            retransmitted: false,
        });
        self.stats.window_occupancy_sum += link.inflight.len() as u64;
        self.stats.window_samples += 1;
        self.inner.send(msg)?;
        if self.cfg.wire.window == 1 {
            // Faithful stop-and-wait: the pre-window discipline returned
            // from send() only once this frame was acknowledged, so the
            // compat mode must not even overlap the ack wait with the
            // caller's other ports. (For window ≥ 2 the wait happens
            // lazily, at the top of this function, only when full.)
            while !self.tx[dst].inflight.is_empty() {
                if self.detector.is_dead(dst) {
                    return Err(self.ranks_failed());
                }
                self.deadline.check(self.rank)?;
                self.note_watch(dst);
                self.poll(self.deadline.clamp(POLL_SLICE))?;
            }
        }
        Ok(())
    }

    fn recv_match(
        &mut self,
        from: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(m) = self.pending.take(from, tag) {
                return Ok(m);
            }
            self.deadline.check(self.rank)?;
            self.note_watch(from);
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(NetError::Timeout {
                    rank: self.rank,
                    from,
                    tag,
                    waited: timeout,
                });
            }
            self.poll(self.deadline.clamp(remaining.min(POLL_SLICE)))?;
        }
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(m) = self.pending.pop_any() {
                return Ok(Some(m));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            self.poll(remaining.min(POLL_SLICE))?;
        }
    }

    fn try_match(&mut self, from: usize, tag: Tag) -> Result<Option<Message>, NetError> {
        if let Some(m) = self.pending.take(from, tag) {
            return Ok(Some(m));
        }
        self.note_watch(from);
        // Drain whatever is already queued (no blocking), then pump.
        while let Some(m) = self.inner.recv_any(Duration::ZERO)? {
            self.process(m)?;
        }
        self.pump()?;
        Ok(self.pending.take(from, tag))
    }

    fn wait_any(&mut self, timeout: Duration) -> Result<(), NetError> {
        self.poll(timeout.min(POLL_SLICE))
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn rto_hint(&self) -> Option<Duration> {
        // The worst link's adaptive estimate — warmed by any traffic,
        // calibration ladders included.
        self.tx
            .iter()
            .map(|l| l.base_rto(self.cfg.rto, self.cfg.max_rto))
            .max()
    }

    fn linger_hint(&self) -> Option<Duration> {
        // Long enough for a peer to notice a lost final ack (one RTO),
        // retransmit, and be answered — with slack for a few rounds of
        // backoff on the slowest measured link.
        self.rto_hint().map(|rto| rto * 8)
    }

    /// Drain the unacked tail: retransmit and wait until every in-flight
    /// frame is acknowledged or its destination is declared dead, giving
    /// up (best effort) at `deadline`. Peer deaths discovered while
    /// flushing do not fail the flush — their frames are dropped, which
    /// is exactly the state a shutdown needs.
    fn flush(&mut self, deadline: Instant) -> Result<(), NetError> {
        loop {
            let outstanding = (0..self.tx.len())
                .any(|dst| !self.tx[dst].inflight.is_empty() && !self.detector.is_dead(dst));
            if !outstanding {
                // Settle any owed acks so peers' flushes converge too.
                for src in 0..self.ack_owed.len() {
                    if self.ack_owed[src].is_some() {
                        self.send_dedicated_ack(src)?;
                    }
                }
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Ok(());
            }
            match self.poll(POLL_SLICE) {
                Ok(()) | Err(NetError::RanksFailed { .. }) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Discard delivered-but-unconsumed and out-of-order messages. The
    /// per-link sequence state — including still-unacked in-flight
    /// frames toward live peers — is deliberately kept: surviving links
    /// stay seq-consistent across a shrink-and-retry attempt (dropping
    /// an unacked frame would leave the receiver waiting for a sequence
    /// number that never comes).
    fn purge(&mut self) -> usize {
        let mut n = self.inner.purge();
        n += self.pending.purge();
        for stash in &mut self.ooo {
            n += stash.len();
            stash.clear();
        }
        for dst in 0..self.tx.len() {
            if self.detector.is_dead(dst) {
                n += self.tx[dst].inflight.len();
                self.tx[dst].inflight.clear();
                self.tx[dst].timer = None;
            }
        }
        n
    }

    fn link_stats(&self) -> LinkStats {
        self.stats.merged(&self.inner.link_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyTransport, RoundClock};
    use crate::mailbox::Mailbox;
    use crate::transport::ChannelTransport;

    fn pair() -> (ReliableTransport, ReliableTransport, Arc<FailureDetector>) {
        pair_with(Reliability::default())
    }

    fn pair_with(cfg: Reliability) -> (ReliableTransport, ReliableTransport, Arc<FailureDetector>) {
        let (tx0, mb0) = Mailbox::new(0);
        let (tx1, mb1) = Mailbox::new(1);
        let senders = vec![tx0, tx1];
        let det = Arc::new(FailureDetector::new(2));
        let mk = |rank: usize, mb: Mailbox| {
            ReliableTransport::new(
                Box::new(ChannelTransport::new(senders.clone(), mb)),
                rank,
                2,
                cfg,
                Arc::clone(&det),
            )
        };
        (mk(0, mb0), mk(1, mb1), Arc::clone(&det))
    }

    fn data(src: usize, dst: usize, tag: Tag, payload: Vec<u8>) -> Message {
        let checksum = Some(payload_checksum(&payload));
        Message {
            src,
            dst,
            tag,
            payload,
            arrival: 0.0,
            seq: 0,
            ack: 0,
            checksum,
        }
    }

    #[test]
    fn clean_wire_round_trip() {
        let (mut a, mut b, _det) = pair();
        a.send(data(0, 1, 7, vec![1, 2, 3])).unwrap();
        let m = b.recv_match(0, 7, Duration::from_secs(5)).unwrap();
        assert_eq!(m.payload, vec![1, 2, 3]);
        assert_eq!(m.seq, 1);
        // The frame is still in a's window until b's (delayed) ack
        // arrives; settling both sides drains it.
        b.flush(Instant::now() + Duration::from_secs(5)).unwrap();
        a.flush(Instant::now() + Duration::from_secs(5)).unwrap();
        assert!(a.tx[1].inflight.is_empty());
        assert!(b.link_stats().acks_sent >= 1);
    }

    #[test]
    fn windowed_sends_do_not_block_for_acks() {
        // Eight sends complete immediately even though the receiver has
        // not acked anything yet — the pipelining the old stop-and-wait
        // protocol could not do.
        let (mut a, mut b, _det) = pair();
        for i in 0..8u8 {
            a.send(data(0, 1, 7, vec![i])).unwrap();
        }
        assert_eq!(a.tx[1].inflight.len(), 8);
        assert!(a.link_stats().avg_window_occupancy() > 1.0);
        for i in 0..8u8 {
            let m = b.recv_match(0, 7, Duration::from_secs(5)).unwrap();
            assert_eq!(m.payload, vec![i]);
        }
        b.flush(Instant::now() + Duration::from_secs(5)).unwrap();
        a.flush(Instant::now() + Duration::from_secs(5)).unwrap();
        assert!(a.tx[1].inflight.is_empty());
    }

    #[test]
    fn full_window_blocks_until_acked() {
        let cfg = Reliability {
            wire: WireTuning::default().with_window(2),
            ..Reliability::default()
        };
        let (mut a, mut b, _det) = pair_with(cfg);
        std::thread::scope(|s| {
            let ha = s.spawn(move || {
                for i in 0..6u8 {
                    a.send(data(0, 1, 7, vec![i])).unwrap();
                }
                a
            });
            for i in 0..6u8 {
                let m = b.recv_match(0, 7, Duration::from_secs(5)).unwrap();
                assert_eq!(m.payload, vec![i]);
            }
            let mut a = ha.join().unwrap();
            b.flush(Instant::now() + Duration::from_secs(5)).unwrap();
            a.flush(Instant::now() + Duration::from_secs(5)).unwrap();
            // Occupancy never exceeded the configured window.
            let stats = a.link_stats();
            assert_eq!(stats.window_samples, 6);
            assert!(stats.window_occupancy_sum <= 2 * 6);
        });
    }

    #[test]
    fn duplicate_is_dropped_once() {
        let (mut a, mut b, _det) = pair();
        // Duplicate every transmission out of rank 0.
        let plan = Arc::new(FaultPlan::new().with_seed(1).with_duplication(1.0));
        let clock = Arc::new(RoundClock::new(2));
        a.inner = Box::new(FaultyTransport::new(a.inner, plan, clock));
        a.send(data(0, 1, 7, vec![9])).unwrap();
        let m = b.recv_match(0, 7, Duration::from_secs(5)).unwrap();
        assert_eq!(m.payload, vec![9]);
        // The duplicate must not be delivered again.
        assert_eq!(b.recv_any(Duration::from_millis(30)).unwrap(), None);
        assert!(b.link_stats().dups_dropped >= 1);
        a.flush(Instant::now() + Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn send_to_known_dead_rank_fails_fast() {
        let (mut a, _b, det) = pair();
        det.mark_dead(1);
        let err = a.send(data(0, 1, 7, vec![1])).unwrap_err();
        assert_eq!(err, NetError::RanksFailed { ranks: vec![1] });
    }

    #[test]
    fn unresponsive_peer_exhausts_retries_and_is_marked_dead() {
        let (tx0, mb0) = Mailbox::new(0);
        let (tx1, _mb1_unpolled) = Mailbox::new(1); // rank 1 never polls
        let det = Arc::new(FailureDetector::new(2));
        let mut a = ReliableTransport::new(
            Box::new(ChannelTransport::new(vec![tx0, tx1], mb0)),
            0,
            2,
            Reliability {
                rto: Duration::from_millis(1),
                max_rto: Duration::from_millis(2),
                max_retries: 3,
                ..Reliability::default()
            },
            Arc::clone(&det),
        );
        // The windowed send itself succeeds — the frame is in flight.
        a.send(data(0, 1, 7, vec![1])).unwrap();
        // Draining the tail exhausts the retry budget and marks the
        // peer dead (best-effort flush reports success regardless).
        a.flush(Instant::now() + Duration::from_secs(2)).unwrap();
        assert!(det.is_dead(1));
        assert_eq!(a.link_stats().retransmits, 3);
        assert!(a.tx[1].inflight.is_empty());
        // Follow-up sends fail fast with the cluster-wide verdict.
        let err = a.send(data(0, 1, 7, vec![2])).unwrap_err();
        assert_eq!(err, NetError::RanksFailed { ranks: vec![1] });
    }

    #[test]
    fn idle_link_never_retransmits() {
        // Pumping an endpoint with nothing in flight must not burn retry
        // budget or send anything (the no-busy-poll regression guard).
        let (mut a, _b, det) = pair();
        for _ in 0..50 {
            a.poll(Duration::ZERO).unwrap();
        }
        let stats = a.link_stats();
        assert_eq!(stats.retransmits, 0);
        assert_eq!(stats.acks_sent, 0);
        assert_eq!(a.tx[1].strikes, 0);
        assert!(det.snapshot().is_empty());
    }

    #[test]
    fn corrupt_frame_is_discarded_and_healed_by_retransmit() {
        let (_a, mut b, _det) = pair();
        let mut bad = data(0, 1, 7, vec![1, 2, 3]);
        bad.seq = 1;
        bad.payload[0] ^= 0xFF; // checksum now wrong
        b.process(bad).unwrap();
        assert_eq!(b.link_stats().corrupt_dropped, 1);
        assert_eq!(b.pending.len(), 0);
        // The retransmission (same seq) arrives intact and is delivered.
        let mut good = data(0, 1, 7, vec![1, 2, 3]);
        good.seq = 1;
        b.process(good).unwrap();
        let m = b.pending.take(0, 7).unwrap();
        assert_eq!(m.payload, vec![1, 2, 3]);
    }

    #[test]
    fn out_of_order_sequences_are_reordered() {
        let (_a, mut b, _det) = pair();
        let mut m2 = data(0, 1, 7, vec![2]);
        m2.seq = 2;
        let mut m1 = data(0, 1, 7, vec![1]);
        m1.seq = 1;
        b.process(m2).unwrap();
        assert_eq!(b.pending.len(), 0, "gap: nothing deliverable yet");
        // The gap triggered an immediate dedicated ack advertising the
        // stashed frame as a selective ack.
        assert!(b.link_stats().acks_sent >= 1);
        assert!(b.link_stats().sack_entries_sent >= 1);
        b.process(m1).unwrap();
        let first = b.pending.pop_any().unwrap();
        let second = b.pending.pop_any().unwrap();
        assert_eq!((first.payload[0], second.payload[0]), (1, 2));
        assert_eq!(b.expected[0], 2);
    }

    #[test]
    fn sacked_frames_skip_one_retransmission_sweep() {
        let (mut a, _b, _det) = pair();
        a.send(data(0, 1, 7, vec![1])).unwrap();
        a.send(data(0, 1, 7, vec![2])).unwrap();
        a.send(data(0, 1, 7, vec![3])).unwrap();
        // The receiver holds seqs 2 and 3 but is missing 1.
        let sack_payload: Vec<u8> = [2u64, 3u64].iter().flat_map(|s| s.to_le_bytes()).collect();
        let ack = Message {
            src: 1,
            dst: 0,
            tag: ACK_TAG,
            checksum: Some(payload_checksum(&sack_payload)),
            payload: sack_payload,
            arrival: 0.0,
            seq: 0, // nothing delivered in order yet
            ack: 0,
        };
        a.process(ack).unwrap();
        assert!(!a.tx[1].inflight[0].sacked);
        assert!(a.tx[1].inflight[1].sacked);
        assert!(a.tx[1].inflight[2].sacked);
        // Force a timeout sweep: only the missing head is resent, and
        // the sack marks are cleared (corruption insurance).
        a.tx[1].timer = Some(Instant::now() - Duration::from_millis(1));
        a.pump().unwrap();
        assert_eq!(a.link_stats().retransmits, 1);
        assert!(a.tx[1].inflight.iter().all(|f| !f.sacked));
    }

    #[test]
    fn bogus_sack_entries_are_ignored() {
        let (mut a, _b, _det) = pair();
        a.send(data(0, 1, 7, vec![1])).unwrap();
        // Entries out of range (0, beyond next_seq) and a ragged payload
        // must all be ignored.
        for payload in [
            99u64.to_le_bytes().to_vec(),
            0u64.to_le_bytes().to_vec(),
            vec![1, 2, 3], // not a multiple of 8
        ] {
            let ack = Message {
                src: 1,
                dst: 0,
                tag: ACK_TAG,
                checksum: Some(payload_checksum(&payload)),
                payload,
                arrival: 0.0,
                seq: 0,
                ack: 0,
            };
            a.process(ack).unwrap();
        }
        assert!(!a.tx[1].inflight[0].sacked);
    }

    #[test]
    fn piggybacked_ack_retires_inflight_frames() {
        let (mut a, _b, _det) = pair();
        a.send(data(0, 1, 7, vec![1])).unwrap();
        a.send(data(0, 1, 7, vec![2])).unwrap();
        assert_eq!(a.tx[1].inflight.len(), 2);
        // A reverse-path data frame from rank 1 carrying ack = 2.
        let mut rev = data(1, 0, 9, vec![42]);
        rev.seq = 1;
        rev.ack = 2;
        a.process(rev).unwrap();
        assert!(a.tx[1].inflight.is_empty(), "piggybacked ack retired both");
        // And the data itself was delivered.
        assert_eq!(a.pending.take(1, 9).unwrap().payload, vec![42]);
    }

    #[test]
    fn reverse_data_piggybacks_owed_ack() {
        let (mut a, _b, _det) = pair();
        // A frame from rank 1 is delivered: a now owes an ack.
        let mut m = data(1, 0, 9, vec![5]);
        m.seq = 1;
        a.process(m).unwrap();
        assert!(a.ack_owed[1].is_some());
        // Sending data back to rank 1 piggybacks the cumulative ack.
        a.send(data(0, 1, 7, vec![6])).unwrap();
        assert!(a.ack_owed[1].is_none());
        assert_eq!(a.stats.piggyback_acks, 1);
        assert_eq!(a.tx[1].inflight[0].msg.ack, 1);
    }

    #[test]
    fn purge_keeps_sequence_state() {
        let (_a, mut b, _det) = pair();
        let mut m1 = data(0, 1, 7, vec![1]);
        m1.seq = 1;
        b.process(m1).unwrap();
        assert_eq!(b.purge(), 1);
        assert_eq!(b.expected[0], 1, "sequence state survives purge");
        // A retransmitted seq 1 after the purge is recognized as a dup.
        let mut dup = data(0, 1, 7, vec![1]);
        dup.seq = 1;
        b.process(dup).unwrap();
        assert_eq!(b.pending.len(), 0);
        assert_eq!(b.link_stats().dups_dropped, 1);
    }

    #[test]
    fn stop_and_wait_mode_allows_one_frame_in_flight() {
        let cfg = Reliability {
            rto: Duration::from_millis(5),
            max_rto: Duration::from_millis(10),
            max_retries: 50,
            wire: WireTuning::stop_and_wait(),
            ..Reliability::default()
        };
        let (mut a, mut b, _det) = pair_with(cfg);
        std::thread::scope(|s| {
            let ha = s.spawn(move || {
                // The second send must block until the first is acked.
                a.send(data(0, 1, 7, vec![1])).unwrap();
                a.send(data(0, 1, 7, vec![2])).unwrap();
                a.flush(Instant::now() + Duration::from_secs(5)).unwrap();
                a
            });
            let m1 = b.recv_match(0, 7, Duration::from_secs(5)).unwrap();
            let m2 = b.recv_match(0, 7, Duration::from_secs(5)).unwrap();
            assert_eq!((m1.payload[0], m2.payload[0]), (1, 2));
            let a = ha.join().unwrap();
            let stats = a.link_stats();
            // Window never held more than one frame.
            assert_eq!(stats.window_occupancy_sum, stats.window_samples);
            assert_eq!(stats.piggyback_acks, 0);
        });
    }

    /// Rewind a link's last-heard stamp so the watchdog sees silence.
    fn silence(t: &mut ReliableTransport, peer: usize, for_: Duration) {
        t.last_heard[peer] = Instant::now().checked_sub(for_).expect("short rewind");
    }

    #[test]
    fn probe_answered_proves_liveness() {
        let cfg = Reliability::default().with_probing(Duration::from_millis(1), 3);
        let (mut a, mut b, det) = pair_with(cfg);
        // A caller is blocked on peer 1, which has been silent well past
        // the probe interval: the watchdog must probe.
        a.note_watch(1);
        silence(&mut a, 1, Duration::from_secs(1));
        a.pump().unwrap();
        assert_eq!(a.link_stats().probes_sent, 1);
        assert!(a.probe[1].is_some());
        // The peer answers the probe; the reply stands the watchdog down.
        b.poll(Duration::from_millis(20)).unwrap();
        assert_eq!(b.link_stats().probe_replies, 1);
        a.poll(Duration::from_millis(20)).unwrap();
        assert!(a.probe[1].is_none(), "probe reply is a heartbeat");
        assert_eq!(a.probe_strikes[1], 0);
        assert!(det.snapshot().is_empty(), "a slow peer is not a dead peer");
    }

    #[test]
    fn silent_watched_peer_escalates_to_the_detector() {
        let (tx0, mb0) = Mailbox::new(0);
        let (tx1, _mb1_unpolled) = Mailbox::new(1); // SIGSTOP-style: never answers
        let det = Arc::new(FailureDetector::new(2));
        let mut a = ReliableTransport::new(
            Box::new(ChannelTransport::new(vec![tx0, tx1], mb0)),
            0,
            2,
            Reliability::default().with_probing(Duration::from_millis(1), 2),
            Arc::clone(&det),
        );
        silence(&mut a, 1, Duration::from_secs(1));
        let mut escalated = false;
        for _ in 0..200 {
            a.note_watch(1);
            match a.poll(Duration::from_millis(2)) {
                Ok(()) => {}
                Err(NetError::RanksFailed { ranks }) => {
                    assert_eq!(ranks, vec![1]);
                    escalated = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(escalated, "unanswered probes must escalate");
        assert!(det.is_dead(1));
        assert_eq!(a.link_stats().stall_escalations, 1);
        assert!(a.link_stats().probes_sent >= 1);
    }

    #[test]
    fn unwatched_silence_is_never_probed() {
        // An idle link is not a straggler: without a blocked caller the
        // watchdog must not probe, however long the silence.
        let (mut a, _b, det) = pair();
        silence(&mut a, 1, Duration::from_secs(5));
        for _ in 0..50 {
            a.poll(Duration::ZERO).unwrap();
        }
        assert_eq!(a.link_stats().probes_sent, 0);
        assert!(det.snapshot().is_empty());
    }

    #[test]
    fn first_watch_starts_the_silence_clock() {
        // A peer nobody waited on has been "silent" since construction;
        // the first wait on it must get a full probe interval before the
        // watchdog spends a probe, not an immediate one.
        let cfg = Reliability::default().with_probing(Duration::from_millis(40), 3);
        let (mut a, _b, _det) = pair_with(cfg);
        silence(&mut a, 1, Duration::from_secs(5));
        a.note_watch(1);
        a.pump().unwrap();
        assert_eq!(a.link_stats().probes_sent, 0, "stale silence was counted");
        // Watched silence past the interval is still probed.
        silence(&mut a, 1, Duration::from_secs(5));
        a.note_watch(1);
        a.pump().unwrap();
        assert_eq!(a.link_stats().probes_sent, 1);
    }

    #[test]
    fn deadline_aborts_a_blocked_recv_within_a_slice() {
        let (mut a, _b, _det) = pair();
        a.deadline.arm(Duration::from_millis(5));
        let start = Instant::now();
        // The per-call timeout is far longer than the budget: the armed
        // deadline must win.
        let err = a.recv_match(1, 7, Duration::from_secs(30)).unwrap_err();
        assert!(matches!(err, NetError::DeadlineExceeded { rank: 0, .. }));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline must abort the wait, not the caller's timeout"
        );
    }

    #[test]
    fn cancelled_deadline_aborts_send_backpressure() {
        let cfg = Reliability {
            wire: WireTuning::default().with_window(1),
            rto: Duration::from_millis(1),
            max_rto: Duration::from_millis(2),
            max_retries: u32::MAX,
            ..Reliability::default()
        };
        let (tx0, mb0) = Mailbox::new(0);
        let (tx1, _mb1_unpolled) = Mailbox::new(1);
        let det = Arc::new(FailureDetector::new(2));
        let mut a = ReliableTransport::new(
            Box::new(ChannelTransport::new(vec![tx0, tx1], mb0)),
            0,
            2,
            cfg,
            Arc::clone(&det),
        )
        .with_deadline(Deadline::new());
        let cancel = a.deadline.clone();
        a.deadline.arm(Duration::from_secs(60));
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                cancel.cancel();
            });
            // Stop-and-wait against a peer that never acks: without the
            // cancellation this would spin until the 60 s budget.
            let start = Instant::now();
            let err = a.send(data(0, 1, 7, vec![1])).unwrap_err();
            assert!(matches!(err, NetError::DeadlineExceeded { rank: 0, .. }));
            assert!(start.elapsed() < Duration::from_secs(5));
        });
    }
}

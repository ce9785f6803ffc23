//! The per-rank communication endpoint.
//!
//! An [`Endpoint`] is handed to each SPMD thread by
//! [`crate::Cluster::run`]. Its central primitive is [`Endpoint::round`]:
//! one synchronous communication round in the k-port model — up to `k`
//! sends to distinct peers and up to `k` receives from distinct peers,
//! all counted against the paper's `C1`/`C2` measures.
//!
//! A round's receives complete in one engine: scan every outstanding
//! `(from, tag)` with a non-blocking `try_match`, and when a whole pass
//! matched nothing, sleep in [`Transport::wait_any`] until a message
//! arrives *that no pass has looked at yet*. Waking whenever anything at
//! all is parked would spin — a neighbour a round ahead has almost always
//! left a message here that no current spec wants — and with more ranks
//! than cores the spinning rank holds the core its peer needs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::deadline::Deadline;
use crate::error::NetError;
use crate::failure::FailureDetector;
use crate::fault::{FaultPlan, RoundClock};
use crate::frame::HEADER;
use crate::message::{payload_checksum, Message, Tag};
use crate::metrics::RankMetrics;
use crate::pool::BufferPool;
use crate::trace::{Trace, TraceEvent};
use crate::transport::Transport;

/// How often a blocked receive re-checks the failure detector: short
/// enough that a cluster-wide failure verdict interrupts waiters well
/// before their own timeout would fire.
const FAILOVER_POLL: Duration = Duration::from_millis(2);

/// One outgoing message in a round.
#[derive(Debug, Clone, Copy)]
pub struct SendSpec<'a> {
    /// Destination rank.
    pub to: usize,
    /// Message tag.
    pub tag: Tag,
    /// Payload.
    pub payload: &'a [u8],
}

/// One expected incoming message in a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvSpec {
    /// Source rank.
    pub from: usize,
    /// Expected tag.
    pub tag: Tag,
}

/// One outgoing message described as a span list over a source buffer —
/// the gather fast path's iovec.
///
/// Where a [`SendSpec`] hands the round a payload that the caller already
/// packed contiguous (one memcpy) and the endpoint then stages into a
/// pooled buffer (a second memcpy), a gather spec hands the endpoint the
/// *span list* and the endpoint gathers the spans straight into the
/// pooled staging buffer the transport writes out — one memcpy total.
/// The message's payload is the spans' bytes concatenated in order.
#[derive(Debug, Clone, Copy)]
pub struct GatherSendSpec<'a> {
    /// Destination rank.
    pub to: usize,
    /// Message tag.
    pub tag: Tag,
    /// The buffer the spans index into.
    pub src: &'a [u8],
    /// `(byte_offset, byte_len)` spans of `src`, concatenated in order.
    pub spans: &'a [(usize, usize)],
}

impl GatherSendSpec<'_> {
    /// Total payload bytes (sum of span lengths).
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.iter().map(|&(_, len)| len).sum()
    }

    /// Whether the payload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A rank's handle onto the cluster.
pub struct Endpoint {
    rank: usize,
    size: usize,
    ports: usize,
    transport: Box<dyn Transport>,
    metrics: RankMetrics,
    trace: Option<Trace>,
    faults: Arc<FaultPlan>,
    timeout: Duration,
    pool: Arc<BufferPool>,
    detector: Option<Arc<FailureDetector>>,
    /// The failure-detector version this rank has acknowledged (see
    /// [`Endpoint::acknowledge_failures`]). Receive waits abort only on
    /// failures *newer* than this, so a resilient caller that has
    /// already shrunk around the known dead can keep communicating.
    seen_version: u64,
    /// Whether outbound payloads are checksummed (on exactly when the
    /// fault plan can corrupt the wire, so the fault-free hot path pays
    /// nothing).
    checksums: bool,
    /// Scratch for [`check_peers`](Self::check_peers): one flag per
    /// rank, all clear between calls.
    peer_seen: Vec<bool>,
    /// The rank's completion budget, shared with the reliability layer
    /// (and armed cluster-wide by `ClusterConfig::with_deadline` or per
    /// collective by the API layer). Unarmed checks are one atomic load.
    deadline: Deadline,
    /// Cluster-shared completed-rounds clock: published after every
    /// round so the wire-level fault layer can key partitions and cuts
    /// on round numbers even for retransmissions and acks.
    round_clock: Arc<RoundClock>,
}

impl Endpoint {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        size: usize,
        ports: usize,
        transport: Box<dyn Transport>,
        trace: Option<Trace>,
        faults: Arc<FaultPlan>,
        timeout: Duration,
        pool: Arc<BufferPool>,
        detector: Option<Arc<FailureDetector>>,
        deadline: Deadline,
        round_clock: Arc<RoundClock>,
    ) -> Self {
        let checksums = faults.has_wire_faults();
        Self {
            rank,
            size,
            ports,
            transport,
            metrics: RankMetrics::default(),
            trace,
            faults,
            timeout,
            pool,
            detector,
            seen_version: 0,
            checksums,
            peer_seen: vec![false; size],
            deadline,
            round_clock,
        }
    }

    /// The rank's completion budget. Arm it (directly or through
    /// [`crate::comm::Comm::arm_deadline`]) to bound how long any
    /// blocking wait in this endpoint *or its reliability sublayer* can
    /// park before failing with [`NetError::DeadlineExceeded`].
    #[must_use]
    pub fn deadline(&self) -> &Deadline {
        &self.deadline
    }

    /// The reliability sublayer's adaptive worst-link RTO, if any
    /// (see [`Transport::rto_hint`]).
    #[must_use]
    pub fn rto_hint(&self) -> Option<Duration> {
        self.transport.rto_hint()
    }

    /// How long this endpoint's transport wants the end-of-run linger
    /// phase to last (see [`Transport::linger_hint`]).
    #[must_use]
    pub fn linger_hint(&self) -> Option<Duration> {
        self.transport.linger_hint()
    }

    /// The cluster-shared buffer pool backing this endpoint's data plane.
    #[must_use]
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Acquire pooled scratch of exactly `len` bytes (not zeroed: write first).
    #[must_use]
    pub fn acquire(&self, len: usize) -> Vec<u8> {
        self.pool.acquire(len)
    }

    /// Return a buffer (scratch or a received payload) to the pool.
    pub fn recycle(&self, buf: Vec<u8>) {
        self.pool.recycle(buf);
    }

    /// The physical-substrate label of this endpoint's transport stack
    /// (see [`Transport::kind`]) — the key calibration caches file their
    /// fitted `(β, τ)` under.
    #[must_use]
    pub fn transport_kind(&self) -> &'static str {
        self.transport.kind()
    }

    /// This rank's id in `[0, size)`.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processors in the cluster.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Ports per processor (`k` in the paper's model).
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Rounds completed so far.
    #[must_use]
    pub fn rounds_completed(&self) -> u64 {
        self.metrics.rounds()
    }

    fn check_peers(
        &mut self,
        peers: impl Iterator<Item = usize> + Clone,
        direction: &'static str,
        count: usize,
    ) -> Result<(), NetError> {
        if count > self.ports {
            return Err(NetError::PortLimit {
                rank: self.rank,
                requested: count,
                ports: self.ports,
                direction,
            });
        }
        let mut verdict = Ok(());
        for p in peers.clone() {
            if p >= self.size || p == self.rank {
                verdict = Err(NetError::BadPeer {
                    rank: self.rank,
                    peer: p,
                    size: self.size,
                });
                break;
            }
            if std::mem::replace(&mut self.peer_seen[p], true) {
                verdict = Err(NetError::DuplicatePeer {
                    rank: self.rank,
                    peer: p,
                });
                break;
            }
        }
        // Clear exactly the flags set above (at most `ports` of them).
        for p in peers.filter(|&p| p < self.size) {
            self.peer_seen[p] = false;
        }
        verdict
    }

    /// [`round_gather`](Self::round_gather) with contiguous payloads:
    /// each send is one span, its whole payload.
    ///
    /// # Errors
    ///
    /// Port-model violations, timeouts, and fault-injection kills.
    pub fn round(
        &mut self,
        sends: &[SendSpec<'_>],
        recvs: &[RecvSpec],
    ) -> Result<Vec<Message>, NetError> {
        let spans: Vec<[(usize, usize); 1]> =
            sends.iter().map(|s| [(0, s.payload.len())]).collect();
        let sends: Vec<GatherSendSpec<'_>> = (sends.iter().zip(&spans))
            .map(|(s, spans)| GatherSendSpec {
                to: s.to,
                tag: s.tag,
                src: s.payload,
                spans,
            })
            .collect();
        self.round_gather(&sends, recvs)
    }

    /// Execute one synchronous communication round: inject all `sends`
    /// (concurrently, one port each), then wait for all `recvs`. Returns
    /// the received messages in the order of `recvs`. Each outgoing
    /// message is a span list over caller memory, gathered straight into
    /// the pooled staging buffer the transport writes: the one copy the
    /// send side makes.
    ///
    /// # Errors
    ///
    /// Port-model violations, timeouts, and fault-injection kills; also
    /// [`NetError::App`] when a span indexes out of its source buffer.
    pub fn round_gather(
        &mut self,
        sends: &[GatherSendSpec<'_>],
        recvs: &[RecvSpec],
    ) -> Result<Vec<Message>, NetError> {
        let completed = self.round_preflight(sends, recvs)?;

        let wall_send = Instant::now();
        for s in sends {
            let total = s.len();
            let bytes = total as u64;
            if let Some(trace) = &self.trace {
                trace.record(TraceEvent {
                    src: self.rank,
                    dst: s.to,
                    tag: s.tag,
                    bytes,
                    round: completed,
                });
            }
            if self.faults.should_drop(self.rank, s.to, completed) {
                continue;
            }
            // Gather the spans directly into the pooled staging buffer:
            // the single copy of the fast path, with room behind it for a
            // datagram transport to frame in place. A zero-byte token (the
            // barrier's) takes no buffer and never locks the shared pool.
            let mut payload = if total > 0 {
                self.pool.acquire_empty(total + HEADER)
            } else {
                Vec::new()
            };
            for &(start, len) in s.spans {
                let Some(src) = s.src.get(start..start + len) else {
                    self.pool.recycle(payload);
                    return Err(NetError::App(format!(
                        "round_gather: span ({start}, {len}) out of bounds for a \
                         {}-byte source buffer",
                        s.src.len()
                    )));
                };
                payload.extend_from_slice(src);
            }
            self.metrics.bytes_copied += bytes;
            self.metrics.bytes_gathered += bytes;
            self.transport.send(Message {
                src: self.rank,
                dst: s.to,
                tag: s.tag,
                checksum: self.checksums.then(|| payload_checksum(&payload)),
                payload,
                seq: 0,
                ack: 0,
            })?;
        }
        self.metrics.wall_send_ns += wall_send.elapsed().as_nanos() as u64;

        // Complete the receives, record the round (dropped sends count).
        let wall_recv = Instant::now();
        let msgs = self.recv_all_checked(recvs)?;
        self.metrics.wall_recv_ns += wall_recv.elapsed().as_nanos() as u64;
        let sent_sizes = sends.iter().map(|s| s.len() as u64);
        let send_max = self.metrics.record_round(sent_sizes, recvs.len());
        self.round_clock.advance(self.rank, send_max);
        Ok(msgs)
    }

    /// Round prologue: fault-plan kill check plus port-model validation
    /// of both peer lists. Returns the completed-round count (the current
    /// round's index).
    fn round_preflight(
        &mut self,
        sends: &[GatherSendSpec<'_>],
        recvs: &[RecvSpec],
    ) -> Result<u64, NetError> {
        let completed = self.metrics.rounds();
        if let Some(after) = self.faults.should_kill(self.rank, completed) {
            // Announce our own death before exiting so every waiter gets
            // the cluster-wide verdict instead of a secondary timeout.
            if let Some(det) = &self.detector {
                det.mark_dead(self.rank);
            }
            return Err(NetError::Killed {
                rank: self.rank,
                after_round: after,
            });
        }
        if let Some(pause) = self.faults.stall_for(self.rank, completed) {
            // A SIGSTOP-style stall: the whole rank thread goes dark —
            // no sends, no receives, and crucially no ack traffic from
            // its reliability sublayer — for the scheduled pause. Peers
            // must distinguish this from a crash via probing.
            std::thread::sleep(pause);
        }
        self.deadline.check(self.rank)?;
        self.check_peers(sends.iter().map(|s| s.to), "send", sends.len())?;
        self.check_peers(recvs.iter().map(|r| r.from), "recv", recvs.len())?;
        Ok(completed)
    }

    /// Complete all of a round's receives concurrently: poll every still
    /// outstanding `(from, tag)` with a non-blocking `try_match` so the
    /// `k` ports fill in *arrival* order (no head-of-line blocking on
    /// the first spec), and sleep in the transport's `wait_any` when a
    /// whole pass matched nothing — until something arrives that no pass
    /// has examined, not merely while something is parked. One deadline
    /// covers the whole port group. Between waits the cluster's failure
    /// detector is checked, so a rank death anywhere interrupts this
    /// waiter with the cluster-wide [`NetError::RanksFailed`] verdict
    /// instead of letting it idle into an unattributed
    /// [`NetError::Timeout`]. Payload checksums are verified, surfacing
    /// wire corruption as [`NetError::Corrupt`].
    fn recv_all_checked(&mut self, recvs: &[RecvSpec]) -> Result<Vec<Message>, NetError> {
        let mut slots: Vec<Option<Message>> = (0..recvs.len()).map(|_| None).collect();
        let mut remaining = recvs.len();
        let deadline = Instant::now() + self.timeout;
        while remaining > 0 {
            self.deadline.check(self.rank)?;
            if let Some(det) = &self.detector {
                if det.version() > self.seen_version {
                    return Err(NetError::RanksFailed {
                        ranks: det.snapshot(),
                    });
                }
            }
            let mut progressed = false;
            self.metrics.scan_passes += 1;
            for (slot, r) in slots.iter_mut().zip(recvs) {
                if slot.is_some() {
                    continue;
                }
                if let Some(msg) = self.transport.try_match(r.from, r.tag)? {
                    if !msg.checksum_ok() {
                        return Err(NetError::Corrupt {
                            rank: self.rank,
                            from: r.from,
                            tag: r.tag,
                        });
                    }
                    *slot = Some(msg);
                    remaining -= 1;
                    progressed = true;
                }
            }
            if remaining == 0 || progressed {
                continue;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // Report the first unfilled spec.
                let r = slots
                    .iter()
                    .zip(recvs)
                    .find(|(s, _)| s.is_none())
                    .map(|(_, r)| r)
                    .expect("remaining > 0");
                return Err(NetError::Timeout {
                    rank: self.rank,
                    from: r.from,
                    tag: r.tag,
                    waited: self.timeout,
                });
            }
            self.transport
                .wait_any(self.deadline.clamp(left.min(FAILOVER_POLL)))?;
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all slots filled"))
            .collect())
    }

    /// The ranks the cluster has agreed are dead (empty when no failure
    /// detector is installed, i.e. a plain non-resilient run).
    #[must_use]
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.detector
            .as_ref()
            .map_or_else(Vec::new, |d| d.snapshot())
    }

    /// Incorporate the cluster's failure verdict: returns a
    /// version-consistent `(version, dead ranks)` pair and stops receive
    /// waits from aborting on those now-acknowledged failures — only
    /// *newer* failures interrupt from here on.
    ///
    /// The version doubles as a retry **epoch**: the dead set is
    /// monotone and the version counts it, so any two ranks that
    /// acknowledged the same version hold exactly the same dead set and
    /// will build identical survivor groups. Resilient collectives tag
    /// each attempt with this epoch (see
    /// [`crate::comm::GroupComm::with_epoch`]) so ranks holding
    /// different views can never exchange mis-shaped messages.
    pub fn acknowledge_failures(&mut self) -> (u64, Vec<usize>) {
        match &self.detector {
            Some(det) => {
                let (version, dead) = det.consistent_snapshot();
                self.seen_version = version;
                (version, dead)
            }
            None => (0, Vec::new()),
        }
    }

    /// Discard every in-flight message queued at this rank — stale
    /// traffic from an aborted collective attempt, before retrying among
    /// survivors. Returns how many messages were discarded.
    pub fn purge_stale(&mut self) -> usize {
        self.transport.purge()
    }

    /// Drive the transport for one short slice without expecting data:
    /// the reliability sublayer gets a chance to re-acknowledge
    /// retransmitted frames. Anything delivered (stale duplicates) is
    /// discarded. Used by the cluster's linger phase so a rank that
    /// finishes first keeps answering acks until every peer is done.
    pub fn service(&mut self, slice: Duration) {
        let _ = self.transport.recv_any(slice);
    }

    /// Drain the reliability sublayer's unacked tail: block (while still
    /// pumping the protocol) until every windowed in-flight frame toward
    /// a live peer has been cumulatively acknowledged, or `deadline`
    /// passes. Ranks call this before declaring a phase complete so
    /// shutdown cannot race a frame that was sent but never made it out
    /// of the window.
    pub fn flush(&mut self, deadline: Instant) {
        let _ = self.transport.flush(deadline);
    }

    /// The paper's `send_and_recv` (Appendix A): send `payload` to rank
    /// `to` and receive one message from rank `from`, in one round.
    ///
    /// The returned buffer comes from the cluster pool; hand it back via
    /// [`Endpoint::recycle`] to keep the steady state allocation-free.
    ///
    /// # Errors
    ///
    /// See [`Endpoint::round`].
    pub fn send_and_recv(
        &mut self,
        to: usize,
        payload: &[u8],
        from: usize,
        tag: Tag,
    ) -> Result<Vec<u8>, NetError> {
        let msgs = self.round(&[SendSpec { to, tag, payload }], &[RecvSpec { from, tag }])?;
        Ok(msgs
            .into_iter()
            .next()
            .expect("exactly one recv requested")
            .payload)
    }

    /// Borrowed-payload `send_and_recv`: the received bytes land in a
    /// prefix of `out` (no buffer changes hands) and the transport's
    /// pooled payload is recycled immediately. Returns the number of
    /// bytes received.
    ///
    /// # Errors
    ///
    /// See [`Endpoint::round`]; additionally [`NetError::App`] if `out`
    /// is too small for the received message.
    pub fn send_and_recv_into(
        &mut self,
        to: usize,
        payload: &[u8],
        from: usize,
        tag: Tag,
        out: &mut [u8],
    ) -> Result<usize, NetError> {
        let msgs = self.round(&[SendSpec { to, tag, payload }], &[RecvSpec { from, tag }])?;
        let msg = msgs.into_iter().next().expect("exactly one recv requested");
        let len = msg.payload.len();
        let Some(dst) = out.get_mut(..len) else {
            return Err(NetError::App(format!(
                "send_and_recv_into: output buffer of {} bytes cannot hold {len}-byte message",
                out.len()
            )));
        };
        dst.copy_from_slice(&msg.payload);
        self.metrics.bytes_copied += len as u64;
        self.pool.recycle(msg.payload);
        Ok(len)
    }

    /// A round in which this rank neither sends nor receives, keeping its
    /// round counter aligned with ranks that do communicate.
    ///
    /// # Errors
    ///
    /// Fault-injection kills.
    pub fn idle_round(&mut self) -> Result<(), NetError> {
        self.round(&[], &[]).map(|_| ())
    }

    /// The failure-detector version this endpoint has witnessed (via a
    /// round abort or [`Endpoint::acknowledge_failures`]). The cluster
    /// epilogue compares it against the final version to decide whether
    /// a rank that returned `Ok` actually saw the deaths the rest of the
    /// cluster agreed on.
    pub(crate) fn failures_seen(&self) -> u64 {
        self.seen_version
    }

    pub(crate) fn into_metrics(mut self) -> RankMetrics {
        // Fold the wire sublayers' counters (fault injection,
        // reliability) into this rank's metrics.
        self.metrics.link = self.metrics.link.merged(&self.transport.link_stats());
        self.metrics
    }
}

impl core::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("ports", &self.ports)
            .field("rounds", &self.metrics.rounds())
            .finish_non_exhaustive()
    }
}

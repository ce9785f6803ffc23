//! Transport abstraction: how bytes physically move between ranks.
//!
//! The model layer (rounds, ports, virtual time, metrics) is transport
//! independent; an [`Endpoint`](crate::Endpoint) drives any [`Transport`].
//! Two implementations ship:
//!
//! * [`ChannelTransport`] — in-process `std::sync::mpsc` channels (the
//!   default; [`Delivery::Datagram`], so the ARQ keeps a clean test bed);
//! * [`crate::socket::UdsTransport`] — framed Unix datagram sockets (Unix
//!   only): real kernel I/O that neither loses nor reorders a message, so
//!   [`Delivery::Reliable`].

use std::time::Duration;

use crate::error::NetError;
use crate::mailbox::{MailSender, Mailbox};
use crate::message::{Message, Tag};
use crate::metrics::LinkStats;

/// What a [`Transport`] promises about the messages it accepts — the
/// property the cluster runners read to decide whether the
/// sliding-window ARQ ([`crate::reliable::ReliableTransport`]) has
/// anything to add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Each message may be lost, duplicated, reordered or damaged on its
    /// own: reliability has to be built above.
    Datagram,
    /// Every accepted message arrives exactly once, intact and in
    /// per-pair order, or the failure is reported.
    Reliable,
}

/// A rank's physical connection to its peers.
pub trait Transport: Send {
    /// Deliver `msg` toward `msg.dst`. Must not deadlock against peers
    /// that are themselves mid-send (implementations either buffer
    /// unboundedly or interleave draining with sending).
    ///
    /// # Errors
    ///
    /// Transport-level failures.
    fn send(&mut self, msg: Message) -> Result<(), NetError>;

    /// Receive the next message from `from` with tag `tag`, waiting at
    /// most `timeout`. Out-of-order messages are parked internally.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] or [`NetError::Disconnected`].
    fn recv_match(&mut self, from: usize, tag: Tag, timeout: Duration)
        -> Result<Message, NetError>;

    /// Receive the next message from *any* source (parked messages
    /// first), waiting at most `timeout`; `Ok(None)` when nothing
    /// arrived. The reliability layer drives its ack/retransmit protocol
    /// through this.
    ///
    /// # Errors
    ///
    /// Transport-level failures other than an empty queue.
    fn recv_any(&mut self, timeout: Duration) -> Result<Option<Message>, NetError>;

    /// Non-blocking selective receive: return the next `(from, tag)`
    /// match if one is already queued or parked, without waiting. The
    /// multiport round executor polls all of a round's expected receives
    /// through this, completing them in *arrival* order instead of
    /// head-of-line-blocking on the first spec.
    ///
    /// # Errors
    ///
    /// Transport-level failures other than "nothing there yet".
    fn try_match(&mut self, from: usize, tag: Tag) -> Result<Option<Message>, NetError> {
        match self.recv_match(from, tag, Duration::ZERO) {
            Ok(m) => Ok(Some(m)),
            Err(NetError::Timeout { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Sleep until there is something *new* for the caller to scan, or
    /// `timeout` elapses — without consuming it. This is the idle edge of
    /// the round engine, and the contract is edge-triggered:
    ///
    /// * return at once if any receive call (`try_match`, `recv_match`, a
    ///   drain inside `send`) has parked a message since the previous
    ///   `wait_any` — no scan has examined it, whichever spec was being
    ///   polled when it came off the wire;
    /// * otherwise block on the transport's own wakeup primitive (a
    ///   channel wait, a blocking read with deadline) until a message
    ///   arrives, park it, and return — **however many messages are
    ///   already parked**.
    ///
    /// Returning whenever something is parked is a busy loop in disguise:
    /// a peer one round ahead has almost always left a message no current
    /// spec matches, the caller re-scans, finds nothing, waits, returns at
    /// once, and burns its time slice while the peer it actually needs
    /// cannot get a core. Required, not provided: a sleeping default
    /// would add wake-up latency, a polling one would spin.
    ///
    /// A sublayer that consumes everything from the wire into its own
    /// queue (the ARQ) may simply block on the wire: it cannot spin.
    ///
    /// # Errors
    ///
    /// Transport-level failures.
    fn wait_any(&mut self, timeout: Duration) -> Result<(), NetError>;

    /// A short stable label for the kind of wire this transport drives
    /// (`"channel"`, `"uds"`, …). Wrapping sublayers (fault injection,
    /// reliability) must delegate to the wrapped transport, so the label
    /// identifies the *physical* substrate — calibration caches key their
    /// fitted `(β, τ)` by it.
    fn kind(&self) -> &'static str {
        "generic"
    }

    /// The delivery guarantee of this transport *as stacked*. A wrapper
    /// that can lose or damage messages (fault injection) answers
    /// [`Delivery::Datagram`] whatever it wraps, which is why the
    /// provided default does not delegate.
    fn delivery(&self) -> Delivery {
        Delivery::Datagram
    }

    /// Drive any reliability sublayer until every in-flight frame this
    /// rank sent has been acknowledged (or its destination is known
    /// dead), giving up at `deadline`. A no-op for raw transports. The
    /// cluster runner flushes before counting a rank as done so shutdown
    /// can never race a still-unacked tail.
    ///
    /// # Errors
    ///
    /// Transport-level failures.
    fn flush(&mut self, deadline: std::time::Instant) -> Result<(), NetError> {
        let _ = deadline;
        Ok(())
    }

    /// Discard every queued and parked message (stale traffic from an
    /// aborted collective attempt). Returns how many were discarded.
    fn purge(&mut self) -> usize {
        0
    }

    /// Counters accumulated by wire sublayers (fault injection,
    /// reliability); zero for plain transports.
    fn link_stats(&self) -> LinkStats {
        LinkStats::default()
    }

    /// The reliability sublayer's current worst-link retransmission
    /// timeout, adapted from measured round-trip samples (and therefore
    /// warmed by calibration traffic). `None` for transports without a
    /// reliability sublayer. Callers use it to scale patience windows —
    /// per-round sub-budgets under a deadline, end-of-run linger — with
    /// the link latency actually observed instead of a fixed constant.
    fn rto_hint(&self) -> Option<Duration> {
        None
    }

    /// How long this transport wants the end-of-run linger phase to
    /// last: enough time for peers to retransmit un-acked tails and get
    /// answered, derived from the adaptive RTO. `None` for transports
    /// that need no linger (no reliability sublayer).
    fn linger_hint(&self) -> Option<Duration> {
        None
    }
}

/// The default in-process transport: one unbounded channel per rank.
#[derive(Debug)]
pub struct ChannelTransport {
    senders: Vec<MailSender>,
    mailbox: Mailbox,
}

impl ChannelTransport {
    /// Assemble from the peer sender list and this rank's mailbox.
    #[must_use]
    pub fn new(senders: Vec<MailSender>, mailbox: Mailbox) -> Self {
        Self { senders, mailbox }
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, msg: Message) -> Result<(), NetError> {
        // A send toward a dead rank is accepted by the wire; the failure
        // shows up at whoever waits for that rank.
        let _ = self.senders[msg.dst].send(msg);
        Ok(())
    }

    fn recv_match(
        &mut self,
        from: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        self.mailbox.recv_match(from, tag, timeout)
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        Ok(self.mailbox.recv_any(timeout))
    }

    fn wait_any(&mut self, timeout: Duration) -> Result<(), NetError> {
        self.mailbox.wait_any(timeout);
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "channel"
    }

    fn purge(&mut self) -> usize {
        self.mailbox.purge()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_transport_round_trip() {
        let (tx, mb) = Mailbox::new(1);
        let mut t = ChannelTransport::new(vec![tx.clone(), tx], mb);
        t.send(Message {
            src: 0,
            dst: 1,
            tag: 9,
            payload: vec![1, 2],
            arrival: 0.5,
            seq: 0,
            ack: 0,
            checksum: None,
        })
        .unwrap();
        let m = t.recv_match(0, 9, Duration::from_millis(50)).unwrap();
        assert_eq!(m.payload, vec![1, 2]);
        assert_eq!(m.arrival, 0.5);
    }
}

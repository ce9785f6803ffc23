//! Per-rank inbox with selective receive.
//!
//! Each rank owns one unbounded channel that all peers send into. A
//! receive names `(src, tag)`; messages that arrive out of order are
//! parked until asked for — the standard MPI-style matching discipline.
//!
//! [`Mailbox::wait_any`] is where an idle rank sleeps, and it is
//! edge-triggered: it returns at once only if a message was parked since
//! the previous wait, and otherwise blocks on the channel. Returning
//! whenever *anything* is parked would spin, because a message from a
//! peer that is a round ahead matches no outstanding receive and stays
//! parked for the whole wait (the rule is stated once, in `parked.rs`).

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use crate::error::NetError;
use crate::message::{Message, Tag};
use crate::parked::Parked;

/// Sending half of a mailbox (cloneable, one per peer).
pub type MailSender = Sender<Message>;

/// The receiving side owned by a single rank.
#[derive(Debug)]
pub struct Mailbox {
    rank: usize,
    rx: Receiver<Message>,
    parked: Parked,
}

impl Mailbox {
    /// Create a mailbox pair for `rank`.
    #[must_use]
    pub fn new(rank: usize) -> (MailSender, Self) {
        let (tx, rx) = std::sync::mpsc::channel();
        (
            tx,
            Self {
                rank,
                rx,
                parked: Parked::default(),
            },
        )
    }

    /// Number of parked (unmatched) messages.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.parked.len()
    }

    /// Receive the next message from *any* source, waiting at most
    /// `timeout`. Parked messages are served first (FIFO); `None` on
    /// timeout or when every sender hung up. Used by the reliability
    /// layer, which must see acks and data from all peers while it
    /// waits.
    pub fn recv_any(&mut self, timeout: Duration) -> Option<Message> {
        self.parked
            .pop_any()
            .or_else(|| self.rx.recv_timeout(timeout).ok())
    }

    /// Sleep until there is something new to scan, or `timeout` elapses,
    /// *without* consuming anything from the matching discipline: a
    /// message pulled off the channel is parked, not returned. Returns at
    /// once if a receive parked a message since the previous wait (no
    /// scan has looked at it yet); otherwise blocks on the channel, however
    /// many already-examined messages sit parked. Returns `true` if there
    /// is something new. This is the idle edge of the event-driven round
    /// executor: an idle endpoint burns no CPU and no retry budget.
    pub fn wait_any(&mut self, timeout: Duration) -> bool {
        if self.parked.mark_seen() {
            return true;
        }
        match self.rx.recv_timeout(timeout) {
            Ok(m) => {
                self.parked.park(m);
                self.parked.mark_seen()
            }
            Err(_) => false,
        }
    }

    /// Discard every queued and parked message (stale traffic from an
    /// aborted collective attempt). Returns how many were discarded.
    pub fn purge(&mut self) -> usize {
        let mut n = self.parked.purge();
        while self.rx.try_recv().is_ok() {
            n += 1;
        }
        n
    }

    /// Receive the next message from `from` with tag `tag`, waiting at
    /// most `timeout`.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if nothing matches within the deadline;
    /// [`NetError::Disconnected`] if all senders hung up.
    pub fn recv_match(
        &mut self,
        from: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        // Check the parked messages first (FIFO per (src, tag) pair).
        if let Some(m) = self.parked.take(from, tag) {
            return Ok(m);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(m) if m.src == from && m.tag == tag => return Ok(m),
                Ok(m) => self.parked.park(m),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(NetError::Timeout {
                        rank: self.rank,
                        from,
                        tag,
                        waited: timeout,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(NetError::Disconnected { peer: from })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, tag: Tag, byte: u8) -> Message {
        Message {
            src,
            dst: 0,
            tag,
            payload: vec![byte],
            arrival: 0.0,
            seq: 0,
            ack: 0,
            checksum: None,
        }
    }

    #[test]
    fn in_order_delivery() {
        let (tx, mut mb) = Mailbox::new(0);
        tx.send(msg(1, 5, 0xAA)).unwrap();
        let m = mb.recv_match(1, 5, Duration::from_millis(100)).unwrap();
        assert_eq!(m.payload, vec![0xAA]);
    }

    #[test]
    fn out_of_order_messages_are_parked() {
        let (tx, mut mb) = Mailbox::new(0);
        tx.send(msg(2, 9, 1)).unwrap(); // not what we ask for first
        tx.send(msg(1, 5, 2)).unwrap();
        let m = mb.recv_match(1, 5, Duration::from_millis(100)).unwrap();
        assert_eq!(m.payload, vec![2]);
        assert_eq!(mb.pending_len(), 1);
        let m = mb.recv_match(2, 9, Duration::from_millis(100)).unwrap();
        assert_eq!(m.payload, vec![1]);
        assert_eq!(mb.pending_len(), 0);
    }

    #[test]
    fn fifo_within_same_src_tag() {
        let (tx, mut mb) = Mailbox::new(0);
        tx.send(msg(1, 5, 1)).unwrap();
        tx.send(msg(1, 5, 2)).unwrap();
        // Park both by first asking for a different match that arrives later.
        tx.send(msg(3, 3, 9)).unwrap();
        let _ = mb.recv_match(3, 3, Duration::from_millis(100)).unwrap();
        let a = mb.recv_match(1, 5, Duration::from_millis(100)).unwrap();
        let b = mb.recv_match(1, 5, Duration::from_millis(100)).unwrap();
        assert_eq!((a.payload[0], b.payload[0]), (1, 2));
    }

    #[test]
    fn timeout_on_missing_message() {
        let (_tx, mut mb) = Mailbox::new(4);
        let err = mb.recv_match(1, 5, Duration::from_millis(20)).unwrap_err();
        assert!(matches!(
            err,
            NetError::Timeout {
                rank: 4,
                from: 1,
                tag: 5,
                ..
            }
        ));
    }

    #[test]
    fn disconnected_when_all_senders_dropped() {
        let (tx, mut mb) = Mailbox::new(0);
        drop(tx);
        let err = mb.recv_match(1, 5, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, NetError::Disconnected { peer: 1 });
    }

    #[test]
    fn wait_any_parks_without_consuming() {
        let (tx, mut mb) = Mailbox::new(0);
        assert!(!mb.wait_any(Duration::from_millis(10)));
        tx.send(msg(1, 5, 3)).unwrap();
        assert!(mb.wait_any(Duration::from_millis(100)));
        assert_eq!(mb.pending_len(), 1);
        // The parked message is still matchable.
        let m = mb.recv_match(1, 5, Duration::from_millis(10)).unwrap();
        assert_eq!(m.payload, vec![3]);
        // The wait reported that arrival once; a message it has already
        // reported does not wake it again (the timing cases live with the
        // rule, in `parked.rs`).
        tx.send(msg(2, 7, 4)).unwrap();
        assert!(mb.wait_any(Duration::from_millis(100)));
        assert!(!mb.wait_any(Duration::ZERO));
        assert_eq!(mb.pending_len(), 1);
    }

    #[test]
    fn tag_mismatch_is_parked_not_returned() {
        let (tx, mut mb) = Mailbox::new(0);
        tx.send(msg(1, 6, 7)).unwrap();
        let err = mb.recv_match(1, 5, Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }));
        assert_eq!(mb.pending_len(), 1);
    }
}

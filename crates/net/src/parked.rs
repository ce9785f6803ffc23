//! The parked-message queue and the rule an idle rank waits by.
//!
//! A selective receive names `(src, tag)`; whatever else comes off the
//! wire first is *parked* here until a later receive asks for it — the
//! MPI matching discipline, kept once for the mailbox, the frame
//! assembler and the reliability layer.
//!
//! The queue also carries the idle edge of the round engine. A rank that
//! scanned all its outstanding specs and matched nothing must sleep until
//! there is something *new* to scan. "Something is parked" is the wrong
//! test: in Bruck and dissemination patterns a neighbour is routinely a
//! round or a lap ahead, so a message no current spec wants is almost
//! always parked, a level-triggered wait returns at once forever, and the
//! rank burns its time slice re-scanning while the peer it needs cannot
//! get a core. So every [`park`](Parked::park) sets an *unseen* mark and
//! a wait consumes it ([`mark_seen`](Parked::mark_seen)): a wait returns
//! at once only when something was parked since the previous wait —
//! whichever scan parked it, so a message for spec 1 that arrived while
//! spec 2 drained the wire is never slept on — and otherwise blocks on
//! the wire itself.

use std::collections::VecDeque;

use crate::message::{Message, Tag};

/// FIFO of messages that arrived before anyone asked for them.
#[derive(Debug, Default)]
pub(crate) struct Parked {
    queue: VecDeque<Message>,
    /// Something was parked since the last wait looked.
    unseen: bool,
}

impl Parked {
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Queue `msg` behind everything already parked and mark the queue
    /// unseen.
    pub(crate) fn park(&mut self, msg: Message) {
        self.queue.push_back(msg);
        self.unseen = true;
    }

    /// Remove the oldest message from `from` with tag `tag`.
    pub(crate) fn take(&mut self, from: usize, tag: Tag) -> Option<Message> {
        let pos = self
            .queue
            .iter()
            .position(|m| m.src == from && m.tag == tag)?;
        self.queue.remove(pos)
    }

    /// Remove the oldest message, whatever its source or tag.
    pub(crate) fn pop_any(&mut self) -> Option<Message> {
        self.queue.pop_front()
    }

    /// Discard everything, mark included. Returns how many messages went.
    pub(crate) fn purge(&mut self) -> usize {
        self.unseen = false;
        let n = self.queue.len();
        self.queue.clear();
        n
    }

    /// The wait's half of the rule: whether anything was parked since the
    /// last call, clearing the mark. A wait calls this before blocking
    /// (true means return now, the caller has scanning to do) and again
    /// after it parked what woke it (the caller is about to scan that).
    pub(crate) fn mark_seen(&mut self) -> bool {
        std::mem::take(&mut self.unseen)
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;
    use crate::mailbox::Mailbox;
    use crate::transport::{ChannelTransport, Transport};

    fn msg(src: usize, tag: Tag, byte: u8) -> Message {
        Message {
            src,
            dst: 0,
            tag,
            payload: vec![byte],
            seq: 0,
            ack: 0,
            checksum: None,
        }
    }

    #[test]
    fn fifo_per_pair_and_pop_any_in_arrival_order() {
        let mut q = Parked::default();
        q.park(msg(1, 5, 1));
        q.park(msg(2, 9, 2));
        q.park(msg(1, 5, 3));
        assert_eq!(q.len(), 3);
        assert!(q.take(1, 6).is_none());
        assert_eq!(q.take(1, 5).unwrap().payload, vec![1]);
        assert_eq!(q.pop_any().unwrap().payload, vec![2]);
        assert_eq!(q.take(1, 5).unwrap().payload, vec![3]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn every_park_marks_and_one_look_clears() {
        let mut q = Parked::default();
        assert!(!q.mark_seen());
        q.park(msg(1, 5, 1));
        q.park(msg(1, 5, 2));
        assert!(q.mark_seen());
        assert!(!q.mark_seen(), "the mark is an edge, not a level");
        // Taking a message is not an arrival.
        let _ = q.take(1, 5);
        assert!(!q.mark_seen());
        q.park(msg(2, 2, 3));
        assert_eq!(q.purge(), 2);
        assert!(!q.mark_seen(), "purge clears the mark");
    }

    /// How long `t.wait_any(timeout)` took.
    fn timed_wait(t: &mut dyn Transport, timeout: Duration) -> Duration {
        let start = Instant::now();
        t.wait_any(timeout).unwrap();
        start.elapsed()
    }

    /// The three cases of the wait rule against a bare transport whose
    /// rank 0 is `t`; `send` puts a message on rank 0's wire. A failed
    /// scan is a `try_match` answering `None`.
    fn check_wait_rule(t: &mut dyn Transport, send: &mut dyn FnMut(Message)) {
        const SLICE: Duration = Duration::from_millis(50);
        const BLOCKED: Duration = Duration::from_millis(45);
        // "At once", with room for a descheduled test thread: well short
        // of a slice is all the cases below need to tell apart.
        const PROMPT: Duration = Duration::from_millis(25);

        // 1. A parked message nobody is asking for does not keep the
        //    rank awake: once a wait has reported it and a scan has
        //    looked, every further wait blocks for its whole slice.
        send(msg(2, 9, 1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.try_match(1, 5).unwrap().is_none());
        assert!(timed_wait(t, SLICE) < PROMPT, "first wait reports the park");
        assert!(t.try_match(1, 5).unwrap().is_none());
        assert!(timed_wait(t, SLICE) >= BLOCKED);
        assert!(timed_wait(t, SLICE) >= BLOCKED, "and blocks again");

        // 2. A message parked by the scan of *another* spec is unseen:
        //    the next wait returns at once and the re-scan finds it.
        send(msg(1, 5, 2));
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.try_match(3, 3).unwrap().is_none());
        assert!(timed_wait(t, SLICE) < PROMPT);
        assert_eq!(t.try_match(1, 5).unwrap().unwrap().payload, vec![2]);
        assert!(timed_wait(t, SLICE) >= BLOCKED);

        // A wait that is woken by an arrival parks it for the scan that
        // follows and does not count it twice.
        send(msg(3, 3, 3));
        assert!(timed_wait(t, SLICE) < PROMPT);
        assert!(t.try_match(1, 5).unwrap().is_none());
        assert!(timed_wait(t, SLICE) >= BLOCKED);

        // 3. Purge discards the mark with the messages.
        send(msg(2, 9, 4));
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.try_match(1, 5).unwrap().is_none());
        assert_eq!(t.purge(), 3);
        assert!(timed_wait(t, SLICE) >= BLOCKED);
        assert!(t.try_match(2, 9).unwrap().is_none());
    }

    #[test]
    fn channel_wait_blocks_unless_a_scan_parked_something_new() {
        let (tx, mb) = Mailbox::new(0);
        let mut t = ChannelTransport::new(vec![tx.clone()], mb);
        check_wait_rule(&mut t, &mut |m| tx.send(m).unwrap());
    }

    #[cfg(unix)]
    #[test]
    fn uds_wait_blocks_unless_a_scan_parked_something_new() {
        use crate::socket::UdsTransport;
        let dir = std::env::temp_dir().join(format!("bruck-uds-parked-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut t = UdsTransport::bind(&dir, 0, 2).unwrap();
        let mut peer = UdsTransport::bind(&dir, 1, 2).unwrap();
        check_wait_rule(&mut t, &mut |m| peer.send(m).unwrap());
        drop((t, peer));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

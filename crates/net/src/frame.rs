//! Wire framing and fragment reassembly shared by the real-I/O
//! transports.
//!
//! The Unix-datagram transport ([`crate::socket`]) ships one frame per
//! datagram; the TCP stream transport ([`crate::tcp`]) wraps the same
//! frame in a length + destination prefix so many ranks can multiplex
//! one node-pair stream. Both fragment payloads at [`FRAG_PAYLOAD`] and
//! reassemble with the same `Assembler`, so a message is bit-identical
//! whichever wire carried it.
//!
//! **Who copies what, once.** A frame is the fragment's bytes with the
//! `HEADER` behind them. A datagram goes to the kernel straight from the
//! payload (`send_framed`: the last header in reserved spare capacity, an
//! earlier one on loan over the next fragment's first bytes), and a
//! single fragment of at least `IN_PLACE` bytes is parked as the very
//! buffer it was read into (`Assembler::accept_datagram`); any other
//! fragment is copied to offset `frag_idx · FRAG_PAYLOAD` of its message's
//! payload, and a stream sender copies it into its outbox. User-space
//! copies per payload byte, gather and deliver included: channels 2, Unix
//! datagrams 2 (3 below `IN_PLACE` or over one fragment), TCP 4. Payload
//! capacities are [`BufferPool`] size classes, so a recycled buffer is
//! shelved where the next acquire of its length looks.
//!
//! **What a fragment must look like.** The wire is not trusted. A frame
//! is folded in only if
//!
//! * `1 ≤ frag_count ≤ MAX_MESSAGE / FRAG_PAYLOAD` and
//!   `frag_idx < frag_count`;
//! * every fragment but the last carries exactly [`FRAG_PAYLOAD`] bytes,
//!   and the last of several carries `1..=FRAG_PAYLOAD` (only a
//!   one-fragment message may be empty) — so a fragment's offset follows
//!   from its index alone and the message's length from its last
//!   fragment;
//! * its header equals, index aside, that of the first fragment seen for
//!   the same `(src, msg_id)`.
//!
//! Fragments may arrive in any order and more than once. The payload
//! buffer grows to a fragment's end only when that fragment is in hand —
//! never to what `frag_count` promises — and never past [`MAX_MESSAGE`].
//! A frame that breaks a rule is refused with the reason and changes
//! nothing: the datagram transport drops and counts it, the stream
//! transport fails the link, neither panics.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::NetError;
use crate::message::{Message, Tag};
use crate::parked::Parked;
use crate::pool::{class_for, BufferPool};

/// Max payload bytes per wire fragment. Sized so a 64 KiB block — the
/// common collective block size — travels as a single fragment (one
/// syscall, no reassembly), while still fitting under the kernel's
/// default datagram `SO_SNDBUF` (208 KiB) with header room to spare.
pub const FRAG_PAYLOAD: usize = 64 * 1024;

/// Largest message the framing layer carries. Senders refuse a longer
/// payload; a receiver refuses any fragment that would end past it, so
/// a corrupt or hostile fragment index buys at most this much memory.
pub const MAX_MESSAGE: usize = 1 << 30;

// src, tag, msg id, frag idx, frag count, seq, ack, checksum flag + value
pub(crate) const HEADER: usize = 4 + 8 + 8 + 4 + 4 + 8 + 8 + 1 + 4;

/// Smallest single fragment whose receive buffer becomes the payload; a
/// smaller one is copied out, so that it does not hold a fragment-sized
/// buffer.
pub(crate) const IN_PLACE: usize = 4096;

/// The fixed-size head of every fragment: the message envelope plus the
/// fragment's place in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    pub(crate) src: usize,
    pub(crate) tag: Tag,
    pub(crate) msg_id: u64,
    pub(crate) frag_idx: u32,
    pub(crate) frag_count: u32,
    pub(crate) seq: u64,
    pub(crate) ack: u64,
    pub(crate) checksum: Option<u32>,
}

impl FrameHeader {
    /// The header of `msg`'s fragment 0, sent as `msg_id`.
    ///
    /// # Errors
    ///
    /// A payload longer than [`MAX_MESSAGE`].
    pub(crate) fn first(msg: &Message, msg_id: u64) -> Result<Self, NetError> {
        Ok(Self {
            src: msg.src,
            tag: msg.tag,
            msg_id,
            frag_idx: 0,
            frag_count: frag_count(msg.payload.len())?,
            seq: msg.seq,
            ack: msg.ack,
            checksum: msg.checksum,
        })
    }

    /// Whether `self` and `other` can head fragments of one message:
    /// equal in everything but the index.
    fn same_message(&self, other: &Self) -> bool {
        Self {
            frag_idx: 0,
            ..*self
        } == Self {
            frag_idx: 0,
            ..*other
        }
    }
}

/// How many fragments a payload of `len` bytes travels as (an empty one
/// as a single empty fragment).
fn frag_count(len: usize) -> Result<u32, NetError> {
    if len > MAX_MESSAGE {
        return Err(NetError::App(format!(
            "message of {len} bytes exceeds the {MAX_MESSAGE}-byte limit"
        )));
    }
    Ok(len.div_ceil(FRAG_PAYLOAD).max(1) as u32)
}

/// The bytes fragment `idx` of `payload` carries (empty for the single
/// fragment of an empty payload).
pub(crate) fn fragment(payload: &[u8], idx: u32) -> &[u8] {
    let at = (idx as usize * FRAG_PAYLOAD).min(payload.len());
    &payload[at..payload.len().min(at + FRAG_PAYLOAD)]
}

/// `head`'s [`HEADER`] wire bytes.
fn header_bytes(head: &FrameHeader) -> [u8; HEADER] {
    let mut out = [0u8; HEADER];
    let mut at = 0;
    for field in [
        &(head.src as u32).to_le_bytes()[..],
        &head.tag.to_le_bytes(),
        &head.msg_id.to_le_bytes(),
        &head.frag_idx.to_le_bytes(),
        &head.frag_count.to_le_bytes(),
        &head.seq.to_le_bytes(),
        &head.ack.to_le_bytes(),
        &[u8::from(head.checksum.is_some())],
        &head.checksum.unwrap_or(0).to_le_bytes(),
    ] {
        out[at..at + field.len()].copy_from_slice(field);
        at += field.len();
    }
    out
}

/// Append `head`'s [`HEADER`] wire bytes to `buf`, behind the fragment's
/// bytes: a stream sender frames straight into its outbox.
pub(crate) fn encode_header(buf: &mut Vec<u8>, head: &FrameHeader) {
    buf.extend_from_slice(&header_bytes(head));
}

/// Hand each fragment of `payload` to `send` as one frame, framed where
/// it lies (see the module docs): the last header goes into the spare
/// capacity behind the payload, which grows only if there is less than
/// [`HEADER`] of it, and an earlier one borrows the bytes behind its
/// fragment until `send` returns. `payload` comes back as it went in; the
/// first error ends the message.
pub(crate) fn send_framed<E>(
    payload: &mut Vec<u8>,
    mut head: FrameHeader,
    mut send: impl FnMut(u32, &[u8]) -> Result<(), E>,
) -> Result<(), E> {
    let len = payload.len();
    if len == 0 {
        return send(0, &header_bytes(&head));
    }
    let mut sent = Ok(());
    for idx in 0..head.frag_count {
        head.frag_idx = idx;
        let at = idx as usize * FRAG_PAYLOAD;
        let end = len.min(at + FRAG_PAYLOAD);
        let slot = end..end + HEADER;
        // The next fragment's bytes under the slot, put back after.
        let lent = len.min(slot.end) - end;
        let mut kept = [0u8; HEADER];
        kept[..lent].copy_from_slice(&payload[end..end + lent]);
        if payload.len() < slot.end {
            payload.resize(slot.end, 0);
        }
        payload[slot.clone()].copy_from_slice(&header_bytes(&head));
        sent = send(idx, &payload[at..slot.end]);
        payload[end..end + lent].copy_from_slice(&kept[..lent]);
        if sent.is_err() {
            break;
        }
    }
    payload.truncate(len);
    sent
}

/// One fragment as it lies in a receive buffer.
pub(crate) struct Frame<'a> {
    pub(crate) head: FrameHeader,
    pub(crate) chunk: &'a [u8],
}

/// Split a frame into its fragment's bytes and the header behind them.
pub(crate) fn decode_frame(buf: &[u8]) -> Result<Frame<'_>, NetError> {
    let Some(split) = buf.len().checked_sub(HEADER) else {
        return Err(NetError::App(format!(
            "runt datagram of {} bytes",
            buf.len()
        )));
    };
    let (chunk, head) = buf.split_at(split);
    let get = |at: usize, len: usize| &head[at..at + len];
    Ok(Frame {
        head: FrameHeader {
            src: u32::from_le_bytes(get(0, 4).try_into().expect("4 bytes")) as usize,
            tag: Tag::from_le_bytes(get(4, 8).try_into().expect("8 bytes")),
            msg_id: u64::from_le_bytes(get(12, 8).try_into().expect("8 bytes")),
            frag_idx: u32::from_le_bytes(get(20, 4).try_into().expect("4 bytes")),
            frag_count: u32::from_le_bytes(get(24, 4).try_into().expect("4 bytes")),
            seq: u64::from_le_bytes(get(28, 8).try_into().expect("8 bytes")),
            ack: u64::from_le_bytes(get(36, 8).try_into().expect("8 bytes")),
            checksum: (head[44] != 0)
                .then(|| u32::from_le_bytes(get(45, 4).try_into().expect("4 bytes"))),
        },
        chunk,
    })
}

/// An empty buffer with room for `len` bytes: pooled when there is a
/// pool, and with a size-class capacity either way.
fn buffer(pool: Option<&BufferPool>, len: usize) -> Vec<u8> {
    match pool {
        _ if len == 0 => Vec::new(),
        Some(pool) => pool.acquire_empty(len),
        None => Vec::with_capacity(class_for(len)),
    }
}

/// The fragment rules (see the module docs) a frame's header and length
/// must keep before anything is folded in.
fn check(head: &FrameHeader, len: usize) -> Result<(), &'static str> {
    let (count, idx) = (head.frag_count as usize, head.frag_idx as usize);
    if count == 0 {
        return Err("fragment count 0");
    }
    if count > MAX_MESSAGE / FRAG_PAYLOAD {
        return Err("message longer than MAX_MESSAGE");
    }
    if idx >= count {
        return Err("fragment index past the fragment count");
    }
    let sized = match len {
        len if idx + 1 < count => len == FRAG_PAYLOAD,
        0 => count == 1,
        len => len <= FRAG_PAYLOAD,
    };
    if sized {
        Ok(())
    } else {
        Err("fragment length does not fit its index")
    }
}

/// A message some of whose fragments have arrived.
struct Reassembly {
    /// The first fragment's header; every later one must agree with it.
    first: FrameHeader,
    /// Fragment `i` lies at `i · FRAG_PAYLOAD`; the length is the end of
    /// the furthest fragment so far, the capacity a pool size class.
    payload: Vec<u8>,
    /// Bit `i`: fragment `i` is in place. Grown to the highest index
    /// seen, like the payload.
    seen: Vec<u64>,
    received: u32,
}

/// Fragment reassembly for one receiving rank, shared by the datagram
/// and TCP stream transports: frames keyed by `(src, msg_id)` land in
/// one payload buffer per message until it is whole, then surface as a
/// [`Message`] in `parked`.
pub(crate) struct Assembler {
    /// The destination stamped on a completed message. A stream end that
    /// reassembles for every rank of its node sets it per frame.
    pub(crate) rank: usize,
    pub(crate) parked: Parked,
    partial: HashMap<(usize, u64), Reassembly>,
    /// Where payload buffers come from and displaced ones go; `None`
    /// allocates them (with a size-class capacity all the same).
    pool: Option<Arc<BufferPool>>,
}

impl Assembler {
    pub(crate) fn new(rank: usize) -> Self {
        Self {
            rank,
            parked: Parked::default(),
            partial: HashMap::new(),
            pool: None,
        }
    }

    /// Like [`new`](Self::new), with payload buffers drawn from `pool`.
    pub(crate) fn with_pool(rank: usize, pool: Arc<BufferPool>) -> Self {
        Self {
            pool: Some(pool),
            ..Self::new(rank)
        }
    }

    fn park(&mut self, head: &FrameHeader, payload: Vec<u8>) {
        self.parked.park(Message {
            src: head.src,
            dst: self.rank,
            tag: head.tag,
            payload,
            seq: head.seq,
            ack: head.ack,
            checksum: head.checksum,
        });
    }

    /// Fold one decoded frame in; complete messages land in `parked`.
    ///
    /// # Errors
    ///
    /// Which fragment rule (see the module docs) the frame breaks.
    /// Nothing is allocated or changed for a refused frame.
    pub(crate) fn accept(&mut self, frame: Frame<'_>) -> Result<(), &'static str> {
        let Frame { head, chunk } = frame;
        check(&head, chunk.len())?;
        let (count, idx) = (head.frag_count as usize, head.frag_idx as usize);
        let pool = self.pool.as_deref();
        if count == 1 {
            let mut payload = buffer(pool, chunk.len());
            payload.extend_from_slice(chunk);
            self.park(&head, payload);
            return Ok(());
        }

        let key = (head.src, head.msg_id);
        let entry = self.partial.entry(key).or_insert_with(|| Reassembly {
            first: head,
            payload: Vec::new(),
            seen: Vec::new(),
            received: 0,
        });
        if !head.same_message(&entry.first) {
            return Err("fragment header differs from the message's first");
        }
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if entry.seen.get(word).is_some_and(|w| w & bit != 0) {
            return Ok(()); // a duplicate: already in place
        }
        let (at, end) = (idx * FRAG_PAYLOAD, idx * FRAG_PAYLOAD + chunk.len());
        if end > entry.payload.capacity() {
            let mut grown = buffer(pool, end);
            grown.extend_from_slice(&entry.payload);
            let small = std::mem::replace(&mut entry.payload, grown);
            if let Some(pool) = pool {
                pool.recycle(small);
            }
        }
        if at >= entry.payload.len() {
            // Fragments that overtook this one leave a gap, theirs to
            // fill when they arrive.
            entry.payload.resize(at, 0);
            entry.payload.extend_from_slice(chunk);
        } else {
            // Filling such a gap. Equal headers and fixed-size non-final
            // fragments mean the range is there; a refusal, not a panic,
            // if that reasoning ever fails.
            entry
                .payload
                .get_mut(at..end)
                .ok_or("fragment overlaps the end of its message")?
                .copy_from_slice(chunk);
        }
        if entry.seen.len() <= word {
            entry.seen.resize(word + 1, 0);
        }
        entry.seen[word] |= bit;
        entry.received += 1;
        if entry.received == entry.first.frag_count {
            let done = self.partial.remove(&key).expect("entry just updated");
            self.park(&done.first, done.payload);
        }
        Ok(())
    }

    /// Fold in the datagram in `buf[..len]`. A single fragment of at
    /// least [`IN_PLACE`] bytes is parked as `buf` itself, truncated to
    /// the fragment, and `buf` is left empty for the caller to refill;
    /// any other frame is [`accept`](Self::accept)ed and `buf` stays as
    /// it was, refused or not.
    ///
    /// # Errors
    ///
    /// A runt datagram, or the fragment rule the frame breaks.
    pub(crate) fn accept_datagram(
        &mut self,
        buf: &mut Vec<u8>,
        len: usize,
    ) -> Result<(), &'static str> {
        let frame = decode_frame(&buf[..len]).map_err(|_| "runt datagram")?;
        let (head, chunk) = (frame.head, frame.chunk.len());
        if head.frag_count != 1 || chunk < IN_PLACE {
            return self.accept(frame);
        }
        check(&head, chunk)?;
        let mut payload = std::mem::take(buf);
        payload.truncate(chunk);
        self.park(&head, payload);
        Ok(())
    }

    /// Discard everything buffered (complete and partial). Returns how
    /// many messages were thrown away.
    pub(crate) fn clear(&mut self) -> usize {
        let n = self.parked.purge() + self.partial.len();
        self.partial.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(src: usize, msg_id: u64, frag_idx: u32, frag_count: u32) -> FrameHeader {
        FrameHeader {
            src,
            tag: 7,
            msg_id,
            frag_idx,
            frag_count,
            seq: 9,
            ack: 4,
            checksum: Some(0xDEAD),
        }
    }

    fn encode(head: &FrameHeader, chunk: &[u8]) -> Vec<u8> {
        let mut f = chunk.to_vec();
        encode_header(&mut f, head);
        f
    }

    /// Deterministic bytes for a message of `len` bytes.
    fn body(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ (i >> 8) as u8 ^ salt)
            .collect()
    }

    /// The wire frames of `payload` sent by rank 1 as `msg_id`.
    fn frames_of(payload: &[u8], msg_id: u64) -> Vec<Vec<u8>> {
        let msg = Message {
            src: 1,
            dst: 0,
            tag: 7,
            payload: payload.to_vec(),
            seq: 9,
            ack: 4,
            checksum: None,
        };
        let mut head = FrameHeader::first(&msg, msg_id).unwrap();
        (0..head.frag_count)
            .map(|idx| {
                head.frag_idx = idx;
                encode(&head, fragment(payload, idx))
            })
            .collect()
    }

    fn feed(asm: &mut Assembler, wire: &[u8]) -> Result<(), &'static str> {
        asm.accept(decode_frame(wire).expect("a whole header"))
    }

    #[test]
    fn frame_round_trip() {
        let h = head(7, 9, 2, 5);
        let f = encode(&h, &[1, 2, 3]);
        assert_eq!(f.len(), HEADER + 3);
        let d = decode_frame(&f).unwrap();
        assert_eq!(d.head, h);
        assert_eq!(d.chunk, &[1, 2, 3]);
    }

    #[test]
    fn frame_round_trip_no_checksum() {
        let h = FrameHeader {
            checksum: None,
            ..head(1, 3, 0, 1)
        };
        let wire = encode(&h, &[]);
        let d = decode_frame(&wire).unwrap();
        assert_eq!(d.head, h);
        assert!(d.chunk.is_empty());
    }

    #[test]
    fn header_appends_to_what_the_buffer_holds() {
        let mut buf = vec![0xAA; 8];
        encode_header(&mut buf, &head(1, 2, 0, 1));
        assert_eq!(buf.len(), 8 + HEADER);
        assert_eq!(&buf[..8], &[0xAA; 8]);
        assert_eq!(decode_frame(&buf[8..]).unwrap().head, head(1, 2, 0, 1));
    }

    #[test]
    fn runt_frame_rejected() {
        assert!(decode_frame(&[0u8; 10]).is_err());
    }

    #[test]
    fn fragments_cover_the_payload_and_an_empty_one_is_one_empty_fragment() {
        let payload = body(2 * FRAG_PAYLOAD + 5, 0);
        let wire = frames_of(&payload, 0);
        assert_eq!(wire.len(), 3);
        assert_eq!(wire[2].len(), HEADER + 5);
        let empty = frames_of(&[], 0);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty[0].len(), HEADER);
        assert_eq!(frames_of(&payload[..FRAG_PAYLOAD], 0).len(), 1);
    }

    #[test]
    fn oversize_message_is_refused_by_the_sender() {
        assert_eq!(frag_count(0).unwrap(), 1);
        assert_eq!(frag_count(FRAG_PAYLOAD + 1).unwrap(), 2);
        let most = frag_count(MAX_MESSAGE).unwrap();
        assert_eq!(most as usize, MAX_MESSAGE / FRAG_PAYLOAD);
        assert!(frag_count(MAX_MESSAGE + 1).is_err());
    }

    #[test]
    fn any_arrival_order_reassembles_the_same_bytes() {
        let payload = body(3 * FRAG_PAYLOAD + 1234, 3);
        let wire = frames_of(&payload, 5);
        let orders: [(&str, &[usize]); 5] = [
            ("in order", &[0, 1, 2, 3]),
            ("reversed", &[3, 2, 1, 0]),
            ("last first", &[3, 0, 1, 2]),
            ("duplicated", &[0, 0, 1, 1, 2, 0, 3]),
            ("shuffled with duplicates", &[2, 0, 2, 3, 3, 1]),
        ];
        for (name, order) in orders {
            let mut asm = Assembler::new(3);
            for (at, &i) in order.iter().enumerate() {
                assert_eq!(asm.parked.len(), 0, "{name}: whole before fragment {at}");
                feed(&mut asm, &wire[i]).unwrap();
            }
            assert_eq!(asm.parked.len(), 1, "{name}");
            assert!(asm.partial.is_empty(), "{name}");
            let m = asm.parked.take(1, 7).expect("complete message");
            assert!(m.payload == payload, "{name}: bytes differ");
            assert_eq!((m.src, m.dst, m.seq, m.ack), (1, 3, 9, 4), "{name}");
            assert_eq!(m.payload.capacity(), class_for(payload.len()), "{name}");
        }
    }

    #[test]
    fn late_duplicate_of_a_finished_message_completes_nothing() {
        let payload = body(FRAG_PAYLOAD + 1, 0);
        let wire = frames_of(&payload, 8);
        let mut asm = Assembler::new(0);
        feed(&mut asm, &wire[0]).unwrap();
        feed(&mut asm, &wire[1]).unwrap();
        assert_eq!(asm.parked.len(), 1);
        // A straggling copy of fragment 0 opens a new partial entry that
        // a purge throws away with the finished message.
        feed(&mut asm, &wire[0]).unwrap();
        assert_eq!(asm.parked.len(), 1);
        assert_eq!(asm.clear(), 2);
        assert!(asm.partial.is_empty());
    }

    #[test]
    fn interleaved_messages_from_two_sources_stay_apart() {
        let (a, b) = (body(2 * FRAG_PAYLOAD, 1), body(FRAG_PAYLOAD + 9, 2));
        let wire_a = frames_of(&a, 4);
        let mut wire_b = frames_of(&b, 4);
        for f in &mut wire_b {
            let src = f.len() - HEADER;
            f[src..src + 4].copy_from_slice(&2u32.to_le_bytes()); // same msg id, src 2
        }
        let mut asm = Assembler::new(0);
        for f in [&wire_a[0], &wire_b[1], &wire_a[1], &wire_b[0]] {
            feed(&mut asm, f).unwrap();
        }
        assert!(asm.parked.take(1, 7).unwrap().payload == a);
        assert!(asm.parked.take(2, 7).unwrap().payload == b);
    }

    #[test]
    fn reassembled_payload_is_the_buffer_the_next_acquire_gets() {
        // 3 fragments, 196 608 bytes: not a power of two. With an exact
        // capacity the pool would shelve it under 131 072 and the next
        // acquire (class 262 144) would allocate afresh, every time.
        let payload = body(3 * FRAG_PAYLOAD, 0);
        let pool = Arc::new(BufferPool::new());
        let mut asm = Assembler::with_pool(0, Arc::clone(&pool));
        for f in frames_of(&payload, 1) {
            feed(&mut asm, &f).unwrap();
        }
        let m = asm.parked.pop_any().unwrap();
        assert_eq!(m.payload.len(), 3 * FRAG_PAYLOAD);
        let before = pool.stats();
        let ptr = m.payload.as_ptr();
        pool.recycle(m.payload);
        let again = pool.acquire(3 * FRAG_PAYLOAD);
        assert_eq!(again.as_ptr(), ptr, "a different buffer came back");
        let after = pool.stats();
        assert_eq!(after.reused, before.reused + 1);
        assert_eq!(after.allocated, before.allocated);
        // The buffers outgrown on the way went back to the pool too:
        // nothing the assembler acquired is lost to it.
        assert_eq!(after.recycled, after.allocated);

        // Without a pool the capacity is a size class all the same.
        let mut asm = Assembler::new(0);
        for f in frames_of(&payload, 1) {
            feed(&mut asm, &f).unwrap();
        }
        let unpooled = asm.parked.pop_any().unwrap().payload;
        assert_eq!(unpooled.capacity(), class_for(3 * FRAG_PAYLOAD));
    }

    #[test]
    fn every_fragment_rule_is_enforced() {
        let full = vec![7u8; FRAG_PAYLOAD];
        let refused = |asm: &mut Assembler, h: FrameHeader, chunk: &[u8]| {
            let before = (asm.parked.len(), asm.partial.len());
            let why = feed(asm, &encode(&h, chunk)).expect_err("must be refused");
            assert_eq!(
                (asm.parked.len(), asm.partial.len()),
                before,
                "a refused frame changed something ({why})"
            );
        };
        let mut asm = Assembler::new(0);
        refused(&mut asm, head(1, 1, 0, 0), &[1]);
        refused(&mut asm, head(1, 1, 0, u32::MAX), &full);
        refused(&mut asm, head(1, 1, 3, 3), &full);
        refused(&mut asm, head(1, 1, 1, 1), &[1]);
        // Short, long and empty fragments where the index fixes the size.
        refused(&mut asm, head(1, 1, 0, 3), &full[..100]);
        refused(&mut asm, head(1, 1, 2, 3), &[]);
        refused(&mut asm, head(1, 1, 0, 1), &[0u8; FRAG_PAYLOAD + 1]);
        refused(&mut asm, head(1, 1, 2, 3), &[0u8; FRAG_PAYLOAD + 1]);
        // A far index is legal only as far as MAX_MESSAGE reaches.
        let frags = (MAX_MESSAGE / FRAG_PAYLOAD) as u32;
        refused(&mut asm, head(1, 1, frags, frags + 1), &[1]);

        // Later fragments must repeat the first one's header.
        feed(&mut asm, &encode(&head(1, 1, 0, 3), &full)).unwrap();
        refused(&mut asm, head(1, 1, 1, 4), &full);
        let other = |f: fn(&mut FrameHeader)| {
            let mut h = head(1, 1, 1, 3);
            f(&mut h);
            h
        };
        refused(&mut asm, other(|h| h.tag = 8), &full);
        refused(&mut asm, other(|h| h.seq = 1), &full);
        refused(&mut asm, other(|h| h.checksum = None), &full);
        // ... and the message still completes from well-formed ones.
        feed(&mut asm, &encode(&head(1, 1, 2, 3), &[9])).unwrap();
        feed(&mut asm, &encode(&head(1, 1, 1, 3), &full)).unwrap();
        let m = asm.parked.pop_any().unwrap();
        assert_eq!(m.payload.len(), 2 * FRAG_PAYLOAD + 1);
        assert_eq!(m.payload[2 * FRAG_PAYLOAD], 9);
    }

    #[test]
    fn mutated_headers_never_panic_and_hold_no_more_than_they_brought() {
        // Fragments of real messages with header bytes overwritten at
        // random, truncated at random, and replayed out of order. What a
        // frame may cost is what its own bytes justify — the size class
        // of its own end offset — and only once it is accepted.
        let mut rng = 0x5eed_u64;
        let mut next = move || {
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let lens = [1, FRAG_PAYLOAD, 2 * FRAG_PAYLOAD + 77, 4 * FRAG_PAYLOAD];
        let sources: Vec<Vec<Vec<u8>>> = (0..lens.len())
            .map(|i| frames_of(&body(lens[i], i as u8), i as u64))
            .collect();
        // Unfinished messages are all the assembler keeps: finished ones
        // are taken off it at once.
        let held =
            |asm: &Assembler| -> usize { asm.partial.values().map(|r| r.payload.capacity()).sum() };
        let mut asm = Assembler::new(0);
        let (mut accepted, mut refused, mut budget) = (0u32, 0u32, 0usize);
        for trial in 0..10_000 {
            let msg = &sources[next() as usize % sources.len()];
            let mut wire = msg[next() as usize % msg.len()].clone();
            match next() % 8 {
                0 => wire.truncate(next() as usize % (wire.len() + 1)),
                1 => {} // verbatim: a replay or a duplicate
                _ => {
                    for _ in 0..1 + next() % 3 {
                        let at = wire.len() - HEADER + next() as usize % HEADER;
                        wire[at] = match next() % 4 {
                            0 => 0,
                            1 => 0xFF,
                            2 => wire[at].wrapping_add(1),
                            _ => next() as u8,
                        };
                    }
                }
            }
            let before = held(&asm);
            let Ok(frame) = decode_frame(&wire) else {
                refused += 1;
                continue;
            };
            let end = frame.head.frag_idx as usize * FRAG_PAYLOAD + frame.chunk.len();
            match asm.accept(frame) {
                Ok(()) => {
                    accepted += 1;
                    budget += class_for(end);
                    while asm.parked.pop_any().is_some() {}
                    assert!(held(&asm) <= before + class_for(end), "trial {trial}");
                }
                Err(_) => {
                    refused += 1;
                    assert_eq!(held(&asm), before, "trial {trial}: a refusal allocated");
                }
            }
            assert!(held(&asm) <= budget, "trial {trial}: {} held", held(&asm));
            if trial % 256 == 255 {
                asm.clear();
                budget = 0;
            }
        }
        assert!(
            accepted > 1_000 && refused > 1_000,
            "{accepted} / {refused}"
        );
    }
}

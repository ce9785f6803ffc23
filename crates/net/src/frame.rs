//! Wire framing and fragment reassembly shared by the real-I/O
//! transports.
//!
//! The Unix-datagram transport ([`crate::socket`]) ships one frame per
//! datagram; the TCP stream transport ([`crate::tcp`]) wraps the same
//! frame in a length + destination prefix so many ranks can multiplex
//! one node-pair stream. Both fragment payloads at [`FRAG_PAYLOAD`] and
//! reassemble with the same [`Assembler`], so a message is bit-identical
//! whichever wire carried it.

use std::collections::HashMap;

use crate::error::NetError;
use crate::message::{Message, Tag};
use crate::parked::Parked;

/// Max payload bytes per wire fragment. Sized so a 64 KiB block — the
/// common collective block size — travels as a single fragment (one
/// syscall, no reassembly copy), while still fitting under the kernel's
/// default datagram `SO_SNDBUF` (208 KiB) with header room to spare.
pub const FRAG_PAYLOAD: usize = 64 * 1024;

// src, tag, msg id, frag idx, frag count, arrival, seq, ack,
// checksum flag + value
pub(crate) const HEADER: usize = 4 + 8 + 8 + 4 + 4 + 8 + 8 + 8 + 1 + 4;

/// Encode one fragment into `buf` (cleared first). Writing into a
/// caller-owned buffer lets a transport reuse a single allocation for
/// every outbound frame — the practical stand-in for vectored writes.
#[allow(clippy::too_many_arguments)] // mirrors the frame header, field for field
pub(crate) fn encode_frame_into(
    buf: &mut Vec<u8>,
    src: usize,
    tag: Tag,
    msg_id: u64,
    frag_idx: u32,
    frag_count: u32,
    arrival: f64,
    seq: u64,
    ack: u64,
    checksum: Option<u32>,
    chunk: &[u8],
) {
    buf.clear();
    buf.reserve(HEADER + chunk.len());
    buf.extend_from_slice(&(src as u32).to_le_bytes());
    buf.extend_from_slice(&tag.to_le_bytes());
    buf.extend_from_slice(&msg_id.to_le_bytes());
    buf.extend_from_slice(&frag_idx.to_le_bytes());
    buf.extend_from_slice(&frag_count.to_le_bytes());
    buf.extend_from_slice(&arrival.to_bits().to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&ack.to_le_bytes());
    buf.push(u8::from(checksum.is_some()));
    buf.extend_from_slice(&checksum.unwrap_or(0).to_le_bytes());
    buf.extend_from_slice(chunk);
}

pub(crate) struct Frame {
    pub(crate) src: usize,
    pub(crate) tag: Tag,
    pub(crate) msg_id: u64,
    pub(crate) frag_idx: u32,
    pub(crate) frag_count: u32,
    pub(crate) arrival: f64,
    pub(crate) seq: u64,
    pub(crate) ack: u64,
    pub(crate) checksum: Option<u32>,
    pub(crate) chunk: Vec<u8>,
}

pub(crate) fn decode_frame(buf: &[u8]) -> Result<Frame, NetError> {
    if buf.len() < HEADER {
        return Err(NetError::App(format!(
            "runt datagram of {} bytes",
            buf.len()
        )));
    }
    let get = |at: usize, len: usize| &buf[at..at + len];
    Ok(Frame {
        src: u32::from_le_bytes(get(0, 4).try_into().expect("4 bytes")) as usize,
        tag: Tag::from_le_bytes(get(4, 8).try_into().expect("8 bytes")),
        msg_id: u64::from_le_bytes(get(12, 8).try_into().expect("8 bytes")),
        frag_idx: u32::from_le_bytes(get(20, 4).try_into().expect("4 bytes")),
        frag_count: u32::from_le_bytes(get(24, 4).try_into().expect("4 bytes")),
        arrival: f64::from_bits(u64::from_le_bytes(get(28, 8).try_into().expect("8 bytes"))),
        seq: u64::from_le_bytes(get(36, 8).try_into().expect("8 bytes")),
        ack: u64::from_le_bytes(get(44, 8).try_into().expect("8 bytes")),
        checksum: (buf[52] != 0)
            .then(|| u32::from_le_bytes(get(53, 4).try_into().expect("4 bytes"))),
        chunk: buf[HEADER..].to_vec(),
    })
}

struct Reassembly {
    tag: Tag,
    arrival: f64,
    seq: u64,
    ack: u64,
    checksum: Option<u32>,
    frag_count: u32,
    received: u32,
    chunks: Vec<Option<Vec<u8>>>,
}

/// Fragment reassembly for one receiving rank, shared by the datagram
/// and TCP stream transports: frames keyed by `(src, msg_id)` accumulate
/// until complete, then surface as whole [`Message`]s in `parked`.
pub(crate) struct Assembler {
    rank: usize,
    pub(crate) parked: Parked,
    partial: HashMap<(usize, u64), Reassembly>,
}

impl Assembler {
    pub(crate) fn new(rank: usize) -> Self {
        Self {
            rank,
            parked: Parked::default(),
            partial: HashMap::new(),
        }
    }

    /// Fold one decoded frame in; complete messages land in `parked`.
    pub(crate) fn accept(&mut self, frame: Frame) {
        if frame.frag_count == 1 {
            self.parked.park(Message {
                src: frame.src,
                dst: self.rank,
                tag: frame.tag,
                payload: frame.chunk,
                arrival: frame.arrival,
                seq: frame.seq,
                ack: frame.ack,
                checksum: frame.checksum,
            });
            return;
        }
        let key = (frame.src, frame.msg_id);
        let entry = self.partial.entry(key).or_insert_with(|| Reassembly {
            tag: frame.tag,
            arrival: frame.arrival,
            seq: frame.seq,
            ack: frame.ack,
            checksum: frame.checksum,
            frag_count: frame.frag_count,
            received: 0,
            chunks: vec![None; frame.frag_count as usize],
        });
        let idx = frame.frag_idx as usize;
        if idx < entry.chunks.len() && entry.chunks[idx].is_none() {
            entry.chunks[idx] = Some(frame.chunk);
            entry.received += 1;
        }
        if entry.received == entry.frag_count {
            let done = self.partial.remove(&key).expect("entry just updated");
            let payload: Vec<u8> = done
                .chunks
                .into_iter()
                .flat_map(|c| c.expect("all fragments present"))
                .collect();
            self.parked.park(Message {
                src: frame.src,
                dst: self.rank,
                tag: done.tag,
                payload,
                arrival: done.arrival,
                seq: done.seq,
                ack: done.ack,
                checksum: done.checksum,
            });
        }
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

    #[test]
    fn frame_round_trip() {
        let mut f = Vec::new();
        encode_frame_into(
            &mut f,
            7,
            42,
            9,
            2,
            5,
            1.25,
            11,
            6,
            Some(0xDEAD),
            &[1, 2, 3],
        );
        let d = decode_frame(&f).unwrap();
        assert_eq!(
            (d.src, d.tag, d.msg_id, d.frag_idx, d.frag_count, d.arrival),
            (7, 42, 9, 2, 5, 1.25)
        );
        assert_eq!((d.seq, d.ack, d.checksum), (11, 6, Some(0xDEAD)));
        assert_eq!(d.chunk, vec![1, 2, 3]);
    }

    #[test]
    fn frame_round_trip_no_checksum() {
        let mut f = Vec::new();
        encode_frame_into(&mut f, 1, 2, 3, 0, 1, 0.0, 0, 0, None, &[]);
        let d = decode_frame(&f).unwrap();
        assert_eq!((d.seq, d.ack, d.checksum), (0, 0, None));
        assert!(d.chunk.is_empty());
    }

    #[test]
    fn frame_buffer_is_reused_across_encodes() {
        let mut f = Vec::new();
        encode_frame_into(&mut f, 1, 2, 3, 0, 1, 0.0, 0, 0, None, &[9; 64]);
        let first = f.clone();
        encode_frame_into(&mut f, 1, 2, 3, 0, 1, 0.0, 0, 0, None, &[7; 8]);
        assert_ne!(f, first);
        encode_frame_into(&mut f, 1, 2, 3, 0, 1, 0.0, 0, 0, None, &[9; 64]);
        assert_eq!(f, first, "re-encoding reproduces the identical frame");
    }

    #[test]
    fn runt_frame_rejected() {
        assert!(decode_frame(&[0u8; 10]).is_err());
    }

    #[test]
    fn assembler_reassembles_out_of_order_fragments() {
        let mut asm = Assembler::new(3);
        let frag = |idx: u32, chunk: &[u8]| Frame {
            src: 1,
            tag: 7,
            msg_id: 5,
            frag_idx: idx,
            frag_count: 3,
            arrival: 0.0,
            seq: 9,
            ack: 0,
            checksum: None,
            chunk: chunk.to_vec(),
        };
        asm.accept(frag(2, &[5, 6]));
        asm.accept(frag(0, &[1, 2]));
        assert_eq!(asm.parked.len(), 0);
        asm.accept(frag(1, &[3, 4]));
        let m = asm.parked.take(1, 7).expect("complete message");
        assert_eq!(m.payload, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!((m.src, m.dst, m.seq), (1, 3, 9));
    }

    #[test]
    fn assembler_ignores_duplicate_fragments() {
        let mut asm = Assembler::new(0);
        let frag = |idx: u32| Frame {
            src: 2,
            tag: 1,
            msg_id: 8,
            frag_idx: idx,
            frag_count: 2,
            arrival: 0.0,
            seq: 0,
            ack: 0,
            checksum: None,
            chunk: vec![idx as u8],
        };
        asm.accept(frag(0));
        asm.accept(frag(0));
        assert_eq!(asm.parked.len(), 0, "duplicate must not complete");
        asm.accept(frag(1));
        assert_eq!(asm.parked.len(), 1);
        assert_eq!(asm.clear(), 1);
    }
}

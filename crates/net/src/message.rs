//! Message envelope, tags, and payload checksums.

/// Message tag — disambiguates concurrent traffic between the same pair
/// (e.g. collective round numbers vs. application point-to-point traffic).
pub type Tag = u64;

/// FNV-1a 32-bit checksum of a payload.
///
/// Every step `h' = (h ^ byte) · prime` multiplies by an odd constant,
/// which is a bijection on `u32`; a change to any single input byte
/// therefore always changes the final hash, so single-byte wire
/// corruption is detected with certainty (multi-byte corruption with
/// probability `1 − 2⁻³²`).
#[must_use]
pub fn payload_checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Tag chosen by the sender.
    pub tag: Tag,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Reliability-layer sequence number on the `(src, dst)` link;
    /// `0` for unsequenced traffic (no reliability layer in the stack).
    pub seq: u64,
    /// Piggybacked cumulative acknowledgement for the *reverse* direction
    /// of the link: the sender has delivered, in order, every sequence
    /// `≤ ack` it received from `dst`. `0` carries no information (acks
    /// start at 1), so unsequenced traffic and dedicated-ack-only stacks
    /// leave it untouched. Stamped by the sliding-window reliability
    /// layer on every outbound data frame so reverse-path data keeps the
    /// sender's window open without waiting for a dedicated ack frame.
    pub ack: u64,
    /// [`payload_checksum`] computed when the payload was staged, or
    /// `None` for unchecked traffic. Verified on receive so wire
    /// corruption surfaces as [`crate::NetError::Corrupt`] instead of
    /// silently bad bytes.
    pub checksum: Option<u32>,
}

impl Message {
    /// Payload length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Whether the payload matches its checksum (vacuously true for
    /// unchecked messages).
    #[must_use]
    pub fn checksum_ok(&self) -> bool {
        self.checksum
            .is_none_or(|c| payload_checksum(&self.payload) == c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_reports_payload() {
        let m = Message {
            src: 0,
            dst: 1,
            tag: 0,
            payload: vec![1, 2, 3],
            seq: 0,
            ack: 0,
            checksum: None,
        };
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn checksum_detects_any_single_byte_flip() {
        let payload: Vec<u8> = (0..64).collect();
        let c = payload_checksum(&payload);
        for i in 0..payload.len() {
            let mut bad = payload.clone();
            bad[i] ^= 0xA5;
            assert_ne!(payload_checksum(&bad), c, "flip at {i} undetected");
        }
    }

    #[test]
    fn checksum_verification() {
        let mut m = Message {
            src: 0,
            dst: 1,
            tag: 0,
            payload: vec![9, 9, 9],
            seq: 0,
            ack: 0,
            checksum: None,
        };
        assert!(m.checksum_ok(), "unchecked messages always pass");
        m.checksum = Some(payload_checksum(&m.payload));
        assert!(m.checksum_ok());
        m.payload[1] ^= 1;
        assert!(!m.checksum_ok());
    }
}

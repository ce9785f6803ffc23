//! Appendix A's local block movements — rotate, `pack`, `unpack`, the
//! phase-3 placement — as plain copy loops.
//!
//! No collective calls these any more: the index algorithm's local
//! phases run as [`BlockPerm::apply`](bruck_model::program::BlockPerm::apply)
//! and [`SlotSet::runs`](bruck_model::program::SlotSet::runs) inside the
//! program interpreter. They stay, signatures unchanged, as the
//! single-thread copy rates the tracked benchmark's `core.blocks.*_GBps`
//! probes measure (ROADMAP backlog B7 re-points those probes and deletes
//! this module).

/// `dst.copy_from_slice(src)`.
pub fn copy_large(dst: &mut [u8], src: &[u8]) {
    dst.copy_from_slice(src);
}

/// Rotate the `n` blocks of `buf` (each `b` bytes) `steps` blocks
/// *upwards* (toward index 0), cyclically, into `out`:
/// `out[m] = buf[(m + steps) mod n]` — Appendix A lines 3–4 with
/// `steps = my_rank` (phase 1).
///
/// # Panics
///
/// Panics if `buf.len() != n * b` or `out.len() != n * b`.
pub fn rotate_up_into(buf: &[u8], n: usize, b: usize, steps: usize, out: &mut [u8]) {
    assert_eq!(buf.len(), n * b, "buffer must hold n·b bytes");
    assert_eq!(out.len(), n * b, "output must hold n·b bytes");
    if n == 0 {
        return;
    }
    let s = steps % n;
    out[..(n - s) * b].copy_from_slice(&buf[s * b..]);
    out[(n - s) * b..].copy_from_slice(&buf[..s * b]);
}

/// The inverse-with-reversal placement of phase 3 (Appendix A lines
/// 21–23): `out[(rank - m) mod n] = buf[m]`.
///
/// # Panics
///
/// Panics if `buf.len() != n * b` or `out.len() != n * b`.
pub fn phase3_place_into(buf: &[u8], n: usize, b: usize, rank: usize, out: &mut [u8]) {
    assert_eq!(buf.len(), n * b);
    assert_eq!(out.len(), n * b);
    for m in 0..n {
        let dst = (rank % n + n - m) % n;
        out[dst * b..(dst + 1) * b].copy_from_slice(&buf[m * b..(m + 1) * b]);
    }
}

/// Pack the blocks at the given indices into a contiguous message
/// (Appendix A's `pack`).
///
/// # Panics
///
/// Panics if `out.len() != indices.len() * b`.
pub fn pack_into(buf: &[u8], b: usize, indices: &[usize], out: &mut [u8]) {
    assert_eq!(
        out.len(),
        indices.len() * b,
        "output/index-set size mismatch"
    );
    for (slot, &j) in indices.iter().enumerate() {
        out[slot * b..(slot + 1) * b].copy_from_slice(&buf[j * b..(j + 1) * b]);
    }
}

/// Unpack a contiguous message back into the blocks at the given indices
/// (Appendix A's `unpack`).
///
/// # Panics
///
/// Panics if the message length does not match `indices.len() * b`.
pub fn unpack(buf: &mut [u8], b: usize, indices: &[usize], msg: &[u8]) {
    assert_eq!(
        msg.len(),
        indices.len() * b,
        "message/index-set size mismatch"
    );
    for (slot, &j) in indices.iter().enumerate() {
        buf[j * b..(j + 1) * b].copy_from_slice(&msg[slot * b..(slot + 1) * b]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(ids: &[u8], b: usize) -> Vec<u8> {
        ids.iter()
            .flat_map(|&id| std::iter::repeat_n(id, b))
            .collect()
    }

    fn rotate_up(buf: &[u8], n: usize, b: usize, steps: usize) -> Vec<u8> {
        let mut out = vec![0u8; buf.len()];
        rotate_up_into(buf, n, b, steps, &mut out);
        out
    }

    #[test]
    fn rotate_up_basic() {
        let buf = blocks(&[0, 1, 2, 3, 4], 2);
        assert_eq!(rotate_up(&buf, 5, 2, 2), blocks(&[2, 3, 4, 0, 1], 2));
    }

    #[test]
    fn rotate_up_identity_and_wrap() {
        let buf = blocks(&[0, 1, 2], 3);
        assert_eq!(rotate_up(&buf, 3, 3, 0), buf);
        assert_eq!(rotate_up(&buf, 3, 3, 3), buf);
        assert_eq!(rotate_up(&buf, 3, 3, 4), rotate_up(&buf, 3, 3, 1));
    }

    #[test]
    fn phase3_inverts_phase1_modulo_transposition() {
        // Phase 1 followed by phase 3 with no communication sends original
        // offset j to (2·rank - j) mod n; pin the formula on an example.
        let (n, b, rank) = (5, 1, 2);
        let buf: Vec<u8> = (0..n as u8).collect();
        let p1 = rotate_up(&buf, n, b, rank);
        assert_eq!(p1, vec![2, 3, 4, 0, 1]);
        let mut p3 = vec![0u8; n * b];
        phase3_place_into(&p1, n, b, rank, &mut p3);
        // out[(2 - m) mod 5] = p1[m] = (m + 2) mod 5 ⇒ out[x] = (4 - x) mod 5.
        assert_eq!(p3, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let buf = blocks(&[10, 11, 12, 13, 14, 15], 4);
        let idx = [1usize, 3, 4];
        let mut msg = vec![0u8; idx.len() * 4];
        pack_into(&buf, 4, &idx, &mut msg);
        assert_eq!(msg, blocks(&[11, 13, 14], 4));
        let mut out = blocks(&[0, 0, 0, 0, 0, 0], 4);
        unpack(&mut out, 4, &idx, &msg);
        assert_eq!(out, blocks(&[0, 11, 0, 13, 14, 0], 4));
    }

    #[test]
    fn zero_byte_blocks() {
        let buf: Vec<u8> = Vec::new();
        assert_eq!(rotate_up(&buf, 4, 0, 2), Vec::<u8>::new());
        pack_into(&buf, 0, &[0, 1], &mut []);
    }

    #[test]
    #[should_panic(expected = "n·b bytes")]
    fn rotate_rejects_bad_length() {
        let _ = rotate_up(&[1, 2, 3], 2, 2, 1);
    }
}

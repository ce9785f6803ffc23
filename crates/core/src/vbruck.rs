//! The non-uniform family's shared state: the typed [`VLayout`], the
//! forced member [`VMethod`], and the metadata round behind the
//! [`vops`](crate::vops) API.
//!
//! The paper's index algorithm assumes one uniform block size `b`;
//! production all-to-all traffic is heavy-tailed. Every member of the
//! non-uniform family — direct, padded Bruck, two-phase Bruck (Fan et
//! al., arXiv:2411.02581) — starts from the same metadata round: one
//! circulant concat of each rank's count row, after which **every rank
//! holds the full `n×n` size matrix**. That is the shared state that lets
//! the SPMD ranks agree on pad sizes, quotas, tail schedules and the auto
//! plan without any extra agreement protocol, and from which each rank
//! lowers its program
//! ([`RankProgram::lower_vindex`](bruck_model::program::RankProgram::lower_vindex)).

use bruck_net::{Comm, NetError};

use crate::concat::ConcatAlgorithm;

/// Per-destination counts and displacements over one contiguous
/// buffer — the typed layout the v-ops address payloads with
/// (`MPI_Alltoallv`'s `counts`/`displs` pair, minus the raw-pointer
/// footguns).
///
/// Block `j` of a buffer `buf` under layout `l` is
/// `buf[l.displ(j) .. l.displ(j) + l.count(j)]`. Layouts built by
/// [`from_counts`](VLayout::from_counts) are *dense* (displacements are
/// the prefix sums, blocks tile `[0, total)`); [`new`](VLayout::new)
/// accepts arbitrary non-overlapping-or-not displacements for strided
/// or shared-prefix sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VLayout {
    counts: Vec<usize>,
    displs: Vec<usize>,
    total: usize,
}

impl VLayout {
    /// Dense layout: block `j` has `counts[j]` bytes at displacement
    /// `counts[0] + … + counts[j-1]`.
    ///
    /// # Panics
    ///
    /// Panics if the counts sum past `usize::MAX` (impossible for
    /// counts describing buffers that actually exist in one address
    /// space).
    #[must_use]
    pub fn from_counts(counts: &[usize]) -> Self {
        Self::try_from_counts(counts).expect("layout total overflows usize")
    }

    /// [`from_counts`](Self::from_counts) with the overflow reported as
    /// an error instead of a panic — the form the metadata round uses
    /// on *announced* (attacker-controllable) counts.
    pub(crate) fn try_from_counts(counts: &[usize]) -> Result<Self, NetError> {
        let mut displs = Vec::with_capacity(counts.len());
        let mut total = 0usize;
        for &c in counts {
            displs.push(total);
            total = total
                .checked_add(c)
                .ok_or_else(|| NetError::App("v-layout: counts sum past usize::MAX".to_string()))?;
        }
        Ok(Self {
            counts: counts.to_vec(),
            displs,
            total,
        })
    }

    /// Layout with explicit displacements. `total` is the least buffer
    /// length that contains every block.
    ///
    /// # Errors
    ///
    /// [`NetError::App`] if the vectors' lengths differ or any block
    /// end overflows `usize`.
    pub fn new(counts: Vec<usize>, displs: Vec<usize>) -> Result<Self, NetError> {
        if counts.len() != displs.len() {
            return Err(NetError::App(format!(
                "v-layout: {} counts but {} displacements",
                counts.len(),
                displs.len()
            )));
        }
        let mut total = 0usize;
        for (j, (&c, &d)) in counts.iter().zip(&displs).enumerate() {
            let end = d
                .checked_add(c)
                .ok_or_else(|| NetError::App(format!("v-layout: block {j} end overflows usize")))?;
            total = total.max(end);
        }
        Ok(Self {
            counts,
            displs,
            total,
        })
    }

    /// Number of blocks (peers) the layout addresses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the layout addresses no blocks at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Byte count of block `j`.
    #[must_use]
    pub fn count(&self, j: usize) -> usize {
        self.counts[j]
    }

    /// Byte displacement of block `j`.
    #[must_use]
    pub fn displ(&self, j: usize) -> usize {
        self.displs[j]
    }

    /// All counts, in peer order.
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The least buffer length containing every block.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Byte range of block `j`.
    #[must_use]
    pub fn range(&self, j: usize) -> core::ops::Range<usize> {
        self.displs[j]..self.displs[j] + self.counts[j]
    }

    /// Block `j` of `buf` under this layout.
    ///
    /// # Panics
    ///
    /// Panics if the block's range exceeds `buf` (see
    /// [`fits`](Self::fits)).
    #[must_use]
    pub fn slice<'a>(&self, buf: &'a [u8], j: usize) -> &'a [u8] {
        &buf[self.range(j)]
    }

    /// The largest block count.
    #[must_use]
    pub fn max_count(&self) -> usize {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Whether every block lies inside a `len`-byte buffer.
    #[must_use]
    pub fn fits(&self, len: usize) -> bool {
        self.total <= len
    }
}

/// A forced member of the non-uniform family (see
/// [`Tuning::vmethod`](crate::api::Tuning::vmethod)); leave unset to
/// let the planner arg-min over all three from the measured skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VMethod {
    /// Direct pairwise exchange of the exact bytes.
    Direct,
    /// Padded Bruck through the uniform radix-`radix` index.
    Padded {
        /// Radix of the uniform index phase (clamped to `[2, n]`).
        radix: usize,
    },
    /// Two-phase Bruck: uniform quota slice + direct tails.
    TwoPhase {
        /// Radix of the uniform quota phase (clamped to `[2, n]`).
        radix: usize,
        /// Bytes per block for the uniform phase; `None` picks the
        /// planner's default (mean travelling count).
        quota: Option<usize>,
    },
}

fn decode_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte length"))
}

/// Metadata round: circulant-concat every rank's count row so each
/// rank holds the full `n×n` row-major size matrix
/// (`matrix[i·n + j]` = bytes rank `i` sends rank `j`). One concat of
/// `n·8` bytes per rank — `⌈log_{k+1} n⌉` rounds — replaces the seed's
/// index-only metadata *and* upgrades it: the full matrix is exactly
/// the shared state the pad size, quota, tail schedule, and auto plan
/// all need to be rank-consistent.
pub(crate) fn exchange_size_matrix<C: Comm + ?Sized>(
    ep: &mut C,
    layout: &VLayout,
) -> Result<Vec<u64>, NetError> {
    let n = ep.size();
    let mut row = ep.acquire(n * 8);
    for (slot, &c) in row.chunks_exact_mut(8).zip(layout.counts()) {
        slot.copy_from_slice(&(c as u64).to_le_bytes());
    }
    let mut flat = ep.acquire(n * n * 8);
    let result = ConcatAlgorithm::Bruck(Default::default()).run_into(ep, &row, &mut flat);
    ep.recycle(row);
    let matrix = result.map(|()| {
        (0..n * n)
            .map(|e| decode_u64(&flat[e * 8..(e + 1) * 8]))
            .collect()
    });
    ep.recycle(flat);
    matrix
}

/// Validate the announced matrix **before any payload round**: every
/// entry must fit `usize` and this rank's incoming column must sum
/// without overflow. Returns the matrix as `usize` plus the dense
/// receive layout (one block per source, in rank order).
///
/// The seed only caught a forged 8-byte size entry *after* the full
/// exchange, when the received length mismatched; now a poisoned
/// announcement fails fast, before a byte of payload moves.
pub(crate) fn validate_matrix(
    n: usize,
    rank: usize,
    matrix: &[u64],
) -> Result<(Vec<usize>, VLayout), NetError> {
    debug_assert_eq!(matrix.len(), n * n);
    let mut sizes = Vec::with_capacity(n * n);
    for (e, &s) in matrix.iter().enumerate() {
        sizes.push(usize::try_from(s).map_err(|_| {
            NetError::App(format!(
                "alltoallv: rank {} announced a {s}-byte block for rank {} that cannot \
                 fit in usize",
                e / n,
                e % n
            ))
        })?);
    }
    let incoming: Vec<usize> = (0..n).map(|src| sizes[src * n + rank]).collect();
    let recv = VLayout::try_from_counts(&incoming)?;
    Ok((sizes, recv))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_from_counts_is_dense() {
        let l = VLayout::from_counts(&[3, 0, 5]);
        assert_eq!(l.len(), 3);
        assert_eq!(l.total(), 8);
        assert_eq!(l.range(0), 0..3);
        assert_eq!(l.range(1), 3..3);
        assert_eq!(l.range(2), 3..8);
        assert_eq!(l.max_count(), 5);
        assert!(l.fits(8));
        assert!(!l.fits(7));
    }

    #[test]
    fn layout_with_displacements() {
        let l = VLayout::new(vec![2, 2], vec![4, 0]).unwrap();
        assert_eq!(l.total(), 6);
        assert_eq!(l.slice(b"abcdef", 0), b"ef");
        assert_eq!(l.slice(b"abcdef", 1), b"ab");
        assert!(VLayout::new(vec![1], vec![usize::MAX]).is_err());
        assert!(VLayout::new(vec![1, 2], vec![0]).is_err());
    }

    #[test]
    fn overflowing_counts_are_rejected_not_panicked() {
        let err = VLayout::try_from_counts(&[usize::MAX, 2]).unwrap_err();
        assert!(matches!(err, NetError::App(_)));
    }

    #[test]
    fn validate_matrix_rejects_forged_sizes() {
        // On 64-bit targets every u64 fits usize, but a forged column
        // that sums past usize::MAX must still fail before payload.
        let n = 2;
        let m = [u64::MAX, 0, u64::MAX, 0];
        let err = validate_matrix(n, 0, &m).unwrap_err();
        assert!(matches!(err, NetError::App(_)), "{err:?}");
    }
}

//! Explicit per-rank round programs ("lowered" plans) and the one
//! machine that runs them.
//!
//! The threaded executor in `bruck-net` runs an algorithm as a blocking
//! SPMD closure — one OS thread per rank, each free to park inside a
//! receive — which cannot be multiplexed onto fewer threads than ranks:
//! a worker parked inside rank 7's receive can never run rank 12, whose
//! send would have satisfied it. The paper's asymptotic regime (n in the
//! hundreds) needs an explicit, finite list of operations per rank that
//! an event-driven pool advances one rank at a time, parking *between*
//! operations instead of inside them.
//!
//! [`RankProgram`] is that shape: pure data — peers, tags and closed-form
//! *descriptors*, flat: a round is two index ranges into one transfer list,
//! so a program is two allocations (its ops and its transfers, each sized
//! from the lowering's closed-form round count). Nothing in it is an
//! `n`-entry table: a transfer's bytes are a [`Span`] (a [`SlotSet`], §3.2's
//! digit test read as contiguous *runs*, or byte runs of the work buffer or
//! the input), a local phase a [`BlockPerm`], a [`ProgramOp::Place`] of
//! input bytes or a [`ProgramOp::Strip`] into a buffer of another length.
//! The lowerings *are* the §3 and §4 algorithms, their non-uniform
//! generalizations and the reductions on them — no other executable form of
//! them exists — and [`RankMachine`] is their one interpreter, driven on
//! threads by `bruck-collectives`, on a worker pool by the TCP fabric and
//! over in-memory mail by [`simulate`]; `bruck-sched` reads the wire
//! schedule off the programs:
//!
//! * [`IndexPlan::Radix`] — rotate, the §3.2 digit rounds grouped `k` per
//!   round, inverse placement;
//! * [`IndexPlan::Mixed`] — the same with a radix per digit position:
//!   subphase `x` tests the digit of weight `Π r_<x` in radix `r_x`;
//! * [`IndexPlan::Direct`] — `n-1` offsets grouped `k` per round, sent
//!   straight from the input into their final slots; [`IndexPlan::Pairwise`]
//!   the same with peer `rank ⊕ d`;
//! * [`IndexPlan::Hypercube`] — Johnsson & Ho's store-and-forward rounds
//!   over slots indexed by `src ⊕ dst`, between two XOR permutes;
//! * [`IndexPlan::Hierarchical`] — an intra-node index over lane bundles,
//!   a transpose, an inter-node index over node bundles;
//! * [`ConcatLowering`] — §4's circulant concatenation with its byte-
//!   partitioned last round, and the ring, recursive-doubling and
//!   gather + broadcast baselines;
//! * [`RankProgram::lower_vindex`] — the non-uniform index family of a
//!   [`VIndexPlan`] (direct, padded, two-phase) over a size matrix;
//! * [`RankProgram::lower_allgatherv`] — the circulant concatenation of
//!   ragged blocks, in their final layout;
//! * [`RankProgram::lower_reduce_scatter`], [`RankProgram::lower_allreduce`],
//!   [`RankProgram::lower_reduce`] — the circulant concatenation (then again
//!   forwards) or a tree broadcast run backwards, received lanes
//!   [folded](ProgramOp::Fold) in; [`RankProgram::lower_scan`] Hillis–Steele.
//!
//! The tests sweep [`simulate`] against the transpose and concatenation
//! oracles, so a lowering bug is caught in pure math, far from any socket.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::partition::{concat_last_round, Area, ColumnSlice, Preference};
use crate::planner::{IndexPlan, VIndexPlan};
use crate::radix::{ceil_log, digit_steps, pow};

/// Bit position separating the phase namespace from the `(subphase,
/// step)` tag of a round. Flat tags are `(x << 32) | z` — far below this
/// for any realistic `n` — and the two hierarchical phases sit at
/// `1 << PHASE_SHIFT` and `2 << PHASE_SHIFT`, a non-uniform exchange's
/// uniform phase at the first. Kept below bit 40 so
/// program tags survive epoch-shifted group contexts (`EPOCH_SHIFT` in
/// `bruck-net`) without aliasing.
pub const PHASE_SHIFT: u32 = 37;

/// The block slots of one transfer, in closed form: the group blocks
/// `j ∈ [0, groups)` whose radix-`radix` digit of weight `stride` equals
/// `digit` — §3.2's selection for step `(x, z)`, with `stride = r^x` for
/// a uniform radix and `Π r_<x` for a mixed vector — where group block
/// `j` spans buffer blocks `[j·unit, (j+1)·unit)`. The direct algorithm's
/// lone slot `s` is the same test in radix `n`: weight 1, digit `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSet {
    /// Weight of the tested digit: the product of the radices below it.
    stride: usize,
    /// Value the digit must have (`z ≥ 1` for the index algorithm).
    digit: usize,
    /// The radix of the tested digit position.
    radix: usize,
    /// Number of group-level blocks.
    groups: usize,
    /// Buffer blocks per group-level block.
    unit: usize,
}

impl SlotSet {
    /// The group blocks `j < groups` whose radix-`radix` digit of weight
    /// `stride` is `digit`, each `unit` buffer blocks.
    const fn new(stride: usize, digit: usize, radix: usize, groups: usize, unit: usize) -> Self {
        Self {
            stride,
            digit,
            radix,
            groups,
            unit,
        }
    }

    /// Number of buffer blocks selected (the arithmetic of
    /// `RadixDecomposition::blocks_in_step`, no enumeration).
    #[must_use]
    pub fn blocks(&self) -> usize {
        let period = self.stride * self.radix;
        let tail = (self.groups % period).saturating_sub(self.digit * self.stride);
        ((self.groups / period) * self.stride + tail.min(self.stride)) * self.unit
    }

    /// The selection as maximal contiguous runs `(byte offset, bytes)` of
    /// a buffer of `block`-byte blocks, ascending: `[t·r·stride + z·stride,
    /// +stride) ∩ [0, groups)` scaled by `unit · block`. A sender gathers
    /// the runs in this order; the receiver scatters into the same runs.
    pub fn runs(&self, block: usize) -> impl Iterator<Item = (usize, usize)> {
        let (s, scale) = (*self, self.unit * block);
        (s.digit * s.stride..s.groups)
            .step_by(s.stride * s.radix)
            .map(move |at| (at * scale, s.stride.min(s.groups - at) * scale))
    }
}

/// The bytes one transfer moves: `(offset, len)` runs of the buffer it
/// reads or writes, gathered into the payload (or scattered back out of
/// it) in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span {
    /// Whole blocks, in closed form.
    Slots(SlotSet),
    /// Whole blocks of the caller's input, for a send: the direct exchange
    /// sends its blocks from where the caller left them.
    Input(SlotSet),
    /// Explicit byte runs, each at `offset − back` — Table 1's partitioned
    /// last round, a broadcast's complement. Runs that coincide on every
    /// rank are built once and shared.
    Bytes {
        /// `(offset, len)` runs, in payload order.
        runs: Arc<[(usize, usize)]>,
        /// Bytes every run is moved down by.
        back: usize,
    },
    /// Byte runs of the caller's input, for a send: a non-uniform exchange
    /// sends each block's bytes from where the caller left them.
    InputBytes(Arc<[(usize, usize)]>),
}

impl Span {
    /// Payload bytes of the span over `block`-byte blocks.
    #[must_use]
    pub fn bytes(&self, block: usize) -> usize {
        match self {
            Self::Slots(slots) | Self::Input(slots) => slots.blocks() * block,
            Self::Bytes { runs, .. } | Self::InputBytes(runs) => {
                runs.iter().map(|&(_, len)| len).sum()
            }
        }
    }

    /// Call `f(offset, len)` for each of the span's runs over `block`-byte
    /// blocks, in payload order.
    pub fn for_each_run(&self, block: usize, mut f: impl FnMut(usize, usize)) {
        match self {
            Self::Slots(slots) | Self::Input(slots) => {
                for (at, len) in slots.runs(block) {
                    f(at, len);
                }
            }
            Self::Bytes { runs, back } => runs.iter().for_each(|&(at, len)| f(at - back, len)),
            Self::InputBytes(runs) => runs.iter().for_each(|&(at, len)| f(at, len)),
        }
    }

    /// Whether every run lies inside the buffer the span names: `input`
    /// bytes for [`Input`](Self::Input), else `work`; a slot set also
    /// stays inside `n` blocks.
    fn fits(&self, n: usize, block: usize, input: usize, work: usize) -> bool {
        let limit = if self.in_input() { input } else { work };
        let (runs, back) = match self {
            Self::Slots(s) | Self::Input(s) => {
                return s.groups * s.unit <= n && s.groups * s.unit * block <= limit
            }
            Self::Bytes { runs, back } => (runs, *back),
            Self::InputBytes(runs) => (runs, 0),
        };
        runs.iter().all(|&(at, len)| {
            at.checked_sub(back)
                .and_then(|at| at.checked_add(len))
                .is_some_and(|end| end <= limit)
        })
    }

    /// Whether the span names the input rather than the work buffer.
    fn in_input(&self) -> bool {
        matches!(self, Self::Input(_) | Self::InputBytes(_))
    }
}

/// One transfer of a round: the peer, the matching tag, and the bytes
/// involved. For a send, payload bytes are gathered from the span's runs
/// in order; for a receive, the payload is scattered back into them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramXfer {
    /// Global rank of the peer.
    pub peer: usize,
    /// Message tag (unique per round within the program).
    pub tag: u64,
    /// Bytes of the rank's working buffer, or of its input.
    pub span: Span,
}

impl ProgramXfer {
    /// A transfer of whole work-buffer blocks.
    fn slots(peer: usize, tag: u64, slots: SlotSet) -> Self {
        let span = Span::Slots(slots);
        Self { peer, tag, span }
    }

    /// A transfer of work-buffer byte runs, moved down by `back`.
    fn bytes(peer: usize, tag: u64, runs: Arc<[(usize, usize)]>, back: usize) -> Self {
        let span = Span::Bytes { runs, back };
        Self { peer, tag, span }
    }
}

/// One communication round, read off its program's transfers: up to `k`
/// sends to distinct peers and the matching receives, all independent
/// (the k-port model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramRound<'p> {
    /// Outgoing transfers (distinct peers).
    pub sends: &'p [ProgramXfer],
    /// Incoming transfers (distinct peers).
    pub recvs: &'p [ProgramXfer],
}

/// The shape of a local phase, as the source of new group block `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PermKind {
    /// Phase 1's upward rotation: `new[u] = old[(u + by) mod groups]`.
    Rotate { by: usize },
    /// Phase 3's inverse placement: `new[u] = old[(about − u) mod groups]`.
    Reflect { about: usize },
    /// The hierarchical repack, `old` read as a `rows × cols` matrix of
    /// group blocks: `new[c·rows + r] = old[r·cols + c]`.
    Transpose { rows: usize, cols: usize },
    /// The hypercube's relabelling (`groups` a power of two):
    /// `new[u] = old[u ⊕ with]`.
    Xor { with: usize },
}

/// A local block permutation of the whole working buffer — a rotation, a
/// reflection, a transpose or an XOR relabelling — over `groups` group
/// blocks of `unit` buffer blocks each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPerm {
    kind: PermKind,
    groups: usize,
    unit: usize,
}

impl BlockPerm {
    /// Permute `old` into `new` (both `groups · unit` blocks of `block`
    /// bytes) by contiguous moves: two memcpys for a rotation, one per
    /// group block otherwise.
    pub fn apply(&self, block: usize, old: &[u8], new: &mut [u8]) {
        let (g, len) = (self.groups, self.unit * block);
        let mut mv = |dst: usize, src: usize, count: usize| {
            new[dst * len..(dst + count) * len]
                .copy_from_slice(&old[src * len..(src + count) * len]);
        };
        match self.kind {
            PermKind::Rotate { by } => {
                mv(0, by, g - by);
                mv(g - by, 0, by);
            }
            _ => (0..g).for_each(|u| mv(u, self.source(u), 1)),
        }
    }

    /// The old group block that new group block `u` is copied from.
    fn source(&self, u: usize) -> usize {
        let g = self.groups;
        match self.kind {
            PermKind::Rotate { by } => (u + by) % g,
            PermKind::Reflect { about } => (about + g - u) % g,
            PermKind::Transpose { rows, cols } => (u % rows) * cols + u / rows,
            PermKind::Xor { with } => u ^ with,
        }
    }
}

/// The element-wise operator of a reduction, over `f64` lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    /// Apply the operator to a pair.
    #[must_use]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            Self::Sum => a + b,
            Self::Min => a.min(b),
            Self::Max => a.max(b),
        }
    }

    /// Fold `src` into `dst` element-wise.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn fold_into(self, dst: &mut [f64], src: &[f64]) {
        assert_eq!(dst.len(), src.len(), "reduction length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = self.apply(*d, s);
        }
    }
}

/// Bytes of one `f64` lane, the unit of a reduction: no run splits one.
const LANE: usize = 8;

/// One step of a rank program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramOp {
    /// Local block permutation (the rotate / transpose / inverse-
    /// placement phases).
    Permute(BlockPerm),
    /// Copy input bytes `[from, from + len)` to work bytes `[to, to + len)`.
    Place {
        /// Offset in the input.
        from: usize,
        /// Offset in the work buffer.
        to: usize,
        /// Bytes copied.
        len: usize,
    },
    /// Copy `(from, to, len)` runs of the work buffer into a `len`-byte
    /// buffer, which becomes the work buffer: a padded exchange's
    /// reflection and stripping, in one pass.
    Strip {
        /// `(offset in the work buffer, offset in the new one, bytes)`.
        runs: Vec<(usize, usize, usize)>,
        /// Bytes of the new buffer.
        len: usize,
    },
    /// Fold the `f64` lanes of work bytes `[from, from + len)` into those
    /// of `[to, to + len)`, a disjoint range: a reduction combining what
    /// a round received into staging.
    Fold {
        /// The operator.
        op: ReduceOp,
        /// Offset of the lanes folded in.
        from: usize,
        /// Offset of the lanes folded into.
        to: usize,
        /// Bytes folded, a whole number of lanes.
        len: usize,
    },
    /// One communication round: its sends, then its receives, as ranges
    /// of [`RankProgram::xfers`] ([`RankProgram::round`] reads them).
    Round {
        /// Indices of the sends.
        sends: Range<usize>,
        /// Indices of the receives.
        recvs: Range<usize>,
    },
}

/// A complete per-rank schedule for one all-to-all: an ordered list of
/// local ops and k-port rounds over a work buffer, run by a
/// [`RankMachine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankProgram {
    /// Cluster size.
    pub n: usize,
    /// This rank.
    pub rank: usize,
    /// Block size in bytes.
    pub block: usize,
    /// Bytes of the caller's input: `n·b` for an index, `b` for a
    /// concatenation.
    pub input: usize,
    /// Bytes of the work buffer the program opens on: `n·b` for the
    /// uniform algorithms.
    pub work: usize,
    /// Ordered operation list.
    pub ops: Vec<ProgramOp>,
    /// Every round's transfers, in op order: its sends, then its receives.
    pub xfers: Vec<ProgramXfer>,
}

impl RankProgram {
    /// Lower an [`IndexPlan`] to the explicit program for one rank.
    ///
    /// Radices above the (sub)group size are clamped to it — they would
    /// change nothing: one subphase of `n − 1` steps.
    ///
    /// # Errors
    ///
    /// A message for `n = 0`, `rank ≥ n`, a radix below 2, a mixed
    /// vector whose product does not reach `n`, hierarchical plans whose
    /// `node_size` does not divide `n`, and the XOR plans
    /// (`Pairwise`, `Hypercube`) at an `n` that is not a power of two.
    pub fn lower(
        plan: &IndexPlan,
        n: usize,
        rank: usize,
        block: usize,
        ports: usize,
    ) -> Result<Self, String> {
        if n == 0 {
            return Err("lower: n must be ≥ 1".into());
        }
        if rank >= n {
            return Err(format!("lower: rank {rank} out of range for n={n}"));
        }
        let k = ports.max(1);
        Ok(match plan {
            IndexPlan::Radix(r) => {
                check_radix(*r)?;
                flat_bruck(n, rank, block, uniform(*r), k)
            }
            IndexPlan::Hypercube => {
                check_pow2("hypercube index", n)?;
                hypercube_ops(n, rank, block)
            }
            IndexPlan::Mixed(radices) => {
                radices.iter().try_for_each(|&r| check_radix(r))?;
                let covered = radices.iter().try_fold(1usize, |p, &r| p.checked_mul(r));
                if covered.is_some_and(|p| p < n) {
                    return Err(format!("radix vector {radices:?} does not cover n = {n}"));
                }
                flat_bruck(n, rank, block, radices.iter().copied(), k)
            }
            IndexPlan::Direct => {
                direct_ops(n, rank, block, k, |d| ((rank + d) % n, (rank + n - d) % n))
            }
            IndexPlan::Pairwise => {
                check_pow2("pairwise-XOR index", n)?;
                direct_ops(n, rank, block, k, |d| (rank ^ d, rank ^ d))
            }
            IndexPlan::Hierarchical {
                node_size,
                radix_local,
                radix_remote,
            } => {
                check_radix(*radix_local)?;
                check_radix(*radix_remote)?;
                hierarchical_ops(n, rank, block, *node_size, *radix_local, *radix_remote, k)?
            }
        })
    }

    /// Lower one member of the non-uniform index family (Fan et al.,
    /// arXiv:2411.02581) for one rank. `sizes` is the `n×n` row-major
    /// matrix every rank holds after the metadata round (`sizes[i·n + j]`
    /// bytes go from rank `i` to rank `j`), `displs[j]` the input offset
    /// of this rank's block for `j`; the output is the dense receive
    /// layout, one block per source in rank order.
    ///
    /// Let `q` be the plan's uniform block: `0` for direct, the largest
    /// travelling entry `bmax` for padded, the quota clamped to `bmax`
    /// for two-phase. A `q > 0` program places the first `q` bytes of
    /// each block at its rotated slot of an `n·q` buffer (Phase 1), runs
    /// the radix-`r` digit rounds at block `q`, and strips the slots into
    /// the receive layout (Phase 3). Then every program places its own
    /// block and moves the bytes above `q` direct: the distances `d` at
    /// which some pair has any, `k` per round, tag `d`, each send one run
    /// of the input and each receive one run of the layout.
    ///
    /// # Errors
    ///
    /// A message for `rank ≥ n`, a matrix or displacement list of the
    /// wrong length, and a send block, receive layout or `n·q` buffer
    /// that overflows `usize`.
    pub fn lower_vindex(
        plan: &VIndexPlan,
        n: usize,
        ports: usize,
        rank: usize,
        sizes: &[usize],
        displs: &[usize],
    ) -> Result<Self, String> {
        if rank >= n || sizes.len() != n * n || displs.len() != n {
            let lens = (sizes.len(), displs.len());
            return Err(format!(
                "lower: rank {rank}, (sizes, displs) {lens:?} for n = {n}"
            ));
        }
        let k = ports.max(1);
        let overflow = |what: &str| format!("alltoallv: {what} overflows usize");
        let row = &sizes[rank * n..][..n];
        let input = (0..n)
            .try_fold(0, |end, j| Some(displs[j].checked_add(row[j])?.max(end)))
            .ok_or_else(|| overflow("a send block"))?;
        // Receive offsets: the column's prefix sums, its total last.
        let mut at = vec![0usize];
        for src in 0..n {
            let end = at[src].checked_add(sizes[src * n + rank]);
            at.push(end.ok_or_else(|| overflow("the receive layout"))?);
        }
        let bmax = (0..n * n).filter(|e| e / n != e % n).map(|e| sizes[e]);
        let bmax = bmax.max().unwrap_or(0);
        let (radix, q) = match *plan {
            VIndexPlan::Direct => (2, 0),
            VIndexPlan::Padded { radix } => (radix, bmax),
            VIndexPlan::TwoPhase { radix, quota } => (radix, quota.min(bmax)),
        };
        let count = |src: usize| at[src + 1] - at[src];
        let work = if q > 0 {
            let buffer = ["quota buffer", "padded buffer"][usize::from(q == bmax)];
            n.checked_mul(q).ok_or_else(|| overflow(buffer))?
        } else {
            at[n]
        };
        // The tails: distance d sends to rank + d what lies above q of its
        // block, and receives the same from rank − d.
        let active = active_distances(n, sizes, q);
        let (to, from) = (|d| (rank + d) % n, |d| (rank + n - d) % n);
        let tails = active
            .iter()
            .map(|&d| usize::from(row[to(d)] > q) + usize::from(count(from(d)) > q));
        let mut size = (1 + active.len().div_ceil(k), tails.sum());
        if q > 0 {
            // n − 1 places and a strip where the index has two permutes.
            let index = bruck_size(n, uniform(radix), k);
            size = (size.0 + n - 2 + index.0, size.1 + index.1);
        }
        let mut prog = Self::sized(n, rank, q, input, work, size);
        if q > 0 {
            for j in (0..n).filter(|&j| j != rank) {
                prog.ops
                    .push(place(displs[j], (j + n - rank) % n * q, row[j].min(q)));
            }
            let phase = 1 << PHASE_SHIFT;
            digit_rounds(&mut prog, n, rank, uniform(radix), 1, k, |g| g, phase);
            // Slot u holds the head of the block from rank − u.
            let head = |src: usize| ((rank + n - src) % n * q, at[src], count(src).min(q));
            let runs = (0..n).filter(|&src| src != rank).map(head).collect();
            prog.ops.push(ProgramOp::Strip { runs, len: at[n] });
        }
        prog.ops.push(place(displs[rank], at[rank], row[rank]));
        for group in active.chunks(k) {
            let send = |&d: &usize| {
                let (to, tag) = (to(d), d as u64);
                (row[to] > q).then(|| ProgramXfer {
                    peer: to,
                    tag,
                    span: Span::InputBytes([(displs[to] + q, row[to] - q)].into()),
                })
            };
            let recv = |&d: &usize| {
                let (from, tail) = (from(d), count(from(d)).saturating_sub(q));
                (tail > 0)
                    .then(|| ProgramXfer::bytes(from, d as u64, [(at[from] + q, tail)].into(), 0))
            };
            prog.push_round(group.iter().filter_map(send), group.iter().filter_map(recv));
        }
        Ok(prog)
    }

    /// Lower the circulant allgatherv (Jocksch et al., arXiv:2006.13112)
    /// for one rank: rank `v` contributes `counts[v]` bytes and ends with
    /// every block at its offset of the dense layout. The program works in
    /// that layout throughout, so it needs no permute: it places its own
    /// block, and each round of §4's circulant algorithm sends the blocks
    /// of the ranks `(v − len, v]` — at most two runs of the layout. Round
    /// `i < ⌈log_{k+1} n⌉ − 1` (tag `i`) sends the `(k+1)^i` latest blocks
    /// to `v + j·(k+1)^i`; the last splits the `n − (k+1)^i` missing ones
    /// column-aligned over at most `k` offsets.
    ///
    /// # Panics
    ///
    /// If `rank ≥ counts.len()` or the counts sum past `usize::MAX`.
    #[must_use]
    pub fn lower_allgatherv(ports: usize, rank: usize, counts: &[usize]) -> Self {
        let (n, k) = (counts.len(), ports.max(1));
        let mut at = vec![0usize];
        for (v, &count) in counts.iter().enumerate() {
            at.push(at[v] + count);
        }
        // The blocks of the `len` ranks up to `hi`, ascending.
        let window = |hi: usize, len: usize| -> Arc<[(usize, usize)]> {
            let lo = (hi + 1 + n - len) % n;
            let run = |a: usize, b: usize| (at[a], at[b] - at[a]);
            if lo + len <= n {
                [run(lo, lo + len)].into()
            } else {
                [run(lo, n), run(0, lo + len - n)].into()
            }
        };
        // A part `(offset, len, tag)` sends the `len` latest blocks to
        // rank + offset and receives them from rank − offset.
        let send = |(offset, len, tag): (usize, usize, u64)| {
            ProgramXfer::bytes((rank + offset) % n, tag, window(rank, len), 0)
        };
        let recv = |(offset, len, tag): (usize, usize, u64)| {
            let from = (rank + n - offset % n) % n;
            ProgramXfer::bytes(from, tag, window(from, len), 0)
        };
        // The doubling rounds, then a last round splitting the n2 missing
        // blocks column-aligned over at most k areas (none for a lone rank).
        let d = ceil_log(k + 1, n).max(1);
        let (n1, doubling) = (pow(k + 1, d - 1), (d - 1) as usize);
        let areas = k.min(n - n1);
        let size = (1 + doubling + usize::from(n > 1), k * doubling + areas);
        let mut prog = Self::sized(n, rank, 0, counts[rank], at[n], (size.0, 2 * size.1));
        prog.ops.push(place(0, at[rank], counts[rank]));
        for i in 0..d - 1 {
            let cur = pow(k + 1, i);
            let parts = (1..=k).map(move |j| (j * cur, cur, i.into()));
            prog.push_round(parts.clone().map(send), parts.map(recv));
        }
        if n > 1 {
            let (n2, tag) = (n - n1, u64::from(d - 1));
            let (len, rest) = (n2 / areas, n2 % areas);
            let part = |a: usize| (n1 + a * len + a.min(rest), len + usize::from(a < rest), tag);
            let parts = (0..areas).map(part);
            prog.push_round(parts.clone().map(send), parts.map(recv));
        }
        prog
    }

    /// An empty program with room for exactly `(ops, xfers)`, which its
    /// lowering fills: two allocations, whatever its round count.
    fn sized(n: usize, rank: usize, block: usize, input: usize, work: usize, size: Size) -> Self {
        let (ops, xfers) = (Vec::with_capacity(size.0), Vec::with_capacity(size.1));
        Self {
            n,
            rank,
            block,
            input,
            work,
            ops,
            xfers,
        }
    }

    /// Append a round of `sends` and `recvs`.
    fn push_round(
        &mut self,
        sends: impl IntoIterator<Item = ProgramXfer>,
        recvs: impl IntoIterator<Item = ProgramXfer>,
    ) {
        let at = self.xfers.len();
        self.xfers.extend(sends);
        let (sends, mid) = (at..self.xfers.len(), self.xfers.len());
        self.xfers.extend(recvs);
        let recvs = mid..self.xfers.len();
        self.ops.push(ProgramOp::Round { sends, recvs });
    }

    /// Number of communication rounds in the program.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, ProgramOp::Round { .. }))
            .count()
    }

    /// Op `op` of this program as the round it names: `None` for a local
    /// op, or for ranges outside [`xfers`](Self::xfers).
    #[must_use]
    pub fn round(&self, op: &ProgramOp) -> Option<ProgramRound<'_>> {
        let ProgramOp::Round { sends, recvs } = op else {
            return None;
        };
        let (sends, recvs) = (
            self.xfers.get(sends.clone())?,
            self.xfers.get(recvs.clone())?,
        );
        Some(ProgramRound { sends, recvs })
    }

    /// The local passes a run makes from one buffer into another: every
    /// permute and strip, plus the copy-in of a program that opens with a
    /// round or a fold. A driver that wants the result in a given buffer
    /// reads where to start from this count's parity (see
    /// [`RankMachine::step`]).
    #[must_use]
    pub fn passes(&self) -> usize {
        let is_pass =
            |op: &ProgramOp| matches!(op, ProgramOp::Permute(_) | ProgramOp::Strip { .. });
        let passes = self.ops.iter().filter(|op| is_pass(op)).count();
        passes + usize::from(self.copies_in())
    }

    /// Whether the machine copies the input in before the first round:
    /// the program is empty or opens with a round or a fold.
    fn copies_in(&self) -> bool {
        let on_work =
            |op: &ProgramOp| matches!(op, ProgramOp::Round { .. } | ProgramOp::Fold { .. });
        self.ops.first().is_none_or(on_work)
    }

    /// The one shape check [`RankMachine::new`] makes before it indexes
    /// its buffers with these descriptors (every field is public, so they
    /// may have been recombined): every permute covers exactly the `n`
    /// blocks of an `n·b` buffer (an XOR one a power-of-two count of
    /// them), every round's ranges lie inside `xfers`, every place, span,
    /// strip run and fold stays inside the buffers it touches (the input
    /// for a send that reads it, else the work buffer as the strips before
    /// it left its length), a fold moves whole lanes between disjoint
    /// ranges, no receive reads the input, and a program that copies its
    /// input in has a `work`-byte one.
    ///
    /// # Errors
    ///
    /// Names the first op that does not fit.
    pub fn check_shape(&self) -> Result<(), String> {
        let (n, block, input, rank) = (self.n, self.block, self.input, self.rank);
        let within =
            |at: usize, len: usize, limit: usize| at.checked_add(len).is_some_and(|e| e <= limit);
        if self.copies_in() && input != self.work {
            let work = self.work;
            return Err(format!(
                "rank {rank}: copies a {input}-byte input into a {work}-byte (n·b) buffer"
            ));
        }
        let mut work = self.work;
        for (i, op) in self.ops.iter().enumerate() {
            let fits = match op {
                ProgramOp::Permute(p) => {
                    let onto = match p.kind {
                        PermKind::Transpose { rows, cols } => rows * cols == p.groups,
                        PermKind::Xor { with } => p.groups.is_power_of_two() && with < p.groups,
                        PermKind::Rotate { .. } | PermKind::Reflect { .. } => true,
                    };
                    onto && p.groups * p.unit == n && n.checked_mul(block) == Some(work)
                }
                ProgramOp::Place { from, to, len } => {
                    within(*from, *len, input) && within(*to, *len, work)
                }
                ProgramOp::Round { .. } => {
                    let send = |x: &ProgramXfer| x.span.fits(n, block, input, work);
                    let recv = |x: &ProgramXfer| !x.span.in_input() && send(x);
                    let fits =
                        |r: ProgramRound| r.sends.iter().all(send) && r.recvs.iter().all(recv);
                    self.round(op).is_some_and(fits)
                }
                ProgramOp::Strip { runs, len } => {
                    let run = |&(from, to, l): &(usize, usize, usize)| {
                        within(from, l, work) && within(to, l, *len)
                    };
                    let fits = runs.iter().all(run);
                    work = *len;
                    fits
                }
                &ProgramOp::Fold { from, to, len, .. } => {
                    let apart = from.max(to) - from.min(to) >= len;
                    len % LANE == 0 && apart && within(from, len, work) && within(to, len, work)
                }
            };
            if !fits {
                return Err(format!("rank {rank}: op {i} does not fit its buffers"));
            }
        }
        Ok(())
    }
}

/// The `(ops, xfers)` lengths of a program, in closed form.
type Size = (usize, usize);

/// Input bytes `[from, from + len)` to work offset `to`, as an op.
fn place(from: usize, to: usize, len: usize) -> ProgramOp {
    ProgramOp::Place { from, to, len }
}

/// `kind` over `groups` group blocks of `unit` buffer blocks, as an op.
fn permute(kind: PermKind, groups: usize, unit: usize) -> ProgramOp {
    ProgramOp::Permute(BlockPerm { kind, groups, unit })
}

/// The radix < 2 rejection every plan family shares.
fn check_radix(r: usize) -> Result<(), String> {
    if r < 2 {
        return Err(format!("radix must be ≥ 2, got {r}"));
    }
    Ok(())
}

/// The power-of-two `n` the XOR algorithms need.
fn check_pow2(name: &str, n: usize) -> Result<(), String> {
    if !n.is_power_of_two() {
        return Err(format!(
            "{name} requires a power-of-two processor count, got {n}"
        ));
    }
    Ok(())
}

/// The digit radices of a uniform radix-`r` schedule: `r` at every
/// position.
fn uniform(r: usize) -> std::iter::Repeat<usize> {
    std::iter::repeat(r)
}

/// The flat index schedule over all `n` ranks (see [`bruck_ops`]).
fn flat_bruck(
    n: usize,
    m: usize,
    block: usize,
    radices: impl Iterator<Item = usize> + Clone,
    k: usize,
) -> RankProgram {
    let size = bruck_size(n, radices.clone(), k);
    let mut prog = RankProgram::sized(n, m, block, n * block, n * block, size);
    bruck_ops(&mut prog, n, m, radices, 1, k, |g| g, 0);
    prog
}

/// The [`Size`] of [`bruck_ops`] over `n_g` members: two permutes (none
/// for a lone member) and `⌈steps / k⌉` rounds a subphase, a send and a
/// receive a step.
fn bruck_size(n_g: usize, radices: impl Iterator<Item = usize>, k: usize) -> Size {
    let per = |(_, _, _, steps): (u64, usize, usize, usize)| (steps.div_ceil(k), 2 * steps);
    let sizes = digit_positions(n_g, radices).map(per);
    let (rounds, xfers) = sizes.fold((0, 0), |(r, x), (dr, dx)| (r + dr, x + dx));
    (rounds + 2 * usize::from(n_g > 1), xfers)
}

/// Append the full index schedule over a (sub)group: rotate, digit
/// rounds grouped `k` per round, inverse placement. `radices` yields the
/// radix of each digit position, least significant first, and must
/// cover the group (`Π r_x ≥ n_g`; positions past that are never read).
/// The group has `n_g` members; this rank is member `m`; `peer` maps a
/// group index to a global rank; each group-level block spans `unit`
/// consecutive buffer blocks (`n_g · unit` = buffer blocks touched).
/// Tags are namespaced by `tag_base` so stacked phases never collide.
#[allow(clippy::too_many_arguments)] // one arg per schedule dimension; bundling them would only rename the problem
fn bruck_ops(
    prog: &mut RankProgram,
    n_g: usize,
    m: usize,
    radices: impl Iterator<Item = usize>,
    unit: usize,
    k: usize,
    peer: impl Fn(usize) -> usize,
    tag_base: u64,
) {
    if n_g <= 1 {
        return;
    }
    // Phase 1: upward rotation, tmp[u] = old[(u + m) mod n_g].
    prog.ops
        .push(permute(PermKind::Rotate { by: m }, n_g, unit));
    digit_rounds(prog, n_g, m, radices, unit, k, peer, tag_base);
    // Phase 3: inverse placement, out[j] = tmp[(m - j) mod n_g].
    prog.ops
        .push(permute(PermKind::Reflect { about: m }, n_g, unit));
}

/// The digit positions `(x, radix, stride, steps)` over `n_g` until the
/// weights reach it, radices clamped to it: `steps` is `r − 1` below the
/// top position, `⌈n_g / stride⌉ − 1` at it (Appendix A lines 7–11).
fn digit_positions(
    n_g: usize,
    radices: impl Iterator<Item = usize>,
) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let mut stride = 1usize;
    (0u64..).zip(radices).map_while(move |(x, r)| {
        let (at, r) = (stride, r.clamp(2, n_g.max(2)));
        stride = at.saturating_mul(r);
        (at < n_g).then(|| (x, r, at, digit_steps(n_g, at, r)))
    })
}

/// Phase 2 of [`bruck_ops`]: the digit rounds, one subphase per digit
/// position, grouped `k` per round.
#[allow(clippy::too_many_arguments)] // bruck_ops' arguments, passed on
fn digit_rounds(
    prog: &mut RankProgram,
    n_g: usize,
    m: usize,
    radices: impl Iterator<Item = usize>,
    unit: usize,
    k: usize,
    peer: impl Fn(usize) -> usize,
    tag_base: u64,
) {
    for (x, radix, stride, steps) in digit_positions(n_g, radices) {
        // Step z sends its slots to member m + z·stride and receives the
        // same slots from member m − z·stride.
        let xfer = |z: usize, other: usize| {
            let slots = SlotSet::new(stride, z, radix, n_g, unit);
            ProgramXfer::slots(peer(other % n_g), tag_base | (x << 32) | z as u64, slots)
        };
        for z in (1..=steps).step_by(k) {
            let steps = z..=steps.min(z + k - 1);
            let sends = steps.clone().map(|z| xfer(z, m + z * stride));
            prog.push_round(sends, steps.map(|z| xfer(z, m + n_g - z * stride)));
        }
    }
}

/// Distances `1..n` at which at least one pair moves `> floor` bytes,
/// under the globally-shared matrix — every rank derives the same
/// list, so the chunked rounds never desynchronize.
fn active_distances(n: usize, sizes: &[usize], floor: usize) -> Vec<usize> {
    (1..n)
        .filter(|&d| (0..n).any(|i| sizes[i * n + (i + d) % n] > floor))
        .collect()
}

/// The one block `s` of an `n`-block buffer: §3.2's digit test in radix
/// `n`, weight 1.
fn single(s: usize, n: usize) -> SlotSet {
    SlotSet::new(1, s, n, n, 1)
}

/// The direct algorithm, out of place: the rank's own block is placed,
/// offset `d` sends input slot `to` to that rank, and the block from rank
/// `from` lands in its final slot — no pass over the buffer at all.
/// `peers(d)` is `(to, from)`: `(m+d, m−d) mod n` for the direct exchange,
/// `m ⊕ d` both ways for the pairwise one.
fn direct_ops(
    n: usize,
    m: usize,
    block: usize,
    k: usize,
    peers: impl Fn(usize) -> (usize, usize),
) -> RankProgram {
    let size = (1 + (n - 1).div_ceil(k), 2 * (n - 1));
    let mut prog = RankProgram::sized(n, m, block, n * block, n * block, size);
    prog.ops.push(place(m * block, m * block, block));
    let send = |d: usize| {
        let to = peers(d).0;
        let span = Span::Input(single(to, n));
        ProgramXfer {
            peer: to,
            tag: d as u64,
            span,
        }
    };
    let recv = |d: usize| {
        let from = peers(d).1;
        ProgramXfer::slots(from, d as u64, single(from, n))
    };
    for d in (1..n).step_by(k) {
        let offsets = d..n.min(d + k);
        prog.push_round(offsets.clone().map(send), offsets.map(recv));
    }
    prog
}

/// The store-and-forward hypercube index of Johnsson & Ho (one port,
/// `n` a power of two): after an XOR permute slot `j` holds the block
/// with `src ⊕ dst = j`, so round `x` swaps the slots with bit `x` set
/// with rank `m ⊕ 2^x` — relaying blocks on their way — and the same
/// permute puts the block from rank `s` at slot `s`.
fn hypercube_ops(n: usize, m: usize, block: usize) -> RankProgram {
    let dims = n.trailing_zeros();
    let size = if n > 1 {
        (2 + dims as usize, 2 * dims as usize)
    } else {
        (0, 0)
    };
    let mut prog = RankProgram::sized(n, m, block, n * block, n * block, size);
    if n <= 1 {
        return prog;
    }
    let relabel = permute(PermKind::Xor { with: m }, n, 1);
    prog.ops.push(relabel.clone());
    for x in 0..dims {
        let bit = 1 << x;
        let slots = SlotSet::new(bit, 1, 2, n, 1);
        one_port(&mut prog, m ^ bit, slots, m ^ bit, slots, x.into());
    }
    prog.ops.push(relabel);
    prog
}

/// The two-level composition — the paper's own index algorithm at two
/// network levels, so that expensive inter-node links carry as few
/// start-ups as possible: lane-major transpose, intra-node index over
/// `nodes`-block bundles, node-major transpose, inter-node index over
/// `node_size`-block bundles. The final placement is the identity at
/// block granularity, so it is elided.
fn hierarchical_ops(
    n: usize,
    rank: usize,
    block: usize,
    node_size: usize,
    radix_local: usize,
    radix_remote: usize,
    k: usize,
) -> Result<RankProgram, String> {
    if node_size == 0 || !n.is_multiple_of(node_size) {
        return Err(format!(
            "hierarchical: n = {n} not divisible by node_size = {node_size}"
        ));
    }
    let nodes = n / node_size;
    if nodes == 1 || node_size == 1 {
        // Degenerate hierarchy: a flat index at the stronger radix.
        let r = radix_local.max(radix_remote);
        return Ok(flat_bruck(n, rank, block, uniform(r), k));
    }
    let l = bruck_size(node_size, uniform(radix_local), k);
    let r = bruck_size(nodes, uniform(radix_remote), k);
    let size = (2 + l.0 + r.0, l.1 + r.1);
    let mut prog = RankProgram::sized(n, rank, block, n * block, n * block, size);
    let my_node = rank / node_size;
    let my_lane = rank % node_size;
    let transpose = |rows, cols| permute(PermKind::Transpose { rows, cols }, n, 1);
    // Phase 1 pack: bundle for lane `l` holds our blocks for every rank
    // whose lane is `l`, node-major within the bundle — the node × lane
    // send buffer read lane-major.
    prog.ops.push(transpose(nodes, node_size));
    // Intra-node exchange of lane bundles.
    bruck_ops(
        &mut prog,
        node_size,
        my_lane,
        uniform(radix_local),
        nodes,
        k,
        |g| my_node * node_size + g,
        1 << PHASE_SHIFT,
    );
    // Phase 2 pack: node bundle `c` holds, for every lane of our node,
    // the block destined to lane-sibling ranks on node `c`.
    prog.ops.push(transpose(node_size, nodes));
    // Inter-node exchange of node bundles between lane siblings.
    bruck_ops(
        &mut prog,
        nodes,
        my_node,
        uniform(radix_remote),
        node_size,
        k,
        |g| g * node_size + my_lane,
        2 << PHASE_SHIFT,
    );
    Ok(prog)
}

/// The per-rank programs of one concatenation (all-to-all broadcast) of
/// `b`-byte blocks on `n` ranks: rank `v`'s input is its block `B[v]`,
/// its output `B[0] ‖ … ‖ B[n−1]`. A lowering is built once per
/// `(n, b, k)`, so what every rank shares — the circulant algorithm's
/// last-round runs — is planned once, and [`program`](Self::program)
/// reads it for each rank.
#[derive(Debug, Clone)]
pub struct ConcatLowering {
    n: usize,
    block: usize,
    ports: usize,
    shape: ConcatShape,
}

/// A last-round area: its offset and the receiver's byte runs.
type AreaRuns = (usize, Arc<[(usize, usize)]>);

/// The four concatenation algorithms, as what their programs need.
#[derive(Debug, Clone)]
enum ConcatShape {
    /// §4: `doubling` rounds growing the distance-ordered prefix
    /// `k+1`-fold, then the last-round areas, each `(offset, the
    /// receiver's byte runs)`.
    Circulant {
        doubling: u32,
        last: Vec<Vec<AreaRuns>>,
    },
    GatherBroadcast,
    RecursiveDoubling,
    Ring,
}

impl ConcatLowering {
    /// The paper's §4 algorithm on the circulant graph: rank `v` keeps
    /// its buffer in *distance order* (slot `δ` holds the block of rank
    /// `v − δ`), so every span is the same on every rank. Round `i` of
    /// phase 1 sends the first `(k+1)^i` slots to `v + j·(k+1)^i`, and the
    /// last round(s) move Table 1's byte partition
    /// ([`concat_last_round`]) — its areas' runs built here, once. The
    /// final reflection puts block `δ` at rank `v − δ`. `n ≤ k+1` is one
    /// round; `n = 1` or `b = 0` sends nothing.
    #[must_use]
    pub fn circulant(n: usize, block: usize, ports: usize, pref: Preference) -> Self {
        Self::circulant_lanes(n, block, 1, ports, pref)
    }

    /// [`circulant`](Self::circulant) over `b` lanes of `width` bytes, its
    /// last round planned a lane per byte and widened: no run splits a lane.
    fn circulant_lanes(n: usize, b: usize, width: usize, ports: usize, pref: Preference) -> Self {
        let k = ports.max(1);
        let last = concat_last_round(n, k, b, pref).map_or_else(Vec::new, |plan| {
            let at = |s: &ColumnSlice| (plan.n1 + s.col) * b + s.row_start;
            let run = |s: &ColumnSlice| (at(s) * width, s.len() * width);
            let area = |a: &Area| (a.offset, a.slices.iter().map(run).collect());
            let round = |areas: &Vec<Area>| areas.iter().map(area).collect();
            plan.rounds.iter().map(round).collect()
        });
        let doubling = ceil_log(k + 1, n.max(1)).saturating_sub(1).max(1);
        Self::new(n, b * width, k, ConcatShape::Circulant { doubling, last })
    }

    /// The folklore two-phase algorithm §4 opens with: gather to rank 0
    /// along the `(k+1)`-ary binomial tree, then broadcast back down it,
    /// each child getting only the complement of its own subtree. The
    /// node attached in tree round `g` roots the subtree `{j : j mod
    /// (k+1)^{g+1} = v}`. A rank with no part in a round runs it empty.
    #[must_use]
    pub fn gather_broadcast(n: usize, block: usize, ports: usize) -> Self {
        Self::new(n, block, ports.max(1), ConcatShape::GatherBroadcast)
    }

    /// Recursive doubling (one port): round `x` swaps the aligned `2^x`
    /// blocks held with rank `v ⊕ 2^x`.
    ///
    /// # Errors
    ///
    /// A message when `n` is not a power of two.
    pub fn recursive_doubling(n: usize, block: usize) -> Result<Self, String> {
        check_pow2("recursive doubling", n)?;
        Ok(Self::new(n, block, 1, ConcatShape::RecursiveDoubling))
    }

    /// The ring (one port): round `i` forwards the block that started `i`
    /// hops to the left to the right neighbour.
    #[must_use]
    pub fn ring(n: usize, block: usize) -> Self {
        Self::new(n, block, 1, ConcatShape::Ring)
    }

    fn new(n: usize, block: usize, ports: usize, shape: ConcatShape) -> Self {
        Self {
            n,
            block,
            ports,
            shape,
        }
    }

    /// Cluster size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Ports the programs use: `k`, or 1 for the one-port algorithms.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Rank `rank`'s program. Every algorithm works in place in the
    /// `n·b` output: it opens by placing the input block — at slot 0 for
    /// the distance-ordered circulant algorithm, at its own slot
    /// otherwise.
    ///
    /// # Panics
    ///
    /// If `rank ≥ n`.
    #[must_use]
    pub fn program(&self, rank: usize) -> RankProgram {
        let (n, b, k) = (self.n, self.block, self.ports);
        assert!(rank < n, "concat: rank {rank} out of range for n = {n}");
        let mut prog = RankProgram::sized(n, rank, b, b, n * b, self.size(rank));
        match &self.shape {
            ConcatShape::Circulant { doubling, last } => {
                prog.ops.push(place(0, 0, b));
                if n > 1 && b > 0 {
                    circulant_ops(&mut prog, n, rank, b, k, *doubling, last);
                }
            }
            shape => {
                prog.ops.push(place(0, rank * b, b));
                match shape {
                    ConcatShape::GatherBroadcast => gather_broadcast_ops(&mut prog, n, rank, b, k),
                    ConcatShape::RecursiveDoubling => doubling_ops(&mut prog, n, rank),
                    _ => ring_ops(&mut prog, n, rank),
                }
            }
        }
        prog
    }

    /// The [`Size`] of rank `v`'s program: the place, then each
    /// algorithm's rounds (and the circulant reflection), a send and a
    /// receive per edge of its communication graph.
    fn size(&self, v: usize) -> Size {
        let (n, k, dims) = (self.n, self.ports, self.n.trailing_zeros() as usize);
        let (ops, edges) = match &self.shape {
            ConcatShape::Circulant { doubling, last } if n > 1 && self.block > 0 => {
                let (doubling, areas) = (*doubling as usize, last.iter().map(Vec::len));
                (
                    doubling + last.len() + 1,
                    k.min(n - 1) * doubling + areas.sum::<usize>(),
                )
            }
            ConcatShape::GatherBroadcast if n > 1 => {
                let d = ceil_log(k + 1, n);
                let weights = (0..d).map(|g| pow(k + 1, g)).filter(|&p| v < p);
                let children = weights.map(|p| k.min((n - 1 - v) / p)).sum::<usize>();
                (2 * d as usize, usize::from(v > 0) + children)
            }
            ConcatShape::RecursiveDoubling => (dims, dims),
            ConcatShape::Ring => (n - 1, n - 1),
            _ => (0, 0),
        };
        (1 + ops, 2 * edges)
    }
}

/// The circulant algorithm's rounds and final reflection (see
/// [`ConcatLowering::circulant`]). Tags: round `i` of phase 1 is `i`,
/// area `a` of last round `r` is `(doubling + r) << 8 | a`.
fn circulant_ops(
    prog: &mut RankProgram,
    n: usize,
    v: usize,
    b: usize,
    k: usize,
    doubling: u32,
    last: &[Vec<AreaRuns>],
) {
    for i in 0..doubling {
        let (cur, tag) = (pow(k + 1, i), u64::from(i));
        let held = |digit| SlotSet::new(cur, digit, k + 1, ((k + 1) * cur).min(n), 1);
        // Every doubling round has k offsets, but one round at n ≤ k + 1.
        let offsets = 1..=k.min(n - 1);
        let send = |j| ProgramXfer::slots((v + j * cur) % n, tag, held(0));
        let recv = |j| ProgramXfer::slots((v + n - j * cur) % n, tag, held(j));
        prog.push_round(offsets.clone().map(send), offsets.map(recv));
    }
    for (ri, areas) in (0u64..).zip(last) {
        let tag = |ai: u64| (u64::from(doubling) + ri) << 8 | ai;
        let send = |(ai, (offset, runs)): (u64, &AreaRuns)| {
            ProgramXfer::bytes((v + offset) % n, tag(ai), Arc::clone(runs), offset * b)
        };
        let recv = |(ai, (offset, runs)): (u64, &AreaRuns)| {
            ProgramXfer::bytes((v + n - offset) % n, tag(ai), Arc::clone(runs), 0)
        };
        let areas = (0u64..).zip(areas);
        prog.push_round(areas.clone().map(send), areas.map(recv));
    }
    prog.ops.push(permute(PermKind::Reflect { about: v }, n, 1));
}

/// The gather + broadcast rounds (see [`ConcatLowering::gather_broadcast`]).
/// Tags: gather round `g` is `g`, broadcast round `g` is `d + g`.
fn gather_broadcast_ops(prog: &mut RankProgram, n: usize, v: usize, b: usize, k: usize) {
    if n <= 1 {
        return;
    }
    let (d, attached, children) = (ceil_log(k + 1, n), attached(v, k), |p| children(v, n, k, p));
    let subtree = |t: usize, p: usize| SlotSet::new(1, t, p * (k + 1), n, 1);
    // The blocks outside t's subtree, as byte runs.
    let complement = |t: usize, p: usize| -> Arc<[(usize, usize)]> {
        let (mut runs, mut lo) = (Vec::new(), 0);
        for hi in (t..n).step_by(p * (k + 1)).chain([n]) {
            if hi > lo {
                runs.push((lo * b, (hi - lo) * b));
            }
            lo = hi + 1;
        }
        runs.into()
    };
    for g in (0..d).rev() {
        let (p, tag) = (pow(k + 1, g), u64::from(g));
        let up = (attached == Some(p)).then(|| ProgramXfer::slots(v % p, tag, subtree(v, p)));
        let from = |c| ProgramXfer::slots(c, tag, subtree(c, p));
        prog.push_round(up, children(p).map(from));
    }
    for g in 0..d {
        let (p, tag) = (pow(k + 1, g), u64::from(d + g));
        let to = |c| ProgramXfer::bytes(c, tag, complement(c, p), 0);
        let down =
            (attached == Some(p)).then(|| ProgramXfer::bytes(v % p, tag, complement(v, p), 0));
        prog.push_round(children(p).map(to), down);
    }
}

/// The weight `p = (k+1)^g` of the round attaching `v` to the `(k+1)`-ary
/// binomial tree rooted at 0 (none for the root); its parent is `v mod p`.
fn attached(v: usize, k: usize) -> Option<usize> {
    (v > 0).then(|| {
        let mut p = 1;
        while p * (k + 1) <= v {
            p *= k + 1;
        }
        p
    })
}

/// The members `v + j·p` below `n` that `v` attaches in the tree round of
/// weight `p`, if `v` is already in the tree.
fn children(v: usize, n: usize, k: usize, p: usize) -> impl Iterator<Item = usize> + Clone {
    (1..=k)
        .map(move |j| v + j * p)
        .filter(move |&c| v < p && c < n)
}

/// Recursive doubling's rounds: round `x` swaps the aligned `2^x`-block
/// halves with rank `v ⊕ 2^x` (tag `x`).
fn doubling_ops(prog: &mut RankProgram, n: usize, v: usize) {
    for x in 0..n.trailing_zeros() {
        let span = 1usize << x;
        let aligned = |r: usize| SlotSet::new(span, r / span, n / span, n, 1);
        let partner = v ^ span;
        one_port(
            prog,
            partner,
            aligned(v),
            partner,
            aligned(partner),
            x.into(),
        );
    }
}

/// The ring's rounds: round `i` (tag `i`) sends slot `v − i` right and
/// receives slot `v − i − 1` from the left.
fn ring_ops(prog: &mut RankProgram, n: usize, v: usize) {
    let (right, left) = ((v + 1) % n, (v + n - 1) % n);
    let slot = |i: usize| single((v + n - i) % n, n);
    for i in 0..n - 1 {
        one_port(prog, right, slot(i), left, slot(i + 1), i as u64);
    }
}

/// A one-port round: `send` to `to`, `recv` from `from`, both `tag`.
fn one_port(
    prog: &mut RankProgram,
    to: usize,
    send: SlotSet,
    from: usize,
    recv: SlotSet,
    tag: u64,
) {
    let send = ProgramXfer::slots(to, tag, send);
    prog.push_round([send], [ProgramXfer::slots(from, tag, recv)]);
}

/// The reductions, over `f64` lanes: a concatenation or a tree broadcast
/// run backwards — each received span [folded](ProgramOp::Fold) in from
/// staging at the end of the work buffer — and Hillis–Steele doubling.
/// Each closes with a strip into its result.
impl RankProgram {
    /// Lower the reduce-scatter of `m` lanes for one rank: rank `v` ends
    /// with lanes `[v·b, (v+1)·b) ∩ [0, m)` of the element-wise reduction,
    /// `b = ⌈m/n⌉`. It is the round-preferring circulant concatenation of
    /// `b`-lane blocks run backwards: `⌈log_{k+1} n⌉` rounds at the
    /// concatenation's cost.
    ///
    /// # Panics
    ///
    /// If `rank ≥ n`.
    #[must_use]
    pub fn lower_reduce_scatter(n: usize, k: usize, rank: usize, m: usize, op: ReduceOp) -> Self {
        lanes_circulant(n, k, rank, m).reversed(op, m * LANE, false)
    }

    /// Lower the allreduce of `m` lanes for one rank: the reduce-scatter's
    /// rounds, then the circulant concatenation of the reduced blocks —
    /// twice the concatenation's cost; the closing strip cuts the padding
    /// to `n·⌈m/n⌉` lanes off.
    ///
    /// # Panics
    ///
    /// If `rank ≥ n`.
    #[must_use]
    pub fn lower_allreduce(n: usize, k: usize, rank: usize, m: usize, op: ReduceOp) -> Self {
        lanes_circulant(n, k, rank, m).reversed(op, m * LANE, true)
    }

    /// Lower the reduce of `m` lanes to `root` for rank `v`: the broadcast
    /// down the `(k+1)`-ary binomial tree of [`ConcatLowering::gather_broadcast`]
    /// rooted at `root` run backwards — round `g` (tag `g`), leaves first,
    /// sends the rank's partial reduction to its parent and folds each
    /// child's in. `root` ends with the reduction, the others with nothing.
    ///
    /// # Panics
    ///
    /// If `v` or `root` is not below `n`.
    #[must_use]
    pub fn lower_reduce(n: usize, k: usize, v: usize, root: usize, m: usize, op: ReduceOp) -> Self {
        assert!(v < n && root < n, "reduce: root {root}, n = {n}");
        // Member w of the tree rooted at 0 is rank w + root.
        let (k, len, w) = (k.max(1), m * LANE, (v + n - root) % n);
        let mut broadcast = Self::sized(n, v, len, len * usize::from(w == 0), len, (0, 0));
        broadcast.ops.extend((w == 0).then(|| place(0, 0, len)));
        let (up, whole) = (attached(w, k), Arc::<[_]>::from([(0, len)]));
        for g in 0..ceil_log(k + 1, n) {
            let (p, tag) = (pow(k + 1, g), u64::from(g));
            let xfer = |u: usize| ProgramXfer::bytes((u + root) % n, tag, Arc::clone(&whole), 0);
            let parent = (up == Some(p)).then(|| xfer(w % p));
            broadcast.push_round(children(w, n, k, p).map(xfer), parent);
        }
        broadcast.reversed(op, len, false)
    }

    /// This copy pattern run backwards with `op` over an `input`-byte
    /// vector (its output, cut at `input`); it must open with its places,
    /// close with at most one permute and receive each byte it does not
    /// place once, before sending it. The closing permute becomes places of
    /// the input; the rounds run in reverse order, each receive a send of
    /// the same span to the same peer, each send a receive into staging at
    /// the end of the work buffer folded into the span it read; the opening
    /// places become a closing strip. With `gather` the rounds then run
    /// forwards again (tags in the phase `1 << PHASE_SHIFT`) and the strip
    /// is the permute's: a concatenation reversed is a reduce-scatter, this
    /// an allreduce.
    fn reversed(&self, op: ReduceOp, input: usize, gather: bool) -> Self {
        let block = self.block;
        // (work offset, input offset, bytes) of each block, cut at the input.
        let cut = |(at, to, len): (usize, usize, usize)| {
            let len = len.min(input.saturating_sub(to));
            (len > 0).then_some((at, to, len))
        };
        let moves: Vec<(usize, usize, usize)> = match self.ops.last() {
            Some(ProgramOp::Permute(p)) => {
                let len = p.unit * block;
                let block_move = |u: usize| cut((p.source(u) * len, u * len, len));
                (0..p.groups).filter_map(block_move).collect()
            }
            _ => cut((0, 0, self.work)).into_iter().collect(),
        };
        let (mut stage, mut folds) = (0, 0);
        for round in self.ops.iter().filter_map(|op| self.round(op)) {
            stage = stage.max(round.sends.iter().map(|x| x.span.bytes(block)).sum());
            (round.sends.iter()).for_each(|x| x.span.for_each_run(block, |_, _| folds += 1));
        }
        let times = 1 + usize::from(gather);
        let ops = moves.len() + self.rounds() * times + folds + 1;
        let size = (ops, self.xfers.len() * times);
        let mut prog = Self::sized(self.n, self.rank, block, input, self.work + stage, size);
        prog.ops
            .extend(moves.iter().map(|&(at, from, len)| place(from, at, len)));
        for round in self.ops.iter().rev().filter_map(|op| self.round(op)) {
            let mut at = self.work;
            let staged = |x: &ProgramXfer| {
                let len = x.span.bytes(block);
                at += len;
                ProgramXfer::bytes(x.peer, x.tag, [(at - len, len)].into(), 0)
            };
            prog.push_round(round.recvs.iter().cloned(), round.sends.iter().map(staged));
            let mut from = self.work;
            for x in round.sends {
                x.span.for_each_run(block, |to, len| {
                    prog.ops.push(ProgramOp::Fold { op, from, to, len });
                    from += len;
                });
            }
        }
        let (runs, len) = if gather {
            let phase = |x: &ProgramXfer| ProgramXfer {
                tag: x.tag | 1 << PHASE_SHIFT,
                ..x.clone()
            };
            for round in self.ops.iter().filter_map(|op| self.round(op)) {
                prog.push_round(round.sends.iter().map(phase), round.recvs.iter().map(phase));
            }
            (moves, input)
        } else {
            let placed = |op: &ProgramOp| match *op {
                ProgramOp::Place { from, to, len } => Some((to, from, len)),
                _ => None,
            };
            (self.ops.iter().map_while(placed).collect(), self.input)
        };
        prog.ops.push(ProgramOp::Strip { runs, len });
        prog
    }

    /// Lower the prefix reduction of `m` lanes for one rank, inclusive
    /// (rank `v` ends with the reduction of ranks `0..=v`) or `exclusive`
    /// (of `0..v`; rank 0 with nothing): Hillis–Steele doubling over both
    /// accumulators, `⌈log₂ n⌉` one-port rounds. Round `i` (tag `i`) sends
    /// the inclusive accumulator to `v + 2^i` and receives `v − 2^i`'s —
    /// the first into the exclusive accumulator, folded into the inclusive
    /// one, later ones into staging, folded into both.
    #[must_use]
    pub fn lower_scan(n: usize, rank: usize, m: usize, op: ReduceOp, exclusive: bool) -> Self {
        let len = m * LANE;
        let (inc, exc, stage) = (0, len, 2 * len);
        let dists = (0..ceil_log(2, n)).map(|i| (u64::from(i), 1usize << i));
        let froms = dists.clone().filter(|&(_, d)| rank >= d).count();
        let tos = dists.clone().filter(|&(_, d)| rank + d < n).count();
        let size = (dists.len() + (2 * froms).saturating_sub(1) + 2, tos + froms);
        let mut prog = Self::sized(n, rank, len, len, 3 * len, size);
        prog.ops.push(place(0, inc, len));
        let fold = |from, to| ProgramOp::Fold { op, from, to, len };
        for (tag, d) in dists {
            let into = if tag == 0 { exc } else { stage };
            let xfer =
                |peer: usize, at: usize| ProgramXfer::bytes(peer, tag, [(at, len)].into(), 0);
            let recv = (rank >= d).then(|| xfer(rank - d, into));
            prog.push_round((rank + d < n).then(|| xfer(rank + d, inc)), recv);
            if rank >= d {
                prog.ops.push(fold(into, inc));
                prog.ops.extend((tag > 0).then(|| fold(stage, exc)));
            }
        }
        let own = len * usize::from(!exclusive || rank > 0);
        let runs = vec![(if exclusive { exc } else { inc }, 0, own)];
        prog.ops.push(ProgramOp::Strip { runs, len: own });
        prog
    }
}

/// Rank `rank`'s round-preferring circulant concatenation of `⌈m/n⌉`-lane
/// blocks, its own block cut at lane `m`.
fn lanes_circulant(n: usize, k: usize, rank: usize, m: usize) -> RankProgram {
    let b = m.div_ceil(n.max(1)) * LANE;
    let mut prog =
        ConcatLowering::circulant_lanes(n, b / LANE, LANE, k, Preference::Rounds).program(rank);
    prog.input = b.min((m * LANE).saturating_sub(rank * b));
    prog.ops[0] = place(0, 0, prog.input);
    prog
}

/// What a [`RankMachine`] asks of its driver next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action<'p> {
    /// A local op copied this many bytes: a permute or the copy-in of a
    /// program that opens with a round (the whole buffer), a place, a
    /// strip (its runs) or a fold (the lanes folded into).
    Local(usize),
    /// Post this round's sends, gathered from the spans' runs of
    /// [`RankMachine::source`], before [delivering](RankMachine::deliver)
    /// any of its receives (they may land in the bytes sent from).
    Send(ProgramRound<'p>),
    /// The round still awaits [`RankMachine::outstanding`].
    Await(ProgramRound<'p>),
    /// The result is [`RankMachine::buffer`].
    Done,
}

/// One rank's program as a pure state machine — the only interpreter of
/// a [`RankProgram`], with no I/O, clock or thread, and no allocation but
/// one flag per receive of the widest round.
/// [`step`](Self::step) runs local ops and yields "send these", then
/// "await these", then "done"; [`deliver`](Self::deliver) checks one
/// received message and scatters it into the buffer.
///
/// The data stays in `input` until the first local op (the first permute
/// reads it in place; a place copies bytes of it into the work buffer; a
/// program that opens with a round or a fold copies it all in, since those
/// write the buffer they read). A permute or strip writes the
/// `scratch` the driver lends to `step` and hands the old `work` back in
/// its place, so a driver of many ranks keeps one spare buffer, not one
/// per rank.
#[derive(Debug)]
pub struct RankMachine<'p, B> {
    program: &'p RankProgram,
    input: &'p [u8],
    work: B,
    /// The op the machine is at: the number of ops completed.
    at: usize,
    /// No local op has run: the data is still `input`.
    fresh: bool,
    /// Receives of the current round still to land (0: none awaited),
    /// and per receive whether it has.
    left: usize,
    landed: Vec<bool>,
}

impl<'p, B: AsRef<[u8]> + AsMut<[u8]>> RankMachine<'p, B> {
    /// A machine at the start of `program`, over `input` (the rank's
    /// [`RankProgram::input`] bytes, only ever read) and a `work` buffer
    /// of [`RankProgram::work`] bytes.
    ///
    /// # Errors
    ///
    /// A message naming the rank when the program does not fit its
    /// buffers ([`RankProgram::check_shape`]) or a buffer has the wrong
    /// size.
    pub fn new(program: &'p RankProgram, input: &'p [u8], work: B) -> Result<Self, String> {
        program.check_shape()?;
        let (want, rank) = ((program.input, program.work), program.rank);
        let sizes = (input.len(), work.as_ref().len());
        if sizes != want {
            return Err(format!(
                "rank {rank}: (input, work) must be {want:?} bytes (n·b for an index), not {sizes:?}"
            ));
        }
        Ok(Self {
            program,
            input,
            work,
            at: 0,
            fresh: true,
            left: 0,
            landed: Vec::new(),
        })
    }

    /// Advance to the next thing the driver must do. A permute (or
    /// copy-in) or strip writes `scratch` and swaps it with the work
    /// buffer, so the result ends in the buffer first lent as scratch when
    /// [`RankProgram::passes`] is odd, else in `work`. `scratch` must have
    /// the length the pass writes: a strip's declared one, else the work
    /// buffer's.
    pub fn step(&mut self, scratch: &mut B) -> Action<'p> {
        let (len, program) = (self.scratch_len(), self.program);
        match program.ops.get(self.at) {
            Some(ProgramOp::Permute(perm)) => {
                self.at += 1;
                let block = self.program.block;
                self.pass(scratch, len, |old, new| {
                    perm.apply(block, old, new);
                    len
                })
            }
            Some(ProgramOp::Strip { runs, .. }) => {
                self.at += 1;
                self.pass(scratch, len, |old, new| {
                    let copy = |&(from, to, l): &(usize, usize, usize)| {
                        new[to..to + l].copy_from_slice(&old[from..from + l]);
                        l
                    };
                    runs.iter().map(copy).sum()
                })
            }
            Some(&ProgramOp::Place { from, to, len }) => {
                self.at += 1;
                self.work.as_mut()[to..to + len].copy_from_slice(&self.input[from..from + len]);
                self.fresh = false;
                Action::Local(len)
            }
            None | Some(ProgramOp::Round { .. } | ProgramOp::Fold { .. }) if self.fresh => self
                .pass(scratch, len, |old, new| {
                    new.copy_from_slice(old);
                    len
                }),
            Some(&ProgramOp::Fold { op, from, to, len }) => {
                self.at += 1;
                let work = self.work.as_mut();
                let lane = |work: &[u8], at: usize| {
                    f64::from_le_bytes(work[at..at + LANE].try_into().expect("an 8-byte lane"))
                };
                for at in (0..len).step_by(LANE) {
                    let folded = op.apply(lane(work, to + at), lane(work, from + at));
                    work[to + at..to + at + LANE].copy_from_slice(&folded.to_le_bytes());
                }
                Action::Local(len)
            }
            None => Action::Done,
            Some(op) => {
                let round = program.round(op).expect("a round RankMachine::new checked");
                if self.left > 0 {
                    return Action::Await(round);
                }
                self.left = round.recvs.len();
                self.landed.clear();
                self.landed.resize(self.left, false);
                self.at += usize::from(self.left == 0);
                Action::Send(round)
            }
        }
    }

    /// The bytes of scratch the next [`step`](Self::step) writes if it is
    /// a pass: a strip's declared length, else the buffer's.
    fn scratch_len(&self) -> usize {
        match self.program.ops.get(self.at) {
            Some(ProgramOp::Strip { len, .. }) => *len,
            _ => self.buffer().len(),
        }
    }

    /// One pass `copy(old, new)` into the `len`-byte `scratch`, which then
    /// becomes the work buffer; `copy` returns the bytes it moved.
    fn pass(
        &mut self,
        scratch: &mut B,
        len: usize,
        copy: impl FnOnce(&[u8], &mut [u8]) -> usize,
    ) -> Action<'p> {
        let (old, new) = (self.buffer(), scratch.as_mut());
        assert_eq!(new.len(), len, "scratch must be the pass's {len} bytes");
        let copied = copy(old, new);
        std::mem::swap(&mut self.work, scratch);
        self.fresh = false;
        Action::Local(copied)
    }

    /// Take one message of the awaited round and scatter it into the
    /// span of the receive `(peer, tag)` names; the last one completes
    /// the round.
    ///
    /// # Errors
    ///
    /// A message naming the rank, peer and tag — the buffer untouched —
    /// when the program is done, no round awaits, the awaited round has
    /// no such receive or it has landed, or the payload is not that
    /// receive's span's length.
    pub fn deliver(&mut self, peer: usize, tag: u64, payload: &[u8]) -> Result<(), String> {
        let rank = self.program.rank;
        let err = |what: &str| Err(format!("rank {rank}: from {peer}, tag {tag}: {what}"));
        let round = match (self.awaited(), self.program.ops.get(self.at)) {
            (Some(round), _) => round,
            (None, None) => return err("the program is done"),
            (None, Some(_)) => return err("no round awaits it"),
        };
        let named = |x: &ProgramXfer| (x.peer, x.tag) == (peer, tag);
        let Some(i) = round.recvs.iter().position(named) else {
            return err("the awaited round has no such receive");
        };
        if self.landed[i] {
            return err("already delivered");
        }
        let (span, block) = (&round.recvs[i].span, self.program.block);
        let (got, want) = (payload.len(), span.bytes(block));
        if got != want {
            return err(&format!("{got} payload bytes, not {want}"));
        }
        let (work, mut rest) = (self.work.as_mut(), payload);
        span.for_each_run(block, |at, len| {
            let run;
            (run, rest) = rest.split_at(len);
            work[at..at + len].copy_from_slice(run);
        });
        self.landed[i] = true;
        self.left -= 1;
        self.at += usize::from(self.left == 0);
        Ok(())
    }

    /// The round whose receives are awaited, if one is.
    fn awaited(&self) -> Option<ProgramRound<'p>> {
        let program = self.program;
        let op = program.ops.get(self.at).filter(|_| self.left > 0)?;
        program.round(op)
    }

    /// The `(peer, tag)` of every awaited receive that has not landed.
    pub fn outstanding(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let recvs = self.awaited().map_or(&[][..], |round| round.recvs);
        let pending = recvs.iter().zip(&self.landed).filter(|(_, &l)| !l);
        pending.map(|(x, _)| (x.peer, x.tag))
    }

    /// The buffer send `x` reads: the input or [`buffer`](Self::buffer).
    pub fn source(&self, x: &ProgramXfer) -> &[u8] {
        if x.span.in_input() {
            self.input
        } else {
            self.buffer()
        }
    }

    /// Append transfer `x`'s payload, gathered from its spans, to `out`.
    pub fn pack(&self, x: &ProgramXfer, out: &mut Vec<u8>) {
        let src = self.source(x);
        x.span.for_each_run(self.program.block, |at, len| {
            out.extend_from_slice(&src[at..at + len]);
        });
    }

    /// The rank's data as it stands: the input until the first local op.
    pub fn buffer(&self) -> &[u8] {
        if self.fresh {
            self.input
        } else {
            self.work.as_ref()
        }
    }

    /// Ops completed so far.
    pub fn completed(&self) -> usize {
        self.at
    }

    /// The work buffer: the result once the machine is done.
    pub fn into_work(self) -> B {
        self.work
    }
}

/// Run a program set with perfect in-memory message delivery: each
/// rank's [`RankMachine`], in rank order, as far as its mail allows, until
/// none can move. `inputs[r]` is rank `r`'s input; the result is each
/// rank's output. `after_op(rank, op, data)` sees every op a rank
/// completes, with the data as that op left it.
///
/// # Errors
///
/// A message when the set does not run to its end: a buffer of the wrong
/// size, a tag sent twice, a delivery a machine refuses, a receive nobody
/// sends or a message nobody receives.
pub fn simulate<'p>(
    programs: &'p [RankProgram],
    inputs: &'p [Vec<u8>],
    mut after_op: impl FnMut(usize, usize, &[u8]),
) -> Result<Vec<Vec<u8>>, String> {
    let counts = (inputs.len(), programs.len());
    if counts.0 != counts.1 {
        return Err(format!("simulate: (inputs, programs) = {counts:?}"));
    }
    let machine =
        |(p, input): (&'p RankProgram, &'p Vec<u8>)| RankMachine::new(p, input, vec![0; p.work]);
    let machines: Result<Vec<_>, _> = programs.iter().zip(inputs).map(machine).collect();
    let mut machines = machines.map_err(|e| format!("simulate: {e}"))?;
    let mut scratch = Vec::new();
    // Sent and not yet delivered, keyed by (dst, src, tag).
    let mut mail: HashMap<(usize, usize, u64), Vec<u8>> = HashMap::new();
    let mut moved = true;
    while std::mem::take(&mut moved) {
        for (r, m) in machines.iter_mut().enumerate() {
            loop {
                let at = m.completed();
                scratch.resize(m.scratch_len(), 0);
                match m.step(&mut scratch) {
                    Action::Local(_) => {}
                    Action::Send(round) => {
                        for s in round.sends {
                            let mut payload = Vec::new();
                            m.pack(s, &mut payload);
                            if mail.insert((s.peer, r, s.tag), payload).is_some() {
                                return Err(format!("simulate: rank {r} reused tag {}", s.tag));
                            }
                        }
                    }
                    Action::Await(round) => {
                        for x in round.recvs {
                            if let Some(payload) = mail.remove(&(r, x.peer, x.tag)) {
                                m.deliver(x.peer, x.tag, &payload)
                                    .map_err(|e| format!("simulate: {e}"))?;
                                moved = true;
                            }
                        }
                        if m.outstanding().next().is_some() {
                            break;
                        }
                    }
                    Action::Done => break,
                }
                moved = true;
                if m.completed() > at {
                    after_op(r, at, m.buffer());
                }
            }
        }
    }
    let mut stuck = machines.iter().enumerate();
    if let Some((r, (from, tag))) = stuck.find_map(|(r, m)| Some((r, m.outstanding().next()?))) {
        return Err(format!(
            "simulate: rank {r} awaits tag {tag} from {from}, never sent"
        ));
    }
    if !mail.is_empty() {
        return Err(format!("simulate: {} messages never received", mail.len()));
    }
    Ok(machines.into_iter().map(RankMachine::into_work).collect())
}

/// The index-vector lowering this module used before descriptors: every
/// slot list a `Vec<usize>`, every permutation an n-entry table. Kept as
/// the reference the differential test expands descriptors against.
#[cfg(test)]
mod reference {
    use super::PHASE_SHIFT;
    use crate::mixed_radix::MixedRadix;
    use crate::radix::RadixDecomposition;

    /// `(peer, tag, slots)`.
    pub type Xfer = (usize, u64, Vec<usize>);

    #[derive(Debug, PartialEq, Eq)]
    pub enum Op {
        /// `new[i] = old[perm[i]]`.
        Permute(Vec<usize>),
        /// `(from, to, blocks)`: input blocks into the work buffer.
        Place(usize, usize, usize),
        Round {
            sends: Vec<Xfer>,
            recvs: Vec<Xfer>,
        },
    }

    #[allow(clippy::too_many_arguments)]
    pub fn bruck_ops(
        ops: &mut Vec<Op>,
        n_g: usize,
        m: usize,
        r: usize,
        unit: usize,
        k: usize,
        peer: impl Fn(usize) -> usize,
        tag_base: u64,
    ) {
        if n_g <= 1 {
            return;
        }
        let r = r.clamp(2, n_g);
        ops.push(Op::Permute(group_perm(n_g, unit, |u| (u + m) % n_g)));
        let decomp = RadixDecomposition::new(n_g, r);
        for x in 0..decomp.num_subphases() {
            let steps = decomp.steps_in_subphase(x);
            let mut z = 1usize;
            while z <= steps {
                let hi = steps.min(z + k - 1);
                let (mut sends, mut recvs) = (Vec::new(), Vec::new());
                for zz in z..=hi {
                    let dist = decomp.step_distance(x, zz);
                    let dst = (m + dist) % n_g;
                    let src = (m + n_g - dist % n_g) % n_g;
                    let slots: Vec<usize> = decomp
                        .blocks_for_step(x, zz)
                        .into_iter()
                        .flat_map(|j| (0..unit).map(move |q| j * unit + q))
                        .collect();
                    let tag = tag_base | (u64::from(x) << 32) | zz as u64;
                    sends.push((peer(dst), tag, slots.clone()));
                    recvs.push((peer(src), tag, slots));
                }
                ops.push(Op::Round { sends, recvs });
                z = hi + 1;
            }
        }
        ops.push(Op::Permute(group_perm(n_g, unit, |j| (m + n_g - j) % n_g)));
    }

    /// The mixed-radix schedule as the step loop of the §3 algorithm
    /// over [`MixedRadix`]'s enumerated digit sets — the shape of the
    /// threaded executor the lowering replaced.
    pub fn mixed_ops(ops: &mut Vec<Op>, n: usize, m: usize, radices: &[usize], k: usize) {
        if n <= 1 {
            return;
        }
        ops.push(Op::Permute(group_perm(n, 1, |u| (u + m) % n)));
        let decomp = MixedRadix::new(n, radices);
        for x in 0..decomp.num_subphases() {
            let steps = decomp.steps_in_subphase(x);
            let mut z = 1usize;
            while z <= steps {
                let hi = steps.min(z + k - 1);
                let (mut sends, mut recvs) = (Vec::new(), Vec::new());
                for zz in z..=hi {
                    let dist = decomp.step_distance(x, zz) % n;
                    let slots = decomp.blocks_for_step(x, zz);
                    let tag = ((x as u64) << 32) | zz as u64;
                    sends.push(((m + dist) % n, tag, slots.clone()));
                    recvs.push(((m + n - dist) % n, tag, slots));
                }
                ops.push(Op::Round { sends, recvs });
                z = hi + 1;
            }
        }
        ops.push(Op::Permute(group_perm(n, 1, |j| (m + n - j) % n)));
    }

    fn group_perm(n_g: usize, unit: usize, f: impl Fn(usize) -> usize) -> Vec<usize> {
        let mut perm = vec![0usize; n_g * unit];
        for u in 0..n_g {
            let src = f(u);
            for q in 0..unit {
                perm[u * unit + q] = src * unit + q;
            }
        }
        perm
    }

    /// The out-of-place direct exchange: own block placed, input slot
    /// `m+d` sent, slot `m−d` received, no permutation.
    pub fn direct_ops(ops: &mut Vec<Op>, n: usize, m: usize, k: usize) {
        ops.push(Op::Place(m, m, 1));
        let mut d = 1usize;
        while d < n {
            let hi = (n - 1).min(d + k - 1);
            let (mut sends, mut recvs) = (Vec::new(), Vec::new());
            for dd in d..=hi {
                let (to, from) = ((m + dd) % n, (m + n - dd) % n);
                sends.push((to, dd as u64, vec![to]));
                recvs.push((from, dd as u64, vec![from]));
            }
            ops.push(Op::Round { sends, recvs });
            d = hi + 1;
        }
    }

    pub fn hierarchical_ops(
        ops: &mut Vec<Op>,
        n: usize,
        rank: usize,
        node_size: usize,
        radix_local: usize,
        radix_remote: usize,
        k: usize,
    ) {
        let nodes = n / node_size;
        if nodes == 1 || node_size == 1 {
            bruck_ops(ops, n, rank, radix_local.max(radix_remote), 1, k, |g| g, 0);
            return;
        }
        let my_node = rank / node_size;
        let my_lane = rank % node_size;
        let mut p1 = vec![0usize; n];
        for lane in 0..node_size {
            for node in 0..nodes {
                p1[lane * nodes + node] = node * node_size + lane;
            }
        }
        ops.push(Op::Permute(p1));
        bruck_ops(
            ops,
            node_size,
            my_lane,
            radix_local,
            nodes,
            k,
            |g| my_node * node_size + g,
            1 << PHASE_SHIFT,
        );
        let mut p2 = vec![0usize; n];
        for node in 0..nodes {
            for lane in 0..node_size {
                p2[node * node_size + lane] = lane * nodes + node;
            }
        }
        ops.push(Op::Permute(p2));
        bruck_ops(
            ops,
            nodes,
            my_node,
            radix_remote,
            node_size,
            k,
            |g| g * node_size + my_lane,
            2 << PHASE_SHIFT,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest single message of a program, in blocks.
    fn max_message_blocks(p: &RankProgram) -> usize {
        let widest = |r: ProgramRound| r.sends.iter().map(|x| x.span.bytes(1)).max();
        let rounds = p.ops.iter().filter_map(|op| p.round(op));
        rounds.filter_map(widest).max().unwrap_or(0)
    }

    /// A round's transfers, mutable.
    struct RoundMut<'a> {
        sends: &'a mut [ProgramXfer],
        recvs: &'a mut [ProgramXfer],
    }

    /// Op `at` of `p`, a round, as its transfers to edit in place.
    fn round_mut(p: &mut RankProgram, at: usize) -> RoundMut<'_> {
        let ProgramOp::Round { sends, recvs } = &p.ops[at] else {
            panic!("op {at} is not a round");
        };
        let (before, rest) = p.xfers.split_at_mut(recvs.start);
        RoundMut {
            sends: &mut before[sends.clone()],
            recvs: &mut rest[..recvs.len()],
        }
    }

    /// The reference lowering of `plan` for one rank.
    fn reference_ops(plan: &IndexPlan, n: usize, rank: usize, k: usize) -> Vec<reference::Op> {
        let mut ops = Vec::new();
        match plan {
            IndexPlan::Radix(r) => reference::bruck_ops(&mut ops, n, rank, *r, 1, k, |g| g, 0),
            IndexPlan::Direct => reference::direct_ops(&mut ops, n, rank, k),
            IndexPlan::Pairwise | IndexPlan::Hypercube => unreachable!("no index-vector reference"),
            IndexPlan::Hierarchical {
                node_size,
                radix_local,
                radix_remote,
            } => reference::hierarchical_ops(
                &mut ops,
                n,
                rank,
                *node_size,
                *radix_local,
                *radix_remote,
                k,
            ),
            IndexPlan::Mixed(radices) => reference::mixed_ops(&mut ops, n, rank, radices, k),
        }
        ops
    }

    /// A descriptor program expanded to the reference's index vectors.
    fn expand(program: &RankProgram) -> Vec<reference::Op> {
        let xfers = |xs: &[ProgramXfer]| -> Vec<reference::Xfer> {
            xs.iter()
                .map(|x| {
                    let mut slots = Vec::new();
                    x.span.for_each_run(1, |at, len| slots.extend(at..at + len));
                    assert_eq!(slots.len(), x.span.bytes(1), "{:?}", x.span);
                    (x.peer, x.tag, slots)
                })
                .collect()
        };
        program
            .ops
            .iter()
            .map(|op| match op {
                ProgramOp::Permute(p) => {
                    // Applied to one-byte blocks holding their own index
                    // (n ≤ 128 here), a permutation spells out its table.
                    let n = p.groups * p.unit;
                    let identity: Vec<u8> = (0..n).map(|i| i as u8).collect();
                    let mut perm = vec![u8::MAX; n];
                    p.apply(1, &identity, &mut perm);
                    reference::Op::Permute(perm.into_iter().map(usize::from).collect())
                }
                &ProgramOp::Place { from, to, len } => {
                    let b = program.block;
                    reference::Op::Place(from / b, to / b, len / b)
                }
                ProgramOp::Round { .. } => {
                    let r = program.round(op).unwrap();
                    reference::Op::Round {
                        sends: xfers(r.sends),
                        recvs: xfers(r.recvs),
                    }
                }
                ProgramOp::Strip { .. } | ProgramOp::Fold { .. } => {
                    unreachable!("no index program strips or folds")
                }
            })
            .collect()
    }

    /// Satellite of the descriptor lowering: for every plan family, size,
    /// rank and port count, the descriptors expand to exactly the index
    /// vectors the previous lowering built — same op order, peers, tags,
    /// slot order and permutations — and the derived counts agree.
    #[test]
    fn descriptors_expand_to_the_index_vector_lowering() {
        let mut compared = 0usize;
        for n in (2..=40usize).chain([64, 128]) {
            let mut plans = vec![
                IndexPlan::Radix(2),
                IndexPlan::Radix(3),
                IndexPlan::Radix(n),
                IndexPlan::Direct,
            ];
            for node_size in (1..=n).filter(|s| n % s == 0) {
                for (radix_local, radix_remote) in [(2, 2), (2, 3), (3, 2), (3, 3)] {
                    plans.push(IndexPlan::Hierarchical {
                        node_size,
                        radix_local,
                        radix_remote,
                    });
                }
            }
            for plan in &plans {
                for k in 1..=3usize {
                    for rank in 0..n {
                        let program = RankProgram::lower(plan, n, rank, 4, k).expect("lowerable");
                        program.check_shape().expect("lowered programs fit");
                        let want = reference_ops(plan, n, rank, k);
                        assert_eq!(
                            expand(&program),
                            want,
                            "plan={} n={n} k={k} rank={rank}",
                            plan.label()
                        );
                        let (mut rounds, mut widest) = (0usize, 0usize);
                        for op in &want {
                            if let reference::Op::Round { sends, .. } = op {
                                rounds += 1;
                                widest =
                                    widest.max(sends.iter().map(|s| s.2.len()).max().unwrap_or(0));
                            }
                        }
                        assert_eq!(program.rounds(), rounds);
                        assert_eq!(max_message_blocks(&program), widest);
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 50_000, "sweep shrank to {compared} programs");
    }

    #[test]
    fn hand_built_programs_that_do_not_fit_are_rejected() {
        let mut p = RankProgram::lower(&IndexPlan::Radix(2), 8, 3, 4, 1).unwrap();
        p.check_shape().unwrap();
        p.n = 7;
        assert!(p.check_shape().unwrap_err().contains("op 0"));
        let inputs = vec![vec![0u8; 28]; 7];
        let set: Vec<RankProgram> = (0..7)
            .map(|rank| RankProgram { rank, ..p.clone() })
            .collect();
        assert!(simulate(&set, &inputs, |_, _, _| {})
            .unwrap_err()
            .contains("does not fit"));
        // A transpose that is not n cells, an XOR past the group count or
        // over a count that is not a power of two.
        for (kind, n) in [
            (PermKind::Transpose { rows: 3, cols: 2 }, 8),
            (PermKind::Xor { with: 8 }, 8),
            (PermKind::Xor { with: 1 }, 6),
        ] {
            p.n = n;
            p.ops[0] = permute(kind, n, 1);
            assert!(p.check_shape().unwrap_err().contains("op 0"), "{kind:?}");
        }
        p.ops[0] = permute(PermKind::Xor { with: 5 }, 8, 1);
        p.n = 8;
        p.check_shape().unwrap();

        // Rank 1 of a two-phase exchange on 3 ranks: two places, the quota
        // phase's two rounds, a strip, the own place, a tail round.
        let sizes = [1, 5, 2, 3, 0, 4, 6, 2, 1];
        let plan = VIndexPlan::TwoPhase { radix: 2, quota: 2 };
        let good = RankProgram::lower_vindex(&plan, 3, 2, 1, &sizes, &[0, 3, 3]).unwrap();
        good.check_shape().unwrap();
        let strip = good.ops.len() - 3;
        let tail = good.ops.len() - 1;
        assert!(matches!(good.ops[strip], ProgramOp::Strip { len: 7, .. }));
        for edit in [
            // A strip run read past the n·q buffer, one written past the
            // declared length, a declared length too short for them.
            &(|p: &mut RankProgram| {
                let ProgramOp::Strip { runs, .. } = &mut p.ops[strip] else {
                    unreachable!()
                };
                runs[0].0 = 5;
            }) as &dyn Fn(&mut RankProgram),
            &|p| {
                let ProgramOp::Strip { runs, .. } = &mut p.ops[strip] else {
                    unreachable!()
                };
                runs[1].1 = 6;
            },
            &|p| {
                let ProgramOp::Strip { len, .. } = &mut p.ops[strip] else {
                    unreachable!()
                };
                *len = 4;
            },
            // An input run past the send buffer, a tail run past the layout.
            &|p| round_mut(p, tail).sends[0].span = Span::InputBytes(vec![(4, 4)].into()),
            &|p| {
                round_mut(p, tail).recvs[0].span = Span::Bytes {
                    runs: vec![(5, 3)].into(),
                    back: 0,
                };
            },
        ] {
            let mut p = good.clone();
            edit(&mut p);
            let err = p.check_shape().unwrap_err();
            assert!(err.contains("op ") && err.contains("does not fit"), "{err}");
            assert!(RankMachine::new(&p, &[0; 7], vec![0; 6]).is_err());
        }
        // A declared work length the places overrun.
        let mut p = good.clone();
        p.work = 3;
        assert!(p.check_shape().unwrap_err().contains("op 0"));

        // The root of a one-port reduce of two lanes on 4 ranks: a place,
        // then per round a receive into staging and a fold of it.
        let good = RankProgram::lower_reduce(4, 1, 0, 0, 2, ReduceOp::Sum);
        good.check_shape().unwrap();
        let fold = good
            .ops
            .iter()
            .position(|op| matches!(op, ProgramOp::Fold { .. }));
        let fold = fold.expect("the root folds");
        assert_eq!(good.work, 32);
        // A part of a lane, ranges that overlap, a range past the work.
        for (from, to, len) in [(16, 0, 12), (8, 0, 16), (24, 0, 16), (0, 24, 16)] {
            let mut p = good.clone();
            p.ops[fold] = ProgramOp::Fold {
                op: ReduceOp::Max,
                from,
                to,
                len,
            };
            let err = p.check_shape().unwrap_err();
            assert!(err.contains(&format!("op {fold} does not fit")), "{err}");
            assert!(RankMachine::new(&p, &[0; 16], vec![0; 32]).is_err());
        }
    }

    /// The fold rides in the op's existing five words.
    #[test]
    fn an_op_is_five_words() {
        assert_eq!(
            std::mem::size_of::<ProgramOp>(),
            5 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn active_distance_floor() {
        // 3 ranks, only 0→1 carries data (size 4).
        let sizes = [0, 4, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(active_distances(3, &sizes, 0), vec![1]);
        assert_eq!(active_distances(3, &sizes, 3), vec![1]);
        assert!(active_distances(3, &sizes, 4).is_empty());
    }

    /// A matrix whose `n·bmax` (and `n·q` below it) overflows `usize` is
    /// refused by name, before any buffer is sized; this rank's own
    /// blocks and column are empty, so nothing else overflows first.
    #[test]
    fn padded_and_quota_buffers_that_overflow_are_refused() {
        let huge = usize::MAX / 2;
        let sizes = [0, 0, 0, 0, 0, huge, 0, 0, 0];
        let lower = |plan| RankProgram::lower_vindex(&plan, 3, 1, 0, &sizes, &[0; 3]);
        let padded = lower(VIndexPlan::Padded { radix: 2 }).unwrap_err();
        assert!(padded.contains("padded buffer overflows usize"), "{padded}");
        let quota = lower(VIndexPlan::TwoPhase {
            radix: 2,
            quota: huge - 1,
        })
        .unwrap_err();
        assert!(quota.contains("quota buffer overflows usize"), "{quota}");
        // A quota at or past the maximum is the padded member.
        let past = lower(VIndexPlan::TwoPhase {
            radix: 3,
            quota: huge,
        })
        .unwrap_err();
        assert!(past.contains("padded buffer"), "{past}");
        // Direct sizes no buffer by the maximum: it lowers.
        lower(VIndexPlan::Direct).unwrap();
    }

    #[test]
    fn hand_built_spans_and_places_that_do_not_fit_are_rejected() {
        // Rank 1 of the n = 10, k = 3, b = 3 circulant concatenation: a
        // place, one doubling round, one last round of byte runs.
        let good = ConcatLowering::circulant(10, 3, 3, Preference::Rounds).program(1);
        good.check_shape().unwrap();
        let last = good.ops.len() - 2;
        let rejected = |edit: &dyn Fn(&mut RankProgram)| {
            let mut p = good.clone();
            edit(&mut p);
            p.check_shape().unwrap_err()
        };
        // A send moved below offset 0, a run past n·b, a receive that
        // reads the input, a place outside either buffer.
        let below = |p: &mut RankProgram| {
            let Span::Bytes { back, .. } = &mut round_mut(p, last).sends[0].span else {
                panic!("the last round moves byte runs");
            };
            *back = 30;
        };
        assert!(rejected(&below).contains(&format!("op {last}")));
        let past = |p: &mut RankProgram| {
            round_mut(p, last).sends[0].span = Span::Bytes {
                runs: vec![(28, 3)].into(),
                back: 0,
            };
        };
        assert!(rejected(&past).contains(&format!("op {last}")));
        let input_recv =
            |p: &mut RankProgram| round_mut(p, last).recvs[0].span = Span::Input(single(0, 10));
        assert!(rejected(&input_recv).contains(&format!("op {last}")));
        for (from, to) in [(1, 0), (0, 28)] {
            let place = |p: &mut RankProgram| p.ops[0] = place(from, to, 3);
            assert!(rejected(&place).contains("op 0"));
        }
        // A program that copies in a b-byte input.
        let copy_in = |p: &mut RankProgram| {
            p.ops.remove(0);
        };
        assert!(rejected(&copy_in).contains("copies a 3-byte input"));
        // A machine refuses both before touching a buffer.
        let mut p = good.clone();
        below(&mut p);
        assert!(RankMachine::new(&p, &[0; 3], vec![0; 30]).is_err());
        assert!(RankMachine::new(&good, &[0; 30], vec![0; 30]).is_err());
    }

    /// The byte pattern rank `i` sends to rank `j` (position `p`):
    /// deterministic and pair-unique, same convention as the verify
    /// oracle in `bruck-collectives`.
    fn pattern(i: usize, j: usize, p: usize, block: usize) -> u8 {
        ((i * 31 + j * 7 + p * 13 + block) % 251) as u8
    }

    fn input(rank: usize, n: usize, block: usize) -> Vec<u8> {
        let mut buf = vec![0u8; n * block];
        for j in 0..n {
            for p in 0..block {
                buf[j * block + p] = pattern(rank, j, p, block);
            }
        }
        buf
    }

    fn expected(rank: usize, n: usize, block: usize) -> Vec<u8> {
        let mut buf = vec![0u8; n * block];
        for j in 0..n {
            for p in 0..block {
                buf[j * block + p] = pattern(j, rank, p, block);
            }
        }
        buf
    }

    /// Whether a program's lists hold exactly what its lowering sized
    /// them for.
    fn exactly_sized(p: &RankProgram) -> bool {
        (p.ops.len(), p.xfers.len()) == (p.ops.capacity(), p.xfers.capacity())
    }

    fn check(plan: &IndexPlan, n: usize, block: usize, ports: usize) {
        let programs: Vec<RankProgram> = (0..n)
            .map(|r| RankProgram::lower(plan, n, r, block, ports).expect("lowerable"))
            .collect();
        assert!(programs.iter().all(exactly_sized), "{}", plan.label());
        let inputs: Vec<Vec<u8>> = (0..n).map(|r| input(r, n, block)).collect();
        let outs = simulate(&programs, &inputs, |_, _, _| {}).expect("simulate");
        for (r, out) in outs.iter().enumerate() {
            assert_eq!(
                out,
                &expected(r, n, block),
                "plan={} n={n} b={block} k={ports} rank={r}",
                plan.label()
            );
        }
    }

    #[test]
    fn radix_lowering_matches_oracle() {
        for &n in &[2usize, 3, 5, 8, 13, 16, 27] {
            for &k in &[1usize, 2] {
                for r in [2, 3, n] {
                    check(&IndexPlan::Radix(r), n, 5, k);
                }
            }
        }
    }

    #[test]
    fn direct_and_hypercube_lowerings_match_oracle() {
        for &k in &[1usize, 3] {
            for &n in &[2usize, 5, 9, 16] {
                check(&IndexPlan::Direct, n, 4, k);
            }
            for &n in &[1usize, 2, 4, 16, 64] {
                check(&IndexPlan::Pairwise, n, 3, k);
                check(&IndexPlan::Hypercube, n, 3, k);
            }
        }
    }

    #[test]
    fn hierarchical_lowering_matches_oracle() {
        for &(n, s) in &[(8usize, 2usize), (8, 4), (12, 3), (16, 4), (36, 6), (64, 8)] {
            for &k in &[1usize, 2] {
                check(
                    &IndexPlan::Hierarchical {
                        node_size: s,
                        radix_local: 2,
                        radix_remote: 2,
                    },
                    n,
                    3,
                    k,
                );
            }
        }
        // Mixed radices and degenerate hierarchies.
        check(
            &IndexPlan::Hierarchical {
                node_size: 4,
                radix_local: 4,
                radix_remote: 3,
            },
            16,
            6,
            1,
        );
        check(
            &IndexPlan::Hierarchical {
                node_size: 1,
                radix_local: 2,
                radix_remote: 2,
            },
            6,
            2,
            1,
        );
        check(
            &IndexPlan::Hierarchical {
                node_size: 6,
                radix_local: 2,
                radix_remote: 2,
            },
            6,
            2,
            1,
        );
    }

    #[test]
    fn larger_scale_lowering_is_bit_correct_in_simulation() {
        check(&IndexPlan::Radix(2), 128, 2, 1);
        check(
            &IndexPlan::Hierarchical {
                node_size: 16,
                radix_local: 2,
                radix_remote: 2,
            },
            128,
            2,
            1,
        );
        // The tracked benchmark's `plan_only` shape: the two plans it
        // lowers for all 1 024 ranks.
        check(&IndexPlan::Radix(2), 1024, 1, 1);
        check(
            &IndexPlan::Hierarchical {
                node_size: 32,
                radix_local: 2,
                radix_remote: 2,
            },
            1024,
            1,
            1,
        );
    }

    #[test]
    fn non_divisible_node_size_is_rejected() {
        let err = RankProgram::lower(
            &IndexPlan::Hierarchical {
                node_size: 5,
                radix_local: 2,
                radix_remote: 2,
            },
            16,
            0,
            4,
            1,
        )
        .unwrap_err();
        assert!(err.contains("not divisible"), "{err}");
    }

    #[test]
    fn plans_without_a_lowering_are_rejected_with_a_message() {
        let lower = |plan: IndexPlan, n| RankProgram::lower(&plan, n, 0, 4, 1).unwrap_err();
        assert!(lower(IndexPlan::Radix(1), 6).contains("radix must be ≥ 2"));
        assert!(lower(IndexPlan::Mixed(vec![2, 1, 8]), 6).contains("radix must be ≥ 2"));
        assert!(lower(IndexPlan::Mixed(vec![2, 2]), 6).contains("does not cover"));
        assert!(lower(IndexPlan::Mixed(vec![]), 2).contains("does not cover"));
        let two_level = |radix_local, radix_remote| IndexPlan::Hierarchical {
            node_size: 2,
            radix_local,
            radix_remote,
        };
        assert!(lower(two_level(0, 2), 6).contains("radix must be ≥ 2"));
        assert!(lower(two_level(2, 1), 6).contains("radix must be ≥ 2"));
        // The rejections hold at n = 1 too, where there is nothing to run.
        assert!(lower(IndexPlan::Radix(0), 1).contains("radix must be ≥ 2"));
        for (plan, name) in [
            (IndexPlan::Pairwise, "pairwise-XOR"),
            (IndexPlan::Hypercube, "hypercube"),
        ] {
            let err = lower(plan, 6);
            assert!(err.contains(name) && err.contains("power-of-two"), "{err}");
        }
    }

    /// Every minimal covering radix vector of `[0, n)`: the prefix's
    /// product stays below `n`, the last radix is the smallest that
    /// covers or `n` itself (every value in between selects the same
    /// steps), in every digit order.
    fn covering_vectors(n: usize) -> Vec<Vec<usize>> {
        let mut done = Vec::new();
        let mut stack: Vec<(Vec<usize>, usize)> = vec![(Vec::new(), 1)];
        while let Some((prefix, product)) = stack.pop() {
            let covers = n.div_ceil(product);
            for r in 2..=n {
                let mut next = prefix.clone();
                next.push(r);
                if r < covers {
                    stack.push((next, product * r));
                } else if r == covers || r == n {
                    done.push(next);
                }
            }
        }
        done
    }

    /// The mixed lowering against [`MixedRadix`]'s enumerated digit sets
    /// (`blocks_for_step`, `step_distance`, `steps_in_subphase`): same op
    /// order, peers, tags, slot order and permutations for every minimal
    /// covering vector at n ≤ 64, and the derived round and message
    /// counts agree with the model's closed form.
    #[test]
    fn mixed_descriptors_expand_to_the_enumerated_digit_sets() {
        use crate::mixed_radix::MixedRadix;
        let (mut vectors, mut compared) = (0usize, 0usize);
        for n in 2..=64usize {
            for radices in covering_vectors(n) {
                vectors += 1;
                let plan = IndexPlan::Mixed(radices.clone());
                // Rank only enters through the rotate / reflect / peer
                // arithmetic the uniform sweep above holds at every rank.
                let ranks: Vec<usize> = if n <= 8 {
                    (0..n).collect()
                } else {
                    vec![0, n - 1]
                };
                for k in 1..=3usize {
                    for &rank in &ranks {
                        let program = RankProgram::lower(&plan, n, rank, 4, k).expect("covering");
                        program.check_shape().expect("lowered programs fit");
                        assert_eq!(
                            expand(&program),
                            reference_ops(&plan, n, rank, k),
                            "n={n} radices={radices:?} k={k} rank={rank}"
                        );
                        compared += 1;
                    }
                    let program = RankProgram::lower(&plan, n, 0, 4, k).unwrap();
                    let model = MixedRadix::new(n, &radices);
                    assert_eq!(
                        program.rounds() as u64,
                        model.complexity(4, k).c1,
                        "n={n} radices={radices:?} k={k}"
                    );
                    assert_eq!(
                        Some(max_message_blocks(&program)),
                        model.steps().map(|(x, z)| model.blocks_in_step(x, z)).max(),
                        "n={n} radices={radices:?} k={k}"
                    );
                }
            }
        }
        assert!(vectors > 15_000, "sweep shrank to {vectors} vectors");
        assert!(compared > 100_000, "sweep shrank to {compared} programs");
    }

    #[test]
    fn mixed_lowering_matches_oracle() {
        // Every minimal covering vector on small clusters …
        for n in 2..=12usize {
            for radices in covering_vectors(n) {
                for k in [1usize, 2] {
                    check(&IndexPlan::Mixed(radices.clone()), n, 3, k);
                }
            }
        }
        // … the vectors the tuner actually picks (n = 33 is the module
        // example of `mixed_radix`), multi-port, and an oversized vector
        // whose tail is never read.
        check(&IndexPlan::Mixed(vec![2, 2, 3, 3]), 33, 2, 1);
        check(&IndexPlan::Mixed(vec![2, 3, 5]), 30, 1, 1);
        check(&IndexPlan::Mixed(vec![3, 4]), 12, 2, 2);
        check(&IndexPlan::Mixed(vec![4, 5]), 20, 2, 3);
        check(&IndexPlan::Mixed(vec![4, 2, 8]), 64, 2, 2);
        check(&IndexPlan::Mixed(vec![2, 3, 5, 7]), 6, 2, 1);
        check(&IndexPlan::Mixed(vec![2, 2, 64]), 64, 0, 1);
    }

    #[test]
    fn uniform_vectors_lower_to_the_uniform_schedule() {
        // (r, r, …) is the §3 algorithm: same ops as `Radix(r)`.
        for (n, r, w) in [(9usize, 3usize, 2usize), (16, 2, 4), (27, 3, 3), (10, 4, 2)] {
            for rank in 0..n {
                assert_eq!(
                    RankProgram::lower(&IndexPlan::Mixed(vec![r; w]), n, rank, 2, 1).unwrap(),
                    RankProgram::lower(&IndexPlan::Radix(r), n, rank, 2, 1).unwrap(),
                    "n={n} r={r} rank={rank}"
                );
            }
        }
    }

    #[test]
    fn trivial_cluster_has_empty_program() {
        let p = RankProgram::lower(&IndexPlan::Radix(2), 1, 0, 8, 1).unwrap();
        assert!(p.ops.is_empty());
        assert_eq!(p.rounds(), 0);
        assert_eq!(max_message_blocks(&p), 0);
    }

    #[test]
    fn round_and_message_accounting() {
        let p = RankProgram::lower(&IndexPlan::Radix(2), 8, 0, 4, 1).unwrap();
        // ⌈log2 8⌉ = 3 rounds, each carrying 4 of the 8 blocks.
        assert_eq!(p.rounds(), 3);
        assert_eq!(max_message_blocks(&p), 4);
        // k = 2 halves the round count of a radix-4 schedule's subphases.
        let p1 = RankProgram::lower(&IndexPlan::Radix(4), 16, 3, 4, 1).unwrap();
        let p2 = RankProgram::lower(&IndexPlan::Radix(4), 16, 3, 4, 2).unwrap();
        assert!(p2.rounds() < p1.rounds());
    }

    /// Try one delivery: `Ok` if the machine took it; otherwise the error
    /// must name the rank, peer and tag and the buffer be as it was.
    fn try_deliver(
        m: &mut RankMachine<'_, Vec<u8>>,
        rank: usize,
        (peer, tag, payload): (usize, u64, &[u8]),
    ) -> Result<(), String> {
        let before = m.buffer().to_vec();
        let err = m.deliver(peer, tag, payload).err();
        let Some(err) = err else { return Ok(()) };
        let named = format!("rank {rank}: from {peer}, tag {tag}: ");
        assert!(err.starts_with(&named), "{err}");
        assert_eq!(m.buffer(), &before[..], "a refused delivery wrote: {err}");
        Err(err)
    }

    #[test]
    fn malformed_deliveries_are_errors_that_leave_the_buffer_untouched() {
        // Rank 4 of the k = 2, radix-3 program on 9 ranks: two receives a
        // round.
        let p = RankProgram::lower(&IndexPlan::Radix(3), 9, 4, 2, 2).unwrap();
        let data = input(4, 9, 2);
        let (mut m, mut scratch) = (
            RankMachine::new(&p, &data, vec![0; 18]).unwrap(),
            vec![0; 18],
        );
        let refused = |m: &mut RankMachine<'_, Vec<u8>>, rank, delivery, why: &str| {
            let err = try_deliver(m, rank, delivery).expect_err("malformed delivery taken");
            assert!(err.contains(why), "{err}");
        };
        assert_eq!(m.step(&mut scratch), Action::Local(18));
        let Some(round) = p.round(&p.ops[1]) else {
            panic!("the rotation is followed by a round");
        };
        let (a, b) = (&round.recvs[0], &round.recvs[1]);
        let good = vec![7u8; a.span.bytes(2)];
        let long = [&good[..], &[0]].concat();
        // Before the round's sends are out, nothing may land in it.
        refused(&mut m, 4, (a.peer, a.tag, &good), "no round awaits");
        assert_eq!(m.step(&mut scratch), Action::Send(round));
        assert_eq!(m.step(&mut scratch), Action::Await(round));
        refused(&mut m, 4, (b.peer, a.tag, &good), "no such receive");
        refused(&mut m, 4, (a.peer, a.tag + 7, &good), "no such receive");
        refused(&mut m, 4, (a.peer, a.tag, &good[1..]), "payload bytes");
        refused(&mut m, 4, (a.peer, a.tag, &long), "payload bytes");
        m.deliver(a.peer, a.tag, &good).unwrap();
        refused(&mut m, 4, (a.peer, a.tag, &good), "already delivered");
        assert_eq!(m.outstanding().collect::<Vec<_>>(), [(b.peer, b.tag)]);
        assert_eq!(m.completed(), 1);

        // After done: rank 0 of two, run to its end by hand.
        let p = RankProgram::lower(&IndexPlan::Radix(2), 2, 0, 3, 1).unwrap();
        let data = input(0, 2, 3);
        let (mut m, mut scratch) = (RankMachine::new(&p, &data, vec![0; 6]).unwrap(), vec![0; 6]);
        assert_eq!(m.step(&mut scratch), Action::Local(6));
        assert!(matches!(m.step(&mut scratch), Action::Send(_)));
        let Action::Await(round) = m.step(&mut scratch) else {
            panic!("a round awaits once its sends are out");
        };
        let x = &round.recvs[0];
        m.deliver(x.peer, x.tag, &[1, 2, 3]).unwrap();
        assert_eq!(m.outstanding().count(), 0);
        assert_eq!(m.step(&mut scratch), Action::Local(6));
        assert_eq!(m.step(&mut scratch), Action::Done);
        refused(&mut m, 0, (x.peer, x.tag, &[1, 2, 3]), "done");
        refused(&mut m, 0, (9, 1 << 40, &[]), "done");
    }

    /// Every rank's machine over in-memory mail, in rank order like
    /// [`simulate`]; `tamper(machine, rank, delivery)` is offered each
    /// genuine delivery first and returns whether it delivered it itself.
    fn drive<'p>(
        programs: &'p [RankProgram],
        inputs: &'p [Vec<u8>],
        mut tamper: impl FnMut(&mut RankMachine<'p, Vec<u8>>, usize, (usize, u64, &[u8])) -> bool,
    ) -> Vec<RankMachine<'p, Vec<u8>>> {
        assert!(programs.iter().all(exactly_sized));
        let mut machines: Vec<_> = programs
            .iter()
            .zip(inputs)
            .map(|(p, input)| RankMachine::new(p, input, vec![0; p.work]).unwrap())
            .collect();
        let (mut scratch, mut mail, mut moved) = (Vec::new(), HashMap::new(), true);
        while std::mem::take(&mut moved) {
            for (r, m) in machines.iter_mut().enumerate() {
                loop {
                    scratch.resize(m.scratch_len(), 0);
                    match m.step(&mut scratch) {
                        Action::Local(_) => {}
                        Action::Send(round) => {
                            for s in round.sends {
                                let mut payload = Vec::new();
                                m.pack(s, &mut payload);
                                mail.insert((s.peer, r, s.tag), payload);
                            }
                        }
                        Action::Await(round) => {
                            for x in round.recvs {
                                if let Some(payload) = mail.remove(&(r, x.peer, x.tag)) {
                                    let genuine = (x.peer, x.tag, &payload[..]);
                                    if !tamper(m, r, genuine) {
                                        m.deliver(x.peer, x.tag, &payload).unwrap();
                                    }
                                }
                            }
                            if m.outstanding().next().is_some() {
                                break;
                            }
                        }
                        Action::Done => break,
                    }
                    moved = true;
                }
            }
        }
        assert!(mail.is_empty(), "{} messages never received", mail.len());
        machines
    }

    /// Rank `rank`'s concatenation input block.
    fn concat_input(rank: usize, block: usize) -> Vec<u8> {
        (0..block).map(|p| pattern(rank, 0, p, block)).collect()
    }

    /// Every rank's concatenation input, end to end.
    fn concat_expected(n: usize, block: usize) -> Vec<u8> {
        (0..n).flat_map(|r| concat_input(r, block)).collect()
    }

    /// Every rank's program of a concatenation.
    fn concat_programs(lowering: &ConcatLowering) -> Vec<RankProgram> {
        (0..lowering.n()).map(|r| lowering.program(r)).collect()
    }

    /// Every rank's non-uniform exchange of `plan` over the row-major size
    /// matrix `sizes`, each rank's send blocks dense: programs, inputs and
    /// the expected outputs (every source's block for the rank, dense).
    fn v_set(
        plan: &VIndexPlan,
        n: usize,
        k: usize,
        sizes: &[usize],
    ) -> (Vec<RankProgram>, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let block = |i: usize, j: usize| (0..sizes[i * n + j]).map(move |p| pattern(i, j, p, 0));
        let program = |rank: usize| {
            let row = &sizes[rank * n..][..n];
            let displs: Vec<usize> = (0..n).map(|j| row[..j].iter().sum()).collect();
            RankProgram::lower_vindex(plan, n, k, rank, sizes, &displs).unwrap()
        };
        (
            (0..n).map(program).collect(),
            (0..n)
                .map(|i| (0..n).flat_map(|j| block(i, j)).collect())
                .collect(),
            (0..n)
                .map(|j| (0..n).flat_map(|i| block(i, j)).collect())
                .collect(),
        )
    }

    /// Every rank's allgatherv of `counts[r]`-byte blocks: programs,
    /// inputs and the expected output (every block, dense) on each rank.
    fn allgatherv_set(
        k: usize,
        counts: &[usize],
    ) -> (Vec<RankProgram>, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let n = counts.len();
        let input = |r: usize| {
            (0..counts[r])
                .map(|p| pattern(r, 0, p, 0))
                .collect::<Vec<u8>>()
        };
        (
            (0..n)
                .map(|r| RankProgram::lower_allgatherv(k, r, counts))
                .collect(),
            (0..n).map(input).collect(),
            vec![(0..n).flat_map(input).collect(); n],
        )
    }

    /// Drive one program set, offering each genuine delivery, half the
    /// time, a seeded mutation first: a changed peer or tag, a short or
    /// long payload, a second copy. None may panic; each must be refused
    /// by name with the buffer untouched, or be by chance the genuine
    /// delivery; every rank must end on `expected`; and a done machine
    /// must refuse whatever comes after. Returns the mutations by kind.
    fn mutated_run(
        next: &dyn Fn() -> usize,
        label: &str,
        programs: &[RankProgram],
        inputs: &[Vec<u8>],
        expected: &[Vec<u8>],
    ) -> [usize; 5] {
        let (n, mut kinds) = (programs.len(), [0usize; 5]);
        let machines = drive(programs, inputs, |m, rank, genuine| {
            if next().is_multiple_of(2) {
                return false;
            }
            let (peer, tag, payload) = genuine;
            let (mut p, mut t, mut bytes) = (peer, tag, payload.to_vec());
            let kind = next() % 5;
            match kind {
                0 => p = next() % (n + 2),
                1 => t ^= 1 << (next() % 40),
                2 if !bytes.is_empty() => bytes.truncate(next() % bytes.len()),
                2 | 3 => bytes.resize(bytes.len() + 1 + next() % 3, 0xA5),
                _ => m.deliver(peer, tag, payload).expect("genuine delivery"),
            }
            // Another pending receive of the same tag and length would take
            // a wrong peer's message as genuine: nothing tells them apart.
            let twin = (p, t) != (peer, tag)
                && m.outstanding().any(|pending| pending == (p, t))
                && m.awaited().is_some_and(|round| {
                    let same = |x: &ProgramXfer| x.span.bytes(m.program.block) == bytes.len();
                    round
                        .recvs
                        .iter()
                        .any(|x| (x.peer, x.tag) == (p, t) && same(x))
                });
            if twin {
                return false;
            }
            kinds[kind] += 1;
            let taken = try_deliver(m, rank, (p, t, &bytes)).is_ok();
            assert!(kind < 4 || !taken, "{label}: a second copy was taken");
            // Taken means it was the genuine delivery after all.
            assert!(
                !taken || (p, t, &bytes[..]) == genuine,
                "{label}: took {p} {t}"
            );
            taken || kind == 4
        });
        for (rank, mut m) in machines.into_iter().enumerate() {
            let after = (
                next() % n,
                next() as u64 % (3 << 32),
                &[0u8; 2][..next() % 3],
            );
            assert!(
                try_deliver(&mut m, rank, after).is_err(),
                "{label}: taken after done"
            );
            let got = m.into_work();
            assert_eq!(got, expected[rank], "{label} rank={rank}");
        }
        kinds
    }

    /// 10 000 seeded malformed deliveries over random lowered programs
    /// (every index plan family and every concatenation, n ≤ 64, k ≤ 3,
    /// b ≤ 3), then the same stream over the non-uniform family (direct,
    /// padded, two-phase and allgatherv in turn, n ≤ 32, ragged blocks of
    /// 0–4 bytes) until each member has seen 500: every mutation kind
    /// [`mutated_run`] makes, each refused by name or the genuine
    /// delivery, every rank still on the transpose, concatenation or
    /// non-uniform oracle.
    #[test]
    fn mutated_deliveries_are_refused_and_never_corrupt_a_result() {
        let rng = std::cell::Cell::new(0x5eed_u64);
        let next = || {
            rng.set(rng.get().wrapping_add(0x9e37_79b9_7f4a_7c15));
            let mut z = rng.get();
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        let (mut kinds, mut mutated) = ([0usize; 5], 0usize);
        while mutated < 10_000 {
            let (n, k, block) = (2 + next() % 63, 1 + next() % 3, next() % 4);
            let family = next() % 9;
            // The XOR plans run at a power of two, n = 2^1..2^6.
            let n = if family == 2 {
                1 << (1 + next() % 6)
            } else {
                n
            };
            let plan = match family {
                0 => IndexPlan::Radix(2 + next() % (n - 1)),
                1 => IndexPlan::Direct,
                2 => [IndexPlan::Hypercube, IndexPlan::Pairwise][next() % 2].clone(),
                3 => {
                    let mut radices = vec![2 + next() % 4];
                    while radices.iter().product::<usize>() < n {
                        radices.push(2 + next() % 4);
                    }
                    IndexPlan::Mixed(radices)
                }
                _ => {
                    let sizes: Vec<usize> = (1..=n).filter(|s| n % s == 0).collect();
                    IndexPlan::Hierarchical {
                        node_size: sizes[next() % sizes.len()],
                        radix_local: 2 + next() % 3,
                        radix_remote: 2 + next() % 3,
                    }
                }
            };
            let pref = [Preference::Rounds, Preference::Bytes][next() % 2];
            let concat = match family {
                5 => Some(ConcatLowering::circulant(n, block, k, pref)),
                6 => Some(ConcatLowering::gather_broadcast(n, block, k)),
                7 => Some(ConcatLowering::ring(n, block)),
                8 => ConcatLowering::recursive_doubling(1 << (1 + next() % 6), block).ok(),
                _ => None,
            };
            let (label, programs, inputs, expected): (_, Vec<_>, Vec<_>, Vec<_>) = match &concat {
                None => (
                    format!("{} n={n} k={k} b={block}", plan.label()),
                    (0..n)
                        .map(|r| RankProgram::lower(&plan, n, r, block, k).unwrap())
                        .collect(),
                    (0..n).map(|r| input(r, n, block)).collect(),
                    (0..n).map(|r| expected(r, n, block)).collect(),
                ),
                Some(c) => (
                    format!("concat {family} {pref:?} n={} k={k} b={block}", c.n()),
                    concat_programs(c),
                    (0..c.n()).map(|r| concat_input(r, block)).collect(),
                    vec![concat_expected(c.n(), block); c.n()],
                ),
            };
            let made = mutated_run(&next, &label, &programs, &inputs, &expected);
            for (hits, more) in kinds.iter_mut().zip(made) {
                (*hits, mutated) = (*hits + more, mutated + more);
            }
        }
        assert!(kinds.iter().all(|&hits| hits >= 1_000), "{kinds:?}");

        let mut members = [0usize; 4];
        for member in (0..4).cycle() {
            if members.iter().all(|&hits| hits >= 500) {
                break;
            }
            let (n, k) = (2 + next() % 31, 1 + next() % 3);
            let sizes: Vec<usize> = (0..n * n).map(|_| next() % 5).collect();
            let (radix, quota) = (2 + next() % 3, 1 + next() % 3);
            let plans = [
                VIndexPlan::Direct,
                VIndexPlan::Padded { radix },
                VIndexPlan::TwoPhase { radix, quota },
            ];
            let (label, (programs, inputs, expected)) = match plans.get(member) {
                Some(plan) => (plan.label(), v_set(plan, n, k, &sizes)),
                None => ("allgatherv".into(), allgatherv_set(k, &sizes[..n])),
            };
            let label = format!("{label} n={n} k={k}");
            let made = mutated_run(&next, &label, &programs, &inputs, &expected);
            members[member] += made.iter().sum::<usize>();
        }

        // The reductions in turn until each has seen 500: receives into
        // staging, folded in, on integer-valued lanes.
        let mut reductions = [0usize; 5];
        for which in (0..5).cycle() {
            if reductions.iter().all(|&hits| hits >= 500) {
                break;
            }
            let (n, k, m) = (2 + next() % 23, 1 + next() % 3, next() % 6);
            let (op, root) = (
                [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max][next() % 3],
                next() % n,
            );
            let (programs, inputs, expected) = reduction_set(which, (n, k, m), op, root);
            let label = format!("reduction {which} {op:?} n={n} k={k} m={m} root={root}");
            let made = mutated_run(&next, &label, &programs, &inputs, &expected);
            reductions[which] += made.iter().sum::<usize>();
        }
    }

    /// Every rank's program of reduction `which` — reduce to `root`,
    /// reduce-scatter, allreduce, scan, exscan — over `m` integer-valued
    /// lanes, every input, and the outputs by a local fold.
    fn reduction_set(
        which: usize,
        (n, k, m): (usize, usize, usize),
        op: ReduceOp,
        root: usize,
    ) -> (Vec<RankProgram>, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let lanes = |r: usize| (0..m).map(move |i| ((r * 5 + i) % 11) as f64);
        let folded = |ranks: Range<usize>| -> Vec<u8> {
            let mut acc: Option<Vec<f64>> = None;
            for r in ranks {
                let x: Vec<f64> = lanes(r).collect();
                acc = Some(acc.map_or(x.clone(), |mut a| {
                    op.fold_into(&mut a, &x);
                    a
                }));
            }
            acc.unwrap_or_default()
                .iter()
                .flat_map(|x| x.to_le_bytes())
                .collect()
        };
        let b = LANE * m.div_ceil(n);
        let output = |rank: usize| match which {
            0 if rank != root => Vec::new(),
            0 | 2 => folded(0..n),
            1 => folded(0..n)[(rank * b).min(m * LANE)..]
                .iter()
                .take(b)
                .copied()
                .collect(),
            3 => folded(0..rank + 1),
            _ => folded(0..rank),
        };
        let program = |rank: usize| match which {
            0 => RankProgram::lower_reduce(n, k, rank, root, m, op),
            1 => RankProgram::lower_reduce_scatter(n, k, rank, m, op),
            2 => RankProgram::lower_allreduce(n, k, rank, m, op),
            _ => RankProgram::lower_scan(n, rank, m, op, which == 4),
        };
        let input = |r: usize| lanes(r).flat_map(f64::to_le_bytes).collect();
        (
            (0..n).map(program).collect(),
            (0..n).map(input).collect(),
            (0..n).map(output).collect(),
        )
    }
}

//! Explicit per-rank round programs ("lowered" plans) and the one
//! machine that runs them.
//!
//! The threaded executor in `bruck-net` runs an algorithm as a blocking
//! SPMD closure — one OS thread per rank, each free to park inside a
//! receive. That shape cannot be multiplexed onto fewer threads than
//! ranks: a worker that parks inside rank 7's receive can never run rank
//! 12, whose send would have satisfied it. Scaling to the paper's
//! asymptotic regime (n in the hundreds) therefore needs the algorithm in
//! a different shape: an explicit, finite list of operations per rank
//! that an event-driven pool can advance one rank at a time, parking
//! *between* operations instead of inside them.
//!
//! [`RankProgram`] is that shape: pure data — peers, tags and closed-form
//! *descriptors*. The schedules are translation-invariant, so nothing in
//! a program is an `n`-entry table: a transfer's bytes are a [`Span`] (a
//! [`SlotSet`], §3.2's digit test read as contiguous *runs*, or byte runs
//! every rank shares), a local phase a [`BlockPerm`] or a
//! [`ProgramOp::Place`] of input bytes. The lowerings *are* the §3 and §4
//! algorithms — no other executable form of either exists — and
//! [`RankMachine`] is their one interpreter, driven on threads by
//! `bruck-collectives`, on a worker pool by the TCP fabric and over
//! in-memory mail by [`simulate`]; `bruck-sched` reads the wire schedule
//! off the programs:
//!
//! * [`IndexPlan::Radix`] — rotate, the §3.2 digit rounds grouped `k` per
//!   round, inverse placement;
//! * [`IndexPlan::Mixed`] — the same with a radix per digit position:
//!   subphase `x` tests the digit of weight `Π r_<x` in radix `r_x`;
//! * [`IndexPlan::Direct`] — `n-1` offsets grouped `k` per round, sent
//!   straight from the input into their final slots;
//! * [`IndexPlan::Hypercube`] — cost-equal to radix 2, lowered as such;
//! * [`IndexPlan::Hierarchical`] — an intra-node index over lane bundles,
//!   a transpose, an inter-node index over node bundles;
//! * [`ConcatLowering`] — §4's circulant concatenation with its byte-
//!   partitioned last round, and the ring, recursive-doubling and
//!   gather + broadcast baselines.
//!
//! The tests sweep [`simulate`] against the transpose and concatenation
//! oracles, so a lowering bug is caught in pure math, far from any socket.

use std::collections::HashMap;
use std::sync::Arc;

use crate::partition::{concat_last_round, Area, ColumnSlice, Preference};
use crate::planner::IndexPlan;
use crate::radix::{ceil_log, pow};

/// Bit position separating the phase namespace from the `(subphase,
/// step)` tag of a round. Flat tags are `(x << 32) | z` — far below this
/// for any realistic `n` — and the two hierarchical phases sit at
/// `1 << PHASE_SHIFT` and `2 << PHASE_SHIFT`. Kept below bit 40 so
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
}

impl Span {
    /// Payload bytes of the span over `block`-byte blocks.
    #[must_use]
    pub fn bytes(&self, block: usize) -> usize {
        match self {
            Self::Slots(slots) | Self::Input(slots) => slots.blocks() * block,
            Self::Bytes { runs, .. } => runs.iter().map(|&(_, len)| len).sum(),
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
            Self::Bytes { runs, back } => {
                for &(at, len) in runs.iter() {
                    f(at - back, len);
                }
            }
        }
    }

    /// Whether every run lies inside the buffer the span names: `input`
    /// bytes for [`Input`](Self::Input), else `work`; a slot set also
    /// stays inside `n` blocks.
    fn fits(&self, n: usize, block: usize, input: usize, work: usize) -> bool {
        let limit = if self.in_input() { input } else { work };
        match self {
            Self::Slots(s) | Self::Input(s) => {
                s.groups * s.unit <= n && s.groups * s.unit * block <= limit
            }
            Self::Bytes { runs, back } => runs.iter().all(|&(at, len)| {
                at.checked_sub(*back)
                    .and_then(|at| at.checked_add(len))
                    .is_some_and(|end| end <= limit)
            }),
        }
    }

    /// Whether the span names the input rather than the work buffer.
    fn in_input(&self) -> bool {
        matches!(self, Self::Input(_))
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

/// One communication round: up to `k` sends to distinct peers and the
/// matching receives, all independent (the k-port model).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramRound {
    /// Outgoing transfers (distinct peers).
    pub sends: Vec<ProgramXfer>,
    /// Incoming transfers (distinct peers).
    pub recvs: Vec<ProgramXfer>,
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
}

/// A local block permutation of the whole working buffer — a rotation, a
/// reflection or a transpose — over `groups` group blocks of `unit`
/// buffer blocks each.
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
            PermKind::Reflect { about } => (0..g).for_each(|u| mv(u, (about + g - u) % g, 1)),
            PermKind::Transpose { rows, cols } => {
                (0..g).for_each(|u| mv(u, (u % rows) * cols + u / rows, 1));
            }
        }
    }
}

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
    /// One communication round.
    Round(ProgramRound),
}

/// A complete per-rank schedule for one all-to-all: an ordered list of
/// local ops and k-port rounds over an `n·b`-byte work buffer, run by a
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
    /// Ordered operation list.
    pub ops: Vec<ProgramOp>,
}

impl RankProgram {
    /// Lower an [`IndexPlan`] to the explicit program for one rank.
    ///
    /// `Hypercube` lowers as radix 2 (cost-equal schedule). Radices
    /// above the (sub)group size are clamped to it — they would change
    /// nothing: one subphase of `n − 1` steps.
    ///
    /// # Errors
    ///
    /// A message for `n = 0`, `rank ≥ n`, a radix below 2, a mixed
    /// vector whose product does not reach `n`, and hierarchical plans
    /// whose `node_size` does not divide `n`.
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
        let mut ops = Vec::new();
        let flat = |g| g;
        match plan {
            IndexPlan::Radix(r) => {
                check_radix(*r)?;
                bruck_ops(&mut ops, n, rank, uniform(*r), 1, k, flat, 0);
            }
            IndexPlan::Hypercube => bruck_ops(&mut ops, n, rank, uniform(2), 1, k, flat, 0),
            IndexPlan::Mixed(radices) => {
                radices.iter().try_for_each(|&r| check_radix(r))?;
                let covered = radices.iter().try_fold(1usize, |p, &r| p.checked_mul(r));
                if covered.is_some_and(|p| p < n) {
                    return Err(format!("radix vector {radices:?} does not cover n = {n}"));
                }
                bruck_ops(&mut ops, n, rank, radices.iter().copied(), 1, k, flat, 0);
            }
            IndexPlan::Direct => direct_ops(&mut ops, n, rank, block, k),
            IndexPlan::Hierarchical {
                node_size,
                radix_local,
                radix_remote,
            } => {
                check_radix(*radix_local)?;
                check_radix(*radix_remote)?;
                hierarchical_ops(
                    &mut ops,
                    n,
                    rank,
                    *node_size,
                    *radix_local,
                    *radix_remote,
                    k,
                )?;
            }
        }
        Ok(Self {
            n,
            rank,
            block,
            input: n * block,
            ops,
        })
    }

    /// Number of communication rounds in the program.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, ProgramOp::Round(_)))
            .count()
    }

    /// The local passes a run makes over its `n·b` buffer: every permute,
    /// plus the copy-in of a program that opens with neither a permute nor
    /// a place. A driver that wants the result in a given buffer reads
    /// where to start from this count's parity (see [`RankMachine::step`]).
    #[must_use]
    pub fn passes(&self) -> usize {
        let is_permute = |op: &ProgramOp| matches!(op, ProgramOp::Permute(_));
        let permutes = self.ops.iter().filter(|op| is_permute(op)).count();
        permutes + usize::from(self.copies_in())
    }

    /// Whether the machine copies the input in before the first round:
    /// the program opens with neither a permute nor a place.
    fn copies_in(&self) -> bool {
        matches!(self.ops.first(), None | Some(ProgramOp::Round(_)))
    }

    /// The one shape check [`RankMachine::new`] makes before it indexes
    /// its buffers with these descriptors (every field is public, so they
    /// may have been recombined): every permute covers exactly the `n`
    /// blocks, every place and span stays inside the buffer it touches
    /// (the input for a send that reads it, else the `n·b` work buffer),
    /// no receive reads the input, and a program that copies its input in
    /// has an `n·b` one.
    ///
    /// # Errors
    ///
    /// Names the first op that does not fit.
    pub fn check_shape(&self) -> Result<(), String> {
        let (n, block, input) = (self.n, self.block, self.input);
        let work = n * block;
        let within =
            |at: usize, len: usize, limit: usize| at.checked_add(len).is_some_and(|e| e <= limit);
        let fits = |op: &ProgramOp| match op {
            ProgramOp::Permute(p) => {
                let cells = match p.kind {
                    PermKind::Transpose { rows, cols } => rows * cols,
                    PermKind::Rotate { .. } | PermKind::Reflect { .. } => p.groups,
                };
                cells == p.groups && p.groups * p.unit == n
            }
            ProgramOp::Place { from, to, len } => {
                within(*from, *len, input) && within(*to, *len, work)
            }
            ProgramOp::Round(r) => {
                let send = |x: &ProgramXfer| x.span.fits(n, block, input, work);
                let recv =
                    |x: &ProgramXfer| !x.span.in_input() && x.span.fits(n, block, input, work);
                r.sends.iter().all(send) && r.recvs.iter().all(recv)
            }
        };
        if self.copies_in() && input != work {
            return Err(format!(
                "rank {}: copies a {input}-byte input into an n·b = {work} buffer",
                self.rank
            ));
        }
        match self.ops.iter().position(|op| !fits(op)) {
            Some(i) => Err(format!(
                "rank {}: op {i} does not fit an n = {} buffer",
                self.rank, self.n
            )),
            None => Ok(()),
        }
    }
}

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

/// The digit radices of a uniform radix-`r` schedule: `r` at every
/// position.
fn uniform(r: usize) -> impl Iterator<Item = usize> {
    std::iter::repeat(r)
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
    ops: &mut Vec<ProgramOp>,
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
    ops.push(permute(PermKind::Rotate { by: m }, n_g, unit));
    // Phase 2: the digit rounds, one subphase per digit position until
    // the weights reach n_g.
    let mut stride = 1usize;
    for (x, r) in radices.enumerate() {
        if stride >= n_g {
            break;
        }
        let r = r.clamp(2, n_g);
        // The non-zero values this digit takes over [0, n_g): r − 1
        // below the top position, ⌈n_g / stride⌉ − 1 at it (Appendix A
        // lines 7–11).
        let steps = (r - 1).min((n_g - 1) / stride);
        let mut z = 1usize;
        while z <= steps {
            let hi = steps.min(z + k - 1);
            let mut round = ProgramRound::default();
            for zz in z..=hi {
                let dist = zz * stride;
                let slots = SlotSet {
                    stride,
                    digit: zz,
                    radix: r,
                    groups: n_g,
                    unit,
                };
                let tag = tag_base | ((x as u64) << 32) | zz as u64;
                let (to, from) = (peer((m + dist) % n_g), peer((m + n_g - dist % n_g) % n_g));
                round.sends.push(ProgramXfer::slots(to, tag, slots));
                round.recvs.push(ProgramXfer::slots(from, tag, slots));
            }
            ops.push(ProgramOp::Round(round));
            z = hi + 1;
        }
        stride *= r;
    }
    // Phase 3: inverse placement, out[j] = tmp[(m - j) mod n_g].
    ops.push(permute(PermKind::Reflect { about: m }, n_g, unit));
}

/// The one block `s` of an `n`-block buffer: §3.2's digit test in radix
/// `n`, weight 1.
fn single(s: usize, n: usize) -> SlotSet {
    SlotSet {
        stride: 1,
        digit: s,
        radix: n,
        groups: n,
        unit: 1,
    }
}

/// The direct algorithm, out of place: the rank's own block is placed,
/// offset `d` sends input slot `(m+d) mod n` to that rank, and the block
/// from rank `(m-d) mod n` lands in its final slot — no pass over the
/// buffer at all.
fn direct_ops(ops: &mut Vec<ProgramOp>, n: usize, m: usize, block: usize, k: usize) {
    ops.push(place(m * block, m * block, block));
    let mut d = 1usize;
    while d < n {
        let hi = (n - 1).min(d + k - 1);
        let mut round = ProgramRound::default();
        for dd in d..=hi {
            let (to, from) = ((m + dd) % n, (m + n - dd) % n);
            let span = Span::Input(single(to, n));
            round.sends.push(ProgramXfer {
                peer: to,
                tag: dd as u64,
                span,
            });
            round
                .recvs
                .push(ProgramXfer::slots(from, dd as u64, single(from, n)));
        }
        ops.push(ProgramOp::Round(round));
        d = hi + 1;
    }
}

/// The two-level composition — the paper's own index algorithm at two
/// network levels, so that expensive inter-node links carry as few
/// start-ups as possible: lane-major transpose, intra-node index over
/// `nodes`-block bundles, node-major transpose, inter-node index over
/// `node_size`-block bundles. The final placement is the identity at
/// block granularity, so it is elided.
fn hierarchical_ops(
    ops: &mut Vec<ProgramOp>,
    n: usize,
    rank: usize,
    node_size: usize,
    radix_local: usize,
    radix_remote: usize,
    k: usize,
) -> Result<(), String> {
    if node_size == 0 || !n.is_multiple_of(node_size) {
        return Err(format!(
            "hierarchical: n = {n} not divisible by node_size = {node_size}"
        ));
    }
    let nodes = n / node_size;
    if nodes == 1 || node_size == 1 {
        // Degenerate hierarchy: a flat index at the stronger radix.
        let r = radix_local.max(radix_remote);
        bruck_ops(ops, n, rank, uniform(r), 1, k, |g| g, 0);
        return Ok(());
    }
    let my_node = rank / node_size;
    let my_lane = rank % node_size;
    let transpose = |rows, cols| permute(PermKind::Transpose { rows, cols }, n, 1);
    // Phase 1 pack: bundle for lane `l` holds our blocks for every rank
    // whose lane is `l`, node-major within the bundle — the node × lane
    // send buffer read lane-major.
    ops.push(transpose(nodes, node_size));
    // Intra-node exchange of lane bundles.
    bruck_ops(
        ops,
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
    ops.push(transpose(node_size, nodes));
    // Inter-node exchange of node bundles between lane siblings.
    bruck_ops(
        ops,
        nodes,
        my_node,
        uniform(radix_remote),
        node_size,
        k,
        |g| g * node_size + my_lane,
        2 << PHASE_SHIFT,
    );
    Ok(())
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
        let k = ports.max(1);
        let last = concat_last_round(n, k, block, pref).map_or_else(Vec::new, |plan| {
            let run = |s: &ColumnSlice| ((plan.n1 + s.col) * block + s.row_start, s.len());
            let area = |a: &Area| (a.offset, a.slices.iter().map(run).collect());
            let round = |areas: &Vec<Area>| areas.iter().map(area).collect();
            plan.rounds.iter().map(round).collect()
        });
        let doubling = ceil_log(k + 1, n.max(1)).saturating_sub(1).max(1);
        Self::new(n, block, k, ConcatShape::Circulant { doubling, last })
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
        if !n.is_power_of_two() {
            return Err(format!(
                "recursive doubling requires a power-of-two processor count, got {n}"
            ));
        }
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
        let mut ops = Vec::new();
        match &self.shape {
            ConcatShape::Circulant { doubling, last } => {
                ops.push(place(0, 0, b));
                if n > 1 && b > 0 {
                    circulant_ops(&mut ops, n, rank, b, k, *doubling, last);
                }
            }
            shape => {
                ops.push(place(0, rank * b, b));
                match shape {
                    ConcatShape::GatherBroadcast => gather_broadcast_ops(&mut ops, n, rank, b, k),
                    ConcatShape::RecursiveDoubling => doubling_ops(&mut ops, n, rank),
                    _ => ring_ops(&mut ops, n, rank),
                }
            }
        }
        RankProgram {
            n,
            rank,
            block: b,
            input: b,
            ops,
        }
    }
}

/// The circulant algorithm's rounds and final reflection (see
/// [`ConcatLowering::circulant`]). Tags: round `i` of phase 1 is `i`,
/// area `a` of last round `r` is `(doubling + r) << 8 | a`.
fn circulant_ops(
    ops: &mut Vec<ProgramOp>,
    n: usize,
    v: usize,
    b: usize,
    k: usize,
    doubling: u32,
    last: &[Vec<AreaRuns>],
) {
    for i in 0..doubling {
        let cur = pow(k + 1, i);
        let held = |digit| SlotSet {
            stride: cur,
            digit,
            radix: k + 1,
            groups: ((k + 1) * cur).min(n),
            unit: 1,
        };
        let mut round = ProgramRound::default();
        for j in (1..=k).take_while(|j| j * cur < n) {
            let tag = u64::from(i);
            round
                .sends
                .push(ProgramXfer::slots((v + j * cur) % n, tag, held(0)));
            round
                .recvs
                .push(ProgramXfer::slots((v + n - j * cur) % n, tag, held(j)));
        }
        ops.push(ProgramOp::Round(round));
    }
    for (ri, areas) in (0u64..).zip(last) {
        let mut round = ProgramRound::default();
        for (ai, (offset, runs)) in (0u64..).zip(areas) {
            let tag = (u64::from(doubling) + ri) << 8 | ai;
            let xfer = |peer, back| ProgramXfer::bytes(peer, tag, Arc::clone(runs), back);
            round.sends.push(xfer((v + offset) % n, offset * b));
            round.recvs.push(xfer((v + n - offset % n) % n, 0));
        }
        ops.push(ProgramOp::Round(round));
    }
    ops.push(permute(PermKind::Reflect { about: v }, n, 1));
}

/// The gather + broadcast rounds (see [`ConcatLowering::gather_broadcast`]).
/// Tags: gather round `g` is `g`, broadcast round `g` is `d + g`.
fn gather_broadcast_ops(ops: &mut Vec<ProgramOp>, n: usize, v: usize, b: usize, k: usize) {
    if n <= 1 {
        return;
    }
    let d = ceil_log(k + 1, n);
    // (k+1)^g for the tree round g that attaches v (none for the root).
    let attached = (v > 0).then(|| {
        let mut p = 1;
        while p * (k + 1) <= v {
            p *= k + 1;
        }
        p
    });
    // The nodes v attaches in the round of weight p: v + j·p, if v is
    // already in the tree.
    let children = |p: usize| {
        (1..=k)
            .map(move |j| v + j * p)
            .filter(move |&c| v < p && c < n)
    };
    let subtree = |t: usize, p: usize| SlotSet {
        stride: 1,
        digit: t,
        radix: p * (k + 1),
        groups: n,
        unit: 1,
    };
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
        let mut round = ProgramRound::default();
        if attached == Some(p) {
            round
                .sends
                .push(ProgramXfer::slots(v % p, tag, subtree(v, p)));
        }
        for c in children(p) {
            round.recvs.push(ProgramXfer::slots(c, tag, subtree(c, p)));
        }
        ops.push(ProgramOp::Round(round));
    }
    for g in 0..d {
        let (p, tag) = (pow(k + 1, g), u64::from(d + g));
        let mut round = ProgramRound::default();
        for c in children(p) {
            round
                .sends
                .push(ProgramXfer::bytes(c, tag, complement(c, p), 0));
        }
        if attached == Some(p) {
            round
                .recvs
                .push(ProgramXfer::bytes(v % p, tag, complement(v, p), 0));
        }
        ops.push(ProgramOp::Round(round));
    }
}

/// Recursive doubling's rounds: round `x` swaps the aligned `2^x`-block
/// halves with rank `v ⊕ 2^x` (tag `x`).
fn doubling_ops(ops: &mut Vec<ProgramOp>, n: usize, v: usize) {
    for x in 0..n.trailing_zeros() {
        let span = 1usize << x;
        let aligned = |r: usize| SlotSet {
            stride: span,
            digit: r / span,
            radix: n / span,
            groups: n,
            unit: 1,
        };
        let partner = v ^ span;
        ops.push(one_port(
            partner,
            aligned(v),
            partner,
            aligned(partner),
            x.into(),
        ));
    }
}

/// The ring's rounds: round `i` (tag `i`) sends slot `v − i` right and
/// receives slot `v − i − 1` from the left.
fn ring_ops(ops: &mut Vec<ProgramOp>, n: usize, v: usize) {
    let (right, left) = ((v + 1) % n, (v + n - 1) % n);
    let slot = |i: usize| single((v + n - i) % n, n);
    ops.extend((0..n - 1).map(|i| one_port(right, slot(i), left, slot(i + 1), i as u64)));
}

/// A one-port round: `send` to `to`, `recv` from `from`, both `tag`.
fn one_port(to: usize, send: SlotSet, from: usize, recv: SlotSet, tag: u64) -> ProgramOp {
    ProgramOp::Round(ProgramRound {
        sends: vec![ProgramXfer::slots(to, tag, send)],
        recvs: vec![ProgramXfer::slots(from, tag, recv)],
    })
}

/// What a [`RankMachine`] asks of its driver next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action<'p> {
    /// A local op copied this many bytes: a permute or the copy-in of a
    /// program that opens with a round (`n·b`), or a place.
    Local(usize),
    /// Post this round's sends, gathered from the spans' runs of
    /// [`RankMachine::source`], before [delivering](RankMachine::deliver)
    /// any of its receives (they may land in the bytes sent from).
    Send(&'p ProgramRound),
    /// The round still awaits [`RankMachine::outstanding`].
    Await(&'p ProgramRound),
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
/// program that opens with a round copies it all in, since rounds scatter
/// into the buffer they send from). A permute writes the `scratch` the
/// driver lends to `step` and hands the old `work` back in its place, so
/// a driver of many ranks keeps one spare `n·b` buffer, not one per rank.
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
    /// [`RankProgram::input`] bytes, only ever read) and an `n·b`-byte
    /// `work` buffer.
    ///
    /// # Errors
    ///
    /// A message naming the rank when the program does not fit its
    /// buffers ([`RankProgram::check_shape`]) or a buffer has the wrong
    /// size.
    pub fn new(program: &'p RankProgram, input: &'p [u8], work: B) -> Result<Self, String> {
        program.check_shape()?;
        let (len, rank) = (program.n * program.block, program.rank);
        let sizes = (input.len(), work.as_ref().len());
        if sizes != (program.input, len) {
            return Err(format!(
                "rank {rank}: (input, work) must be ({}, n·b = {len}) bytes, not {sizes:?}",
                program.input
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

    /// Advance to the next thing the driver must do. `scratch` must be
    /// `n·b` bytes: a permute (or copy-in) writes it and swaps it with
    /// the work buffer, so the result ends in the buffer first lent as
    /// scratch when [`RankProgram::passes`] is odd, else in `work`.
    pub fn step(&mut self, scratch: &mut B) -> Action<'p> {
        match self.program.ops.get(self.at) {
            Some(ProgramOp::Permute(perm)) => {
                self.at += 1;
                self.pass(scratch, Some(perm))
            }
            Some(&ProgramOp::Place { from, to, len }) => {
                self.at += 1;
                self.work.as_mut()[to..to + len].copy_from_slice(&self.input[from..from + len]);
                self.fresh = false;
                Action::Local(len)
            }
            None | Some(ProgramOp::Round(_)) if self.fresh => self.pass(scratch, None),
            None => Action::Done,
            Some(ProgramOp::Round(round)) if self.left > 0 => Action::Await(round),
            Some(ProgramOp::Round(round)) => {
                self.left = round.recvs.len();
                self.landed.clear();
                self.landed.resize(self.left, false);
                self.at += usize::from(self.left == 0);
                Action::Send(round)
            }
        }
    }

    /// One pass into `scratch` — `perm` applied, or the input copied in —
    /// which then becomes the work buffer.
    fn pass(&mut self, scratch: &mut B, perm: Option<&BlockPerm>) -> Action<'p> {
        let (src, dst) = (self.buffer(), scratch.as_mut());
        assert_eq!(dst.len(), src.len(), "scratch must be n·b bytes");
        match perm {
            Some(perm) => perm.apply(self.program.block, src, dst),
            None => dst.copy_from_slice(src),
        }
        std::mem::swap(&mut self.work, scratch);
        self.fresh = false;
        Action::Local(self.work.as_ref().len())
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
        let round = match self.program.ops.get(self.at) {
            Some(ProgramOp::Round(round)) if self.left > 0 => round,
            None => return err("the program is done"),
            Some(_) => return err("no round awaits it"),
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

    /// The `(peer, tag)` of every awaited receive that has not landed.
    pub fn outstanding(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let recvs = match self.program.ops.get(self.at) {
            Some(ProgramOp::Round(round)) if self.left > 0 => &round.recvs[..],
            _ => &[],
        };
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
/// rank's `n·b` output. `after_op(rank, op, data)` sees every op a rank
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
    let len = programs.first().map_or(0, |p| p.n * p.block);
    if let Some(p) = programs.iter().find(|p| p.n * p.block != len) {
        return Err(format!(
            "simulate: rank {} works on {} bytes, not {len}",
            p.rank,
            p.n * p.block
        ));
    }
    let machine =
        |(p, input): (&'p RankProgram, &'p Vec<u8>)| RankMachine::new(p, input, vec![0; len]);
    let machines: Result<Vec<_>, _> = programs.iter().zip(inputs).map(machine).collect();
    let mut machines = machines.map_err(|e| format!("simulate: {e}"))?;
    let mut scratch = vec![0; len];
    // Sent and not yet delivered, keyed by (dst, src, tag).
    let mut mail: HashMap<(usize, usize, u64), Vec<u8>> = HashMap::new();
    let mut moved = true;
    while std::mem::take(&mut moved) {
        for (r, m) in machines.iter_mut().enumerate() {
            loop {
                let at = m.completed();
                match m.step(&mut scratch) {
                    Action::Local(_) => {}
                    Action::Send(round) => {
                        for s in &round.sends {
                            let mut payload = Vec::new();
                            m.pack(s, &mut payload);
                            if mail.insert((s.peer, r, s.tag), payload).is_some() {
                                return Err(format!("simulate: rank {r} reused tag {}", s.tag));
                            }
                        }
                    }
                    Action::Await(round) => {
                        for x in &round.recvs {
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
        let widest = |op: &ProgramOp| match op {
            ProgramOp::Round(r) => r.sends.iter().map(|x| x.span.bytes(1)).max(),
            ProgramOp::Permute(_) | ProgramOp::Place { .. } => None,
        };
        p.ops.iter().filter_map(widest).max().unwrap_or(0)
    }

    /// The reference lowering of `plan` for one rank.
    fn reference_ops(plan: &IndexPlan, n: usize, rank: usize, k: usize) -> Vec<reference::Op> {
        let mut ops = Vec::new();
        match plan {
            IndexPlan::Radix(r) => reference::bruck_ops(&mut ops, n, rank, *r, 1, k, |g| g, 0),
            IndexPlan::Hypercube => reference::bruck_ops(&mut ops, n, rank, 2, 1, k, |g| g, 0),
            IndexPlan::Direct => reference::direct_ops(&mut ops, n, rank, k),
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
                ProgramOp::Round(r) => reference::Op::Round {
                    sends: xfers(&r.sends),
                    recvs: xfers(&r.recvs),
                },
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
                IndexPlan::Hypercube,
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
        p.n = 8;
        p.ops[0] = ProgramOp::Permute(BlockPerm {
            kind: PermKind::Transpose { rows: 3, cols: 2 },
            groups: 8,
            unit: 1,
        });
        assert!(p.check_shape().is_err());
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
        fn round(p: &mut RankProgram, at: usize) -> &mut ProgramRound {
            let ProgramOp::Round(r) = &mut p.ops[at] else {
                panic!("the reflection follows the last round");
            };
            r
        }
        // A send moved below offset 0, a run past n·b, a receive that
        // reads the input, a place outside either buffer.
        let below = |p: &mut RankProgram| {
            let Span::Bytes { back, .. } = &mut round(p, last).sends[0].span else {
                panic!("the last round moves byte runs");
            };
            *back = 30;
        };
        assert!(rejected(&below).contains(&format!("op {last}")));
        let past = |p: &mut RankProgram| {
            round(p, last).sends[0].span = Span::Bytes {
                runs: vec![(28, 3)].into(),
                back: 0,
            };
        };
        assert!(rejected(&past).contains(&format!("op {last}")));
        let input_recv =
            |p: &mut RankProgram| round(p, last).recvs[0].span = Span::Input(single(0, 10));
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

    fn check(plan: &IndexPlan, n: usize, block: usize, ports: usize) {
        let programs: Vec<RankProgram> = (0..n)
            .map(|r| RankProgram::lower(plan, n, r, block, ports).expect("lowerable"))
            .collect();
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
        for &n in &[2usize, 5, 9, 16] {
            for &k in &[1usize, 3] {
                check(&IndexPlan::Direct, n, 4, k);
            }
        }
        for &n in &[4usize, 16, 32] {
            check(&IndexPlan::Hypercube, n, 3, 1);
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
        let ProgramOp::Round(round) = &p.ops[1] else {
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
        let len = programs[0].n * programs[0].block;
        let mut machines: Vec<_> = programs
            .iter()
            .zip(inputs)
            .map(|(p, input)| RankMachine::new(p, input, vec![0; len]).unwrap())
            .collect();
        let (mut scratch, mut mail, mut moved) = (vec![0; len], HashMap::new(), true);
        while std::mem::take(&mut moved) {
            for (r, m) in machines.iter_mut().enumerate() {
                loop {
                    match m.step(&mut scratch) {
                        Action::Local(_) => {}
                        Action::Send(round) => {
                            for s in &round.sends {
                                let mut payload = Vec::new();
                                m.pack(s, &mut payload);
                                mail.insert((s.peer, r, s.tag), payload);
                            }
                        }
                        Action::Await(round) => {
                            for x in &round.recvs {
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

    /// 10 000 seeded malformed deliveries over random lowered programs
    /// (every index plan family and every concatenation, n ≤ 64, k ≤ 3,
    /// b ≤ 3), each offered to the receiving machine just before the
    /// genuine one: a changed peer or tag, a short or long payload, a
    /// second copy. None panics; each is refused by name with the buffer
    /// untouched, or is by chance the genuine delivery; every rank still
    /// ends on the transpose or concatenation oracle; and a done machine
    /// refuses whatever comes after.
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
            let plan = match family {
                0 => IndexPlan::Radix(2 + next() % (n - 1)),
                1 => IndexPlan::Direct,
                2 => IndexPlan::Hypercube,
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
            let (label, n, programs, inputs, expected): (_, _, Vec<_>, Vec<_>, Vec<_>) =
                match &concat {
                    None => (
                        format!("{} n={n} k={k} b={block}", plan.label()),
                        n,
                        (0..n)
                            .map(|r| RankProgram::lower(&plan, n, r, block, k).unwrap())
                            .collect(),
                        (0..n).map(|r| input(r, n, block)).collect(),
                        (0..n).map(|r| expected(r, n, block)).collect(),
                    ),
                    Some(c) => (
                        format!("concat {family} {pref:?} n={} k={k} b={block}", c.n()),
                        c.n(),
                        concat_programs(c),
                        (0..c.n()).map(|r| concat_input(r, block)).collect(),
                        vec![concat_expected(c.n(), block); c.n()],
                    ),
                };
            let machines = drive(&programs, &inputs, |m, rank, genuine| {
                if next() % 2 == 0 {
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
                (kinds[kind], mutated) = (kinds[kind] + 1, mutated + 1);
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
        }
        assert!(kinds.iter().all(|&hits| hits >= 1_000), "{kinds:?}");
    }
}

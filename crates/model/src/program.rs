//! Explicit per-rank round programs ("lowered" index plans) and the one
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
//! [`RankProgram`] is that shape. It is pure data — peers, tags and
//! closed-form *descriptors* — produced here (the model crate owns
//! [`IndexPlan`] and the radix math). The schedules are
//! translation-invariant, so nothing in a program is a table: a
//! transfer's blocks are a [`SlotSet`] (§3.2's digit test, read as
//! contiguous *runs*), a local phase a [`BlockPerm`], and lowering a rank
//! costs O(rounds·k) small structs whatever `n` is. The lowering *is* the
//! §3 algorithm — there is no other executable form of the Bruck family
//! in the workspace — and [`RankMachine`] is its one interpreter, driven
//! on threads by `bruck-collectives`, on a worker pool by the TCP fabric
//! and over in-memory mail by [`simulate`]; `bruck-sched` reads the wire
//! schedule off the programs:
//!
//! * [`IndexPlan::Radix`] — rotate, the §3.2 digit rounds grouped `k` per
//!   round, inverse placement;
//! * [`IndexPlan::Mixed`] — the same with a radix per digit position:
//!   subphase `x` tests the digit of weight `Π r_<x` in radix `r_x`
//!   ([`SlotSet`] keeps the two apart);
//! * [`IndexPlan::Direct`] — `n-1` offsets grouped `k` per round, no
//!   rotate/pack phases;
//! * [`IndexPlan::Hypercube`] — cost-equal to radix 2, lowered as such;
//! * [`IndexPlan::Hierarchical`] — the two-level composition: an
//!   intra-node index over lane bundles, a transpose, an inter-node
//!   index over node bundles.
//!
//! The tests sweep [`simulate`] against the transpose oracle, so a
//! lowering bug is caught in pure math, far from any socket.

use std::collections::HashMap;

use crate::planner::IndexPlan;

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
    /// [`RadixDecomposition::blocks_in_step`], no enumeration).
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

/// One transfer of a round: the peer, the matching tag, and the block
/// slots involved. For a send, payload bytes are gathered from the
/// slots' runs in order; for a receive, the payload is scattered back
/// into the same runs (sender and receiver use the same slot set, as in
/// the index algorithm's digit steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramXfer {
    /// Global rank of the peer.
    pub peer: usize,
    /// Message tag (unique per round within the program).
    pub tag: u64,
    /// Blocks of the rank's working buffer.
    pub slots: SlotSet,
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
    /// One communication round.
    Round(ProgramRound),
}

/// A complete per-rank schedule for one all-to-all: an ordered list of
/// local permutes and k-port rounds, run by a [`RankMachine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankProgram {
    /// Cluster size.
    pub n: usize,
    /// This rank.
    pub rank: usize,
    /// Block size in bytes.
    pub block: usize,
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
            IndexPlan::Direct => direct_ops(&mut ops, n, rank, k),
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
    /// plus the copy-in of a program that does not open with one. A driver
    /// that wants the result in a given buffer reads where to start from
    /// this count's parity (see [`RankMachine::step`]).
    #[must_use]
    pub fn passes(&self) -> usize {
        let is_permute = |op: &ProgramOp| matches!(op, ProgramOp::Permute(_));
        let permutes = self.ops.iter().filter(|op| is_permute(op)).count();
        permutes + usize::from(!self.ops.first().is_some_and(is_permute))
    }

    /// The one shape check [`RankMachine::new`] makes before it indexes
    /// an `n`-block buffer with these descriptors (`n` and `ops` are public,
    /// so they may have been recombined): every permute covers exactly
    /// `n` blocks and every slot set stays inside them.
    ///
    /// # Errors
    ///
    /// Names the first op that does not fit.
    pub fn check_shape(&self) -> Result<(), String> {
        let fits = |op: &ProgramOp| match op {
            ProgramOp::Permute(p) => {
                let cells = match p.kind {
                    PermKind::Transpose { rows, cols } => rows * cols,
                    PermKind::Rotate { .. } | PermKind::Reflect { .. } => p.groups,
                };
                cells == p.groups && p.groups * p.unit == self.n
            }
            ProgramOp::Round(r) => {
                let mut xfers = r.sends.iter().chain(&r.recvs);
                xfers.all(|x| x.slots.groups * x.slots.unit <= self.n)
            }
        };
        match self.ops.iter().position(|op| !fits(op)) {
            Some(i) => Err(format!(
                "rank {}: op {i} does not fit an n = {} buffer",
                self.rank, self.n
            )),
            None => Ok(()),
        }
    }
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
                round.sends.push(ProgramXfer {
                    peer: peer((m + dist) % n_g),
                    tag,
                    slots,
                });
                round.recvs.push(ProgramXfer {
                    peer: peer((m + n_g - dist % n_g) % n_g),
                    tag,
                    slots,
                });
            }
            ops.push(ProgramOp::Round(round));
            z = hi + 1;
        }
        stride *= r;
    }
    // Phase 3: inverse placement, out[j] = tmp[(m - j) mod n_g].
    ops.push(permute(PermKind::Reflect { about: m }, n_g, unit));
}

/// The direct algorithm: the working buffer is indexed by destination,
/// so offset `d` sends slot `(m+d) mod n` to that rank. The incoming
/// block (from rank `(m-d) mod n`) is written into the *same* slot —
/// the one this very round just vacated, the only slot a later round is
/// guaranteed not to still need — and a single final permutation
/// (`out[j] = work[(2m−j) mod n]`) puts every received block at its
/// source's index. Receiving into the natural slot `(m-d) mod n`
/// instead would corrupt rounds `d > n/2`, which send slots that
/// earlier rounds already received into.
fn direct_ops(ops: &mut Vec<ProgramOp>, n: usize, m: usize, k: usize) {
    if n <= 1 {
        return;
    }
    let mut d = 1usize;
    while d < n {
        let hi = (n - 1).min(d + k - 1);
        let mut round = ProgramRound::default();
        for dd in d..=hi {
            let slots = SlotSet {
                stride: 1,
                digit: (m + dd) % n,
                radix: n,
                groups: n,
                unit: 1,
            };
            round.sends.push(ProgramXfer {
                peer: (m + dd) % n,
                tag: dd as u64,
                slots,
            });
            round.recvs.push(ProgramXfer {
                peer: (m + n - dd) % n,
                tag: dd as u64,
                slots,
            });
        }
        ops.push(ProgramOp::Round(round));
        d = hi + 1;
    }
    ops.push(permute(PermKind::Reflect { about: 2 * m % n }, n, 1));
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

/// What a [`RankMachine`] asks of its driver next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action<'p> {
    /// A local pass moved the whole buffer: a permute, or the copy-in of
    /// a program that does not open with one.
    Local,
    /// Post this round's sends, gathered from [`RankMachine::spans`],
    /// before [delivering](RankMachine::deliver) any of its receives
    /// (they land in the slots sent from).
    Send(&'p ProgramRound),
    /// The round still awaits [`RankMachine::outstanding`].
    Await(&'p ProgramRound),
    /// The result is [`RankMachine::buffer`].
    Done,
}

/// One rank's program as a pure state machine — the only interpreter of
/// a [`RankProgram`], with no I/O, clock or thread, and no allocation but
/// one flag per receive of the widest round.
/// [`step`](Self::step) runs local passes and yields "send these", then
/// "await these", then "done"; [`deliver`](Self::deliver) checks one
/// received message and scatters it into the buffer.
///
/// The data stays in `input` until the first pass (the first permute
/// reads it in place; a program that opens with a round copies it in,
/// since rounds scatter into the buffer they send from). A pass writes
/// the `scratch` the driver lends to `step` and hands the old `work`
/// back in its place, so a driver of many ranks keeps one spare `n·b`
/// buffer, not one per rank.
#[derive(Debug)]
pub struct RankMachine<'p, B> {
    program: &'p RankProgram,
    input: &'p [u8],
    work: B,
    /// The op the machine is at: the number of ops completed.
    at: usize,
    /// No pass has run: the data is still `input`.
    fresh: bool,
    /// Receives of the current round still to land (0: none awaited),
    /// and per receive whether it has.
    left: usize,
    landed: Vec<bool>,
}

impl<'p, B: AsRef<[u8]> + AsMut<[u8]>> RankMachine<'p, B> {
    /// A machine at the start of `program`, over `input` (the rank's send
    /// buffer, only ever read) and `work`, both `n·b` bytes.
    ///
    /// # Errors
    ///
    /// A message naming the rank when a buffer is not `n·b` bytes or the
    /// program does not fit them ([`RankProgram::check_shape`]).
    pub fn new(program: &'p RankProgram, input: &'p [u8], work: B) -> Result<Self, String> {
        let (len, rank) = (program.n * program.block, program.rank);
        let sizes = (input.len(), work.as_ref().len());
        if sizes != (len, len) {
            return Err(format!(
                "rank {rank}: buffers must be n·b = {len} bytes, not {sizes:?}"
            ));
        }
        program.check_shape()?;
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
    /// `n·b` bytes: a [`Action::Local`] pass writes it and swaps it with
    /// the work buffer, so the result ends in the buffer first lent as
    /// scratch when [`RankProgram::passes`] is odd, else in `work`.
    pub fn step(&mut self, scratch: &mut B) -> Action<'p> {
        match self.program.ops.get(self.at) {
            Some(ProgramOp::Permute(perm)) => {
                self.at += 1;
                self.pass(scratch, Some(perm))
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
        Action::Local
    }

    /// Take one message of the awaited round and scatter it into the
    /// slots of the receive `(peer, tag)` names; the last one completes
    /// the round.
    ///
    /// # Errors
    ///
    /// A message naming the rank, peer and tag — the buffer untouched —
    /// when the program is done, no round awaits, the awaited round has
    /// no such receive or it has landed, or the payload is not that
    /// receive's `blocks · b` bytes.
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
        let (slots, block) = (round.recvs[i].slots, self.program.block);
        let (got, want) = (payload.len(), slots.blocks() * block);
        if got != want {
            return err(&format!("{got} payload bytes, not {want}"));
        }
        let (work, mut rest) = (self.work.as_mut(), payload);
        for (at, len) in slots.runs(block) {
            let run;
            (run, rest) = rest.split_at(len);
            work[at..at + len].copy_from_slice(run);
        }
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

    /// The `(offset, len)` runs of [`buffer`](Self::buffer) that make up
    /// transfer `x`'s payload, in order.
    pub fn spans(&self, x: &ProgramXfer) -> impl Iterator<Item = (usize, usize)> {
        x.slots.runs(self.program.block)
    }

    /// Append transfer `x`'s payload, gathered from its spans, to `out`.
    pub fn pack(&self, x: &ProgramXfer, out: &mut Vec<u8>) {
        for (at, len) in self.spans(x) {
            out.extend_from_slice(&self.buffer()[at..at + len]);
        }
    }

    /// The rank's data as it stands: the input until the first pass.
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
/// none can move. `inputs[r]` is rank `r`'s `n·b` send buffer; the result
/// is each rank's output. `after_op(rank, op, data)` sees every op a rank
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
    let len = inputs.first().map_or(0, Vec::len);
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
                    Action::Local => {}
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

    pub fn direct_ops(ops: &mut Vec<Op>, n: usize, m: usize, k: usize) {
        let mut d = 1usize;
        while d < n {
            let hi = (n - 1).min(d + k - 1);
            let (mut sends, mut recvs) = (Vec::new(), Vec::new());
            for dd in d..=hi {
                let slot = (m + dd) % n;
                sends.push(((m + dd) % n, dd as u64, vec![slot]));
                recvs.push(((m + n - dd) % n, dd as u64, vec![slot]));
            }
            ops.push(Op::Round { sends, recvs });
            d = hi + 1;
        }
        ops.push(Op::Permute(
            (0..n).map(|j| (2 * m + n - j % n) % n).collect(),
        ));
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
            ProgramOp::Round(r) => r.sends.iter().map(|x| x.slots.blocks()).max(),
            ProgramOp::Permute(_) => None,
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
                    let slots: Vec<usize> =
                        x.slots.runs(1).flat_map(|(at, len)| at..at + len).collect();
                    assert_eq!(slots.len(), x.slots.blocks(), "{:?}", x.slots);
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
        assert_eq!(m.step(&mut scratch), Action::Local);
        let ProgramOp::Round(round) = &p.ops[1] else {
            panic!("the rotation is followed by a round");
        };
        let (a, b) = (round.recvs[0], round.recvs[1]);
        let good = vec![7u8; a.slots.blocks() * 2];
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
        assert_eq!(m.step(&mut scratch), Action::Local);
        assert!(matches!(m.step(&mut scratch), Action::Send(_)));
        let Action::Await(round) = m.step(&mut scratch) else {
            panic!("a round awaits once its sends are out");
        };
        let x = round.recvs[0];
        m.deliver(x.peer, x.tag, &[1, 2, 3]).unwrap();
        assert_eq!(m.outstanding().count(), 0);
        assert_eq!(m.step(&mut scratch), Action::Local);
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
        let len = inputs[0].len();
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
                        Action::Local => {}
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

    /// 10 000 seeded malformed deliveries over random lowered programs
    /// (every plan family, n ≤ 64, k ≤ 3, b ≤ 3), each offered to the
    /// receiving machine just before the genuine one: a changed peer or
    /// tag, a short or long payload, a second copy. None panics; each is
    /// refused by name with the buffer untouched, or is by chance the
    /// genuine delivery; every rank still ends on the transpose oracle;
    /// and a done machine refuses whatever comes after.
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
            let plan = match next() % 5 {
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
            let label = format!("{} n={n} k={k} b={block}", plan.label());
            let programs: Vec<RankProgram> = (0..n)
                .map(|r| RankProgram::lower(&plan, n, r, block, k).unwrap())
                .collect();
            let inputs: Vec<Vec<u8>> = (0..n).map(|r| input(r, n, block)).collect();
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
                assert_eq!(got, expected(rank, n, block), "{label} rank={rank}");
            }
        }
        assert!(kinds.iter().all(|&hits| hits >= 1_000), "{kinds:?}");
    }
}

//! The [`Comm`] abstraction and process groups.
//!
//! The paper motivates the fully connected model partly by flexibility:
//! algorithms "can operate within arbitrary and dynamic subsets of
//! processors" (§1.2). [`Comm`] is the interface every collective in this
//! workspace is written against; [`Endpoint`] implements
//! it for the whole cluster, and [`GroupComm`] restricts it to an
//! arbitrary subset with translated ranks — so any collective runs
//! unchanged inside any group, including several disjoint groups
//! concurrently. Its one communication method is
//! [`round_gather`](Comm::round_gather), the round every lowered program
//! is driven through, so a group translates ranks in that one place; the
//! contiguous-payload conveniences (`round`, `send_and_recv`) stay on
//! [`Endpoint`].

use std::time::Duration;

use crate::endpoint::{Endpoint, GatherSendSpec, RecvSpec};
use crate::error::NetError;
use crate::message::{Message, Tag};

/// A communication context: a rank within some set of peers, with k-port
/// synchronous rounds.
pub trait Comm {
    /// This participant's rank in `[0, size)`.
    fn rank(&self) -> usize;

    /// Number of participants.
    fn size(&self) -> usize;

    /// Ports per participant (`k`).
    fn ports(&self) -> usize;

    /// One synchronous k-port round whose sends are gather span lists
    /// (see [`Endpoint::round_gather`]): the one way a collective reaches
    /// the wire.
    ///
    /// # Errors
    ///
    /// Port-model violations, timeouts, fault injection;
    /// [`NetError::App`] on out-of-bounds spans.
    fn round_gather(
        &mut self,
        sends: &[GatherSendSpec<'_>],
        recvs: &[RecvSpec],
    ) -> Result<Vec<Message>, NetError>;

    /// The physical-substrate label of the underlying transport
    /// (`"channel"`, `"uds"`, …; see
    /// [`crate::transport::Transport::kind`]). Calibration caches key
    /// fitted cost models by it. Non-transport contexts report
    /// `"generic"`.
    fn transport_kind(&self) -> &'static str {
        "generic"
    }

    /// Acquire pooled scratch of exactly `len` bytes (not zeroed: write first).
    ///
    /// The default implementation allocates fresh; pooled contexts
    /// ([`Endpoint`], [`GroupComm`]) serve from the cluster pool so
    /// steady-state acquires are allocation-free.
    fn acquire(&mut self, len: usize) -> Vec<u8> {
        vec![0; len]
    }

    /// Return a buffer (scratch or a received payload) for reuse.
    ///
    /// The default implementation simply drops it.
    fn recycle(&mut self, buf: Vec<u8>) {
        drop(buf);
    }

    /// Arm this context's completion budget: every blocking wait in the
    /// round engine and the reliability sublayer fails with
    /// [`NetError::DeadlineExceeded`] once `budget` elapses. Contexts
    /// without a deadline (the default) ignore the call.
    fn arm_deadline(&mut self, budget: Duration) {
        let _ = budget;
    }

    /// Disarm the completion budget; the collective call that armed it
    /// disarms it on the way out, success or failure.
    fn disarm_deadline(&mut self) {}

    /// Time left before the armed budget expires; `None` when no budget
    /// is armed (or the context has no deadline).
    fn deadline_remaining(&self) -> Option<Duration> {
        None
    }

    /// The reliability sublayer's adaptive worst-link retransmission
    /// timeout, if one is running (see
    /// [`crate::transport::Transport::rto_hint`]) — the natural unit for
    /// scaling per-round patience under a deadline.
    fn rto_hint(&self) -> Option<Duration> {
        None
    }
}

impl Comm for Endpoint {
    fn rank(&self) -> usize {
        Endpoint::rank(self)
    }

    fn size(&self) -> usize {
        Endpoint::size(self)
    }

    fn ports(&self) -> usize {
        Endpoint::ports(self)
    }

    fn round_gather(
        &mut self,
        sends: &[GatherSendSpec<'_>],
        recvs: &[RecvSpec],
    ) -> Result<Vec<Message>, NetError> {
        Endpoint::round_gather(self, sends, recvs)
    }

    fn transport_kind(&self) -> &'static str {
        Endpoint::transport_kind(self)
    }

    fn acquire(&mut self, len: usize) -> Vec<u8> {
        Endpoint::acquire(self, len)
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        Endpoint::recycle(self, buf);
    }

    fn arm_deadline(&mut self, budget: Duration) {
        Endpoint::deadline(self).arm(budget);
    }

    fn disarm_deadline(&mut self) {
        Endpoint::deadline(self).disarm();
    }

    fn deadline_remaining(&self) -> Option<Duration> {
        Endpoint::deadline(self).remaining()
    }

    fn rto_hint(&self) -> Option<Duration> {
        Endpoint::rto_hint(self)
    }
}

/// A process group: an ordered subset of global ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    members: Vec<usize>,
}

impl Group {
    /// A group from an ordered member list (global ranks, no duplicates).
    ///
    /// # Panics
    ///
    /// Panics on duplicates or an empty list.
    #[must_use]
    pub fn new(members: Vec<usize>) -> Self {
        assert!(!members.is_empty(), "a group needs at least one member");
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), members.len(), "duplicate group members");
        Self { members }
    }

    /// The contiguous range `[start, start+len)`.
    #[must_use]
    pub fn range(start: usize, len: usize) -> Self {
        Self::new((start..start + len).collect())
    }

    /// Every `stride`-th rank of `n`, starting at `offset` — e.g. the rows
    /// or columns of a 2D process grid.
    #[must_use]
    pub fn strided(offset: usize, stride: usize, n: usize) -> Self {
        assert!(stride >= 1);
        Self::new((offset..n).step_by(stride).collect())
    }

    /// Member count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group is empty (never true — construction forbids it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The ordered global ranks.
    #[must_use]
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The group rank of a global rank, if a member.
    #[must_use]
    pub fn rank_of(&self, global: usize) -> Option<usize> {
        self.members.iter().position(|&m| m == global)
    }

    /// The group minus `dead` (global ranks), preserving member order —
    /// the shrink step of shrink-and-retry recovery: survivors rebuild a
    /// dense communicator and re-run the collective among themselves.
    ///
    /// # Panics
    ///
    /// Panics if every member is dead (a group cannot be empty).
    #[must_use]
    pub fn without(&self, dead: &[usize]) -> Self {
        Self::new(
            self.members
                .iter()
                .copied()
                .filter(|m| !dead.contains(m))
                .collect(),
        )
    }

    /// Bind this group to an endpoint whose global rank must be a member.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint's rank is not in the group, or a member is
    /// out of range.
    #[must_use]
    pub fn bind<'a>(&self, ep: &'a mut Endpoint) -> GroupComm<'a> {
        let global = Endpoint::rank(ep);
        let my_index = self
            .rank_of(global)
            .unwrap_or_else(|| panic!("rank {global} is not a member of {:?}", self.members));
        for &m in &self.members {
            assert!(m < Endpoint::size(ep), "member {m} out of range");
        }
        GroupComm {
            ep,
            members: self.members.clone(),
            my_index,
            tag_offset: 0,
        }
    }
}

/// A [`Comm`] restricted to a group, with translated ranks.
#[derive(Debug)]
pub struct GroupComm<'a> {
    ep: &'a mut Endpoint,
    members: Vec<usize>,
    my_index: usize,
    tag_offset: Tag,
}

impl<'a> GroupComm<'a> {
    /// Shift every tag this context sends or matches by
    /// `epoch << EPOCH_SHIFT`. Successive shrink-and-retry attempts run
    /// in distinct epochs, so stale messages from an aborted attempt can
    /// never match a retry's receives — isolation without flushing.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.tag_offset = epoch << EPOCH_SHIFT;
        self
    }

    /// Discard stale in-flight traffic queued at this rank (hygiene
    /// between shrink-and-retry attempts; see [`Endpoint::purge_stale`]).
    pub fn purge_stale(&mut self) -> usize {
        self.ep.purge_stale()
    }

    /// The ranks the cluster's failure detector has declared dead
    /// (global ids).
    #[must_use]
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.ep.failed_ranks()
    }
}

/// Bit position of the epoch in a [`GroupComm`] tag: collective tags stay
/// below `1 << EPOCH_SHIFT`, epochs occupy the bits above.
pub const EPOCH_SHIFT: u32 = 40;

impl Comm for GroupComm<'_> {
    fn rank(&self) -> usize {
        self.my_index
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn ports(&self) -> usize {
        Endpoint::ports(self.ep)
    }

    /// Translate the group ranks to global ones and shift the tags into
    /// this context's epoch; received messages come back in group terms.
    fn round_gather(
        &mut self,
        sends: &[GatherSendSpec<'_>],
        recvs: &[RecvSpec],
    ) -> Result<Vec<Message>, NetError> {
        let (members, rank, offset) = (&self.members, self.my_index, self.tag_offset);
        let global = |peer: usize| {
            let size = members.len();
            members
                .get(peer)
                .copied()
                .ok_or(NetError::BadPeer { rank, peer, size })
        };
        let sends: Vec<GatherSendSpec<'_>> = sends
            .iter()
            .map(|s| {
                let (to, tag) = (global(s.to)?, s.tag + offset);
                Ok(GatherSendSpec { to, tag, ..*s })
            })
            .collect::<Result<_, NetError>>()?;
        let recvs: Vec<RecvSpec> = recvs
            .iter()
            .map(|r| {
                Ok(RecvSpec {
                    from: global(r.from)?,
                    tag: r.tag + offset,
                })
            })
            .collect::<Result<_, NetError>>()?;
        let mut msgs = Endpoint::round_gather(self.ep, &sends, &recvs)?;
        for m in &mut msgs {
            m.src = (members.iter().position(|&g| g == m.src))
                .expect("message from outside the group matched a group receive");
            m.dst = rank;
            m.tag -= offset;
        }
        Ok(msgs)
    }

    fn transport_kind(&self) -> &'static str {
        Endpoint::transport_kind(self.ep)
    }

    fn acquire(&mut self, len: usize) -> Vec<u8> {
        Endpoint::acquire(self.ep, len)
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        Endpoint::recycle(self.ep, buf);
    }

    fn arm_deadline(&mut self, budget: Duration) {
        Endpoint::deadline(self.ep).arm(budget);
    }

    fn disarm_deadline(&mut self) {
        Endpoint::deadline(self.ep).disarm();
    }

    fn deadline_remaining(&self) -> Option<Duration> {
        Endpoint::deadline(self.ep).remaining()
    }

    fn rto_hint(&self) -> Option<Duration> {
        Endpoint::rto_hint(self.ep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};

    impl GroupComm<'_> {
        /// One tag-0 exchange: `payload` to `to`, as one span, and what
        /// `from` sent back.
        fn exchange(
            &mut self,
            to: usize,
            payload: &[u8],
            from: usize,
        ) -> Result<Vec<u8>, NetError> {
            let spans = [(0, payload.len())];
            let (src, tag) = (payload, 0);
            let send = GatherSendSpec {
                to,
                tag,
                src,
                spans: &spans,
            };
            let msgs = self.round_gather(&[send], &[RecvSpec { from, tag }])?;
            Ok(msgs.into_iter().next().expect("one receive").payload)
        }
    }

    #[test]
    fn group_construction() {
        let g = Group::range(2, 3);
        assert_eq!(g.members(), &[2, 3, 4]);
        assert_eq!(g.rank_of(3), Some(1));
        assert_eq!(g.rank_of(5), None);
        let g = Group::strided(1, 2, 8);
        assert_eq!(g.members(), &[1, 3, 5, 7]);
        assert_eq!(g.len(), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_members_rejected() {
        let _ = Group::new(vec![1, 2, 1]);
    }

    #[test]
    fn group_ring_with_translated_ranks() {
        // Global ranks {1, 3, 5} of a 6-rank cluster rotate a token while
        // the others stay silent.
        let cfg = ClusterConfig::new(6);
        let group = Group::new(vec![1, 3, 5]);
        let out = Cluster::run(&cfg, |ep| {
            let Some(_) = group.rank_of(Endpoint::rank(ep)) else {
                return Ok(None);
            };
            let mut gc = group.bind(ep);
            let n = gc.size();
            let right = (gc.rank() + 1) % n;
            let left = (gc.rank() + n - 1) % n;
            let got = gc.exchange(right, &[gc.rank() as u8], left)?;
            Ok(Some(got[0] as usize))
        })
        .unwrap();
        assert_eq!(out.results[1], Some(2)); // group rank 0 hears from 2
        assert_eq!(out.results[3], Some(0));
        assert_eq!(out.results[5], Some(1));
        assert_eq!(out.results[0], None);
    }

    #[test]
    fn disjoint_groups_run_concurrently() {
        // Two halves of an 8-rank cluster each rotate independently.
        let cfg = ClusterConfig::new(8);
        let lo = Group::range(0, 4);
        let hi = Group::range(4, 4);
        let out = Cluster::run(&cfg, |ep| {
            let group = if Endpoint::rank(ep) < 4 { &lo } else { &hi };
            let mut gc = group.bind(ep);
            let n = gc.size();
            let right = (gc.rank() + 1) % n;
            let left = (gc.rank() + n - 1) % n;
            let got = gc.exchange(right, &[gc.rank() as u8 + 10], left)?;
            Ok(got[0])
        })
        .unwrap();
        // Every rank hears its group-left neighbour; no cross-group leak.
        assert_eq!(out.results, vec![13, 10, 11, 12, 13, 10, 11, 12]);
    }

    #[test]
    fn out_of_range_group_peer_rejected() {
        let cfg = ClusterConfig::new(4);
        let group = Group::range(0, 2);
        let err = Cluster::run(&cfg, |ep| {
            if Endpoint::rank(ep) < 2 {
                let mut gc = group.bind(ep);
                // Group has 2 members; peer 2 is invalid.
                gc.exchange(2, &[0], 2)?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, NetError::BadPeer { .. }));
    }
}

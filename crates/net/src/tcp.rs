//! Event-driven TCP transport: hundreds of ranks multiplexed per
//! process.
//!
//! The thread-per-rank substrates ([`Cluster`](crate::Cluster),
//! [`SocketCluster`](crate::socket::SocketCluster)) stop scaling near
//! `n ≈ 64` on small hosts: every simulated processor costs an OS
//! thread, and the scheduler thrashes long before the algorithms get
//! interesting. This module rebuilds the data plane around *readiness*
//! instead of threads:
//!
//! * **Topology.** Ranks are grouped into simulated *nodes* of
//!   [`ClusterConfig::node_size`] ranks each. Intra-node traffic rides
//!   the in-process channel path (one [`Mailbox`] per rank, zero
//!   syscalls); inter-node traffic crosses one loopback **TCP stream
//!   per node pair**, shared by every rank on the two nodes.
//! * **Framing.** Messages fragment at
//!   [`FRAG_PAYLOAD`] into the same frame
//!   header the datagram transport uses (see [`crate::frame`]), wrapped
//!   in an 8-byte `[len, dst]` prefix so the stream demultiplexes by
//!   destination rank.
//! * **Reactor.** All streams run nonblocking. One reactor thread owns
//!   every pair's *lifecycle* (stall clock, reconnect, eviction, injected
//!   faults) and passes over the pairs until a pass moves nothing; then
//!   it parks. A loopback fabric owns both ends of every stream, so
//!   "readable" is implied by "someone staged or wrote": a sender that
//!   stages output, a helper that parks a link error and a shutdown
//!   `unpark` it, a delivery `unpark`s the worker that owns the rank. A
//!   timeout is kept only while a clock runs (a tick of 500 µs); a quiet
//!   fabric makes no pass at all.
//! * **Who drives a stream.** Each pair sits behind its own lock and a
//!   connected pair's ends are swept — write, read, parse, deliver — by
//!   whoever holds it: the reactor, or a scale worker that has receives
//!   outstanding and nothing in its mailboxes (`FabricShared::help`,
//!   `try_lock`, its own read chunk), so the byte-moving runs on every
//!   core the run already holds and threads stay `workers + 1`. A pair
//!   with nothing in flight is skipped, syscalls and all.
//! * **Byte path.** A payload byte is moved by `memcpy`, once per hop:
//!   packed from a rank's `work` into a pooled payload; framed — prefix,
//!   header, bytes — straight into the pair's outbox arena (the payload
//!   goes back to the pool there); written from the arena to the kernel;
//!   read into the sweeper's 64 KiB chunk, where every record that
//!   arrived whole is parsed in place; copied from the chunk to its
//!   offset in a pooled payload ([`crate::frame`]); unpacked into the
//!   receiver's `work` (and the payload returned). Only a record a read
//!   stopped short of is copied once more, into its stream end's `rbuf`.
//!   The chunk is the one hot buffer on the receive side and stays
//!   small on purpose: the kernel copies into it while it sits in cache,
//!   whereas reading straight into a large growing buffer lands every
//!   byte in cold, just-zeroed memory (measured: reads 13.9 → 19.5 ms
//!   per 8 MB lap). One [`BufferPool`] per fabric serves senders, stream
//!   ends and the scale executor's workers — arenas included: a drained
//!   arena rides the replay log until the peer confirms it (at the end
//!   of the read burst that delivered it), then goes to the pool, where
//!   the next sender finds it — so a run's rounds reuse each other's
//!   memory instead of faulting in fresh pages.
//! * **Execution.** [`TcpScaleCluster`] runs lowered [`RankProgram`]s
//!   on a small worker pool: each worker owns a contiguous slice of
//!   ranks and advances each rank's [`RankMachine`] — the interpreter
//!   every substrate drives — as far as its own deliveries allow, at most
//!   a round ahead of the slice's slowest. OS threads per process are
//!   `O(workers)`, not `O(n)`, so `n = 1024` runs where 1024 would not.
//!
//! **Who provides reliability.** A TCP stream is already ordered and
//! reliable, so [`TcpRankTransport`] declares [`Delivery::Reliable`] and
//! a clean fabric carries no per-rank-pair sequence numbers, acks, RTO
//! timers or probes even when the caller asked for
//! [`ClusterConfig::with_reliability`]. What a stream cannot do by
//! itself — survive a broken connection — lives in the fabric, per
//! *node pair*:
//!
//! * each stream end counts the whole records it has delivered and keeps
//!   the records it has written until the peer confirms them (a 16-byte
//!   in-band "delivered N" control record when a read burst ends, and
//!   every `ACK_EVERY` records inside one, bounds that log without a
//!   timer);
//! * a reconnect re-handshakes `pair id + delivered count` over the new
//!   socket in both directions; each end drops the confirmed prefix and
//!   replays the rest ahead of newer outbox data, so a healed stream
//!   resumes at a record boundary with nothing lost and nothing doubled;
//! * failure detection is the connection state machine alone: an I/O
//!   error or EOF, or a connected pair with output pending that moves no
//!   byte for [`FabricConfig::handshake_timeout`], tears the pair down;
//!   an exhausted reconnect budget evicts a node and publishes its ranks
//!   to the [`FailureDetector`] for one cluster-consistent verdict.
//!
//! Injected *wire* faults ([`crate::fault::FaultyTransport`]: loss,
//! duplication, corruption, cuts) make the stack a datagram wire again,
//! and then the sliding-window ARQ, adaptive RTO and heartbeat watchdog
//! of [`crate::reliable`] wrap it exactly as they wrap channels and
//! datagram sockets. Deadlines ([`crate::deadline`]) apply either way.

use std::collections::{BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use bruck_model::planner::IndexPlan;
use bruck_model::program::{Action, ProgramXfer, RankMachine, RankProgram};
use bruck_model::tuning::DEFAULT_DRAIN_GRACE;

use crate::cluster::ClusterConfig;
use crate::deadline::Deadline;
use crate::error::NetError;
use crate::failure::FailureDetector;
use crate::fault::{FaultPlan, FaultyTransport, RoundClock, SocketFault};
use crate::frame::{
    decode_frame, encode_header, fragment, Assembler, FrameHeader, FRAG_PAYLOAD, HEADER,
};
use crate::mailbox::{MailSender, Mailbox};
use crate::membership::Membership;
use crate::message::{payload_checksum, Message, Tag};
use crate::metrics::{FabricStats, RankMetrics, RunMetrics};
use crate::pool::{class_for, BufferPool};
use crate::reliable::ReliableTransport;
use crate::transport::{Delivery, Transport};

/// Stream prefix ahead of every record: `u32` body length + `u32`
/// destination rank (both little-endian).
const STREAM_PREFIX: usize = 8;

/// Largest record body a peer may announce: one full fragment frame.
const MAX_RECORD: usize = HEADER + FRAG_PAYLOAD;

/// The "destination" of a fabric control record — never a rank.
const CTL_DST: u32 = u32::MAX;

/// A control record: the prefix plus the sender's delivered count.
const CTL_LEN: usize = STREAM_PREFIX + 8;

/// Data records a stream end delivers between two "delivered N" control
/// records. Bounds the peer's replay log to this many records (plus
/// what is in flight) with no timer involved.
const ACK_EVERY: u64 = 64;

/// The re-handshake either end sends: `u32` pair id + `u64` count of
/// records that end has delivered (both little-endian).
const HANDSHAKE_LEN: usize = 4 + 8;

/// Reactor read chunk: one full frame's worth per `read` call.
const READ_CHUNK: usize = HEADER + FRAG_PAYLOAD;

/// How long a parked thread sleeps while a clock it must watch is
/// running (stall clock, reconnect backoff, armed fault, drain grace,
/// deadline). Wake-ups are by `unpark`; this is only those clocks' tick.
const TICK: Duration = Duration::from_micros(500);

/// Default per-outage reconnect budget: attempts before a node pair is
/// declared dead and a node-level eviction is raised.
const DEFAULT_RECONNECT_BUDGET: u32 = 6;

/// Default first-retry backoff; doubles per failed attempt (jittered).
const DEFAULT_BACKOFF_BASE: Duration = Duration::from_micros(200);

/// Default backoff ceiling.
const DEFAULT_BACKOFF_CAP: Duration = Duration::from_millis(20);

/// Default ceiling on one reconnect handshake (connect + pair-id
/// exchange); a peer that cannot complete it in time burns one budget
/// attempt.
const DEFAULT_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Default per-stream outbox high-water mark: a sender that finds its
/// outbox at or past it waits for the reactor to drain it (or for the
/// pair to die), so a slow or reconnecting peer bounds memory without
/// costing a frame.
const DEFAULT_OUTBOX_CAP: usize = 8 << 20;

/// Healing, fault-injection, and lifecycle knobs for a [`TcpFabric`].
///
/// [`Default`] gives the PR 9 fabric: no healing (the first stream
/// error fails the run), no injection, 1s drain grace.
pub struct FabricConfig {
    /// Heal broken streams instead of failing the fabric. Self-contained:
    /// the re-handshake exchanges delivered counts and each end replays
    /// its unconfirmed records, so no layer above has to repair a gap.
    pub heal: bool,
    /// Reconnect attempts per outage before the pair is declared dead.
    pub reconnect_budget: u32,
    /// First-retry backoff; doubles per failed attempt, jittered.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Budget for one reconnect handshake — and how long a connected
    /// pair with output pending may move no byte before it is torn down
    /// as half-open.
    pub handshake_timeout: Duration,
    /// Per-stream outbox high-water mark (sender backpressure).
    pub outbox_cap: usize,
    /// How long the reactor keeps sweeping after shutdown is requested,
    /// waiting for outboxes to drain (hang backstop only — drained
    /// fabrics exit immediately). See
    /// [`WireTuning::drain_grace`](bruck_model::tuning::WireTuning::drain_grace).
    pub drain_grace: Duration,
    /// Socket-level fault events to inject inside the fabric.
    pub faults: Arc<FaultPlan>,
    /// Round progress used to time round-gated socket events (absent:
    /// events fire immediately).
    pub round_clock: Option<Arc<RoundClock>>,
    /// Failure detector that node-level evictions are published to.
    pub detector: Option<Arc<FailureDetector>>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            heal: false,
            reconnect_budget: DEFAULT_RECONNECT_BUDGET,
            backoff_base: DEFAULT_BACKOFF_BASE,
            backoff_cap: DEFAULT_BACKOFF_CAP,
            handshake_timeout: DEFAULT_HANDSHAKE_TIMEOUT,
            outbox_cap: DEFAULT_OUTBOX_CAP,
            drain_grace: DEFAULT_DRAIN_GRACE,
            faults: Arc::new(FaultPlan::default()),
            round_clock: None,
            detector: None,
        }
    }
}

/// splitmix64 step — the workspace's deterministic RNG idiom, used for
/// backoff jitter.
fn mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// Index of the unordered node pair `(a, b)`, `a < b`, among the
/// `nodes·(nodes−1)/2` pairs.
fn pair_index(nodes: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < nodes);
    a * (2 * nodes - a - 1) / 2 + (b - a - 1)
}

/// The [`Pair`] carrying traffic between the nodes of ranks `src` and
/// `dst` (`None` for intra-node or out-of-range ranks).
fn pair_for(
    pairs: &mut [Pair],
    nodes: usize,
    node_size: usize,
    src: usize,
    dst: usize,
) -> Option<&mut Pair> {
    let (sa, sb) = (src / node_size, dst / node_size);
    if sa == sb || sa >= nodes || sb >= nodes {
        return None;
    }
    let (a, b) = if sa < sb { (sa, sb) } else { (sb, sa) };
    pairs.get_mut(pair_index(nodes, a, b))
}

/// Atomic mirror of [`FabricStats`], bumped by the reactor and the
/// senders, snapshotted after the run.
#[derive(Default)]
struct FabricStatsShared {
    link_failures: AtomicU64,
    reconnects: AtomicU64,
    reconnect_failures: AtomicU64,
    pairs_evicted: AtomicU64,
    backoff_ns: AtomicU64,
    injected_resets: AtomicU64,
    injected_stalls: AtomicU64,
    injected_handshake_drops: AtomicU64,
    reactor_passes: AtomicU64,
}

impl FabricStatsShared {
    fn snapshot(&self) -> FabricStats {
        FabricStats {
            link_failures: self.link_failures.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            reconnect_failures: self.reconnect_failures.load(Ordering::Relaxed),
            pairs_evicted: self.pairs_evicted.load(Ordering::Relaxed),
            backoff_ns: self.backoff_ns.load(Ordering::Relaxed),
            injected_resets: self.injected_resets.load(Ordering::Relaxed),
            injected_stalls: self.injected_stalls.load(Ordering::Relaxed),
            injected_handshake_drops: self.injected_handshake_drops.load(Ordering::Relaxed),
            // Outboxes apply backpressure and never shed.
            outbox_shed_bytes: 0,
            reactor_passes: self.reactor_passes.load(Ordering::Relaxed),
        }
    }
}

/// One stream end's staging area: the arena senders frame into, and the
/// senders parked on its high-water mark.
#[derive(Default)]
struct Outbox {
    /// Whole records. Without capacity after a drain; the next sender
    /// draws an arena from the pool.
    buf: Vec<u8>,
    /// Woken by whoever drains `buf`.
    waiting: Vec<Thread>,
}

/// State shared between the rank transports (producers) and whoever
/// drives the streams (the reactor, and workers that would otherwise
/// wait), plus the first fabric error.
struct FabricShared {
    node_size: usize,
    nodes: usize,
    /// `2` outboxes per node pair: `[2p]` is written by the lower node
    /// of pair `p` (the connecting end), `[2p+1]` by the higher (the
    /// accepting end).
    outboxes: Vec<Mutex<Outbox>>,
    /// Cheap has-data flags so a sweep skips locking idle outboxes. The
    /// sender that raises one wakes the reactor.
    dirty: Vec<AtomicBool>,
    /// The connection state machines, one lock each: a stream is driven
    /// by whoever holds its pair.
    pairs: Vec<Mutex<Pair>>,
    /// Every rank's mailbox, and the thread to wake when something is
    /// put in it (set by a scale worker for the ranks it owns; a rank
    /// blocked in its own mailbox needs no wake-up).
    peers: Vec<MailSender>,
    owners: Vec<OnceLock<Thread>>,
    reactor: OnceLock<Thread>,
    /// Payload buffers and outbox arenas for everything the fabric
    /// moves, and for whoever runs on it and wants its buffers back.
    pool: Arc<BufferPool>,
    /// The largest arena drained so far: what the next one starts at.
    arena_hint: AtomicUsize,
    /// First wire error observed by the reactor; fails every subsequent
    /// send (and every idle wait of the scale executor) so the run
    /// aborts instead of hanging.
    error: Mutex<Option<String>>,
    /// Set once `error` is: the lock-free fast path of [`Self::check`].
    failed: AtomicBool,
    /// Outbox high-water mark: a sender waits while its outbox is at or
    /// past it, so a slow or reconnecting peer cannot grow one without
    /// bound.
    outbox_cap: usize,
    /// Per-pair tombstones: reconnect budget exhausted, sends to the
    /// pair are blackholed and the pair no longer gates shutdown.
    pair_dead: Vec<AtomicBool>,
    /// Nodes evicted at the fabric level (budget-exhausted pairs).
    dead_nodes: Mutex<Vec<usize>>,
    /// Shutdown drain grace, nanoseconds (settable late: the scale
    /// executor caps it with the adaptive-RTO linger hint).
    drain_grace_ns: AtomicU64,
    stats: FabricStatsShared,
}

impl FabricShared {
    fn new(
        peers: Vec<MailSender>,
        node_size: usize,
        pairs: Vec<Pair>,
        pool: Arc<BufferPool>,
        config: &FabricConfig,
    ) -> Self {
        let npairs = pairs.len();
        Self {
            node_size,
            nodes: peers.len() / node_size,
            outboxes: (0..2 * npairs).map(|_| Mutex::default()).collect(),
            dirty: (0..2 * npairs).map(|_| AtomicBool::new(false)).collect(),
            pairs: pairs.into_iter().map(Mutex::new).collect(),
            owners: peers.iter().map(|_| OnceLock::new()).collect(),
            peers,
            reactor: OnceLock::new(),
            pool,
            arena_hint: AtomicUsize::new(0),
            error: Mutex::new(None),
            failed: AtomicBool::new(false),
            outbox_cap: config.outbox_cap,
            pair_dead: (0..npairs).map(|_| AtomicBool::new(false)).collect(),
            dead_nodes: Mutex::new(Vec::new()),
            drain_grace_ns: AtomicU64::new(config.drain_grace.as_nanos() as u64),
            stats: FabricStatsShared::default(),
        }
    }

    /// The outbox a message from `src_node` to `dst_node` is staged in.
    fn outbox_for(&self, src_node: usize, dst_node: usize) -> usize {
        if src_node < dst_node {
            2 * pair_index(self.nodes, src_node, dst_node)
        } else {
            2 * pair_index(self.nodes, dst_node, src_node) + 1
        }
    }

    fn wake_reactor(&self) {
        if let Some(reactor) = self.reactor.get() {
            reactor.unpark();
        }
    }

    /// Put `msg` in its rank's mailbox and wake the worker that scans it.
    /// A dropped receiver (aborted run) is not an error: same
    /// fire-and-forget semantics as the channel transport.
    fn deliver(&self, msg: Message) {
        let dst = msg.dst;
        let _ = self.peers[dst].send(msg);
        if let Some(owner) = self.owners[dst].get() {
            owner.unpark();
        }
    }

    /// Drive every pair nobody else is driving and whose lifecycle is at
    /// rest — what a worker does instead of waiting for the reactor to
    /// move its bytes. Returns whether any moved.
    fn help(&self, chunk: &mut [u8]) -> bool {
        let mut moved = false;
        for pair in &self.pairs {
            let Ok(mut pair) = pair.try_lock() else {
                continue;
            };
            if !pair.at_rest() || pair.settled(self) {
                continue;
            }
            match pair.sweep(self, chunk) {
                // Progress is progress, whoever made it: the half-open
                // stall clock restarts.
                Ok(true) => (moved, pair.idle_since) = (true, None),
                Ok(false) => {}
                // Teardown is the reactor's: park the error for it.
                Err(e) => {
                    pair.fault = Some(e);
                    self.wake_reactor();
                }
            }
        }
        moved
    }

    fn fail(&self, msg: String) {
        let mut slot = self.error.lock().expect("fabric error lock");
        if slot.is_none() {
            *slot = Some(msg);
        }
        self.failed.store(true, Ordering::Release);
    }

    fn check(&self) -> Result<(), NetError> {
        if !self.failed.load(Ordering::Acquire) {
            return Ok(());
        }
        match self.error.lock().expect("fabric error lock").as_ref() {
            Some(e) => Err(NetError::App(format!("tcp fabric: {e}"))),
            None => Ok(()),
        }
    }

    fn drain_grace(&self) -> Duration {
        Duration::from_nanos(self.drain_grace_ns.load(Ordering::Relaxed))
    }
}

/// Total length of the record starting at `at` in a buffer of whole
/// records.
fn record_len(buf: &[u8], at: usize) -> usize {
    STREAM_PREFIX + u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize
}

/// Total length of the record whose head `buf` starts with, once its
/// whole prefix is there to say.
fn record_size(buf: &[u8]) -> Result<Option<usize>, LinkErr> {
    if buf.len() < STREAM_PREFIX {
        return Ok(None);
    }
    let flen = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if flen > MAX_RECORD {
        return Err(LinkErr::Fatal(format!("record of {flen} bytes announced")));
    }
    Ok(Some(STREAM_PREFIX + flen))
}

/// The transmit half of a stream end: every record handed to the stream
/// that the peer has not confirmed yet, and the write cursor over them.
/// It outlives the socket — after a reconnect the cursor is put back on
/// the oldest record the peer does not hold ([`TxLog::rewind`]).
#[derive(Default)]
struct TxLog {
    /// Unconfirmed bytes, oldest first. Each chunk is one drained
    /// outbox: whole records, never empty.
    chunks: VecDeque<Vec<u8>>,
    /// Offset in `chunks[0]` of the oldest unconfirmed record.
    head: usize,
    /// Records the peer has confirmed; the record at `head` is this one.
    confirmed: u64,
    /// Write cursor: chunk index and byte offset into it
    /// (`cur.0 == chunks.len()` once everything is written).
    cur: (usize, usize),
    /// Start of the record the cursor is in (`== cur.1` on a boundary).
    rec: usize,
    /// Records written in full to the current or an earlier socket.
    written: u64,
}

impl TxLog {
    fn pending(&self) -> bool {
        self.cur.0 < self.chunks.len()
    }

    /// Whether the cursor sits between two records, where a control
    /// record may be spliced into the stream.
    fn at_boundary(&self) -> bool {
        self.cur.1 == self.rec
    }

    fn unwritten(&self) -> &[u8] {
        &self.chunks[self.cur.0][self.cur.1..]
    }

    /// The socket took `k` more bytes.
    fn advance(&mut self, k: usize) {
        self.cur.1 += k;
        let chunk = &self.chunks[self.cur.0];
        loop {
            let end = self.rec + record_len(chunk, self.rec);
            if self.cur.1 < end {
                return;
            }
            self.written += 1;
            if end == chunk.len() {
                self.cur = (self.cur.0 + 1, 0);
                self.rec = 0;
                return;
            }
            self.rec = end;
        }
    }

    /// The peer holds `n` records in total: retire the confirmed prefix,
    /// handing every arena it empties to `pool` for the next sender. A
    /// count outside `confirmed..=written` cannot come from a correct
    /// peer — below it, the records are gone; above it, they were never
    /// sent.
    fn confirm(&mut self, n: u64, pool: &BufferPool) -> Result<(), HandshakeError> {
        if n < self.confirmed || n > self.written {
            return Err(HandshakeError::BadCount);
        }
        while self.confirmed < n {
            let front = &self.chunks[0];
            self.head += record_len(front, self.head);
            self.confirmed += 1;
            if self.head == front.len() {
                // Wholly confirmed means wholly written, so the cursor
                // is already in a later chunk.
                pool.recycle(self.chunks.pop_front().expect("front chunk"));
                self.head = 0;
                self.cur.0 -= 1;
            }
        }
        Ok(())
    }

    /// A fresh socket whose handshake says the peer holds `n` records:
    /// retire those and replay everything after them, ahead of any newer
    /// outbox data.
    fn rewind(&mut self, n: u64, pool: &BufferPool) -> Result<(), HandshakeError> {
        self.confirm(n, pool)?;
        self.cur = (0, self.head);
        self.rec = self.head;
        self.written = self.confirmed;
        Ok(())
    }
}

/// One end of a node pair's stream, driven by whoever holds the pair's
/// lock. Only `stream`, `rbuf` and a half-written control record die
/// with a connection; the delivery state spans outages.
struct End {
    /// The outbox this end transmits.
    idx: usize,
    /// `Some` while the pair is connected.
    stream: Option<TcpStream>,
    tx: TxLog,
    /// The "delivered N" control record being written and the offset
    /// into it (`CTL_LEN`: none pending).
    ctl: [u8; CTL_LEN],
    ctl_at: usize,
    /// The head of the one inbound record a read stopped short of, if
    /// any; whole records are parsed where the read put them.
    rbuf: Vec<u8>,
    /// Reassembles for every rank of this end's node: a message's
    /// fragments all arrive on one end.
    asm: Assembler,
    /// Whole data records this end has delivered to mailboxes.
    delivered: u64,
    /// The delivered count the peer last heard, by control record or
    /// handshake.
    reported: u64,
}

impl End {
    fn fresh(stream: TcpStream, idx: usize, pool: &Arc<BufferPool>) -> Self {
        Self {
            stream: Some(stream),
            ..Self::unconnected(idx, pool)
        }
    }

    fn unconnected(idx: usize, pool: &Arc<BufferPool>) -> Self {
        Self {
            idx,
            stream: None,
            tx: TxLog::default(),
            ctl: [0; CTL_LEN],
            ctl_at: CTL_LEN,
            rbuf: Vec::new(),
            asm: Assembler::with_pool(0, Arc::clone(pool)),
            delivered: 0,
            reported: 0,
        }
    }

    /// Output staged for this end that no socket has taken yet.
    fn has_output(&self, shared: &FabricShared) -> bool {
        self.tx.pending() || shared.dirty[self.idx].load(Ordering::Acquire)
    }

    /// Nothing of this end's is anywhere between a sender and the peer's
    /// mailboxes: no output, no half-read record, and every record it
    /// wrote confirmed — so no byte of it can be in the kernel either.
    fn settled(&self, shared: &FabricShared) -> bool {
        !self.has_output(shared)
            && self.ctl_at == CTL_LEN
            && self.rbuf.is_empty()
            && self.tx.written == self.tx.confirmed
    }

    /// Drop the connection and what cannot outlive it: the stream
    /// restarts at a record boundary in both directions.
    fn disconnect(&mut self) {
        self.stream = None;
        self.rbuf.clear();
        self.ctl_at = CTL_LEN;
    }

    /// Adopt a healed connection whose handshake said the peer holds
    /// `peer_holds` of this end's records (and told the peer our count).
    fn reconnect(
        &mut self,
        stream: TcpStream,
        peer_holds: u64,
        pool: &BufferPool,
    ) -> Result<(), HandshakeError> {
        self.tx.rewind(peer_holds, pool)?;
        self.stream = Some(stream);
        self.reported = self.delivered;
        Ok(())
    }

    /// Take in the bytes one `read` returned. Every record that lies
    /// whole in `bytes` is parsed there; only a record the read stopped
    /// short of is copied, into `rbuf`, and finished by the next call.
    fn ingest(&mut self, mut bytes: &[u8], shared: &FabricShared) -> Result<(), LinkErr> {
        while !self.rbuf.is_empty() {
            let want = record_size(&self.rbuf)?.unwrap_or(STREAM_PREFIX);
            if self.rbuf.len() == want {
                let record = std::mem::take(&mut self.rbuf);
                let taken = self.record(&record, shared);
                self.rbuf = record;
                self.rbuf.clear();
                taken?;
                break;
            }
            let more = (want - self.rbuf.len()).min(bytes.len());
            if more == 0 {
                return Ok(());
            }
            self.rbuf.extend_from_slice(&bytes[..more]);
            bytes = &bytes[more..];
        }
        while let Some(size) = record_size(bytes)?.filter(|&size| size <= bytes.len()) {
            self.record(&bytes[..size], shared)?;
            bytes = &bytes[size..];
        }
        self.rbuf.extend_from_slice(bytes);
        Ok(())
    }

    /// Act on one whole record, prefix included: retire what a control
    /// record confirms, deliver a data record to its rank.
    fn record(&mut self, record: &[u8], shared: &FabricShared) -> Result<(), LinkErr> {
        let dst = u32::from_le_bytes(record[4..STREAM_PREFIX].try_into().expect("4 bytes"));
        let body = &record[STREAM_PREFIX..];
        if dst != CTL_DST {
            self.deliver(dst as usize, body, shared)?;
            self.delivered += 1;
            return Ok(());
        }
        let count: [u8; 8] = body
            .try_into()
            .map_err(|_| LinkErr::Fatal(format!("control record of {} bytes", body.len())))?;
        let count = u64::from_le_bytes(count);
        self.tx.confirm(count, &shared.pool).map_err(|_| {
            LinkErr::Fatal(format!(
                "peer confirmed {count} records, window is {}..={}",
                self.tx.confirmed, self.tx.written
            ))
        })
    }

    /// Fold the frame in `body` into the reassembler on rank `dst`'s
    /// behalf and hand over what it completes.
    fn deliver(&mut self, dst: usize, body: &[u8], shared: &FabricShared) -> Result<(), LinkErr> {
        if dst >= shared.peers.len() {
            return Err(LinkErr::Fatal(format!(
                "frame addressed to unknown rank {dst}"
            )));
        }
        let frame = decode_frame(body).map_err(|e| LinkErr::Fatal(format!("decode: {e}")))?;
        self.asm.rank = dst;
        self.asm
            .accept(frame)
            .map_err(|why| LinkErr::Fatal(format!("frame for rank {dst}: {why}")))?;
        while let Some(m) = self.asm.parked.pop_any() {
            shared.deliver(m);
        }
        Ok(())
    }
}

/// A round-gated socket fault armed on one pair.
enum ArmedKind {
    /// Tear the pair down (TCP RST analogue).
    Reset,
    /// Freeze the pair's I/O for the duration (half-open analogue).
    Stall(Duration),
    /// Tear down now and after each of the next `n` heals.
    Flap(u32),
}

/// Connection state machine for one node pair:
/// connected → reconnecting(backoff) → evicted. Both stream ends live
/// here — the fabric is loopback, so one process owns both sides — but
/// each end learns the other's delivered count only off the wire. Any
/// thread may drive a connected pair's streams; every transition is the
/// reactor's alone.
struct Pair {
    p: usize,
    lo_node: usize,
    hi_node: usize,
    /// `[lo, hi]`: the connecting and the accepting end.
    ends: [End; 2],
    /// Since when the connected pair has had output pending and moved
    /// no byte (half-open detection).
    idle_since: Option<Instant>,
    /// A stream error a helping worker ran into, kept for the reactor.
    fault: Option<LinkErr>,
    /// When the current outage began (backoff dwell accounting).
    down_since: Option<Instant>,
    /// Reconnect attempts made this outage.
    attempts: u32,
    next_attempt: Instant,
    /// Budget exhausted: blackholed, no longer swept.
    dead: bool,
    /// Injected: fail the next N reconnect handshakes.
    hs_drops_left: u32,
    /// Injected: send a malformed handshake on the next N reconnects,
    /// drawn from this seed.
    hs_garbles_left: u32,
    hs_garble_seed: u64,
    /// Injected: tear down again after each of the next N heals.
    flaps_left: u32,
    /// Injected: skip all I/O on the pair until this instant.
    stall_until: Option<Instant>,
    /// Round-gated socket events not yet fired: `(round, kind)`.
    armed: Vec<(u64, ArmedKind)>,
}

impl Pair {
    fn new(p: usize, lo_node: usize, hi_node: usize, ends: [End; 2]) -> Self {
        Self {
            p,
            lo_node,
            hi_node,
            ends,
            idle_since: None,
            fault: None,
            down_since: None,
            attempts: 0,
            next_attempt: Instant::now(),
            dead: false,
            hs_drops_left: 0,
            hs_garbles_left: 0,
            hs_garble_seed: 0,
            flaps_left: 0,
            stall_until: None,
            armed: Vec::new(),
        }
    }

    fn connected(&self) -> bool {
        self.ends[0].stream.is_some()
    }

    /// Connected with no transition due or under way: the state in which
    /// a thread other than the reactor may drive the streams.
    fn at_rest(&self) -> bool {
        self.connected()
            && !self.dead
            && self.fault.is_none()
            && self.stall_until.is_none()
            && self.armed.is_empty()
    }

    /// Both ends settled: a sweep would find nothing to write and
    /// nothing to read, so it is skipped, syscalls and all.
    fn settled(&self, shared: &FabricShared) -> bool {
        self.ends.iter().all(|e| e.settled(shared))
    }

    fn disconnect(&mut self) {
        for end in &mut self.ends {
            end.disconnect();
        }
        self.idle_since = None;
    }

    /// Whether the pair has now sat on pending output without moving a
    /// byte for `limit`. Call only on such a sweep; any progress resets
    /// `idle_since`.
    fn stuck_for(&mut self, limit: Duration) -> bool {
        let now = Instant::now();
        now.duration_since(*self.idle_since.get_or_insert(now)) >= limit
    }

    /// Write/read/parse both connected stream ends. Returns whether any
    /// bytes moved.
    fn sweep(&mut self, shared: &FabricShared, chunk: &mut [u8]) -> Result<bool, LinkErr> {
        let mut moved = false;
        for end in &mut self.ends {
            let mut stream = end.stream.take().expect("swept while connected");
            let swept = end.sweep(&mut stream, shared, chunk);
            end.stream = Some(stream);
            moved |= swept?;
        }
        Ok(moved)
    }
}

/// Why a link sweep stopped early.
#[derive(Debug)]
enum LinkErr {
    /// Stream-level I/O failure (reset, EOF, write error): healable.
    Io(String),
    /// Protocol violation (bad frame, unknown rank, impossible delivered
    /// count): never healable.
    Fatal(String),
}

impl End {
    fn sweep(
        &mut self,
        stream: &mut TcpStream,
        shared: &FabricShared,
        chunk: &mut [u8],
    ) -> Result<bool, LinkErr> {
        // Refill the log from the outbox once everything older is
        // written. The arena goes with the bytes: the log hands it to
        // the pool when the peer confirms them, and the next sender
        // draws one from there.
        if !self.tx.pending() && shared.dirty[self.idx].swap(false, Ordering::AcqRel) {
            let mut outbox = shared.outboxes[self.idx].lock().expect("outbox lock");
            if !outbox.buf.is_empty() {
                shared
                    .arena_hint
                    .fetch_max(outbox.buf.len(), Ordering::Relaxed);
                self.tx.chunks.push_back(std::mem::take(&mut outbox.buf));
            }
            outbox.waiting.drain(..).for_each(|sender| sender.unpark());
        }
        let mut moved = self.flush(stream)?;
        loop {
            match stream.read(chunk) {
                Ok(0) => return Err(LinkErr::Io("stream EOF".into())),
                Ok(k) => {
                    self.ingest(&chunk[..k], shared)?;
                    self.report(ACK_EVERY);
                    moved = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(LinkErr::Io(format!("read: {e}"))),
            }
        }
        // The burst is over: say what it delivered now, so the peer's
        // log retires this round's arenas in time for the next round.
        self.report(1);
        if self.ctl_at < CTL_LEN {
            moved |= self.flush(stream)?;
        }
        Ok(moved)
    }

    /// Queue a "delivered N" control record once `after` records went
    /// unreported (and none is on its way out). In-band fabric framing,
    /// not ARQ traffic: no timer, no retransmission, no `LinkStats`.
    fn report(&mut self, after: u64) -> bool {
        if self.delivered - self.reported < after || self.ctl_at < CTL_LEN {
            return false;
        }
        self.ctl[..4].copy_from_slice(&8u32.to_le_bytes());
        self.ctl[4..8].copy_from_slice(&CTL_DST.to_le_bytes());
        self.ctl[8..].copy_from_slice(&self.delivered.to_le_bytes());
        self.ctl_at = 0;
        self.reported = self.delivered;
        true
    }

    /// Write what the socket takes of the log and of a due control
    /// record. Returns whether it took anything.
    fn flush(&mut self, stream: &mut TcpStream) -> Result<bool, LinkErr> {
        let mut moved = false;
        loop {
            // A control record goes out between two data records, and
            // once begun is finished before anything else.
            let ctl_due = self.ctl_at < CTL_LEN && (self.ctl_at > 0 || self.tx.at_boundary());
            let buf = if ctl_due {
                &self.ctl[self.ctl_at..]
            } else if self.tx.pending() {
                self.tx.unwritten()
            } else {
                return Ok(moved);
            };
            match stream.write(buf) {
                Ok(0) => return Err(LinkErr::Io("stream closed mid-write".into())),
                Ok(k) => {
                    if ctl_due {
                        self.ctl_at += k;
                    } else {
                        self.tx.advance(k);
                    }
                    moved = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(moved),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(LinkErr::Io(format!("write: {e}"))),
            }
        }
    }
}

/// What the reactor thread owns: the lifecycle policy of the pairs.
struct Reactor {
    shared: Arc<FabricShared>,
    /// Kept for reconnects; `None` disables healing.
    listener: Option<(TcpListener, SocketAddr)>,
    heal: bool,
    budget: u32,
    backoff_base: Duration,
    backoff_cap: Duration,
    handshake_timeout: Duration,
    round_clock: Option<Arc<RoundClock>>,
    detector: Option<Arc<FailureDetector>>,
    /// Backoff-jitter RNG state (deterministic seed).
    rng: u64,
    /// Dead-pair count per node: the eviction victim heuristic.
    node_dead: Vec<u32>,
}

impl Reactor {
    /// Jittered exponential backoff after `attempts` failures this
    /// outage: `base·2^(attempts−1)` capped, plus up to 50% jitter.
    fn backoff(&mut self, attempts: u32) -> Duration {
        let exp = attempts.saturating_sub(1).min(20);
        let slice = self
            .backoff_cap
            .min(self.backoff_base.saturating_mul(1u32 << exp.min(16)));
        let jitter_ns = if slice.as_nanos() == 0 {
            0
        } else {
            mix64(&mut self.rng) % (slice.as_nanos() as u64 / 2 + 1)
        };
        slice + Duration::from_nanos(jitter_ns)
    }

    /// The slowest alive rank's completed-round count — the fabric-wide
    /// round used to time injected socket events. Without a round
    /// clock, events fire immediately.
    fn current_round(&self) -> u64 {
        let Some(clock) = &self.round_clock else {
            return u64::MAX;
        };
        (0..self.shared.peers.len())
            .filter(|&r| self.detector.as_ref().is_none_or(|d| !d.is_dead(r)))
            .map(|r| clock.completed(r))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Tear a pair down: drop both sockets (and their partial buffers)
    /// and enter the reconnecting state; the ends keep their delivered
    /// counts and unconfirmed records for the re-handshake. With healing
    /// off the caller fails the fabric instead.
    fn teardown(&mut self, pair: &mut Pair, injected: bool) {
        pair.disconnect();
        pair.down_since = Some(Instant::now());
        pair.attempts = 0;
        pair.next_attempt = Instant::now();
        bump(&self.shared.stats.link_failures, 1);
        if injected {
            bump(&self.shared.stats.injected_resets, 1);
        }
    }

    /// Budget exhausted: kill the pair, pick the victim node (the one
    /// with more dead pairs; ties to the higher id), publish its ranks
    /// to the failure detector, and blackhole every pair touching it —
    /// one pair lock at a time, the exhausted pair's released first.
    fn evict(&mut self, mut pair: MutexGuard<'_, Pair>) {
        let shared = Arc::clone(&self.shared);
        let (lo, hi) = (pair.lo_node, pair.hi_node);
        pair.dead = true;
        shared.pair_dead[pair.p].store(true, Ordering::Relaxed);
        drop(pair);
        bump(&shared.stats.pairs_evicted, 1);
        self.node_dead[lo] += 1;
        self.node_dead[hi] += 1;
        let victim = if self.node_dead[lo] > self.node_dead[hi] {
            lo
        } else {
            hi
        };
        {
            let mut dead = shared.dead_nodes.lock().expect("dead nodes lock");
            if !dead.contains(&victim) {
                dead.push(victim);
            }
        }
        if let Some(detector) = &self.detector {
            let ns = shared.node_size;
            for rank in victim * ns..(victim + 1) * ns {
                detector.mark_dead(rank);
            }
        }
        // Remaining traffic to the victim is pointless: blackhole its
        // other pairs so they stop gating drain and stop reconnecting.
        for other in &shared.pairs {
            let mut other = other.lock().expect("pair lock");
            if !other.dead && (other.lo_node == victim || other.hi_node == victim) {
                other.dead = true;
                other.disconnect();
                shared.pair_dead[other.p].store(true, Ordering::Relaxed);
            }
        }
    }

    /// One reconnect attempt for a downed pair: connect, exchange pair
    /// id and delivered counts over the new socket, rewind each end's
    /// log to what its peer holds. Consumes injected handshake faults
    /// and fires pending flaps. Every failure burns one budget attempt;
    /// returns whether that was the last one.
    fn try_reconnect(&mut self, pair: &mut Pair) -> bool {
        pair.attempts += 1;
        let injected = pair.hs_drops_left > 0 || pair.hs_garbles_left > 0;
        if injected {
            bump(&self.shared.stats.injected_handshake_drops, 1);
        }
        let outcome = if pair.hs_drops_left > 0 {
            pair.hs_drops_left -= 1;
            Err(HandshakeError::Dropped)
        } else {
            let garble = (pair.hs_garbles_left > 0).then(|| {
                pair.hs_garbles_left -= 1;
                Garble::nth(pair.hs_garbles_left, mix64(&mut pair.hs_garble_seed))
            });
            let (listener, addr) = self.listener.as_ref().expect("healing requires listener");
            let delivered = [pair.ends[0].delivered, pair.ends[1].delivered];
            reconnect_handshake(
                listener,
                *addr,
                pair.p,
                delivered,
                self.handshake_timeout,
                garble,
            )
            .and_then(|([lo, hi], heard)| {
                pair.ends[0].reconnect(lo, heard[0], &self.shared.pool)?;
                pair.ends[1].reconnect(hi, heard[1], &self.shared.pool)
            })
        };
        match outcome {
            Ok(()) => {
                let down = pair
                    .down_since
                    .take()
                    .map_or(0, |t| t.elapsed().as_nanos() as u64);
                bump(&self.shared.stats.reconnects, 1);
                bump(&self.shared.stats.backoff_ns, down);
                pair.attempts = 0;
                if pair.flaps_left > 0 {
                    // Flapping link: the heal itself triggers the next
                    // injected reset.
                    pair.flaps_left -= 1;
                    self.teardown(pair, true);
                }
                false
            }
            Err(_) => {
                pair.disconnect();
                bump(&self.shared.stats.reconnect_failures, 1);
                if pair.attempts >= self.budget {
                    return true;
                }
                pair.next_attempt = Instant::now() + self.backoff(pair.attempts);
                false
            }
        }
    }
}

/// Why one reconnect attempt failed. Whatever the peer sent, the answer
/// is one of these and one unit of the pair's budget — never a panic,
/// and nothing is ever sized by a field read off the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HandshakeError {
    /// An injected handshake drop.
    Dropped,
    /// Connecting, accepting or configuring a socket failed.
    Io,
    /// The peer's handshake did not arrive in time.
    TimedOut,
    /// The peer closed before sending a whole handshake.
    Short,
    /// The handshake names a different pair.
    WrongPair,
    /// The delivered count lies outside what this end has confirmed and
    /// written: behind it the records are gone, beyond it they never
    /// existed.
    BadCount,
}

/// An injected malformation of the connecting end's handshake.
#[derive(Debug, Clone, Copy)]
enum Garble {
    /// Fewer than [`HANDSHAKE_LEN`] bytes, then a write-side close.
    Short(u64),
    /// A pair id that is not this pair's.
    WrongPair(u64),
    /// A delivered count beyond anything this fabric could have sent.
    BeyondSent(u64),
    /// [`HANDSHAKE_LEN`] seeded random bytes.
    Random(u64),
}

impl Garble {
    /// The `i`-th malformation of a burst cycles through the kinds; the
    /// bytes come from `seed`.
    fn nth(i: u32, seed: u64) -> Self {
        match i % 4 {
            0 => Self::Short(seed),
            1 => Self::WrongPair(seed),
            2 => Self::BeyondSent(seed),
            _ => Self::Random(seed),
        }
    }
}

fn encode_handshake(pair: u32, delivered: u64) -> [u8; HANDSHAKE_LEN] {
    let mut hs = [0u8; HANDSHAKE_LEN];
    hs[..4].copy_from_slice(&pair.to_le_bytes());
    hs[4..].copy_from_slice(&delivered.to_le_bytes());
    hs
}

/// Read the peer's handshake off `stream` (bounded by `deadline`) and
/// return the delivered count it carries.
fn read_handshake(
    stream: &mut TcpStream,
    pair: u32,
    deadline: Instant,
) -> Result<u64, HandshakeError> {
    let left = deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1));
    stream
        .set_read_timeout(Some(left))
        .map_err(|_| HandshakeError::Io)?;
    let mut hs = [0u8; HANDSHAKE_LEN];
    stream.read_exact(&mut hs).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => HandshakeError::Short,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HandshakeError::TimedOut,
        _ => HandshakeError::Io,
    })?;
    if u32::from_le_bytes(hs[..4].try_into().expect("4 bytes")) != pair {
        return Err(HandshakeError::WrongPair);
    }
    Ok(u64::from_le_bytes(hs[4..].try_into().expect("8 bytes")))
}

/// Connect and re-handshake one healing pair, bounded by `timeout`:
/// each end sends `pair id + its delivered count` over the new socket
/// and reads the other's. Returns the `[lo, hi]` streams and, per end,
/// the count it *heard* — how many of its records the peer holds.
/// Stale backlog connections (abandoned attempts, of this or another
/// pair) are told apart by their source address and discarded.
fn reconnect_handshake(
    listener: &TcpListener,
    addr: SocketAddr,
    p: usize,
    delivered: [u64; 2],
    timeout: Duration,
    garble: Option<Garble>,
) -> Result<([TcpStream; 2], [u64; 2]), HandshakeError> {
    let io = |_: std::io::Error| HandshakeError::Io;
    let deadline = Instant::now() + timeout;
    let pair = p as u32;
    let mut lo = TcpStream::connect(addr).map_err(io)?;
    let lo_addr = lo.local_addr().map_err(io)?;
    let mut hello = encode_handshake(pair, delivered[0]);
    let mut hello_len = HANDSHAKE_LEN;
    match garble {
        None => {}
        Some(Garble::Short(seed)) => hello_len = (seed % HANDSHAKE_LEN as u64) as usize,
        Some(Garble::WrongPair(seed)) => {
            hello = encode_handshake(pair ^ (1 + (seed as u32 >> 1)), delivered[0]);
        }
        Some(Garble::BeyondSent(seed)) => hello = encode_handshake(pair, u64::MAX - seed % 1024),
        Some(Garble::Random(mut seed)) => {
            hello[..8].copy_from_slice(&mix64(&mut seed).to_le_bytes());
            hello[8..].copy_from_slice(&mix64(&mut seed).to_le_bytes()[..4]);
        }
    }
    lo.write_all(&hello[..hello_len]).map_err(io)?;
    if hello_len < HANDSHAKE_LEN {
        lo.shutdown(Shutdown::Write).map_err(io)?;
    }
    let mut hi = loop {
        match listener.accept() {
            Ok((cand, from)) if from == lo_addr => break cand,
            // Somebody else's connection (an abandoned attempt still in
            // the backlog): discard it and keep accepting.
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(HandshakeError::TimedOut);
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(io(e)),
        }
    };
    let hi_heard = read_handshake(&mut hi, pair, deadline)?;
    hi.write_all(&encode_handshake(pair, delivered[1]))
        .map_err(io)?;
    let lo_heard = read_handshake(&mut lo, pair, deadline)?;
    for s in [&lo, &hi] {
        s.set_nodelay(true).map_err(io)?;
        s.set_nonblocking(true).map_err(io)?;
    }
    Ok(([lo, hi], [lo_heard, hi_heard]))
}

/// The reactor: pass over the pairs — fire due faults, run the stall
/// clock, reconnect, and drive whichever connected pair has bytes to
/// move — until a pass moves nothing, then park. Whoever stages output,
/// parks a link error or asks for shutdown unparks it; while a clock is
/// running it wakes every [`TICK`] to look at it.
fn reactor_loop(mut rx: Reactor, shutdown: &AtomicBool) {
    let shared = Arc::clone(&rx.shared);
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut shutdown_seen: Option<Instant> = None;
    loop {
        bump(&shared.stats.reactor_passes, 1);
        let mut moved = false;
        let mut drained = true;
        // A clock is running somewhere: park with a timeout.
        let mut ticking = false;
        let mut cur_round = None;
        for slot in &shared.pairs {
            let mut guard = slot.lock().expect("pair lock");
            let pair = &mut *guard;
            if pair.dead {
                continue; // blackholed: never gates drain
            }
            // Fire round-gated injected socket events.
            if !pair.armed.is_empty() {
                let cur_round = *cur_round.get_or_insert_with(|| rx.current_round());
                let (due, later) = std::mem::take(&mut pair.armed)
                    .into_iter()
                    .partition(|&(round, _)| round <= cur_round);
                pair.armed = later;
                let mut fired_reset = false;
                for (_, kind) in due {
                    match kind {
                        ArmedKind::Reset => fired_reset = true,
                        ArmedKind::Flap(flaps) => {
                            fired_reset = true;
                            pair.flaps_left += flaps;
                        }
                        ArmedKind::Stall(d) => {
                            pair.stall_until = Some(Instant::now() + d);
                            bump(&shared.stats.injected_stalls, 1);
                        }
                    }
                }
                if fired_reset && pair.connected() {
                    rx.teardown(pair, true);
                }
                ticking |= !pair.armed.is_empty();
            }
            // Half-open stall: the link looks alive but moves nothing.
            // Like the real thing it is noticed only by how long output
            // has sat still.
            if let Some(until) = pair.stall_until {
                if Instant::now() < until {
                    ticking = true;
                    if pair.ends.iter().any(|e| e.has_output(&shared)) {
                        drained = false;
                        if pair.connected() && rx.heal && pair.stuck_for(rx.handshake_timeout) {
                            rx.teardown(pair, false);
                        }
                    } else {
                        pair.idle_since = None;
                    }
                    continue;
                }
                pair.stall_until = None;
            }
            if !pair.connected() {
                // Reconnecting: traffic for the pair is parked in its
                // outboxes and logs, so the fabric is not drained.
                if pair.ends.iter().any(|e| e.has_output(&shared)) {
                    drained = false;
                }
                ticking |= rx.heal;
                if rx.heal && Instant::now() >= pair.next_attempt {
                    moved = true;
                    if rx.try_reconnect(pair) {
                        rx.evict(guard);
                    }
                }
                continue;
            }
            let mut failed = pair.fault.take();
            let mut pair_moved = false;
            if failed.is_none() && !pair.settled(&shared) {
                match pair.sweep(&shared, &mut chunk) {
                    Ok(m) => pair_moved = m,
                    Err(e) => failed = Some(e),
                }
            }
            moved |= pair_moved;
            let has_output = pair.ends.iter().any(|e| e.has_output(&shared));
            if failed.is_none() && has_output && !pair_moved {
                // Connected, output pending, and not a byte moved in
                // either direction: a half-open peer. Give it the time
                // a handshake gets, then treat it as a broken stream.
                if pair.stuck_for(rx.handshake_timeout) {
                    failed = Some(LinkErr::Io(format!(
                        "no byte moved for {:?} with output pending",
                        rx.handshake_timeout
                    )));
                }
            } else {
                pair.idle_since = None;
            }
            match failed {
                Some(LinkErr::Fatal(msg)) => {
                    shared.fail(msg);
                    return;
                }
                Some(LinkErr::Io(msg)) => {
                    if rx.heal {
                        rx.teardown(pair, false);
                        drained = false;
                        moved = true;
                    } else if msg == "stream EOF" {
                        // Healing off: peer end torn down, nothing more
                        // will come on this stream (legacy shutdown
                        // race) — not an error.
                    } else {
                        shared.fail(msg);
                        return;
                    }
                }
                None => {
                    if has_output || pair.ends.iter().any(|e| !e.rbuf.is_empty()) {
                        drained = false;
                    }
                    // Bytes or a confirmation still in flight: look
                    // again soon even if nobody says so.
                    ticking |= !pair.settled(&shared);
                }
            }
        }
        if shutdown.load(Ordering::Acquire) {
            let seen = *shutdown_seen.get_or_insert_with(Instant::now);
            if drained || seen.elapsed() > shared.drain_grace() {
                return;
            }
            ticking = true;
        }
        if moved {
            continue;
        }
        // Nothing was ready anywhere. With no clock running the next
        // thing to happen is somebody else's doing, and they will say.
        if ticking {
            std::thread::park_timeout(TICK);
        } else {
            std::thread::park();
        }
    }
}

/// The shared TCP data plane: node-pair loopback streams, per-rank
/// mailboxes, and the reactor thread driving them.
///
/// Dropping the fabric (or calling [`TcpFabric::shutdown`]) flushes
/// outstanding outboxes and joins the reactor.
pub struct TcpFabric {
    shared: Arc<FabricShared>,
    stop: Arc<AtomicBool>,
    reactor: Option<std::thread::JoinHandle<()>>,
}

impl TcpFabric {
    /// Build the fabric for `n` ranks grouped into nodes of `node_size`
    /// and return one [`TcpRankTransport`] per rank.
    ///
    /// # Errors
    ///
    /// [`NetError::App`] when `node_size` does not evenly partition the
    /// ranks, and on socket setup failures.
    pub fn new(n: usize, node_size: usize) -> Result<(Self, Vec<TcpRankTransport>), NetError> {
        Self::with_config(n, node_size, FabricConfig::default())
    }

    /// [`new`](Self::new) with explicit healing / fault-injection /
    /// lifecycle knobs.
    ///
    /// # Errors
    ///
    /// See [`new`](Self::new).
    pub fn with_config(
        n: usize,
        node_size: usize,
        config: FabricConfig,
    ) -> Result<(Self, Vec<TcpRankTransport>), NetError> {
        if n == 0 || node_size == 0 || !n.is_multiple_of(node_size) {
            return Err(NetError::App(format!(
                "node_size {node_size} must evenly partition {n} ranks"
            )));
        }
        let nodes = n / node_size;
        let npairs = nodes * (nodes - 1) / 2;
        fn app(stage: &'static str) -> impl Fn(std::io::Error) -> NetError {
            move |e| NetError::App(format!("{stage}: {e}"))
        }

        let mut senders = Vec::with_capacity(n);
        let mut mailboxes = Vec::with_capacity(n);
        for rank in 0..n {
            let (tx, mb) = Mailbox::new(rank);
            senders.push(tx);
            mailboxes.push(mb);
        }

        // One loopback stream per node pair. Setup is sequential —
        // connect, then accept — with a pair-id handshake so an
        // accepted stream is never mismatched.
        let mut pairs = Vec::with_capacity(npairs);
        let mut keep_listener = None;
        // One pool per fabric: a sender returns a payload once it is
        // framed into an arena, a stream end lands inbound frames in
        // buffers from the same shelves and retires arenas to them.
        let pool = Arc::new(BufferPool::new());
        if npairs > 0 {
            let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(app("tcp bind"))?;
            let addr = listener.local_addr().map_err(app("tcp local_addr"))?;
            let mut p = 0usize;
            for a in 0..nodes {
                for b in (a + 1)..nodes {
                    let mut lo = TcpStream::connect(addr).map_err(app("tcp connect"))?;
                    lo.write_all(&(p as u32).to_le_bytes())
                        .map_err(app("tcp handshake send"))?;
                    let (mut hi, _) = listener.accept().map_err(app("tcp accept"))?;
                    let mut hs = [0u8; 4];
                    hi.read_exact(&mut hs).map_err(app("tcp handshake recv"))?;
                    if u32::from_le_bytes(hs) as usize != p {
                        return Err(NetError::App("tcp handshake pair mismatch".into()));
                    }
                    for s in [&lo, &hi] {
                        s.set_nodelay(true).map_err(app("tcp set_nodelay"))?;
                        s.set_nonblocking(true)
                            .map_err(app("tcp set_nonblocking"))?;
                    }
                    let ends = [
                        End::fresh(lo, 2 * p, &pool),
                        End::fresh(hi, 2 * p + 1, &pool),
                    ];
                    pairs.push(Pair::new(p, a, b, ends));
                    p += 1;
                }
            }
            if config.heal {
                // Reconnects re-handshake through the original
                // listener; nonblocking so the reactor's accept polls.
                listener
                    .set_nonblocking(true)
                    .map_err(app("tcp listener set_nonblocking"))?;
                keep_listener = Some((listener, addr));
            }
        }

        // Arm injected socket-level events: rank pairs map to node
        // pairs (intra-node events are meaningless here and ignored).
        for fault in config.faults.socket_faults() {
            let (SocketFault::Reset { src, dst, .. }
            | SocketFault::HalfOpen { src, dst, .. }
            | SocketFault::Flap { src, dst, .. }
            | SocketFault::HandshakeDrop { src, dst, .. }
            | SocketFault::HandshakeGarble { src, dst, .. }) = *fault;
            let Some(pair) = pair_for(&mut pairs, nodes, node_size, src, dst) else {
                continue;
            };
            match *fault {
                SocketFault::Reset { round, .. } => pair.armed.push((round, ArmedKind::Reset)),
                SocketFault::HalfOpen { round, millis, .. } => {
                    let stall = ArmedKind::Stall(Duration::from_millis(millis));
                    pair.armed.push((round, stall));
                }
                SocketFault::Flap { round, flaps, .. } => {
                    pair.armed.push((round, ArmedKind::Flap(flaps)));
                }
                SocketFault::HandshakeDrop { drops, .. } => pair.hs_drops_left += drops,
                SocketFault::HandshakeGarble { seed, count, .. } => {
                    pair.hs_garbles_left += count;
                    pair.hs_garble_seed ^= seed;
                }
            }
        }

        let shared = Arc::new(FabricShared::new(senders, node_size, pairs, pool, &config));
        let stop = Arc::new(AtomicBool::new(false));
        let reactor = if npairs > 0 {
            let rx = Reactor {
                shared: Arc::clone(&shared),
                listener: keep_listener,
                heal: config.heal,
                budget: config.reconnect_budget.max(1),
                backoff_base: config.backoff_base,
                backoff_cap: config.backoff_cap,
                handshake_timeout: config.handshake_timeout,
                round_clock: config.round_clock,
                detector: config.detector,
                rng: 0x1ceb_00da ^ (n as u64) << 16 ^ nodes as u64,
                node_dead: vec![0; nodes],
            };
            let stop2 = Arc::clone(&stop);
            let handle = std::thread::Builder::new()
                .name("bruck-tcp-reactor".into())
                .spawn(move || reactor_loop(rx, &stop2))
                .map_err(|e| NetError::App(format!("spawn reactor: {e}")))?;
            // Known before the first sender exists: no wake-up is lost.
            let _ = shared.reactor.set(handle.thread().clone());
            Some(handle)
        } else {
            None
        };

        let transports = mailboxes
            .into_iter()
            .enumerate()
            .map(|(rank, mailbox)| TcpRankTransport {
                rank,
                node: rank / node_size,
                mailbox,
                shared: Arc::clone(&shared),
                next_msg_id: 0,
                deadline: Deadline::new(),
            })
            .collect();
        Ok((
            Self {
                shared,
                stop,
                reactor,
            },
            transports,
        ))
    }

    /// OS threads the fabric itself owns (the reactor; `0` for a
    /// single-node fabric with no TCP streams).
    #[must_use]
    pub fn threads(&self) -> usize {
        usize::from(self.reactor.is_some())
    }

    /// First wire error, if the reactor or a sender hit one.
    #[must_use]
    pub fn error(&self) -> Option<String> {
        self.shared.error.lock().expect("fabric error lock").clone()
    }

    /// Connection-lifecycle counters so far (healing, backoff,
    /// injection). Keeps counting until the reactor joins.
    #[must_use]
    pub fn stats(&self) -> FabricStats {
        self.shared.stats.snapshot()
    }

    /// Ranks evicted at the fabric level: every rank of every node
    /// whose pair exhausted its reconnect budget.
    #[must_use]
    pub fn dead_ranks(&self) -> Vec<usize> {
        let nodes = self.shared.dead_nodes.lock().expect("dead nodes lock");
        let ns = self.shared.node_size;
        let mut ranks: Vec<usize> = nodes
            .iter()
            .flat_map(|&node| node * ns..(node + 1) * ns)
            .collect();
        ranks.sort_unstable();
        ranks
    }

    /// Cap the shutdown drain grace before calling
    /// [`shutdown`](Self::shutdown) — e.g. with the ARQ sublayer's
    /// adaptive-RTO linger hint, when one is stacked above. Untouched,
    /// the configured [`FabricConfig::drain_grace`] applies; either way
    /// a drained fabric exits at once.
    pub fn set_drain_grace(&self, grace: Duration) {
        self.shared
            .drain_grace_ns
            .store(grace.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Flush outstanding traffic (bounded by a short grace period) and
    /// join the reactor. Called by `Drop`; explicit form for callers
    /// that want the error.
    pub fn shutdown(mut self) -> Option<String> {
        self.stop_and_join();
        self.error()
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.shared.wake_reactor();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Append `msg` to a stream outbox as one record per fragment — prefix,
/// frame header (`head` with the fragment's index), the fragment's bytes
/// — each written once, where a sweep will hand it to the kernel.
fn stage(outbox: &mut Vec<u8>, msg: &Message, mut head: FrameHeader) {
    for idx in 0..head.frag_count {
        head.frag_idx = idx;
        let chunk = fragment(&msg.payload, idx);
        outbox.extend_from_slice(&((HEADER + chunk.len()) as u32).to_le_bytes());
        outbox.extend_from_slice(&(msg.dst as u32).to_le_bytes());
        encode_header(outbox, &head);
        outbox.extend_from_slice(chunk);
    }
}

/// A rank's connection to the TCP fabric: intra-node sends go straight
/// to the destination mailbox, inter-node sends are framed into the
/// node-pair stream's outbox for the next sweep to flush.
pub struct TcpRankTransport {
    rank: usize,
    node: usize,
    mailbox: Mailbox,
    shared: Arc<FabricShared>,
    next_msg_id: u64,
    /// Completion budget checked while a send waits on a full outbox.
    deadline: Deadline,
}

impl TcpRankTransport {
    /// Share a completion budget: a send held back by outbox
    /// backpressure gives up with [`NetError::DeadlineExceeded`] once it
    /// is spent.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The rank this transport serves.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This rank's simulated node id.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }
}

impl Transport for TcpRankTransport {
    fn send(&mut self, msg: Message) -> Result<(), NetError> {
        let shared = &*self.shared;
        shared.check()?;
        let dst_node = msg.dst / shared.node_size;
        if dst_node == self.node {
            // Intra-node fast path: no serialization, no syscalls.
            shared.deliver(msg);
            return Ok(());
        }
        let head = FrameHeader::first(&msg, self.next_msg_id)?;
        self.next_msg_id += 1;
        let outbox_idx = shared.outbox_for(self.node, dst_node);
        // Backpressure: wait while the outbox is at its high-water mark.
        // A sweep drains it whenever the pair is connected and wakes the
        // waiters, so the wait ends with room, with the pair's death,
        // with the fabric's failure, or with the deadline — never with a
        // dropped frame.
        let mut outbox = loop {
            if shared.pair_dead[outbox_idx / 2].load(Ordering::Relaxed) {
                // Evicted pair: blackhole. The failure detector already
                // carries the node-level verdict; senders must not wedge.
                return Ok(());
            }
            let mut outbox = shared.outboxes[outbox_idx].lock().expect("outbox lock");
            if outbox.buf.len() < shared.outbox_cap {
                break outbox;
            }
            let me = std::thread::current();
            if outbox.waiting.iter().all(|t| t.id() != me.id()) {
                outbox.waiting.push(me);
            }
            drop(outbox);
            shared.check()?;
            self.deadline.check(self.rank)?;
            std::thread::park_timeout(TICK);
        };
        // Room for the records, by size class: a drained outbox draws
        // its arena from the pool (at the size the last one reached), so
        // a round's arenas are the previous round's, already faulted in.
        let arena = &mut outbox.buf;
        let need =
            arena.len() + head.frag_count as usize * (STREAM_PREFIX + HEADER) + msg.payload.len();
        if arena.capacity() == 0 {
            let hint = shared.arena_hint.load(Ordering::Relaxed);
            *arena = shared.pool.acquire_empty(need.max(hint));
        } else if need > arena.capacity() {
            arena.reserve_exact(class_for(need) - arena.len());
        }
        stage(arena, &msg, head);
        drop(outbox);
        // Whoever raises the flag wakes the reactor; while it is up a
        // wake-up is already on its way.
        if !shared.dirty[outbox_idx].swap(true, Ordering::AcqRel) {
            shared.wake_reactor();
        }
        shared.pool.recycle(msg.payload);
        Ok(())
    }

    fn recv_match(
        &mut self,
        from: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        self.mailbox.recv_match(from, tag, timeout)
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        Ok(self.mailbox.recv_any(timeout))
    }

    fn wait_any(&mut self, timeout: Duration) -> Result<(), NetError> {
        self.mailbox.wait_any(timeout);
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn delivery(&self) -> Delivery {
        Delivery::Reliable
    }

    fn purge(&mut self) -> usize {
        self.mailbox.purge()
    }
}

/// What a [`TcpScaleCluster`] run produces.
#[derive(Debug)]
pub struct ScaleOutput {
    /// Per-rank output buffers, indexed by rank.
    pub results: Vec<Vec<u8>>,
    /// Folded communication metrics (per-rank counters + wire stats).
    pub metrics: RunMetrics,
    /// Worker threads the executor used.
    pub workers: usize,
    /// Total OS threads the run held (workers + reactor) — the scaling
    /// claim: `O(workers)`, not `O(n)`.
    pub threads: usize,
    /// Communication rounds each rank executed.
    pub rounds: usize,
}

/// What [`TcpScaleCluster::run_resilient`] produces: the successful
/// attempt's output plus the membership history that got there —
/// the scale-path mirror of
/// [`ResilientOutput`](crate::cluster::ResilientOutput).
#[derive(Debug)]
pub struct ScaleResilientOutput {
    /// Output of the successful attempt; `results[i]` belongs to
    /// original rank `survivors[i]` and is dense over the survivors.
    pub output: ScaleOutput,
    /// Original ranks that participated in the successful attempt,
    /// ascending.
    pub survivors: Vec<usize>,
    /// Attempts used, including the successful one.
    pub attempts: usize,
    /// Ranks that were evicted and later readmitted.
    pub rejoined: Vec<usize>,
    /// Membership view the successful attempt ran under.
    pub view_id: u64,
}

/// One rank, owned by exactly one worker.
struct RankCtx<'a> {
    rank: usize,
    machine: RankMachine<'a, Vec<u8>>,
    transport: Box<dyn Transport>,
    /// When this round's sends went out: its await's patience runs from here.
    since: Instant,
    done: bool,
    metrics: RankMetrics,
}

/// Cross-worker coordination and the settings of one scale run.
struct ScaleShared {
    abort: AtomicBool,
    error: Mutex<Option<NetError>>,
    finished: AtomicUsize,
    workers: usize,
    detector: Arc<FailureDetector>,
    /// Workers pack into the fabric's pool and return every payload they
    /// unpack to it, so one run's rounds reuse each other's buffers.
    fabric: Arc<FabricShared>,
    round_clock: Arc<RoundClock>,
    block: usize,
    /// Per-await patience, and the whole-run expiry with its budget.
    timeout: Duration,
    expiry: Option<(Instant, Duration)>,
    /// Injected wire faults can corrupt a payload: checksum them.
    checksums: bool,
}

impl ScaleShared {
    /// A verdict from below the ranks — a node evicted by the fabric, a
    /// peer declared dead by the ARQ, a fatal wire error — that no
    /// amount of waiting will undo. Two atomic loads when all is well.
    fn check_substrate(&self) -> Result<(), NetError> {
        if self.detector.version() > 0 {
            return Err(NetError::RanksFailed {
                ranks: self.detector.snapshot(),
            });
        }
        self.fabric.check()
    }

    fn fail(&self, e: NetError) {
        let mut slot = self.error.lock().expect("scale error lock");
        if slot.is_none() {
            *slot = Some(e);
        }
        self.abort.store(true, Ordering::SeqCst);
    }
}

/// What one scale attempt produced: the run result, the dense ranks
/// the failure detector declared dead (the resilient driver's eviction
/// input), and the fabric's lifecycle counters — available even when
/// the attempt failed, so resilient runs fold healing work from every
/// attempt.
struct Attempt {
    result: Result<ScaleOutput, NetError>,
    failed: Vec<usize>,
    stats: FabricStats,
}

impl Attempt {
    /// An attempt that ended before the fabric existed.
    fn early(result: Result<ScaleOutput, NetError>) -> Self {
        Self {
            result,
            failed: Vec::new(),
            stats: FabricStats::default(),
        }
    }
}

/// The event-driven executor: interprets lowered [`RankProgram`]s over
/// the TCP fabric with a bounded worker pool instead of a thread per
/// rank.
#[derive(Debug)]
pub struct TcpScaleCluster;

impl TcpScaleCluster {
    /// Run the index plan as an all-to-all over `cfg.n` ranks grouped
    /// by [`ClusterConfig::node_size`], with `inputs[rank]` the `n·b`
    /// send buffer of each rank. Honors `cfg.ports` (lowering width),
    /// `cfg.timeout` (per-await patience), `cfg.deadline` (whole-run
    /// budget), `cfg.reliability` (deliver or one consistent verdict:
    /// on a clean fabric the streams and per-pair replay provide it;
    /// under injected wire faults the ARQ + watchdog are stacked, their
    /// window clamped up to the round count so the executor can never
    /// wedge on its own backpressure), and `cfg.faults` (wire and socket
    /// fault injection).
    ///
    /// # Errors
    ///
    /// [`NetError::App`] on shape mismatches or unlowerable plans;
    /// transport, timeout, deadline, and failure-detector verdicts
    /// propagate.
    pub fn run(
        cfg: &ClusterConfig,
        plan: &IndexPlan,
        block: usize,
        inputs: &[Vec<u8>],
    ) -> Result<ScaleOutput, NetError> {
        Self::run_with_workers(cfg, plan, block, inputs, None)
    }

    /// [`run`](Self::run) with an explicit worker count (defaults to
    /// the host's available parallelism, capped at 8).
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Propagates worker-thread panics.
    pub fn run_with_workers(
        cfg: &ClusterConfig,
        plan: &IndexPlan,
        block: usize,
        inputs: &[Vec<u8>],
        workers: Option<usize>,
    ) -> Result<ScaleOutput, NetError> {
        Self::run_attempt(cfg, plan, block, inputs, workers).result
    }

    /// One full execution over a fresh fabric. Besides the run result,
    /// returns the dense ranks the failure detector declared dead —
    /// the resilient driver's eviction input. When any rank died, the
    /// verdict is always [`NetError::RanksFailed`] over that set, so
    /// every caller (and every seed of a chaos soak) sees the same
    /// cluster-consistent failure, never a rank-local `Timeout`.
    fn run_attempt(
        cfg: &ClusterConfig,
        plan: &IndexPlan,
        block: usize,
        inputs: &[Vec<u8>],
        workers: Option<usize>,
    ) -> Attempt {
        let n = cfg.n;
        if let Err(e) = check_inputs(n, block, inputs) {
            return Attempt::early(Err(e));
        }
        if n == 1 {
            return Attempt::early(Ok(ScaleOutput {
                results: vec![inputs[0].clone()],
                metrics: RunMetrics {
                    per_rank: vec![RankMetrics::default()],
                    ..RunMetrics::default()
                },
                workers: 0,
                threads: 0,
                rounds: 0,
            }));
        }

        let programs: Result<Vec<RankProgram>, NetError> = (0..n)
            .map(|rank| RankProgram::lower(plan, n, rank, block, cfg.ports).map_err(NetError::App))
            .collect();
        let programs = match programs {
            Ok(p) => p,
            Err(e) => return Attempt::early(Err(e)),
        };
        let rounds = programs[0].rounds();

        let node_size = cfg.node_size.unwrap_or(n);
        let detector = Arc::new(FailureDetector::new(n));
        let round_clock = Arc::new(RoundClock::new(n));
        // Asking for reliability means a broken stream must heal, not
        // fail the run; injected socket faults need healing to be
        // observable at all. Either turns it on.
        let fab_cfg = FabricConfig {
            heal: cfg.reliability.is_some() || cfg.faults.has_socket_faults(),
            drain_grace: cfg
                .reliability
                .map_or(DEFAULT_DRAIN_GRACE, |rel| rel.wire.drain_grace),
            faults: Arc::clone(&cfg.faults),
            round_clock: Some(Arc::clone(&round_clock)),
            detector: Some(Arc::clone(&detector)),
            ..FabricConfig::default()
        };
        let (fabric, raw_transports) = match TcpFabric::with_config(n, node_size, fab_cfg) {
            Ok(pair) => pair,
            Err(e) => return Attempt::early(Err(e)),
        };
        let fab_shared = Arc::clone(&fabric.shared);
        let wire_layer = cfg.faults.needs_wire_layer();
        let shared_expiry = cfg.deadline.map(|budget| (Instant::now() + budget, budget));
        // One budget for every rank: the ARQ's blocking loops when it is
        // stacked, the fabric's outbox backpressure when it is not.
        let deadline = Deadline::new();
        if let Some((at, budget)) = shared_expiry {
            deadline.arm_at(at, budget);
        }
        let mut transports = raw_transports.into_iter().enumerate().map(|(rank, t)| {
            let mut t: Box<dyn Transport> = Box::new(t.with_deadline(deadline.clone()));
            if wire_layer {
                t = Box::new(FaultyTransport::new(
                    t,
                    Arc::clone(&cfg.faults),
                    Arc::clone(&round_clock),
                ));
            }
            // The ARQ is for wires that can lose a message. A clean
            // fabric declares a reliable stream and runs bare.
            if let Some(mut rel) = cfg
                .reliability
                .filter(|_| t.delivery() == Delivery::Datagram)
            {
                // The executor posts at most one frame per (src,
                // dst) link per round and pumps acks while it waits,
                // but a window smaller than the lag between workers
                // could fill and block a send against a receiver the
                // same worker owns — a self-deadlock. One frame per
                // round bounds in-flight by the round count, so this
                // clamp makes ARQ backpressure unreachable without
                // changing the protocol.
                rel.wire = rel.wire.with_window(rel.wire.window.max(rounds + 2));
                t = Box::new(
                    ReliableTransport::new(t, rank, n, rel, Arc::clone(&detector))
                        .with_deadline(deadline.clone()),
                );
            }
            // The work buffer is allocated on the caller's heap, which frees
            // it as a result, and faulted in by the worker that sizes it.
            (t, Vec::with_capacity(n * block))
        });

        let want = workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map_or(1, |p| p.get())
                    .min(8)
            })
            .clamp(1, n);
        let per = n.div_ceil(want);
        let shared = ScaleShared {
            abort: AtomicBool::new(false),
            error: Mutex::new(None),
            finished: AtomicUsize::new(0),
            workers: n.div_ceil(per),
            detector: Arc::clone(&detector),
            fabric: Arc::clone(&fab_shared),
            round_clock: Arc::clone(&round_clock),
            block,
            timeout: cfg.timeout,
            expiry: shared_expiry,
            checksums: wire_layer,
        };
        let collected: Vec<ChunkOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .step_by(per)
                .map(|first| {
                    let slice = first..(first + per).min(n);
                    let mine: Vec<_> = transports.by_ref().take(slice.len()).collect();
                    let (programs, inputs) = (&programs[slice.clone()], &inputs[slice]);
                    let shared = &shared;
                    scope.spawn(move || run_chunk(first, mine, programs, inputs, shared))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scale worker panicked"))
                .collect()
        });

        // With the ARQ stacked, its adaptive-RTO linger hint caps the
        // shutdown drain grace, exactly as the thread-per-rank linger
        // does: the configured grace is the ceiling, a confident (small)
        // RTO shrinks it. Bare streams give no hint and keep the
        // configured grace — a hang backstop only, since a drained
        // fabric exits at once.
        let linger = collected.iter().filter_map(|(_, hint)| *hint).max();
        if let Some(hint) = linger {
            fabric.set_drain_grace(hint.min(fab_shared.drain_grace()));
        }
        let reactor_threads = fabric.threads();
        if let Some(wire) = fabric.shutdown() {
            if let Ok(mut slot) = shared.error.lock() {
                if slot.is_none() {
                    *slot = Some(NetError::App(format!("tcp fabric: {wire}")));
                }
            }
        }
        let fabric_stats = fab_shared.stats.snapshot();
        let failed = detector.snapshot();
        let result = if !failed.is_empty() {
            // Cluster-consistent verdict: any detector death
            // (fabric-level eviction, or ARQ retry exhaustion where it
            // is stacked) outranks whichever rank-local error happened
            // to land first.
            Err(NetError::RanksFailed {
                ranks: failed.clone(),
            })
        } else if let Some(e) = shared.error.into_inner().expect("scale error lock") {
            Err(e)
        } else {
            let mut results = vec![Vec::new(); n];
            let mut per_rank = vec![RankMetrics::default(); n];
            for (rank, out, metrics) in collected.into_iter().flat_map(|(ranks, _)| ranks) {
                results[rank] = out;
                per_rank[rank] = metrics;
            }
            Ok(ScaleOutput {
                results,
                metrics: RunMetrics {
                    per_rank,
                    folded: round_clock.folded(),
                    fabric: fabric_stats,
                    pool: fab_shared.pool.stats(),
                    ..RunMetrics::default()
                },
                workers: shared.workers,
                threads: shared.workers + reactor_threads,
                rounds,
            })
        };
        Attempt {
            result,
            failed,
            stats: fabric_stats,
        }
    }

    /// [`run`](Self::run) with the full PR 7 recovery lifecycle:
    /// membership views, node-level eviction, flap-damped quarantine,
    /// and [`RecoveryPolicy`](crate::RecoveryPolicy) steering — over the TCP fabric.
    ///
    /// A failed attempt evicts *whole nodes*: the failure domain of
    /// the shared data plane is the node-pair stream, so every rank of
    /// a node whose ranks died leaves together. That keeps the
    /// survivor count divisible by the node size, so hierarchical
    /// plans re-lower onto the survivor set unchanged; when the
    /// divisibility is ever lost the plan falls back to a single-level
    /// Bruck radix.
    ///
    /// `inputs[rank]` stays indexed by *original* rank; each retry
    /// slices the dense survivor sub-matrix out of it. On success,
    /// `output.results[i]` is survivor `survivors[i]`'s dense result.
    ///
    /// # Errors
    ///
    /// Non-rank failures (timeouts, protocol errors) propagate
    /// immediately; rank failures propagate when attempts are
    /// exhausted, no survivors remain, or
    /// [`RecoveryPolicy::FailFast`](crate::RecoveryPolicy::FailFast) trips its quorum.
    pub fn run_resilient(
        cfg: &ClusterConfig,
        plan: &IndexPlan,
        block: usize,
        inputs: &[Vec<u8>],
        max_attempts: usize,
    ) -> Result<ScaleResilientOutput, NetError> {
        Self::run_resilient_with_workers(cfg, plan, block, inputs, max_attempts, None)
    }

    /// [`run_resilient`](Self::run_resilient) with an explicit worker
    /// count.
    ///
    /// # Errors
    ///
    /// See [`run_resilient`](Self::run_resilient).
    pub fn run_resilient_with_workers(
        cfg: &ClusterConfig,
        plan: &IndexPlan,
        block: usize,
        inputs: &[Vec<u8>],
        max_attempts: usize,
        workers: Option<usize>,
    ) -> Result<ScaleResilientOutput, NetError> {
        let n0 = cfg.n;
        if max_attempts == 0 {
            return Err(NetError::App("max_attempts must be at least 1".into()));
        }
        check_inputs(n0, block, inputs)?;
        let node_size0 = cfg.node_size.unwrap_or(n0);
        let membership = Membership::new(n0).with_base_quarantine(cfg.quarantine);
        let mut fabric_acc = FabricStats::default();
        for attempt in 0..max_attempts {
            // Never empty: `fold_failures` ends the run when a boundary
            // leaves nobody.
            let members = membership.members();
            let n = members.len();
            let node_size = fit_node_size(n, node_size0);
            let plan_fit = fit_plan(plan, n, node_size);
            let mut acfg = cfg.clone();
            acfg.n = n;
            acfg.node_size = Some(node_size);
            acfg.faults = Arc::new(cfg.faults.for_attempt(attempt, &members));
            // Dense survivor inputs: row r of the original all-to-all
            // matrix, restricted to survivor columns.
            let dense_inputs: Vec<Vec<u8>> = members
                .iter()
                .map(|&r| {
                    let mut buf = Vec::with_capacity(n * block);
                    for &c in &members {
                        buf.extend_from_slice(&inputs[r][c * block..(c + 1) * block]);
                    }
                    buf
                })
                .collect();
            let attempt_out = Self::run_attempt(&acfg, &plan_fit, block, &dense_inputs, workers);
            let failed = attempt_out.failed;
            fabric_acc = fabric_acc.merged(&attempt_out.stats);
            match attempt_out.result {
                Ok(mut out) => {
                    out.metrics.fabric = fabric_acc;
                    out.metrics.membership = membership.stats();
                    return Ok(ScaleResilientOutput {
                        output: out,
                        survivors: members,
                        attempts: attempt + 1,
                        rejoined: membership.rejoined_ranks(),
                        view_id: membership.view_id(),
                    });
                }
                Err(cause) => {
                    if !cause.is_rank_failure() || attempt + 1 == max_attempts || failed.is_empty()
                    {
                        return Err(cause);
                    }
                    // Whole-node eviction: expand every failed dense
                    // rank to its full (attempt-local) node, then map
                    // back to original ranks.
                    let mut evicted = BTreeSet::new();
                    for &dense in &failed {
                        if dense >= n {
                            continue;
                        }
                        let node = dense / node_size;
                        evicted.extend(&members[node * node_size..(node + 1) * node_size]);
                    }
                    membership.fold_failures(evicted, cfg.recovery)?;
                }
            }
        }
        unreachable!("loop returns on the last attempt")
    }
}

/// One `n·b` send buffer per rank, or the shape error.
fn check_inputs(n: usize, block: usize, inputs: &[Vec<u8>]) -> Result<(), NetError> {
    let bad = |what| Err(NetError::App(what));
    if inputs.len() != n {
        return bad(format!("{} input buffers for {n} ranks", inputs.len()));
    }
    match inputs.iter().position(|input| input.len() != n * block) {
        Some(rank) => bad(format!(
            "rank {rank}: input is {} bytes, want n·b = {}",
            inputs[rank].len(),
            n * block
        )),
        None => Ok(()),
    }
}

/// The node size a survivor cluster of `n` ranks actually supports:
/// `want` when it still divides `n` (whole-node eviction keeps it so),
/// else the largest divisor of `n` not exceeding `want`.
fn fit_node_size(n: usize, want: usize) -> usize {
    let want = want.clamp(1, n.max(1));
    if n.is_multiple_of(want) {
        return want;
    }
    (1..=want).rev().find(|&d| n.is_multiple_of(d)).unwrap_or(1)
}

/// Re-fit a plan to a survivor cluster: hierarchical plans survive as
/// long as their node size still tiles the cluster with at least two
/// nodes; otherwise fall back to a single-level Bruck radix built from
/// the plan's remote radix. The XOR plans need a power-of-two count and
/// otherwise fall back to their cost-equal twins: the hypercube to
/// radix 2, the pairwise exchange to the direct one.
fn fit_plan(plan: &IndexPlan, n: usize, node_size: usize) -> IndexPlan {
    match plan {
        IndexPlan::Hierarchical {
            node_size: m,
            radix_remote,
            ..
        } => {
            let still_fits = *m == node_size && n.is_multiple_of(*m) && n / *m >= 2;
            if still_fits {
                plan.clone()
            } else {
                IndexPlan::Radix((*radix_remote).max(2))
            }
        }
        IndexPlan::Hypercube if !n.is_power_of_two() => IndexPlan::Radix(2),
        IndexPlan::Pairwise if !n.is_power_of_two() => IndexPlan::Direct,
        other => other.clone(),
    }
}

/// A chunk's yield: each rank's `(rank, output bytes, metrics)` plus
/// the largest reliability-layer linger hint observed across the
/// slice, which caps the fabric's shutdown drain grace.
type ChunkOutput = (Vec<(usize, Vec<u8>, RankMetrics)>, Option<Duration>);

/// One worker's share of a run: the ranks `first..` with their
/// transports and work buffers, programs and inputs. It drives each
/// rank's machine ([`drive_slice`]), then — with the ARQ stacked —
/// lingers pumping so peers elsewhere still get their acks.
fn run_chunk<'a>(
    first: usize,
    transports: Vec<(Box<dyn Transport>, Vec<u8>)>,
    programs: &'a [RankProgram],
    inputs: &'a [Vec<u8>],
    shared: &ScaleShared,
) -> ChunkOutput {
    let slice = (first..).zip(transports).zip(programs.iter().zip(inputs));
    let mut ranks: Vec<RankCtx<'a>> = slice
        .map(|((rank, (transport, mut work)), (program, input))| {
            // Deliveries to this rank wake this thread.
            let _ = shared.fabric.owners[rank].set(std::thread::current());
            work.resize(program.work, 0);
            let machine = RankMachine::new(program, input, work)
                .expect("lowered programs fit their checked inputs");
            RankCtx {
                rank,
                machine,
                transport,
                since: Instant::now(),
                done: false,
                metrics: RankMetrics::default(),
            }
        })
        .collect();
    // Only an ARQ sublayer has a protocol to keep pumping (and a linger
    // hint to show for it, and timers a parked worker must tick for).
    let pumped = ranks.iter().any(|c| c.transport.linger_hint().is_some());
    if let Err(e) = drive_slice(&mut ranks, pumped, shared) {
        shared.fail(e);
    }

    if pumped && !shared.abort.load(Ordering::SeqCst) {
        // Ack drain: interleave short flushes so ranks in this slice
        // answer each other's unacked tails, then linger pumping until
        // every worker is done (a peer elsewhere may still need acks).
        for _ in 0..4 {
            for ctx in &mut ranks {
                let _ = ctx
                    .transport
                    .flush(Instant::now() + Duration::from_millis(2));
            }
        }
        shared.finished.fetch_add(1, Ordering::SeqCst);
        let linger_deadline = Instant::now() + shared.timeout.min(Duration::from_secs(1));
        while shared.finished.load(Ordering::SeqCst) < shared.workers
            && !shared.abort.load(Ordering::SeqCst)
            && Instant::now() < linger_deadline
        {
            for ctx in &mut ranks {
                let _ = ctx.transport.wait_any(Duration::ZERO);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    // The largest linger hint among this chunk's endpoints caps how
    // long the fabric's shutdown drain needs to be.
    let linger = ranks.iter().filter_map(|c| c.transport.linger_hint()).max();
    let ranks = ranks
        .into_iter()
        .map(|mut ctx| {
            ctx.metrics.link = ctx.transport.link_stats();
            (ctx.rank, ctx.machine.into_work(), ctx.metrics)
        })
        .collect();
    (ranks, linger)
}

/// Rounds a rank may run ahead of its slice's slowest live rank. Unbounded,
/// ranks race through several rounds in one pass and all their messages
/// are in flight at once (`tcp_scale` peak RSS +30–50 %). The slowest is
/// never held back and never waits on a held-back rank: no deadlock.
const MAX_LEAD: u64 = 1;

/// Advance every rank of a slice as far as its own deliveries and
/// [`MAX_LEAD`] allow, pass after pass, until all are done or the run is
/// aborted. Ranks not awaiting a receive keep pumping their transport
/// (acks, retransmissions and probes where the ARQ is stacked). After a
/// pass that moved nothing the worker checks the substrate, the deadline
/// and the oldest await's patience, then drives the fabric's streams
/// itself ([`FabricShared::help`]) and parks only when they are quiet too.
fn drive_slice(
    ranks: &mut [RankCtx<'_>],
    pumped: bool,
    shared: &ScaleShared,
) -> Result<(), NetError> {
    let tick = if pumped { TICK / 5 } else { TICK };
    let mut chunk = vec![0u8; READ_CHUNK];
    // Every pass lends it to each machine in turn: one spare buffer per
    // worker, not one per rank.
    let mut spare = vec![0u8; ranks.first().map_or(0, |c| c.machine.buffer().len())];
    while !shared.abort.load(Ordering::SeqCst) {
        let live = ranks.iter().filter(|c| !c.done);
        let Some(slowest) = live.map(|c| c.metrics.rounds()).min() else {
            break;
        };
        let mut progressed = false;
        for ctx in ranks.iter_mut() {
            // A rank that awaits started its round within the lead: the
            // bound only ever holds back the start of a round.
            while !ctx.done && ctx.metrics.rounds() <= slowest + MAX_LEAD {
                if !ctx.advance(&mut spare, shared)? {
                    break;
                }
                progressed = true;
            }
            if pumped && ctx.machine.outstanding().next().is_none() {
                ctx.transport.wait_any(Duration::ZERO)?;
            }
        }
        if progressed {
            continue;
        }
        // The await that began first.
        let awaits = ranks
            .iter()
            .filter_map(|c| Some((c, c.machine.outstanding().next()?)));
        let Some((ctx, (from, tag))) = awaits.min_by_key(|(c, _)| c.since) else {
            continue;
        };
        shared.check_substrate()?;
        let now = Instant::now();
        if let Some((_, budget)) = shared.expiry.filter(|&(at, _)| now >= at) {
            let rank = ctx.rank;
            return Err(NetError::DeadlineExceeded { rank, budget });
        }
        if now >= ctx.since + shared.timeout {
            return Err(NetError::Timeout {
                rank: ctx.rank,
                from,
                tag,
                waited: shared.timeout,
            });
        }
        // Nothing arrived for anyone. Move what bytes there are to move;
        // with none, sleep until a delivery wakes this thread (or the
        // clocks above want another look).
        if !shared.fabric.help(&mut chunk) {
            std::thread::park_timeout(tick);
        }
    }
    Ok(())
}

impl RankCtx<'_> {
    /// Step this rank's machine as far as its own deliveries allow —
    /// local passes, sends, and every awaited message already in its
    /// mailbox — to the end of at most one round. Returns whether it moved.
    fn advance(&mut self, spare: &mut Vec<u8>, shared: &ScaleShared) -> Result<bool, NetError> {
        let pool = &*shared.fabric.pool;
        let bytes = |x: &ProgramXfer| x.span.bytes(shared.block);
        let mut moved = false;
        loop {
            match self.machine.step(spare) {
                Action::Local(copied) => self.metrics.bytes_copied += copied as u64,
                Action::Send(round) => {
                    let started = Instant::now();
                    for s in round.sends {
                        let mut payload = pool.acquire_empty(bytes(s));
                        self.machine.pack(s, &mut payload);
                        self.transport.send(Message {
                            src: self.rank,
                            dst: s.peer,
                            tag: s.tag,
                            checksum: shared.checksums.then(|| payload_checksum(&payload)),
                            payload,
                            arrival: 0.0,
                            seq: 0,
                            ack: 0,
                        })?;
                    }
                    self.since = Instant::now();
                    self.metrics.wall_send_ns += (self.since - started).as_nanos() as u64;
                }
                Action::Await(round) => {
                    // A receive that has landed finds nothing: its
                    // message was taken.
                    for r in round.recvs {
                        let Some(msg) = self.transport.try_match(r.peer, r.tag)? else {
                            continue;
                        };
                        let delivered = self.machine.deliver(r.peer, r.tag, &msg.payload);
                        delivered.map_err(NetError::App)?;
                        self.metrics.bytes_copied += msg.payload.len() as u64;
                        pool.recycle(msg.payload);
                        moved = true;
                    }
                    if self.machine.outstanding().next().is_some() {
                        return Ok(moved);
                    }
                    self.metrics.wall_recv_ns += self.since.elapsed().as_nanos() as u64;
                    let sent = round.sends.iter().map(|s| bytes(s) as u64);
                    let send_max = self.metrics.record_round(sent, round.recvs.len());
                    shared.round_clock.advance(self.rank, send_max);
                    return Ok(true);
                }
                Action::Done => {
                    self.done = true;
                    return Ok(moved);
                }
            }
            moved = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical per-rank all-to-all input: block `j` of rank `i`
    /// is a deterministic function of `(i, j)`.
    fn index_input(rank: usize, n: usize, block: usize) -> Vec<u8> {
        (0..n * block)
            .map(|at| {
                let (j, i) = (at / block, at % block);
                (rank.wrapping_mul(31) ^ j.wrapping_mul(7) ^ i) as u8
            })
            .collect()
    }

    /// After the index operation rank `r` holds block `B[j, r]` at slot
    /// `j` for every `j`.
    fn index_expected(rank: usize, n: usize, block: usize) -> Vec<u8> {
        (0..n * block)
            .map(|at| {
                let (j, i) = (at / block, at % block);
                (j.wrapping_mul(31) ^ rank.wrapping_mul(7) ^ i) as u8
            })
            .collect()
    }

    fn msg_to(src: usize, dst: usize, tag: Tag, payload: Vec<u8>) -> Message {
        Message {
            src,
            dst,
            tag,
            payload,
            arrival: 0.0,
            seq: 0,
            ack: 0,
            checksum: None,
        }
    }

    #[test]
    fn pair_index_is_a_dense_enumeration() {
        let nodes = 5;
        let mut seen = vec![false; nodes * (nodes - 1) / 2];
        for a in 0..nodes {
            for b in (a + 1)..nodes {
                let p = pair_index(nodes, a, b);
                assert!(!seen[p], "pair ({a},{b}) collided at {p}");
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn survivor_plans_are_refit_only_when_they_no_longer_lower() {
        let two_level = IndexPlan::Hierarchical {
            node_size: 4,
            radix_local: 2,
            radix_remote: 3,
        };
        let flat = [
            IndexPlan::Radix(3),
            IndexPlan::Direct,
            IndexPlan::Mixed(vec![2, 3]),
        ];
        let xor = [IndexPlan::Hypercube, IndexPlan::Pairwise];
        for plan in flat.iter().chain(&xor).chain([&two_level]) {
            assert_eq!(fit_plan(plan, 8, 4), *plan, "{}", plan.label());
        }
        // 6 survivors: flat plans still lower, the node size no longer
        // tiles two nodes of 4, and the XOR plans need a power of two.
        for plan in &flat {
            assert_eq!(fit_plan(plan, 6, 4), *plan, "{}", plan.label());
        }
        assert_eq!(fit_plan(&two_level, 6, 4), IndexPlan::Radix(3));
        assert_eq!(fit_plan(&two_level, 4, 4), IndexPlan::Radix(3));
        assert_eq!(fit_plan(&IndexPlan::Hypercube, 6, 4), IndexPlan::Radix(2));
        assert_eq!(fit_plan(&IndexPlan::Pairwise, 6, 4), IndexPlan::Direct);
    }

    #[test]
    fn fabric_routes_intra_and_inter_node() {
        let (fabric, mut ts) = TcpFabric::new(4, 2).unwrap();
        // Intra-node (0 → 1): channel path.
        ts[0].send(msg_to(0, 1, 7, vec![1, 2, 3])).unwrap();
        let m = ts[1].recv_match(0, 7, Duration::from_secs(2)).unwrap();
        assert_eq!(m.payload, vec![1, 2, 3]);
        // Inter-node (0 → 2 and 3 → 1): both stream directions.
        ts[0].send(msg_to(0, 2, 9, vec![4; 10])).unwrap();
        ts[3].send(msg_to(3, 1, 11, vec![5; 10])).unwrap();
        let m = ts[2].recv_match(0, 9, Duration::from_secs(2)).unwrap();
        assert_eq!(m.payload, vec![4; 10]);
        let m = ts[1].recv_match(3, 11, Duration::from_secs(2)).unwrap();
        assert_eq!(m.payload, vec![5; 10]);
        drop(ts);
        assert_eq!(fabric.shutdown(), None);
    }

    #[test]
    fn fabric_fragments_and_reassembles_large_inter_node_messages() {
        let (fabric, mut ts) = TcpFabric::new(2, 1).unwrap();
        let bytes = 3 * FRAG_PAYLOAD + 123;
        let payload: Vec<u8> = (0..bytes).map(|i| (i * 13) as u8).collect();
        ts[0]
            .send(Message {
                src: 0,
                dst: 1,
                tag: 5,
                payload: payload.clone(),
                arrival: 0.25,
                seq: 3,
                ack: 1,
                checksum: None,
            })
            .unwrap();
        let m = ts[1].recv_match(0, 5, Duration::from_secs(5)).unwrap();
        assert_eq!(m.payload, payload);
        assert_eq!((m.arrival, m.seq, m.ack), (0.25, 3, 1));
        drop(ts);
        assert_eq!(fabric.shutdown(), None);
    }

    #[test]
    fn fabric_rejects_non_dividing_node_size() {
        assert!(TcpFabric::new(6, 4).is_err());
    }

    #[test]
    fn only_the_bare_stream_declares_reliable_delivery() {
        let (fabric, mut ts) = TcpFabric::new(2, 1).unwrap();
        let t = ts.pop().unwrap();
        assert_eq!(t.delivery(), Delivery::Reliable);
        // A fault injector can lose what the stream would have kept.
        let faulty = FaultyTransport::new(
            Box::new(t),
            Arc::new(FaultPlan::default()),
            Arc::new(RoundClock::new(2)),
        );
        assert_eq!(faulty.delivery(), Delivery::Datagram);
        drop((faulty, ts));
        assert_eq!(fabric.shutdown(), None);
    }

    /// A chunk of whole records with the given body lengths.
    fn records(bodies: &[usize]) -> Vec<u8> {
        let mut buf = Vec::new();
        for (i, &len) in bodies.iter().enumerate() {
            buf.extend_from_slice(&(len as u32).to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.extend(std::iter::repeat_n(i as u8, len));
        }
        buf
    }

    #[test]
    fn tx_log_replays_a_half_written_record_from_its_boundary() {
        let chunk = records(&[10, 20, 30]);
        let pool = BufferPool::new();
        let mut tx = TxLog::default();
        tx.chunks.push_back(chunk.clone());
        // The socket dies with the second record half written.
        tx.advance(18 + 5);
        assert_eq!(tx.written, 1);
        assert!(tx.pending() && !tx.at_boundary());
        // A peer cannot hold what was never written in full.
        assert_eq!(tx.confirm(2, &pool), Err(HandshakeError::BadCount));
        // The re-handshake says the peer holds one record: the replay
        // starts on the first byte of the second.
        tx.rewind(1, &pool).unwrap();
        assert!(tx.at_boundary());
        assert_eq!(tx.unwritten(), &chunk[18..]);
        assert_eq!((tx.confirmed, tx.written), (1, 1));
        // Newer outbox data queues behind the replay.
        tx.chunks.push_back(records(&[70]));
        tx.advance(28 + 38);
        assert_eq!(tx.written, 3);
        assert_eq!(tx.unwritten(), &records(&[70])[..]);
        tx.advance(78);
        assert!(!tx.pending() && tx.at_boundary());
        // Confirmation retires whole chunks, each arena into the pool: the
        // first with its last record, the second with its only one.
        tx.confirm(3, &pool).unwrap();
        assert_eq!((tx.chunks.len(), pool.stats().recycled), (1, 1));
        tx.confirm(4, &pool).unwrap();
        assert_eq!((tx.chunks.len(), pool.stats().recycled), (0, 2));
        // Records already retired cannot be asked for again.
        assert_eq!(tx.rewind(3, &pool), Err(HandshakeError::BadCount));
        tx.rewind(4, &pool).unwrap();
        assert!(!tx.pending());
    }

    /// A stream end's receive side fed by hand: no socket, the parsed
    /// messages observable in per-rank mailboxes.
    struct Feed {
        end: End,
        shared: FabricShared,
        mailboxes: Vec<Mailbox>,
        /// `tx.confirmed` after each piece fed that moved it: every
        /// `TxLog::confirm` call when the pieces are single bytes.
        confirms: Vec<u64>,
    }

    impl Feed {
        /// `n` receiving ranks; the transmit log holds `sent` written
        /// one-byte records for control records to confirm.
        fn new(n: usize, sent: usize) -> Self {
            let (senders, mailboxes): (Vec<_>, _) = (0..n).map(Mailbox::new).unzip();
            let pool = Arc::new(BufferPool::new());
            let mut end = End::unconnected(0, &pool);
            if sent > 0 {
                end.tx.chunks.push_back(records(&vec![1; sent]));
                end.tx.advance(sent * (STREAM_PREFIX + 1));
            }
            assert_eq!(end.tx.written, sent as u64);
            Self {
                end,
                shared: FabricShared::new(senders, n, Vec::new(), pool, &FabricConfig::default()),
                mailboxes,
                confirms: Vec::new(),
            }
        }

        fn feed(&mut self, bytes: &[u8]) -> Result<(), LinkErr> {
            let out = self.end.ingest(bytes, &self.shared);
            if self.end.tx.confirmed != self.confirms.last().copied().unwrap_or(0) {
                self.confirms.push(self.end.tx.confirmed);
            }
            out
        }

        /// Feed `stream` in pieces of the lengths `cut` yields.
        fn feed_cut(&mut self, stream: &[u8], mut cut: impl FnMut() -> usize) {
            let mut rest = stream;
            while !rest.is_empty() {
                let (piece, tail) = rest.split_at(cut().clamp(1, rest.len()));
                self.feed(piece)
                    .unwrap_or_else(|_| panic!("{} bytes in", stream.len() - rest.len()));
                rest = tail;
            }
        }

        /// What the stream amounted to: per rank the messages in delivery
        /// order, the delivered count, the records confirmed.
        fn outcome(mut self) -> (Vec<Vec<Message>>, u64, u64) {
            assert!(self.end.rbuf.is_empty(), "a whole stream leaves no tail");
            assert_eq!(self.end.asm.parked.len(), 0);
            let got = self
                .mailboxes
                .iter_mut()
                .map(|mb| std::iter::from_fn(|| mb.recv_any(Duration::ZERO)).collect())
                .collect();
            (got, self.end.delivered, self.end.tx.confirmed)
        }
    }

    fn ctl_record(count: u64) -> Vec<u8> {
        let mut rec = Vec::new();
        rec.extend_from_slice(&8u32.to_le_bytes());
        rec.extend_from_slice(&CTL_DST.to_le_bytes());
        rec.extend_from_slice(&count.to_le_bytes());
        rec
    }

    /// A seeded stream of data and control records for 3 ranks, and how
    /// many data records it holds. Payload sizes cover the empty
    /// message, one byte, a header's worth, exactly one fragment, and
    /// multi-fragment messages; fragments of different messages are
    /// never interleaved (one sender stages one message at a time).
    fn seeded_stream(seed: u64) -> (Vec<u8>, u64) {
        let mut rng = seed;
        let sizes = [
            0,
            1,
            HEADER,
            FRAG_PAYLOAD,
            FRAG_PAYLOAD + 1,
            3 * FRAG_PAYLOAD + 4321,
            17,
            2 * FRAG_PAYLOAD,
            0,
            300,
        ];
        let (mut stream, mut data_records, mut confirmed) = (Vec::new(), 0u64, 0u64);
        for (id, &len) in sizes.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|_| mix64(&mut rng) as u8).collect();
            let msg = Message {
                checksum: (id % 2 == 0).then(|| payload_checksum(&payload)),
                arrival: id as f64 * 0.5,
                seq: mix64(&mut rng),
                ..msg_to(id % 5, id % 3, id as Tag, payload)
            };
            let head = FrameHeader::first(&msg, id as u64).unwrap();
            data_records += u64::from(head.frag_count);
            stage(&mut stream, &msg, head);
            if id % 3 == 1 {
                confirmed += 2;
                stream.extend_from_slice(&ctl_record(confirmed));
            }
        }
        (stream, data_records)
    }

    #[test]
    fn stream_parser_is_indifferent_to_where_reads_cut_the_stream() {
        let (stream, data_records) = seeded_stream(0xC0FFEE);
        let mut whole = Feed::new(3, 8);
        whole.feed(&stream).unwrap();
        assert_eq!(whole.confirms, vec![6]);
        let want = whole.outcome();
        assert_eq!(want.0.iter().map(Vec::len).sum::<usize>(), 10);
        assert_eq!((want.1, want.2), (data_records, 6));

        // Byte by byte every control record shows: three confirm calls,
        // in stream order. Coarser cuts can only merge neighbours.
        let in_order = |confirms: &[u64]| {
            confirms.windows(2).all(|w| w[0] < w[1])
                && confirms.iter().all(|c| [2, 4, 6].contains(c))
        };
        for fixed in [1, 7, 4096, READ_CHUNK] {
            let mut cut = Feed::new(3, 8);
            cut.feed_cut(&stream, || fixed);
            if fixed == 1 {
                assert_eq!(cut.confirms, vec![2, 4, 6]);
            }
            assert!(
                in_order(&cut.confirms),
                "cuts of {fixed}: {:?}",
                cut.confirms
            );
            assert!(cut.outcome() == want, "cuts of {fixed}");
        }
        for seed in 0..8u64 {
            let mut rng = seed;
            let mut cut = Feed::new(3, 8);
            cut.feed_cut(&stream, || match mix64(&mut rng) % 4 {
                0 => 1 + (mix64(&mut rng) % 16) as usize,
                1 => (mix64(&mut rng) % 5000) as usize,
                _ => (mix64(&mut rng) % (2 * READ_CHUNK as u64)) as usize,
            });
            assert!(in_order(&cut.confirms), "seed {seed}: {:?}", cut.confirms);
            assert!(cut.outcome() == want, "random cuts, seed {seed}");
        }
    }

    #[test]
    fn burst_end_confirmation_empties_the_peers_log() {
        // End A wrote one arena of three records; end B reads them in
        // one burst.
        let mut arena = Vec::with_capacity(256);
        for id in 0..3u64 {
            let msg = msg_to(1, 0, id, vec![id as u8; 40]);
            stage(&mut arena, &msg, FrameHeader::first(&msg, id).unwrap());
        }
        let mut a = Feed::new(1, 0);
        a.end.tx.chunks.push_back(arena.clone());
        a.end.tx.advance(arena.len());
        assert_eq!((a.end.tx.written, a.end.tx.confirmed), (3, 0));
        let mut b = Feed::new(1, 0);
        b.feed(&arena).unwrap();
        // Inside a burst three records are far from a report; at its end
        // they are one, and nothing more is owed after it.
        assert!(!b.end.report(ACK_EVERY));
        assert!(b.end.report(1) && !b.end.report(1));
        assert_eq!(b.end.ctl, ctl_record(3)[..]);
        // That record retires everything A holds, arena to the pool.
        let ctl = b.end.ctl;
        a.feed(&ctl).unwrap();
        assert!(a.end.tx.chunks.is_empty() && !a.end.tx.pending());
        assert_eq!(a.shared.pool.stats().recycled, 1);
        assert_eq!((a.end.tx.written, a.end.tx.confirmed), (3, 3));
        // The window is now 3..=3: both sides of it are still refused.
        let pool = &a.shared.pool;
        assert_eq!(a.end.tx.confirm(2, pool), Err(HandshakeError::BadCount));
        assert_eq!(a.end.tx.confirm(4, pool), Err(HandshakeError::BadCount));
        assert!(matches!(a.feed(&ctl_record(4)), Err(LinkErr::Fatal(_))));
    }

    #[test]
    fn stream_parser_resumes_a_record_cut_anywhere() {
        // One message of one full fragment between two small ones, so
        // the record under test has neighbours on both sides.
        let mut stream = Vec::new();
        let mut offsets = Vec::new();
        for (id, len) in [(0usize, 5usize), (1, FRAG_PAYLOAD), (2, 9)] {
            offsets.push(stream.len());
            let msg = msg_to(1, 0, id as Tag, vec![id as u8 + 1; len]);
            stage(
                &mut stream,
                &msg,
                FrameHeader::first(&msg, id as u64).unwrap(),
            );
        }
        let (start, next) = (offsets[1], offsets[2]);
        let cases = [
            ("inside the 8-byte prefix", start + 3),
            ("between prefix and header", start + STREAM_PREFIX),
            ("inside the header", start + STREAM_PREFIX + 20),
            ("one byte before the record's end", next - 1),
            ("on the record boundary", next),
        ];
        for (name, cut) in cases {
            let mut feed = Feed::new(1, 0);
            feed.feed(&stream[..cut]).unwrap();
            let whole_before = if cut == next { 2 } else { 1 };
            assert_eq!(feed.end.delivered, whole_before, "{name}");
            assert_eq!(
                feed.end.rbuf.len(),
                cut - offsets[whole_before as usize],
                "{name}"
            );
            feed.feed(&stream[cut..]).unwrap();
            let (got, delivered, _) = feed.outcome();
            assert_eq!(delivered, 3, "{name}");
            let lens: Vec<usize> = got[0].iter().map(Message::len).collect();
            assert_eq!(lens, vec![5, FRAG_PAYLOAD, 9], "{name}");
            assert!(got[0][1].payload.iter().all(|&b| b == 2), "{name}");
        }
    }

    #[test]
    fn oversize_record_is_fatal_even_when_its_prefix_arrives_split() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&(MAX_RECORD as u32 + 1).to_le_bytes());
        bad.extend_from_slice(&0u32.to_le_bytes());
        let fatal = |out: Result<(), LinkErr>| match out {
            Err(LinkErr::Fatal(why)) => assert!(why.contains("bytes announced"), "{why}"),
            _ => panic!("an oversize record must be fatal"),
        };
        let mut feed = Feed::new(1, 0);
        fatal(feed.feed(&bad));
        for cut in 1..STREAM_PREFIX {
            let mut feed = Feed::new(1, 0);
            feed.feed(&bad[..cut]).unwrap();
            fatal(feed.feed(&bad[cut..]));
        }
        // Behind a whole record in the same read, and at the largest
        // legal size just under it.
        let msg = msg_to(0, 0, 1, vec![3; FRAG_PAYLOAD]);
        let mut stream = Vec::new();
        stage(&mut stream, &msg, FrameHeader::first(&msg, 0).unwrap());
        assert_eq!(stream.len(), STREAM_PREFIX + MAX_RECORD);
        stream.extend_from_slice(&bad);
        let mut feed = Feed::new(1, 0);
        fatal(feed.feed(&stream));
        assert_eq!(feed.end.delivered, 1);
    }

    #[test]
    fn malformed_records_fail_the_link_not_the_process() {
        let fatal = |bytes: &[u8], what: &str| {
            let mut feed = Feed::new(2, 4);
            match feed.feed(bytes) {
                Err(LinkErr::Fatal(why)) => assert!(why.contains(what), "{why}"),
                _ => panic!("{what}: must be fatal"),
            }
        };
        let msg = msg_to(0, 1, 1, vec![3; 10]);
        let head = FrameHeader::first(&msg, 0).unwrap();
        let staged = |msg: &Message, head: FrameHeader| {
            let mut stream = Vec::new();
            stage(&mut stream, msg, head);
            stream
        };
        fatal(
            &staged(&msg_to(0, 2, 1, vec![3; 10]), head),
            "unknown rank 2",
        );
        fatal(&records(&[HEADER - 1]), "decode");
        // Fragment index and count lie at bytes 20 and 24 of the header.
        let with_place = |idx: u32, count: u32| {
            let mut rec = staged(&msg, head);
            rec[STREAM_PREFIX + 20..][..4].copy_from_slice(&idx.to_le_bytes());
            rec[STREAM_PREFIX + 24..][..4].copy_from_slice(&count.to_le_bytes());
            rec
        };
        fatal(&with_place(0, 0), "fragment count 0");
        fatal(&with_place(1, 1), "index past");
        // A fragment that claims a terabyte's worth of siblings.
        fatal(&with_place(0x00FF_FFFE, 0x00FF_FFFF), "MAX_MESSAGE");
        fatal(&ctl_record(5), "peer confirmed 5");
        let mut short_ctl = records(&[3]);
        short_ctl[4..STREAM_PREFIX].copy_from_slice(&CTL_DST.to_le_bytes());
        fatal(&short_ctl, "control record of 3 bytes");
    }

    fn handshake(garble: Option<Garble>) -> Result<([TcpStream; 2], [u64; 2]), HandshakeError> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        // A stale connection ahead of ours in the backlog is discarded.
        let _stale = TcpStream::connect(addr).unwrap();
        reconnect_handshake(&listener, addr, 3, [5, 9], Duration::from_secs(2), garble)
    }

    #[test]
    fn handshake_carries_each_delivered_count_to_the_other_end() {
        let (_streams, heard) = handshake(None).unwrap();
        // lo sent 5 and hi sent 9; each *heard* the other's.
        assert_eq!(heard, [9, 5]);
    }

    #[test]
    fn malformed_handshakes_are_structured_errors() {
        for seed in 0..64u64 {
            let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(
                handshake(Some(Garble::Short(seed))).unwrap_err(),
                HandshakeError::Short,
                "seed {seed:#x}"
            );
            assert_eq!(
                handshake(Some(Garble::WrongPair(seed))).unwrap_err(),
                HandshakeError::WrongPair,
                "seed {seed:#x}"
            );
            // Random bytes name another pair (or, one time in 2^32, ours
            // with an absurd count — refused by the log below).
            assert!(handshake(Some(Garble::Random(seed))).is_err());
            // A well-formed handshake with an impossible count passes
            // the codec and is refused by the log it would rewind.
            let ([_lo, hi], heard) = handshake(Some(Garble::BeyondSent(seed))).unwrap();
            let pool = Arc::new(BufferPool::new());
            let mut end = End::fresh(hi, 1, &pool);
            end.tx.chunks.push_back(records(&[4, 4]));
            end.tx.advance(24);
            let healed = end.stream.take().unwrap();
            assert_eq!(
                end.reconnect(healed, heard[1], &pool),
                Err(HandshakeError::BadCount),
                "seed {seed:#x}"
            );
            assert!(end.stream.is_none(), "a refused handshake must not connect");
            assert_eq!(end.tx.written, 2, "a refused count must not move the log");
        }
    }

    #[test]
    fn reset_mid_message_replays_and_delivers_exactly_once() {
        // A multi-megabyte message is dozens of records and far more
        // than the socket buffers hold, so the reset (armed on round 1,
        // released right after the send is staged) lands mid-transfer.
        let clock = Arc::new(RoundClock::new(2));
        let cfg = FabricConfig {
            heal: true,
            faults: Arc::new(FaultPlan::new().with_reconnect_flap(0, 1, 1, 2)),
            round_clock: Some(Arc::clone(&clock)),
            ..FabricConfig::default()
        };
        let (fabric, mut ts) = TcpFabric::with_config(2, 1, cfg).unwrap();
        let big: Vec<u8> = (0..6 * 1024 * 1024)
            .map(|i| (i * 31 + i / 977) as u8)
            .collect();
        ts[0].send(msg_to(0, 1, 5, big.clone())).unwrap();
        ts[1].send(msg_to(1, 0, 6, vec![7; 100])).unwrap();
        clock.advance(0, 0);
        clock.advance(1, 0);
        let m = ts[1].recv_match(0, 5, Duration::from_secs(20)).unwrap();
        assert!(m.payload == big, "replayed message differs");
        let m = ts[0].recv_match(1, 6, Duration::from_secs(20)).unwrap();
        assert_eq!(m.payload, vec![7; 100]);
        // Nothing arrives twice.
        assert!(ts[1].recv_any(Duration::from_millis(20)).unwrap().is_none());
        assert!(ts[0].recv_any(Duration::from_millis(20)).unwrap().is_none());
        let stats = fabric.stats();
        assert_eq!(stats.link_failures, 3, "{stats:?}");
        assert_eq!(stats.reconnects, 3, "{stats:?}");
        drop(ts);
        assert_eq!(fabric.shutdown(), None);
    }

    #[test]
    fn full_outbox_blocks_the_sender_and_sheds_nothing() {
        // Freeze the stream so the outbox fills to its (tiny) mark; the
        // sender must wait the stall out and every message must arrive.
        let cfg = FabricConfig {
            heal: true,
            outbox_cap: 4 * 1024,
            faults: Arc::new(FaultPlan::new().with_half_open(0, 1, 0, Duration::from_millis(60))),
            ..FabricConfig::default()
        };
        let (fabric, mut ts) = TcpFabric::with_config(2, 1, cfg).unwrap();
        let started = Instant::now();
        for i in 0..64u64 {
            ts[0].send(msg_to(0, 1, i, vec![i as u8; 1000])).unwrap();
        }
        assert!(
            started.elapsed() >= Duration::from_millis(30),
            "64 kB went into a 4 kB outbox without waiting"
        );
        for i in 0..64u64 {
            let m = ts[1].recv_match(0, i, Duration::from_secs(10)).unwrap();
            assert_eq!(m.payload, vec![i as u8; 1000]);
        }
        assert_eq!(fabric.stats().outbox_shed_bytes, 0);
        drop(ts);
        assert_eq!(fabric.shutdown(), None);
    }

    #[test]
    fn blocked_sender_honours_the_deadline_and_a_dead_pair() {
        let stalled = |faults: FaultPlan| FabricConfig {
            heal: true,
            outbox_cap: 1024,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_micros(200),
            faults: Arc::new(faults),
            ..FabricConfig::default()
        };
        // A long freeze and a short budget: the wait ends on the budget.
        let cfg = stalled(FaultPlan::new().with_half_open(0, 1, 0, Duration::from_secs(5)));
        let (fabric, mut ts) = TcpFabric::with_config(2, 1, cfg).unwrap();
        let deadline = Deadline::new();
        deadline.arm(Duration::from_millis(40));
        let mut t0 = ts.remove(0).with_deadline(deadline);
        let err = (0..8)
            .find_map(|i| t0.send(msg_to(0, 1, i, vec![0; 1000])).err())
            .expect("a full outbox must block until the deadline");
        assert!(
            matches!(err, NetError::DeadlineExceeded { rank: 0, .. }),
            "{err}"
        );
        drop((t0, ts));
        // The 5 s stall outlives the 1 s drain grace; nothing to assert
        // about what a frozen stream left behind.
        drop(fabric);

        // A pair that dies while the sender waits releases it at once:
        // the send is blackholed, the eviction carries the verdict.
        let detector = Arc::new(FailureDetector::new(2));
        let mut cfg = stalled(
            FaultPlan::new()
                .with_conn_reset(0, 1, 0)
                .with_handshake_drops(0, 1, 64),
        );
        cfg.detector = Some(Arc::clone(&detector));
        let (fabric, mut ts) = TcpFabric::with_config(2, 1, cfg).unwrap();
        for i in 0..8 {
            ts[0].send(msg_to(0, 1, i, vec![0; 1000])).unwrap();
        }
        assert_eq!(fabric.dead_ranks(), vec![1]);
        assert!(detector.is_dead(1));
        drop(ts);
        let _ = fabric.shutdown();
    }

    #[test]
    fn half_open_pair_is_torn_down_by_the_stall_clock_and_heals() {
        // The stream freezes with output pending; after the (shortened)
        // handshake timeout the state machine gives up on it, and once
        // the peer is reachable again the replay delivers the message.
        let cfg = FabricConfig {
            heal: true,
            handshake_timeout: Duration::from_millis(30),
            faults: Arc::new(FaultPlan::new().with_half_open(0, 1, 0, Duration::from_millis(200))),
            ..FabricConfig::default()
        };
        let (fabric, mut ts) = TcpFabric::with_config(2, 1, cfg).unwrap();
        ts[0].send(msg_to(0, 1, 1, vec![9; 64])).unwrap();
        let m = ts[1].recv_match(0, 1, Duration::from_secs(10)).unwrap();
        assert_eq!(m.payload, vec![9; 64]);
        let stats = fabric.stats();
        assert_eq!((stats.link_failures, stats.reconnects), (1, 1), "{stats:?}");
        assert_eq!(stats.injected_resets, 0, "{stats:?}");
        drop(ts);
        assert_eq!(fabric.shutdown(), None);
    }

    #[test]
    fn scale_cluster_matches_the_oracle_across_plans() {
        let block = 3;
        let n = 16;
        let cfg = ClusterConfig::new(n)
            .with_node_size(4)
            .with_reliability(crate::reliable::Reliability::default())
            .with_timeout(Duration::from_secs(20));
        let inputs: Vec<Vec<u8>> = (0..n).map(|r| index_input(r, n, block)).collect();
        for plan in [
            IndexPlan::Radix(2),
            IndexPlan::Radix(4),
            IndexPlan::Mixed(vec![2, 8]),
            IndexPlan::Mixed(vec![3, 2, 3]),
            IndexPlan::Direct,
            IndexPlan::Pairwise,
            IndexPlan::Hypercube,
            IndexPlan::Hierarchical {
                node_size: 4,
                radix_local: 2,
                radix_remote: 2,
            },
        ] {
            let out = TcpScaleCluster::run_with_workers(&cfg, &plan, block, &inputs, Some(3))
                .unwrap_or_else(|e| panic!("{}: {e}", plan.label()));
            for (rank, got) in out.results.iter().enumerate() {
                assert_eq!(
                    got,
                    &index_expected(rank, n, block),
                    "{} rank {rank}",
                    plan.label()
                );
            }
            assert_eq!(out.workers, 3);
            assert!(out.threads <= 4, "O(workers) threads, got {}", out.threads);
            assert_eq!(out.metrics.per_rank.len(), n);
            assert!(out.rounds > 0);
            assert_eq!(
                out.metrics.global_complexity().map(|c| c.c1),
                Some(out.rounds as u64),
                "{}: per-rank round accounting must agree",
                plan.label()
            );
            // The first permute reads the caller's buffers where they
            // lie (`Direct` and `Pairwise` send from them): either way
            // they are the caller's still.
            for (rank, input) in inputs.iter().enumerate() {
                let same = input == &index_input(rank, n, block);
                assert!(same, "{}: rank {rank}'s input was written", plan.label());
            }
        }
    }

    #[test]
    fn scale_cluster_without_reliability_is_still_bit_correct() {
        let block = 2;
        let n = 12;
        let cfg = ClusterConfig::new(n).with_node_size(3);
        let inputs: Vec<Vec<u8>> = (0..n).map(|r| index_input(r, n, block)).collect();
        let out = TcpScaleCluster::run(&cfg, &IndexPlan::Radix(3), block, &inputs).unwrap();
        for (rank, got) in out.results.iter().enumerate() {
            assert_eq!(got, &index_expected(rank, n, block), "rank {rank}");
        }
    }

    #[test]
    fn scale_cluster_rejects_shape_mismatches() {
        let cfg = ClusterConfig::new(4);
        let err = TcpScaleCluster::run(&cfg, &IndexPlan::Radix(2), 2, &[vec![0u8; 8]]).unwrap_err();
        assert!(matches!(err, NetError::App(_)), "{err}");
        let bad = vec![vec![0u8; 7]; 4];
        let err = TcpScaleCluster::run(&cfg, &IndexPlan::Radix(2), 2, &bad).unwrap_err();
        assert!(matches!(err, NetError::App(_)), "{err}");
    }

    #[test]
    fn unlowerable_plan_is_a_clean_error() {
        // Every plan family lowers; what has no program is a plan that
        // does not fit the cluster — here a node size that does not
        // divide n.
        let cfg = ClusterConfig::new(4);
        let inputs = vec![vec![0u8; 8]; 4];
        let plan = IndexPlan::Hierarchical {
            node_size: 3,
            radix_local: 2,
            radix_remote: 2,
        };
        let err = TcpScaleCluster::run(&cfg, &plan, 2, &inputs).unwrap_err();
        assert!(matches!(err, NetError::App(_)), "{err}");
    }

    #[test]
    fn single_rank_short_circuits() {
        let cfg = ClusterConfig::new(1);
        let out = TcpScaleCluster::run(&cfg, &IndexPlan::Direct, 4, &[vec![9u8; 4]]).unwrap();
        assert_eq!(out.results, vec![vec![9u8; 4]]);
        assert_eq!(out.threads, 0);
    }
}

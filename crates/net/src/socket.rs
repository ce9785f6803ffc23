//! Real-I/O transport: Unix datagram sockets (Unix only).
//!
//! Each rank binds one `SOCK_DGRAM` Unix socket in a per-run temporary
//! directory; a message travels as one datagram per [`FRAG_PAYLOAD`]
//! bytes, framed and landed in place in the cluster's pooled buffers
//! ([`crate::frame`]: two user-space copies per byte, three below 4 KiB or
//! over one fragment). Sends run nonblocking and drain the own socket, so
//! two ranks exchanging large messages never deadlock on full buffers.
//!
//! The wire is [`Delivery::Reliable`]: the kernel neither loses, reorders
//! nor damages a datagram, and a send into a full queue waits for room
//! (only a frame an ARQ above resends is ever shed), so a clean run stacks
//! no ARQ. Wall time crosses the kernel (syscalls, copies, scheduler): the
//! closest laptop-scale stand-in for the paper's EUI message layer.

#![cfg(unix)]

use std::os::unix::net::UnixDatagram;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cluster::{Cluster, ClusterConfig, RunOutput};
use crate::endpoint::Endpoint;
use crate::error::NetError;
use crate::frame::{send_framed, Assembler, FrameHeader, HEADER};
use crate::message::{Message, Tag};
use crate::metrics::LinkStats;
use crate::pool::BufferPool;
use crate::reliable::repairs_loss;
use crate::transport::{Delivery, Transport};

/// Max payload bytes per datagram fragment (see
/// [`crate::frame::FRAG_PAYLOAD`] — the framing layer is shared with the
/// TCP stream transport, re-exported here for source compatibility).
pub use crate::frame::FRAG_PAYLOAD;

/// splitmix64 finalizer — the keyed-hash RNG idiom used across the
/// fault layer. Here it seeds backoff jitter without ambient entropy.
fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A rank's Unix-datagram connection to its peers.
pub struct UdsTransport {
    rank: usize,
    sock: UnixDatagram,
    /// The filesystem path this rank's socket is bound to. Unlinked on
    /// drop so a crashed-and-restarted rank never inherits a stale file.
    own_path: PathBuf,
    peer_paths: Vec<PathBuf>,
    /// Where receive buffers come from and sent payloads go: the
    /// cluster's, once [`Transport::use_pool`] hands it over.
    pool: Arc<BufferPool>,
    asm: Assembler,
    next_msg_id: u64,
    /// The next datagram lands here; empty after its buffer was parked
    /// as a payload, until the next receive draws one from the pool.
    recv_buf: Vec<u8>,
    /// Datagrams dropped because they did not decode or broke a fragment
    /// rule (see [`crate::frame`]).
    malformed: u64,
}

impl UdsTransport {
    /// Bind rank `rank`'s socket in `dir` and record the peers' paths.
    ///
    /// Equivalent to [`bind_incarnation`](Self::bind_incarnation) at
    /// incarnation 0 — the path layout matches what every pre-rejoin
    /// run used.
    ///
    /// # Errors
    ///
    /// Bind failures surface as [`NetError::App`].
    pub fn bind(dir: &Path, rank: usize, n: usize) -> Result<Self, NetError> {
        Self::bind_incarnation(dir, rank, n, 0)
    }

    /// Bind rank `rank`'s socket in `dir` for a given `incarnation` and
    /// record the peers' paths (peers are assumed to bind at the *same*
    /// incarnation — the cluster bumps it once per attempt, so a
    /// restarted rank and its sponsors always agree on the layout).
    ///
    /// Two defenses make re-binding after a crash reliable:
    ///
    /// * **Stale-file reclamation.** A Unix datagram socket file is not
    ///   removed when its socket is dropped, so a crashed rank leaves a
    ///   dead `rank-N.sock` behind and a naive rebind fails with
    ///   `AddrInUse`. If the path already exists we unlink it first —
    ///   within one cluster directory a name maps to exactly one live
    ///   rank, so an existing file is by construction stale.
    /// * **Jittered exponential backoff.** If the bind still races (the
    ///   old incarnation's `Drop` unlinking concurrently), we retry a few
    ///   times with exponentially growing, deterministically jittered
    ///   naps rather than failing the whole rejoin on a transient.
    ///
    /// Incarnation 0 uses the classic `rank-N.sock` name; later
    /// incarnations append `.iK` so each restart binds a fresh, unique
    /// path even if the previous file somehow survives.
    ///
    /// # Errors
    ///
    /// Bind failures that persist through the retry budget surface as
    /// [`NetError::App`].
    pub fn bind_incarnation(
        dir: &Path,
        rank: usize,
        n: usize,
        incarnation: u64,
    ) -> Result<Self, NetError> {
        let path = Self::sock_path_inc(dir, rank, incarnation);
        let sock = Self::bind_with_retry(&path, rank)?;
        sock.set_nonblocking(true)
            .map_err(|e| NetError::App(format!("set_nonblocking: {e}")))?;
        let pool = Arc::new(BufferPool::new());
        Ok(Self {
            rank,
            sock,
            own_path: path,
            peer_paths: (0..n)
                .map(|r| Self::sock_path_inc(dir, r, incarnation))
                .collect(),
            asm: Assembler::with_pool(rank, Arc::clone(&pool)),
            pool,
            next_msg_id: 0,
            recv_buf: Vec::new(),
            malformed: 0,
        })
    }

    /// Bind `path`, reclaiming a stale file and retrying transient
    /// `AddrInUse` races with jittered exponential backoff.
    fn bind_with_retry(path: &Path, rank: usize) -> Result<UnixDatagram, NetError> {
        const ATTEMPTS: u32 = 6;
        const BASE_NAP: Duration = Duration::from_micros(200);
        if path.exists() {
            // One live rank per name per directory: an existing file is
            // a previous incarnation's corpse, never a live peer.
            let _ = std::fs::remove_file(path);
        }
        let mut last = None;
        for attempt in 0..ATTEMPTS {
            match UnixDatagram::bind(path) {
                Ok(sock) => return Ok(sock),
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                    let _ = std::fs::remove_file(path);
                    last = Some(e);
                    // Deterministic jitter (keyed splitmix64, same idiom
                    // as the fault layer): decorrelates ranks retrying in
                    // lockstep without ambient entropy.
                    let nap = BASE_NAP * (1 << attempt.min(4));
                    let jitter_ns = splitmix64((rank as u64) << 32 | u64::from(attempt))
                        % (nap.as_nanos() as u64 / 2 + 1);
                    std::thread::sleep(nap + Duration::from_nanos(jitter_ns));
                }
                Err(e) => {
                    return Err(NetError::App(format!("bind {}: {e}", path.display())));
                }
            }
        }
        Err(NetError::App(format!(
            "bind {}: still AddrInUse after {ATTEMPTS} attempts: {}",
            path.display(),
            last.expect("loop recorded an error")
        )))
    }

    #[cfg(test)]
    fn sock_path(dir: &Path, rank: usize) -> PathBuf {
        Self::sock_path_inc(dir, rank, 0)
    }

    /// Socket path for `rank` at `incarnation`. Incarnation 0 keeps the
    /// historical `rank-N.sock` name; restarts get a unique suffix.
    fn sock_path_inc(dir: &Path, rank: usize, incarnation: u64) -> PathBuf {
        if incarnation == 0 {
            dir.join(format!("rank-{rank}.sock"))
        } else {
            dir.join(format!("rank-{rank}.i{incarnation}.sock"))
        }
    }

    /// Read one datagram and fold it into the parked/partial stores. One
    /// that does not decode or breaks a fragment rule is dropped and
    /// counted, its buffer kept for the next: on a datagram wire that is
    /// a loss, which whoever needs the message heals or reports.
    fn recv_frame(&mut self) -> std::io::Result<()> {
        if self.recv_buf.is_empty() {
            self.recv_buf = self.pool.acquire(HEADER + FRAG_PAYLOAD);
        }
        let len = self.sock.recv(&mut self.recv_buf)?;
        if self.asm.accept_datagram(&mut self.recv_buf, len).is_err() {
            self.malformed += 1;
        }
        Ok(())
    }

    /// Pull every datagram currently queued on the socket into the
    /// parked/partial stores. Returns how many frames were consumed.
    fn drain(&mut self) -> Result<usize, NetError> {
        let mut consumed = 0;
        loop {
            match self.recv_frame() {
                Ok(()) => consumed += 1,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(consumed),
                Err(e) => return Err(NetError::App(format!("recv: {e}"))),
            }
        }
    }

    /// Block on the socket until at least one datagram arrives or
    /// `timeout` elapses, then drain everything queued. A kernel
    /// blocking read replaces the old sleep-poll loop: an idle endpoint
    /// parks in `recvfrom` and burns neither CPU nor (above this layer)
    /// retransmission budget. Returns how many frames were consumed.
    fn block_for_frames(&mut self, timeout: Duration) -> Result<usize, NetError> {
        if timeout.is_zero() {
            return self.drain();
        }
        self.sock
            .set_read_timeout(Some(timeout))
            .map_err(|e| NetError::App(format!("set_read_timeout: {e}")))?;
        self.sock
            .set_nonblocking(false)
            .map_err(|e| NetError::App(format!("set_nonblocking: {e}")))?;
        let got = match self.recv_frame() {
            Ok(()) => 1,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                0
            }
            Err(e) => {
                let _ = self.sock.set_nonblocking(true);
                return Err(NetError::App(format!("recv: {e}")));
            }
        };
        self.sock
            .set_nonblocking(true)
            .map_err(|e| NetError::App(format!("set_nonblocking: {e}")))?;
        // Grab whatever else arrived while we were parked.
        Ok(got + self.drain()?)
    }

    /// Hand one frame for rank `dst` to the kernel. `may_shed`: the frame
    /// opens a message an ARQ above resends, so a queue still full after
    /// a park may drop it.
    fn send_frame(&mut self, frame: &[u8], dst: usize, may_shed: bool) -> Result<(), NetError> {
        let mut parked = false;
        loop {
            match self.sock.send_to(frame, &self.peer_paths[dst]) {
                Ok(_) => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // The peer's queue is full: make progress on our own
                    // queue so the system drains, and otherwise park
                    // briefly on the socket (a blocking read, not a
                    // sleep) until something moves. A queue still full
                    // after a park (a stalled peer) sheds a whole frame
                    // the ARQ above resends: a rank parked here answers
                    // no probe and gets evicted.
                    if parked && may_shed {
                        return Ok(());
                    }
                    if self.drain()? == 0 {
                        parked = true;
                        self.block_for_frames(Duration::from_micros(500))?;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::NotFound | std::io::ErrorKind::ConnectionRefused
                    ) =>
                {
                    // Peer already exited: same fire-and-forget semantics
                    // as the channel transport.
                    return Ok(());
                }
                Err(e) => return Err(NetError::App(format!("send_to rank {dst}: {e}"))),
            }
        }
    }
}

impl Drop for UdsTransport {
    fn drop(&mut self) {
        // `UnixDatagram` does not unlink its path on drop; do it here so
        // a rank that dies (panics, is killed by fault injection) leaves
        // no corpse for its next incarnation to trip over.
        let _ = std::fs::remove_file(&self.own_path);
    }
}

impl Transport for UdsTransport {
    fn send(&mut self, msg: Message) -> Result<(), NetError> {
        let head = FrameHeader::first(&msg, self.next_msg_id)?;
        self.next_msg_id += 1;
        let sheddable = repairs_loss(&msg);
        let (dst, mut payload) = (msg.dst, msg.payload);
        let sent = send_framed(&mut payload, head, |idx, frame| {
            self.send_frame(frame, dst, sheddable && idx == 0)
        });
        self.pool.recycle(payload);
        sent
    }

    fn recv_match(
        &mut self,
        from: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(m) = self.asm.parked.take(from, tag) {
                return Ok(m);
            }
            if self.drain()? == 0 {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(NetError::Timeout {
                        rank: self.rank,
                        from,
                        tag,
                        waited: timeout,
                    });
                }
                self.block_for_frames(remaining)?;
            }
        }
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(m) = self.asm.parked.pop_any() {
                return Ok(Some(m));
            }
            if self.drain()? == 0 {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Ok(None);
                }
                if self.block_for_frames(remaining)? == 0 {
                    return Ok(None);
                }
            }
        }
    }

    fn wait_any(&mut self, timeout: Duration) -> Result<(), NetError> {
        // Whatever is already queued on the socket counts as arrived.
        self.drain()?;
        if self.asm.parked.mark_seen() {
            return Ok(());
        }
        self.block_for_frames(timeout)?;
        // What woke us is parked for the scan the caller does next.
        self.asm.parked.mark_seen();
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "uds"
    }

    fn delivery(&self) -> Delivery {
        Delivery::Reliable
    }

    fn use_pool(&mut self, pool: &Arc<BufferPool>) {
        // Handed over before the run: nothing is parked yet.
        self.asm = Assembler::with_pool(self.rank, Arc::clone(pool));
        self.pool = Arc::clone(pool);
    }

    fn purge(&mut self) -> usize {
        // Best-effort: pull whatever is already queued on the socket, then
        // discard every complete and partial message.
        let _ = self.drain();
        self.asm.clear()
    }

    fn link_stats(&self) -> LinkStats {
        LinkStats {
            corrupt_dropped: self.malformed,
            ..LinkStats::default()
        }
    }
}

/// A cluster whose ranks talk over Unix datagram sockets.
#[derive(Debug)]
pub struct SocketCluster;

impl SocketCluster {
    /// A fresh per-run directory for the ranks' socket files.
    fn socket_dir() -> Result<PathBuf, NetError> {
        let dir = std::env::temp_dir().join(format!(
            "bruck-uds-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| NetError::App(format!("mkdir {}: {e}", dir.display())))?;
        Ok(dir)
    }

    /// One transport per rank, bound in `dir` at `incarnation`.
    fn bind_all(
        dir: &Path,
        n: usize,
        incarnation: u64,
    ) -> Result<Vec<Box<dyn Transport>>, NetError> {
        (0..n)
            .map(|rank| UdsTransport::bind_incarnation(dir, rank, n, incarnation))
            .map(|t| t.map(|t| Box::new(t) as Box<dyn Transport>))
            .collect()
    }

    /// Run `body` as an SPMD program with socket transports. Sockets live
    /// in a fresh temporary directory, removed afterwards.
    ///
    /// # Errors
    ///
    /// Socket setup failures and the first rank error.
    pub fn run<T, F>(config: &ClusterConfig, body: F) -> Result<RunOutput<T>, NetError>
    where
        T: Send,
        F: Fn(&mut Endpoint) -> Result<T, NetError> + Sync,
    {
        let dir = Self::socket_dir()?;
        let result = Self::bind_all(&dir, config.n, 0)
            .and_then(|t| Cluster::run_with_transports(config, t, body));
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    /// [`Cluster::run_resilient`] over Unix datagram sockets: shrink on
    /// failure, optionally re-admit healed ranks per
    /// [`ClusterConfig::recovery`](crate::cluster::ClusterConfig), with
    /// each attempt's sockets bound at a fresh *incarnation* (see
    /// [`UdsTransport::bind_incarnation`]) inside one shared temporary
    /// directory. Unique per-incarnation paths plus unlink-on-drop mean
    /// a killed rank's stale socket file can never block its rejoin —
    /// the restarted rank binds `rank-N.iA.sock` for attempt `A` while
    /// the corpse (if any) is reclaimed.
    ///
    /// # Errors
    ///
    /// Socket setup failures, non-rank-failure errors, and rank
    /// failures that survive `max_attempts` (see
    /// [`Cluster::run_resilient`] for the policy semantics).
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts == 0` or a rank's thread panics.
    pub fn run_resilient<T, F>(
        config: &ClusterConfig,
        max_attempts: usize,
        body: F,
    ) -> Result<crate::cluster::ResilientOutput<T>, NetError>
    where
        T: Send,
        F: Fn(&mut Endpoint, &crate::cluster::SurvivorView) -> Result<T, NetError> + Sync,
    {
        let dir = Self::socket_dir()?;
        let result = Cluster::run_resilient_with(
            config,
            max_attempts,
            &mut |n, attempt| Self::bind_all(&dir, n, attempt as u64),
            body,
        );
        let _ = std::fs::remove_dir_all(&dir);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bruck_model::complexity::Complexity;

    #[test]
    fn socket_ring_rotation() {
        let cfg = ClusterConfig::new(5);
        let out = SocketCluster::run(&cfg, |ep| {
            let n = ep.size();
            let right = (ep.rank() + 1) % n;
            let left = (ep.rank() + n - 1) % n;
            let got = ep.send_and_recv(right, &[ep.rank() as u8], left, 0)?;
            Ok(got[0])
        })
        .unwrap();
        assert_eq!(out.results, vec![4, 0, 1, 2, 3]);
        assert_eq!(out.metrics.global_complexity(), Some(Complexity::new(1, 1)));
    }

    #[test]
    fn socket_large_messages_fragment_and_reassemble() {
        // 100 KiB payloads: 7 fragments each, exchanged simultaneously in
        // both directions — exercises the anti-deadlock drain loop.
        let cfg = ClusterConfig::new(2).with_timeout(Duration::from_secs(20));
        let bytes = 100 * 1024;
        let out = SocketCluster::run(&cfg, |ep| {
            let peer = 1 - ep.rank();
            let payload: Vec<u8> = (0..bytes)
                .map(|i| (i as u8).wrapping_add(ep.rank() as u8))
                .collect();
            let got = ep.send_and_recv(peer, &payload, peer, 3)?;
            Ok(got)
        })
        .unwrap();
        for (rank, got) in out.results.iter().enumerate() {
            let expected: Vec<u8> = (0..bytes)
                .map(|i| (i as u8).wrapping_add(1 - rank as u8))
                .collect();
            assert_eq!(got, &expected, "rank {rank}");
        }
    }

    /// The payload lengths where framing in place changes shape: empty,
    /// shorter than a header, around a fragment, a last fragment shorter
    /// than the header the one before it borrows, several fragments.
    const EDGE_LENGTHS: [usize; 8] = [
        0,
        1,
        HEADER - 1,
        FRAG_PAYLOAD - 1,
        FRAG_PAYLOAD,
        FRAG_PAYLOAD + 1,
        FRAG_PAYLOAD + HEADER - 1,
        3 * FRAG_PAYLOAD,
    ];

    fn edge_body(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(13) ^ (i >> 9) as u8 ^ salt)
            .collect()
    }

    #[test]
    fn framing_round_trips_edge_lengths_bit_exact() {
        // Through the cluster (payloads with header room behind them)...
        let cfg = ClusterConfig::new(2).with_timeout(Duration::from_secs(20));
        let out = SocketCluster::run(&cfg, |ep| {
            let peer = 1 - ep.rank();
            for (tag, len) in EDGE_LENGTHS.into_iter().enumerate() {
                let got =
                    ep.send_and_recv(peer, &edge_body(len, ep.rank() as u8), peer, tag as u64)?;
                assert!(got == edge_body(len, peer as u8), "length {len}");
            }
            Ok(())
        });
        out.unwrap();
        // ... and bare, with payloads that have no room to spare.
        let dir = SocketCluster::socket_dir().unwrap();
        let mut a = UdsTransport::bind(&dir, 0, 2).unwrap();
        let mut b = UdsTransport::bind(&dir, 1, 2).unwrap();
        for (tag, len) in EDGE_LENGTHS.into_iter().enumerate() {
            let mut payload = edge_body(len, 7);
            payload.shrink_to_fit();
            a.send(Message {
                src: 0,
                dst: 1,
                tag: tag as u64,
                payload,
                seq: 0,
                ack: 0,
                checksum: None,
            })
            .unwrap();
            let m = b.recv_match(0, tag as u64, Duration::from_secs(5)).unwrap();
            assert!(m.payload == edge_body(len, 7), "bare, length {len}");
        }
        assert_eq!(b.malformed, 0);
        drop((a, b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn framing_in_place_restores_every_borrowed_header_slot() {
        for len in EDGE_LENGTHS {
            for room in [HEADER, 0] {
                let original = edge_body(len, 3);
                let mut payload = Vec::with_capacity(len + room);
                payload.extend_from_slice(&original);
                let capacity = payload.capacity();
                let msg = Message {
                    src: 1,
                    dst: 0,
                    tag: 4,
                    payload: original.clone(),
                    seq: 2,
                    ack: 1,
                    checksum: None,
                };
                let head = FrameHeader::first(&msg, 9).unwrap();
                let mut frames = Vec::new();
                send_framed(&mut payload, head, |idx, frame| {
                    frames.push((idx, frame.to_vec()));
                    Ok::<(), ()>(())
                })
                .unwrap();
                assert!(
                    payload == original,
                    "length {len}, room {room}: payload changed"
                );
                if room == HEADER {
                    assert_eq!(payload.capacity(), capacity, "length {len}: grew");
                }
                // Each frame is the fragment with its header behind it,
                // and they reassemble to the payload.
                let mut asm = Assembler::new(0);
                for (idx, frame) in &frames {
                    let decoded = crate::frame::decode_frame(frame).unwrap();
                    assert_eq!(decoded.head.frag_idx, *idx);
                    assert_eq!(decoded.chunk, crate::frame::fragment(&original, *idx));
                    asm.accept(decoded).unwrap();
                }
                let m = asm.parked.pop_any().expect("a whole message");
                assert!(
                    m.payload == original,
                    "length {len}: reassembled bytes differ"
                );
            }
        }
    }

    #[test]
    fn framing_refused_datagram_is_counted_and_keeps_its_buffer() {
        use crate::frame::encode_header;
        let dir = SocketCluster::socket_dir().unwrap();
        let mut t = UdsTransport::bind(&dir, 0, 2).unwrap();
        let pool = Arc::new(BufferPool::new());
        t.use_pool(&pool);
        let raw = UnixDatagram::unbound().unwrap();
        let frame = |len: usize, frag_idx: u32| {
            let msg = Message {
                src: 1,
                dst: 0,
                tag: 6,
                payload: edge_body(len, 5),
                seq: 0,
                ack: 0,
                checksum: None,
            };
            let head = FrameHeader {
                frag_idx,
                ..FrameHeader::first(&msg, u64::from(frag_idx)).unwrap()
            };
            let mut wire = msg.payload;
            encode_header(&mut wire, &head);
            wire
        };
        let path = t.own_path.clone();
        let send = |wire: &[u8]| raw.send_to(wire, &path).unwrap();
        // A single fragment big enough to land in place, but indexed past
        // its count: refused, counted, and its buffer takes the next one.
        send(&frame(8192, 1));
        assert_eq!(t.drain().unwrap(), 1);
        assert_eq!((t.malformed, t.asm.parked.len()), (1, 0));
        let buffer = t.recv_buf.as_ptr();
        assert_eq!(pool.stats().allocated, 1);
        // The next one does land in place: the payload is that buffer.
        send(&frame(8192, 0));
        assert_eq!(t.drain().unwrap(), 1);
        let m = t.asm.parked.pop_any().expect("parked");
        assert_eq!(m.payload.as_ptr(), buffer);
        assert!(m.payload == edge_body(8192, 5));
        // A small one is copied out; the receive buffer stays.
        pool.recycle(m.payload);
        send(&frame(100, 0));
        t.drain().unwrap();
        let small = t.asm.parked.pop_any().expect("parked");
        assert!(small.payload == edge_body(100, 5));
        assert_ne!(small.payload.as_ptr(), t.recv_buf.as_ptr());
        assert_eq!(t.link_stats().corrupt_dropped, 1);
        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn socket_empty_payload() {
        let cfg = ClusterConfig::new(2);
        let out = SocketCluster::run(&cfg, |ep| {
            let peer = 1 - ep.rank();
            let got = ep.send_and_recv(peer, &[], peer, 1)?;
            Ok(got.len())
        })
        .unwrap();
        assert_eq!(out.results, vec![0, 0]);
    }

    #[test]
    fn socket_timeout_detected() {
        let cfg = ClusterConfig::new(2).with_timeout(Duration::from_millis(80));
        let err = SocketCluster::run(&cfg, |ep| {
            if ep.rank() == 0 {
                ep.round(&[], &[crate::endpoint::RecvSpec { from: 1, tag: 5 }])?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(
            err,
            NetError::Timeout {
                rank: 0,
                from: 1,
                tag: 5,
                ..
            }
        ));
    }

    #[test]
    fn stale_socket_file_is_reclaimed_on_rebind() {
        // Simulate a crashed rank: bind a raw datagram socket, drop the
        // socket but deliberately leave the file behind (UnixDatagram's
        // Drop does not unlink). A fresh bind on the same path must
        // reclaim it instead of failing AddrInUse.
        let dir = std::env::temp_dir().join(format!(
            "bruck-uds-stale-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = UdsTransport::sock_path(&dir, 0);
        let corpse = UnixDatagram::bind(&path).unwrap();
        drop(corpse);
        assert!(path.exists(), "UnixDatagram drop must leave the file");
        let t = UdsTransport::bind(&dir, 0, 2).expect("rebind reclaims the stale file");
        drop(t);
        assert!(!path.exists(), "UdsTransport drop unlinks its own path");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_the_bare_socket_declares_reliable_delivery() {
        use crate::fault::{FaultPlan, FaultyTransport, RoundClock};
        use std::sync::Arc;
        let dir = SocketCluster::socket_dir().unwrap();
        let t = UdsTransport::bind(&dir, 0, 2).unwrap();
        assert_eq!(t.delivery(), Delivery::Reliable);
        // A fault injector can lose what the socket would have kept.
        let faulty = FaultyTransport::new(
            Box::new(t),
            Arc::new(FaultPlan::default()),
            Arc::new(RoundClock::new(2)),
        );
        assert_eq!(faulty.delivery(), Delivery::Datagram);
        drop(faulty);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incarnation_paths_are_unique_per_restart() {
        let dir = Path::new("/tmp/whatever");
        let first = UdsTransport::sock_path_inc(dir, 3, 0);
        let second = UdsTransport::sock_path_inc(dir, 3, 1);
        let third = UdsTransport::sock_path_inc(dir, 3, 2);
        assert_eq!(first, UdsTransport::sock_path(dir, 3));
        assert_ne!(first, second);
        assert_ne!(second, third);
        assert!(second.to_string_lossy().contains("i1"));
    }

    #[test]
    fn socket_cluster_rejoins_after_kill() {
        use crate::fault::FaultPlan;
        use crate::membership::RecoveryPolicy;
        let cfg = ClusterConfig::new(4)
            .with_timeout(Duration::from_secs(5))
            .with_faults(FaultPlan::new().kill_rank_after(2, 0))
            .with_quarantine(Duration::from_millis(2))
            .with_recovery(RecoveryPolicy::WaitForRejoin {
                budget: Duration::from_secs(2),
            });
        let out = SocketCluster::run_resilient(&cfg, 3, |ep, view| {
            let n = ep.size();
            let right = (ep.rank() + 1) % n;
            let left = (ep.rank() + n - 1) % n;
            let got = ep.send_and_recv(right, &[ep.rank() as u8], left, 0)?;
            Ok((got[0], view.view_id))
        })
        .unwrap();
        // The killed rank rejoined: the final attempt ran full-width.
        assert_eq!(out.survivors, vec![0, 1, 2, 3]);
        assert_eq!(out.rejoined, vec![2]);
        assert!(out.attempts >= 2);
        assert_eq!(out.output.metrics.membership.rejoins, 1);
        let view_ids: Vec<u64> = out.output.results.iter().map(|&(_, v)| v).collect();
        assert!(view_ids.windows(2).all(|w| w[0] == w[1]));
    }
}

//! Real-I/O transport: Unix datagram sockets (Unix only).
//!
//! Each rank binds one `SOCK_DGRAM` Unix socket in a per-run temporary
//! directory; messages travel as framed datagrams (header + payload),
//! fragmented at [`FRAG_PAYLOAD`] bytes so arbitrarily large blocks fit
//! under the kernel's datagram ceiling. Sends run nonblocking and
//! interleave with draining the own socket, so two ranks exchanging
//! large messages never deadlock on full kernel buffers.
//!
//! The wire is [`Delivery::Reliable`]: the kernel neither loses, reorders
//! nor damages a datagram, and a send into a full queue waits for room
//! (only a frame an ARQ above resends is ever shed), so a clean run stacks
//! no ARQ. Wall time crosses the kernel (syscalls, copies, scheduler): the
//! closest laptop-scale stand-in for the paper's EUI message layer.

#![cfg(unix)]

use std::os::unix::net::UnixDatagram;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::cluster::{Cluster, ClusterConfig, RunOutput};
use crate::endpoint::Endpoint;
use crate::error::NetError;
use crate::frame::{decode_frame, encode_header, fragment, Assembler, FrameHeader, HEADER};
use crate::message::{Message, Tag};
use crate::metrics::LinkStats;
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
    asm: Assembler,
    next_msg_id: u64,
    recv_buf: Vec<u8>,
    /// Reusable outbound frame buffer: one allocation serves every send.
    send_buf: Vec<u8>,
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
        Ok(Self {
            rank,
            sock,
            own_path: path,
            peer_paths: (0..n)
                .map(|r| Self::sock_path_inc(dir, r, incarnation))
                .collect(),
            asm: Assembler::new(rank),
            next_msg_id: 0,
            recv_buf: vec![0u8; HEADER + FRAG_PAYLOAD],
            send_buf: Vec::with_capacity(HEADER + FRAG_PAYLOAD),
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

    /// Fold the datagram in `recv_buf[..len]` into the parked/partial
    /// stores. One that does not decode or breaks a fragment rule is
    /// dropped and counted: on a datagram wire that is a loss, which
    /// whoever needs the message heals or reports.
    fn ingest(&mut self, len: usize) {
        let folded =
            decode_frame(&self.recv_buf[..len]).is_ok_and(|frame| self.asm.accept(frame).is_ok());
        if !folded {
            self.malformed += 1;
        }
    }

    /// Pull every datagram currently queued on the socket into the
    /// parked/partial stores. Returns how many frames were consumed.
    fn drain(&mut self) -> Result<usize, NetError> {
        let mut consumed = 0;
        loop {
            match self.sock.recv(&mut self.recv_buf) {
                Ok(len) => {
                    consumed += 1;
                    self.ingest(len);
                }
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
        let got = match self.sock.recv(&mut self.recv_buf) {
            Ok(len) => {
                self.ingest(len);
                1
            }
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
        let mut head = FrameHeader::first(&msg, self.next_msg_id)?;
        self.next_msg_id += 1;
        for idx in 0..head.frag_count {
            head.frag_idx = idx;
            let mut frame = std::mem::take(&mut self.send_buf);
            frame.clear();
            encode_header(&mut frame, &head);
            frame.extend_from_slice(fragment(&msg.payload, idx));
            let mut parked = false;
            let sent = loop {
                match self.sock.send_to(&frame, &self.peer_paths[msg.dst]) {
                    Ok(_) => break Ok(()),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        // The peer's queue is full: make progress on our
                        // own queue so the system drains, and otherwise
                        // park briefly on the socket (a blocking read,
                        // not a sleep) until something moves. A queue
                        // still full after a park (a stalled peer) sheds
                        // a whole frame the ARQ above resends: a rank
                        // parked here answers no probe and gets evicted.
                        if parked && idx == 0 && repairs_loss(&msg) {
                            break Ok(());
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
                        // Peer already exited: same fire-and-forget
                        // semantics as the channel transport.
                        break Ok(());
                    }
                    Err(e) => break Err(NetError::App(format!("send_to rank {}: {e}", msg.dst))),
                }
            };
            self.send_buf = frame;
            sent?;
        }
        Ok(())
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

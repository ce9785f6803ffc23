//! Hardware ceilings, measured with no library code: raw memcpy, raw
//! loopback TCP, raw Unix datagrams, raw `mpsc`. They are the denominator
//! of every `pct_of_ceiling`; they move nothing.
//!
//! All sockets are on the host's loopback interface; no real link is
//! crossed anywhere in this benchmark.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixDatagram;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::stats::median;

/// No probe may hang: every blocking socket call gives up after this.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Each memcpy buffer. The box reports a 260 MiB shared L3, so this is
/// "memcpy at 256 MiB" (two buffers, 512 MiB touched), not a DRAM figure.
pub const MEMCPY_BYTES: usize = 256 << 20;
const STREAM_BYTES: usize = 64 << 20;
const STREAM_CHUNK: usize = 64 << 10;
const PING_BYTES: usize = 64;
const PINGS: usize = 2000;

#[derive(Debug, Clone, Copy, Default)]
pub struct Ceilings {
    pub memcpy_gbps: f64,
    pub tcp_mbps: f64,
    pub tcp_rtt_us: f64,
    pub uds_mbps: f64,
    pub uds_rtt_us: f64,
    pub channel_rtt_us: f64,
}

pub fn memcpy_gbps() -> f64 {
    let src = vec![0x5Au8; MEMCPY_BYTES];
    let mut dst = vec![0u8; MEMCPY_BYTES];
    dst.copy_from_slice(&src); // fault the pages in
    let rates: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            MEMCPY_BYTES as f64 / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

/// Median round-trip of `PINGS` ping-pongs driven through `ping`.
fn rtt_us(mut ping: impl FnMut() -> std::io::Result<()>) -> std::io::Result<f64> {
    for _ in 0..50 {
        ping()?;
    }
    let mut samples = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t0 = Instant::now();
        ping()?;
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&samples))
}

/// `(one-way MB/s, 64 B round-trip µs)` over one loopback TCP stream.
pub fn tcp_loopback() -> std::io::Result<(f64, f64)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let peer = scope.spawn(move || -> std::io::Result<()> {
            // Bounded accept: the connecting side may have failed.
            listener.set_nonblocking(true)?;
            let give_up = Instant::now() + IO_TIMEOUT;
            let mut s = loop {
                match listener.accept() {
                    Ok((s, _)) => break s,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if Instant::now() > give_up {
                            return Err(e);
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(e),
                }
            };
            s.set_nonblocking(false)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            // Echo pings until the 1-byte switch marker, then sink the stream.
            let mut ping = [0u8; PING_BYTES];
            loop {
                s.read_exact(&mut ping[..1])?;
                if ping[0] == 0xFF {
                    break;
                }
                s.read_exact(&mut ping[1..])?;
                s.write_all(&ping)?;
            }
            let mut chunk = vec![0u8; STREAM_CHUNK];
            let mut left = STREAM_BYTES;
            while left > 0 {
                let got = s.read(&mut chunk)?;
                if got == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                left -= got.min(left);
            }
            s.write_all(&[1])
        });
        let run = || -> std::io::Result<(f64, f64)> {
            let mut s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            let mut ping = [0u8; PING_BYTES];
            let rtt = rtt_us(|| {
                s.write_all(&ping)?;
                s.read_exact(&mut ping)
            })?;
            s.write_all(&[0xFF])?;
            let chunk = vec![0x5Au8; STREAM_CHUNK];
            let t0 = Instant::now();
            for _ in 0..STREAM_BYTES / STREAM_CHUNK {
                s.write_all(&chunk)?;
            }
            s.read_exact(&mut ping[..1])?; // receiver has every byte
            let mbps = STREAM_BYTES as f64 / t0.elapsed().as_secs_f64() / 1e6;
            Ok((mbps, rtt))
        };
        let out = run();
        let peer = peer.join().expect("tcp ceiling peer panicked");
        out.and_then(|v| peer.map(|()| v))
    })
}

/// `(one-way MB/s, 64 B round-trip µs)` over one Unix datagram pair.
pub fn uds_dgram() -> std::io::Result<(f64, f64)> {
    let (a, b) = UnixDatagram::pair()?;
    for s in [&a, &b] {
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.set_write_timeout(Some(IO_TIMEOUT))?;
    }
    std::thread::scope(|scope| {
        let peer = scope.spawn(move || -> std::io::Result<()> {
            let mut buf = vec![0u8; STREAM_CHUNK];
            loop {
                let got = b.recv(&mut buf)?;
                if got == 1 {
                    break;
                }
                b.send(&buf[..got])?;
            }
            let mut left = STREAM_BYTES;
            while left > 0 {
                left -= b.recv(&mut buf)?.min(left);
            }
            b.send(&[1]).map(|_| ())
        });
        let run = || -> std::io::Result<(f64, f64)> {
            let mut ping = [0u8; PING_BYTES];
            let rtt = rtt_us(|| {
                a.send(&ping)?;
                a.recv(&mut ping).map(|_| ())
            })?;
            a.send(&[0xFF])?;
            let chunk = vec![0x5Au8; STREAM_CHUNK];
            let t0 = Instant::now();
            for _ in 0..STREAM_BYTES / STREAM_CHUNK {
                a.send(&chunk)?;
            }
            a.recv(&mut ping)?;
            let mbps = STREAM_BYTES as f64 / t0.elapsed().as_secs_f64() / 1e6;
            Ok((mbps, rtt))
        };
        let out = run();
        let peer = peer.join().expect("uds ceiling peer panicked");
        out.and_then(|v| peer.map(|()| v))
    })
}

/// 64 B round-trip between two threads over `std::sync::mpsc`.
pub fn channel_rtt_us() -> f64 {
    let (to_peer, peer_rx) = mpsc::channel::<Vec<u8>>();
    let (to_me, my_rx) = mpsc::channel::<Vec<u8>>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for msg in peer_rx {
                if to_me.send(msg).is_err() {
                    break;
                }
            }
        });
        let mut msg = vec![0u8; PING_BYTES];
        let rtt = rtt_us(|| {
            to_peer
                .send(std::mem::take(&mut msg))
                .map_err(|_| std::io::ErrorKind::BrokenPipe)?;
            msg = my_rx.recv().map_err(|_| std::io::ErrorKind::BrokenPipe)?;
            Ok(())
        });
        drop(to_peer);
        rtt.unwrap_or(f64::NAN)
    })
}

/// `(best MB/s, median round-trip µs)` of three tries. Where the two
/// threads of a probe land decides what it reads: a stream is fastest
/// with one core each, and that best is the box's ceiling; a ping-pong
/// reads ~3 µs when both happen to share a core and ~40 µs across cores
/// on this VM, and across cores is what two ranks working in parallel
/// pay, so the round trip is the median. A probe the host refuses reads
/// NaN (reported as null); it never aborts the run.
fn three_tries(probe: impl Fn() -> std::io::Result<(f64, f64)>) -> (f64, f64) {
    let tries: Vec<(f64, f64)> = (0..3).filter_map(|_| probe().ok()).collect();
    let rtts: Vec<f64> = tries.iter().map(|t| t.1).collect();
    (
        tries.iter().map(|t| t.0).fold(f64::NAN, f64::max),
        median(&rtts),
    )
}

pub fn measure() -> Ceilings {
    let (tcp_mbps, tcp_rtt_us) = three_tries(tcp_loopback);
    let (uds_mbps, uds_rtt_us) = three_tries(uds_dgram);
    let channel_rtts: Vec<f64> = (0..3).map(|_| channel_rtt_us()).collect();
    Ceilings {
        memcpy_gbps: memcpy_gbps(),
        tcp_mbps,
        tcp_rtt_us,
        uds_mbps,
        uds_rtt_us,
        channel_rtt_us: median(&channel_rtts),
    }
}

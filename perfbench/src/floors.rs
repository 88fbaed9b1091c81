//! Hardware floors measured in the same run as the layers they bound:
//! memcpy bandwidth past the last-level cache, a raw Unix datagram
//! blast and a raw loopback TCP blast. All run on the calling thread.

use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixDatagram;
use std::time::{Duration, Instant};

/// Largest memcpy buffer: the machine's memory is shared, so the sweep
/// stops here even when four times the reported LLC is larger.
pub const MEMCPY_CAP: usize = 256 << 20;

/// Fallback when the LLC size cannot be read.
const DEFAULT_LLC: usize = 32 << 20;

/// Message size of the socket blasts: one full UDS fragment.
const BLAST_MSG: usize = 64 * 1024;

/// Size of the last-level cache in bytes, read from sysfs; `None` when
/// it cannot be read.
pub fn llc_bytes() -> Option<usize> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, usize)> = None;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1 << 10),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (size, 1),
            },
        };
        let Ok(v) = digits.parse::<usize>() else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, v * scale));
        }
    }
    best.map(|(_, size)| size)
}

/// The memcpy buffer size: four times the LLC, capped at
/// [`MEMCPY_CAP`]. Returns `(buffer_bytes, llc_bytes)`.
pub fn memcpy_sizes() -> (usize, usize) {
    let llc = llc_bytes().unwrap_or(DEFAULT_LLC);
    ((4 * llc).min(MEMCPY_CAP), llc)
}

/// memcpy GB/s: copy one half of a `buffer`-byte allocation onto the
/// other, best of a few sweeps.
pub fn memcpy_gbps(buffer: usize) -> f64 {
    let half = buffer / 2;
    let mut buf = vec![1u8; buffer];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let (a, b) = buf.split_at_mut(half);
        let t0 = Instant::now();
        b.copy_from_slice(black_box(a));
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(&buf);
    }
    half as f64 / best / 1e9
}

/// MB/s of 64 KiB datagrams through a socket pair, one thread sending
/// until the kernel queue is full and then draining it.
pub fn uds_mbps(span: Duration) -> Result<f64, String> {
    let (tx, rx) = UnixDatagram::pair().map_err(|e| format!("socketpair: {e}"))?;
    tx.set_nonblocking(true).map_err(|e| e.to_string())?;
    rx.set_nonblocking(true).map_err(|e| e.to_string())?;
    let msg = vec![7u8; BLAST_MSG];
    let mut buf = vec![0u8; BLAST_MSG];
    let mut moved = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < span {
        loop {
            match tx.send(&msg) {
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("uds send: {e}")),
            }
        }
        loop {
            match rx.recv(&mut buf) {
                Ok(len) => moved += len as u64,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("uds recv: {e}")),
            }
        }
    }
    Ok(moved as f64 / t0.elapsed().as_secs_f64() / 1e6)
}

/// MB/s through one loopback TCP connection, one thread alternating
/// 64 KiB writes until the send buffer fills with draining reads.
pub fn tcp_mbps(span: Duration) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut tx = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (mut rx, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    for s in [&tx, &rx] {
        s.set_nonblocking(true).map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
    }
    let msg = vec![7u8; BLAST_MSG];
    let mut buf = vec![0u8; BLAST_MSG];
    let mut moved = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < span {
        loop {
            match tx.write(&msg) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("tcp write: {e}")),
            }
        }
        loop {
            match rx.read(&mut buf) {
                Ok(0) => return Err("tcp peer closed".into()),
                Ok(len) => moved += len as u64,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("tcp read: {e}")),
            }
        }
    }
    Ok(moved as f64 / t0.elapsed().as_secs_f64() / 1e6)
}

//! Deterministic fault injection: a seeded TCP chaos proxy.
//!
//! [`ChaosProxy`] sits between a client and a server on loopback and
//! forwards wire frames both ways, injecting three failure modes with
//! seeded, reproducible dice rolls:
//!
//! * **connection resets** — the proxy abruptly closes both sides
//!   mid-stream, exercising client reconnect + replay;
//! * **byte corruption** — one payload byte of a frame is flipped, which
//!   the frame checksums must surface as a typed `BadFrame` /
//!   `ChecksumMismatch` error (never a silently wrong answer, never a
//!   desynced stream);
//! * **stalls / partial writes** — a frame is split and delayed,
//!   exercising read timeouts and mid-frame patience.
//!
//! The proxy reads each frame whole (its u32 length prefix, then the
//! payload) and rolls the dice once per frame, so the decisions depend
//! on the frame sequence only — not on how the kernel happens to chunk
//! the TCP stream. Randomness is a hand-rolled [`SplitMix64`] (the
//! dependency tree has no RNG crate, by design): every connection
//! derives its own stream from the proxy seed and a connection counter,
//! so a given seed reproduces the same injection decisions per
//! connection index regardless of thread scheduling.

use crate::proto::MAX_FRAME_BYTES;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A tiny, dependency-free deterministic RNG (SplitMix64). Used by the
/// chaos proxy's injection dice and the client's retry jitter.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// An RNG producing the stream determined by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded dice roll: `true` with probability `per_10k / 10_000`.
    pub fn chance(&mut self, per_10k: u32) -> bool {
        per_10k > 0 && self.next_u64() % 10_000 < u64::from(per_10k)
    }
}

/// Injection rates and shapes of one [`ChaosProxy`]. Rates are per
/// forwarded frame, in parts per 10 000.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed for all injection decisions. The same seed and connection
    /// arrival order reproduce the same per-connection decisions.
    pub seed: u64,
    /// Chance (per frame) of resetting the connection mid-stream.
    pub reset_per_10k: u32,
    /// Chance (per frame) of flipping one payload byte.
    pub corrupt_per_10k: u32,
    /// Chance (per frame) of a stalled, split write.
    pub stall_per_10k: u32,
    /// How long a stalled frame pauses between its two halves.
    pub stall: Duration,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0xC4A0_5EED,
            reset_per_10k: 50,
            corrupt_per_10k: 50,
            stall_per_10k: 100,
            stall: Duration::from_millis(5),
        }
    }
}

/// A snapshot of a proxy's lifetime injection counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Connections proxied.
    pub connections: u64,
    /// Connections torn down by an injected reset.
    pub resets: u64,
    /// Bytes flipped in flight.
    pub corrupted_bytes: u64,
    /// Frames delivered as a stalled, split write.
    pub stalls: u64,
    /// Payload bytes forwarded (both directions).
    pub forwarded_bytes: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    resets: AtomicU64,
    corrupted_bytes: AtomicU64,
    stalls: AtomicU64,
    forwarded_bytes: AtomicU64,
}

struct ProxyShared {
    stop: AtomicBool,
    counters: Counters,
    config: ChaosConfig,
    upstream: SocketAddr,
}

/// A running loopback chaos proxy; accepts on its own port and pipes
/// every connection to `upstream` through the injection pumps.
pub struct ChaosProxy {
    shared: Arc<ProxyShared>,
    addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds a fresh loopback port and starts proxying to `upstream`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(upstream: SocketAddr, config: ChaosConfig) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            stop: AtomicBool::new(false),
            counters: Counters::default(),
            config,
            upstream,
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(ChaosProxy {
            shared,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listen address — point clients here instead of at the
    /// server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Lifetime injection counters.
    pub fn stats(&self) -> ChaosStats {
        let c = &self.shared.counters;
        ChaosStats {
            connections: c.connections.load(Ordering::Relaxed),
            resets: c.resets.load(Ordering::Relaxed),
            corrupted_bytes: c.corrupted_bytes.load(Ordering::Relaxed),
            stalls: c.stalls.load(Ordering::Relaxed),
            forwarded_bytes: c.forwarded_bytes.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting and tears down the pumps. Idempotent; called on
    /// drop as well.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    let mut pumps: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut conn_index: u64 = 0;
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((down, _peer)) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let Ok(up) = TcpStream::connect(shared.upstream) else {
                    // Upstream gone (e.g. mid-drain): drop the client,
                    // which sees a failed connection and retries.
                    continue;
                };
                let _ = down.set_nodelay(true);
                let _ = up.set_nodelay(true);
                // One deterministic dice stream per direction, derived
                // from (seed, connection index): scheduling cannot change
                // what a given connection's pumps decide.
                for (dir, from, to) in [(0u64, &down, &up), (1u64, &up, &down)] {
                    let (Ok(from), Ok(to)) = (from.try_clone(), to.try_clone()) else {
                        continue;
                    };
                    let rng = SplitMix64::new(
                        shared
                            .config
                            .seed
                            .wrapping_add(conn_index.wrapping_mul(0x9E37_79B9))
                            .wrapping_add(dir),
                    );
                    let shared = shared.clone();
                    pumps.push(std::thread::spawn(move || pump(from, to, rng, &shared)));
                }
                conn_index += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    for t in pumps {
        let _ = t.join();
    }
}

/// Reads until `buf` is full, polling the stop flag between read
/// timeouts. False on EOF, a socket error, or a stop.
fn fill(from: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> bool {
    let mut filled = 0;
    while filled < buf.len() && !stop.load(Ordering::Acquire) {
        match from.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return false,
        }
    }
    filled == buf.len()
}

/// Forwards one direction of one connection frame by frame, rolling the
/// injection dice once per frame.
fn pump(mut from: TcpStream, mut to: TcpStream, mut rng: SplitMix64, shared: &ProxyShared) {
    let cfg = &shared.config;
    let counters = &shared.counters;
    if from
        .set_read_timeout(Some(Duration::from_millis(20)))
        .is_err()
    {
        return;
    }
    let mut frame = vec![0u8; 4];
    loop {
        frame.truncate(4);
        let mut full = fill(&mut from, &mut frame, &shared.stop);
        if full {
            // An over-cap prefix is forwarded as a bare frame so the
            // receiver rejects it at once instead of waiting on bytes.
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap());
            let len = if len > MAX_FRAME_BYTES { 0 } else { len };
            frame.resize(4 + len as usize, 0);
            full = fill(&mut from, &mut frame[4..], &shared.stop);
        }
        if !full {
            // EOF, a socket error, or a stop: propagate the half-close so
            // frame boundaries survive (a frame cut short is dropped).
            let _ = to.shutdown(Shutdown::Write);
            return;
        }
        let n = frame.len();
        if rng.chance(cfg.reset_per_10k) {
            counters.resets.fetch_add(1, Ordering::Relaxed);
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
            return;
        }
        // Corruption spares the length prefix: the checksums guard the
        // payload, and a flipped prefix would only turn into a timeout.
        if rng.chance(cfg.corrupt_per_10k) && n > 4 {
            let at = 4 + (rng.next_u64() as usize) % (n - 4);
            // Flip at least one bit, never zero.
            let mask = (rng.next_u64() as u8) | 1;
            frame[at] ^= mask;
            counters.corrupted_bytes.fetch_add(1, Ordering::Relaxed);
        }
        let write_ok = if rng.chance(cfg.stall_per_10k) {
            counters.stalls.fetch_add(1, Ordering::Relaxed);
            let split = 1 + (rng.next_u64() as usize) % (n - 1);
            to.write_all(&frame[..split]).is_ok() && {
                std::thread::sleep(cfg.stall);
                to.write_all(&frame[split..]).is_ok()
            }
        } else {
            to.write_all(&frame).is_ok()
        };
        if !write_ok {
            let _ = from.shutdown(Shutdown::Both);
            return;
        }
        counters
            .forwarded_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // Different seeds diverge immediately.
        assert_ne!(SplitMix64::new(8).next_u64(), xs[0]);
        // chance() respects the edges.
        let mut r = SplitMix64::new(3);
        assert!(!(0..1000).any(|_| r.chance(0)));
        assert!((0..1000).all(|_| r.chance(10_000)));
    }

    #[test]
    fn clean_proxy_forwards_transparently() {
        // With all rates at zero the proxy is a plain byte pipe.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let up_addr = upstream.local_addr().unwrap();
        // One length-prefixed frame: the proxy forwards whole frames.
        let mut frame = 17u32.to_le_bytes().to_vec();
        frame.extend_from_slice(b"ping through pipe");
        let echo = std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 21];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
        });
        let mut proxy = ChaosProxy::spawn(
            up_addr,
            ChaosConfig {
                reset_per_10k: 0,
                corrupt_per_10k: 0,
                stall_per_10k: 0,
                ..ChaosConfig::default()
            },
        )
        .unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(&frame).unwrap();
        let mut got = [0u8; 21];
        c.read_exact(&mut got).unwrap();
        assert_eq!(&got[..], &frame[..]);
        echo.join().unwrap();
        proxy.shutdown();
        let stats = proxy.stats();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.resets + stats.corrupted_bytes + stats.stalls, 0);
        assert!(stats.forwarded_bytes >= 42);
    }
}

//! The TCP serving loop: nonblocking accept, one handler thread per
//! connection, request routing through a [`ServiceRegistry`], and
//! session sharing across connections through the [`Coalescer`].
//!
//! There is no async runtime in the dependency tree (and none is
//! needed): the session hot path is CPU-bound, so the server runs a
//! hand-rolled accept loop over a nonblocking listener plus blocking
//! per-connection handler threads whose reads time out every
//! [`ServerConfig::read_poll`] to observe the shutdown flag. Graceful
//! shutdown ([`ServerHandle::shutdown`], wired to SIGINT/SIGTERM by
//! [`install_signal_shutdown`]) stops accepting, lets every in-flight
//! frame finish and flush its response, then joins all handlers before
//! [`Server::run`] returns.
//!
//! Every request, plain or certified, runs the service's one answer pass
//! ([`ftc_serve::ConnectivityService::answer`]) over its frame's pairs,
//! appending answers to a response frame opened in the write buffer
//! (cut back to the frame start on an error). Its session comes from the
//! coalescer, shared with the requests in flight on the same service and
//! fault set. Errors follow the service's order: unknown fault, then the
//! first out-of-range vertex in pair order, then the decoder.

use crate::coalesce::{CoalesceStats, Coalescer, SubmitError};
use crate::histogram::LatencyHistogram;
use crate::proto::{self, ErrorCode, ProtoErrorKind, RequestView, MAX_FRAME_BYTES};
use ftc_serve::{ServeError, ServiceRegistry};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables of one [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Cap on simultaneously served connections; excess accepts are
    /// answered with a best-effort `Overloaded` frame and closed.
    pub max_connections: usize,
    /// Cap on simultaneously running session builds in the coalescer;
    /// at the cap, a request that would start another is shed with
    /// `Overloaded` instead of queueing (`0` = unbounded).
    pub max_inflight_batches: usize,
    /// Per-request deadline, measured from frame receipt: a request
    /// still waiting for its session when it expires is shed with
    /// `Overloaded` (`None` = no deadline).
    pub request_deadline: Option<Duration>,
    /// How long a blocked read waits before re-checking the shutdown
    /// flag (bounds shutdown latency, not throughput).
    pub read_poll: Duration,
    /// During shutdown, how long a *partially received* frame may keep
    /// trickling in before the connection is abandoned.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 1024,
            max_inflight_batches: 0,
            request_deadline: None,
            read_poll: Duration::from_millis(25),
            drain_timeout: Duration::from_secs(2),
        }
    }
}

/// A snapshot of the server's connection-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted into a handler thread.
    pub accepted: u64,
    /// Connections shed at accept time (connection cap reached).
    pub shed_connections: u64,
    /// Handler threads currently serving a connection.
    pub active: u64,
    /// Pairs answered (in requests answered successfully).
    pub pairs: u64,
}

struct Shared {
    registry: Arc<ServiceRegistry>,
    coalescer: Coalescer,
    shutdown: AtomicBool,
    accepted: AtomicU64,
    shed_connections: AtomicU64,
    active: AtomicU64,
    pairs: AtomicU64,
    /// Service latency (frame receipt to answer encoded) of requests
    /// answered successfully — shed and failed requests are excluded,
    /// so this is exactly the "accepted" latency overload reports need.
    served: Mutex<LatencyHistogram>,
}

impl Shared {
    fn record_served(&self, started: Instant) {
        self.served
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(started.elapsed().as_nanos() as u64);
    }
}

/// A cloneable remote control for a running [`Server`]: shutdown and
/// stats, usable from any thread (signal watchers, tests, the loadgen).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to drain and exit: stop accepting, answer every
    /// in-flight frame (and its coalesced batch), close connections,
    /// return from [`Server::run`]. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// The coalescer's lifetime counters (requests that asked for a
    /// session, coalesced, batches = sessions built, requests shed).
    pub fn stats(&self) -> CoalesceStats {
        self.shared.coalescer.stats()
    }

    /// The server's connection-level counters (accepted / shed at
    /// accept / currently active) and the pairs it answered.
    pub fn server_stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            shed_connections: self.shared.shed_connections.load(Ordering::Relaxed),
            active: self.shared.active.load(Ordering::Relaxed),
            pairs: self.shared.pairs.load(Ordering::Relaxed),
        }
    }

    /// A snapshot of the service-latency histogram of successfully
    /// answered requests (frame receipt to answer encoded, server-side
    /// clock — unaffected by client scheduling or the network).
    pub fn served_latency(&self) -> LatencyHistogram {
        self.shared
            .served
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The registry this server routes graph IDs through.
    pub fn registry(&self) -> &Arc<ServiceRegistry> {
        &self.shared.registry
    }
}

/// A bound-but-not-yet-running TCP server over a [`ServiceRegistry`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    config: ServerConfig,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (use port 0 for an OS-assigned port) over `registry`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        registry: Arc<ServiceRegistry>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                registry,
                coalescer: Coalescer::with_max_inflight(config.max_inflight_batches),
                shutdown: AtomicBool::new(false),
                accepted: AtomicU64::new(0),
                shed_connections: AtomicU64::new(0),
                active: AtomicU64::new(0),
                pairs: AtomicU64::new(0),
                served: Mutex::new(LatencyHistogram::new()),
            }),
            config,
            addr,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A remote control for this server (clone freely; keep one before
    /// calling [`Server::run`], which consumes the server).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
            addr: self.addr,
        }
    }

    /// Serves until [`ServerHandle::shutdown`]: accepts connections,
    /// spawns one handler thread each, and on shutdown drains in-flight
    /// work and joins every handler before returning.
    ///
    /// # Errors
    ///
    /// Propagates fatal `accept` failures (after joining handlers).
    pub fn run(self) -> std::io::Result<()> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut fatal = None;
        while !self.shared.shutdown.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    handlers.retain(|h| !h.is_finished());
                    if handlers.len() >= self.config.max_connections {
                        // Shed, don't queue: tell the peer *why* before
                        // closing so a resilient client backs off and
                        // retries instead of treating it as a crash.
                        self.shared.shed_connections.fetch_add(1, Ordering::Relaxed);
                        overloaded_close(stream);
                        continue;
                    }
                    self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                    let shared = self.shared.clone();
                    let config = self.config.clone();
                    handlers.push(std::thread::spawn(move || {
                        shared.active.fetch_add(1, Ordering::Relaxed);
                        handle_connection(stream, &shared, &config);
                        shared.active.fetch_sub(1, Ordering::Relaxed);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(self.config.read_poll);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    fatal = Some(e);
                    break;
                }
            }
        }
        // Drain: handlers observe the flag (set by shutdown, or set here
        // on a fatal accept error) within one read_poll, finish their
        // in-flight frame + batch, flush, and exit.
        self.shared.shutdown.store(true, Ordering::Release);
        for h in handlers {
            let _ = h.join();
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Best-effort connection-level rejection: one `Overloaded` error frame
/// (request ID 0 — no request was read) and an immediate close.
fn overloaded_close(mut stream: TcpStream) {
    let mut buf = Vec::new();
    proto::encode_response_err(
        &mut buf,
        0,
        ErrorCode::Overloaded,
        "connection limit reached; retry with backoff",
    );
    let _ = stream.set_nodelay(true);
    let _ = stream.write_all(&buf);
}

/// The most answer bytes a connection holds back while more of its frames
/// are already received.
const WRITE_BATCH_BYTES: usize = 64 * 1024;

/// What one poll of the frame reader produced.
enum FrameEvent {
    /// A complete frame payload is staged in the reader.
    Frame,
    /// Clean EOF at a frame boundary.
    Eof,
    /// Shutdown observed at a frame boundary.
    Shutdown,
    /// The peer violated framing (oversized length prefix / EOF or
    /// drain-timeout mid-frame): answer if possible, then close.
    Violation,
}

/// Incremental length-prefixed frame reader that survives read timeouts
/// mid-frame (the handler's shutdown poll) without losing position.
///
/// Each read takes whatever the socket holds, up to the buffer's size, so
/// a pipelining peer's frames arrive several per syscall instead of two
/// syscalls (prefix, then payload) per frame.
struct FrameReader {
    buf: Vec<u8>,
    /// Received bytes not yet consumed: `buf[start..filled]`.
    start: usize,
    filled: usize,
    /// Length, prefix included, of the frame staged at `start` (0 until
    /// [`FrameReader::next_frame`] returns [`FrameEvent::Frame`]).
    frame: usize,
}

impl FrameReader {
    fn new() -> FrameReader {
        FrameReader {
            buf: vec![0; 4096],
            start: 0,
            filled: 0,
            frame: 0,
        }
    }

    /// The staged payload after a [`FrameEvent::Frame`].
    fn payload(&self) -> &[u8] {
        &self.buf[self.start + 4..self.start + self.frame]
    }

    /// Whether the bytes after the staged frame already hold another
    /// whole frame, so the next [`FrameReader::next_frame`] returns it
    /// without reading.
    fn has_frame(&self) -> bool {
        let rest = &self.buf[self.start + self.frame..self.filled];
        rest.len() >= 4 && {
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
            len <= MAX_FRAME_BYTES && rest.len() - 4 >= len as usize
        }
    }

    fn next_frame(
        &mut self,
        stream: &mut TcpStream,
        shutdown: &AtomicBool,
        config: &ServerConfig,
    ) -> std::io::Result<FrameEvent> {
        self.start += std::mem::take(&mut self.frame);
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let held = self.filled - self.start;
            let target = if held < 4 {
                4
            } else {
                let prefix = &self.buf[self.start..self.start + 4];
                let len = u32::from_le_bytes(prefix.try_into().unwrap());
                if len > MAX_FRAME_BYTES {
                    return Ok(FrameEvent::Violation);
                }
                4 + len as usize
            };
            if held >= target {
                self.frame = target;
                return Ok(FrameEvent::Frame);
            }
            // Short of a frame: move the partial one to the front and make
            // room for the rest of it.
            self.buf.copy_within(self.start..self.filled, 0);
            (self.start, self.filled) = (0, held);
            if self.buf.len() < target {
                self.buf.resize(target, 0);
            }
            if shutdown.load(Ordering::Acquire) {
                if held == 0 {
                    return Ok(FrameEvent::Shutdown);
                }
                // Mid-frame: grant the peer a bounded window to finish
                // sending so the request can still be answered.
                let deadline =
                    *drain_deadline.get_or_insert_with(|| Instant::now() + config.drain_timeout);
                if Instant::now() >= deadline {
                    return Ok(FrameEvent::Violation);
                }
            }
            match stream.read(&mut self.buf[self.filled..]) {
                Ok(0) => {
                    return Ok(if held == 0 {
                        FrameEvent::Eof
                    } else {
                        FrameEvent::Violation // truncated frame
                    });
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared, config: &ServerConfig) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(config.read_poll)).is_err() {
        return;
    }
    let mut reader = FrameReader::new();
    let mut wbuf = Vec::new();
    loop {
        match reader.next_frame(&mut stream, &shared.shutdown, config) {
            Ok(FrameEvent::Frame) => {
                // The deadline clock starts at frame receipt: time spent
                // waiting for a shared session counts against it.
                let deadline = config.request_deadline.map(|d| Instant::now() + d);
                let keep = process_frame(reader.payload(), shared, &mut wbuf, deadline);
                // Drain semantics: the in-flight frame was answered;
                // once shutdown is requested no further frames start.
                let last = !keep || shared.shutdown.load(Ordering::Acquire);
                // Frames that arrived together are answered in one write
                // (one wake-up of the peer), sent once no whole frame is
                // left to serve.
                if last || !reader.has_frame() || wbuf.len() >= WRITE_BATCH_BYTES {
                    if stream.write_all(&wbuf).is_err() || stream.flush().is_err() {
                        return;
                    }
                    wbuf.clear();
                }
                if last {
                    return;
                }
            }
            Ok(FrameEvent::Violation) => {
                // Best effort: name the violation before closing (the
                // stream can no longer be trusted to stay in sync).
                proto::encode_response_err(
                    &mut wbuf,
                    0,
                    ErrorCode::BadFrame,
                    "violated frame length prefix",
                );
                let _ = stream.write_all(&wbuf);
                return;
            }
            Ok(FrameEvent::Eof) | Ok(FrameEvent::Shutdown) | Err(_) => return,
        }
    }
}

/// The error frame of a failed request to a service of `n` vertices.
fn error_frame(wbuf: &mut Vec<u8>, request_id: u64, n: usize, e: SubmitError) {
    let code = match &e {
        SubmitError::Overloaded => ErrorCode::Overloaded,
        SubmitError::Serve(ServeError::UnknownEdge { .. } | ServeError::UnknownEdgeId { .. }) => {
            ErrorCode::UnknownFault
        }
        SubmitError::Serve(ServeError::VertexOutOfRange { .. }) => ErrorCode::VertexOutOfRange,
        SubmitError::Serve(ServeError::Query(_)) => ErrorCode::QueryRejected,
        SubmitError::Serve(ServeError::Corrupt(_)) => ErrorCode::ArchiveCorrupt,
    };
    let message = match e {
        SubmitError::Overloaded => "request shed: server overloaded; retry with backoff".into(),
        SubmitError::Serve(ServeError::VertexOutOfRange { v }) => {
            format!("vertex {v} out of range (n = {n})")
        }
        SubmitError::Serve(e) => e.to_string(),
    };
    proto::encode_response_err(wbuf, request_id, code, &message);
}

/// Parses and answers one frame into `wbuf`; returns whether the
/// connection may keep going (length-delimited framing keeps the stream
/// in sync even for malformed payloads, so parse errors are answered
/// and survivable).
fn process_frame(
    payload: &[u8],
    shared: &Shared,
    wbuf: &mut Vec<u8>,
    deadline: Option<Instant>,
) -> bool {
    let started = Instant::now();
    let req = match RequestView::parse(payload) {
        Ok(req) => req,
        Err(e) => {
            let code = match e.kind {
                ProtoErrorKind::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
                _ => ErrorCode::BadFrame,
            };
            proto::encode_response_err(wbuf, 0, code, &e.to_string());
            return true;
        }
    };
    let id = req.request_id();
    let Some(service) = shared.registry.get(req.graph()) else {
        proto::encode_response_err(
            wbuf,
            id,
            ErrorCode::UnknownGraph,
            &format!("no graph \"{}\" is registered", req.graph()),
        );
        return true;
    };
    let widen = |(a, b): (u32, u32)| (a as usize, b as usize);
    let want_certificates = req.want_certificates();
    let start = proto::begin_response_ok(wbuf, id, req.pair_count(), want_certificates);
    let mut certs = Vec::new();
    let answered = service.answer(
        req.faults().map(widen),
        req.pairs().map(widen),
        || {
            shared
                .coalescer
                .session(&service, req.faults().map(widen), deadline)
        },
        |cert| {
            wbuf.push(u8::from(cert.is_some()));
            if let (true, Some(cert)) = (want_certificates, cert) {
                proto::push_certificate(&mut certs, cert);
            }
        },
    );
    match answered {
        Ok(()) => {
            wbuf.extend_from_slice(&certs);
            if proto::finish_response_ok(wbuf, start).is_ok() {
                shared.record_served(started);
                let pairs = req.pair_count() as u64;
                shared.pairs.fetch_add(pairs, Ordering::Relaxed);
            } else {
                // Only certificates can blow the frame cap: the answers
                // alone (one byte per requested pair) always fit.
                proto::encode_response_err(
                    wbuf,
                    id,
                    ErrorCode::QueryRejected,
                    proto::MSG_RETRY_WITHOUT_CERTIFICATES,
                );
            }
        }
        Err(e) => {
            wbuf.truncate(start);
            error_frame(wbuf, id, service.n(), e);
        }
    }
    true
}

/// Installs SIGINT/SIGTERM handlers that trigger a graceful
/// [`ServerHandle::shutdown`]. The handler itself only flips an atomic
/// (async-signal-safe); a watcher thread converts it into the shutdown
/// call. No-op on non-Unix targets.
pub fn install_signal_shutdown(handle: ServerHandle) {
    install_signal_handlers(handle, None)
}

/// [`install_signal_shutdown`] plus an optional SIGHUP **reload** hook:
/// when `reload` is `Some`, SIGHUP runs the callback on the watcher
/// thread (typically a blue/green re-open + [`ServiceRegistry::swap`]
/// of every archive the server was started with) instead of its default
/// terminate action. Signal handlers only flip atomics
/// (async-signal-safe); the watcher thread does the real work, so a
/// reload that takes seconds never runs in signal context. No-op on
/// non-Unix targets.
pub fn install_signal_handlers(handle: ServerHandle, reload: Option<Box<dyn FnMut() + Send>>) {
    #[cfg(unix)]
    {
        static SIGNALED: AtomicBool = AtomicBool::new(false);
        static RELOAD: AtomicBool = AtomicBool::new(false);
        extern "C" fn on_signal(_sig: i32) {
            SIGNALED.store(true, Ordering::SeqCst);
        }
        extern "C" fn on_reload(_sig: i32) {
            RELOAD.store(true, Ordering::SeqCst);
        }
        // The process links the platform C library already; declaring
        // `signal` directly avoids a libc crate dependency.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGHUP: i32 = 1;
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
            if reload.is_some() {
                signal(SIGHUP, on_reload as *const () as usize);
            }
        }
        let mut reload = reload;
        std::thread::spawn(move || loop {
            if SIGNALED.load(Ordering::SeqCst) {
                handle.shutdown();
                return;
            }
            if RELOAD.swap(false, Ordering::SeqCst) {
                if let Some(f) = reload.as_mut() {
                    f();
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
    #[cfg(not(unix))]
    {
        let _ = (handle, reload);
    }
}

// The serving loop's shared state crosses threads by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServerHandle>();
    assert_send_sync::<Shared>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::ResponseBody;
    use ftc_core::{FtcScheme, Params};
    use ftc_graph::Graph;
    use ftc_serve::ConnectivityService;

    fn spawn_server() -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
        let registry = Arc::new(ServiceRegistry::new());
        let scheme = FtcScheme::build(&Graph::torus(3, 4), &Params::deterministic(2)).unwrap();
        registry.insert(
            "torus",
            ConnectivityService::from_labels(scheme.into_labels()),
        );
        let server = Server::bind(
            registry,
            "127.0.0.1:0",
            ServerConfig {
                read_poll: Duration::from_millis(5),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        (handle, join)
    }

    #[test]
    fn serves_queries_and_shuts_down_cleanly() {
        let (handle, join) = spawn_server();
        let mut client = Client::connect(handle.addr()).unwrap();
        let answers = client
            .query("torus", &[(0, 1), (0, 4)], &[(0, 10), (3, 3)])
            .unwrap();
        assert_eq!(answers, vec![true, true]);
        assert_eq!(handle.stats().requests, 1);
        assert_eq!(handle.server_stats().pairs, 2);
        handle.shutdown();
        join.join().unwrap().unwrap();
        // A fresh connection after shutdown cannot complete a query.
        assert!(Client::connect(handle.addr())
            .and_then(|mut c| c
                .query("torus", &[], &[(0, 1)])
                .map_err(|_| std::io::Error::other("refused")))
            .is_err());
    }

    /// A certified and a plain request with one fault set answer from
    /// one shared session, each straight from its own frame. The build
    /// they join is held until both have joined, so the sharing does not
    /// depend on scheduling.
    #[test]
    fn certified_and_plain_requests_share_one_session() {
        let scheme = FtcScheme::build(&Graph::torus(3, 4), &Params::deterministic(2)).unwrap();
        let svc = ConnectivityService::from_labels(scheme.into_labels());
        let registry = Arc::new(ServiceRegistry::new());
        registry.insert("torus", svc.clone());
        let server = Server::bind(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let shared = &*server.shared;
        let faults = [(0usize, 1usize), (0, 4)];
        let pairs = [(0usize, 10usize), (3, 3), (1, 7), (2, 9)];
        let frame = |flags| {
            let mut frame = Vec::new();
            proto::encode_request(&mut frame, 7, "torus", flags, &faults, &pairs).unwrap();
            frame
        };
        let (plain, certified) = (frame(0), frame(proto::FLAG_CERTIFICATES));
        let answer = |frame: &[u8]| {
            let mut wbuf = Vec::new();
            assert!(process_frame(&frame[4..], shared, &mut wbuf, None));
            proto::decode_response(&wbuf[4..]).unwrap()
        };
        let (plain, certified) = std::thread::scope(|s| {
            let build = s.spawn(|| {
                shared.coalescer.session_with(&svc, faults, None, |f| {
                    while shared.coalescer.stats().coalesced < 2 {
                        std::thread::yield_now();
                    }
                    svc.session(f.iter().copied())
                })
            });
            while shared.coalescer.stats().batches < 1 {
                std::thread::yield_now();
            }
            let plain = s.spawn(|| answer(&plain));
            let certified = s.spawn(|| answer(&certified));
            let shared_session = build.join().unwrap().unwrap();
            let (plain, certified) = (plain.join().unwrap(), certified.join().unwrap());
            // The build's holders are gone; the session's last one was
            // the stand-in leader.
            assert_eq!(Arc::strong_count(&shared_session), 1);
            (plain, certified)
        });
        let stats = shared.coalescer.stats();
        assert_eq!((stats.batches, stats.coalesced, stats.requests), (1, 2, 3));

        let want = svc.query(&faults, &pairs).unwrap().into_vec();
        let want_certs: Vec<_> = svc.query_certified(&faults, &pairs).unwrap();
        assert_eq!(
            plain.body,
            ResponseBody::Answers {
                answers: want.clone(),
                certificates: None
            }
        );
        assert_eq!(
            certified.body,
            ResponseBody::Answers {
                answers: want,
                certificates: Some(want_certs)
            }
        );
        assert_eq!(shared.pairs.load(Ordering::Relaxed), 2 * pairs.len() as u64);
    }

    #[test]
    fn shutdown_is_idempotent_and_observable() {
        let (handle, join) = spawn_server();
        assert!(!handle.is_shutdown());
        handle.shutdown();
        handle.shutdown();
        assert!(handle.is_shutdown());
        join.join().unwrap().unwrap();
    }
}

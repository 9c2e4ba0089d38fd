//! The blocking client: one TCP connection, pipelined request IDs,
//! optional transparent resilience.
//!
//! [`Client::query`] is the simple call-and-wait surface. For
//! throughput, [`Client::send`] / [`Client::recv`] decouple submission
//! from completion: keep several request IDs in flight and match
//! responses by the echoed ID (the server answers a connection's frames
//! in order, but pipelined consumers should not rely on it — coalescing
//! servers are free to change that).
//!
//! # Resilience
//!
//! With [`ClientConfig::retries`] > 0 the client becomes
//! self-healing: connect failures, dropped connections, corrupted
//! response frames, and retryable error codes (`Overloaded`,
//! `ShuttingDown`) are retried with bounded exponential backoff and
//! deterministic jitter. A reconnect **replays every unanswered
//! pipelined request with its original request ID**, so a pipelined
//! consumer's bookkeeping survives the swap of the underlying socket
//! unchanged. Every request is sent with the integrity-checksum flag,
//! so in-flight corruption surfaces as a typed error on one side or the
//! other instead of a silently wrong answer.

use crate::chaos::SplitMix64;
use crate::proto::{
    self, EncodeError, ErrorCode, ProtoError, Response, ResponseBody, WireCertificate,
    FLAG_CERTIFICATES, FLAG_CHECKSUM, MAX_FRAME_BYTES, MSG_RETRY_WITHOUT_CERTIFICATES,
};
use crate::text;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Bytes a response read asks the socket for at least.
const READ_CHUNK: usize = 4096;

/// Errors raised on the client side of the wire.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (includes the server closing mid-response).
    Io(std::io::Error),
    /// The server's bytes did not parse as a response frame.
    Proto(ProtoError),
    /// A request could not be encoded (argument exceeds a wire field).
    Encode(EncodeError),
    /// The server answered with a typed error frame.
    Remote {
        /// Echoed request ID (0 when the server could not parse one).
        request_id: u64,
        /// The typed error code.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// A text-mode query line did not parse.
    Text(text::TextError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Proto(e) => write!(f, "malformed response: {e}"),
            ClientError::Encode(e) => write!(f, "cannot encode request: {e}"),
            ClientError::Remote { code, message, .. } => write!(f, "server: {code}: {message}"),
            ClientError::Text(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

impl From<EncodeError> for ClientError {
    fn from(e: EncodeError) -> ClientError {
        ClientError::Encode(e)
    }
}

impl From<text::TextError> for ClientError {
    fn from(e: text::TextError) -> ClientError {
        ClientError::Text(e)
    }
}

impl ClientError {
    /// Whether a transparent retry of the same request is safe and
    /// sensible: transport failures (the connection can be rebuilt and
    /// unanswered requests replayed), corrupted response frames, and
    /// the retryable server codes.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Proto(_) => true,
            ClientError::Remote { code, .. } => code.is_retryable(),
            ClientError::Encode(_) | ClientError::Text(_) => false,
        }
    }
}

/// Connection and retry tunables of one [`Client`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Per-address TCP connect timeout (`None` = the OS default, which
    /// can be minutes against a black-holed host).
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout.
    pub write_timeout: Option<Duration>,
    /// Transparent retry budget per operation; `0` disables resilience
    /// entirely (failures surface immediately, nothing is buffered for
    /// replay — the zero-overhead default).
    pub retries: u32,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed of the deterministic backoff jitter (each delay lands in
    /// `[d/2, d]` for the attempt's nominal delay `d`).
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: None,
            write_timeout: None,
            retries: 0,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            jitter_seed: 0x7E57_5EED,
        }
    }
}

impl ClientConfig {
    /// A self-healing preset: bounded timeouts and a retry budget
    /// suitable for traffic that must survive server swaps, drains, and
    /// overload shedding.
    pub fn resilient() -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(2)),
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            retries: 8,
            ..ClientConfig::default()
        }
    }
}

/// Lifetime resilience counters of one [`Client`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Connections re-established after a transport failure.
    pub reconnects: u64,
    /// Requests retried (any cause: transport, corruption, retryable
    /// server codes).
    pub retries: u64,
    /// Unanswered pipelined requests replayed across reconnects.
    pub replayed: u64,
}

/// The full outcome of [`Client::query_certified`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertifiedAnswers {
    /// One `bool` per requested pair, in request order.
    pub answers: Vec<bool>,
    /// Merge certificate per connected pair (aligned with `answers`).
    /// All `None` when `certificates_dropped`.
    pub certificates: Vec<Option<WireCertificate>>,
    /// The certified response exceeded the frame cap, so the client
    /// transparently retried without certificates — the answers are
    /// authoritative but the certificates were dropped.
    pub certificates_dropped: bool,
}

/// A blocking `ftc-net` connection.
pub struct Client {
    stream: TcpStream,
    /// Resolved addresses, kept for reconnects.
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    wbuf: Vec<u8>,
    /// Received bytes not yet decoded: `rbuf[rstart..rend]`. Reads take
    /// whatever the socket holds, so pipelined responses arrive several
    /// per syscall.
    rbuf: Vec<u8>,
    rstart: usize,
    rend: usize,
    next_id: u64,
    /// Encoded frames of sent-but-unanswered requests, by ID (BTreeMap
    /// so replay preserves send order). Only populated when
    /// `config.retries > 0`.
    inflight: BTreeMap<u64, Vec<u8>>,
    jitter: SplitMix64,
    stats: ClientStats,
}

impl Client {
    /// Connects with the default [`ClientConfig`] (TCP, `TCP_NODELAY`,
    /// bounded connect timeout, no transparent retries).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit tunables. The address is resolved once;
    /// every resolved address is attempted with
    /// [`ClientConfig::connect_timeout`] before giving up, and the list
    /// is kept for transparent reconnects.
    ///
    /// # Errors
    ///
    /// The last address's connect failure (or an invalid-input error
    /// when nothing resolves).
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> std::io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = open_stream(&addrs, &config)?;
        let jitter = SplitMix64::new(config.jitter_seed);
        Ok(Client {
            stream,
            addrs,
            config,
            wbuf: Vec::new(),
            rbuf: vec![0; READ_CHUNK],
            rstart: 0,
            rend: 0,
            next_id: 1,
            inflight: BTreeMap::new(),
            jitter,
            stats: ClientStats::default(),
        })
    }

    /// The remote address.
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    /// Lifetime resilience counters (all zero when retries are off).
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Sleeps the attempt's backoff: exponential from
    /// [`ClientConfig::backoff_base`], capped at
    /// [`ClientConfig::backoff_max`], with deterministic jitter in
    /// `[d/2, d]`.
    fn backoff(&mut self, attempt: u32) {
        let base = self.config.backoff_base.as_nanos() as u64;
        let max = self.config.backoff_max.as_nanos() as u64;
        let nominal = base
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(max.max(1));
        let jittered = nominal / 2 + self.jitter.next_u64() % (nominal / 2 + 1);
        std::thread::sleep(Duration::from_nanos(jittered));
    }

    /// Re-resolves nothing, reconnects to the kept address list with
    /// backoff, then replays every unanswered pipelined request with its
    /// original request ID, in send order.
    fn reconnect_and_replay(&mut self) -> Result<(), ClientError> {
        let mut attempt: u32 = 0;
        let stream = loop {
            attempt += 1;
            match open_stream(&self.addrs, &self.config) {
                Ok(s) => break s,
                Err(e) => {
                    if attempt > self.config.retries {
                        return Err(ClientError::Io(e));
                    }
                    self.backoff(attempt);
                }
            }
        };
        self.stream = stream;
        (self.rstart, self.rend) = (0, 0);
        self.stats.reconnects += 1;
        for frame in self.inflight.values() {
            self.stream.write_all(frame)?;
            self.stats.replayed += 1;
        }
        Ok(())
    }

    fn send_flags(
        &mut self,
        graph: &str,
        flags: u16,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
    ) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.wbuf.clear();
        proto::encode_request(
            &mut self.wbuf,
            id,
            graph,
            flags | FLAG_CHECKSUM,
            faults,
            pairs,
        )?;
        if self.config.retries == 0 {
            self.stream.write_all(&self.wbuf)?;
            return Ok(id);
        }
        // Resilient path: stage the frame for replay *before* writing,
        // so a mid-write connection drop can still be recovered.
        self.inflight.insert(id, self.wbuf.clone());
        if self.stream.write_all(&self.wbuf).is_err() {
            self.stats.retries += 1;
            self.reconnect_and_replay()?;
        }
        Ok(id)
    }

    /// Pipelines one request; returns its request ID without waiting.
    /// With retries enabled, a failed write transparently reconnects and
    /// replays all unanswered requests (including this one).
    ///
    /// # Errors
    ///
    /// [`ClientError::Encode`] / [`ClientError::Io`] on submission
    /// failures.
    pub fn send(
        &mut self,
        graph: &str,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
    ) -> Result<u64, ClientError> {
        self.send_flags(graph, 0, faults, pairs)
    }

    fn recv_frame(&mut self) -> Result<Response, ClientError> {
        self.fill(4)?;
        let prefix = &self.rbuf[self.rstart..self.rstart + 4];
        let len = u32::from_le_bytes(prefix.try_into().unwrap());
        if len > MAX_FRAME_BYTES {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{len}-byte response frame exceeds the cap"),
            )));
        }
        let end = 4 + len as usize;
        self.fill(end)?;
        let frame = &self.rbuf[self.rstart + 4..self.rstart + end];
        self.rstart += end;
        Ok(proto::decode_response(frame)?)
    }

    /// Reads until at least `need` undecoded bytes are held, taking
    /// whatever else the socket has ready.
    fn fill(&mut self, need: usize) -> std::io::Result<()> {
        if self.rend - self.rstart >= need {
            return Ok(());
        }
        self.rbuf.copy_within(self.rstart..self.rend, 0);
        (self.rstart, self.rend) = (0, self.rend - self.rstart);
        if self.rbuf.len() < need {
            self.rbuf.resize(need, 0);
        }
        while self.rend < need {
            match self.stream.read(&mut self.rbuf[self.rend..]) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.rend += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Blocks for the next response frame (any request ID). Typed
    /// server errors come back as [`ResponseBody::Error`], not `Err` —
    /// pipelined callers must see per-request failures without losing
    /// the stream. With retries enabled, transport failures and
    /// corrupted frames trigger a reconnect that **replays every
    /// unanswered request under its original ID** and keeps receiving.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] / [`ClientError::Proto`] when the connection
    /// or the framing itself fails beyond the retry budget.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let mut attempt: u32 = 0;
        loop {
            match self.recv_frame() {
                Ok(resp) => {
                    self.inflight.remove(&resp.request_id);
                    return Ok(resp);
                }
                Err(e) => {
                    // A corrupted frame (Proto) may have desynced the
                    // stream — the only safe recovery is a fresh
                    // connection, same as for an Io failure.
                    attempt += 1;
                    if self.config.retries == 0
                        || attempt > self.config.retries
                        || !matches!(e, ClientError::Io(_) | ClientError::Proto(_))
                    {
                        return Err(e);
                    }
                    self.stats.retries += 1;
                    self.backoff(attempt);
                    self.reconnect_and_replay()?;
                    if self.inflight.is_empty() {
                        // Nothing left to answer; surface the failure
                        // rather than blocking forever on a quiet pipe.
                        return Err(e);
                    }
                }
            }
        }
    }

    fn call(
        &mut self,
        graph: &str,
        flags: u16,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
    ) -> Result<Response, ClientError> {
        let mut attempt: u32 = 0;
        loop {
            let result = self.call_once(graph, flags, faults, pairs);
            match result {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    attempt += 1;
                    if self.config.retries == 0
                        || attempt > self.config.retries
                        || !e.is_retryable()
                    {
                        return Err(e);
                    }
                    self.stats.retries += 1;
                    self.backoff(attempt);
                    // Transport failures need a working socket before
                    // the retry can be sent (recv() may have exhausted
                    // its own budget getting here).
                    if matches!(e, ClientError::Io(_) | ClientError::Proto(_)) {
                        self.reconnect_and_replay()?;
                    }
                }
            }
        }
    }

    fn call_once(
        &mut self,
        graph: &str,
        flags: u16,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
    ) -> Result<Response, ClientError> {
        let id = self.send_flags(graph, flags, faults, pairs)?;
        loop {
            let resp = self.recv()?;
            if resp.request_id != id {
                // Either a stale pipelined response (skip to ours) or a
                // connection-level rejection (request ID 0): the server
                // shed the whole connection before reading our request.
                if resp.request_id == 0 {
                    if let ResponseBody::Error { code, message } = resp.body {
                        if code.is_retryable() {
                            return Err(ClientError::Remote {
                                request_id: 0,
                                code,
                                message,
                            });
                        }
                        // The server rejected a frame it could not even
                        // attribute to a request — e.g. our request was
                        // corrupted in flight. One of our in-flight
                        // requests is now unanswered forever, so recover
                        // like a transport failure: reconnect + replay.
                        return Err(ClientError::Io(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("connection-level {code}: {message}"),
                        )));
                    }
                }
                continue;
            }
            // This request is answered; it must not be replayed by a
            // later reconnect even if the answer is an error frame.
            self.inflight.remove(&id);
            if let ResponseBody::Error { code, message } = resp.body {
                return Err(ClientError::Remote {
                    request_id: id,
                    code,
                    message,
                });
            }
            return Ok(resp);
        }
    }

    /// Answers `pairs` under `faults` on `graph`: one `bool` per pair,
    /// in request order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] for typed server errors, transport
    /// variants otherwise. With retries enabled, retryable failures
    /// (`Overloaded`, `ShuttingDown`, transport, corruption) are
    /// absorbed up to the budget.
    pub fn query(
        &mut self,
        graph: &str,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
    ) -> Result<Vec<bool>, ClientError> {
        match self.call(graph, 0, faults, pairs)?.body {
            ResponseBody::Answers { answers, .. } => Ok(answers),
            ResponseBody::Error { .. } => unreachable!("call() surfaces error bodies"),
        }
    }

    /// Like [`Client::query`], also returning the merge certificate per
    /// connected pair. When the server rejects the certified response as
    /// over the frame cap, the client automatically retries the same
    /// query **without** certificates and surfaces the downgrade via
    /// [`CertifiedAnswers::certificates_dropped`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::query`].
    pub fn query_certified(
        &mut self,
        graph: &str,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
    ) -> Result<CertifiedAnswers, ClientError> {
        match self.call(graph, FLAG_CERTIFICATES, faults, pairs) {
            Ok(resp) => match resp.body {
                ResponseBody::Answers {
                    answers,
                    certificates,
                } => {
                    let certificates = certificates.unwrap_or_else(|| vec![None; answers.len()]);
                    Ok(CertifiedAnswers {
                        answers,
                        certificates,
                        certificates_dropped: false,
                    })
                }
                ResponseBody::Error { .. } => unreachable!("call() surfaces error bodies"),
            },
            Err(ClientError::Remote { code, message, .. })
                if code == ErrorCode::QueryRejected
                    && message == MSG_RETRY_WITHOUT_CERTIFICATES =>
            {
                let answers = self.query(graph, faults, pairs)?;
                Ok(CertifiedAnswers {
                    certificates: vec![None; answers.len()],
                    answers,
                    certificates_dropped: true,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Text-mode debug tooling: answers one `s t [u:v ...]` query line
    /// (the `ftc-cli serve` grammar, parsed by [`text::parse_query_line`])
    /// over the binary protocol, returning the formatted answer line.
    /// `Ok(None)` for blank/comment lines.
    ///
    /// # Errors
    ///
    /// [`ClientError::Text`] on grammar errors, the [`Client::query`]
    /// conditions otherwise.
    pub fn query_line(&mut self, graph: &str, line: &str) -> Result<Option<String>, ClientError> {
        let Some(q) = text::parse_query_line(line)? else {
            return Ok(None);
        };
        let answers = self.query(graph, &q.faults, &[(q.s, q.t)])?;
        Ok(Some(text::answer_line(q.s, q.t, answers[0])))
    }
}

/// Connects to the first reachable address with the config's timeouts.
fn open_stream(addrs: &[SocketAddr], config: &ClientConfig) -> std::io::Result<TcpStream> {
    let mut last: Option<std::io::Error> = None;
    for addr in addrs {
        let attempt = match config.connect_timeout {
            Some(t) => TcpStream::connect_timeout(addr, t),
            None => TcpStream::connect(addr),
        };
        match attempt {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(config.read_timeout)?;
                stream.set_write_timeout(config.write_timeout)?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to nothing",
        )
    }))
}

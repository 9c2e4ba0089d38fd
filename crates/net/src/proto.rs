//! The `ftc-net` wire protocol: length-prefixed binary frames.
//!
//! Every message on the wire is one **frame**: a little-endian `u32`
//! payload length (at most [`MAX_FRAME_BYTES`]) followed by exactly that
//! many payload bytes. Because frames are length-delimited, a malformed
//! *payload* never desynchronizes the stream — the server answers it
//! with a typed error frame and keeps the connection; only a violated
//! length prefix (oversized or truncated by EOF) closes the connection.
//!
//! Request payload (all integers little-endian):
//!
//! ```text
//! offset  size          field
//! 0       4             magic  b"FTCQ"
//! 4       2             protocol version (= 1)
//! 6       2             flags  (bit 0: return certificates)
//! 8       8             request ID (echoed verbatim in the response)
//! 16      2             graph-ID length g
//! 18      g             graph ID (UTF-8)
//! 18+g    4             fault count F
//! ..      8·F           faults: F × (u32 u, u32 v) endpoint pairs
//! ..      4             pair count P
//! ..      8·P           pairs:  P × (u32 s, u32 t)
//! ..      8             checksum64 of all prior payload bytes
//!                       (only when flag bit 1 is set)
//! ```
//!
//! Response payload:
//!
//! ```text
//! 0       4             magic  b"FTCR"
//! 4       2             protocol version (= 1)
//! 6       1             status (0 = OK, else an ErrorCode)
//! 7       1             flags  (bit 0: certificates present)
//! 8       8             request ID
//! OK:     4             pair count P, then P answer bytes (0/1); when
//!                       certificates are present, each *connected* pair
//!                       is followed (in pair order, after the answer
//!                       bytes) by u32 merge-count + count × (u32, u32)
//! error:  2             message length, then UTF-8 message
//! last    8             checksum64 trailer (responses always carry it,
//!                       signalled by flag bit 1)
//! ```
//!
//! [`RequestView`] parses a request payload **zero-copy** (in the spirit
//! of `LabelStore`): validation walks the bytes once, and the fault /
//! pair lists are iterated straight off the wire buffer without
//! materializing vectors.

use std::fmt;

/// First four payload bytes of every request.
pub const REQUEST_MAGIC: [u8; 4] = *b"FTCQ";
/// First four payload bytes of every response.
pub const RESPONSE_MAGIC: [u8; 4] = *b"FTCR";
/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;
/// Hard ceiling on a frame payload (16 MiB ≈ 2M endpoint pairs); a
/// length prefix above this closes the connection.
pub const MAX_FRAME_BYTES: u32 = 1 << 24;
/// Request flag bit 0: return merge certificates with each answer.
pub const FLAG_CERTIFICATES: u16 = 1;
/// Request flag bit 1: the payload carries a trailing 8-byte integrity
/// checksum ([`ftc_compress::checksum64`] over every payload byte before
/// the trailer). Responses signal the same trailer via bit 1 of their
/// `u8` flags byte. The checksum turns in-flight byte corruption into a
/// typed [`ProtoErrorKind::ChecksumMismatch`] instead of a silently
/// wrong answer.
pub const FLAG_CHECKSUM: u16 = 2;
/// Response flag bit 1 (of the `u8` response flags): checksum trailer
/// present. Bit 0 remains "certificates present".
pub const RESPONSE_FLAG_CHECKSUM: u8 = 2;
/// Bytes of the optional integrity trailer.
pub const CHECKSUM_TRAILER_BYTES: usize = 8;

/// The exact message the server sends alongside
/// [`ErrorCode::QueryRejected`] when a certified response would exceed
/// [`MAX_FRAME_BYTES`]. Clients match it to retry transparently without
/// certificates.
pub const MSG_RETRY_WITHOUT_CERTIFICATES: &str =
    "certified response exceeds the frame cap; retry without certificates";

/// Typed error codes carried by error responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request payload did not parse (bad magic, truncated fields,
    /// trailing bytes, bad UTF-8 in the graph ID).
    BadFrame = 1,
    /// The request's protocol version is not spoken by this server.
    UnsupportedVersion = 2,
    /// No graph is registered under the requested ID.
    UnknownGraph = 3,
    /// A fault named an edge the labeling does not contain.
    UnknownFault = 4,
    /// A query pair named a vertex outside the graph.
    VertexOutOfRange = 5,
    /// The session rejected the query (e.g. fault budget exceeded).
    QueryRejected = 6,
    /// The server is draining for shutdown.
    ShuttingDown = 7,
    /// A lazily-validated archive section failed its checksum on first
    /// touch while serving the request.
    ArchiveCorrupt = 8,
    /// The server shed this request (or the whole connection) because it
    /// is at its connection, session-build, or deadline limit. Retryable.
    Overloaded = 9,
}

impl ErrorCode {
    /// The wire byte of this code.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes a wire byte; `None` for unknown codes.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::UnknownGraph,
            4 => ErrorCode::UnknownFault,
            5 => ErrorCode::VertexOutOfRange,
            6 => ErrorCode::QueryRejected,
            7 => ErrorCode::ShuttingDown,
            8 => ErrorCode::ArchiveCorrupt,
            9 => ErrorCode::Overloaded,
            _ => return None,
        })
    }

    /// Whether a client may transparently retry a request rejected with
    /// this code: the request was never executed, only shed, so a replay
    /// is safe and likely to succeed once load or a drain passes.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::ShuttingDown)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::BadFrame => "bad frame",
            ErrorCode::UnsupportedVersion => "unsupported protocol version",
            ErrorCode::UnknownGraph => "unknown graph",
            ErrorCode::UnknownFault => "unknown fault edge",
            ErrorCode::VertexOutOfRange => "vertex out of range",
            ErrorCode::QueryRejected => "query rejected",
            ErrorCode::ShuttingDown => "server shutting down",
            ErrorCode::ArchiveCorrupt => "served archive corrupt",
            ErrorCode::Overloaded => "server overloaded",
        };
        f.write_str(s)
    }
}

/// Why a payload failed to parse, and where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Byte offset (into the payload) at which parsing failed.
    pub offset: usize,
    /// What went wrong there.
    pub kind: ProtoErrorKind,
}

/// The kinds of payload parse failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoErrorKind {
    /// The payload ended before a required field.
    Truncated,
    /// The magic bytes are not [`REQUEST_MAGIC`] / [`RESPONSE_MAGIC`].
    BadMagic,
    /// The version field names a protocol this build does not speak.
    UnsupportedVersion(u16),
    /// Bytes remain after the last field.
    TrailingBytes,
    /// The graph ID is not UTF-8.
    BadUtf8,
    /// An error response carried an unknown status byte.
    BadErrorCode(u8),
    /// The payload's integrity trailer did not match its bytes — the
    /// frame was corrupted in flight.
    ChecksumMismatch,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ProtoErrorKind::Truncated => write!(f, "payload truncated at byte {}", self.offset),
            ProtoErrorKind::BadMagic => write!(f, "bad magic at byte {}", self.offset),
            ProtoErrorKind::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} at byte {}",
                    self.offset
                )
            }
            ProtoErrorKind::TrailingBytes => {
                write!(
                    f,
                    "trailing bytes after payload end at byte {}",
                    self.offset
                )
            }
            ProtoErrorKind::BadUtf8 => write!(f, "graph ID is not UTF-8 at byte {}", self.offset),
            ProtoErrorKind::BadErrorCode(c) => {
                write!(f, "unknown error code {c} at byte {}", self.offset)
            }
            ProtoErrorKind::ChecksumMismatch => {
                write!(f, "payload checksum mismatch at byte {}", self.offset)
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// Why a message could not be *encoded* (caller-side validation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// A vertex endpoint does not fit the wire's `u32`.
    EndpointTooLarge(usize),
    /// The graph ID exceeds the `u16` length field.
    GraphIdTooLong(usize),
    /// The encoded payload would exceed [`MAX_FRAME_BYTES`].
    FrameTooLarge(usize),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::EndpointTooLarge(v) => write!(f, "vertex {v} does not fit u32"),
            EncodeError::GraphIdTooLong(n) => write!(f, "graph ID of {n} bytes exceeds u16"),
            EncodeError::FrameTooLarge(n) => {
                write!(
                    f,
                    "{n}-byte payload exceeds {MAX_FRAME_BYTES}-byte frame cap"
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Strips and verifies the optional integrity trailer. `flagged` is
/// whether the payload's flags claim a trailer; on success the returned
/// slice is the payload body with the trailer removed.
fn strip_checksum(payload: &[u8], flagged: bool) -> Result<&[u8], ProtoError> {
    if !flagged {
        return Ok(payload);
    }
    let Some(split) = payload.len().checked_sub(CHECKSUM_TRAILER_BYTES) else {
        return Err(ProtoError {
            offset: payload.len(),
            kind: ProtoErrorKind::Truncated,
        });
    };
    let want = u64::from_le_bytes(payload[split..].try_into().unwrap());
    if ftc_compress::checksum64(&payload[..split]) != want {
        return Err(ProtoError {
            offset: split,
            kind: ProtoErrorKind::ChecksumMismatch,
        });
    }
    Ok(&payload[..split])
}

/// Appends the integrity trailer over `out[start..]` (the payload built
/// so far, excluding the 4-byte length prefix).
fn push_checksum(out: &mut Vec<u8>, payload_start: usize) {
    let sum = ftc_compress::checksum64(&out[payload_start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Cursor: bounds-checked little-endian reads with located errors.
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn err(&self, kind: ProtoErrorKind) -> ProtoError {
        ProtoError {
            offset: self.pos,
            kind,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(self.err(ProtoErrorKind::Truncated));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// An endpoint-pair list: `u32` count, then count × (u32, u32) —
    /// returned as the raw byte window (zero-copy; pairs are decoded
    /// lazily by [`PairIter`]).
    fn pair_list(&mut self) -> Result<&'a [u8], ProtoError> {
        let count = self.u32()? as usize;
        // 8 bytes per pair; the multiplication cannot overflow because
        // count came out of a ≤ 16 MiB payload check below via take().
        count
            .checked_mul(8)
            .ok_or(self.err(ProtoErrorKind::Truncated))
            .and_then(|bytes| self.take(bytes))
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(self.err(ProtoErrorKind::TrailingBytes));
        }
        Ok(())
    }
}

/// Lazy decoder over a raw `(u32, u32)` pair window.
#[derive(Clone, Copy, Debug)]
pub struct PairIter<'a> {
    raw: &'a [u8],
}

impl Iterator for PairIter<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.raw.len() < 8 {
            return None;
        }
        let a = u32::from_le_bytes(self.raw[0..4].try_into().unwrap());
        let b = u32::from_le_bytes(self.raw[4..8].try_into().unwrap());
        self.raw = &self.raw[8..];
        Some((a, b))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.raw.len() / 8;
        (n, Some(n))
    }
}

impl ExactSizeIterator for PairIter<'_> {}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A zero-copy view over a request payload: parse validates the whole
/// layout once, then every accessor reads straight off the wire bytes.
#[derive(Clone, Copy, Debug)]
pub struct RequestView<'a> {
    flags: u16,
    request_id: u64,
    graph: &'a str,
    faults_raw: &'a [u8],
    pairs_raw: &'a [u8],
}

impl<'a> RequestView<'a> {
    /// Parses a request payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] locating the offending byte; arbitrary input never
    /// panics (pinned by the workspace proptests).
    pub fn parse(payload: &'a [u8]) -> Result<RequestView<'a>, ProtoError> {
        // The flags live at a fixed offset, so the integrity trailer can
        // be verified (and stripped) before field-by-field parsing —
        // corrupted frames fail closed with `ChecksumMismatch` instead
        // of parsing flipped bytes into a plausible request.
        let flagged = payload.len() >= 8
            && u16::from_le_bytes(payload[6..8].try_into().unwrap()) & FLAG_CHECKSUM != 0;
        let payload = strip_checksum(payload, flagged)?;
        let mut c = Cursor::new(payload);
        if c.take(4)? != REQUEST_MAGIC {
            return Err(ProtoError {
                offset: 0,
                kind: ProtoErrorKind::BadMagic,
            });
        }
        let version = c.u16()?;
        if version != PROTOCOL_VERSION {
            return Err(ProtoError {
                offset: 4,
                kind: ProtoErrorKind::UnsupportedVersion(version),
            });
        }
        let flags = c.u16()?;
        let request_id = c.u64()?;
        let graph_len = c.u16()? as usize;
        let graph_at = c.pos;
        let graph = std::str::from_utf8(c.take(graph_len)?).map_err(|_| ProtoError {
            offset: graph_at,
            kind: ProtoErrorKind::BadUtf8,
        })?;
        let faults_raw = c.pair_list()?;
        let pairs_raw = c.pair_list()?;
        c.finish()?;
        Ok(RequestView {
            flags,
            request_id,
            graph,
            faults_raw,
            pairs_raw,
        })
    }

    /// The request ID echoed back in the response.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The raw flag bits.
    pub fn flags(&self) -> u16 {
        self.flags
    }

    /// Whether the client asked for merge certificates.
    pub fn want_certificates(&self) -> bool {
        self.flags & FLAG_CERTIFICATES != 0
    }

    /// The target graph ID.
    pub fn graph(&self) -> &'a str {
        self.graph
    }

    /// Number of fault edges.
    pub fn fault_count(&self) -> usize {
        self.faults_raw.len() / 8
    }

    /// The fault edges, decoded lazily off the wire bytes.
    pub fn faults(&self) -> PairIter<'a> {
        PairIter {
            raw: self.faults_raw,
        }
    }

    /// Number of query pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs_raw.len() / 8
    }

    /// The s–t query pairs, decoded lazily off the wire bytes.
    pub fn pairs(&self) -> PairIter<'a> {
        PairIter {
            raw: self.pairs_raw,
        }
    }
}

fn push_pair_list(out: &mut Vec<u8>, pairs: &[(usize, usize)]) -> Result<(), EncodeError> {
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for &(a, b) in pairs {
        for v in [a, b] {
            let v32 = u32::try_from(v).map_err(|_| EncodeError::EndpointTooLarge(v))?;
            out.extend_from_slice(&v32.to_le_bytes());
        }
    }
    Ok(())
}

/// Seals a frame: back-fills the 4-byte length prefix reserved at
/// `start` and enforces [`MAX_FRAME_BYTES`].
fn seal_frame(out: &mut Vec<u8>, start: usize) -> Result<(), EncodeError> {
    let payload = out.len() - start - 4;
    if payload > MAX_FRAME_BYTES as usize {
        out.truncate(start);
        return Err(EncodeError::FrameTooLarge(payload));
    }
    out[start..start + 4].copy_from_slice(&(payload as u32).to_le_bytes());
    Ok(())
}

/// Appends one complete request **frame** (length prefix + payload) to
/// `out`.
///
/// # Errors
///
/// [`EncodeError`] when an endpoint, the graph ID, or the total payload
/// exceeds its wire field; `out` is left unchanged past its original
/// length on error.
pub fn encode_request(
    out: &mut Vec<u8>,
    request_id: u64,
    graph: &str,
    flags: u16,
    faults: &[(usize, usize)],
    pairs: &[(usize, usize)],
) -> Result<(), EncodeError> {
    let start = out.len();
    let fail = |out: &mut Vec<u8>, e| {
        out.truncate(start);
        Err(e)
    };
    if graph.len() > u16::MAX as usize {
        return fail(out, EncodeError::GraphIdTooLong(graph.len()));
    }
    out.extend_from_slice(&[0; 4]); // length prefix, sealed below
    out.extend_from_slice(&REQUEST_MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(graph.len() as u16).to_le_bytes());
    out.extend_from_slice(graph.as_bytes());
    if let Err(e) = push_pair_list(out, faults).and_then(|()| push_pair_list(out, pairs)) {
        return fail(out, e);
    }
    if flags & FLAG_CHECKSUM != 0 {
        push_checksum(out, start + 4);
    }
    seal_frame(out, start)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A merge certificate as carried on the wire (mirrors
/// [`ftc_core::Certificate`]).
pub type WireCertificate = Vec<(u32, u32)>;

/// One decoded response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The request ID this response answers.
    pub request_id: u64,
    /// The outcome.
    pub body: ResponseBody,
}

/// A decoded response body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseBody {
    /// Per-pair answers, in request order.
    Answers {
        /// `true` = connected.
        answers: Vec<bool>,
        /// Merge certificates per *connected* pair (`None` when the
        /// request did not ask for certificates). Entries align with
        /// `answers`; disconnected pairs carry `None`.
        certificates: Option<Vec<Option<WireCertificate>>>,
    },
    /// A typed error.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail (names the offending argument).
        message: String,
    },
}

/// Appends one complete OK response frame to `out`. When `certificates`
/// is `Some`, its entries must align with `answers` (a `Some` cert for
/// every `true` answer).
pub fn encode_response_ok(
    out: &mut Vec<u8>,
    request_id: u64,
    answers: &[bool],
    certificates: Option<&[Option<WireCertificate>]>,
) -> Result<(), EncodeError> {
    let start = begin_response_ok(out, request_id, answers.len(), certificates.is_some());
    out.extend(answers.iter().map(|&a| u8::from(a)));
    if let Some(certs) = certificates {
        debug_assert_eq!(certs.len(), answers.len());
        for (cert, &answer) in certs.iter().zip(answers) {
            if answer {
                push_certificate(out, cert.as_deref().unwrap_or(&[]));
            }
        }
    }
    finish_response_ok(out, start)
}

/// Opens an OK frame of `count` answers in `out` and returns its start
/// for [`finish_response_ok`]. The caller appends one byte per answer
/// (`1` = connected), then, with `certificates`, one [`push_certificate`]
/// per connected pair.
pub fn begin_response_ok(
    out: &mut Vec<u8>,
    request_id: u64,
    count: usize,
    certificates: bool,
) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&RESPONSE_MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.push(0); // status OK
    out.push(u8::from(certificates) | RESPONSE_FLAG_CHECKSUM);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(count as u32).to_le_bytes());
    start
}

/// Appends one connected pair's merge certificate to an OK frame body.
pub fn push_certificate(out: &mut Vec<u8>, cert: &[(u32, u32)]) {
    out.extend_from_slice(&(cert.len() as u32).to_le_bytes());
    for &(a, b) in cert {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
}

/// Seals the OK frame [`begin_response_ok`] opened at `start`.
///
/// # Errors
///
/// [`EncodeError::FrameTooLarge`] over the frame cap (`out` is cut back
/// to `start`).
pub fn finish_response_ok(out: &mut Vec<u8>, start: usize) -> Result<(), EncodeError> {
    push_checksum(out, start + 4);
    seal_frame(out, start)
}

/// Appends one complete error response frame to `out`. The message is
/// truncated to the `u16` length field if oversized.
pub fn encode_response_err(out: &mut Vec<u8>, request_id: u64, code: ErrorCode, message: &str) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&RESPONSE_MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.push(code.as_u8());
    out.push(RESPONSE_FLAG_CHECKSUM);
    out.extend_from_slice(&request_id.to_le_bytes());
    let msg = &message.as_bytes()[..message.len().min(u16::MAX as usize)];
    out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
    out.extend_from_slice(msg);
    push_checksum(out, start + 4);
    // An error frame is bounded by 16 + 2 + 65535 + 8 bytes — always
    // sealable.
    seal_frame(out, start).expect("error frame within cap");
}

/// Decodes a response payload.
///
/// # Errors
///
/// [`ProtoError`] locating the offending byte; arbitrary input never
/// panics.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    // As with requests, the response flags byte sits at a fixed offset;
    // verify and strip the integrity trailer before parsing fields.
    let flagged = payload.len() >= 8 && payload[7] & RESPONSE_FLAG_CHECKSUM != 0;
    let payload = strip_checksum(payload, flagged)?;
    let mut c = Cursor::new(payload);
    if c.take(4)? != RESPONSE_MAGIC {
        return Err(ProtoError {
            offset: 0,
            kind: ProtoErrorKind::BadMagic,
        });
    }
    let version = c.u16()?;
    if version != PROTOCOL_VERSION {
        return Err(ProtoError {
            offset: 4,
            kind: ProtoErrorKind::UnsupportedVersion(version),
        });
    }
    let status = c.u8()?;
    let flags = c.u8()?;
    let request_id = c.u64()?;
    if status != 0 {
        let code_at = 6;
        let code = ErrorCode::from_u8(status).ok_or(ProtoError {
            offset: code_at,
            kind: ProtoErrorKind::BadErrorCode(status),
        })?;
        let len = c.u16()? as usize;
        let msg_at = c.pos;
        let message = std::str::from_utf8(c.take(len)?)
            .map_err(|_| ProtoError {
                offset: msg_at,
                kind: ProtoErrorKind::BadUtf8,
            })?
            .to_string();
        c.finish()?;
        return Ok(Response {
            request_id,
            body: ResponseBody::Error { code, message },
        });
    }
    let count = c.u32()? as usize;
    let raw = c.take(count)?;
    let answers: Vec<bool> = raw.iter().map(|&b| b != 0).collect();
    let certificates = if flags & 1 != 0 {
        let mut certs: Vec<Option<WireCertificate>> = Vec::with_capacity(count);
        for &answer in &answers {
            if !answer {
                certs.push(None);
                continue;
            }
            let merges = c.u32()? as usize;
            let raw = c.take(merges.checked_mul(8).ok_or(ProtoError {
                offset: c.pos,
                kind: ProtoErrorKind::Truncated,
            })?)?;
            certs.push(Some(PairIter { raw }.collect()));
        }
        Some(certs)
    } else {
        None
    };
    c.finish()?;
    Ok(Response {
        request_id,
        body: ResponseBody::Answers {
            answers,
            certificates,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_zero_copy() {
        let mut frame = Vec::new();
        let faults = [(3usize, 7usize), (0, 1)];
        let pairs = [(5usize, 9usize), (2, 2), (0, 8)];
        encode_request(
            &mut frame,
            42,
            "prod/eu",
            FLAG_CERTIFICATES,
            &faults,
            &pairs,
        )
        .unwrap();
        let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        assert_eq!(len + 4, frame.len());
        let req = RequestView::parse(&frame[4..]).unwrap();
        assert_eq!(req.request_id(), 42);
        assert_eq!(req.graph(), "prod/eu");
        assert!(req.want_certificates());
        assert_eq!(req.fault_count(), 2);
        assert_eq!(req.faults().collect::<Vec<_>>(), vec![(3u32, 7u32), (0, 1)]);
        assert_eq!(req.pair_count(), 3);
        assert_eq!(
            req.pairs().collect::<Vec<_>>(),
            vec![(5u32, 9u32), (2, 2), (0, 8)]
        );
    }

    #[test]
    fn responses_round_trip() {
        let mut frame = Vec::new();
        encode_response_ok(&mut frame, 7, &[true, false, true], None).unwrap();
        let resp = decode_response(&frame[4..]).unwrap();
        assert_eq!(resp.request_id, 7);
        assert_eq!(
            resp.body,
            ResponseBody::Answers {
                answers: vec![true, false, true],
                certificates: None
            }
        );

        let certs: Vec<Option<WireCertificate>> =
            vec![Some(vec![(1, 2), (2, 5)]), None, Some(vec![])];
        let mut frame = Vec::new();
        encode_response_ok(&mut frame, 8, &[true, false, true], Some(&certs)).unwrap();
        let resp = decode_response(&frame[4..]).unwrap();
        match resp.body {
            ResponseBody::Answers {
                answers,
                certificates,
            } => {
                assert_eq!(answers, vec![true, false, true]);
                assert_eq!(certificates.unwrap(), certs);
            }
            other => panic!("unexpected body {other:?}"),
        }

        let mut frame = Vec::new();
        encode_response_err(&mut frame, 9, ErrorCode::UnknownGraph, "no graph \"x\"");
        let resp = decode_response(&frame[4..]).unwrap();
        assert_eq!(
            resp.body,
            ResponseBody::Error {
                code: ErrorCode::UnknownGraph,
                message: "no graph \"x\"".into()
            }
        );
    }

    #[test]
    fn truncations_and_tampering_are_located_errors() {
        let mut frame = Vec::new();
        encode_request(&mut frame, 1, "g", 0, &[(0, 1)], &[(2, 3)]).unwrap();
        let payload = &frame[4..];
        for cut in 0..payload.len() {
            let err = RequestView::parse(&payload[..cut]).unwrap_err();
            assert!(err.offset <= cut, "offset {} past cut {cut}", err.offset);
        }
        let mut extended = payload.to_vec();
        extended.push(0);
        assert_eq!(
            RequestView::parse(&extended).unwrap_err().kind,
            ProtoErrorKind::TrailingBytes
        );
        let mut bad_magic = payload.to_vec();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            RequestView::parse(&bad_magic).unwrap_err().kind,
            ProtoErrorKind::BadMagic
        );
        let mut bad_version = payload.to_vec();
        bad_version[4] = 99;
        assert!(matches!(
            RequestView::parse(&bad_version).unwrap_err().kind,
            ProtoErrorKind::UnsupportedVersion(_)
        ));
        let mut bad_utf8 = payload.to_vec();
        bad_utf8[18] = 0xff; // the 1-byte graph ID
        assert_eq!(
            RequestView::parse(&bad_utf8).unwrap_err().kind,
            ProtoErrorKind::BadUtf8
        );
    }

    #[test]
    fn checksummed_requests_reject_every_single_byte_flip() {
        let mut frame = Vec::new();
        encode_request(
            &mut frame,
            11,
            "g",
            FLAG_CHECKSUM | FLAG_CERTIFICATES,
            &[(0, 1)],
            &[(2, 3)],
        )
        .unwrap();
        let payload = &frame[4..];
        let req = RequestView::parse(payload).unwrap();
        assert_eq!(req.request_id(), 11);
        assert!(req.want_certificates());
        // Any one-byte corruption is a typed parse error, never a
        // silently different request.
        for i in 0..payload.len() {
            let mut bad = payload.to_vec();
            bad[i] ^= 0x40;
            assert!(
                RequestView::parse(&bad).is_err(),
                "flip at byte {i} parsed anyway"
            );
        }
    }

    #[test]
    fn checksummed_responses_reject_every_single_byte_flip() {
        let mut frame = Vec::new();
        encode_response_ok(&mut frame, 5, &[true, false], None).unwrap();
        for i in 0..frame.len() - 4 {
            let mut bad = frame[4..].to_vec();
            bad[i] ^= 0x08;
            assert!(
                decode_response(&bad).is_err(),
                "flip at byte {i} decoded anyway"
            );
        }
        // The checksum trailer itself is covered: flipping only it fails.
        let mut bad = frame[4..].to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert_eq!(
            decode_response(&bad).unwrap_err().kind,
            ProtoErrorKind::ChecksumMismatch
        );

        // Error responses carry the trailer too.
        let mut frame = Vec::new();
        encode_response_err(&mut frame, 6, ErrorCode::Overloaded, "busy");
        let resp = decode_response(&frame[4..]).unwrap();
        assert_eq!(
            resp.body,
            ResponseBody::Error {
                code: ErrorCode::Overloaded,
                message: "busy".into()
            }
        );
        let mut bad = frame[4..].to_vec();
        bad[20] ^= 0x01; // a message byte
        assert!(decode_response(&bad).is_err());
    }

    #[test]
    fn overloaded_code_round_trips_and_is_retryable() {
        assert_eq!(ErrorCode::from_u8(9), Some(ErrorCode::Overloaded));
        assert_eq!(ErrorCode::Overloaded.as_u8(), 9);
        assert!(ErrorCode::Overloaded.is_retryable());
        assert!(ErrorCode::ShuttingDown.is_retryable());
        assert!(!ErrorCode::BadFrame.is_retryable());
        assert!(!ErrorCode::QueryRejected.is_retryable());
    }

    #[test]
    fn encode_limits_are_enforced() {
        let mut out = vec![0xAA];
        assert_eq!(
            encode_request(&mut out, 1, "g", 0, &[(usize::MAX, 0)], &[]),
            Err(EncodeError::EndpointTooLarge(usize::MAX))
        );
        // Failed encodes leave prior buffer contents untouched.
        assert_eq!(out, vec![0xAA]);
        let long = "g".repeat(u16::MAX as usize + 1);
        assert!(matches!(
            encode_request(&mut out, 1, &long, 0, &[], &[]),
            Err(EncodeError::GraphIdTooLong(_))
        ));
        assert_eq!(out, vec![0xAA]);
    }
}

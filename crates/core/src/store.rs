//! The label archive: single-blob storage for a whole labeling, opened
//! zero-copy.
//!
//! A labeling is built once and its labels are served forever after; the
//! natural storage shape is therefore one indexed archive, not one byte
//! buffer per label. [`LabelStore`] writes a [`crate::LabelSet`] as a
//! single blob — magic, version, [`LabelHeader`], offset/endpoint index,
//! concatenated label bytes — and [`LabelStore::open`] takes ownership
//! of that blob without copying it, validates it **once**, and then
//! serves
//!
//! * [`LabelStore::vertex`] — O(1) zero-copy [`VertexLabelView`]s,
//! * [`LabelStore::edge`] — O(log m) zero-copy edge views resolved by
//!   endpoint pair (both the full and the compact half-width encodings,
//!   behind the archive's encoding tag),
//! * [`LabelStore::session`] — a ready [`QuerySession`] for a fault
//!   set named by endpoint pairs, built straight over the archive bytes,
//!
//! without materializing a single owned label. This is the canonical
//! interchange surface: `ftc-cli` ships archives, and
//! `ftc_routing::ForbiddenSetRouter` can be reconstituted from one
//! without re-running the scheme construction.
//!
//! # Byte layout (all little-endian)
//!
//! ```text
//! offset size        field
//! 0      4           magic "FTCL"
//! 4      2           format version (currently 1)
//! 6      1           edge encoding: 0 = full, 1 = compact
//! 7      1           reserved (0)
//! 8      16          LabelHeader { f: u32, aux_n: u32, tag: u64 }
//! 24     4           n  (number of vertex labels)
//! 28     4           m  (number of edge labels)
//! 32     4           vertex stride (fixed vertex-label byte length)
//! 36     4           endpoint-index entry count (distinct (u, v) pairs)
//! 40     (m+1)·8     edge offsets into the edge region, monotone, [0] = 0
//! …      count·12    endpoint index: (u: u32, v: u32, edge id: u32),
//!                    strictly sorted by (u, v) with u < v
//! …      n·stride    concatenated vertex label bytes (per-label layout
//!                    of `serial::vertex_to_bytes`, magic included)
//! …      rest        concatenated edge label bytes, in edge-ID order
//!                    (`serial::edge_to_bytes` or `edge_to_bytes_compact`)
//! end-8  8           whole-blob checksum (`ftc_compress::checksum64` of
//!                    every preceding byte), verified on open
//! ```
//!
//! Version 2 of the container — entropy-coded sections with per-section
//! checksums and O(header) opening — lives in [`crate::compressed`],
//! whose `open_path` memory-maps archives of either format so neither
//! requires materializing the blob on the heap.
//!
//! # Example
//!
//! ```
//! use ftc_core::store::{EdgeEncoding, LabelStore};
//! use ftc_core::{FtcScheme, Params};
//! use ftc_graph::Graph;
//!
//! let g = Graph::cycle(6);
//! let scheme = FtcScheme::builder(&g).params(&Params::deterministic(2)).build().unwrap();
//! let blob = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Full);
//!
//! // Later — possibly in another process — open and query zero-copy.
//! let store = LabelStore::open(blob).unwrap();
//! let session = store.session([(0, 1), (3, 4)]).unwrap();
//! assert!(!session.connected(store.vertex(1).unwrap(), store.vertex(4).unwrap()).unwrap());
//! assert!(session.connected(store.vertex(1).unwrap(), store.vertex(3).unwrap()).unwrap());
//! ```

use crate::ancestry::AncestryLabel;
use crate::error::QueryError;
use crate::labels::{
    EdgeLabel, EdgeLabelRead, EndpointIndex, LabelHeader, LabelSet, RsVector, VertexLabelRead,
};
use crate::mmap::ArchiveBytes;
use crate::scheme::{BuildCtx, LevelSink};
use crate::serial::{
    self, CompactEdgeLabelView, EdgeLabelView, SerialError, SerialErrorKind, VertexLabelView,
    VertexRecords, VERTEX_LABEL_BYTES,
};
use crate::session::{QuerySession, SessionScratch};
use ftc_field::Gf64;
use ftc_graph::Graph;
use std::fmt;
use std::io;
use std::sync::Arc;

pub(crate) const STORE_MAGIC: [u8; 4] = *b"FTCL";
pub(crate) const STORE_VERSION: u16 = 1;
/// Fixed-size prefix before the offset index.
pub(crate) const FIXED_HEADER_BYTES: usize = 40;
/// Bytes per endpoint-index entry.
pub(crate) const ENDPOINT_ENTRY_BYTES: usize = 12;
/// Trailing whole-blob checksum ([`ftc_compress::checksum64`]).
pub(crate) const TRAILING_CHECKSUM_BYTES: usize = 8;

/// How edge labels are encoded in an archive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeEncoding {
    /// Full `2k`-element Reed–Solomon syndromes per level
    /// ([`crate::serial::edge_to_bytes`] layout).
    Full,
    /// Half-width characteristic-two compression: only the `k` odd power
    /// sums per level ([`crate::serial::edge_to_bytes_compact`] layout);
    /// even ones are
    /// reconstructed as `s_{2j} = s_j²` on read.
    Compact,
}

impl EdgeEncoding {
    pub(crate) fn tag(self) -> u8 {
        match self {
            EdgeEncoding::Full => 0,
            EdgeEncoding::Compact => 1,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<EdgeEncoding> {
        match tag {
            0 => Some(EdgeEncoding::Full),
            1 => Some(EdgeEncoding::Compact),
            _ => None,
        }
    }
}

/// Errors raised while resolving labels out of an archive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// A fault was named by an endpoint pair the archive does not index.
    UnknownEdge {
        /// First requested endpoint.
        u: usize,
        /// Second requested endpoint.
        v: usize,
    },
    /// A fault was named by an edge ID outside the archive's `0..m`.
    UnknownEdgeId {
        /// The requested edge ID.
        id: usize,
    },
    /// The underlying session construction or query failed.
    Query(QueryError),
    /// Lazy validation of a compressed section failed on first touch
    /// (checksum mismatch or malformed payload).
    Corrupt(SerialError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownEdge { u, v } => {
                write!(f, "no edge {u}–{v} in the archived labeling")
            }
            StoreError::UnknownEdgeId { id } => {
                write!(f, "no edge with ID {id} in the archived labeling")
            }
            StoreError::Query(q) => write!(f, "archive query failed: {q}"),
            StoreError::Corrupt(e) => write!(f, "archive section corrupt: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<QueryError> for StoreError {
    fn from(q: QueryError) -> StoreError {
        StoreError::Query(q)
    }
}

/// A validated label archive: one owned, cheaply clonable handle over
/// the blob, the read surface of the store. See the [module docs](self)
/// for the byte layout and the complexity of each lookup.
///
/// The blob is shared, never copied: [`LabelStore::open`] wraps the
/// caller's `Vec`, clones bump a reference count, and
/// [`LabelStore::into_vec`] hands the `Vec` back from the last handle.
/// The handle is `Send + Sync`, the unit a concurrent serving layer
/// holds.
#[derive(Clone)]
pub struct LabelStore {
    bytes: Arc<ArchiveBytes>,
    meta: ArchiveMeta,
}

impl fmt::Debug for LabelStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabelStore")
            .field("n", &self.meta.n)
            .field("m", &self.meta.m)
            .field("encoding", &self.meta.encoding)
            .field("archive_bytes", &self.archive_bytes())
            .finish()
    }
}

/// Failure to open an archive from the filesystem: either the I/O
/// itself, or the bytes once read/mapped.
#[derive(Debug)]
pub enum StoreOpenError {
    /// Reading or mapping the file failed.
    Io(io::Error),
    /// The file's bytes are not a valid archive.
    Malformed(SerialError),
}

impl fmt::Display for StoreOpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreOpenError::Io(e) => write!(f, "archive I/O failed: {e}"),
            StoreOpenError::Malformed(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreOpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreOpenError::Io(e) => Some(e),
            StoreOpenError::Malformed(e) => Some(e),
        }
    }
}

impl From<io::Error> for StoreOpenError {
    fn from(e: io::Error) -> StoreOpenError {
        StoreOpenError::Io(e)
    }
}

impl From<SerialError> for StoreOpenError {
    fn from(e: SerialError) -> StoreOpenError {
        StoreOpenError::Malformed(e)
    }
}

/// Parsed archive framing: everything a [`LabelStore`] knows beyond the
/// bytes themselves.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArchiveMeta {
    pub(crate) header: LabelHeader,
    pub(crate) encoding: EdgeEncoding,
    pub(crate) n: usize,
    pub(crate) m: usize,
    pub(crate) idx_count: usize,
    /// Byte position of the edge-offset table.
    pub(crate) offsets_at: usize,
    /// Byte position of the endpoint index.
    pub(crate) endpoint_at: usize,
    /// Byte position of the vertex label region.
    pub(crate) vertices_at: usize,
    /// Byte position of the edge label region.
    pub(crate) edges_at: usize,
}

impl ArchiveMeta {
    /// Byte span `[at, end)` of edge `e`'s record in `buf`.
    fn edge_span(&self, buf: &[u8], e: usize) -> (usize, usize) {
        let start = u64_at(buf, self.offsets_at + 8 * e) as usize;
        let end = u64_at(buf, self.offsets_at + 8 * (e + 1)) as usize;
        (self.edges_at + start, self.edges_at + end)
    }

    fn edge_view<'b>(
        &self,
        buf: &'b [u8],
        (at, end): (usize, usize),
    ) -> Result<ArchivedEdgeView<'b>, SerialError> {
        let bytes = &buf[at..end];
        Ok(match self.encoding {
            EdgeEncoding::Full => ArchivedEdgeView::Full(EdgeLabelView::new(bytes)?),
            EdgeEncoding::Compact => ArchivedEdgeView::Compact(CompactEdgeLabelView::new(bytes)?),
        })
    }
}

pub(crate) fn u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

pub(crate) fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

/// Decodes an endpoint-index region (12-byte `(u, v, edge id)` records)
/// into triples.
pub(crate) fn endpoint_entries(
    bytes: &[u8],
) -> impl ExactSizeIterator<Item = (usize, usize, usize)> + '_ {
    bytes.chunks_exact(ENDPOINT_ENTRY_BYTES).map(|rec| {
        (
            u32_at(rec, 0) as usize,
            u32_at(rec, 4) as usize,
            u32_at(rec, 8) as usize,
        )
    })
}

/// The edge ID an endpoint-index region (sorted 12-byte `(u, v, edge
/// id)` records) stores under `(u, v)`, either order — one binary
/// search. `None` when the pair is not indexed, including every pair
/// with an endpoint beyond `u32::MAX`, which no record can name.
pub(crate) fn find_edge_id(index: &[u8], u: usize, v: usize) -> Option<usize> {
    let key = (u32::try_from(u.min(v)).ok()?, u32::try_from(u.max(v)).ok()?);
    let (mut lo, mut hi) = (0usize, index.len() / ENDPOINT_ENTRY_BYTES);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let at = ENDPOINT_ENTRY_BYTES * mid;
        match (u32_at(index, at), u32_at(index, at + 4)).cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Some(u32_at(index, at + 8) as usize),
        }
    }
    None
}

/// Streams the fault labels `lookup` resolves into one session build.
/// The first lookup error stops the stream and is returned after the
/// fact (the partial build is discarded, its storage kept warm), so with
/// a warm `scratch` the build allocates nothing `lookup` does not.
pub(crate) fn stream_session<K, L: EdgeLabelRead<Vector = RsVector>>(
    header: LabelHeader,
    keys: impl IntoIterator<Item = K>,
    mut lookup: impl FnMut(K) -> Result<L, StoreError>,
    scratch: &mut SessionScratch<RsVector>,
) -> Result<QuerySession, StoreError> {
    let mut failed = None;
    let labels = keys
        .into_iter()
        .map_while(|key| lookup(key).map_err(|e| failed = Some(e)).ok());
    let session = QuerySession::new_in(header, labels, scratch);
    if let Some(e) = failed {
        if let Ok(partial) = session {
            scratch.recycle(partial);
        }
        return Err(e);
    }
    Ok(session?)
}

/// Validates a whole v1 archive — framing, index monotonicity, and every
/// contained label (magic, geometry, header agreement) — and returns its
/// parsed framing. Once it passes, every lookup is infallible index
/// arithmetic over pre-validated bytes.
///
/// # Errors
///
/// [`SerialError`] carrying the archive byte offset at which validation
/// failed.
pub(crate) fn parse_v1(bytes: &[u8]) -> Result<ArchiveMeta, SerialError> {
    let truncated = |at: usize| SerialError::new(SerialErrorKind::Truncated, at);
    let inconsistent = |at: usize| SerialError::new(SerialErrorKind::Inconsistent, at);
    if bytes.len() < FIXED_HEADER_BYTES {
        return Err(truncated(bytes.len()));
    }
    if bytes[..4] != STORE_MAGIC {
        return Err(SerialError::new(SerialErrorKind::BadMagic, 0));
    }
    if u16::from_le_bytes(bytes[4..6].try_into().unwrap()) != STORE_VERSION {
        return Err(SerialError::new(SerialErrorKind::UnsupportedVersion, 4));
    }
    let encoding = EdgeEncoding::from_tag(bytes[6]).ok_or(inconsistent(6))?;
    if bytes[7] != 0 {
        return Err(inconsistent(7));
    }
    let header = LabelHeader {
        f: u32_at(bytes, 8),
        aux_n: u32_at(bytes, 12),
        tag: u64_at(bytes, 16),
    };
    let n = u32_at(bytes, 24) as usize;
    let m = u32_at(bytes, 28) as usize;
    let stride = u32_at(bytes, 32) as usize;
    if stride != VERTEX_LABEL_BYTES {
        return Err(inconsistent(32));
    }
    let idx_count = u32_at(bytes, 36) as usize;
    if idx_count > m {
        return Err(inconsistent(36));
    }
    // Everything after the fixed header and before the trailing
    // whole-blob checksum is the archive body.
    if bytes.len() < FIXED_HEADER_BYTES + TRAILING_CHECKSUM_BYTES {
        return Err(truncated(bytes.len()));
    }
    let body_len = bytes.len() - TRAILING_CHECKSUM_BYTES;

    let offsets_at = FIXED_HEADER_BYTES;
    let offsets_len = (m as u64 + 1) * 8;
    let endpoint_len = idx_count as u64 * ENDPOINT_ENTRY_BYTES as u64;
    let vertex_len = n as u64 * stride as u64;
    let endpoint_at = offsets_at as u64 + offsets_len;
    let vertices_at = endpoint_at + endpoint_len;
    let edges_at = vertices_at + vertex_len;
    if edges_at > body_len as u64 {
        return Err(truncated(bytes.len()));
    }
    let (endpoint_at, vertices_at, edges_at) = (
        endpoint_at as usize,
        vertices_at as usize,
        edges_at as usize,
    );

    // Edge offsets: zero-based, monotone, ending exactly at the end of
    // the body (the trailing checksum is not part of any region).
    let edge_region_len = (body_len - edges_at) as u64;
    let mut prev = 0u64;
    for e in 0..=m {
        let off = u64_at(bytes, offsets_at + 8 * e);
        if (e == 0 && off != 0) || off < prev || off > edge_region_len {
            return Err(inconsistent(offsets_at + 8 * e));
        }
        prev = off;
    }
    if prev != edge_region_len {
        return Err(inconsistent(offsets_at + 8 * m));
    }

    // Endpoint index: strictly sorted normalized pairs, edge IDs in
    // range.
    let mut prev_pair: Option<(u32, u32)> = None;
    for i in 0..idx_count {
        let at = endpoint_at + ENDPOINT_ENTRY_BYTES * i;
        let u = u32_at(bytes, at);
        let v = u32_at(bytes, at + 4);
        let e = u32_at(bytes, at + 8) as usize;
        if u >= v || e >= m || prev_pair.is_some_and(|p| p >= (u, v)) {
            return Err(inconsistent(at));
        }
        prev_pair = Some((u, v));
    }

    let meta = ArchiveMeta {
        header,
        encoding,
        n,
        m,
        idx_count,
        offsets_at,
        endpoint_at,
        vertices_at,
        edges_at,
    };

    // Validate every label once; lookups then skip re-validation.
    let rebase = |err: SerialError, base: usize| SerialError::new(err.kind, base + err.offset);
    for v in 0..n {
        let at = vertices_at + v * stride;
        let vl = VertexLabelView::new(&bytes[at..at + stride]).map_err(|e| rebase(e, at))?;
        if VertexLabelRead::header(&vl) != header {
            return Err(inconsistent(at));
        }
    }
    // Edge labels must additionally agree on the codec geometry
    // (threshold k and level count): the merge engine asserts uniform
    // widths, so a mixed-geometry archive must fail here — at open, with
    // an offset — not panic inside a later session.
    let mut geometry: Option<(usize, usize)> = None;
    for e in 0..m {
        let span = meta.edge_span(bytes, e);
        let label = meta
            .edge_view(bytes, span)
            .map_err(|err| rebase(err, span.0))?;
        if label.header() != header {
            return Err(inconsistent(span.0));
        }
        let this = (label.k(), label.levels());
        match geometry {
            None => geometry = Some(this),
            Some(first) if first != this => return Err(inconsistent(span.0)),
            Some(_) => {}
        }
    }
    // Last line of defense: payload corruption that keeps every
    // structural invariant (a flipped syndrome word, say) is caught by
    // the whole-blob checksum.
    if u64_at(bytes, body_len) != ftc_compress::checksum64(&bytes[..body_len]) {
        return Err(SerialError::new(SerialErrorKind::Checksum, body_len));
    }
    Ok(meta)
}

impl LabelStore {
    /// Archives a label set under the given edge encoding.
    pub fn archive(labels: &LabelSet<RsVector>, encoding: EdgeEncoding) -> LabelStore {
        LabelStore::open(encode(labels, encoding))
            .expect("freshly encoded archives are well-formed")
    }

    /// Serializes a label set into a fresh byte vector.
    pub fn to_vec(labels: &LabelSet<RsVector>, encoding: EdgeEncoding) -> Vec<u8> {
        encode(labels, encoding)
    }

    /// Takes ownership of an archive blob, validating it in full, without
    /// copying it. After `open` succeeds, all lookups are infallible
    /// index arithmetic over pre-validated bytes.
    ///
    /// # Errors
    ///
    /// [`SerialError`] carrying the archive byte offset at which
    /// validation failed.
    pub fn open(bytes: Vec<u8>) -> Result<LabelStore, SerialError> {
        LabelStore::open_buf(Arc::new(ArchiveBytes::Heap(bytes)))
    }

    /// [`LabelStore::open`] over a buffer of either kind (shared with the
    /// version-dispatching [`crate::compressed::open_path`]).
    pub(crate) fn open_buf(bytes: Arc<ArchiveBytes>) -> Result<LabelStore, SerialError> {
        let meta = parse_v1(bytes.bytes())?;
        Ok(LabelStore { bytes, meta })
    }

    /// Wraps a blob whose framing was just written by this crate's own
    /// archive writers, skipping the full `open` validation pass (which
    /// is O(archive) and would double the cost of every dynamic commit).
    /// The caller guarantees `meta` describes `bytes` exactly.
    pub(crate) fn from_parts_trusted(bytes: Vec<u8>, meta: ArchiveMeta) -> LabelStore {
        debug_assert!(
            parse_v1(&bytes).is_ok(),
            "trusted archive parts must form a well-formed blob"
        );
        LabelStore {
            bytes: Arc::new(ArchiveBytes::Heap(bytes)),
            meta,
        }
    }

    /// Consumes the handle, returning the archive bytes: the blob itself
    /// when this is the only handle of a heap blob, a copy otherwise.
    pub fn into_vec(self) -> Vec<u8> {
        ArchiveBytes::into_vec(self.bytes)
    }

    /// The blob itself when this is the only handle of a heap blob — the
    /// allocation a writer can reuse; otherwise the handle back.
    ///
    /// # Errors
    ///
    /// The handle, untouched, while another handle shares the blob or the
    /// blob is a memory-mapped file.
    pub fn try_into_vec(self) -> Result<Vec<u8>, LabelStore> {
        let meta = self.meta;
        ArchiveBytes::try_into_vec(self.bytes).map_err(|bytes| LabelStore { bytes, meta })
    }

    /// The shared labeling header.
    pub fn header(&self) -> LabelHeader {
        self.meta.header
    }

    /// The edge encoding this archive stores.
    pub fn encoding(&self) -> EdgeEncoding {
        self.meta.encoding
    }

    /// Number of archived vertex labels.
    pub fn n(&self) -> usize {
        self.meta.n
    }

    /// Number of archived edge labels.
    pub fn m(&self) -> usize {
        self.meta.m
    }

    /// Total archive size in bytes.
    pub fn archive_bytes(&self) -> usize {
        self.as_bytes().len()
    }

    /// The raw archive bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.bytes()
    }

    /// Byte accounting of the archive regions, in the shape of the v2
    /// section table ([`SectionInfo`](crate::compressed::SectionInfo)):
    /// endpoint index, vertex labels, per-edge metadata prefixes, and one
    /// entry per hierarchy level of payload rows. v1 stores everything
    /// raw, so `comp_len == raw_len` and `transform == 0`. Level-row
    /// entries account each level's share of every record's payload even
    /// though v1 interleaves levels record-major rather than storing them
    /// contiguously; the fixed header, offset table, and trailing
    /// checksum are framing and appear in no section, so the sections sum
    /// to less than [`archive_bytes`](Self::archive_bytes).
    ///
    /// Only the uniform-record geometry of builder/patch archives is
    /// broken down per level; archives whose records disagree on
    /// `(k, levels)` report a single `level-rows` entry covering all
    /// payload bytes.
    pub fn sections(&self) -> Vec<crate::compressed::SectionInfo> {
        use crate::compressed::{SectionInfo, SectionKind};
        let raw = |kind, level, raw_len| SectionInfo {
            kind,
            level,
            raw_len,
            comp_len: raw_len,
            transform: 0,
        };
        let m = self.meta.m;
        let mut out = vec![
            raw(
                SectionKind::EndpointIndex,
                None,
                self.meta.vertices_at - self.meta.endpoint_at,
            ),
            raw(
                SectionKind::VertexLabels,
                None,
                self.meta.edges_at - self.meta.vertices_at,
            ),
            raw(SectionKind::EdgeMeta, None, m * serial::EDGE_WORDS_OFFSET),
        ];
        let payload = self.archive_bytes()
            - self.meta.edges_at
            - m * serial::EDGE_WORDS_OFFSET
            - TRAILING_CHECKSUM_BYTES;
        let uniform = self.edge_by_id(0).map(|e| (e.k(), e.levels()));
        match uniform {
            Some((k, levels))
                if levels > 0
                    && payload == m * 8 * payload_words(self.meta.encoding, k, levels) =>
            {
                let level_bytes = payload / levels;
                out.extend(
                    (0..levels).map(|lvl| raw(SectionKind::LevelRows, Some(lvl), level_bytes)),
                );
            }
            _ => out.push(raw(SectionKind::LevelRows, None, payload)),
        }
        out
    }

    pub(crate) fn meta(&self) -> &ArchiveMeta {
        &self.meta
    }

    pub(crate) fn edge_span(&self, e: usize) -> (usize, usize) {
        self.meta.edge_span(self.as_bytes(), e)
    }

    /// The vertex records — the blob's vertex region, validated at open
    /// and read zero-copy.
    pub fn vertex_records(&self) -> VertexRecords<'_> {
        let at = self.meta.vertices_at;
        VertexRecords::new(&self.as_bytes()[at..at + self.meta.n * VERTEX_LABEL_BYTES])
    }

    /// The label of vertex `v` as a zero-copy view — O(1); `None` when
    /// `v` is out of range. The view borrows from `self`.
    pub fn vertex(&self, v: usize) -> Option<VertexLabelView<'_>> {
        self.vertex_records().get(v)
    }

    /// The label of the edge with original edge ID `e` as a zero-copy
    /// view — O(1); `None` when `e` is out of range.
    pub fn edge_by_id(&self, e: usize) -> Option<ArchivedEdgeView<'_>> {
        if e >= self.meta.m {
            return None;
        }
        let span = self.edge_span(e);
        Some(
            self.meta
                .edge_view(self.as_bytes(), span)
                .expect("validated at open"),
        )
    }

    /// The edge ID of the edge joining `u` and `v` (either order) —
    /// O(log m) binary search over the endpoint index; `None` when no
    /// such edge is archived.
    pub fn edge_id(&self, u: usize, v: usize) -> Option<usize> {
        find_edge_id(self.endpoint_bytes(), u, v)
    }

    /// The label of the edge joining `u` and `v` (either order) as a
    /// zero-copy view — O(log m); `None` when no such edge is archived.
    pub fn edge(&self, u: usize, v: usize) -> Option<ArchivedEdgeView<'_>> {
        self.edge_by_id(self.edge_id(u, v)?)
    }

    /// Iterates the endpoint index as `(u, v, edge id)` triples, in
    /// sorted endpoint order.
    pub fn endpoint_index(&self) -> impl ExactSizeIterator<Item = (usize, usize, usize)> + '_ {
        endpoint_entries(self.endpoint_bytes())
    }

    /// The raw endpoint-index region (the layout v2's endpoint section
    /// decodes to).
    pub(crate) fn endpoint_bytes(&self) -> &[u8] {
        &self.as_bytes()[self.meta.endpoint_at..self.meta.vertices_at]
    }

    /// Opens a [`QuerySession`] for a fault set named by endpoint pairs,
    /// built straight over the archive bytes — the archive-native
    /// equivalent of [`LabelSet::session`]. An empty fault set is valid.
    ///
    /// # Errors
    ///
    /// * [`StoreError::UnknownEdge`] if a pair is not an archived edge;
    /// * [`StoreError::Query`] on session-construction failures
    ///   (over-budget fault sets, calibrated-threshold decode failures).
    pub fn session<I>(&self, faults: I) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        self.session_in(faults, &mut SessionScratch::default())
    }

    /// Scratch-reusing variant of [`LabelStore::session`]: the
    /// archive-native serving hot path. Fault views resolve through the
    /// endpoint index and stream straight into the merge engine; with a
    /// warm `scratch` the whole build performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LabelStore::session`].
    pub fn session_in<I>(
        &self,
        faults: I,
        scratch: &mut SessionScratch<RsVector>,
    ) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        stream_session(
            self.meta.header,
            faults,
            |(u, v)| self.edge(u, v).ok_or(StoreError::UnknownEdge { u, v }),
            scratch,
        )
    }
}

/// A zero-copy edge label view resolved out of an archive: full or
/// compact encoding behind one tag. Implements [`EdgeLabelRead`], so it
/// feeds [`QuerySession`]s directly.
#[derive(Clone, Copy, Debug)]
pub enum ArchivedEdgeView<'a> {
    /// Full `2k`-syndrome encoding.
    Full(EdgeLabelView<'a>),
    /// Half-width characteristic-two encoding.
    Compact(CompactEdgeLabelView<'a>),
}

impl ArchivedEdgeView<'_> {
    /// Copies the view out into an owned label.
    pub fn to_label(&self) -> EdgeLabel<RsVector> {
        match self {
            ArchivedEdgeView::Full(v) => v.to_label(),
            ArchivedEdgeView::Compact(v) => v.to_label(),
        }
    }

    /// The codec threshold `k` of the carried vector.
    pub fn k(&self) -> usize {
        match self {
            ArchivedEdgeView::Full(v) => v.k(),
            ArchivedEdgeView::Compact(v) => v.k(),
        }
    }

    /// Number of hierarchy levels carried.
    pub fn levels(&self) -> usize {
        match self {
            ArchivedEdgeView::Full(v) => {
                let k = v.k();
                if k == 0 {
                    0
                } else {
                    v.num_words() / (2 * k)
                }
            }
            ArchivedEdgeView::Compact(v) => v.levels(),
        }
    }
}

impl EdgeLabelRead for ArchivedEdgeView<'_> {
    type Vector = RsVector;

    fn header(&self) -> LabelHeader {
        match self {
            ArchivedEdgeView::Full(v) => v.header(),
            ArchivedEdgeView::Compact(v) => v.header(),
        }
    }

    fn anc_upper(&self) -> AncestryLabel {
        match self {
            ArchivedEdgeView::Full(v) => v.anc_upper(),
            ArchivedEdgeView::Compact(v) => v.anc_upper(),
        }
    }

    fn anc_lower(&self) -> AncestryLabel {
        match self {
            ArchivedEdgeView::Full(v) => v.anc_lower(),
            ArchivedEdgeView::Compact(v) => v.anc_lower(),
        }
    }

    fn slab_words(&self) -> usize {
        match self {
            ArchivedEdgeView::Full(v) => EdgeLabelRead::slab_words(v),
            ArchivedEdgeView::Compact(v) => EdgeLabelRead::slab_words(v),
        }
    }

    fn xor_into_slab(&self, dst: &mut [u64]) {
        match self {
            ArchivedEdgeView::Full(v) => v.xor_into_slab(dst),
            ArchivedEdgeView::Compact(v) => v.xor_into_slab(dst),
        }
    }

    fn configure_detector(&self, det: &mut crate::labels::RsDetector) {
        match self {
            ArchivedEdgeView::Full(v) => EdgeLabelRead::configure_detector(v, det),
            ArchivedEdgeView::Compact(v) => EdgeLabelRead::configure_detector(v, det),
        }
    }
}

// ---------------------------------------------------------------------------
// Archive writing
// ---------------------------------------------------------------------------

/// Positional little-endian field writers over a pre-sized blob.
fn put_u16(buf: &mut [u8], at: usize, x: u16) {
    buf[at..at + 2].copy_from_slice(&x.to_le_bytes());
}

fn put_u32(buf: &mut [u8], at: usize, x: u32) {
    buf[at..at + 4].copy_from_slice(&x.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut [u8], at: usize, x: u64) {
    buf[at..at + 8].copy_from_slice(&x.to_le_bytes());
}

fn put_header(buf: &mut [u8], at: usize, h: LabelHeader) {
    put_u32(buf, at, h.f);
    put_u32(buf, at + 4, h.aux_n);
    put_u64(buf, at + 8, h.tag);
}

fn put_anc(buf: &mut [u8], at: usize, a: &AncestryLabel) {
    put_u32(buf, at, a.pre);
    put_u32(buf, at + 4, a.last);
    put_u32(buf, at + 8, a.comp);
}

/// Writes the 40-byte fixed v1 header at the start of `buf`. `version`
/// is a parameter because the v2 container reuses the same prologue.
pub(crate) fn write_fixed_header(
    buf: &mut [u8],
    version: u16,
    header: LabelHeader,
    encoding: EdgeEncoding,
    n: usize,
    m: usize,
    idx_count: usize,
) {
    buf[..4].copy_from_slice(&STORE_MAGIC);
    put_u16(buf, 4, version);
    buf[6] = encoding.tag();
    buf[7] = 0;
    put_header(buf, 8, header);
    put_u32(buf, 24, n as u32);
    put_u32(buf, 28, m as u32);
    put_u32(buf, 32, VERTEX_LABEL_BYTES as u32);
    put_u32(buf, 36, idx_count as u32);
}

/// Writes the endpoint index region at `at`.
pub(crate) fn write_endpoint_index(buf: &mut [u8], at: usize, index: &EndpointIndex) {
    for (i, (u, v, e)) in index.iter().enumerate() {
        let rec = at + ENDPOINT_ENTRY_BYTES * i;
        put_u32(buf, rec, u as u32);
        put_u32(buf, rec + 4, v as u32);
        put_u32(buf, rec + 8, e as u32);
    }
}

/// Writes one vertex record at `at` — the only writer of the
/// [`serial::vertex_to_bytes`] layout.
pub(crate) fn write_vertex_record(
    buf: &mut [u8],
    at: usize,
    header: LabelHeader,
    anc: &AncestryLabel,
) {
    put_u16(buf, at, serial::VERTEX_MAGIC);
    put_header(buf, at + 2, header);
    put_anc(buf, at + 2 + serial::HEADER_BYTES, anc);
}

/// Writes the vertex-label region at `at`.
pub(crate) fn write_vertex_labels(
    buf: &mut [u8],
    at: usize,
    n: usize,
    header: LabelHeader,
    vertex_anc: impl Fn(usize) -> AncestryLabel,
) {
    for v in 0..n {
        write_vertex_record(buf, at + v * VERTEX_LABEL_BYTES, header, &vertex_anc(v));
    }
}

/// Writes the archive's fixed header, edge-offset table, endpoint index,
/// and vertex-label region into a pre-sized blob. Shared by the owned
/// [`encode`] path, the streaming [`stream_from_build`] path, and the
/// v2 decompressor so all three produce identical framing bytes by
/// construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_framing(
    buf: &mut [u8],
    header: LabelHeader,
    encoding: EdgeEncoding,
    n: usize,
    m: usize,
    index: &EndpointIndex,
    edge_offset: impl Fn(usize) -> u64,
    vertex_anc: impl Fn(usize) -> AncestryLabel,
) {
    write_fixed_header(buf, STORE_VERSION, header, encoding, n, m, index.len());
    let offsets_at = FIXED_HEADER_BYTES;
    for e in 0..=m {
        put_u64(buf, offsets_at + 8 * e, edge_offset(e));
    }
    let endpoint_at = offsets_at + (m + 1) * 8;
    write_endpoint_index(buf, endpoint_at, index);
    let vertices_at = endpoint_at + index.len() * ENDPOINT_ENTRY_BYTES;
    write_vertex_labels(buf, vertices_at, n, header, vertex_anc);
}

/// Computes and writes the trailing whole-blob checksum into the final
/// 8 bytes of `buf`.
pub(crate) fn seal_v1_checksum(buf: &mut [u8]) {
    let body_len = buf.len() - TRAILING_CHECKSUM_BYTES;
    let sum = ftc_compress::checksum64(&buf[..body_len]);
    put_u64(buf, body_len, sum);
}

/// Writes one edge record's fixed prefix (everything before the syndrome
/// words): magic, header, both ancestry labels, `k`, and the payload
/// geometry field (`2k·levels` for full records, `levels` for compact).
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_edge_prefix(
    buf: &mut [u8],
    at: usize,
    header: LabelHeader,
    anc_upper: &AncestryLabel,
    anc_lower: &AncestryLabel,
    encoding: EdgeEncoding,
    k: usize,
    levels: usize,
) {
    put_u16(
        buf,
        at,
        match encoding {
            EdgeEncoding::Full => serial::EDGE_MAGIC,
            EdgeEncoding::Compact => serial::COMPACT_EDGE_MAGIC,
        },
    );
    put_header(buf, at + 2, header);
    put_anc(buf, at + 2 + serial::HEADER_BYTES, anc_upper);
    put_anc(
        buf,
        at + 2 + serial::HEADER_BYTES + serial::ANC_BYTES,
        anc_lower,
    );
    let geom_at = at + serial::EDGE_WORDS_OFFSET - 8;
    put_u32(buf, geom_at, k as u32);
    put_u32(
        buf,
        geom_at + 4,
        match encoding {
            EdgeEncoding::Full => (2 * k * levels) as u32,
            EdgeEncoding::Compact => levels as u32,
        },
    );
}

/// Stored payload words per edge record under an encoding.
pub(crate) fn payload_words(encoding: EdgeEncoding, k: usize, levels: usize) -> usize {
    match encoding {
        EdgeEncoding::Full => 2 * k * levels,
        EdgeEncoding::Compact => k * levels,
    }
}

/// Byte length of one edge record under an encoding.
pub(crate) fn record_len(encoding: EdgeEncoding, k: usize, levels: usize) -> usize {
    serial::EDGE_WORDS_OFFSET + 8 * payload_words(encoding, k, levels)
}

/// Writes one owned edge label's complete record at `at`, prefix and
/// syndrome words — the only writer of the [`serial::edge_to_bytes`]
/// and [`serial::edge_to_bytes_compact`] layouts outside the streaming
/// build.
pub(crate) fn write_edge_record(
    buf: &mut [u8],
    at: usize,
    header: LabelHeader,
    label: &EdgeLabel<RsVector>,
    encoding: EdgeEncoding,
) {
    let vec = &label.vec;
    write_edge_prefix(
        buf,
        at,
        header,
        &label.anc_upper,
        &label.anc_lower,
        encoding,
        vec.k(),
        vec.levels(),
    );
    // Compact records keep the odd power sums only: s₁, s₃, … (even ones
    // are Frobenius squares, reconstructed on read).
    let step = match encoding {
        EdgeEncoding::Full => 1,
        EdgeEncoding::Compact => 2,
    };
    let words_at = at + serial::EDGE_WORDS_OFFSET;
    for (i, x) in vec.raw().iter().step_by(step).enumerate() {
        put_u64(buf, words_at + 8 * i, x.to_bits());
    }
}

/// Serializes a label set into the archive layout — one pre-sized output
/// buffer, written in place (no per-edge byte buffers).
fn encode(labels: &LabelSet<RsVector>, encoding: EdgeEncoding) -> Vec<u8> {
    let n = labels.n();
    let m = labels.m();
    let header = labels.header();

    // Per-edge record lengths (uniform for every labeling our builders
    // produce, but the offset table supports arbitrary lengths — keep
    // the general form).
    let mut edge_total = 0usize;
    let mut offsets = Vec::with_capacity(m + 1);
    for label in labels.edge_labels() {
        offsets.push(edge_total as u64);
        edge_total += record_len(encoding, label.vec.k(), label.vec.levels());
    }
    offsets.push(edge_total as u64);

    let edges_at = FIXED_HEADER_BYTES
        + (m + 1) * 8
        + labels.edge_index.len() * ENDPOINT_ENTRY_BYTES
        + n * VERTEX_LABEL_BYTES;
    let mut out = vec![0u8; edges_at + edge_total + TRAILING_CHECKSUM_BYTES];
    write_framing(
        &mut out,
        header,
        encoding,
        n,
        m,
        &labels.edge_index,
        |e| offsets[e],
        |v| labels.vertex_label(v).anc,
    );
    for (label, &off) in labels.edge_labels().zip(&offsets) {
        write_edge_record(&mut out, edges_at + off as usize, header, label, encoding);
    }
    seal_v1_checksum(&mut out);
    out
}

/// [`LevelSink`] writing syndrome rows straight into their final
/// positions inside a serialized archive blob — the streaming
/// build-to-archive path. Full records store the whole `2k`-element row;
/// compact records store the `k` odd power sums.
struct ArchivePayloadSink {
    base: *mut u8,
    len: usize,
    /// Byte position of edge 0's first payload word.
    first_payload_at: usize,
    /// Bytes between consecutive edges' payloads (one record length).
    record_stride: usize,
    /// Bytes between consecutive level rows within a record.
    level_stride: usize,
    encoding: EdgeEncoding,
}

// SAFETY: see the `LevelSink` contract — `build_subtree_sums` workers
// write disjoint `(edge, level)` windows, never overlapping, never read.
unsafe impl Sync for ArchivePayloadSink {}

impl LevelSink for ArchivePayloadSink {
    fn write_row(&self, e: usize, level: usize, row: &[Gf64]) {
        let at = self.first_payload_at + e * self.record_stride + level * self.level_stride;
        debug_assert!(at + self.level_stride <= self.len);
        let write_word = |i: usize, x: Gf64| {
            let bytes = x.to_bits().to_le_bytes();
            // SAFETY: `at + 8i + 8 ≤ at + level_stride ≤ len` (debug-
            // asserted above; guaranteed by the layout arithmetic in
            // `stream_from_build`), and no other worker touches this
            // window.
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.base.add(at + 8 * i), 8);
            }
        };
        match self.encoding {
            EdgeEncoding::Full => {
                for (i, &x) in row.iter().enumerate() {
                    write_word(i, x);
                }
            }
            EdgeEncoding::Compact => {
                for (i, &x) in row.iter().step_by(2).enumerate() {
                    write_word(i, x);
                }
            }
        }
    }
}

/// Lays out and fills a complete archive straight from a prepared build:
/// framing, index, vertex labels, and every edge record's prefix are
/// written up front; the subtree-sums workers then write each `(edge,
/// level)` syndrome row into its final blob position. The labeling is
/// never materialized as owned labels, so peak memory is one blob plus
/// O(threads) worker accumulators.
pub(crate) fn stream_from_build(
    g: &Graph,
    ctx: &BuildCtx,
    threads: usize,
    encoding: EdgeEncoding,
) -> LabelStore {
    let (n, m) = (g.n(), g.m());
    let (k, levels, header) = (ctx.k, ctx.levels, ctx.header);
    let words = payload_words(encoding, k, levels);
    let record_len = record_len(encoding, k, levels);
    let index = EndpointIndex::from_edges(g.edge_iter().map(|(_, u, v)| (u, v)));

    let edges_at = FIXED_HEADER_BYTES
        + (m + 1) * 8
        + index.len() * ENDPOINT_ENTRY_BYTES
        + n * VERTEX_LABEL_BYTES;
    let mut buf = vec![0u8; edges_at + m * record_len + TRAILING_CHECKSUM_BYTES];
    write_framing(
        &mut buf,
        header,
        encoding,
        n,
        m,
        &index,
        |e| (e * record_len) as u64,
        |v| ctx.aux.anc[v],
    );
    for (e, &lower) in ctx.aux.sigma_lower.iter().enumerate() {
        let upper = ctx.aux.tree.parent(lower).expect("σ(e) lower has a parent");
        write_edge_prefix(
            &mut buf,
            edges_at + e * record_len,
            header,
            &ctx.aux.anc[upper],
            &ctx.aux.anc[lower],
            encoding,
            k,
            levels,
        );
    }
    {
        let sink = ArchivePayloadSink {
            base: buf.as_mut_ptr(),
            len: buf.len(),
            first_payload_at: edges_at + serial::EDGE_WORDS_OFFSET,
            record_stride: record_len,
            level_stride: 8 * words / levels.max(1),
            encoding,
        };
        crate::scheme::build_subtree_sums(&ctx.aux, &ctx.hierarchy, k, levels, threads, &sink);
    }
    seal_v1_checksum(&mut buf);
    LabelStore::open(buf).expect("freshly built archives are well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::scheme::FtcScheme;
    use ftc_graph::Graph;

    fn open(blob: &[u8]) -> Result<LabelStore, SerialError> {
        LabelStore::open(blob.to_vec())
    }

    fn archive(encoding: EdgeEncoding) -> (Graph, Vec<u8>) {
        let g = Graph::torus(3, 4);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let blob = LabelStore::to_vec(scheme.labels(), encoding);
        (g, blob)
    }

    #[test]
    fn round_trips_both_encodings() {
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            let g = Graph::torus(3, 4);
            let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
            let l = scheme.labels();
            let blob = LabelStore::to_vec(l, encoding);
            let view = open(&blob).unwrap();
            assert_eq!(view.encoding(), encoding);
            assert_eq!(view.n(), g.n());
            assert_eq!(view.m(), g.m());
            assert_eq!(view.header(), l.header());
            for v in 0..g.n() {
                assert_eq!(&view.vertex(v).unwrap().to_label(), l.vertex_label(v));
            }
            for e in 0..g.m() {
                assert_eq!(
                    &view.edge_by_id(e).unwrap().to_label(),
                    l.edge_label_by_id(e)
                );
            }
            for (_, u, v) in g.edge_iter() {
                let via_pair = view.edge(u, v).unwrap().to_label();
                assert_eq!(Some(&via_pair), l.edge_label(u, v));
                // Reversed endpoint order resolves too.
                assert_eq!(view.edge_id(v, u), view.edge_id(u, v));
            }
            assert!(view.edge(0, 99).is_none());
            assert!(view.vertex(g.n()).is_none());
        }
    }

    #[test]
    fn loose_labels_match_archived_records() {
        // The loose serializers and the archive writers must agree byte
        // for byte, for the owned encoder and the streaming build alike.
        let g = Graph::torus(3, 4);
        let params = Params::deterministic(2);
        let scheme = FtcScheme::build(&g, &params).unwrap();
        let l = scheme.labels();
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            let owned = LabelStore::to_vec(l, encoding);
            let (streamed, _) = FtcScheme::builder(&g)
                .params(&params)
                .build_store(encoding)
                .unwrap();
            assert_eq!(streamed.as_bytes(), &owned[..]);
            let view = &streamed;
            let blob = view.as_bytes();
            for e in 0..view.m() {
                let (at, end) = view.edge_span(e);
                let loose = match encoding {
                    EdgeEncoding::Full => serial::edge_to_bytes(l.edge_label_by_id(e)),
                    EdgeEncoding::Compact => serial::edge_to_bytes_compact(l.edge_label_by_id(e)),
                };
                assert_eq!(&blob[at..end], &loose[..], "{encoding:?} edge {e}");
            }
            for v in 0..view.n() {
                let at = view.meta().vertices_at + v * VERTEX_LABEL_BYTES;
                assert_eq!(
                    &blob[at..at + VERTEX_LABEL_BYTES],
                    &serial::vertex_to_bytes(l.vertex_label(v))[..],
                    "vertex {v}"
                );
            }
        }
    }

    #[test]
    fn zero_threshold_records_with_words_rejected() {
        // A full record claiming k = 0 but carrying syndrome words would
        // configure a zero-level detector that ignores every stored word;
        // it is rejected at the word-count field.
        let g = Graph::cycle(5);
        let scheme = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let l = scheme.labels();
        let want = |base: usize| {
            SerialError::new(
                SerialErrorKind::Inconsistent,
                base + serial::EDGE_WORDS_OFFSET - 4,
            )
        };
        let k_field =
            |buf: &mut [u8], at: usize| put_u32(buf, at + serial::EDGE_WORDS_OFFSET - 8, 0);

        // Loose bytes: the zero-copy view and the owned parser.
        let mut loose = serial::edge_to_bytes(l.edge_label_by_id(0));
        k_field(&mut loose, 0);
        assert_eq!(EdgeLabelView::new(&loose).unwrap_err(), want(0));
        assert_eq!(serial::edge_from_bytes(&loose).unwrap_err(), want(0));

        // A resealed v1 archive whose every record claims k = 0 (so the
        // uniform-geometry check cannot catch it).
        let mut blob = LabelStore::to_vec(l, EdgeEncoding::Full);
        let spans: Vec<_> = {
            let view = open(&blob).unwrap();
            (0..view.m()).map(|e| view.edge_span(e).0).collect()
        };
        for &at in &spans {
            k_field(&mut blob, at);
        }
        seal_v1_checksum(&mut blob);
        assert_eq!(open(&blob).unwrap_err(), want(spans[0]));
    }

    #[test]
    fn compact_archives_are_smaller() {
        let (_, full) = archive(EdgeEncoding::Full);
        let (_, compact) = archive(EdgeEncoding::Compact);
        assert!(
            compact.len() < full.len(),
            "compact {} should undercut full {}",
            compact.len(),
            full.len()
        );
    }

    #[test]
    fn sessions_from_archives_answer_queries() {
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            let (_, blob) = archive(encoding);
            let view = open(&blob).unwrap();
            // Torus(3,4) is 4-edge-connected; two faults keep it connected.
            let session = view.session([(0, 1), (0, 4)]).unwrap();
            assert_eq!(
                session.connected(view.vertex(0).unwrap(), view.vertex(7).unwrap()),
                Ok(true)
            );
            // Unknown fault edges are named, not silently dropped.
            assert_eq!(
                view.session([(0, 99)]).unwrap_err(),
                StoreError::UnknownEdge { u: 0, v: 99 }
            );
        }
    }

    #[test]
    fn truncation_and_corruption_rejected_without_panic() {
        let (_, blob) = archive(EdgeEncoding::Full);
        // Every prefix is rejected (or — for the empty archive — at least
        // never panics and never validates).
        for cut in 0..blob.len() {
            assert!(
                open(&blob[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly validated"
            );
        }
        // Trailing garbage is rejected.
        let mut extended = blob.clone();
        extended.push(0);
        assert!(open(&extended).is_err());
        // Wrong magic, version, encoding tag.
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            open(&bad).unwrap_err(),
            SerialError::new(SerialErrorKind::BadMagic, 0)
        );
        let mut bad = blob.clone();
        bad[4] = 0xee;
        assert_eq!(
            open(&bad).unwrap_err().kind,
            SerialErrorKind::UnsupportedVersion
        );
        let mut bad = blob.clone();
        bad[6] = 7;
        assert_eq!(
            open(&bad).unwrap_err(),
            SerialError::new(SerialErrorKind::Inconsistent, 6)
        );
    }

    #[test]
    fn mixed_codec_geometry_rejected_at_open() {
        // A crafted archive whose edge labels disagree on the codec
        // threshold k must be rejected at open() — never reach the merge
        // engine's width assertions. Natural archives cannot mix k
        // (the header tag fingerprints it), so forge one: rewrite edge
        // 0's k field to a divisor of its word count, which keeps the
        // per-label geometry checks satisfied.
        let g = Graph::cycle(5);
        let scheme = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let l = scheme.labels();
        let k = l.edge_label_by_id(0).vec.k();
        assert!(k > 1, "need k > 1 to forge a divisor");
        let mut blob = LabelStore::to_vec(l, EdgeEncoding::Full);
        let view = open(&blob).unwrap();
        let (n, m, idx) = (view.n(), view.m(), view.endpoint_index().len());
        // k field of edge 0: edge region start + per-label offset of k
        // (magic 2 + header 16 + two ancestry labels 24 = 42).
        let edges_at =
            FIXED_HEADER_BYTES + (m + 1) * 8 + idx * ENDPOINT_ENTRY_BYTES + n * VERTEX_LABEL_BYTES;
        let k_at = edges_at + 42;
        assert_eq!(u32_at(&blob, k_at) as usize, k);
        blob[k_at..k_at + 4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(open(&blob).unwrap_err().kind, SerialErrorKind::Inconsistent);
    }

    #[test]
    fn shared_views_answer_like_borrowed_views() {
        let (_, blob) = archive(EdgeEncoding::Full);
        // `open` wraps the caller's Vec: no copy.
        let ptr = blob.as_ptr();
        let store = LabelStore::open(blob).unwrap();
        assert_eq!(store.as_bytes().as_ptr(), ptr);
        // A clone shares the blob and answers alike.
        let clone = store.clone();
        assert_eq!(clone.as_bytes().as_ptr(), ptr);
        assert_eq!(
            (clone.n(), clone.m(), clone.header()),
            (store.n(), store.m(), store.header())
        );
        for v in 0..store.n() {
            assert_eq!(
                clone.vertex(v).unwrap().to_label(),
                store.vertex(v).unwrap().to_label()
            );
        }
        let session = store.session([(0, 1), (0, 4)]).unwrap();
        assert_eq!(
            session.connected(store.vertex(0).unwrap(), store.vertex(7).unwrap()),
            Ok(true)
        );
        // The clone keeps answering after the original handle is gone, and
        // a shared blob is copied out, not taken.
        drop(session);
        let clone = match store.try_into_vec() {
            Err(store) => store,
            Ok(_) => panic!("a shared blob was taken from its other handle"),
        };
        assert!(clone.vertex(0).is_some());
        // Malformed blobs are rejected with typed offsets.
        assert_eq!(
            LabelStore::open(vec![0u8; 3]).unwrap_err().kind,
            SerialErrorKind::Truncated
        );
    }

    #[test]
    fn into_shared_view_skips_revalidation_but_matches() {
        // `build_store` hands out its handle without a second `open`; it
        // must match a validating `open` of its own bytes.
        let g = Graph::torus(3, 4);
        let (built, _) = FtcScheme::builder(&g)
            .params(&Params::deterministic(2))
            .build_store(EdgeEncoding::Compact)
            .unwrap();
        let direct = open(built.as_bytes()).unwrap();
        assert_eq!(built.encoding(), direct.encoding());
        assert_eq!(built.as_bytes(), direct.as_bytes());
        assert_eq!(
            built.edge_by_id(0).unwrap().to_label(),
            direct.edge_by_id(0).unwrap().to_label()
        );
        // The sole handle hands its Vec back without copying.
        let ptr = built.as_bytes().as_ptr();
        let blob = built.into_vec();
        assert_eq!(blob.as_ptr(), ptr);
    }

    #[test]
    fn from_vec_validates() {
        let (_, blob) = archive(EdgeEncoding::Compact);
        let store = open(&blob).unwrap();
        assert_eq!(store.as_bytes(), &blob[..]);
        assert_eq!(store.m(), 2 * 12);
        assert!(open(&blob[..10]).is_err());
    }
}

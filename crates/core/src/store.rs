//! The label archive: single-blob storage for a whole labeling, opened
//! zero-copy.
//!
//! A labeling is built once and its labels are served forever after; the
//! natural storage shape is therefore one indexed archive, not one byte
//! buffer per label. [`LabelStore`] writes a [`crate::LabelSet`] as a
//! single blob — one header (magic, version, [`LabelHeader`], codec
//! geometry), an endpoint index, fixed-stride records — and
//! [`LabelStore::open`] takes ownership of that blob without copying it,
//! validates it **once**, and then serves
//!
//! * [`LabelStore::vertex`] — O(1) zero-copy [`VertexLabelView`]s,
//! * [`LabelStore::edge_by_id`] — O(1) zero-copy [`ArchivedEdgeView`]s
//!   (the full and the compact half-width encoding alike, read as the
//!   archive's encoding tag says),
//! * [`LabelStore::edge_id`] — O(log m) endpoint-pair lookups,
//! * [`LabelStore::session_in`] — a ready [`QuerySession`] for a fault
//!   set named by endpoint pairs, built straight over the archive bytes,
//!
//! without materializing a single owned label. This is the canonical
//! interchange surface: `ftc-cli` ships archives, and
//! `ftc_routing::ForbiddenSetRouter` can be reconstituted from one
//! without re-running the scheme construction.
//!
//! # Byte layout (all little-endian)
//!
//! The archive header is the labeling's one identity: records hold data
//! only, every vertex record at one stride and every edge record at
//! another, so a record's position is arithmetic on its ID.
//!
//! ```text
//! offset size        field
//! 0      4           magic "FTCL"
//! 4      2           format version (currently 3)
//! 6      1           edge encoding: 0 = full, 1 = compact
//! 7      1           reserved (0)
//! 8      16          LabelHeader { f: u32, aux_n: u32, tag: u64 }
//! 24     4           n  (number of vertex records)
//! 28     4           m  (number of edge records)
//! 32     4           k  (codec threshold)
//! 36     4           levels (hierarchy levels per edge record)
//! 40     4           endpoint-index entry count (distinct (u, v) pairs)
//! 44     count·12    endpoint index: (u: u32, v: u32, edge id: u32),
//!                    strictly sorted by (u, v) with u < v
//! …      n·12        vertex records, in vertex order: the ancestry
//!                    label (pre, last, comp: u32 each)
//! …      m·(24+8w)   edge records, in edge-ID order: the ancestry labels
//!                    of σ(e)'s upper and lower endpoint, then w payload
//!                    words, level-major (w = 2k·levels full, k·levels
//!                    compact: the odd power sums only)
//! end-8  8           whole-blob checksum (`ftc_compress::checksum64` of
//!                    every preceding byte), verified on open
//! ```
//!
//! Loose labels ([`crate::serial`]) stay self-describing: a loose label
//! is a magic and a [`LabelHeader`] around the same record (a loose edge
//! label also carries its geometry between ancestry pair and words).
//!
//! The compressed container — entropy-coded sections with per-section
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
//! let mut scratch = Default::default();
//! let session = store.session_in([(0, 1), (3, 4)], &mut scratch).unwrap();
//! assert!(!session.connected(store.vertex(1).unwrap(), store.vertex(4).unwrap()).unwrap());
//! assert!(session.connected(store.vertex(1).unwrap(), store.vertex(3).unwrap()).unwrap());
//! ```

use crate::ancestry::AncestryLabel;
use crate::compressed::{CompressedStore, SectionKind};
use crate::error::QueryError;
use crate::labels::{EdgeLabel, EdgeLabelRead, LabelHeader, LabelSet, RsVector};
use crate::mmap::ArchiveBytes;
use crate::scheme::{BuildCtx, LevelSink};
use crate::serial::{
    self, SerialError, SerialErrorKind, VertexLabelView, VertexRecords, ANC_BYTES,
    EDGE_PREFIX_BYTES, VERTEX_RECORD_BYTES,
};
use crate::session::{QuerySession, SessionScratch};
use ftc_field::Gf64;
use std::fmt;
use std::io;
use std::ops::Range;
use std::sync::Arc;

pub(crate) const STORE_MAGIC: [u8; 4] = *b"FTCL";
pub(crate) const STORE_VERSION: u16 = 3;
/// The archive header both containers open with; the endpoint index
/// follows it in the uncompressed container.
pub(crate) const FIXED_HEADER_BYTES: usize = 44;
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

    /// Words stored per hierarchy level of a threshold-`k` syndrome row:
    /// all `2k` in the full encoding, the `k` odd power sums in the
    /// compact one.
    pub fn row_words(self, k: usize) -> usize {
        match self {
            EdgeEncoding::Full => 2 * k,
            EdgeEncoding::Compact => k,
        }
    }

    /// The stored words of a full `2k`-word row (or of consecutive full
    /// rows), in stored order: every word in the full encoding, the odd
    /// power sums `s₁, s₃, …` (even positions) in the compact one.
    pub fn stored<T>(self, row: &[T]) -> std::iter::StepBy<std::slice::Iter<'_, T>> {
        row.iter().step_by(match self {
            EdgeEncoding::Full => 1,
            EdgeEncoding::Compact => 2,
        })
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

/// The archive header and the layout it implies: everything a
/// [`LabelStore`] knows beyond the bytes themselves. The compressed
/// container opens with the same header and keeps this layout as the
/// shape of its uncompressed equivalent; [`write_v1`] lays a v1 archive
/// out by it.
#[derive(Clone, Copy, Debug)]
pub struct ArchiveMeta {
    pub(crate) header: LabelHeader,
    pub(crate) encoding: EdgeEncoding,
    pub(crate) n: usize,
    pub(crate) m: usize,
    pub(crate) k: usize,
    pub(crate) levels: usize,
    pub(crate) idx_count: usize,
    /// Byte position of the vertex records.
    pub(crate) vertices_at: usize,
    /// Byte position of the edge records.
    pub(crate) edges_at: usize,
    /// Byte length of one edge record.
    pub(crate) record_len: usize,
    /// Byte length of the whole archive, trailing checksum included.
    pub(crate) len: usize,
}

impl ArchiveMeta {
    /// The layout of an archive with `n` vertices, `m` edges and
    /// `idx_count` endpoint-index entries, of threshold `k` and `levels`
    /// hierarchy levels; `None` when a length overflows.
    pub fn new(
        header: LabelHeader,
        encoding: EdgeEncoding,
        (n, m, idx_count): (usize, usize, usize),
        (k, levels): (usize, usize),
    ) -> Option<ArchiveMeta> {
        // A labeling without edge records has no codec geometry, whoever
        // writes it: an owned label set has no edge to read one from.
        let (k, levels) = if m == 0 { (0, 0) } else { (k, levels) };
        let words = encoding.row_words(k).checked_mul(levels)?;
        let record_len = words.checked_mul(8)?.checked_add(EDGE_PREFIX_BYTES)?;
        let vertices_at = idx_count
            .checked_mul(ENDPOINT_ENTRY_BYTES)?
            .checked_add(FIXED_HEADER_BYTES)?;
        let edges_at = n
            .checked_mul(VERTEX_RECORD_BYTES)?
            .checked_add(vertices_at)?;
        let len = m
            .checked_mul(record_len)?
            .checked_add(edges_at)?
            .checked_add(TRAILING_CHECKSUM_BYTES)?;
        Some(ArchiveMeta {
            header,
            encoding,
            n,
            m,
            k,
            levels,
            idx_count,
            vertices_at,
            edges_at,
            record_len,
            len,
        })
    }

    /// Reads the fixed header a container of `version` opens with and
    /// checks everything it can say about itself: magic, version,
    /// encoding tag, reserved byte, index count, and a geometry whose
    /// layout fits in memory arithmetic.
    pub(crate) fn parse(bytes: &[u8], version: u16) -> Result<ArchiveMeta, SerialError> {
        let inconsistent = |at: usize| SerialError::new(SerialErrorKind::Inconsistent, at);
        if bytes.len() < FIXED_HEADER_BYTES {
            return Err(SerialError::new(SerialErrorKind::Truncated, bytes.len()));
        }
        if bytes[..4] != STORE_MAGIC {
            return Err(SerialError::new(SerialErrorKind::BadMagic, 0));
        }
        if u16::from_le_bytes([bytes[4], bytes[5]]) != version {
            return Err(SerialError::new(SerialErrorKind::UnsupportedVersion, 4));
        }
        let encoding = EdgeEncoding::from_tag(bytes[6]).ok_or(inconsistent(6))?;
        if bytes[7] != 0 {
            return Err(inconsistent(7));
        }
        let header = crate::serial::read_header_at(bytes, 8);
        let field = |at: usize| u32_at(bytes, at) as usize;
        let (n, m, k, levels, idx_count) = (field(24), field(28), field(32), field(36), field(40));
        // A zero threshold has no levels: a detector configured so would
        // ignore every stored word.
        if k == 0 && levels != 0 {
            return Err(inconsistent(36));
        }
        if m == 0 && k != 0 {
            return Err(inconsistent(32));
        }
        if idx_count > m {
            return Err(inconsistent(40));
        }
        ArchiveMeta::new(header, encoding, (n, m, idx_count), (k, levels)).ok_or(inconsistent(32))
    }

    /// Stored words per edge record and hierarchy level.
    pub(crate) fn row_words(&self) -> usize {
        self.encoding.row_words(self.k)
    }

    /// Byte range of the endpoint index or of the vertex records in a v1
    /// archive of this layout — the two metadata regions both formats
    /// store contiguously (v2 as whole sections).
    pub(crate) fn region(&self, kind: SectionKind) -> Range<usize> {
        match kind {
            SectionKind::EndpointIndex => FIXED_HEADER_BYTES..self.vertices_at,
            SectionKind::VertexLabels => self.vertices_at..self.edges_at,
            _ => unreachable!("v1 interleaves {kind:?} into the edge records"),
        }
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

/// Streams faults named by endpoint pairs into one session build: each
/// pair resolves through `edge_id`, then `edge_by_id` — the one
/// pair-fault path of every archive reader. A pair is unknown before any
/// edge section is touched; section failures surface as
/// [`StoreError::Corrupt`].
pub(crate) fn pair_session<'a>(
    header: LabelHeader,
    faults: impl IntoIterator<Item = (usize, usize)>,
    edge_id: impl Fn(usize, usize) -> Result<Option<usize>, SerialError>,
    edge_by_id: impl Fn(usize) -> Result<Option<ArchivedEdgeView<'a>>, SerialError>,
    scratch: &mut SessionScratch<RsVector>,
) -> Result<QuerySession, StoreError> {
    let lookup = |(u, v)| {
        let e = edge_id(u, v)
            .map_err(StoreError::Corrupt)?
            .ok_or(StoreError::UnknownEdge { u, v })?;
        Ok(edge_by_id(e)
            .map_err(StoreError::Corrupt)?
            .expect("edge_id returns in-range IDs"))
    };
    stream_session(header, faults, lookup, scratch)
}

/// Validates a whole v1 archive — its header, its length against the
/// layout the header implies, the endpoint index and the whole-blob
/// checksum — and returns its layout. Records carry no fields to check:
/// once this passes, every lookup is infallible index arithmetic.
///
/// # Errors
///
/// [`SerialError`] carrying the archive byte offset at which validation
/// failed.
pub(crate) fn parse_v1(bytes: &[u8]) -> Result<ArchiveMeta, SerialError> {
    let meta = ArchiveMeta::parse(bytes, STORE_VERSION)?;
    if bytes.len() < meta.len {
        return Err(SerialError::new(SerialErrorKind::Truncated, bytes.len()));
    }
    if bytes.len() > meta.len {
        return Err(SerialError::new(SerialErrorKind::TrailingBytes, meta.len));
    }
    check_endpoint_index(&bytes[FIXED_HEADER_BYTES..meta.vertices_at], meta.m)
        .map_err(|at| SerialError::new(SerialErrorKind::Inconsistent, FIXED_HEADER_BYTES + at))?;
    // Payload corruption keeps every structural invariant (a flipped
    // syndrome word, say); the whole-blob checksum catches it.
    let body_len = meta.len - TRAILING_CHECKSUM_BYTES;
    if u64_at(bytes, body_len) != ftc_compress::checksum64(&bytes[..body_len]) {
        return Err(SerialError::new(SerialErrorKind::Checksum, body_len));
    }
    Ok(meta)
}

/// Checks an endpoint-index region: strictly sorted normalized pairs and
/// edge IDs below `m`, the invariants `find_edge_id`'s binary search
/// relies on. `Err` is the byte offset of the first bad entry.
pub(crate) fn check_endpoint_index(index: &[u8], m: usize) -> Result<(), usize> {
    let mut prev: Option<(usize, usize)> = None;
    for (i, (u, v, e)) in endpoint_entries(index).enumerate() {
        if u >= v || e >= m || prev.is_some_and(|p| p >= (u, v)) {
            return Err(ENDPOINT_ENTRY_BYTES * i);
        }
        prev = Some((u, v));
    }
    Ok(())
}

impl LabelStore {
    /// Archives a label set under the given edge encoding.
    pub fn archive(labels: &LabelSet<RsVector>, encoding: EdgeEncoding) -> LabelStore {
        encode(labels, encoding)
    }

    /// Serializes a label set into a fresh byte vector.
    pub fn to_vec(labels: &LabelSet<RsVector>, encoding: EdgeEncoding) -> Vec<u8> {
        encode(labels, encoding).into_vec()
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

    /// Wraps a blob [`write_v1`] just wrote, skipping the full `open`
    /// validation pass (which is O(archive) and would double the cost of
    /// every dynamic commit). The caller guarantees `meta` describes
    /// `bytes` exactly.
    fn from_parts_trusted(bytes: Vec<u8>, meta: ArchiveMeta) -> LabelStore {
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

    /// Codec threshold `k`, uniform over all edge records (0 without
    /// edges).
    pub fn k(&self) -> usize {
        self.meta.k
    }

    /// Hierarchy level count, uniform over all edge records (0 without
    /// edges).
    pub fn levels(&self) -> usize {
        self.meta.levels
    }

    /// Byte accounting of the archive regions, in the shape of the v2
    /// section table ([`SectionInfo`](crate::compressed::SectionInfo)):
    /// endpoint index, vertex records, the edge records' ancestry pairs,
    /// and one entry per hierarchy level of payload rows. v1 stores
    /// everything raw, so `comp_len == raw_len` and `transform == 0`.
    /// Level-row entries account each level's share of every record's
    /// payload even though v1 interleaves levels record-major rather than
    /// storing them contiguously; the header and trailing checksum are
    /// framing and appear in no section, so the sections sum to less than
    /// [`archive_bytes`](Self::archive_bytes).
    pub fn sections(&self) -> Vec<crate::compressed::SectionInfo> {
        crate::compressed::raw_sections(&self.meta).collect()
    }

    pub(crate) fn meta(&self) -> &ArchiveMeta {
        &self.meta
    }

    /// The vertex records — the blob's vertex region, read zero-copy
    /// under the archive header.
    pub fn vertex_records(&self) -> VertexRecords<'_> {
        VertexRecords::new(self.meta.header, self.region(SectionKind::VertexLabels))
    }

    /// The label of vertex `v` as a zero-copy view — O(1); `None` when
    /// `v` is out of range. The view borrows from `self`.
    pub fn vertex(&self, v: usize) -> Option<VertexLabelView<'_>> {
        self.vertex_records().get(v)
    }

    /// The label of the edge with original edge ID `e` as a zero-copy
    /// view — O(1); `None` when `e` is out of range.
    pub fn edge_by_id(&self, e: usize) -> Option<ArchivedEdgeView<'_>> {
        let meta = &self.meta;
        (e < meta.m).then(|| {
            let at = meta.edges_at + e * meta.record_len;
            let (anc, words) =
                self.as_bytes()[at..at + meta.record_len].split_at(EDGE_PREFIX_BYTES);
            ArchivedEdgeView {
                meta,
                anc,
                rows: EdgeRows::Record(words.as_chunks().0),
            }
        })
    }

    /// The edge ID of the edge joining `u` and `v` (either order) —
    /// O(log m) binary search over the endpoint index; `None` when no
    /// such edge is archived.
    pub fn edge_id(&self, u: usize, v: usize) -> Option<usize> {
        find_edge_id(self.region(SectionKind::EndpointIndex), u, v)
    }

    /// Iterates the endpoint index as `(u, v, edge id)` triples, in
    /// sorted endpoint order.
    pub fn endpoint_index(&self) -> impl ExactSizeIterator<Item = (usize, usize, usize)> + '_ {
        endpoint_entries(self.region(SectionKind::EndpointIndex))
    }

    /// The endpoint-index or vertex-record region of the blob.
    pub(crate) fn region(&self, kind: SectionKind) -> &[u8] {
        &self.as_bytes()[self.meta.region(kind)]
    }

    /// Opens a [`QuerySession`] for a fault set named by endpoint pairs,
    /// built straight over the archive bytes — the archive-native
    /// equivalent of [`LabelSet::session_in`]. Fault views resolve
    /// through the endpoint index and stream straight into the merge
    /// engine; with a warm `scratch` the whole build performs zero heap
    /// allocations. An empty fault set is valid.
    ///
    /// # Errors
    ///
    /// * [`StoreError::UnknownEdge`] if a pair is not an archived edge;
    /// * [`StoreError::Query`] on session-construction failures
    ///   (over-budget fault sets, calibrated-threshold decode failures).
    pub fn session_in<I>(
        &self,
        faults: I,
        scratch: &mut SessionScratch<RsVector>,
    ) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let edge_id = |u, v| Ok(self.edge_id(u, v));
        pair_session(
            self.header(),
            faults,
            edge_id,
            |e| Ok(self.edge_by_id(e)),
            scratch,
        )
    }
}

/// An edge label read in place from an archive of either format: the
/// header, codec geometry and encoding from the archive header, the
/// 24-byte ancestry pair, and the syndrome rows — a v1 record's payload
/// words, or edge `e`'s row in each of a v2 archive's decoded level
/// sections. Implements [`EdgeLabelRead`], so it feeds
/// [`QuerySession`]s directly; nothing is copied per fault.
#[derive(Clone, Copy, Debug)]
pub struct ArchivedEdgeView<'a> {
    pub(crate) meta: &'a ArchiveMeta,
    /// The ancestry pair (upper, lower).
    pub(crate) anc: &'a [u8],
    pub(crate) rows: EdgeRows<'a>,
}

/// Where an archived edge's syndrome rows are stored.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EdgeRows<'a> {
    /// A v1 record's payload words, level-major, little-endian.
    Record(&'a [[u8; 8]]),
    /// Edge `e` of a v2 archive, whose level sections are decoded.
    Sections(&'a CompressedStore, usize),
}

impl ArchivedEdgeView<'_> {
    /// Copies the view out into an owned label.
    pub fn to_label(&self) -> EdgeLabel<RsVector> {
        serial::owned_label(self, self.meta.k)
    }
}

impl EdgeLabelRead for ArchivedEdgeView<'_> {
    type Vector = RsVector;

    fn header(&self) -> LabelHeader {
        self.meta.header
    }

    fn anc_upper(&self) -> AncestryLabel {
        serial::read_anc_at(self.anc, 0)
    }

    fn anc_lower(&self) -> AncestryLabel {
        serial::read_anc_at(self.anc, ANC_BYTES)
    }

    fn slab_words(&self) -> usize {
        2 * self.meta.k * self.meta.levels
    }

    fn xor_into_slab(&self, dst: &mut [u64]) {
        let ArchiveMeta { encoding, k, .. } = *self.meta;
        assert_eq!(dst.len(), self.slab_words(), "mixed vector widths");
        let row_words = self.meta.row_words();
        for (level, out) in dst.chunks_exact_mut(2 * k.max(1)).enumerate() {
            match self.rows {
                EdgeRows::Record(words) => xor_row(
                    encoding,
                    &words[level * row_words..(level + 1) * row_words],
                    u64::from_le_bytes,
                    out,
                ),
                EdgeRows::Sections(store, e) => {
                    xor_row(encoding, store.level_row(level, e), |w| w, out)
                }
            }
        }
    }

    fn configure_detector(&self, det: &mut crate::labels::RsDetector) {
        det.configure(self.meta.k, self.meta.levels, self.meta.header.aux_n);
    }
}

/// XORs one stored level row into its full `2k`-word slab slice `out`:
/// a full row word for word, a compact row expanded from its `k` odd
/// power sums. `word` reads one stored word.
fn xor_row<W: Copy>(encoding: EdgeEncoding, row: &[W], word: impl Fn(W) -> u64, out: &mut [u64]) {
    match encoding {
        EdgeEncoding::Full => {
            for (d, &w) in out.iter_mut().zip(row) {
                *d ^= word(w);
            }
        }
        EdgeEncoding::Compact => serial::xor_expanded_row(|j| word(row[j]), out),
    }
}

// ---------------------------------------------------------------------------
// Archive writing
// ---------------------------------------------------------------------------

/// Positional little-endian field writers over a pre-sized blob.
fn put_u16(buf: &mut [u8], at: usize, x: u16) {
    buf[at..at + 2].copy_from_slice(&x.to_le_bytes());
}

pub(crate) fn put_u32(buf: &mut [u8], at: usize, x: u32) {
    buf[at..at + 4].copy_from_slice(&x.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut [u8], at: usize, x: u64) {
    buf[at..at + 8].copy_from_slice(&x.to_le_bytes());
}

pub(crate) fn put_header(buf: &mut [u8], at: usize, h: LabelHeader) {
    put_u32(buf, at, h.f);
    put_u32(buf, at + 4, h.aux_n);
    put_u64(buf, at + 8, h.tag);
}

fn put_anc(buf: &mut [u8], at: usize, a: &AncestryLabel) {
    put_u32(buf, at, a.pre);
    put_u32(buf, at + 4, a.last);
    put_u32(buf, at + 8, a.comp);
}

/// Copies `src` into `dst` as little-endian words (`dst.len() == 8 ·
/// src.len()`).
pub(crate) fn put_words(dst: &mut [u8], src: &[u64]) {
    assert_eq!(dst.len(), 8 * src.len(), "word run length");
    #[cfg(target_endian = "little")]
    {
        // The archive stores words little-endian, so on LE hosts the
        // words' in-memory bytes are already the stored bytes — one bulk
        // copy instead of a word loop.
        // SAFETY: `src` is a valid, initialized `&[u64]`; every byte of a
        // u64 is initialized, and u8 has no alignment requirement, so
        // reinterpreting the region as `8 * src.len()` bytes is sound.
        let src_bytes =
            unsafe { std::slice::from_raw_parts(src.as_ptr().cast::<u8>(), 8 * src.len()) };
        dst.copy_from_slice(src_bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for (chunk, &w) in dst.chunks_exact_mut(8).zip(src) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
}

/// Writes the stored words of the full syndrome rows `rows` into `dst`,
/// little-endian.
pub(crate) fn put_stored(dst: &mut [u8], encoding: EdgeEncoding, rows: &[Gf64]) {
    for (d, x) in dst.chunks_exact_mut(8).zip(encoding.stored(rows)) {
        d.copy_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// Writes the archive header at the start of `buf`. `version` is a
/// parameter because the compressed container opens with the same
/// header.
pub(crate) fn write_fixed_header(buf: &mut [u8], version: u16, meta: &ArchiveMeta) {
    buf[..4].copy_from_slice(&STORE_MAGIC);
    put_u16(buf, 4, version);
    buf[6] = meta.encoding.tag();
    buf[7] = 0;
    put_header(buf, 8, meta.header);
    put_u32(buf, 24, meta.n as u32);
    put_u32(buf, 28, meta.m as u32);
    put_u32(buf, 32, meta.k as u32);
    put_u32(buf, 36, meta.levels as u32);
    put_u32(buf, 40, meta.idx_count as u32);
}

/// Writes an endpoint-index region (12-byte `(u, v, edge id)` entries)
/// at `at`.
pub(crate) fn write_endpoint_index(
    buf: &mut [u8],
    at: usize,
    entries: impl Iterator<Item = (usize, usize, usize)>,
) {
    for (i, (u, v, e)) in entries.enumerate() {
        let rec = at + ENDPOINT_ENTRY_BYTES * i;
        put_u32(buf, rec, u as u32);
        put_u32(buf, rec + 4, v as u32);
        put_u32(buf, rec + 8, e as u32);
    }
}

/// Writes one vertex record at `at` — the only writer of a vertex
/// label's ancestry bytes, loose or archived.
pub(crate) fn write_vertex_record(buf: &mut [u8], at: usize, anc: &AncestryLabel) {
    put_anc(buf, at, anc);
}

/// Writes the vertex-record region at `at`.
pub(crate) fn write_vertex_labels(
    buf: &mut [u8],
    at: usize,
    n: usize,
    vertex_anc: impl Fn(usize) -> AncestryLabel,
) {
    for v in 0..n {
        write_vertex_record(buf, at + v * VERTEX_RECORD_BYTES, &vertex_anc(v));
    }
}

/// Writes one edge record's prefix (everything before the syndrome
/// words): the ancestry labels of both endpoints of `σ(e)`.
pub(crate) fn write_edge_prefix(
    buf: &mut [u8],
    at: usize,
    anc_upper: &AncestryLabel,
    anc_lower: &AncestryLabel,
) {
    put_anc(buf, at, anc_upper);
    put_anc(buf, at + ANC_BYTES, anc_lower);
}

/// Writes `m` edge prefixes from `at`, `stride` bytes apart: a v1
/// archive's records, or a v2 archive's edge-meta section.
pub(crate) fn write_edge_prefixes(
    buf: &mut [u8],
    (at, stride): (usize, usize),
    m: usize,
    edge_anc: impl Fn(usize) -> (AncestryLabel, AncestryLabel),
) {
    for e in 0..m {
        let (upper, lower) = edge_anc(e);
        write_edge_prefix(buf, at + e * stride, &upper, &lower);
    }
}

/// The ancestry pair (upper, lower) of an edge prefix at `at`.
pub(crate) fn read_edge_prefix(buf: &[u8], at: usize) -> (AncestryLabel, AncestryLabel) {
    (
        serial::read_anc_at(buf, at),
        serial::read_anc_at(buf, at + ANC_BYTES),
    )
}

/// Computes and writes the trailing whole-blob checksum into the final
/// 8 bytes of `buf`.
pub(crate) fn seal_v1_checksum(buf: &mut [u8]) {
    let body_len = buf.len() - TRAILING_CHECKSUM_BYTES;
    let sum = ftc_compress::checksum64(&buf[..body_len]);
    put_u64(buf, body_len, sum);
}

/// Writes everything of a v1 blob of `meta`'s layout but the payload
/// words and the checksum: the archive header, the endpoint index, the
/// vertex records and every edge record's ancestry pair.
fn write_framing(
    buf: &mut [u8],
    meta: &ArchiveMeta,
    entries: impl ExactSizeIterator<Item = (usize, usize, usize)>,
    vertex_anc: impl Fn(usize) -> AncestryLabel,
    edge_anc: impl Fn(usize) -> (AncestryLabel, AncestryLabel),
) {
    assert_eq!(entries.len(), meta.idx_count, "endpoint entry count");
    write_fixed_header(buf, STORE_VERSION, meta);
    write_endpoint_index(buf, FIXED_HEADER_BYTES, entries);
    write_vertex_labels(buf, meta.vertices_at, meta.n, vertex_anc);
    write_edge_prefixes(buf, (meta.edges_at, meta.record_len), meta.m, edge_anc);
}

/// The edge records of a v1 archive being written, as the payload step
/// of [`write_v1`] sees them: record `e`'s stored words, level-major
/// and little-endian, are written by [`EdgeRecords::put_words`]. The
/// step must write every stored word of every record.
pub struct EdgeRecords<'a> {
    /// The blob's edge-record region.
    bytes: &'a mut [u8],
    record_len: usize,
}

impl EdgeRecords<'_> {
    /// Record `e`'s stored words as bytes: each level's stored row in
    /// turn, little-endian.
    pub(crate) fn words_mut(&mut self, e: usize) -> &mut [u8] {
        let at = e * self.record_len;
        &mut self.bytes[at + EDGE_PREFIX_BYTES..at + self.record_len]
    }

    /// Stores `words` as record `e`'s payload.
    ///
    /// # Panics
    ///
    /// Panics unless `words` holds exactly the record's stored word
    /// count.
    pub fn put_words(&mut self, e: usize, words: &[u64]) {
        put_words(self.words_mut(e), words);
    }
}

/// Writes a v1 archive — the one v1 writer, behind every producer: owned
/// labels ([`LabelStore::archive`]), the streaming build, dynamic
/// commits (`ftc-dyn`) and the v2 decompressor
/// ([`CompressedStore::to_v1_vec`]).
///
/// It lays out `meta`'s header, the endpoint index from `entries`
/// (sorted `(u, v, edge id)` triples, `meta.idx_count` of them), every
/// vertex record from `vertex_anc` and every edge record's ancestry pair
/// (upper, lower) from `edge_anc`; then `payload` writes every record's
/// stored words, and the whole-blob checksum seals the result.
///
/// The store is returned without the O(archive) validation pass of
/// [`LabelStore::open`] (debug builds still run it): every invariant it
/// checks holds by construction. Bytes read back from disk are validated
/// when they are opened.
///
/// `buf` is a recycled allocation (or an empty `Vec`): its contents are
/// irrelevant, because every byte of the archive is written.
/// Multi-megabyte archives sit above the allocator's mmap threshold, so
/// a fresh buffer per write pays soft page faults for the whole blob;
/// handing a retired archive's buffer back (see
/// [`LabelStore::try_into_vec`]) keeps its pages mapped and warm.
pub fn write_v1(
    mut buf: Vec<u8>,
    meta: ArchiveMeta,
    entries: impl ExactSizeIterator<Item = (usize, usize, usize)>,
    vertex_anc: impl Fn(usize) -> AncestryLabel,
    edge_anc: impl Fn(usize) -> (AncestryLabel, AncestryLabel),
    payload: impl FnOnce(&mut EdgeRecords<'_>),
) -> LabelStore {
    // A recycled buffer is resized in place (a large one grows by
    // remapping, its pages staying warm); without one, the zeroed
    // allocation takes fresh zero pages instead of writing zeros.
    if buf.capacity() == 0 {
        buf = vec![0u8; meta.len];
    } else {
        buf.resize(meta.len, 0);
    }
    write_framing(&mut buf, &meta, entries, vertex_anc, edge_anc);
    payload(&mut EdgeRecords {
        bytes: &mut buf[meta.edges_at..meta.len - TRAILING_CHECKSUM_BYTES],
        record_len: meta.record_len,
    });
    seal_v1_checksum(&mut buf);
    LabelStore::from_parts_trusted(buf, meta)
}

/// Archives an owned label set. The codec geometry is edge 0's, which
/// every edge of a built labeling shares.
fn encode(labels: &LabelSet<RsVector>, encoding: EdgeEncoding) -> LabelStore {
    let geometry = labels
        .edge_labels()
        .next()
        .map_or((0, 0), |l| (l.vec.k(), l.vec.levels()));
    assert!(
        labels
            .edge_labels()
            .all(|l| (l.vec.k(), l.vec.levels()) == geometry),
        "an archived labeling has one codec geometry"
    );
    let counts = (labels.n(), labels.m(), labels.edge_index.len());
    let meta = ArchiveMeta::new(labels.header(), encoding, counts, geometry)
        .expect("archive length fits in memory");
    write_v1(
        Vec::new(),
        meta,
        labels.edge_index.iter(),
        |v| labels.vertex_label(v).anc,
        |e| {
            let l = labels.edge_label_by_id(e);
            (l.anc_upper, l.anc_lower)
        },
        |records| {
            for (e, l) in labels.edge_labels().enumerate() {
                put_stored(records.words_mut(e), encoding, l.vec.raw());
            }
        },
    )
}

/// [`LevelSink`] writing syndrome rows straight into their final
/// positions inside a v1 archive's edge records — the streaming
/// build-to-archive path.
struct ArchivePayloadSink {
    base: *mut u8,
    len: usize,
    /// Bytes between consecutive edges' records.
    record_len: usize,
    /// Bytes between consecutive level rows within a record.
    row_bytes: usize,
    encoding: EdgeEncoding,
}

// SAFETY: see the `LevelSink` contract — `build_subtree_sums` workers
// write disjoint `(edge, level)` windows, never overlapping, never read.
unsafe impl Sync for ArchivePayloadSink {}

impl LevelSink for ArchivePayloadSink {
    fn write_row(&self, e: usize, level: usize, row: &[Gf64]) {
        let at = e * self.record_len + EDGE_PREFIX_BYTES + level * self.row_bytes;
        assert!(at + self.row_bytes <= self.len, "row outside the records");
        // SAFETY: `at + row_bytes ≤ len` (asserted above), and no other
        // worker touches this `(edge, level)` window while the slice
        // lives.
        let dst = unsafe { std::slice::from_raw_parts_mut(self.base.add(at), self.row_bytes) };
        put_stored(dst, self.encoding, row);
    }
}

/// Writes a v1 archive straight from a prepared build: the subtree-sums
/// workers write each `(edge, level)` syndrome row into its final blob
/// position. The labeling is never materialized as owned labels, so
/// peak memory is one blob plus O(threads) worker accumulators.
pub(crate) fn stream_from_build(ctx: &BuildCtx, encoding: EdgeEncoding) -> LabelStore {
    let meta = ctx.archive_meta(encoding);
    write_v1(
        Vec::new(),
        meta,
        ctx.index.iter(),
        |v| ctx.aux.anc[v],
        |e| ctx.edge_anc(e),
        |records| {
            let sink = ArchivePayloadSink {
                base: records.bytes.as_mut_ptr(),
                len: records.bytes.len(),
                record_len: meta.record_len,
                row_bytes: 8 * meta.row_words(),
                encoding,
            };
            ctx.subtree_sums(&sink);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::scheme::FtcScheme;
    use crate::serial::{self, EdgeLabelView};
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
            let e0 = &l.edge_label_by_id(0).vec;
            assert_eq!((view.k(), view.levels()), (e0.k(), e0.levels()));
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
                let via_pair = view.edge_by_id(view.edge_id(u, v).unwrap());
                assert_eq!(Some(&via_pair.unwrap().to_label()), l.edge_label(u, v));
                // Reversed endpoint order resolves too.
                assert_eq!(view.edge_id(v, u), view.edge_id(u, v));
            }
            assert!(view.edge_id(0, 99).is_none());
            assert!(view.edge_by_id(g.m()).is_none());
            assert!(view.vertex(g.n()).is_none());
        }
    }

    #[test]
    fn loose_labels_match_archived_records() {
        // A loose label is its archive record behind a magic and header
        // (edges also carry their geometry before the words), for the
        // owned encoder and the streaming build alike.
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
            let meta = streamed.meta();
            let blob = streamed.as_bytes();
            for e in 0..streamed.m() {
                let at = meta.edges_at + e * meta.record_len;
                let rec = &blob[at..at + meta.record_len];
                let loose = match encoding {
                    EdgeEncoding::Full => serial::edge_to_bytes(l.edge_label_by_id(e)),
                    EdgeEncoding::Compact => serial::edge_to_bytes_compact(l.edge_label_by_id(e)),
                };
                assert_eq!(
                    &loose[18..42],
                    &rec[..EDGE_PREFIX_BYTES],
                    "{encoding:?} edge {e}"
                );
                assert_eq!(
                    &loose[50..],
                    &rec[EDGE_PREFIX_BYTES..],
                    "{encoding:?} edge {e}"
                );
            }
            for v in 0..streamed.n() {
                let at = meta.vertices_at + v * VERTEX_RECORD_BYTES;
                assert_eq!(
                    &blob[at..at + VERTEX_RECORD_BYTES],
                    &serial::vertex_to_bytes(l.vertex_label(v))[18..],
                    "vertex {v}"
                );
            }
        }
    }

    /// The parts of a built labeling — endpoint index, ancestry labels
    /// and a record-major slab of stored words, the form `ftc-dyn`
    /// maintains — written through the one v1 writer reproduce the
    /// owned encoder's and the streaming build's archive byte for byte,
    /// from a fresh buffer and from dirty recycled ones of either size.
    #[test]
    fn reassembled_parts_match_builder_bytes() {
        let g = ftc_graph::generators::random_connected(60, 100, 7);
        let params = Params::deterministic(2);
        let scheme = FtcScheme::build(&g, &params).unwrap();
        let l = scheme.labels();
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            let blob = LabelStore::to_vec(l, encoding);
            let (streamed, _) = FtcScheme::builder(&g)
                .params(&params)
                .threads(2)
                .build_store(encoding)
                .unwrap();
            assert_eq!(streamed.as_bytes(), &blob[..], "{encoding:?} streamed");
            let (k, levels) = (streamed.k(), streamed.levels());
            assert!(levels >= 2, "the fixture must build several levels");
            // Project each level's full 2k-word row down to its stored
            // words: all of them, or the odd power sums at even indices.
            let step = match encoding {
                EdgeEncoding::Full => 1,
                EdgeEncoding::Compact => 2,
            };
            let mut slab = Vec::new();
            for label in l.edge_labels() {
                for row in label.vec.raw().chunks_exact(2 * k) {
                    slab.extend(row.iter().step_by(step).map(|x| x.to_bits()));
                }
            }
            let counts = (l.n(), l.m(), l.endpoint_index().len());
            let meta = ArchiveMeta::new(l.header(), encoding, counts, (k, levels)).unwrap();
            let words = meta.row_words() * levels;
            let write = |buf: Vec<u8>| {
                let edge_anc = |e| {
                    let label = l.edge_label_by_id(e);
                    (label.anc_upper, label.anc_lower)
                };
                write_v1(
                    buf,
                    meta,
                    l.endpoint_index().iter(),
                    |v| l.vertex_label(v).anc,
                    edge_anc,
                    |records| {
                        for (e, row) in slab.chunks_exact(words).enumerate() {
                            records.put_words(e, row);
                        }
                    },
                )
            };
            assert_eq!(write(Vec::new()).as_bytes(), &blob[..], "{encoding:?}");
            for scratch in [vec![0xAB; blob.len() + 4096], vec![0xCD; blob.len() / 2]] {
                assert_eq!(
                    write(scratch).as_bytes(),
                    &blob[..],
                    "recycled, {encoding:?}"
                );
            }
        }
    }

    #[test]
    fn zero_threshold_records_with_words_rejected() {
        // A label claiming k = 0 but carrying syndrome levels would
        // configure a zero-level detector that ignores every stored word.
        let g = Graph::cycle(5);
        let scheme = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let l = scheme.labels();

        // Loose bytes, rejected at the word-count field: the zero-copy
        // view and the owned parser.
        let mut loose = serial::edge_to_bytes(l.edge_label_by_id(0));
        put_u32(&mut loose, 42, 0);
        let want = SerialError::new(SerialErrorKind::Inconsistent, 46);
        assert_eq!(EdgeLabelView::new(&loose).unwrap_err(), want);
        assert_eq!(serial::edge_from_bytes(&loose).unwrap_err(), want);

        // A resealed archive whose header claims k = 0, rejected at the
        // level-count field.
        let mut blob = LabelStore::to_vec(l, EdgeEncoding::Full);
        put_u32(&mut blob, 32, 0);
        seal_v1_checksum(&mut blob);
        assert_eq!(
            open(&blob).unwrap_err(),
            SerialError::new(SerialErrorKind::Inconsistent, 36)
        );
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
            let mut scratch = SessionScratch::new();
            let session = view.session_in([(0, 1), (0, 4)], &mut scratch).unwrap();
            assert_eq!(
                session.connected(view.vertex(0).unwrap(), view.vertex(7).unwrap()),
                Ok(true)
            );
            // Unknown fault edges are named, not silently dropped.
            assert_eq!(
                view.session_in([(0, 99)], &mut scratch).unwrap_err(),
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
        // The codec geometry lives once, in the archive header, so no
        // record can disagree with another: a header geometry that does
        // not describe the stored records changes the layout's length
        // and is rejected at open() — it never reaches the merge
        // engine's width assertions, even resealed.
        let g = Graph::cycle(5);
        let scheme = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let blob = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Full);
        let k = open(&blob).unwrap().k();
        assert!(k > 1, "need k > 1 to forge a smaller threshold");
        for forged in [1, k + 1] {
            let mut bad = blob.clone();
            put_u32(&mut bad, 32, forged as u32);
            seal_v1_checksum(&mut bad);
            let err = open(&bad).unwrap_err().kind;
            assert!(
                matches!(
                    err,
                    SerialErrorKind::TrailingBytes | SerialErrorKind::Truncated
                ),
                "k = {forged}: {err:?}"
            );
        }
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
        let session = store
            .session_in([(0, 1), (0, 4)], &mut SessionScratch::new())
            .unwrap();
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

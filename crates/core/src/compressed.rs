//! The v2 **compressed** label archive: entropy-coded sections behind an
//! O(header) open.
//!
//! The v1 archive ([`crate::store`]) stores every syndrome word verbatim
//! and validates the whole blob on open. For production archives both
//! choices hurt: a millions-of-vertices labeling is tens of gigabytes,
//! and a full-blob scan on every open front-loads exactly the I/O a
//! serving process wants to defer. The v2 container keeps the same
//! logical content but reorganizes it into independently framed
//! **sections**, each run through the [`ftc_compress`] transform + rANS
//! pipeline and guarded by its own checksum:
//!
//! ```text
//! offset size          field
//! 0      44            the v1 archive header (magic "FTCL", version 4,
//!                      encoding, LabelHeader, n, m, k, levels, idx count)
//! 44     count·32      section table, count = 3 + levels: kind u8,
//!                      transform u8, pad u16, level u32, raw_len u64,
//!                      comp_len u64, checksum u64
//! …      8             table checksum over every preceding byte
//! …      Σ comp_len    section payloads, in table order
//! ```
//!
//! Sections: the endpoint index, the vertex records, the edge records'
//! ancestry pairs ("edge meta"), and one section per hierarchy level
//! holding all `m` syndrome rows of that level (transposed from v1's
//! per-edge grouping — rows of one level compress together far better
//! than rows of one edge). The header is the labeling's one identity, as
//! in v1: no section repeats it, and every raw section length follows
//! from it.
//!
//! # Lazy validation state machine
//!
//! [`CompressedStore::open`] reads the header and section table
//! and verifies the table checksum — O(header), independent of archive
//! size. Each section then moves `untouched → validated` on first use:
//! its stored bytes are checksummed, decoded (the endpoint index is also
//! checked for order), and cached (or the typed [`SerialError`] is
//! cached, with an archive byte offset). Queries touch the three small metadata sections plus
//! every level section of the faulted edges — a session decodes each
//! needed section exactly once, so steady-state query cost matches the
//! uncompressed archive.
//!
//! # Example
//!
//! ```
//! use ftc_core::compressed::{compress_archive, CompressedStore};
//! use ftc_core::store::{EdgeEncoding, LabelStore};
//! use ftc_core::{FtcScheme, Params};
//! use ftc_graph::Graph;
//!
//! let g = Graph::torus(4, 4);
//! let scheme = FtcScheme::builder(&g).params(&Params::deterministic(2)).build().unwrap();
//! let v1 = LabelStore::archive(scheme.labels(), EdgeEncoding::Full);
//! let v2 = compress_archive(&v1);
//! assert!(v2.archive_bytes() < v1.archive_bytes());
//!
//! let view = CompressedStore::open(v2.into_vec()).unwrap();
//! let mut scratch = Default::default();
//! let session = view.session_in([(0, 1), (0, 4)], &mut scratch).unwrap();
//! let s = view.vertex(0).unwrap().unwrap();
//! let t = view.vertex(10).unwrap().unwrap();
//! assert!(session.connected(s, t).unwrap());
//! ```

use crate::ancestry::AncestryLabel;
use crate::labels::{LabelHeader, RsVector};
use crate::mmap::ArchiveBytes;
use crate::scheme::{BuildCtx, LevelSink};
use crate::serial::{
    EdgeLabelView, EdgeRows, SerialError, SerialErrorKind, VertexLabelView, VertexRecords,
    EDGE_PREFIX_BYTES, VERTEX_RECORD_BYTES,
};
use crate::session::{QuerySession, SessionScratch};
use crate::store::{self, ArchiveMeta, EdgeEncoding, LabelStore, StoreError, StoreOpenError};
use ftc_compress::{checksum64, decode_bytes, decode_words, encode_bytes, encode_words};
use ftc_field::Gf64;
use std::sync::{Arc, Mutex, OnceLock};

/// Version tag of the compressed container.
pub const STORE_VERSION_V2: u16 = 4;
/// The section table follows the archive header.
const TABLE_AT: usize = store::FIXED_HEADER_BYTES;
/// Bytes per section-table entry.
const SECTION_ENTRY_BYTES: usize = 32;
/// Table-checksum trailer bytes.
const TOC_CHECKSUM_BYTES: usize = 8;

/// Fixed section slots: levels follow at `SEC_LEVEL0 + level`.
const SEC_ENDPOINT: usize = 0;
const SEC_VERTICES: usize = 1;
const SEC_EDGEMETA: usize = 2;
const SEC_LEVEL0: usize = 3;

/// What a v2 section holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SectionKind {
    /// Sorted `(u, v, edge id)` endpoint triples.
    EndpointIndex,
    /// Fixed-stride vertex records (ancestry labels).
    VertexLabels,
    /// Per-edge record prefixes (the ancestry pair of `σ(e)`).
    EdgeMeta,
    /// All `m` syndrome rows of one hierarchy level.
    LevelRows,
}

impl SectionKind {
    fn tag(self) -> u8 {
        match self {
            SectionKind::EndpointIndex => 1,
            SectionKind::VertexLabels => 2,
            SectionKind::EdgeMeta => 3,
            SectionKind::LevelRows => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<SectionKind> {
        match tag {
            1 => Some(SectionKind::EndpointIndex),
            2 => Some(SectionKind::VertexLabels),
            3 => Some(SectionKind::EdgeMeta),
            4 => Some(SectionKind::LevelRows),
            _ => None,
        }
    }

    /// Human-readable section name (used by `ftc-cli info`).
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::EndpointIndex => "endpoint-index",
            SectionKind::VertexLabels => "vertex-labels",
            SectionKind::EdgeMeta => "edge-meta",
            SectionKind::LevelRows => "level-rows",
        }
    }
}

/// One row of the section table, as reported to tooling.
#[derive(Clone, Copy, Debug)]
pub struct SectionInfo {
    /// What the section holds.
    pub kind: SectionKind,
    /// Hierarchy level for [`SectionKind::LevelRows`] sections.
    pub level: Option<usize>,
    /// Uncompressed byte length.
    pub raw_len: usize,
    /// Stored (compressed) byte length.
    pub comp_len: usize,
    /// Transform stage flags (`ftc_compress::T_*`).
    pub transform: u8,
}

/// The sections of an archive of `layout`, in table order, as stored
/// uncompressed (`comp_len == raw_len`, no transform): every kind, level
/// and raw length follows from the header. v2 stores exactly these
/// sections, and v1 lays the same bytes out record-major.
pub(crate) fn raw_sections(layout: &ArchiveMeta) -> impl Iterator<Item = SectionInfo> + '_ {
    (0..SEC_LEVEL0 + layout.levels).map(|i| {
        let (kind, level) = match i {
            SEC_ENDPOINT => (SectionKind::EndpointIndex, None),
            SEC_VERTICES => (SectionKind::VertexLabels, None),
            SEC_EDGEMETA => (SectionKind::EdgeMeta, None),
            _ => (SectionKind::LevelRows, Some(i - SEC_LEVEL0)),
        };
        let raw_len = match kind {
            SectionKind::EdgeMeta => layout.m * EDGE_PREFIX_BYTES,
            SectionKind::LevelRows => layout.m * 8 * layout.row_words(),
            _ => layout.region(kind).len(),
        };
        SectionInfo {
            kind,
            level,
            raw_len,
            comp_len: raw_len,
            transform: 0,
        }
    })
}

#[derive(Clone, Copy, Debug)]
struct SectionEntry {
    info: SectionInfo,
    checksum: u64,
    /// Absolute byte offset of the stored payload inside the archive.
    payload_at: usize,
}

#[derive(Clone, Debug)]
struct V2Meta {
    /// The archive header, and the layout of the equivalent v1 archive.
    layout: ArchiveMeta,
    sections: Vec<SectionEntry>,
}

/// A decoded, validated section, cached after first touch.
enum DecodedSection {
    Bytes(Box<[u8]>),
    Words(Box<[u64]>),
}

struct Inner {
    buf: Arc<ArchiveBytes>,
    meta: V2Meta,
    decoded: Vec<OnceLock<Result<DecodedSection, SerialError>>>,
}

/// A v2 compressed archive: one owned handle, O(header) to open,
/// sections checksum-validated and decoded lazily on first touch, then
/// cached. Clones share the blob and the decoded-section cache, so the
/// handle is the natural unit a concurrent serving layer holds
/// (`Send + Sync`); like [`LabelStore`], it wraps the caller's `Vec`
/// without copying and [`CompressedStore::into_vec`] hands it back from
/// the last handle.
#[derive(Clone)]
pub struct CompressedStore {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for CompressedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedStore")
            .field("n", &self.inner.meta.layout.n)
            .field("m", &self.inner.meta.layout.m)
            .field("levels", &self.inner.meta.layout.levels)
            .field("archive_bytes", &self.inner.buf.bytes().len())
            .finish()
    }
}

impl CompressedStore {
    /// Takes ownership of a v2 archive without copying it, validating
    /// **only** the header and section table (plus the table
    /// checksum): O(header), independent of the archive size. Section
    /// payloads are validated lazily on first touch.
    ///
    /// # Errors
    ///
    /// [`SerialError`] with the offending archive byte offset.
    pub fn open(bytes: Vec<u8>) -> Result<CompressedStore, SerialError> {
        CompressedStore::open_buf(Arc::new(ArchiveBytes::Heap(bytes)))
    }

    fn open_buf(buf: Arc<ArchiveBytes>) -> Result<CompressedStore, SerialError> {
        let meta = parse_v2(buf.bytes())?;
        let decoded = (0..meta.sections.len()).map(|_| OnceLock::new()).collect();
        Ok(CompressedStore {
            inner: Arc::new(Inner { buf, meta, decoded }),
        })
    }

    /// The raw archive bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.inner.buf.bytes()
    }

    /// Consumes the handle, returning the archive bytes: the blob itself
    /// when this is the only handle of a heap blob, a copy otherwise.
    pub fn into_vec(self) -> Vec<u8> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => ArchiveBytes::into_vec(inner.buf),
            Err(shared) => shared.buf.bytes().to_vec(),
        }
    }

    fn layout(&self) -> &ArchiveMeta {
        &self.inner.meta.layout
    }

    /// Total archive size in bytes (compressed).
    pub fn archive_bytes(&self) -> usize {
        self.as_bytes().len()
    }

    /// Byte length of the equivalent v1 (uncompressed) archive — the
    /// denominator of the compression ratio.
    pub fn v1_len(&self) -> usize {
        self.layout().len
    }

    /// The section table, for tooling (`ftc-cli info`).
    pub fn sections(&self) -> impl ExactSizeIterator<Item = SectionInfo> + '_ {
        self.inner.meta.sections.iter().map(|s| s.info)
    }

    /// Decodes (once) and returns a section. The `Result` is cached, so
    /// a corrupt section reports the same error on every touch.
    fn section(&self, idx: usize) -> Result<&DecodedSection, SerialError> {
        let slot = &self.inner.decoded[idx];
        let res = slot.get_or_init(|| self.decode_section(idx));
        match res {
            Ok(d) => Ok(d),
            Err(e) => Err(*e),
        }
    }

    fn section_bytes(&self, idx: usize) -> Result<&[u8], SerialError> {
        match self.section(idx)? {
            DecodedSection::Bytes(b) => Ok(b),
            DecodedSection::Words(_) => unreachable!("byte section decoded as words"),
        }
    }

    fn section_words(&self, idx: usize) -> Result<&[u64], SerialError> {
        match self.section(idx)? {
            DecodedSection::Words(w) => Ok(w),
            DecodedSection::Bytes(_) => unreachable!("word section decoded as bytes"),
        }
    }

    /// First-touch pipeline for one section: stored-byte checksum, then
    /// transform/entropy decode, then — for the endpoint index, the one
    /// section with invariants of its own — structural validation
    /// (mirroring what v1 `open` checks eagerly).
    fn decode_section(&self, idx: usize) -> Result<DecodedSection, SerialError> {
        let meta = &self.inner.meta;
        let SectionEntry {
            info,
            checksum,
            payload_at,
        } = meta.sections[idx];
        let payload = &self.as_bytes()[payload_at..payload_at + info.comp_len];
        if checksum64(payload) != checksum {
            return Err(SerialError::new(SerialErrorKind::Checksum, payload_at));
        }
        let rebase = |e: ftc_compress::CodecError| {
            SerialError::new(
                SerialErrorKind::Inconsistent,
                payload_at + e.offset.min(info.comp_len),
            )
        };
        let stride = match info.kind {
            SectionKind::EndpointIndex => store::ENDPOINT_ENTRY_BYTES,
            SectionKind::VertexLabels => VERTEX_RECORD_BYTES,
            SectionKind::EdgeMeta => EDGE_PREFIX_BYTES,
            SectionKind::LevelRows => {
                let words = decode_words(
                    payload,
                    info.transform,
                    info.raw_len / 8,
                    meta.layout.row_words().max(1),
                )
                .map_err(rebase)?;
                return Ok(DecodedSection::Words(words.into_boxed_slice()));
            }
        };
        let bytes = decode_bytes(payload, info.transform, info.raw_len, stride).map_err(rebase)?;
        if info.kind == SectionKind::EndpointIndex {
            store::check_endpoint_index(&bytes, meta.layout.m)
                .map_err(|_| SerialError::new(SerialErrorKind::Inconsistent, payload_at))?;
        }
        Ok(DecodedSection::Bytes(bytes.into_boxed_slice()))
    }

    /// The decoded endpoint-index or vertex-record section — what v1
    /// stores as a contiguous region.
    pub(crate) fn region(&self, kind: SectionKind) -> Result<&[u8], SerialError> {
        self.section_bytes(match kind {
            SectionKind::EndpointIndex => SEC_ENDPOINT,
            SectionKind::VertexLabels => SEC_VERTICES,
            _ => unreachable!("edges read through edge_by_id"),
        })
    }

    /// The label of vertex `v` — O(1) after the vertex section's
    /// first-touch decode; `Ok(None)` when `v` is out of range (without
    /// touching the section).
    ///
    /// # Errors
    ///
    /// [`SerialError`] if the vertex section fails lazy validation.
    pub fn vertex(&self, v: usize) -> Result<Option<VertexLabelView<'_>>, SerialError> {
        let layout = self.layout();
        if v >= layout.n {
            return Ok(None);
        }
        let records = self.region(SectionKind::VertexLabels)?;
        Ok(VertexRecords::new(layout.header, records).get(v))
    }

    /// Edge `e`'s label read in place from the decoded edge-meta and
    /// level sections, without copying its rows — what a session reads a
    /// v2 fault through. `Ok(None)` when `e` is out of range (without
    /// touching a section).
    ///
    /// # Errors
    ///
    /// [`SerialError`] if any touched section fails lazy validation.
    pub fn edge_by_id(&self, e: usize) -> Result<Option<EdgeLabelView<'_>>, SerialError> {
        if e >= self.layout().m {
            return Ok(None);
        }
        let anc = self.section_bytes(SEC_EDGEMETA)?;
        // Touch every level section now, so the view's reads cannot fail.
        for level in 0..self.layout().levels {
            self.section_words(SEC_LEVEL0 + level)?;
        }
        Ok(Some(EdgeLabelView::archived(
            self.layout(),
            &anc[e * EDGE_PREFIX_BYTES..(e + 1) * EDGE_PREFIX_BYTES],
            EdgeRows::Sections(self, e),
        )))
    }

    /// Edge `e`'s stored row at `level`, from a level section
    /// [`CompressedStore::edge_by_id`] decoded.
    pub(crate) fn level_row(&self, level: usize, e: usize) -> &[u64] {
        let rw = self.layout().row_words();
        let words = self
            .section_words(SEC_LEVEL0 + level)
            .expect("level sections are decoded by edge_by_id");
        &words[e * rw..(e + 1) * rw]
    }

    /// Builds a [`QuerySession`] for faults named by endpoint pairs,
    /// drawing buffers from `scratch` — the serving hot path. Each
    /// session decodes every touched section at most once (usually
    /// zero times: sections stay cached across sessions).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownEdge`] for unindexed pairs,
    /// [`StoreError::Corrupt`] if a section fails lazy validation,
    /// [`StoreError::Query`] from the session build.
    pub fn session_in<I>(
        &self,
        faults: I,
        scratch: &mut SessionScratch<RsVector>,
    ) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let endpoints = SectionKind::EndpointIndex;
        let edge_id = |u, v| Ok(store::find_edge_id(self.region(endpoints)?, u, v));
        let header = self.layout().header;
        store::pair_session(header, faults, edge_id, |e| self.edge_by_id(e), scratch)
    }

    /// Reconstructs the byte-identical v1 archive this container was
    /// compressed from (decodes every section).
    ///
    /// # Errors
    ///
    /// [`SerialError`] if any section fails validation.
    pub fn to_v1_vec(&self) -> Result<Vec<u8>, SerialError> {
        let layout = *self.layout();
        let row_words = layout.row_words();
        let index = self.region(SectionKind::EndpointIndex)?;
        let vertices = VertexRecords::new(layout.header, self.region(SectionKind::VertexLabels)?);
        let anc = self.section_bytes(SEC_EDGEMETA)?;
        let rows = (0..layout.levels)
            .map(|level| self.section_words(SEC_LEVEL0 + level))
            .collect::<Result<Vec<_>, _>>()?;
        let store = store::write_v1(
            Vec::new(),
            layout,
            store::endpoint_entries(index),
            |v| vertices.anc(v).expect("vertex records cover 0..n"),
            |e| store::read_edge_prefix(anc, e * EDGE_PREFIX_BYTES),
            |records| {
                for (level, words) in rows.iter().enumerate() {
                    let at = 8 * row_words * level;
                    for (e, row) in words.chunks_exact(row_words).enumerate() {
                        store::put_words(&mut records.words_mut(e)[at..at + 8 * row_words], row);
                    }
                }
            },
        );
        Ok(store.into_vec())
    }
}

/// Either archive format behind one read surface: the one place that
/// decides between v1 and v2. Four reads dispatch on the format
/// — the archive header (`ArchiveMeta`), the raw bytes, the endpoint
/// and vertex regions, and [`AnyArchive::edge_by_id`] — and every other
/// method is written once over them, so a serving layer holding an
/// `AnyArchive` never branches on the format. Fallible reads err only
/// when a lazily validated v2 section turns out corrupt, and session
/// builds report unknown faults as typed [`StoreError`]s for both
/// formats.
#[derive(Clone, Debug)]
pub enum AnyArchive {
    /// A v1 (uncompressed) archive.
    V1(LabelStore),
    /// A v2 (compressed) archive.
    V2(CompressedStore),
}

impl AnyArchive {
    /// Takes ownership of archive bytes of **either** format, without
    /// copying them, dispatching on the version tag: v1 blobs are fully
    /// validated, v2 containers open in O(header) and validate sections
    /// lazily. Errs when the bytes fit neither format (unknown versions
    /// report `UnsupportedVersion` at offset 4).
    pub fn open(bytes: Vec<u8>) -> Result<AnyArchive, SerialError> {
        AnyArchive::open_buf(Arc::new(ArchiveBytes::Heap(bytes)))
    }

    /// The one version dispatch, over a heap or mapped buffer.
    fn open_buf(buf: Arc<ArchiveBytes>) -> Result<AnyArchive, SerialError> {
        let bytes = buf.bytes();
        if bytes.len() < 6 {
            return Err(SerialError::new(SerialErrorKind::Truncated, bytes.len()));
        }
        if bytes[..4] != store::STORE_MAGIC {
            return Err(SerialError::new(SerialErrorKind::BadMagic, 0));
        }
        match u16::from_le_bytes([bytes[4], bytes[5]]) {
            store::STORE_VERSION => Ok(AnyArchive::V1(LabelStore::open_buf(buf)?)),
            STORE_VERSION_V2 => Ok(AnyArchive::V2(CompressedStore::open_buf(buf)?)),
            _ => Err(SerialError::new(SerialErrorKind::UnsupportedVersion, 4)),
        }
    }

    /// The archive header and the (v1) layout it implies.
    fn meta(&self) -> &ArchiveMeta {
        match self {
            AnyArchive::V1(v) => v.meta(),
            AnyArchive::V2(v) => v.layout(),
        }
    }

    /// The raw archive bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            AnyArchive::V1(v) => v.as_bytes(),
            AnyArchive::V2(v) => v.as_bytes(),
        }
    }

    /// The endpoint index or the vertex records: v1's region in place,
    /// v2's section decoded and validated on first touch.
    fn region(&self, kind: SectionKind) -> Result<&[u8], SerialError> {
        match self {
            AnyArchive::V1(v) => Ok(v.region(kind)),
            AnyArchive::V2(v) => v.region(kind),
        }
    }

    /// The label of edge `e`, read in place; `Ok(None)` when `e` is out
    /// of range.
    ///
    /// # Errors
    ///
    /// [`SerialError`] if a v2 section the edge reads fails lazy
    /// validation.
    pub fn edge_by_id(&self, e: usize) -> Result<Option<EdgeLabelView<'_>>, SerialError> {
        match self {
            AnyArchive::V1(v) => Ok(v.edge_by_id(e)),
            AnyArchive::V2(v) => v.edge_by_id(e),
        }
    }

    /// Number of vertex labels.
    pub fn n(&self) -> usize {
        self.meta().n
    }

    /// Number of edge labels.
    pub fn m(&self) -> usize {
        self.meta().m
    }

    /// The shared labeling header.
    pub fn header(&self) -> LabelHeader {
        self.meta().header
    }

    /// The edge encoding of the stored records.
    pub fn encoding(&self) -> EdgeEncoding {
        self.meta().encoding
    }

    /// Codec threshold `k`, from the archive header (0 without edges).
    pub fn k(&self) -> usize {
        self.meta().k
    }

    /// Hierarchy level count, from the archive header (0 without
    /// edges).
    pub fn levels(&self) -> usize {
        self.meta().levels
    }

    /// On-disk archive size in bytes.
    pub fn archive_bytes(&self) -> usize {
        self.as_bytes().len()
    }

    /// The vertex records: v1's vertex region or v2's vertex section,
    /// both validated before the first read (at open, or on the
    /// section's first touch) and read zero-copy.
    ///
    /// # Errors
    ///
    /// [`SerialError`] if a v2 vertex section fails lazy validation.
    pub fn vertex_records(&self) -> Result<VertexRecords<'_>, SerialError> {
        let records = self.region(SectionKind::VertexLabels)?;
        Ok(VertexRecords::new(self.header(), records))
    }

    /// The label of vertex `v`; `Ok(None)` when `v` is out of range
    /// (without touching a v2 section).
    pub fn vertex(&self, v: usize) -> Result<Option<VertexLabelView<'_>>, SerialError> {
        if v >= self.n() {
            return Ok(None);
        }
        Ok(self.vertex_records()?.get(v))
    }

    /// The edge ID of the edge joining `u` and `v` (either order);
    /// `Ok(None)` for pairs the labeling does not contain.
    pub fn edge_id(&self, u: usize, v: usize) -> Result<Option<usize>, SerialError> {
        let index = self.region(SectionKind::EndpointIndex)?;
        Ok(store::find_edge_id(index, u, v))
    }

    /// The endpoint index as `(u, v, edge id)` triples, in sorted
    /// endpoint order.
    pub fn endpoint_index(
        &self,
    ) -> Result<impl ExactSizeIterator<Item = (usize, usize, usize)> + '_, SerialError> {
        let index = self.region(SectionKind::EndpointIndex)?;
        Ok(store::endpoint_entries(index))
    }

    /// Builds a [`QuerySession`] for faults named by endpoint pairs,
    /// drawing buffers from `scratch`.
    pub fn session_in<I>(
        &self,
        faults: I,
        scratch: &mut SessionScratch<RsVector>,
    ) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let edge_id = |u, v| self.edge_id(u, v);
        store::pair_session(
            self.header(),
            faults,
            edge_id,
            |e| self.edge_by_id(e),
            scratch,
        )
    }

    /// Like [`AnyArchive::session_in`], naming faults by edge ID
    /// ([`StoreError::UnknownEdgeId`] for an ID outside `0..m`).
    pub fn session_in_by_ids<I>(
        &self,
        faults: I,
        scratch: &mut SessionScratch<RsVector>,
    ) -> Result<QuerySession, StoreError>
    where
        I: IntoIterator<Item = usize>,
    {
        let lookup = |id| {
            self.edge_by_id(id)
                .map_err(StoreError::Corrupt)?
                .ok_or(StoreError::UnknownEdgeId { id })
        };
        store::stream_session(self.header(), faults, lookup, scratch)
    }
}

/// Opens an archive file of **either** format with the
/// [`AnyArchive::open`] dispatch, memory-mapped where the platform
/// allows: v1 archives get a fully validated [`LabelStore`], v2
/// archives an O(header) [`CompressedStore`].
///
/// # Errors
///
/// [`StoreOpenError::Io`] on filesystem failure;
/// [`StoreOpenError::Malformed`] under the same conditions as
/// [`AnyArchive::open`].
pub fn open_path(path: impl AsRef<std::path::Path>) -> Result<AnyArchive, StoreOpenError> {
    let buf = Arc::new(ArchiveBytes::open(path.as_ref())?);
    Ok(AnyArchive::open_buf(buf)?)
}

/// O(header) parse + validation of a v2 archive's header and section
/// table.
fn parse_v2(bytes: &[u8]) -> Result<V2Meta, SerialError> {
    let truncated = |at: usize| SerialError::new(SerialErrorKind::Truncated, at);
    let inconsistent = |at: usize| SerialError::new(SerialErrorKind::Inconsistent, at);
    let layout = ArchiveMeta::parse(bytes, STORE_VERSION_V2)?;
    let section_count = SEC_LEVEL0 + layout.levels;
    let table_end = TABLE_AT + section_count * SECTION_ENTRY_BYTES;
    if bytes.len() < table_end + TOC_CHECKSUM_BYTES {
        return Err(truncated(bytes.len()));
    }
    // The table checksum guards everything `open` trusts without
    // touching payloads: a bit flip anywhere in the header or table is
    // caught here, in O(header).
    if store::u64_at(bytes, table_end) != checksum64(&bytes[..table_end]) {
        return Err(SerialError::new(SerialErrorKind::Checksum, table_end));
    }

    let mut sections = Vec::with_capacity(section_count);
    let mut payload_at = table_end + TOC_CHECKSUM_BYTES;
    for (i, expect) in raw_sections(&layout).enumerate() {
        let at = TABLE_AT + i * SECTION_ENTRY_BYTES;
        let kind = SectionKind::from_tag(bytes[at]).ok_or(inconsistent(at))?;
        let transform = bytes[at + 1];
        if bytes[at + 2] != 0 || bytes[at + 3] != 0 {
            return Err(inconsistent(at + 2));
        }
        let level = store::u32_at(bytes, at + 4);
        let raw_len = store::u64_at(bytes, at + 8);
        let comp_len = store::u64_at(bytes, at + 16);
        let checksum = store::u64_at(bytes, at + 24);
        let (Ok(raw_len), Ok(comp_len)) = (usize::try_from(raw_len), usize::try_from(comp_len))
        else {
            return Err(inconsistent(at + 8));
        };
        // Fixed slot assignment and header-derived raw lengths: the
        // decoder can then trust index arithmetic into decoded sections.
        let expect_level = expect.level.unwrap_or(0);
        if kind != expect.kind || level as usize != expect_level || raw_len != expect.raw_len {
            return Err(inconsistent(at));
        }
        let Some(end) = payload_at.checked_add(comp_len) else {
            return Err(inconsistent(at + 16));
        };
        if end > bytes.len() {
            return Err(truncated(bytes.len()));
        }
        sections.push(SectionEntry {
            info: SectionInfo {
                comp_len,
                transform,
                ..expect
            },
            checksum,
            payload_at,
        });
        payload_at = end;
    }
    if payload_at != bytes.len() {
        return Err(SerialError::new(SerialErrorKind::TrailingBytes, payload_at));
    }

    Ok(V2Meta { layout, sections })
}

/// Writes a v2 archive of `layout` — the one v2 writer, behind
/// [`compress_archive`] and the streaming compressed build. It builds
/// the endpoint-index block from `entries`, the vertex block from
/// `vertex_anc` and the edge-meta block from `edge_anc` (each edge's
/// ancestry pair, upper then lower), takes one already encoded block per
/// hierarchy level from `level_blocks`, and assembles header, section
/// table and payloads.
fn write_v2(
    layout: &ArchiveMeta,
    entries: impl Iterator<Item = (usize, usize, usize)>,
    vertex_anc: impl Fn(usize) -> AncestryLabel,
    edge_anc: impl Fn(usize) -> (AncestryLabel, AncestryLabel),
    level_blocks: impl Iterator<Item = ftc_compress::EncodedBlock>,
) -> CompressedStore {
    let mut blocks = Vec::with_capacity(SEC_LEVEL0 + layout.levels);
    let mut raw = vec![0u8; layout.idx_count * store::ENDPOINT_ENTRY_BYTES];
    store::write_endpoint_index(&mut raw, 0, entries);
    blocks.push(encode_bytes(&raw, store::ENDPOINT_ENTRY_BYTES));
    raw = vec![0u8; layout.n * VERTEX_RECORD_BYTES];
    store::write_vertex_labels(&mut raw, 0, layout.n, vertex_anc);
    blocks.push(encode_bytes(&raw, VERTEX_RECORD_BYTES));
    raw = vec![0u8; layout.m * EDGE_PREFIX_BYTES];
    store::write_edge_prefixes(&mut raw, (0, EDGE_PREFIX_BYTES), layout.m, edge_anc);
    blocks.push(encode_bytes(&raw, EDGE_PREFIX_BYTES));
    drop(raw);
    blocks.extend(level_blocks);
    debug_assert_eq!(blocks.len(), SEC_LEVEL0 + layout.levels);

    let table_end = TABLE_AT + blocks.len() * SECTION_ENTRY_BYTES;
    let payload_len: usize = blocks.iter().map(|b| b.payload.len()).sum();
    let mut out = vec![0u8; table_end + TOC_CHECKSUM_BYTES + payload_len];
    store::write_fixed_header(&mut out, STORE_VERSION_V2, layout);
    let mut payload_at = table_end + TOC_CHECKSUM_BYTES;
    for (i, (block, info)) in blocks.iter().zip(raw_sections(layout)).enumerate() {
        let at = TABLE_AT + i * SECTION_ENTRY_BYTES;
        out[at] = info.kind.tag();
        out[at + 1] = block.transform;
        store::put_u32(&mut out, at + 4, info.level.unwrap_or(0) as u32);
        store::put_u64(&mut out, at + 8, block.raw_len);
        store::put_u64(&mut out, at + 16, block.payload.len() as u64);
        store::put_u64(&mut out, at + 24, checksum64(&block.payload));
        out[payload_at..payload_at + block.payload.len()].copy_from_slice(&block.payload);
        payload_at += block.payload.len();
    }
    let toc = checksum64(&out[..table_end]);
    store::put_u64(&mut out, table_end, toc);
    CompressedStore::open(out).expect("freshly assembled archives are well-formed")
}

/// Encodes one level section's rows (`row_words` stored words per edge).
fn encode_level(words: &[u64], layout: &ArchiveMeta) -> ftc_compress::EncodedBlock {
    let full = layout.encoding == EdgeEncoding::Full;
    encode_words(words, layout.row_words().max(1), full)
}

/// Transcodes a validated v1 archive into the v2 compressed container.
/// Lossless: [`CompressedStore::to_v1_vec`] reproduces the input byte
/// for byte.
pub fn compress_archive(v1: &LabelStore) -> CompressedStore {
    let layout = v1.meta();
    let (m, row_words) = (layout.m, layout.row_words());
    let vertices = v1.vertex_records();
    let record = |e: usize| layout.edges_at + e * layout.record_len;

    // Transpose: one section per level, all edges' rows for that level.
    let mut words = vec![0u64; m * row_words];
    let level_blocks = (0..layout.levels).map(|level| {
        for e in 0..m {
            let base = record(e) + EDGE_PREFIX_BYTES + level * row_words * 8;
            for (j, w) in words[e * row_words..(e + 1) * row_words]
                .iter_mut()
                .enumerate()
            {
                *w = store::u64_at(v1.as_bytes(), base + 8 * j);
            }
        }
        encode_level(&words, layout)
    });
    write_v2(
        layout,
        v1.endpoint_index(),
        |v| vertices.anc(v).expect("vertex records cover 0..n"),
        |e| store::read_edge_prefix(v1.as_bytes(), record(e)),
        level_blocks,
    )
}

/// [`LevelSink`] staging each level's rows and compressing them the
/// moment the level completes — the streaming compressed-build path.
/// Peak memory is one (full-width) level buffer per worker thread plus
/// the already-encoded blocks, never the uncompressed blob.
struct CompressingSink<'a> {
    layout: &'a ArchiveMeta,
    staging: Vec<Mutex<Vec<u64>>>,
    encoded: Vec<Mutex<Option<ftc_compress::EncodedBlock>>>,
}

impl LevelSink for CompressingSink<'_> {
    fn write_row(&self, e: usize, level: usize, row: &[Gf64]) {
        let row_words = self.layout.row_words();
        let mut stage = self.staging[level].lock().expect("sink poisoned");
        if stage.is_empty() {
            stage.resize(self.layout.m * row_words, 0);
        }
        let dst = &mut stage[e * row_words..(e + 1) * row_words];
        for (d, x) in dst.iter_mut().zip(self.layout.encoding.stored(row)) {
            *d = x.to_bits();
        }
    }

    fn finish_level(&self, level: usize) {
        let words = std::mem::take(&mut *self.staging[level].lock().expect("sink poisoned"));
        let block = encode_level(&words, self.layout);
        *self.encoded[level].lock().expect("sink poisoned") = Some(block);
    }
}

/// Runs a staged construction straight into a v2 compressed archive —
/// the counterpart of [`crate::store::stream_from_build`]. Byte-identical
/// to [`compress_archive`] of the equivalent streamed v1 archive, for
/// every thread count.
pub(crate) fn stream_compressed_from_build(
    ctx: &BuildCtx,
    encoding: EdgeEncoding,
) -> CompressedStore {
    let layout = ctx.archive_meta(encoding);
    let sink = CompressingSink {
        layout: &layout,
        staging: (0..layout.levels).map(|_| Mutex::new(Vec::new())).collect(),
        encoded: (0..layout.levels).map(|_| Mutex::new(None)).collect(),
    };
    ctx.subtree_sums(&sink);
    let level_blocks = sink.encoded.into_iter().map(|slot| {
        slot.into_inner()
            .expect("sink poisoned")
            .expect("the subtree sums finish every level")
    });
    write_v2(
        &layout,
        ctx.index.iter(),
        |v| ctx.aux.anc[v],
        |e| ctx.edge_anc(e),
        level_blocks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::scheme::FtcScheme;
    use ftc_graph::{generators, Graph};

    /// A labeling with two hierarchy levels at f = 2, so a writer that
    /// put one level's rows at another level's offset fails the pins
    /// that use it.
    fn multi_level_graph() -> Graph {
        generators::random_connected(60, 100, 7)
    }

    fn v1_blob(encoding: EdgeEncoding) -> (Graph, Vec<u8>) {
        let g = Graph::torus(4, 5);
        let scheme = FtcScheme::build(&g, &Params::deterministic(3)).unwrap();
        let blob = LabelStore::to_vec(scheme.labels(), encoding);
        (g, blob)
    }

    #[test]
    fn transcode_round_trips_byte_identical() {
        let scheme = FtcScheme::build(&multi_level_graph(), &Params::deterministic(2)).unwrap();
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            let blob = LabelStore::to_vec(scheme.labels(), encoding);
            let v1 = LabelStore::open(blob.clone()).unwrap();
            assert!(v1.levels() >= 2, "the fixture must build several levels");
            let v2 = compress_archive(&v1);
            assert!(
                v2.as_bytes().len() < blob.len(),
                "{encoding:?}: {} >= {}",
                v2.as_bytes().len(),
                blob.len()
            );
            let back = v2.to_v1_vec().unwrap();
            assert_eq!(back, blob, "{encoding:?} transcode not byte-identical");
        }
    }

    #[test]
    fn full_encoding_level_sections_compress_at_least_2x() {
        // The Frobenius fold alone halves full-encoding level rows; delta
        // + packing + rANS must not give that back.
        let (_, blob) = v1_blob(EdgeEncoding::Full);
        let v2 = compress_archive(&LabelStore::open(blob.clone()).unwrap());
        let view = v2;
        let (raw, comp) = view
            .sections()
            .filter(|s| s.kind == SectionKind::LevelRows)
            .fold((0usize, 0usize), |(r, c), s| {
                (r + s.raw_len, c + s.comp_len)
            });
        assert!(
            comp * 2 <= raw,
            "expected >=2x on level rows, got {comp} vs {raw}"
        );
    }

    #[test]
    fn sessions_answer_like_v1() {
        let (g, blob) = v1_blob(EdgeEncoding::Full);
        let v1 = LabelStore::open(blob.clone()).unwrap();
        let v2 = compress_archive(&v1);
        let layout = v2.layout();
        assert_eq!((v1.n(), v1.m()), (layout.n, layout.m));
        assert_eq!(v1.header(), layout.header);
        let mut scratch = SessionScratch::new();
        let faults = [(0usize, 1usize), (0, 5), (1, 2)];
        let s1 = v1.session_in(faults, &mut SessionScratch::new()).unwrap();
        let s2 = v2.session_in(faults, &mut scratch).unwrap();
        for s in 0..g.n() {
            for t in (s + 1)..g.n() {
                let a = s1
                    .connected(v1.vertex(s).unwrap(), v1.vertex(t).unwrap())
                    .unwrap();
                let b = s2
                    .connected(
                        v2.vertex(s).unwrap().unwrap(),
                        v2.vertex(t).unwrap().unwrap(),
                    )
                    .unwrap();
                assert_eq!(a, b, "pair ({s}, {t})");
            }
        }
    }

    #[test]
    fn unknown_pairs_and_out_of_range_ids_are_typed_errors() {
        let (_, blob) = v1_blob(EdgeEncoding::Compact);
        let v2 = compress_archive(&LabelStore::open(blob.clone()).unwrap()).into_vec();
        // Both formats report the same typed errors, and neither panics
        // on an out-of-range edge ID.
        for bytes in [blob, v2] {
            let archive = AnyArchive::open(bytes).unwrap();
            let mut scratch = SessionScratch::new();
            match archive.session_in([(0, 1), (0, 19)], &mut scratch) {
                Err(StoreError::UnknownEdge { u: 0, v: 19 }) => {}
                other => panic!("expected UnknownEdge, got {other:?}"),
            }
            let m = archive.m();
            match archive.session_in_by_ids([0, m], &mut scratch) {
                Err(StoreError::UnknownEdgeId { id }) => assert_eq!(id, m),
                other => panic!("expected UnknownEdgeId, got {other:?}"),
            }
            assert!(archive.session_in_by_ids([0, m - 1], &mut scratch).is_ok());
            assert!(archive.vertex(archive.n()).unwrap().is_none());
            assert_eq!(archive.edge_id(0, 19).unwrap(), None);
        }
    }

    #[test]
    fn any_archive_open_dispatches_on_the_version_tag() {
        let (_, blob) = v1_blob(EdgeEncoding::Full);
        let v2 = compress_archive(&LabelStore::open(blob.clone()).unwrap()).into_vec();
        let v1 = AnyArchive::open(blob.clone()).unwrap();
        let z = AnyArchive::open(v2).unwrap();
        assert!(matches!(v1, AnyArchive::V1(_)));
        assert!(matches!(z, AnyArchive::V2(_)));
        assert_eq!((v1.k(), v1.levels()), (z.k(), z.levels()));
        assert!(v1.endpoint_index().unwrap().eq(z.endpoint_index().unwrap()));
        // Unknown versions, and the versions whose records repeated the
        // header (1 and 2), are refused at the version field.
        for version in [1u8, 2, 9] {
            let mut bad = blob.clone();
            bad[4] = version;
            assert_eq!(
                AnyArchive::open(bad).unwrap_err(),
                SerialError::new(SerialErrorKind::UnsupportedVersion, 4)
            );
        }
    }

    #[test]
    fn streamed_compressed_build_matches_transcoded_v1() {
        let g = multi_level_graph();
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            for threads in [1usize, 3] {
                let (v1_store, _) = FtcScheme::builder(&g)
                    .params(&Params::deterministic(2))
                    .threads(threads)
                    .build_store(encoding)
                    .unwrap();
                assert!(
                    v1_store.levels() >= 2,
                    "the fixture must build several levels"
                );
                let transcoded = compress_archive(&v1_store);
                let (streamed, _) = FtcScheme::builder(&g)
                    .params(&Params::deterministic(2))
                    .threads(threads)
                    .build_store_compressed(encoding)
                    .unwrap();
                assert_eq!(
                    streamed.as_bytes(),
                    transcoded.as_bytes(),
                    "{encoding:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn open_is_o_header_and_corruption_is_lazy() {
        let (_, blob) = v1_blob(EdgeEncoding::Full);
        let v2 = compress_archive(&LabelStore::open(blob.clone()).unwrap());
        let mut bytes = v2.into_vec();

        // Flip a byte deep inside the last section's payload: open must
        // still succeed (it never touches payloads) …
        let at = bytes.len() - 9;
        bytes[at] ^= 0x10;
        let view = CompressedStore::open(bytes.clone()).unwrap();
        // … but first touch of that section reports a typed checksum
        // error at an in-bounds offset.
        let top = view.layout().levels - 1;
        let err = match view.edge_by_id(0) {
            Err(e) => e,
            Ok(_) => panic!("corrupt level {top} section served"),
        };
        assert_eq!(err.kind, SerialErrorKind::Checksum);
        assert!(err.offset < bytes.len());

        // Sessions surface it as StoreError::Corrupt, once a fault reads
        // the section.
        let archive = AnyArchive::V2(view);
        let mut scratch = SessionScratch::new();
        assert!(archive.session_in([], &mut scratch).is_ok());
        assert!(matches!(
            archive.session_in_by_ids([0], &mut scratch),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn header_corruption_rejected_at_open() {
        let (_, blob) = v1_blob(EdgeEncoding::Full);
        let bytes = compress_archive(&LabelStore::open(blob.clone()).unwrap()).into_vec();
        // Any flip in the header or table is caught at open by the
        // table checksum (or an earlier structural check) — never a
        // panic, always an in-bounds offset.
        let table_end = TABLE_AT
            + (SEC_LEVEL0
                + CompressedStore::open(bytes.clone())
                    .unwrap()
                    .layout()
                    .levels)
                * SECTION_ENTRY_BYTES;
        for at in 0..table_end + TOC_CHECKSUM_BYTES {
            let mut bad = bytes.clone();
            bad[at] ^= 0x04;
            let err = CompressedStore::open(bad).expect_err("header flip must be rejected");
            assert!(err.offset <= bytes.len(), "offset out of bounds at {at}");
        }
        // Truncation at every prefix is rejected cleanly too.
        for cut in 0..bytes.len().min(512) {
            assert!(CompressedStore::open(bytes[..cut].to_vec()).is_err());
        }
    }

    #[test]
    fn empty_graph_archives_round_trip() {
        let g = Graph::new(5);
        let scheme = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let blob = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Full);
        let v2 = compress_archive(&LabelStore::open(blob.clone()).unwrap());
        let view = v2;
        assert_eq!(view.layout().m, 0);
        assert_eq!(view.to_v1_vec().unwrap(), blob);
        // Without edges there is no geometry to record, so the streamed
        // builds match the owned encoder and the transcoder.
        let builder = || FtcScheme::builder(&g).params(&Params::deterministic(1));
        let (streamed, _) = builder().build_store(EdgeEncoding::Full).unwrap();
        assert_eq!(streamed.as_bytes(), &blob[..]);
        assert_eq!((streamed.k(), streamed.levels()), (0, 0));
        let (streamed, _) = builder()
            .build_store_compressed(EdgeEncoding::Full)
            .unwrap();
        assert_eq!(streamed.as_bytes(), view.as_bytes());
        // A header claiming a geometry without edges is rejected.
        let mut forged = blob;
        store::put_u32(&mut forged, 32, 8);
        store::seal_v1_checksum(&mut forged);
        assert_eq!(
            LabelStore::open(forged).unwrap_err(),
            SerialError::new(SerialErrorKind::Inconsistent, 32)
        );
    }
}

//! Byte-level label serialization and zero-copy label views.
//!
//! Labels are *the* artifact of a labeling scheme: they must be storable,
//! shippable, and decodable with no access to the graph. This module
//! provides a compact little-endian layout for the deterministic scheme's
//! labels — one vertex codec and one edge codec pair
//! ([`edge_to_bytes`] under either [`EdgeEncoding`], [`edge_from_bytes`]
//! of either magic) — plus [`VertexLabelView`] / [`EdgeLabelView`]:
//! validated borrowed views implementing the label-read traits directly
//! over the serialized bytes, so a decoder
//! ([`crate::session::QuerySession`]) can answer queries straight from
//! stored or transmitted label bytes without materializing owned labels.
//! The same two views are what the archives of [`crate::store`] and
//! [`crate::compressed`] hand out: [`EdgeLabelView`] is the one edge
//! reader of loose labels and both archive formats.

use crate::ancestry::AncestryLabel;
use crate::compressed::CompressedStore;
use crate::labels::{
    whole_levels, EdgeLabel, EdgeLabelRead, LabelHeader, RsVector, VertexLabel, VertexLabelRead,
};
use crate::store::{self, ArchiveMeta, EdgeEncoding};
use ftc_field::Gf64;

pub(crate) const VERTEX_MAGIC: u16 = 0x4656; // "FV"
pub(crate) const EDGE_MAGIC: u16 = 0x4645; // "FE"
pub(crate) const COMPACT_EDGE_MAGIC: u16 = 0x4643; // "FC"

/// A serialization failure, locating the offending byte.
///
/// Every parser and view constructor in this module (and the archive
/// reader in [`crate::store`]) reports the byte offset at which the
/// problem was detected, so corrupt stored labels can be diagnosed
/// without a hex dump diff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SerialError {
    /// Byte offset (from the start of the parsed input) at which the
    /// problem was detected.
    pub offset: usize,
    /// What went wrong at [`SerialError::offset`].
    pub kind: SerialErrorKind,
}

/// What a [`SerialError`] found at its offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SerialErrorKind {
    /// The magic bytes do not match the expected layout.
    BadMagic,
    /// The input ends before the field starting here is complete.
    Truncated,
    /// A length or geometry field contradicts the surrounding layout.
    Inconsistent,
    /// Parsing finished but unconsumed bytes remain from here on.
    TrailingBytes,
    /// The archive declares a format version this build cannot read.
    UnsupportedVersion,
    /// A stored checksum does not match the bytes it covers.
    Checksum,
}

impl SerialError {
    pub(crate) fn new(kind: SerialErrorKind, offset: usize) -> SerialError {
        SerialError { offset, kind }
    }
}

impl std::fmt::Display for SerialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            SerialErrorKind::BadMagic => "bad magic",
            SerialErrorKind::Truncated => "truncated input",
            SerialErrorKind::Inconsistent => "inconsistent length or geometry",
            SerialErrorKind::TrailingBytes => "trailing bytes",
            SerialErrorKind::UnsupportedVersion => "unsupported format version",
            SerialErrorKind::Checksum => "checksum mismatch",
        };
        write!(f, "malformed label bytes: {what} at byte {}", self.offset)
    }
}

impl std::error::Error for SerialError {}

/// Serializes a vertex label: magic and header, then the label's
/// archive record (one record writer serves both).
pub fn vertex_to_bytes(l: &VertexLabel) -> Vec<u8> {
    let mut buf = vec![0u8; VERTEX_LABEL_BYTES];
    write_loose_prefix(&mut buf, VERTEX_MAGIC, l.header);
    store::write_vertex_record(&mut buf, LOOSE_PREFIX_BYTES, &l.anc);
    buf
}

/// Deserializes a vertex label.
///
/// # Errors
///
/// [`SerialError`] (with the offending byte offset) on bad magic,
/// truncation, or trailing bytes.
pub fn vertex_from_bytes(bytes: &[u8]) -> Result<VertexLabel, SerialError> {
    Ok(VertexLabelView::new(bytes)?.to_label())
}

/// Writes the magic and header that make a loose label self-describing.
fn write_loose_prefix(buf: &mut [u8], magic: u16, header: LabelHeader) {
    buf[..2].copy_from_slice(&magic.to_le_bytes());
    store::put_header(buf, 2, header);
}

/// Serializes an edge label under `encoding`: magic and header, the
/// record's ancestry pair, the geometry fields (`k`, then the stored word
/// count for the full encoding or the level count for the compact one),
/// and the record's stored words. The compact encoding keeps only the `k`
/// odd power sums of each level (extension E12); a reader rebuilds the
/// even ones as `s_{2j} = s_j²`.
pub fn edge_to_bytes(l: &EdgeLabel<RsVector>, encoding: EdgeEncoding) -> Vec<u8> {
    let (k, levels) = (l.vec.k(), l.vec.levels());
    let words = encoding.row_words(k) * levels;
    let mut buf = vec![0u8; LOOSE_EDGE_WORDS_OFFSET + 8 * words];
    let (magic, geometry) = match encoding {
        EdgeEncoding::Full => (EDGE_MAGIC, words),
        EdgeEncoding::Compact => (COMPACT_EDGE_MAGIC, levels),
    };
    write_loose_prefix(&mut buf, magic, l.header);
    store::write_edge_prefix(&mut buf, LOOSE_PREFIX_BYTES, &l.anc_upper, &l.anc_lower);
    store::put_u32(&mut buf, LOOSE_EDGE_WORDS_OFFSET - 8, k as u32);
    store::put_u32(&mut buf, LOOSE_EDGE_WORDS_OFFSET - 4, geometry as u32);
    store::put_stored(&mut buf[LOOSE_EDGE_WORDS_OFFSET..], encoding, l.vec.raw());
    buf
}

/// Deserializes an edge label of either encoding, a compact one expanded
/// back to full `2k`-element syndromes.
///
/// # Errors
///
/// [`SerialError`] (with the offending byte offset) on bad magic,
/// truncation, inconsistent geometry, or trailing bytes.
pub fn edge_from_bytes(bytes: &[u8]) -> Result<EdgeLabel<RsVector>, SerialError> {
    Ok(EdgeLabelView::new(bytes)?.to_label())
}

// ---------------------------------------------------------------------------
// Zero-copy views
// ---------------------------------------------------------------------------

// Fixed field offsets of the serialized layouts (little-endian).
pub(crate) const HEADER_BYTES: usize = 4 + 4 + 8;
pub(crate) const ANC_BYTES: usize = 3 * 4;
/// Magic and header: what a loose label carries before its record.
const LOOSE_PREFIX_BYTES: usize = 2 + HEADER_BYTES;
/// Byte length of a vertex record: its ancestry label.
pub(crate) const VERTEX_RECORD_BYTES: usize = ANC_BYTES;
/// Byte length of an edge record before its payload words: the ancestry
/// labels of both endpoints of `σ(e)`.
pub(crate) const EDGE_PREFIX_BYTES: usize = 2 * ANC_BYTES;
/// Byte offset of the syndrome words inside a loose edge label: prefix,
/// ancestry pair, `k` and the payload-geometry field.
const LOOSE_EDGE_WORDS_OFFSET: usize = LOOSE_PREFIX_BYTES + EDGE_PREFIX_BYTES + 4 + 4;

/// Exact byte length of every serialized vertex label.
pub const VERTEX_LABEL_BYTES: usize = LOOSE_PREFIX_BYTES + VERTEX_RECORD_BYTES;

fn read_u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

/// The leading two-byte magic, or truncation at the input length; a
/// caller refuses a magic it does not read as `BadMagic` at offset 0.
fn read_magic(bytes: &[u8]) -> Result<u16, SerialError> {
    match bytes {
        [a, b, ..] => Ok(u16::from_le_bytes([*a, *b])),
        _ => Err(SerialError::new(SerialErrorKind::Truncated, bytes.len())),
    }
}

/// Checks an exact expected length: a short input is truncated at its
/// end, a long one has trailing bytes starting at `expected`.
fn check_exact_len(bytes: &[u8], expected: usize) -> Result<(), SerialError> {
    match bytes.len() {
        l if l < expected => Err(SerialError::new(SerialErrorKind::Truncated, l)),
        l if l > expected => Err(SerialError::new(SerialErrorKind::TrailingBytes, expected)),
        _ => Ok(()),
    }
}

fn read_u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

pub(crate) fn read_header_at(buf: &[u8], at: usize) -> LabelHeader {
    LabelHeader {
        f: read_u32_at(buf, at),
        aux_n: read_u32_at(buf, at + 4),
        tag: read_u64_at(buf, at + 8),
    }
}

/// One bounds check for the whole label: the pair path reads two of
/// these per answer.
#[inline]
pub(crate) fn read_anc_at(buf: &[u8], at: usize) -> AncestryLabel {
    let rec: &[u8; ANC_BYTES] = buf[at..at + ANC_BYTES]
        .try_into()
        .expect("a slice of ANC_BYTES bytes");
    let word = |i: usize| u32::from_le_bytes([rec[i], rec[i + 1], rec[i + 2], rec[i + 3]]);
    AncestryLabel {
        pre: word(0),
        last: word(4),
        comp: word(8),
    }
}

/// A zero-copy view of a vertex label: the labeling header beside the
/// label's record, its 12-byte ancestry label. A loose label
/// ([`vertex_to_bytes`] layout) supplies its own header; an archive
/// record takes its archive's. Implements [`VertexLabelRead`], so it can
/// be passed to [`crate::session::QuerySession::connected`] directly —
/// no owned [`VertexLabel`] is ever materialized.
#[derive(Clone, Copy, Debug)]
pub struct VertexLabelView<'a> {
    header: LabelHeader,
    rec: &'a [u8],
}

impl<'a> VertexLabelView<'a> {
    /// Validates magic and length of a loose label.
    ///
    /// # Errors
    ///
    /// [`SerialError`] (with the offending byte offset) on bad magic,
    /// truncation, or trailing bytes.
    pub fn new(bytes: &'a [u8]) -> Result<VertexLabelView<'a>, SerialError> {
        if read_magic(bytes)? != VERTEX_MAGIC {
            return Err(SerialError::new(SerialErrorKind::BadMagic, 0));
        }
        check_exact_len(bytes, VERTEX_LABEL_BYTES)?;
        Ok(VertexLabelView {
            header: read_header_at(bytes, 2),
            rec: &bytes[LOOSE_PREFIX_BYTES..],
        })
    }

    /// Copies the view out into an owned label.
    pub fn to_label(&self) -> VertexLabel {
        VertexLabel {
            header: self.header,
            anc: VertexLabelRead::anc(self),
        }
    }
}

impl VertexLabelRead for VertexLabelView<'_> {
    fn header(&self) -> LabelHeader {
        self.header
    }

    fn anc(&self) -> AncestryLabel {
        read_anc_at(self.rec, 0)
    }
}

/// The vertex records of an archive: `n` ancestry labels back to back
/// at the fixed 12-byte stride, under the archive's one header. Reads
/// are zero-copy: [`VertexRecords::anc`] is the ancestry label straight
/// out of the bytes, the only part of a vertex label a query reads once
/// the header is known to match.
#[derive(Clone, Copy, Debug)]
pub struct VertexRecords<'a> {
    header: LabelHeader,
    bytes: &'a [u8],
    n: usize,
}

impl<'a> VertexRecords<'a> {
    /// Records over a whole number of vertex records.
    pub(crate) fn new(header: LabelHeader, bytes: &'a [u8]) -> VertexRecords<'a> {
        debug_assert_eq!(bytes.len() % VERTEX_RECORD_BYTES, 0);
        VertexRecords {
            header,
            bytes,
            n: bytes.len() / VERTEX_RECORD_BYTES,
        }
    }

    /// Number of vertex records.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the archive has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The label of vertex `v` as a view; `None` when `v` is out of
    /// range.
    pub fn get(&self, v: usize) -> Option<VertexLabelView<'a>> {
        let at = self.at(v)?;
        Some(VertexLabelView {
            header: self.header,
            rec: &self.bytes[at..at + VERTEX_RECORD_BYTES],
        })
    }

    /// The ancestry label of vertex `v`; `None` when `v` is out of range.
    #[inline]
    pub fn anc(&self, v: usize) -> Option<AncestryLabel> {
        Some(read_anc_at(self.bytes, self.at(v)?))
    }

    #[inline]
    fn at(&self, v: usize) -> Option<usize> {
        (v < self.n).then(|| v * VERTEX_RECORD_BYTES)
    }
}

/// A zero-copy view of an edge label, loose or archived: the labeling
/// header, edge encoding and codec geometry beside the 24-byte ancestry
/// pair and the syndrome rows — a loose label's or a v1 record's stored
/// words, or edge `e`'s row in each of a v2 archive's decoded level
/// sections. A loose label ([`edge_to_bytes`] layout, either magic)
/// supplies its own header and geometry; an archived edge takes its
/// archive's. Implements [`EdgeLabelRead`]: the ancestry fields decode on
/// demand, and each stored row XORs into a session's fault slab straight
/// out of the bytes ([`crate::store`]'s one row reader expands a compact
/// row from its odd power sums), so no owned label is materialized per
/// fault.
#[derive(Clone, Copy, Debug)]
pub struct EdgeLabelView<'a> {
    header: LabelHeader,
    encoding: EdgeEncoding,
    k: usize,
    levels: usize,
    /// The ancestry pair (upper, lower).
    anc: &'a [u8],
    rows: EdgeRows<'a>,
}

/// Where an edge view's syndrome rows are stored.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EdgeRows<'a> {
    /// A loose label's or a v1 record's stored words, level-major,
    /// little-endian.
    Record(&'a [[u8; 8]]),
    /// Edge `e` of a v2 archive, whose level sections are decoded.
    Sections(&'a CompressedStore, usize),
}

impl<'a> EdgeLabelView<'a> {
    /// Validates the magic (full or compact), geometry and length of a
    /// loose label.
    ///
    /// # Errors
    ///
    /// [`SerialError`] (with the offending byte offset) on bad magic,
    /// truncation, inconsistent geometry, or trailing bytes.
    pub fn new(bytes: &'a [u8]) -> Result<EdgeLabelView<'a>, SerialError> {
        let encoding = match read_magic(bytes)? {
            EDGE_MAGIC => EdgeEncoding::Full,
            COMPACT_EDGE_MAGIC => EdgeEncoding::Compact,
            _ => return Err(SerialError::new(SerialErrorKind::BadMagic, 0)),
        };
        if bytes.len() < LOOSE_EDGE_WORDS_OFFSET {
            return Err(SerialError::new(SerialErrorKind::Truncated, bytes.len()));
        }
        let inconsistent =
            SerialError::new(SerialErrorKind::Inconsistent, LOOSE_EDGE_WORDS_OFFSET - 4);
        let k = read_u32_at(bytes, LOOSE_EDGE_WORDS_OFFSET - 8) as usize;
        let field = read_u32_at(bytes, LOOSE_EDGE_WORDS_OFFSET - 4) as usize;
        // A full label stores its word count, a compact one its level
        // count; both then meet the archive header's geometry rule.
        let levels = match encoding {
            EdgeEncoding::Full if !whole_levels(k, field) => return Err(inconsistent),
            EdgeEncoding::Full => field.checked_div(2 * k).unwrap_or(0),
            EdgeEncoding::Compact => field,
        };
        if !store::valid_geometry(k, levels) {
            return Err(inconsistent);
        }
        let len = encoding
            .row_words(k)
            .checked_mul(levels)
            .and_then(|w| w.checked_mul(8))
            .and_then(|w| w.checked_add(LOOSE_EDGE_WORDS_OFFSET))
            .ok_or(inconsistent)?;
        check_exact_len(bytes, len)?;
        Ok(EdgeLabelView {
            header: read_header_at(bytes, 2),
            encoding,
            k,
            levels,
            anc: &bytes[LOOSE_PREFIX_BYTES..LOOSE_PREFIX_BYTES + EDGE_PREFIX_BYTES],
            rows: EdgeRows::Record(bytes[LOOSE_EDGE_WORDS_OFFSET..].as_chunks().0),
        })
    }

    /// An archived edge: `anc` and `rows` read under `meta`'s header,
    /// encoding and geometry.
    pub(crate) fn archived(meta: &ArchiveMeta, anc: &'a [u8], rows: EdgeRows<'a>) -> Self {
        EdgeLabelView {
            header: meta.header,
            encoding: meta.encoding,
            k: meta.k,
            levels: meta.levels,
            anc,
            rows,
        }
    }

    /// Copies the view out into an owned label, its rows expanded to full
    /// `2k`-element syndromes.
    pub fn to_label(&self) -> EdgeLabel<RsVector> {
        let mut words = vec![0u64; self.slab_words()];
        self.xor_into_slab(&mut words);
        EdgeLabel {
            header: self.header,
            anc_upper: self.anc_upper(),
            anc_lower: self.anc_lower(),
            vec: RsVector::from_raw(self.k, words.into_iter().map(Gf64::new).collect()),
        }
    }
}

impl EdgeLabelRead for EdgeLabelView<'_> {
    type Vector = RsVector;

    fn header(&self) -> LabelHeader {
        self.header
    }

    fn anc_upper(&self) -> AncestryLabel {
        read_anc_at(self.anc, 0)
    }

    fn anc_lower(&self) -> AncestryLabel {
        read_anc_at(self.anc, ANC_BYTES)
    }

    fn slab_words(&self) -> usize {
        2 * self.k * self.levels
    }

    fn xor_into_slab(&self, dst: &mut [u64]) {
        assert_eq!(dst.len(), self.slab_words(), "mixed vector widths");
        let row_words = self.encoding.row_words(self.k);
        for (level, out) in dst.chunks_exact_mut(2 * self.k.max(1)).enumerate() {
            match self.rows {
                EdgeRows::Record(words) => store::xor_row(
                    self.encoding,
                    &words[level * row_words..(level + 1) * row_words],
                    u64::from_le_bytes,
                    out,
                ),
                EdgeRows::Sections(archive, e) => {
                    store::xor_row(self.encoding, archive.level_row(level, e), |w| w, out)
                }
            }
        }
    }

    fn configure_detector(&self, det: &mut crate::labels::RsDetector) {
        det.configure(self.k, self.levels, self.header.aux_n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::scheme::FtcScheme;
    use ftc_graph::Graph;

    /// A label's vector as slab words, XORed into a zeroed row.
    fn slab_of(label: &impl EdgeLabelRead) -> Vec<u64> {
        let mut words = vec![0u64; label.slab_words()];
        label.xor_into_slab(&mut words);
        words
    }

    #[test]
    fn vertex_round_trip() {
        let g = Graph::cycle(5);
        let s = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        for v in 0..5 {
            let l = s.labels().vertex_label(v);
            let bytes = vertex_to_bytes(l);
            assert_eq!(&vertex_from_bytes(&bytes).unwrap(), l);
        }
    }

    #[test]
    fn edge_round_trip() {
        let g = Graph::cycle(5);
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        for e in 0..5 {
            let l = s.labels().edge_label_by_id(e);
            for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
                let bytes = edge_to_bytes(l, encoding);
                assert_eq!(&edge_from_bytes(&bytes).unwrap(), l, "{encoding:?}");
            }
        }
    }

    #[test]
    fn malformed_inputs_rejected_with_offsets() {
        assert_eq!(
            vertex_from_bytes(&[]),
            Err(SerialError::new(SerialErrorKind::Truncated, 0))
        );
        assert_eq!(
            vertex_from_bytes(&[0xff; 30]),
            Err(SerialError::new(SerialErrorKind::BadMagic, 0))
        );
        // Correct edge magic but nothing after it: truncated at offset 2.
        assert_eq!(
            edge_from_bytes(&[0x45, 0x46]),
            Err(SerialError::new(SerialErrorKind::Truncated, 2))
        );
        // Truncated edge payload: reported at the input's length, like
        // every other truncation.
        let g = Graph::cycle(4);
        let s = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let bytes = edge_to_bytes(s.labels().edge_label_by_id(0), EdgeEncoding::Full);
        assert_eq!(
            edge_from_bytes(&bytes[..bytes.len() - 1]),
            Err(SerialError::new(
                SerialErrorKind::Truncated,
                bytes.len() - 1
            ))
        );
        // Trailing garbage is flagged at the first surplus byte.
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            edge_from_bytes(&extended),
            Err(SerialError::new(
                SerialErrorKind::TrailingBytes,
                bytes.len()
            ))
        );
    }

    #[test]
    fn compact_round_trip_is_lossless() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (0, 3),
                (1, 4),
            ],
        );
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        for e in 0..g.m() {
            let l = s.labels().edge_label_by_id(e);
            let compact = edge_to_bytes(l, EdgeEncoding::Compact);
            let full = edge_to_bytes(l, EdgeEncoding::Full);
            assert!(
                compact.len() < full.len() / 2 + 64,
                "compact ({}) should be about half of full ({})",
                compact.len(),
                full.len()
            );
            assert_eq!(&edge_from_bytes(&compact).unwrap(), l);
        }
    }

    #[test]
    fn compact_labels_answer_queries() {
        let g = Graph::cycle(7);
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = s.labels();
        let compact = |e| edge_to_bytes(l.edge_label_by_id(e), EdgeEncoding::Compact);
        let f0 = edge_from_bytes(&compact(0)).unwrap();
        let f3 = edge_from_bytes(&compact(3)).unwrap();
        let session = l.session([&f0, &f3]).unwrap();
        assert_eq!(
            session.connected(l.vertex_label(1), l.vertex_label(5)),
            Ok(false)
        );
        assert_eq!(
            session.connected(l.vertex_label(1), l.vertex_label(2)),
            Ok(true)
        );
    }

    #[test]
    fn wrong_magic_cross_rejected() {
        let g = Graph::cycle(4);
        let s = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let vb = vertex_to_bytes(s.labels().vertex_label(0));
        assert_eq!(
            edge_from_bytes(&vb),
            Err(SerialError::new(SerialErrorKind::BadMagic, 0))
        );
        assert!(EdgeLabelView::new(&vb).is_err());
        let label = s.labels().edge_label_by_id(0);
        let eb = edge_to_bytes(label, EdgeEncoding::Full);
        assert!(VertexLabelView::new(&eb).is_err());
        // Both edge magics read as the same label.
        let cb = edge_to_bytes(label, EdgeEncoding::Compact);
        assert_eq!(&EdgeLabelView::new(&eb).unwrap().to_label(), label);
        assert_eq!(&EdgeLabelView::new(&cb).unwrap().to_label(), label);
    }

    #[test]
    fn views_agree_with_owned_decoding() {
        let g = Graph::grid(3, 3);
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = s.labels();
        for v in 0..g.n() {
            let bytes = vertex_to_bytes(l.vertex_label(v));
            let view = VertexLabelView::new(&bytes).unwrap();
            assert_eq!(&view.to_label(), l.vertex_label(v));
            assert_eq!(VertexLabelRead::header(&view), l.header());
        }
        for e in 0..g.m() {
            let bytes = edge_to_bytes(l.edge_label_by_id(e), EdgeEncoding::Full);
            let view = EdgeLabelView::new(&bytes).unwrap();
            assert_eq!(&view.to_label(), l.edge_label_by_id(e));
            // The zero-copy slab path agrees with the owned vector.
            assert_eq!(slab_of(&view), slab_of(l.edge_label_by_id(e)));
        }
    }

    #[test]
    fn views_reject_malformed_bytes_with_offsets() {
        assert_eq!(
            VertexLabelView::new(&[]).unwrap_err(),
            SerialError::new(SerialErrorKind::Truncated, 0)
        );
        assert_eq!(
            EdgeLabelView::new(&[0x45, 0x46]).unwrap_err(),
            SerialError::new(SerialErrorKind::Truncated, 2)
        );
        let g = Graph::cycle(4);
        let s = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let bytes = edge_to_bytes(s.labels().edge_label_by_id(0), EdgeEncoding::Full);
        assert_eq!(
            EdgeLabelView::new(&bytes[..bytes.len() - 1]).unwrap_err(),
            SerialError::new(SerialErrorKind::Truncated, bytes.len() - 1)
        );
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            EdgeLabelView::new(&extended).unwrap_err(),
            SerialError::new(SerialErrorKind::TrailingBytes, bytes.len())
        );
        let vb = vertex_to_bytes(s.labels().vertex_label(0));
        assert_eq!(
            VertexLabelView::new(&vb[..vb.len() - 1]).unwrap_err(),
            SerialError::new(SerialErrorKind::Truncated, vb.len() - 1)
        );
        // Compact labels locate truncation the same way.
        let cb = edge_to_bytes(s.labels().edge_label_by_id(0), EdgeEncoding::Compact);
        assert_eq!(
            EdgeLabelView::new(&cb[..cb.len() - 1]).unwrap_err(),
            SerialError::new(SerialErrorKind::Truncated, cb.len() - 1)
        );
    }

    #[test]
    fn compact_views_agree_with_owned_expansion() {
        let g = Graph::grid(3, 3);
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = s.labels();
        for e in 0..g.m() {
            let bytes = edge_to_bytes(l.edge_label_by_id(e), EdgeEncoding::Compact);
            let view = EdgeLabelView::new(&bytes).unwrap();
            assert_eq!(&view.to_label(), l.edge_label_by_id(e));
            // The on-the-fly slab expansion agrees with the owned vector.
            assert_eq!(slab_of(&view), slab_of(l.edge_label_by_id(e)));
        }
        // Compact views drive sessions exactly like full ones.
        let b0 = edge_to_bytes(l.edge_label_by_id(0), EdgeEncoding::Compact);
        let b3 = edge_to_bytes(l.edge_label_by_id(3), EdgeEncoding::Compact);
        let views = [
            EdgeLabelView::new(&b0).unwrap(),
            EdgeLabelView::new(&b3).unwrap(),
        ];
        let session = crate::session::QuerySession::new(l.header(), views).unwrap();
        let owned = l
            .session([l.edge_label_by_id(0), l.edge_label_by_id(3)])
            .unwrap();
        for s in 0..g.n() {
            for t in 0..g.n() {
                assert_eq!(
                    session.connected(l.vertex_label(s), l.vertex_label(t)),
                    owned.connected(l.vertex_label(s), l.vertex_label(t))
                );
            }
        }
    }

    #[test]
    fn sessions_answer_straight_from_bytes() {
        let g = Graph::cycle(7);
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = s.labels();
        let fault_bytes: Vec<Vec<u8>> = [0usize, 3]
            .iter()
            .map(|&e| edge_to_bytes(l.edge_label_by_id(e), EdgeEncoding::Full))
            .collect();
        let vertex_bytes: Vec<Vec<u8>> = (0..g.n())
            .map(|v| vertex_to_bytes(l.vertex_label(v)))
            .collect();
        // Build the session from views only — no owned labels anywhere.
        let views: Vec<EdgeLabelView> = fault_bytes
            .iter()
            .map(|b| EdgeLabelView::new(b).unwrap())
            .collect();
        let header = VertexLabelView::new(&vertex_bytes[0]).unwrap().header();
        let session = crate::session::QuerySession::new(header, views).unwrap();
        let vv = |v: usize| VertexLabelView::new(&vertex_bytes[v]).unwrap();
        assert_eq!(session.connected(vv(1), vv(5)), Ok(false));
        assert_eq!(session.connected(vv(1), vv(2)), Ok(true));
        assert_eq!(session.connected(vv(4), vv(6)), Ok(true));
    }
}

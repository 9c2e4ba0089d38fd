//! Byte-level label serialization and zero-copy label views.
//!
//! Labels are *the* artifact of a labeling scheme: they must be storable,
//! shippable, and decodable with no access to the graph. This module
//! provides a compact little-endian layout for the deterministic scheme's
//! labels, plus [`VertexLabelView`] / [`EdgeLabelView`] — validated
//! borrowed views implementing the label-read traits directly over the
//! serialized bytes, so a decoder ([`crate::session::QuerySession`]) can
//! answer queries straight from stored or transmitted label bytes without
//! materializing owned labels.

use crate::ancestry::AncestryLabel;
use crate::labels::{
    whole_levels, EdgeLabel, EdgeLabelRead, LabelHeader, RsVector, VertexLabel, VertexLabelRead,
};
use crate::store::{self, EdgeEncoding};
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

/// Serializes one edge label under `encoding`: magic and header, the
/// record's ancestry pair, the geometry fields (`k`, then the stored
/// word count for full labels or the level count for compact ones), and
/// the record's payload words.
fn edge_record(l: &EdgeLabel<RsVector>, encoding: EdgeEncoding) -> Vec<u8> {
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

/// Serializes an edge label of the deterministic scheme in the full
/// encoding.
pub fn edge_to_bytes(l: &EdgeLabel<RsVector>) -> Vec<u8> {
    edge_record(l, EdgeEncoding::Full)
}

/// Deserializes an edge label of the deterministic scheme.
///
/// # Errors
///
/// [`SerialError`] (with the offending byte offset) on bad magic, truncation, inconsistent
/// lengths, or trailing bytes.
pub fn edge_from_bytes(bytes: &[u8]) -> Result<EdgeLabel<RsVector>, SerialError> {
    Ok(EdgeLabelView::new(bytes)?.to_label())
}

/// Serializes an edge label at half width using the characteristic-two
/// syndrome compression (extension E12): per hierarchy level only the `k`
/// odd power sums are stored; [`compact_edge_from_bytes`] reconstructs the
/// even ones via `s_{2j} = s_j²`.
pub fn edge_to_bytes_compact(l: &EdgeLabel<RsVector>) -> Vec<u8> {
    edge_record(l, EdgeEncoding::Compact)
}

/// Deserializes a compact edge label, expanding each level back to the
/// full `2k`-element syndrome.
///
/// # Errors
///
/// [`SerialError`] (with the offending byte offset) on bad magic,
/// truncation, or trailing bytes.
pub fn compact_edge_from_bytes(bytes: &[u8]) -> Result<EdgeLabel<RsVector>, SerialError> {
    Ok(CompactEdgeLabelView::new(bytes)?.to_label())
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

/// Checks the leading two-byte magic, reporting truncation at the input
/// length or a magic mismatch at offset 0.
fn check_magic(bytes: &[u8], magic: u16) -> Result<(), SerialError> {
    if bytes.len() < 2 {
        return Err(SerialError::new(SerialErrorKind::Truncated, bytes.len()));
    }
    if u16::from_le_bytes(bytes[..2].try_into().unwrap()) != magic {
        return Err(SerialError::new(SerialErrorKind::BadMagic, 0));
    }
    Ok(())
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

/// Copies an edge view out into an owned label whose threshold is `k`:
/// the vector is the view's slab words, XORed into a zeroed row.
pub(crate) fn owned_label(view: &impl EdgeLabelRead, k: usize) -> EdgeLabel<RsVector> {
    let mut words = vec![0u64; view.slab_words()];
    view.xor_into_slab(&mut words);
    EdgeLabel {
        header: view.header(),
        anc_upper: view.anc_upper(),
        anc_lower: view.anc_lower(),
        vec: RsVector::from_raw(k, words.into_iter().map(Gf64::new).collect()),
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
        check_magic(bytes, VERTEX_MAGIC)?;
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

/// What a loose edge view reads: the labeling header and codec geometry
/// from the label's own fields, the record's ancestry pair and its
/// stored payload words.
#[derive(Clone, Copy, Debug)]
struct EdgeParts<'a> {
    header: LabelHeader,
    k: usize,
    levels: usize,
    anc: &'a [u8],
    words: &'a [u8],
}

impl<'a> EdgeParts<'a> {
    /// Parts of a loose label whose magic, `k` and geometry are already
    /// checked: `k` and `levels` as parsed, and its words starting at
    /// the loose word offset.
    fn loose(bytes: &'a [u8], k: usize, levels: usize) -> EdgeParts<'a> {
        EdgeParts {
            header: read_header_at(bytes, 2),
            k,
            levels,
            anc: &bytes[LOOSE_PREFIX_BYTES..LOOSE_PREFIX_BYTES + EDGE_PREFIX_BYTES],
            words: &bytes[LOOSE_EDGE_WORDS_OFFSET..],
        }
    }

    fn word(&self, i: usize) -> u64 {
        read_u64_at(self.words, 8 * i)
    }
}

/// Reads a loose edge label's fixed prefix: magic, then `k` and the
/// geometry field, reporting truncation before either.
fn loose_geometry(bytes: &[u8], magic: u16) -> Result<(usize, usize), SerialError> {
    check_magic(bytes, magic)?;
    if bytes.len() < LOOSE_EDGE_WORDS_OFFSET {
        return Err(SerialError::new(SerialErrorKind::Truncated, bytes.len()));
    }
    Ok((
        read_u32_at(bytes, LOOSE_EDGE_WORDS_OFFSET - 8) as usize,
        read_u32_at(bytes, LOOSE_EDGE_WORDS_OFFSET - 4) as usize,
    ))
}

/// A zero-copy view of a loose full-encoding edge label of the
/// deterministic scheme ([`edge_to_bytes`] layout; an archived edge reads
/// through [`crate::store::ArchivedEdgeView`]). Implements
/// [`EdgeLabelRead`]: the ancestry fields decode on demand, and the
/// Reed–Solomon syndrome words XOR into a session's fragment
/// accumulators straight out of the byte buffer — the `Vec<Gf64>`
/// payload is never deserialized per label.
#[derive(Clone, Copy, Debug)]
pub struct EdgeLabelView<'a>(EdgeParts<'a>);

impl<'a> EdgeLabelView<'a> {
    /// Validates magic, length consistency, and syndrome geometry of a
    /// loose label.
    ///
    /// # Errors
    ///
    /// [`SerialError`] (with the offending byte offset) on bad magic,
    /// truncation, inconsistent lengths, or trailing bytes.
    pub fn new(bytes: &'a [u8]) -> Result<EdgeLabelView<'a>, SerialError> {
        let (k, len) = loose_geometry(bytes, EDGE_MAGIC)?;
        if !whole_levels(k, len) {
            return Err(SerialError::new(
                SerialErrorKind::Inconsistent,
                LOOSE_EDGE_WORDS_OFFSET - 4,
            ));
        }
        check_exact_len(bytes, LOOSE_EDGE_WORDS_OFFSET + 8 * len)?;
        let levels = if k == 0 { 0 } else { len / (2 * k) };
        Ok(EdgeLabelView(EdgeParts::loose(bytes, k, levels)))
    }

    /// The codec threshold `k` of the carried vector.
    pub fn k(&self) -> usize {
        self.0.k
    }

    /// Number of hierarchy levels carried.
    pub fn levels(&self) -> usize {
        self.0.levels
    }

    /// Number of syndrome words carried.
    pub fn num_words(&self) -> usize {
        2 * self.0.k * self.0.levels
    }

    /// Copies the view out into an owned label.
    pub fn to_label(&self) -> EdgeLabel<RsVector> {
        owned_label(self, self.0.k)
    }
}

impl EdgeLabelRead for EdgeLabelView<'_> {
    type Vector = RsVector;

    fn header(&self) -> LabelHeader {
        self.0.header
    }

    fn anc_upper(&self) -> AncestryLabel {
        read_anc_at(self.0.anc, 0)
    }

    fn anc_lower(&self) -> AncestryLabel {
        read_anc_at(self.0.anc, ANC_BYTES)
    }

    fn slab_words(&self) -> usize {
        self.num_words()
    }

    fn xor_into_slab(&self, dst: &mut [u64]) {
        assert_eq!(dst.len(), self.num_words(), "mixed vector widths");
        for (d, w) in dst.iter_mut().zip(self.0.words.chunks_exact(8)) {
            *d ^= u64::from_le_bytes(w.try_into().unwrap());
        }
    }

    fn configure_detector(&self, det: &mut crate::labels::RsDetector) {
        det.configure(self.0.k, self.0.levels, self.0.header.aux_n);
    }
}

/// A zero-copy view of a loose *compact* edge label
/// ([`edge_to_bytes_compact`] layout). Implements [`EdgeLabelRead`]: the
/// ancestry fields decode on demand; the half-width syndrome is expanded
/// to the full `2k`-element form (via `s_{2j} = s_j²`) only when the
/// vector is actually needed by the merge engine.
#[derive(Clone, Copy, Debug)]
pub struct CompactEdgeLabelView<'a>(EdgeParts<'a>);

impl<'a> CompactEdgeLabelView<'a> {
    /// Validates magic, length consistency, and syndrome geometry of a
    /// loose label.
    ///
    /// # Errors
    ///
    /// [`SerialError`] (with the offending byte offset) on bad magic,
    /// truncation, or trailing bytes.
    pub fn new(bytes: &'a [u8]) -> Result<CompactEdgeLabelView<'a>, SerialError> {
        let (k, levels) = loose_geometry(bytes, COMPACT_EDGE_MAGIC)?;
        let len = k
            .checked_mul(levels)
            .and_then(|w| w.checked_mul(8))
            .and_then(|w| w.checked_add(LOOSE_EDGE_WORDS_OFFSET))
            .ok_or(SerialError::new(
                SerialErrorKind::Inconsistent,
                LOOSE_EDGE_WORDS_OFFSET - 4,
            ))?;
        check_exact_len(bytes, len)?;
        Ok(CompactEdgeLabelView(EdgeParts::loose(bytes, k, levels)))
    }

    /// The codec threshold `k` of the carried vector.
    pub fn k(&self) -> usize {
        self.0.k
    }

    /// Number of hierarchy levels carried.
    pub fn levels(&self) -> usize {
        self.0.levels
    }

    /// Copies the view out into an owned label (expanding the syndrome).
    pub fn to_label(&self) -> EdgeLabel<RsVector> {
        owned_label(self, self.0.k)
    }
}

impl EdgeLabelRead for CompactEdgeLabelView<'_> {
    type Vector = RsVector;

    fn header(&self) -> LabelHeader {
        self.0.header
    }

    fn anc_upper(&self) -> AncestryLabel {
        read_anc_at(self.0.anc, 0)
    }

    fn anc_lower(&self) -> AncestryLabel {
        read_anc_at(self.0.anc, ANC_BYTES)
    }

    fn slab_words(&self) -> usize {
        2 * self.0.k * self.0.levels
    }

    fn xor_into_slab(&self, dst: &mut [u64]) {
        // Expand the half-width encoding on the fly, with no scratch: in
        // the full layout, entry `i` (1-based power sum `s_i`) equals
        // `s_o^(2^t)` where `i = o·2^t` with `o` odd — repeated Frobenius
        // squaring of a stored odd power sum. t ≤ log₂(2k) squarings per
        // entry keep this cheap, and each label is expanded exactly once
        // per session build (into the fault-word slab).
        let (k, levels) = (self.0.k, self.0.levels);
        assert_eq!(dst.len(), 2 * k * levels, "mixed vector widths");
        for lvl in 0..levels {
            xor_expanded_row(
                |j| self.0.word(lvl * k + j),
                &mut dst[2 * k * lvl..2 * k * (lvl + 1)],
            );
        }
    }

    fn configure_detector(&self, det: &mut crate::labels::RsDetector) {
        det.configure(self.0.k, self.0.levels, self.0.header.aux_n);
    }
}

/// XORs one level's full `2k`-entry syndrome into `out` (length `2k`),
/// expanded from its `k` stored odd power sums, `odd(j) = s_{2j+1}`:
/// entry `i` (1-based power-sum index) is `s_o^(2^t)` for `i = o·2^t`
/// with `o` odd, since `s_{2j} = s_j²` in characteristic two.
pub(crate) fn xor_expanded_row(odd: impl Fn(usize) -> u64, out: &mut [u64]) {
    for (idx, slot) in out.iter_mut().enumerate() {
        let i = idx + 1;
        let t = i.trailing_zeros();
        let mut v = Gf64::new(odd((i >> t) / 2));
        for _ in 0..t {
            v = v.square();
        }
        *slot ^= v.to_bits();
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
            let bytes = edge_to_bytes(l);
            assert_eq!(&edge_from_bytes(&bytes).unwrap(), l);
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
        let bytes = edge_to_bytes(s.labels().edge_label_by_id(0));
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
            let compact = edge_to_bytes_compact(l);
            let full = edge_to_bytes(l);
            assert!(
                compact.len() < full.len() / 2 + 64,
                "compact ({}) should be about half of full ({})",
                compact.len(),
                full.len()
            );
            assert_eq!(&compact_edge_from_bytes(&compact).unwrap(), l);
        }
    }

    #[test]
    fn compact_labels_answer_queries() {
        let g = Graph::cycle(7);
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = s.labels();
        let f0 = compact_edge_from_bytes(&edge_to_bytes_compact(l.edge_label_by_id(0))).unwrap();
        let f3 = compact_edge_from_bytes(&edge_to_bytes_compact(l.edge_label_by_id(3))).unwrap();
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
        let eb = edge_to_bytes(s.labels().edge_label_by_id(0));
        assert!(VertexLabelView::new(&eb).is_err());
        // A full-encoding edge is not a compact one and vice versa.
        assert_eq!(
            CompactEdgeLabelView::new(&eb).unwrap_err().kind,
            SerialErrorKind::BadMagic
        );
        let cb = edge_to_bytes_compact(s.labels().edge_label_by_id(0));
        assert_eq!(
            EdgeLabelView::new(&cb).unwrap_err().kind,
            SerialErrorKind::BadMagic
        );
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
            let bytes = edge_to_bytes(l.edge_label_by_id(e));
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
        let bytes = edge_to_bytes(s.labels().edge_label_by_id(0));
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
        // Compact views locate truncation the same way.
        let cb = edge_to_bytes_compact(s.labels().edge_label_by_id(0));
        assert_eq!(
            CompactEdgeLabelView::new(&cb[..cb.len() - 1]).unwrap_err(),
            SerialError::new(SerialErrorKind::Truncated, cb.len() - 1)
        );
    }

    #[test]
    fn compact_views_agree_with_owned_expansion() {
        let g = Graph::grid(3, 3);
        let s = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = s.labels();
        for e in 0..g.m() {
            let bytes = edge_to_bytes_compact(l.edge_label_by_id(e));
            let view = CompactEdgeLabelView::new(&bytes).unwrap();
            assert_eq!(&view.to_label(), l.edge_label_by_id(e));
            // The on-the-fly slab expansion agrees with the owned vector.
            assert_eq!(slab_of(&view), slab_of(l.edge_label_by_id(e)));
        }
        // Compact views drive sessions exactly like full ones.
        let b0 = edge_to_bytes_compact(l.edge_label_by_id(0));
        let b3 = edge_to_bytes_compact(l.edge_label_by_id(3));
        let views = [
            CompactEdgeLabelView::new(&b0).unwrap(),
            CompactEdgeLabelView::new(&b3).unwrap(),
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
            .map(|&e| edge_to_bytes(l.edge_label_by_id(e)))
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

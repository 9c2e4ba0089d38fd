//! Label types and the outdetect-vector abstraction.
//!
//! The paper's framework (Section 3) is deliberately modular: the tree-edge
//! scheme and the query engine only require *some* outdetect labeling whose
//! vectors are XOR-mergeable and support outgoing-edge detection. The
//! [`OutdetectVector`] trait captures exactly that interface, on vectors
//! flattened into `u64` slab words; the
//! deterministic Reed–Solomon hierarchy vectors ([`RsVector`]) and the
//! randomized AGM sketch vectors (in [`crate::baseline`]) both implement
//! it, so one generic decoder serves every row of Table 1.

use crate::ancestry::AncestryLabel;
use ftc_codes::{DecodeScratch, ThresholdCodec};
use ftc_field::{Gf64, Subspace};
use std::fmt;
use std::sync::Arc;

/// Outcome of an outgoing-edge detection attempt: decoded edge code IDs
/// land in the caller's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlabDetect {
    /// The boundary is certifiably empty.
    Empty,
    /// One or more outgoing-edge code IDs were written to the output
    /// buffer (never zero).
    Edges,
    /// Detection failed (threshold exceeded / sketch failure).
    Failed,
}

/// An XOR-mergeable outdetect vector — the S-outdetect labeling interface
/// of Section 3.1, stripped to what the query engine needs.
///
/// A vector reaches the query engine only as a *slab*: the vector
/// flattened into `u64` words whose XOR is the vector XOR. The engine
/// keeps all per-fragment accumulators in one contiguous word arena and
/// merges fragments by XORing arena rows, so a session build performs no
/// per-fragment vector allocation; detection runs straight off an arena
/// row through a reusable [`OutdetectVector::Detector`].
pub trait OutdetectVector: Clone {
    /// Reusable detection state: the codec geometry plus whatever decode
    /// scratch the backend needs. `Default` yields an unconfigured
    /// detector; [`OutdetectVector::configure_detector`] (or
    /// [`EdgeLabelRead::configure_detector`]) points it at a labeling.
    type Detector: Default + fmt::Debug;

    /// Size of the vector in bits (for label-size accounting).
    fn bits(&self) -> usize;
    /// Number of `u64` words in the flattened slab representation.
    fn slab_words(&self) -> usize;
    /// XORs this vector into a slab accumulator of [`Self::slab_words`]
    /// words (labels of disjoint vertex sets XOR to the label of their
    /// union).
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != self.slab_words()`.
    fn accumulate_slab(&self, dst: &mut [u64]);
    /// Points `det` at this vector's codec geometry, reusing its buffers.
    /// `aux_n` is the auxiliary-graph size of the labeling the vector
    /// belongs to (from its label's header), which bounds the code IDs
    /// detection can return; `u32::MAX` when no header is at hand.
    fn configure_detector(&self, det: &mut Self::Detector, aux_n: u32);
    /// Attempts to detect outgoing edges of the boundary an accumulated
    /// slab row sketches, appending decoded code IDs to `out` (cleared
    /// first).
    fn detect_slab(det: &mut Self::Detector, words: &[u64], out: &mut Vec<u64>) -> SlabDetect;
}

/// Read access to a vertex label, independent of its representation.
///
/// Implemented by the owned [`VertexLabel`] and by the zero-copy
/// [`crate::serial::VertexLabelView`] over serialized bytes, so the
/// [`crate::session::QuerySession`] decoder accepts either.
pub trait VertexLabelRead {
    /// The labeling-identification header.
    fn header(&self) -> LabelHeader;
    /// The vertex's ancestry label in `T′`.
    fn anc(&self) -> AncestryLabel;
}

impl VertexLabelRead for VertexLabel {
    fn header(&self) -> LabelHeader {
        self.header
    }

    fn anc(&self) -> AncestryLabel {
        self.anc
    }
}

impl<T: VertexLabelRead + ?Sized> VertexLabelRead for &T {
    fn header(&self) -> LabelHeader {
        (**self).header()
    }

    fn anc(&self) -> AncestryLabel {
        (**self).anc()
    }
}

/// Read access to an edge label, independent of its representation.
///
/// Implemented by the owned [`EdgeLabel`] and by the zero-copy
/// [`crate::serial::EdgeLabelView`] over serialized bytes. The vector is
/// read only through the slab accessors, shaped for the merge engine's
/// accumulate loop: a view XORs its syndrome words straight out of the
/// byte buffer without ever materializing an owned vector per label.
pub trait EdgeLabelRead {
    /// The outdetect-vector representation this label carries.
    type Vector: OutdetectVector;

    /// The labeling-identification header.
    fn header(&self) -> LabelHeader;
    /// Ancestry label of the endpoint of `σ(e)` closer to the root.
    fn anc_upper(&self) -> AncestryLabel;
    /// Ancestry label of the endpoint of `σ(e)` farther from the root.
    fn anc_lower(&self) -> AncestryLabel;
    /// Number of `u64` words in the label's flattened vector
    /// representation ([`OutdetectVector::slab_words`]).
    fn slab_words(&self) -> usize;
    /// XORs the label's vector into a slab accumulator slice — views
    /// XOR their syndrome words straight out of the byte buffer without
    /// materializing an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != self.slab_words()`.
    fn xor_into_slab(&self, dst: &mut [u64]);
    /// Points `det` at this label's codec geometry, reusing its buffers
    /// ([`OutdetectVector::configure_detector`]).
    fn configure_detector(&self, det: &mut <Self::Vector as OutdetectVector>::Detector);
}

impl<V: OutdetectVector> EdgeLabelRead for EdgeLabel<V> {
    type Vector = V;

    fn header(&self) -> LabelHeader {
        self.header
    }

    fn anc_upper(&self) -> AncestryLabel {
        self.anc_upper
    }

    fn anc_lower(&self) -> AncestryLabel {
        self.anc_lower
    }

    fn slab_words(&self) -> usize {
        self.vec.slab_words()
    }

    fn xor_into_slab(&self, dst: &mut [u64]) {
        self.vec.accumulate_slab(dst);
    }

    fn configure_detector(&self, det: &mut V::Detector) {
        self.vec.configure_detector(det, self.header.aux_n);
    }
}

impl<T: EdgeLabelRead + ?Sized> EdgeLabelRead for &T {
    type Vector = T::Vector;

    fn header(&self) -> LabelHeader {
        (**self).header()
    }

    fn anc_upper(&self) -> AncestryLabel {
        (**self).anc_upper()
    }

    fn anc_lower(&self) -> AncestryLabel {
        (**self).anc_lower()
    }

    fn slab_words(&self) -> usize {
        (**self).slab_words()
    }

    fn xor_into_slab(&self, dst: &mut [u64]) {
        (**self).xor_into_slab(dst);
    }

    fn configure_detector(&self, det: &mut <T::Vector as OutdetectVector>::Detector) {
        (**self).configure_detector(det);
    }
}

/// `true` iff `len` syndrome words make whole levels of `2k` words — for
/// `k = 0`, only an empty payload does (a zero threshold has no levels).
pub(crate) fn whole_levels(k: usize, len: usize) -> bool {
    if k == 0 {
        len == 0
    } else {
        len.is_multiple_of(2 * k)
    }
}

/// The deterministic outdetect vector: per hierarchy level, a
/// `2k`-element Reed–Solomon syndrome; levels are stored contiguously,
/// topmost level last.
///
/// A vector is a read-only window `slab[start..start + len]` into a
/// shared syndrome buffer. The build pipeline produces **one** contiguous
/// slab holding all per-edge syndromes (edge-major, each edge's levels
/// contiguous) and hands every edge label a window into it — no per-edge
/// payload allocation, no second copy of the dominant build artifact.
/// Cloning a vector bumps the slab's reference count.
#[derive(Clone)]
pub struct RsVector {
    k: u32,
    slab: Arc<[Gf64]>,
    start: usize,
    len: usize,
}

impl RsVector {
    /// The codec threshold `k`.
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Number of hierarchy levels carried.
    pub fn levels(&self) -> usize {
        if self.k == 0 {
            0
        } else {
            self.len / (2 * self.k as usize)
        }
    }

    /// Raw field-element view (level-major), for serialization.
    pub fn raw(&self) -> &[Gf64] {
        &self.slab[self.start..self.start + self.len]
    }

    /// A vector owning its syndrome elements (used by deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a whole number of `2k`-element
    /// levels (nonempty data with `k = 0` included).
    pub fn from_raw(k: usize, data: Vec<Gf64>) -> RsVector {
        let len = data.len();
        RsVector::from_slab(k, &data.into(), 0, len)
    }

    /// A vector windowing `slab[start..start + len]` — the arena-backed
    /// form the build pipeline hands every edge label.
    ///
    /// # Panics
    ///
    /// Panics if the window is out of bounds or `len` is not a whole
    /// number of `2k`-element levels.
    pub fn from_slab(k: usize, slab: &Arc<[Gf64]>, start: usize, len: usize) -> RsVector {
        assert!(start + len <= slab.len(), "slab window out of bounds");
        assert!(whole_levels(k, len), "slab window length mismatch");
        RsVector {
            k: k as u32,
            slab: Arc::clone(slab),
            start,
            len,
        }
    }
}

impl PartialEq for RsVector {
    fn eq(&self, other: &Self) -> bool {
        // Windows with the same logical contents are the same vector,
        // wherever their slabs live.
        self.k == other.k && self.raw() == other.raw()
    }
}

impl Eq for RsVector {}

/// Reusable detection state for [`RsVector`] slabs: the codec geometry
/// (`k`, level count, the code space edge IDs lie in) plus the decode
/// scratch. One detector serves every fragment of every session built
/// against the same labeling; warm detectors decode without allocating.
#[derive(Debug, Default)]
pub struct RsDetector {
    k: usize,
    levels: usize,
    /// [`AuxGraph::code_space`](crate::auxgraph::AuxGraph::code_space) of
    /// the labeling; `None` until configured.
    space: Option<&'static Subspace>,
    /// The level syndrome copied out of the word slab.
    syn: Vec<Gf64>,
    /// Decoded edge IDs before conversion to raw bits.
    ids: Vec<Gf64>,
    decode: DecodeScratch,
}

impl RsDetector {
    /// Points the detector at a labeling's codec geometry (buffers are
    /// kept): threshold `k`, `levels` syndromes, and edge IDs of an
    /// auxiliary graph with `aux_n` vertices. O(1) and allocation-free
    /// once the code space is built (once per process). Byte-level label
    /// views call this with their parsed header fields; owned labels go
    /// through [`OutdetectVector::configure_detector`] with their
    /// header's `aux_n`, and a header-less vector passes `u32::MAX` (the
    /// whole field).
    pub fn configure(&mut self, k: usize, levels: usize, aux_n: u32) {
        self.k = k;
        self.levels = levels;
        self.space = Some(crate::auxgraph::AuxGraph::code_space(aux_n));
    }
}

impl OutdetectVector for RsVector {
    type Detector = RsDetector;

    fn bits(&self) -> usize {
        self.len * 64
    }

    fn slab_words(&self) -> usize {
        self.len
    }

    fn accumulate_slab(&self, dst: &mut [u64]) {
        let src = self.raw();
        assert_eq!(dst.len(), src.len(), "mixed vector widths");
        // GF(2⁶⁴) addition is XOR of the bit representations.
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s.to_bits();
        }
    }

    fn configure_detector(&self, det: &mut RsDetector, aux_n: u32) {
        det.configure(self.k(), self.levels(), aux_n);
    }

    fn detect_slab(det: &mut RsDetector, words: &[u64], out: &mut Vec<u64>) -> SlabDetect {
        out.clear();
        let (k, Some(space)) = (det.k, det.space) else {
            return SlabDetect::Empty; // unconfigured
        };
        if k == 0 || words.is_empty() {
            return SlabDetect::Empty;
        }
        debug_assert_eq!(words.len(), 2 * k * det.levels);
        let codec = ThresholdCodec::new(k);
        // Scan levels from the sparsest (topmost) down: the topmost
        // non-empty level has at most k boundary edges by the
        // good-hierarchy invariant, so its decode is exact.
        for level in (0..det.levels).rev() {
            let row = &words[2 * k * level..2 * k * (level + 1)];
            if row.iter().all(|&w| w == 0) {
                continue;
            }
            det.syn.clear();
            det.syn.extend(row.iter().copied().map(Gf64::new));
            let decoded =
                codec.decode_adaptive_into(&det.syn, space, &mut det.decode, &mut det.ids);
            return match decoded {
                Ok(()) if !det.ids.is_empty() => {
                    out.extend(det.ids.iter().map(|g| g.to_bits()));
                    SlabDetect::Edges
                }
                _ => SlabDetect::Failed,
            };
        }
        SlabDetect::Empty
    }
}

impl fmt::Debug for RsVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RsVector(k={}, levels={})", self.k, self.levels())
    }
}

/// Shared header carried by every label: identifies the labeling and its
/// parameters so the universal decoder can reject mixed labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LabelHeader {
    /// The fault budget `f`.
    pub f: u32,
    /// Number of auxiliary-graph vertices (bounds pre-orders / edge IDs).
    pub aux_n: u32,
    /// A tag unique to the labeling instance (graph fingerprint).
    pub tag: u64,
}

/// The label of a vertex: header + ancestry label (Lemma 1: vertex labels
/// are just `L^anc_T(v)`, O(log n) bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VertexLabel {
    /// Labeling identification.
    pub header: LabelHeader,
    /// The vertex's ancestry label in `T′`.
    pub anc: AncestryLabel,
}

/// The label of an edge `e`: ancestry labels of both endpoints of
/// `σ(e) ∈ T′` (upper/lower) plus the outdetect subtree sum
/// `L^out(V_{T′(σ(e))})`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeLabel<V> {
    /// Labeling identification.
    pub header: LabelHeader,
    /// Ancestry label of the endpoint closer to the root.
    pub anc_upper: AncestryLabel,
    /// Ancestry label of the endpoint farther from the root (identifies
    /// `σ(e)` uniquely: every non-root vertex names its parent edge).
    pub anc_lower: AncestryLabel,
    /// XOR of outdetect labels over the subtree below `σ(e)`.
    pub vec: V,
}

impl<V: OutdetectVector> EdgeLabel<V> {
    /// Size of this edge label in bits (encoded widths).
    pub fn bits(&self) -> usize {
        HEADER_BITS + 2 * AncestryLabel::ENCODED_BITS + self.vec.bits()
    }
}

impl VertexLabel {
    /// Size of this vertex label in bits (encoded widths).
    pub fn bits(&self) -> usize {
        HEADER_BITS + AncestryLabel::ENCODED_BITS
    }
}

/// Encoded bits of a [`LabelHeader`] (`f` + `aux_n` + `tag`).
const HEADER_BITS: usize = 32 + 32 + 64;

/// Size accounting of a labeling, reported per Table 1's "label size"
/// column (experiment E1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeReport {
    /// Vertices of the input graph.
    pub n: usize,
    /// Edges of the input graph.
    pub m: usize,
    /// Vertices of the auxiliary graph.
    pub aux_n: usize,
    /// Outdetect threshold `k`.
    pub k: usize,
    /// Stored hierarchy levels.
    pub levels: usize,
    /// Bits per vertex label.
    pub vertex_bits: usize,
    /// Bits per edge label (maximum over edges; they are uniform).
    pub edge_bits: usize,
    /// Total bits over all labels.
    pub total_bits: usize,
}

impl SizeReport {
    /// The size accounting of a labeling whose edge labels all share one
    /// codec geometry `(k, levels)` — true of every built or archived
    /// labeling, so the report follows from the shape alone.
    pub fn uniform(n: usize, m: usize, aux_n: usize, k: usize, levels: usize) -> SizeReport {
        let vertex_bits = if n == 0 {
            0
        } else {
            HEADER_BITS + AncestryLabel::ENCODED_BITS
        };
        // Vectors hold the full 2k syndromes per level, whatever the
        // archive encoding.
        let edge_bits = if m == 0 {
            0
        } else {
            HEADER_BITS + 2 * AncestryLabel::ENCODED_BITS + 2 * k * levels * 64
        };
        SizeReport {
            n,
            m,
            aux_n,
            k,
            levels,
            vertex_bits,
            edge_bits,
            total_bits: n * vertex_bits + m * edge_bits,
        }
    }
}

/// A sorted endpoint-pair → edge-ID index: the same representation the
/// label archive stores, used in memory too — endpoint lookups are one
/// binary search (no hashing), and archiving writes the entries
/// verbatim.
///
/// Parallel edges collapse to a single entry per normalized `(u, v)`
/// pair, resolving to the **largest** edge ID — the semantics the
/// historical per-build `HashMap` had (later inserts in edge-ID order
/// overwrote earlier ones). Edge-ID lookups ([`LabelSet::edge_label_by_id`])
/// still address every parallel edge individually.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EndpointIndex {
    /// `(u, v, edge id)` with `u < v`, strictly sorted by `(u, v)`.
    entries: Vec<(u32, u32, u32)>,
}

impl EndpointIndex {
    /// Builds the index from `(u, v)` endpoint pairs in edge-ID order.
    pub fn from_edges<I>(pairs: I) -> EndpointIndex
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut entries: Vec<(u32, u32, u32)> = pairs
            .into_iter()
            .enumerate()
            .map(|(e, (u, v))| (u.min(v) as u32, u.max(v) as u32, e as u32))
            .collect();
        entries.sort_unstable();
        // Sorted ascending by (u, v, e): keeping the last entry of each
        // (u, v) run resolves parallel edges to the largest edge ID.
        entries.dedup_by(|next, prev| {
            if (next.0, next.1) == (prev.0, prev.1) {
                *prev = *next;
                true
            } else {
                false
            }
        });
        EndpointIndex { entries }
    }

    /// The edge ID indexed under `(u, v)` (either order), if any; `None`
    /// for an endpoint beyond `u32::MAX`, which no entry can name.
    pub fn get(&self, u: usize, v: usize) -> Option<usize> {
        let key = (u32::try_from(u.min(v)).ok()?, u32::try_from(u.max(v)).ok()?);
        self.entries
            .binary_search_by_key(&key, |&(a, b, _)| (a, b))
            .ok()
            .map(|i| self.entries[i].2 as usize)
    }

    /// Number of distinct normalized endpoint pairs indexed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no edges are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(u, v, edge id)` in sorted endpoint order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (usize, usize, usize)> + '_ {
        self.entries
            .iter()
            .map(|&(u, v, e)| (u as usize, v as usize, e as usize))
    }
}

/// The complete output of a labeling construction: one label per vertex
/// and per edge, plus lookup helpers. This is the only artifact a decoder
/// ever sees.
#[derive(Clone, Debug)]
pub struct LabelSet<V> {
    pub(crate) header: LabelHeader,
    pub(crate) vertex_labels: Vec<VertexLabel>,
    pub(crate) edge_labels: Vec<EdgeLabel<V>>,
    pub(crate) edge_index: EndpointIndex,
}

impl<V: OutdetectVector> LabelSet<V> {
    /// The shared header.
    pub fn header(&self) -> LabelHeader {
        self.header
    }

    /// Number of labeled vertices.
    pub fn n(&self) -> usize {
        self.vertex_labels.len()
    }

    /// Number of labeled edges.
    pub fn m(&self) -> usize {
        self.edge_labels.len()
    }

    /// The label of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn vertex_label(&self, v: usize) -> &VertexLabel {
        &self.vertex_labels[v]
    }

    /// The label of the edge joining `u` and `v` (either order), if any —
    /// one binary search over the sorted endpoint index. For parallel
    /// edges this resolves to the largest edge ID joining the pair (see
    /// [`EndpointIndex`]); use [`LabelSet::edge_label_by_id`] to address
    /// each parallel edge individually.
    pub fn edge_label(&self, u: usize, v: usize) -> Option<&EdgeLabel<V>> {
        self.edge_index.get(u, v).map(|i| &self.edge_labels[i])
    }

    /// The sorted endpoint-pair index of this labeling.
    pub fn endpoint_index(&self) -> &EndpointIndex {
        &self.edge_index
    }

    /// The label of the edge with the original edge ID `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn edge_label_by_id(&self, e: usize) -> &EdgeLabel<V> {
        &self.edge_labels[e]
    }

    /// Iterates over all edge labels (in original edge-ID order).
    pub fn edge_labels(&self) -> impl Iterator<Item = &EdgeLabel<V>> {
        self.edge_labels.iter()
    }

    /// Size accounting (experiment E1). `k`/`levels` are taken from the
    /// supplied closure because they are vector-representation specific.
    pub fn size_report(&self, k: usize, levels: usize) -> SizeReport {
        let vertex_bits = self.vertex_labels.first().map_or(0, VertexLabel::bits);
        let edge_bits = self
            .edge_labels
            .iter()
            .map(EdgeLabel::bits)
            .max()
            .unwrap_or(0);
        let total_bits = self
            .vertex_labels
            .iter()
            .map(VertexLabel::bits)
            .sum::<usize>()
            + self.edge_labels.iter().map(EdgeLabel::bits).sum::<usize>();
        SizeReport {
            n: self.n(),
            m: self.m(),
            aux_n: self.header.aux_n as usize,
            k,
            levels,
            vertex_bits,
            edge_bits,
            total_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `(k, levels)` vector whose syndromes sketch the given
    /// `(level, code id)` edges.
    fn syndrome(k: usize, levels: usize, edges: &[(usize, u64)]) -> RsVector {
        let codec = ThresholdCodec::new(k);
        let mut data = vec![Gf64::ZERO; 2 * k * levels];
        for &(level, id) in edges {
            codec.accumulate_edge(&mut data[2 * k * level..2 * k * (level + 1)], Gf64::new(id));
        }
        RsVector::from_raw(k, data)
    }

    /// Detects straight off `words` with a detector configured by `v`;
    /// decoded IDs come back sorted.
    fn detect_words(v: &RsVector, words: &[u64]) -> (SlabDetect, Vec<u64>) {
        let mut det = RsDetector::default();
        v.configure_detector(&mut det, u32::MAX);
        let mut ids = Vec::new();
        let outcome = RsVector::detect_slab(&mut det, words, &mut ids);
        ids.sort_unstable();
        (outcome, ids)
    }

    /// Detects on `v`'s own slab words.
    fn detect(v: &RsVector) -> (SlabDetect, Vec<u64>) {
        let mut words = vec![0u64; v.slab_words()];
        v.accumulate_slab(&mut words);
        detect_words(v, &words)
    }

    /// An endpoint beyond `u32::MAX` names no edge; it must not wrap onto
    /// the low 32 bits (`(1 << 32) + 1` is not vertex 1).
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn wide_endpoints_name_no_edge() {
        let g = ftc_graph::Graph::cycle(6);
        let scheme = crate::FtcScheme::build(&g, &crate::Params::deterministic(2)).unwrap();
        let l = scheme.labels();
        assert!(l.edge_label(0, 1).is_some());
        assert!(l.edge_label(0, (1 << 32) + 1).is_none());
        assert_eq!(l.endpoint_index().get((1 << 32) + 1, 0), None);
    }

    /// An owned edge label points its detector at its labeling's code
    /// space, as archived views do, not at the whole field.
    #[test]
    fn owned_labels_configure_their_code_space() {
        let g = ftc_graph::Graph::torus(3, 4);
        let scheme = crate::FtcScheme::build(&g, &crate::Params::deterministic(2)).unwrap();
        let label = scheme.labels().edge_label(0, 1).unwrap();
        let mut det = RsDetector::default();
        EdgeLabelRead::configure_detector(label, &mut det);
        let want = crate::auxgraph::AuxGraph::code_space(label.header.aux_n);
        assert!(std::ptr::eq(det.space.unwrap(), want));
        assert!(!std::ptr::eq(want, Subspace::full()));
    }

    #[test]
    fn rs_vector_toggle_and_detect_roundtrip() {
        let v = syndrome(4, 3, &[(1, 0xaaaa), (1, 0xbbbb), (0, 0xcccc)]);
        // Topmost non-zero level is 1 -> detects both its edges.
        assert_eq!(detect(&v), (SlabDetect::Edges, vec![0xaaaa, 0xbbbb]));
    }

    #[test]
    fn rs_vector_zero_is_empty() {
        let v = syndrome(2, 4, &[]);
        assert_eq!(detect(&v), (SlabDetect::Empty, vec![]));
        assert_eq!(v.bits(), 2 * 2 * 4 * 64);
    }

    #[test]
    fn rs_vector_xor_cancels() {
        let a = syndrome(3, 2, &[(0, 77)]);
        let b = syndrome(3, 2, &[(0, 77)]);
        let mut words = vec![0u64; a.slab_words()];
        a.accumulate_slab(&mut words);
        assert_eq!(detect_words(&a, &words), (SlabDetect::Edges, vec![77]));
        b.accumulate_slab(&mut words);
        assert!(words.iter().all(|&w| w == 0));
        assert_eq!(detect_words(&a, &words), (SlabDetect::Empty, vec![]));
    }

    #[test]
    fn rs_vector_overload_fails_cleanly() {
        // 5 edges with threshold 2: this particular syndrome is rejected
        // (matches the codec-level test). Beyond-threshold outputs are
        // formally unspecified (Proposition 2); the query engine's sanity
        // checks catch the phantom-edge cases this test cannot force.
        let edges: Vec<(usize, u64)> = (1..=5u64).map(|id| (0, id * 7919)).collect();
        let v = syndrome(2, 1, &edges);
        assert_eq!(detect(&v), (SlabDetect::Failed, vec![]));
    }

    #[test]
    fn rs_vector_beyond_threshold_is_unspecified_but_typed() {
        // k = 1 with an XOR-cancelling 4-edge boundary: the syndrome is
        // identically zero (s₂ = s₁² in characteristic two), so detection
        // reports Empty — the documented "unspecified beyond k" behavior.
        let (a, b, c) = (0x1111u64, 0x2222, 0x4444);
        let d = a ^ b ^ c;
        let v = syndrome(1, 1, &[(0, a), (0, b), (0, c), (0, d)]);
        assert!(v.raw().iter().all(|x| x.is_zero()));
        assert_eq!(detect(&v), (SlabDetect::Empty, vec![]));
    }

    #[test]
    fn rs_vector_empty_levels() {
        let v = syndrome(3, 0, &[]);
        assert_eq!(v.levels(), 0);
        assert_eq!(v.slab_words(), 0);
        assert_eq!(detect(&v), (SlabDetect::Empty, vec![]));
    }

    #[test]
    fn slab_accumulate_and_detect_match_owned_path() {
        let a = syndrome(4, 3, &[(1, 0xaaaa), (2, 0x77)]);
        let b = syndrome(4, 3, &[(2, 0x77), (1, 0xbbbb)]);

        // Slab XOR must equal the syndrome of the merged edge set (0x77
        // cancels), word for word.
        let mut words = vec![0u64; a.slab_words()];
        a.accumulate_slab(&mut words);
        b.accumulate_slab(&mut words);
        let merged = syndrome(4, 3, &[(1, 0xaaaa), (1, 0xbbbb)]);
        let merged_words: Vec<u64> = merged.raw().iter().map(|g| g.to_bits()).collect();
        assert_eq!(words, merged_words);

        // Detection on the merged row finds the surviving level-1 edges.
        assert_eq!(
            detect_words(&a, &words),
            (SlabDetect::Edges, vec![0xaaaa, 0xbbbb])
        );

        // A zero slab row is certifiably empty.
        assert_eq!(
            detect_words(&a, &vec![0u64; a.slab_words()]),
            (SlabDetect::Empty, vec![])
        );
    }

    #[test]
    fn raw_round_trip() {
        let v = syndrome(2, 2, &[(0, 5)]);
        let w = RsVector::from_raw(2, v.raw().to_vec());
        assert_eq!(v, w);
        assert_eq!(detect(&w), (SlabDetect::Edges, vec![5]));
    }

    #[test]
    #[should_panic(expected = "slab window length mismatch")]
    fn raw_rejects_words_without_a_threshold() {
        RsVector::from_raw(0, vec![Gf64::ONE; 2]);
    }

    #[test]
    fn slab_windows_read_shared_and_detach_on_write() {
        let a = syndrome(2, 1, &[(0, 0x51)]);
        let b = syndrome(2, 1, &[(0, 0x52)]);
        // One slab holding both vectors back to back.
        let slab: Arc<[Gf64]> = a
            .raw()
            .iter()
            .chain(b.raw())
            .copied()
            .collect::<Vec<_>>()
            .into();
        let wa = RsVector::from_slab(2, &slab, 0, 4);
        let wb = RsVector::from_slab(2, &slab, 4, 4);
        // Windows read straight through the shared slab, back to back,
        // and clones share it too.
        assert_eq!(wa.raw().as_ptr(), slab.as_ptr());
        assert_eq!(wb.raw().as_ptr(), wa.raw().as_ptr_range().end);
        assert_eq!(wa.clone().raw().as_ptr(), wa.raw().as_ptr());
        // Windows equal their self-contained counterparts (logical
        // equality) and detect the same edges.
        assert_eq!(wa, a);
        assert_eq!(wb, b);
        assert_eq!(detect(&wa), (SlabDetect::Edges, vec![0x51]));
        assert_eq!(detect(&wb), (SlabDetect::Edges, vec![0x52]));
        // Merging windows on slab words never writes the shared slab.
        let mut words = vec![0u64; wa.slab_words()];
        wa.accumulate_slab(&mut words);
        wb.accumulate_slab(&mut words);
        let merged = syndrome(2, 1, &[(0, 0x51), (0, 0x52)]);
        let merged_words: Vec<u64> = merged.raw().iter().map(|g| g.to_bits()).collect();
        assert_eq!(words, merged_words);
        assert_eq!(
            detect_words(&wa, &words),
            (SlabDetect::Edges, vec![0x51, 0x52])
        );
        assert_eq!(wa, a, "sibling windows must not observe the merge");
    }

    #[test]
    fn endpoint_index_lookup_and_parallel_edge_semantics() {
        // Edge list with a parallel pair: IDs 1 and 3 both join (2, 5).
        let pairs = [(4usize, 0usize), (5, 2), (0, 1), (2, 5), (3, 2)];
        let idx = EndpointIndex::from_edges(pairs.iter().copied());
        assert_eq!(idx.len(), 4); // the duplicate collapsed
        assert_eq!(idx.get(0, 4), Some(0));
        assert_eq!(idx.get(4, 0), Some(0));
        assert_eq!(idx.get(1, 0), Some(2));
        assert_eq!(idx.get(2, 3), Some(4));
        // Parallel edges resolve to the largest edge ID (the historical
        // HashMap's insert-order-last-wins).
        assert_eq!(idx.get(2, 5), Some(3));
        assert_eq!(idx.get(5, 2), Some(3));
        assert_eq!(idx.get(0, 2), None);
        assert_eq!(idx.get(9, 9), None);
        // Entries iterate strictly sorted.
        let listed: Vec<_> = idx.iter().collect();
        assert_eq!(listed, vec![(0, 1, 2), (0, 4, 0), (2, 3, 4), (2, 5, 3)]);
    }

    #[test]
    fn endpoint_index_empty() {
        let idx = EndpointIndex::from_edges(std::iter::empty());
        assert!(idx.is_empty());
        assert_eq!(idx.get(0, 1), None);
        assert_eq!(idx.iter().len(), 0);
    }
}

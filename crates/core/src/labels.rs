//! Label types and the outdetect-vector abstraction.
//!
//! The paper's framework (Section 3) is deliberately modular: the tree-edge
//! scheme and the query engine only require *some* outdetect labeling whose
//! vectors are XOR-mergeable and support outgoing-edge detection. The
//! [`OutdetectVector`] trait captures exactly that interface; the
//! deterministic Reed–Solomon hierarchy vectors ([`RsVector`]) and the
//! randomized AGM sketch vectors (in [`crate::baseline`]) both implement
//! it, so one generic decoder serves every row of Table 1.

use crate::ancestry::AncestryLabel;
use ftc_codes::{DecodeScratch, ThresholdCodec};
use ftc_field::Gf64;
use std::fmt;
use std::sync::Arc;

/// Outcome of an outgoing-edge detection attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DetectOutcome {
    /// The boundary is certifiably empty.
    Empty,
    /// One or more outgoing-edge code IDs (never empty).
    Edges(Vec<u64>),
    /// Detection failed (threshold exceeded / sketch failure).
    Failed,
}

/// Outcome of a slab-based detection attempt — the scratch-reusing
/// counterpart of [`DetectOutcome`]: decoded edge code IDs land in the
/// caller's buffer instead of a fresh `Vec`.
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
/// Besides the owned-vector operations, every implementation exposes a
/// *slab* representation: the vector flattened into `u64` words whose
/// XOR is the vector XOR. The query engine keeps all per-fragment
/// accumulators in one contiguous word arena and merges fragments by
/// XORing arena rows, so a session build performs no per-fragment vector
/// allocation; detection runs straight off an arena row through a
/// reusable [`OutdetectVector::Detector`].
pub trait OutdetectVector: Clone {
    /// Reusable detection state: the codec geometry plus whatever decode
    /// scratch the backend needs. `Default` yields an unconfigured
    /// detector; [`OutdetectVector::configure_detector`] (or
    /// [`EdgeLabelRead::configure_detector`]) points it at a labeling.
    type Detector: Default + fmt::Debug;

    /// Merges another vector (labels of disjoint vertex sets XOR to the
    /// label of their union).
    fn xor_in(&mut self, other: &Self);
    /// `true` iff the vector is identically zero.
    fn is_zero(&self) -> bool;
    /// Attempts to detect outgoing edges of the sketched boundary.
    fn detect(&self) -> DetectOutcome;
    /// Size of the vector in bits (for label-size accounting).
    fn bits(&self) -> usize;

    /// Number of `u64` words in the flattened slab representation.
    fn slab_words(&self) -> usize;
    /// XORs this vector into a slab accumulator of [`Self::slab_words`]
    /// words.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != self.slab_words()`.
    fn accumulate_slab(&self, dst: &mut [u64]);
    /// Points `det` at this vector's codec geometry, reusing its buffers.
    fn configure_detector(&self, det: &mut Self::Detector);
    /// Attempts to detect outgoing edges from an accumulated slab row,
    /// appending decoded code IDs to `out` (cleared first). Must agree
    /// with [`OutdetectVector::detect`] on the vector the row encodes.
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
/// [`crate::serial::EdgeLabelView`] over serialized bytes. The vector
/// accessors are shaped for the merge engine's accumulate loop: a view
/// can XOR its syndrome words straight out of the byte buffer without
/// ever materializing an owned vector per label.
pub trait EdgeLabelRead {
    /// The outdetect-vector representation this label carries.
    type Vector: OutdetectVector;

    /// The labeling-identification header.
    fn header(&self) -> LabelHeader;
    /// Ancestry label of the endpoint of `σ(e)` closer to the root.
    fn anc_upper(&self) -> AncestryLabel;
    /// Ancestry label of the endpoint of `σ(e)` farther from the root.
    fn anc_lower(&self) -> AncestryLabel;
    /// Materializes the outdetect vector (used once per fragment as the
    /// accumulator seed).
    fn to_vector(&self) -> Self::Vector;
    /// XORs the outdetect vector into an existing accumulator.
    fn xor_vector_into(&self, acc: &mut Self::Vector);
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

    fn to_vector(&self) -> V {
        self.vec.clone()
    }

    fn xor_vector_into(&self, acc: &mut V) {
        acc.xor_in(&self.vec);
    }

    fn slab_words(&self) -> usize {
        self.vec.slab_words()
    }

    fn xor_into_slab(&self, dst: &mut [u64]) {
        self.vec.accumulate_slab(dst);
    }

    fn configure_detector(&self, det: &mut V::Detector) {
        self.vec.configure_detector(det);
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

    fn to_vector(&self) -> T::Vector {
        (**self).to_vector()
    }

    fn xor_vector_into(&self, acc: &mut T::Vector) {
        (**self).xor_vector_into(acc);
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

/// Backing storage of an [`RsVector`]: an owned syndrome buffer, or a
/// window into a payload slab shared by every edge label of a build.
///
/// The build pipeline produces **one** contiguous slab holding all
/// per-edge syndromes (edge-major, each edge's levels contiguous) and
/// hands every edge label a `Window` into it — no per-edge payload
/// allocation, no second copy of the dominant build artifact. Windows
/// are copy-on-write: the rare mutating operations (test helpers, the
/// legacy owned-merge path) first detach into an owned buffer.
#[derive(Clone)]
enum RsData {
    /// Self-contained buffer (deserialization, accumulators, tests).
    Owned(Vec<Gf64>),
    /// `slab[start..start + len]`, shared with all sibling labels.
    Window {
        slab: Arc<[Gf64]>,
        start: usize,
        len: usize,
    },
}

/// The deterministic outdetect vector: per hierarchy level, a
/// `2k`-element Reed–Solomon syndrome; levels are stored contiguously,
/// topmost level last.
#[derive(Clone)]
pub struct RsVector {
    k: u32,
    data: RsData,
}

impl RsVector {
    /// An all-zero vector with the given threshold and level count.
    pub fn zero(k: usize, levels: usize) -> RsVector {
        RsVector {
            k: k as u32,
            data: RsData::Owned(vec![Gf64::ZERO; 2 * k * levels]),
        }
    }

    /// The codec threshold `k`.
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Number of hierarchy levels carried.
    pub fn levels(&self) -> usize {
        if self.k == 0 {
            0
        } else {
            self.as_slice().len() / (2 * self.k as usize)
        }
    }

    /// The syndrome elements (level-major), wherever they live.
    fn as_slice(&self) -> &[Gf64] {
        match &self.data {
            RsData::Owned(v) => v,
            RsData::Window { slab, start, len } => &slab[*start..*start + *len],
        }
    }

    /// Mutable access, detaching slab windows into owned storage first
    /// (copy-on-write: mutators never write through the shared slab).
    fn make_mut(&mut self) -> &mut [Gf64] {
        if let RsData::Window { slab, start, len } = &self.data {
            self.data = RsData::Owned(slab[*start..*start + *len].to_vec());
        }
        match &mut self.data {
            RsData::Owned(v) => v,
            RsData::Window { .. } => unreachable!("detached above"),
        }
    }

    /// XOR-accumulates the parity row of `code_id` into level `level`,
    /// using the caller's codec (callers accumulating many edges build
    /// the codec once instead of per toggle).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range, `code_id == 0`, or the codec
    /// threshold does not match this vector's `k`.
    pub fn toggle(&mut self, codec: &ThresholdCodec, level: usize, code_id: u64) {
        let k = self.k as usize;
        assert!(level < self.levels(), "level out of range");
        assert_eq!(codec.k(), k, "codec threshold mismatch");
        codec.accumulate_edge(
            &mut self.make_mut()[2 * k * level..2 * k * (level + 1)],
            Gf64::new(code_id),
        );
    }

    /// Raw field-element view (level-major), for serialization.
    pub fn raw(&self) -> &[Gf64] {
        self.as_slice()
    }

    /// Rebuilds a vector from raw parts (used by deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `2k` (for `k > 0`).
    pub fn from_raw(k: usize, data: Vec<Gf64>) -> RsVector {
        if k > 0 {
            assert_eq!(data.len() % (2 * k), 0, "raw data length mismatch");
        }
        RsVector {
            k: k as u32,
            data: RsData::Owned(data),
        }
    }

    /// A vector windowing `slab[start..start + len]` — the arena-backed
    /// form the build pipeline hands every edge label. Cloning a window
    /// bumps the slab's reference count; reading goes straight through
    /// the shared buffer; mutation detaches (copy-on-write).
    ///
    /// # Panics
    ///
    /// Panics if the window is out of bounds or `len` is not a multiple
    /// of `2k` (for `k > 0`).
    pub fn from_slab(k: usize, slab: &Arc<[Gf64]>, start: usize, len: usize) -> RsVector {
        assert!(start + len <= slab.len(), "slab window out of bounds");
        if k > 0 {
            assert_eq!(len % (2 * k), 0, "slab window length mismatch");
        }
        RsVector {
            k: k as u32,
            data: RsData::Window {
                slab: Arc::clone(slab),
                start,
                len,
            },
        }
    }

    /// `true` iff this vector reads from a shared payload slab rather
    /// than an owned buffer (diagnostics and tests).
    pub fn is_slab_window(&self) -> bool {
        matches!(self.data, RsData::Window { .. })
    }

    /// XORs raw little-endian syndrome words into the vector in place —
    /// the zero-copy accumulate path used by byte-level label views.
    ///
    /// # Panics
    ///
    /// Panics if the word count does not match this vector's width.
    pub fn xor_in_raw_words<I>(&mut self, words: I)
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: ExactSizeIterator,
    {
        let words = words.into_iter();
        let data = self.make_mut();
        assert_eq!(words.len(), data.len(), "mixed vector widths");
        for (d, w) in data.iter_mut().zip(words) {
            *d += Gf64::new(w);
        }
    }
}

impl PartialEq for RsVector {
    fn eq(&self, other: &Self) -> bool {
        // Windows and owned buffers with the same logical contents are
        // the same vector.
        self.k == other.k && self.as_slice() == other.as_slice()
    }
}

impl Eq for RsVector {}

/// Reusable detection state for [`RsVector`] slabs: the codec geometry
/// (`k`, level count) plus the decode scratch. One detector serves every
/// fragment of every session built against the same labeling; warm
/// detectors decode without allocating.
#[derive(Debug, Default)]
pub struct RsDetector {
    k: usize,
    levels: usize,
    /// The level syndrome copied out of the word slab.
    syn: Vec<Gf64>,
    /// Decoded edge IDs before conversion to raw bits.
    ids: Vec<Gf64>,
    decode: DecodeScratch,
}

impl RsDetector {
    /// Points the detector at a labeling's codec geometry (buffers are
    /// kept). Byte-level label views call this with their parsed header
    /// fields; owned vectors go through
    /// [`OutdetectVector::configure_detector`].
    pub fn configure(&mut self, k: usize, levels: usize) {
        self.k = k;
        self.levels = levels;
    }
}

impl OutdetectVector for RsVector {
    type Detector = RsDetector;

    fn xor_in(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "mixed thresholds");
        let src = other.as_slice();
        let dst = self.make_mut();
        assert_eq!(dst.len(), src.len(), "mixed level counts");
        for (d, s) in dst.iter_mut().zip(src) {
            *d += *s;
        }
    }

    fn is_zero(&self) -> bool {
        self.as_slice().iter().all(|x| x.is_zero())
    }

    fn detect(&self) -> DetectOutcome {
        // One implementation: flatten and run the slab detector (the
        // serving path), so the two can never diverge. This path is the
        // convenience one and tolerates the throwaway buffers.
        let mut det = RsDetector::default();
        self.configure_detector(&mut det);
        let words: Vec<u64> = self.as_slice().iter().map(|g| g.to_bits()).collect();
        let mut ids = Vec::new();
        match Self::detect_slab(&mut det, &words, &mut ids) {
            SlabDetect::Empty => DetectOutcome::Empty,
            SlabDetect::Edges => DetectOutcome::Edges(ids),
            SlabDetect::Failed => DetectOutcome::Failed,
        }
    }

    fn bits(&self) -> usize {
        self.as_slice().len() * 64
    }

    fn slab_words(&self) -> usize {
        self.as_slice().len()
    }

    fn accumulate_slab(&self, dst: &mut [u64]) {
        let src = self.as_slice();
        assert_eq!(dst.len(), src.len(), "mixed vector widths");
        // GF(2⁶⁴) addition is XOR of the bit representations.
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s.to_bits();
        }
    }

    fn configure_detector(&self, det: &mut RsDetector) {
        det.configure(self.k(), self.levels());
    }

    fn detect_slab(det: &mut RsDetector, words: &[u64], out: &mut Vec<u64>) -> SlabDetect {
        out.clear();
        let k = det.k;
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
            return match codec.decode_adaptive_into(&det.syn, &mut det.decode, &mut det.ids) {
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
        write!(
            f,
            "RsVector(k={}, levels={}, zero={})",
            self.k,
            self.levels(),
            self.is_zero()
        )
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

    /// The edge ID indexed under `(u, v)` (either order), if any.
    pub fn get(&self, u: usize, v: usize) -> Option<usize> {
        let key = (u.min(v) as u32, u.max(v) as u32);
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

    #[test]
    fn rs_vector_toggle_and_detect_roundtrip() {
        let codec = ThresholdCodec::new(4);
        let mut v = RsVector::zero(4, 3);
        v.toggle(&codec, 1, 0xaaaa);
        v.toggle(&codec, 1, 0xbbbb);
        v.toggle(&codec, 0, 0xcccc);
        // Topmost non-zero level is 1 -> detects both its edges.
        match v.detect() {
            DetectOutcome::Edges(mut ids) => {
                ids.sort_unstable();
                assert_eq!(ids, vec![0xaaaa, 0xbbbb]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn rs_vector_zero_is_empty() {
        let v = RsVector::zero(2, 4);
        assert!(v.is_zero());
        assert_eq!(v.detect(), DetectOutcome::Empty);
        assert_eq!(v.bits(), 2 * 2 * 4 * 64);
    }

    #[test]
    fn rs_vector_xor_cancels() {
        let codec = ThresholdCodec::new(3);
        let mut a = RsVector::zero(3, 2);
        a.toggle(&codec, 0, 77);
        let mut b = RsVector::zero(3, 2);
        b.toggle(&codec, 0, 77);
        a.xor_in(&b);
        assert!(a.is_zero());
    }

    #[test]
    fn rs_vector_overload_fails_cleanly() {
        // 5 edges with threshold 2: this particular syndrome is rejected
        // (matches the codec-level test). Beyond-threshold outputs are
        // formally unspecified (Proposition 2); the query engine's sanity
        // checks catch the phantom-edge cases this test cannot force.
        let codec = ThresholdCodec::new(2);
        let mut v = RsVector::zero(2, 1);
        for id in 1..=5u64 {
            v.toggle(&codec, 0, id * 7919);
        }
        assert_eq!(v.detect(), DetectOutcome::Failed);
    }

    #[test]
    fn rs_vector_beyond_threshold_is_unspecified_but_typed() {
        // k = 1 with an XOR-cancelling 4-edge boundary: the syndrome is
        // identically zero (s₂ = s₁² in characteristic two), so detection
        // reports Empty — the documented "unspecified beyond k" behavior.
        let (a, b, c) = (0x1111u64, 0x2222, 0x4444);
        let d = a ^ b ^ c;
        let codec = ThresholdCodec::new(1);
        let mut v = RsVector::zero(1, 1);
        for id in [a, b, c, d] {
            v.toggle(&codec, 0, id);
        }
        assert!(v.is_zero());
        assert_eq!(v.detect(), DetectOutcome::Empty);
    }

    #[test]
    fn rs_vector_empty_levels() {
        let v = RsVector::zero(3, 0);
        assert_eq!(v.levels(), 0);
        assert_eq!(v.detect(), DetectOutcome::Empty);
    }

    #[test]
    fn slab_accumulate_and_detect_match_owned_path() {
        let codec = ThresholdCodec::new(4);
        let mut a = RsVector::zero(4, 3);
        a.toggle(&codec, 1, 0xaaaa);
        a.toggle(&codec, 2, 0x77);
        let mut b = RsVector::zero(4, 3);
        b.toggle(&codec, 2, 0x77);
        b.toggle(&codec, 1, 0xbbbb);

        // Slab XOR must equal owned XOR, word for word.
        let mut words = vec![0u64; a.slab_words()];
        a.accumulate_slab(&mut words);
        b.accumulate_slab(&mut words);
        let mut owned = a.clone();
        owned.xor_in(&b);
        let owned_words: Vec<u64> = owned.raw().iter().map(|g| g.to_bits()).collect();
        assert_eq!(words, owned_words);

        // Slab detection must agree with owned detection.
        let mut det = RsDetector::default();
        owned.configure_detector(&mut det);
        let mut out = Vec::new();
        assert_eq!(
            RsVector::detect_slab(&mut det, &words, &mut out),
            SlabDetect::Edges
        );
        out.sort_unstable();
        match owned.detect() {
            DetectOutcome::Edges(mut ids) => {
                ids.sort_unstable();
                assert_eq!(out, ids);
            }
            other => panic!("owned path disagreed: {other:?}"),
        }

        // A zero slab row is certifiably empty.
        assert_eq!(
            RsVector::detect_slab(&mut det, &vec![0u64; owned.slab_words()], &mut out),
            SlabDetect::Empty
        );
        assert!(out.is_empty());
    }

    #[test]
    fn raw_round_trip() {
        let mut v = RsVector::zero(2, 2);
        v.toggle(&ThresholdCodec::new(2), 0, 5);
        let w = RsVector::from_raw(2, v.raw().to_vec());
        assert_eq!(v, w);
    }

    #[test]
    fn slab_windows_read_shared_and_detach_on_write() {
        let codec = ThresholdCodec::new(2);
        let mut a = RsVector::zero(2, 1);
        a.toggle(&codec, 0, 0x51);
        let mut b = RsVector::zero(2, 1);
        b.toggle(&codec, 0, 0x52);
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
        assert!(wa.is_slab_window() && wb.is_slab_window());
        // Windows equal their owned counterparts (logical equality).
        assert_eq!(wa, a);
        assert_eq!(wb, b);
        assert_eq!(wa.detect(), a.detect());
        // Cloning a window shares the slab; mutating detaches the mutated
        // copy without touching the shared bytes.
        let mut detached = wa.clone();
        detached.toggle(&codec, 0, 0x51); // cancels: now zero
        assert!(detached.is_zero());
        assert!(!detached.is_slab_window());
        assert_eq!(wa, a, "sibling windows must not observe the write");
        // Slab accumulate agrees with the owned path.
        let mut words = vec![0u64; wa.slab_words()];
        wa.accumulate_slab(&mut words);
        wb.accumulate_slab(&mut words);
        let mut merged = a.clone();
        merged.xor_in(&b);
        let merged_words: Vec<u64> = merged.raw().iter().map(|g| g.to_bits()).collect();
        assert_eq!(words, merged_words);
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

//! # ftc-dyn — incremental label maintenance for dynamic graphs
//!
//! Real deployments churn edges; a from-scratch rebuild per update throws
//! away almost all of the labeling work. [`DynamicScheme`] owns a graph's
//! labeling *parts* — spanning forest, ancestry numbering, per-edge
//! syndrome rows — and applies [`insert_edge`](DynamicScheme::insert_edge)
//! / [`delete_edge`](DynamicScheme::delete_edge) by recomputing only what
//! an update invalidates, then re-emits a servable archive with
//! [`commit`](DynamicScheme::commit) (written by the one v1 writer,
//! [`ftc_core::store::write_v1`], never re-validated, never re-encoded
//! from a `LabelSet`).
//!
//! ## How updates stay small
//!
//! The static scheme subdivides every non-tree edge `e = (u, v)` with a
//! vertex `x_e` that is a *leaf* child of one endpoint, and stores on each
//! tree edge, per hierarchy level, the XOR of Reed–Solomon rows of the
//! chords crossing its subtree. Two structural facts make incremental
//! maintenance cheap:
//!
//! 1. **A chord's row touches exactly the tree path between its
//!    endpoints.** Chord `(u, v)` crosses `subtree(c)` iff exactly one
//!    endpoint lies below `c`, i.e. iff `c` is on the `u→lca` or `v→lca`
//!    path. Inserting or deleting a chord XORs one row into those records
//!    (XOR is self-inverse, so delete is the same walk) at levels
//!    `0..=ℓ(e)`, plus the chord's own record — a handful of cache lines.
//! 2. **Gap numbering absorbs new subdividers.** Vertex preorders are
//!    spaced by a slack factor `G` (`pre′(v) = G·pre(v)`), leaving `G−1`
//!    subdivider slots inside every vertex's interval. A new chord takes a
//!    free slot at either endpoint; the ancestry labels of every existing
//!    vertex and edge are untouched. Only when slots run out, a tree edge
//!    is deleted, or components merge does the scheme fall back to a full
//!    internal rebuild (new forest, renumbering, row recompute) — counted
//!    separately in [`DynStats`].
//!
//! Hierarchy levels use the paper's randomized halving (Appendix A): each
//! edge independently draws a geometric top level from the scheme's seed,
//! so level membership is an O(1) per-edge property that survives
//! rebuilds — no global net recomputation on update, unlike the
//! deterministic ε-net backend. Level draws are clamped to a fixed level
//! budget chosen at construction, which keeps record geometry (and the
//! archive layout) stable across the scheme's whole lifetime.
//!
//! Both archive encodings are maintained in place: full records store the
//! raw `2k` syndrome words per level, and compact records store the `k`
//! odd power sums — which are themselves XOR-additive (in characteristic 2
//! the even sums are Frobenius squares of the odd ones), so compact rows
//! patch with the same XOR walk.
//!
//! ## Serving
//!
//! [`commit_service`](DynamicScheme::commit_service) wraps the committed
//! archive in a [`ConnectivityService`]; handing it to
//! [`ServiceRegistry::swap`](ftc_serve::ServiceRegistry::swap) gives a
//! live server zero-downtime churn absorption. Every commit stamps a fresh
//! label tag, so stale labels from an earlier generation are rejected
//! rather than silently mixed.
//!
//! ## Durability
//!
//! [`DynamicScheme`] is purely in-memory; crash consistency lives in the
//! [`durable`] module. [`DurableScheme`] write-ahead journals every op
//! into a `.ftcj` sidecar (format in [`journal`]) and checkpoints through
//! [`ftc_core::io::AtomicFile`], so a crash at any byte boundary loses no
//! acknowledged op: [`DynamicScheme::recover`] replays exactly the
//! un-snapshotted journal suffix onto the surviving archive.
//!
//! ```
//! use ftc_dyn::{DynConfig, DynamicScheme};
//! use ftc_graph::Graph;
//!
//! let g = Graph::cycle(8);
//! let mut dyn_scheme = DynamicScheme::new(&g, DynConfig::new(2, 8)).unwrap();
//! dyn_scheme.insert_edge(0, 4).unwrap();
//! dyn_scheme.delete_edge(2, 3).unwrap();
//! let service = dyn_scheme.commit_service();
//! // The inserted chord keeps 1 and 5 connected (1–0–4–5) even when the
//! // surviving arc through (3,4) is faulted away.
//! let answers = service.query(&[(3, 4)], &[(1, 5)]).unwrap();
//! assert!(answers.get(0).unwrap());
//! ```

pub mod durable;
pub mod journal;

pub use durable::{
    default_journal_path, manifest_path, DurableError, DurableScheme, Manifest, RecoverStats,
};
pub use journal::{FsyncPolicy, JournalError, JournalErrorKind, JournalOp, JournalScan};

use ftc_codes::ThresholdCodec;
use ftc_core::ancestry::AncestryLabel;
use ftc_core::compressed::{compress_archive, AnyArchive, CompressedStore};
use ftc_core::store::{write_v1, ArchiveMeta, EdgeEncoding, LabelStore};
use ftc_core::{EndpointIndex, LabelHeader, SerialError};
use ftc_field::Gf64;
use ftc_graph::{Graph, RootedTree};
use ftc_serve::ConnectivityService;
use std::collections::HashMap;
use std::fmt;

const NO_VERTEX: u32 = u32::MAX;
const NO_EDGE: u32 = u32::MAX;

/// Configuration of a [`DynamicScheme`].
#[derive(Clone, Copy, Debug)]
pub struct DynConfig {
    /// Fault budget `f` (stamped into every label header).
    pub f: usize,
    /// Outdetect threshold `k`. The dynamic scheme uses the randomized
    /// halving hierarchy, so `k` trades archive size against the failure
    /// probability of decoding; under-calibration surfaces as a typed
    /// query error, never a wrong answer.
    pub k: usize,
    /// Archive encoding maintained in the row slab.
    pub encoding: EdgeEncoding,
    /// Seed of the per-edge geometric level draws (and the label tags).
    pub seed: u64,
    /// Initial preorder slack factor `G` — `G−1` subdivider slots per
    /// vertex. Power of two in `2..=64`; grows automatically (up to 64)
    /// when a structural rebuild finds it too tight.
    pub gap: u32,
    /// Hierarchy level budget; `0` picks `⌈log₂ n⌉ − 3` clamped to
    /// `[4, 24]`. Level draws above the budget are clamped, which keeps
    /// correctness (the top level just holds a few more chords) and
    /// bounds the archive at `levels` rows per edge.
    pub max_levels: usize,
}

impl DynConfig {
    /// Config with the given fault budget and threshold, compact
    /// encoding, and the documented defaults everywhere else.
    pub fn new(f: usize, k: usize) -> DynConfig {
        DynConfig {
            f,
            k,
            encoding: EdgeEncoding::Compact,
            seed: 0xD1E5_EED5,
            gap: 8,
            max_levels: 0,
        }
    }
}

/// Typed failure of a dynamic-scheme operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DynError {
    /// A vertex id is `≥ n` (the vertex set is fixed at construction).
    VertexOutOfRange(usize),
    /// Self-loops carry no connectivity information and are rejected.
    SelfLoop(usize),
    /// The endpoint pair is already present. The dynamic scheme maintains
    /// simple graphs: updates and faults are addressed by endpoint pair,
    /// so parallel edges would be ambiguous.
    DuplicateEdge(usize, usize),
    /// No edge with this endpoint pair exists.
    UnknownEdge(usize, usize),
    /// Rejected configuration (the message names the field).
    BadConfig(&'static str),
    /// `n` is too large for gapped 32-bit preorders (`64·n` must stay
    /// below 2³¹).
    TooLarge,
    /// An adopted v2 archive's section failed lazy validation.
    Corrupt(SerialError),
}

impl fmt::Display for DynError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynError::VertexOutOfRange(v) => write!(f, "vertex {v} out of range"),
            DynError::SelfLoop(v) => write!(f, "self-loop at vertex {v}"),
            DynError::DuplicateEdge(u, v) => write!(f, "edge ({u}, {v}) already present"),
            DynError::UnknownEdge(u, v) => write!(f, "no edge ({u}, {v})"),
            DynError::BadConfig(what) => write!(f, "bad config: {what}"),
            DynError::TooLarge => f.write_str("graph too large for gapped 32-bit preorders"),
            DynError::Corrupt(e) => write!(f, "archive section corrupt: {e}"),
        }
    }
}

impl std::error::Error for DynError {}

/// Update counters: how much churn went through the fast path versus a
/// structural rebuild.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynStats {
    /// Updates absorbed by the incremental path-XOR path.
    pub incremental_ops: u64,
    /// Full internal rebuilds forced by structure: a tree-edge delete or a
    /// component-merging insert.
    pub structural_rebuilds: u64,
    /// Full internal rebuilds forced by subdivider-slot exhaustion (the
    /// rebuild widens the gap).
    pub slot_rebuilds: u64,
    /// Archives committed.
    pub commits: u64,
}

#[derive(Clone, Copy, Debug)]
enum EdgeKind {
    /// Spanning-forest edge; `child` is its lower endpoint.
    Tree { child: u32 },
    /// Chord, subdivided at slot `slot` of vertex `attach`.
    NonTree { attach: u32, slot: u32 },
}

#[derive(Clone, Copy, Debug)]
struct EdgeState {
    u: u32,
    v: u32,
    /// Geometric top level, already clamped to `levels − 1`. Drawn once
    /// at insertion and kept across rebuilds.
    level: u32,
    kind: EdgeKind,
}

/// A labeling that absorbs edge churn incrementally. See the
/// [module docs](self) for the maintenance strategy.
#[derive(Clone, Debug)]
pub struct DynamicScheme {
    f: u32,
    k: usize,
    levels: usize,
    encoding: EdgeEncoding,
    gap: u32,
    n: usize,
    edges: Vec<EdgeState>,
    /// Normalized `(min, max)` endpoint pair → edge id.
    pair_ids: HashMap<(u32, u32), usize>,
    // Spanning forest over the original vertices (dense preorder `pre`;
    // the archive's gapped numbers are derived as `gap·pre + slot`).
    parent: Vec<u32>,
    parent_edge: Vec<u32>,
    depth: Vec<u32>,
    pre: Vec<u32>,
    last: Vec<u32>,
    comp: Vec<u32>,
    /// Vertices in preorder (children after parents).
    order: Vec<u32>,
    /// Per-vertex bitmask of occupied subdivider slots (bits `1..gap`).
    slot_used: Vec<u64>,
    /// The archive payload slab: `m · words_per_edge` words, record-major
    /// then level-major, already in the committed encoding.
    rows: Vec<u64>,
    codec: ThresholdCodec,
    row_scratch: Vec<Gf64>,
    row_bits: Vec<u64>,
    rng_state: u64,
    tag_base: u64,
    update_counter: u64,
    stats: DynStats,
    /// Recycled archive allocation (fed by [`DynamicScheme::recycle`]);
    /// the next [`commit`](DynamicScheme::commit) assembles into it
    /// instead of paying fresh soft page faults for the whole blob.
    commit_scratch: Vec<u8>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a64(parts: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for b in part.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn norm_pair(u: u32, v: u32) -> (u32, u32) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// XOR the stored words of `src` (a full `2k`-word row) into `dst` (one
/// stored level window).
#[inline]
fn project_xor(dst: &mut [u64], src: &[u64], encoding: EdgeEncoding) {
    for (d, s) in dst.iter_mut().zip(encoding.stored(src)) {
        *d ^= *s;
    }
}

impl DynamicScheme {
    /// Builds the dynamic labeling of `g` (one full internal build; every
    /// later update is incremental where structure allows).
    ///
    /// # Errors
    ///
    /// [`DynError::BadConfig`] for rejected parameters,
    /// [`DynError::TooLarge`] above the 32-bit preorder budget, and
    /// [`DynError::SelfLoop`] / [`DynError::DuplicateEdge`] if `g` is not
    /// simple (the dynamic scheme addresses edges by endpoint pair).
    pub fn new(g: &Graph, cfg: DynConfig) -> Result<DynamicScheme, DynError> {
        if cfg.f == 0 {
            return Err(DynError::BadConfig("f must be at least 1"));
        }
        if cfg.k == 0 {
            return Err(DynError::BadConfig("k must be at least 1"));
        }
        if !(2..=64).contains(&cfg.gap) || !cfg.gap.is_power_of_two() {
            return Err(DynError::BadConfig("gap must be a power of two in 2..=64"));
        }
        if cfg.max_levels > 32 {
            return Err(DynError::BadConfig("max_levels must be at most 32"));
        }
        let n = g.n();
        if n == 0 {
            return Err(DynError::BadConfig("graph must have at least one vertex"));
        }
        if n > 1 << 24 {
            return Err(DynError::TooLarge);
        }
        let levels = if cfg.max_levels > 0 {
            cfg.max_levels
        } else {
            let log2 = usize::BITS - n.next_power_of_two().leading_zeros() - 1;
            (log2 as usize).saturating_sub(3).clamp(4, 24)
        };
        let mut scheme = DynamicScheme {
            f: cfg.f as u32,
            k: cfg.k,
            levels,
            encoding: cfg.encoding,
            gap: cfg.gap,
            n,
            edges: Vec::with_capacity(g.m()),
            pair_ids: HashMap::with_capacity(g.m()),
            parent: vec![NO_VERTEX; n],
            parent_edge: vec![NO_EDGE; n],
            depth: vec![0; n],
            pre: vec![0; n],
            last: vec![0; n],
            comp: vec![0; n],
            order: Vec::with_capacity(n),
            slot_used: vec![0; n],
            rows: Vec::new(),
            codec: ThresholdCodec::new(cfg.k),
            row_scratch: vec![Gf64::ZERO; 2 * cfg.k],
            row_bits: vec![0; 2 * cfg.k],
            rng_state: cfg.seed ^ 0x5DD1_E5C0_FFEE_D00D,
            tag_base: fnv1a64(&[
                0x6674_632D_6479_6E00, // "ftc-dyn"
                n as u64,
                cfg.f as u64,
                cfg.k as u64,
                cfg.seed,
            ]),
            update_counter: 0,
            stats: DynStats::default(),
            commit_scratch: Vec::new(),
        };
        for (_, u, v) in g.edge_iter() {
            if u == v {
                return Err(DynError::SelfLoop(u));
            }
            let pair = norm_pair(u as u32, v as u32);
            if scheme.pair_ids.insert(pair, scheme.edges.len()).is_some() {
                return Err(DynError::DuplicateEdge(u, v));
            }
            let level = scheme.draw_level();
            scheme.edges.push(EdgeState {
                u: u as u32,
                v: v as u32,
                level,
                // Placeholder; the rebuild assigns real kinds and slots.
                kind: EdgeKind::NonTree { attach: 0, slot: 0 },
            });
        }
        scheme.full_rebuild();
        scheme.stats = DynStats::default();
        Ok(scheme)
    }

    /// Re-labels an existing archive of either format into dynamic
    /// form: the graph is reconstructed from the archive's endpoint
    /// index, `f`, `k`, and the encoding are taken from the archive, and
    /// a fresh dynamic labeling is built (the static hierarchy is not
    /// reusable incrementally, so this pays one full build; all
    /// subsequent updates are incremental).
    ///
    /// # Errors
    ///
    /// [`DynError::BadConfig`] for an empty archive,
    /// [`DynError::DuplicateEdge`] if the archive holds parallel edges
    /// (its endpoint index would be pair-ambiguous), and
    /// [`DynError::Corrupt`] if a v2 endpoint section fails validation.
    pub fn from_archive(archive: &AnyArchive, seed: u64) -> Result<DynamicScheme, DynError> {
        let m = archive.m();
        if m == 0 {
            return Err(DynError::BadConfig("archive has no edges"));
        }
        let index = archive.endpoint_index().map_err(DynError::Corrupt)?;
        if index.len() != m {
            let mut counts: HashMap<(usize, usize), usize> = HashMap::new();
            for (u, v, _) in index {
                *counts.entry((u, v)).or_default() += 1;
            }
            // The index deduplicates pairs, so some pair occurs twice.
            let (&(u, v), _) = counts.iter().next().expect("non-empty index");
            return Err(DynError::DuplicateEdge(u, v));
        }
        let pairs: Vec<(usize, usize)> = index.map(|(u, v, _)| (u, v)).collect();
        let g = Graph::from_edges(archive.n(), &pairs);
        let mut cfg = DynConfig::new(archive.header().f as usize, archive.k());
        cfg.encoding = archive.encoding();
        cfg.seed = seed;
        DynamicScheme::new(&g, cfg)
    }

    /// Number of vertices (fixed for the scheme's lifetime).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Fault budget `f`.
    pub fn f(&self) -> usize {
        self.f as usize
    }

    /// Outdetect threshold `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Hierarchy level budget.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Maintained archive encoding.
    pub fn encoding(&self) -> EdgeEncoding {
        self.encoding
    }

    /// Update counters since construction.
    pub fn stats(&self) -> DynStats {
        self.stats
    }

    /// Lineage fingerprint: a hash of the scheme's shape (`n`, `f`,
    /// `k`) and construction seed, stable across updates and commits.
    /// [`durable`] stamps it into journals and manifests so recovery
    /// can refuse files that do not belong together.
    pub fn lineage(&self) -> u64 {
        self.tag_base
    }

    /// `true` iff an edge with this endpoint pair is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && v < self.n && self.pair_ids.contains_key(&norm_pair(u as u32, v as u32))
    }

    /// Current edges as normalized endpoint pairs (archive order).
    pub fn edge_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().map(|e| {
            let (a, b) = norm_pair(e.u, e.v);
            (a as usize, b as usize)
        })
    }

    fn draw_level(&mut self) -> u32 {
        let draw = splitmix64(&mut self.rng_state).trailing_zeros();
        draw.min(self.levels as u32 - 1)
    }

    fn words_per_edge(&self) -> usize {
        self.level_width() * self.levels
    }

    fn level_width(&self) -> usize {
        self.encoding.row_words(self.k)
    }

    fn check_pair(&self, u: usize, v: usize) -> Result<(u32, u32), DynError> {
        if u >= self.n {
            return Err(DynError::VertexOutOfRange(u));
        }
        if v >= self.n {
            return Err(DynError::VertexOutOfRange(v));
        }
        if u == v {
            return Err(DynError::SelfLoop(u));
        }
        Ok((u as u32, v as u32))
    }

    /// Inserts edge `(u, v)`.
    ///
    /// A chord between already-connected endpoints with a free subdivider
    /// slot is absorbed incrementally (one row XORed along the `u`–`v`
    /// tree path). A component-merging edge, or slot exhaustion at both
    /// endpoints, falls back to a structural rebuild.
    ///
    /// # Errors
    ///
    /// [`DynError::DuplicateEdge`], [`DynError::SelfLoop`], or
    /// [`DynError::VertexOutOfRange`]. The scheme is unchanged on error.
    pub fn insert_edge(&mut self, u: usize, v: usize) -> Result<(), DynError> {
        let (u, v) = self.check_pair(u, v)?;
        let pair = norm_pair(u, v);
        if self.pair_ids.contains_key(&pair) {
            return Err(DynError::DuplicateEdge(u as usize, v as usize));
        }
        let level = self.draw_level();
        let j = self.edges.len();
        if self.comp[u as usize] != self.comp[v as usize] {
            // Component merge: the new edge joins the forest; every
            // numbering downstream of the merge shifts.
            self.pair_ids.insert(pair, j);
            self.edges.push(EdgeState {
                u,
                v,
                level,
                kind: EdgeKind::NonTree { attach: 0, slot: 0 },
            });
            self.stats.structural_rebuilds += 1;
            self.full_rebuild();
            return Ok(());
        }
        let Some((attach, slot)) = self.free_slot(u).or_else(|| self.free_slot(v)) else {
            // Both endpoints are out of subdivider slots; rebuild with a
            // contiguous reassignment (widening the gap if needed).
            self.pair_ids.insert(pair, j);
            self.edges.push(EdgeState {
                u,
                v,
                level,
                kind: EdgeKind::NonTree { attach: 0, slot: 0 },
            });
            self.stats.slot_rebuilds += 1;
            self.full_rebuild();
            return Ok(());
        };
        self.slot_used[attach as usize] |= 1 << slot;
        self.pair_ids.insert(pair, j);
        self.edges.push(EdgeState {
            u,
            v,
            level,
            kind: EdgeKind::NonTree { attach, slot },
        });
        let words = self.words_per_edge();
        self.rows.resize(self.rows.len() + words, 0);
        self.apply_chord(j);
        self.stats.incremental_ops += 1;
        Ok(())
    }

    /// Deletes the edge with endpoint pair `(u, v)`.
    ///
    /// Chord deletes are incremental (the insert's XOR walk repeated —
    /// XOR is self-inverse); tree-edge deletes force a structural rebuild.
    ///
    /// # Errors
    ///
    /// [`DynError::UnknownEdge`], [`DynError::SelfLoop`], or
    /// [`DynError::VertexOutOfRange`]. The scheme is unchanged on error.
    pub fn delete_edge(&mut self, u: usize, v: usize) -> Result<(), DynError> {
        let (u, v) = self.check_pair(u, v)?;
        let pair = norm_pair(u, v);
        let Some(&j) = self.pair_ids.get(&pair) else {
            return Err(DynError::UnknownEdge(u as usize, v as usize));
        };
        match self.edges[j].kind {
            EdgeKind::Tree { .. } => {
                self.remove_record(j);
                self.stats.structural_rebuilds += 1;
                self.full_rebuild();
            }
            EdgeKind::NonTree { attach, slot } => {
                self.apply_chord(j);
                self.slot_used[attach as usize] &= !(1 << slot);
                self.remove_record(j);
                self.stats.incremental_ops += 1;
            }
        }
        Ok(())
    }

    /// Lowest free subdivider slot at `v`, if any.
    fn free_slot(&self, v: u32) -> Option<(u32, u32)> {
        let used = self.slot_used[v as usize] | 1; // slot 0 is the vertex itself
        let slot = (!used).trailing_zeros();
        (slot < self.gap).then_some((v, slot))
    }

    /// The packed outdetect code id of chord `j` (the aux-graph non-tree
    /// half `(x_e, other)`), in the gapped numbering.
    fn chord_code_id(&self, j: usize) -> u64 {
        let e = &self.edges[j];
        let EdgeKind::NonTree { attach, slot } = e.kind else {
            unreachable!("tree edges have no code id");
        };
        let other = if attach == e.u { e.v } else { e.u };
        let px = (self.gap * self.pre[attach as usize] + slot) as u64 + 1;
        let po = (self.gap * self.pre[other as usize]) as u64 + 1;
        let (lo, hi) = if px < po { (px, po) } else { (po, px) };
        (lo << 32) | hi
    }

    /// XORs chord `j`'s row into its own record and every tree-path
    /// record, at levels `0..=level(j)`. Insertion and deletion are the
    /// same walk.
    fn apply_chord(&mut self, j: usize) {
        let id = self.chord_code_id(j);
        self.codec
            .fill_edge_row(&mut self.row_scratch, Gf64::new(id));
        for (bits, w) in self.row_bits.iter_mut().zip(&self.row_scratch) {
            *bits = w.to_bits();
        }
        let e = self.edges[j];
        let mut records = vec![j];
        let (mut a, mut b) = (e.u as usize, e.v as usize);
        while self.depth[a] > self.depth[b] {
            records.push(self.parent_edge[a] as usize);
            a = self.parent[a] as usize;
        }
        while self.depth[b] > self.depth[a] {
            records.push(self.parent_edge[b] as usize);
            b = self.parent[b] as usize;
        }
        while a != b {
            records.push(self.parent_edge[a] as usize);
            a = self.parent[a] as usize;
            records.push(self.parent_edge[b] as usize);
            b = self.parent[b] as usize;
        }
        let (width, words) = (self.level_width(), self.words_per_edge());
        for rec in records {
            let base = rec * words;
            for lvl in 0..=e.level as usize {
                let at = base + lvl * width;
                project_xor(
                    &mut self.rows[at..at + width],
                    &self.row_bits,
                    self.encoding,
                );
            }
        }
    }

    /// Swap-removes edge record `j` from the edge list, the pair map, and
    /// the row slab, repointing the moved edge's bookkeeping.
    fn remove_record(&mut self, j: usize) {
        let words = self.words_per_edge();
        let last_id = self.edges.len() - 1;
        let e = self.edges[j];
        self.pair_ids.remove(&norm_pair(e.u, e.v));
        if j != last_id {
            self.rows
                .copy_within(last_id * words..(last_id + 1) * words, j * words);
            let moved = self.edges[last_id];
            self.pair_ids.insert(norm_pair(moved.u, moved.v), j);
            if let EdgeKind::Tree { child } = moved.kind {
                self.parent_edge[child as usize] = j as u32;
            }
        }
        self.edges.swap_remove(j);
        self.rows.truncate(self.edges.len() * words);
    }

    /// Full internal rebuild: fresh BFS forest, dense renumbering,
    /// contiguous slot reassignment (widening the gap if required), and a
    /// complete row recompute via the bottom-up subtree fold. Per-edge
    /// level draws persist.
    fn full_rebuild(&mut self) {
        let n = self.n;
        let pairs: Vec<(usize, usize)> = self
            .edges
            .iter()
            .map(|e| (e.u as usize, e.v as usize))
            .collect();
        let g = Graph::from_edges(n, &pairs);
        let t = RootedTree::bfs(&g, 0);
        let sizes = t.subtree_sizes();
        self.order.clear();
        self.order.extend(t.pre_order().iter().map(|&v| v as u32));
        for (v, &size) in sizes.iter().enumerate() {
            self.parent[v] = t.parent(v).map_or(NO_VERTEX, |p| p as u32);
            self.parent_edge[v] = t.parent_edge(v).map_or(NO_EDGE, |e| e as u32);
            self.depth[v] = t.depth(v) as u32;
            self.pre[v] = t.pre(v) as u32;
            self.last[v] = (t.pre(v) + size - 1) as u32;
            self.comp[v] = t.pre(t.component_root(v)) as u32;
        }

        // Kinds and slots: tree edges first, then chords greedily attached
        // to whichever endpoint has fewer subdividers so far.
        for (j, e) in self.edges.iter_mut().enumerate() {
            let (u, v) = (e.u as usize, e.v as usize);
            if self.parent_edge[u] == j as u32 {
                e.kind = EdgeKind::Tree { child: e.u };
            } else if self.parent_edge[v] == j as u32 {
                e.kind = EdgeKind::Tree { child: e.v };
            } else {
                e.kind = EdgeKind::NonTree { attach: 0, slot: 0 };
            }
        }
        let mut counts = vec![0u32; n];
        let mut required = 0u32;
        for e in &mut self.edges {
            if let EdgeKind::NonTree { attach, slot } = &mut e.kind {
                let at = if counts[e.v as usize] < counts[e.u as usize] {
                    e.v
                } else {
                    e.u
                };
                counts[at as usize] += 1;
                required = required.max(counts[at as usize]);
                (*attach, *slot) = (at, counts[at as usize]);
            }
        }
        // Slots live in 1..gap, so `required` of them need gap ≥ required+1.
        assert!(
            required < 64,
            "chord density exceeds the 63-slots-per-vertex budget of gapped numbering"
        );
        while self.gap <= required {
            self.gap *= 2;
        }
        self.slot_used.iter_mut().for_each(|b| *b = 0);
        for e in &self.edges {
            if let EdgeKind::NonTree { attach, slot } = e.kind {
                self.slot_used[attach as usize] |= 1 << slot;
            }
        }

        // Row recompute: per level, XOR each live chord's row into both
        // endpoints' accumulators, fold bottom-up in reverse preorder, and
        // emit each vertex's accumulated sum as its parent edge's record.
        let (two_k, width, words) = (2 * self.k, self.level_width(), self.words_per_edge());
        let encoding = self.encoding;
        let m = self.edges.len();
        self.rows.clear();
        self.rows.resize(m * words, 0);
        let chords: Vec<usize> = (0..m)
            .filter(|&j| matches!(self.edges[j].kind, EdgeKind::NonTree { .. }))
            .collect();
        let mut chord_rows = vec![0u64; chords.len() * two_k];
        let mut max_level = 0;
        for (c, &j) in chords.iter().enumerate() {
            let id = self.chord_code_id(j);
            self.codec
                .fill_edge_row(&mut self.row_scratch, Gf64::new(id));
            for (bits, w) in chord_rows[c * two_k..(c + 1) * two_k]
                .iter_mut()
                .zip(&self.row_scratch)
            {
                *bits = w.to_bits();
            }
            max_level = max_level.max(self.edges[j].level);
            // The chord's own record: its row at every level it inhabits.
            let row = &chord_rows[c * two_k..(c + 1) * two_k];
            for lvl in 0..=self.edges[j].level as usize {
                let at = j * words + lvl * width;
                project_xor(&mut self.rows[at..at + width], row, encoding);
            }
        }
        let mut acc = vec![0u64; n * two_k];
        for lvl in 0..self.levels.min(max_level as usize + 1) {
            if lvl > 0 {
                acc.iter_mut().for_each(|w| *w = 0);
            }
            for (c, &j) in chords.iter().enumerate() {
                if (self.edges[j].level as usize) < lvl {
                    continue;
                }
                let row = &chord_rows[c * two_k..(c + 1) * two_k];
                let e = &self.edges[j];
                for &end in &[e.u as usize, e.v as usize] {
                    for (a, r) in acc[end * two_k..(end + 1) * two_k].iter_mut().zip(row) {
                        *a ^= *r;
                    }
                }
            }
            for &v in self.order.iter().rev() {
                let v = v as usize;
                let p = self.parent[v];
                if p == NO_VERTEX {
                    continue;
                }
                let te = self.parent_edge[v] as usize;
                let at = te * words + lvl * width;
                // Split the borrow: `acc[v]` is read, `rows` is written.
                let (src, dst) = (
                    &acc[v * two_k..(v + 1) * two_k],
                    &mut self.rows[at..at + width],
                );
                project_xor(dst, src, encoding);
                let (head, tail) = if (p as usize) < v {
                    let (h, t) = acc.split_at_mut(v * two_k);
                    (
                        &mut h[p as usize * two_k..(p as usize + 1) * two_k],
                        &t[..two_k],
                    )
                } else {
                    let (h, t) = acc.split_at_mut(p as usize * two_k);
                    (&mut t[..two_k], &h[v * two_k..(v + 1) * two_k])
                };
                for (a, s) in head.iter_mut().zip(tail) {
                    *a ^= *s;
                }
            }
        }
    }

    fn vertex_anc(&self, v: usize) -> AncestryLabel {
        AncestryLabel {
            pre: self.gap * self.pre[v],
            last: self.gap * (self.last[v] + 1) - 1,
            comp: self.gap * self.comp[v],
        }
    }

    /// The ancestry labels (upper, lower) of edge `j`'s record: a tree
    /// edge's parent and child, or a chord's attachment vertex and its
    /// subdivider `x_e` (a leaf at slot `slot` of the attachment's gap).
    fn edge_anc(&self, j: usize) -> (AncestryLabel, AncestryLabel) {
        match self.edges[j].kind {
            EdgeKind::Tree { child } => {
                let c = child as usize;
                (self.vertex_anc(self.parent[c] as usize), self.vertex_anc(c))
            }
            EdgeKind::NonTree { attach, slot } => {
                let a = attach as usize;
                let x = self.gap * self.pre[a] + slot;
                let subdivider = AncestryLabel {
                    pre: x,
                    last: x,
                    comp: self.gap * self.comp[a],
                };
                (self.vertex_anc(a), subdivider)
            }
        }
    }

    /// Commits the current labeling as a sealed v1 archive. O(archive
    /// bytes): the maintained row slab is laid out and checksummed; no
    /// syndrome is recomputed and nothing is re-validated. Each commit
    /// stamps a fresh label tag into the archive header, so labels from
    /// different commits never silently mix in one query session. The
    /// tag lives in that header alone: two commits differ only in it, the
    /// records the updates between them touched, and the index framing.
    pub fn commit(&mut self) -> LabelStore {
        self.update_counter += 1;
        self.stats.commits += 1;
        let header = LabelHeader {
            f: self.f,
            aux_n: self.gap * self.n as u32,
            tag: fnv1a64(&[self.tag_base, self.update_counter]),
        };
        let index = EndpointIndex::from_edges(self.edge_pairs());
        let counts = (self.n, self.m(), index.len());
        let meta = ArchiveMeta::new(header, self.encoding, counts, (self.k, self.levels))
            .expect("archive length fits in memory");
        let words = self.words_per_edge();
        write_v1(
            std::mem::take(&mut self.commit_scratch),
            meta,
            index.iter(),
            |v| self.vertex_anc(v),
            |e| self.edge_anc(e),
            |records| {
                for (e, row) in self.rows.chunks_exact(words).enumerate() {
                    records.put_words(e, row);
                }
            },
        )
    }

    /// Hands a retired archive's allocation back to the scheme; the next
    /// [`commit`](Self::commit) writes into it instead of allocating.
    ///
    /// Multi-megabyte archives live above the allocator's mmap
    /// threshold, so every fresh commit buffer pays soft page faults for
    /// the whole blob — at steady churn rates that tax dominates commit
    /// latency. A double-buffering caller (commit generation `i+1`,
    /// swap it in, recycle generation `i` once drained) keeps the pages
    /// mapped and warm. Recycling is optional and never affects the
    /// committed bytes. Only the last handle of a heap blob gives its
    /// allocation back; a store another handle still shares is just
    /// dropped, never copied. A blob at least as large as the next
    /// archive avoids the allocation entirely.
    pub fn recycle(&mut self, retired: LabelStore) {
        if let Ok(buf) = retired.try_into_vec() {
            if buf.capacity() > self.commit_scratch.capacity() {
                self.commit_scratch = buf;
            }
        }
    }

    /// [`commit`](Self::commit), wrapped as a shareable
    /// [`ConnectivityService`] ready for
    /// [`ServiceRegistry::swap`](ftc_serve::ServiceRegistry::swap).
    pub fn commit_service(&mut self) -> ConnectivityService {
        ConnectivityService::from_store(self.commit())
    }

    /// [`commit`](Self::commit), transcoded into the v2 compressed
    /// container. Entropy coding is not incrementally patchable once the
    /// edge count changes (every level section holds all `m` rows), so
    /// this re-encodes each section from the committed blob.
    pub fn commit_compressed(&mut self) -> CompressedStore {
        compress_archive(&self.commit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_graph::connectivity::ConnectivityOracle;
    use ftc_graph::generators;

    fn mirror(n: usize, scheme: &DynamicScheme) -> Graph {
        let pairs: Vec<(usize, usize)> = scheme.edge_pairs().collect();
        Graph::from_edges(n, &pairs)
    }

    /// Every pair × every ≤2-edge fault set, service vs BFS oracle.
    fn check_all(scheme: &mut DynamicScheme, n: usize) {
        let g = mirror(n, scheme);
        let service = scheme.commit_service();
        let mut oracle = ConnectivityOracle::new(&g);
        let pairs: Vec<(usize, usize)> = scheme.edge_pairs().collect();
        let mut fault_sets: Vec<Vec<(usize, usize)>> = vec![vec![]];
        for (i, &p) in pairs.iter().enumerate() {
            fault_sets.push(vec![p]);
            fault_sets.push(vec![p, pairs[(i * 7 + 3) % pairs.len()]]);
        }
        let queries: Vec<(usize, usize)> = (0..n).map(|s| (s, (s * 5 + 1) % n)).collect();
        for faults in fault_sets {
            let mut dedup = faults.clone();
            dedup.sort_unstable();
            dedup.dedup();
            oracle.prepare_pairs(&dedup);
            let answers = service.query(&dedup, &queries).unwrap();
            for (&(s, t), answer) in queries.iter().zip(&answers) {
                assert_eq!(
                    answer,
                    oracle.connected(s, t),
                    "faults {dedup:?}, pair ({s},{t})"
                );
            }
        }
    }

    #[test]
    fn fresh_build_matches_oracle() {
        let g = generators::random_connected(28, 16, 11);
        let mut scheme = DynamicScheme::new(&g, DynConfig::new(2, 8)).unwrap();
        check_all(&mut scheme, 28);
    }

    #[test]
    fn chord_churn_stays_incremental_and_correct() {
        let g = generators::random_connected(24, 14, 5);
        let mut cfg = DynConfig::new(2, 8);
        cfg.seed = 77;
        let mut scheme = DynamicScheme::new(&g, cfg).unwrap();
        // Insert chords between already-connected vertices, delete some
        // original chords, verifying after each commit.
        let inserts = [(0usize, 7usize), (3, 19), (5, 23), (2, 11), (9, 21)];
        for &(u, v) in &inserts {
            if scheme.has_edge(u, v) {
                continue;
            }
            scheme.insert_edge(u, v).unwrap();
            check_all(&mut scheme, 24);
        }
        let chords: Vec<(usize, usize)> = scheme
            .edge_pairs()
            .filter(|&(u, v)| !scheme_tree_edge(&scheme, u, v))
            .take(3)
            .collect();
        for (u, v) in chords {
            scheme.delete_edge(u, v).unwrap();
            check_all(&mut scheme, 24);
        }
        let stats = scheme.stats();
        assert!(
            stats.incremental_ops > 0,
            "chord churn should be incremental"
        );
        assert_eq!(stats.structural_rebuilds, 0);
    }

    fn scheme_tree_edge(scheme: &DynamicScheme, u: usize, v: usize) -> bool {
        let j = scheme.pair_ids[&norm_pair(u as u32, v as u32)];
        matches!(scheme.edges[j].kind, EdgeKind::Tree { .. })
    }

    #[test]
    fn structural_ops_rebuild_and_stay_correct() {
        let g = generators::random_connected(20, 10, 9);
        let mut scheme = DynamicScheme::new(&g, DynConfig::new(2, 8)).unwrap();
        // Delete a tree edge (structural), then bridge two components.
        let tree_pair = scheme
            .edge_pairs()
            .find(|&(u, v)| scheme_tree_edge(&scheme, u, v))
            .unwrap();
        scheme.delete_edge(tree_pair.0, tree_pair.1).unwrap();
        assert_eq!(scheme.stats().structural_rebuilds, 1);
        check_all(&mut scheme, 20);
        scheme.insert_edge(tree_pair.0, tree_pair.1).unwrap();
        check_all(&mut scheme, 20);
    }

    #[test]
    fn slot_exhaustion_widens_gap() {
        // Densify a small cycle into K8 under the tightest gap (one
        // subdivider slot per vertex): 21 chords across 8 vertices cannot
        // fit, so inserts must trip slot rebuilds that double the gap.
        let n = 8;
        let g = Graph::cycle(n);
        let mut cfg = DynConfig::new(2, 8);
        cfg.gap = 2;
        let mut scheme = DynamicScheme::new(&g, cfg).unwrap();
        for u in 0..n {
            for v in (u + 1)..n {
                if !scheme.has_edge(u, v) {
                    scheme.insert_edge(u, v).unwrap();
                }
            }
        }
        assert_eq!(scheme.m(), n * (n - 1) / 2);
        assert!(scheme.stats().slot_rebuilds >= 1, "{:?}", scheme.stats());
        assert!(scheme.gap > 2, "gap must widen beyond one slot per vertex");
        check_all(&mut scheme, n);
    }

    #[test]
    fn errors_are_typed_and_non_destructive() {
        let g = Graph::cycle(6);
        let mut scheme = DynamicScheme::new(&g, DynConfig::new(2, 4)).unwrap();
        assert_eq!(scheme.insert_edge(0, 0), Err(DynError::SelfLoop(0)));
        assert_eq!(scheme.insert_edge(0, 1), Err(DynError::DuplicateEdge(0, 1)));
        assert_eq!(scheme.insert_edge(0, 9), Err(DynError::VertexOutOfRange(9)));
        assert_eq!(scheme.delete_edge(0, 2), Err(DynError::UnknownEdge(0, 2)));
        assert_eq!(scheme.m(), 6);
        check_all(&mut scheme, 6);
    }

    #[test]
    fn commit_tags_differ_across_generations() {
        let g = Graph::cycle(5);
        let mut scheme = DynamicScheme::new(&g, DynConfig::new(1, 4)).unwrap();
        let a = scheme.commit();
        let b = scheme.commit();
        assert_ne!(a.header().tag, b.header().tag);
    }

    /// The archive header is the one place a generation's identity
    /// lives: two consecutive commits around one chord insert differ
    /// only in the header, the endpoint index (one entry more), the
    /// dirty records — tree edges on the u→lca and v→lca paths, in their
    /// rows at levels `0..=ℓ(e)` — the new record, and the checksum.
    #[test]
    fn consecutive_commits_differ_only_where_the_insert_wrote() {
        let n = 40;
        let g = generators::random_connected(n, 30, 11);
        let mut scheme = DynamicScheme::new(&g, DynConfig::new(2, 8)).unwrap();
        let before = scheme.commit();
        let (u, v) = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .find(|&(u, v)| !scheme.has_edge(u, v))
            .unwrap();
        scheme.insert_edge(u, v).unwrap();
        assert_eq!(scheme.stats().incremental_ops, 1, "the insert is a chord");
        let level = scheme.edges.last().unwrap().level as usize;
        let after = scheme.commit();
        assert_ne!(before.header().tag, after.header().tag);

        // The endpoint index gains exactly the new pair.
        let m = before.m();
        let mut index: Vec<_> = before.endpoint_index().collect();
        index.push((u.min(v), u.max(v), m));
        index.sort_unstable();
        assert!(after.endpoint_index().eq(index));

        // Regions after the index, in each commit.
        fn region(store: &LabelStore) -> (&[u8], Vec<&[u8]>) {
            let bytes = store.as_bytes();
            let vertices_at = 44 + 12 * store.endpoint_index().len();
            let edges_at = vertices_at + 12 * store.n();
            let record_len = (bytes.len() - 8 - edges_at) / store.m();
            let vertices = &bytes[vertices_at..edges_at];
            let records: Vec<&[u8]> = bytes[edges_at..bytes.len() - 8]
                .chunks_exact(record_len)
                .collect();
            (vertices, records)
        }
        let (vertices, old) = region(&before);
        let (vertices_after, new) = region(&after);
        assert_eq!(vertices, vertices_after, "vertex records are untouched");
        assert_eq!(new.len(), m + 1);

        // A record is dirty iff its lower endpoint's subtree holds exactly
        // one of u, v (ancestry intervals over the archive's labels).
        let anc = |rec: &[u8], at: usize| {
            let word = |i: usize| u32::from_le_bytes(rec[at + i..at + i + 4].try_into().unwrap());
            (word(0), word(4))
        };
        let pre = |x: usize| anc(vertices, 12 * x).0;
        let row_bytes = (old[0].len() - 24) / scheme.levels();
        let mut dirty = 0;
        for (e, (a, b)) in old.iter().zip(&new[..m]).enumerate() {
            assert_eq!(a[..24], b[..24], "record {e}: ancestry pair");
            let (lo, hi) = anc(a, 12);
            let below = |x: usize| (lo..=hi).contains(&pre(x));
            let words_at = 24 + row_bytes * (level + 1);
            if below(u) != below(v) {
                dirty += usize::from(a != b);
                assert_eq!(a[words_at..], b[words_at..], "record {e}: rows above ℓ(e)");
            } else {
                assert_eq!(a, b, "record {e} is not on the u–v path");
            }
        }
        assert!(dirty > 0, "the insert rewrote some path record");
    }

    #[test]
    fn committed_archive_revalidates_and_compresses() {
        let g = generators::random_connected(30, 20, 3);
        let mut scheme = DynamicScheme::new(&g, DynConfig::new(2, 8)).unwrap();
        scheme.insert_edge(1, 28).unwrap();
        let store = scheme.commit();
        // A fresh open must accept every byte the commit wrote.
        let view = LabelStore::open(store.as_bytes().to_vec()).unwrap();
        assert_eq!(view.n(), 30);
        assert_eq!(view.m(), 50);
        let z = AnyArchive::V2(scheme.commit_compressed());
        assert_eq!(z.n(), 30);
        assert!(z.as_bytes().len() < store.as_bytes().len());
    }

    /// Committing into a recycled allocation emits exactly the bytes a
    /// fresh-allocation commit of the same state would (modulo nothing —
    /// the tag advances identically), and the recycled blob still passes
    /// a full `open` validation.
    #[test]
    fn recycled_commits_match_fresh_commits() {
        let g = generators::random_connected(30, 20, 3);
        let cfg = DynConfig::new(2, 8);
        let mut recycled = DynamicScheme::new(&g, cfg).unwrap();
        let mut fresh = DynamicScheme::new(&g, cfg).unwrap();
        let first = recycled.commit();
        recycled.recycle(first);
        let _ = fresh.commit();
        for (u, v) in [(1, 28), (0, 17)] {
            recycled.insert_edge(u, v).unwrap();
            fresh.insert_edge(u, v).unwrap();
        }
        let a = recycled.commit();
        let b = fresh.commit();
        assert_eq!(a.as_bytes(), b.as_bytes());
        LabelStore::open(a.into_vec()).unwrap();
    }

    #[test]
    fn from_archive_round_trip() {
        use ftc_core::{FtcScheme, Params};
        let g = generators::random_connected(26, 15, 8);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let blob = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Compact);
        let archive = AnyArchive::open(blob).unwrap();
        let mut dyn_scheme = DynamicScheme::from_archive(&archive, 42).unwrap();
        assert_eq!(dyn_scheme.m(), g.m());
        assert_eq!(dyn_scheme.encoding(), EdgeEncoding::Compact);
        // A v2 archive of the same labeling adopts into the same scheme
        // (same graph, f, k, encoding, seed) without transcoding.
        let AnyArchive::V1(view) = &archive else {
            unreachable!("opened from v1 bytes")
        };
        let v2 = AnyArchive::open(compress_archive(view).into_vec()).unwrap();
        let mut from_v2 = DynamicScheme::from_archive(&v2, 42).unwrap();
        assert_eq!(from_v2.commit().as_bytes(), dyn_scheme.commit().as_bytes());
        let (a, b) = (0..26)
            .flat_map(|u| ((u + 1)..26).map(move |v| (u, v)))
            .find(|&(u, v)| !dyn_scheme.has_edge(u, v))
            .unwrap();
        dyn_scheme.insert_edge(a, b).unwrap();
        check_all(&mut dyn_scheme, 26);
    }

    #[test]
    fn registry_swap_integration() {
        use ftc_serve::ServiceRegistry;
        let g = generators::random_connected(22, 12, 6);
        let mut scheme = DynamicScheme::new(&g, DynConfig::new(2, 8)).unwrap();
        let registry = ServiceRegistry::new();
        let gen0 = registry.swap("dyn", scheme.commit_service());
        scheme.insert_edge(2, 17).unwrap();
        let gen1 = registry.swap("dyn", scheme.commit_service());
        assert!(gen1 > gen0);
        let svc = registry.get("dyn").unwrap();
        assert_eq!(svc.m(), g.m() + 1);
    }
}

//! The f-FTC labeling scheme builder (paper Section 5 wrap-up).
//!
//! [`FtcScheme::builder`] stages the full pipeline:
//!
//! 1. fix a spanning forest `T` of the input graph (BFS rooted at 0 by
//!    default; [`SchemeBuilder::tree`] overrides it);
//! 2. build the auxiliary graph `G′`/`T′` (Section 3.2);
//! 3. build an (S_{f,T′}, k)-good sparsification hierarchy over the
//!    non-tree edges of `G′` (Lemma 5 / Appendix A, per
//!    [`Params::backend`]);
//! 4. build the Reed–Solomon k-threshold outdetect labels of every level
//!    and aggregate them into per-tree-edge subtree sums (Lemma 1) —
//!    the dominant build cost, fanned out across [`SchemeBuilder::threads`]
//!    worker threads (one hierarchy level per work item; the output is
//!    byte-identical regardless of the thread count);
//! 5. attach ancestry labels and emit one label per vertex and per edge.
//!
//! The resulting [`LabelSet`] is self-contained: a
//! [`crate::session::QuerySession`] needs nothing else, and
//! [`crate::store::LabelStore`] archives it as a single blob. The
//! historical constructors [`FtcScheme::build`] /
//! [`FtcScheme::build_with_tree`] remain as thin wrappers over the
//! builder.

use crate::ancestry::AncestryLabel;
use crate::auxgraph::AuxGraph;
use crate::error::BuildError;
use crate::hierarchy::{
    build_hierarchy_with_threads, paper_threshold, rectangle_pieces, Hierarchy, HierarchyBackend,
};
use crate::labels::{
    EdgeLabel, EndpointIndex, LabelHeader, LabelSet, RsVector, SizeReport, VertexLabel,
};
use crate::params::{Params, ThresholdPolicy};
use crate::store::{ArchiveMeta, EdgeEncoding, LabelStore};
use ftc_codes::ThresholdCodec;
use ftc_field::Gf64;
use ftc_graph::{Graph, RootedTree};
use ftc_sketch::sampling_threshold;
use std::sync::Arc;

/// Construction diagnostics (experiments E3/E7 read these).
#[derive(Clone, Debug)]
pub struct BuildDiagnostics {
    /// The outdetect threshold `k` used by every level's codec.
    pub k: usize,
    /// Number of stored hierarchy levels (the trailing empty level is
    /// dropped).
    pub levels: usize,
    /// Per-level edge counts of the hierarchy.
    pub hierarchy_sizes: Vec<usize>,
    /// The largest rectangle-hitting threshold any level needed
    /// (geometric backends; 0 for sampling).
    pub effective_rect_threshold: usize,
    /// The backend that built the hierarchy.
    pub backend: HierarchyBackend,
}

/// A built f-FTC labeling scheme (deterministic or randomized depending on
/// [`Params`]).
///
/// # Example
///
/// ```
/// use ftc_core::{FtcScheme, Params};
/// use ftc_graph::Graph;
///
/// let g = Graph::grid(3, 3);
/// let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
/// let l = scheme.labels();
/// let session = l.session([l.edge_label(0, 1).unwrap()]).unwrap();
/// assert!(session.connected(l.vertex_label(0), l.vertex_label(8)).unwrap());
/// ```
#[derive(Clone, Debug)]
pub struct FtcScheme {
    labels: LabelSet<RsVector>,
    diag: BuildDiagnostics,
    size: SizeReport,
}

/// A staged [`FtcScheme`] construction: `FtcScheme::builder(&g)`
/// `.params(p).tree(t).threads(n).build()`.
///
/// Every stage has a sensible default — `Params::deterministic(1)`, a
/// BFS spanning forest rooted at vertex 0, single-threaded label
/// encoding — so the builder subsumes both historical constructors. The
/// label-encoding stage (one Reed–Solomon outdetect pass per hierarchy
/// level, the dominant build cost) fans out across `threads` workers;
/// the built labels are **byte-identical** for every thread count, so
/// archives written from parallel builds are reproducible.
///
/// # Example
///
/// ```
/// use ftc_core::{FtcScheme, Params};
/// use ftc_graph::Graph;
///
/// let g = Graph::grid(4, 4);
/// let scheme = FtcScheme::builder(&g)
///     .params(&Params::deterministic(2))
///     .threads(0) // 0 = one worker per available core
///     .build()
///     .unwrap();
/// assert_eq!(scheme.labels().n(), 16);
/// ```
#[derive(Clone, Debug)]
pub struct SchemeBuilder<'a> {
    g: &'a Graph,
    params: Params,
    tree: Option<&'a RootedTree>,
    threads: usize,
}

impl<'a> SchemeBuilder<'a> {
    /// Sets the scheme parameters (default: `Params::deterministic(1)`).
    #[must_use]
    pub fn params(mut self, params: &Params) -> SchemeBuilder<'a> {
        self.params = *params;
        self
    }

    /// Supplies a rooted spanning forest (the scheme works with *any*
    /// spanning forest; the CONGEST construction uses a BFS tree).
    /// Default: BFS rooted at vertex 0.
    #[must_use]
    pub fn tree(mut self, tree: &'a RootedTree) -> SchemeBuilder<'a> {
        self.tree = Some(tree);
        self
    }

    /// Number of worker threads for the label-encoding stage. `0` means
    /// one per available core; default is `1` (fully serial).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> SchemeBuilder<'a> {
        self.threads = threads;
        self
    }

    /// Runs the pipeline.
    ///
    /// # Errors
    ///
    /// * [`BuildError::InvalidFaultBudget`] if `params.f == 0`;
    /// * [`BuildError::GraphTooLarge`] if the auxiliary graph exceeds the
    ///   2³¹-vertex encoding limit.
    pub fn build(self) -> Result<FtcScheme, BuildError> {
        let ctx = self.prepare()?;
        let (k, levels) = (ctx.k, ctx.levels);
        let m = ctx.aux.sigma_lower.len();
        let window = 2 * k * levels;

        // One contiguous payload slab for all edge labels: edge `e`
        // occupies `slab[e·window..(e+1)·window]` (levels contiguous
        // within the edge window, topmost last). The workers write every
        // window in place — no per-edge payload allocation, no second
        // copy of the dominant build artifact.
        let mut slab_vec = vec![Gf64::ZERO; m * window];
        ctx.subtree_sums(&SlabSink {
            base: slab_vec.as_mut_ptr(),
            len: slab_vec.len(),
            window,
            width: 2 * k,
        });
        let slab: Arc<[Gf64]> = slab_vec.into();

        let header = ctx.header;
        let mut vertex_labels = vec![
            VertexLabel {
                header,
                anc: Default::default()
            };
            ctx.n
        ];
        crate::par::par_fill(&mut vertex_labels, ctx.threads, |v| VertexLabel {
            header,
            anc: ctx.aux.anc[v],
        });

        let edge_labels = (0..m)
            .map(|e| {
                let (anc_upper, anc_lower) = ctx.edge_anc(e);
                EdgeLabel {
                    header,
                    anc_upper,
                    anc_lower,
                    vec: RsVector::from_slab(k, &slab, e * window, window),
                }
            })
            .collect();

        let diag = ctx.diagnostics(&self.params);
        let labels = LabelSet {
            header,
            vertex_labels,
            edge_labels,
            edge_index: ctx.index,
        };
        let size = labels.size_report(k, levels);
        Ok(FtcScheme { labels, diag, size })
    }

    /// Runs the pipeline **streaming straight into a label archive**: the
    /// worker threads write every edge's syndrome payload directly into
    /// its final position inside the single-blob [`LabelStore`] — no
    /// owned [`LabelSet`] is ever materialized and the labels are never
    /// held twice, so peak memory stays near one copy of the payload.
    /// The blob is byte-identical to `LabelStore::to_vec` of the
    /// equivalent [`SchemeBuilder::build`] output, for every thread
    /// count and both encodings.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SchemeBuilder::build`].
    pub fn build_store(
        self,
        encoding: EdgeEncoding,
    ) -> Result<(LabelStore, BuildDiagnostics), BuildError> {
        let ctx = self.prepare()?;
        let store = crate::store::stream_from_build(&ctx, encoding);
        Ok((store, ctx.diagnostics(&self.params)))
    }

    /// Like [`SchemeBuilder::build_store`], but streaming into the **v2
    /// compressed container** ([`crate::compressed`]): each level's rows
    /// are staged, run through the transform + entropy pipeline as soon
    /// as the level completes, and freed — peak memory is the archive
    /// plus O(threads) level buffers, never the uncompressed blob.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SchemeBuilder::build`].
    pub fn build_store_compressed(
        self,
        encoding: EdgeEncoding,
    ) -> Result<(crate::compressed::CompressedStore, BuildDiagnostics), BuildError> {
        let ctx = self.prepare()?;
        let store = crate::compressed::stream_compressed_from_build(&ctx, encoding);
        Ok((store, ctx.diagnostics(&self.params)))
    }

    /// The shared prefix of every build: the spanning forest (BFS rooted
    /// at vertex 0 unless one was supplied), the worker count, the
    /// auxiliary graph, the hierarchy and the codec threshold —
    /// everything up to (but not including) the syndrome payload.
    fn prepare(&self) -> Result<BuildCtx, BuildError> {
        let (g, params) = (self.g, &self.params);
        if params.f == 0 {
            return Err(BuildError::InvalidFaultBudget);
        }
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            t => t,
        };
        // `RootedTree::bfs` handles the empty graph, so no special case.
        let bfs;
        let tree = match self.tree {
            Some(tree) => tree,
            None => {
                bfs = RootedTree::bfs(g, 0);
                &bfs
            }
        };
        let aux = AuxGraph::build_with_threads(g, tree, threads);
        if aux.aux_n >= (1usize << 31) {
            return Err(BuildError::GraphTooLarge {
                aux_vertices: aux.aux_n,
            });
        }
        let pieces = rectangle_pieces(params.f);
        // The hierarchy is always built at the paper's rectangle-hitting
        // threshold: it is universal (independent of f and k) and keeps the
        // depth logarithmic. A calibrated `Fixed(k)` only truncates the
        // *codec* threshold; decodes are verified, so an under-calibration
        // surfaces as `OutdetectFailed`, never as a wrong answer.
        let base_t = match params.backend {
            HierarchyBackend::Sampling { .. } => 0,
            _ => paper_threshold(aux.nontree.len()),
        };
        let hierarchy = build_hierarchy_with_threads(&aux, params.backend, base_t, threads);
        let k = match params.threshold {
            ThresholdPolicy::Fixed(k) => k.max(1),
            ThresholdPolicy::Theory => match params.backend {
                HierarchyBackend::Sampling { .. } => sampling_threshold(params.f, aux.aux_n).max(1),
                _ => (pieces * hierarchy.max_threshold).max(1),
            },
        };
        let levels = hierarchy.depth().saturating_sub(1); // drop trailing empty level
        let header = LabelHeader {
            f: params.f as u32,
            aux_n: aux.aux_n as u32,
            tag: labeling_tag(g, params, k),
        };
        Ok(BuildCtx {
            aux,
            hierarchy,
            k,
            levels,
            header,
            n: g.n(),
            index: EndpointIndex::from_edges(g.edge_iter().map(|(_, u, v)| (u, v))),
            threads,
        })
    }
}

impl FtcScheme {
    /// Starts a staged construction with default parameters; see
    /// [`SchemeBuilder`].
    pub fn builder(g: &Graph) -> SchemeBuilder<'_> {
        SchemeBuilder {
            g,
            params: Params::deterministic(1),
            tree: None,
            threads: 1,
        }
    }

    /// Builds the labeling for `g` with a BFS spanning forest rooted at
    /// vertex 0 — a thin wrapper over [`FtcScheme::builder`].
    ///
    /// # Errors
    ///
    /// * [`BuildError::InvalidFaultBudget`] if `params.f == 0`;
    /// * [`BuildError::GraphTooLarge`] if the auxiliary graph exceeds the
    ///   2³¹-vertex encoding limit.
    pub fn build(g: &Graph, params: &Params) -> Result<FtcScheme, BuildError> {
        Self::builder(g).params(params).build()
    }

    /// Builds the labeling over a caller-supplied rooted spanning forest
    /// — a thin wrapper over [`FtcScheme::builder`].
    ///
    /// # Errors
    ///
    /// See [`FtcScheme::build`].
    pub fn build_with_tree(
        g: &Graph,
        tree: &RootedTree,
        params: &Params,
    ) -> Result<FtcScheme, BuildError> {
        Self::builder(g).params(params).tree(tree).build()
    }

    /// The labels (the only artifact a decoder needs).
    pub fn labels(&self) -> &LabelSet<RsVector> {
        &self.labels
    }

    /// Consumes the scheme, returning the labels.
    pub fn into_labels(self) -> LabelSet<RsVector> {
        self.labels
    }

    /// Construction diagnostics.
    pub fn diagnostics(&self) -> &BuildDiagnostics {
        &self.diag
    }

    /// Label-size accounting (Table 1, "label size" column).
    pub fn size_report(&self) -> SizeReport {
        self.size
    }
}

/// What [`SchemeBuilder`]'s prepare step hands every build: the
/// auxiliary graph, hierarchy and codec geometry, the labeling header,
/// the endpoint index and the worker count — everything but the
/// syndrome payload, which each build writes into its own target.
pub(crate) struct BuildCtx {
    pub(crate) aux: AuxGraph,
    pub(crate) hierarchy: Hierarchy,
    pub(crate) k: usize,
    pub(crate) levels: usize,
    pub(crate) header: LabelHeader,
    /// Vertex count of the input graph.
    pub(crate) n: usize,
    pub(crate) index: EndpointIndex,
    pub(crate) threads: usize,
}

impl BuildCtx {
    fn diagnostics(&self, params: &Params) -> BuildDiagnostics {
        BuildDiagnostics {
            k: self.k,
            levels: self.levels,
            hierarchy_sizes: self.hierarchy.level_sizes(),
            effective_rect_threshold: self.hierarchy.max_threshold,
            backend: params.backend,
        }
    }

    /// The layout of this labeling's archive under `encoding`.
    pub(crate) fn archive_meta(&self, encoding: EdgeEncoding) -> ArchiveMeta {
        let counts = (self.n, self.aux.sigma_lower.len(), self.index.len());
        ArchiveMeta::new(self.header, encoding, counts, (self.k, self.levels))
            .expect("archive length fits in memory")
    }

    /// The ancestry labels (upper, lower) of edge `e`'s tree edge `σ(e)`.
    pub(crate) fn edge_anc(&self, e: usize) -> (AncestryLabel, AncestryLabel) {
        let lower = self.aux.sigma_lower[e];
        let upper = self
            .aux
            .tree
            .parent(lower)
            .expect("σ(e) lower has a parent");
        (self.aux.anc[upper], self.aux.anc[lower])
    }

    /// Runs the subtree-sums stage into `sink` on the prepared workers.
    pub(crate) fn subtree_sums(&self, sink: &impl LevelSink) {
        build_subtree_sums(
            &self.aux,
            &self.hierarchy,
            self.k,
            self.levels,
            self.threads,
            sink,
        );
    }
}

/// Write target of the subtree-sums stage: receives every edge's
/// full-width (`2k`-element) syndrome row for every level, exactly once
/// per `(edge, level)` pair.
///
/// Implementations write each row into its final resting place — a
/// payload slab ([`SlabSink`]) or directly into the serialized archive
/// blob ([`crate::store::ArchivePayloadSink`]) — through a raw base
/// pointer, because a worker's levels hit byte ranges *strided* across
/// all edge windows (disjoint between workers, but not contiguous, so
/// `split_at_mut` cannot express the partition).
///
/// # Safety contract
///
/// `write_row` is called concurrently from the scoped worker threads of
/// [`build_subtree_sums`], which partitions the level range so that no
/// two calls ever target the same `(edge, level)` window; implementations
/// must only write inside that window and may not read other windows.
pub(crate) trait LevelSink: Sync {
    fn write_row(&self, e: usize, level: usize, row: &[Gf64]);

    /// Called by the worker that owns `level` once every edge's row for
    /// that level has been written — the hook a compressing sink uses to
    /// encode and release the level's staging buffer while other levels
    /// are still in flight. Called at most once per level, never
    /// concurrently with `write_row` for the same level.
    fn finish_level(&self, _level: usize) {}
}

/// [`LevelSink`] over the contiguous payload slab backing an owned
/// [`LabelSet`]: edge `e`'s window starts at `e · window`, level rows
/// within it are consecutive.
struct SlabSink {
    base: *mut Gf64,
    len: usize,
    /// Words per edge window (`2k · levels`).
    window: usize,
    /// Words per level row (`2k`).
    width: usize,
}

// SAFETY: see the `LevelSink` contract — workers write disjoint
// `(edge, level)` windows, never overlapping, never read.
unsafe impl Sync for SlabSink {}

impl LevelSink for SlabSink {
    fn write_row(&self, e: usize, level: usize, row: &[Gf64]) {
        debug_assert_eq!(row.len(), self.width);
        let at = e * self.window + level * self.width;
        debug_assert!(at + self.width <= self.len);
        // SAFETY: `at..at + width` lies inside the allocation (asserted
        // above in debug; guaranteed by construction — `e < m`,
        // `level < levels`, `len = m · window`), and no other worker
        // touches this window.
        unsafe {
            std::ptr::copy_nonoverlapping(row.as_ptr(), self.base.add(at), self.width);
        }
    }
}

/// Computes, for every original edge `e`, the flattened per-level syndrome
/// of `L^out(V_{T′(σ(e))})` — the XOR over the subtree below `σ(e)` of the
/// per-vertex outdetect labels (Lemma 1's edge labels, via one bottom-up
/// aggregation per level) — writing every row straight into `sink`.
///
/// Levels are mutually independent, so with `threads > 1` they are
/// block-partitioned across that many scoped workers, each writing its
/// levels' rows directly into their final windows. Per worker the stage
/// allocates exactly two reusable buffers (the per-vertex accumulator
/// and one parity row), so the whole payload stage performs O(threads)
/// allocations regardless of the edge count. Each level's content is a
/// pure function of `(aux, level edges, k)` and every `(edge, level)`
/// window is disjoint, so the result is identical — byte for byte once
/// serialized — for every thread count.
fn build_subtree_sums(
    aux: &AuxGraph,
    hierarchy: &Hierarchy,
    k: usize,
    levels: usize,
    threads: usize,
    sink: &impl LevelSink,
) {
    let width = 2 * k;
    let m = aux.sigma_lower.len();
    if levels == 0 || m == 0 {
        return;
    }
    let run_levels = |lo: usize, hi: usize| {
        let codec = ThresholdCodec::new(k);
        // Scratch, reused across this worker's levels: per-auxiliary-vertex
        // syndromes plus one parity row.
        let mut acc = vec![Gf64::ZERO; aux.aux_n * width];
        let mut row = vec![Gf64::ZERO; width];
        for level in lo..hi {
            if level > lo {
                acc.fill(Gf64::ZERO);
            }
            // Per-vertex own contributions: each level edge toggles both
            // endpoints. The parity row is computed once per edge and
            // XORed into both (halving the field-multiplication work of
            // the historical per-endpoint accumulation).
            for &j in &hierarchy.levels[level] {
                let (a, b) = aux.nontree[j];
                codec.fill_edge_row(&mut row, Gf64::new(aux.nontree_code_id(j)));
                for (d, &r) in acc[a * width..(a + 1) * width].iter_mut().zip(&row) {
                    *d += r;
                }
                for (d, &r) in acc[b * width..(b + 1) * width].iter_mut().zip(&row) {
                    *d += r;
                }
            }
            // Bottom-up aggregation: children fold into parents in reverse
            // pre-order (`row` doubles as the child buffer here; the
            // accumulate pass above is done with it).
            for &v in aux.tree.pre_order().iter().rev() {
                if let Some(p) = aux.tree.parent(v) {
                    row.copy_from_slice(&acc[v * width..(v + 1) * width]);
                    let dst = &mut acc[p * width..(p + 1) * width];
                    for (d, c) in dst.iter_mut().zip(&row) {
                        *d += *c;
                    }
                }
            }
            // Emit each edge's row straight into its final window.
            for (e, &lower) in aux.sigma_lower.iter().enumerate() {
                sink.write_row(e, level, &acc[lower * width..(lower + 1) * width]);
            }
            sink.finish_level(level);
        }
    };
    let workers = threads.clamp(1, levels);
    if workers == 1 {
        run_levels(0, levels);
    } else {
        // Static block partition of the level range across workers.
        std::thread::scope(|scope| {
            let run_levels = &run_levels;
            for w in 0..workers {
                let lo = levels * w / workers;
                let hi = levels * (w + 1) / workers;
                scope.spawn(move || run_levels(lo, hi));
            }
        });
    }
}

/// FNV-1a fingerprint of the labeled instance, embedded in every label so
/// the decoder can reject mixed labelings.
fn labeling_tag(g: &Graph, params: &Params, k: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    eat(g.n() as u64);
    eat(g.m() as u64);
    for (_, u, v) in g.edge_iter() {
        eat((u as u64) << 32 | v as u64);
    }
    eat(params.f as u64);
    eat(k as u64);
    eat(match params.backend {
        HierarchyBackend::EpsNet => 1,
        HierarchyBackend::GreedyRect => 2,
        HierarchyBackend::Sampling { seed } => 0x8000_0000_0000_0000 | seed,
    });
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::QueryError;
    use ftc_graph::connectivity::connected_avoiding;

    /// Exhaustively checks every (s, t, F) query with |F| ≤ f against the
    /// BFS oracle.
    fn exhaustive_check(g: &Graph, params: &Params) {
        let scheme = FtcScheme::build(g, params).unwrap();
        let l = scheme.labels();
        let m = g.m();
        let fault_sets: Vec<Vec<usize>> = match params.f {
            1 => (0..m).map(|e| vec![e]).chain([vec![]]).collect(),
            2 => {
                let mut fs: Vec<Vec<usize>> = vec![vec![]];
                fs.extend((0..m).map(|e| vec![e]));
                for a in 0..m {
                    for b in (a + 1)..m {
                        fs.push(vec![a, b]);
                    }
                }
                fs
            }
            _ => panic!("test helper supports f <= 2"),
        };
        for fset in &fault_sets {
            let session = l
                .session(fset.iter().map(|&e| l.edge_label_by_id(e)))
                .unwrap_or_else(|e| panic!("session for {fset:?} failed: {e}"));
            for s in 0..g.n() {
                for t in 0..g.n() {
                    let got = session
                        .connected(l.vertex_label(s), l.vertex_label(t))
                        .unwrap_or_else(|e| panic!("query ({s},{t},{fset:?}) failed: {e}"));
                    let want = connected_avoiding(g, s, t, fset);
                    assert_eq!(
                        got, want,
                        "({s},{t},F={fset:?}) backend {:?}",
                        params.backend
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_exhaustive_all_backends() {
        let g = Graph::cycle(6);
        exhaustive_check(&g, &Params::deterministic(2));
        exhaustive_check(&g, &Params::deterministic_poly(2));
        exhaustive_check(&g, &Params::randomized(2, 11));
    }

    #[test]
    fn dense_small_graph_exhaustive() {
        let g = Graph::complete(5);
        exhaustive_check(&g, &Params::deterministic(2));
    }

    #[test]
    fn bridge_graph_exhaustive() {
        let g = Graph::barbell(3);
        exhaustive_check(&g, &Params::deterministic(2));
        exhaustive_check(&g, &Params::randomized(2, 5));
    }

    #[test]
    fn disconnected_graph_exhaustive() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        exhaustive_check(&g, &Params::deterministic(1));
    }

    #[test]
    fn tree_only_graph() {
        let g = Graph::path(7);
        exhaustive_check(&g, &Params::deterministic(2));
    }

    #[test]
    fn single_vertex_and_empty() {
        let g = Graph::new(1);
        let scheme = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let l = scheme.labels();
        let session = l.session([] as [&EdgeLabel<RsVector>; 0]).unwrap();
        assert_eq!(
            session.connected(l.vertex_label(0), l.vertex_label(0)),
            Ok(true)
        );
        let g0 = Graph::new(0);
        assert!(FtcScheme::build(&g0, &Params::deterministic(1)).is_ok());
    }

    #[test]
    fn zero_fault_budget_rejected() {
        let g = Graph::cycle(3);
        assert_eq!(
            FtcScheme::build(&g, &Params::deterministic(0)).unwrap_err(),
            BuildError::InvalidFaultBudget
        );
    }

    #[test]
    fn calibrated_threshold_mode_works_or_fails_cleanly() {
        let g = ftc_graph::generators::random_connected(24, 30, 3);
        let params = Params::deterministic(2).with_threshold(ThresholdPolicy::Fixed(16));
        let scheme = FtcScheme::build(&g, &params).unwrap();
        let l = scheme.labels();
        let mut failures = 0usize;
        let mut wrong = 0usize;
        // Strided sample of the query space (the exhaustive sweep lives in
        // the integration tests; this keeps the unit test fast).
        for a in (0..g.m()).step_by(3) {
            for b in ((a + 1)..g.m()).step_by(2) {
                let queries = (g.n() / 2 + g.n() % 2) * g.n();
                match l.session([l.edge_label_by_id(a), l.edge_label_by_id(b)]) {
                    Err(QueryError::OutdetectFailed) => failures += queries,
                    Err(e) => panic!("unexpected error {e}"),
                    Ok(session) => {
                        for s in (0..g.n()).step_by(2) {
                            for t in (s + 1)..g.n() {
                                let got = session
                                    .connected(l.vertex_label(s), l.vertex_label(t))
                                    .expect("headers match");
                                if got != connected_avoiding(&g, s, t, &[a, b]) {
                                    wrong += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(wrong, 0, "calibrated mode must fail cleanly, never lie");
        // k=16 is generous for this instance; expect few or no failures.
        let total = g.m() / 3 * (g.m() / 2) * g.n() / 2 * g.n();
        assert!(
            failures * 20 < total.max(1),
            "failure rate too high: {failures}/{total}"
        );
    }

    #[test]
    fn diagnostics_and_size_report() {
        let g = ftc_graph::generators::random_connected(30, 40, 1);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let d = scheme.diagnostics();
        assert!(d.k >= 1);
        assert_eq!(d.hierarchy_sizes[0], 40); // the requested 40 chords
        let size = scheme.size_report();
        assert_eq!(size.n, 30);
        assert_eq!(size.m, 29 + 40);
        assert!(size.edge_bits > size.vertex_bits);
        assert_eq!(size.k, d.k);
    }

    #[test]
    fn builder_thread_counts_agree_byte_for_byte() {
        let g = ftc_graph::generators::random_connected(28, 40, 7);
        let p = Params::deterministic(2);
        let serial = FtcScheme::builder(&g).params(&p).build().unwrap();
        for threads in [2usize, 3, 8, 0] {
            let par = FtcScheme::builder(&g)
                .params(&p)
                .threads(threads)
                .build()
                .unwrap();
            assert_eq!(serial.labels().vertex_labels, par.labels().vertex_labels);
            assert_eq!(serial.labels().edge_labels, par.labels().edge_labels);
            // Identical labels serialize to identical archives.
            assert_eq!(
                crate::store::LabelStore::to_vec(serial.labels(), crate::store::EdgeEncoding::Full),
                crate::store::LabelStore::to_vec(par.labels(), crate::store::EdgeEncoding::Full),
            );
        }
    }

    #[test]
    fn builder_defaults_match_legacy_constructor() {
        let g = Graph::cycle(9);
        let via_builder = FtcScheme::builder(&g).build().unwrap();
        let via_build = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        assert_eq!(
            via_builder.labels().edge_labels,
            via_build.labels().edge_labels
        );
    }

    #[test]
    fn labels_are_deterministic_for_deterministic_backends() {
        let g = ftc_graph::generators::random_connected(20, 25, 9);
        let a = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let b = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        assert_eq!(a.labels().vertex_labels, b.labels().vertex_labels);
        assert_eq!(a.labels().edge_labels, b.labels().edge_labels);
    }

    #[test]
    fn tags_differ_across_graphs_and_params() {
        let g1 = Graph::cycle(5);
        let g2 = Graph::cycle(6);
        let s1 = FtcScheme::build(&g1, &Params::deterministic(1)).unwrap();
        let s2 = FtcScheme::build(&g2, &Params::deterministic(1)).unwrap();
        let s3 = FtcScheme::build(&g1, &Params::deterministic(2)).unwrap();
        assert_ne!(s1.labels().header().tag, s2.labels().header().tag);
        assert_ne!(s1.labels().header().tag, s3.labels().header().tag);
        // Mixing labels across labelings is rejected.
        let session = s1
            .labels()
            .session([] as [&EdgeLabel<RsVector>; 0])
            .unwrap();
        let r = session.connected(s1.labels().vertex_label(0), s2.labels().vertex_label(1));
        assert_eq!(r, Err(QueryError::MismatchedLabels));
    }
}

//! The auxiliary-graph transformation (paper Section 3.2, Figure 1).
//!
//! Every non-tree edge `e = (u, v)` of the input graph is subdivided by a
//! fresh vertex `x_e` into a *tree* half `(u, x_e)` — which joins the
//! spanning tree `T′` under the original edge's name via the mapping `σ` —
//! and a *non-tree* half `(x_e, v)`. After the transformation **all**
//! original edges are tree edges of `T′`, so the tree-edge-faults-only
//! scheme (Lemma 1) covers arbitrary fault sets (Proposition 1), and the
//! non-tree remainder `G′ − E_{T′}` is exactly the set of second halves.

use crate::ancestry::{ancestry_labels, AncestryLabel};
use ftc_field::Subspace;
use ftc_graph::{EdgeId, EulerTour, Graph, RootedTree, VertexId};
use std::sync::OnceLock;

/// The auxiliary graph `G′` with its spanning forest `T′`, Euler tour, and
/// the `σ`-mapping data the labeling scheme needs.
#[derive(Debug)]
pub struct AuxGraph {
    /// Number of original vertices (`0..orig_n` keep their IDs in `G′`).
    pub orig_n: usize,
    /// Total number of auxiliary vertices (`orig_n +` one per non-tree
    /// edge).
    pub aux_n: usize,
    /// The tree part of `G′` as a graph (exactly the edges of `T′`).
    pub tree_graph: Graph,
    /// `T′` as a rooted forest over `tree_graph`.
    pub tree: RootedTree,
    /// Euler-tour coordinates of `T′` (Duan–Pettie embedding).
    pub tour: EulerTour,
    /// Ancestry labels of all auxiliary vertices.
    pub anc: Vec<AncestryLabel>,
    /// For each original edge `e`: the *lower* endpoint of `σ(e)` in `T′`
    /// (every non-root vertex corresponds uniquely to its parent edge).
    pub sigma_lower: Vec<VertexId>,
    /// The non-tree edges of `G′` (the second halves), as auxiliary-vertex
    /// endpoint pairs `(x_e, v)`.
    pub nontree: Vec<(VertexId, VertexId)>,
    /// For each entry of `nontree`: the original edge it came from.
    pub nontree_orig: Vec<EdgeId>,
}

impl AuxGraph {
    /// Builds the auxiliary graph for `g` with spanning forest `t`
    /// (typically `RootedTree::bfs(&g, 0)`).
    ///
    /// # Panics
    ///
    /// Panics if `t` was not built over `g` (endpoint mismatches).
    pub fn build(g: &Graph, t: &RootedTree) -> AuxGraph {
        Self::build_with_threads(g, t, 1)
    }

    /// [`AuxGraph::build`] with the precomputation stages fanned out
    /// across up to `threads` workers: the Euler tour runs concurrently
    /// with the ancestry labels (independent derivations of `T′`), and
    /// both the per-vertex ancestry labels and the per-edge `σ`-lower
    /// endpoints are chunked index fills. Every stage is a pure function
    /// of `T′`, so the result is identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `t` was not built over `g` (endpoint mismatches).
    pub fn build_with_threads(g: &Graph, t: &RootedTree, threads: usize) -> AuxGraph {
        let orig_n = g.n();
        let non_tree: Vec<EdgeId> = t.non_tree_edges().collect();
        let aux_n = orig_n + non_tree.len();

        let mut tree_graph = Graph::new(aux_n);
        // Original tree edges first (their tree_graph IDs are positional).
        let mut orig_tree_edge: Vec<Option<EdgeId>> = vec![None; g.m()];
        for e in t.tree_edges() {
            let (u, v) = g.endpoints(e);
            orig_tree_edge[e] = Some(tree_graph.add_edge(u, v));
        }
        // Subdivision tree halves: (u, x_e) for each non-tree e = (u, v).
        let mut nontree = Vec::with_capacity(non_tree.len());
        let mut nontree_orig = Vec::with_capacity(non_tree.len());
        for (j, &e) in non_tree.iter().enumerate() {
            let (u, v) = g.endpoints(e);
            let x = orig_n + j;
            orig_tree_edge[e] = Some(tree_graph.add_edge(u, x));
            nontree.push((x, v));
            nontree_orig.push(e);
        }

        // T′: BFS over the forest reproduces it (a forest has a unique
        // spanning forest); root at vertex 0 when present.
        let tree = RootedTree::bfs(&tree_graph, 0);
        debug_assert_eq!(tree.tree_edges().count(), tree_graph.m());
        // The Euler tour and the ancestry labels are independent
        // derivations of T′ — overlap them when a worker is to spare.
        let (tour, anc) = if threads > 1 {
            std::thread::scope(|scope| {
                let tour = scope.spawn(|| EulerTour::new(&tree_graph, &tree));
                let anc = crate::ancestry::ancestry_labels_with_threads(&tree, threads - 1);
                (tour.join().expect("euler tour worker"), anc)
            })
        } else {
            (EulerTour::new(&tree_graph, &tree), ancestry_labels(&tree))
        };

        // σ(e)'s lower endpoint: the endpoint of the tree_graph edge whose
        // parent edge it is.
        let mut sigma_lower = vec![usize::MAX; g.m()];
        crate::par::par_fill(&mut sigma_lower, threads, |e| {
            let te = orig_tree_edge[e].expect("every original edge maps into T′");
            let (_, lower) = tree.orient_tree_edge(&tree_graph, te);
            lower
        });

        AuxGraph {
            orig_n,
            aux_n,
            tree_graph,
            tree,
            tour,
            anc,
            sigma_lower,
            nontree,
            nontree_orig,
        }
    }

    /// The packed 64-bit outdetect edge ID of non-tree edge `j` (an index
    /// into [`AuxGraph::nontree`]): `(pre(a)+1) << 32 | (pre(b)+1)` with
    /// `pre(a) < pre(b)`. Always nonzero; decodes back to the endpoints'
    /// pre-orders.
    pub fn nontree_code_id(&self, j: usize) -> u64 {
        let (a, b) = self.nontree[j];
        let (pa, pb) = (self.anc[a].pre as u64 + 1, self.anc[b].pre as u64 + 1);
        let (lo, hi) = if pa < pb { (pa, pb) } else { (pb, pa) };
        (lo << 32) | hi
    }

    /// Unpacks an outdetect edge ID into the two (0-based) pre-orders of
    /// its endpoints. Returns `None` for malformed IDs (out-of-range or
    /// zero components) — the sanity check that guards calibrated-threshold
    /// decoding.
    pub fn unpack_code_id(id: u64, aux_n: usize) -> Option<(u32, u32)> {
        let lo = id >> 32;
        let hi = id & 0xffff_ffff;
        if lo == 0 || hi == 0 || lo >= hi {
            return None;
        }
        if hi as usize > aux_n {
            return None;
        }
        Some(((lo - 1) as u32, (hi - 1) as u32))
    }

    /// The GF(2)-subspace every code ID of an auxiliary graph with `aux_n`
    /// vertices lies in: both halves are at most `aux_n`, so only their
    /// low `b` bits can be set, for `b` the bit length of `aux_n`. The
    /// root finder searches only this span (dimension `2b`). Each
    /// subspace's tables are built once per process, on first use;
    /// `aux_n = u32::MAX` gives the whole field.
    pub fn code_space(aux_n: u32) -> &'static Subspace {
        static SPACES: [OnceLock<Subspace>; 32] = [const { OnceLock::new() }; 32];
        let b = (u32::BITS - aux_n.leading_zeros()) as usize;
        match SPACES.get(b) {
            Some(space) => space.get_or_init(|| {
                let half = (1u64 << b) - 1;
                Subspace::from_mask(half << 32 | half)
            }),
            None => Subspace::full(),
        }
    }

    /// The Euler-embedding point of non-tree edge `j`, for the
    /// sparsification hierarchy.
    pub fn nontree_point(&self, j: usize) -> (usize, usize) {
        let (a, b) = self.nontree[j];
        let (ca, cb) = (self.tour.coord(a), self.tour.coord(b));
        if ca < cb {
            (ca, cb)
        } else {
            (cb, ca)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_like_graph() -> Graph {
        // A connected graph with several non-tree edges, in the spirit of
        // the paper's Figure 1.
        Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (0, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (3, 7), // chord
                (1, 4), // chord
                (2, 6), // chord
            ],
        )
    }

    #[test]
    fn construction_shapes() {
        let g = figure1_like_graph();
        let t = RootedTree::bfs(&g, 0);
        let aux = AuxGraph::build(&g, &t);
        let chords = g.m() - (g.n() - 1);
        assert_eq!(aux.aux_n, g.n() + chords);
        assert_eq!(aux.nontree.len(), chords);
        assert_eq!(aux.tree_graph.m(), g.m()); // every original edge is a T′ edge
        assert_eq!(aux.tree.tree_edges().count(), g.m());
    }

    #[test]
    fn sigma_maps_every_edge_to_a_tree_edge() {
        let g = figure1_like_graph();
        let t = RootedTree::bfs(&g, 0);
        let aux = AuxGraph::build(&g, &t);
        for e in 0..g.m() {
            let lower = aux.sigma_lower[e];
            assert!(lower < aux.aux_n);
            assert!(
                aux.tree.parent(lower).is_some(),
                "σ(e) lower endpoint has a parent"
            );
        }
        // Non-tree edges' σ lower endpoints are the subdividers.
        for (j, &e) in aux.nontree_orig.iter().enumerate() {
            assert_eq!(aux.sigma_lower[e], g.n() + j);
        }
    }

    #[test]
    fn connectivity_is_preserved() {
        // s–t connected in G − F iff connected in G′ − σ(F): spot-check by
        // simulating the subdivided graph.
        let g = figure1_like_graph();
        let t = RootedTree::bfs(&g, 0);
        let aux = AuxGraph::build(&g, &t);
        // Build the full G′ for reference.
        let mut gp = aux.tree_graph.clone();
        for &(a, b) in &aux.nontree {
            gp.add_edge(a, b);
        }
        assert!(gp.is_connected());
        for e in 0..g.m() {
            // Remove σ(e) from G′ (the tree edge at sigma_lower[e]).
            let lower = aux.sigma_lower[e];
            let te = aux.tree.parent_edge(lower).unwrap();
            for s in 0..g.n() {
                for tt in 0..g.n() {
                    let orig = ftc_graph::connectivity::connected_avoiding(&g, s, tt, &[e]);
                    let mut banned = vec![false; gp.m()];
                    banned[te] = true;
                    let auxc = gp.bfs_distances(s, |x| banned[x])[tt].is_some();
                    assert_eq!(orig, auxc, "edge {e}, pair ({s},{tt})");
                }
            }
        }
    }

    #[test]
    fn code_ids_lie_in_the_code_space() {
        let g = figure1_like_graph();
        let t = RootedTree::bfs(&g, 0);
        let aux = AuxGraph::build(&g, &t);
        let space = AuxGraph::code_space(aux.aux_n as u32);
        assert_eq!(
            space.dim(),
            2 * (usize::BITS - aux.aux_n.leading_zeros()) as usize
        );
        for j in 0..aux.nontree.len() {
            assert!(space.contains(ftc_field::Gf64::new(aux.nontree_code_id(j))));
        }
        assert!(std::ptr::eq(
            AuxGraph::code_space(u32::MAX),
            Subspace::full()
        ));
        assert_eq!(AuxGraph::code_space(0).dim(), 0);
        assert_eq!(AuxGraph::code_space(8000).mask(), 0x1fff_0000_1fff);
    }

    #[test]
    fn code_ids_round_trip_and_are_unique() {
        let g = figure1_like_graph();
        let t = RootedTree::bfs(&g, 0);
        let aux = AuxGraph::build(&g, &t);
        let mut seen = std::collections::HashSet::new();
        for j in 0..aux.nontree.len() {
            let id = aux.nontree_code_id(j);
            assert!(id != 0);
            assert!(seen.insert(id), "duplicate edge ID");
            let (pa, pb) = AuxGraph::unpack_code_id(id, aux.aux_n).unwrap();
            let (a, b) = aux.nontree[j];
            let mut want = [aux.anc[a].pre, aux.anc[b].pre];
            want.sort_unstable();
            assert_eq!([pa, pb], want);
        }
    }

    #[test]
    fn malformed_ids_rejected() {
        assert_eq!(AuxGraph::unpack_code_id(0, 10), None);
        assert_eq!(AuxGraph::unpack_code_id(1 << 32, 10), None); // hi = 0
        assert_eq!(AuxGraph::unpack_code_id((1 << 32) | 1, 10), None); // lo == hi
        assert_eq!(AuxGraph::unpack_code_id((1 << 32) | 11, 10), None); // out of range
        assert!(AuxGraph::unpack_code_id((1 << 32) | 2, 10).is_some());
    }

    #[test]
    fn disconnected_input_handled() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]);
        let t = RootedTree::bfs(&g, 0);
        let aux = AuxGraph::build(&g, &t);
        assert_eq!(aux.nontree.len(), 1); // only the triangle has a chord
        assert_eq!(aux.aux_n, 7);
        assert!(!aux.anc[0].same_component(&aux.anc[3]));
    }
}

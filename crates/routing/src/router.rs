//! Forbidden-set routing (Corollary 2, instantiated via connectivity
//! certificates).
//!
//! The router preprocesses the graph into the f-FTC labeling plus
//! tree-routing tables. A route request `(s, t, F)` runs the labeling
//! decoder to obtain a *certificate* — the sequence of auxiliary non-tree
//! edges that merged the fragments of `T′ − σ(F)` until `s` and `t` met —
//! and expands it into an explicit fault-avoiding path: tree paths inside
//! fragments (which cannot touch `F`), certificate edges between them,
//! subdivision vertices contracted back to original edges.

use ftc_core::auxgraph::AuxGraph;
use ftc_core::compressed::AnyArchive;
use ftc_core::store::EdgeEncoding;
use ftc_core::{BuildError, FtcScheme, Params, QueryError, SerialError, SizeReport};
use ftc_graph::{EdgeId, Graph, RootedTree, VertexId};
use ftc_serve::{ConnectivityService, PooledSession, ServeError};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Routing errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// A vertex argument is out of range.
    BadVertex(VertexId),
    /// A fault-edge argument is out of range.
    BadEdge(EdgeId),
    /// The underlying labeling query failed.
    Query(QueryError),
    /// The served label archive failed lazy validation mid-route.
    Corrupt(ftc_core::SerialError),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::BadVertex(v) => write!(f, "vertex {v} out of range"),
            RouteError::BadEdge(e) => write!(f, "edge {e} out of range"),
            RouteError::Query(q) => write!(f, "labeling query failed: {q}"),
            RouteError::Corrupt(e) => write!(f, "served archive corrupt: {e}"),
        }
    }
}

impl std::error::Error for RouteError {}

impl From<QueryError> for RouteError {
    fn from(q: QueryError) -> RouteError {
        RouteError::Query(q)
    }
}

/// Maps a service error met while routing; routing names faults by edge
/// ID, so endpoint-pair errors cannot arise.
fn route_error(e: ServeError) -> RouteError {
    match e {
        ServeError::Query(q) => RouteError::Query(q),
        ServeError::UnknownEdgeId { id } => RouteError::BadEdge(id),
        ServeError::VertexOutOfRange { v } => RouteError::BadVertex(v),
        ServeError::Corrupt(e) => RouteError::Corrupt(e),
        ServeError::UnknownEdge { .. } => unreachable!("routing names faults by edge ID"),
    }
}

/// Why a stored label archive could not be attached to a graph
/// ([`ForbiddenSetRouter::from_store`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The archive labels a different number of vertices or edges than
    /// the supplied graph has.
    ShapeMismatch {
        /// Vertices/edges of the supplied graph.
        graph: (usize, usize),
        /// Vertices/edges of the archived labeling.
        archive: (usize, usize),
    },
    /// The archived labels do not match the spanning structure derived
    /// from the supplied graph — the archive was built over a different
    /// graph (or a different edge order).
    LabelingMismatch,
    /// A v2 archive section failed lazy validation while being checked.
    Corrupt(SerialError),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::ShapeMismatch { graph, archive } => write!(
                f,
                "graph has {}/{} vertices/edges but the archive labels {}/{}",
                graph.0, graph.1, archive.0, archive.1
            ),
            RestoreError::LabelingMismatch => {
                write!(f, "archived labels do not belong to this graph")
            }
            RestoreError::Corrupt(e) => write!(f, "archive corrupt: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Table-size accounting (Corollary 2's measured counterpart).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableReport {
    /// Total bits across all per-node tables.
    pub total_bits: usize,
    /// Maximum bits of any single node's table.
    pub max_local_bits: usize,
    /// Number of nodes.
    pub n: usize,
}

/// A forbidden-set router over a fixed graph.
///
/// The labeling lives inside a shared [`ConnectivityService`] as one
/// label archive, so the router is `Send + Sync`: clone-free concurrent
/// routing works by sharing `&ForbiddenSetRouter` across threads — every
/// [`ForbiddenSetRouter::route`] call draws its session scratch from the
/// service's lock-free pool.
#[derive(Debug)]
pub struct ForbiddenSetRouter {
    g: Graph,
    aux: AuxGraph,
    /// The archive-backed connectivity service routes are decoded from.
    service: ConnectivityService,
    size: SizeReport,
    /// pre-order (in `T′`) → auxiliary vertex.
    pre_to_aux: Vec<VertexId>,
}

impl ForbiddenSetRouter {
    /// Preprocesses `g` for up to `f` simultaneous link failures, using the
    /// deterministic labeling.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from the labeling construction.
    pub fn new(g: &Graph, f: usize) -> Result<ForbiddenSetRouter, BuildError> {
        Self::with_params(g, &Params::deterministic(f))
    }

    /// Preprocesses with explicit scheme parameters. The labeling streams
    /// straight into its archive, so labels are never held twice.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from the labeling construction.
    pub fn with_params(g: &Graph, params: &Params) -> Result<ForbiddenSetRouter, BuildError> {
        let tree = RootedTree::bfs(g, 0);
        let (store, diag) = FtcScheme::builder(g)
            .params(params)
            .tree(&tree)
            .build_store(EdgeEncoding::Full)?;
        let aux = AuxGraph::build(g, &tree);
        let size = SizeReport::uniform(g.n(), g.m(), aux.aux_n, diag.k, diag.levels);
        Ok(Self::assemble(
            g,
            aux,
            ConnectivityService::from_store(store),
            size,
        ))
    }

    /// Reconstitutes a router from a stored label archive of either
    /// format, skipping the scheme construction entirely: the router
    /// serves the archive as is, and only the (cheap, deterministic)
    /// spanning-forest/auxiliary-graph structure is rebuilt from `g`.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] if the archive does not label `g` (wrong shape,
    /// or labels disagreeing with `g`'s spanning structure), or if a v2
    /// section it reads fails validation.
    pub fn from_store(g: &Graph, archive: &AnyArchive) -> Result<ForbiddenSetRouter, RestoreError> {
        if archive.n() != g.n() || archive.m() != g.m() {
            return Err(RestoreError::ShapeMismatch {
                graph: (g.n(), g.m()),
                archive: (archive.n(), archive.m()),
            });
        }
        let tree = RootedTree::bfs(g, 0);
        let aux = AuxGraph::build(g, &tree);
        if archive.header().aux_n as usize != aux.aux_n {
            return Err(RestoreError::LabelingMismatch);
        }
        // The archive must carry this graph's labels, not merely one of
        // the same shape: every vertex's ancestry label must match the
        // structure derived from `g`.
        let records = archive.vertex_records().map_err(RestoreError::Corrupt)?;
        if (0..g.n()).any(|v| records.anc(v) != Some(aux.anc[v])) {
            return Err(RestoreError::LabelingMismatch);
        }
        // And the archive's edge-ID assignment must match `g`'s edge
        // list, or fault IDs would resolve to the wrong labels: the
        // endpoint index must equal the one this graph would produce
        // (same last-writer-wins collapse of parallel edges as the
        // scheme builder).
        let mut expected = HashMap::with_capacity(g.m());
        for (e, u, v) in g.edge_iter() {
            expected.insert((u.min(v), u.max(v)), e);
        }
        let mut index = archive.endpoint_index().map_err(RestoreError::Corrupt)?;
        if index.len() != expected.len() || index.any(|(u, v, e)| expected.get(&(u, v)) != Some(&e))
        {
            return Err(RestoreError::LabelingMismatch);
        }
        let size = SizeReport::uniform(g.n(), g.m(), aux.aux_n, archive.k(), archive.levels());
        Ok(Self::assemble(
            g,
            aux,
            ConnectivityService::from_archive(archive.clone()),
            size,
        ))
    }

    fn assemble(
        g: &Graph,
        aux: AuxGraph,
        service: ConnectivityService,
        size: SizeReport,
    ) -> ForbiddenSetRouter {
        let mut pre_to_aux = vec![usize::MAX; aux.aux_n];
        for v in 0..aux.aux_n {
            pre_to_aux[aux.anc[v].pre as usize] = v;
        }
        ForbiddenSetRouter {
            g: g.clone(),
            aux,
            service,
            size,
            pre_to_aux,
        }
    }

    /// The shared [`ConnectivityService`] this router queries through —
    /// clone it to serve plain connectivity queries next to routing.
    pub fn service(&self) -> &ConnectivityService {
        &self.service
    }

    /// Label-size accounting of the underlying labeling.
    pub fn size_report(&self) -> SizeReport {
        self.size
    }

    /// Computes a path from `s` to `t` in `G − F`, or `None` when
    /// disconnected. The returned path is simple-ified only to the extent
    /// the certificate allows — stretch is measured, not optimized.
    ///
    /// The per-fault-set session is built out of (and recycled back
    /// into) the service's lock-free scratch pool, so a router serving a
    /// stream of requests — from any number of threads — pays no
    /// session-construction allocations once the pool is warm. Path
    /// expansion still allocates the returned path.
    ///
    /// # Errors
    ///
    /// [`RouteError::BadVertex`]/[`RouteError::BadEdge`] on malformed
    /// arguments; [`RouteError::Query`] if the labeling decode fails.
    pub fn route(
        &self,
        s: VertexId,
        t: VertexId,
        faults: &[EdgeId],
    ) -> Result<Option<Vec<VertexId>>, RouteError> {
        if s >= self.g.n() {
            return Err(RouteError::BadVertex(s));
        }
        if t >= self.g.n() {
            return Err(RouteError::BadVertex(t));
        }
        if let Some(&e) = faults.iter().find(|&&e| e >= self.g.m()) {
            return Err(RouteError::BadEdge(e));
        }
        // Trivial queries answer before the session's budget enforcement,
        // matching the original decoder's check order.
        match self.service.trivial_answer(s, t).map_err(route_error)? {
            Some(false) => return Ok(None),
            Some(true) => return Ok(Some(vec![s])),
            None => {}
        }
        // One session per fault set: dedup/validation/fragment-splitting
        // and the merge engine run once, and the session's fragment
        // decomposition is reused below for path expansion. The session's
        // storage comes from — and returns to — the service's pool.
        self.service
            .with_session_ids(faults, |served| self.expand_route(served, s, t, faults))
            .map_err(route_error)?
    }

    /// Expands a prepared session's certificate into an explicit
    /// fault-avoiding path (the second half of [`ForbiddenSetRouter::route`]).
    fn expand_route(
        &self,
        served: &PooledSession,
        s: VertexId,
        t: VertexId,
        faults: &[EdgeId],
    ) -> Result<Option<Vec<VertexId>>, RouteError> {
        let Some(cert) = served.certified(s, t).map_err(route_error)? else {
            return Ok(None);
        };

        // Fragment multigraph from the certificate edges.
        let frags = served.session().fragments();
        let frag_of = |aux_v: VertexId| frags.locate(&self.aux.anc[aux_v]);
        let fs = frag_of(s);
        let ft = frag_of(t);
        if fs == ft {
            let aux_path = self
                .aux
                .tree
                .tree_path(s, t)
                .expect("same fragment implies same component");
            return Ok(Some(self.contract(&aux_path, faults)));
        }

        // BFS over fragments along certificate edges.
        #[derive(Clone)]
        struct Hop {
            from_frag: usize,
            exit_vertex: VertexId,
            entry_vertex: VertexId,
        }
        // Index fragments densely.
        let mut frag_ids = vec![fs, ft];
        let index_of = |fid, ids: &mut Vec<_>| -> usize {
            if let Some(i) = ids.iter().position(|&x| x == fid) {
                i
            } else {
                ids.push(fid);
                ids.len() - 1
            }
        };
        let mut adj: Vec<Vec<(usize, VertexId, VertexId)>> = vec![Vec::new(); 2];
        for &(pa, pb) in cert {
            let a = self.pre_to_aux[pa as usize];
            let b = self.pre_to_aux[pb as usize];
            let fa = index_of(frag_of(a), &mut frag_ids);
            let fb = index_of(frag_of(b), &mut frag_ids);
            if adj.len() < frag_ids.len() {
                adj.resize(frag_ids.len(), Vec::new());
            }
            adj[fa].push((fb, a, b));
            adj[fb].push((fa, b, a));
        }
        let mut hop_to: Vec<Option<Hop>> = vec![None; frag_ids.len()];
        let mut visited = vec![false; frag_ids.len()];
        visited[0] = true; // fs
        let mut queue = VecDeque::from([0usize]);
        while let Some(cur) = queue.pop_front() {
            if cur == 1 {
                break; // reached ft
            }
            for &(next, exit_v, entry_v) in &adj[cur] {
                if !visited[next] {
                    visited[next] = true;
                    hop_to[next] = Some(Hop {
                        from_frag: cur,
                        exit_vertex: exit_v,
                        entry_vertex: entry_v,
                    });
                    queue.push_back(next);
                }
            }
        }
        assert!(
            visited[1],
            "certificate must connect the fragments of s and t"
        );

        // Reconstruct hops ft <- ... <- fs, then expand forwards.
        let mut hops: Vec<Hop> = Vec::new();
        let mut cur = 1usize;
        while cur != 0 {
            let h = hop_to[cur].clone().expect("visited fragments have hops");
            cur = h.from_frag;
            hops.push(h);
        }
        hops.reverse();

        let mut aux_path: Vec<VertexId> = vec![s];
        let mut cur_vertex = s;
        for h in &hops {
            let seg = self
                .aux
                .tree
                .tree_path(cur_vertex, h.exit_vertex)
                .expect("same fragment implies same component");
            aux_path.extend_from_slice(&seg[1..]);
            aux_path.push(h.entry_vertex);
            cur_vertex = h.entry_vertex;
        }
        let seg = self
            .aux
            .tree
            .tree_path(cur_vertex, t)
            .expect("t's fragment reached");
        aux_path.extend_from_slice(&seg[1..]);

        Ok(Some(self.contract(&aux_path, faults)))
    }

    /// Contracts subdivision vertices out of an auxiliary-graph path and
    /// validates every step against the graph and the fault set.
    fn contract(&self, aux_path: &[VertexId], faults: &[EdgeId]) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = Vec::with_capacity(aux_path.len());
        for &v in aux_path {
            if v < self.aux.orig_n && out.last() != Some(&v) {
                out.push(v);
            }
            // Subdividers vanish; their neighbors are the original
            // endpoints of the subdivided edge.
        }
        // Validation: every consecutive pair is a non-faulty edge.
        for w in out.windows(2) {
            let e = self
                .g
                .find_edge(w[0], w[1])
                .unwrap_or_else(|| panic!("path step {}–{} is not an edge", w[0], w[1]));
            assert!(
                !faults.contains(&e)
                    || self.g.edge_iter().any(|(e2, u, v)| {
                        e2 != e
                            && !faults.contains(&e2)
                            && ((u, v) == (w[0], w[1]) || (v, u) == (w[0], w[1]))
                    }),
                "path uses faulty edge {e}"
            );
        }
        out
    }

    /// Per-node table accounting: each node stores its own vertex label,
    /// the labels of its incident edges (to report/forward failures), and
    /// one ancestry interval per port (tree next-hop routing).
    pub fn table_report(&self) -> TableReport {
        // Port interval for tree routing.
        const PORT_BITS: usize = 2 * 32;
        let mut total = 0usize;
        let mut max_local = 0usize;
        for v in 0..self.g.n() {
            let ports = self.g.incident_edges(v).len();
            let bits = self.size.vertex_bits + ports * (self.size.edge_bits + PORT_BITS);
            total += bits;
            max_local = max_local.max(bits);
        }
        TableReport {
            total_bits: total,
            max_local_bits: max_local,
            n: self.g.n(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_graph::connectivity::{connected_avoiding, distance_avoiding};

    fn check_all_routes(g: &Graph, f: usize, fault_sets: &[Vec<EdgeId>]) {
        let router = ForbiddenSetRouter::new(g, f).unwrap();
        for faults in fault_sets {
            for s in 0..g.n() {
                for t in 0..g.n() {
                    let got = router.route(s, t, faults).unwrap();
                    let want = connected_avoiding(g, s, t, faults);
                    match got {
                        None => assert!(!want, "router said disconnected for ({s},{t},{faults:?})"),
                        Some(path) => {
                            assert!(want);
                            assert_eq!(path.first(), Some(&s));
                            assert_eq!(path.last(), Some(&t));
                            // Path validity (edges exist, avoid F) is
                            // asserted inside contract(); also check
                            // it is not absurdly long.
                            assert!(path.len() <= g.n() * (faults.len() + 2));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cycle_routes_around_failures() {
        let g = Graph::cycle(8);
        let sets: Vec<Vec<EdgeId>> = (0..8).map(|e| vec![e]).collect();
        check_all_routes(&g, 2, &sets);
        check_all_routes(&g, 2, &[vec![0, 4], vec![1, 5], vec![2, 3]]);
    }

    #[test]
    fn grid_routes_with_two_faults() {
        let g = Graph::grid(3, 4);
        let sets = vec![vec![0, 7], vec![2, 9], vec![1, 3], vec![]];
        check_all_routes(&g, 2, &sets);
    }

    #[test]
    fn barbell_disconnection_detected() {
        let g = Graph::barbell(3);
        let bridge = g.find_edge(2, 3).unwrap();
        let router = ForbiddenSetRouter::new(&g, 1).unwrap();
        assert_eq!(router.route(0, 5, &[bridge]).unwrap(), None);
        assert!(router.route(0, 2, &[bridge]).unwrap().is_some());
    }

    #[test]
    fn stretch_is_measurable_and_finite() {
        let g = Graph::torus(4, 4);
        let router = ForbiddenSetRouter::new(&g, 2).unwrap();
        let faults = vec![0usize, 5];
        let mut worst = 0.0f64;
        for s in 0..g.n() {
            for t in 0..g.n() {
                if s == t {
                    continue;
                }
                if let Some(path) = router.route(s, t, &faults).unwrap() {
                    let opt = distance_avoiding(&g, s, t, &faults).unwrap();
                    let stretch = (path.len() - 1) as f64 / opt as f64;
                    worst = worst.max(stretch);
                }
            }
        }
        assert!(worst >= 1.0);
        assert!(worst < 20.0, "stretch {worst} looks unbounded");
    }

    #[test]
    fn trivial_routes_answer_before_budget_enforcement() {
        // Two triangles, f = 1: two distinct faults exceed the budget, but
        // self-routes and cross-component routes answer without touching it
        // (the pre-session decoder's check order).
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let router = ForbiddenSetRouter::new(&g, 1).unwrap();
        assert_eq!(router.route(2, 2, &[0, 1]).unwrap(), Some(vec![2]));
        assert_eq!(router.route(0, 4, &[0, 1]).unwrap(), None);
        // Non-trivial routes still report the budget violation.
        match router.route(0, 2, &[0, 1]) {
            Err(RouteError::Query(QueryError::TooManyFaults {
                supplied: 2,
                budget: 1,
            })) => {}
            other => panic!("expected budget violation, got {other:?}"),
        }
    }

    /// The v1 full-encoding archive of the labeling
    /// `ForbiddenSetRouter::new(g, f)` serves, built separately.
    fn v1_archive(g: &Graph, f: usize) -> AnyArchive {
        let (store, _) = FtcScheme::builder(g)
            .params(&Params::deterministic(f))
            .build_store(EdgeEncoding::Full)
            .unwrap();
        AnyArchive::open(store.into_vec()).unwrap()
    }

    #[test]
    fn reconstituted_router_routes_identically() {
        let g = Graph::torus(4, 4);
        let built = ForbiddenSetRouter::new(&g, 2).unwrap();
        let builder = || FtcScheme::builder(&g).params(&Params::deterministic(2));
        let (v1, _) = builder().build_store(EdgeEncoding::Compact).unwrap();
        let (v2, _) = builder()
            .build_store_compressed(EdgeEncoding::Full)
            .unwrap();
        for bytes in [v1.into_vec(), v2.into_vec()] {
            let archive = AnyArchive::open(bytes).unwrap();
            let restored = ForbiddenSetRouter::from_store(&g, &archive).unwrap();
            assert_eq!(restored.size_report(), built.size_report());
            assert_eq!(restored.table_report(), built.table_report());
            for faults in [vec![], vec![0usize, 5], vec![3, 9]] {
                for s in 0..g.n() {
                    for t in 0..g.n() {
                        assert_eq!(
                            restored.route(s, t, &faults).unwrap(),
                            built.route(s, t, &faults).unwrap(),
                            "({s},{t},{faults:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reconstitution_rejects_foreign_archives() {
        let g = Graph::torus(4, 4);
        let view = v1_archive(&g, 2);
        // Wrong shape.
        let other = Graph::cycle(5);
        assert!(matches!(
            ForbiddenSetRouter::from_store(&other, &view),
            Err(RestoreError::ShapeMismatch { .. })
        ));
        // Same vertex/edge counts, different graph: the ancestry check
        // rejects the foreign labels.
        let same_shape = ftc_graph::generators::random_connected(g.n(), g.m() - (g.n() - 1), 3);
        assert_eq!(same_shape.m(), g.m());
        assert!(matches!(
            ForbiddenSetRouter::from_store(&same_shape, &view),
            Err(RestoreError::LabelingMismatch)
        ));
    }

    #[test]
    fn reconstitution_rejects_permuted_edge_ids() {
        // Identical edge *set* but a different edge-ID assignment: fault
        // IDs would resolve to the wrong archived labels, so the
        // endpoint-index check must reject the archive.
        let g = ftc_graph::generators::random_connected(10, 6, 0);
        let view = v1_archive(&g, 1);
        let mut edges: Vec<(usize, usize)> = g.edge_iter().map(|(_, u, v)| (u, v)).collect();
        edges.swap(0, 1);
        let permuted = Graph::from_edges(g.n(), &edges);
        assert!(matches!(
            ForbiddenSetRouter::from_store(&permuted, &view),
            Err(RestoreError::LabelingMismatch)
        ));
        // The honest graph still reconstitutes.
        assert!(ForbiddenSetRouter::from_store(&g, &view).is_ok());
    }

    #[test]
    fn concurrent_routes_match_sequential_routes() {
        // The router is Send + Sync: threads share it by reference, each
        // drawing scratch from the service's pool, and every concurrent
        // answer must equal the sequential one.
        let g = Graph::torus(4, 4);
        let router = ForbiddenSetRouter::new(&g, 2).unwrap();
        let fault_sets = [vec![], vec![0usize, 5], vec![3, 9], vec![1]];
        let sequential: Vec<_> = fault_sets
            .iter()
            .map(|faults| {
                (0..g.n())
                    .flat_map(|s| (0..g.n()).map(move |t| (s, t)))
                    .map(|(s, t)| router.route(s, t, faults).unwrap())
                    .collect::<Vec<_>>()
            })
            .collect();
        std::thread::scope(|scope| {
            for (faults, want) in fault_sets.iter().zip(&sequential) {
                let (router, g) = (&router, &g);
                scope.spawn(move || {
                    let got: Vec<_> = (0..g.n())
                        .flat_map(|s| (0..g.n()).map(move |t| (s, t)))
                        .map(|(s, t)| router.route(s, t, faults).unwrap())
                        .collect();
                    assert_eq!(&got, want, "{faults:?}");
                });
            }
        });
        // The embedded service doubles as a plain connectivity handle.
        assert!(router
            .service()
            .query(&[], &[(0, 10)])
            .unwrap()
            .all_connected());
    }

    #[test]
    fn bad_arguments_rejected() {
        let g = Graph::cycle(4);
        let router = ForbiddenSetRouter::new(&g, 1).unwrap();
        assert_eq!(router.route(9, 0, &[]), Err(RouteError::BadVertex(9)));
        assert_eq!(router.route(0, 9, &[]), Err(RouteError::BadVertex(9)));
        assert_eq!(router.route(0, 1, &[99]), Err(RouteError::BadEdge(99)));
    }

    #[test]
    fn table_report_shapes() {
        let g = Graph::grid(3, 3);
        let router = ForbiddenSetRouter::new(&g, 1).unwrap();
        let rep = router.table_report();
        assert_eq!(rep.n, 9);
        assert!(rep.max_local_bits > 0);
        assert!(rep.total_bits >= rep.max_local_bits * 2);
        // Pinned to the per-label sums over an owned label set: the
        // accounting from the uniform label geometry must match them.
        assert_eq!(
            rep,
            TableReport {
                total_bits: 379_872,
                max_local_bits: 63_200,
                n: 9
            }
        );
        let size = router.size_report();
        assert_eq!((size.k, size.levels, size.aux_n), (120, 1, 13));
        assert_eq!((size.vertex_bits, size.edge_bits), (224, 15_680));
        assert_eq!(size.total_bits, 190_176);
    }
}

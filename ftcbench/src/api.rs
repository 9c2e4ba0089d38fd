//! The benchmark's one door into the `ftc-*` crates.
//!
//! Every call the workloads make into the system under test goes through
//! this module, and no other module names an `ftc_*` item. An API change
//! in the repository — one archive format instead of two, a renamed entry
//! point — edits this file and leaves the workload definitions alone.

use ftc_core::compressed::AnyArchive;
use ftc_core::store::EdgeEncoding;
use ftc_core::{
    FtcScheme, Params, QuerySession, SessionScratch, StdVfs, ThresholdPolicy, VertexLabelView,
};
use ftc_dyn::{default_journal_path, DurableScheme, DynConfig, DynamicScheme, FsyncPolicy};
use ftc_graph::connectivity::ConnectivityOracle;
use ftc_graph::{generators, RootedTree};
use ftc_net::proto::{self, ResponseBody};
use ftc_net::{Client, ClientConfig, Server, ServerConfig, ServerHandle};
use ftc_serve::{ConnectivityService, ServiceRegistry};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An undirected edge or an s–t pair, as two vertex IDs.
pub type Edge = (usize, usize);

/// The graph ID every workload serves under.
const GRAPH_ID: &str = "bench";

/// Archive container formats the static workloads serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// The v1 single-blob archive (full edge encoding), validated on open.
    V1,
    /// The v2 rANS-compressed sectioned container, opened in O(header).
    V2,
}

impl Format {
    /// Name printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            Format::V1 => "v1-full",
            Format::V2 => "v2-compressed",
        }
    }
}

/// A simple undirected graph.
pub struct Graph(ftc_graph::Graph);

impl Graph {
    /// A uniform random spanning tree on `n` vertices plus `extra` distinct
    /// random chords.
    pub fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
        Graph(generators::random_connected(n, extra, seed))
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.0.n()
    }

    /// Every edge, as endpoint pairs in edge-ID order.
    pub fn edges(&self) -> Vec<Edge> {
        self.0.edge_iter().map(|(_, u, v)| (u, v)).collect()
    }

    /// The edges incident to `v`, as endpoint pairs.
    pub fn incident(&self, v: usize) -> Vec<Edge> {
        self.0
            .incident_edges(v)
            .iter()
            .map(|&e| self.0.endpoints(e))
            .collect()
    }
}

/// The static scheme's parameters at fault budget `f`: deterministic ε-net
/// hierarchy with the calibrated threshold `k = 44f`.
fn static_params(f: usize) -> Params {
    Params::deterministic(f).with_threshold(ThresholdPolicy::Fixed(44 * f))
}

/// Worker count of a `threads(0)` build (one per available core).
pub fn build_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Builds a servable archive blob with `threads(0)`, the `ftc-cli build`
/// default: `build_store` for v1, `build_store_compressed` for v2.
pub fn build_archive(g: &Graph, f: usize, format: Format) -> Vec<u8> {
    let builder = FtcScheme::builder(&g.0)
        .params(&static_params(f))
        .threads(0);
    match format {
        Format::V1 => builder
            .build_store(EdgeEncoding::Full)
            .expect("benchmark graphs and budgets are valid")
            .0
            .into_vec(),
        Format::V2 => builder
            .build_store_compressed(EdgeEncoding::Full)
            .expect("benchmark graphs and budgets are valid")
            .0
            .into_vec(),
    }
}

/// The BFS spanning tree the builder roots at vertex 0.
pub struct Tree(RootedTree);

/// Build stage 1: the spanning tree.
pub fn stage_tree(g: &Graph) -> Tree {
    Tree(RootedTree::bfs(&g.0, 0))
}

/// Build stage 2: the auxiliary graph over the tree.
pub struct Aux(ftc_core::auxgraph::AuxGraph);

/// Build stage 2: the auxiliary graph, with `threads` workers.
pub fn stage_auxgraph(g: &Graph, tree: &Tree, threads: usize) -> Aux {
    Aux(ftc_core::auxgraph::AuxGraph::build_with_threads(
        &g.0, &tree.0, threads,
    ))
}

/// Build stage 3: the ε-net hierarchy at the paper's threshold; returns
/// its depth.
pub fn stage_hierarchy(aux: &Aux, f: usize, threads: usize) -> usize {
    let base = ftc_core::hierarchy::paper_threshold(aux.0.nontree.len());
    ftc_core::hierarchy::build_hierarchy_with_threads(
        &aux.0,
        static_params(f).backend,
        base,
        threads,
    )
    .depth()
}

/// The whole-blob checksum the archives carry.
pub fn checksum(bytes: &[u8]) -> u64 {
    ftc_compress::checksum64(bytes)
}

/// Writes `bytes` to `path` atomically, with full fsync discipline.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    ftc_core::write_file_atomic(path, bytes)
}

/// A shareable serving handle over one archive.
#[derive(Clone)]
pub struct Service(ConnectivityService);

impl Service {
    /// Opens an archive file of either format.
    pub fn open(path: &Path) -> Result<Service, String> {
        ConnectivityService::open_path(path)
            .map(Service)
            .map_err(|e| e.to_string())
    }

    /// Answers `pairs` under `faults` (one pooled session).
    pub fn query(&self, faults: &[Edge], pairs: &[Edge]) -> Result<Vec<bool>, String> {
        self.0
            .query(faults, pairs)
            .map(|a| a.into_vec())
            .map_err(|e| e.to_string())
    }

    /// Validates `faults` and prepares their session from the pool,
    /// answering nothing.
    pub fn prepare(&self, faults: &[Edge]) -> Result<(), String> {
        self.0
            .with_session(faults, |_| ())
            .map_err(|e| e.to_string())
    }
}

/// The blue/green registry the server routes through (empty by default).
#[derive(Default)]
pub struct Registry(Arc<ServiceRegistry>);

impl Registry {
    /// Atomically replaces the served service; returns its generation.
    pub fn swap(&self, service: Service) -> u64 {
        self.0.swap(GRAPH_ID, service.0)
    }

    /// Generation of the entry served now (0 before the first swap).
    pub fn generation(&self) -> u64 {
        self.0.generation(GRAPH_ID).unwrap_or(0)
    }

    /// The service served now.
    pub fn current(&self) -> Option<Service> {
        self.0.get(GRAPH_ID).map(Service)
    }
}

/// Server-side counters read after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    /// Requests submitted to the coalescer.
    pub requests: u64,
    /// Requests that joined an open batch.
    pub coalesced: u64,
    /// Batches executed (sessions built).
    pub batches: u64,
    /// Requests shed.
    pub shed: u64,
    /// Served-latency median, µs.
    pub served_p50_us: f64,
    /// Served-latency 99th percentile, µs.
    pub served_p99_us: f64,
    /// Requests in the served-latency histogram.
    pub served_count: u64,
}

/// An in-process `ftc-net` server on loopback with the default config.
pub struct WireServer {
    handle: ServerHandle,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl WireServer {
    /// Binds `127.0.0.1:0` over `registry` and starts serving on a
    /// thread of its own.
    pub fn start(registry: &Registry) -> std::io::Result<WireServer> {
        let server = Server::bind(registry.0.clone(), "127.0.0.1:0", ServerConfig::default())?;
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        Ok(WireServer {
            handle,
            join: Some(join),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Coalescer counters and the served-latency histogram.
    pub fn counters(&self) -> ServerCounters {
        let c = self.handle.stats();
        let served = self.handle.served_latency();
        ServerCounters {
            requests: c.requests,
            coalesced: c.coalesced,
            batches: c.batches,
            shed: c.shed,
            served_p50_us: served.quantile(0.5) as f64 / 1e3,
            served_p99_us: served.quantile(0.99) as f64 / 1e3,
            served_count: served.count(),
        }
    }

    /// Drains, stops and joins the server.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.shutdown_and_join()
    }

    fn shutdown_and_join(&mut self) -> std::io::Result<()> {
        self.handle.shutdown();
        match self.join.take() {
            Some(join) => join
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("server thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        let _ = self.shutdown_and_join();
    }
}

/// One blocking client connection with the default config (no retries).
pub struct WireClient(Client);

impl WireClient {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<WireClient> {
        Client::connect_with(addr, ClientConfig::default()).map(WireClient)
    }

    /// Pipelines one request; returns its request ID.
    pub fn send(&mut self, faults: &[Edge], pairs: &[Edge]) -> Result<u64, String> {
        self.0
            .send(GRAPH_ID, faults, pairs)
            .map_err(|e| e.to_string())
    }

    /// Blocks for the next response: its request ID and either the
    /// answers or the server's typed error. `Err` is a transport failure.
    pub fn recv(&mut self) -> Result<(u64, Result<Vec<bool>, String>), String> {
        let resp = self.0.recv().map_err(|e| e.to_string())?;
        let body = match resp.body {
            ResponseBody::Answers { answers, .. } => Ok(answers),
            ResponseBody::Error { code, message } => Err(format!("{code}: {message}")),
        };
        Ok((resp.request_id, body))
    }

    /// Requests this client retried (always 0 without a retry budget).
    pub fn retries(&self) -> u64 {
        self.0.stats().retries
    }
}

/// Appends one request frame, encoded as the client encodes it.
pub fn encode_request(out: &mut Vec<u8>, id: u64, faults: &[Edge], pairs: &[Edge]) {
    proto::encode_request(out, id, GRAPH_ID, proto::FLAG_CHECKSUM, faults, pairs)
        .expect("benchmark requests fit a frame");
}

/// The payload of a frame `encode_*` appended (the length prefix
/// stripped).
pub fn frame_payload(frame: &[u8]) -> &[u8] {
    &frame[4..]
}

/// Parses a request payload and collects its faults and pairs, as the
/// server's frame handler does.
pub fn parse_request(payload: &[u8]) -> Result<(Vec<Edge>, Vec<Edge>), String> {
    let req = proto::RequestView::parse(payload).map_err(|e| e.to_string())?;
    let faults = req
        .faults()
        .map(|(u, v)| (u as usize, v as usize))
        .collect();
    let pairs = req.pairs().map(|(s, t)| (s as usize, t as usize)).collect();
    Ok((faults, pairs))
}

/// Appends one OK response frame.
pub fn encode_response(out: &mut Vec<u8>, id: u64, answers: &[bool]) {
    proto::encode_response_ok(out, id, answers, None).expect("plain answers fit a frame");
}

/// Decodes a response payload into its answers.
pub fn decode_response(payload: &[u8]) -> Result<Vec<bool>, String> {
    match proto::decode_response(payload)
        .map_err(|e| e.to_string())?
        .body
    {
        ResponseBody::Answers { answers, .. } => Ok(answers),
        ResponseBody::Error { code, message } => Err(format!("{code}: {message}")),
    }
}

/// An archive opened for direct, in-process session builds.
pub struct View(AnyArchive);

/// Reusable session storage (empty by default).
#[derive(Default)]
pub struct Scratch(SessionScratch);

impl Scratch {
    /// Returns a session's storage for reuse.
    pub fn recycle(&mut self, session: Session) {
        self.0.recycle(session.0);
    }
}

/// A prepared fault set.
pub struct Session(QuerySession);

/// Vertex labels of a pair list, resolved against a [`View`].
pub struct PairLabels<'v>(Vec<(VertexLabelView<'v>, VertexLabelView<'v>)>);

impl View {
    /// Opens an archive file of either format (v1 validated, v2 O(header)).
    pub fn open(path: &Path) -> Result<View, String> {
        ftc_core::compressed::open_path(path)
            .map(View)
            .map_err(|e| e.to_string())
    }

    /// Builds the session for `faults` in `scratch`:
    /// `LabelStoreView::session_in` or `CompressedStoreView::session_in`.
    pub fn session_in(&self, faults: &[Edge], scratch: &mut Scratch) -> Result<Session, String> {
        let faults = faults.iter().copied();
        match &self.0 {
            AnyArchive::V1(v) => v.session_in(faults, &mut scratch.0),
            AnyArchive::V2(v) => v.session_in(faults, &mut scratch.0),
        }
        .map(Session)
        .map_err(|e| e.to_string())
    }

    /// Resolves the vertex labels of `pairs`.
    pub fn pair_labels(&self, pairs: &[Edge]) -> Result<PairLabels<'_>, String> {
        let vertex = |v: usize| -> Result<VertexLabelView<'_>, String> {
            match &self.0 {
                AnyArchive::V1(view) => view.vertex(v),
                AnyArchive::V2(view) => view.vertex(v).map_err(|e| e.to_string())?,
            }
            .ok_or_else(|| format!("vertex {v} out of range"))
        };
        pairs
            .iter()
            .map(|&(s, t)| Ok((vertex(s)?, vertex(t)?)))
            .collect::<Result<_, String>>()
            .map(PairLabels)
    }
}

impl Session {
    /// `QuerySession::connected_many` into `out`.
    pub fn connected_many(
        &self,
        pairs: &PairLabels<'_>,
        out: &mut Vec<bool>,
    ) -> Result<(), String> {
        self.0
            .connected_many(&pairs.0, out)
            .map_err(|e| e.to_string())
    }
}

/// Breadth-first ground truth over a graph with an edge-churn overlay.
pub struct Oracle<'g>(ConnectivityOracle<'g>);

impl<'g> Oracle<'g> {
    /// An oracle over `g` as it is now.
    pub fn new(g: &'g Graph) -> Oracle<'g> {
        Oracle(ConnectivityOracle::new(&g.0))
    }

    /// Prepares the component table of the graph minus `faults`.
    pub fn prepare(&mut self, faults: &[Edge]) {
        self.0.prepare_pairs(faults);
    }

    /// Whether `s` and `t` are connected under the prepared faults.
    pub fn connected(&mut self, s: usize, t: usize) -> bool {
        self.0.connected(s, t)
    }

    /// Adds edge `(u, v)` (effective at the next prepare).
    pub fn insert(&mut self, u: usize, v: usize) {
        self.0.add_edge(u, v);
    }

    /// Removes edge `(u, v)` (effective at the next prepare).
    pub fn delete(&mut self, u: usize, v: usize) -> bool {
        self.0.remove_edge(u, v)
    }
}

/// A dynamic labeling not yet adopted into durable operation.
pub struct Dynamic(DynamicScheme);

/// `DynamicScheme::new` with `DynConfig::new(f, k)` and the label seed.
pub fn dynamic_scheme(g: &Graph, f: usize, k: usize, seed: u64) -> Result<Dynamic, String> {
    let mut cfg = DynConfig::new(f, k);
    cfg.seed = seed;
    DynamicScheme::new(&g.0, cfg)
        .map(Dynamic)
        .map_err(|e| e.to_string())
}

/// Counters of the dynamic scheme.
#[derive(Clone, Copy, Debug, Default)]
pub struct DynCounters {
    /// Ops absorbed by the incremental path.
    pub incremental_ops: u64,
    /// Full rebuilds forced by a tree-edge delete or a merging insert.
    pub structural_rebuilds: u64,
    /// Full rebuilds forced by subdivider-slot exhaustion.
    pub slot_rebuilds: u64,
}

/// A journaled dynamic scheme on the real filesystem, `on_commit` fsync.
pub struct Durable(DurableScheme);

impl Durable {
    /// `DurableScheme::create`: the base checkpoint plus a fresh journal
    /// in `dir`.
    pub fn create(dir: &Path, scheme: Dynamic) -> Result<Durable, String> {
        let archive = dir.join("churn.ftc");
        let journal = default_journal_path(&archive);
        DurableScheme::create(
            Arc::new(StdVfs),
            &archive,
            &journal,
            scheme.0,
            FsyncPolicy::OnCommit,
        )
        .map(Durable)
        .map_err(|e| e.to_string())
    }

    /// Journals and applies one edge insert or delete.
    pub fn apply(&mut self, insert: bool, (u, v): Edge) -> Result<(), String> {
        if insert {
            self.0.insert_edge(u, v)
        } else {
            self.0.delete_edge(u, v)
        }
        .map(drop)
        .map_err(|e| e.to_string())
    }

    /// Forces the journal to stable storage.
    pub fn sync(&mut self) -> Result<(), String> {
        self.0.sync().map_err(|e| e.to_string())
    }

    /// Syncs the journal and commits a servable in-memory archive.
    pub fn commit_service(&mut self) -> Result<Service, String> {
        self.0
            .commit_service()
            .map(Service)
            .map_err(|e| e.to_string())
    }

    /// A full disk checkpoint (archive, manifest, journal rotation).
    pub fn checkpoint(&mut self) -> Result<(), String> {
        self.0.commit().map(drop).map_err(|e| e.to_string())
    }

    /// Update counters.
    pub fn counters(&self) -> DynCounters {
        let s = self.0.stats();
        DynCounters {
            incremental_ops: s.incremental_ops,
            structural_rebuilds: s.structural_rebuilds,
            slot_rebuilds: s.slot_rebuilds,
        }
    }

    /// The checkpoint archive's path.
    pub fn archive_path(&self) -> PathBuf {
        self.0.archive_path().to_path_buf()
    }

    /// The journal's path.
    pub fn journal_path(&self) -> PathBuf {
        self.0.journal_path().to_path_buf()
    }
}

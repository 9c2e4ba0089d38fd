//! Differential fuzz harness: hammers every backend (the reusable
//! `QuerySession`, the zero-copy byte-view decoding of full and compact
//! labels, sessions over v1 and v2 archives opened from heap bytes and
//! memory-mapped from a file, the `ConnectivityService` batch path over
//! a graph with several components, and the router) against the ground-truth
//! oracle with seeded random graphs and fault sets. Runs until the
//! requested budget is exhausted and reports totals; any disagreement
//! aborts with a reproducer seed.
//!
//! Run: `cargo run -p ftc-bench --release --bin differential_fuzz [seconds]`

use ftc_core::compressed::{compress_archive, open_path, AnyArchive};
use ftc_core::serial::{
    edge_from_bytes, edge_to_bytes, edge_to_bytes_compact, vertex_to_bytes, CompactEdgeLabelView,
    EdgeLabelView, VertexLabelView,
};
use ftc_core::store::{EdgeEncoding, LabelStore};
use ftc_core::{FtcScheme, LabelSet, Params, QuerySession, RsVector, SessionScratch};
use ftc_graph::{connectivity, generators, Graph};
use ftc_routing::ForbiddenSetRouter;
use ftc_serve::ConnectivityService;
use std::time::{Duration, Instant};

/// The labeling archived as v1 and as v2, each opened from heap bytes
/// ([`AnyArchive::open`]) and memory-mapped from a file ([`open_path`]).
fn archives(l: &LabelSet<RsVector>, round: u64) -> Vec<(&'static str, AnyArchive)> {
    let v1 = LabelStore::to_vec(l, EdgeEncoding::Full);
    let v2 = compress_archive(&LabelStore::open(v1.clone()).expect("v1 archive")).into_vec();
    let mut out = Vec::new();
    for (name, mapped, bytes) in [("v1", "mapped v1", v1), ("v2", "mapped v2", v2)] {
        let path =
            std::env::temp_dir().join(format!("ftc-fuzz-{}-{round}-{name}", std::process::id()));
        std::fs::write(&path, &bytes).expect("write archive file");
        out.push((mapped, open_path(&path).expect("mapped archive")));
        std::fs::remove_file(&path).expect("remove archive file");
        out.push((name, AnyArchive::open(bytes).expect("heap archive")));
    }
    out
}

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let deadline = Instant::now() + Duration::from_secs(budget);
    let mut round = 0u64;
    let mut queries = 0u64;
    let mut scratch = SessionScratch::new();
    while Instant::now() < deadline {
        round += 1;
        let seed = round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let n = 8 + (seed % 16) as usize;
        let max_extra = n * (n - 1) / 2 - (n - 1);
        let extra = (seed / 7 % 14) as usize;
        let g = generators::random_connected(n, extra.min(max_extra), seed);
        let f = 1 + (seed / 3 % 3) as usize;

        let schemes = [
            FtcScheme::build(&g, &Params::deterministic(f)).expect("det build"),
            FtcScheme::build(&g, &Params::randomized(f, seed ^ 0xabc)).expect("rand build"),
        ];
        let router = ForbiddenSetRouter::new(&g, f).expect("router build");
        let fset = generators::random_fault_set(&g, f.min(g.m()), seed ^ 0x55);

        for scheme in &schemes {
            let l = scheme.labels();
            // Serialization round trip on the fault labels (empty fault
            // sets included — the session must handle them).
            let faults: Vec<_> = fset
                .iter()
                .map(|&e| edge_from_bytes(&edge_to_bytes(l.edge_label_by_id(e))).expect("bytes"))
                .collect();
            let session = l.session(&faults).expect("session");
            // Zero-copy path: the same session built from raw bytes.
            let fault_bytes: Vec<Vec<u8>> = fset
                .iter()
                .map(|&e| edge_to_bytes(l.edge_label_by_id(e)))
                .collect();
            let views: Vec<EdgeLabelView> = fault_bytes
                .iter()
                .map(|b| EdgeLabelView::new(b).expect("view"))
                .collect();
            let view_session = QuerySession::new(l.header(), views).expect("view session");
            // The same again from half-width compact bytes.
            let compact_bytes: Vec<Vec<u8>> = fset
                .iter()
                .map(|&e| edge_to_bytes_compact(l.edge_label_by_id(e)))
                .collect();
            let compact_views: Vec<CompactEdgeLabelView> = compact_bytes
                .iter()
                .map(|b| CompactEdgeLabelView::new(b).expect("compact view"))
                .collect();
            let compact_session =
                QuerySession::new(l.header(), compact_views).expect("compact session");
            let vertex_bytes: Vec<Vec<u8>> = (0..g.n())
                .map(|v| vertex_to_bytes(l.vertex_label(v)))
                .collect();
            for s in 0..g.n() {
                for t in 0..g.n() {
                    queries += 1;
                    let want = connectivity::connected_avoiding(&g, s, t, &fset);
                    let got = session
                        .connected(l.vertex_label(s), l.vertex_label(t))
                        .unwrap_or_else(|e| panic!("seed {seed}: query error {e}"));
                    assert_eq!(got, want, "seed {seed}: session disagrees at ({s},{t})");
                    let vv = |v: usize| VertexLabelView::new(&vertex_bytes[v]).expect("view");
                    let bv = view_session
                        .connected(vv(s), vv(t))
                        .unwrap_or_else(|e| panic!("seed {seed}: view error {e}"));
                    assert_eq!(bv, want, "seed {seed}: byte views disagree at ({s},{t})");
                    let cv = compact_session
                        .connected(vv(s), vv(t))
                        .unwrap_or_else(|e| panic!("seed {seed}: compact view error {e}"));
                    assert_eq!(cv, want, "seed {seed}: compact views disagree at ({s},{t})");
                }
            }
        }
        // Archive differential: the deterministic labeling served from
        // both formats and both buffer kinds, faults named by endpoints.
        let endpoints: Vec<(usize, usize)> = g.edge_iter().map(|(_, u, v)| (u, v)).collect();
        let fault_pairs: Vec<(usize, usize)> = fset.iter().map(|&e| endpoints[e]).collect();
        for (name, archive) in archives(schemes[0].labels(), round) {
            let session = archive
                .session_in(fault_pairs.iter().copied(), &mut scratch)
                .unwrap_or_else(|e| panic!("seed {seed}: {name} session error {e}"));
            let vertex = |v| archive.vertex(v).expect("vertex section").expect("vertex");
            for s in 0..g.n() {
                for t in 0..g.n() {
                    queries += 1;
                    let want = connectivity::connected_avoiding(&g, s, t, &fset);
                    let got = session
                        .connected(vertex(s), vertex(t))
                        .unwrap_or_else(|e| panic!("seed {seed}: {name} query error {e}"));
                    assert_eq!(
                        got, want,
                        "seed {seed}: {name} archive disagrees at ({s},{t})"
                    );
                }
            }
            scratch.recycle(session);
        }
        // Service differential: the batch answer path of
        // `ConnectivityService::query` / `query_certified` over a v1 heap
        // and a v2 mapped archive of `g` plus a fault-free path on three
        // fresh vertices and one isolated vertex, so every pair list
        // mixes same-vertex, cross-component, fault-free-component and
        // faulted-component pairs.
        let n2 = g.n() + 4;
        let mut edges2 = endpoints.clone();
        edges2.extend([(g.n(), g.n() + 1), (g.n() + 1, g.n() + 2)]);
        let g2 = Graph::from_edges(n2, &edges2);
        let scheme2 = FtcScheme::build(&g2, &Params::deterministic(f)).expect("det build");
        let pairs: Vec<(usize, usize)> =
            (0..n2).flat_map(|s| (0..n2).map(move |t| (s, t))).collect();
        let want: Vec<bool> = pairs
            .iter()
            .map(|&(s, t)| connectivity::connected_avoiding(&g2, s, t, &fset))
            .collect();
        for (name, archive) in archives(scheme2.labels(), round) {
            if name != "v1" && name != "mapped v2" {
                continue;
            }
            queries += pairs.len() as u64;
            let service = ConnectivityService::from_archive(archive);
            let got = service
                .query(&fault_pairs, &pairs)
                .unwrap_or_else(|e| panic!("seed {seed}: {name} service error {e}"));
            let certs = service
                .query_certified(&fault_pairs, &pairs)
                .unwrap_or_else(|e| panic!("seed {seed}: {name} service error {e}"));
            for (i, &(s, t)) in pairs.iter().enumerate() {
                assert_eq!(
                    (got.get(i), certs[i].is_some()),
                    (Some(want[i]), want[i]),
                    "seed {seed}: {name} service disagrees at ({s},{t})"
                );
            }
        }
        // Router differential: route existence ⇔ connectivity; paths valid.
        for s in 0..g.n() {
            for t in 0..g.n() {
                let want = connectivity::connected_avoiding(&g, s, t, &fset);
                match router.route(s, t, &fset).expect("route") {
                    None => assert!(!want, "seed {seed}: router missed a path ({s},{t})"),
                    Some(p) => {
                        assert!(want, "seed {seed}: phantom path");
                        assert_eq!(p.first(), Some(&s));
                        assert_eq!(p.last(), Some(&t));
                    }
                }
            }
        }
    }
    println!("differential fuzz: {round} rounds, {queries} decoder queries, 0 disagreements");
}

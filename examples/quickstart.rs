//! Quickstart: build an f-FTC labeling, archive the labels as one blob,
//! serve connectivity queries under edge faults straight from the
//! archive — concurrently, without ever touching the graph again.
//!
//! Run with: `cargo run --release --example quickstart`

use ftc::core::store::{EdgeEncoding, LabelStore};
use ftc::core::{FtcScheme, Params, SessionScratch};
use ftc::graph::Graph;
use ftc::serve::ConnectivityService;

fn main() {
    // A 4×4 torus: every vertex has degree 4, the graph is 4-edge-connected.
    let g = Graph::torus(4, 4);
    println!("graph: n = {}, m = {}", g.n(), g.m());

    // Build the deterministic labeling for up to f = 3 simultaneous edge
    // faults (the paper's near-linear construction, Theorem 1 bullet 2).
    // The staged builder fans the label-encoding stage across one worker
    // per core; the labels are byte-identical for every thread count.
    let scheme = FtcScheme::builder(&g)
        .params(&Params::deterministic(3))
        .threads(0)
        .build()
        .expect("build");
    let size = scheme.size_report();
    println!(
        "labels: {} bits/vertex, {} bits/edge (k = {}, {} hierarchy levels)",
        size.vertex_bits, size.edge_bits, size.k, size.levels
    );

    // Archive the whole labeling as a single indexed blob — the unit you
    // ship to serving processes (`ftc-cli build` writes exactly this).
    // One validation pass, then O(1)/O(log m) zero-copy label views
    // with no per-label allocation.
    let store = LabelStore::archive(scheme.labels(), EdgeEncoding::Compact);
    println!(
        "archive: {} bytes (compact edge encoding)",
        store.archive_bytes()
    );

    // Three faults around vertex 0 — the torus stays connected. Faults
    // are named by endpoint pairs; the archive's index resolves them.
    // The session's buffers come from a scratch a later build can reuse.
    let mut scratch = SessionScratch::new();
    let session = store
        .session_in([(0, 1), (0, 4), (0, 12)], &mut scratch)
        .expect("well-formed fault set");
    let ok = session
        .connected(store.vertex(0).unwrap(), store.vertex(10).unwrap())
        .expect("well-formed query");
    println!("0 ↔ 10 with 3 faults around vertex 0: connected = {ok}");
    assert!(ok);

    // Serve the same archive to many threads through one handle: the
    // service takes the store's blob over without copying it, is Send +
    // Sync + Clone, and every query draws its session scratch from an
    // internal lock-free pool.
    let service = ConnectivityService::from_store(store);
    std::thread::scope(|s| {
        for worker in 0..4 {
            let service = service.clone();
            s.spawn(move || {
                let answers = service
                    .query(&[(0, 1), (0, 4), (0, 12)], &[(0, 10), (5, 9)])
                    .expect("well-formed queries");
                assert!(answers.all_connected());
                println!("worker {worker}: both pairs connected under 3 faults");
            });
        }
    });

    let labels = scheme.labels();

    // Cut all four edges of vertex 0? That needs f = 4; with our f = 3
    // budget the decoder reports the violation instead of guessing.
    let err = labels
        .session([
            labels.edge_label(0, 1).unwrap(),
            labels.edge_label(0, 4).unwrap(),
            labels.edge_label(0, 12).unwrap(),
            labels.edge_label(0, 3).unwrap(),
        ])
        .unwrap_err();
    println!("four faults against an f = 3 labeling: {err}");

    // Rebuild with f = 4 and isolate vertex 0 for real.
    let scheme4 = FtcScheme::build(&g, &Params::deterministic(4)).expect("build");
    let l4 = scheme4.labels();
    let isolate = l4
        .session([
            l4.edge_label(0, 1).unwrap(),
            l4.edge_label(0, 4).unwrap(),
            l4.edge_label(0, 12).unwrap(),
            l4.edge_label(0, 3).unwrap(),
        ])
        .unwrap();
    let ok = isolate
        .connected(l4.vertex_label(0), l4.vertex_label(10))
        .unwrap();
    println!("0 ↔ 10 with vertex 0 fully cut off: connected = {ok}");
    assert!(!ok);
    let ok = isolate
        .connected(l4.vertex_label(5), l4.vertex_label(10))
        .unwrap();
    println!("5 ↔ 10 with the same faults: connected = {ok}");
    assert!(ok);
}

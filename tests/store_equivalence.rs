//! Differential tests for the label-archive API: for random graphs and
//! fault sets, a [`ftc::core::store::LabelStore`] session (over
//! either edge encoding) must agree with the owned
//! [`ftc::core::LabelSet`] session and with the ground-truth BFS oracle
//! on every pair; multi-threaded `SchemeBuilder` builds must produce
//! byte-identical archives to single-threaded ones; every archived edge
//! must read, in either container format, exactly as its owned label;
//! and a router reconstituted from an archive must route exactly like
//! the one that built the labels.

use ftc::core::ancestry::AncestryLabel;
use ftc::core::compressed::{compress_archive, AnyArchive};
use ftc::core::serial::{edge_to_bytes, EdgeLabelView};
use ftc::core::store::{EdgeEncoding, LabelStore, StoreError};
use ftc::core::{EdgeLabelRead, FtcScheme, Params, SessionScratch};
use ftc::graph::{connectivity, generators, Graph};
use ftc::routing::ForbiddenSetRouter;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Archive session ≡ owned session ≡ BFS oracle, across random
    /// graphs, fault sets (including the empty set), and both edge
    /// encodings.
    #[test]
    fn archive_session_equals_owned_session_equals_oracle(
        n in 6usize..=18,
        extra in 0usize..=10,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        fsize in 0usize..=2,
    ) {
        let max_extra = n * (n - 1) / 2 - (n - 1);
        let g = generators::random_connected(n, extra.min(max_extra), seed);
        let fset = generators::random_fault_set(&g, fsize.min(g.m()), fault_seed);
        let endpoints: Vec<(usize, usize)> = g.edge_iter().map(|(_, u, v)| (u, v)).collect();
        let fault_pairs: Vec<(usize, usize)> = fset.iter().map(|&e| endpoints[e]).collect();
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = scheme.labels();
        let owned = l.session(fset.iter().map(|&e| l.edge_label_by_id(e))).unwrap();
        let mut scratch = SessionScratch::new();
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            let view = LabelStore::archive(l, encoding);
            let archived = view.session_in(fault_pairs.iter().copied(), &mut scratch).unwrap();
            for s in 0..g.n() {
                for t in 0..g.n() {
                    let oracle = connectivity::connected_avoiding(&g, s, t, &fset);
                    let via_owned =
                        owned.connected(l.vertex_label(s), l.vertex_label(t)).unwrap();
                    let via_archive = archived
                        .connected(view.vertex(s).unwrap(), view.vertex(t).unwrap())
                        .unwrap();
                    prop_assert_eq!(via_owned, oracle, "owned vs oracle at ({}, {})", s, t);
                    prop_assert_eq!(
                        via_archive, oracle,
                        "{:?} archive vs oracle at ({}, {})", encoding, s, t
                    );
                }
            }
        }
    }

    /// A multi-threaded `SchemeBuilder` build must produce archives
    /// byte-identical to the single-threaded one, for both encodings.
    #[test]
    fn threaded_builds_produce_identical_archives(
        n in 8usize..=24,
        extra in 0usize..=12,
        seed in any::<u64>(),
        threads in 2usize..=8,
    ) {
        let max_extra = n * (n - 1) / 2 - (n - 1);
        let g = generators::random_connected(n, extra.min(max_extra), seed);
        let p = Params::deterministic(2);
        let serial = FtcScheme::builder(&g).params(&p).threads(1).build().unwrap();
        let parallel = FtcScheme::builder(&g).params(&p).threads(threads).build().unwrap();
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            prop_assert_eq!(
                LabelStore::to_vec(serial.labels(), encoding),
                LabelStore::to_vec(parallel.labels(), encoding)
            );
        }
    }
}

/// What a session reads of an edge label: its ancestry pair, its slab
/// width, and its slab words XORed over a fixed non-zero pattern (so an
/// overwrite cannot pass for an XOR).
fn edge_reads(label: &impl EdgeLabelRead) -> (AncestryLabel, AncestryLabel, usize, Vec<u64>) {
    let mut slab: Vec<u64> = (0..label.slab_words() as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    label.xor_into_slab(&mut slab);
    (
        label.anc_upper(),
        label.anc_lower(),
        label.slab_words(),
        slab,
    )
}

/// Every edge of a seeded labeling with several components reads through
/// the one `EdgeLabelView` — over its loose label bytes, its v1 record
/// and its v2 sections, under both encodings — exactly as its owned
/// `EdgeLabel`; and both archive formats refuse the first out-of-range
/// edge ID with the same typed error.
#[test]
fn archived_edge_views_read_like_owned_labels_in_both_formats() {
    // Three seeded components and an isolated vertex; the largest has
    // enough non-tree edges for a second hierarchy level, so rows are
    // read at more than one level.
    let (mut n, mut edges) = (0, Vec::new());
    for (size, extra, seed) in [(60, 120, 1u64), (30, 15, 2), (5, 0, 3)] {
        let piece = generators::random_connected(size, extra, seed);
        edges.extend(piece.edge_iter().map(|(_, u, v)| (n + u, n + v)));
        n += size;
    }
    let g = Graph::from_edges(n + 1, &edges);
    let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
    let l = scheme.labels();
    let m = g.m();
    for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
        for e in 0..m {
            let loose = edge_to_bytes(l.edge_label_by_id(e), encoding);
            assert_eq!(
                edge_reads(&EdgeLabelView::new(&loose).unwrap()),
                edge_reads(l.edge_label_by_id(e)),
                "{encoding:?} loose edge {e}"
            );
        }
        let v1 = LabelStore::to_vec(l, encoding);
        let v2 = compress_archive(&LabelStore::open(v1.clone()).unwrap()).into_vec();
        let mut refusals = Vec::new();
        for bytes in [v1, v2] {
            let archive = AnyArchive::open(bytes).unwrap();
            assert!(archive.levels() >= 2, "{} levels", archive.levels());
            for e in 0..m {
                let view = archive.edge_by_id(e).unwrap().unwrap();
                assert_eq!(
                    edge_reads(&view),
                    edge_reads(l.edge_label_by_id(e)),
                    "{encoding:?} edge {e} of {archive:?}"
                );
            }
            assert!(archive.edge_by_id(m).unwrap().is_none());
            let refused = archive
                .session_in_by_ids([m], &mut SessionScratch::new())
                .unwrap_err();
            refusals.push(refused);
        }
        assert_eq!(
            refusals,
            [
                StoreError::UnknownEdgeId { id: m },
                StoreError::UnknownEdgeId { id: m }
            ],
            "{encoding:?}"
        );
    }
}

/// A router reconstituted from a stored archive answers every route
/// exactly like the router that built the labels.
#[test]
fn reconstituted_router_equals_built_router() {
    let g = generators::random_connected(18, 14, 11);
    let built = ForbiddenSetRouter::new(&g, 2).unwrap();
    let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
    let blob = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Full);
    let archive = AnyArchive::open(blob).unwrap();
    let restored = ForbiddenSetRouter::from_store(&g, &archive).unwrap();
    for seed in 0..6u64 {
        let fset = generators::random_fault_set(&g, 2, seed);
        for s in 0..g.n() {
            for t in 0..g.n() {
                assert_eq!(
                    restored.route(s, t, &fset).unwrap(),
                    built.route(s, t, &fset).unwrap(),
                    "({s},{t},{fset:?})"
                );
            }
        }
    }
}

//! Differential property tests for the session query API: for random
//! graphs, hierarchy backends, and fault sets, the reusable
//! [`QuerySession`] must agree with the ground-truth BFS oracle on every
//! pair — and zero-copy label-view decoding over serialized bytes must
//! agree with owned-label decoding bit-for-bit.

use ftc::core::serial::{edge_to_bytes, vertex_to_bytes, EdgeLabelView, VertexLabelView};
use ftc::core::{EdgeEncoding, FtcScheme, Params, QuerySession};
use ftc::graph::{connectivity, generators};
use proptest::prelude::*;

fn backends(seed: u64) -> [Params; 3] {
    [
        Params::deterministic(2),
        Params::deterministic_poly(2),
        Params::randomized(2, seed),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// QuerySession ≡ BFS oracle, across random graphs, all hierarchy
    /// backends, and random fault sets (including the empty set).
    #[test]
    fn session_equals_oracle(
        n in 6usize..=18,
        extra in 0usize..=10,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        fsize in 0usize..=2,
    ) {
        let max_extra = n * (n - 1) / 2 - (n - 1);
        let g = generators::random_connected(n, extra.min(max_extra), seed);
        let fset = generators::random_fault_set(&g, fsize.min(g.m()), fault_seed);
        for params in backends(seed ^ 0x5e55) {
            let scheme = FtcScheme::build(&g, &params).unwrap();
            let l = scheme.labels();
            let session = l.session(fset.iter().map(|&e| l.edge_label_by_id(e))).unwrap();
            for s in 0..g.n() {
                for t in 0..g.n() {
                    let oracle = connectivity::connected_avoiding(&g, s, t, &fset);
                    let via_session =
                        session.connected(l.vertex_label(s), l.vertex_label(t)).unwrap();
                    prop_assert_eq!(via_session, oracle, "session vs oracle at ({}, {})", s, t);
                }
            }
        }
    }

    /// Certificates exist exactly when the pair is connected, and a
    /// per-session certificate never contradicts the oracle.
    #[test]
    fn certificates_agree_with_oracle(
        n in 6usize..=16,
        extra in 1usize..=8,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let max_extra = n * (n - 1) / 2 - (n - 1);
        let g = generators::random_connected(n, extra.min(max_extra), seed);
        let fset = generators::random_fault_set(&g, 2.min(g.m()), fault_seed);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = scheme.labels();
        let session = l.session(fset.iter().map(|&e| l.edge_label_by_id(e))).unwrap();
        for s in 0..g.n() {
            for t in 0..g.n() {
                let cert = session
                    .certified(l.vertex_label(s), l.vertex_label(t))
                    .unwrap();
                prop_assert_eq!(
                    cert.is_some(),
                    connectivity::connected_avoiding(&g, s, t, &fset)
                );
                // Certificate endpoints are valid pre-orders.
                if let Some(cert) = cert {
                    for &(pa, pb) in cert {
                        prop_assert!((pa as usize) < l.header().aux_n as usize);
                        prop_assert!((pb as usize) < l.header().aux_n as usize);
                    }
                }
            }
        }
    }

    /// Zero-copy `LabelView` decoding over serialized bytes agrees with
    /// owned-label decoding bit-for-bit on every query.
    #[test]
    fn view_decoding_agrees_bit_for_bit(
        n in 6usize..=16,
        extra in 0usize..=8,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let max_extra = n * (n - 1) / 2 - (n - 1);
        let g = generators::random_connected(n, extra.min(max_extra), seed);
        let fset = generators::random_fault_set(&g, 2.min(g.m()), fault_seed);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = scheme.labels();

        // Views must reproduce the owned labels exactly.
        let edge_bytes: Vec<Vec<u8>> =
            (0..g.m()).map(|e| edge_to_bytes(l.edge_label_by_id(e), EdgeEncoding::Full)).collect();
        let vertex_bytes: Vec<Vec<u8>> =
            (0..g.n()).map(|v| vertex_to_bytes(l.vertex_label(v))).collect();
        for (e, bytes) in edge_bytes.iter().enumerate() {
            let view = EdgeLabelView::new(bytes).unwrap();
            prop_assert_eq!(&view.to_label(), l.edge_label_by_id(e));
        }
        for (v, bytes) in vertex_bytes.iter().enumerate() {
            let view = VertexLabelView::new(bytes).unwrap();
            prop_assert_eq!(&view.to_label(), l.vertex_label(v));
        }

        // And whole-query decoding straight from bytes must agree with the
        // owned-label session on every pair.
        let owned = l.session(fset.iter().map(|&e| l.edge_label_by_id(e))).unwrap();
        let views: Vec<EdgeLabelView> = fset
            .iter()
            .map(|&e| EdgeLabelView::new(&edge_bytes[e]).unwrap())
            .collect();
        let from_bytes = QuerySession::new(l.header(), views).unwrap();
        for s in 0..g.n() {
            for t in 0..g.n() {
                let vv_s = VertexLabelView::new(&vertex_bytes[s]).unwrap();
                let vv_t = VertexLabelView::new(&vertex_bytes[t]).unwrap();
                prop_assert_eq!(
                    from_bytes.connected(vv_s, vv_t).unwrap(),
                    owned.connected(l.vertex_label(s), l.vertex_label(t)).unwrap(),
                    "byte-view session diverged at ({}, {})", s, t
                );
            }
        }
    }
}

/// Empty fault sets are valid prepared states and answer via ancestry
/// component equality, agreeing with the oracle on every pair.
#[test]
fn empty_fault_sets_answer_component_equality() {
    let g = generators::random_connected(20, 24, 17);
    let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
    let l = scheme.labels();
    let session = l
        .session([] as [&ftc::core::EdgeLabel<ftc::core::RsVector>; 0])
        .unwrap();
    assert_eq!(session.num_faults(), 0);
    for s in 0..g.n() {
        for t in 0..g.n() {
            assert_eq!(
                session
                    .connected(l.vertex_label(s), l.vertex_label(t))
                    .unwrap(),
                connectivity::connected_avoiding(&g, s, t, &[]),
            );
        }
    }
}

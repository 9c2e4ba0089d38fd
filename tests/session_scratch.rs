//! Differential property tests for the scratch-reusing session hot path:
//! a session built through a recycled [`SessionScratch`] must be
//! answer-identical (connectivity *and* certificates) to a freshly-built
//! one, across random graphs, sequences of fault sets with interleaved
//! sizes, and all three label sources (owned labels, full archive views,
//! compact archive views) — with one scratch shared across the whole
//! sequence, including across the two archive encodings.

use ftc::core::store::{EdgeEncoding, LabelStore};
use ftc::core::{FtcScheme, Params, SessionScratch};
use ftc::graph::{connectivity, generators};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn scratch_reused_sessions_are_answer_identical(
        n in 8usize..=18,
        extra in 0usize..=10,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let max_extra = n * (n - 1) / 2 - (n - 1);
        let g = generators::random_connected(n, extra.min(max_extra), seed);
        let scheme = FtcScheme::build(&g, &Params::deterministic(3)).unwrap();
        let l = scheme.labels();
        let view_full = LabelStore::archive(l, EdgeEncoding::Full);
        let view_compact = LabelStore::archive(l, EdgeEncoding::Compact);
        let endpoint_of: Vec<(usize, usize)> = g.edge_iter().map(|(_, u, v)| (u, v)).collect();

        // One scratch for the owned path, one shared by BOTH archive
        // views, reused across a sequence of interleaved fault-set sizes.
        let mut owned_scratch = SessionScratch::new();
        let mut archive_scratch = SessionScratch::new();
        for (round, fsize) in [3usize, 0, 1, 3, 2, 0, 3].into_iter().enumerate() {
            let fset = generators::random_fault_set(
                &g,
                fsize.min(g.m()),
                fault_seed.wrapping_add(round as u64),
            );
            let pairs: Vec<(usize, usize)> = fset.iter().map(|&e| endpoint_of[e]).collect();

            let fresh = l.session(fset.iter().map(|&e| l.edge_label_by_id(e))).unwrap();
            let reused = l
                .session_in(fset.iter().map(|&e| l.edge_label_by_id(e)), &mut owned_scratch)
                .unwrap();
            let from_full = view_full
                .session_in(pairs.iter().copied(), &mut archive_scratch)
                .unwrap();
            // The compact build reuses the same scratch the full build
            // just used (the detector reconfigures per build).
            let from_compact = view_compact
                .session_in(pairs.iter().copied(), &mut archive_scratch)
                .unwrap();

            for s in 0..g.n() {
                for t in 0..g.n() {
                    let want_cert = fresh
                        .certified(l.vertex_label(s), l.vertex_label(t))
                        .unwrap()
                        .map(<[(u32, u32)]>::to_vec);
                    let got = reused
                        .certified(l.vertex_label(s), l.vertex_label(t))
                        .unwrap()
                        .map(<[(u32, u32)]>::to_vec);
                    prop_assert_eq!(&got, &want_cert, "owned scratch at ({}, {})", s, t);
                    let vs = view_full.vertex(s).unwrap();
                    let vt = view_full.vertex(t).unwrap();
                    let got_full = from_full.certified(vs, vt).unwrap().map(<[(u32, u32)]>::to_vec);
                    prop_assert_eq!(&got_full, &want_cert, "full archive at ({}, {})", s, t);
                    let cs = view_compact.vertex(s).unwrap();
                    let ct = view_compact.vertex(t).unwrap();
                    let got_compact =
                        from_compact.certified(cs, ct).unwrap().map(<[(u32, u32)]>::to_vec);
                    prop_assert_eq!(&got_compact, &want_cert, "compact archive at ({}, {})", s, t);
                    // And all of it anchored to the ground-truth oracle.
                    prop_assert_eq!(
                        want_cert.is_some(),
                        connectivity::connected_avoiding(&g, s, t, &fset),
                        "oracle at ({}, {})", s, t
                    );
                }
            }
            owned_scratch.recycle(reused);
            archive_scratch.recycle(from_full);
            archive_scratch.recycle(from_compact);
        }
    }

    /// Batched queries agree with single queries on every source.
    #[test]
    fn connected_many_matches_connected(
        n in 8usize..=16,
        extra in 0usize..=8,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let max_extra = n * (n - 1) / 2 - (n - 1);
        let g = generators::random_connected(n, extra.min(max_extra), seed);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let l = scheme.labels();
        let fset = generators::random_fault_set(&g, 2.min(g.m()), fault_seed);
        let session = l.session(fset.iter().map(|&e| l.edge_label_by_id(e))).unwrap();
        let pairs: Vec<_> = (0..g.n())
            .flat_map(|s| (0..g.n()).map(move |t| (s, t)))
            .map(|(s, t)| (l.vertex_label(s), l.vertex_label(t)))
            .collect();
        let mut out = Vec::new();
        session.connected_many(&pairs, &mut out).unwrap();
        prop_assert_eq!(out.len(), pairs.len());
        for ((s, t), &got) in pairs.iter().zip(&out) {
            prop_assert_eq!(got, session.connected(s, t).unwrap());
        }
    }
}

//! The batch answer path of `ConnectivityService::query` against the
//! per-pair path and the BFS oracle, plus the error order it must keep.
//!
//! `query` resolves every pair through one read of the archive's vertex
//! records and one pooled session; `PooledSession::connected` /
//! `PooledSession::certified` answer one pair at a time. Both must agree with
//! each other — certificates included — and with breadth-first search,
//! over every archive source ({v1, v2} × {Full, Compact}) and fault sets
//! of every size up to the budget.

use ftc_core::compressed::compress_archive;
use ftc_core::store::{EdgeEncoding, LabelStore};
use ftc_core::{Certificate, FtcScheme, Params, QueryError};
use ftc_graph::connectivity::ConnectivityOracle;
use ftc_graph::{generators, Graph};
use ftc_serve::{ConnectivityService, ServeError};

const F: usize = 3;

/// Three components: a 3×4 torus on 0..12, a 6-cycle with a chord on
/// 12..18, and the isolated vertex 18.
fn three_components() -> Graph {
    let torus = Graph::torus(3, 4);
    let mut edges: Vec<(usize, usize)> = torus.edge_iter().map(|(_, u, v)| (u, v)).collect();
    edges.extend((0..6).map(|i| (12 + i, 12 + (i + 1) % 6)));
    edges.push((12, 15));
    Graph::from_edges(19, &edges)
}

/// The labeling of `g` served from every archive source.
fn sources(g: &Graph) -> Vec<(String, ConnectivityService)> {
    let scheme = FtcScheme::build(g, &Params::deterministic(F)).unwrap();
    let mut out = Vec::new();
    for enc in [EdgeEncoding::Full, EdgeEncoding::Compact] {
        let v1 = LabelStore::to_vec(scheme.labels(), enc);
        let v2 = compress_archive(&LabelStore::open(v1.clone()).unwrap()).into_vec();
        for (format, bytes) in [("v1", v1), ("v2", v2)] {
            let svc = ConnectivityService::from_archive_bytes(bytes).unwrap();
            out.push((format!("{format}/{enc:?}"), svc));
        }
    }
    out
}

/// Fault sets of every size `0..=F`: some confined to the torus (so the
/// cycle stays fault-free), some cutting the cycle too, some drawn from
/// the whole graph.
fn fault_sets(g: &Graph) -> Vec<Vec<(usize, usize)>> {
    let torus = Graph::torus(3, 4);
    let endpoints = |h: &Graph, ids: Vec<usize>| -> Vec<(usize, usize)> {
        let all: Vec<(usize, usize)> = h.edge_iter().map(|(_, u, v)| (u, v)).collect();
        ids.into_iter().map(|e| all[e]).collect()
    };
    let mut sets = Vec::new();
    for k in 0..=F {
        for seed in 0..3u64 {
            sets.push(endpoints(
                &torus,
                generators::random_fault_set(&torus, k, seed),
            ));
            sets.push(endpoints(g, generators::random_fault_set(g, k, seed + 7)));
            if k > 0 {
                let mut set = endpoints(&torus, generators::random_fault_set(&torus, k - 1, seed));
                let u = 12 + seed as usize;
                set.push((u, u + 1));
                sets.push(set);
            }
        }
    }
    sets
}

#[test]
fn batch_answers_match_per_pair_answers_and_the_oracle() {
    let g = three_components();
    let sources = sources(&g);
    let comp = |v: usize| match v {
        0..=11 => 0,
        12..=17 => 1,
        _ => 2,
    };
    // Every ordered pair, in a scrambled order so trivial and decoder
    // pairs interleave: same-vertex, cross-component, pairs in a
    // fault-free component and pairs in a faulted one.
    let n = g.n();
    let pairs: Vec<(usize, usize)> = (0..n * n)
        .map(|i| (i * 97 + 5) % (n * n))
        .map(|i| (i / n, i % n))
        .collect();
    assert!(pairs.iter().any(|&(s, t)| s == t));
    assert!(pairs.iter().any(|&(s, t)| comp(s) != comp(t)));

    let mut oracle = ConnectivityOracle::new(&g);
    let mut shapes = [false; 2];
    for faults in fault_sets(&g) {
        oracle.prepare_pairs(&faults);
        let want: Vec<bool> = pairs.iter().map(|&(s, t)| oracle.connected(s, t)).collect();
        let cycle_faulted = faults.iter().any(|&(u, _)| comp(u) == 1);
        shapes[usize::from(cycle_faulted)] = true;
        let mut first_certs: Option<Vec<Option<Certificate>>> = None;
        for (name, svc) in &sources {
            let got = svc.query(&faults, &pairs).unwrap();
            assert_eq!(got.as_slice(), &want[..], "{name} {faults:?}");
            let certs = svc.query_certified(&faults, &pairs).unwrap();
            let (one_by_one, certs_one_by_one) = svc
                .with_session(&faults, |served| {
                    let answers: Vec<bool> = pairs
                        .iter()
                        .map(|&(s, t)| served.connected(s, t).unwrap())
                        .collect();
                    let certs: Vec<Option<Certificate>> = pairs
                        .iter()
                        .map(|&(s, t)| served.certified(s, t).unwrap().map(<[_]>::to_vec))
                        .collect();
                    (answers, certs)
                })
                .unwrap();
            assert_eq!(one_by_one, want, "{name} {faults:?}");
            assert_eq!(certs, certs_one_by_one, "{name} {faults:?}");
            // Every source serves one labeling: certificates agree too.
            match &first_certs {
                None => first_certs = Some(certs),
                Some(first) => assert_eq!(&certs, first, "{name} {faults:?}"),
            }
        }
    }
    assert_eq!(shapes, [true, true], "both fault-free and faulted cycles");
}

#[test]
fn the_first_out_of_range_vertex_in_pair_order_wins() {
    let g = three_components();
    for (name, svc) in sources(&g) {
        let oor = |v| Err(ServeError::VertexOutOfRange { v });
        let query = |pairs: &[(usize, usize)]| svc.query(&[(0, 1)], pairs).map(|a| a.into_vec());
        // `s` before `t`, and an earlier pair before a later one.
        assert_eq!(query(&[(0, 1), (97, 99), (98, 2)]), oor(97), "{name}");
        assert_eq!(query(&[(0, 1), (2, 99), (98, 3)]), oor(99), "{name}");
        assert_eq!(query(&[(50, 1), (2, 99)]), oor(50), "{name}");
        // Range errors come before the fault budget is checked.
        let too_many = [(0, 1), (1, 2), (2, 3), (4, 5)];
        assert_eq!(
            svc.query(&too_many, &[(0, 5), (0, 99)])
                .map(|a| a.into_vec()),
            oor(99),
            "{name}"
        );
        assert_eq!(
            svc.query_certified(&[], &[(0, 5), (40, 1)]),
            Err(ServeError::VertexOutOfRange { v: 40 }),
            "{name}"
        );
    }
}

#[test]
fn faults_and_budget_errors_keep_their_order() {
    let g = three_components();
    let too_many = [(0, 1), (1, 2), (2, 3), (4, 5)];
    for (name, svc) in sources(&g) {
        // An unknown fault errors even when every pair is trivial.
        assert_eq!(
            svc.query(&[(0, 1), (0, 18)], &[(3, 3), (0, 12)]),
            Err(ServeError::UnknownEdge { u: 0, v: 18 }),
            "{name}"
        );
        // Over budget: trivial pairs (same vertex, cross-component,
        // isolated vertex) still answer…
        let trivial = [(5, 5), (0, 12), (18, 3), (18, 18)];
        assert_eq!(
            svc.query(&too_many, &trivial).unwrap().as_slice(),
            &[true, false, false, true],
            "{name}"
        );
        let certs = svc.query_certified(&too_many, &trivial).unwrap();
        assert_eq!(certs, vec![Some(vec![]), None, None, Some(vec![])]);
        // …and the budget error surfaces once some pair is nontrivial,
        // wherever it sits in the list.
        for pairs in [&[(0, 5)][..], &[(5, 5), (0, 12), (0, 5)], &[(0, 5), (5, 5)]] {
            assert_eq!(
                svc.query(&too_many, pairs),
                Err(ServeError::Query(QueryError::TooManyFaults {
                    supplied: 4,
                    budget: F,
                })),
                "{name} {pairs:?}"
            );
        }
    }
}

#[test]
fn a_corrupt_vertex_section_never_answers() {
    let g = three_components();
    let scheme = FtcScheme::build(&g, &Params::deterministic(F)).unwrap();
    let v1 = LabelStore::archive(scheme.labels(), EdgeEncoding::Full);
    let v2 = compress_archive(&v1);
    // Payloads follow the 44-byte archive header, the 32-byte table
    // entries and the 8-byte table checksum, in table order: the
    // endpoint index, then the vertex records.
    let lens: Vec<usize> = v2.sections().map(|s| s.comp_len).collect();
    let vertices_at = 44 + 32 * lens.len() + 8 + lens[0];
    let mut bytes = v2.into_vec();
    bytes[vertices_at + lens[1] / 2] ^= 0x40;
    let svc = ConnectivityService::from_archive_bytes(bytes).unwrap();
    let corrupt = |r: Result<Vec<bool>, ServeError>| matches!(r, Err(ServeError::Corrupt(_)));
    let query = |faults: &[(usize, usize)], pairs: &[(usize, usize)]| {
        svc.query(faults, pairs).map(|a| a.into_vec())
    };
    // Empty faults with all-trivial pairs, trivial and decoder pairs
    // under faults, and a later pair out of range.
    assert!(corrupt(query(&[], &[(3, 3), (0, 12), (18, 18)])));
    assert!(corrupt(query(&[(0, 1)], &[(0, 5), (3, 3)])));
    assert!(corrupt(query(&[], &[(0, 5), (0, 99)])));
    assert!(matches!(
        svc.query_certified(&[], &[(4, 4)]),
        Err(ServeError::Corrupt(_))
    ));
    // A first vertex out of range is reported as such: the section is
    // touched only by a vertex in range.
    assert_eq!(
        query(&[], &[(99, 0), (0, 5)]),
        Err(ServeError::VertexOutOfRange { v: 99 })
    );
    // No pairs, nothing to answer.
    assert_eq!(query(&[(0, 1)], &[]), Ok(vec![]));
    // The per-pair path reports the same.
    assert!(matches!(
        svc.with_session(&[], |served| served.connected(3, 3)),
        Ok(Err(ServeError::Corrupt(_)))
    ));
    assert!(matches!(
        svc.trivial_answer(0, 12),
        Err(ServeError::Corrupt(_))
    ));
}

//! Differential churn validation of `ftc-dyn` at serving scale: a
//! 20 000-vertex graph absorbs a seeded stream of edge insertions and
//! deletions (chord churn on the fast path, tree-edge deletions through
//! the structural rebuild), and every few operations the scheme commits.
//! Each committed archive is re-validated from its raw bytes by a fresh
//! [`LabelStore::open`] — the patch writer gets no trusted-path
//! shortcut here — then swapped into a [`ServiceRegistry`] (generations
//! must advance) and queried against the BFS-backed
//! [`ConnectivityOracle`] tracking the same churn. A final sweep pins the
//! churned scheme differentially equal to a from-scratch
//! [`DynamicScheme`] of the ending edge set.
//!
//! Debug builds skip this (O(minutes) unoptimized); CI runs it in
//! release.

use ftc::core::store::LabelStore;
use ftc::dyn_::{DynConfig, DynamicScheme};
use ftc::graph::connectivity::ConnectivityOracle;
use ftc::graph::{generators, Graph};
use ftc::serve::{ConnectivityService, ServiceRegistry};

const N: usize = 20_000;

fn rng_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Queries `service` and `oracle` over the same pair/fault sweep and
/// asserts they agree everywhere.
fn differential_sweep(
    service: &ConnectivityService,
    oracle: &mut ConnectivityOracle<'_>,
    live: &[(usize, usize)],
    rng: &mut u64,
) {
    let queries: Vec<(usize, usize)> = (0..48)
        .map(|_| (rng_next(rng) as usize % N, rng_next(rng) as usize % N))
        .collect();
    let mut fault_sets: Vec<Vec<(usize, usize)>> = vec![vec![]];
    for _ in 0..8 {
        let a = live[rng_next(rng) as usize % live.len()];
        let b = live[rng_next(rng) as usize % live.len()];
        fault_sets.push(vec![a]);
        if a != b {
            fault_sets.push(vec![a, b]);
        }
    }
    for faults in &fault_sets {
        oracle.prepare_pairs(faults);
        let answers = service
            .query(faults, &queries)
            .expect("decode within budget");
        for (&(s, t), got) in queries.iter().zip(&answers) {
            assert_eq!(
                got,
                oracle.connected(s, t),
                "faults {faults:?}, pair ({s},{t})"
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "large differential churn; run in release")]
fn dynamic_churn_matches_oracle_at_scale() {
    let g = generators::random_connected(N, 10_000, 4242);
    let mut cfg = DynConfig::new(2, 24);
    cfg.seed = 4242;
    let mut scheme = DynamicScheme::new(&g, cfg).unwrap();
    let mut oracle = ConnectivityOracle::new(&g);
    let mut live: Vec<(usize, usize)> = scheme.edge_pairs().collect();

    let registry = ServiceRegistry::new();
    let mut last_gen = registry.swap("churn", scheme.commit_service());
    let mut rng: u64 = 0x5EED_CAFE;

    for round in 1..=24 {
        // Delete one random live edge (tree edges land in the structural
        // slow path, chords in the XOR fast path) ...
        let victim = live.swap_remove(rng_next(&mut rng) as usize % live.len());
        scheme.delete_edge(victim.0, victim.1).unwrap();
        assert!(oracle.remove_edge(victim.0, victim.1));
        // ... and insert one random absent pair. Both stay connected with
        // overwhelming probability at this density, but the scheme does
        // not rely on it (a component merge is just another rebuild).
        loop {
            let (u, v) = (
                rng_next(&mut rng) as usize % N,
                rng_next(&mut rng) as usize % N,
            );
            if u == v || scheme.has_edge(u, v) {
                continue;
            }
            scheme.insert_edge(u, v).unwrap();
            oracle.add_edge(u, v);
            live.push((u.min(v), u.max(v)));
            break;
        }

        if round % 6 == 0 {
            // Commit, byte-validate from scratch, swap into the registry,
            // and differentially verify the served answers.
            let store = scheme.commit();
            let fresh = LabelStore::open(store.as_bytes().to_vec())
                .expect("patched archive must re-validate from raw bytes");
            assert_eq!(fresh.n(), N);
            assert_eq!(fresh.m(), live.len());
            let generation = registry.swap("churn", ConnectivityService::from_store(store));
            assert!(generation > last_gen, "registry generations must advance");
            last_gen = generation;
            let service = registry.get("churn").unwrap();
            differential_sweep(&service, &mut oracle, &live, &mut rng);
        }
    }

    let stats = scheme.stats();
    assert!(stats.incremental_ops > 0, "{stats:?}");
    assert!(
        stats.structural_rebuilds >= 1,
        "the seeded stream must hit at least one tree-edge deletion: {stats:?}"
    );

    // The churned scheme must be differentially equal to a from-scratch
    // dynamic build of the ending edge set (the archives themselves may
    // order rows and draw levels differently).
    let ending = Graph::from_edges(N, &live);
    let mut rebuilt = DynamicScheme::new(&ending, cfg).unwrap();
    let churned_service = scheme.commit_service();
    let rebuilt_service = rebuilt.commit_service();
    let mut ending_oracle = ConnectivityOracle::new(&ending);
    let mut rng2 = rng;
    differential_sweep(&churned_service, &mut ending_oracle, &live, &mut rng);
    differential_sweep(&rebuilt_service, &mut ending_oracle, &live, &mut rng2);
}

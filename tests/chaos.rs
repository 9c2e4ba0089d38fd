//! Seeded fault-injection integration: resilient clients query a real
//! server through the chaos proxy (connection resets, byte corruption,
//! stalled writes) while checking every answer against the BFS oracle.
//! The contract: chaos surfaces as typed errors or transparent
//! recovery — never a wrong answer, a desynced stream, or a hang.

use ftc::core::store::{EdgeEncoding, LabelStore};
use ftc::core::{FtcScheme, Params};
use ftc::graph::{connectivity, generators, Graph};
use ftc::net::chaos::{ChaosConfig, ChaosProxy};
use ftc::net::client::{Client, ClientConfig, ClientError};
use ftc::net::server::{Server, ServerConfig, ServerHandle};
use ftc::serve::{ConnectivityService, ServiceRegistry};
use std::sync::Arc;
use std::time::Duration;

fn service_of(g: &Graph, f: usize) -> ConnectivityService {
    let scheme = FtcScheme::build(g, &Params::deterministic(f)).unwrap();
    let blob = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Full);
    ConnectivityService::from_archive_bytes(blob).unwrap()
}

fn spawn(
    registry: Arc<ServiceRegistry>,
) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(
        registry,
        "127.0.0.1:0",
        ServerConfig {
            read_poll: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

/// Resilient clients under randomized (but seeded) resets, corruption,
/// and stalls: every completed answer must match the BFS oracle, and
/// every client must complete its full workload — the retry layer makes
/// injected chaos invisible above it.
#[test]
fn resilient_clients_survive_chaos_with_correct_answers() {
    let g = generators::random_connected(30, 45, 5);
    let registry = Arc::new(ServiceRegistry::new());
    registry.insert("g", service_of(&g, 2));
    let (handle, join) = spawn(registry);

    let mut proxy = ChaosProxy::spawn(
        handle.addr(),
        ChaosConfig {
            seed: 0xFEED_FACE,
            reset_per_10k: 150,
            corrupt_per_10k: 300,
            stall_per_10k: 300,
            stall: Duration::from_millis(1),
        },
    )
    .unwrap();
    let proxy_addr = proxy.addr();

    let all: Vec<(usize, usize)> = g.edge_iter().map(|(_, u, v)| (u, v)).collect();
    std::thread::scope(|scope| {
        for worker in 0..3usize {
            let (g, all) = (&g, &all);
            scope.spawn(move || {
                let config = ClientConfig {
                    retries: 32,
                    jitter_seed: 0xFEED_FACE ^ worker as u64,
                    read_timeout: Some(Duration::from_secs(2)),
                    write_timeout: Some(Duration::from_secs(2)),
                    ..ClientConfig::default()
                };
                let mut client = Client::connect_with(proxy_addr, config).unwrap();
                for i in 0..120usize {
                    let fset = generators::random_fault_set(g, 2, (worker * 131 + i) as u64);
                    let endpoints: Vec<(usize, usize)> = fset.iter().map(|&e| all[e]).collect();
                    let pairs = [(i % g.n(), (i * 3 + worker) % g.n())];
                    let answers = client
                        .query("g", &endpoints, &pairs)
                        .expect("the retry budget absorbs injected chaos");
                    let want = connectivity::connected_avoiding(g, pairs[0].0, pairs[0].1, &fset);
                    assert_eq!(answers, vec![want], "wrong answer under chaos");
                }
            });
        }
    });

    let chaos = proxy.stats();
    assert!(chaos.forwarded_bytes > 0);
    proxy.shutdown();
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// With a 100% corruption rate and no retry budget, a query must fail
/// with a *typed* error — a corrupted request surfaces as a
/// connection-level rejection, a corrupted response as a checksum
/// mismatch — and must never return a wrong answer or hang.
#[test]
fn corruption_without_retries_is_a_typed_error_never_a_wrong_answer() {
    let g = Graph::torus(3, 4);
    let registry = Arc::new(ServiceRegistry::new());
    registry.insert("g", service_of(&g, 2));
    let (handle, join) = spawn(registry);

    let mut proxy = ChaosProxy::spawn(
        handle.addr(),
        ChaosConfig {
            seed: 7,
            reset_per_10k: 0,
            corrupt_per_10k: 10_000, // every chunk gets one byte flipped
            stall_per_10k: 0,
            stall: Duration::from_millis(0),
        },
    )
    .unwrap();

    let config = ClientConfig {
        read_timeout: Some(Duration::from_secs(2)),
        ..ClientConfig::default() // retries = 0
    };
    let mut client = Client::connect_with(proxy.addr(), config).unwrap();
    match client.query("g", &[(0, 1)], &[(0, 7)]) {
        Ok(_) => panic!("a corrupted exchange cannot produce an answer"),
        Err(ClientError::Io(_) | ClientError::Proto(_)) => {} // typed, attributable
        Err(e) => panic!("unexpected error class under corruption: {e}"),
    }

    proxy.shutdown();
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The same seed injects the same faults: two proxies over the same
/// workload report identical injection counters. The proxy rolls its
/// dice once per frame and the client runs one connection at a time, so
/// neither TCP chunking nor scheduling can change a decision.
#[test]
fn chaos_decisions_are_reproducible_for_a_seed() {
    let g = Graph::torus(3, 4);
    let registry = Arc::new(ServiceRegistry::new());
    registry.insert("g", service_of(&g, 2));
    let (handle, join) = spawn(registry);

    let run = |seed: u64| {
        let mut proxy = ChaosProxy::spawn(
            handle.addr(),
            ChaosConfig {
                seed,
                reset_per_10k: 0, // resets would abort the fixed workload
                corrupt_per_10k: 2_000,
                stall_per_10k: 0,
                stall: Duration::from_millis(0),
            },
        )
        .unwrap();
        let config = ClientConfig {
            retries: 64,
            jitter_seed: seed,
            backoff_base: Duration::from_millis(1),
            read_timeout: Some(Duration::from_secs(2)),
            ..ClientConfig::default()
        };
        let mut client = Client::connect_with(proxy.addr(), config).unwrap();
        for i in 0..40usize {
            let answers = client
                .query("g", &[(0, 1)], &[(i % 12, (i * 5) % 12)])
                .unwrap();
            assert_eq!(answers.len(), 1);
        }
        drop(client);
        // Shutdown joins the pumps, so every counter is final.
        proxy.shutdown();
        proxy.stats()
    };

    let a = run(42);
    let b = run(42);
    let c = run(43);
    assert!(a.corrupted_bytes > 0, "the workload must see corruption");
    assert_eq!(a, b, "same seed must inject identically");
    // A different seed is allowed to differ (and with these rates, does
    // not have to) — just confirm the runs completed.
    assert!(c.forwarded_bytes > 0);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

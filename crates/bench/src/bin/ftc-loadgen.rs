//! `ftc-loadgen` — drive open- or closed-loop query load at an
//! `ftc-server` and report latency histograms.
//!
//! ```text
//! ftc-loadgen [--quick] [--addr HOST:PORT] [--graph-id ID] [--out PATH]
//!             [--emit-graph PATH] [--overload] [--chaos] [--chaos-seed N]
//! ```
//!
//! Without `--addr` the loadgen spawns an in-process server over the
//! deterministic workload graph (loopback, archive-backed service —
//! the same serving path as the standalone binary) and reports the
//! server's coalescer counters per scenario. With `--addr` it drives an
//! external server that must have the workload archive registered under
//! `--graph-id` (default `loadgen`); `--emit-graph PATH` writes that
//! graph's edge list for `ftc-cli build` and exits.
//!
//! The default run measures a fixed scenario suite into `BENCH_net.json`
//! (schema `ftc-perf-net/v1`):
//!
//! * `closed_pipelined` — the headline throughput arm: few connections,
//!   deep pipelining, large pair batches, rotating fault sets;
//! * `shared_faults` / `distinct_faults` — the coalescing comparison:
//!   identical closed-loop shape, but one arm has every connection
//!   querying the *same* fault set (cross-connection coalescing groups
//!   them onto shared sessions) while the other gives every request its
//!   own fault set (one session per request, the no-coalescing floor);
//! * `open_loop` — fixed arrival rate; latency is measured from each
//!   request's *scheduled* send time, so queueing delay is charged to
//!   the server (no coordinated omission).
//!
//! Two robustness scenarios opt in by flag (in-process server only):
//!
//! * `--overload` — measures the bounded server's saturation
//!   throughput, then offers 2× that open-loop: the server must shed
//!   the excess with `Overloaded` while the p99 service latency of the
//!   requests it accepts stays within a small multiple of uncontended;
//! * `--chaos` — resilient clients drive queries through a seeded
//!   fault-injection proxy (`--chaos-seed`) while archives are
//!   blue/green-swapped live; every answer is checked against a BFS
//!   oracle and the row reports injected faults, retries, reconnects,
//!   and (required zero) wrong answers; any wrong answer fails the run.
//!
//! The report is written through [`ftc_bench::report`] and echoed to
//! stdout.

use ftc_bench::report::{Report, Row};
use ftc_core::store::{EdgeEncoding, LabelStore};
use ftc_core::{FtcScheme, Params};
use ftc_graph::{connectivity, generators, Graph};
use ftc_net::chaos::{ChaosConfig, ChaosProxy};
use ftc_net::client::{Client, ClientConfig, ClientError, ClientStats};
use ftc_net::histogram::LatencyHistogram;
use ftc_net::proto::ResponseBody;
use ftc_net::server::{Server, ServerConfig, ServerHandle};
use ftc_serve::{ConnectivityService, ServiceRegistry};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// workload
// ---------------------------------------------------------------------------

/// The deterministic workload: a graph, fault-set pools, and query
/// pairs, all derived from fixed seeds so an external server built from
/// `--emit-graph` answers the exact same byte stream.
struct Workload {
    graph: Graph,
    f: usize,
    /// Fault sets shared by every connection (rotation / shared arms).
    shared_faults: Vec<Vec<(usize, usize)>>,
    /// Query pairs, sliced per request.
    pairs: Vec<(usize, usize)>,
}

impl Workload {
    fn new(quick: bool) -> Workload {
        let (n, f) = if quick { (200, 2) } else { (1000, 4) };
        let graph = generators::random_connected(n, 3 * n, 7);
        let endpoint_of: Vec<(usize, usize)> = graph.edge_iter().map(|(_, u, v)| (u, v)).collect();
        let shared_faults = (0..if quick { 4 } else { 8 })
            .map(|s| {
                generators::random_fault_set(&graph, f, s as u64)
                    .iter()
                    .map(|&e| endpoint_of[e])
                    .collect()
            })
            .collect();
        let pairs = (0..4096)
            .map(|i| {
                let a = (i * 7919 + 13) % n;
                let b = (i * 104_729 + 31) % n;
                (a, b)
            })
            .collect();
        Workload {
            graph,
            f,
            shared_faults,
            pairs,
        }
    }

    /// A per-connection pool of fault sets distinct from every other
    /// connection's (so no two in-flight requests can share a coalescing
    /// key — the one-session-per-request floor).
    fn distinct_faults(&self, conn: usize, count: usize) -> Vec<Vec<(usize, usize)>> {
        let endpoint_of: Vec<(usize, usize)> =
            self.graph.edge_iter().map(|(_, u, v)| (u, v)).collect();
        (0..count)
            .map(|i| {
                let seed = 100 + 7919 * conn as u64 + i as u64;
                generators::random_fault_set(&self.graph, self.f, seed)
                    .iter()
                    .map(|&e| endpoint_of[e])
                    .collect()
            })
            .collect()
    }

    fn request_pairs(&self, index: usize, per_request: usize) -> &[(usize, usize)] {
        let start = (index * per_request) % (self.pairs.len() - per_request);
        &self.pairs[start..start + per_request]
    }
}

/// An in-process server on a loopback port, run on its own thread.
struct Loopback {
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Loopback {
    /// Serves `service` as `graph_id` from a fresh registry.
    fn serve(
        graph_id: &str,
        service: &ConnectivityService,
        config: ServerConfig,
    ) -> Result<Loopback, String> {
        let registry = Arc::new(ServiceRegistry::new());
        registry.insert(graph_id.to_string(), service.clone());
        Loopback::spawn(registry, config)
    }

    fn spawn(registry: Arc<ServiceRegistry>, config: ServerConfig) -> Result<Loopback, String> {
        let server = Server::bind(registry, "127.0.0.1:0", config)
            .map_err(|e| format!("cannot bind loopback: {e}"))?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Loopback { handle, thread })
    }

    /// Drains the server and joins its thread.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| "server thread panicked")?
            .map_err(|e| format!("server failed: {e}"))
    }
}

// ---------------------------------------------------------------------------
// scenarios
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum LoopMode {
    /// Keep `depth` requests in flight per connection at all times.
    Closed { depth: usize },
    /// Send at a fixed aggregate rate (requests/sec across all
    /// connections); latency counts from the scheduled send time.
    Open { rate: f64 },
}

#[derive(Clone, Copy)]
enum FaultChoice {
    /// Every request uses shared fault set 0 (maximal coalescing).
    SharedOne,
    /// Rotate through the shared pool (occasional coalescing overlap).
    Rotate,
    /// Per-connection distinct pools (no coalescing possible).
    Distinct,
}

struct Scenario {
    name: &'static str,
    mode: LoopMode,
    conns: usize,
    pairs_per_request: usize,
    faults: FaultChoice,
    duration: Duration,
}

fn suite(quick: bool) -> Vec<Scenario> {
    let secs = |s: u64| {
        if quick {
            Duration::from_millis(150)
        } else {
            Duration::from_secs(s)
        }
    };
    // Per-request overhead (loopback round trip + a session build when
    // nothing coalesces) is ~1.5ms on a small host, so the throughput
    // headline amortizes it over large pair batches.
    let (depth, big, small) = if quick { (2, 64, 4) } else { (4, 512, 4) };
    vec![
        Scenario {
            name: "closed_pipelined",
            mode: LoopMode::Closed { depth },
            conns: 2,
            pairs_per_request: big,
            faults: FaultChoice::Rotate,
            duration: secs(4),
        },
        Scenario {
            name: "shared_faults",
            mode: LoopMode::Closed { depth: 1 },
            conns: 8,
            pairs_per_request: small,
            faults: FaultChoice::SharedOne,
            duration: secs(3),
        },
        Scenario {
            name: "distinct_faults",
            mode: LoopMode::Closed { depth: 1 },
            conns: 8,
            pairs_per_request: small,
            faults: FaultChoice::Distinct,
            duration: secs(3),
        },
        Scenario {
            name: "open_loop",
            // Kept well under the closed-loop request ceiling so the
            // report reflects latency under load, not queueing collapse.
            mode: LoopMode::Open {
                rate: if quick { 200.0 } else { 300.0 },
            },
            conns: 4,
            pairs_per_request: 16,
            faults: FaultChoice::Rotate,
            duration: secs(2),
        },
    ]
}

#[derive(Default)]
struct ScenarioResult {
    requests: u64,
    queries: u64,
    elapsed: f64,
    hist: LatencyHistogram,
    /// Coalescer counter deltas over the scenario (in-process only):
    /// requests, coalesced, batches.
    coalesce: Option<(u64, u64, u64)>,
}

/// One connection's closed-loop driver: keep `depth` requests in
/// flight, record completion − send latency per request.
fn run_closed(
    client: &mut Client,
    workload: &Workload,
    sc: &Scenario,
    conn: usize,
    graph_id: &str,
    deadline: Instant,
    hist: &mut LatencyHistogram,
) -> Result<u64, String> {
    let LoopMode::Closed { depth } = sc.mode else {
        return Err("run_closed on an open-loop scenario".into());
    };
    let distinct = match sc.faults {
        FaultChoice::Distinct => workload.distinct_faults(conn, 32),
        _ => Vec::new(),
    };
    let fault_of = |i: usize| -> &[(usize, usize)] {
        match sc.faults {
            FaultChoice::SharedOne => &workload.shared_faults[0],
            FaultChoice::Rotate => {
                &workload.shared_faults[(i + conn) % workload.shared_faults.len()]
            }
            FaultChoice::Distinct => &distinct[i % distinct.len()],
        }
    };
    let mut inflight: HashMap<u64, Instant> = HashMap::new();
    let mut sent = 0usize;
    let mut done = 0u64;
    let send_next = |client: &mut Client,
                     sent: &mut usize,
                     inflight: &mut HashMap<u64, Instant>|
     -> Result<(), String> {
        let pairs = workload.request_pairs(*sent + conn * 17, sc.pairs_per_request);
        let t = Instant::now();
        let id = client
            .send(graph_id, fault_of(*sent), pairs)
            .map_err(|e| e.to_string())?;
        inflight.insert(id, t);
        *sent += 1;
        Ok(())
    };
    for _ in 0..depth {
        send_next(client, &mut sent, &mut inflight)?;
    }
    while !inflight.is_empty() {
        let resp = client.recv().map_err(|e| e.to_string())?;
        let t0 = inflight
            .remove(&resp.request_id)
            .ok_or("response for unknown request ID")?;
        if let ResponseBody::Error { code, message } = &resp.body {
            return Err(format!("server error: {code}: {message}"));
        }
        hist.record(t0.elapsed().as_nanos() as u64);
        done += 1;
        if Instant::now() < deadline {
            send_next(client, &mut sent, &mut inflight)?;
        }
    }
    Ok(done)
}

/// One connection's open-loop driver: requests fire on a fixed schedule;
/// latency is measured from the *scheduled* time, so falling behind is
/// charged as latency rather than silently thinning the load.
fn run_open(
    client: &mut Client,
    workload: &Workload,
    sc: &Scenario,
    conn: usize,
    graph_id: &str,
    deadline: Instant,
    hist: &mut LatencyHistogram,
) -> Result<u64, String> {
    let LoopMode::Open { rate } = sc.mode else {
        return Err("run_open on a closed-loop scenario".into());
    };
    let interval = Duration::from_secs_f64(sc.conns as f64 / rate);
    // Stagger connection start offsets so arrivals interleave.
    let mut scheduled = Instant::now() + interval.mul_f64(conn as f64 / sc.conns as f64);
    let mut i = 0usize;
    let mut done = 0u64;
    while scheduled < deadline {
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let faults = &workload.shared_faults[(i + conn) % workload.shared_faults.len()];
        let pairs = workload.request_pairs(i + conn * 17, sc.pairs_per_request);
        client
            .query(graph_id, faults, pairs)
            .map_err(|e| e.to_string())?;
        hist.record(scheduled.elapsed().as_nanos() as u64);
        done += 1;
        i += 1;
        scheduled += interval;
    }
    Ok(done)
}

fn run_scenario(
    addr: SocketAddr,
    graph_id: &str,
    workload: &Workload,
    sc: &Scenario,
    handle: Option<&ServerHandle>,
) -> Result<ScenarioResult, String> {
    let stats_before = handle.map(ftc_net::server::ServerHandle::stats);
    let barrier = Barrier::new(sc.conns + 1);
    let mut t0 = Instant::now();
    let results: Vec<Result<(u64, LatencyHistogram), String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..sc.conns)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    // Warm this connection (and the server's scratch
                    // pool) outside the timed window.
                    client
                        .query(graph_id, &workload.shared_faults[0], &workload.pairs[..1])
                        .map_err(|e| e.to_string())?;
                    let mut hist = LatencyHistogram::new();
                    barrier.wait();
                    let deadline = Instant::now() + sc.duration;
                    let done = match sc.mode {
                        LoopMode::Closed { .. } => run_closed(
                            &mut client,
                            workload,
                            sc,
                            conn,
                            graph_id,
                            deadline,
                            &mut hist,
                        )?,
                        LoopMode::Open { .. } => run_open(
                            &mut client,
                            workload,
                            sc,
                            conn,
                            graph_id,
                            deadline,
                            &mut hist,
                        )?,
                    };
                    Ok((done, hist))
                })
            })
            .collect();
        barrier.wait();
        t0 = Instant::now();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("worker panicked".into())))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let mut requests = 0u64;
    let mut hist = LatencyHistogram::new();
    for r in results {
        let (done, h) = r?;
        requests += done;
        hist.merge(&h);
    }
    let coalesce = match (
        stats_before,
        handle.map(ftc_net::server::ServerHandle::stats),
    ) {
        (Some(a), Some(b)) => Some((
            b.requests - a.requests,
            b.coalesced - a.coalesced,
            b.batches - a.batches,
        )),
        _ => None,
    };
    Ok(ScenarioResult {
        requests,
        queries: requests * sc.pairs_per_request as u64,
        elapsed,
        hist,
        coalesce,
    })
}

// ---------------------------------------------------------------------------
// overload scenario
// ---------------------------------------------------------------------------

/// Shedding under overdrive: the server is driven past saturation and
/// must reject the excess with `Overloaded` while the requests it *does*
/// accept stay fast.
#[derive(Default)]
struct OverloadReport {
    /// Closed-loop saturation throughput of the bounded server (req/s).
    saturation_rps: f64,
    /// Open-loop offered rate of the overdrive phase (≥ 2× saturation).
    offered_rps: f64,
    requests: u64,
    ok: u64,
    shed: u64,
    uncontended_p99_us: f64,
    accepted_p99_us: f64,
    /// `accepted_p99 / uncontended_p99` — ≤ 3 means shedding kept the
    /// accepted path fast instead of queueing everyone into collapse.
    p99_ratio: f64,
}

/// Closed-loop probe against a possibly-shedding server: `conns`
/// serial connections, distinct fault sets (every request builds a
/// session — the expensive regime overload protection exists for).
/// Returns (completed req/s, latency histogram of completed requests).
fn closed_probe(
    addr: SocketAddr,
    graph_id: &str,
    workload: &Workload,
    conns: usize,
    duration: Duration,
) -> Result<(f64, LatencyHistogram), String> {
    let barrier = Barrier::new(conns + 1);
    let mut t0 = Instant::now();
    let results: Vec<Result<(u64, LatencyHistogram), String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let pool = workload.distinct_faults(conn, 16);
                    let mut hist = LatencyHistogram::new();
                    let mut done = 0u64;
                    barrier.wait();
                    let deadline = Instant::now() + duration;
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        let pairs = workload.request_pairs(i + conn * 17, 4);
                        let t = Instant::now();
                        match client.query(graph_id, &pool[i % pool.len()], pairs) {
                            Ok(_) => {
                                hist.record(t.elapsed().as_nanos() as u64);
                                done += 1;
                            }
                            Err(ClientError::Remote { code, .. }) if code.is_retryable() => {}
                            Err(e) => return Err(e.to_string()),
                        }
                        i += 1;
                    }
                    Ok((done, hist))
                })
            })
            .collect();
        barrier.wait();
        t0 = Instant::now();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("probe worker panicked".into()))
            })
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut done = 0u64;
    let mut hist = LatencyHistogram::new();
    for r in results {
        let (d, h) = r?;
        done += d;
        hist.merge(&h);
    }
    Ok((done as f64 / elapsed, hist))
}

fn run_overload_scenario(
    workload: &Workload,
    service: &ConnectivityService,
    graph_id: &str,
    quick: bool,
) -> Result<OverloadReport, String> {
    let probe = if quick {
        Duration::from_millis(250)
    } else {
        Duration::from_secs(1)
    };

    // Probe phase, against an unbounded server: the uncontended p99 (one
    // serial connection) and the saturation throughput (two — matching
    // the open-batch cap of the bounded server below). Distinct fault
    // sets defeat coalescing, so every request is a session build — the
    // expensive regime overload protection exists for.
    let (uncontended, saturation_rps) = {
        let server = Loopback::serve(graph_id, service, ServerConfig::default())?;
        let addr = server.handle.addr();
        let (_, _) = closed_probe(addr, graph_id, workload, 1, probe)?;
        // Server-side service latency (frame receipt to answer): both
        // ends of the comparison use the same clock, so loadgen threads
        // competing with the server for (possibly one) CPU cannot smear
        // the baseline or the overdrive tail.
        let uncontended = server.handle.served_latency();
        let (saturation_rps, _) = closed_probe(addr, graph_id, workload, 2, probe)?;
        server.stop()?;
        (uncontended, saturation_rps)
    };

    // The bounded server under test: one open coalescer batch at a time
    // (admitted requests execute immediately, never stacked), and a
    // request deadline derived from the measured uncontended p99 so
    // accepted requests cannot queue past ~1.5× the uncontended latency
    // — total accepted latency stays within a small multiple of
    // uncontended (deadline-bounded wait + one un-preempted execution).
    let uncontended_p99 =
        Duration::from_nanos(uncontended.quantile(0.99)).max(Duration::from_micros(500));
    let config = ServerConfig {
        max_inflight_batches: 1,
        request_deadline: Some(uncontended_p99.mul_f64(1.5)),
        ..ServerConfig::default()
    };
    let server = Loopback::serve(graph_id, service, config)?;
    let addr = server.handle.addr();

    // Overdrive: offer 2× saturation open-loop. Sheds return almost
    // instantly (that is the point), so two connections sustain the
    // offered rate: one admitted request executing plus one arrival
    // getting shed, exactly the saturation probe's concurrency — more
    // client threads would just preempt the server's execution on a
    // small host and smear the accepted tail with scheduler noise that
    // no admission policy can remove. Accepted latency comes from the
    // server-side histogram for the same reason.
    let offered_rps = 2.0 * saturation_rps;
    let conns = 2usize;
    let duration = if quick {
        Duration::from_millis(500)
    } else {
        Duration::from_secs(2)
    };
    let interval = Duration::from_secs_f64(conns as f64 / offered_rps);
    let barrier = Barrier::new(conns + 1);
    let results: Vec<Result<(u64, u64, u64, LatencyHistogram), String>> =
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..conns)
                .map(|conn| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                        let pool = workload.distinct_faults(1000 + conn, 16);
                        let (mut requests, mut ok, mut shed) = (0u64, 0u64, 0u64);
                        let mut hist = LatencyHistogram::new();
                        barrier.wait();
                        let deadline = Instant::now() + duration;
                        let mut scheduled =
                            Instant::now() + interval.mul_f64(conn as f64 / conns as f64);
                        let mut i = 0usize;
                        while scheduled < deadline {
                            if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            let pairs = workload.request_pairs(i + conn * 17, 4);
                            let t = Instant::now();
                            requests += 1;
                            match client.query(graph_id, &pool[i % pool.len()], pairs) {
                                Ok(_) => {
                                    hist.record(t.elapsed().as_nanos() as u64);
                                    ok += 1;
                                }
                                Err(ClientError::Remote { code, .. }) if code.is_retryable() => {
                                    shed += 1;
                                }
                                Err(e) => return Err(e.to_string()),
                            }
                            i += 1;
                            scheduled += interval;
                        }
                        Ok((requests, ok, shed, hist))
                    })
                })
                .collect();
            barrier.wait();
            workers
                .into_iter()
                .map(|w| {
                    w.join()
                        .unwrap_or_else(|_| Err("overload worker panicked".into()))
                })
                .collect()
        });

    let accepted = server.handle.served_latency();
    server.stop()?;

    let (mut requests, mut ok, mut shed) = (0u64, 0u64, 0u64);
    for r in results {
        let (rq, o, sh, _) = r?;
        requests += rq;
        ok += o;
        shed += sh;
    }
    let uncontended_p99_us = uncontended.quantile(0.99) as f64 / 1000.0;
    let accepted_p99_us = accepted.quantile(0.99) as f64 / 1000.0;
    Ok(OverloadReport {
        saturation_rps,
        offered_rps,
        requests,
        ok,
        shed,
        uncontended_p99_us,
        accepted_p99_us,
        p99_ratio: if uncontended_p99_us > 0.0 {
            accepted_p99_us / uncontended_p99_us
        } else {
            0.0
        },
    })
}

// ---------------------------------------------------------------------------
// chaos scenario
// ---------------------------------------------------------------------------

/// Resilient clients vs a deterministic fault injector and live archive
/// swaps: every answered query is checked against a BFS oracle, so the
/// row proves not just liveness but correctness under faults.
#[derive(Default)]
struct ChaosReport {
    seed: u64,
    requests: u64,
    ok: u64,
    /// Requests that exhausted the retry budget (counted, not fatal —
    /// under injected resets a small residue is legitimate).
    failed: u64,
    wrong_answers: u64,
    client: ClientStats,
    resets: u64,
    corrupted_bytes: u64,
    stalls: u64,
    swaps: u64,
}

fn run_chaos_scenario(
    workload: &Workload,
    service: &ConnectivityService,
    graph_id: &str,
    quick: bool,
    seed: u64,
) -> Result<ChaosReport, String> {
    let registry = Arc::new(ServiceRegistry::new());
    registry.insert(graph_id.to_string(), service.clone());
    let server = Loopback::spawn(registry.clone(), ServerConfig::default())?;
    // Hotter rates than the proxy's defaults: loadgen requests are one
    // wire frame each way, so per-frame rates are per-request event
    // probabilities — these make injected faults a routine part of the
    // run, not a rare tail.
    let mut proxy = ChaosProxy::spawn(
        server.handle.addr(),
        ChaosConfig {
            seed,
            reset_per_10k: 100,
            corrupt_per_10k: 300,
            stall_per_10k: 300,
            stall: Duration::from_millis(2),
        },
    )
    .map_err(|e| format!("cannot spawn chaos proxy: {e}"))?;
    let proxy_addr = proxy.addr();

    // The oracle: fault endpoints resolved to edge IDs once per shared
    // fault set; every answered pair is BFS-checked against them.
    let fault_edges: Vec<Vec<usize>> = workload
        .shared_faults
        .iter()
        .map(|faults| {
            faults
                .iter()
                .map(|&(u, v)| {
                    workload
                        .graph
                        .find_edge(u, v)
                        .ok_or_else(|| format!("workload fault ({u}, {v}) is not an edge"))
                })
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;

    let duration = if quick {
        Duration::from_millis(500)
    } else {
        Duration::from_secs(2)
    };
    let conns = 2usize;
    let stop = AtomicBool::new(false);
    let swaps = AtomicU64::new(0);

    // (requests, ok, failed, wrong answers, client-side recovery stats)
    type WorkerTally = (u64, u64, u64, u64, ClientStats);
    let results: Vec<Result<WorkerTally, String>> = std::thread::scope(|scope| {
        // Blue/green churn: keep swapping an equivalent service in
        // while the queries fly. In-flight queries finish on the
        // handle they resolved; answers must stay correct throughout.
        let swapper = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                registry.swap(graph_id.to_string(), service.clone());
                swaps.fetch_add(1, Ordering::Relaxed);
            }
        });
        let workers: Vec<_> = (0..conns)
            .map(|conn| {
                let fault_edges = &fault_edges;
                scope.spawn(move || {
                    let config = ClientConfig {
                        jitter_seed: seed ^ (conn as u64 + 1),
                        ..ClientConfig::resilient()
                    };
                    let mut client = Client::connect_with(proxy_addr, config.clone())
                        .map_err(|e| e.to_string())?;
                    let (mut requests, mut ok, mut failed, mut wrong) = (0u64, 0u64, 0u64, 0u64);
                    let mut stats = ClientStats::default();
                    let deadline = Instant::now() + duration;
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        let fi = (i + conn) % workload.shared_faults.len();
                        let pairs = workload.request_pairs(i + conn * 17, 4);
                        requests += 1;
                        match client.query(graph_id, &workload.shared_faults[fi], pairs) {
                            Ok(answers) => {
                                ok += 1;
                                for (&(s, t), &got) in pairs.iter().zip(&answers) {
                                    let want = connectivity::connected_avoiding(
                                        &workload.graph,
                                        s,
                                        t,
                                        &fault_edges[fi],
                                    );
                                    if got != want {
                                        wrong += 1;
                                    }
                                }
                            }
                            Err(_) => {
                                // Retry budget exhausted; rebuild the
                                // connection and carry on.
                                failed += 1;
                                stats = sum_stats(stats, client.stats());
                                client = Client::connect_with(proxy_addr, config.clone())
                                    .map_err(|e| e.to_string())?;
                            }
                        }
                        i += 1;
                    }
                    stats = sum_stats(stats, client.stats());
                    Ok((requests, ok, failed, wrong, stats))
                })
            })
            .collect();
        let out = workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("chaos worker panicked".into()))
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        swapper.join().expect("swapper thread");
        out
    });

    proxy.shutdown();
    server.stop()?;

    let (mut requests, mut ok, mut failed, mut wrong) = (0u64, 0u64, 0u64, 0u64);
    let mut client = ClientStats::default();
    for r in results {
        let (rq, o, f, w, st) = r?;
        requests += rq;
        ok += o;
        failed += f;
        wrong += w;
        client = sum_stats(client, st);
    }
    let chaos = proxy.stats();
    Ok(ChaosReport {
        seed,
        requests,
        ok,
        failed,
        wrong_answers: wrong,
        client,
        resets: chaos.resets,
        corrupted_bytes: chaos.corrupted_bytes,
        stalls: chaos.stalls,
        swaps: swaps.load(Ordering::Relaxed),
    })
}

fn sum_stats(a: ClientStats, b: ClientStats) -> ClientStats {
    ClientStats {
        reconnects: a.reconnects + b.reconnects,
        retries: a.retries + b.retries,
        replayed: a.replayed + b.replayed,
    }
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

fn net_report(
    mode: &str,
    server: &str,
    workload: &Workload,
    rows: &[(Scenario, ScenarioResult)],
    overload: Option<&OverloadReport>,
    chaos: Option<&ChaosReport>,
) -> Report {
    let us = |ns: u64| ns as f64 / 1000.0;
    let description = format!(
        "random_connected({n}, {m}, seed 7), f = {f}, archive-backed service over loopback TCP; latency per request, open-loop measured from scheduled send",
        n = workload.graph.n(),
        m = 3 * workload.graph.n(),
        f = workload.f
    );
    let header = Row::new()
        .str("server", server)
        .str("workload", description);
    let mut report = Report::new("ftc-perf-net/v1", mode, header);
    for (sc, r) in rows {
        let (mode_str, depth, rate) = match sc.mode {
            LoopMode::Closed { depth } => ("closed", depth, 0.0),
            LoopMode::Open { rate } => ("open", 1, rate),
        };
        let mut row = Row::new()
            .str("scenario", sc.name)
            .str("loop", mode_str)
            .int("conns", sc.conns as u64)
            .int("depth", depth as u64)
            .num("rate", rate, 0)
            .int("pairs_per_request", sc.pairs_per_request as u64)
            .int("requests", r.requests)
            .int("queries", r.queries)
            .num("requests_per_sec", r.requests as f64 / r.elapsed, 1)
            .num("queries_per_sec", r.queries as f64 / r.elapsed, 1)
            .num("p50_us", us(r.hist.quantile(0.50)), 1)
            .num("p95_us", us(r.hist.quantile(0.95)), 1)
            .num("p99_us", us(r.hist.quantile(0.99)), 1)
            .num("max_us", us(r.hist.max()), 1);
        if let Some((requests, coalesced, batches)) = r.coalesce {
            row = row.obj(
                "coalesce",
                Row::new()
                    .int("requests", requests)
                    .int("coalesced", coalesced)
                    .int("batches", batches),
            );
        }
        report.push(row);
    }
    if let Some(o) = overload {
        report.push(
            Row::new()
                .str("scenario", "overload")
                .str("loop", "open")
                .num("saturation_rps", o.saturation_rps, 1)
                .num("offered_rps", o.offered_rps, 1)
                .int("requests", o.requests)
                .int("ok", o.ok)
                .int("shed", o.shed)
                .num("uncontended_p99_us", o.uncontended_p99_us, 1)
                .num("accepted_p99_us", o.accepted_p99_us, 1)
                .num("p99_ratio", o.p99_ratio, 2),
        );
    }
    if let Some(c) = chaos {
        report.push(
            Row::new()
                .str("scenario", "chaos")
                .int("seed", c.seed)
                .int("requests", c.requests)
                .int("ok", c.ok)
                .int("failed", c.failed)
                .int("wrong_answers", c.wrong_answers)
                .int("reconnects", c.client.reconnects)
                .int("retries", c.client.retries)
                .int("replayed", c.client.replayed)
                .int("resets", c.resets)
                .int("corrupted_bytes", c.corrupted_bytes)
                .int("stalls", c.stalls)
                .int("swaps", c.swaps),
        );
    }
    report
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

const USAGE: &str = "usage: ftc-loadgen [--quick] [--addr HOST:PORT] [--graph-id ID] [--out PATH] [--emit-graph PATH] [--overload] [--chaos] [--chaos-seed N]";

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut addr: Option<String> = None;
    let mut graph_id = "loadgen".to_string();
    let mut out = "BENCH_net.json".to_string();
    let mut emit_graph: Option<String> = None;
    let mut want_overload = false;
    let mut want_chaos = false;
    let mut chaos_seed: u64 = 0xC4A0_5EED;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{what} expects a value"))
        };
        match a.as_str() {
            "--quick" => quick = true,
            "--addr" => addr = Some(value("--addr")?),
            "--graph-id" => graph_id = value("--graph-id")?,
            "--out" => out = value("--out")?,
            "--emit-graph" => emit_graph = Some(value("--emit-graph")?),
            "--overload" => want_overload = true,
            "--chaos" => want_chaos = true,
            "--chaos-seed" => {
                chaos_seed = value("--chaos-seed")?
                    .parse()
                    .map_err(|_| "--chaos-seed expects an integer")?;
            }
            _ => return Err(USAGE.into()),
        }
    }

    let workload = Workload::new(quick);

    if let Some(path) = emit_graph {
        let mut text = String::new();
        let _ = writeln!(
            text,
            "# ftc-loadgen workload graph ({}): random_connected(n = {}, extra = {}, seed 7)",
            if quick { "quick" } else { "full" },
            workload.graph.n(),
            3 * workload.graph.n()
        );
        for (_, u, v) in workload.graph.edge_iter() {
            let _ = writeln!(text, "{u} {v}");
        }
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "wrote workload edge list to {path}; build with: ftc-cli build {path} labels.ftc --f {}",
            workload.f
        );
        return Ok(());
    }

    if addr.is_some() && (want_overload || want_chaos) {
        return Err("--overload/--chaos drive their own in-process servers; drop --addr".into());
    }

    // The target: an external server, or an in-process one over the
    // workload archive (same serving path as the standalone binary).
    // The built service is kept for the overload/chaos scenarios, which
    // spawn their own (bounded / chaos-proxied) servers over it.
    let (target, server, extra_service) = match &addr {
        Some(a) => {
            let target: SocketAddr = a
                .parse()
                .map_err(|_| format!("--addr expects HOST:PORT, got '{a}'"))?;
            (target, None, None)
        }
        None => {
            eprintln!(
                "building workload labels (n = {}, f = {}) …",
                workload.graph.n(),
                workload.f
            );
            let scheme = FtcScheme::build(&workload.graph, &Params::deterministic(workload.f))
                .map_err(|e| e.to_string())?;
            let blob = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Full);
            let service =
                ConnectivityService::from_archive_bytes(blob).map_err(|e| e.to_string())?;
            let server = Loopback::serve(&graph_id, &service, ServerConfig::default())?;
            (server.handle.addr(), Some(server), Some(service))
        }
    };

    let mut rows = Vec::new();
    for sc in suite(quick) {
        eprintln!("scenario {} …", sc.name);
        let handle = server.as_ref().map(|s| &s.handle);
        let result = run_scenario(target, &graph_id, &workload, &sc, handle)?;
        rows.push((sc, result));
    }

    if let Some(server) = server {
        server.stop()?;
    }

    let overload = if want_overload {
        let service = extra_service.as_ref().expect("in-process service");
        eprintln!("scenario overload …");
        Some(run_overload_scenario(&workload, service, &graph_id, quick)?)
    } else {
        None
    };
    let chaos = if want_chaos {
        let service = extra_service.as_ref().expect("in-process service");
        eprintln!("scenario chaos (seed {chaos_seed}) …");
        Some(run_chaos_scenario(
            &workload, service, &graph_id, quick, chaos_seed,
        )?)
    } else {
        None
    };

    let mode = if quick { "quick" } else { "full" };
    let server = if addr.is_some() {
        "external"
    } else {
        "in-process"
    };
    let report = net_report(
        mode,
        server,
        &workload,
        &rows,
        overload.as_ref(),
        chaos.as_ref(),
    );
    print!("{}", report.write(std::path::Path::new(&out))?);
    println!("wrote {out}");
    match chaos {
        Some(c) if c.wrong_answers > 0 => Err(format!(
            "{} wrong answers under chaos — correctness violation",
            c.wrong_answers
        )),
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_bench::report::row_shapes;

    /// The committed `BENCH_net.json` rows (the suite, then overload and
    /// chaos) have exactly the keys, key order, and decimal precision the
    /// writer emits, so the file stays valid under its schema tag.
    #[test]
    fn writer_matches_committed_report() {
        let result = || ScenarioResult {
            elapsed: 1.0,
            coalesce: Some((0, 0, 0)),
            ..ScenarioResult::default()
        };
        let rows: Vec<_> = suite(true).into_iter().map(|sc| (sc, result())).collect();
        let report = net_report(
            "full",
            "in-process",
            &Workload::new(true),
            &rows,
            Some(&OverloadReport::default()),
            Some(&ChaosReport::default()),
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
        let committed = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            row_shapes(&committed),
            row_shapes(&report.render().unwrap()),
            "{path} drifted from its writer"
        );
    }
}

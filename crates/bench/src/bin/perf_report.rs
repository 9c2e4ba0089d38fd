//! `perf_report` — the machine-readable serving + build perf baseline.
//!
//! Four arms, four JSON reports:
//!
//! * **Session arm** (`BENCH_session.json`, schema `ftc-perf-session/v1`)
//!   — the prepare-a-fault-set hot path across a grid of graph sizes,
//!   fault budgets, and label sources (owned labels, zero-copy archive
//!   views in both encodings, and the v2 compressed container), always
//!   through the scratch-reusing `session_in` serving path, plus
//!   per-query latency (single and batched);
//! * **Serve arm** (`BENCH_serve.json`, schema `ftc-perf-serve/v1`) —
//!   1/2/4/8 threads hammering one shared `ConnectivityService`
//!   (archive-full backing, pooled scratch, 32 pairs per call),
//!   reporting aggregate queries/sec and session builds/sec per thread
//!   count, plus the machine's core count (scaling beyond the core
//!   count is not expected — the committed numbers record which machine
//!   produced them); one more cell asks 8192 pairs per call of a v2
//!   handle on one thread, where the per-pair answer path dominates,
//!   and every cell reports ns per pair;
//! * **Build arm** (`BENCH_build.json`, schema `ftc-perf-build/v1`) —
//!   end-to-end graph → servable archive throughput through the
//!   streaming `SchemeBuilder::build_store` pipeline, across graph
//!   sizes and thread counts (thread-count rows document the scaling on
//!   the measuring machine; the committed reference numbers come from a
//!   1-core container, where extra workers only add coordination cost).
//!   Each row also measures the `build_store_compressed` v2-container
//!   arm — compressed size, compression ratio, and cold
//!   `compressed::open_path` latency for both formats (the v1 open is a
//!   full validation pass, the v2 open is O(header));
//! * **Churn arm** (`BENCH_churn.json`, schema `ftc-perf-churn/v1`) —
//!   incremental maintenance through `ftc-dyn`: the median latency of a
//!   single-edge update (`insert_edge`/`delete_edge` plus a servable
//!   `commit()`), against the median from-scratch
//!   `SchemeBuilder::build_store` rebuild of the same graph — the
//!   operation the dynamic path replaces — and their ratio as `speedup`.
//!   Durable rows run the same cycle through the write-ahead-journaled
//!   `DurableScheme` (`on_commit` group-commit fsync, with `NoSyncVfs`
//!   twins isolating the physical sync cost), report the amortized full
//!   disk checkpoint separately, and pin `recovery_divergence: 0` via a
//!   `DurableScheme::recover` round-trip of the on-disk state.
//!
//! ```text
//! perf_report [--quick] [--only session|serve|build|churn] [--out-dir DIR]
//! ```
//!
//! `--quick` shrinks the grids and the measurement windows so CI can
//! check that the binary runs and emits well-formed reports without
//! gating on numbers; `--only ARM` runs a single arm. Each arm writes
//! `DIR/BENCH_<arm>.json` (default: the current directory) through
//! [`ftc_bench::report`] and echoes it to stdout. A churn run whose
//! recovery round-trip diverges exits nonzero and writes no report.

use ftc_bench::report::{Report, Row};
use ftc_bench::{calibrated_params, median_time, Flavor};
use ftc_core::compressed::{compress_archive, AnyArchive};
use ftc_core::io::{NoSyncVfs, StdVfs, Vfs};
use ftc_core::store::{EdgeEncoding, LabelStore};
use ftc_core::{FtcScheme, QuerySession, SessionScratch, VertexLabelRead};
use ftc_dyn::{default_journal_path, DurableScheme, DynConfig, DynamicScheme, FsyncPolicy};
use ftc_graph::generators;
use ftc_serve::ConnectivityService;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured session-arm cell.
#[derive(Default)]
struct Cell {
    n: usize,
    f: usize,
    /// `owned`, `archive-full`, `archive-compact`, or `archive-compressed`.
    path: &'static str,
    sessions_per_sec: f64,
    ns_per_query: f64,
    ns_per_query_batched: f64,
}

/// Mean wall time in ms of one `run`, timed over at least `min_runs`
/// runs and until `window_ms` has passed.
fn mean_ms(min_runs: u64, window_ms: u64, mut run: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut runs = 0u64;
    while runs < min_runs || t.elapsed().as_millis() < u128::from(window_ms) {
        run();
        runs += 1;
    }
    t.elapsed().as_secs_f64() * 1000.0 / runs as f64
}

fn sample_pairs(n: usize, count: usize) -> Vec<(usize, usize)> {
    (0..count)
        .map(|i| {
            let a = (i * 7919 + 13) % n;
            let b = (i * 104_729 + 31) % n;
            (a, b)
        })
        .collect()
}

/// Times one label source: `session_in` prepares a session for a fault
/// set, and `vpairs` are the sample pairs' vertex labels. Measures
/// sessions/s, rotating through every fault set for the window, then
/// ns/query against one prepared session — one query at a time, then as
/// one batch — for a quarter window each. Every loop is warmed first.
fn measure_source<F, V: VertexLabelRead + Copy>(
    faults: &[F],
    vpairs: &[(V, V)],
    window_ms: u64,
    session_in: impl Fn(&F, &mut SessionScratch) -> QuerySession,
) -> [f64; 3] {
    let mut scratch = SessionScratch::new();
    let mut build_all = || {
        for f in faults {
            let s = session_in(f, &mut scratch);
            scratch.recycle(s);
        }
    };
    let session = session_in(&faults[0], &mut SessionScratch::new());
    let single = || {
        for &(s, t) in vpairs {
            let _ = black_box(session.connected(s, t));
        }
    };
    let mut answers = Vec::with_capacity(vpairs.len());
    let mut batched = || {
        session.connected_many(vpairs, &mut answers).expect("batch");
        black_box(&answers);
    };
    build_all();
    single();
    batched();
    let ns_per_query = |ms: f64| ms * 1e6 / vpairs.len() as f64;
    [
        faults.len() as f64 * 1000.0 / mean_ms(1, window_ms, build_all),
        ns_per_query(mean_ms(1, window_ms / 4, single)),
        ns_per_query(mean_ms(1, window_ms / 4, batched)),
    ]
}

/// Measures the session arm: every label source over the (n, f) grid.
fn measure_session(quick: bool) -> Vec<Cell> {
    let (ns, fs, window_ms): (&[usize], &[usize], u64) = if quick {
        (&[200], &[4], 60)
    } else {
        (&[500, 2000], &[4, 16], 800)
    };
    let mut cells = Vec::new();
    for &n in ns {
        let g = generators::random_connected(n, 3 * n, 7);
        let endpoint_of: Vec<(usize, usize)> = g.edge_iter().map(|(_, u, v)| (u, v)).collect();
        let pairs = sample_pairs(n, 256);
        for &f in fs {
            let params = calibrated_params(Flavor::DetEpsNet, f, 4 * f * 11);
            let scheme = FtcScheme::build(&g, &params).expect("scheme build");
            let l = scheme.labels();
            let fsets: Vec<Vec<usize>> = (0..if quick { 4 } else { 16 })
                .map(|s| generators::random_fault_set(&g, f, s as u64))
                .collect();
            let faults: Vec<Vec<(usize, usize)>> = fsets
                .iter()
                .map(|fs| fs.iter().map(|&e| endpoint_of[e]).collect())
                .collect();
            eprintln!("measuring n={n} f={f} …");
            let mut cell =
                |path, [sessions_per_sec, ns_per_query, ns_per_query_batched]: [f64; 3]| {
                    cells.push(Cell {
                        n,
                        f,
                        path,
                        sessions_per_sec,
                        ns_per_query,
                        ns_per_query_batched,
                    });
                };
            let vpairs: Vec<_> = pairs
                .iter()
                .map(|&(s, t)| (l.vertex_label(s), l.vertex_label(t)))
                .collect();
            cell(
                "owned",
                measure_source(&fsets, &vpairs, window_ms, |f, scratch| {
                    l.session_in(f.iter().map(|&e| l.edge_label_by_id(e)), scratch)
                        .expect("session")
                }),
            );
            for (path, encoding) in [
                ("archive-full", EdgeEncoding::Full),
                ("archive-compact", EdgeEncoding::Compact),
            ] {
                let view = LabelStore::archive(l, encoding);
                let vpairs: Vec<_> = pairs
                    .iter()
                    .map(|&(s, t)| (view.vertex(s).unwrap(), view.vertex(t).unwrap()))
                    .collect();
                cell(
                    path,
                    measure_source(&faults, &vpairs, window_ms, |f, scratch| {
                        view.session_in(f.iter().copied(), scratch)
                            .expect("session")
                    }),
                );
            }
            // The v2 container: sections decoded once into the shared
            // cache, sessions gathered from the decoded slabs.
            let view = compress_archive(&LabelStore::archive(l, EdgeEncoding::Full));
            let vertex = |v| view.vertex(v).unwrap().unwrap();
            let vpairs: Vec<_> = pairs.iter().map(|&(s, t)| (vertex(s), vertex(t))).collect();
            cell(
                "archive-compressed",
                measure_source(&faults, &vpairs, window_ms, |f, scratch| {
                    view.session_in(f.iter().copied(), scratch)
                        .expect("session")
                }),
            );
        }
    }
    cells
}

fn session_report(mode: &str, cells: &[Cell]) -> Report {
    let mut header = Row::new().str(
        "workload",
        "random_connected(n, 3n, seed 7), k = 44f, fault sets of size f, scratch-reused session_in; archive-compressed is the v2 container serving path (lazily decoded sections)",
    );
    if mode == "full" {
        // Historical reference, meaningful only relative to the machine
        // that produced the committed repo-root baseline — quick CI runs
        // on arbitrary runners omit it so artifact readers don't compare
        // against numbers from a different box.
        header = header.obj(
            "baseline_pre_pr",
            Row::new()
                .str("note", "allocating per-session path before the arena/scratch refactor at n=2000, measured on the reference machine that produced the committed BENCH_session.json; compare ratios, not absolutes, across machines")
                .obj(
                    "sessions_per_sec",
                    Row::new().num("f4", 1366.0, 1).num("f16", 240.0, 1),
                ),
        );
    }
    let mut report = Report::new("ftc-perf-session/v1", mode, header);
    for c in cells {
        report.push(
            Row::new()
                .int("n", c.n as u64)
                .int("f", c.f as u64)
                .str("path", c.path)
                .num("sessions_per_sec", c.sessions_per_sec, 1)
                .num("ns_per_query", c.ns_per_query, 1)
                .num("ns_per_query_batched", c.ns_per_query_batched, 1),
        );
    }
    report
}

/// One measured serve-arm cell: aggregate throughput of `threads`
/// workers hammering one shared service.
#[derive(Default)]
struct ServeCell {
    threads: usize,
    /// `v1` (the archive-full blob) or `v2` (the compressed container).
    archive: &'static str,
    pairs_per_call: usize,
    queries_per_sec: f64,
    sessions_per_sec: f64,
    /// Wall time per answered pair on one worker, session build
    /// included: `threads / queries_per_sec`.
    ns_per_pair: f64,
}

/// Measures the shared-service arm: for each thread count, `threads`
/// workers loop `service.query(faults, pairs)` over rotating fault sets
/// against ONE v1 handle with 32 pairs per call until the window closes,
/// reporting aggregate pairs-answered/sec and query-calls/sec (one
/// session build per call). A last cell runs one worker with 8192 pairs
/// per call against a v2 handle — the shape of a sweep that re-checks
/// every demand pair per fault set, where answering pairs, not building
/// sessions, is the cost.
fn measure_serve(quick: bool) -> Vec<ServeCell> {
    let (n, window_ms, thread_counts): (usize, u64, &[usize]) = if quick {
        (200, 60, &[1, 2])
    } else {
        (2000, 1000, &[1, 2, 4, 8])
    };
    let f = 4;
    let g = generators::random_connected(n, 3 * n, 7);
    let params = calibrated_params(Flavor::DetEpsNet, f, 4 * f * 11);
    let scheme = FtcScheme::build(&g, &params).expect("scheme build");
    let v1 = LabelStore::archive(scheme.labels(), EdgeEncoding::Full);
    let v2 = compress_archive(&v1);
    let v1 = ConnectivityService::from_store(v1);
    let v2 = ConnectivityService::from_archive(AnyArchive::V2(v2));

    let endpoint_of: Vec<(usize, usize)> = g.edge_iter().map(|(_, u, v)| (u, v)).collect();
    let fsets: Vec<Vec<(usize, usize)>> = (0..if quick { 4 } else { 16 })
        .map(|s| {
            generators::random_fault_set(&g, f, s as u64)
                .iter()
                .map(|&e| endpoint_of[e])
                .collect()
        })
        .collect();
    let grid = thread_counts
        .iter()
        .map(|&threads| (threads, "v1", &v1, 32))
        .chain([(1, "v2", &v2, 8192)]);

    let mut cells = Vec::new();
    for (threads, archive, service, pairs_per_call) in grid {
        eprintln!("measuring serve arm, {threads} thread(s), {pairs_per_call} pairs per call …");
        let pairs = sample_pairs(n, pairs_per_call);
        let stop = AtomicBool::new(false);
        let calls = AtomicU64::new(0);
        // Thread spawn and per-worker warm-up run before the barrier so
        // the measured window covers only counted queries.
        let barrier = std::sync::Barrier::new(threads + 1);
        let mut t0 = Instant::now();
        std::thread::scope(|scope| {
            for w in 0..threads {
                let (fsets, pairs, stop, calls, barrier) =
                    (&fsets, &pairs, &stop, &calls, &barrier);
                scope.spawn(move || {
                    // Warm the pool's scratch for this worker.
                    service
                        .query(&fsets[w % fsets.len()], pairs)
                        .expect("query");
                    barrier.wait();
                    let mut i = w;
                    while !stop.load(Ordering::Relaxed) {
                        service
                            .query(&fsets[i % fsets.len()], pairs)
                            .expect("query");
                        calls.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                });
            }
            barrier.wait();
            t0 = Instant::now();
            std::thread::sleep(Duration::from_millis(window_ms));
            stop.store(true, Ordering::Relaxed);
        });
        // Measured after join, so the drain of each worker's in-flight
        // (counted) call is inside the window too.
        let secs = t0.elapsed().as_secs_f64();
        let calls = calls.load(Ordering::Relaxed) as f64;
        let queries_per_sec = calls * pairs.len() as f64 / secs;
        cells.push(ServeCell {
            threads,
            archive,
            pairs_per_call,
            queries_per_sec,
            sessions_per_sec: calls / secs,
            ns_per_pair: threads as f64 * 1e9 / queries_per_sec,
        });
    }
    cells
}

fn serve_report(mode: &str, cells: &[ServeCell]) -> Report {
    let header = Row::new().str(
        "workload",
        "random_connected(n, 3n, seed 7), f = 4, one ConnectivityService shared across threads, one session build per query call from the lock-free scratch pool; v1 rows: archive-full blob, 32 pairs per call; the v2 row: compressed container, 8192 pairs per call on one thread; ns_per_pair = per-worker wall time per answered pair, session build included",
    );
    let mut report = Report::new("ftc-perf-serve/v1", mode, header);
    for c in cells {
        report.push(
            Row::new()
                .int("threads", c.threads as u64)
                .str("archive", c.archive)
                .int("pairs_per_call", c.pairs_per_call as u64)
                .num("queries_per_sec", c.queries_per_sec, 1)
                .num("sessions_per_sec", c.sessions_per_sec, 1)
                .num("ns_per_pair", c.ns_per_pair, 1),
        );
    }
    report
}

/// One measured build-arm cell: graph → servable archive, end to end,
/// in both container formats, plus cold-open latency for each.
#[derive(Default)]
struct BuildCell {
    n: usize,
    f: usize,
    threads: usize,
    ms_per_build: f64,
    archive_bytes: usize,
    /// `SchemeBuilder::build_store_compressed` time for the same graph.
    ms_per_build_compressed: f64,
    /// v2 container size for the same labeling.
    archive_bytes_compressed: usize,
    /// `compressed::open_path` on the v1 file (full validation pass).
    open_v1_ms: f64,
    /// `compressed::open_path` on the v2 file (O(header), lazy sections).
    open_v2_ms: f64,
}

/// Measures the streaming build arm: repeated
/// `SchemeBuilder::build_store(Full)` runs (graph in memory → complete
/// servable archive blob) until the window closes, at least two measured
/// builds per cell, then the same through `build_store_compressed` (v2
/// container), then one cold-open probe per format from a temp file.
fn measure_build(quick: bool) -> Vec<BuildCell> {
    // (n, extra chords, f, threads). n ≤ 2000 mirrors the session arm's
    // workload (3n chords); the large-n rows use sparser n/2-chord
    // graphs and f = 2 to keep the payload within one container's
    // memory (at n = 200k the v1 blob is ~1.7 GB — the row that shows
    // why the compressed container exists).
    let grid: &[(usize, usize, usize, usize)] = if quick {
        &[(200, 600, 4, 1)]
    } else {
        &[
            (500, 1500, 4, 1),
            (2000, 6000, 4, 1),
            (2000, 6000, 4, 2),
            (2000, 6000, 4, 4),
            (20_000, 10_000, 2, 1),
            (20_000, 10_000, 2, 4),
            (200_000, 100_000, 2, 1),
        ]
    };
    let window_ms: u64 = if quick { 100 } else { 4000 };
    let dir = std::env::temp_dir().join(format!("ftc_perf_build_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut cells = Vec::new();
    for &(n, extra, f, threads) in grid {
        eprintln!("measuring build arm, n={n} f={f} threads={threads} …");
        let g = generators::random_connected(n, extra, 7);
        let params = calibrated_params(Flavor::DetEpsNet, f, 4 * f * 11);
        let builder = || FtcScheme::builder(&g).params(&params).threads(threads);
        let build = || builder().build_store(EdgeEncoding::Full).expect("build");
        let build_z = || {
            builder()
                .build_store_compressed(EdgeEncoding::Full)
                .expect("build_store_compressed")
        };
        // Warm builds (page cache, allocator arenas) double as the
        // open-latency probe files.
        let v1_path = dir.join(format!("n{n}t{threads}.ftc"));
        let v2_path = dir.join(format!("n{n}t{threads}.ftcz"));
        let probe = |path: &std::path::Path, bytes: &[u8]| {
            std::fs::write(path, bytes).expect("write probe file");
            bytes.len()
        };
        let archive_bytes = probe(&v1_path, build().0.as_bytes());
        let archive_bytes_compressed = probe(&v2_path, build_z().0.as_bytes());

        // The big row takes seconds per build; two builds per arm is
        // plenty there, the window fills the small rows.
        let window = if n >= 100_000 { 0 } else { window_ms };
        let ms_per_build = mean_ms(2, window, || {
            black_box(build());
        });
        let ms_per_build_compressed = mean_ms(2, window / 2, || {
            black_box(build_z());
        });

        // Mean `compressed::open_path` latency over at least three opens.
        let open_ms = |path| {
            mean_ms(3, 100, || {
                black_box(ftc_core::compressed::open_path(path).expect("open"));
            })
        };
        let (open_v1_ms, open_v2_ms) = (open_ms(&v1_path), open_ms(&v2_path));
        let _ = std::fs::remove_file(&v1_path);
        let _ = std::fs::remove_file(&v2_path);

        cells.push(BuildCell {
            n,
            f,
            threads,
            ms_per_build,
            archive_bytes,
            ms_per_build_compressed,
            archive_bytes_compressed,
            open_v1_ms,
            open_v2_ms,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    cells
}

fn build_report(mode: &str, cells: &[BuildCell]) -> Report {
    let mut header = Row::new().str(
        "workload",
        "random_connected(n, extra, seed 7), k = 44f, SchemeBuilder::build_store(EdgeEncoding::Full) vs build_store_compressed (v2 container): graph -> complete servable archive; n <= 2000 rows use extra = 3n (the session-arm workload), the n >= 20000 rows use extra = n/2 and f = 2; open_*_ms is compressed::open_path on a temp file of each format",
    );
    if mode == "full" {
        // Historical reference; see `session_report`.
        header = header.obj(
            "baseline_pre_pr",
            Row::new()
                .str("note", "pre-slab allocating path (per-edge payload Vecs, owned-label clone, double-buffered encode): FtcScheme::build + LabelStore::to_vec at n=2000, f=4, threads=1, measured on the reference machine that produced the committed BENCH_build.json; compare ratios, not absolutes, across machines")
                .int("n", 2000)
                .int("f", 4)
                .int("threads", 1)
                .num("builds_per_sec", 2.65, 2)
                .num("ms_per_build", 377.7, 1),
        );
    }
    let mut report = Report::new("ftc-perf-build/v1", mode, header);
    for c in cells {
        report.push(
            Row::new()
                .int("n", c.n as u64)
                .int("f", c.f as u64)
                .int("threads", c.threads as u64)
                .num("builds_per_sec", 1000.0 / c.ms_per_build, 3)
                .num("ms_per_build", c.ms_per_build, 1)
                .int("archive_bytes", c.archive_bytes as u64)
                .num("ms_per_build_compressed", c.ms_per_build_compressed, 1)
                .int(
                    "archive_bytes_compressed",
                    c.archive_bytes_compressed as u64,
                )
                .num(
                    "compression_ratio",
                    c.archive_bytes as f64 / c.archive_bytes_compressed as f64,
                    2,
                )
                .num("open_v1_ms", c.open_v1_ms, 3)
                .num("open_v2_ms", c.open_v2_ms, 3),
        );
    }
    report
}

/// One measured churn-arm cell: single-edge incremental updates against
/// the from-scratch rebuild they replace, on the same graph. The report
/// adds `speedup` (`full_rebuild_ms / update_ms`, the headline ratio)
/// and `durable_speedup_fsync` (`full_rebuild_ms /
/// durable_update_fsync_ms`, the advantage that survives durability).
#[derive(Default)]
struct ChurnCell {
    n: usize,
    m: usize,
    f: usize,
    k: usize,
    levels: usize,
    /// Median `SchemeBuilder::build_store(Compact)` time — the static
    /// rebuild a deployment would otherwise pay per update.
    full_rebuild_ms: f64,
    /// Median single-edge update end to end: one
    /// `insert_edge`/`delete_edge` plus the `commit()` that emits the
    /// next servable archive.
    update_ms: f64,
    /// Median of the op alone (dirty-path row XOR, no commit).
    update_op_ms: f64,
    /// Median of the commit alone (archive assembly + checksum).
    update_commit_ms: f64,
    /// Committed archive size.
    archive_bytes: usize,
    /// Median durable update cycle through [`DurableScheme`] with the
    /// `on_commit` policy over the real filesystem: journaled op +
    /// group-commit `fsync` + in-memory servable commit (recycled).
    durable_update_fsync_ms: f64,
    /// The same cycle over a `NoSyncVfs` (every fsync a no-op) — the
    /// journaling overhead with the physical sync subtracted out.
    durable_update_nofsync_ms: f64,
    /// Median full disk checkpoint (`DurableScheme::commit`: journal
    /// sync → atomic archive replace → manifest → journal rotation) —
    /// the amortized snapshot cadence, not a per-update cost.
    durable_snapshot_fsync_ms: f64,
    /// The same checkpoint over `NoSyncVfs`.
    durable_snapshot_nofsync_ms: f64,
    /// Edge-set symmetric difference between the live scheme and a
    /// crash-less `DurableScheme::recover` of its on-disk state
    /// (journal suffix included). Must be 0.
    recovery_divergence: usize,
}

fn as_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn median_ms(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The churn arm's chord for `round`: a fresh pair of distinct vertices
/// in the connected graph, so inserting and then deleting it both stay
/// on the incremental path.
fn chord(n: usize, round: usize, has_edge: impl Fn(usize, usize) -> bool) -> (usize, usize) {
    let u = (round * 7919 + 13) % n;
    let mut v = (round * 104_729 + 31) % n;
    while u == v || has_edge(u, v) {
        v = (v + 1) % n;
    }
    (u, v)
}

/// Measures the churn arm: chord inserts/deletes through
/// [`DynamicScheme`], each followed by a full `commit()`, vs the
/// calibrated static `build_store` rebuild of the same graph. Every
/// update stays on the incremental fast path by construction (fresh
/// chords into a connected graph, then deleting the same chords), and
/// the cell asserts it — a structural rebuild here would be measuring
/// the wrong thing.
fn measure_churn(quick: bool) -> Vec<ChurnCell> {
    let (n, extra, rounds, reps) = if quick {
        (2000, 1000, 4, 2)
    } else {
        (20_000, 10_000, 8, 3)
    };
    let f = 2;
    eprintln!("measuring churn arm, n={n} …");
    let g = generators::random_connected(n, extra, 4242);

    let params = calibrated_params(Flavor::DetEpsNet, f, 4 * f * 11);
    let full_rebuild_ms = as_ms(median_time(reps, || {
        black_box(
            FtcScheme::builder(&g)
                .params(&params)
                .build_store(EdgeEncoding::Compact)
                .expect("build_store"),
        );
    }));

    let dynamic = || {
        let mut cfg = DynConfig::new(f, 24);
        cfg.seed = 4242;
        DynamicScheme::new(&g, cfg).expect("dynamic scheme")
    };
    let mut scheme = dynamic();
    let mut archive_bytes = 0usize;
    let (mut op_ms, mut commit_ms, mut total_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut update = |scheme: &mut DynamicScheme, insert: bool, u: usize, v: usize| {
        let t = Instant::now();
        if insert {
            scheme.insert_edge(u, v).expect("insert");
        } else {
            scheme.delete_edge(u, v).expect("delete");
        }
        let op = t.elapsed().as_secs_f64() * 1000.0;
        let t = Instant::now();
        let store = scheme.commit();
        let commit = t.elapsed().as_secs_f64() * 1000.0;
        archive_bytes = store.as_bytes().len();
        // Steady-state double buffering: the retired generation's
        // allocation backs the next commit (the deployment pattern the
        // serving layer's blue/green swap produces once the old
        // generation drains).
        scheme.recycle(black_box(store));
        op_ms.push(op);
        commit_ms.push(commit);
        total_ms.push(op + commit);
    };
    // Warm-up commit: fault the archive pages in once and recycle them,
    // so every measured rep sees the steady-state double-buffered path.
    let warm = scheme.commit();
    scheme.recycle(warm);
    for round in 0..rounds {
        let (u, v) = chord(n, round, |u, v| scheme.has_edge(u, v));
        update(&mut scheme, true, u, v);
        update(&mut scheme, false, u, v);
    }
    let stats = scheme.stats();
    assert_eq!(
        stats.structural_rebuilds + stats.slot_rebuilds,
        0,
        "churn arm must measure the incremental fast path: {stats:?}"
    );
    let (m, k, levels) = (scheme.m(), scheme.k(), scheme.levels());

    // Durable arm: the same chord cycle through `DurableScheme` with
    // the `on_commit` group-commit policy, on the real filesystem. One
    // cycle = journaled op + journal fsync + in-memory servable commit
    // (double-buffered via recycle) — the WAL cadence, where the full
    // disk checkpoint (`commit()`) is a separate amortized cost
    // reported as the snapshot row.
    let durable_dir = std::env::temp_dir().join(format!("ftc-perf-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&durable_dir);
    std::fs::create_dir_all(&durable_dir).expect("create durable bench dir");
    let durable_arm = |vfs: Arc<dyn Vfs>, scheme: DynamicScheme, tag: &str| {
        let archive = durable_dir.join(format!("churn-{tag}.ftc"));
        let journal = default_journal_path(&archive);
        let mut d = DurableScheme::create(vfs, &archive, &journal, scheme, FsyncPolicy::OnCommit)
            .expect("durable create");
        let warm = d.commit_store().expect("warm commit");
        d.recycle(warm);
        let mut cycle_ms = Vec::new();
        for round in 0..rounds {
            let (u, v) = chord(n, round, |u, v| d.scheme().has_edge(u, v));
            for insert in [true, false] {
                let t = Instant::now();
                if insert {
                    d.insert_edge(u, v).expect("durable insert");
                } else {
                    d.delete_edge(u, v).expect("durable delete");
                }
                let store = d.commit_store().expect("durable commit_store");
                cycle_ms.push(t.elapsed().as_secs_f64() * 1000.0);
                d.recycle(black_box(store));
            }
        }
        let snap = median_time(reps, || {
            d.commit().expect("durable checkpoint");
        });
        (median_ms(cycle_ms), as_ms(snap), d)
    };

    let (durable_update_fsync_ms, durable_snapshot_fsync_ms, mut d) =
        durable_arm(Arc::new(StdVfs), scheme, "fsync");

    // Recovery round-trip on the fsync arm's real files: leave one op
    // journaled past the checkpoint (synced, no manifest advance), then
    // recover from disk and diff the edge sets. Any divergence means
    // acknowledged ops were lost or invented.
    let (u, v) = chord(n, rounds, |u, v| d.scheme().has_edge(u, v));
    d.insert_edge(u, v).expect("post-checkpoint insert");
    d.sync().expect("group-commit sync");
    let expected: std::collections::BTreeSet<(usize, usize)> = d.scheme().edge_pairs().collect();
    let archive = d.archive_path().to_path_buf();
    let journal = d.journal_path().to_path_buf();
    drop(d);
    let (recovered, _) = DurableScheme::recover(
        Arc::new(StdVfs),
        &archive,
        &journal,
        4242,
        FsyncPolicy::OnCommit,
    )
    .expect("durable recover");
    let got: std::collections::BTreeSet<(usize, usize)> = recovered.scheme().edge_pairs().collect();
    let recovery_divergence = expected.symmetric_difference(&got).count();
    drop(recovered);

    let (durable_update_nofsync_ms, durable_snapshot_nofsync_ms, _) =
        durable_arm(Arc::new(NoSyncVfs), dynamic(), "nofsync");
    let _ = std::fs::remove_dir_all(&durable_dir);

    let update_ms = median_ms(total_ms);
    vec![ChurnCell {
        n,
        m,
        f,
        k,
        levels,
        full_rebuild_ms,
        update_ms,
        update_op_ms: median_ms(op_ms),
        update_commit_ms: median_ms(commit_ms),
        archive_bytes,
        durable_update_fsync_ms,
        durable_update_nofsync_ms,
        durable_snapshot_fsync_ms,
        durable_snapshot_nofsync_ms,
        recovery_divergence,
    }]
}

fn churn_report(mode: &str, cells: &[ChurnCell]) -> Report {
    let header = Row::new().str(
        "workload",
        "random_connected(n, n/2, seed 4242): median single-edge chord update (insert_edge/delete_edge + commit, double-buffered via recycle) through ftc-dyn (randomized-halving levels, compact rows, k = 24) vs the median calibrated DetEpsNet build_store(Compact) rebuild of the same graph; speedup = full_rebuild_ms / update_ms. durable_* rows run the same cycle through DurableScheme (write-ahead journal, on_commit policy): durable_update = journaled op + group-commit fsync + in-memory servable commit; durable_snapshot = full disk checkpoint (journal sync, atomic archive replace, manifest, journal rotation); the nofsync twins run over a NoSyncVfs to isolate the physical sync cost (for multi-megabyte snapshots the nofsync arm can come out *slower*: skipped fsyncs leave the page cache dirty and later writes absorb the kernel's writeback throttling, while the fsync arm pays the flush eagerly and writes into a clean cache); recovery_divergence = edge-set diff after a DurableScheme::recover round-trip of the on-disk state (must be 0)",
    );
    let mut report = Report::new("ftc-perf-churn/v1", mode, header);
    for c in cells {
        report.push(
            Row::new()
                .int("n", c.n as u64)
                .int("m", c.m as u64)
                .int("f", c.f as u64)
                .int("k", c.k as u64)
                .int("levels", c.levels as u64)
                .num("full_rebuild_ms", c.full_rebuild_ms, 1)
                .num("update_ms", c.update_ms, 2)
                .num("update_op_ms", c.update_op_ms, 3)
                .num("update_commit_ms", c.update_commit_ms, 2)
                .int("archive_bytes", c.archive_bytes as u64)
                .num("speedup", c.full_rebuild_ms / c.update_ms, 1)
                .num("durable_update_fsync_ms", c.durable_update_fsync_ms, 2)
                .num("durable_update_nofsync_ms", c.durable_update_nofsync_ms, 2)
                .num("durable_snapshot_fsync_ms", c.durable_snapshot_fsync_ms, 2)
                .num(
                    "durable_snapshot_nofsync_ms",
                    c.durable_snapshot_nofsync_ms,
                    2,
                )
                .num(
                    "durable_speedup_fsync",
                    c.full_rebuild_ms / c.durable_update_fsync_ms,
                    1,
                )
                .int("recovery_divergence", c.recovery_divergence as u64),
        );
    }
    report
}

/// The arms, in run order; each writes `BENCH_<arm>.json`.
const ARMS: [&str; 4] = ["build", "session", "serve", "churn"];

const USAGE: &str =
    "usage: perf_report [--quick] [--only session|serve|build|churn] [--out-dir DIR]";

fn run() -> Result<(), String> {
    let mut quick = false;
    let mut only: Option<String> = None;
    let mut out_dir = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--only" => {
                only = Some(
                    args.next()
                        .filter(|arm| ARMS.contains(&arm.as_str()))
                        .ok_or(USAGE)?,
                );
            }
            "--out-dir" => out_dir = args.next().ok_or(USAGE)?.into(),
            _ => return Err(USAGE.into()),
        }
    }
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let mode = if quick { "quick" } else { "full" };

    for arm in ARMS {
        if only.as_deref().is_some_and(|o| o != arm) {
            continue;
        }
        let report = match arm {
            "build" => build_report(mode, &measure_build(quick)),
            "session" => session_report(mode, &measure_session(quick)),
            "serve" => serve_report(mode, &measure_serve(quick)),
            _ => {
                let cells = measure_churn(quick);
                // Lost or invented acknowledged ops are a correctness
                // failure, not a number to record.
                if let Some(c) = cells.iter().find(|c| c.recovery_divergence != 0) {
                    return Err(format!(
                        "recovery diverged from the live edge set by {} edges",
                        c.recovery_divergence
                    ));
                }
                churn_report(mode, &cells)
            }
        };
        let path = out_dir.join(format!("BENCH_{arm}.json"));
        print!("{}", report.write(&path)?);
        println!("wrote {}", path.display());
    }
    Ok(())
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

    /// Every committed report row has exactly the keys, key order, and
    /// decimal precision the writer emits, so the files stay valid under
    /// their schema tags.
    #[test]
    fn writer_matches_committed_reports() {
        let build = BuildCell {
            ms_per_build: 1.0,
            archive_bytes_compressed: 1,
            ..BuildCell::default()
        };
        let churn = ChurnCell {
            update_ms: 1.0,
            durable_update_fsync_ms: 1.0,
            ..ChurnCell::default()
        };
        for (file, report) in [
            (
                "BENCH_session.json",
                session_report("full", &[Cell::default()]),
            ),
            (
                "BENCH_serve.json",
                serve_report("full", &[ServeCell::default()]),
            ),
            ("BENCH_build.json", build_report("full", &[build])),
            ("BENCH_churn.json", churn_report("full", &[churn])),
        ] {
            let want = row_shapes(&report.render().unwrap()).remove(0);
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let rows = row_shapes(&std::fs::read_to_string(&path).unwrap());
            assert!(!rows.is_empty(), "{file} has no result rows");
            for row in rows {
                assert_eq!(row, want, "{file} drifted from its writer");
            }
        }
    }
}

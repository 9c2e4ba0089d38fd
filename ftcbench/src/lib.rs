//! `ftcbench` — the repository's end-to-end benchmark.
//!
//! It drives the system the way its users do, in one process:
//!
//! - `wire_faults`: two closed-loop query connections, four requests deep,
//!   against a v1 archive served over `ftc-net`, every request a fresh
//!   fault set (so every request prepares a session) with four pairs;
//! - `wire_sweep`: two connections two requests deep against a v2
//!   compressed archive, 4096 fault sets each re-checking the same 8192
//!   demand pairs;
//! - `churn`: a writer feeding one edge op every 400 ms through
//!   `DurableScheme` into the live registry while a reader, 32 requests
//!   deep, queries it over the wire.
//!
//! Every connection keeps more than one request in flight, so the server
//! always has the next request queued: on a small shared machine a
//! one-deep loop measures how fast idle cores wake up, not the program.
//!
//! Every answer is checked against a breadth-first oracle. A run with
//! tracing off reports the end-to-end metrics; a traced run times each
//! call the benchmark makes into a layer and reports per-layer metrics.
//! Every call into the `ftc-*` crates goes through [`api`].

pub mod api;
mod churn;
pub mod inputs;
pub mod report;
mod sys;
pub mod trace;
mod wire;

use report::Report;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fresh fault set per request, v1 archive.
    WireFaults,
    /// 8192-pair sweeps over 4096 fault sets, v2 archive.
    WireSweep,
    /// Durable edge churn under a live reader.
    Churn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::WireFaults, Workload::WireSweep, Workload::Churn];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireFaults => "wire_faults",
            Workload::WireSweep => "wire_sweep",
            Workload::Churn => "churn",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Small inputs and single repetitions, for testing the benchmark.
    pub smoke: bool,
    /// Archives and journals live here during the run.
    pub work_dir: PathBuf,
    /// Where the spans are written.
    pub trace_path: PathBuf,
    /// Set-ups per run (the median is reported).
    pub setup_reps: usize,
    /// Updates (rebuild, write, reload) a static workload times.
    pub update_reps: usize,
    /// Requests the traced run replays in-process.
    pub replay: usize,
    /// Warm-up requests of the churn reader.
    pub churn_warm: usize,
}

impl Options {
    /// Settings for a run whose files go under `root`.
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        smoke: bool,
        root: &Path,
    ) -> Options {
        let base = root.join(".ftcbench_work");
        Options {
            workload,
            seed,
            seconds,
            trace,
            smoke,
            work_dir: base.join(format!(
                "{}-{}-{}",
                workload.name(),
                std::process::id(),
                seed
            )),
            trace_path: base.join(format!("trace-{}.tsv", workload.name())),
            setup_reps: if smoke { 1 } else { 5 },
            update_reps: if smoke { 2 } else { 10 },
            replay: if smoke { 16 } else { 1024 },
            churn_warm: if smoke { 8 } else { 64 },
        }
    }
}

/// Seed of every workload's graph. The graphs are fixed data sets; the
/// run's seed draws everything else (fault sets, pairs, the op stream,
/// the dynamic scheme's randomness). Session cost is heavy-tailed and its
/// tail depends on the graph, so a graph per seed would make the seed,
/// not the program, move the tail metrics.
const GRAPH_SEED: u64 = 0x5EED_F7C0;

/// Runs one workload and returns everything it measured.
///
/// # Errors
///
/// A description of what failed to set up or run; wrong answers are not
/// errors but counts in the report.
pub fn run(opts: &Options) -> Result<Report, String> {
    if cfg!(debug_assertions) && !opts.smoke {
        return Err(
            "refusing to measure a build with debug assertions; build with --release".into(),
        );
    }
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    let t0 = Instant::now();
    let result = run_workload(opts);
    let cleanup = std::fs::remove_dir_all(&opts.work_dir);
    let mut report = result?;
    cleanup.map_err(|e| format!("remove {}: {e}", opts.work_dir.display()))?;
    report
        .stamp
        .push(("run_s", format!("{:.1}", t0.elapsed().as_secs_f64())));
    Ok(report)
}

fn run_workload(opts: &Options) -> Result<Report, String> {
    let stamp = [
        ("cores", sys::cores().to_string()),
        ("profile", sys::profile().to_string()),
        ("fs", sys::fs_type(&opts.work_dir)),
    ];
    let seed = opts.seed;
    let mut report = match opts.workload {
        Workload::WireFaults | Workload::WireSweep => {
            let (n, extra) = if opts.smoke { (200, 600) } else { (2000, 6000) };
            let g = api::Graph::random_connected(n, extra, GRAPH_SEED);
            let f = wire::F;
            let (stream, shape) = if opts.workload == Workload::WireFaults {
                let requests = if opts.smoke { 128 } else { 16_384 };
                let shape = wire::Shape {
                    format: api::Format::V1,
                    depth: 4,
                    shared: true,
                    warm: 64,
                };
                (inputs::fresh_faults(&g, seed, f, requests, 4), shape)
            } else {
                let (sets, pairs) = if opts.smoke { (16, 256) } else { (4096, 8192) };
                let shape = wire::Shape {
                    format: api::Format::V2,
                    depth: 2,
                    shared: false,
                    warm: 32,
                };
                (inputs::sweep(&g, seed, f, sets, pairs), shape)
            };
            wire::run(opts, &g, &stream, &shape)?
        }
        Workload::Churn => {
            let (n, extra, ops) = if opts.smoke {
                (1000, 2000, 256)
            } else {
                (20_000, 10_000, 4096)
            };
            let g = api::Graph::random_connected(n, extra, GRAPH_SEED);
            let reads = if opts.smoke { 64 } else { 4096 };
            let inputs = inputs::churn(&g, seed, 2, ops, reads, reads, 16);
            churn::run(opts, &g, &inputs, seed)?
        }
    };
    report.stamp.splice(0..0, stamp);
    Ok(report)
}

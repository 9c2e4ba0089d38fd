//! The `churn` workload: a writer streams edge ops through the durable
//! scheme into the live registry while a reader queries the same entry
//! over the wire; every read is checked against the oracle for a graph
//! version that was live while it was in flight.

use crate::api::{self, Durable, Edge, Graph, Oracle, Registry, Service, WireServer};
use crate::inputs::{Churn, Op, Stream};
use crate::report::{median, quantile, Report};
use crate::trace::Tracer;
use crate::wire::{self, answer_mask, Answers, Dispatch, LiveRead, Reads, Verify};
use crate::{sys, Options};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Fault budget and outdetect threshold of the dynamic scheme.
const F: usize = 2;
const K: usize = 24;
/// Ops between disk checkpoints.
const CHECKPOINT_EVERY: usize = 16;
/// The update feed's rate: one op is due every period, about two and a
/// half times an update's cost, so reads meet a commit in a steady share
/// of the window.
const OP_PERIOD: Duration = Duration::from_millis(400);
/// Requests the reader keeps in flight: about 2.5 ms of queued work, more
/// than a scheduler slice, so the server stays busy while a commit holds
/// the reader's client off its core and the reader measures serving, not
/// thread wake-ups.
const READ_DEPTH: usize = 32;

/// The writer's running state across measured phases.
struct Writer {
    durable: Durable,
    /// Ops applied so far (version `i` is the graph after `i` ops).
    applied: usize,
    /// Registry generation of each version.
    generations: Vec<u64>,
    /// Update latency of each op, ns.
    lat_ns: Vec<f64>,
    /// Wall time the writer spent applying ops, checkpoints included.
    busy: Duration,
    /// Journal growth between checkpoints: bytes and ops.
    journal_bytes: u64,
    journal_ops: u64,
    journal_base: u64,
    failure: Option<String>,
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

impl Writer {
    /// Applies the ops due before `deadline`, one every [`OP_PERIOD`]
    /// (an open loop): each op, then `commit_service` and `swap`; a
    /// checkpoint every [`CHECKPOINT_EVERY`] ops. A traced phase syncs the
    /// journal in its own span before the commit.
    fn phase(&mut self, ops: &[Op], registry: &Registry, deadline: Instant, tr: &mut Tracer) {
        let start = Instant::now();
        let mut due = start;
        while due < deadline && self.applied < ops.len() && self.failure.is_none() {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let began = Instant::now();
            if let Err(e) = self.step(ops[self.applied], due, registry, tr) {
                self.failure = Some(e);
            }
            self.busy += began.elapsed();
            due += OP_PERIOD;
        }
    }

    /// Applies one op due at `due`; its update latency counts from then,
    /// so a writer running behind the feed pays for its backlog.
    fn step(
        &mut self,
        op: Op,
        due: Instant,
        registry: &Registry,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let req = self.applied as u64;
        let parent = tr.open("churn.update", req, Tracer::NONE);
        let durable = &mut self.durable;
        tr.span("dyn.op", req, parent, || durable.apply(op.insert, op.edge))?;
        if tr.on() {
            tr.span("dyn.sync", req, parent, || durable.sync())?;
        }
        let service = tr.span("dyn.commit_service", req, parent, || {
            durable.commit_service()
        })?;
        let generation = tr.span("serve.swap", req, parent, || registry.swap(service));
        self.lat_ns.push(due.elapsed().as_nanos() as f64);
        tr.close(parent);
        self.generations.push(generation);
        self.applied += 1;
        if self.applied.is_multiple_of(CHECKPOINT_EVERY) {
            let journal = durable.journal_path();
            self.journal_bytes += file_len(&journal).saturating_sub(self.journal_base);
            self.journal_ops += CHECKPOINT_EVERY as u64;
            tr.span("dyn.checkpoint", req, Tracer::NONE, || durable.checkpoint())?;
            self.journal_base = file_len(&journal);
        }
        Ok(())
    }
}

/// What every measured phase shares.
struct Stage<'a> {
    opts: &'a Options,
    inputs: &'a Churn,
    registry: &'a Registry,
    server: &'a WireServer,
}

/// One measured phase: the reader's closed loop against the writer's
/// ops, both starting together; the reader ends at the end of its pass
/// once the writer is done.
fn phase(
    stage: &Stage<'_>,
    writer: &mut Writer,
    window: Duration,
    reads_out: Reads,
    tr: &mut Tracer,
) -> Reads {
    let reads = &stage.inputs.reads;
    let opts = stage.opts;
    let warms = [Dispatch::new(
        0,
        opts.churn_warm.min(reads.requests.len()),
        Duration::ZERO,
    )];
    // One block: the run's whole window, so its figures cover every op
    // period alike, contended and not.
    let measured = [Dispatch::new(0, reads.requests.len(), Duration::MAX / 4).whole_run()];
    let start = Barrier::new(2);
    let template = tr.fork();
    let mut writer_tr = template.fork();
    let out = std::thread::scope(|s| {
        let handles = wire::spawn_clients(
            s,
            stage.server.addr(),
            reads,
            &warms,
            &measured,
            READ_DEPTH,
            Verify::Live(stage.registry),
            &template,
            &start,
            vec![reads_out],
        );
        start.wait();
        let deadline = Instant::now() + window;
        writer.phase(&stage.inputs.ops, stage.registry, deadline, &mut writer_tr);
        measured[0].finish();
        wire::join_clients(handles, tr)
    });
    tr.merge(writer_tr);
    out
}

/// Runs the churn workload end to end.
pub fn run(opts: &Options, g: &Graph, inputs: &Churn, seed: u64) -> Result<Report, String> {
    let mut report = Report {
        absent: vec!["build."],
        ..Report::default()
    };
    let mut tr = Tracer::new(opts.trace, Instant::now());
    report.stamp.push(("format", "v1-compact (dynamic)".into()));
    let pass = inputs.reads.requests.len();
    let reserved = Reads::reserve(opts.seconds, pass, true);

    // Set-up, several times; the last one stays up.
    let first_expected = final_answers(g, inputs, 0);
    let registry = Registry::default();
    let mut setups = Vec::new();
    let mut live: Option<(Durable, WireServer, u64)> = None;
    for rep in 0..opts.setup_reps as u64 {
        if let Some((_, server, _)) = live.take() {
            server.stop().map_err(|e| format!("server stop: {e}"))?;
        }
        let dir = opts.work_dir.join(format!("churn-{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let t0 = Instant::now();
        let scheme = tr.span("dyn.new", rep, Tracer::NONE, || {
            api::dynamic_scheme(g, F, K, seed)
        })?;
        let mut durable = tr.span("dyn.create", rep, Tracer::NONE, || {
            Durable::create(&dir, scheme)
        })?;
        let service = tr.span("dyn.first_commit", rep, Tracer::NONE, || {
            durable.commit_service()
        })?;
        let generation = registry.swap(service);
        let server = tr
            .span("net.bind", rep, Tracer::NONE, || {
                WireServer::start(&registry)
            })
            .map_err(|e| format!("bind: {e}"))?;
        wire::first_answer(server.addr(), &inputs.reads, 0, &first_expected)?;
        setups.push(t0.elapsed().as_secs_f64());
        live = Some((durable, server, generation));
    }
    let (durable, server, generation0) = live.ok_or("no set-up ran")?;
    let journal_base = file_len(&durable.journal_path());
    let mut writer = Writer {
        durable,
        applied: 0,
        generations: Vec::with_capacity(inputs.ops.len() + 1),
        lat_ns: Vec::with_capacity(inputs.ops.len()),
        busy: Duration::ZERO,
        journal_bytes: 0,
        journal_ops: 0,
        journal_base,
        failure: None,
    };
    writer.generations.push(generation0);

    let stage = Stage {
        opts,
        inputs,
        registry: &registry,
        server: &server,
    };
    let window = Duration::from_secs_f64(opts.seconds);
    let (plain, traced) = if opts.trace {
        let mut off = Tracer::new(false, tr.epoch());
        let plain = phase(&stage, &mut writer, window / 2, reserved, &mut off);
        let half = Reads::reserve(opts.seconds / 2.0, pass, true);
        let traced = phase(&stage, &mut writer, window / 2, half, &mut tr);
        (plain, Some(traced))
    } else {
        (phase(&stage, &mut writer, window, reserved, &mut tr), None)
    };
    // The measured phases are over; the analysis below allocates.
    report.set("process.peak_rss_mb", sys::peak_rss_mb());
    let counters = server.counters();
    server.stop().map_err(|e| format!("server stop: {e}"))?;
    let reads = wire::summarize(plain, traced, &mut report);

    report.attempted = reads.attempted + writer.applied as u64;
    report.failed = reads.failed + u64::from(writer.failure.is_some());
    if let Some(e) = writer.failure.as_ref().or(reads.first_error.as_ref()) {
        report.stamp.push(("first_error", e.clone()));
    }
    // The correctness gate, after timing stops.
    report.wrong = check_reads(g, inputs, &writer.generations, reads.live());

    let ops = writer.applied;
    report.set_n("setup_s", median(&mut setups.clone()), setups.len());
    report.set_n(
        "update_p50_ms",
        quantile(&mut writer.lat_ns, 0.5) / 1e6,
        ops,
    );
    report.set_n(
        "update_p90_ms",
        quantile(&mut writer.lat_ns, 0.9) / 1e6,
        ops,
    );
    report.set_n("updates_per_s", ops as f64 / writer.busy.as_secs_f64(), ops);
    report.set(
        "workload.false_frac",
        reads.falses as f64 / reads.answers.max(1) as f64,
    );

    let journal = writer.durable.journal_path();
    writer.journal_bytes += file_len(&journal).saturating_sub(writer.journal_base);
    writer.journal_ops += (ops % CHECKPOINT_EVERY) as u64;
    // A last checkpoint puts the served version on disk, where the
    // archive's size is read and the traced run opens it.
    let archive = writer.durable.archive_path();
    let dir = archive
        .parent()
        .expect("the archive lives in a directory")
        .to_path_buf();
    tr.span("dyn.checkpoint", ops as u64, Tracer::NONE, || {
        writer.durable.checkpoint()
    })?;
    let archive_bytes = file_len(&archive);
    report.set("archive_mb", archive_bytes as f64 / 1e6);
    report.set("workload.archive_bytes", archive_bytes as f64);

    if opts.trace {
        let c = writer.durable.counters();
        report.set("dyn.incremental_ops", c.incremental_ops as f64);
        report.set("dyn.structural_rebuilds", c.structural_rebuilds as f64);
        report.set("dyn.slot_rebuilds", c.slot_rebuilds as f64);
        report.set(
            "workload.structural_frac",
            c.structural_rebuilds as f64 / ops.max(1) as f64,
        );
        report.set(
            "dyn.journal_bytes_per_op",
            writer.journal_bytes as f64 / writer.journal_ops.max(1) as f64,
        );
        let mut op = tr.durations("dyn.op");
        let mut commit = tr.durations("dyn.commit_service");
        report.set_n("dyn.op_ms.p50", quantile(&mut op, 0.5) / 1e6, op.len());
        report.set_n("dyn.op_ms.max", quantile(&mut op, 1.0) / 1e6, op.len());
        report.set_n(
            "dyn.commit_ms.p50",
            quantile(&mut commit, 0.5) / 1e6,
            commit.len(),
        );

        // The committed archive through the core io and compress layers.
        let bytes =
            std::fs::read(&archive).map_err(|e| format!("read {}: {e}", archive.display()))?;
        let copy = dir.join("copy.ftc");
        for rep in 0..3 {
            let sum = tr.span("compress.checksum", rep, Tracer::NONE, || {
                api::checksum(&bytes)
            });
            std::hint::black_box(sum);
            tr.span("core.write", rep, Tracer::NONE, || {
                api::write_atomic(&copy, &bytes)
            })
            .map_err(|e| format!("write {}: {e}", copy.display()))?;
            let opened = tr.span("core.open", rep, Tracer::NONE, || Service::open(&archive))?;
            drop(opened);
        }
        drop(bytes);
        let expected = final_answers(g, inputs, ops);
        wire::replay(
            opts,
            &archive,
            &registry,
            &inputs.reads,
            &expected,
            &mut tr,
            &mut report,
        )?;
        wire::layer_metrics(&tr, &counters, reads.retries, &mut report);
        tr.write_tsv(&opts.trace_path)
            .map_err(|e| format!("write {}: {e}", opts.trace_path.display()))?;
    }
    Ok(report)
}

/// The graph versions a run went through, as the oracle sees them.
///
/// Version `v` is the original graph after `ops[..v]`. Minus any reader
/// fault set, deleting the one original edge the stream may hold deleted
/// changes no connectivity (see [`crate::inputs::churn`]), and a chord
/// can only merge components; so the oracle is prepared once per fault
/// set on the original graph, and the chords live at `v` join in by
/// closure.
struct Versions<'a> {
    /// Chords live at each version.
    chords: Vec<Vec<Edge>>,
    oracle: Oracle<'a>,
    /// Fault set the oracle is prepared for.
    prepared: Option<usize>,
}

impl<'a> Versions<'a> {
    /// Versions `0..=ops.len()`.
    fn new(g: &'a Graph, ops: &[Op]) -> Versions<'a> {
        let mut chords = vec![Vec::new()];
        let mut live: Vec<Edge> = Vec::new();
        for op in ops {
            if !op.original {
                if op.insert {
                    live.push(op.edge);
                } else {
                    live.retain(|&c| c != op.edge);
                }
            }
            chords.push(live.clone());
        }
        Versions {
            chords,
            oracle: Oracle::new(g),
            prepared: None,
        }
    }

    /// Whether `s` and `t` are connected in version `v` minus the
    /// prepared faults: the union-find closure of the prepared components
    /// and `v`'s chords over `s`, `t` and the chord endpoints.
    fn connected(&mut self, v: usize, s: usize, t: usize) -> bool {
        let chords = &self.chords[v];
        if chords.is_empty() {
            return self.oracle.connected(s, t);
        }
        let nodes: Vec<usize> = [s, t]
            .into_iter()
            .chain(chords.iter().flat_map(|&(a, b)| [a, b]))
            .collect();
        let mut parent: Vec<usize> = (0..nodes.len()).collect();
        fn root(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for i in 0..nodes.len() {
            for j in i + 1..nodes.len() {
                let chord = i >= 2 && i % 2 == 0 && j == i + 1;
                if chord || self.oracle.connected(nodes[i], nodes[j]) {
                    let (ri, rj) = (root(&mut parent, i), root(&mut parent, j));
                    parent[ri] = rj;
                }
            }
        }
        root(&mut parent, 0) == root(&mut parent, 1)
    }

    /// Answers of request `r` of `stream` on version `v`.
    fn answers(&mut self, v: usize, stream: &Stream, r: usize) -> Vec<bool> {
        let (f, p) = stream.requests[r];
        if self.prepared != Some(f) {
            self.oracle.prepare(&stream.fault_sets[f]);
            self.prepared = Some(f);
        }
        stream.pair_sets[p]
            .iter()
            .map(|&(s, t)| self.connected(v, s, t))
            .collect()
    }
}

/// Expected answers of every reader request on the version after
/// `applied` ops.
fn final_answers(g: &Graph, inputs: &Churn, applied: usize) -> Answers {
    let mut versions = Versions::new(g, &inputs.ops[..applied]);
    let reads = &inputs.reads;
    let mut order: Vec<usize> = (0..reads.requests.len()).collect();
    order.sort_by_key(|&i| reads.requests[i].0);
    let mut out = Answers::new(reads);
    for i in order {
        out.set(i, versions.answers(applied, reads, i));
    }
    out
}

/// Checks every read against the oracle of some version live while it
/// was in flight (generations `gen_lo..=gen_hi`); returns the reads no
/// such version explains.
fn check_reads<'r>(
    g: &Graph,
    inputs: &Churn,
    generations: &[u64],
    live: impl Iterator<Item = &'r LiveRead>,
) -> u64 {
    let reads = &inputs.reads;
    let version = |generation: u64| generations.binary_search(&generation).ok();
    let mut versions = Versions::new(g, &inputs.ops[..generations.len() - 1]);
    let mut order: Vec<&LiveRead> = live.collect();
    order.sort_by_key(|read| reads.requests[read.req as usize].0);
    let mut wrong = 0;
    for read in order {
        let r = read.req as usize;
        let explained = match (version(read.gen_lo), version(read.gen_hi)) {
            (Some(lo), Some(hi)) => {
                (lo..=hi).any(|v| answer_mask(&versions.answers(v, reads, r)) == Some(read.answers))
            }
            _ => false,
        };
        wrong += u64::from(!explained);
    }
    wrong
}

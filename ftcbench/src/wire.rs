//! The wire workloads: query clients over `ftc-net` against an archive
//! served from disk, and the closed-loop client the churn reader
//! shares.

use crate::api::{
    self, Format, Graph, Oracle, Registry, Scratch, Service, View, WireClient, WireServer,
};
use crate::inputs::Stream;
use crate::report::{median, quantile, Report};
use crate::sys;
use crate::trace::{SpanId, Tracer};
use crate::Options;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Fault budget of both static workloads.
pub const F: usize = 4;
/// Query connections of both static workloads.
pub const CONNS: usize = 2;
/// Requests per second of window a connection keeps records for; see
/// [`Reads::reserve`].
const RECORD_RATE: f64 = 32_768.0;

/// Hands out request indices over a slice of a stream, in whole passes.
/// Draws are numbered; every `block` draws form a block, the unit the
/// closed-loop metrics are taken over. Once the window has elapsed (or
/// [`Dispatch::finish`] was called), the run ends at the next pass
/// boundary, so every run sees whole copies of the slice.
pub struct Dispatch {
    offset: usize,
    len: usize,
    block: usize,
    window: Duration,
    /// `(next draw, limit)`.
    state: Mutex<(usize, usize)>,
    deadline: OnceLock<Instant>,
    finished: AtomicBool,
}

impl Dispatch {
    /// Requests `offset..offset + len`, cycled until `window` after the
    /// first draw; one pass per block.
    pub fn new(offset: usize, len: usize, window: Duration) -> Dispatch {
        Dispatch {
            offset,
            len,
            block: len,
            window,
            state: Mutex::new((0, usize::MAX)),
            deadline: OnceLock::new(),
            finished: AtomicBool::new(false),
        }
    }

    /// Makes the whole run one block.
    pub fn whole_run(mut self) -> Dispatch {
        self.block = usize::MAX;
        self
    }

    /// Ends the run at the next pass boundary.
    pub fn finish(&self) {
        self.finished.store(true, Ordering::SeqCst);
    }

    /// The next request: its block and its index in the stream; `None`
    /// when the run is over.
    fn draw(&self) -> Option<(usize, usize)> {
        let deadline = *self.deadline.get_or_init(|| Instant::now() + self.window);
        let mut state = self
            .state
            .lock()
            .expect("no thread panics holding the dispatch lock");
        let (next, limit) = &mut *state;
        if *next > 0
            && *next % self.len == 0
            && (self.finished.load(Ordering::SeqCst) || Instant::now() >= deadline)
        {
            *limit = (*limit).min(*next);
        }
        if *next >= *limit {
            return None;
        }
        let draw = *next;
        *next += 1;
        Some((draw / self.block, self.offset + draw % self.len))
    }
}

/// Expected answers of every request of a stream, one bit per pair.
pub struct Answers {
    bits: Vec<u64>,
    /// Request `r`'s answers are bits `start[r]..start[r + 1]`.
    start: Vec<usize>,
}

impl Answers {
    /// All-`false` answers, shaped like `stream`'s requests.
    pub fn new(stream: &Stream) -> Answers {
        let mut start = Vec::with_capacity(stream.requests.len() + 1);
        let mut end = 0;
        start.push(end);
        for &(_, p) in &stream.requests {
            end += stream.pair_sets[p].len();
            start.push(end);
        }
        Answers {
            bits: vec![0; end.div_ceil(64)],
            start,
        }
    }

    /// Sets request `r`'s answers.
    pub fn set(&mut self, r: usize, answers: impl IntoIterator<Item = bool>) {
        for (i, a) in (self.start[r]..self.start[r + 1]).zip(answers) {
            let bit = 1 << (i % 64);
            if a {
                self.bits[i / 64] |= bit;
            } else {
                self.bits[i / 64] &= !bit;
            }
        }
    }

    /// Whether `got` are request `r`'s answers.
    pub fn matches(&self, r: usize, got: &[bool]) -> bool {
        let bits = self.start[r]..self.start[r + 1];
        bits.len() == got.len()
            && bits
                .zip(got)
                .all(|(i, &a)| (self.bits[i / 64] >> (i % 64)) & 1 == u64::from(a))
    }
}

/// Up to 32 answers as a bit mask, answer `i` in bit `i`.
pub fn answer_mask(answers: &[bool]) -> Option<u32> {
    (answers.len() <= 32).then(|| {
        answers
            .iter()
            .enumerate()
            .fold(0, |mask, (i, &a)| mask | u32::from(a) << i)
    })
}

/// How answers are checked as they arrive.
#[derive(Clone, Copy)]
pub enum Verify<'a> {
    /// Against precomputed answers, per request.
    Expected(&'a Answers),
    /// Recorded with the registry generations live around the request,
    /// for a check once the run is over.
    Live(&'a Registry),
}

/// A read answered while the graph changed: the registry generations
/// read before the send and after the receive, its request and its
/// answers.
#[derive(Clone, Copy, Default)]
pub struct LiveRead {
    /// Generation before the send.
    pub gen_lo: u64,
    /// Generation after the receive.
    pub gen_hi: u64,
    /// Request index in the stream.
    pub req: u32,
    /// The answers received, packed by [`answer_mask`].
    pub answers: u32,
}

/// One answered request: when it was sent (ns since the epoch), its
/// latency (ns, saturating at about 4.3 s) and its block.
#[derive(Clone, Copy, Default)]
struct Sample {
    sent: u64,
    lat: u32,
    block: u32,
}

/// Closed-loop figures: each the median over complete blocks of that
/// block's value.
pub struct Summary {
    /// Median latency, µs.
    pub p50_us: f64,
    /// 90th-percentile latency, µs.
    pub p90_us: f64,
    /// Completed requests per second.
    pub rate: f64,
    /// Requests in the complete blocks.
    pub requests: usize,
    /// Complete blocks.
    pub blocks: usize,
}

/// What one or more client connections saw.
#[derive(Default)]
pub struct Reads {
    /// Answered requests, one list per connection, each in send order.
    samples: Vec<Vec<Sample>>,
    /// Reads to check after a churn run, one list per connection.
    live: Vec<Vec<LiveRead>>,
    /// Records after which a connection ends its run.
    limit: usize,
    /// Requests sent.
    pub attempted: u64,
    /// Requests failed, refused or lost.
    pub failed: u64,
    /// Answers that disagreed with the expected ones.
    pub wrong: u64,
    /// Answers received.
    pub answers: u64,
    /// `false` answers received.
    pub falses: u64,
    /// Client retries.
    pub retries: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

/// An empty vector with room for `capacity` elements, its pages already
/// resident.
fn resident<T: Copy + Default>(capacity: usize) -> Vec<T> {
    let mut v = vec![T::default(); capacity];
    std::hint::black_box(&mut v);
    v.clear();
    v
}

impl Reads {
    /// Records for one connection's run of `seconds` over passes of
    /// `pass` requests, allocated and made resident now, before set-up;
    /// `live` reserves room for churn reads too. Once the connection
    /// holds `seconds × RECORD_RATE` records it ends its run at the next
    /// pass boundary, so the records never grow: the benchmark's own
    /// memory is the same at every request rate, and peak RSS moves only
    /// with the system's.
    pub fn reserve(seconds: f64, pass: usize, live: bool) -> Reads {
        let limit = (seconds * RECORD_RATE).ceil() as usize;
        // Room for the warm-up and the rest of the pass the limit ends in.
        let room = limit + 2 * pass;
        Reads {
            samples: vec![resident(room)],
            live: vec![if live { resident(room) } else { Vec::new() }],
            limit,
            ..Reads::default()
        }
    }

    /// Keeps one answered request of a single connection's reads; `true`
    /// once the connection holds its limit.
    fn record(&mut self, sample: Sample) -> bool {
        let mine = self
            .samples
            .last_mut()
            .expect("a connection's reads are reserved");
        mine.push(sample);
        mine.len() >= self.limit
    }

    /// Keeps one churn read of a single connection's reads.
    fn record_live(&mut self, read: LiveRead) {
        self.live
            .last_mut()
            .expect("a connection's reads are reserved")
            .push(read);
    }

    /// Forgets the warm-up's timings and answer counts; its churn reads
    /// stay, to be checked.
    fn end_warm_up(&mut self) {
        self.samples.iter_mut().for_each(Vec::clear);
        (self.answers, self.falses) = (0, 0);
    }

    fn fail(&mut self, count: u64, e: String) {
        self.failed += count;
        self.first_error.get_or_insert(e);
    }

    /// Folds another connection's or phase's reads into these.
    pub fn merge(&mut self, other: Reads) {
        self.samples.extend(other.samples);
        self.live.extend(other.live);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.answers += other.answers;
        self.falses += other.falses;
        self.retries += other.retries;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Answered requests.
    pub fn count(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// The churn reads to check.
    pub fn live(&self) -> impl Iterator<Item = &LiveRead> {
        self.live.iter().flatten()
    }

    /// Latency quantile over every answered request, µs.
    pub fn lat_us(&self, q: f64) -> f64 {
        let mut lat: Vec<f64> = self
            .samples
            .iter()
            .flatten()
            .map(|s| f64::from(s.lat))
            .collect();
        quantile(&mut lat, q) / 1e3
    }

    /// Answered requests per second, summed over the connections.
    pub fn rate(&self) -> f64 {
        self.samples.iter().map(|c| rate(c.iter())).sum()
    }

    /// Latency and throughput as medians over the complete blocks (those
    /// holding as many requests as the fullest); all requests form one
    /// block when fewer than two are complete.
    pub fn summary(&self) -> Summary {
        let all = || self.samples.iter().flatten();
        let blocks = all().map(|s| s.block as usize + 1).max().unwrap_or(0);
        let mut count = vec![0usize; blocks];
        for s in all() {
            count[s.block as usize] += 1;
        }
        let full = count.iter().copied().max().unwrap_or(0);
        let complete: Vec<Option<u32>> = (0..blocks)
            .filter(|&b| count[b] == full)
            .map(|b| Some(b as u32))
            .collect();
        let keys = if complete.len() < 2 {
            vec![None]
        } else {
            complete
        };
        let (mut p50, mut p90, mut rates, mut lat) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut requests = 0;
        for &key in &keys {
            let mine = |s: &&Sample| key.is_none_or(|b| s.block == b);
            lat.clear();
            lat.extend(all().filter(mine).map(|s| f64::from(s.lat)));
            requests += lat.len();
            p50.push(quantile(&mut lat, 0.5) / 1e3);
            p90.push(quantile(&mut lat, 0.9) / 1e3);
            rates.push(
                self.samples
                    .iter()
                    .map(|c| rate(c.iter().filter(mine)))
                    .sum::<f64>(),
            );
        }
        Summary {
            p50_us: median(&mut p50),
            p90_us: median(&mut p90),
            rate: median(&mut rates),
            requests,
            blocks: keys.len(),
        }
    }
}

/// Answered requests per second of one connection: its requests over the
/// time from its first send to its last answer.
fn rate<'a>(samples: impl Iterator<Item = &'a Sample>) -> f64 {
    let (mut start, mut end, mut count) = (u64::MAX, 0, 0usize);
    for s in samples {
        start = start.min(s.sent);
        end = end.max(s.sent + u64::from(s.lat));
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        count as f64 / ((end - start) as f64 / 1e9)
    }
}

/// Reports the closed-loop figures of `plain`, the untraced reads; with
/// the `traced` half of a traced run, also its median latency and the
/// tracing overhead. Returns every read, merged.
pub fn summarize(plain: Reads, traced: Option<Reads>, report: &mut Report) -> Reads {
    let summary = plain.summary();
    let mut all = plain;
    if let Some(traced) = traced {
        let t = traced.summary();
        report.set_n("trace.req_p50_us", t.p50_us, t.requests);
        report.set("trace.overhead_frac", t.p50_us / summary.p50_us - 1.0);
        all.merge(traced);
    }
    report.stamp.push(("blocks", summary.blocks.to_string()));
    report.set_n("req_per_s", summary.rate, summary.requests);
    report.set_n("req_p50_us", summary.p50_us, summary.requests);
    report.set_n("req_p90_us", summary.p90_us, summary.requests);
    all
}

/// One connection's closed loop: up to `depth` requests in flight, each
/// timed from send to decoded answer.
fn client_loop(
    client: &mut WireClient,
    stream: &Stream,
    dispatch: &Dispatch,
    depth: usize,
    verify: Verify<'_>,
    tr: &mut Tracer,
    out: &mut Reads,
) {
    let epoch = tr.epoch();
    let mut inflight: VecDeque<(u64, usize, usize, Instant, u64, SpanId)> = VecDeque::new();
    loop {
        while inflight.len() < depth {
            let Some((block, r)) = dispatch.draw() else {
                break;
            };
            let (faults, pairs) = stream.request(r);
            let gen_lo = match verify {
                Verify::Live(registry) => registry.generation(),
                Verify::Expected(_) => 0,
            };
            let span = tr.open("wire.request", r as u64, Tracer::NONE);
            let sent = Instant::now();
            out.attempted += 1;
            match tr.span("net.client.send", r as u64, span, || {
                client.send(faults, pairs)
            }) {
                Ok(id) => inflight.push_back((id, block, r, sent, gen_lo, span)),
                Err(e) => return out.fail(1 + inflight.len() as u64, e),
            }
        }
        let Some((id, block, r, sent, gen_lo, span)) = inflight.pop_front() else {
            return;
        };
        let resp = tr.span("net.client.recv", r as u64, span, || client.recv());
        let lat = sent.elapsed();
        tr.close(span);
        let answers = match resp {
            Err(e) => return out.fail(1 + inflight.len() as u64, e),
            Ok((got, _)) if got != id => {
                return out.fail(
                    1 + inflight.len() as u64,
                    format!("response {got} arrived for request {id}"),
                )
            }
            Ok((_, Err(e))) => {
                out.fail(1, e);
                continue;
            }
            Ok((_, Ok(answers))) => answers,
        };
        let full = out.record(Sample {
            sent: sent.duration_since(epoch).as_nanos() as u64,
            lat: u32::try_from(lat.as_nanos()).unwrap_or(u32::MAX),
            block: block as u32,
        });
        if full {
            dispatch.finish();
        }
        out.answers += answers.len() as u64;
        out.falses += answers.iter().filter(|&&a| !a).count() as u64;
        match verify {
            Verify::Expected(expected) => {
                if !expected.matches(r, &answers) {
                    out.wrong += 1;
                }
            }
            Verify::Live(registry) => {
                let gen_hi = registry.generation();
                match answer_mask(&answers) {
                    Some(mask) => out.record_live(LiveRead {
                        gen_lo,
                        gen_hi,
                        req: r as u32,
                        answers: mask,
                    }),
                    None => out.fail(1, format!("{} answers exceed a live read", answers.len())),
                }
            }
        }
    }
}

/// Spawns one client thread per warm-up dispatch into `scope`, each with
/// its connection's reserved `reads`; connection `c` then draws from
/// `measured[c % measured.len()]`, so one measured dispatch is a pass
/// shared by every connection. Each thread connects, runs its warm-up
/// (answers checked, time not kept), waits on `start` (sized one more
/// than the connections, for the caller), then runs its closed loop, and
/// returns its reads and its spans.
#[allow(clippy::too_many_arguments)]
pub fn spawn_clients<'s, 'e: 's>(
    scope: &'s Scope<'s, 'e>,
    addr: SocketAddr,
    stream: &'e Stream,
    warms: &'e [Dispatch],
    measured: &'e [Dispatch],
    depth: usize,
    verify: Verify<'e>,
    tracer: &Tracer,
    start: &'e Barrier,
    reads: Vec<Reads>,
) -> Vec<ScopedJoinHandle<'s, (Reads, Tracer)>> {
    assert_eq!(warms.len(), reads.len(), "one reservation per connection");
    warms
        .iter()
        .zip(reads)
        .enumerate()
        .map(|(c, (warm, mut reads))| {
            let dispatch = &measured[c % measured.len()];
            let mut tr = tracer.fork();
            scope.spawn(move || {
                let mut client = WireClient::connect(addr);
                if let Ok(client) = client.as_mut() {
                    let mut off = Tracer::new(false, tr.epoch());
                    client_loop(client, stream, warm, depth, verify, &mut off, &mut reads);
                    reads.end_warm_up();
                }
                start.wait();
                match client.as_mut() {
                    Ok(client) => {
                        client_loop(client, stream, dispatch, depth, verify, &mut tr, &mut reads);
                        reads.retries = client.retries();
                    }
                    Err(e) => reads.fail(1, format!("connect: {e}")),
                }
                (reads, tr)
            })
        })
        .collect()
}

/// Joins client threads, merging their reads and spans into `tr`.
pub fn join_clients(handles: Vec<ScopedJoinHandle<'_, (Reads, Tracer)>>, tr: &mut Tracer) -> Reads {
    let mut all = Reads::default();
    for h in handles {
        let (reads, spans) = h.join().expect("client threads do not panic");
        all.merge(reads);
        tr.merge(spans);
    }
    all
}

/// Expected answers of every request of a static stream, one oracle
/// preparation per fault set.
fn expected_answers(g: &Graph, stream: &Stream) -> Answers {
    let mut oracle = Oracle::new(g);
    let mut by_set: Vec<Vec<usize>> = vec![Vec::new(); stream.fault_sets.len()];
    for (i, &(f, _)) in stream.requests.iter().enumerate() {
        by_set[f].push(i);
    }
    let mut out = Answers::new(stream);
    for (f, reqs) in by_set.iter().enumerate() {
        if reqs.is_empty() {
            continue;
        }
        oracle.prepare(&stream.fault_sets[f]);
        for &i in reqs {
            let (_, p) = stream.requests[i];
            out.set(
                i,
                stream.pair_sets[p]
                    .iter()
                    .map(|&(s, t)| oracle.connected(s, t)),
            );
        }
    }
    out
}

/// Shape of a static wire workload. Both run [`CONNS`] connections at
/// fault budget [`F`].
pub struct Shape {
    /// Archive format served.
    pub format: Format,
    /// Requests in flight per connection.
    pub depth: usize,
    /// `true`: the connections share one pass over the stream; `false`:
    /// each walks its own contiguous share.
    pub shared: bool,
    /// Requests each connection sends before the window opens.
    pub warm: usize,
}

/// Runs one closed-loop window of a static workload on the connections'
/// reserved `reads`.
fn closed_loop(
    addr: SocketAddr,
    stream: &Stream,
    shape: &Shape,
    expected: &Answers,
    window: Duration,
    reads: Vec<Reads>,
    tr: &mut Tracer,
) -> Reads {
    let requests = stream.requests.len();
    let share = requests / CONNS;
    let warms: Vec<Dispatch> = (0..CONNS)
        .map(|c| Dispatch::new(c * share, shape.warm.min(share), Duration::ZERO))
        .collect();
    let measured: Vec<Dispatch> = if shape.shared {
        vec![Dispatch::new(0, requests, window)]
    } else {
        (0..CONNS)
            .map(|c| Dispatch::new(c * share, share, window))
            .collect()
    };
    let start = Barrier::new(CONNS + 1);
    let template = tr.fork();
    std::thread::scope(|s| {
        let handles = spawn_clients(
            s,
            addr,
            stream,
            &warms,
            &measured,
            shape.depth,
            Verify::Expected(expected),
            &template,
            &start,
            reads,
        );
        start.wait();
        join_clients(handles, tr)
    })
}

/// Runs a static wire workload end to end; see the crate docs.
pub fn run(opts: &Options, g: &Graph, stream: &Stream, shape: &Shape) -> Result<Report, String> {
    let mut report = Report {
        absent: vec!["dyn.", "workload.structural_frac"],
        ..Report::default()
    };
    let mut tr = Tracer::new(opts.trace, Instant::now());
    let expected = expected_answers(g, stream);
    let path = opts.work_dir.join(match shape.format {
        Format::V1 => "archive.ftc",
        Format::V2 => "archive.ftcz",
    });
    report.stamp.push(("format", shape.format.name().into()));
    let pass = if shape.shared {
        stream.requests.len()
    } else {
        stream.requests.len() / CONNS
    };
    let records = |seconds: f64| -> Vec<Reads> {
        (0..CONNS)
            .map(|_| Reads::reserve(seconds, pass, false))
            .collect()
    };
    let reserved = records(opts.seconds);

    // Set-up, several times; the last server stays up.
    let registry = Registry::default();
    let mut setups = Vec::new();
    let mut server: Option<WireServer> = None;
    let mut archive_bytes = 0;
    for rep in 0..opts.setup_reps as u64 {
        if let Some(old) = server.take() {
            old.stop().map_err(|e| format!("server stop: {e}"))?;
        }
        if opts.trace {
            probe_build_stages(g, rep, &mut tr);
        }
        let t0 = Instant::now();
        let blob = tr.span("build.store", rep, Tracer::NONE, || {
            api::build_archive(g, F, shape.format)
        });
        if opts.trace {
            let sum = tr.span("compress.checksum", rep, Tracer::NONE, || {
                api::checksum(&blob)
            });
            std::hint::black_box(sum);
        }
        tr.span("core.write", rep, Tracer::NONE, || {
            api::write_atomic(&path, &blob)
        })
        .map_err(|e| format!("write {}: {e}", path.display()))?;
        archive_bytes = blob.len();
        drop(blob);
        let service = tr.span("core.open", rep, Tracer::NONE, || Service::open(&path))?;
        registry.swap(service);
        let bound = tr
            .span("net.bind", rep, Tracer::NONE, || {
                WireServer::start(&registry)
            })
            .map_err(|e| format!("bind: {e}"))?;
        first_answer(bound.addr(), stream, 0, &expected)?;
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(bound);
    }
    let server = server.ok_or("no set-up ran")?;

    // The closed loop; a traced run measures half its window untraced,
    // for the tracing overhead, then half traced.
    let window = Duration::from_secs_f64(opts.seconds);
    let (plain, traced) = if opts.trace {
        let mut off = Tracer::new(false, tr.epoch());
        let plain = closed_loop(
            server.addr(),
            stream,
            shape,
            &expected,
            window / 2,
            reserved,
            &mut off,
        );
        let traced = closed_loop(
            server.addr(),
            stream,
            shape,
            &expected,
            window / 2,
            records(opts.seconds / 2.0),
            &mut tr,
        );
        (plain, Some(traced))
    } else {
        let reads = closed_loop(
            server.addr(),
            stream,
            shape,
            &expected,
            window,
            reserved,
            &mut tr,
        );
        (reads, None)
    };

    let updates = update_phase(
        opts,
        g,
        shape,
        &path,
        &registry,
        server.addr(),
        stream,
        &expected,
        &mut tr,
    )?;
    // The measured phases are over; the analysis below allocates.
    report.set("process.peak_rss_mb", sys::peak_rss_mb());
    let counters = server.counters();
    server.stop().map_err(|e| format!("server stop: {e}"))?;
    let reads = summarize(plain, traced, &mut report);

    report.attempted = reads.attempted + updates.attempted;
    report.failed = reads.failed + updates.failed;
    report.wrong = reads.wrong + updates.wrong;
    if let Some(e) = reads.first_error.as_ref().or(updates.first_error.as_ref()) {
        report.stamp.push(("first_error", e.clone()));
    }
    report.set_n("setup_s", median(&mut setups.clone()), setups.len());
    report.set_n("update_p50_ms", updates.lat_us(0.5) / 1e3, updates.count());
    report.set_n("update_p90_ms", updates.lat_us(0.9) / 1e3, updates.count());
    report.set_n("updates_per_s", updates.rate(), updates.count());
    report.set("archive_mb", archive_bytes as f64 / 1e6);
    report.set("workload.archive_bytes", archive_bytes as f64);
    report.set(
        "workload.false_frac",
        reads.falses as f64 / reads.answers.max(1) as f64,
    );
    if opts.trace {
        replay(
            opts,
            &path,
            &registry,
            stream,
            &expected,
            &mut tr,
            &mut report,
        )?;
        layer_metrics(&tr, &counters, reads.retries, &mut report);
        tr.write_tsv(&opts.trace_path)
            .map_err(|e| format!("write {}: {e}", opts.trace_path.display()))?;
    }
    Ok(report)
}

/// Times the three precompute stages the builder runs before the payload
/// (tree, auxiliary graph, hierarchy), each as its own span.
fn probe_build_stages(g: &Graph, rep: u64, tr: &mut Tracer) {
    let threads = api::build_threads();
    let tree = tr.span("build.tree", rep, Tracer::NONE, || api::stage_tree(g));
    let aux = tr.span("build.auxgraph", rep, Tracer::NONE, || {
        api::stage_auxgraph(g, &tree, threads)
    });
    let depth = tr.span("build.hierarchy", rep, Tracer::NONE, || {
        api::stage_hierarchy(&aux, F, threads)
    });
    std::hint::black_box(depth);
}

/// Sends request `r` of `stream` on a fresh connection and checks its
/// answers: the end of a set-up, when the first request is served (for a
/// v2 archive, after the lazy decode of every section it touches).
pub fn first_answer(
    addr: SocketAddr,
    stream: &Stream,
    r: usize,
    expected: &Answers,
) -> Result<(), String> {
    let mut client = WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (faults, pairs) = stream.request(r);
    client.send(faults, pairs)?;
    let answers = client.recv()?.1?;
    if !expected.matches(r, &answers) {
        return Err(format!("wrong answers to the first request {r}"));
    }
    Ok(())
}

/// The static workloads' update path. A static archive cannot absorb a
/// graph change, so an update rebuilds it, writes it atomically, reopens
/// and swaps it into the live registry (the SIGHUP reload), and ends when
/// the new service answers the stream's next request. Runs
/// `update_reps` updates.
#[allow(clippy::too_many_arguments)]
fn update_phase(
    opts: &Options,
    g: &Graph,
    shape: &Shape,
    path: &std::path::Path,
    registry: &Registry,
    addr: SocketAddr,
    stream: &Stream,
    expected: &Answers,
    tr: &mut Tracer,
) -> Result<Reads, String> {
    // Room for every update, as one pass.
    let mut out = Reads::reserve(0.0, opts.update_reps, false);
    for i in 0..opts.update_reps {
        let r = (i + 1) % stream.requests.len();
        let t = Instant::now();
        out.attempted += 1;
        let blob = api::build_archive(g, F, shape.format);
        api::write_atomic(path, &blob).map_err(|e| format!("write {}: {e}", path.display()))?;
        drop(blob);
        let service = Service::open(path)?;
        tr.span("serve.swap", i as u64, Tracer::NONE, || {
            registry.swap(service)
        });
        if let Err(e) = first_answer(addr, stream, r, expected) {
            out.fail(1, e);
            continue;
        }
        out.record(Sample {
            sent: t.duration_since(tr.epoch()).as_nanos() as u64,
            lat: u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX),
            block: 0,
        });
    }
    Ok(out)
}

/// Replays a fixed sample of the request stream in-process, one layer at
/// a time, each call a span under one `replay.request` span per request.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    opts: &Options,
    path: &std::path::Path,
    registry: &Registry,
    stream: &Stream,
    expected: &Answers,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let view = View::open(path)?;
    let service = registry.current().ok_or("nothing is served")?;
    let mut scratch = Scratch::default();
    let total = stream.requests.len();
    let sample: Vec<usize> = if total >= opts.replay {
        (0..opts.replay).map(|k| k * total / opts.replay).collect()
    } else {
        (0..opts.replay).map(|k| k % total).collect()
    };
    let (mut frame, mut reply, mut answers) = (Vec::new(), Vec::new(), Vec::new());
    let mut pairs_answered = 0usize;
    for (k, &r) in sample.iter().enumerate() {
        let req = k as u64;
        let parent = tr.open("replay.request", req, Tracer::NONE);
        let (faults, pairs) = stream.request(r);
        frame.clear();
        tr.span("net.encode_request", req, parent, || {
            api::encode_request(&mut frame, req, faults, pairs)
        });
        let (faults, pairs) = tr.span("net.parse", req, parent, || {
            api::parse_request(api::frame_payload(&frame))
        })?;
        // Untimed, so the fault set's archive pages are as warm for
        // `with_session` as for the `query` it is subtracted from.
        service.prepare(&faults)?;
        tr.span("serve.with_session", req, parent, || {
            service.prepare(&faults)
        })?;
        let session = tr.span("core.session_in", req, parent, || {
            view.session_in(&faults, &mut scratch)
        })?;
        let labels = view.pair_labels(&pairs)?;
        tr.span("core.connected_many", req, parent, || {
            session.connected_many(&labels, &mut answers)
        })?;
        scratch.recycle(session);
        pairs_answered += pairs.len();
        let served = tr.span("serve.query", req, parent, || {
            service.query(&faults, &pairs)
        })?;
        reply.clear();
        tr.span("net.encode_response", req, parent, || {
            api::encode_response(&mut reply, req, &served)
        });
        let decoded = tr.span("net.decode_response", req, parent, || {
            api::decode_response(api::frame_payload(&reply))
        })?;
        tr.close(parent);
        if ![&answers, &served, &decoded]
            .iter()
            .all(|got| expected.matches(r, got))
        {
            report.wrong += 1;
        }
        report.attempted += 1;
    }
    let connected = tr.durations("core.connected_many").iter().sum::<f64>();
    report.set_n(
        "core.connected_ns",
        connected / pairs_answered.max(1) as f64,
        pairs_answered,
    );
    Ok(())
}

/// Per-layer metrics from the spans and the server's counters.
pub fn layer_metrics(
    tr: &Tracer,
    counters: &api::ServerCounters,
    retries: u64,
    report: &mut Report,
) {
    let ms = |name: &str| {
        let mut d = tr.durations(name);
        (median(&mut d) / 1e6, d.len())
    };
    for (metric, span) in [
        ("build.tree_ms", "build.tree"),
        ("build.auxgraph_ms", "build.auxgraph"),
        ("build.hierarchy_ms", "build.hierarchy"),
        ("build.store_ms", "build.store"),
        ("compress.checksum_ms", "compress.checksum"),
        ("core.write_ms", "core.write"),
        ("core.open_ms", "core.open"),
        ("serve.swap_ms", "serve.swap"),
        ("dyn.sync_ms", "dyn.sync"),
        ("dyn.checkpoint_ms", "dyn.checkpoint"),
    ] {
        let (v, n) = ms(span);
        if n > 0 {
            report.set_n(metric, v, n);
        }
    }
    let store = tr.durations("build.store");
    if !store.is_empty() {
        // Payload = store minus the three precompute spans, per set-up.
        let (tree, aux, hier) = (
            tr.durations("build.tree"),
            tr.durations("build.auxgraph"),
            tr.durations("build.hierarchy"),
        );
        let mut payload: Vec<f64> = (0..store.len())
            .map(|i| (store[i] - tree[i] - aux[i] - hier[i]) / 1e6)
            .collect();
        report.set_n("build.payload_ms", median(&mut payload), payload.len());
    }
    let us = |name: &str| -> Vec<f64> { tr.durations(name).iter().map(|d| d / 1e3).collect() };
    let mut session = us("core.session_in");
    if !session.is_empty() {
        let n = session.len();
        report.set_n("core.session_us.p50", quantile(&mut session, 0.5), n);
        report.set_n("core.session_us.p99", quantile(&mut session, 0.99), n);
        report.set_n("core.session_us.max", quantile(&mut session, 1.0), n);
        let slow = session.iter().filter(|&&d| d > 1000.0).count();
        report.set_n("core.session_slow_frac", slow as f64 / n as f64, n);
    }
    let mut with_session = us("serve.with_session");
    let query = us("serve.query");
    let mut answer: Vec<f64> = query
        .iter()
        .zip(&with_session)
        .map(|(q, w)| q - w)
        .collect();
    report.set_n(
        "serve.session_us.p50",
        quantile(&mut with_session, 0.5),
        with_session.len(),
    );
    report.set_n(
        "serve.session_us.p99",
        quantile(&mut with_session, 0.99),
        with_session.len(),
    );
    report.set_n("serve.answer_us.p50", median(&mut answer), answer.len());
    for (metric, span) in [
        ("net.encode_request_us", "net.encode_request"),
        ("net.parse_us", "net.parse"),
        ("net.encode_response_us", "net.encode_response"),
        ("net.decode_response_us", "net.decode_response"),
    ] {
        let mut d = us(span);
        report.set_n(metric, median(&mut d), d.len());
    }
    report.set_n(
        "net.served_us.p50",
        counters.served_p50_us,
        counters.served_count as usize,
    );
    report.set_n(
        "net.served_us.p99",
        counters.served_p99_us,
        counters.served_count as usize,
    );
    report.set("net.coalesce.requests", counters.requests as f64);
    report.set("net.coalesce.coalesced", counters.coalesced as f64);
    report.set("net.coalesce.batches", counters.batches as f64);
    report.set("net.coalesce.shed", counters.shed as f64);
    report.set("net.client.retries", retries as f64);
    if let Some(req_p50) = report.get("trace.req_p50_us") {
        report.set("net.transport_us", req_p50 - counters.served_p50_us);
        // The layers a served request passes through, by self time.
        let layers: f64 = [
            "net.encode_request",
            "net.parse",
            "serve.query",
            "net.encode_response",
            "net.decode_response",
        ]
        .iter()
        .map(|name| median(&mut tr.self_times(name)) / 1e3)
        .sum();
        report.set("trace.unattributed_us", req_p50 - layers);
    }
}

//! `ftc-cli` — build, export, inspect, and query fault-tolerant
//! connectivity label archives from the command line.
//!
//! ```text
//! ftc-cli build <graph.txt> <labels.ftc> [--f N] [--backend epsnet|greedy|sampling]
//!               [--k N] [--encoding full|compact] [--threads N] [--compress]
//! ftc-cli info  <labels.ftc>
//! ftc-cli query <labels.ftc> <s> <t> [--fault U:V ...] [--pair S:T ...]
//! ftc-cli update <labels.ftc> <ops.txt> [--out PATH] [--seed N] [--journal] [--fsync P]
//! ftc-cli recover <labels.ftc> [--journal PATH] [--seed N] [--fsync P]
//! ftc-cli serve <labels.ftc> [--threads N]
//! ftc-cli compress   <labels.ftc> <labels.ftcz>
//! ftc-cli decompress <labels.ftcz> <labels.ftc>
//! ```
//!
//! `graph.txt` is an edge list: one `u v` pair per line (`#` comments
//! allowed); vertex IDs are dense non-negative integers. `build` exports
//! every label into a **single archive blob** (`ftc-core::store`
//! format: magic, version, header, offset/endpoint index, concatenated
//! label bytes). `query` and `serve` answer connectivity **from the
//! archive alone** through a shared [`ConnectivityService`] — the
//! archive is memory-mapped into one shared handle, faults are
//! resolved through its endpoint index, and no owned label is ever
//! materialized; the original graph file is never re-read.
//!
//! `serve` reads line-delimited queries from stdin — each line
//! `s t [u:v ...]` names one vertex pair plus its fault edges (the
//! grammar is `ftc::net::text`, shared with the TCP client's text-mode
//! tooling) — and writes one `u v connected|disconnected` line per
//! query to stdout. With `--threads N` the whole input is read first
//! and answered by `N` worker threads hammering one shared service
//! (answers stay in input order); without it, queries stream one at a
//! time. To serve archives over the binary TCP protocol, run
//! `ftc-server id=path`.
//!
//! Every command accepts **both archive formats** transparently: the v1
//! single blob and the v2 compressed container (`ftc::core::compressed`,
//! built by `build --compress` or `compress`). Archives are opened
//! memory-mapped where the platform allows; v2 archives open in
//! O(header) time and decode sections lazily on first touch, and `info`
//! reports the per-section raw/stored sizes and overall ratio straight
//! from the section table without decoding any payload. v1 archives get
//! the same per-region breakdown (endpoint index, vertex labels, edge
//! metadata, per-level payload rows) computed from the blob layout.
//!
//! `update` applies a batch of edge insertions (`+u v` or `+u:v`) and
//! deletions (`-u v` / `-u:v`) to an existing archive through `ftc-dyn`'s incremental
//! maintenance and writes the re-committed archive back — no graph file
//! and no from-scratch rebuild. With `--journal`, every op is
//! write-ahead journaled into a `.ftcj` sidecar before it is applied
//! (fsync per `--fsync every_op|every_n:N|on_commit`, default
//! `every_op`) and the final archive is a crash-consistent checkpoint;
//! `recover` replays whatever journal suffix a crash left behind and
//! reseals the archive.
//!
//! Every archive-producing command writes through
//! [`ftc::core::io::AtomicFile`] (tempfile → fsync → rename →
//! directory fsync): an interrupted run can never leave a torn archive
//! at the output path, and a live `ftc-server` reloading the path on
//! SIGHUP always opens a complete generation.

use ftc::core::compressed::AnyArchive;
use ftc::core::io::{write_file_atomic, StdVfs};
use ftc::core::store::{EdgeEncoding, LabelStore};
use ftc::core::{FtcScheme, HierarchyBackend, Params, StoreOpenError, ThresholdPolicy};
use ftc::graph::Graph;
use ftc::net::text;
use ftc::serve::ConnectivityService;
use std::fmt;
use std::fs;
use std::io::{BufRead, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Typed top-level CLI failure, mapped to an exit status in `main`.
enum CliError {
    /// Bad invocation; print the usage text (exit status 2).
    Usage,
    /// A `serve --threads` worker thread panicked; partial answers were
    /// discarded rather than emitted out of order.
    WorkerPanicked,
    /// Any other failure, already formatted for the user.
    Msg(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage => f.write_str(USAGE),
            CliError::WorkerPanicked => {
                f.write_str("serve worker panicked; partial answers discarded")
            }
            CliError::Msg(m) => f.write_str(m),
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Msg(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> CliError {
        CliError::Msg(m.into())
    }
}

type CliResult = Result<(), CliError>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("update") => cmd_update(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("compress") => cmd_compress(&args[1..]),
        Some("decompress") => cmd_decompress(&args[1..]),
        _ => Err(CliError::Usage),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage) => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:\n  ftc-cli build <graph.txt> <labels.ftc> [--f N] [--backend epsnet|greedy|sampling] [--k N] [--encoding full|compact] [--threads N] [--compress]\n  ftc-cli info  <labels.ftc>\n  ftc-cli query <labels.ftc> <s> <t> [--fault U:V ...] [--pair S:T ...]\n  ftc-cli update <labels.ftc> <ops.txt> [--out PATH] [--seed N] [--journal] [--fsync every_op|every_n:N|on_commit]   (ops `+u v` / `-u v`, one per line)\n  ftc-cli recover <labels.ftc> [--journal PATH] [--seed N] [--fsync P]   (replay the journal a crash left behind)\n  ftc-cli serve <labels.ftc> [--threads N]   (queries `s t [u:v ...]` on stdin)\n  ftc-cli compress   <labels.ftc> <labels.ftcz>\n  ftc-cli decompress <labels.ftcz> <labels.ftc>";

// ---------------------------------------------------------------------------
// build
// ---------------------------------------------------------------------------

fn cmd_build(args: &[String]) -> CliResult {
    let (positional, flags) = split_flags(args, &["compress"])?;
    let [graph_path, out_path] = positional.as_slice() else {
        return Err(CliError::Usage);
    };
    let f: usize = flag_value(&flags, "f")
        .unwrap_or_else(|| "2".into())
        .parse()
        .map_err(|_| "--f expects an integer")?;
    let backend = match flag_value(&flags, "backend").as_deref() {
        None | Some("epsnet") => HierarchyBackend::EpsNet,
        Some("greedy") => HierarchyBackend::GreedyRect,
        Some("sampling") => HierarchyBackend::Sampling { seed: 0xC11 },
        Some(other) => return Err(format!("unknown backend '{other}'").into()),
    };
    let mut params = Params {
        f,
        backend,
        threshold: ThresholdPolicy::Theory,
    };
    if let Some(k) = flag_value(&flags, "k") {
        let k: usize = k.parse().map_err(|_| "--k expects an integer")?;
        params.threshold = ThresholdPolicy::Fixed(k);
    }
    let encoding = match flag_value(&flags, "encoding").as_deref() {
        None | Some("full") => EdgeEncoding::Full,
        Some("compact") => EdgeEncoding::Compact,
        Some(other) => return Err(format!("unknown encoding '{other}'").into()),
    };
    let threads: usize = flag_value(&flags, "threads")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|_| "--threads expects an integer (0 = one per core)")?;

    let g = read_graph(Path::new(graph_path))?;
    eprintln!("graph: n = {}, m = {}", g.n(), g.m());
    // Stream the build straight into the archive: worker threads write
    // each label's payload into its final blob position, so the labeling
    // is never held twice in memory (the blob is byte-identical to
    // build-then-serialize). With --compress, each level's rows run
    // through the transform + entropy pipeline as soon as the level
    // completes, and the v2 container is assembled at the end.
    let builder = FtcScheme::builder(&g).params(&params).threads(threads);
    let (bytes, diag, kind) = if flag_present(&flags, "compress") {
        let (store, diag) = builder
            .build_store_compressed(encoding)
            .map_err(|e| e.to_string())?;
        (store.into_vec(), diag, "compressed archive")
    } else {
        let (store, diag) = builder.build_store(encoding).map_err(|e| e.to_string())?;
        (store.into_vec(), diag, "archive")
    };
    eprintln!("labels built: k = {}, {} levels", diag.k, diag.levels);

    write_file_atomic(Path::new(out_path), &bytes)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!(
        "wrote {} byte {kind} ({} vertices, {} edges) to {out_path}",
        bytes.len(),
        g.n(),
        g.m()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// info
// ---------------------------------------------------------------------------

fn cmd_info(args: &[String]) -> CliResult {
    let [path] = args else {
        return Err(CliError::Usage);
    };
    let archive = open_any(path)?;
    let encoding = match archive.encoding() {
        EdgeEncoding::Full => "full",
        EdgeEncoding::Compact => "compact",
    };
    print!(
        "n {}\nm {}\nf {}\nk {}\nlevels {}\nencoding {encoding}\n",
        archive.n(),
        archive.m(),
        archive.header().f,
        archive.k(),
        archive.levels()
    );
    match archive {
        AnyArchive::V1(view) => {
            println!("format v1\narchive_bytes {}", view.archive_bytes());
            // Same per-region byte breakdown the v2 section table gets —
            // for v1 the stored size equals the raw size, so one number
            // per line suffices.
            for s in view.sections() {
                println!("section {} raw {}", section_name(&s), s.raw_len);
            }
        }
        AnyArchive::V2(view) => {
            // Everything below reads the prologue and section table only
            // (O(header) on the mmap); no payload is decoded.
            print!(
                "format v2-compressed\narchive_bytes {}\nv1_bytes {}\nratio {:.2}\n",
                view.archive_bytes(),
                view.v1_len(),
                view.v1_len() as f64 / view.archive_bytes() as f64,
            );
            for s in view.sections() {
                println!(
                    "section {} raw {} stored {}",
                    section_name(&s),
                    s.raw_len,
                    s.comp_len
                );
            }
        }
    }
    Ok(())
}

/// `kind[level]` display name of a section-table row (both formats).
fn section_name(s: &ftc::core::SectionInfo) -> String {
    match s.level {
        Some(level) => format!("{}[{level}]", s.kind.name()),
        None => s.kind.name().to_string(),
    }
}

// ---------------------------------------------------------------------------
// update
// ---------------------------------------------------------------------------

/// Applies a batch of edge insertions/deletions to an on-disk archive
/// through `ftc-dyn`'s incremental maintenance: the archive is adopted
/// into a [`DynamicScheme`](ftc::dyn_::DynamicScheme), each op patches
/// only the labels it invalidates, and a freshly committed archive is
/// written back (in place unless `--out` redirects it; a `.ftcz` output
/// path selects the v2 compressed container). Both input formats are
/// adopted as they are, without transcoding.
///
/// With `--journal` the batch runs through a
/// [`DurableScheme`](ftc::dyn_::DurableScheme): the input state is
/// checkpointed at the output path first, every op is write-ahead
/// journaled into `<out>.ftcj` before it is applied, and the final
/// archive is a crash-consistent checkpoint — kill the process at any
/// byte and `ftc-cli recover` loses no acknowledged op.
fn cmd_update(args: &[String]) -> CliResult {
    use ftc::dyn_::{default_journal_path, DurableScheme, DynamicScheme, FsyncPolicy};

    let (positional, flags) = split_flags(args, &["journal"])?;
    let [archive_path, ops_path] = positional.as_slice() else {
        return Err(CliError::Usage);
    };
    let out_path = flag_value(&flags, "out").unwrap_or_else(|| archive_path.clone());
    let seed: u64 = flag_value(&flags, "seed")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|_| "--seed expects an integer")?;
    let ops_text =
        fs::read_to_string(ops_path).map_err(|e| format!("cannot read {ops_path}: {e}"))?;
    let ops = parse_ops(&ops_text)?;

    let mut scheme = DynamicScheme::from_archive(&open_any(archive_path)?, seed)
        .map_err(|e| format!("cannot maintain {archive_path}: {e}"))?;

    if flag_present(&flags, "journal") {
        if out_path.ends_with(".ftcz") {
            return Err("--journal requires a v1 output archive (not .ftcz)".into());
        }
        let policy: FsyncPolicy = flag_value(&flags, "fsync")
            .unwrap_or_else(|| "every_op".into())
            .parse()
            .map_err(CliError::Msg)?;
        let journal_path = default_journal_path(Path::new(&out_path));
        let mut durable = DurableScheme::create(
            Arc::new(StdVfs),
            Path::new(&out_path),
            &journal_path,
            scheme,
            policy,
        )
        .map_err(|e| format!("cannot journal {out_path}: {e}"))?;
        for &(lineno, insert, u, v) in &ops {
            let sign = if insert { '+' } else { '-' };
            (if insert {
                durable.insert_edge(u, v)
            } else {
                durable.delete_edge(u, v)
            })
            .map_err(|e| format!("{ops_path}:{lineno}: {sign}{u} {v}: {e}"))?;
        }
        let stats = durable.stats();
        let watermark = durable
            .commit()
            .map_err(|e| format!("cannot commit {out_path}: {e}"))?;
        println!(
            "applied {} ops ({} incremental, {} rebuilds); committed watermark {watermark} to {out_path} (journal {}, fsync {policy})",
            ops.len(),
            stats.incremental_ops,
            stats.structural_rebuilds + stats.slot_rebuilds,
            journal_path.display()
        );
        return Ok(());
    }
    if flag_present(&flags, "fsync") {
        return Err("--fsync only applies with --journal".into());
    }

    for &(lineno, insert, u, v) in &ops {
        let sign = if insert { '+' } else { '-' };
        (if insert {
            scheme.insert_edge(u, v)
        } else {
            scheme.delete_edge(u, v)
        })
        .map_err(|e| format!("{ops_path}:{lineno}: {sign}{u} {v}: {e}"))?;
    }
    let stats = scheme.stats();

    let bytes = if out_path.ends_with(".ftcz") {
        scheme.commit_compressed().into_vec()
    } else {
        scheme.commit().into_vec()
    };
    write_file_atomic(Path::new(&out_path), &bytes)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!(
        "applied {} ops ({} incremental, {} rebuilds); wrote {} byte archive ({} vertices, {} edges) to {out_path}",
        ops.len(),
        stats.incremental_ops,
        stats.structural_rebuilds + stats.slot_rebuilds,
        bytes.len(),
        scheme.n(),
        scheme.m()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// recover
// ---------------------------------------------------------------------------

/// Replays the write-ahead journal a crash left next to `labels.ftc`:
/// opens whatever archive generation survived (the atomic writer
/// guarantees it is complete), replays the journal suffix past the
/// manifest watermark, and reseals — recovered archive, fresh manifest,
/// rotated journal. `--seed` must match the `update --journal` run that
/// produced the journal (both default to 0).
fn cmd_recover(args: &[String]) -> CliResult {
    use ftc::dyn_::{default_journal_path, DurableScheme, FsyncPolicy};
    use std::path::PathBuf;

    let (positional, flags) = split_flags(args, &[])?;
    let [archive_path] = positional.as_slice() else {
        return Err(CliError::Usage);
    };
    if archive_path.ends_with(".ftcz") {
        return Err("journaled durability covers v1 archives only (not .ftcz)".into());
    }
    let seed: u64 = flag_value(&flags, "seed")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|_| "--seed expects an integer")?;
    let policy: FsyncPolicy = flag_value(&flags, "fsync")
        .unwrap_or_else(|| "every_op".into())
        .parse()
        .map_err(CliError::Msg)?;
    let journal_path = flag_value(&flags, "journal")
        .map(PathBuf::from)
        .unwrap_or_else(|| default_journal_path(Path::new(archive_path)));

    let (durable, stats) = DurableScheme::recover(
        Arc::new(StdVfs),
        Path::new(archive_path),
        &journal_path,
        seed,
        policy,
    )
    .map_err(|e| format!("cannot recover {archive_path}: {e}"))?;
    println!(
        "recovered {archive_path}: watermark {}, {} journal records ({} replayed, {} skipped, {} tolerated, {} rebuilds{}); resealed at seq {} ({} vertices, {} edges)",
        stats.watermark,
        stats.records,
        stats.replayed,
        stats.skipped,
        stats.tolerated,
        stats.rebuild_markers,
        if stats.torn_tail { ", torn tail truncated" } else { "" },
        stats.end_seq,
        durable.scheme().n(),
        durable.scheme().m()
    );
    Ok(())
}

/// Parses the update ops grammar: one `+u v` (insert) or `-u v` (delete)
/// per line, whitespace after the sign optional, `#` comments allowed.
/// Returns `(line number, is_insert, u, v)` triples in file order.
fn parse_ops(text: &str) -> Result<Vec<(usize, bool, usize, usize)>, String> {
    let mut ops = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (insert, rest) = if let Some(rest) = line.strip_prefix('+') {
            (true, rest)
        } else if let Some(rest) = line.strip_prefix('-') {
            (false, rest)
        } else {
            return Err(format!("line {lineno}: expected '+u v' or '-u v'"));
        };
        // Endpoints separate with whitespace or ':' — `+0 4` and `+0:4`
        // are the same op (the latter matches the query `--fault U:V`
        // syntax).
        let mut it = rest
            .split(|c: char| c.is_whitespace() || c == ':')
            .filter(|tok| !tok.is_empty());
        let parse = |tok: Option<&str>| -> Result<usize, String> {
            tok.ok_or(format!(
                "line {lineno}: expected '{}u v' or '{}u:v'",
                if insert { '+' } else { '-' },
                if insert { '+' } else { '-' }
            ))?
            .parse()
            .map_err(|_| format!("line {lineno}: bad vertex ID"))
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        if it.next().is_some() {
            return Err(format!("line {lineno}: trailing tokens after '{u} {v}'"));
        }
        ops.push((lineno, insert, u, v));
    }
    if ops.is_empty() {
        return Err("ops file has no operations".into());
    }
    Ok(ops)
}

// ---------------------------------------------------------------------------
// compress / decompress
// ---------------------------------------------------------------------------

/// Transcodes a v1 archive into the v2 compressed container. The
/// conversion is lossless: `decompress` recovers the v1 blob
/// byte-identically.
fn cmd_compress(args: &[String]) -> CliResult {
    let [in_path, out_path] = args else {
        return Err(CliError::Usage);
    };
    let v1 =
        LabelStore::open(read_archive_bytes(in_path)?).map_err(|e| format!("{in_path}: {e}"))?;
    let store = ftc::core::compressed::compress_archive(&v1);
    write_file_atomic(Path::new(out_path), store.as_bytes())
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!(
        "wrote {} byte compressed archive ({:.2}x) to {out_path}",
        store.archive_bytes(),
        v1.archive_bytes() as f64 / store.archive_bytes() as f64
    );
    Ok(())
}

/// Expands a v2 compressed container back to the byte-identical v1 blob.
fn cmd_decompress(args: &[String]) -> CliResult {
    let [in_path, out_path] = args else {
        return Err(CliError::Usage);
    };
    let AnyArchive::V2(view) = open_any(in_path)? else {
        return Err(format!("{in_path}: already a v1 archive").into());
    };
    let blob = view.to_v1_vec().map_err(|e| format!("{in_path}: {e}"))?;
    write_file_atomic(Path::new(out_path), &blob)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {} byte archive to {out_path}", blob.len());
    Ok(())
}

// ---------------------------------------------------------------------------
// query
// ---------------------------------------------------------------------------

fn cmd_query(args: &[String]) -> CliResult {
    let (positional, flags) = split_flags(args, &[])?;
    let [path, s_str, t_str] = positional.as_slice() else {
        return Err(CliError::Usage);
    };
    let s: usize = s_str.parse().map_err(|_| "s must be a vertex ID")?;
    let t: usize = t_str.parse().map_err(|_| "t must be a vertex ID")?;

    let service = ConnectivityService::from_archive(open_any(path)?);

    let mut fault_pairs = Vec::new();
    for spec in flags.iter().filter(|(k, _)| k == "fault").map(|(_, v)| v) {
        fault_pairs.push(parse_colon_pair("fault", spec)?);
    }
    // The positional pair plus any number of extra --pair queries, all
    // answered against one prepared session. The service validates
    // faults eagerly (unknown fault edges error even when every pair is
    // trivial) and answers trivial pairs before budget enforcement.
    let mut query_pairs = vec![(s, t)];
    for spec in flags.iter().filter(|(k, _)| k == "pair").map(|(_, v)| v) {
        query_pairs.push(parse_colon_pair("pair", spec)?);
    }

    let answers = service
        .query(&fault_pairs, &query_pairs)
        .map_err(|e| e.to_string())?;
    for (&(a, b), answer) in query_pairs.iter().zip(&answers) {
        let verdict = text::verdict(answer);
        if query_pairs.len() == 1 {
            println!("{verdict}");
        } else {
            println!("{a} {b}: {verdict}");
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

fn cmd_serve(args: &[String]) -> CliResult {
    let (positional, flags) = split_flags(args, &[])?;
    let [path] = positional.as_slice() else {
        return Err(CliError::Usage);
    };
    if let Some((name, _)) = flags.iter().find(|(name, _)| name != "threads") {
        return Err(format!("serve has no --{name} (ftc-server serves over TCP)").into());
    }
    let threads: usize = flag_value(&flags, "threads")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|_| "--threads expects an integer (0 = stream on this thread)")?;

    let service = ConnectivityService::from_archive(open_any(path)?);

    let stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    let report = |out: &mut dyn Write, q: &text::TextQuery, connected: bool| -> CliResult {
        writeln!(out, "{}", text::answer_line(q.s, q.t, connected))
            .map_err(|e| format!("cannot write: {e}").into())
    };

    if threads <= 1 {
        // Streaming mode: answer each line as it arrives.
        for line in stdin.lines() {
            let line = line.map_err(|e| format!("cannot read stdin: {e}"))?;
            let Some(q) = text::parse_query_line(&line).map_err(|e| e.to_string())? else {
                continue;
            };
            let answers = service
                .query(&q.faults, &[(q.s, q.t)])
                .map_err(|e| format!("query '{} {}': {e}", q.s, q.t))?;
            report(&mut stdout, &q, answers.get(0).expect("one answer"))?;
            stdout.flush().map_err(|e| format!("cannot write: {e}"))?;
        }
        return Ok(());
    }

    // Batch mode: read everything, fan out over one shared service,
    // answer in input order.
    let queries = stdin
        .lines()
        .map(|line| {
            let line = line.map_err(|e| format!("cannot read stdin: {e}"))?;
            text::parse_query_line(&line).map_err(|e| e.to_string())
        })
        .filter_map(Result::transpose)
        .collect::<Result<Vec<_>, String>>()?;
    let chunk = queries.len().div_ceil(threads).max(1);
    // Each worker answers one input-order chunk; a panicking worker
    // surfaces as a typed error instead of tearing down the process
    // mid-output.
    let answers: Vec<Result<bool, String>> = std::thread::scope(|scope| {
        let service = &service;
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|q| {
                            service
                                .query(&q.faults, &[(q.s, q.t)])
                                .map(|a| a.get(0).expect("one answer"))
                                .map_err(|e| format!("query '{} {}': {e}", q.s, q.t))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| CliError::WorkerPanicked))
            .collect::<Result<Vec<_>, CliError>>()
            .map(|chunks| chunks.into_iter().flatten().collect())
    })?;
    for (q, answer) in queries.iter().zip(answers) {
        report(&mut stdout, q, answer?)?;
    }
    stdout.flush().map_err(|e| format!("cannot write: {e}"))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

fn read_archive_bytes(path: &str) -> Result<Vec<u8>, String> {
    fs::read(path).map_err(|e| format!("cannot read archive {path}: {e}"))
}

/// Opens an archive file of either format, memory-mapped where the
/// platform allows, with CLI-shaped error messages.
fn open_any(path: &str) -> Result<AnyArchive, String> {
    ftc::core::compressed::open_path(path).map_err(|e| match e {
        StoreOpenError::Io(err) => format!("cannot read archive {path}: {err}"),
        StoreOpenError::Malformed(e) => format!("{path}: {e}"),
    })
}

/// Parses a `U:V` endpoint pair (shared `ftc::net::text` syntax, with
/// the flag name in the error).
fn parse_colon_pair(what: &str, spec: &str) -> Result<(usize, usize), String> {
    text::parse_endpoint_pair(spec).map_err(|_| format!("--{what} expects U:V, got '{spec}'"))
}

/// Parsed command line: positional arguments and `--name value` flags.
type ParsedArgs = (Vec<String>, Vec<(String, String)>);

/// Splits `args` into positionals and flags; names in `bool_flags` take
/// no value and parse to a `("name", "")` entry.
fn split_flags(args: &[String], bool_flags: &[&str]) -> Result<ParsedArgs, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if bool_flags.contains(&name) {
                flags.push((name.to_string(), String::new()));
                continue;
            }
            let value = it.next().ok_or(format!("--{name} expects a value"))?;
            flags.push((name.to_string(), value.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

fn flag_present(flags: &[(String, String)], name: &str) -> bool {
    flags.iter().any(|(k, _)| k == name)
}

fn flag_value(flags: &[(String, String)], name: &str) -> Option<String> {
    flags
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.clone())
}

fn read_graph(path: &Path) -> Result<Graph, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let mut edges = Vec::new();
    let mut max_v = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<usize, String> {
            tok.ok_or(format!("line {}: expected 'u v'", lineno + 1))?
                .parse()
                .map_err(|_| format!("line {}: bad vertex ID", lineno + 1))
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        max_v = max_v.max(u).max(v);
        edges.push((u, v));
    }
    if edges.is_empty() {
        return Err("graph file has no edges".into());
    }
    Ok(Graph::from_edges(max_v + 1, &edges))
}

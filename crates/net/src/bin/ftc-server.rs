//! `ftc-server` — serve connectivity label archives over TCP.
//!
//! ```text
//! ftc-server <id>=<labels.ftc> [<id>=<labels.ftc> ...]
//!            [--addr HOST:PORT] [--max-connections N] [--max-inflight N]
//!            [--deadline-ms N]
//! ```
//!
//! Each `id=path` registers one archive under a graph ID; clients route
//! requests by that ID. Binds `--addr` (default `127.0.0.1:0` — an
//! OS-assigned port), prints exactly one `listening on <addr>` line to
//! stdout once ready (scripts parse it), and serves until SIGINT or
//! SIGTERM, which drain in-flight requests — including shared session
//! builds — before exiting.
//!
//! **SIGHUP** performs a blue/green reload: every `id=path` archive is
//! re-opened from disk and atomically swapped into the registry while
//! the server keeps answering. In-flight queries finish against the
//! service they resolved (the old mapping stays alive until its last
//! Arc drops); new requests see the fresh archive. One
//! `reloaded "<id>" generation <g>` line per archive goes to stderr. A
//! path that fails to re-open is reported and the previous archive
//! keeps serving — a reload can never take a graph down.
//!
//! Overload protection sheds instead of queueing: `--max-connections`
//! bounds handler threads (excess connections get one `Overloaded`
//! error frame and are closed), `--max-inflight` bounds concurrently
//! running session builds, and `--deadline-ms` bounds how long a
//! request may wait before it is shed. Coalescer and shed counters go
//! to stderr on exit.

use ftc_net::server::{install_signal_handlers, Server, ServerConfig};
use ftc_serve::ServiceRegistry;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> String {
    "usage: ftc-server <id>=<labels.ftc> [...] [--addr HOST:PORT] [--max-connections N] \
     [--max-inflight N] [--deadline-ms N]"
        .into()
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut graphs: Vec<(String, String)> = Vec::new();
    let mut addr = "127.0.0.1:0".to_string();
    let mut config = ServerConfig::default();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().ok_or("--addr expects HOST:PORT")?.clone(),
            "--max-connections" => {
                config.max_connections = it
                    .next()
                    .ok_or("--max-connections expects an integer")?
                    .parse()
                    .map_err(|_| "--max-connections expects an integer")?;
            }
            "--max-inflight" => {
                config.max_inflight_batches = it
                    .next()
                    .ok_or("--max-inflight expects an integer")?
                    .parse()
                    .map_err(|_| "--max-inflight expects an integer")?;
            }
            "--deadline-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--deadline-ms expects milliseconds")?
                    .parse()
                    .map_err(|_| "--deadline-ms expects milliseconds")?;
                config.request_deadline = Some(Duration::from_millis(ms));
            }
            "--help" | "-h" => return Err(usage()),
            spec => {
                let (id, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("expected <id>=<labels.ftc>, got '{spec}'"))?;
                if id.is_empty() {
                    return Err(format!("empty graph ID in '{spec}'"));
                }
                graphs.push((id.to_string(), path.to_string()));
            }
        }
    }
    if graphs.is_empty() {
        return Err(usage());
    }

    let registry = Arc::new(ServiceRegistry::new());
    for (id, path) in &graphs {
        let service = registry.open_path(id, path).map_err(|e| e.to_string())?;
        eprintln!(
            "registered \"{id}\": n = {}, m = {} ({path})",
            service.n(),
            service.m()
        );
    }

    let server =
        Server::bind(registry, &addr, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let handle = server.handle();

    // SIGHUP: blue/green reload of every registered archive from its
    // original path. Swaps are per-archive atomic; a failed re-open
    // leaves the previous service in place.
    let reload_registry = handle.registry().clone();
    let reload_graphs = graphs.clone();
    install_signal_handlers(
        handle.clone(),
        Some(Box::new(move || {
            for (id, path) in &reload_graphs {
                match ftc_serve::ConnectivityService::open_path(path) {
                    Ok(service) => {
                        let generation = reload_registry.swap(id.clone(), service);
                        eprintln!("reloaded \"{id}\" generation {generation} ({path})");
                    }
                    Err(e) => {
                        eprintln!("reload of \"{id}\" failed, keeping previous archive: {e}");
                    }
                }
            }
        })),
    );

    // The readiness line scripts wait for; flush so piped readers see it.
    println!("listening on {}", server.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot write: {e}"))?;

    server.run().map_err(|e| format!("serving failed: {e}"))?;

    let stats = handle.stats();
    let srv = handle.server_stats();
    eprintln!(
        "drained: {} requests ({} coalesced) in {} batches, {} pairs answered; \
         {} connections accepted, {} shed at the connection cap, {} requests shed",
        stats.requests,
        stats.coalesced,
        stats.batches,
        srv.pairs,
        srv.accepted,
        srv.shed_connections,
        stats.shed
    );
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

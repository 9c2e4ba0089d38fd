//! Fail-closed sweep: a corrupted archive never answers wrong.
//!
//! Every servable artifact of one small multi-component labeling — a v1
//! blob opened from the heap, the same blob memory-mapped through
//! `open_path`, its v2 compressed container, and a `DynamicScheme`
//! commit — is corrupted one byte at a time under a fixed set of XOR
//! masks. After each flip the artifact is opened; if it opens, a fixed
//! battery (every vertex pair under the empty fault set, one tree edge,
//! and `F` edges) runs through `ConnectivityService::query` and
//! `query_certified`. Every outcome must be a typed error or exactly the
//! BFS oracle's answer, and nothing may panic.
//!
//! The tier-1 sweep flips every offset of the first `DENSE_PREFIX` bytes
//! (the fixed header, the section table, the offset table and the
//! endpoint index of a graph this small, in either layout) and of the
//! trailing checksum, and every `STRIDE`-th offset elsewhere. The
//! `#[ignore]`d variant flips every offset; run it with
//! `cargo test --release --test fail_closed -- --include-ignored`.

use ftc::core::compressed::compress_archive;
use ftc::core::store::{EdgeEncoding, LabelStore};
use ftc::core::{FtcScheme, Params, ThresholdPolicy};
use ftc::dyn_::{DynConfig, DynamicScheme};
use ftc::graph::connectivity::ConnectivityOracle;
use ftc::graph::Graph;
use ftc::serve::ConnectivityService;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

const F: usize = 2;
const MASKS: [u8; 3] = [0x01, 0x80, 0xff];
const DENSE_PREFIX: usize = 1024;
const DENSE_SUFFIX: usize = 16;
const STRIDE: usize = 7;
/// Codec threshold of the static labeling: enough for every fault set
/// of the battery, small enough that an archive is a few kilobytes.
const K: usize = 8;

/// Two 4-cycles joined by the bridge 3–4 on 0..8, a 5-cycle on 8..13,
/// `K4` on 13..17, and the isolated vertex 17.
fn graph() -> Graph {
    let mut edges = vec![(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)];
    edges.extend([(4, 5), (5, 6), (6, 7), (7, 4)]);
    edges.extend((0..5).map(|i| (8 + i, 8 + (i + 1) % 5)));
    for a in 13..17 {
        for b in a + 1..17 {
            edges.push((a, b));
        }
    }
    Graph::from_edges(18, &edges)
}

/// The battery's fault sets: none, the bridge (a tree edge of every
/// spanning forest), and `F` edges cutting the 5-cycle in two.
fn fault_sets() -> [Vec<(usize, usize)>; 3] {
    [vec![], vec![(3, 4)], vec![(8, 9), (10, 11)]]
}

/// What one corrupted artifact did.
#[derive(Default, Debug)]
struct Tally {
    rejected_at_open: usize,
    typed_errors: usize,
    answered: usize,
    wrong: Vec<String>,
    panics: Vec<String>,
}

/// Expected answers of the battery over `g`, one row per fault set.
fn oracle_answers(g: &Graph) -> Vec<Vec<bool>> {
    let mut oracle = ConnectivityOracle::new(g);
    fault_sets()
        .iter()
        .map(|faults| {
            oracle.prepare_pairs(faults);
            all_pairs(g.n())
                .map(|(s, t)| oracle.connected(s, t))
                .collect()
        })
        .collect()
}

fn all_pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |s| (0..n).map(move |t| (s, t)))
}

/// Runs the battery; `Err` names the first answer that disagrees with
/// the oracle. Typed errors are fine and counted.
fn battery(
    svc: &ConnectivityService,
    n: usize,
    expected: &[Vec<bool>],
    typed: &mut usize,
) -> Result<(), String> {
    let pairs: Vec<(usize, usize)> = all_pairs(n).collect();
    for (faults, want) in fault_sets().iter().zip(expected) {
        match svc.query(faults, &pairs) {
            Ok(answers) if answers.as_slice() != &want[..] => {
                return Err(format!("query under {faults:?}"));
            }
            Ok(_) => {}
            Err(_) => *typed += 1,
        }
        match svc.query_certified(faults, &pairs) {
            Ok(certs) if !certs.iter().map(Option::is_some).eq(want.iter().copied()) => {
                return Err(format!("query_certified under {faults:?}"));
            }
            Ok(_) => {}
            Err(_) => *typed += 1,
        }
    }
    Ok(())
}

/// The byte offsets a sweep flips in a blob of `len` bytes.
fn offsets(len: usize, every: bool) -> impl Iterator<Item = usize> {
    (0..len).filter(move |&at| {
        every || at < DENSE_PREFIX || at + DENSE_SUFFIX >= len || at % STRIDE == 0
    })
}

/// Sweeps one artifact: `open` turns corrupted bytes into a service (or
/// a rejection), and every opened service must pass the battery.
fn sweep(
    name: &str,
    blob: &[u8],
    g: &Graph,
    every: bool,
    open: impl Fn(Vec<u8>) -> Option<ConnectivityService>,
) -> Tally {
    let expected = oracle_answers(g);
    let clean = open(blob.to_vec()).unwrap_or_else(|| panic!("{name}: clean artifact rejected"));
    let mut typed = 0;
    battery(&clean, g.n(), &expected, &mut typed)
        .unwrap_or_else(|e| panic!("{name}: clean artifact answered wrong: {e}"));
    assert_eq!(typed, 0, "{name}: clean artifact raised errors");

    let mut tally = Tally::default();
    for at in offsets(blob.len(), every) {
        for mask in MASKS {
            let mut bad = blob.to_vec();
            bad[at] ^= mask;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let Some(svc) = open(bad) else {
                    return Ok(None);
                };
                let mut typed = 0;
                battery(&svc, g.n(), &expected, &mut typed).map(|()| Some(typed))
            }));
            let here = format!("{name} byte {at} ^ {mask:#04x}");
            match outcome {
                Ok(Ok(None)) => tally.rejected_at_open += 1,
                Ok(Ok(Some(0))) => tally.answered += 1,
                Ok(Ok(Some(_))) => tally.typed_errors += 1,
                Ok(Err(what)) => tally.wrong.push(format!("{here}: {what}")),
                Err(_) => tally.panics.push(here),
            }
        }
    }
    eprintln!(
        "{name}: {} bytes, {} rejected at open, {} typed errors, {} answered like the oracle",
        blob.len(),
        tally.rejected_at_open,
        tally.typed_errors,
        tally.answered
    );
    tally
}

fn from_bytes(bytes: Vec<u8>) -> Option<ConnectivityService> {
    ConnectivityService::from_archive_bytes(bytes).ok()
}

/// A scratch file for the mapped sweep, removed on drop.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn run(every: bool) {
    let g = graph();
    let scheme = FtcScheme::build(
        &g,
        &Params::deterministic(F).with_threshold(ThresholdPolicy::Fixed(K)),
    )
    .unwrap();
    let v1 = LabelStore::archive(scheme.labels(), EdgeEncoding::Full);
    let v2 = compress_archive(&v1).into_vec();
    let v1 = v1.into_vec();

    let mut dynamic = DynamicScheme::new(&g, DynConfig::new(F, K)).unwrap();
    dynamic.insert_edge(0, 2).unwrap();
    let committed = dynamic.commit().into_vec();
    let mut dyn_edges: Vec<(usize, usize)> = g.edge_iter().map(|(_, u, v)| (u, v)).collect();
    dyn_edges.push((0, 2));
    let dyn_graph = Graph::from_edges(g.n(), &dyn_edges);

    let file = TempFile(std::env::temp_dir().join(format!(
        "ftc-fail-closed-{}-{}.ftc",
        std::process::id(),
        every
    )));
    let mapped = |bytes: Vec<u8>| {
        std::fs::write(&file.0, bytes).unwrap();
        ConnectivityService::open_path(&file.0).ok()
    };

    let tallies = [
        sweep("v1 heap", &v1, &g, every, from_bytes),
        sweep("v1 mapped", &v1, &g, every, mapped),
        sweep("v2", &v2, &g, every, from_bytes),
        sweep("dynamic commit", &committed, &dyn_graph, every, from_bytes),
    ];
    let wrong: Vec<&String> = tallies.iter().flat_map(|t| &t.wrong).collect();
    let panics: Vec<&String> = tallies.iter().flat_map(|t| &t.panics).collect();
    assert!(
        wrong.is_empty() && panics.is_empty(),
        "{} wrong answers (first: {:?}), {} panics (first: {:?})",
        wrong.len(),
        wrong.first(),
        panics.len(),
        panics.first()
    );
}

#[test]
fn corrupted_archives_fail_closed() {
    run(false);
}

#[test]
#[ignore = "every offset; run in release"]
fn corrupted_archives_fail_closed_at_every_offset() {
    run(true);
}

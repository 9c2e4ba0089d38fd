//! Crash-recovery differential test against the real binary: a child
//! `ftc-cli update --journal --fsync every_op` process is `kill -9`ed
//! at seeded points across many rounds, and each surviving disk is
//! recovered and checked against an independent model. The model is
//! the durability contract itself: the surviving archive is always a
//! complete generation (atomic writes — [`LabelStore::open`] must
//! succeed), the journal scans cleanly (a torn final record is the
//! only legal damage), and the recovered edge set equals the archive's
//! edge set with every journal record applied in order as a
//! postcondition (insert ⇒ present, delete ⇒ absent). Connectivity of
//! the recovered labeling is then swept differentially against a
//! BFS-backed [`ConnectivityOracle`] of that edge set.
//!
//! Debug builds skip this (the child runs unoptimized commits); CI
//! runs it in release.

#![cfg(unix)]

use ftc::core::compressed::AnyArchive;
use ftc::core::store::LabelStore;
use ftc::dyn_::journal::{scan_journal, JournalOp};
use ftc::dyn_::DynamicScheme;
use ftc::graph::connectivity::ConnectivityOracle;
use ftc::graph::Graph;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

const N: usize = 300;
const OPS: usize = 400;
const ROUNDS: usize = 12;

fn rng_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftc-cli"))
}

/// Edge set of a v1 archive, through the same reconstruction path
/// recovery uses (seed 0 matches the CLI default).
fn archive_edges(path: &Path) -> BTreeSet<(usize, usize)> {
    let bytes = fs::read(path).expect("surviving archive must be readable");
    let view = LabelStore::open(bytes)
        .expect("surviving archive must re-validate from raw bytes (atomic writes)");
    let scheme =
        DynamicScheme::from_archive(&AnyArchive::V1(view), 0).expect("archive must reconstruct");
    scheme.edge_pairs().collect()
}

fn norm(u: usize, v: usize) -> (usize, usize) {
    (u.min(v), u.max(v))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "kill -9 crash rounds; run in release")]
fn killed_journaled_updates_recover_without_loss() {
    let dir = std::env::temp_dir().join(format!("ftc_crash_recovery_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    // Base graph: a ring plus seeded chords, written as an edge list and
    // built into the base archive by the real binary.
    let mut rng: u64 = 0xC4A5_11FE;
    let mut base_set: BTreeSet<(usize, usize)> = BTreeSet::new();
    for v in 0..N {
        base_set.insert(norm(v, (v + 1) % N));
    }
    while base_set.len() < N + N / 2 {
        let (u, v) = (
            rng_next(&mut rng) as usize % N,
            rng_next(&mut rng) as usize % N,
        );
        if u != v {
            base_set.insert(norm(u, v));
        }
    }
    let graph_file = dir.join("base.txt");
    let edge_list: String = base_set
        .iter()
        .map(|&(u, v)| format!("{u} {v}\n"))
        .collect();
    fs::write(&graph_file, edge_list).unwrap();
    let base = dir.join("base.ftc");
    let out = cli()
        .args([
            "build",
            graph_file.to_str().unwrap(),
            base.to_str().unwrap(),
            "--f",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "base build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A seeded toggle stream that is valid when applied in order from
    // the base: insert absent pairs, delete present ones.
    let mut model = base_set.clone();
    let mut ops_text = String::new();
    for _ in 0..OPS {
        loop {
            let (u, v) = (
                rng_next(&mut rng) as usize % N,
                rng_next(&mut rng) as usize % N,
            );
            if u == v {
                continue;
            }
            let e = norm(u, v);
            if model.remove(&e) {
                ops_text.push_str(&format!("-{} {}\n", e.0, e.1));
            } else {
                model.insert(e);
                ops_text.push_str(&format!("+{} {}\n", e.0, e.1));
            }
            break;
        }
    }
    let ops_file = dir.join("ops.txt");
    fs::write(&ops_file, ops_text).unwrap();

    let work = dir.join("work.ftc");
    let journal = dir.join("work.ftc.ftcj");
    let manifest = dir.join("work.ftc.manifest");
    let spawn_update = |dir: &Path| {
        cli()
            .current_dir(dir)
            .args([
                "update",
                work.to_str().unwrap(),
                ops_file.to_str().unwrap(),
                "--journal",
                "--fsync",
                "every_op",
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn ftc-cli update")
    };

    // Calibration rounds: run to completion twice (runtimes vary with
    // fsync latency — keep the shorter), and pin the happy path: the
    // committed archive must hold exactly the final model.
    let mut full_run = Duration::MAX;
    for _ in 0..2 {
        let _ = fs::remove_file(&journal);
        let _ = fs::remove_file(&manifest);
        fs::copy(&base, &work).unwrap();
        let started = Instant::now();
        let mut child = spawn_update(&dir);
        let status = child.wait().unwrap();
        full_run = full_run.min(started.elapsed());
        assert!(status.success(), "uninterrupted update must succeed");
    }
    assert_eq!(
        archive_edges(&work),
        model,
        "uninterrupted update must commit the final edge set"
    );
    let scan = scan_journal(&fs::read(&journal).unwrap()).unwrap();
    assert!(
        scan.records.is_empty() && scan.torn_at.is_none(),
        "commit must rotate in a fresh journal"
    );

    let mut interrupted = 0;
    for round in 0..ROUNDS {
        let _ = fs::remove_file(&journal);
        let _ = fs::remove_file(&manifest);
        fs::copy(&base, &work).unwrap();

        // Kill at a seeded point inside the fastest observed full-run
        // window (early rounds hit the initial checkpoint, late rounds
        // the journaled op stream and final commit).
        let frac = (rng_next(&mut rng) % 1000) as f64 / 1000.0;
        let delay = full_run.mul_f64(frac * 0.95);
        let mut child = spawn_update(&dir);
        std::thread::sleep(delay.max(Duration::from_millis(1)));
        let _ = child.kill(); // SIGKILL: no destructors, no flushes
        let killed = child.wait().unwrap();
        if !killed.success() {
            interrupted += 1;
        }

        // The surviving archive is always complete and reconstructible.
        let survivor = archive_edges(&work);

        if !journal.exists() {
            // Killed before the initial checkpoint finished: the archive
            // is the base copy or the re-committed base, nothing more.
            assert_eq!(survivor, base_set, "round {round}: pre-journal state");
            continue;
        }

        // Independent recovery model: the journal must scan cleanly
        // (torn tail allowed, interior corruption never), and each
        // record fixes its edge's membership to its postcondition.
        let scan = scan_journal(&fs::read(&journal).unwrap())
            .unwrap_or_else(|e| panic!("round {round}: interior journal corruption: {e}"));
        let mut expected = survivor.clone();
        for rec in &scan.records {
            match rec.op {
                JournalOp::Insert(u, v) => {
                    expected.insert(norm(u as usize, v as usize));
                }
                JournalOp::Delete(u, v) => {
                    expected.remove(&norm(u as usize, v as usize));
                }
                JournalOp::Rebuild => {}
            }
        }

        let out = cli()
            .args(["recover", work.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "round {round}: recover failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );

        // Zero divergence: the recovered archive holds exactly the
        // modeled edge set, and its journal is rotated clean.
        let recovered = archive_edges(&work);
        assert_eq!(recovered, expected, "round {round}: recovered edge set");
        let rescan = scan_journal(&fs::read(&journal).unwrap()).unwrap();
        assert!(
            rescan.records.is_empty() && rescan.torn_at.is_none(),
            "round {round}: recover must reseal with a fresh journal"
        );

        // Differential connectivity sweep of the recovered labeling
        // against a BFS oracle of the modeled edge set.
        let live: Vec<(usize, usize)> = expected.iter().copied().collect();
        let g = Graph::from_edges(N, &live);
        let mut oracle = ConnectivityOracle::new(&g);
        let bytes = fs::read(&work).unwrap();
        let view = LabelStore::open(bytes).unwrap();
        let mut scheme = DynamicScheme::from_archive(&AnyArchive::V1(view), 0).unwrap();
        let service = scheme.commit_service();
        let queries: Vec<(usize, usize)> = (0..32)
            .map(|_| {
                (
                    rng_next(&mut rng) as usize % N,
                    rng_next(&mut rng) as usize % N,
                )
            })
            .collect();
        let mut fault_sets: Vec<Vec<(usize, usize)>> = vec![vec![]];
        for _ in 0..4 {
            let a = live[rng_next(&mut rng) as usize % live.len()];
            let b = live[rng_next(&mut rng) as usize % live.len()];
            fault_sets.push(if a == b { vec![a] } else { vec![a, b] });
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
                    "round {round}: faults {faults:?}, pair ({s},{t})"
                );
            }
        }
    }

    assert!(
        interrupted >= ROUNDS / 2,
        "too few rounds actually killed the child ({interrupted}/{ROUNDS}); \
         the seeded delays are not exercising crash windows"
    );

    let _ = fs::remove_dir_all(&dir);
}

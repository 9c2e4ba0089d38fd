//! End-to-end test of the `ftc-cli` binary: build a label archive from an
//! edge-list file, then answer queries from the stored archive alone.

use std::fs;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftc-cli"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = cli().args(args).output().expect("spawn ftc-cli");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn build_info_query_round_trip() {
    let dir = std::env::temp_dir().join(format!("ftc_cli_test_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let graph_file = dir.join("cycle6.txt");
    // A 6-cycle with comments and blank lines.
    fs::write(
        &graph_file,
        "# six cycle\n0 1\n1 2\n2 3\n\n3 4\n4 5\n5 0  # closing edge\n",
    )
    .unwrap();
    let archive = dir.join("labels.ftc");
    let archive_str = archive.to_str().unwrap();

    let (ok, stdout, stderr) = run(&[
        "build",
        graph_file.to_str().unwrap(),
        archive_str,
        "--f",
        "2",
    ]);
    assert!(ok, "build failed: {stderr}");
    assert!(stdout.contains("byte archive"), "stdout: {stdout}");
    // A single blob is written, nothing else.
    assert!(archive.is_file());

    let (ok, stdout, _) = run(&["info", archive_str]);
    assert!(ok);
    assert!(stdout.contains("n 6") && stdout.contains("m 6") && stdout.contains("f 2"));
    assert!(stdout.contains("encoding full"));

    // One fault: still connected around the cycle.
    let (ok, stdout, _) = run(&["query", archive_str, "0", "3", "--fault", "0:1"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "connected");

    // Two faults cutting vertex 0's arc.
    let (ok, stdout, _) = run(&[
        "query",
        archive_str,
        "1",
        "4",
        "--fault",
        "0:1",
        "--fault",
        "3:4",
    ]);
    assert!(ok);
    assert_eq!(stdout.trim(), "disconnected");

    // Fault given in reversed endpoint order resolves too.
    let (ok, stdout, _) = run(&[
        "query",
        archive_str,
        "1",
        "4",
        "--fault",
        "1:0",
        "--fault",
        "4:3",
    ]);
    assert!(ok);
    assert_eq!(stdout.trim(), "disconnected");

    // Batched queries: one session build answers the positional pair and
    // every --pair, labeled one per line.
    let (ok, stdout, _) = run(&[
        "query",
        archive_str,
        "1",
        "4",
        "--fault",
        "0:1",
        "--fault",
        "3:4",
        "--pair",
        "1:3",
        "--pair",
        "2:2",
    ]);
    assert!(ok);
    assert_eq!(
        stdout.trim().lines().collect::<Vec<_>>(),
        vec!["1 4: disconnected", "1 3: connected", "2 2: connected"]
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compact_archives_round_trip_and_undercut_full() {
    let dir = std::env::temp_dir().join(format!("ftc_cli_compact_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let graph_file = dir.join("grid.txt");
    // 3×3 grid edge list.
    let mut edges = String::new();
    for r in 0..3usize {
        for c in 0..3usize {
            let v = r * 3 + c;
            if c + 1 < 3 {
                edges.push_str(&format!("{} {}\n", v, v + 1));
            }
            if r + 1 < 3 {
                edges.push_str(&format!("{} {}\n", v, v + 3));
            }
        }
    }
    fs::write(&graph_file, edges).unwrap();
    let full = dir.join("full.ftc");
    let compact = dir.join("compact.ftc");
    assert!(
        run(&[
            "build",
            graph_file.to_str().unwrap(),
            full.to_str().unwrap()
        ])
        .0
    );
    assert!(
        run(&[
            "build",
            graph_file.to_str().unwrap(),
            compact.to_str().unwrap(),
            "--encoding",
            "compact",
        ])
        .0
    );
    let full_len = fs::metadata(&full).unwrap().len();
    let compact_len = fs::metadata(&compact).unwrap().len();
    assert!(
        compact_len < full_len,
        "compact archive ({compact_len}) should undercut full ({full_len})"
    );
    let (ok, stdout, _) = run(&["info", compact.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("encoding compact"));
    // Both encodings answer identically.
    for archive in [&full, &compact] {
        let (ok, stdout, _) = run(&[
            "query",
            archive.to_str().unwrap(),
            "0",
            "8",
            "--fault",
            "0:1",
            "--fault",
            "3:4",
        ]);
        assert!(ok);
        assert_eq!(stdout.trim(), "connected");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `build --compress`, `compress`, and `decompress` round-trip through
/// the v2 container: the streamed build matches the transcode
/// byte-for-byte, `decompress` recovers the v1 blob exactly, and
/// `info`/`query` work on the compressed archive directly.
#[test]
fn compressed_archives_round_trip() {
    let dir = std::env::temp_dir().join(format!("ftc_cli_compress_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let graph_file = dir.join("cycle6.txt");
    fs::write(&graph_file, "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n").unwrap();
    let graph = graph_file.to_str().unwrap();
    let v1 = dir.join("labels.ftc");
    let v2 = dir.join("labels.ftcz");
    let v2b = dir.join("transcoded.ftcz");
    let back = dir.join("back.ftc");

    assert!(run(&["build", graph, v1.to_str().unwrap(), "--f", "2"]).0);
    let (ok, stdout, stderr) = run(&[
        "build",
        graph,
        v2.to_str().unwrap(),
        "--f",
        "2",
        "--compress",
    ]);
    assert!(ok, "build --compress failed: {stderr}");
    assert!(stdout.contains("compressed archive"), "stdout: {stdout}");
    assert!(
        fs::metadata(&v2).unwrap().len() < fs::metadata(&v1).unwrap().len(),
        "compressed archive should undercut v1"
    );

    // Streamed compressed build == transcoded v1, byte for byte.
    assert!(run(&["compress", v1.to_str().unwrap(), v2b.to_str().unwrap()]).0);
    assert_eq!(fs::read(&v2).unwrap(), fs::read(&v2b).unwrap());

    // decompress recovers the original blob exactly.
    assert!(run(&["decompress", v2.to_str().unwrap(), back.to_str().unwrap()]).0);
    assert_eq!(fs::read(&v1).unwrap(), fs::read(&back).unwrap());

    // info reports the section table and ratio without decoding.
    let (ok, stdout, _) = run(&["info", v2.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("format v2-compressed"), "stdout: {stdout}");
    assert!(stdout.contains("ratio "));
    assert!(stdout.contains("section level-rows[0]"));

    // Queries answer identically from either format.
    for archive in [&v1, &v2] {
        let (ok, stdout, _) = run(&[
            "query",
            archive.to_str().unwrap(),
            "1",
            "4",
            "--fault",
            "0:1",
            "--fault",
            "3:4",
        ]);
        assert!(ok);
        assert_eq!(stdout.trim(), "disconnected");
    }

    // Corrupt section payloads surface as typed errors at query time.
    let mut bytes = fs::read(&v2).unwrap();
    let at = bytes.len() - 10;
    bytes[at] ^= 0xFF;
    let bad = dir.join("bad.ftcz");
    fs::write(&bad, &bytes).unwrap();
    let (ok, _, stderr) = run(&["query", bad.to_str().unwrap(), "1", "4", "--fault", "0:1"]);
    assert!(!ok);
    assert!(
        stderr.contains("corrupt") || stderr.contains("checksum") || stderr.contains("byte"),
        "stderr: {stderr}"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// `serve` answers line-delimited stdin queries in order — identically
/// in streaming mode and in `--threads N` batch mode.
#[test]
fn serve_answers_stdin_queries_in_order() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("ftc_cli_serve_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let graph_file = dir.join("cycle6.txt");
    fs::write(&graph_file, "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n").unwrap();
    let archive = dir.join("labels.ftc");
    let archive_str = archive.to_str().unwrap();
    assert!(
        run(&[
            "build",
            graph_file.to_str().unwrap(),
            archive_str,
            "--f",
            "2"
        ])
        .0
    );

    let input = "# one query per line: s t [u:v ...]\n\
                 0 3 0:1\n\
                 1 4 0:1 3:4\n\
                 1 4 1:0 4:3\n\
                 2 2 0:1\n\
                 \n\
                 0 3\n";
    let want = "0 3 connected\n\
                1 4 disconnected\n\
                1 4 disconnected\n\
                2 2 connected\n\
                0 3 connected\n";
    for extra in [&[][..], &["--threads", "4"][..]] {
        let mut args = vec!["serve", archive_str];
        args.extend_from_slice(extra);
        let mut child = cli()
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ftc-cli serve");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "serve {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), want, "mode {extra:?}");
    }

    // Errors name the offending query.
    let mut child = cli()
        .args(["serve", archive_str])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(b"0 3 0:2\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no edge"));

    let _ = fs::remove_dir_all(&dir);
}

/// `update --journal` + `recover` round trip: the journaled update
/// leaves a committed archive, a rotated (empty) journal, and a
/// manifest; a hand-crafted crash state — journal records past the
/// watermark, torn tail, missing manifest — is replayed by `recover`
/// and lands in the archive.
#[test]
fn journaled_update_and_recover_round_trip() {
    use ftc::core::compressed::AnyArchive;
    use ftc::core::io::StdVfs;
    use ftc::dyn_::journal::{scan_journal, FsyncPolicy, Journal, JournalOp};
    use ftc::dyn_::DynamicScheme;

    let dir = std::env::temp_dir().join(format!("ftc_cli_journal_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let graph_file = dir.join("cycle6.txt");
    fs::write(&graph_file, "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n").unwrap();
    let archive = dir.join("labels.ftc");
    let archive_str = archive.to_str().unwrap();
    assert!(
        run(&[
            "build",
            graph_file.to_str().unwrap(),
            archive_str,
            "--f",
            "2"
        ])
        .0
    );

    // Flag validation: --fsync without --journal, and compressed output.
    let ops_file = dir.join("ops.txt");
    fs::write(&ops_file, "+0 3  # chord\n-0 1\n+0 1\n").unwrap();
    let ops_str = ops_file.to_str().unwrap();
    let (ok, _, stderr) = run(&["update", archive_str, ops_str, "--fsync", "every_op"]);
    assert!(!ok);
    assert!(stderr.contains("--fsync only applies with --journal"));
    let (ok, _, stderr) = run(&[
        "update",
        archive_str,
        ops_str,
        "--journal",
        "--out",
        dir.join("out.ftcz").to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(stderr.contains("v1 output archive"), "stderr: {stderr}");

    // The journaled update commits and rotates in a fresh journal.
    let (ok, stdout, stderr) = run(&[
        "update",
        archive_str,
        ops_str,
        "--journal",
        "--fsync",
        "every_n:2",
        "--seed",
        "5",
    ]);
    assert!(ok, "journaled update failed: {stderr}");
    assert!(
        stdout.contains("committed watermark") && stdout.contains("fsync every_n:2"),
        "stdout: {stdout}"
    );
    let journal = dir.join("labels.ftc.ftcj");
    let manifest = dir.join("labels.ftc.manifest");
    assert!(journal.is_file() && manifest.is_file());
    let scan = scan_journal(&fs::read(&journal).unwrap()).unwrap();
    assert!(scan.records.is_empty(), "commit must rotate the journal");
    let (ok, stdout, _) = run(&["info", archive_str]);
    assert!(ok);
    assert!(stdout.contains("m 7"), "chord committed: {stdout}");

    // Craft a crash: a journal holding one un-checkpointed insert plus
    // a torn tail, with the manifest gone entirely.
    let view = AnyArchive::open(fs::read(&archive).unwrap()).unwrap();
    let scheme = DynamicScheme::from_archive(&view, 5).unwrap();
    assert!(!scheme.has_edge(1, 4));
    drop(scheme);
    let mut j = Journal::create(&StdVfs, &journal, scan.meta, FsyncPolicy::EveryOp).unwrap();
    j.append(JournalOp::Insert(1, 4)).unwrap();
    drop(j);
    let mut crashed = fs::read(&journal).unwrap();
    crashed.extend_from_slice(&[0xAB, 0xCD]); // mid-append power cut
    fs::write(&journal, &crashed).unwrap();
    fs::remove_file(&manifest).unwrap();

    let (ok, stdout, stderr) = run(&["recover", archive_str, "--seed", "5"]);
    assert!(ok, "recover failed: {stderr}");
    assert!(
        stdout.contains("1 replayed") && stdout.contains("torn tail truncated"),
        "stdout: {stdout}"
    );
    let (ok, stdout, _) = run(&["info", archive_str]);
    assert!(ok);
    assert!(
        stdout.contains("m 8"),
        "replayed insert committed: {stdout}"
    );
    assert!(manifest.is_file(), "recover must reseal the manifest");
    let rescan = scan_journal(&fs::read(&journal).unwrap()).unwrap();
    assert!(rescan.records.is_empty() && rescan.torn_at.is_none());

    // The recovered archive answers queries.
    let (ok, stdout, _) = run(&["query", archive_str, "1", "4", "--fault", "1:2"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "connected");

    // Wrong seed: lineage mismatch is a typed refusal.
    let (ok, _, stderr) = run(&["recover", archive_str, "--seed", "6"]);
    assert!(!ok);
    assert!(stderr.contains("lineage"), "stderr: {stderr}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cli_error_paths() {
    let (ok, _, stderr) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));

    let (ok, _, stderr) = run(&["build", "/nonexistent/file.txt", "/tmp/nowhere.ftc"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));

    let (ok, _, stderr) = run(&["query", "/nonexistent.ftc", "0", "1"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read archive"));

    let (ok, _, stderr) = run(&["info", "/nonexistent.ftc"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read archive"));
}

#[test]
fn cli_rejects_unknown_fault_edges_vertices_and_corrupt_archives() {
    let dir = std::env::temp_dir().join(format!("ftc_cli_test2_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let graph_file = dir.join("path.txt");
    fs::write(&graph_file, "0 1\n1 2\n").unwrap();
    let archive = dir.join("labels.ftc");
    let archive_str = archive.to_str().unwrap();
    assert!(run(&["build", graph_file.to_str().unwrap(), archive_str]).0);

    let (ok, _, stderr) = run(&["query", archive_str, "0", "2", "--fault", "0:2"]);
    assert!(!ok);
    assert!(stderr.contains("no edge"));

    // Unknown faults error even when every query pair answers trivially
    // (same-vertex pairs never build a session, but faults are resolved
    // eagerly).
    let (ok, _, stderr) = run(&["query", archive_str, "0", "0", "--fault", "0:2"]);
    assert!(!ok);
    assert!(stderr.contains("no edge"));

    let (ok, _, stderr) = run(&["query", archive_str, "0", "9"]);
    assert!(!ok);
    assert!(stderr.contains("out of range"));

    // A truncated archive is rejected with a byte offset, not a panic.
    let blob = fs::read(&archive).unwrap();
    let truncated = dir.join("truncated.ftc");
    fs::write(&truncated, &blob[..blob.len() / 2]).unwrap();
    let (ok, _, stderr) = run(&["info", truncated.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("byte"), "stderr: {stderr}");

    let _ = fs::remove_dir_all(&dir);
}

/// A fault endpoint beyond `u32::MAX` names no edge in either archive
/// format: it must not wrap onto the edge its low 32 bits name (0–1 on
/// this cycle, which with 2–3 would split 1 from 4).
#[cfg(target_pointer_width = "64")]
#[test]
fn wide_fault_endpoints_are_unknown_edges() {
    let dir = std::env::temp_dir().join(format!("ftc_cli_wide_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let graph_file = dir.join("cycle6.txt");
    fs::write(&graph_file, "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n").unwrap();
    for (name, extra) in [("labels.ftc", None), ("labels.ftcz", Some("--compress"))] {
        let archive = dir.join(name);
        let archive_str = archive.to_str().unwrap();
        let mut build = vec![
            "build",
            graph_file.to_str().unwrap(),
            archive_str,
            "--f",
            "2",
        ];
        build.extend(extra);
        assert!(run(&build).0, "{name}: build failed");
        let out = cli()
            .args(["query", archive_str, "1", "4", "--fault", "0:4294967297"])
            .args(["--fault", "2:3"])
            .output()
            .expect("spawn ftc-cli");
        assert_eq!(out.status.code(), Some(1), "{name}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("no edge"),
            "{name}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// TCP serving is `ftc-server`'s job: `serve` rejects the flags it no
/// longer has instead of silently serving stdin.
#[test]
fn serve_rejects_tcp_flags() {
    let (ok, _, stderr) = run(&["serve", "/nonexistent.ftc", "--tcp", "127.0.0.1:0"]);
    assert!(!ok);
    assert!(stderr.contains("ftc-server"), "stderr: {stderr}");
}

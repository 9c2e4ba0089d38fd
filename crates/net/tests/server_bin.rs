//! End-to-end tests of the shipped binaries: spawn `ftc-server` on a
//! real archive file, talk to it with [`ftc_net::Client`], and shut it
//! down with SIGTERM the way an operator (or the CI harness) would.

use ftc_core::store::{EdgeEncoding, LabelStore};
use ftc_core::{FtcScheme, Params};
use ftc_graph::Graph;
use ftc_net::Client;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// One test's temp directory, removed when the test ends — also when it
/// panics. Declare it before the server it feeds, so it outlives it.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(test: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("ftc-net-bin-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_archive(path: &std::path::Path) -> Graph {
    let g = Graph::torus(3, 4);
    let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
    std::fs::write(
        path,
        LabelStore::to_vec(scheme.labels(), EdgeEncoding::Full),
    )
    .unwrap();
    g
}

fn spawn_server(args: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftc-server"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The server prints exactly one "listening on HOST:PORT" line once
    // it is accepting connections — the contract scripts rely on.
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .trim()
        .to_string();
    (child, addr)
}

#[test]
fn server_binary_serves_and_drains_on_sigterm() {
    let scratch = ScratchDir::new("serves");
    let archive = scratch.path("torus.ftc");
    write_archive(&archive);
    let spec = format!("torus={}", archive.display());
    let (mut child, addr) = spawn_server(&[&spec]);

    let mut client = Client::connect(&addr).unwrap();
    let answers = client.query("torus", &[(0, 1)], &[(0, 5), (2, 2)]).unwrap();
    assert_eq!(answers.len(), 2);
    assert!(answers[1], "(2,2) is trivially connected");

    // SIGTERM → graceful drain → exit code 0 with a drain summary.
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill -TERM failed");
    let exit = child.wait().unwrap();
    assert!(exit.success(), "server exited with {exit}");

    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(
        stderr.contains("drained:"),
        "missing drain summary in stderr: {stderr:?}"
    );
    assert!(
        stderr.contains("1 requests"),
        "stats miscounted: {stderr:?}"
    );
}

/// Reads stderr lines until one contains `needle` (the reload log
/// lines are the operator contract being pinned here).
fn next_line_containing(stderr: &mut impl BufRead, needle: &str) -> String {
    for _ in 0..50 {
        let mut line = String::new();
        let n = stderr.read_line(&mut line).unwrap();
        assert!(n > 0, "server stderr closed while waiting for {needle:?}");
        if line.contains(needle) {
            return line;
        }
    }
    panic!("no stderr line contained {needle:?}");
}

/// A SIGHUP pointing at a corrupt (or mid-rewrite, torn) archive must
/// never take the graph down: the reload fails with a typed log line,
/// the previous generation keeps serving, and a later SIGHUP with a
/// good archive swaps forward.
#[test]
fn sighup_with_corrupt_archive_keeps_previous_generation() {
    let scratch = ScratchDir::new("reload");
    let archive = scratch.path("reload.ftc");
    write_archive(&archive);
    let spec = format!("g={}", archive.display());
    let (mut child, addr) = spawn_server(&[&spec]);
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let pid = child.id().to_string();

    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(
        client.query("g", &[(0, 1)], &[(0, 5)]).unwrap().len(),
        1,
        "first generation must serve"
    );

    // Replace the archive with garbage via rename — a fresh inode, the
    // way any writer (even a corrupt one) must publish: the previous
    // generation's mmap stays valid. (An in-place truncating write
    // would yank pages out from under the live mapping — exactly the
    // hazard the atomic-writer discipline exists to rule out.)
    let garbage = scratch.path("reload.ftc.garbage");
    std::fs::write(&garbage, b"FTC?this is not an archive").unwrap();
    std::fs::rename(&garbage, &archive).unwrap();
    assert!(Command::new("kill")
        .args(["-HUP", &pid])
        .status()
        .unwrap()
        .success());
    let line = next_line_containing(&mut stderr, "reload of");
    assert!(
        line.contains("reload of \"g\" failed, keeping previous archive"),
        "unexpected reload failure line: {line:?}"
    );

    // The previous generation is still live and still correct.
    assert_eq!(client.query("g", &[], &[(2, 2)]).unwrap(), vec![true]);
    assert_eq!(
        client.query("g", &[(0, 1)], &[(0, 5)]).unwrap().len(),
        1,
        "previous generation must keep serving after the failed reload"
    );

    // Restore a good archive through the atomic writer and reload:
    // the swap goes forward.
    let g = Graph::torus(3, 4);
    let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
    ftc_core::io::write_file_atomic(
        &archive,
        &LabelStore::to_vec(scheme.labels(), EdgeEncoding::Full),
    )
    .unwrap();
    assert!(Command::new("kill")
        .args(["-HUP", &pid])
        .status()
        .unwrap()
        .success());
    let line = next_line_containing(&mut stderr, "reloaded");
    assert!(
        line.contains("reloaded \"g\" generation"),
        "unexpected reload line: {line:?}"
    );
    assert_eq!(client.query("g", &[], &[(2, 2)]).unwrap(), vec![true]);

    Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(child.wait().unwrap().success());
}

#[test]
fn server_binary_rejects_bad_usage() {
    // No archives at all.
    let out = Command::new(env!("CARGO_BIN_EXE_ftc-server"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "stderr: {stderr}");

    // An unreadable archive path fails up front, before binding.
    let out = Command::new(env!("CARGO_BIN_EXE_ftc-server"))
        .arg("g=/definitely/not/here.ftc")
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn client_pipelines_against_the_binary() {
    let scratch = ScratchDir::new("pipelines");
    let archive = scratch.path("torus2.ftc");
    write_archive(&archive);
    let spec = format!("torus={}", archive.display());
    let (mut child, addr) = spawn_server(&[&spec]);

    // Pipelined: several requests in flight on one connection, answers
    // matched back up by request ID.
    let mut client = Client::connect(&addr).unwrap();
    let ids: Vec<u64> = (0..8)
        .map(|i| {
            client
                .send("torus", &[(0, 1)], &[(i % 12, (i + 3) % 12)])
                .unwrap()
        })
        .collect();
    for want in ids {
        let resp = client.recv().unwrap();
        assert_eq!(resp.request_id, want, "responses arrived out of order");
    }

    // Raw-socket misuse against the real binary: a typed error frame,
    // not a dead server.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(&7u32.to_le_bytes()).unwrap();
    raw.write_all(b"garbage").unwrap();
    let mut prefix = [0u8; 4];
    raw.read_exact(&mut prefix).unwrap();
    drop(raw);
    assert_eq!(client.query("torus", &[], &[(0, 1)]).unwrap(), vec![true]);

    Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(child.wait().unwrap().success());
}

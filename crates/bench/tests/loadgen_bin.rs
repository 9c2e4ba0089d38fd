//! End-to-end test of the shipped `ftc-loadgen` binary's workload
//! export: the edge list it emits is what `ftc-cli build` turns into the
//! archive an external `ftc-server` serves to the loadgen.

use std::process::Command;

#[test]
fn loadgen_emit_graph_writes_a_buildable_edge_list() {
    let dir = std::env::temp_dir().join(format!("ftc-loadgen-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("workload-edges.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_ftc-loadgen"))
        .args(["--quick", "--emit-graph"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("ftc-cli build"),
        "missing build hint: {stdout}"
    );

    // The emitted file is the `ftc-cli build` edge-list format:
    // comment header, then one "u v" pair per line.
    let text = std::fs::read_to_string(&out_path).unwrap();
    let mut edges = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let u: usize = it.next().unwrap().parse().unwrap();
        let v: usize = it.next().unwrap().parse().unwrap();
        assert!(it.next().is_none(), "extra tokens: {line:?}");
        assert_ne!(u, v, "self-loop in emitted graph");
        edges += 1;
    }
    assert!(edges >= 200, "suspiciously few edges: {edges}");
    let _ = std::fs::remove_dir_all(&dir);
}

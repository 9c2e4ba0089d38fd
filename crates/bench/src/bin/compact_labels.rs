//! Experiment E12 — compact (odd-syndrome) labels ablation.
//!
//! Over characteristic-two fields the even power sums of every genuine
//! outdetect label satisfy `s_{2j} = s_j²`, so edge labels can be stored
//! at half width and expanded on decode (`ftc_codes::compact`). This
//! binary validates decode-equivalence on random query workloads and
//! reports the measured size reduction — a free 2× the paper leaves on
//! the table.
//!
//! Run: `cargo run -p ftc-bench --release --bin compact_labels`

use ftc_bench::{header, row, standard_graph, Flavor};
use ftc_core::serial::{edge_from_bytes, edge_to_bytes};
use ftc_core::{EdgeEncoding, FtcScheme};
use ftc_graph::generators;

fn main() {
    println!("## E12: compact labels — decode equivalence + size reduction\n");
    header(&[
        "n",
        "m",
        "f",
        "full bits/edge",
        "compact bits/edge",
        "ratio",
        "query disagreements",
    ]);
    for &(n, f) in &[(32usize, 1usize), (64, 2), (128, 2)] {
        let g = standard_graph(n, 5);
        let scheme = FtcScheme::build(&g, &Flavor::DetEpsNet.params(f)).expect("build");
        let l = scheme.labels();

        // Serialize every edge label both ways.
        let full_bits: usize = (0..g.m())
            .map(|e| edge_to_bytes(l.edge_label_by_id(e), EdgeEncoding::Full).len() * 8)
            .sum();
        let compact_bits: usize = (0..g.m())
            .map(|e| edge_to_bytes(l.edge_label_by_id(e), EdgeEncoding::Compact).len() * 8)
            .sum();

        // Random query workload: answers from compact-expanded labels must
        // match answers from the originals exactly.
        let mut disagreements = 0usize;
        for seed in 0..20u64 {
            let fset = generators::random_fault_set(&g, f, seed);
            let original = l
                .session(fset.iter().map(|&e| l.edge_label_by_id(e)))
                .expect("theory threshold");
            let reloaded = l
                .session(fset.iter().map(|&e| {
                    let compact = edge_to_bytes(l.edge_label_by_id(e), EdgeEncoding::Compact);
                    edge_from_bytes(&compact).expect("lossless")
                }))
                .expect("theory threshold");
            for s in 0..g.n() {
                for t in (s + 1)..g.n() {
                    let a = original.connected(l.vertex_label(s), l.vertex_label(t));
                    let b = reloaded.connected(l.vertex_label(s), l.vertex_label(t));
                    if a != b {
                        disagreements += 1;
                    }
                }
            }
        }
        row(&[
            n.to_string(),
            g.m().to_string(),
            f.to_string(),
            (full_bits / g.m()).to_string(),
            (compact_bits / g.m()).to_string(),
            format!("{:.3}", compact_bits as f64 / full_bits as f64),
            disagreements.to_string(),
        ]);
        assert_eq!(disagreements, 0, "compact labels must be decode-equivalent");
    }
    println!();
    println!("(extension beyond the paper: the Frobenius identity halves the O(f² log³ n)");
    println!(" label constant; the paper's Table 1 stores all 2k syndromes)");
}

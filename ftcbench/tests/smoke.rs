//! The benchmark's own test: each workload runs briefly in smoke mode,
//! untraced and traced, and reports every metric it names, finite; and
//! `BENCHMARK.json` lists exactly those metrics and workloads.

use ftcbench::report::{END_TO_END, PER_LAYER};
use ftcbench::{run, Options, Workload};
use std::path::Path;

fn smoke(workload: Workload, trace: bool) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let opts = Options::new(workload, 7, 0.3, trace, true, root);
    let report = run(&opts).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    assert!(
        report.correct(),
        "{}: {} wrong, {} failed",
        workload.name(),
        report.wrong,
        report.failed
    );
    let names = if trace { PER_LAYER } else { END_TO_END };
    let selected = report
        .select(names)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert_eq!(selected.len(), names.len());
}

#[test]
fn wire_faults_reports_every_metric() {
    smoke(Workload::WireFaults, false);
    smoke(Workload::WireFaults, true);
}

#[test]
fn wire_sweep_reports_every_metric() {
    smoke(Workload::WireSweep, false);
    smoke(Workload::WireSweep, true);
}

#[test]
fn churn_reports_every_metric() {
    smoke(Workload::Churn, false);
    smoke(Workload::Churn, true);
}

/// The value of `"key": "..."` in one JSON object's text.
fn field(entry: &str, key: &str) -> String {
    let tag = format!("\"{key}\": \"");
    let at = entry
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {entry}"))
        + tag.len();
    entry[at..]
        .split('"')
        .next()
        .expect("closing quote")
        .to_string()
}

/// `(name, unit)` of every entry of the JSON array under `key`.
fn entries(json: &str, key: &str) -> Vec<(String, String)> {
    let at = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key}"));
    let body = &json[at..];
    let body = &body[..body.find(']').expect("closing bracket")];
    body.split('{')
        .skip(1)
        .map(|e| {
            let unit = if e.contains("\"unit\"") {
                field(e, "unit")
            } else {
                String::new()
            };
            (field(e, "name"), unit)
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(entries(&json, "end_to_end"), own(END_TO_END));
    assert_eq!(entries(&json, "per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = entries(&json, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

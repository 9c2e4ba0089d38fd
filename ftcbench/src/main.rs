//! Command line of the benchmark:
//!
//! ```text
//! ftcbench --workload <wire_faults|wire_sweep|churn> --seed <n>
//!          --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints the run's stamp and every metric it measured, one per line
//! with its unit and sample count, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, whose metrics are the
//! end-to-end ones with `--trace 0` and the per-layer ones with
//! `--trace 1`. Exits 1 on a wrong answer or a failed operation, 2 on bad
//! arguments or a run that could not complete.

use ftcbench::report::{json_line, END_TO_END, PER_LAYER};
use ftcbench::{run, Options, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ftcbench --workload <wire_faults|wire_sweep|churn> --seed <n> --seconds <s> --trace <0|1> [--smoke]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = value("--workload").and_then(Workload::parse) else {
        return usage("--workload must name wire_faults, wire_sweep or churn");
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed must be a whole number");
    };
    let Some(seconds) = value("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
    else {
        return usage("--seconds must be a positive number of seconds, at most 600");
    };
    let trace = match value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace must be 0 or 1"),
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let root = match std::env::current_dir() {
        Ok(dir) => dir,
        Err(e) => return usage(&format!("no working directory: {e}")),
    };
    let opts = Options::new(workload, seed, seconds, trace, smoke, &root);

    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {} failed: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    let stamp: Vec<String> = report
        .stamp
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "# ftcbench workload={} seed={seed} seconds={seconds} trace={} {}",
        workload.name(),
        u8::from(trace),
        stamp.join(" ")
    );
    let units = END_TO_END.iter().chain(PER_LAYER);
    for m in &report.metrics {
        let unit = units
            .clone()
            .find(|(name, _)| *name == m.name)
            .map_or("", |(_, unit)| unit);
        match m.samples {
            Some(n) => println!("{:<28} {:>16.4} {unit:<6} n={n}", m.name, m.value),
            None => println!("{:<28} {:>16.4} {unit}", m.name, m.value),
        }
    }
    println!(
        "{:<28} {:>16.4} ratio  ({} failed + {} wrong of {})",
        "failed_frac",
        (report.failed + report.wrong) as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.wrong,
        report.attempted
    );
    let selected = match report.select(if trace { PER_LAYER } else { END_TO_END }) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", json_line(&report, &selected));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} wrong answers, {} failed operations",
            report.wrong, report.failed
        );
        ExitCode::from(1)
    }
}

//! Shared utilities for the benchmark harness.
//!
//! Each binary in `src/bin/` regenerates one table/figure-shaped result of
//! the paper (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
//! for recorded outcomes). This library provides the common machinery:
//! timing, table formatting, workload/query sampling, scheme-flavor
//! enumeration mirroring the rows of Table 1, and the [`report`] writer
//! behind the `BENCH_*.json` files of `perf_report` and `ftc-loadgen`.

pub mod report;

use ftc_core::{FtcScheme, Params, ThresholdPolicy};
use ftc_graph::{generators, Graph};
use std::time::{Duration, Instant};

/// The scheme flavors whose measured rows reproduce Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// Deterministic ε-net hierarchy (this paper, near-linear row).
    DetEpsNet,
    /// Deterministic greedy hierarchy (this paper, poly-time row — with
    /// the DESIGN.md §6 substitution).
    DetGreedy,
    /// Randomized halving hierarchy, full support (this paper, third row).
    RandFull,
}

impl Flavor {
    /// Human-readable row label.
    pub fn label(self) -> &'static str {
        match self {
            Flavor::DetEpsNet => "det-epsnet (Thm1, near-linear)",
            Flavor::DetGreedy => "det-greedy (Thm1, poly-time)",
            Flavor::RandFull => "rand-full  (Thm1, randomized)",
        }
    }

    /// Scheme parameters for this flavor at fault budget `f`.
    pub fn params(self, f: usize) -> Params {
        match self {
            Flavor::DetEpsNet => Params::deterministic(f),
            Flavor::DetGreedy => Params::deterministic_poly(f),
            Flavor::RandFull => Params::randomized(f, 0xF7C0 + f as u64),
        }
    }

    /// All flavors.
    pub fn all() -> [Flavor; 3] {
        [Flavor::DetEpsNet, Flavor::DetGreedy, Flavor::RandFull]
    }
}

/// Builds a flavor with a calibrated threshold (for scales where the
/// paper constants are prohibitive).
pub fn calibrated_params(flavor: Flavor, f: usize, k: usize) -> Params {
    flavor.params(f).with_threshold(ThresholdPolicy::Fixed(k))
}

/// A standard benchmark topology: connected random graph with `m ≈ 2n`.
pub fn standard_graph(n: usize, seed: u64) -> Graph {
    generators::random_connected(n, n.min(n * (n - 1) / 2 - (n - 1)), seed)
}

/// Median wall-time of `iters` runs of `f`.
pub fn median_time<F: FnMut()>(iters: usize, mut f: F) -> Duration {
    assert!(iters > 0);
    let mut samples: Vec<Duration> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Wall-time of one run of `f`, returning its output.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Samples `count` (s, t) query pairs with `s ≠ t`.
pub fn sample_pairs(n: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..count)
        .map(|_| loop {
            let s = (next() % n as u64) as usize;
            let t = (next() % n as u64) as usize;
            if s != t {
                break (s, t);
            }
        })
        .collect()
}

/// Builds a scheme and returns it with the build duration.
pub fn build_timed(g: &Graph, params: &Params) -> (FtcScheme, Duration) {
    let (s, d) = timed(|| FtcScheme::build(g, params).expect("build"));
    (s, d)
}

/// Fits the growth exponent of `y ~ x^e` from the first and last sample of
/// a series (a crude but robust shape check for the harness output).
pub fn fit_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    assert!(xs.len() >= 2 && xs.len() == ys.len());
    let (x0, x1) = (xs[0], xs[xs.len() - 1]);
    let (y0, y1) = (ys[0], ys[ys.len() - 1]);
    (y1 / y0).ln() / (x1 / x0).ln()
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style header with separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flavors_round_trip() {
        for fl in Flavor::all() {
            let p = fl.params(2);
            assert_eq!(p.f, 2);
            assert!(!fl.label().is_empty());
            let c = calibrated_params(fl, 2, 32);
            assert_eq!(c.threshold, ThresholdPolicy::Fixed(32));
        }
    }

    #[test]
    fn pair_sampling_avoids_self_pairs() {
        for (s, t) in sample_pairs(10, 200, 7) {
            assert_ne!(s, t);
            assert!(s < 10 && t < 10);
        }
    }

    #[test]
    fn exponent_fit_recovers_squares() {
        let xs = [2.0, 4.0, 8.0];
        let ys = [4.0, 16.0, 64.0];
        assert!((fit_exponent(&xs, &ys) - 2.0).abs() < 1e-9);
    }
}

//! Metrics, their names and units, and the result line.

/// Every end-to-end metric: name and unit. A run with tracing off
/// reports exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("req_p50_us", "us"),
    ("req_p90_us", "us"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("updates_per_s", "1/s"),
    ("archive_mb", "MB"),
];

/// Every per-layer metric: name and unit. A traced run reports exactly
/// these.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("build.tree_ms", "ms"),
    ("build.auxgraph_ms", "ms"),
    ("build.hierarchy_ms", "ms"),
    ("build.store_ms", "ms"),
    ("build.payload_ms", "ms"),
    ("compress.checksum_ms", "ms"),
    ("core.write_ms", "ms"),
    ("core.open_ms", "ms"),
    ("core.session_us.p50", "us"),
    ("core.session_us.p99", "us"),
    ("core.session_us.max", "us"),
    ("core.session_slow_frac", "ratio"),
    ("core.connected_ns", "ns"),
    ("serve.session_us.p50", "us"),
    ("serve.session_us.p99", "us"),
    ("serve.answer_us.p50", "us"),
    ("serve.swap_ms", "ms"),
    ("net.encode_request_us", "us"),
    ("net.parse_us", "us"),
    ("net.encode_response_us", "us"),
    ("net.decode_response_us", "us"),
    ("net.served_us.p50", "us"),
    ("net.served_us.p99", "us"),
    ("net.transport_us", "us"),
    ("net.coalesce.requests", "count"),
    ("net.coalesce.coalesced", "count"),
    ("net.coalesce.batches", "count"),
    ("net.coalesce.shed", "count"),
    ("net.client.retries", "count"),
    ("dyn.op_ms.p50", "ms"),
    ("dyn.op_ms.max", "ms"),
    ("dyn.sync_ms", "ms"),
    ("dyn.commit_ms.p50", "ms"),
    ("dyn.checkpoint_ms", "ms"),
    ("dyn.incremental_ops", "count"),
    ("dyn.structural_rebuilds", "count"),
    ("dyn.slot_rebuilds", "count"),
    ("dyn.journal_bytes_per_op", "B/op"),
    ("trace.req_p50_us", "us"),
    ("trace.unattributed_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("workload.false_frac", "ratio"),
    ("workload.structural_frac", "ratio"),
    ("workload.archive_bytes", "bytes"),
    ("process.peak_rss_mb", "MB"),
];

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value summarises (timings only).
    pub samples: Option<usize>,
}

/// Everything one run measured, plus what it stamps about itself.
#[derive(Default)]
pub struct Report {
    /// Context lines: core count, profile, filesystem, formats.
    pub stamp: Vec<(&'static str, String)>,
    /// Measured metrics, in measurement order.
    pub metrics: Vec<Metric>,
    /// Metric-name prefixes of layers this workload does not run; their
    /// per-layer metrics read 0.
    pub absent: Vec<&'static str>,
    /// Operations attempted (requests and updates).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Answers that disagreed with the oracle.
    pub wrong: u64,
}

impl Report {
    /// Records a plain value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            value,
            samples: None,
        });
    }

    /// Records a value summarising `samples` samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples: Some(samples),
        });
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every answer was right and no operation failed.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.failed == 0
    }

    /// The values of `names`, absent layers filled with 0; `Err` names a
    /// metric that was neither measured nor absent, or is not finite.
    pub fn select(
        &self,
        names: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        names
            .iter()
            .map(|&(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if self.absent.iter().any(|p| name.starts_with(p)) => 0.0,
                    None => return Err(format!("metric {name} was not measured")),
                };
                if !value.is_finite() {
                    return Err(format!("metric {name} is not finite: {value}"));
                }
                Ok((name, value, unit))
            })
            .collect()
    }
}

/// The result line: one JSON object with the run's verdict and metrics.
pub fn json_line(report: &Report, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed + report.wrong,
        body.join(", ")
    )
}

/// Nearest-rank quantile of `xs` (sorted in place); NaN when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Median of `xs`; NaN when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn select_fills_absent_layers_and_rejects_gaps() {
        let mut r = Report {
            absent: vec!["dyn."],
            ..Report::default()
        };
        r.set("a", 1.5);
        let got = r.select(&[("a", "s"), ("dyn.x", "ms")]).unwrap();
        assert_eq!(got, vec![("a", 1.5, "s"), ("dyn.x", 0.0, "ms")]);
        assert!(r.select(&[("b", "s")]).is_err());
        let line = json_line(&r, &got);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"a\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}

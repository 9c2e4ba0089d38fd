//! Spans around the calls the benchmark makes into each layer.
//!
//! A span records a name, a start and an end (ns since the run's epoch),
//! its parent span and a request ID. Each thread records into its own
//! [`Tracer`]; the tracers are merged when the run ends, analysed in
//! memory and written out as one tab-separated file. A disabled tracer
//! records nothing, so the untraced run pays one branch per span.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; [`Tracer::NONE`] when nothing was recorded.
pub type SpanId = usize;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: SpanId,
    req: u64,
}

/// One thread's span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// The parent of a root span, and the ID of a span not recorded.
    pub const NONE: SpanId = usize::MAX;

    /// A recorder timing against `epoch`; records only when `on`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's epoch and switch.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return Tracer::NONE;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if id != Tracer::NONE {
            self.spans[id].end = self.now();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, req, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Appends another thread's spans.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != Tracer::NONE {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations of every span named `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Self times of every span named `name`, in ns: its duration minus
    /// the part of it that its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != Tracer::NONE {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let mut kids = children.remove(&id).unwrap_or_default();
                kids.sort_unstable();
                // Union of the child intervals, clipped to the parent.
                let (mut covered, mut reach) = (0u64, s.start);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start - covered) as f64
            })
            .collect()
    }

    /// Writes every span as `req name start_ns end_ns parent` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "req\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = if s.parent == Tracer::NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start, s.end, parent
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            Span {
                name: "p",
                start: 0,
                end: 100,
                parent: Tracer::NONE,
                req: 1,
            },
            Span {
                name: "a",
                start: 10,
                end: 40,
                parent: 0,
                req: 1,
            },
            Span {
                name: "b",
                start: 30,
                end: 60,
                parent: 0,
                req: 1,
            },
        ];
        assert_eq!(t.self_times("p"), vec![50.0]);
        assert_eq!(t.self_times("a"), vec![30.0]);
        assert_eq!(t.durations("b"), vec![30.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("x", 0, Tracer::NONE);
        t.close(id);
        assert!(t.durations("x").is_empty());
    }
}

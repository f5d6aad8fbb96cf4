//! In-memory spans recorded around calls into the crates' public functions.
//!
//! Each span has a name, start and end (ns since the tracer's origin), the
//! index of its parent span and a request id. Nothing is written until
//! [`Tracer::write_jsonl`] runs at the end of the traced run. Self time is
//! a span's duration minus the part of it covered by its children.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`. The span's index is reserved
    /// before `f` runs, so spans `f` records can name it as their parent.
    pub fn span<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(&mut Tracer, usize) -> R,
    ) -> R {
        let start = Instant::now();
        let idx = self.record(name, start, start, parent, request);
        let out = f(self, idx);
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Wall time of recording every span of this tracer again into a fresh
    /// one: the direct cost of tracing the run, without the noise of
    /// comparing it against an untraced run.
    pub fn record_cost(&self) -> Duration {
        let at = |ns: u64| self.origin + Duration::from_nanos(ns);
        let mut again = Tracer::new(self.origin);
        let start = Instant::now();
        for s in &self.spans {
            again.record(s.name.as_str(), at(s.start_ns), at(s.end_ns), s.parent, s.request);
        }
        let cost = start.elapsed();
        std::hint::black_box(&again.spans);
        cost
    }

    /// Self time per span, in ns: duration minus the union of the
    /// children's intervals clipped to the parent.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut cursor) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self time summed per span name, in ms.
    pub fn self_ms_by_name(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name.clone()).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Durations of every span with this name, in ms, keyed by request id.
    pub fn durations_ms(&self, name: &str) -> Vec<(u64, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.request, s.dur_ns() as f64 / 1e6))
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &str) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut t = Tracer::new(origin);
        let parent = t.record("parent", at(0), at(100), None, 0);
        // Overlapping children cover 10..50; a child past the end is clipped.
        t.record("child", at(10), at(40), Some(parent), 0);
        t.record("child", at(30), at(50), Some(parent), 0);
        t.record("child", at(90), at(120), Some(parent), 0);
        let by_name = t.self_ms_by_name();
        assert!((by_name["parent"] - 50.0).abs() < 1e-6, "{by_name:?}");
        assert!((by_name["child"] - 80.0).abs() < 1e-6, "{by_name:?}");
    }
}

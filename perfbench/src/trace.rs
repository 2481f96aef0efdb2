//! In-memory span recording for the traced run.
//!
//! The benchmark records spans from its own code, one around each call it
//! makes into a layer's public functions; nothing inside the program under
//! test is instrumented. Spans live in memory and are written out when the
//! run ends. A span's self time is its duration minus the durations of its
//! direct children (children are sequential calls made from inside the
//! parent's interval, so they never overlap); an operation's unattributed
//! share is the self time of its root span over the root's duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn us_at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_owned(),
            op,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.now_us();
        r
    }

    /// Adds a closed span measured elsewhere (another process, a server
    /// response) and returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        start_us: f64,
        end_us: f64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            op,
            parent,
            start_us,
            end_us,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its direct children's.
    fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us();
            }
        }
        own
    }

    /// Per span name: `(count, total duration µs, total self time µs)`.
    pub fn summary(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let own = self.self_us();
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.dur_us();
            e.2 += own[i];
        }
        out
    }

    /// Sets `op.<name>.self_us`, the mean self time of the root spans named
    /// `name`, and `op.<name>.unattributed_share`, their summed self time
    /// over their summed duration. Sets nothing when the run had no such
    /// operation, so the result reports it missing.
    pub fn report_op(&self, out: &mut crate::report::Outcome, name: &str) {
        if let Some(&(n, dur, own)) = self.summary().get(name) {
            if dur > 0.0 {
                out.set(&format!("op.{name}.self_us"), own / n as f64);
                out.set(&format!("op.{name}.unattributed_share"), own / dur);
            }
        }
    }

    /// The cost of recording one span, in microseconds: the median over
    /// batches of spans around an empty call, in a scratch tracer.
    pub fn span_cost_us() -> f64 {
        const SPANS: u64 = 20_000;
        let per_batch: Vec<f64> = (0..5)
            .map(|_| {
                let mut t = Tracer::new();
                let t0 = Instant::now();
                for i in 0..SPANS {
                    t.span("calibrate", i, |_| ());
                }
                std::hint::black_box(t.spans.len());
                t0.elapsed().as_secs_f64() * 1e6 / SPANS as f64
            })
            .collect();
        crate::report::median(&per_batch)
    }

    /// Sets the tracing overhead from the span count and the measured cost
    /// of one span: `trace.overhead_us` is the cost of the spans recorded
    /// per operation (root span), `trace.overhead_share` the cost of all
    /// spans over the summed duration of the operations.
    pub fn report_overhead(&self, out: &mut crate::report::Outcome) {
        let cost = Self::span_cost_us() * self.spans.len() as f64;
        let roots: Vec<&Span> = self.spans.iter().filter(|s| s.parent.is_none()).collect();
        let dur: f64 = roots.iter().map(|s| s.dur_us()).sum();
        if !roots.is_empty() && dur > 0.0 {
            out.set("trace.overhead_us", cost / roots.len() as f64);
            out.set("trace.overhead_share", cost / dur);
        }
    }

    /// The spans as JSON lines: name, op, parent index, start, end, self.
    pub fn to_jsonl(&self) -> String {
        let own = self.self_us();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1}}}",
                s.name,
                s.op,
                s.start_us,
                s.end_us,
                own[i]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let root = t.record("op", 1, None, 0.0, 100.0);
        let child = t.record("a", 1, Some(root), 10.0, 40.0);
        t.record("b", 1, Some(child), 15.0, 25.0);
        t.record("c", 1, Some(root), 50.0, 70.0);
        let s = t.summary();
        assert_eq!(s["op"], (1, 100.0, 50.0));
        assert_eq!(s["a"], (1, 30.0, 20.0));
        let mut out = crate::report::Outcome::default();
        t.report_op(&mut out, "op");
        t.report_op(&mut out, "missing");
        assert_eq!(out.metrics["op.op.self_us"], 50.0);
        assert_eq!(out.metrics["op.op.unattributed_share"], 0.5);
        assert!(!out.metrics.contains_key("op.missing.self_us"));
        t.report_overhead(&mut out);
        let per_op = out.metrics["trace.overhead_us"];
        assert!(per_op > 0.0 && per_op < 1e3);
        assert!((out.metrics["trace.overhead_share"] - per_op / 100.0).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_link_parents() {
        let mut t = Tracer::new();
        t.span("outer", 7, |t| t.span("inner", 7, |_| ()));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].dur_us() >= t.spans()[1].dur_us());
    }
}

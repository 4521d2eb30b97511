//! In-memory span recorder for the traced pass. Spans are recorded from the
//! benchmark's own files, around the calls into each layer's public
//! functions; nothing inside `crates/` is instrumented. They are held in
//! memory while a run measures and written out when it ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One span: a layer boundary crossing, the span that caused it, and the
/// request both belong to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

/// Upper bound on retained spans; beyond it new spans are counted, not kept,
/// so a long window cannot grow the benchmark's own memory without bound.
const MAX_SPANS: usize = 200_000;

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new(), dropped: 0 }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id for children to name as parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u64,
    ) -> Option<u32> {
        self.record_ns(name, self.ns(start), self.ns(end), parent, request)
    }

    pub fn record_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        request: u64,
    ) -> Option<u32> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span { name, start_ns, end_ns: end_ns.max(start_ns), parent, request });
        Some((self.spans.len() - 1) as u32)
    }

    /// Fold another thread's spans in, re-basing their parent ids.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        for mut span in other.spans {
            if self.spans.len() >= MAX_SPANS {
                self.dropped += 1;
                continue;
            }
            span.parent = span.parent.map(|p| p + base);
            self.spans.push(span);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: how many, total duration, and total *self* time — a
    /// span's duration minus the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let start = span.start_ns.max(p.start_ns);
                let end = span.end_ns.min(p.end_ns);
                covered[parent as usize] += end.saturating_sub(start);
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(covered);
        }
        totals
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("request", Json::Num(s.request as f64)),
                ])
            })
            .collect();
        let summary = self
            .self_times()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("count", Json::Num(t.count as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("self_ns", Json::Num(t.self_ns as f64)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("spans_dropped", Json::Num(self.dropped as f64)),
            ("by_name", Json::Obj(summary)),
            ("spans", Json::Arr(spans)),
        ])
    }

    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(workload).pretty())
    }
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record_ns("request", 0, 1000, None, 1);
        t.record_ns("kernel", 100, 400, root, 1);
        // A child overhanging its parent only covers the overlap.
        t.record_ns("reply", 900, 1200, root, 1);
        let totals = t.self_times();
        assert_eq!(totals["request"], SpanTotals { count: 1, total_ns: 1000, self_ns: 600 });
        assert_eq!(totals["kernel"].self_ns, 300);
    }

    #[test]
    fn merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.record_ns("a", 0, 10, None, 0);
        let mut b = Tracer::new(epoch);
        let root = b.record_ns("b", 0, 10, None, 1);
        b.record_ns("b.child", 2, 4, root, 1);
        a.merge(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
        let json = a.to_json("w");
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 3);
    }
}

//! Spans recorded from the benchmark's own files, around its calls into the
//! program. Kept in memory, written out when the run ends.
//!
//! The tree of a workload run is `workload > round > arm > op`, with
//! `serve.submit` / `serve.wait` or `net.submit` / `net.wait` under served
//! ops, and `probe > <layer call>` for the layer ladder. A disabled tracer
//! records nothing, which is how the end-to-end run is measured.

use crate::json::Json;
use std::time::Instant;

pub type SpanId = u32;
/// Returned by a disabled tracer; never indexes the span list.
const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Shared by every span of one operation; 0 outside operations.
    pub op_id: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    /// Set between rounds by the traced run, which alternates recorded and
    /// unrecorded rounds to measure what recording costs.
    paused: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            paused: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded right now.
    pub fn recording(&self) -> bool {
        self.enabled && !self.paused
    }

    /// Pauses or resumes recording; spans already open stay open.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, op_id: u64) -> SpanId {
        if !self.recording() {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Records a finished span from two instants the caller took anyway —
    /// for operations in flight together, whose spans overlap and so cannot
    /// use the open/close stack. Its parent is the innermost open span
    /// unless `parent` names one.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        op_id: u64,
    ) -> SpanId {
        if !self.recording() {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent
                .filter(|p| *p != NO_SPAN)
                .or(self.open.last().copied()),
            op_id,
        });
        id
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part of it that its
    /// children cover (overlapping children are not counted twice).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (s, e) in kids {
                    let (s, e) = (s.max(reach), e.min(span.end_ns));
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// Per span name: count, total duration and total self time, largest
    /// duration first.
    pub fn totals_by_name(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut by: std::collections::BTreeMap<&'static str, (u64, u64, u64)> = Default::default();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = by.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_ns;
        }
        let mut rows: Vec<_> = by.into_iter().map(|(n, (c, d, s))| (n, c, d, s)).collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.2));
        rows
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::U64(s.start_ns)),
                        ("end_ns", Json::U64(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(u64::from(p))),
                        ),
                        ("op_id", Json::U64(s.op_id)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.open("workload", 0);
        let now = Instant::now();
        t.record("op", now, now, None, 1);
        t.close(a);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn a_paused_tracer_skips_spans_but_keeps_its_stack() {
        let mut t = Tracer::new(true);
        let w = t.open("workload", 0);
        t.set_paused(true);
        let r = t.open("round", 0);
        t.close(r);
        t.set_paused(false);
        let r = t.open("round", 0);
        t.close(r);
        t.close(w);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(w));
    }

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let base = t.origin;
        let at = |us: u64| base + Duration::from_micros(us);
        let root = t.record("round", at(0), at(100), None, 0);
        t.record("op", at(10), at(40), Some(root), 1);
        t.record("op", at(30), at(60), Some(root), 2); // overlaps the first
        t.record("op", at(80), at(120), Some(root), 3); // runs past the parent
                                                        // Children cover [10,60) and [80,100): 70 of 100 µs.
        assert_eq!(t.self_times_ns()[root as usize], 30_000);
        assert_eq!(t.totals_by_name()[0], ("op", 3, 100_000, 100_000));
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.spans()[2].op_id, 2);
    }

    #[test]
    fn open_close_builds_the_parent_chain() {
        let mut t = Tracer::new(true);
        let w = t.open("workload", 0);
        let r = t.open("round", 0);
        let now = Instant::now();
        let op = t.record("op", now, now, None, 7);
        t.close(r);
        t.close(w);
        assert_eq!(t.spans()[r as usize].parent, Some(w));
        assert_eq!(t.spans()[op as usize].parent, Some(r));
        assert!(t.to_json().render().contains("\"op_id\":7"));
    }
}

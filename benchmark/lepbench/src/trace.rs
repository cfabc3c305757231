//! In-memory spans around the calls the benchmark makes into each
//! layer, and the self-time arithmetic over them.
//!
//! Spans are recorded from the benchmark's side of every call (the
//! program itself is not instrumented by this change). Each caller
//! thread owns a [`SpanBuf`]; buffers are merged and dumped when the
//! run ends. With tracing off a buffer records nothing, so the
//! end-to-end run pays one predictable branch per call.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (caller index in the high 32 bits).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Request identifier shared by every span of one request.
    pub request: u64,
    /// Layer (crate) name the call went into, or `harness`.
    pub layer: &'static str,
    /// Operation name.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// A span that has been opened and not yet closed.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    request: u64,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
}

/// One caller thread's span buffer.
#[derive(Debug)]
pub struct SpanBuf {
    on: bool,
    epoch: Instant,
    caller: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// Buffer for caller `caller`; records only when `on`.
    pub fn new(on: bool, epoch: Instant, caller: usize) -> SpanBuf {
        SpanBuf {
            on,
            epoch,
            caller: caller as u64,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Open a span now.
    pub fn open(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<&Open>,
        request: u64,
    ) -> Open {
        let id = (self.caller << 32) | self.next;
        if self.on {
            self.next += 1;
        }
        Open {
            id,
            parent: parent.map(|p| p.id),
            request,
            layer,
            name,
            start_ns: if self.on { self.now() } else { 0 },
        }
    }

    /// Close `open` now.
    pub fn close(&mut self, open: Open) {
        if self.on {
            let end_ns = self.now();
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                request: open.request,
                layer: open.layer,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Take the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per layer: each span's duration minus the part of its
/// interval that its child spans cover (overlapping children are
/// counted once).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_within(kids, s.start_ns, s.end_ns));
        *out.entry(s.layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// The trace file body: every span, oldest first.
pub fn dump(spans: &[Span]) -> Json {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.id));
    Json::Arr(
        ordered
            .into_iter()
            .map(|s| {
                Json::obj()
                    .with("id", s.id)
                    .with("parent", s.parent.map_or(Json::Int(-1), Json::from))
                    .with("request", s.request)
                    .with("layer", s.layer)
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            layer,
            name: "op",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "harness", 0, 100),
            // Two overlapping children cover 10..60 once, not twice.
            span(2, Some(1), "server", 10, 40),
            span(3, Some(1), "server", 30, 60),
            // A grandchild comes out of its own parent only.
            span(4, Some(2), "core", 15, 25),
            // A child leaking past its parent is clipped.
            span(5, Some(1), "fleet", 90, 130),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["harness"], 100 - 50 - 10);
        assert_eq!(t["server"], (30 - 10) + 30);
        assert_eq!(t["core"], 10);
        assert_eq!(t["fleet"], 40);
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut off = SpanBuf::new(false, Instant::now(), 0);
        let o = off.open("core", "compress", None, 7);
        off.close(o);
        assert!(off.into_spans().is_empty());

        let mut on = SpanBuf::new(true, Instant::now(), 2);
        let root = on.open("harness", "round", None, 7);
        let child = on.open("core", "compress", Some(&root), 7);
        on.close(child);
        on.close(root);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[0].id >> 32, 2);
        assert!(spans[1].end_ns >= spans[0].end_ns);
    }
}

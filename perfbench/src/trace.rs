//! In-memory spans recorded around calls into the library's layers, and the
//! self-time arithmetic over them.
//!
//! A span has a name (the layer), a start and end on one clock, the span
//! that caused it and a request id.  Spans are kept in memory and read out
//! when the traced run ends.  A span's self time is its duration minus the
//! part of its interval that its direct children cover; children running
//! concurrently (the sharded null) or overlapping each other are counted
//! once, and a child reaching past its parent is clipped to the parent.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.  Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// A thread-safe span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            enabled: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing: the same traced code runs untraced,
    /// which gives the baseline the tracing overhead is measured against.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned: a traced call panicked")
    }

    /// Records a span whose interval is already known and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: f64,
        end: f64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        spans.len() - 1
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        self.record(name, parent, req, self.now(), f64::NAN)
    }

    pub fn close(&self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        self.lock()[id].end = end;
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f(id);
        self.close(id);
        out
    }

    /// Copies the subtree rooted at `root` so that it starts at `at` under
    /// `parent`.  The serve workloads measure one request through three
    /// entry points one after another; grafting the in-process passes into
    /// the TCP round trip nests them, so transport, protocol and engine self
    /// time come out by difference.
    pub fn graft(&self, root: usize, parent: Option<usize>, at: f64) -> usize {
        let mut spans = self.lock();
        let shift = at - spans[root].start;
        let mut order = vec![root];
        let mut i = 0;
        while i < order.len() {
            let id = order[i];
            order.extend((0..spans.len()).filter(|&c| spans[c].parent == Some(id)));
            i += 1;
        }
        let mut new_ids = BTreeMap::new();
        for &old in &order {
            let span = &spans[old];
            let new_parent = match span.parent {
                _ if old == root => parent,
                Some(p) => Some(new_ids[&p]),
                None => None,
            };
            let copy = Span {
                name: span.name,
                start: span.start + shift,
                end: span.end + shift,
                parent: new_parent,
                req: span.req,
            };
            spans.push(copy);
            new_ids.insert(old, spans.len() - 1);
        }
        new_ids[&root]
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.retain(|&(s, e)| e > lo && s < hi);
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, indexed like `spans`.  Each span is first
/// clipped to its parent's (clipped) interval, so the self times of a tree
/// without overlapping siblings add up to its root's duration exactly.
/// Parents must precede their children in `spans`, as [`Tracer`] records
/// them.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut clipped: Vec<(f64, f64)> = Vec::with_capacity(spans.len());
    for span in spans {
        let (mut start, mut end) = (span.start, span.end);
        if let Some(p) = span.parent {
            let (lo, hi) = clipped[p];
            start = start.clamp(lo, hi);
            end = end.clamp(start, hi);
        }
        clipped.push((start, end.max(start)));
    }
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for (span, &interval) in spans.iter().zip(&clipped) {
        if let Some(p) = span.parent {
            children[p].push(interval);
        }
    }
    clipped
        .iter()
        .zip(children)
        .map(|(&(start, end), kids)| (end - start) - covered(kids, start, end))
        .collect()
}

/// Summed self time per span name over the span ids `keep` selects.
pub fn self_by_name(spans: &[Span], keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (id, own) in self_times(spans).into_iter().enumerate() {
        if keep(id) {
            *out.entry(spans[id].name).or_insert(0.0) += own;
        }
    }
    out
}

/// Whether span `id` lies in the subtree rooted at `root`.
pub fn descends_from(spans: &[Span], mut id: usize, root: usize) -> bool {
    loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 2.0, 3.0, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![6.0, 3.0, 1.0]);
        // Self times of a tree always add up to the root's duration.
        assert_eq!(own.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_siblings_count_their_union() {
        // Two concurrent children (the local and the remote executor) cover
        // 1..7 together, not 4 + 4.
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("local", 1.0, 5.0, Some(0)),
            span("remote", 3.0, 7.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 4.0);
        assert_eq!(own[1], 4.0);
        assert_eq!(own[2], 4.0);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("root", 0.0, 4.0, None),
            span("late", 3.0, 9.0, Some(0)),
            span("outside", 5.0, 6.0, Some(0)),
            span("grandchild", 2.0, 8.0, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![3.0, 0.0, 0.0, 1.0]);
        assert_eq!(own.iter().sum::<f64>(), 4.0);
    }

    #[test]
    fn graft_shifts_a_subtree_under_a_new_parent() {
        let tracer = Tracer::default();
        let tcp = tracer.record("server.transport", None, 1, 100.0, 110.0);
        let proto = tracer.record("server.proto", None, 1, 0.0, 6.0);
        tracer.record("core.engine", Some(proto), 1, 1.0, 3.0);
        let copy = tracer.graft(proto, Some(tcp), 100.0);
        let spans = tracer.spans();
        assert_eq!(spans[copy].start, 100.0);
        assert_eq!(spans[copy].parent, Some(tcp));
        let engine = spans.len() - 1;
        assert_eq!((spans[engine].start, spans[engine].end), (101.0, 103.0));
        assert!(descends_from(&spans, engine, tcp));
        let own = self_times(&spans);
        assert_eq!(own[tcp], 4.0);
        assert_eq!(own[copy], 4.0);
        assert_eq!(own[engine], 2.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let value = tracer.span("run", None, 0, |root| {
            tracer.span("core.engine", Some(root), 1, |_| 7)
        });
        assert_eq!(value, 7);
        tracer.record("core.decision", None, 1, 0.0, 1.0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn self_time_sums_by_layer() {
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("core.decision", 0.0, 1.0, Some(0)),
            span("core.decision", 2.0, 4.0, Some(0)),
        ];
        let by = self_by_name(&spans, |_| true);
        assert_eq!(self_by_name(&spans, |id| id != 0).get("run"), None);
        assert_eq!(by["core.decision"], 3.0);
        assert_eq!(by["run"], 7.0);
    }
}

//! Spans recorded around calls into the program's layers.
//!
//! A span holds its name, start, end, parent and request id.  Spans stay
//! in memory and are written once, when the run ends.  A layer's self
//! time is its span's duration minus the part of that interval its child
//! spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span (times in nanoseconds since the tracer's epoch).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `translate`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (or unit) the span belongs to.
    pub request: u64,
}

/// Records nested spans on one thread.  A disabled tracer runs the same
/// closures and records nothing, which is how the tracing overhead is
/// measured.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name` for `request`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect()
    }
}

/// Self time (ns) of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals: `name → (spans, total ms, self ms)`.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = table.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end - s.start) as f64 / 1e6;
        e.2 += own as f64 / 1e6;
    }
    table
}

/// The spans as JSON lines (name, start/end ns, parent index, request).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}\n",
            s.name, s.start, s.end, s.request
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, None),
            // Two overlapping children cover 10..40; a third covers 60..70.
            span("execute", 10, 30, Some(0)),
            span("digest", 20, 40, Some(0)),
            span("prepare", 60, 70, Some(0)),
            // A grandchild counts against its parent only.
            span("inner", 12, 18, Some(1)),
            // A child running past its parent is clipped.
            span("late", 95, 120, Some(0)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 30 - 10 - 5, 14, 20, 10, 6, 25]
        );
        let table = layer_table(&spans);
        assert_eq!(table["request"].0, 1);
        assert!((table["request"].2 - 55.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn the_tracer_nests_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 3));
        assert_eq!(v, 3);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].start <= t.spans()[1].start && t.spans()[1].end <= t.spans()[0].end);
        let own = self_times(t.spans());
        assert!(own[0] <= t.spans()[0].end - t.spans()[0].start);
        assert!(to_jsonl(t.spans()).lines().count() == 2);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}

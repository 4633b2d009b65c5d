//! In-memory spans for the traced run. The benchmark opens a span
//! around each call it makes into a layer's public functions; spans are
//! kept in memory and written out when the run ends. A span's self time
//! is its duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use harness::Stopwatch;

/// One timed call: `start` and `end` are seconds since the tracer began.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `simnet.replay`.
    pub name: &'static str,
    /// Start, seconds since the tracer began.
    pub start: f64,
    /// End; NaN while the span is open (or if its call panicked).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn closed(&self) -> bool {
        !self.end.is_nan()
    }
}

/// Records spans from any thread.
pub struct Tracer {
    clock: Stopwatch,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn start() -> Tracer {
        Tracer {
            clock: Stopwatch::start(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's index so it can parent further spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                start: self.clock.elapsed_secs(),
                end: f64::NAN,
                parent,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.clock.elapsed_secs();
        self.spans.lock().expect("span list poisoned")[id].end = end;
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Per-name totals over closed spans: (count, total seconds, self seconds).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if !s.closed() {
            continue;
        }
        let covered: Vec<(f64, f64)> = children[i]
            .iter()
            .map(|&c| &spans[c])
            .filter(|c| c.closed())
            .map(|c| (c.start.max(s.start), c.end.min(s.end)))
            .collect();
        let dur = s.end - s.start;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - union_len(covered);
    }
    out
}

/// Total length of the union of intervals.
fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.retain(|(a, b)| b > a);
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// Spans as a JSON document (one object per span).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"schema\": \"perfbench-spans-v1\", \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let end = if s.closed() {
            s.end.to_string()
        } else {
            "null".into()
        };
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {end}, \"parent\": {parent}}}{comma}",
            s.name, s.start
        );
    }
    out.push_str("]}\n");
    out
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
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // cell [0, 10) with children [1, 4), [3, 6) (overlapping) and
        // [8, 12) (clipped to the parent at 10); grandchild [1, 2).
        let spans = vec![
            span("cell", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            span("a", 8.0, 12.0, Some(0)),
            span("leaf", 1.0, 2.0, Some(1)),
        ];
        let t = by_name(&spans);
        // Children cover [1, 6) and [8, 10): 7 s of 10.
        assert_eq!(t["cell"], (1, 10.0, 3.0));
        // a: [1, 4) minus its leaf [1, 2) = 2, plus [8, 12) = 4.
        assert_eq!(t["a"], (2, 7.0, 6.0));
        assert_eq!(t["b"], (1, 3.0, 3.0));
        assert_eq!(t["leaf"], (1, 1.0, 1.0));
    }

    #[test]
    fn open_spans_are_ignored() {
        let spans = vec![
            span("cell", 0.0, 4.0, None),
            span("panicked", 1.0, f64::NAN, Some(0)),
        ];
        let t = by_name(&spans);
        assert_eq!(t["cell"], (1, 4.0, 4.0));
        assert!(!t.contains_key("panicked"));
    }

    #[test]
    fn tracer_nests_spans() {
        let tr = Tracer::start();
        let v = tr.span("outer", None, |id| tr.span("inner", Some(id), |_| 7));
        assert_eq!(v, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(to_json(&spans).contains("\"name\": \"inner\""));
    }
}

//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! around the calls into the crates' public functions — kept in memory, and
//! written out once when the run ends. A span's *self time* is its duration
//! minus the part of that interval its children cover (children on
//! different threads may overlap, so coverage is an interval union).

use avgi_faultsim::json::escape;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; the root spans have no parent.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one trial (one campaign, for the grid) share this.
    pub trial_id: u64,
}

/// Collects spans from any thread. A disabled tracer records nothing, so the
/// same workload code serves the untraced side of an A/B comparison.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Folded {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, trial_id: u64) -> SpanId {
        let Some(spans) = &self.spans else { return 0 };
        let start_ns = self.now_ns();
        let mut spans = spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trial_id,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: SpanId) {
        let Some(spans) = &self.spans else { return };
        let end_ns = self.now_ns();
        spans.lock().expect("tracer lock poisoned")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        trial_id: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let id = self.begin(name, parent, trial_id);
        let r = f(self.spans.is_some().then_some(id));
        self.end(id);
        r
    }

    pub fn snapshot(&self) -> Vec<Span> {
        match &self.spans {
            Some(s) => s.lock().expect("tracer lock poisoned").clone(),
            None => Vec::new(),
        }
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut total, mut cursor) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Folds spans into per-name totals and self times.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Folded> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Folded> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let total = s.end_ns - s.start_ns;
        let f = out.entry(s.name).or_default();
        f.count += 1;
        f.total_ns += total;
        f.self_ns += total - covered(s.start_ns, s.end_ns, kids);
    }
    out
}

/// Share of root-span wall time no child span accounts for.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let folded = fold(spans);
    let roots: std::collections::BTreeSet<&str> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.name)
        .collect();
    let (mut total, mut own) = (0u64, 0u64);
    for name in roots {
        // A name used both as a root and as a child would double count;
        // the workloads keep root names distinct.
        total += folded[name].total_ns;
        own += folded[name].self_ns;
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// Writes `spans` and their fold as one JSON document.
pub fn write_json(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut body = format!("{{\"workload\":\"{}\",\"self_times\":{{", escape(workload));
    for (k, (name, f)) in fold(spans).iter().enumerate() {
        if k > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "\"{}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            escape(name),
            f.count,
            f.total_ns,
            f.self_ns
        ));
    }
    body.push_str("},\"spans\":[");
    for (k, s) in spans.iter().enumerate() {
        if k > 0 {
            body.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        body.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trial_id\":{}}}",
            escape(s.name),
            s.start_ns,
            s.end_ns,
            s.trial_id
        ));
    }
    body.push_str("]}\n");
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            trial_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("trial", 0, 100, None),
            span("chunk", 10, 50, Some(0)),
            span("chunk", 30, 70, Some(0)), // overlaps the first on another thread
            span("inner", 35, 45, Some(2)),
        ];
        let f = fold(&spans);
        assert_eq!(f["trial"].self_ns, 100 - 60);
        assert_eq!(
            f["chunk"],
            Folded {
                count: 2,
                total_ns: 80,
                self_ns: 70
            }
        );
        assert_eq!(f["inner"].self_ns, 10);
        assert!((unattributed_share(&spans) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let seen = t.span("x", None, 0, |id| id);
        assert_eq!(seen, None);
        assert!(t.snapshot().is_empty());
        let t = Tracer::new(true);
        let root = t.span("x", None, 7, |id| {
            t.span("y", id, 7, |_| ());
            id
        });
        let s = t.snapshot();
        assert_eq!(
            (s.len(), root, s[1].parent, s[1].trial_id),
            (2, Some(0), Some(0), 7)
        );
        assert!(s[0].end_ns >= s[1].end_ns);
    }
}

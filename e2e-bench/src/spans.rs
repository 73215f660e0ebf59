//! Benchmark-side spans: kept in memory during the traced run, written
//! as JSONL at the end, and reduced to self time per layer.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use ddpa_obs::JsonValue;

/// Most spans kept in memory; later ones are counted, not stored.
pub const MAX_SPANS: usize = 200_000;

/// One closed span. Times are microseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The request (or replayed job) the span belongs to.
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// The layer a span is charged to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span; close it with [`Spans::end`].
#[must_use]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    request: u64,
    name: &'static str,
    start_us: f64,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// The in-memory span recorder.
pub struct Spans {
    epoch: Instant,
    next_id: u32,
    /// Spans stored before later ones are only counted.
    pub limit: usize,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            next_id: 0,
            limit: MAX_SPANS,
            spans: Vec::new(),
            dropped: 0,
        }
    }
}

impl Spans {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<&Open>) -> Open {
        self.next_id += 1;
        Open {
            id: self.next_id,
            parent: parent.map(Open::id),
            request,
            name,
            start_us: self.now_us(),
        }
    }

    /// Closes `open`, returning its duration in microseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end_us = self.now_us();
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_us: open.start_us,
            end_us,
        };
        let d = span.duration_us();
        if self.spans.len() < self.limit {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
        d
    }

    /// Times `f` under a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<&Open>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, request, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Writes every span as one `{"kind":"span",...}` JSONL line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let meta = JsonValue::Object(vec![
            ("kind".into(), JsonValue::str("meta")),
            ("source".into(), JsonValue::str("ddpa-e2e-bench")),
            ("spans".into(), JsonValue::U64(self.spans.len() as u64)),
            ("dropped".into(), JsonValue::U64(self.dropped)),
        ]);
        writeln!(out, "{meta}")?;
        for s in &self.spans {
            let line = JsonValue::Object(vec![
                ("kind".into(), JsonValue::str("span")),
                ("name".into(), JsonValue::str(s.name)),
                ("id".into(), JsonValue::U64(u64::from(s.id))),
                (
                    "parent".into(),
                    s.parent
                        .map_or(JsonValue::Null, |p| JsonValue::U64(u64::from(p))),
                ),
                ("request".into(), JsonValue::U64(s.request)),
                ("start_us".into(), JsonValue::F64(s.start_us)),
                ("end_us".into(), JsonValue::F64(s.end_us)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Each span's duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let parent = &spans[p];
            let (a, b) = (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.duration_us() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t.x",
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 40.0),
            span(3, Some(1), 30.0, 50.0),  // overlaps 2: union is 10..50
            span(4, Some(2), 15.0, 20.0),  // grandchild: charged to 2 only
            span(5, Some(1), 90.0, 120.0), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans), vec![50.0, 25.0, 20.0, 5.0, 30.0]);
    }

    #[test]
    fn recorder_nests_child_spans_under_parents() {
        let mut spans = Spans::default();
        let root = spans.begin("tcp.query", 7, None);
        spans.time("demand.query", 7, Some(&root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = spans.end(root);
        let self_us = self_times(&spans.spans);
        let (child, parent) = (self_us[0], self_us[1]);
        assert!(child >= 2_000.0);
        assert!((parent + child - total).abs() < 1.0);
        assert_eq!(spans.spans[0].parent, Some(spans.spans[1].id));
        assert!(spans.spans.iter().all(|s| s.request == 7));
    }
}

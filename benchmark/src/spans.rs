//! The traced run's span store: `{id, parent, trace_id, name, start_ns,
//! end_ns}` kept in memory and written as JSON lines when the run ends.
//!
//! The benchmark records spans from outside the program, around its calls
//! into each layer. A wave is walked down the stack **one public call at
//! a time**: the deeper layer is called again on its own with the same
//! inputs, and its span is re-based to start where its parent started.
//! A layer's self time is then its span minus the part of it that its
//! children cover, which is what [`self_times`] computes.

use crate::json::Json;
use std::io::{self, Write};

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 = a root.
    pub parent: u64,
    pub trace_id: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
pub struct SpanStore {
    spans: Vec<Span>,
}

impl SpanStore {
    pub fn push(
        &mut self,
        parent: u64,
        trace_id: u64,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            trace_id,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Sets the end of an open span (a root whose length is known only
    /// once its children have run).
    pub fn close(&mut self, id: u64, end_ns: u64) {
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns.max(span.start_ns);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let line = Json::obj([
                ("id", Json::Num(s.id as f64)),
                (
                    "parent",
                    if s.parent == 0 {
                        Json::Null
                    } else {
                        Json::Num(s.parent as f64)
                    },
                ),
                ("trace_id", Json::Num(s.trace_id as f64)),
                ("name", Json::str(s.name.as_str())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        Ok(())
    }
}

/// Self time of every span, by id: its duration minus the length of the
/// union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(reach, s.end_ns);
                    let b = b.clamp(reach, s.end_ns);
                    covered += b - a;
                    reach = reach.max(b);
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Total self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> std::collections::BTreeMap<String, u64> {
    let mut out = std::collections::BTreeMap::new();
    for ((_, own), span) in self_times(spans).into_iter().zip(spans) {
        *out.entry(span.name.clone()).or_insert(0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let mut st = SpanStore::default();
        let root = st.push(0, 9, "wave", 100, 1_100);
        let a = st.push(root, 9, "engine", 100, 700);
        st.push(a, 9, "core", 100, 500);
        // overlaps `engine` on [600, 700) and sticks out past the root
        st.push(root, 9, "reply", 600, 1_300);
        let own = self_times(st.spans());
        // root: 1000 long, children cover [100,700) ∪ [600,1100) = 1000
        assert_eq!(own[0], (1, 0));
        assert_eq!(own[1], (2, 200));
        assert_eq!(own[2], (3, 400));
        assert_eq!(own[3], (4, 700));
        let by = self_time_by_name(st.spans());
        assert_eq!(by["engine"], 200);
    }

    #[test]
    fn jsonl_has_one_parsable_object_per_span() {
        let mut st = SpanStore::default();
        let r = st.push(0, 5, "wave", 1, 10);
        st.push(r, 5, "core.batch", 1, 4);
        let mut buf = Vec::new();
        st.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("parent"), Some(&Json::Null));
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(second.get("name"), Some(&Json::str("core.batch")));
        assert_eq!(second.get("end_ns").and_then(Json::as_f64), Some(4.0));
    }
}

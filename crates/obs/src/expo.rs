//! Prometheus text exposition format helpers.
//!
//! Free functions: a scrape walks its own table of families and writes
//! each one — header, then one sample or histogram per label set — so
//! counters, histograms and scrape-time values (per-tenant generation,
//! queue depth) all render through one escaping and formatting path.

use crate::hist::HistogramSnapshot;
use std::fmt::Write;

/// Escapes a label value per the exposition format (`\`, `"`, newline).
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Writes the `# HELP` / `# TYPE` header of a family.
pub fn write_header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
}

/// Writes one sample line: `name{labels} value`.
pub fn write_sample(out: &mut String, name: &str, labels: &[(String, String)], value: &str) {
    out.push_str(name);
    write_labels(out, labels, None);
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Writes a histogram in the cumulative `_bucket{le=...}` / `_sum` /
/// `_count` convention. Only buckets that hold samples are emitted
/// (upper-bound `le` = the bucket's exclusive high end), always followed
/// by the mandatory `le="+Inf"` total.
pub fn write_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    snap: &HistogramSnapshot,
) {
    let bucket_name = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for (_, high, count) in snap.nonzero_buckets() {
        cumulative += count;
        out.push_str(&bucket_name);
        write_labels(out, labels, Some(("le", &high.to_string())));
        let _ = writeln!(out, " {cumulative}");
    }
    out.push_str(&bucket_name);
    write_labels(out, labels, Some(("le", "+Inf")));
    let _ = writeln!(out, " {}", snap.count);
    out.push_str(name);
    out.push_str("_sum");
    write_labels(out, labels, None);
    let _ = writeln!(out, " {}", snap.sum);
    out.push_str(name);
    out.push_str("_count");
    write_labels(out, labels, None);
    let _ = writeln!(out, " {}", snap.count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn sample_lines_render_with_and_without_labels() {
        let mut out = String::new();
        write_sample(&mut out, "m_total", &[], "3");
        write_sample(
            &mut out,
            "m_total",
            &[
                ("tenant".into(), "a".into()),
                ("mode".into(), "int8".into()),
            ],
            "4",
        );
        assert_eq!(out, "m_total 3\nm_total{tenant=\"a\",mode=\"int8\"} 4\n");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(100);
        let mut out = String::new();
        write_histogram(&mut out, "lat", &[], &h.snapshot());
        assert!(out.contains("lat_bucket{le=\"2\"} 2"), "{out}");
        assert!(out.contains("lat_bucket{le=\"101\"} 3"), "{out}");
        assert!(out.contains("lat_bucket{le=\"+Inf\"} 3"), "{out}");
        assert!(out.contains("lat_sum 102"), "{out}");
        assert!(out.contains("lat_count 3"), "{out}");
    }
}

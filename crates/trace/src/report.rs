//! Run reports: one stable, schema-versioned JSON shape for every
//! `BENCH_*.json` the workspace emits, plus a human-readable per-phase
//! table for train loops and examples.
//!
//! # Schema (`focus-trace-report v1`)
//!
//! ```json
//! {
//!   "schema": "focus-trace-report v1",
//!   "name": "trainstep",
//!   "host_cores": 4,
//!   "settings": { "threads": "1", ... },
//!   "metrics": { "after_t1_ns": 123456.0, ... },
//!   "counters": { "cluster/segments_assigned": 640, ... },
//!   "spans": [ { "name": "...", "calls": 1, "total_ns": 2, "children": [...] } ]
//! }
//! ```
//!
//! `settings` are free-form strings describing the run configuration,
//! `metrics` are the benchmark's own numbers (timings, speedups), and
//! `counters`/`spans` are snapshots from the [`crate`] registry. The JSON is
//! hand-rolled (zero deps) with full string escaping; key order is the
//! insertion order of the vectors, so reports are byte-stable for a given
//! run history.

use crate::SpanNode;
use std::fmt::Write as _;

/// Schema tag written into every report; bump on breaking shape changes.
pub const SCHEMA: &str = "focus-trace-report v1";

/// A complete run report ready to serialise.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Short run name (`"trainstep"`, `"kernels"`, `"e2e"`).
    pub name: String,
    /// Host core count the run observed.
    pub host_cores: usize,
    /// Free-form configuration pairs, serialised as a string map.
    pub settings: Vec<(String, String)>,
    /// Benchmark numbers, serialised as a number map.
    pub metrics: Vec<(String, f64)>,
    /// Counter snapshot (typically [`crate::snapshot_counters`]).
    pub counters: Vec<(String, u64)>,
    /// Span forest (typically [`crate::snapshot_spans`]).
    pub spans: Vec<SpanNode>,
}

impl RunReport {
    /// An empty report for `name`, stamped with the host core count.
    pub fn new(name: &str) -> RunReport {
        RunReport {
            name: name.to_string(),
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            ..RunReport::default()
        }
    }

    /// Adds a configuration pair.
    pub fn setting(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.settings.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a benchmark number.
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        self.metrics.push((key.to_string(), value));
        self
    }

    /// Captures the current trace registry state into the report.
    pub fn capture_trace(&mut self) -> &mut Self {
        self.counters = crate::snapshot_counters()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        self.spans = crate::snapshot_spans();
        self
    }

    /// Serialises the report to the v1 JSON schema.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(SCHEMA));
        let _ = writeln!(out, "  \"name\": {},", json_str(&self.name));
        let _ = writeln!(out, "  \"host_cores\": {},", self.host_cores);
        out.push_str("  \"settings\": {");
        for (i, (k, v)) in self.settings.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    {}: {}", json_str(k), json_str(v));
        }
        out.push_str("\n  },\n  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    {}: {}", json_str(k), json_num(*v));
        }
        out.push_str("\n  },\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    {}: {v}", json_str(k));
        }
        out.push_str("\n  },\n  \"spans\": ");
        spans_json(&mut out, &self.spans, 1);
        out.push_str("\n}\n");
        out
    }

    /// Writes the JSON report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Renders the span tree as an aligned per-phase table: one row per
    /// span, indented by depth, with call counts, total milliseconds, and
    /// each span's share of its root's total.
    pub fn phase_table(&self) -> String {
        phase_table(&self.spans)
    }
}

/// JSON string literal with escaping for quotes, backslashes, and control
/// characters.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number; non-finite values (which JSON cannot express)
/// serialise as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn spans_json(out: &mut String, spans: &[SpanNode], depth: usize) {
    let pad = "  ".repeat(depth);
    if spans.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push_str("[\n");
    for (i, n) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{pad}  {{ \"name\": {}, \"calls\": {}, \"total_ns\": {}, \"children\": ",
            json_str(n.name),
            n.calls,
            n.total_ns
        );
        spans_json(out, &n.children, depth + 2);
        out.push_str(" }");
        if i + 1 < spans.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let _ = write!(out, "{pad}]");
}

/// Standalone per-phase table for a span forest (see
/// [`RunReport::phase_table`]).
pub fn phase_table(spans: &[SpanNode]) -> String {
    struct Row {
        label: String,
        calls: u64,
        total_ns: u64,
        root_ns: u64,
    }
    fn rec(rows: &mut Vec<Row>, nodes: &[SpanNode], depth: usize, root_ns: u64) {
        for n in nodes {
            let root_ns = if depth == 0 { n.total_ns } else { root_ns };
            rows.push(Row {
                label: format!("{}{}", "  ".repeat(depth), n.name),
                calls: n.calls,
                total_ns: n.total_ns,
                root_ns,
            });
            rec(rows, &n.children, depth + 1, root_ns);
        }
    }
    let mut rows = Vec::new();
    rec(&mut rows, spans, 0, 0);
    if rows.is_empty() {
        return String::from("(no spans recorded)\n");
    }
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(5).max(5);
    let mut out = String::new();
    let _ = writeln!(out, "{:<label_w$}  {:>8}  {:>12}  {:>6}", "phase", "calls", "total ms", "share");
    for r in &rows {
        let share = if r.root_ns > 0 {
            format!("{:>5.1}%", 100.0 * r.total_ns as f64 / r.root_ns as f64)
        } else {
            "    --".to_string()
        };
        let _ = writeln!(
            out,
            "{:<label_w$}  {:>8}  {:>12.3}  {}",
            r.label,
            r.calls,
            r.total_ns as f64 / 1e6,
            share
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spans() -> Vec<SpanNode> {
        vec![SpanNode {
            name: "train/step",
            calls: 4,
            total_ns: 8_000_000,
            children: vec![
                SpanNode {
                    name: "model/forward",
                    calls: 4,
                    total_ns: 5_000_000,
                    children: Vec::new(),
                },
                SpanNode {
                    name: "autograd/backward",
                    calls: 4,
                    total_ns: 2_000_000,
                    children: Vec::new(),
                },
            ],
        }]
    }

    #[test]
    fn report_json_has_schema_and_sections() {
        let mut r = RunReport::new("unit");
        r.setting("threads", 2).metric("best_ns", 123.0);
        r.counters.push(("gemm/nn_tiled".to_string(), 7));
        r.spans = sample_spans();
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"focus-trace-report v1\""));
        assert!(j.contains("\"name\": \"unit\""));
        assert!(j.contains("\"threads\": \"2\""));
        assert!(j.contains("\"best_ns\": 123"));
        assert!(j.contains("\"gemm/nn_tiled\": 7"));
        assert!(j.contains("\"name\": \"train/step\", \"calls\": 4"));
        assert!(j.contains("\"children\": []"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_metrics_serialise_as_null() {
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(2.5), "2.5");
    }

    #[test]
    fn empty_sections_are_valid_json_shapes() {
        let r = RunReport::new("empty");
        let j = r.to_json();
        assert!(j.contains("\"settings\": {\n  }"));
        assert!(j.contains("\"spans\": []"));
    }

    #[test]
    fn phase_table_shows_shares_of_root() {
        let t = phase_table(&sample_spans());
        assert!(t.contains("train/step"));
        assert!(t.contains("  model/forward"));
        assert!(t.contains("62.5%"), "5ms of 8ms root:\n{t}");
        assert!(t.contains("100.0%"));
    }

    #[test]
    fn empty_phase_table_is_explicit() {
        assert_eq!(phase_table(&[]), "(no spans recorded)\n");
    }
}

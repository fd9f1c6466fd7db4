//! Mechanical validation of JSONL traces against the stable event schema
//! documented in [`crate::trace`].

use crate::json::Json;
use std::collections::{BTreeMap, BTreeSet};

/// Result of validating a JSONL trace.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Number of well-formed event lines seen.
    pub events: usize,
    /// Human-readable descriptions of every schema violation found.
    pub violations: Vec<String>,
    /// Every distinct event name that appeared in the trace.
    pub names: BTreeSet<String>,
}

impl TraceReport {
    /// Whether the trace is schema-valid (no violations).
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether any event name starts with `prefix` — used to assert that a
    /// trace covers a pipeline stage (`"spill."`, `"session."`, …).
    pub fn covers(&self, prefix: &str) -> bool {
        self.names.iter().any(|name| name.starts_with(prefix))
    }
}

const KINDS: [&str; 5] = ["span_start", "span_end", "counter", "gauge", "observe"];

fn f64_field(event: &Json, key: &str) -> Option<f64> {
    event.get(key).and_then(Json::as_f64)
}

/// Validate `text` (one JSON event object per line) against the trace
/// schema: required keys per kind, monotone `ts_us`, strictly nested (LIFO)
/// spans with matching names and depths, non-decreasing counter totals with
/// `total = previous total + delta`, and no span left open at end of trace.
///
/// Blank lines are ignored. Violations carry 1-based line numbers.
pub fn validate_trace(text: &str) -> TraceReport {
    let mut report = TraceReport::default();
    let mut last_ts = f64::NEG_INFINITY;
    let mut span_stack: Vec<String> = Vec::new();
    let mut counter_totals: BTreeMap<String, f64> = BTreeMap::new();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let event = match Json::parse(line) {
            Ok(event @ Json::Obj(_)) => event,
            Ok(_) => {
                report.violations.push(format!("line {lineno}: event is not a JSON object"));
                continue;
            }
            Err(err) => {
                report.violations.push(format!("line {lineno}: invalid JSON ({err})"));
                continue;
            }
        };
        report.events += 1;

        let Some(ts) = f64_field(&event, "ts_us") else {
            report.violations.push(format!("line {lineno}: missing numeric `ts_us`"));
            continue;
        };
        if ts < last_ts {
            report
                .violations
                .push(format!("line {lineno}: `ts_us` {ts} goes backwards (previous {last_ts})"));
        }
        last_ts = last_ts.max(ts);

        let Some(name) = event.get("name").and_then(Json::as_str).map(str::to_string) else {
            report.violations.push(format!("line {lineno}: missing string `name`"));
            continue;
        };
        report.names.insert(name.clone());

        let Some(kind) = event.get("kind").and_then(Json::as_str) else {
            report.violations.push(format!("line {lineno}: missing string `kind`"));
            continue;
        };
        if !KINDS.contains(&kind) {
            report.violations.push(format!("line {lineno}: unknown kind `{kind}`"));
            continue;
        }

        match kind {
            "span_start" => {
                match f64_field(&event, "depth") {
                    Some(depth) if depth == span_stack.len() as f64 => {}
                    Some(depth) => report.violations.push(format!(
                        "line {lineno}: span `{name}` depth {depth} but {} spans are open",
                        span_stack.len()
                    )),
                    None => report
                        .violations
                        .push(format!("line {lineno}: span_start missing numeric `depth`")),
                }
                span_stack.push(name);
            }
            "span_end" => {
                if f64_field(&event, "elapsed_us").is_none() {
                    report
                        .violations
                        .push(format!("line {lineno}: span_end missing numeric `elapsed_us`"));
                }
                match span_stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => report.violations.push(format!(
                        "line {lineno}: span_end `{name}` does not match open span `{open}`"
                    )),
                    None => report
                        .violations
                        .push(format!("line {lineno}: span_end `{name}` with no span open")),
                }
            }
            "counter" => {
                let delta = f64_field(&event, "delta");
                let total = f64_field(&event, "total");
                match (delta, total) {
                    (Some(delta), Some(total)) => {
                        let previous = counter_totals.get(&name).copied().unwrap_or(0.0);
                        if total < previous {
                            report.violations.push(format!(
                                "line {lineno}: counter `{name}` total {total} below previous {previous}"
                            ));
                        } else if (previous + delta - total).abs() > 0.5 {
                            report.violations.push(format!(
                                "line {lineno}: counter `{name}` total {total} != previous {previous} + delta {delta}"
                            ));
                        }
                        counter_totals.insert(name, total.max(previous));
                    }
                    _ => report
                        .violations
                        .push(format!("line {lineno}: counter missing numeric `delta`/`total`")),
                }
            }
            // gauge | observe
            _ => {
                if f64_field(&event, "value").is_none() {
                    report
                        .violations
                        .push(format!("line {lineno}: {kind} missing numeric `value`"));
                }
            }
        }
    }

    for open in &span_stack {
        report.violations.push(format!("span `{open}` still open at end of trace"));
    }
    report
}

/// Time spent in one span name over a whole trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanSummary {
    /// The span name.
    pub name: String,
    /// Number of closed spans with this name.
    pub count: u64,
    /// Sum of their `elapsed_us`, in milliseconds.
    pub total_ms: f64,
    /// `total_ms` minus the time of the spans nested directly inside them.
    pub self_ms: f64,
}

/// Folds the span events of a JSONL trace into one [`SpanSummary`] per span
/// name, largest total first (ties by name).
///
/// Self time subtracts each child's `elapsed_us` from the span it nests in,
/// so the self times of a trace's spans add up to the time its top-level
/// spans cover. The fold assumes the nesting [`validate_trace`] checks:
/// lines that do not parse, and a `span_end` that does not match the open
/// span, are skipped.
pub fn summarize_spans(text: &str) -> Vec<SpanSummary> {
    let mut rows: BTreeMap<String, SpanSummary> = BTreeMap::new();
    // Open spans, each with the time of its closed children so far.
    let mut open: Vec<(String, f64)> = Vec::new();
    for line in text.lines() {
        let Ok(event) = Json::parse(line) else { continue };
        let Some(name) = event.get("name").and_then(Json::as_str) else { continue };
        match event.get("kind").and_then(Json::as_str) {
            Some("span_start") => open.push((name.to_string(), 0.0)),
            Some("span_end") if open.last().is_some_and(|(top, _)| top == name) => {
                let (_, children) = open.pop().expect("checked non-empty");
                let elapsed = f64_field(&event, "elapsed_us").unwrap_or(0.0) / 1e3;
                let row = rows.entry(name.to_string()).or_insert_with(|| SpanSummary {
                    name: name.to_string(),
                    ..Default::default()
                });
                row.count += 1;
                row.total_ms += elapsed;
                row.self_ms += elapsed - children;
                if let Some((_, parent_children)) = open.last_mut() {
                    *parent_children += elapsed;
                }
            }
            _ => {}
        }
    }
    let mut rows: Vec<SpanSummary> = rows.into_values().collect();
    rows.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms).then_with(|| a.name.cmp(&b.name)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecorder;
    use crate::{ObsHandle, Recorder};
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn accepts_a_recorder_produced_trace() {
        let buf = SharedBuf::default();
        let obs = ObsHandle::new(Arc::new(TraceRecorder::new(Box::new(buf.clone()))));
        {
            let _outer = obs.span("pipeline.ingest");
            {
                let _inner = obs.span("ingest.score");
                obs.observe("blocking.shard_delta_pairs", 12.0);
            }
            obs.counter("session.rounds", 1);
            obs.counter("session.rounds", 2);
            obs.gauge("spill.workload.resident_pairs", 40.0);
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let report = validate_trace(&text);
        assert!(report.is_valid(), "violations: {:?}", report.violations);
        assert_eq!(report.events, 8);
        assert!(report.covers("session."));
        assert!(report.covers("spill."));
        assert!(!report.covers("gp."));
    }

    #[test]
    fn rejects_mismatched_spans_and_backwards_counters() {
        let bad = concat!(
            "{\"ts_us\":1,\"kind\":\"span_start\",\"name\":\"a\",\"depth\":0}\n",
            "{\"ts_us\":2,\"kind\":\"span_end\",\"name\":\"b\",\"elapsed_us\":1}\n",
            "{\"ts_us\":3,\"kind\":\"counter\",\"name\":\"c\",\"delta\":1,\"total\":5}\n",
            "{\"ts_us\":2,\"kind\":\"counter\",\"name\":\"c\",\"delta\":1,\"total\":4}\n",
        );
        let report = validate_trace(bad);
        assert!(!report.is_valid());
        // span name mismatch, counter total mismatch at line 3 (0+1 != 5),
        // backwards total at line 4, backwards ts at line 4.
        assert!(report.violations.iter().any(|v| v.contains("does not match")));
        assert!(report.violations.iter().any(|v| v.contains("goes backwards")));
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("total") && v.contains("below previous")));
    }

    #[test]
    fn rejects_unterminated_spans_and_unknown_kinds() {
        let bad = concat!(
            "{\"ts_us\":1,\"kind\":\"span_start\",\"name\":\"a\",\"depth\":0}\n",
            "{\"ts_us\":2,\"kind\":\"mystery\",\"name\":\"x\"}\n",
            "not json\n",
        );
        let report = validate_trace(bad);
        assert!(report.violations.iter().any(|v| v.contains("unknown kind")));
        assert!(report.violations.iter().any(|v| v.contains("still open")));
        assert!(report.violations.iter().any(|v| v.contains("invalid JSON")));
    }

    #[test]
    fn span_summary_splits_total_into_self_and_child_time() {
        let trace = concat!(
            "{\"ts_us\":0,\"kind\":\"span_start\",\"name\":\"session.step\",\"depth\":0}\n",
            "{\"ts_us\":1,\"kind\":\"span_start\",\"name\":\"plan.train\",\"depth\":1}\n",
            "{\"ts_us\":2,\"kind\":\"counter\",\"name\":\"gp.reselect\",\"delta\":1,\"total\":1}\n",
            "{\"ts_us\":3,\"kind\":\"span_end\",\"name\":\"plan.train\",\"elapsed_us\":2000}\n",
            "{\"ts_us\":4,\"kind\":\"span_start\",\"name\":\"plan.calibrate\",\"depth\":1}\n",
            "{\"ts_us\":5,\"kind\":\"span_end\",\"name\":\"plan.calibrate\",\"elapsed_us\":3000}\n",
            "{\"ts_us\":6,\"kind\":\"span_end\",\"name\":\"session.step\",\"elapsed_us\":10000}\n",
            "{\"ts_us\":7,\"kind\":\"span_start\",\"name\":\"plan.train\",\"depth\":0}\n",
            "{\"ts_us\":8,\"kind\":\"span_end\",\"name\":\"plan.train\",\"elapsed_us\":500}\n",
        );
        let rows = summarize_spans(trace);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["session.step", "plan.calibrate", "plan.train"]);
        assert_eq!((rows[0].count, rows[0].total_ms, rows[0].self_ms), (1, 10.0, 5.0));
        assert_eq!((rows[1].count, rows[1].total_ms, rows[1].self_ms), (1, 3.0, 3.0));
        assert_eq!((rows[2].count, rows[2].total_ms, rows[2].self_ms), (2, 2.5, 2.5));
    }

    #[test]
    fn noop_methods_on_trace_recorder_keep_depth_consistent() {
        // span_end without start must not underflow the depth tracking.
        let buf = SharedBuf::default();
        let recorder = TraceRecorder::new(Box::new(buf.clone()));
        recorder.span_end("stray", std::time::Duration::ZERO);
        recorder.span_start("a");
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        // The stray end is itself a violation, but depth on `a` is still 0.
        let lines: Vec<&str> = text.lines().collect();
        let start = Json::parse(lines[1]).unwrap();
        assert_eq!(start.get("depth").and_then(Json::as_f64), Some(0.0));
    }
}

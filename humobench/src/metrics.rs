//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics with their
//! bounds; a test keeps the two in step.

use er_obs::Json;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the system sees, reported by untraced runs.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("run_s", "s", "lower"),
    m("turn_ms_p50", "ms", "lower"),
    m("turn_ms_p99", "ms", "lower"),
    m("labels", "count", "lower"),
    m("label_rounds", "count", "lower"),
    m("votes", "count", "lower"),
    m("precision", "fraction", "higher"),
    m("recall", "fraction", "higher"),
    m("cluster_f1", "fraction", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Single layers, reported by traced runs. Times are shares of the traced
/// `run_s`, so a layer a workload never enters reads 0 rather than a time.
/// `host.reference_ms` is the reference task's median time as measured,
/// which the timings of every run are scaled by.
pub const PER_LAYER: &[Metric] = &[
    m("ingest.calls", "count", "lower"),
    m("ingest.other_share", "fraction", "lower"),
    m("blocking.share", "fraction", "lower"),
    m("blocking.delta_candidates", "count", "lower"),
    m("scoring.share", "fraction", "lower"),
    m("scoring.pairs", "count", "lower"),
    m("scoring.retained_fraction", "fraction", "higher"),
    m("workload.merge_share", "fraction", "lower"),
    m("session.steps", "count", "lower"),
    m("session.step_share", "fraction", "lower"),
    m("session.plan_share", "fraction", "lower"),
    m("session.refine_share", "fraction", "lower"),
    m("session.plan_rounds", "count", "lower"),
    m("session.refine_rounds", "count", "lower"),
    m("session.reemit_fraction", "fraction", "lower"),
    m("gp.reselect", "count", "lower"),
    m("gp.refit_incremental", "count", "lower"),
    m("gp.refit_full", "count", "lower"),
    m("wal.appends", "count", "lower"),
    m("wal.bytes", "bytes", "lower"),
    m("wal.append_share", "fraction", "lower"),
    m("wal.recover_share", "fraction", "lower"),
    m("spill.bytes_written", "bytes", "lower"),
    m("spill.bytes_read", "bytes", "lower"),
    m("spill.segments_loaded", "count", "lower"),
    m("spill.cache_hit_rate", "fraction", "higher"),
    m("spill.posting_bytes", "bytes", "lower"),
    m("disk.bytes", "bytes", "lower"),
    m("cluster.share", "fraction", "lower"),
    m("crowd.submit_share", "fraction", "lower"),
    m("crowd.absorb_share", "fraction", "lower"),
    m("crowd.take_ready_share", "fraction", "lower"),
    m("crowd.dispatch_fraction", "fraction", "higher"),
    m("crowd.escalations", "count", "lower"),
    m("labeler.share", "fraction", "lower"),
    m("turn.samples", "count", "higher"),
    m("trace.run_s", "s", "lower"),
    m("host.reference_ms", "ms", "lower"),
    m("trace.overhead", "ratio", "lower"),
    m("trace.coverage", "fraction", "higher"),
];

/// Whether `name` is a valid metric name: a letter or digit, then at most 63
/// letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: correctness, operation counts, and each metric's value
/// with its unit, in catalogue order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[Metric],
    value: impl Fn(&str) -> f64,
) -> String {
    let metrics = catalogue
        .iter()
        .map(|metric| {
            let entry = Json::obj([
                ("value", Json::num(value(metric.name))),
                ("unit", Json::str(metric.unit)),
            ]);
            (metric.name.to_string(), entry)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_compact_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_valid_name(metric.name), "invalid metric name {:?}", metric.name);
            assert!(seen.insert(metric.name), "duplicate metric name {}", metric.name);
            assert!(matches!(metric.better, "lower" | "higher"));
            assert!(!metric.unit.is_empty() && metric.unit.len() <= 16);
        }
    }

    #[test]
    fn name_rule_matches_the_allowed_alphabet() {
        for good in ["run_s", "gp.refit_full", "a-b", "0x"] {
            assert!(is_valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ms%", &"x".repeat(65)] {
            assert!(!is_valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(entries)) = doc.get(key) else { panic!("no {key} array") };
            let listed: Vec<(String, String, String)> = entries
                .iter()
                .map(|e| {
                    let field = |f: &str| e.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let expected: Vec<(String, String, String)> = catalogue
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key} differs from the catalogue");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &END_TO_END[..2], |name| name.len() as f64 + 0.5);
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("metrics.run_s.value").and_then(Json::as_f64), Some(5.5));
        assert_eq!(doc.get("metrics.setup_s.unit").and_then(Json::as_str), Some("s"));
    }
}

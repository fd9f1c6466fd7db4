//! Benchmark-side tracing: spans around the calls the benchmark makes into the
//! program's layers, kept in memory and folded into the per-layer table.
//!
//! Spans are opened and closed by the benchmark itself, so every top-level
//! span of the run phase is disjoint from the others and lies inside the
//! run's wall-clock window. Their shares of `run_s` therefore sum to at most
//! one, and what they leave uncovered is the benchmark loop's own time.

use er_obs::Json;
use std::time::Instant;

/// Which part of an iteration a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Input generation and whatever the workload does before its first input.
    Setup,
    /// The timed run: first input to last committed outcome.
    Run,
    /// Measurements taken after the run, outside its window.
    After,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Run => "run",
            Phase::After => "after",
        }
    }
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    pub name: &'static str,
    pub phase: Phase,
    pub iteration: usize,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Records spans when enabled; otherwise only measures them.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    events: Option<Vec<SpanEvent>>,
    phase: Phase,
    iteration: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            events: enabled.then(Vec::new),
            phase: Phase::Setup,
            iteration: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Tags the spans that follow with an iteration and phase.
    pub fn enter(&mut self, iteration: usize, phase: Phase) {
        self.iteration = iteration;
        self.phase = phase;
    }

    /// Closes a span opened at `start`, keeping it when tracing, and returns
    /// its length in seconds.
    pub fn end(&mut self, name: &'static str, start: Instant) -> f64 {
        self.end_in(self.phase, name, start)
    }

    /// [`Tracer::end`] for a span of another phase than the current one.
    pub fn end_in(&mut self, phase: Phase, name: &'static str, start: Instant) -> f64 {
        let secs = start.elapsed().as_secs_f64();
        if let Some(events) = &mut self.events {
            events.push(SpanEvent {
                name,
                phase,
                iteration: self.iteration,
                start_us: start.saturating_duration_since(self.origin).as_secs_f64() * 1e6,
                dur_us: secs * 1e6,
            });
        }
        secs
    }

    /// The spans kept so far.
    pub fn events(&self) -> &[SpanEvent] {
        self.events.as_deref().unwrap_or_default()
    }

    /// The kept spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            let line = Json::obj([
                ("name", Json::str(e.name)),
                ("phase", Json::str(e.phase.name())),
                ("iteration", Json::num(e.iteration as f64)),
                ("start_us", Json::num(e.start_us)),
                ("dur_us", Json::num(e.dur_us)),
            ]);
            out.push_str(&line.to_compact_string());
            out.push('\n');
        }
        out
    }
}

/// The layer a span is nested in, for spans the benchmark splits further.
fn parent_of(span: &str) -> Option<&'static str> {
    match span {
        "session.plan" | "session.refine" => Some("session.step"),
        _ => None,
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub layer: &'static str,
    pub parent: Option<&'static str>,
    pub phase: Phase,
    pub count: u64,
    pub total_s: f64,
}

/// Count and total time per layer, over one or more traced iterations whose
/// run phases took `run_s` in total.
#[derive(Debug, Clone)]
pub struct LayerTable {
    rows: Vec<Row>,
    run_s: f64,
}

impl LayerTable {
    /// Folds benchmark spans into rows. Each split span also counts toward a
    /// row for its parent, so `session.step` is the sum of its plan and
    /// refine parts.
    pub fn from_spans(events: &[SpanEvent], run_s: f64) -> Self {
        let mut table = Self { rows: Vec::new(), run_s };
        for e in events {
            let secs = e.dur_us / 1e6;
            if let Some(parent) = parent_of(e.name) {
                table.add(parent, None, e.phase, 1, secs);
                table.add(e.name, Some(parent), e.phase, 1, secs);
            } else {
                table.add(e.name, None, e.phase, 1, secs);
            }
        }
        table
    }

    /// Adds `count` calls taking `total_s` to a layer's row, creating it
    /// (with the given parent and phase) on first use.
    pub fn add(
        &mut self,
        layer: &'static str,
        parent: Option<&'static str>,
        phase: Phase,
        count: u64,
        total_s: f64,
    ) {
        match self.rows.iter_mut().find(|r| r.layer == layer) {
            Some(row) => {
                row.count += count;
                row.total_s += total_s;
            }
            None => self.rows.push(Row { layer, parent, phase, count, total_s }),
        }
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Total seconds of a layer (0 when it never ran).
    pub fn total(&self, layer: &str) -> f64 {
        self.rows.iter().find(|r| r.layer == layer).map_or(0.0, |r| r.total_s)
    }

    /// A layer's total time as a share of `run_s`.
    pub fn share(&self, layer: &str) -> f64 {
        self.total(layer) / self.run_s
    }

    /// Share of `run_s` covered by the top-level spans of the run phase.
    pub fn coverage(&self) -> f64 {
        let covered: f64 = self
            .rows
            .iter()
            .filter(|r| r.parent.is_none() && r.phase == Phase::Run)
            .map(|r| r.total_s)
            .sum();
        covered / self.run_s
    }

    /// The table as text: children indented under their parents.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} {:>6} {:>10} {:>12} {:>9}\n",
            "layer", "phase", "count", "total ms", "of run_s"
        );
        let mut line = |r: &Row, indent: &str| {
            out.push_str(&format!(
                "{:<24} {:>6} {:>10} {:>12.3} {:>8.2}%\n",
                format!("{indent}{}", r.layer),
                r.phase.name(),
                r.count,
                r.total_s * 1e3,
                100.0 * r.total_s / self.run_s
            ));
        };
        for top in self.rows.iter().filter(|r| r.parent.is_none()) {
            line(top, "");
            for child in self.rows.iter().filter(|r| r.parent == Some(top.layer)) {
                line(child, "  ");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn shares_of_a_traced_run_sum_to_at_most_one() {
        let mut tracer = Tracer::new(true);
        tracer.enter(0, Phase::Setup);
        let t = Instant::now();
        busy(Duration::from_millis(2));
        tracer.end("datagen", t);
        tracer.enter(0, Phase::Run);
        let run = Instant::now();
        for name in ["ingest", "session.plan", "labeler", "session.refine", "crowd.submit"] {
            let t = Instant::now();
            busy(Duration::from_micros(300));
            tracer.end(name, t);
        }
        let run_s = run.elapsed().as_secs_f64();
        let table = LayerTable::from_spans(tracer.events(), run_s);
        let top_run_shares: f64 = table
            .rows()
            .iter()
            .filter(|r| r.parent.is_none() && r.phase == Phase::Run)
            .map(|r| table.share(r.layer))
            .sum();
        assert!(top_run_shares <= 1.0, "shares sum to {top_run_shares}");
        assert!((table.coverage() - top_run_shares).abs() < 1e-12);
        // A split span also counts toward its parent, and the children sum to it.
        let step = table.total("session.step");
        assert!(step > 0.0);
        assert!((table.total("session.plan") + table.total("session.refine") - step).abs() < 1e-12);
        // Setup spans are not part of the run's coverage.
        assert!(table.total("datagen") > 0.0);
    }

    #[test]
    fn disabled_tracer_measures_but_keeps_nothing() {
        let mut tracer = Tracer::new(false);
        let t = Instant::now();
        busy(Duration::from_micros(100));
        assert!(tracer.end("ingest", t) > 0.0);
        assert!(tracer.events().is_empty());
        assert!(tracer.to_jsonl().is_empty());
    }

    #[test]
    fn rows_merge_by_layer_and_render_nested() {
        let mut table = LayerTable { rows: Vec::new(), run_s: 2.0 };
        table.add("ingest", None, Phase::Run, 1, 0.5);
        table.add("scoring", Some("ingest"), Phase::Run, 1, 0.25);
        table.add("ingest", None, Phase::Run, 1, 0.5);
        assert_eq!(table.rows().len(), 2);
        assert_eq!(table.total("ingest"), 1.0);
        assert_eq!(table.share("ingest"), 0.5);
        assert_eq!(table.share("missing"), 0.0);
        let text = table.render();
        assert!(text.contains("\n  scoring"), "{text}");
    }
}

//! `er-obs` — a zero-dependency tracing and metrics layer for the
//! resolution pipeline.
//!
//! The crate is hand-rolled for an offline build environment (no `tracing`,
//! no `metrics`): a small [`Recorder`] trait carries four event kinds —
//! spans, counters, gauges, and fixed-bucket histograms — behind a cheap
//! cloneable [`ObsHandle`]. The default handle is a no-op recorder whose
//! every method is empty and reports [`Recorder::is_enabled`] `false`, so
//! instrumented code can guard any work needed to *produce* a measurement
//! and the disabled path costs a single virtual call per batch-level event.
//!
//! Two concrete recorders ship with the crate:
//!
//! - [`MetricsRecorder`] aggregates everything into an in-memory
//!   [`MetricsSnapshot`] (sorted maps of counters, gauges, histograms, and
//!   span timings) that harnesses and reports query after a run.
//! - [`TraceRecorder`] streams one compact JSON object per event to any
//!   writer (JSONL), with a documented, stable schema that
//!   [`schema::validate_trace`] checks mechanically.
//!
//! The [`json`] module is the dependency-free JSON value type the `bench`
//! crate previously owned; it moved here so trace emission and trace
//! validation share one implementation.
//!
//! Event names form a fixed, documented schema (README "Observability"
//! section), one dotted family per subsystem: `ingest.*`, `blocking.*`,
//! `spill.*`, `resolve.*` (the `resolve.step` span around each engine session
//! step, `resolve.wal_append` around each write-ahead record write, and
//! `resolve.wal_sync` around each write-ahead fsync, about one per label
//! round and counted in `session.wal.syncs`),
//! `session.*` (label rounds, replay-cache hits such as
//! `session.replay_cache.plan_hits` and `session.replay_cache.search_hits`,
//! and `session.replay_cache.reemit_hits` for each step that re-emits a
//! partly answered batch without replaying the optimizer),
//! `refine.search_evaluations` (boundary-search bound evaluations per
//! replay), `gp.*`, `plan.*` (the SAMP/HYBR estimation phase, once per
//! replay that misses the cached plan: the `plan.train` span around
//! Algorithm 1's sampling and GP training, and the `plan.calibrate` span
//! around the GP posterior, the count estimator and the subset-bound
//! search) — and, since the crowd-labeling subsystem,
//! `crowd.*` (votes, disagreements, escalations, aggregated labels, EM
//! runs/iterations as counters; `crowd.reliability_abs_error` as a gauge
//! reporting estimated-vs-true worker error after each EM pass).
//!
//! # Quick start
//!
//! ```
//! use er_obs::{MetricsRecorder, ObsHandle};
//! use std::sync::Arc;
//!
//! let metrics = Arc::new(MetricsRecorder::new());
//! let obs = ObsHandle::new(metrics.clone());
//!
//! {
//!     let _span = obs.span("pipeline.ingest");
//!     obs.counter("ingest.retained_pairs", 128);
//!     obs.observe("pool.chunk_pairs", 16.0);
//! }
//!
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counter("ingest.retained_pairs"), 128);
//! assert_eq!(snap.span("pipeline.ingest").unwrap().count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod schema;
pub mod trace;

pub use json::Json;
pub use metrics::{Histogram, MetricsRecorder, MetricsSnapshot, SpanStats};
pub use schema::{summarize_spans, validate_trace, SpanSummary, TraceReport};
pub use trace::TraceRecorder;

use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sink for instrumentation events.
///
/// Implementations must be thread-safe: the pipeline emits events from the
/// engine/session thread, but a single recorder may be shared by several
/// engines. All event names are `&'static str` by design — the set of
/// emitted names is a fixed, documented schema (see the README
/// "Observability" section), not a dynamic namespace.
///
/// Event kinds:
///
/// - **Counters** ([`Recorder::counter`]) are monotone sums of `u64` deltas.
/// - **Gauges** ([`Recorder::gauge`]) are last-write-wins point samples.
/// - **Histograms** ([`Recorder::observe`]) record value distributions in
///   fixed geometric buckets (see [`Histogram`]).
/// - **Spans** ([`Recorder::span_start`] / [`Recorder::span_end`]) bracket a
///   named region; the guard returned by [`ObsHandle::span`] emits the pair
///   and measures the elapsed wall time in between.
///
/// The no-op default never records anything and returns `false` from
/// [`Recorder::is_enabled`]; instrumented code uses that flag to skip any
/// non-trivial work needed only to produce a measurement (e.g. computing
/// chunk-size distributions).
pub trait Recorder: std::fmt::Debug + Send + Sync {
    /// Whether this recorder actually records events. Instrumentation sites
    /// use this to skip measurement-only work when observability is off.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Add `delta` to the named monotone counter.
    fn counter(&self, name: &'static str, delta: u64);

    /// Set the named gauge to `value` (last write wins).
    fn gauge(&self, name: &'static str, value: f64);

    /// Record `value` into the named histogram.
    fn observe(&self, name: &'static str, value: f64);

    /// Mark entry into the named span.
    fn span_start(&self, name: &'static str);

    /// Mark exit from the named span after `elapsed` wall time.
    fn span_end(&self, name: &'static str, elapsed: Duration);
}

/// Recorder that drops every event; the default for [`ObsHandle`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn is_enabled(&self) -> bool {
        false
    }
    fn counter(&self, _name: &'static str, _delta: u64) {}
    fn gauge(&self, _name: &'static str, _value: f64) {}
    fn observe(&self, _name: &'static str, _value: f64) {}
    fn span_start(&self, _name: &'static str) {}
    fn span_end(&self, _name: &'static str, _elapsed: Duration) {}
}

/// Cheap, cloneable handle to a shared [`Recorder`].
///
/// `ObsHandle::default()` wraps [`NoopRecorder`]; cloning is an `Arc` bump.
/// The handle forwards each event kind and offers [`ObsHandle::span`] as an
/// RAII guard that times a region and emits the start/end pair.
#[derive(Clone, Debug)]
pub struct ObsHandle(Arc<dyn Recorder>);

impl Default for ObsHandle {
    fn default() -> Self {
        ObsHandle(Arc::new(NoopRecorder))
    }
}

impl ObsHandle {
    /// Wrap a recorder in a handle.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        ObsHandle(recorder)
    }

    /// The no-op handle (same as `ObsHandle::default()`).
    pub fn noop() -> Self {
        Self::default()
    }

    /// Whether the underlying recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_enabled()
    }

    /// Add `delta` to the named counter.
    pub fn counter(&self, name: &'static str, delta: u64) {
        self.0.counter(name, delta);
    }

    /// Set the named gauge.
    pub fn gauge(&self, name: &'static str, value: f64) {
        self.0.gauge(name, value);
    }

    /// Record `value` into the named histogram.
    pub fn observe(&self, name: &'static str, value: f64) {
        self.0.observe(name, value);
    }

    /// Enter the named span, returning a guard that ends it (and reports the
    /// elapsed wall time) when dropped. With the no-op recorder the guard is
    /// inert: no clock is read and no events are emitted.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let start = if self.0.is_enabled() {
            self.0.span_start(name);
            Some(Instant::now())
        } else {
            None
        };
        Span { handle: self, name, start }
    }
}

/// RAII guard for a span opened with [`ObsHandle::span`].
///
/// Dropping the guard emits `span_end` with the elapsed wall time. Guards
/// must be dropped in LIFO order relative to other spans on the same thread
/// for traces to nest correctly; lexical scoping gives this for free.
#[derive(Debug)]
pub struct Span<'a> {
    handle: &'a ObsHandle,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.handle.0.span_end(self.name, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_handle_is_disabled_and_inert() {
        let obs = ObsHandle::default();
        assert!(!obs.is_enabled());
        // None of these should panic or allocate recorder state.
        obs.counter("x", 1);
        obs.gauge("y", 2.0);
        obs.observe("z", 3.0);
        let span = obs.span("w");
        assert!(span.start.is_none());
        drop(span);
    }

    #[test]
    fn span_guard_times_enabled_regions() {
        let metrics = Arc::new(MetricsRecorder::new());
        let obs = ObsHandle::new(metrics.clone());
        assert!(obs.is_enabled());
        {
            let _outer = obs.span("outer");
            let _inner = obs.span("inner");
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.span("outer").unwrap().count, 1);
        assert_eq!(snap.span("inner").unwrap().count, 1);
        assert!(snap.span("outer").unwrap().total_secs >= 0.0);
    }
}

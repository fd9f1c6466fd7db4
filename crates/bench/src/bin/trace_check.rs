//! `trace_check` — validates a JSONL trace emitted by `er_obs::TraceRecorder`.
//!
//! Usage:
//!
//! ```text
//! trace_check <trace.jsonl> [--summary] [required-name-prefix ...]
//! ```
//!
//! The file is checked against the documented trace schema
//! ([`er_obs::validate_trace`]): every line must be a JSON object with a
//! monotone `ts_us`, a known `kind`, balanced LIFO spans and consistent
//! running counter totals. Each extra argument is a required event-name
//! prefix; the check fails if no event name starts with it. CI runs this
//! over a `streaming_dedup` trace with the prefixes
//! `pipeline.ingest ingest.block blocking. ingest.score spill. session. plan.`
//! to prove the trace covers ingest, blocking (its span and its counters),
//! scoring, spill, session-round and SAMP plan events.
//!
//! With `--summary` it also prints one row per span name
//! ([`er_obs::summarize_spans`]): how many spans closed, their total wall
//! time, and their self time — the total minus the time of the spans nested
//! directly inside them.
//!
//! Exits non-zero (with the violations printed) on any schema violation or
//! missing prefix.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let summary = args.iter().any(|arg| arg == "--summary");
    args.retain(|arg| arg != "--summary");
    let mut args = args.into_iter();
    let Some(path) = args.next() else {
        eprintln!("usage: trace_check <trace.jsonl> [--summary] [required-name-prefix ...]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("trace_check: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };

    let report = er_obs::validate_trace(&text);
    println!("{path}: {} events, {} distinct names", report.events, report.names.len());

    if summary {
        println!("{:<28} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
        for row in er_obs::summarize_spans(&text) {
            println!(
                "{:<28} {:>8} {:>12.3} {:>12.3}",
                row.name, row.count, row.total_ms, row.self_ms
            );
        }
    }

    let mut failed = false;
    if !report.is_valid() {
        failed = true;
        for violation in &report.violations {
            eprintln!("schema violation: {violation}");
        }
    }
    for prefix in args {
        if report.covers(&prefix) {
            println!("  covered: {prefix}");
        } else {
            failed = true;
            eprintln!("missing coverage: no event name starts with `{prefix}`");
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!("trace OK");
        ExitCode::SUCCESS
    }
}

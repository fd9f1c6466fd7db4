//! WAL durability: a `DurableSession` killed at *any* step — including by a
//! real `SIGKILL` of a child process — resumes from its `HAL1` log to the
//! byte-identical outcome, for every optimizer kind. The log itself survives
//! torture: arbitrary truncation recovers the longest complete record prefix,
//! and single-bit corruption is detected (an error, or a conservative
//! torn-tail truncation when the flip is indistinguishable from one) — never
//! a panic, never a silently altered label.

use er_core::workload::Workload;
use humo::wal::{decode_log, DurableSession, WalWriter, HAL1_MAGIC};
use humo::{
    LabelResponse, LabelingSession, OptimizationOutcome, OptimizerKind, QualityRequirement,
    SessionConfig, Step,
};
use proptest::prelude::*;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Env var that flips this test binary into the crash-harness child role.
const CHILD_ENV: &str = "HUMO_WAL_DURABILITY_CHILD";
/// Marker the child prints once its kill point is durable on disk.
const KILL_MARKER: &str = "HUMO_WAL_CHILD_PARKED";

fn workload(n: usize, tau: f64, sigma: f64, seed: u64) -> Workload {
    er_datagen::synthetic::SyntheticGenerator::new(er_datagen::synthetic::SyntheticConfig {
        num_pairs: n,
        tau,
        sigma,
        subset_size: 200,
        seed,
    })
    .generate()
}

/// A path no other call in any test process uses: PID plus a per-process
/// counter, so tests running on parallel threads never share a file.
fn temp_path(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(".humo-wal-durability-{}-{n}-{name}", std::process::id()))
}

fn answer(workload: &Workload, requests: &[humo::LabelRequest]) -> Vec<LabelResponse> {
    requests
        .iter()
        .map(|request| LabelResponse {
            pair_id: request.pair_id,
            label: workload.pair(request.index).ground_truth(),
        })
        .collect()
}

fn drive_plain(session: &mut LabelingSession<'_>) -> OptimizationOutcome {
    let workload = session.workload();
    let mut responses = Vec::new();
    loop {
        match session.step(&responses).unwrap() {
            Step::Done(outcome) => return outcome,
            Step::NeedLabels(requests) => responses = answer(workload, &requests),
        }
    }
}

fn drive_durable(session: &mut DurableSession<'_>, workload: &Workload) -> OptimizationOutcome {
    let mut responses = Vec::new();
    loop {
        match session.step(&responses).unwrap() {
            Step::Done(outcome) => return outcome,
            Step::NeedLabels(requests) => responses = answer(workload, &requests),
        }
    }
}

fn assert_outcomes_equal(kind: OptimizerKind, a: &OptimizationOutcome, b: &OptimizationOutcome) {
    assert_eq!(a.solution, b.solution, "{kind:?}: bounds differ");
    assert_eq!(a.assignment, b.assignment, "{kind:?}: label assignments differ");
    assert_eq!(a.metrics, b.metrics, "{kind:?}: metrics differ");
    assert_eq!(a.total_human_cost, b.total_human_cost, "{kind:?}: total cost differs");
    assert_eq!(a.verification_cost, b.verification_cost, "{kind:?}: verification cost differs");
    assert_eq!(a.sampling_cost, b.sampling_cost, "{kind:?}: sampling cost differs");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]
    #[test]
    fn killed_durable_sessions_resume_byte_identically(
        tau in 8.0..18.0f64,
        sigma in 0.05..0.25f64,
        seed in 0u64..1_000,
        kill_fraction in 0.0..1.0f64,
    ) {
        let w = workload(6_000, tau, sigma, seed);
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        for kind in OptimizerKind::all() {
            let config = SessionConfig::for_kind(kind, requirement);

            // Uninterrupted reference run.
            let mut reference_session = LabelingSession::new(config, &w).unwrap();
            let reference = drive_plain(&mut reference_session);
            let total_rounds = reference_session.rounds();

            // Durable run abandoned mid-flight after a proptest-chosen number
            // of dispatch waves — every kill point from "before the first
            // label" to "one wave short of done".
            let kill_after = ((total_rounds as f64) * kill_fraction) as usize;
            let path = temp_path(&format!("kill-{kind:?}"));
            {
                let mut durable = DurableSession::create(config, &w, &path).unwrap();
                let mut responses = Vec::new();
                for _ in 0..kill_after {
                    match durable.step(&responses).unwrap() {
                        Step::Done(_) => break,
                        Step::NeedLabels(requests) => responses = answer(&w, &requests),
                    }
                }
                // Dropped without commit: the simulated crash. Only what
                // `fsync` already persisted reaches the resume below.
            }

            let mut resumed = DurableSession::resume(&w, &path).unwrap();
            let outcome = drive_durable(&mut resumed, &w);
            assert_outcomes_equal(kind, &outcome, &reference);
            prop_assert!(
                resumed.session().state().answered_log()
                    == reference_session.state().answered_log(),
                "{:?}: resumed answered log diverged from the reference",
                kind
            );
            std::fs::remove_file(&path).unwrap();
        }
    }
}

/// Builds a realistic multi-record log image (a full Hybrid session) and
/// returns it with the decoded record count.
fn sample_log_image() -> (Vec<u8>, usize) {
    let w = workload(4_000, 14.0, 0.1, 7);
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    let config = SessionConfig::for_kind(OptimizerKind::Hybrid, requirement);
    let path = temp_path("image");
    {
        let mut durable = DurableSession::create(config, &w, &path).unwrap();
        drive_durable(&mut durable, &w);
    }
    let image = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let records = decode_log(&image).unwrap().records.len();
    assert!(records >= 4, "sample log too small to torture ({records} records)");
    (image, records)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    #[test]
    fn truncated_logs_recover_the_longest_complete_prefix(cut_fraction in 0.0..1.0f64) {
        let (image, total) = sample_log_image();
        let full = decode_log(&image).unwrap().records;
        let cut = ((image.len() as f64) * cut_fraction) as usize;
        let truncated = &image[..cut];
        if cut < HAL1_MAGIC.len() {
            // Not even the magic survived: an empty, torn log.
            let recovery = decode_log(truncated).unwrap();
            prop_assert!(recovery.torn_tail);
            prop_assert!(recovery.records.is_empty());
        } else {
            let recovery = decode_log(truncated).unwrap();
            let n = recovery.records.len();
            prop_assert!(n <= total);
            prop_assert!(recovery.records == full[..n], "recovered records are not a prefix");
            prop_assert_eq!(recovery.torn_tail, (recovery.valid_len as usize) < cut);
            // `valid_len` is exactly the bytes the recovered prefix occupies:
            // re-truncating there recovers the same records, tear-free.
            let clean = decode_log(&image[..recovery.valid_len as usize]).unwrap();
            prop_assert!(!clean.torn_tail);
            prop_assert!(clean.records == recovery.records);
        }
    }

    #[test]
    fn single_bit_corruption_never_panics_or_alters_labels(
        byte_fraction in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let (image, _) = sample_log_image();
        let full = decode_log(&image).unwrap().records;
        let mut corrupted = image.clone();
        let index = (((corrupted.len() - 1) as f64) * byte_fraction) as usize;
        corrupted[index] ^= 1 << bit;
        match decode_log(&corrupted) {
            // Detected: the FNV trailers (and the header self-check) catch
            // any single-bit flip in a complete frame, and a corrupted magic
            // is rejected outright.
            Err(_) => {}
            // A flip in the *final* frame's length field can inflate it past
            // the end of the file — indistinguishable from a torn tail, so
            // the decoder conservatively truncates that frame. The surviving
            // records must still be an exact prefix: corruption may cost the
            // tail record, never change one.
            Ok(recovery) => {
                prop_assert!(
                    recovery.torn_tail,
                    "corruption at byte {} bit {} was silently accepted",
                    index,
                    bit
                );
                let n = recovery.records.len();
                prop_assert!(n < full.len());
                prop_assert!(recovery.records == full[..n], "recovered records were altered");
            }
        }
        // Recovery over the corrupted image must also never panic: it either
        // reports the corruption or truncates to the clean prefix.
        let path = temp_path("bitflip");
        std::fs::write(&path, &corrupted).unwrap();
        match WalWriter::recover(&path) {
            Err(_) => {}
            Ok((_, recovery)) => {
                let n = recovery.records.len();
                prop_assert!(recovery.records == full[..n]);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// The child role of the SIGKILL test: create a durable session over the
/// deterministic workload, absorb `HUMO_WAL_CHILD_ROUNDS` dispatch waves,
/// print the marker and park until the parent kills the process. Nothing is
/// dropped cleanly — the resume sees only what `fsync` put on disk.
fn run_child_role() -> ! {
    let rounds: usize = std::env::var("HUMO_WAL_CHILD_ROUNDS").unwrap().parse().unwrap();
    let path: PathBuf = std::env::var("HUMO_WAL_CHILD_PATH").unwrap().into();
    let w = workload(6_000, 14.0, 0.1, 1234);
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    let config = SessionConfig::for_kind(OptimizerKind::Hybrid, requirement);
    let mut durable = DurableSession::create(config, &w, &path).unwrap();
    let mut responses = Vec::new();
    for _ in 0..rounds {
        match durable.step(&responses).unwrap() {
            Step::Done(_) => break,
            Step::NeedLabels(requests) => responses = answer(&w, &requests),
        }
    }
    println!("{KILL_MARKER}");
    std::io::stdout().flush().unwrap();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

#[test]
fn sigkilled_child_process_resumes_byte_identically() {
    if std::env::var(CHILD_ENV).is_ok() {
        run_child_role();
    }
    let w = workload(6_000, 14.0, 0.1, 1234);
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    let config = SessionConfig::for_kind(OptimizerKind::Hybrid, requirement);
    let mut reference_session = LabelingSession::new(config, &w).unwrap();
    let reference = drive_plain(&mut reference_session);

    for kill_rounds in [0usize, 2, 5] {
        let path = temp_path(&format!("sigkill-{kill_rounds}"));
        let exe = std::env::current_exe().expect("test binary path is known");
        let mut child = std::process::Command::new(exe)
            .args(["sigkilled_child_process_resumes_byte_identically", "--exact", "--nocapture"])
            .env(CHILD_ENV, "1")
            .env("HUMO_WAL_CHILD_ROUNDS", kill_rounds.to_string())
            .env("HUMO_WAL_CHILD_PATH", &path)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("crash-harness child spawns");
        let stdout = child.stdout.take().expect("child stdout is piped");
        let mut parked = false;
        for line in std::io::BufRead::lines(std::io::BufReader::new(stdout)) {
            if line.unwrap_or_default().contains(KILL_MARKER) {
                parked = true;
                break;
            }
        }
        assert!(parked, "child exited before reaching its kill point ({kill_rounds} rounds)");
        // A real SIGKILL: no destructors, no buffered-writer flushes.
        child.kill().expect("child is killable");
        child.wait().expect("child reaps");

        let mut resumed = DurableSession::resume(&w, &path).expect("killed log resumes");
        let outcome = drive_durable(&mut resumed, &w);
        assert_outcomes_equal(OptimizerKind::Hybrid, &outcome, &reference);
        assert_eq!(
            resumed.session().state().answered_log(),
            reference_session.state().answered_log(),
            "SIGKILL at {kill_rounds} rounds: answered log diverged"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

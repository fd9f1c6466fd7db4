//! Command-line contract of the `paper` harness binary.

use std::process::Command;

#[test]
fn an_unknown_experiment_exits_non_zero_and_lists_the_valid_ids() {
    let output = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("nosuch")
        .output()
        .expect("the paper binary runs");
    assert!(!output.status.success(), "`paper nosuch` must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("`nosuch`"), "{stderr}");
    for id in ["distributions", "quality", "confidence", "actl", "runtime", "all_vs_partial"] {
        assert!(stderr.contains(id), "{id} missing from: {stderr}");
    }
    assert!(output.stdout.is_empty(), "nothing runs before the ids are checked");
}

#[test]
fn an_unparsable_knob_names_the_variable_and_the_value() {
    let output = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("logistic")
        .env("HUMO_RUNS", "three")
        .output()
        .expect("the paper binary runs");
    assert!(!output.status.success(), "HUMO_RUNS=three must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("HUMO_RUNS") && stderr.contains("three"), "{stderr}");
}

//! Command-line behaviour of the `experiments` binary.

use std::process::Command;

#[test]
fn repeated_experiment_runs_once_at_its_first_mention() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--trials-scale", "0.01", "e1", "e2", "e1"])
        .output()
        .expect("run experiments");
    assert!(out.status.success(), "exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let headers: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .map(|h| h.split(' ').next().unwrap())
        .collect();
    assert_eq!(headers, ["E1", "E2"], "{stdout}");
}

#[test]
fn bad_values_print_usage_and_exit_2() {
    for args in [
        &["--trials-scale", "abc", "e1"][..],
        &["--seed"],
        &["--trials-scale", "0", "e1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("run experiments");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

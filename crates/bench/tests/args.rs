//! The gate binaries reject a malformed positional argument with one
//! error line naming it and exit 1, before doing any work, instead of
//! running their default shape.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin).args(args).output().expect("spawn")
}

#[test]
fn genbench_rejects_a_malformed_scale() {
    let out = run(env!("CARGO_BIN_EXE_genbench"), &["3", "0,02"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(String::from_utf8_lossy(&out.stderr), "error: invalid scale \"0,02\"\n");
}

#[test]
fn coupledbench_rejects_a_malformed_argument() {
    let out = run(env!("CARGO_BIN_EXE_coupledbench"), &["0.05", "8", "three"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(String::from_utf8_lossy(&out.stderr), "error: invalid reps \"three\"\n");
}

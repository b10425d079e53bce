//! The gate binaries reject a malformed positional argument, and the
//! reproduction binaries a malformed `BOTSCOPE_SEED`/`BOTSCOPE_SCALE`,
//! with one error line naming it and exit 1, before doing any work,
//! instead of running their default shape.

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

fn run_with_env(bin: &str, name: &str, value: &str) -> std::process::Output {
    Command::new(bin).env(name, value).output().expect("spawn")
}

#[test]
fn repro_all_rejects_a_malformed_env_override() {
    for (name, value) in
        [("BOTSCOPE_SEED", "9309x"), ("BOTSCOPE_SCALE", "0,1"), ("BOTSCOPE_SEED", "")]
    {
        let out = run_with_env(env!("CARGO_BIN_EXE_repro_all"), name, value);
        assert_eq!(out.status.code(), Some(1), "{name}={value:?}");
        assert!(out.stdout.is_empty(), "{name}={value:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: invalid {name} {value:?}\n"),
        );
    }
}

#[test]
fn extensions_rejects_a_malformed_scale() {
    let out = run_with_env(env!("CARGO_BIN_EXE_extensions"), "BOTSCOPE_SCALE", "1e");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(String::from_utf8_lossy(&out.stderr), "error: invalid BOTSCOPE_SCALE \"1e\"\n");
}

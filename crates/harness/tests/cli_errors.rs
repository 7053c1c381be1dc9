//! `samie-exp` usage errors end the process with exit code 2 and one
//! line of explanation on stderr — never a panic.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_samie-exp");

/// Run `samie-exp args`, assert it exits 2, and return its stderr.
fn usage_error(args: &[&str]) -> String {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("run samie-exp");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{args:?}: {stderr}");
    stderr
}

#[test]
fn watchdog_shorter_than_a_cold_access_is_rejected() {
    let err = usage_error(&[
        "sweep",
        "--exp",
        "design=conv:128 bench=gzip instrs=20000 warmup=1000 cfg=wd:1",
        "--no-cache",
    ]);
    assert!(err.contains("need at least 142"), "{err}");
}

#[test]
fn unknown_commands_and_flags_are_usage_errors() {
    for cmd in ["serve", "load"] {
        let err = usage_error(&[cmd]);
        assert!(err.contains(&format!("unknown command `{cmd}`")), "{err}");
    }
    let err = usage_error(&["sweep", "--workers", "2"]);
    assert!(err.contains("unexpected argument `--workers`"), "{err}");
}

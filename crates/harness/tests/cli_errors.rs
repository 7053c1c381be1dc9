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
    // Retired commands and flags take the ordinary unknown-word paths.
    for cmd in ["serve", "load", "bench", "profile"] {
        let err = usage_error(&[cmd]);
        assert!(err.contains(&format!("unknown command `{cmd}`")), "{err}");
    }
    for flag in ["--workers", "--baseline"] {
        let err = usage_error(&["sweep", flag, "2"]);
        assert!(
            err.contains(&format!("unexpected argument `{flag}`")),
            "{err}"
        );
    }
}

#[test]
fn malformed_flag_values_are_usage_errors() {
    let cases: [(&[&str], &str); 5] = [
        (
            &["sweep", "--instrs", "abc"],
            "--instrs: expected a number, got `abc`",
        ),
        (
            &["sweep", "--jobs"],
            "--jobs: expected a number, got nothing",
        ),
        (
            &["report", "--expect-warm", "nope"],
            "--expect-warm: expected a number, got `nope`",
        ),
        (
            &["sweep", "--seed", "-1"],
            "--seed: expected a number, got `-1`",
        ),
        (
            &["sweep", "--out"],
            "--out: expected a directory, got nothing",
        ),
    ];
    for (args, want) in cases {
        let err = usage_error(args);
        assert!(err.contains(want), "{args:?}: {err}");
    }
}

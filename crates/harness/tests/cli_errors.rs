//! `samie-exp` usage errors end the process with exit code 2 and one
//! line of explanation on stderr — never a panic — and the flags it
//! accepts take effect.

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
    let cases: [(&[&str], &str); 13] = [
        (
            &["sweep", "--instrs", "abc"],
            "--instrs: expected a number, got `abc`",
        ),
        (
            &["fig5", "--instrs", "0"],
            "--instrs: expected a positive number, got `0`",
        ),
        (
            &["report", "--instrs", "0", "--warmup", "0", "--no-cache"],
            "--instrs: expected a positive number, got `0`",
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
        (&["record", "--bench", "nope"], "unknown workload `nope`"),
        (
            &["record", "--bench", "@missing.strc"],
            "unknown workload `@missing.strc`",
        ),
        (&["record", "--designs", "bogus"], "bad design spec `bogus`"),
        (
            &["record", "--designs", ","],
            "--designs: expected a design list, got `,`",
        ),
        (
            &["rv", "run", "rv:sieve", "--designs", "bogus"],
            "bad design spec `bogus`",
        ),
        (
            &["rv", "run", "rv:sieve", "--designs", ","],
            "--designs: expected a design list, got `,`",
        ),
    ];
    for (args, want) in cases {
        let err = usage_error(args);
        assert!(err.contains(want), "{args:?}: {err}");
    }
}

#[test]
fn flags_that_do_not_apply_are_usage_errors() {
    let err = usage_error(&["store", "--instrs", "5"]);
    assert!(
        err.contains("`--instrs` does not apply to `store`"),
        "{err}"
    );
}

#[test]
fn sweep_seed_overrides_the_spec_seeds() {
    let spec = "design=conv:32 bench=gzip instrs=2000 warmup=500 seed=1";
    let out = std::env::temp_dir().join("samie-cli-sweep-seed");
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(EXE)
        .args(["sweep", "--exp", spec, "--seed", "7", "--no-cache", "--out"])
        .arg(&out)
        .output()
        .expect("run samie-exp");
    assert_eq!(status.status.code(), Some(0), "{status:?}");
    let det = std::fs::read_to_string(out.join("BENCH_sweep.det.json")).expect("det json");
    assert!(
        det.contains("\"seed\": 7") && !det.contains("\"seed\": 1"),
        "{det}"
    );

    let err = usage_error(&["sweep", "--exp", spec, "--seed", "7", "--seeds", "2"]);
    assert!(err.contains("--seed or --seeds"), "{err}");
}

#[test]
fn help_lists_the_flags_of_the_reproducing_flag_table() {
    let out = Command::new(EXE)
        .arg("--help")
        .output()
        .expect("run samie-exp");
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stderr).into_owned();
    let docs = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/REPRODUCING.md"
    ))
    .expect("read docs/REPRODUCING.md");
    let flags = |text: &str| -> Vec<String> {
        let mut v: Vec<String> = text
            .split(|c: char| "[]`".contains(c) || c.is_whitespace())
            .filter(|w| w.starts_with("--"))
            .map(String::from)
            .collect();
        v.sort();
        v
    };
    // Usage lines are indented two spaces, their descriptions six.
    let entries: Vec<&str> = help
        .lines()
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .collect();
    assert_eq!(entries.len(), 9, "{help}");
    for entry in entries {
        let first = entry.split(['|', ' ']).find(|w| !w.is_empty()).unwrap();
        let row = docs
            .lines()
            .find(|l| l.starts_with(&format!("| `{first}`")))
            .unwrap_or_else(|| panic!("docs/REPRODUCING.md has no flag row for `{first}`"));
        let documented = flags(row.split('|').nth(2).unwrap_or(""));
        assert_eq!(flags(entry), documented, "`{first}`");
    }
}

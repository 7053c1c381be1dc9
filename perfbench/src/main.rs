//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! An untraced run spawns itself with `--one-pass` once per pass and
//! reports medians over those processes.
//!
//! Also: `--bless` rewrites the default seed's result pins of the
//! workload; `--full-book` regenerates the committed book
//! configuration and compares it with `docs/book` byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use perfbench::book::verify_full_book;
use perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use perfbench::pins::DEFAULT_SEED;
use perfbench::run::{run, Options};
use perfbench::suite::Bench;

const USAGE: &str = "usage: perfbench --workload <paper-trio|lsq-stress|rv-real|book> \
                     [--seed N] [--seconds S] [--trace 0|1] [--bless] | --full-book";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

/// A command's first output line, or `unknown`. Run in the repository
/// root; git is kept from reporting an enclosing repository's commit.
fn probe(cmd: &str, args: &[&str]) -> String {
    let root = repo_root();
    let ceiling = root.parent().unwrap_or(&root).to_path_buf();
    Command::new(cmd)
        .args(args)
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_line(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: cpu={cpu:?} nproc={nproc} rustc={:?} commit={} seed={seed}",
        probe("rustc", &["--version"]),
        probe("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut opts = Options {
        bench: Bench::PaperTrio,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        one_pass: false,
        bless: None,
    };
    let (mut bench, mut full_book) = (None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                bench = Some(Bench::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--bless" => opts.bless = Some(Path::new(env!("CARGO_MANIFEST_DIR")).join("pins.tsv")),
            "--full-book" => full_book = true,
            "--one-pass" => opts.one_pass = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match bench {
        Some(b) => opts.bench = b,
        None if full_book => {}
        None => return Err("--workload is required".to_string()),
    }
    Ok((opts, full_book))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, full_book) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = repo_root().join(".bench_work").join(format!(
        "{}-{}",
        opts.bench.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    // Remove this run's scratch space, and `.bench_work` once no other
    // run (a pass's child process) still uses it.
    let clean_up = |work: &Path| {
        let _ = std::fs::remove_dir_all(work);
        if let Some(parent) = work.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    };
    println!("{}", host_line(opts.seed));
    if full_book {
        let failures = verify_full_book(&work);
        clean_up(&work);
        for f in &failures {
            println!("FAIL {f}");
        }
        println!(
            "full book: {}",
            if failures.is_empty() {
                "byte-identical to docs/book"
            } else {
                "MISMATCH"
            }
        );
        return if failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    let out = run(&opts, start, &work);
    clean_up(&work);
    println!(
        "workload={} trace={} seconds={}",
        opts.bench.name(),
        u8::from(opts.trace),
        opts.seconds
    );
    for line in &out.report {
        println!("{line}");
    }
    for note in out.checks.notes.iter().take(20) {
        println!("FAIL {note}");
    }
    let defs: &[_] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for d in defs {
        println!("{:<40} {:>16.6} {}", d.name, out.values[d.name], d.unit);
    }
    println!(
        "{}",
        result_line(defs, &out.values, out.checks.attempted, out.checks.failed)
    );
    ExitCode::SUCCESS
}

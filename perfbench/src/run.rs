//! One benchmark run: set-up, the timed passes of one workload, the
//! correctness checks, and the metrics.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use exp_harness::runner::PointCache;
use ooo_sim::SimStats;

use crate::book::book_pass;
use crate::layers::{
    energy_metrics, mem_replay, render_ms, rv_replay, span_metrics, store_replay, traced_rounds,
    Budget,
};
use crate::metrics::{parse_result_line, Values, END_TO_END};
use crate::pins::{self, stats_digest, DEFAULT_SEED};
use crate::sim::{cached_pass, Checks};
use crate::stats::{fastest, median, ratio};
use crate::suite::{book_rc, book_suite, timed_set_up, Bench, Point};
use crate::timed::Clock;

/// Set-ups before an untraced pass, the first timed from process start.
/// `setup_s` is the median of these and of [`SETUP_REPS_PER_PASS`] more
/// after the pass.
pub const SETUP_REPS: usize = 5;

/// Set-ups after an untraced pass.
pub const SETUP_REPS_PER_PASS: usize = 2;

/// Warm passes after each cold pass of a simulation workload. `warm_s`
/// is the fastest: a warm pass takes well under a millisecond (the book's
/// about 13 ms, much of it spawning and waking `generate_book`'s
/// workers), and its slow outliers are host scheduling, not work.
pub const WARM_REPS: usize = 20;

/// Warm passes after each cold pass of the book.
pub const BOOK_WARM_REPS: usize = 30;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub bench: Bench,
    /// Trace seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Run one untraced pass in this process (what [`run`] spawns per
    /// pass) instead of a series of them in child processes.
    pub one_pass: bool,
    /// Write the default seed's digests to this pins file instead of
    /// checking them.
    pub bless: Option<PathBuf>,
}

/// Result of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: Values,
    /// Correctness checks.
    pub checks: Checks,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

/// Run `opts` with scratch space under `work`; `start` is process start.
pub fn run(opts: &Options, start: Instant, work: &Path) -> Outcome {
    if !opts.trace && !opts.one_pass {
        return fan_out(opts, start);
    }
    let mut out = Outcome::default();
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let points = timed_set_up(opts.bench, opts.seed, work, start, reps, &mut setup);
    let deadline = if opts.one_pass {
        Instant::now()
    } else {
        Instant::now() + Duration::from_secs_f64(opts.seconds)
    };
    match (opts.bench, opts.trace) {
        (Bench::Book, false) => untraced_book(opts, deadline, work, &mut setup, &mut out),
        (_, false) => untraced_points(opts, &points, deadline, work, &mut setup, &mut out),
        (_, true) => traced(opts, &points, deadline, work, &mut out),
    }
    out.values.insert("setup_s".into(), median(&setup));
    out.values.insert("peak_rss_mb".into(), peak_rss_mib());
    out.values
        .insert("pass_frac".into(), out.checks.pass_frac());
    out
}

/// An untraced run is a series of one-pass runs, each in a fresh child
/// process, until `--seconds` are used up; each end-to-end metric is the
/// median over the children. On a shared 2-core Xeon VM the passes of
/// one process agree to a few percent while separate processes of the
/// same binary on the same seed differ by up to 25 %, so only a median
/// over processes repeats from run to run.
fn fan_out(opts: &Options, start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            out.checks
                .record(1, vec![format!("cannot find this executable: {e}")]);
            return out;
        }
    };
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let mut passes: Vec<Values> = Vec::new();
    loop {
        let t = Instant::now();
        let mut child = Command::new(&exe);
        child.args(["--workload", opts.bench.name(), "--one-pass"]);
        child.args(["--seed", &opts.seed.to_string()]);
        if opts.bless.is_some() {
            child.arg("--bless");
        }
        let output = match child.output() {
            Ok(o) => o,
            Err(e) => {
                out.checks
                    .record(1, vec![format!("cannot start a pass: {e}")]);
                break;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let Some((attempted, failed, values)) = stdout
            .lines()
            .last()
            .filter(|_| output.status.success())
            .and_then(parse_result_line)
        else {
            let stderr = String::from_utf8_lossy(&output.stderr);
            out.checks.record(
                1,
                vec![format!(
                    "pass {} ended with {}: {}",
                    passes.len(),
                    output.status,
                    stderr.lines().last().unwrap_or("")
                )],
            );
            break;
        };
        out.checks.attempted += attempted;
        out.checks.failed += failed;
        let notes = stdout.lines().filter_map(|l| l.strip_prefix("FAIL "));
        out.checks.notes.extend(notes.map(str::to_string));
        out.report.push(format!(
            "pass {:>2}: {}",
            passes.len(),
            END_TO_END
                .iter()
                .map(|d| format!(
                    "{} {:.6}",
                    d.name,
                    values.get(d.name).copied().unwrap_or(0.0)
                ))
                .collect::<Vec<_>>()
                .join("  ")
        ));
        passes.push(values);
        if Instant::now() + t.elapsed() > deadline {
            break;
        }
    }
    for d in &END_TO_END {
        let xs: Vec<f64> = passes
            .iter()
            .filter_map(|v| v.get(d.name).copied())
            .collect();
        // A process's fastest warm pass is about 120 or about 180 µs
        // depending on its randomized address layout (not with ASLR
        // off), so a median over processes flips between the two;
        // `warm_s` is the fastest warm pass of the whole run.
        let value = if d.name == "warm_s" {
            fastest(&xs)
        } else {
            median(&xs)
        };
        out.values.insert(d.name.into(), value);
    }
    out.values
        .insert("pass_frac".into(), out.checks.pass_frac());
    out
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn check_pins(opts: &Options, digests: &[(String, u128)], checks: &mut Checks) {
    if opts.seed != DEFAULT_SEED {
        return;
    }
    match &opts.bless {
        Some(path) => {
            if let Err(e) = pins::bless(path, opts.bench.name(), digests) {
                checks.record(1, vec![format!("cannot write {}: {e}", path.display())]);
            }
        }
        None => checks.record(
            digests.len() as u64,
            pins::failures(opts.bench.name(), digests),
        ),
    }
}

/// The simulation workloads, untraced: repeated cold passes (each point
/// simulated through `SimSession` and stored in a fresh store), each
/// followed by warm passes served from that store.
fn untraced_points(
    opts: &Options,
    points: &[Point],
    deadline: Instant,
    work: &Path,
    setup: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let checks = &mut out.checks;
    let sim_instrs: u64 = points.iter().map(Point::sim_instrs).sum();
    let (mut cold, mut warm, mut mips) = (Vec::new(), Vec::new(), Vec::new());
    let mut point_secs = vec![Vec::new(); points.len()];
    let mut first: Option<Vec<Option<SimStats>>> = None;
    for pass in 0.. {
        let t = Instant::now();
        let dir = work.join(format!("store-{pass}"));
        let cache = match PointCache::open(&dir) {
            Ok(c) => c,
            Err(e) => {
                checks.record(1, vec![format!("cannot open a store: {e}")]);
                break;
            }
        };
        let c = cached_pass(points, opts.seed, &cache, false, first.as_deref(), checks);
        cold.push(c.wall);
        mips.push(sim_instrs as f64 / c.sim_secs.iter().sum::<f64>() / 1e6);
        for (acc, s) in point_secs.iter_mut().zip(&c.sim_secs) {
            acc.push(*s);
        }
        for _ in 0..WARM_REPS {
            warm.push(cached_pass(points, opts.seed, &cache, true, Some(&c.stats), checks).wall);
        }
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
        first.get_or_insert(c.stats);
        timed_set_up(
            opts.bench,
            opts.seed,
            work,
            Instant::now(),
            SETUP_REPS_PER_PASS,
            setup,
        );
        if Instant::now() + t.elapsed() > deadline {
            break;
        }
    }
    let first = first.unwrap_or_default();
    let digests: Vec<(String, u128)> = points
        .iter()
        .zip(&first)
        .filter_map(|(p, s)| s.as_ref().map(|s| (p.label(), stats_digest(s))))
        .collect();
    check_pins(opts, &digests, checks);

    out.report.push(format!(
        "{:<40} {:>10} {:>8} {:>10}",
        "point", "instrs", "ipc", "Minstr/s"
    ));
    for ((p, s), secs) in points.iter().zip(&first).zip(&point_secs) {
        let ipc = s.as_ref().map_or(0.0, SimStats::ipc);
        out.report.push(format!(
            "{:<40} {:>10} {:>8.4} {:>10.3}",
            p.label(),
            p.sim_instrs(),
            ipc,
            p.sim_instrs() as f64 / median(secs) / 1e6
        ));
    }
    out.report.push(format!(
        "{} cold passes, {} warm passes",
        cold.len(),
        warm.len()
    ));
    let v = &mut out.values;
    v.insert("sim_mips".into(), median(&mips));
    v.insert("cold_s".into(), median(&cold));
    v.insert("warm_s".into(), fastest(&warm));
}

/// The book, untraced: repeated cold generations into fresh stores,
/// each followed by warm generations over the same store.
fn untraced_book(
    opts: &Options,
    deadline: Instant,
    work: &Path,
    setup: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let (rc, suite) = (book_rc(opts.seed), book_suite());
    let (mut cold, mut warm, mut mips) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_digest = None;
    let mut points = 0;
    for pass in 0.. {
        let t = Instant::now();
        let dir = work.join(format!("book-{pass}"));
        let bp = book_pass(rc, &suite, &dir, BOOK_WARM_REPS, &mut out.checks);
        let _ = std::fs::remove_dir_all(&dir);
        let Some(bp) = bp else { break };
        cold.push(bp.cold);
        warm.extend(&bp.warm);
        mips.push(bp.sim_instrs as f64 / bp.cold / 1e6);
        points = bp.points;
        match first_digest {
            None => first_digest = Some(bp.digest),
            Some(d) if d != bp.digest => out
                .checks
                .record(1, vec![format!("book pass {pass} differs from pass 0")]),
            Some(_) => {}
        }
        timed_set_up(
            opts.bench,
            opts.seed,
            work,
            Instant::now(),
            SETUP_REPS_PER_PASS,
            setup,
        );
        if Instant::now() + t.elapsed() > deadline {
            break;
        }
    }
    if let Some(d) = first_digest {
        check_pins(opts, &[("book".to_string(), d)], &mut out.checks);
    }
    out.report.push(format!(
        "book: {} suite benchmarks, {points} points, {} cold and {} warm generations",
        suite.len(),
        cold.len(),
        warm.len()
    ));
    let v = &mut out.values;
    v.insert("sim_mips".into(), median(&mips));
    v.insert("cold_s".into(), median(&cold));
    v.insert("warm_s".into(), fastest(&warm));
}

/// The traced run: rounds of session, untraced and traced runs over the
/// workload's points (for `book`, over its paired sample after one cold
/// and warm generation), then the isolated layer replays.
fn traced(opts: &Options, points: &[Point], deadline: Instant, work: &Path, out: &mut Outcome) {
    let bench = opts.bench;
    let clock = Clock::calibrate();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut stored = Vec::new();
    let mut store = (0, 0, 0);
    let (mut parallel_eff, mut render) = (0.0, 0.0);
    let mut book_gets = None;
    if bench == Bench::Book {
        let (rc, suite) = (book_rc(opts.seed), book_suite());
        if let Some(bp) = book_pass(rc, &suite, &work.join("book"), 3, &mut out.checks) {
            store = (bp.points, bp.points * bp.warm.len() as u64, bp.points);
            parallel_eff = ratio(bp.point_secs, threads as f64 * bp.cold);
            book_gets = Some((bp.points, median(&bp.warm)));
            stored = bp.stored;
        }
        let _ = std::fs::remove_dir_all(work.join("book"));
    }
    let agg = traced_rounds(points, opts.seed, deadline, work, &mut out.checks);
    let budget = Budget::of(&agg, &clock);
    out.checks.record(1, budget.failures());

    let v = &mut out.values;
    span_metrics(&agg, &clock, points.len(), v);
    v.insert(
        "mem.replay_ns_per_access".into(),
        mem_replay(points, opts.seed, &agg.first),
    );
    energy_metrics(points, &agg.first, v);
    let (pack, oracle, retired) = rv_replay(3, &mut out.checks);
    v.insert("riscv.pack_ms".into(), pack);
    v.insert("riscv.oracle_ms".into(), oracle);
    v.insert("riscv.retired".into(), retired as f64);
    if bench != Bench::Book {
        stored = agg.stored;
        store = agg.store_counts;
        let (secs, wall) = agg.first_session;
        parallel_eff = ratio(secs, wall);
        render = render_ms(points, &agg.first);
    }
    let (put_us, get_us, bytes) =
        store_replay(&stored, &work.join("replay-store"), &mut out.checks);
    if let Some((gets, warm_s)) = book_gets {
        render = warm_s * 1e3 - gets as f64 * get_us / 1e3;
    }
    v.insert("store.puts".into(), store.0 as f64);
    v.insert("store.hits".into(), store.1 as f64);
    v.insert("store.misses".into(), store.2 as f64);
    v.insert("store.put_us".into(), put_us);
    v.insert("store.get_us".into(), get_us);
    v.insert("store.bytes".into(), bytes as f64);
    v.insert("harness.parallel_eff".into(), parallel_eff);
    v.insert("harness.render_ms".into(), render);

    let r = &mut out.report;
    r.push(format!(
        "clock bracket: {:.1} ns inside a span, {:.1} ns in all; {} rounds",
        clock.in_span_ticks * clock.ns_per_tick,
        clock.per_bracket_ns,
        agg.rounds
    ));
    let pct = |x: f64| 100.0 * ratio(x, budget.wall);
    r.push(format!("traced wall {:.1} ms =", budget.wall / 1e6));
    r.push(format!(
        "  core (LSQ calls)      {:>10.1} ms {:>5.1}%",
        budget.core / 1e6,
        pct(budget.core)
    ));
    r.push(format!(
        "  workloads (trace)     {:>10.1} ms {:>5.1}%",
        budget.trace / 1e6,
        pct(budget.trace)
    ));
    r.push(format!(
        "  clock brackets        {:>10.1} ms {:>5.1}%",
        budget.clock / 1e6,
        pct(budget.clock)
    ));
    r.push(format!(
        "  sim (pipeline, rest)  {:>10.1} ms {:>5.1}%",
        budget.residual / 1e6,
        pct(budget.residual)
    ));
    r.push(format!(
        "untraced wall {:.1} ms; traced/untraced {:.3}, calibrated {:.3}",
        agg.direct_ns as f64 / 1e6,
        ratio(budget.wall, agg.direct_ns as f64),
        ratio(budget.wall - budget.clock, agg.direct_ns as f64)
    ));
    r.push(format!(
        "{:<40} {:>10} {:>10}",
        "point", "core.share", "tick.share"
    ));
    for (p, s) in points.iter().zip(&agg.per_point) {
        let (core, tick) = s.shares(&clock);
        r.push(format!("{:<40} {core:>10.3} {tick:>10.3}", p.label()));
    }
}

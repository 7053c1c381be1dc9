//! `samie-exp` — regenerate the paper's tables and figures, and run
//! design-space sweeps beyond them. Simulator throughput is measured by
//! the separate `perfbench` package (see `perfbench/README.md`).
//!
//! The whole command line is one table, [`COMMANDS`]. Each row is a
//! subcommand family: the words that select it, the flags it accepts,
//! its defaults (run length and `--out`), its usage text and its
//! handler. One loop ([`parse`]) reads every command line against that
//! table and `--help` is rendered from it, so `samie-exp --help` is the
//! reference for every subcommand.
//!
//! A flag left out takes its subcommand's default; an explicit
//! `--instrs`/`--warmup` overrides `--quick` whatever their order.
//! Usage errors print one line on stderr and exit 2: an unknown command
//! or flag, a known flag the subcommand does not take (`store --instrs
//! 5`), or a value that does not parse (`--jobs abc`, `--designs ,`).
//! The other exit codes are listed in `docs/REPRODUCING.md`.
//!
//! `sweep` and `report` consult the content-addressed experiment store
//! at `--store DIR` (default `.samie-store`) and only simulate cache
//! misses; `--no-cache` forces full recomputation.

use std::path::PathBuf;

use exp_harness::experiment::{BenchSel, ExperimentSpec};
use exp_harness::fuzz::{run_fuzz, FuzzConfig};
use exp_harness::report::{build_pages, generate_book, ReportOptions};
use exp_harness::runner::{PointCache, RunConfig, Runner};
use exp_harness::session::SimSession;
use exp_harness::sweep::run_sweep;
use exp_harness::table::Table;
use exp_harness::{DesignSpec, SIM_VERSION};
use spec_traces::{find_workload, Workload};

/// One subcommand family of the table.
struct Command {
    /// The words that select it (the paper artefacts share one row).
    names: &'static [&'static str],
    /// Positional arguments after the command word; empty means none
    /// are accepted.
    args: &'static str,
    /// The flags it accepts, each followed by the placeholder `--help`
    /// shows for its value (none for a switch); any other known flag is a
    /// usage error.
    flags: &'static str,
    /// Run length and seed for whatever `--quick`/`--instrs`/`--warmup`/
    /// `--seed` leave unset.
    rc: fn() -> RunConfig,
    /// `--out` when unset.
    out: &'static str,
    /// The handler; returns the process exit code.
    run: fn(&Invocation) -> i32,
    /// What it does, for `--help`.
    about: &'static str,
}

/// The `samie-exp` command table.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command {
        // The slugs of the book's pages (`report::PAGES`), in book order.
        names: &["tab1", "delay", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                 "fig10", "fig11", "fig12", "tab456", "summary", "realprog", "all"],
        args: "", flags: "--instrs N --warmup N --seed N --quick --out DIR --chart",
        rc: RunConfig::default, out: "results", run: run_paper_command,
        about: "emit the tables of one book page as CSV: tab1 cache access times, delay §3.6 LSQ \
                delays, fig1 ARB vs unbounded, fig3/fig4 SharedLSQ sizing, fig5..fig12 paired \
                IPC/energy/area, tab456 energy and area constants, summary headline numbers, \
                realprog the RV32I(M) programs; all (the default command) emits every page",
    },
    Command {
        names: &["sweep"], args: "",
        flags: "--exp SPEC --designs LIST --bench LIST --seeds LIST --seed N --instrs N \
                --warmup N --quick --jobs N --out DIR --store DIR --no-cache",
        rc: RunConfig::default, out: "results", run: run_sweep_command,
        about: "design-space grid (designs x workloads x seeds) -> CSV, BENCH_sweep.json and the \
                byte-comparable BENCH_sweep.det.{json,csv}; --exp takes a whole experiment spec \
                (`design=conv:128,samie bench=gzip,swim seed=1,2 cfg=rob:128`) whose fields the \
                other flags override",
    },
    Command {
        names: &["designs"], args: "", flags: "",
        rc: RunConfig::default, out: "results", run: run_designs_command,
        about: "list every registered design kind and its spec syntax",
    },
    Command {
        names: &["fuzz"], args: "",
        flags: "--iters N --seed N --instrs N --warmup N --quick --jobs N --out DIR",
        rc: || FuzzConfig::default().rc, out: "results", run: run_fuzz_command,
        about: "oracle-differential fuzzing of every design family; mismatches are shrunk to \
                .strc repro traces under --out and exit 4",
    },
    Command {
        names: &["record"], args: "",
        flags: "--bench NAME --designs LIST --seed N --instrs N --warmup N --quick --out DIR",
        rc: RunConfig::quick, out: "results", run: run_record_command,
        about: "capture the trace a session consumes to <out>/<bench>-s<seed>.strc; replay it \
                with sweep --bench @FILE.strc",
    },
    Command {
        names: &["report"], args: "",
        flags: "--seed N --instrs N --warmup N --quick --out DIR --store DIR --no-cache \
                --expect-warm X",
        rc: RunConfig::default, out: "docs/book", run: run_report_command,
        about: "regenerate the reproduction book as Markdown + SVG through the experiment \
                store; --expect-warm X exits 5 unless every point hit the store with a warm \
                speedup >= X",
    },
    Command {
        names: &["store"], args: "", flags: "--store DIR --gc --dump",
        rc: RunConfig::default, out: "results", run: run_store_command,
        about: "inspect the experiment store; --gc deletes corrupt and version-stale entries, \
                --dump prints every entry in sorted text form (timing excluded)",
    },
    Command {
        names: &["analyze"], args: "", flags: "",
        rc: RunConfig::default, out: "results", run: run_analyze_command,
        about: "run the repo-specific static-analysis lints over the workspace; writes \
                ANALYZE_report.json and exits 6 on findings",
    },
    Command {
        names: &["rv"], args: "asm FILE.s | rv run <FILE.s|rv:NAME>",
        flags: "--designs LIST --seed N --instrs N --warmup N --quick",
        rc: RunConfig::quick, out: "results", run: run_rv_command,
        about: "assemble an RV32I(M) program and print its listing, or run it through every \
                design on the identical trace under the architectural oracle",
    },
];

impl Command {
    /// Whether this subcommand accepts `flag`.
    fn takes(&self, flag: &str) -> bool {
        self.flags.split_whitespace().any(|f| f == flag)
    }
}

/// The flags of one command line as given: `None`/`false` where left
/// out, except that `--quick` fills in whichever of `instrs`/`warmup`
/// is not given explicitly.
#[derive(Default)]
struct Flags {
    exp: Option<String>,
    designs: Option<String>,
    bench: Option<String>,
    seeds: Option<String>,
    seed: Option<u64>,
    instrs: Option<u64>,
    warmup: Option<u64>,
    iters: Option<u64>,
    out: Option<PathBuf>,
    store: Option<PathBuf>,
    expect_warm: Option<f64>,
    jobs: usize,
    quick: bool,
    chart: bool,
    no_cache: bool,
    gc: bool,
    dump: bool,
}

/// A parsed command line.
struct Invocation {
    cmd: &'static Command,
    /// The command word as typed (a paper id selects its emitters).
    word: &'static str,
    positionals: Vec<String>,
    flags: Flags,
}

impl Invocation {
    /// The run length: the flags given, then the subcommand's default.
    fn rc(&self) -> RunConfig {
        let default = (self.cmd.rc)();
        RunConfig {
            instrs: self.flags.instrs.unwrap_or(default.instrs),
            warmup: self.flags.warmup.unwrap_or(default.warmup),
            seed: self.flags.seed.unwrap_or(default.seed),
        }
    }

    fn out(&self) -> PathBuf {
        let out = self.flags.out.as_deref();
        out.unwrap_or(self.cmd.out.as_ref()).to_path_buf()
    }

    fn store(&self) -> PathBuf {
        let store = self.flags.store.as_deref();
        store.unwrap_or(".samie-store".as_ref()).to_path_buf()
    }
}

/// Parse a command line (program name excluded) against [`COMMANDS`].
/// `Ok(None)` asks for `--help`; `Err` is a one-line usage error.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<Invocation>, String> {
    let mut it = args.into_iter();
    let mut cmd = None;
    let mut positionals = Vec::new();
    let mut given = Vec::new();
    let mut f = Flags::default();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            match cmd {
                None => cmd = Some(lookup(&a)?),
                Some(_) => positionals.push(a),
            }
            continue;
        }
        match a.as_str() {
            "--help" | "-h" => return Ok(None),
            "--exp" => f.exp = Some(flag_value(&mut it, &a, "an experiment spec")?),
            "--designs" => f.designs = Some(flag_value(&mut it, &a, "a design list")?),
            "--bench" => f.bench = Some(flag_value(&mut it, &a, "a workload list")?),
            "--seeds" => f.seeds = Some(flag_value(&mut it, &a, "a seed list")?),
            "--seed" => f.seed = Some(flag_value(&mut it, &a, "a number")?),
            "--instrs" => match flag_value(&mut it, &a, "a number")? {
                // A zero-length measurement divides by zero in every table.
                0 => return Err("--instrs: expected a positive number, got `0`".into()),
                n => f.instrs = Some(n),
            },
            "--warmup" => f.warmup = Some(flag_value(&mut it, &a, "a number")?),
            "--quick" => f.quick = true,
            "--iters" => f.iters = Some(flag_value(&mut it, &a, "a number")?),
            "--jobs" => f.jobs = flag_value(&mut it, &a, "a number")?,
            "--out" => f.out = Some(flag_value(&mut it, &a, "a directory")?),
            "--chart" => f.chart = true,
            "--store" => f.store = Some(flag_value(&mut it, &a, "a directory")?),
            "--no-cache" => f.no_cache = true,
            "--gc" => f.gc = true,
            "--dump" => f.dump = true,
            "--expect-warm" => f.expect_warm = Some(flag_value(&mut it, &a, "a number")?),
            _ => return Err(format!("unexpected argument `{a}`")),
        }
        given.push(a);
    }
    let (cmd, word) = match cmd {
        Some(found) => found,
        None => lookup("all")?,
    };
    if let Some(flag) = given.iter().find(|g| !cmd.takes(g)) {
        return Err(format!("`{flag}` does not apply to `{word}`"));
    }
    if let Some(extra) = positionals.first().filter(|_| cmd.args.is_empty()) {
        return Err(format!("unexpected argument `{extra}`"));
    }
    if f.quick {
        let quick = RunConfig::quick();
        f.instrs = f.instrs.or(Some(quick.instrs));
        f.warmup = f.warmup.or(Some(quick.warmup));
    }
    Ok(Some(Invocation {
        cmd,
        word,
        positionals,
        flags: f,
    }))
}

/// The table row selected by `word`, or an unknown-command error with
/// a typo hint (the closest command within edit distance 2).
fn lookup(word: &str) -> Result<(&'static Command, &'static str), String> {
    for cmd in COMMANDS {
        if let Some(name) = cmd.names.iter().find(|n| **n == word) {
            return Ok((cmd, name));
        }
    }
    let known: Vec<&str> = COMMANDS.iter().flat_map(|c| c.names.to_vec()).collect();
    let closest = known
        .iter()
        .map(|k| (edit_distance(word, k), k))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d);
    Err(match closest {
        Some((_, best)) => format!("unknown command `{word}` (did you mean `{best}`?)"),
        None => format!("unknown command `{word}` (known: {})", known.join(", ")),
    })
}

/// `--help`: one entry per table row.
fn help() -> String {
    let mut text = String::from("usage: samie-exp <command> [flags]\n");
    for cmd in COMMANDS {
        let mut usage = vec![cmd.names.join("|")];
        if !cmd.args.is_empty() {
            usage.push(cmd.args.to_string());
        }
        for word in cmd.flags.split_whitespace() {
            match usage.last_mut() {
                // A placeholder joins the flag before it: `[--out DIR]`.
                Some(last) if !word.starts_with("--") => {
                    last.insert_str(last.len() - 1, &format!(" {word}"))
                }
                _ => usage.push(format!("[{word}]")),
            }
        }
        text.push_str(&format!("\n  {}\n      {}\n", usage.join(" "), cmd.about));
    }
    text
}

/// Plain Levenshtein distance over bytes (commands are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.bytes().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.bytes().enumerate() {
            // samie-allow(panic-hygiene): j < b.len(); prev holds b.len() + 1 entries, cur j + 1
            let (diag, up, left) = (prev[j], prev[j + 1], cur[j]);
            cur.push((diag + usize::from(ca != cb)).min(up + 1).min(left + 1));
        }
        prev = cur;
    }
    prev.last().copied().unwrap_or(0)
}

/// End the process with a one-line usage error (exit 2).
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}; run with --help");
    std::process::exit(2);
}

/// The value after `flag`, parsed; a missing or malformed value is a
/// usage error naming the flag and what it expected.
fn flag_value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    expected: &str,
) -> Result<T, String> {
    let Some(raw) = it.next() else {
        return Err(format!("{flag}: expected {expected}, got nothing"));
    };
    raw.parse()
        .map_err(|_| format!("{flag}: expected {expected}, got `{raw}`"))
}

/// The session `record` and `rv run` share: every `--designs` entry
/// (default: all six families) on the identical trace of `workload`, at
/// the invocation's run length. Also returns the design count.
fn design_session(
    inv: &Invocation,
    workload: &Workload,
) -> Result<(SimSession<'static>, usize), String> {
    let list = inv.flags.designs.as_deref();
    let list = list.unwrap_or("conv:128,filtered,samie,arb,unbounded,oracle");
    let designs = DesignSpec::parse_list(list).map_err(|e| e.to_string())?;
    let Some((first, rest)) = designs.split_first() else {
        return Err(format!("--designs: expected a design list, got `{list}`"));
    };
    let session = SimSession::new(first, workload).run_config(inv.rc());
    Ok((rest.iter().fold(session, |s, d| s.design(d)), designs.len()))
}

/// `designs` entry point: list every design kind the parser accepts.
fn run_designs_command(_: &Invocation) -> i32 {
    println!("registered design kinds (comma-separate specs for --designs):");
    for (kind, help) in DesignSpec::KINDS {
        println!("  {kind:<14} {help}");
    }
    0
}

/// `fuzz` entry point; returns the process exit code (4 on mismatch).
fn run_fuzz_command(inv: &Invocation) -> i32 {
    let cfg = FuzzConfig {
        iters: inv.flags.iters.unwrap_or(200),
        seed: inv.flags.seed.unwrap_or(FuzzConfig::default().seed),
        // Per-iteration seeds derive from the campaign seed.
        rc: RunConfig {
            seed: 0,
            ..inv.rc()
        },
        jobs: inv.flags.jobs,
        out: Some(inv.out()),
    };
    eprintln!(
        "fuzz: {} iterations (seed {}, {} + {} instrs each) x every design family vs oracle + unbounded",
        cfg.iters, cfg.seed, cfg.rc.warmup, cfg.rc.instrs
    );
    let report = run_fuzz(&cfg);
    if report.clean() {
        println!(
            "fuzz: {} iterations, zero design-vs-oracle mismatches",
            report.iters
        );
        return 0;
    }
    println!(
        "fuzz: {} MISMATCHES in {} iterations",
        report.mismatches.len(),
        report.iters
    );
    for m in &report.mismatches {
        println!(
            "  iter {} (workload `{}`, shrunk to {} ops{}):",
            m.iter,
            m.workload,
            m.repro_ops,
            m.repro
                .as_ref()
                .map(|p| format!(", repro {}", p.display()))
                .unwrap_or_default(),
        );
        for f in &m.failures {
            println!("    - {f}");
        }
        if let Some(p) = &m.repro {
            println!("    replay: samie-exp sweep --bench @{}", p.display());
        }
    }
    4
}

/// `record` entry point: capture the trace a session consumes.
fn run_record_command(inv: &Invocation) -> i32 {
    let bench = inv.flags.bench.as_deref().unwrap_or("gzip");
    let setup = find_workload(bench)
        .map_err(|e| e.to_string())
        .and_then(|w| Ok((design_session(inv, &w)?.0, w)));
    let (session, workload) = match setup {
        Ok(s) => s,
        Err(e) => {
            eprintln!("record: {e}");
            return 2;
        }
    };
    let path = inv
        .out()
        .join(format!("{}-s{}.strc", workload.name(), inv.rc().seed));
    let report = session.run();
    if let Err(e) = workload.write_strc(report.seed, report.ops_consumed, &path) {
        eprintln!("record: cannot write {}: {e}", path.display());
        return 1;
    }
    for run in &report.runs {
        println!("  {:<28} ipc {:.4}", run.id, run.stats.ipc());
    }
    println!(
        "recorded {} ops of `{}` -> {}",
        report.ops_consumed,
        report.workload,
        path.display()
    );
    println!("replay:  samie-exp sweep --bench @{}", path.display());
    0
}

/// Open the experiment store for a cache-consulting command: the cache,
/// or `None` under `--no-cache` or when the store cannot be opened. An
/// open failure is also returned as its reason, so the command can
/// repeat it in its final report instead of letting a mid-scroll
/// warning silently degrade the run.
fn open_cache(inv: &Invocation) -> (Option<PointCache>, Option<String>) {
    if inv.flags.no_cache {
        return (None, None);
    }
    let store = inv.store();
    match PointCache::open(&store) {
        Ok(c) => (Some(c), None),
        Err(e) => {
            let reason = format!("cannot open experiment store {} ({e})", store.display());
            eprintln!("warning: {reason}; running uncached");
            (None, Some(reason))
        }
    }
}

/// Resolve the experiment for `sweep`: start from `--exp` (or the
/// default grid), then let the explicit flags override individual
/// fields.
fn build_spec(inv: &Invocation) -> Result<ExperimentSpec, String> {
    let f = &inv.flags;
    let mut spec = match &f.exp {
        Some(s) => s.parse::<ExperimentSpec>().map_err(|e| e.to_string())?,
        None => ExperimentSpec::sweep_default(inv.rc()),
    };
    if let Some(n) = f.instrs {
        spec.instrs = n;
    }
    if let Some(n) = f.warmup {
        spec.warmup = n;
    }
    if let Some(d) = &f.designs {
        spec.designs = DesignSpec::parse_list(d).map_err(|e| e.to_string())?;
    }
    if let Some(b) = &f.bench {
        spec.benches = BenchSel::parse_bench_list(b).map_err(|e| e.to_string())?;
    }
    match (f.seed, &f.seeds) {
        (Some(_), Some(_)) => return Err("give --seed or --seeds, not both".into()),
        (Some(seed), None) => spec.seeds = vec![seed],
        (None, Some(s)) => {
            spec.seeds = s
                .split(',')
                .filter(|x| !x.is_empty())
                .map(|x| x.parse().map_err(|_| format!("bad seed `{x}`")))
                .collect::<Result<_, _>>()?;
        }
        (None, None) => {}
    }
    spec.validate()?;
    Ok(spec)
}

/// `sweep` entry point; returns the process exit code.
fn run_sweep_command(inv: &Invocation) -> i32 {
    let spec = match build_spec(inv) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweep: {e}");
            return 2;
        }
    };
    let grid = match spec.to_grid() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("sweep: {e}");
            return 2;
        }
    };
    let (cache, failure) = open_cache(inv);
    let n = spec.points();
    eprintln!(
        "sweep: {} designs x {} benchmarks x {} seeds = {n} points ({} + {} instrs each)",
        grid.designs.len(),
        grid.benchmarks.len(),
        grid.seeds.len(),
        spec.warmup,
        spec.instrs,
    );
    let runner = cache.as_ref().map_or(Runner::direct(), Runner::cached);
    let report = run_sweep(&grid, inv.flags.jobs, &runner);
    println!("{}", report.table().render());
    if let Some(c) = &cache {
        println!(
            "{} [store {}]",
            report.cache_summary(),
            c.store().root().display()
        );
    }
    if let Some(reason) = &failure {
        // Repeated at the tail on purpose: the warning at open time
        // scrolls away under the sweep's progress output.
        println!("store UNAVAILABLE — ran uncached: {reason}");
    }
    println!(
        "total: {} simulated instructions in {:.2} s = {:.2} Msim-instr/s",
        report.total_instructions(),
        report.wall.as_secs_f64(),
        report.total_sim_ips() / 1e6,
    );
    match report.write(&inv.out()) {
        Ok(p) => {
            eprintln!("  -> {}", p.display());
            0
        }
        Err(e) => {
            eprintln!("sweep: json not written: {e}");
            1
        }
    }
}

/// `report` entry point: regenerate the reproduction book.
fn run_report_command(inv: &Invocation) -> i32 {
    let (rc, out, expect_warm) = (inv.rc(), inv.out(), inv.flags.expect_warm);
    let (cache, failure) = open_cache(inv);
    if let Some(reason) = &failure {
        if expect_warm.is_some() {
            // A warm-gate run that cannot even open the store can only
            // fail the gate after simulating everything — refuse early.
            eprintln!("--expect-warm needs the store: {reason}");
            return 5;
        }
    }
    let mut opts = ReportOptions::new(rc, &out);
    if let Some(c) = &cache {
        opts.runner = Runner::cached(c);
    }
    eprintln!(
        "report: {} benchmarks, {} + {} instrs per point (seed {}) -> {}",
        opts.suite.len(),
        rc.warmup,
        rc.instrs,
        rc.seed,
        out.display()
    );
    let book = match generate_book(&opts) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("report failed: {e}");
            return 1;
        }
    };
    println!(
        "wrote {} files to {} in {:.2} s",
        book.pages.len(),
        out.display(),
        book.wall.as_secs_f64()
    );
    if let Some(reason) = &failure {
        println!("store UNAVAILABLE — book regenerated uncached: {reason}");
    }
    if let Some(c) = &cache {
        let speedup = if book.wall.as_secs_f64() > 0.0 {
            c.saved().as_secs_f64() / book.wall.as_secs_f64()
        } else {
            0.0
        };
        println!(
            "cache: {} hits / {} misses; saved ~{:.2} s of simulation (warm speedup ~{speedup:.0}x) [store {}]",
            c.hits(),
            c.misses(),
            c.saved().as_secs_f64(),
            c.store().root().display()
        );
        if let Some(want) = expect_warm {
            if c.misses() > 0 {
                eprintln!("EXPECTED WARM RUN: {} points missed the cache", c.misses());
                return 5;
            }
            if speedup < want {
                eprintln!("EXPECTED WARM SPEEDUP >= {want:.0}x, measured ~{speedup:.0}x");
                return 5;
            }
            println!("warm gate OK: all hits, speedup ~{speedup:.0}x >= {want:.0}x");
        }
    } else if expect_warm.is_some() {
        eprintln!("--expect-warm requires the cache (drop --no-cache)");
        return 5;
    }
    0
}

/// `store` entry point: inspect or garbage-collect the experiment store.
fn run_store_command(inv: &Invocation) -> i32 {
    let root = inv.store();
    let cache = match PointCache::open(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot open experiment store {}: {e}", root.display());
            return 1;
        }
    };
    let store = cache.store();
    if inv.flags.dump {
        // Deterministic text form of every entry, sorted, timing
        // excluded — two stores holding the same results dump
        // byte-identical text.
        match store.dump_deterministic() {
            Ok(text) => {
                print!("{text}");
                return 0;
            }
            Err(e) => {
                eprintln!("cannot dump store: {e}");
                return 1;
            }
        }
    }
    if inv.flags.gc {
        match store.gc(SIM_VERSION) {
            Ok(r) => {
                println!(
                    "gc: kept {}, removed {} stale + {} corrupt, freed {} bytes",
                    r.kept, r.removed_stale, r.removed_corrupt, r.bytes_freed
                );
                return 0;
            }
            Err(e) => {
                eprintln!("gc failed: {e}");
                return 1;
            }
        }
    }
    let (entries, bytes) = match (store.len(), store.disk_bytes()) {
        (Ok(n), Ok(b)) => (n, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cannot read store: {e}");
            return 1;
        }
    };
    println!(
        "store {}: {entries} entries, {:.1} KiB (sim version {SIM_VERSION})",
        store.root().display(),
        bytes as f64 / 1024.0
    );
    let mut rows = match store.index() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot read index: {e}");
            return 1;
        }
    };
    // The index is a convenience the entries can always regenerate:
    // concurrent appenders (or a crash between publish and append) can
    // leave it short or duplicated — heal it on sight.
    if rows.len() != entries {
        eprintln!(
            "index lists {} of {entries} entries; rebuilding it from the entry files",
            rows.len()
        );
        match store.rebuild_index().and_then(|_| store.index()) {
            Ok(r) => rows = r,
            Err(e) => {
                eprintln!("cannot rebuild index: {e}");
                return 1;
            }
        }
    }
    let mut by_design: Vec<(String, usize)> = Vec::new();
    let mut by_version: Vec<(String, usize)> = Vec::new();
    for row in &rows {
        match by_design.iter_mut().find(|(d, _)| *d == row.design) {
            Some((_, n)) => *n += 1,
            None => by_design.push((row.design.clone(), 1)),
        }
        match by_version.iter_mut().find(|(v, _)| *v == row.sim_version) {
            Some((_, n)) => *n += 1,
            None => by_version.push((row.sim_version.clone(), 1)),
        }
    }
    let mut t = Table::new(
        "Experiment store - points per design",
        &["design", "points"],
    );
    for (d, n) in by_design {
        t.push_row(vec![d, n.to_string()]);
    }
    println!("{}", t.render());
    for (v, n) in by_version {
        let stale = if v == SIM_VERSION {
            ""
        } else {
            "  (stale - `samie-exp store --gc` reclaims)"
        };
        println!("version {v}: {n} points{stale}");
    }
    0
}

/// `rv` entry point: the real-ISA frontend — assemble a program for
/// inspection, or run one through the designs under the architectural
/// oracle. Returns the process exit code (2 on usage or assembly error).
fn run_rv_command(inv: &Invocation) -> i32 {
    let usage = format!("usage: samie-exp rv {}", inv.cmd.args);
    match inv.positionals.as_slice() {
        [verb, target] if verb == "asm" => run_rv_asm(target),
        [verb, target] if verb == "run" => run_rv_run(inv, target),
        [other, _] => {
            eprintln!("unknown rv subcommand `{other}`; {usage}");
            2
        }
        _ => {
            eprintln!("{usage}");
            2
        }
    }
}

/// `rv asm`: assemble and print the listing + symbol table.
fn run_rv_asm(path: &str) -> i32 {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let image = match rv_front::assemble(path, &source) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    for (i, &word) in image.text.iter().enumerate() {
        let pc = rv_front::TEXT_BASE + 4 * i as u32;
        // Every assembled word decodes back (encode/decode are inverses),
        // so the listing shows the canonical disassembly.
        let asm = rv_front::decode(word)
            .map(|ins| ins.asm())
            .unwrap_or_else(|_| "<raw>".into());
        println!("{pc:08x}: {word:08x}  {asm}");
    }
    let mut labels: Vec<(&String, &u32)> = image.labels.iter().collect();
    labels.sort_by_key(|&(_, addr)| *addr);
    for (name, addr) in labels {
        println!("{addr:08x}  {name}");
    }
    println!(
        "{} instructions, {} data bytes, {} labels",
        image.text.len(),
        image.data.len(),
        image.labels.len()
    );
    0
}

/// `rv run`: emulate a real program and compare every design on its
/// retired-op trace, oracle-checked.
fn run_rv_run(inv: &Invocation, target: &str) -> i32 {
    let workload = if target.ends_with(".s") {
        let source = match std::fs::read_to_string(target) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {target}: {e}");
                return 2;
            }
        };
        let stem = std::path::Path::new(target)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("program");
        Workload::rv_source(&format!("rv:{stem}"), target, &source).map_err(|e| e.to_string())
    } else {
        find_workload(target).map_err(|e| e.to_string())
    };
    let workload = match workload {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let Some(rv) = workload.rv() else {
        eprintln!(
            "`{}` is not a real program; `rv run` takes a .s file or an rv:* entry (e.g. rv:quicksort)",
            workload.name()
        );
        return 2;
    };
    let (session, n_designs) = match design_session(inv, &workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rv run: {e}");
            return 2;
        }
    };
    let rc = inv.rc();
    // samie-allow(panic-hygiene): regs is a [u32; 32] register file; x10 (a0) always exists
    let a0 = rv.record.state.regs[10];
    eprintln!(
        "rv: `{}` retires {} ops/pass ({:?}-halt, a0 = {a0:#x}); {} + {} instrs x {n_designs} designs",
        workload.name(),
        rv.period(),
        rv.record.halt,
        rc.warmup,
        rc.instrs,
    );
    let report = session.arch_oracle().run();
    for run in &report.runs {
        println!(
            "  {:<28} ipc {:.4}  committed {}",
            run.id,
            run.stats.ipc(),
            run.stats.committed
        );
    }
    if let Some(summary) = &report.arch_oracle {
        println!("{summary}");
    }
    0
}

/// `analyze` entry point: run the repo-specific lints
/// (`samie-analyzer`) over the workspace, always denying findings —
/// the standalone `samie-analyze` binary has the permissive flags.
fn run_analyze_command(_: &Invocation) -> i32 {
    let mut root = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    loop {
        if root.join("Cargo.toml").exists() && root.join("ROADMAP.md").exists() {
            break;
        }
        if !root.pop() {
            eprintln!("analyze: cannot find the workspace root (run inside the repo)");
            return 2;
        }
    }
    let opts = samie_analyzer::AnalyzeOptions {
        root: root.clone(),
        only: None,
    };
    let report = match samie_analyzer::analyze(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze: {e}");
            return 1;
        }
    };
    for f in &report.findings {
        println!("{f}");
    }
    let json = root.join("ANALYZE_report.json");
    if let Err(e) = std::fs::write(&json, samie_analyzer::render_json(&report)) {
        eprintln!("analyze: cannot write {}: {e}", json.display());
        return 1;
    }
    eprintln!(
        "analyze: {} finding(s), {} suppressed, {} files, {} lints -> {}",
        report.findings.len(),
        report.suppressed.len(),
        report.files_scanned,
        report.lints_run.len(),
        json.display()
    );
    if report.findings.is_empty() {
        0
    } else {
        6
    }
}

fn emit(t: &Table, out: &std::path::Path, chart: bool) -> std::io::Result<()> {
    println!("{}", t.render());
    if chart && t.headers.len() >= 2 {
        // Chart the last column against the first (the key series of
        // every figure table).
        println!(
            "{}",
            exp_harness::table::bar_chart(t, 0, t.headers.len() - 1, 50)
        );
    }
    eprintln!("  -> {}", t.write_csv(out)?.display());
    Ok(())
}

/// Paper-artefact entry point: emit the tables of the book page whose
/// slug was typed, or of every page for `all`, in book order.
fn run_paper_command(inv: &Invocation) -> i32 {
    let (exp, rc, out, chart) = (inv.word, inv.rc(), inv.out(), inv.flags.chart);
    // Refuse an unusable --out before simulating anything.
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("{exp}: cannot write to {}: {e}", out.display());
        return 1;
    }
    eprintln!(
        "running `{exp}` with {} measured / {} warm-up instructions per benchmark (seed {})",
        rc.instrs, rc.warmup, rc.seed
    );
    let opts = ReportOptions::new(rc, &out);
    let emitted = build_pages(
        &opts,
        |page| exp == "all" || page.slug == exp,
        |_, tables| tables.iter().try_for_each(|t| emit(t, &out, chart)),
    );
    match emitted {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{exp} failed: {e}");
            1
        }
    }
}

fn main() {
    let inv = match parse(std::env::args().skip(1)) {
        Ok(Some(inv)) => inv,
        Ok(None) => {
            eprint!("{}", help());
            std::process::exit(0);
        }
        Err(e) => usage_error(&e),
    };
    std::process::exit((inv.cmd.run)(&inv));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Option<Invocation>, String> {
        parse(words.iter().map(|w| w.to_string()))
    }

    fn rc_of(words: &[&str]) -> (u64, u64) {
        let Ok(Some(inv)) = parse_words(words) else {
            panic!("{words:?} does not parse")
        };
        (inv.rc().instrs, inv.rc().warmup)
    }

    /// Every flag of the table, with whether it takes a value. A flag
    /// given a placeholder in one row but not in another shows up twice.
    fn known_flags() -> Vec<(&'static str, bool)> {
        let mut known = Vec::new();
        for cmd in COMMANDS {
            let words: Vec<&str> = cmd.flags.split_whitespace().collect();
            for (k, flag) in words
                .iter()
                .enumerate()
                .filter(|(_, w)| w.starts_with("--"))
            {
                let value = words.get(k + 1).is_some_and(|w| !w.starts_with("--"));
                known.push((*flag, value));
            }
        }
        known.sort_unstable();
        known.dedup();
        known
    }

    /// Every (subcommand, flag) pair: a flag in the row parses, any
    /// other known flag is a usage error naming both.
    #[test]
    fn flags_outside_a_row_are_rejected_naming_both() {
        let known = known_flags();
        assert_eq!(known.len(), 17);
        let mut accepted = 0;
        for cmd in COMMANDS {
            let word = cmd.names[0];
            for &(flag, value) in &known {
                let words = [word, flag, "1"];
                let words = &words[..if value { 3 } else { 2 }];
                match parse_words(words) {
                    Ok(Some(_)) if cmd.takes(flag) => accepted += 1,
                    Err(e) if !cmd.takes(flag) => {
                        assert!(e.contains(flag) && e.contains(word), "{words:?}: {e}")
                    }
                    _ => panic!("{words:?} parsed wrongly"),
                }
            }
        }
        assert_eq!(accepted, 48);
    }

    #[test]
    fn paper_ids_are_the_book_page_slugs_plus_all() {
        let row = COMMANDS.iter().find(|c| c.names.contains(&"all"));
        let slugs = exp_harness::report::PAGES.iter().map(|p| p.slug);
        let expected: Vec<&str> = slugs.chain(["all"]).collect();
        assert_eq!(row.map(|c| c.names), Some(&expected[..]));
    }

    #[test]
    fn run_length_defaults_per_row_and_explicit_flags_beat_quick() {
        let (full, fuzz, quick) = (
            RunConfig::default(),
            FuzzConfig::default().rc,
            RunConfig::quick(),
        );
        let q = (quick.instrs, quick.warmup);
        assert_eq!(rc_of(&["fig5"]), (full.instrs, full.warmup));
        assert_eq!(rc_of(&["fuzz"]), (fuzz.instrs, fuzz.warmup));
        assert_eq!(rc_of(&["--quick"]), q);
        assert_eq!(rc_of(&["rv", "run", "rv:sieve"]), q);
        assert_eq!(rc_of(&["record", "--instrs", "9"]), (9, q.1));
        assert_eq!(rc_of(&["fig5", "--instrs", "9", "--quick"]), (9, q.1));
        assert_eq!(rc_of(&["fig5", "--quick", "--instrs", "9"]), (9, q.1));
    }
}

//! The traced run: per-layer spans around the simulator's two generic
//! seams, and isolated replays of the layers the simulator calls
//! internally or the harness calls once per point.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use energy_model::{dcache_energy_nj, dtlb_energy_nj, price_lsq};
use exp_harness::runner::PointCache;
use exp_harness::table::Table;
use exp_store::{ExperimentStore, PointKey, StoredPoint};
use mem_hier::{AccessKind, DataMemory, DcacheAccessMode};
use ooo_sim::SimStats;
use rv_front::ArchOracle;

use crate::metrics::Values;
use crate::sim::{
    cached_pass, panic_message, range_failures, run_point, stored_points, stream_failures, Checks,
    LayerSpans, Run,
};
use crate::stats::{median, ratio};
use crate::suite::{assemble_rv, Point};
use crate::timed::{Clock, LSQ_METHODS, REPORTED_LSQ_METHODS, TICK};

/// Spans and counts summed over every round of the traced run.
#[derive(Debug, Default)]
pub struct TraceAgg {
    /// Rounds completed.
    pub rounds: u64,
    /// Host ns of traced runs.
    pub traced_ns: u64,
    /// Host ns of untraced direct runs.
    pub direct_ns: u64,
    /// Host ns building their trace sources.
    pub direct_build_ns: u64,
    /// Host ns of `SimSession::run` on the same points.
    pub session_ns: u64,
    /// Host ns building trace sources.
    pub build_ns: u64,
    /// Trace builds timed.
    pub builds: u64,
    /// Calls per LSQ method.
    pub lsq_calls: [u64; 16],
    /// Raw ticks per LSQ method.
    pub lsq_ticks: [u64; 16],
    /// Trace pulls.
    pub trace_calls: u64,
    /// Raw ticks of trace pulls.
    pub trace_ticks: u64,
    /// Ops the traces delivered.
    pub trace_ops: u64,
    /// Cycles stepped (not skipped) in the traced runs.
    pub stepped: u64,
    /// Round-0 direct runs (`None` where the point failed).
    pub first: Vec<Option<Run>>,
    /// Round-0 session runs: seconds inside `SimSession::run` and wall
    /// seconds through the store, summed over points.
    pub first_session: (f64, f64),
    /// Round-0 store counters: puts, hits, misses.
    pub store_counts: (u64, u64, u64),
    /// The points round 0 stored, for the store replay.
    pub stored: Vec<(PointKey, StoredPoint)>,
    /// Per point, summed over rounds.
    pub per_point: Vec<PointSpans>,
}

/// One point's traced spans, summed over rounds.
#[derive(Debug, Default, Clone, Copy)]
pub struct PointSpans {
    /// Traced wall ns.
    pub wall_ns: u64,
    /// Clock brackets (LSQ and trace).
    pub brackets: u64,
    /// Raw LSQ ticks and calls.
    pub lsq: (u64, u64),
    /// Raw `tick` ticks and calls.
    pub tick: (u64, u64),
}

impl PointSpans {
    /// Shares of the calibrated wall spent in the LSQ and in `tick`.
    pub fn shares(&self, clock: &Clock) -> (f64, f64) {
        let wall = self.wall_ns as f64 - self.brackets as f64 * clock.per_bracket_ns;
        (
            ratio(clock.corrected(self.lsq.0, self.lsq.1), wall),
            ratio(clock.corrected(self.tick.0, self.tick.1), wall),
        )
    }
}

/// Rounds of (cached session pass, then per point an untraced and a
/// traced direct run) until `deadline`, at least one. Checks: direct and
/// traced `SimStats` equal the session's bit for bit; in round 0 each
/// design commits exactly the trace's op stream.
pub fn traced_rounds(
    points: &[Point],
    seed: u64,
    deadline: Instant,
    work: &Path,
    checks: &mut Checks,
) -> TraceAgg {
    let mut agg = TraceAgg {
        per_point: vec![PointSpans::default(); points.len()],
        ..TraceAgg::default()
    };
    loop {
        let round_start = Instant::now();
        let dir = work.join(format!("trace-store-{}", agg.rounds));
        let cache = match PointCache::open(&dir) {
            Ok(cache) => cache,
            Err(e) => {
                checks.record(1, vec![format!("cannot open a store: {e}")]);
                return agg;
            }
        };
        let mut session_stats = Vec::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            // Session, untraced and traced runs of one point back to back,
            // so drift in the host's speed hits all three alike.
            let one = std::slice::from_ref(p);
            let session = cached_pass(one, seed, &cache, false, None, checks);
            agg.session_ns += (session.sim_secs[0] * 1e9) as u64;
            if agg.rounds == 0 {
                agg.first_session.0 += session.sim_secs[0];
                agg.first_session.1 += session.wall;
            }
            let session = session.stats.into_iter().next().flatten();
            session_stats.push(session.clone());
            let mut failures = Vec::new();
            let direct = catch_unwind(AssertUnwindSafe(|| run_point(p, seed, None)));
            let spans = LayerSpans::default();
            let traced = catch_unwind(AssertUnwindSafe(|| run_point(p, seed, Some(&spans))));
            let (direct, traced) = match (direct, traced) {
                (Ok(d), Ok(t)) => (d, t),
                (Err(e), _) | (_, Err(e)) => {
                    failures.push(format!("{}: panicked: {}", p.label(), panic_message(&*e)));
                    checks.record(1, failures);
                    if agg.rounds == 0 {
                        agg.first.push(None);
                    }
                    continue;
                }
            };
            match &session {
                Some(s) if *s == direct.stats && *s == traced.stats => {}
                Some(_) => failures.push(format!(
                    "{}: session, direct and traced SimStats differ",
                    p.label()
                )),
                None => failures.push(format!("{}: no session result to compare", p.label())),
            }
            failures.extend(range_failures(p, &traced.stats));
            if agg.rounds == 0 {
                failures.extend(stream_failures(p, seed, &direct));
            }
            checks.record(1, failures);

            agg.direct_ns += direct.wall_ns;
            agg.direct_build_ns += direct.build_ns;
            agg.traced_ns += traced.wall_ns;
            agg.build_ns += direct.build_ns + traced.build_ns;
            agg.builds += 2;
            agg.stepped += traced.cycles() - traced.skipped;
            for m in 0..LSQ_METHODS.len() {
                agg.lsq_calls[m] += spans.lsq.calls(m);
                agg.lsq_ticks[m] += spans.lsq.ticks(m);
            }
            agg.trace_calls += spans.trace.calls(0);
            agg.trace_ticks += spans.trace.ticks(0);
            agg.trace_ops += spans.trace.ops();
            let pp = &mut agg.per_point[i];
            pp.wall_ns += traced.wall_ns;
            pp.brackets += spans.lsq.total_calls() + spans.trace.calls(0);
            pp.lsq.0 += spans.lsq.total_ticks();
            pp.lsq.1 += spans.lsq.total_calls();
            pp.tick.0 += spans.lsq.ticks(TICK);
            pp.tick.1 += spans.lsq.calls(TICK);
            if agg.rounds == 0 {
                agg.first.push(Some(direct));
            }
        }
        let warm = cached_pass(points, seed, &cache, true, Some(&session_stats), checks);
        if agg.rounds == 0 {
            let puts = cache.store().counters().published;
            agg.store_counts = (puts, warm.hits, cache.misses());
            let mut failures = Vec::new();
            agg.stored = stored_points(&cache, points.len() as u64, &mut failures);
            checks.record(1, failures);
        }
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
        agg.rounds += 1;
        let round = round_start.elapsed();
        if Instant::now() + round > deadline {
            return agg;
        }
    }
}

/// The traced-run budget: where the traced wall time went.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Traced wall ns.
    pub wall: f64,
    /// LSQ self ns (clock cost subtracted).
    pub core: f64,
    /// Trace-source self ns.
    pub trace: f64,
    /// Clock cost of all brackets.
    pub clock: f64,
    /// Pipeline self ns: the wall not covered by spans or clock cost.
    pub residual: f64,
}

impl Budget {
    /// Split `agg`'s traced wall time.
    pub fn of(agg: &TraceAgg, clock: &Clock) -> Budget {
        let lsq_calls: u64 = agg.lsq_calls.iter().sum();
        let lsq_ns: u64 = agg.lsq_ticks.iter().sum();
        let core = clock.corrected(lsq_ns, lsq_calls);
        let trace = clock.corrected(agg.trace_ticks, agg.trace_calls);
        let brackets = (lsq_calls + agg.trace_calls) as f64;
        let wall = agg.traced_ns as f64;
        let clock_ns = brackets * clock.per_bracket_ns;
        Budget {
            wall,
            core,
            trace,
            clock: clock_ns,
            residual: wall - clock_ns - core - trace,
        }
    }

    /// The accounting must close: spans plus clock cost never exceed
    /// the wall they were measured in, so the residual is not negative.
    pub fn failures(&self) -> Vec<String> {
        if self.residual >= 0.0 {
            Vec::new()
        } else {
            vec![format!(
                "traced spans ({:.0} ns) plus clock cost ({:.0} ns) exceed the traced wall ({:.0} ns)",
                self.core + self.trace,
                self.clock,
                self.wall
            )]
        }
    }
}

fn sum_stats(runs: &[Option<Run>], f: impl Fn(&SimStats) -> u64) -> u64 {
    runs.iter()
        .flatten()
        .map(|r| f(&r.warm) + f(&r.stats))
        .sum()
}

/// Per-layer metrics of the `core`, `workloads` and `sim` layers, the
/// modelled `mem` counters and the session overhead.
pub fn span_metrics(agg: &TraceAgg, clock: &Clock, points: usize, v: &mut Values) {
    let rounds = agg.rounds.max(1) as f64;
    let budget = Budget::of(agg, clock);
    for (m, name) in LSQ_METHODS.iter().enumerate().take(REPORTED_LSQ_METHODS) {
        let calls = agg.lsq_calls[m] as f64;
        v.insert(format!("core.{name}.calls"), calls / rounds);
        v.insert(
            format!("core.{name}.ns_per_call"),
            ratio(clock.corrected(agg.lsq_ticks[m], agg.lsq_calls[m]), calls),
        );
    }
    let corrected_wall = budget.wall - budget.clock;
    v.insert("core.share".into(), ratio(budget.core, corrected_wall));
    v.insert(
        "core.tick.share".into(),
        ratio(
            clock.corrected(agg.lsq_ticks[TICK], agg.lsq_calls[TICK]),
            corrected_wall,
        ),
    );
    let first = &agg.first;
    v.insert(
        "core.forwards".into(),
        sum_stats(first, |s| s.forwarded_loads) as f64,
    );
    v.insert(
        "core.deadlock_flushes".into(),
        sum_stats(first, |s| s.deadlock_flushes) as f64,
    );
    v.insert(
        "core.nospace_flushes".into(),
        sum_stats(first, |s| s.nospace_flushes) as f64,
    );

    v.insert(
        "workloads.build_us".into(),
        ratio(agg.build_ns as f64, agg.builds as f64) / 1e3,
    );
    v.insert("workloads.ops".into(), agg.trace_ops as f64 / rounds);
    v.insert(
        "workloads.ns_per_op".into(),
        ratio(budget.trace, agg.trace_ops as f64),
    );

    let l1d = sum_stats(first, |s| s.l1d.accesses());
    v.insert("mem.l1d_accesses".into(), l1d as f64);
    v.insert(
        "mem.l1d_miss_rate".into(),
        ratio(sum_stats(first, |s| s.l1d.misses()) as f64, l1d as f64),
    );
    v.insert(
        "mem.way_known_frac".into(),
        ratio(
            sum_stats(first, |s| s.l1d.way_known_accesses) as f64,
            l1d as f64,
        ),
    );
    v.insert(
        "mem.l2_misses".into(),
        sum_stats(first, |s| s.l2.misses()) as f64,
    );
    v.insert(
        "mem.dtlb_accesses".into(),
        sum_stats(first, |s| s.dtlb_accesses) as f64,
    );
    v.insert(
        "mem.dtlb_misses".into(),
        sum_stats(first, |s| s.dtlb_misses) as f64,
    );

    let cycles = sum_stats(first, |s| s.cycles) as f64;
    let skipped: u64 = first.iter().flatten().map(|r| r.skipped).sum();
    let committed = sum_stats(first, |s| s.committed) as f64;
    v.insert("sim.cycles".into(), cycles);
    v.insert("sim.stepped_cycles".into(), cycles - skipped as f64);
    v.insert("sim.skipped_frac".into(), ratio(skipped as f64, cycles));
    v.insert("sim.committed".into(), committed);
    v.insert("sim.ipc".into(), ratio(committed, cycles));
    v.insert(
        "sim.mispredicts".into(),
        sum_stats(first, |s| s.mispredicts) as f64,
    );
    v.insert(
        "sim.ns_per_cycle".into(),
        ratio(agg.direct_ns as f64, cycles * rounds),
    );
    v.insert(
        "sim.self_ns_per_stepped_cycle".into(),
        ratio(budget.residual, agg.stepped as f64),
    );
    v.insert(
        "sim.trace_overhead".into(),
        ratio(budget.wall, agg.direct_ns as f64),
    );
    v.insert(
        "sim.calibrated_overhead".into(),
        ratio(corrected_wall, agg.direct_ns as f64),
    );
    v.insert(
        "harness.session_overhead_us".into(),
        (agg.session_ns as f64 - (agg.direct_ns + agg.direct_build_ns) as f64)
            / (points as f64 * rounds)
            / 1e3,
    );
}

/// Replay each point's reference stream (the memory ops of the trace
/// prefix it pulled) through a fresh `DataMemory::paper()`; host ns per
/// access.
pub fn mem_replay(points: &[Point], seed: u64, runs: &[Option<Run>]) -> f64 {
    let (mut ns, mut accesses) = (0u128, 0u64);
    for (p, run) in points.iter().zip(runs) {
        let Some(run) = run else { continue };
        let mut trace = p.workload.build_trace(seed);
        let refs: Vec<(u64, AccessKind)> = (0..run.pulled)
            .filter_map(|_| {
                let op = trace.next_op();
                let kind = if op.class.is_store() {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                op.mem().map(|m| (m.addr, kind))
            })
            .collect();
        let mut mem = DataMemory::paper();
        let t = Instant::now();
        for &(addr, kind) in &refs {
            black_box(mem.access(addr, kind, DcacheAccessMode::CONVENTIONAL));
        }
        ns += t.elapsed().as_nanos();
        accesses += refs.len() as u64;
    }
    ratio(ns as f64, accesses as f64)
}

/// Energy of one point: LSQ, D-cache and D-TLB, in nJ.
fn energy(s: &SimStats) -> [f64; 3] {
    [
        price_lsq(&s.lsq).total(),
        dcache_energy_nj(&s.l1d),
        dtlb_energy_nj(s.dtlb_accesses),
    ]
}

/// Time pricing each point (µs per point) and the modelled savings of
/// SAMIE against the conventional LSQ on identical traces.
pub fn energy_metrics(points: &[Point], runs: &[Option<Run>], v: &mut Values) {
    const REPS: u32 = 2_000;
    let mut times = Vec::new();
    let (mut conv, mut samie) = ([0.0; 3], [0.0; 3]);
    for (p, run) in points.iter().zip(runs) {
        let Some(run) = run else { continue };
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(energy(black_box(&run.stats)));
        }
        times.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
        let sink = match p.design.kind() {
            "conv" => &mut conv,
            "samie" => &mut samie,
            _ => continue,
        };
        for (acc, e) in sink.iter_mut().zip(energy(&run.stats)) {
            *acc += e;
        }
    }
    v.insert("energy.price_us".into(), median(&times));
    for (i, name) in [
        "energy.lsq_saving_pct",
        "energy.dcache_saving_pct",
        "energy.dtlb_saving_pct",
    ]
    .into_iter()
    .enumerate()
    {
        v.insert(name.into(), 100.0 * (1.0 - ratio(samie[i], conv[i])));
    }
}

/// Put every point into a fresh store under `dir`, then read each back:
/// median µs per put and per get, and the bytes on disk.
pub fn store_replay(
    stored: &[(PointKey, StoredPoint)],
    dir: &Path,
    checks: &mut Checks,
) -> (f64, f64, u64) {
    let store = match ExperimentStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            checks.record(1, vec![format!("store replay: cannot open: {e}")]);
            return (0.0, 0.0, 0);
        }
    };
    let mut failures = Vec::new();
    let mut puts = Vec::new();
    for (key, point) in stored {
        let t = Instant::now();
        if let Err(e) = store.put(key, point) {
            failures.push(format!("store replay put: {e}"));
        }
        puts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut gets = Vec::new();
    for (key, point) in stored {
        let t = Instant::now();
        let got = store.get(key);
        gets.push(t.elapsed().as_secs_f64() * 1e6);
        match got {
            Ok(Some(p)) if p == *point => {}
            _ => failures.push(format!(
                "store replay get of {} lost the point",
                key.canonical()
            )),
        }
    }
    let bytes = store.disk_bytes().unwrap_or(0);
    checks.record(stored.len() as u64, failures);
    let _ = std::fs::remove_dir_all(dir);
    (median(&puts), median(&gets), bytes)
}

/// The riscv layer in isolation: assemble and emulate the committed
/// programs, then run the architectural oracle over one pass of each.
/// Returns (pack ms, oracle ms, instructions retired per pass), medians
/// of `reps`.
pub fn rv_replay(reps: usize, checks: &mut Checks) -> (f64, f64, u64) {
    let (mut pack, mut oracle) = (Vec::new(), Vec::new());
    let mut retired = 0;
    let mut failures = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        let programs = assemble_rv();
        pack.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        retired = 0;
        for w in &programs {
            let mut trace = w.trace();
            if let Err(e) = ArchOracle::verify(w)
                .and_then(|_| ArchOracle::verify_stream_prefix(w, &mut trace, w.period()))
            {
                failures.push(format!("{}: {e}", w.name()));
            }
            retired += w.period();
        }
        oracle.push(t.elapsed().as_secs_f64() * 1e3);
    }
    checks.record(reps as u64, failures);
    (median(&pack), median(&oracle), retired)
}

/// Render the points' results as a sweep table (Markdown and CSV); ms.
pub fn render_ms(points: &[Point], runs: &[Option<Run>]) -> f64 {
    let mut times = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        let mut table = Table::new("perfbench", &["point", "ipc", "cycles", "committed"]);
        for (p, run) in points.iter().zip(runs) {
            let Some(run) = run else { continue };
            table.push_row(vec![
                p.label(),
                format!("{:.4}", run.stats.ipc()),
                run.stats.cycles.to_string(),
                run.stats.committed.to_string(),
            ]);
        }
        black_box((table.to_markdown(), table.to_csv()));
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

//! Running points: through the harness as a user's cached sweep does,
//! and directly through `Simulator::new`, untraced or traced.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use exp_harness::runner::PointCache;
use exp_harness::session::SimSession;
use exp_store::{PointKey, StoredPoint};
use ooo_sim::{SimConfig, SimStats, Simulator};
use samie_lsq::{FastPathLsq, LoadStoreQueue};
use trace_isa::{OpClass, TraceSource};

use crate::suite::Point;
use crate::timed::{Spans, TimedLsq, TimedTrace};

/// Correctness bookkeeping. A unit is one point served or simulated; it
/// fails when any check on it fails or it panics. No check aborts the
/// run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Units checked.
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checks {
    /// Record `units` checked units that share `failures`.
    pub fn record(&mut self, units: u64, failures: Vec<String>) {
        self.attempted += units;
        if !failures.is_empty() {
            self.failed += units;
            self.notes.extend(failures);
        }
    }

    /// Share of units that passed every check.
    pub fn pass_frac(&self) -> f64 {
        1.0 - crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The message of a caught panic.
pub fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// One point through `SimSession`, as sweeps and the book run it: the
/// paper's three designs on the monomorphic fast path, the others boxed,
/// and the architectural oracle on for real programs.
pub fn session_stats(p: &Point, seed: u64) -> SimStats {
    let mut session = SimSession::new(p.design, &p.workload).run_config(p.rc(seed));
    if p.workload.rv().is_some() {
        session = session.arch_oracle();
    }
    session.run().runs.swap_remove(0).stats
}

/// Outcome of a pass through a [`PointCache`].
#[derive(Debug, Default)]
pub struct CachedPass {
    /// Wall seconds of the whole pass.
    pub wall: f64,
    /// Seconds spent inside `SimSession::run`, per point (0 for hits).
    pub sim_secs: Vec<f64>,
    /// The statistics served, per point (`None` when the point panicked).
    pub stats: Vec<Option<SimStats>>,
    /// Points served from the store.
    pub hits: u64,
}

/// Serve every point through `cache`, simulating the misses. `expect`
/// holds the statistics a previous pass produced: a warm pass must hit
/// every point and serve exactly those, and a cold pass must reproduce
/// them (simulation is deterministic).
pub fn cached_pass(
    points: &[Point],
    seed: u64,
    cache: &PointCache,
    expect_hits: bool,
    expect: Option<&[Option<SimStats>]>,
    checks: &mut Checks,
) -> CachedPass {
    let mut pass = CachedPass::default();
    let t = Instant::now();
    for (i, p) in points.iter().enumerate() {
        let key = cache.key(&p.design.to_string(), &p.workload, &p.rc(seed));
        let mut secs = 0.0;
        let served = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_compute(&key, &[], || {
                let t0 = Instant::now();
                let stats = session_stats(p, seed);
                secs = t0.elapsed().as_secs_f64();
                (stats, Vec::new())
            })
        }));
        let mut failures = Vec::new();
        let stats = match served {
            Ok((point, hit)) => {
                pass.hits += u64::from(hit);
                if hit != expect_hits {
                    failures.push(format!(
                        "{}: store hit={hit}, expected {expect_hits}",
                        p.label()
                    ));
                }
                failures.extend(range_failures(p, &point.stats));
                if let Some(Some(want)) = expect.map(|e| &e[i]) {
                    if *want != point.stats {
                        failures.push(format!("{}: SimStats differ between passes", p.label()));
                    }
                }
                Some(point.stats)
            }
            Err(e) => {
                failures.push(format!("{}: panicked: {}", p.label(), panic_message(&*e)));
                None
            }
        };
        checks.record(1, failures);
        pass.sim_secs.push(secs);
        pass.stats.push(stats);
    }
    pass.wall = t.elapsed().as_secs_f64();
    pass
}

/// Every point `cache`'s store indexes, read back through its key (the
/// harness keys every point under the paper's `SimConfig`). A lost or
/// unreadable point, or a count other than `expected`, is a failure.
pub fn stored_points(
    cache: &PointCache,
    expected: u64,
    failures: &mut Vec<String>,
) -> Vec<(PointKey, StoredPoint)> {
    let sim_config = SimConfig::paper().canonical();
    let mut stored = Vec::new();
    for row in cache.store().index().unwrap_or_default() {
        let key = PointKey {
            design: row.design,
            workload: row.workload,
            seed: row.seed,
            instrs: row.instrs,
            warmup: row.warmup,
            sim_config: sim_config.clone(),
            sim_version: row.sim_version,
        };
        match cache.store().get(&key) {
            Ok(Some(p)) => stored.push((key, p)),
            _ => failures.push(format!("store lost {}", key.canonical())),
        }
    }
    if stored.len() as u64 != expected {
        failures.push(format!(
            "store indexes {} of {expected} points",
            stored.len()
        ));
    }
    stored
}

/// A run stops at the first cycle whose commits reach the target, so it
/// commits between `instrs` and `instrs + commit_width - 1`.
pub fn range_failures(p: &Point, stats: &SimStats) -> Vec<String> {
    let width = u64::from(SimConfig::paper().commit_width);
    if stats.committed < p.instrs || stats.committed >= p.instrs + width {
        vec![format!(
            "{}: committed {} outside [{}, {})",
            p.label(),
            stats.committed,
            p.instrs,
            p.instrs + width
        )]
    } else {
        Vec::new()
    }
}

/// The two layers the traced run wraps.
#[derive(Debug, Default)]
pub struct LayerSpans {
    /// `LoadStoreQueue` calls.
    pub lsq: Rc<Spans>,
    /// `TraceSource` pulls.
    pub trace: Rc<Spans>,
}

/// One direct simulation.
#[derive(Debug, Clone)]
pub struct Run {
    /// Statistics of the measured interval.
    pub stats: SimStats,
    /// Statistics of the warm-up interval.
    pub warm: SimStats,
    /// Cycles skipped by event-driven skipping (both intervals).
    pub skipped: u64,
    /// Ops pulled from the trace.
    pub pulled: u64,
    /// Host nanoseconds from `Simulator::new` to the end of the run.
    pub wall_ns: u64,
    /// Host nanoseconds to build the trace source.
    pub build_ns: u64,
}

impl Run {
    /// Cycles over both intervals.
    pub fn cycles(&self) -> u64 {
        self.warm.cycles + self.stats.cycles
    }
}

/// Simulate `p` directly through `Simulator::new`, with the same
/// warm-up/run sequence `SimSession` uses. With `spans` the design and
/// the trace are wrapped in [`TimedLsq`] / [`TimedTrace`]; the paper's
/// designs stay concrete types either way.
pub fn run_point(p: &Point, seed: u64, spans: Option<&LayerSpans>) -> Run {
    let t0 = Instant::now();
    let trace = p.workload.build_trace(seed);
    let build_ns = t0.elapsed().as_nanos() as u64;
    let mut run = match p.design.build_fast_path() {
        Some(FastPathLsq::Conventional(l)) => drive(l, trace, p, spans),
        Some(FastPathLsq::Filtered(l)) => drive(l, trace, p, spans),
        Some(FastPathLsq::Samie(l)) => drive(l, trace, p, spans),
        None => drive(p.design.build(), trace, p, spans),
    };
    run.build_ns = build_ns;
    run
}

fn drive<L: LoadStoreQueue, T: TraceSource>(
    lsq: L,
    trace: T,
    p: &Point,
    spans: Option<&LayerSpans>,
) -> Run {
    match spans {
        None => simulate(lsq, trace, p),
        Some(s) => simulate(
            TimedLsq::new(lsq, Rc::clone(&s.lsq)),
            TimedTrace::new(trace, Rc::clone(&s.trace)),
            p,
        ),
    }
}

fn simulate<L: LoadStoreQueue, T: TraceSource>(lsq: L, trace: T, p: &Point) -> Run {
    let t0 = Instant::now();
    let mut sim = Simulator::new(SimConfig::paper(), lsq, trace);
    // `run` then `warm_up(0)` is `warm_up(warmup)` with the warm-up
    // statistics kept.
    let warm = sim.run(p.warmup);
    sim.warm_up(0);
    let stats = sim.run(p.instrs);
    Run {
        stats,
        warm,
        skipped: sim.skipped_cycles(),
        pulled: sim.trace_ops_pulled(),
        wall_ns: t0.elapsed().as_nanos() as u64,
        build_ns: 0,
    }
}

/// Each design must commit exactly the workload's op stream: the
/// measured interval retires trace ops `[W, W + C)` (W committed in
/// warm-up, C measured), so its load, store and conditional-branch
/// counts must equal that window's.
pub fn stream_failures(p: &Point, seed: u64, run: &Run) -> Vec<String> {
    let mut trace = p.workload.build_trace(seed);
    for _ in 0..run.warm.committed {
        trace.next_op();
    }
    let (mut loads, mut stores, mut branches) = (0, 0, 0);
    for _ in 0..run.stats.committed {
        let op = trace.next_op();
        loads += u64::from(op.class.is_load());
        stores += u64::from(op.class.is_store());
        branches += u64::from(op.class == OpClass::CondBranch);
    }
    let s = &run.stats;
    if (s.loads, s.stores, s.branches) == (loads, stores, branches) {
        Vec::new()
    } else {
        vec![format!(
            "{}: committed loads/stores/branches {}/{}/{} but the trace window holds {loads}/{stores}/{branches}",
            p.label(),
            s.loads,
            s.stores,
            s.branches
        )]
    }
}

//! Design-space sweep engine.
//!
//! The paper's result is fundamentally a *design-space* claim — SAMIE's
//! entries × ways × banks geometry trades IPC, energy and area against a
//! conventional CAM — but the figure harness only ever runs the single
//! Table 3 point. This module runs declarative grids over LSQ designs,
//! workloads and trace seeds:
//!
//! * designs are named by [`DesignSpec`] strings (`conv:128`,
//!   `filtered:128:1024:2`, `samie:64x2x8:sh8:ab64`, `arb:64x2:if128`,
//!   `unbounded`, `oracle`) — the grid carries opaque [`DesignHandle`]s,
//!   so any other [`samie_lsq::LsqFactory`] sweeps exactly like built-ins;
//! * [`SweepGrid`] — the cross product of designs × benchmarks × seeds
//!   plus a [`RunConfig`], expanded in deterministic order;
//! * [`run_sweep`] — executes the grid through a [`Runner`] (direct or
//!   store-cached) on the work-stealing
//!   [`parallel_map_with`](crate::runner::parallel_map_with()) scheduler
//!   with order-preserving collection;
//! * [`SweepReport`] — per-point IPC / deadlocks / energy / wall-time /
//!   simulated-instructions-per-second, emitted as CSV (via
//!   [`Table`]) and as machine-readable `BENCH_sweep.json`.
//!
//! Timing fields (`wall_ms`, `sim_ips`) are the only non-deterministic
//! outputs; [`SweepReport::to_json_deterministic`] zeroes them so equal
//! grids + seeds produce byte-identical JSON (the regression-tracking
//! invariant CI relies on).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use energy_model::price_lsq;
use ooo_sim::SimConfig;
use samie_lsq::{DesignHandle, DesignSpec};
use spec_traces::Workload;

use crate::experiment::ExperimentSpec;
use crate::runner::{parallel_map_with, RunConfig, Runner};
use crate::table::{fmt, Table};

/// A declarative sweep grid: the cross product of designs × workloads ×
/// seeds, simulated under one [`RunConfig`] length.
#[derive(Clone)]
pub struct SweepGrid {
    /// LSQ designs to sweep (shared factory handles; see
    /// [`DesignSpec::parse_list`] and [`designs_from_specs`]).
    pub designs: Vec<DesignHandle>,
    /// Workloads to run each design on — calibrated benchmarks,
    /// adversarial generators and `.strc` replays sweep alike.
    pub benchmarks: Vec<Workload>,
    /// Trace seeds (each multiplies the grid).
    pub seeds: Vec<u64>,
    /// Simulation length (its `seed` field is ignored; `seeds` governs).
    pub rc: RunConfig,
    /// Core configuration every point simulates under (store keys hash
    /// its canonical form, so grids with different configs never alias).
    pub cfg: SimConfig,
}

/// Lift typed [`DesignSpec`]s into the handles a grid carries.
pub fn designs_from_specs(specs: impl IntoIterator<Item = DesignSpec>) -> Vec<DesignHandle> {
    specs
        .into_iter()
        .map(|s| Arc::new(s) as DesignHandle)
        .collect()
}

impl SweepGrid {
    /// The default `sweep` grid: a geometry ladder over the full suite.
    /// (Canonically defined by [`ExperimentSpec::sweep_default`].)
    pub fn sweep_default(rc: RunConfig) -> Self {
        ExperimentSpec::sweep_default(rc)
            .to_grid()
            .expect("the built-in sweep grid is valid")
    }

    /// Expand the grid into points, seed-major then design-major then
    /// benchmark-major — the deterministic order of every report row.
    pub fn expand(&self) -> Vec<(DesignHandle, Workload, u64)> {
        let mut points =
            Vec::with_capacity(self.seeds.len() * self.designs.len() * self.benchmarks.len());
        for &seed in &self.seeds {
            for design in &self.designs {
                for bench in &self.benchmarks {
                    points.push((Arc::clone(design), bench.clone(), seed));
                }
            }
        }
        points
    }
}

/// The measured result of one grid point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Canonical design id ([`samie_lsq::LsqFactory::id`]).
    pub design: String,
    /// Workload name.
    pub bench: String,
    /// Trace seed.
    pub seed: u64,
    /// Committed IPC over the measured interval.
    pub ipc: f64,
    /// Measured cycles.
    pub cycles: u64,
    /// Instructions simulated including warm-up (the throughput
    /// denominator).
    pub instructions: u64,
    /// §3.3 deadlock-avoidance flushes.
    pub deadlock_flushes: u64,
    /// Flushes because an address fit nowhere.
    pub nospace_flushes: u64,
    /// LSQ dynamic energy over the measured interval (nJ).
    pub lsq_energy_nj: f64,
    /// Host wall-clock time of the run.
    pub wall: Duration,
}

/// Shortest wall time `sim_ips` trusts. Host timers legitimately report
/// a cached or trivially small point in microseconds; dividing by that
/// yields billions of instr/s. Clamping the denominator bounds the
/// reported throughput instead of letting it explode.
pub const MIN_TRUSTED_WALL: Duration = Duration::from_millis(1);

impl SweepPoint {
    /// Simulated instructions per host second. A wall time below
    /// [`MIN_TRUSTED_WALL`] is clamped up to it — a zero or sub-ms
    /// measurement reports a bounded throughput, never an absurd one.
    pub fn sim_ips(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.instructions as f64 / self.wall.max(MIN_TRUSTED_WALL).as_secs_f64()
    }
}

/// Execute a grid on `jobs` worker threads (0 = all available cores)
/// through `runner`. Points are distributed through the work-stealing
/// queue and collected in deterministic [`SweepGrid::expand`] order.
///
/// Through a cached runner every point is looked up first and only
/// misses are simulated (and recorded the moment they finish, so an
/// interrupted sweep resumes where it stopped). The report rows are
/// byte-identical either way — cache hits rebuild the row from the
/// stored integer counters; only the wall-clock columns differ (a hit
/// reports the *original* compute time, which is what the warm-speedup
/// figure sums).
pub fn run_sweep(grid: &SweepGrid, jobs: usize, runner: &Runner<'_>) -> SweepReport {
    let points = grid.expand();
    let t0 = Instant::now();
    let results = parallel_map_with(jobs, &points, |(design, bench, seed)| {
        let rc = RunConfig {
            seed: *seed,
            ..grid.rc
        };
        let (point, hit) = runner.point(design, bench, &rc, grid.cfg, None);
        let stats = &point.stats;
        // Every derived field (IPC, energy) is a pure function of the
        // integer counters, so a row rebuilt from a cached point is
        // byte-identical to the freshly simulated one.
        let row = SweepPoint {
            design: design.id(),
            bench: bench.name().to_string(),
            seed: *seed,
            ipc: stats.ipc(),
            cycles: stats.cycles,
            instructions: rc.warmup + stats.committed,
            deadlock_flushes: stats.deadlock_flushes,
            nospace_flushes: stats.nospace_flushes,
            lsq_energy_nj: price_lsq(&stats.lsq).total(),
            wall: Duration::from_nanos(point.wall_nanos),
        };
        (row, hit)
    });
    let hits: Vec<&SweepPoint> = results.iter().filter(|r| r.1).map(|r| &r.0).collect();
    SweepReport {
        rc: grid.rc,
        wall: t0.elapsed(),
        hits: hits.len(),
        misses: results.len() - hits.len(),
        saved: hits.iter().map(|p| p.wall).sum(),
        points: results.into_iter().map(|r| r.0).collect(),
    }
}

/// A completed sweep: every point plus aggregate timing.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Simulation length the grid ran under.
    pub rc: RunConfig,
    /// End-to-end wall time of the whole grid (≤ sum of point walls when
    /// workers run in parallel).
    pub wall: Duration,
    /// Points served from the experiment store (0 for uncached sweeps).
    pub hits: usize,
    /// Points actually simulated this run.
    pub misses: usize,
    /// Recorded compute time the hits avoided (the "cold" cost of the
    /// cached points); `saved / wall` is the warm-speedup figure.
    pub saved: Duration,
    /// Per-point results, in grid order.
    pub points: Vec<SweepPoint>,
}

impl SweepReport {
    /// How much faster this (partially) warm run was than recomputing the
    /// cached points: recorded cold time of the hits over this run's
    /// grid wall time. 0 when nothing was cached.
    pub fn warm_speedup(&self) -> f64 {
        let w = self.wall.as_secs_f64();
        if w <= 0.0 {
            0.0
        } else {
            self.saved.as_secs_f64() / w
        }
    }

    /// One-line cache summary for console output.
    pub fn cache_summary(&self) -> String {
        format!(
            "cache: {} hits / {} misses; saved ~{:.2} s of simulation (warm speedup ~{:.0}x)",
            self.hits,
            self.misses,
            self.saved.as_secs_f64(),
            self.warm_speedup()
        )
    }
    /// Total simulated instructions across all points.
    pub fn total_instructions(&self) -> u64 {
        self.points.iter().map(|p| p.instructions).sum()
    }

    /// Aggregate simulated instructions per host second (the headline
    /// throughput number tracked by CI).
    pub fn total_sim_ips(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.total_instructions() as f64 / s
        }
    }

    /// The report as a [`Table`] (console rendering + CSV).
    pub fn table(&self) -> Table {
        // The title slugs into the CSV file name; keep it stable.
        let mut t = Table::new(
            "Sweep - sweep designs x workloads x seeds",
            &[
                "design",
                "bench",
                "seed",
                "ipc",
                "cycles",
                "instructions",
                "deadlocks",
                "nospace",
                "lsq_energy_nj",
                "wall_ms",
                "sim_mips",
            ],
        );
        for p in &self.points {
            t.push_row(vec![
                p.design.clone(),
                p.bench.clone(),
                p.seed.to_string(),
                fmt(p.ipc, 4),
                p.cycles.to_string(),
                p.instructions.to_string(),
                p.deadlock_flushes.to_string(),
                p.nospace_flushes.to_string(),
                fmt(p.lsq_energy_nj, 1),
                fmt(p.wall.as_secs_f64() * 1e3, 1),
                fmt(p.sim_ips() / 1e6, 3),
            ]);
        }
        t
    }

    /// [`table`](Self::table) with the two wall-clock columns
    /// (`wall_ms`, `sim_mips`) zeroed — the CSV determinism contract:
    /// equal grids + seeds produce byte-identical output regardless of
    /// host or worker count.
    pub fn table_deterministic(&self) -> Table {
        let mut t = self.table();
        for row in &mut t.rows {
            let n = row.len();
            row[n - 2] = fmt(0.0, 1);
            row[n - 1] = fmt(0.0, 3);
        }
        t
    }

    /// Machine-readable JSON (schema `samie-bench-v1`), including the
    /// non-deterministic timing fields.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// JSON with every timing field zeroed: same grid + same seeds →
    /// byte-identical output (the determinism contract CI and the tests
    /// rely on).
    pub fn to_json_deterministic(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, timing: bool) -> String {
        let ms = |d: Duration| if timing { d.as_secs_f64() * 1e3 } else { 0.0 };
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"samie-bench-v1\",");
        out.push_str("  \"mode\": \"sweep\",\n");
        let _ = writeln!(
            out,
            "  \"run_config\": {{\"instrs\": {}, \"warmup\": {}}},",
            self.rc.instrs, self.rc.warmup
        );
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"design\": \"{}\", \"bench\": \"{}\", \"seed\": {}, \
                 \"ipc\": {:.6}, \"cycles\": {}, \"instructions\": {}, \
                 \"deadlock_flushes\": {}, \"nospace_flushes\": {}, \
                 \"lsq_energy_nj\": {:.3}, \"wall_ms\": {:.3}, \"sim_ips\": {:.0}}}",
                p.design,
                p.bench,
                p.seed,
                p.ipc,
                p.cycles,
                p.instructions,
                p.deadlock_flushes,
                p.nospace_flushes,
                p.lsq_energy_nj,
                ms(p.wall),
                if timing { p.sim_ips() } else { 0.0 },
            );
            out.push_str(if i + 1 < self.points.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"total\": {{\"instructions\": {}, \"wall_ms\": {:.3}, \"total_sim_ips\": {:.0}}}",
            self.total_instructions(),
            ms(self.wall),
            if timing { self.total_sim_ips() } else { 0.0 },
        );
        out.push_str("}\n");
        out
    }

    /// Write `<dir>/BENCH_sweep.json` (and the CSV next to it), plus the
    /// deterministic companions `BENCH_sweep.det.json` /
    /// `BENCH_sweep.det.csv` with every timing field zeroed — those two
    /// are byte-comparable across runs, hosts and worker counts.
    /// Returns the JSON path.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("BENCH_sweep.json");
        std::fs::write(&path, self.to_json())?;
        self.table().write_csv(dir)?;
        std::fs::write(
            dir.join("BENCH_sweep.det.json"),
            self.to_json_deterministic(),
        )?;
        std::fs::write(
            dir.join("BENCH_sweep.det.csv"),
            self.table_deterministic().to_csv(),
        )?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_designs(list: &str) -> Vec<DesignHandle> {
        designs_from_specs(DesignSpec::parse_list(list).unwrap())
    }

    fn workloads(list: &str) -> Vec<Workload> {
        let sels = crate::experiment::BenchSel::parse_bench_list(list).unwrap();
        sels.iter().map(|b| b.resolve().unwrap()).collect()
    }

    #[test]
    fn grid_expands_in_deterministic_order() {
        let rc = RunConfig {
            instrs: 1000,
            warmup: 100,
            seed: 1,
        };
        let grid = SweepGrid {
            designs: parse_designs("conv:32,samie"),
            benchmarks: workloads("gzip,gcc"),
            seeds: vec![1, 2],
            rc,
            cfg: SimConfig::paper(),
        };
        let pts = grid.expand();
        assert_eq!(pts.len(), 8);
        assert_eq!((pts[0].1.name(), pts[0].2), ("gzip", 1));
        assert_eq!((pts[1].1.name(), pts[1].2), ("gcc", 1));
        assert_eq!(pts[4].2, 2, "seed-major ordering");
        assert_eq!(
            pts[0].0.id(),
            "conv:32",
            "design handles travel with points"
        );
    }

    #[test]
    fn small_sweep_produces_valid_report() {
        let rc = RunConfig {
            instrs: 8_000,
            warmup: 2_000,
            seed: 7,
        };
        let grid = SweepGrid {
            designs: designs_from_specs(DesignSpec::paper_trio()),
            benchmarks: workloads("gzip"),
            seeds: vec![7],
            rc,
            cfg: SimConfig::paper(),
        };
        let report = run_sweep(&grid, 1, &Runner::direct());
        assert_eq!(report.points.len(), 3);
        for p in &report.points {
            assert!(p.ipc > 0.1, "{}: ipc {}", p.design, p.ipc);
            assert_eq!(p.instructions, 10_000);
            assert!(p.lsq_energy_nj > 0.0);
        }
        assert!(report.total_sim_ips() > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"samie-bench-v1\""));
        assert!(json.contains("\"total_sim_ips\""));
    }

    #[test]
    fn custom_registered_design_sweeps_like_builtins() {
        use samie_lsq::{LoadStoreQueue, LsqFactory};
        struct Tiny;
        impl LsqFactory for Tiny {
            fn id(&self) -> String {
                "tiny".into()
            }
            fn build(&self) -> Box<dyn LoadStoreQueue> {
                DesignSpec::Conventional { entries: 8 }.build()
            }
        }
        let rc = RunConfig {
            instrs: 6_000,
            warmup: 1_000,
            seed: 7,
        };
        let grid = SweepGrid {
            designs: vec![
                Arc::new(Tiny) as DesignHandle,
                Arc::new(DesignSpec::conventional_paper()),
            ],
            benchmarks: workloads("gzip"),
            seeds: vec![7],
            rc,
            cfg: SimConfig::paper(),
        };
        let report = run_sweep(&grid, 2, &Runner::direct());
        assert_eq!(report.points[0].design, "tiny");
        assert!(
            report.points[0].ipc <= report.points[1].ipc + 1e-9,
            "an 8-entry LSQ cannot beat the 128-entry baseline"
        );
    }

    #[test]
    fn cached_sweep_matches_cold_sweep_byte_for_byte() {
        use crate::runner::PointCache;
        let dir = std::env::temp_dir().join("samie-sweep-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::open(&dir).unwrap();
        let rc = RunConfig {
            instrs: 6_000,
            warmup: 1_000,
            seed: 9,
        };
        let grid = SweepGrid {
            designs: designs_from_specs(DesignSpec::paper_trio()),
            benchmarks: workloads("gzip,swim"),
            seeds: vec![9],
            rc,
            cfg: SimConfig::paper(),
        };
        let plain = run_sweep(&grid, 1, &Runner::direct());
        let cold = run_sweep(&grid, 1, &Runner::cached(&cache));
        let warm = run_sweep(&grid, 2, &Runner::cached(&cache));
        assert_eq!((cold.hits, cold.misses), (0, 6));
        assert_eq!((warm.hits, warm.misses), (6, 0));
        assert!(warm.saved > Duration::ZERO);
        let json = plain.to_json_deterministic();
        assert_eq!(json, cold.to_json_deterministic());
        assert_eq!(json, warm.to_json_deterministic());
        assert!(warm.cache_summary().contains("6 hits / 0 misses"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A synthetic point with a controllable wall time.
    fn synthetic_point(design: &str, instructions: u64, wall: Duration) -> SweepPoint {
        SweepPoint {
            design: design.to_string(),
            bench: "gzip".to_string(),
            seed: 1,
            ipc: 1.0,
            cycles: instructions,
            instructions,
            deadlock_flushes: 0,
            nospace_flushes: 0,
            lsq_energy_nj: 1.0,
            wall,
        }
    }

    #[test]
    fn sim_ips_is_bounded_for_sub_ms_walls() {
        // 150k instructions in 10 ns would naively report 15 Tinstr/s;
        // the clamp caps the rate at instructions-per-MIN_TRUSTED_WALL.
        let absurd = synthetic_point("conv:32", 150_000, Duration::from_nanos(10));
        let cap = 150_000.0 / MIN_TRUSTED_WALL.as_secs_f64();
        assert_eq!(absurd.sim_ips(), cap);
        // Zero wall (a never-measured point) stays zero, not infinity.
        assert_eq!(
            synthetic_point("conv:32", 150_000, Duration::ZERO).sim_ips(),
            0.0
        );
        // Trustworthy walls are untouched.
        let normal = synthetic_point("conv:32", 150_000, Duration::from_millis(50));
        assert!((normal.sim_ips() - 3_000_000.0).abs() < 1.0);
    }
}

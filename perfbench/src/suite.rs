//! The four benchmark workloads: which points each one runs, and their
//! set-up.
//!
//! A point is one design simulated on one workload for a fixed number
//! of warm-up plus measured instructions. Sizes are fixed per workload
//! (the seed changes only the trace contents), so the work in a pass
//! does not depend on the seed.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use exp_harness::runner::RunConfig;
use exp_store::ExperimentStore;
use ooo_sim::{SimConfig, Simulator};
use rv_front::RvWorkload;
use samie_lsq::{DesignSpec, FastPathLsq};
use spec_traces::{by_name, find_workload, Workload, WorkloadSpec};

/// The workloads, as named on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// The paper's three designs on three calibrated generators.
    PaperTrio,
    /// Four designs on the three adversarial LSQ stressors.
    LsqStress,
    /// The four committed RV32IM programs under the paper's designs.
    RvReal,
    /// The reproduction book, cold then warm.
    Book,
}

impl Bench {
    /// Every workload (`BENCHMARK.json` declares all but `rv-real`).
    pub const ALL: [Bench; 4] = [
        Bench::PaperTrio,
        Bench::LsqStress,
        Bench::RvReal,
        Bench::Book,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::PaperTrio => "paper-trio",
            Bench::LsqStress => "lsq-stress",
            Bench::RvReal => "rv-real",
            Bench::Book => "book",
        }
    }

    /// Resolve a command-line name.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }
}

/// The paper's designs, as `DesignSpec::paper_trio` spells them.
pub const PAPER_TRIO: [&str; 3] = ["conv:128", "filtered:128:1024:2", "samie:64x2x8:sh8:ab64"];

/// `lsq-stress` designs: SAMIE, the baseline, the ARB and the ideal LSQ.
pub const STRESS_DESIGNS: [&str; 4] =
    ["samie:64x2x8:sh8:ab64", "conv:128", "arb:16x8", "unbounded"];

/// `lsq-stress` generators with their (warm-up, measured) lengths. On
/// alias-storm SAMIE and the ARB simulate about 0.02 M instr/s against
/// 0.2–1.7 for the others, so it runs the shortest points.
pub const STRESS_GENERATORS: [(&str, u64, u64); 3] = [
    ("alias-storm", 1_000, 4_000),
    ("stream-storm", 6_000, 24_000),
    ("pointer-chase", 10_000, 40_000),
];

/// `paper-trio` generators.
pub const TRIO_GENERATORS: [&str; 3] = ["gzip", "swim", "ammp"];

/// `paper-trio` point length (warm-up, measured).
pub const TRIO_LEN: (u64, u64) = (100_000, 400_000);

/// `rv-real` point length (warm-up, measured).
pub const RV_LEN: (u64, u64) = (200_000, 800_000);

/// The committed programs, embedded like the workload catalog embeds
/// them so set-up can assemble and emulate them afresh each time.
pub const RV_PROGRAMS: [(&str, &str, &str); 4] = [
    (
        "rv:quicksort",
        "programs/quicksort.s",
        include_str!("../../programs/quicksort.s"),
    ),
    (
        "rv:matmul",
        "programs/matmul.s",
        include_str!("../../programs/matmul.s"),
    ),
    (
        "rv:sieve",
        "programs/sieve.s",
        include_str!("../../programs/sieve.s"),
    ),
    (
        "rv:memcpy",
        "programs/memcpy.s",
        include_str!("../../programs/memcpy.s"),
    ),
];

/// `book` suite: the paper trio's calibrated generators.
pub const BOOK_SUITE: [&str; 3] = ["gzip", "swim", "ammp"];

/// `book` run length: the committed book's `--quick` configuration.
pub fn book_rc(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        ..RunConfig::quick()
    }
}

/// One simulated point.
#[derive(Debug, Clone)]
pub struct Point {
    /// The LSQ design.
    pub design: DesignSpec,
    /// The trace source.
    pub workload: Workload,
    /// Warm-up instructions.
    pub warmup: u64,
    /// Measured instructions.
    pub instrs: u64,
}

impl Point {
    /// `design@workload`, the point's name in reports and pins.
    pub fn label(&self) -> String {
        format!("{}@{}", self.design, self.workload.name())
    }

    /// The run configuration at `seed`.
    pub fn rc(&self, seed: u64) -> RunConfig {
        RunConfig {
            instrs: self.instrs,
            warmup: self.warmup,
            seed,
        }
    }

    /// Instructions simulated: warm-up plus measured.
    pub fn sim_instrs(&self) -> u64 {
        self.warmup + self.instrs
    }
}

fn design(spec: &str) -> DesignSpec {
    spec.parse()
        .unwrap_or_else(|e| panic!("benchmark design {spec}: {e}"))
}

fn workload(name: &str) -> Workload {
    find_workload(name).unwrap_or_else(|e| panic!("benchmark workload {name}: {e}"))
}

fn grid(designs: &[&str], workloads: &[(Workload, u64, u64)]) -> Vec<Point> {
    let mut points = Vec::new();
    for (w, warmup, instrs) in workloads {
        for d in designs {
            points.push(Point {
                design: design(d),
                workload: w.clone(),
                warmup: *warmup,
                instrs: *instrs,
            });
        }
    }
    points
}

/// Assemble and emulate the committed programs.
pub fn assemble_rv() -> Vec<Arc<RvWorkload>> {
    RV_PROGRAMS
        .iter()
        .map(|(name, file, source)| {
            Arc::new(
                RvWorkload::new(name, file, source)
                    .unwrap_or_else(|e| panic!("committed program {file}: {e}")),
            )
        })
        .collect()
}

/// The paired points the book's Figures 5–10 simulate: the baseline
/// and SAMIE on each suite benchmark at the book's length. The traced
/// `book` run measures the simulator layers on these.
pub fn book_sample() -> Vec<Point> {
    let rc = RunConfig::quick();
    let suite: Vec<(Workload, u64, u64)> = BOOK_SUITE
        .iter()
        .map(|b| (workload(b), rc.warmup, rc.instrs))
        .collect();
    grid(&["conv:128", "samie:64x2x8:sh8:ab64"], &suite)
}

/// The book's calibrated suite.
pub fn book_suite() -> Vec<WorkloadSpec> {
    BOOK_SUITE
        .iter()
        .map(|b| *by_name(b).unwrap_or_else(|e| panic!("book suite {b}: {e}")))
        .collect()
}

/// Build a workload's inputs: generator tables, the assembled and
/// emulated programs, the store (for `book`), and one simulator per
/// point with its design and trace — then return the points a pass
/// simulates (for `book`, the traced sample). `scratch` is a directory
/// the book's store may be opened in.
pub fn set_up(bench: Bench, seed: u64, scratch: &Path) -> Vec<Point> {
    let points = match bench {
        Bench::PaperTrio => {
            let ws: Vec<_> = TRIO_GENERATORS
                .iter()
                .map(|g| (workload(g), TRIO_LEN.0, TRIO_LEN.1))
                .collect();
            grid(&PAPER_TRIO, &ws)
        }
        Bench::LsqStress => {
            let ws: Vec<_> = STRESS_GENERATORS
                .iter()
                .map(|(g, warmup, instrs)| (workload(g), *warmup, *instrs))
                .collect();
            grid(&STRESS_DESIGNS, &ws)
        }
        Bench::RvReal => {
            let ws: Vec<_> = assemble_rv()
                .into_iter()
                .map(|w| (Workload::Rv(w), RV_LEN.0, RV_LEN.1))
                .collect();
            grid(&PAPER_TRIO, &ws)
        }
        Bench::Book => {
            std::hint::black_box(book_suite());
            std::hint::black_box(assemble_rv());
            let store = ExperimentStore::open(scratch.join("setup-store"))
                .unwrap_or_else(|e| panic!("cannot open a store in {}: {e}", scratch.display()));
            std::hint::black_box(store.len().ok());
            book_sample()
        }
    };
    for p in &points {
        let trace = p.workload.build_trace(seed);
        match p.design.build_fast_path() {
            Some(FastPathLsq::Conventional(l)) => {
                drop(Simulator::new(SimConfig::paper(), l, trace))
            }
            Some(FastPathLsq::Filtered(l)) => drop(Simulator::new(SimConfig::paper(), l, trace)),
            Some(FastPathLsq::Samie(l)) => drop(Simulator::new(SimConfig::paper(), l, trace)),
            None => drop(Simulator::new(SimConfig::paper(), p.design.build(), trace)),
        }
    }
    points
}

/// Run [`set_up`] `reps` times (at least once), pushing each set-up's
/// seconds to `times`; the first is timed from `from` (process start for
/// a run's first set-up). Returns the last set-up's points.
pub fn timed_set_up(
    bench: Bench,
    seed: u64,
    scratch: &Path,
    from: Instant,
    reps: usize,
    times: &mut Vec<f64>,
) -> Vec<Point> {
    let mut t0 = from;
    let mut points = Vec::new();
    for _ in 0..reps.max(1) {
        points = set_up(bench, seed, scratch);
        times.push(t0.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(scratch.join("setup-store"));
        t0 = Instant::now();
    }
    points
}

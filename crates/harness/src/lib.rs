//! # exp-harness — regenerating every table and figure of the paper
//!
//! One experiment module per paper artefact:
//!
//! | id | artefact | module |
//! |----|----------|--------|
//! | `fig1` | Figure 1 — ARB IPC vs unbounded LSQ | [`experiments::fig1`] |
//! | `fig3` / `fig4` | SharedLSQ occupancy / sizing CDF | [`experiments::fig3_4`] |
//! | `tab1` / `delay` | cache access times / §3.6 LSQ delays | [`experiments::tab1_delay`] |
//! | `fig5`…`fig12` | IPC, deadlocks, energy, area | [`experiments::paired`] |
//! | `tab456` | energy/area constants, regenerated | [`experiments::tab456`] |
//! | `summary` | §4 headline numbers | [`experiments::paired`] |
//!
//! The `samie-exp` binary (`src/main.rs`) exposes each as a subcommand and
//! writes CSVs under `results/`. Simulation length is configurable; the
//! paper uses 100 M instructions per benchmark after 100 M warm-up, the
//! harness defaults to 1 M after 200 k (scaled for wall-clock; the
//! occupancy and energy statistics are flat well before that).
//!
//! Beyond the paper's fixed tables, [`sweep`] runs declarative design-space
//! grids (`samie-exp sweep`), emitting machine-readable `BENCH_sweep.json`.
//!
//! ## Incremental everything
//!
//! Every simulated point can flow through the content-addressed
//! experiment store (the `exp-store` crate): [`runner::PointCache`] keys
//! a point by design × workload × run length × seed × core config ×
//! simulator version and serves bit-identical cache hits, so
//! `samie-exp sweep` re-runs only what changed and interrupted sweeps
//! resume. [`report::generate_book`] (`samie-exp report`) rebuilds the
//! whole paper — tables, figures, SVG charts — into `docs/book/` from
//! the same cache, making the complete reproduction one idempotent
//! command.
//!
//! Because the store is multi-process safe, two `samie-exp sweep --store`
//! processes may share one store directory, and an interrupted sweep
//! resumes from whatever it already published.
//!
//! ## The front door
//!
//! Everything above is built on [`session::SimSession`]: designs are named
//! by [`DesignSpec`] descriptors (or any other [`LsqFactory`] behind a
//! [`DesignHandle`]), built once through the object-safe
//! `Box<dyn LoadStoreQueue>` factory, and simulated on identical traces —
//! one design or any-N comparisons, with streaming progress observers.
//! [`runner::run_one`], [`runner::run_paired`], the sweep engine, the CLI,
//! the examples and the benches all construct their LSQs through this one
//! path.

pub mod chart;
pub mod experiment;
pub mod experiments;
pub mod fuzz;
pub mod report;
pub mod runner;
pub mod session;
pub mod sweep;
pub mod table;

pub use chart::svg_bar_chart;
pub use exp_store::{ExperimentStore, PointKey, StoredPoint, SIM_VERSION};
pub use experiment::{BenchSel, ConfigOverrides, ExperimentParseError, ExperimentSpec};
pub use fuzz::{differential_check, run_fuzz, FuzzConfig, FuzzMismatch, FuzzReport};
pub use report::{generate_book, BookSummary, ReportOptions};
pub use runner::{
    parallel_map, parallel_map_with, run_one, run_one_configured, run_paired, run_paired_suite,
    run_paired_suite_with, PairedRun, PointCache, RunConfig, Runner,
};
pub use samie_lsq::{DesignHandle, DesignParseError, DesignSpec, LsqFactory};
pub use session::{DesignRun, SessionEvent, SessionReport, SimSession};
pub use sweep::{
    designs_from_specs, run_sweep, run_sweep_cached, SweepGrid, SweepPoint, SweepReport,
};
pub use table::Table;

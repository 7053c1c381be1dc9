//! # exp-harness — regenerating every table and figure of the paper
//!
//! One experiment module per paper artefact, and one book page
//! ([`report::PAGES`]) per artefact group — the page slugs are the paper
//! ids of the `samie-exp` binary (`src/main.rs`):
//!
//! | id | artefact | module |
//! |----|----------|--------|
//! | `tab1` / `delay` | cache access times / §3.6 LSQ delays | [`experiments::tab1_delay`] |
//! | `fig1` | Figure 1 — ARB IPC vs unbounded LSQ | [`experiments::fig1`] |
//! | `fig3` / `fig4` | SharedLSQ occupancy / sizing CDF | [`experiments::fig3_4`] |
//! | `fig5`…`fig12` | IPC, deadlocks, energy, area | [`experiments::paired`] |
//! | `tab456` | energy/area constants, regenerated | [`experiments::tab456`] |
//! | `summary` | §4 headline numbers | [`experiments::paired`] |
//! | `realprog` | the committed RV32I(M) programs | [`report`] |
//!
//! `samie-exp <id>` writes the CSVs of that page under `results/`
//! (`all` writes every page's). Simulation length is configurable; the
//! paper uses 100 M instructions per benchmark after 100 M warm-up, the
//! harness defaults to 1 M after 200 k (scaled for wall-clock; the
//! occupancy and energy statistics are flat well before that).
//!
//! Beyond the paper's fixed tables, [`sweep`] runs declarative design-space
//! grids (`samie-exp sweep`), emitting machine-readable `BENCH_sweep.json`.
//!
//! ## Incremental everything
//!
//! Every simulated point is served by a [`runner::Runner`], directly or
//! through the content-addressed experiment store (the `exp-store`
//! crate): [`runner::PointCache`] keys
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
//! [`runner::Runner`] (and with it the experiments, the book and the
//! sweep engine), the CLI, the examples and `perfbench` all construct
//! their LSQs through this one path.

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
    parallel_map, parallel_map_with, run_paired_suite, ExtrasProbe, PairedRun, PointCache,
    RunConfig, Runner,
};
pub use samie_lsq::{DesignHandle, DesignParseError, DesignSpec, LsqFactory};
pub use session::{DesignRun, SessionEvent, SessionReport, SimSession};
pub use sweep::{designs_from_specs, run_sweep, SweepGrid, SweepPoint, SweepReport};
pub use table::Table;

//! The one way to get a simulated point: [`Runner`], direct or through
//! the experiment-store cache layer ([`PointCache`]) that lets every
//! experiment skip points it has already simulated. Also the paired
//! (baseline vs SAMIE) suite run and the scoped parallel map every
//! experiment uses.
//!
//! A runner simulates through [`SimSession`](crate::session) — the
//! single construction path for every LSQ design.

use std::cell::UnsafeCell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam::queue::SegQueue;

use exp_store::{ExperimentStore, PointKey, StoreError, StoredPoint, SIM_VERSION};
use ooo_sim::{SimConfig, SimStats};
use samie_lsq::{DesignSpec, LoadStoreQueue};
use spec_traces::{Workload, WorkloadSpec};

use crate::session::{IntoDesign, IntoWorkload, SimSession};

/// Simulation length parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Instructions measured per benchmark (paper: 100 M).
    pub instrs: u64,
    /// Warm-up instructions before measurement (paper: 100 M).
    pub warmup: u64,
    /// Trace seed (same seed → byte-identical runs).
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            instrs: 1_000_000,
            warmup: 200_000,
            seed: 42,
        }
    }
}

impl RunConfig {
    /// A fast configuration for smoke tests.
    pub fn quick() -> Self {
        RunConfig {
            instrs: 120_000,
            warmup: 30_000,
            seed: 42,
        }
    }
}

/// Baseline vs SAMIE results for one benchmark.
#[derive(Debug, Clone)]
pub struct PairedRun {
    /// Benchmark name.
    pub name: &'static str,
    /// Conventional 128-entry LSQ run.
    pub conv: SimStats,
    /// SAMIE-LSQ (Table 3 configuration) run.
    pub samie: SimStats,
}

impl PairedRun {
    /// Relative IPC loss of SAMIE vs the baseline (Figure 5's metric;
    /// negative = SAMIE is faster).
    pub fn ipc_loss(&self) -> f64 {
        let c = self.conv.ipc();
        if c == 0.0 {
            0.0
        } else {
            (c - self.samie.ipc()) / c
        }
    }
}

/// Baseline vs SAMIE for a whole suite, in suite order, through a
/// [`Runner`] (store-cached when the runner is). Both designs of every
/// benchmark become independent points in one parallel map — trace
/// generation is deterministic per `(workload, seed)`, so each half sees
/// the trace a two-design [`SimSession`] would feed it, and each half
/// hits the cache separately.
pub fn run_paired_suite(
    specs: &[WorkloadSpec],
    rc: &RunConfig,
    runner: &Runner<'_>,
) -> Vec<PairedRun> {
    let jobs: Vec<(DesignSpec, &WorkloadSpec)> = specs
        .iter()
        .flat_map(|s| {
            [
                (DesignSpec::conventional_paper(), s),
                (DesignSpec::samie_paper(), s),
            ]
        })
        .collect();
    let stats = parallel_map(&jobs, |(d, s)| runner.stats(d, s, rc));
    specs
        .iter()
        .zip(stats.chunks_exact(2))
        .map(|(s, pair)| PairedRun {
            name: s.name,
            conv: pair[0].clone(),
            samie: pair[1].clone(),
        })
        .collect()
}

/// Thread-safe front end to an [`ExperimentStore`]: builds the
/// [`PointKey`] for a simulation point (under its core [`SimConfig`] and
/// the current [`SIM_VERSION`]), serves cache hits, and
/// records fresh results as soon as they are computed — which is what
/// makes interrupted sweeps resumable. Hit/miss/saved-time counters are
/// atomic so parallel sweep workers share one cache.
#[derive(Debug)]
pub struct PointCache {
    store: ExperimentStore,
    sim_config: String,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    saved_nanos: AtomicU64,
}

impl PointCache {
    /// Open (creating if needed) the store at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Ok(PointCache {
            store: ExperimentStore::open(dir.as_ref())?,
            sim_config: SimConfig::paper().canonical(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            saved_nanos: AtomicU64::new(0),
        })
    }

    /// The underlying store (inspection, GC).
    pub fn store(&self) -> &ExperimentStore {
        &self.store
    }

    /// The key of one simulation point (under the paper configuration).
    pub fn key(&self, design_id: &str, workload: &Workload, rc: &RunConfig) -> PointKey {
        self.key_with_config(design_id, workload, rc, &self.sim_config)
    }

    /// [`key`](Self::key) under an explicit canonical core-configuration
    /// string ([`SimConfig::canonical`]) — grids with config overrides
    /// key their points here so overridden runs never alias paper runs.
    pub fn key_with_config(
        &self,
        design_id: &str,
        workload: &Workload,
        rc: &RunConfig,
        sim_config: &str,
    ) -> PointKey {
        PointKey {
            design: design_id.to_string(),
            workload: workload.cache_id(),
            seed: rc.seed,
            instrs: rc.instrs,
            warmup: rc.warmup,
            sim_config: sim_config.to_string(),
            sim_version: SIM_VERSION.to_string(),
        }
    }

    /// Serve `key` from the store, or compute, record and return it.
    ///
    /// `expected_extras` names the extras the caller needs: a stored
    /// entry missing any of them (e.g. cached by a plain sweep before an
    /// extras-collecting experiment asked for the same point) is treated
    /// as a miss and recomputed, never silently served incomplete. On
    /// recomputation the stored extras are *merged* with the fresh ones
    /// (fresh values win), so two experiments caching disjoint extras on
    /// the same point enrich one entry instead of evicting each other.
    /// Corrupt entries are reported on stderr, counted, and recomputed.
    /// Returns the point and whether it was a cache hit.
    pub fn get_or_compute(
        &self,
        key: &PointKey,
        expected_extras: &[&str],
        compute: impl FnOnce() -> (SimStats, Vec<(String, u64)>),
    ) -> (StoredPoint, bool) {
        let mut stale_extras = Vec::new();
        // Whether an entry already occupies this key (incomplete or
        // corrupt): storing the recomputed point must then *replace* it —
        // the write-once `put` would verify the old entry and discard the
        // fresh one.
        let mut replace = false;
        match self.store.get(key) {
            Ok(Some(point)) => {
                if expected_extras
                    .iter()
                    .all(|e| point.extras.iter().any(|(n, _)| n == e))
                {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.saved_nanos
                        .fetch_add(point.wall_nanos, Ordering::Relaxed);
                    return (point, true);
                }
                // Incomplete for this caller, but its extras are still
                // good — carry them into the refreshed entry.
                stale_extras = point.extras;
                replace = true;
            }
            Ok(None) => {}
            Err(e @ StoreError::Corrupt { .. }) => {
                eprintln!("warning: {e}; recomputing the point");
                self.rejected.fetch_add(1, Ordering::Relaxed);
                replace = true;
            }
            Err(e) => eprintln!("warning: store read failed ({e}); recomputing the point"),
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let (stats, mut extras) = compute();
        for (name, v) in stale_extras {
            if !extras.iter().any(|(n, _)| *n == name) {
                extras.push((name, v));
            }
        }
        let point = StoredPoint {
            stats,
            wall_nanos: t0.elapsed().as_nanos() as u64,
            extras,
        };
        let stored = if replace {
            self.store.put_replace(key, &point)
        } else {
            self.store.put(key, &point)
        };
        if let Err(e) = stored {
            eprintln!("warning: could not cache point ({e})");
        }
        (point, false)
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Points computed (cache misses) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Corrupt entries rejected (and recomputed) so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Recorded compute time the hits avoided — the "cold" cost a warm
    /// run did not pay, and the numerator of the warm-speedup figure.
    pub fn saved(&self) -> Duration {
        Duration::from_nanos(self.saved_nanos.load(Ordering::Relaxed))
    }
}

/// Named `u64` extras a point carries beyond [`SimStats`] — values that
/// live on the finished LSQ, such as occupancy quantiles.
#[derive(Clone, Copy)]
pub struct ExtrasProbe {
    /// The extras a cache hit must hold to be served (see
    /// [`PointCache::get_or_compute`]).
    pub names: &'static [&'static str],
    /// Reads them off a freshly simulated design; runs only when the
    /// point is simulated.
    pub read: fn(&dyn LoadStoreQueue) -> Vec<(String, u64)>,
}

/// How experiments obtain per-point statistics: directly (always
/// simulate) or through a [`PointCache`]. Every simulated point of the
/// harness goes through [`Runner::point`], which is what makes each
/// experiment, the book and the sweep engine participate in incremental
/// re-runs.
#[derive(Clone, Copy)]
pub struct Runner<'a> {
    cache: Option<&'a PointCache>,
}

impl Runner<'static> {
    /// A runner that always simulates.
    pub fn direct() -> Self {
        Runner { cache: None }
    }
}

impl<'a> Runner<'a> {
    /// A runner that consults (and fills) `cache`.
    pub fn cached(cache: &'a PointCache) -> Self {
        Runner { cache: Some(cache) }
    }

    /// Statistics for one `(design, workload, run-config)` point under
    /// the paper's core configuration.
    pub fn stats(
        &self,
        design: impl IntoDesign,
        workload: impl IntoWorkload,
        rc: &RunConfig,
    ) -> SimStats {
        self.point(design, workload, rc, SimConfig::paper(), None)
            .0
            .stats
    }

    /// Serve one point from the cache, or simulate it: `design` on
    /// `workload` for `rc` under core configuration `cfg`, reading
    /// `extras` off the finished design when it is simulated. Returns the
    /// point (its `wall_nanos` is the compute time, recorded or just
    /// measured) and whether it was a cache hit — never one for a direct
    /// runner.
    pub fn point(
        &self,
        design: impl IntoDesign,
        workload: impl IntoWorkload,
        rc: &RunConfig,
        cfg: SimConfig,
        extras: Option<ExtrasProbe>,
    ) -> (StoredPoint, bool) {
        let (design, workload) = (design.into_design(), workload.into_workload());
        let compute = || {
            let mut read = Vec::new();
            let mut session = SimSession::new(&design, &workload)
                .config(cfg)
                .run_config(*rc);
            if let Some(x) = &extras {
                session = session.on_finish(|_, lsq| read = (x.read)(lsq));
            }
            let run = session.run().runs.into_iter().next();
            (run.expect("one design ran").stats, read)
        };
        match self.cache {
            None => {
                let t0 = Instant::now();
                let (stats, extras) = compute();
                let wall_nanos = t0.elapsed().as_nanos() as u64;
                let point = StoredPoint {
                    stats,
                    wall_nanos,
                    extras,
                };
                (point, false)
            }
            Some(cache) => {
                let key = cache.key_with_config(&design.id(), &workload, rc, &cfg.canonical());
                let names = extras.map_or(&[][..], |x| x.names);
                cache.get_or_compute(&key, names, compute)
            }
        }
    }
}

/// Order-preserving parallel map over `items` using all available cores.
///
/// Work is distributed through a lock-free queue so long-running items
/// (e.g. `ammp` with its deadlock replays) do not serialise the suite.
pub fn parallel_map<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(items: &[T], f: F) -> Vec<R> {
    parallel_map_with(0, items, f)
}

/// Result slots written lock-free: each worker owns the indices it pops
/// from the queue, so every slot is written at most once, by one thread.
struct ResultSlots<R> {
    slots: Vec<UnsafeCell<Option<R>>>,
}

// SAFETY: workers only write disjoint slots (each index is popped from
// the queue exactly once) and reads happen only after the thread scope
// joins every worker.
unsafe impl<R: Send> Sync for ResultSlots<R> {}

/// [`parallel_map`] with an explicit worker count (`0` = all available
/// cores). The pool never exceeds the item count; oversubscribed calls
/// (`threads > items`) degrade gracefully — the sweep engine exposes this
/// as `--jobs`.
///
/// Collection is lock-free: results land in per-index slots, so a long
/// sweep never serialises its workers on a results lock.
pub fn parallel_map_with<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(
    threads: usize,
    items: &[T],
    f: F,
) -> Vec<R> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    } else {
        threads
    }
    .min(n);
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let queue = SegQueue::new();
    for i in 0..n {
        queue.push(i);
    }
    let results = ResultSlots {
        slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
    };
    std::thread::scope(|scope| {
        for _ in 0..threads {
            // Capture the Sync wrapper itself, not its `slots` field —
            // disjoint closure capture would otherwise try to share the
            // bare Vec<UnsafeCell<..>>.
            let (results, queue, f) = (&results, &queue, &f);
            scope.spawn(move || {
                while let Some(i) = queue.pop() {
                    let r = f(&items[i]);
                    // SAFETY: index `i` was popped exactly once, so this
                    // thread is the only writer of slot `i`, and no reader
                    // runs until the scope joins.
                    unsafe { *results.slots[i].get() = Some(r) };
                }
            });
        }
    });
    results
        .slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_traces::by_name;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_slice() {
        assert!(parallel_map::<u64, u64, _>(&[], |&x| x).is_empty());
        assert!(parallel_map_with::<u64, u64, _>(8, &[], |&x| x).is_empty());
    }

    #[test]
    fn parallel_map_single_item() {
        assert_eq!(parallel_map(&[7u64], |&x| x + 1), vec![8]);
        assert_eq!(parallel_map_with(16, &[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_more_threads_than_items() {
        // The pool clamps to the item count; excess workers are never
        // spawned and every item is still mapped exactly once, in order.
        let items: Vec<u64> = (0..3).collect();
        assert_eq!(parallel_map_with(64, &items, |&x| x * x), vec![0, 1, 4]);
    }

    #[test]
    fn parallel_map_explicit_thread_counts_agree() {
        let items: Vec<u64> = (0..23).collect();
        let serial = parallel_map_with(1, &items, |&x| x ^ 0xff);
        for threads in [2, 3, 8] {
            assert_eq!(parallel_map_with(threads, &items, |&x| x ^ 0xff), serial);
        }
    }

    #[test]
    fn parallel_map_non_copy_results() {
        // The lock-free slots must move non-trivial result types intact.
        let items: Vec<u64> = (0..50).collect();
        let out = parallel_map_with(4, &items, |&x| vec![x.to_string(); 3]);
        assert_eq!(out.len(), 50);
        assert_eq!(out[49], vec!["49".to_string(); 3]);
    }

    #[test]
    fn paired_run_smoke() {
        let rc = RunConfig {
            instrs: 20_000,
            warmup: 5_000,
            seed: 1,
        };
        let suite = [*by_name("gzip").unwrap()];
        let pr = &run_paired_suite(&suite, &rc, &Runner::direct())[0];
        assert!(pr.conv.ipc() > 0.1);
        assert!(pr.samie.ipc() > 0.1);
        assert!(pr.ipc_loss().abs() < 0.5);
        // Identical traces: committed mixes match (up to the final
        // commit-group overshoot).
        assert!(pr.conv.loads.abs_diff(pr.samie.loads) < 64);
        assert!(pr.conv.stores.abs_diff(pr.samie.stores) < 64);
    }

    #[test]
    fn runner_accepts_any_design() {
        let rc = RunConfig {
            instrs: 10_000,
            warmup: 2_000,
            seed: 1,
        };
        let spec = by_name("gzip").unwrap();
        for design in ["conv:64", "samie", "unbounded", "oracle"] {
            let d: DesignSpec = design.parse().unwrap();
            let stats = Runner::direct().stats(d, spec, &rc);
            assert!(stats.ipc() > 0.1, "{design}");
        }
    }

    #[test]
    fn split_paired_suite_matches_sessioned_pairs() {
        let rc = RunConfig {
            instrs: 10_000,
            warmup: 2_000,
            seed: 5,
        };
        let spec = by_name("gzip").unwrap();
        // One two-design session feeds both designs the identical trace.
        let joint = SimSession::new(DesignSpec::conventional_paper(), spec)
            .design(DesignSpec::samie_paper())
            .run_config(rc)
            .run();
        let split = run_paired_suite(&[*spec], &rc, &Runner::direct());
        assert_eq!(split.len(), 1);
        assert_eq!(split[0].name, joint.workload);
        assert_eq!(
            split[0].conv, joint.runs[0].stats,
            "identical traces per design"
        );
        assert_eq!(split[0].samie, joint.runs[1].stats);
    }

    #[test]
    fn cached_runner_is_bit_identical_and_counts() {
        let dir = std::env::temp_dir().join("samie-runner-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::open(&dir).unwrap();
        let rc = RunConfig {
            instrs: 8_000,
            warmup: 2_000,
            seed: 3,
        };
        let w = spec_traces::find_workload("gzip").unwrap();
        let design = DesignSpec::samie_paper();

        let direct = Runner::direct().stats(design, &w, &rc);
        let cold = Runner::cached(&cache).stats(design, &w, &rc);
        let warm = Runner::cached(&cache).stats(design, &w, &rc);
        assert_eq!(direct, cold, "cold cached run matches direct");
        assert_eq!(cold, warm, "warm hit is bit-identical to recompute");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(cache.saved() > Duration::ZERO);

        // A different seed is a different point.
        let other = Runner::cached(&cache).stats(design, &w, &RunConfig { seed: 4, ..rc });
        assert_ne!(warm, other);
        assert_eq!(cache.misses(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extras_guard_recomputes_incomplete_hits() {
        let dir = std::env::temp_dir().join("samie-runner-extras-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::open(&dir).unwrap();
        let rc = RunConfig {
            instrs: 6_000,
            warmup: 1_000,
            seed: 1,
        };
        let w = spec_traces::find_workload("gzip").unwrap();
        let design = DesignSpec::samie_paper();
        let runner = Runner::cached(&cache);

        // A plain run caches the point without extras...
        let plain = runner.stats(design, &w, &rc);
        // ...so an extras-requiring call must not be served the bare hit.
        let probe = |lsq: &dyn LoadStoreQueue| {
            let samie = lsq
                .as_any()
                .downcast_ref::<samie_lsq::SamieLsq>()
                .expect("samie design");
            vec![(
                "p99_shared".to_string(),
                samie.shared_entries_for_quantile(0.99) as u64,
            )]
        };
        let p99 = ExtrasProbe {
            names: &["p99_shared"],
            read: probe,
        };
        let paper = SimConfig::paper();
        let (point, _) = runner.point(design, &w, &rc, paper, Some(p99));
        let (stats, extras) = (point.stats, point.extras);
        assert_eq!(stats, plain, "same point, same statistics");
        assert_eq!(extras.len(), 1, "probe ran despite the stale hit");
        assert_eq!((cache.hits(), cache.misses()), (0, 2));

        // Now the enriched entry serves both call shapes as hits.
        let (again, _) = runner.point(design, &w, &rc, paper, Some(p99));
        assert_eq!(again.extras, extras);
        let _ = runner.stats(design, &w, &rc);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));

        // A second experiment caching a *different* extra on the same
        // point must not evict p99_shared: the refresh merges extras.
        let probe_b = |_: &dyn LoadStoreQueue| vec![("p50_shared".to_string(), 1)];
        let p50 = ExtrasProbe {
            names: &["p50_shared"],
            read: probe_b,
        };
        let merged = runner.point(design, &w, &rc, paper, Some(p50)).0.extras;
        assert!(merged.iter().any(|(n, _)| n == "p50_shared"));
        assert!(
            merged.iter().any(|(n, _)| n == "p99_shared"),
            "stored extras survive the refresh"
        );
        // Both call shapes now hit the one enriched entry.
        let a = runner.point(design, &w, &rc, paper, Some(p99)).0;
        let b = runner.point(design, &w, &rc, paper, Some(p50)).0;
        assert_eq!(a.extras, b.extras, "one entry serves both experiments");
        assert_eq!(cache.misses(), 3, "no ping-pong recomputation");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_config_defaults() {
        let rc = RunConfig::default();
        assert!(rc.instrs >= rc.warmup);
        assert!(RunConfig::quick().instrs < rc.instrs);
    }
}

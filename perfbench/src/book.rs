//! The `book` workload: `generate_book` into an empty store (cold), then
//! again over the same store (warm), as `samie-exp report` runs it.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use exp_harness::report::{generate_book, ReportOptions};
use exp_harness::runner::{PointCache, RunConfig, Runner};
use exp_store::{PointKey, StoredPoint};
use spec_traces::{all_benchmarks, WorkloadSpec};
use trace_isa::fingerprint128;

use crate::pins::DEFAULT_SEED;
use crate::sim::{panic_message, stored_points, Checks};
use crate::suite::{book_rc, BOOK_SUITE};

/// A book's files: name → bytes.
pub type BookFiles = BTreeMap<String, Vec<u8>>;

/// One cold pass and its warm repetitions.
#[derive(Debug)]
pub struct BookPass {
    /// Wall seconds of the cold generation.
    pub cold: f64,
    /// Wall seconds of each warm generation.
    pub warm: Vec<f64>,
    /// Points the cold pass simulated.
    pub points: u64,
    /// Warm-up plus measured instructions over those points.
    pub sim_instrs: u64,
    /// Seconds the points took to compute, summed over workers.
    pub point_secs: f64,
    /// The stored points, for the store replay.
    pub stored: Vec<(PointKey, StoredPoint)>,
    /// Digest of the cold book's files.
    pub digest: u128,
}

/// The committed book.
pub fn docs_book() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../docs/book")
}

/// Read every file of a book directory.
pub fn read_book(dir: &Path) -> std::io::Result<BookFiles> {
    let mut files = BookFiles::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            files.insert(
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path())?,
            );
        }
    }
    Ok(files)
}

/// Digest of a book's names and bytes.
pub fn book_digest(files: &BookFiles) -> u128 {
    let mut bytes = Vec::new();
    for (name, content) in files {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&(content.len() as u64).to_le_bytes());
        bytes.extend_from_slice(content);
    }
    fingerprint128(&bytes)
}

fn generate(
    rc: RunConfig,
    suite: &[WorkloadSpec],
    out: &Path,
    cache: &PointCache,
) -> Result<(), String> {
    let opts = ReportOptions {
        rc,
        suite: suite.to_vec(),
        out: out.to_path_buf(),
        runner: Runner::cached(cache),
    };
    match catch_unwind(AssertUnwindSafe(|| generate_book(&opts))) {
        Ok(Ok(_)) => Ok(()),
        Ok(Err(e)) => Err(format!("generate_book into {}: {e}", out.display())),
        Err(e) => Err(format!("generate_book panicked: {}", panic_message(&*e))),
    }
}

/// Generate `suite` cold into a fresh store under `dir`, then `warm_reps`
/// times warm. Checks: the cold pass misses every point, each warm pass
/// hits every point and simulates none, and the warm book is
/// byte-identical to the cold one. Returns `None` if the cold pass
/// itself failed.
pub fn book_pass(
    rc: RunConfig,
    suite: &[WorkloadSpec],
    dir: &Path,
    warm_reps: usize,
    checks: &mut Checks,
) -> Option<BookPass> {
    let (cold_dir, warm_dir) = (dir.join("cold"), dir.join("warm"));
    let cache = match PointCache::open(dir.join("store")) {
        Ok(c) => c,
        Err(e) => {
            checks.record(1, vec![format!("book: cannot open store: {e}")]);
            return None;
        }
    };
    let t = Instant::now();
    if let Err(e) = generate(rc, suite, &cold_dir, &cache) {
        checks.record(1, vec![format!("book cold pass: {e}")]);
        return None;
    }
    let cold = t.elapsed().as_secs_f64();
    let points = cache.misses();
    let mut failures = Vec::new();
    if cache.hits() != 0 {
        failures.push(format!(
            "book cold pass hit {} points in an empty store",
            cache.hits()
        ));
    }
    let mut warm = Vec::with_capacity(warm_reps);
    for rep in 0..warm_reps {
        let hits = cache.hits();
        let t = Instant::now();
        if let Err(e) = generate(rc, suite, &warm_dir, &cache) {
            failures.push(format!("book warm pass {rep}: {e}"));
            break;
        }
        warm.push(t.elapsed().as_secs_f64());
        if cache.hits() - hits != points || cache.misses() != points {
            failures.push(format!(
                "book warm pass {rep}: {} hits and {} new misses for {points} points",
                cache.hits() - hits,
                cache.misses() - points
            ));
        }
    }
    let cold_files = read_book(&cold_dir).unwrap_or_default();
    if cold_files.is_empty() {
        failures.push("book cold pass wrote no files".to_string());
    }
    match read_book(&warm_dir) {
        Ok(w) if warm_reps == 0 || w == cold_files => {}
        Ok(_) => failures.push("warm book differs from the cold book".to_string()),
        Err(e) => failures.push(format!("cannot read the warm book: {e}")),
    }
    if rc.seed == DEFAULT_SEED && suite.len() < all_benchmarks().len() {
        failures.extend(docs_row_failures(&cold_files));
    }
    let stored = stored_points(&cache, points, &mut failures);
    let sim_instrs = stored.iter().map(|(k, _)| k.instrs + k.warmup).sum();
    let point_secs = stored.iter().map(|(_, p)| p.wall_nanos as f64 * 1e-9).sum();
    checks.record(points.max(1), failures);
    Some(BookPass {
        cold,
        warm,
        points,
        sim_instrs,
        point_secs,
        stored,
        digest: book_digest(&cold_files),
    })
}

/// At the committed seed, a book over part of the suite must agree with
/// `docs/book`: each page is byte-identical, or every row of it that
/// names a suite benchmark appears verbatim in the committed page.
pub fn docs_row_failures(book: &BookFiles) -> Vec<String> {
    let docs = match read_book(&docs_book()) {
        Ok(d) => d,
        Err(e) => return vec![format!("cannot read docs/book: {e}")],
    };
    let mut failures = Vec::new();
    let mut matched = 0;
    for (name, bytes) in book {
        let Some(want) = docs.get(name) else {
            failures.push(format!("book page {name} is not in docs/book"));
            continue;
        };
        if bytes == want {
            matched += 1;
            continue;
        }
        let (got, want) = (
            String::from_utf8_lossy(bytes),
            String::from_utf8_lossy(want),
        );
        for row in got.lines().filter(|l| {
            BOOK_SUITE
                .iter()
                .any(|b| l.starts_with(&format!("| {b} |")))
        }) {
            if want.lines().any(|l| l == row) {
                matched += 1;
            } else {
                failures.push(format!("book page {name}: row `{row}` is not in docs/book"));
            }
        }
    }
    if matched == 0 {
        failures.push("no book page or row matched docs/book".to_string());
    }
    failures
}

/// The committed configuration: the full suite at `--quick`, seed 42,
/// generated cold and warm under `dir`; both must equal `docs/book`
/// byte for byte. Returns the failures.
pub fn verify_full_book(dir: &Path) -> Vec<String> {
    let mut checks = Checks::default();
    let rc = book_rc(DEFAULT_SEED);
    let pass = book_pass(rc, all_benchmarks(), dir, 1, &mut checks);
    let mut failures = checks.notes;
    if pass.is_some() {
        match (read_book(&dir.join("cold")), read_book(&docs_book())) {
            (Ok(got), Ok(want)) if got == want => {}
            (Ok(got), Ok(want)) => {
                let names: std::collections::BTreeSet<_> = got.keys().chain(want.keys()).collect();
                for name in names {
                    if got.get(name) != want.get(name) {
                        failures.push(format!("{name} differs from docs/book"));
                    }
                }
            }
            (Err(e), _) | (_, Err(e)) => failures.push(format!("cannot read a book: {e}")),
        }
    }
    failures
}

//! [`Workload`] — the one named handle every session, sweep and fuzzer
//! resolves its trace source from.
//!
//! Three families share the namespace:
//!
//! * the 26 calibrated SPEC-like benchmarks ([`crate::WorkloadSpec`]),
//! * the adversarial pack ([`crate::ADVERSARIAL_PACK`]), and
//! * recorded `.strc` traces replayed from disk or memory
//!   ([`trace_isa::RecordedTrace`]),
//!
//! plus owned [`crate::WorkloadSpec`] values (fuzzer mutants, user
//! experiments) that are not in any table. [`find_workload`] resolves a
//! name case-insensitively against the full catalog and returns a
//! "did you mean" [`UnknownWorkload`] error on near misses, so CLI typos
//! fail with a suggestion instead of a bare "not found".
//!
//! ```
//! use spec_traces::{find_workload, Workload};
//!
//! // Calibrated benchmarks and adversarial generators resolve alike
//! // (case-insensitively)...
//! let gzip = find_workload("GZIP").unwrap();
//! let storm = find_workload("alias-storm").unwrap();
//! let mut t = storm.build_trace(42);
//! assert_eq!(gzip.name(), "gzip");
//!
//! // ...and typos come back with suggestions.
//! let err = find_workload("alias-strom").unwrap_err();
//! assert!(err.to_string().contains("alias-storm"));
//! # let _ = t.next_op();
//! ```

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

use trace_isa::strc::{RecordedTrace, StrcError};
use trace_isa::{TraceSource, TraceWriter};

use rv_front::RvWorkload;

use crate::adversarial::{AdversarialSpec, ADVERSARIAL_PACK};
use crate::gen::SpecTrace;
use crate::rv::{rv_by_name, rv_pack, RV_PROGRAM_NAMES};
use crate::spec::{WorkloadSpec, ALL_BENCHMARKS};

/// A named workload: anything that can produce the deterministic, endless
/// trace a simulation session consumes.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A calibrated benchmark from [`crate::ALL_BENCHMARKS`].
    Spec(&'static WorkloadSpec),
    /// An owned spec (fuzzer mutants, ad-hoc experiments).
    Owned(Arc<WorkloadSpec>),
    /// A generator from the adversarial pack.
    Adversarial(&'static AdversarialSpec),
    /// A recorded `.strc` trace, replayed cyclically (the trace seed is
    /// ignored — the recording pinned the stream).
    Replay(Arc<RecordedTrace>),
    /// A real RV32I(M) program executed by the `rv-front` emulator; the
    /// committed retired-op stream replays cyclically (seed ignored) and
    /// the final architectural state backs the `ArchOracle`.
    Rv(Arc<RvWorkload>),
}

impl Workload {
    /// Load a `.strc` file as a replay workload.
    pub fn replay_file(path: &Path) -> Result<Self, StrcError> {
        Ok(Workload::Replay(Arc::new(RecordedTrace::load(path)?)))
    }

    /// Write the first `ops` ops of this workload's trace for `seed` to
    /// `path` as `.strc`, creating missing parent directories. Trace
    /// sources are deterministic per `(workload, seed)`, so the prefix a
    /// simulation consumed, replayed under the same run configuration,
    /// reproduces that simulation bit for bit.
    pub fn write_strc(&self, seed: u64, ops: u64, path: &Path) -> io::Result<()> {
        let mut src = self.build_trace(seed);
        let mut w = TraceWriter::create(path, self.name())?;
        for _ in 0..ops {
            w.write_op(&src.next_op())?;
        }
        w.finish().map(drop)
    }

    /// Wrap an in-memory op sequence as a replay workload.
    pub fn from_recorded(rec: RecordedTrace) -> Self {
        Workload::Replay(Arc::new(rec))
    }

    /// Assemble + execute RV32 assembly source as a workload (fuzzer
    /// mutants, `samie-exp rv run path.s`). Errors are the assembler's or
    /// emulator's single-line diagnostics.
    pub fn rv_source(name: &str, file: &str, source: &str) -> Result<Self, rv_front::RvError> {
        Ok(Workload::Rv(Arc::new(RvWorkload::new(name, file, source)?)))
    }

    /// The workload's display name (stamped into reports and CSV rows).
    pub fn name(&self) -> &str {
        match self {
            Workload::Spec(s) => s.name,
            Workload::Owned(s) => s.name,
            Workload::Adversarial(a) => a.name,
            Workload::Replay(r) => r.name(),
            Workload::Rv(w) => w.name(),
        }
    }

    /// The underlying calibrated/owned spec, if this is a spec workload.
    pub fn spec(&self) -> Option<&WorkloadSpec> {
        match self {
            Workload::Spec(s) => Some(s),
            Workload::Owned(s) => Some(s),
            _ => None,
        }
    }

    /// The underlying real-program workload, if this is an `rv:*` one —
    /// the handle sessions use to run the architectural oracle.
    pub fn rv(&self) -> Option<&Arc<RvWorkload>> {
        match self {
            Workload::Rv(w) => Some(w),
            _ => None,
        }
    }

    /// Stable identity for experiment-store cache keys.
    ///
    /// Unlike [`Workload::name`] (a display label), the cache id pins the
    /// *trace content*: calibrated/owned specs carry a fingerprint of all
    /// their generator parameters, adversarial generators a fingerprint
    /// of their kind + knobs, and `.strc` replays the
    /// [`RecordedTrace::content_digest`] of their op stream. Renaming a
    /// replay file therefore does not invalidate cached points, while
    /// recalibrating a benchmark's parameters does.
    pub fn cache_id(&self) -> String {
        let fp64 = |s: String| (trace_isa::fingerprint128(s.as_bytes()) >> 64) as u64;
        match self {
            // Catalog and owned specs share one scheme, so an owned copy
            // of a catalog spec hits the same cache entries.
            Workload::Spec(s) => format!("spec:{}:{:016x}", s.name, fp64(format!("{s:?}"))),
            Workload::Owned(s) => format!("spec:{}:{:016x}", s.name, fp64(format!("{s:?}"))),
            Workload::Adversarial(a) => {
                format!("adv:{}:{:016x}", a.name, fp64(format!("{:?}", a.kind)))
            }
            Workload::Replay(r) => format!("strc:{:032x}", r.content_digest()),
            // Pinned by program bytes (text + data image), not by name:
            // editing a `.s` file invalidates cached points, renaming the
            // workload does not.
            Workload::Rv(w) => format!("rv:{:032x}", w.program.digest()),
        }
    }

    /// Build the trace source (deterministic per `(workload, seed)`).
    pub fn build_trace(&self, seed: u64) -> Box<dyn TraceSource> {
        match self {
            Workload::Spec(s) => Box::new(SpecTrace::new(s, seed)),
            Workload::Owned(s) => Box::new(SpecTrace::new(s, seed)),
            Workload::Adversarial(a) => a.build(seed),
            Workload::Replay(r) => Box::new(trace_isa::FileTrace::from_recorded(Arc::clone(r))),
            Workload::Rv(w) => Box::new(w.trace()),
        }
    }
}

impl From<&'static WorkloadSpec> for Workload {
    fn from(s: &'static WorkloadSpec) -> Self {
        Workload::Spec(s)
    }
}

impl From<&'static AdversarialSpec> for Workload {
    fn from(a: &'static AdversarialSpec) -> Self {
        Workload::Adversarial(a)
    }
}

impl From<WorkloadSpec> for Workload {
    fn from(s: WorkloadSpec) -> Self {
        Workload::Owned(Arc::new(s))
    }
}

/// The full named catalog: 26 calibrated benchmarks, the adversarial
/// pack, then the committed real programs, in stable order.
pub fn all_workloads() -> Vec<Workload> {
    ALL_BENCHMARKS
        .iter()
        .map(Workload::Spec)
        .chain(ADVERSARIAL_PACK.iter().map(Workload::Adversarial))
        .chain(rv_pack().iter().map(|w| Workload::Rv(Arc::clone(w))))
        .collect()
}

/// Every registered workload name, in catalog order.
pub fn workload_names() -> Vec<&'static str> {
    ALL_BENCHMARKS
        .iter()
        .map(|s| s.name)
        .chain(ADVERSARIAL_PACK.iter().map(|a| a.name))
        .chain(RV_PROGRAM_NAMES)
        .collect()
}

/// Resolve `name` (case-insensitively) against the full catalog.
pub fn find_workload(name: &str) -> Result<Workload, UnknownWorkload> {
    if let Some(s) = ALL_BENCHMARKS
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
    {
        return Ok(Workload::Spec(s));
    }
    if let Some(a) = ADVERSARIAL_PACK
        .iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
    {
        return Ok(Workload::Adversarial(a));
    }
    if let Some(w) = rv_by_name(name) {
        return Ok(Workload::Rv(w));
    }
    Err(UnknownWorkload::new(name, &workload_names()))
}

/// "Unknown workload" error with near-miss suggestions.
///
/// Renders as `` unknown workload `gziip`; did you mean `gzip`? `` (or,
/// with no plausible near miss, lists where to find the catalog).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownWorkload {
    /// The name that failed to resolve.
    pub name: String,
    /// Registered names ranked as plausible intentions, best first.
    pub suggestions: Vec<&'static str>,
}

impl UnknownWorkload {
    pub(crate) fn new(name: &str, candidates: &[&'static str]) -> Self {
        let lower = name.to_ascii_lowercase();
        let mut scored: Vec<(usize, &'static str)> = candidates
            .iter()
            .filter_map(|&c| {
                let d = edit_distance(&lower, &c.to_ascii_lowercase());
                // A near miss: within 2 edits, or a containment either way
                // (ranked just past the edit-distance matches).
                if d <= 2 {
                    Some((d, c))
                } else if c.contains(lower.as_str()) || lower.contains(c) {
                    Some((3, c))
                } else {
                    None
                }
            })
            .collect();
        scored.sort_by_key(|&(d, c)| (d, c));
        UnknownWorkload {
            name: name.to_string(),
            suggestions: scored.into_iter().map(|(_, c)| c).take(3).collect(),
        }
    }
}

impl fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown workload `{}`", self.name)?;
        if self.suggestions.is_empty() {
            write!(
                f,
                " (see spec_traces::workload_names() or `samie-exp sweep --bench all`)"
            )
        } else {
            let quoted: Vec<String> = self.suggestions.iter().map(|s| format!("`{s}`")).collect();
            write!(f, "; did you mean {}?", quoted.join(" or "))
        }
    }
}

impl std::error::Error for UnknownWorkload {}

/// Classic two-row Levenshtein distance (names are short; this runs only
/// on the error path).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_specs_and_adversarial() {
        let names = workload_names();
        assert_eq!(
            names.len(),
            26 + ADVERSARIAL_PACK.len() + RV_PROGRAM_NAMES.len()
        );
        assert!(names.contains(&"gzip"));
        assert!(names.contains(&"alias-storm"));
        assert!(names.contains(&"rv:quicksort"));
        assert_eq!(all_workloads().len(), names.len());
        // Names are unique across families.
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn find_is_case_insensitive_across_families() {
        assert_eq!(find_workload("AMMP").unwrap().name(), "ammp");
        assert_eq!(
            find_workload("Pointer-Chase").unwrap().name(),
            "pointer-chase"
        );
        assert!(find_workload("gzip").unwrap().spec().is_some());
        assert!(find_workload("bursty").unwrap().spec().is_none());
    }

    #[test]
    fn did_you_mean_suggests_near_misses() {
        let e = find_workload("gziip").unwrap_err();
        assert_eq!(e.suggestions.first(), Some(&"gzip"));
        assert!(e.to_string().contains("did you mean `gzip`"), "{e}");

        let e = find_workload("alias").unwrap_err();
        assert!(e.suggestions.contains(&"alias-storm"), "{e}");

        let e = find_workload("zzzzzz").unwrap_err();
        assert!(e.suggestions.is_empty());
        assert!(e.to_string().contains("unknown workload `zzzzzz`"));
    }

    #[test]
    fn build_trace_every_catalog_entry() {
        for w in all_workloads() {
            let mut t = w.build_trace(3);
            for _ in 0..200 {
                assert!(t.next_op().is_well_formed(), "{}", w.name());
            }
            assert_eq!(t.name(), w.name());
        }
    }

    #[test]
    fn cache_ids_pin_content_not_names() {
        // Every catalog entry has a distinct cache id.
        let ids: std::collections::BTreeSet<String> =
            all_workloads().iter().map(|w| w.cache_id()).collect();
        assert_eq!(ids.len(), workload_names().len());

        // An owned copy of a catalog spec shares its id; a parameter
        // change breaks it.
        let gzip = crate::spec::by_name("gzip").unwrap();
        let owned = Workload::from(*gzip);
        assert_eq!(owned.cache_id(), Workload::Spec(gzip).cache_id());
        let mut tweaked = *gzip;
        tweaked.dep_distance += 1;
        assert_ne!(Workload::from(tweaked).cache_id(), owned.cache_id());

        // Replays are identified by op content, not by trace name.
        let ops = vec![trace_isa::MicroOp::alu(0, [0, 0])];
        let a = Workload::from_recorded(RecordedTrace::from_ops("a", ops.clone()));
        let b = Workload::from_recorded(RecordedTrace::from_ops("b", ops));
        assert_eq!(a.cache_id(), b.cache_id());
        assert!(a.cache_id().starts_with("strc:"));
    }

    #[test]
    fn replay_workload_round_trips() {
        let ops = vec![
            trace_isa::MicroOp::alu(0, [0, 0]),
            trace_isa::MicroOp::load(4, 0x40, 8, [1, 0]),
        ];
        let w = Workload::from_recorded(RecordedTrace::from_ops("mini", ops.clone()));
        assert_eq!(w.name(), "mini");
        let mut t = w.build_trace(99); // seed ignored for replays
        assert_eq!(t.next_op(), ops[0]);
        assert_eq!(t.next_op(), ops[1]);
        assert_eq!(t.next_op(), ops[0], "replay cycles");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("gzip", "gzip"), 0);
        assert_eq!(edit_distance("gziip", "gzip"), 1);
        assert_eq!(edit_distance("swin", "swim"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert!(edit_distance("pointer-chase", "gzip") > 2);
    }
}

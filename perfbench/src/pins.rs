//! Result digests pinned against `exp_store::SIM_VERSION`.
//!
//! At the default seed every point's `SimStats` digest (and the book's
//! byte digest) must match `pins.tsv`. A change that alters simulated
//! results must bump `SIM_VERSION` (the repository's rule) and add pins
//! for the new version with `--bless`; a version without pins fails the
//! check, so it cannot be skipped.

use std::fmt::Write as _;
use std::path::Path;

use exp_store::{visit_stat_fields, SIM_VERSION};
use ooo_sim::SimStats;
use trace_isa::fingerprint128;

/// The seed the pins were taken at (the CLI default).
pub const DEFAULT_SEED: u64 = 42;

const PINS: &str = include_str!("../pins.tsv");

/// Digest of every counter, in the store's schema order.
pub fn stats_digest(stats: &SimStats) -> u128 {
    let mut s = stats.clone();
    let mut text = String::new();
    visit_stat_fields(&mut s, |name, v| {
        let _ = writeln!(text, "{name} {v}");
    });
    fingerprint128(text.as_bytes())
}

fn pinned(workload: &str, label: &str) -> Option<&'static str> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split('\t').collect::<Vec<_>>())
        .find(|f| f.len() == 4 && f[0] == SIM_VERSION && f[1] == workload && f[2] == label)
        .map(|f| f[3])
}

/// Compare `(label, digest)` pairs of `workload` with the pins.
pub fn failures(workload: &str, digests: &[(String, u128)]) -> Vec<String> {
    digests
        .iter()
        .filter_map(|(label, d)| match pinned(workload, label) {
            Some(p) if p == format!("{d:032x}") => None,
            Some(p) => Some(format!("{label}: digest {d:032x}, pinned {p} ({SIM_VERSION})")),
            None => Some(format!(
                "{label}: no pin for {SIM_VERSION}; a results change needs a SIM_VERSION bump and --bless"
            )),
        })
        .collect()
}

/// Rewrite `pins.tsv` (at `path`) with `digests` as the pins of
/// `workload` under the current `SIM_VERSION`, keeping all other lines.
pub fn bless(path: &Path, workload: &str, digests: &[(String, u128)]) -> std::io::Result<()> {
    let current = std::fs::read_to_string(path).unwrap_or_default();
    let mut out: String = current
        .lines()
        .filter(|l| {
            let f: Vec<_> = l.split('\t').collect();
            !(f.len() == 4 && f[0] == SIM_VERSION && f[1] == workload)
        })
        .map(|l| format!("{l}\n"))
        .collect();
    for (label, d) in digests {
        let _ = writeln!(out, "{SIM_VERSION}\t{workload}\t{label}\t{d:032x}");
    }
    std::fs::write(path, out)
}

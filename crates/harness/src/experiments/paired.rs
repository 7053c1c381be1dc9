//! Figures 5–12 and the §4/§5 headline summary.
//!
//! All eight artefacts derive from one pair of runs per benchmark
//! (conventional 128-entry LSQ vs SAMIE-LSQ on identical traces), so the
//! harness runs the suite once and slices the results.

use energy_model::{active_area, dcache_energy_nj, dtlb_energy_nj, price_lsq};
use samie_lsq::SamieConfig;

use crate::runner::PairedRun;
use crate::table::{fmt, Table};

/// Figure 5 — % IPC loss of SAMIE vs the conventional LSQ.
pub fn fig5_table(runs: &[PairedRun]) -> Table {
    let mut t = Table::new(
        "Figure 5 - % IPC loss of SAMIE-LSQ vs conventional",
        &["bench", "conv_ipc", "samie_ipc", "ipc_loss_%"],
    );
    let mut sum = 0.0;
    for r in runs {
        sum += r.ipc_loss();
        t.push_row(vec![
            r.name.clone(),
            fmt(r.conv.ipc(), 3),
            fmt(r.samie.ipc(), 3),
            fmt(r.ipc_loss() * 100.0, 2),
        ]);
    }
    t.push_row(vec![
        "SPEC".into(),
        String::new(),
        String::new(),
        fmt(sum / runs.len() as f64 * 100.0, 2),
    ]);
    t
}

/// Figure 6 — deadlock-avoidance flushes per million cycles.
pub fn fig6_table(runs: &[PairedRun]) -> Table {
    let mut t = Table::new(
        "Figure 6 - deadlock flushes per Mcycle (SAMIE)",
        &["bench", "deadlocks_per_mcycle", "nospace_per_mcycle"],
    );
    for r in runs {
        let ns = r.samie.nospace_flushes as f64 * 1e6 / r.samie.cycles.max(1) as f64;
        t.push_row(vec![
            r.name.clone(),
            fmt(r.samie.deadlocks_per_mcycle(), 1),
            fmt(ns, 1),
        ]);
    }
    t
}

/// Figure 7 — LSQ dynamic energy (nJ), conventional vs SAMIE.
pub fn fig7_table(runs: &[PairedRun]) -> Table {
    let mut t = Table::new(
        "Figure 7 - LSQ dynamic energy (nJ)",
        &["bench", "conventional_nj", "samie_nj", "saving_%"],
    );
    let (mut csum, mut ssum) = (0.0, 0.0);
    for r in runs {
        let c = price_lsq(&r.conv.lsq).total();
        let s = price_lsq(&r.samie.lsq).total();
        csum += c;
        ssum += s;
        t.push_row(vec![
            r.name.clone(),
            fmt(c, 0),
            fmt(s, 0),
            fmt((1.0 - s / c) * 100.0, 1),
        ]);
    }
    t.push_row(vec![
        "SPEC".into(),
        fmt(csum, 0),
        fmt(ssum, 0),
        fmt((1.0 - ssum / csum) * 100.0, 1),
    ]);
    t
}

/// Figure 8 — SAMIE LSQ energy breakdown.
pub fn fig8_table(runs: &[PairedRun]) -> Table {
    let mut t = Table::new(
        "Figure 8 - SAMIE energy breakdown (%)",
        &["bench", "distriblsq", "sharedlsq", "addrbuffer", "bus"],
    );
    for r in runs {
        let e = price_lsq(&r.samie.lsq);
        let (d, s, a, b) = e.breakdown_fractions();
        t.push_row(vec![
            r.name.clone(),
            fmt(d * 100.0, 1),
            fmt(s * 100.0, 1),
            fmt(a * 100.0, 1),
            fmt(b * 100.0, 1),
        ]);
    }
    t
}

/// Figure 9 — L1 D-cache dynamic energy.
pub fn fig9_table(runs: &[PairedRun]) -> Table {
    let mut t = Table::new(
        "Figure 9 - L1 D-cache dynamic energy (nJ)",
        &["bench", "conventional_nj", "samie_nj", "saving_%"],
    );
    let (mut csum, mut ssum) = (0.0, 0.0);
    for r in runs {
        let c = dcache_energy_nj(&r.conv.l1d);
        let s = dcache_energy_nj(&r.samie.l1d);
        csum += c;
        ssum += s;
        t.push_row(vec![
            r.name.clone(),
            fmt(c, 0),
            fmt(s, 0),
            fmt((1.0 - s / c) * 100.0, 1),
        ]);
    }
    t.push_row(vec![
        "SPEC".into(),
        fmt(csum, 0),
        fmt(ssum, 0),
        fmt((1.0 - ssum / csum) * 100.0, 1),
    ]);
    t
}

/// Figure 10 — D-TLB dynamic energy.
pub fn fig10_table(runs: &[PairedRun]) -> Table {
    let mut t = Table::new(
        "Figure 10 - D-TLB dynamic energy (nJ)",
        &["bench", "conventional_nj", "samie_nj", "saving_%"],
    );
    let (mut csum, mut ssum) = (0.0, 0.0);
    for r in runs {
        let c = dtlb_energy_nj(r.conv.dtlb_accesses);
        let s = dtlb_energy_nj(r.samie.dtlb_accesses);
        csum += c;
        ssum += s;
        t.push_row(vec![
            r.name.clone(),
            fmt(c, 0),
            fmt(s, 0),
            fmt((1.0 - s / c) * 100.0, 1),
        ]);
    }
    t.push_row(vec![
        "SPEC".into(),
        fmt(csum, 0),
        fmt(ssum, 0),
        fmt((1.0 - ssum / csum) * 100.0, 1),
    ]);
    t
}

/// Figure 11 — accumulated active LSQ area (µm²·cycles).
pub fn fig11_table(runs: &[PairedRun]) -> Table {
    let cfg = SamieConfig::paper();
    let mut t = Table::new(
        "Figure 11 - accumulated active LSQ area (um2*cycles)",
        &["bench", "conventional", "samie", "samie_vs_conv_%"],
    );
    let (mut csum, mut ssum) = (0.0, 0.0);
    for r in runs {
        let c = active_area(&r.conv.lsq, &cfg).total();
        let s = active_area(&r.samie.lsq, &cfg).total();
        csum += c;
        ssum += s;
        t.push_row(vec![
            r.name.clone(),
            fmt(c, 0),
            fmt(s, 0),
            fmt(s / c * 100.0, 1),
        ]);
    }
    t.push_row(vec![
        "SPEC".into(),
        fmt(csum, 0),
        fmt(ssum, 0),
        fmt(ssum / csum * 100.0, 1),
    ]);
    t
}

/// Figure 12 — SAMIE active-area breakdown.
pub fn fig12_table(runs: &[PairedRun]) -> Table {
    let cfg = SamieConfig::paper();
    let mut t = Table::new(
        "Figure 12 - SAMIE active-area breakdown (%)",
        &["bench", "distriblsq", "sharedlsq", "addrbuffer"],
    );
    for r in runs {
        let a = active_area(&r.samie.lsq, &cfg);
        let (d, s, b) = a.breakdown_fractions();
        t.push_row(vec![
            r.name.clone(),
            fmt(d * 100.0, 1),
            fmt(s * 100.0, 1),
            fmt(b * 100.0, 1),
        ]);
    }
    t
}

/// Headline numbers of the paper's abstract / §5, measured vs published.
pub fn summary_table(runs: &[PairedRun]) -> Table {
    let cfg = SamieConfig::paper();
    let n = runs.len() as f64;
    let mean = |f: &dyn Fn(&PairedRun) -> f64| runs.iter().map(f).sum::<f64>() / n;

    let ipc_loss = mean(&|r| r.ipc_loss());
    let lsq_saving =
        mean(&|r| 1.0 - price_lsq(&r.samie.lsq).total() / price_lsq(&r.conv.lsq).total());
    let dcache_saving =
        mean(&|r| 1.0 - dcache_energy_nj(&r.samie.l1d) / dcache_energy_nj(&r.conv.l1d));
    let dtlb_saving = mean(&|r| {
        1.0 - dtlb_energy_nj(r.samie.dtlb_accesses) / dtlb_energy_nj(r.conv.dtlb_accesses)
    });
    let area_ratio =
        mean(&|r| active_area(&r.samie.lsq, &cfg).total() / active_area(&r.conv.lsq, &cfg).total());

    let mut t = Table::new(
        "Summary - headline results (measured vs paper)",
        &["metric", "measured", "paper"],
    );
    t.push_row(vec![
        "LSQ dynamic energy saving".into(),
        fmt(lsq_saving * 100.0, 1) + "%",
        "82%".into(),
    ]);
    t.push_row(vec![
        "L1 D-cache energy saving".into(),
        fmt(dcache_saving * 100.0, 1) + "%",
        "42%".into(),
    ]);
    t.push_row(vec![
        "D-TLB energy saving".into(),
        fmt(dtlb_saving * 100.0, 1) + "%",
        "73%".into(),
    ]);
    t.push_row(vec![
        "IPC loss".into(),
        fmt(ipc_loss * 100.0, 2) + "%",
        "0.6%".into(),
    ]);
    t.push_row(vec![
        "SAMIE active area vs conventional".into(),
        fmt(area_ratio * 100.0, 1) + "%",
        "~95% (5% smaller)".into(),
    ]);
    t
}

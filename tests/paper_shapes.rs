//! Shape tests: the qualitative results of every paper figure must hold
//! on reduced runs. These bands are deliberately loose — the reproduction
//! targets orderings and crossovers, not absolute numbers (see
//! EXPERIMENTS.md) — but tight enough to catch regressions that would
//! invert a conclusion.

use exp_harness::runner::{run_paired_suite, PairedRun, RunConfig, Runner};
use ooo_sim::SimStats;
use samie_lsq::{ArbConfig, DesignSpec, SamieConfig};
use spec_traces::{by_name, WorkloadSpec};

fn rc() -> RunConfig {
    RunConfig {
        instrs: 60_000,
        warmup: 15_000,
        seed: 42,
    }
}

fn sim(spec: &WorkloadSpec, design: DesignSpec, rc: &RunConfig) -> SimStats {
    Runner::direct().stats(design, spec, rc)
}

fn paired(spec: &WorkloadSpec, rc: &RunConfig) -> PairedRun {
    let mut runs = run_paired_suite([*spec], rc, &Runner::direct());
    runs.remove(0)
}

#[test]
fn fig1_shape_banking_degrades_arb() {
    // IPC relative to unbounded falls monotonically-ish with banking and
    // collapses at 128x1; halving in-flight ops always hurts.
    let rc = rc();
    let spec = by_name("swim").unwrap();
    let reference = sim(spec, DesignSpec::Unbounded, &rc).ipc();
    let rel = |banks: usize, rows: usize, half: bool| {
        let mut cfg = ArbConfig::fig1(banks, rows);
        if half {
            cfg = cfg.half_inflight();
        }
        sim(spec, DesignSpec::Arb(cfg), &rc).ipc() / reference
    };
    let full_assoc = rel(1, 128, false);
    let banked = rel(64, 2, false);
    let extreme = rel(128, 1, false);
    assert!(
        full_assoc > 0.9,
        "1x128 should be near-ideal, got {full_assoc}"
    );
    assert!(
        extreme < banked + 1e-9,
        "128x1 must be the worst ({extreme} vs {banked})"
    );
    assert!(extreme < 0.95 * full_assoc, "extreme banking must hurt");
    let half = rel(1, 128, true);
    assert!(half < full_assoc, "halving in-flight ops must cost IPC");
}

#[test]
fn fig3_shape_shared_pressure_ordering() {
    // FP conflict programs need the SharedLSQ; integer programs do not,
    // and less banking means less SharedLSQ pressure.
    let rc = rc();
    let mean_shared = |bench: &str, banks: usize, epb: usize| {
        let spec = by_name(bench).unwrap();
        let design = DesignSpec::Samie(SamieConfig::sizing_study(banks, epb));
        sim(spec, design, &rc).lsq.occupancy.mean_shared_entries()
    };
    for pathological in ["facerec", "apsi"] {
        for tame in ["gzip", "crafty"] {
            assert!(
                mean_shared(pathological, 64, 2) > 2.0 * mean_shared(tame, 64, 2),
                "{pathological} must pressure the SharedLSQ more than {tame}"
            );
        }
    }
    // More banking -> more conflicts -> more SharedLSQ demand.
    assert!(mean_shared("facerec", 128, 1) > mean_shared("facerec", 32, 4));
}

#[test]
fn fig5_shape_ipc_loss_is_small_except_pathological() {
    let rc = rc();
    let loss = |bench: &str| paired(by_name(bench).unwrap(), &rc).ipc_loss();
    // Pathological programs lose noticeably...
    assert!(loss("ammp") > 0.02, "ammp loss {}", loss("ammp"));
    // ...ordinary programs do not...
    for bench in ["gzip", "gcc", "crafty"] {
        assert!(loss(bench).abs() < 0.02, "{bench} loss {}", loss(bench));
    }
    // ...and the capacity-bound programs gain (SAMIE holds > 128 ops).
    assert!(
        loss("fma3d") < 0.005,
        "fma3d should not lose, got {}",
        loss("fma3d")
    );
}

#[test]
fn fig6_shape_ammp_dominates_deadlocks() {
    let rc = rc();
    let dl = |bench: &str| {
        sim(by_name(bench).unwrap(), DesignSpec::samie_paper(), &rc).deadlocks_per_mcycle()
    };
    let ammp = dl("ammp");
    assert!(ammp > 50.0, "ammp must deadlock visibly, got {ammp}");
    for bench in ["gzip", "gcc", "swim", "crafty"] {
        assert!(
            dl(bench) < ammp / 5.0,
            "{bench} deadlocks {} vs ammp {ammp}",
            dl(bench)
        );
    }
}

#[test]
fn fig7_to_10_shape_energy_savings() {
    let rc = rc();
    let mut lsq_savings = Vec::new();
    let mut dcache_savings = Vec::new();
    let mut dtlb_savings = Vec::new();
    for bench in ["gcc", "swim", "mcf", "gzip", "equake", "sixtrack"] {
        let pr = paired(by_name(bench).unwrap(), &rc);
        let lsq = 1.0
            - energy_model::price_lsq(&pr.samie.lsq).total()
                / energy_model::price_lsq(&pr.conv.lsq).total();
        let dcache = 1.0
            - energy_model::dcache_energy_nj(&pr.samie.l1d)
                / energy_model::dcache_energy_nj(&pr.conv.l1d);
        let dtlb = 1.0 - pr.samie.dtlb_accesses as f64 / pr.conv.dtlb_accesses as f64;
        assert!(lsq > 0.4, "{bench}: LSQ saving {lsq}");
        assert!(dcache > 0.05, "{bench}: D$ saving {dcache}");
        assert!(dtlb > 0.2, "{bench}: D-TLB saving {dtlb}");
        assert!(dtlb > dcache, "{bench}: D-TLB saving must exceed D$ saving");
        lsq_savings.push(lsq);
        dcache_savings.push(dcache);
        dtlb_savings.push(dtlb);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    // Paper: 82 / 42 / 73 %. Accept generous bands around the ordering.
    assert!(
        mean(&lsq_savings) > 0.6,
        "mean LSQ saving {}",
        mean(&lsq_savings)
    );
    assert!(
        mean(&dcache_savings) > 0.25,
        "mean D$ saving {}",
        mean(&dcache_savings)
    );
    assert!(
        mean(&dtlb_savings) > 0.5,
        "mean D-TLB saving {}",
        mean(&dtlb_savings)
    );
    // swim shares lines more than sixtrack (Fig. 9's extremes).
    assert!(
        dcache_savings[1] > dcache_savings[5],
        "swim must beat sixtrack"
    );
}

#[test]
fn fig11_shape_integer_codes_are_samies_worst_area_case() {
    let rc = rc();
    let cfg = SamieConfig::paper();
    let ratio = |bench: &str| {
        let pr = paired(by_name(bench).unwrap(), &rc);
        energy_model::active_area(&pr.samie.lsq, &cfg).total()
            / energy_model::active_area(&pr.conv.lsq, &cfg).total()
    };
    // Low-occupancy integer codes: SAMIE's spare-entry floor dominates.
    let crafty = ratio("crafty");
    // High-occupancy FP codes amortise it.
    let fma3d = ratio("fma3d");
    assert!(crafty > fma3d, "crafty {crafty} vs fma3d {fma3d}");
    assert!(
        crafty > 1.0,
        "SAMIE should be the larger active area on crafty"
    );
}

#[test]
fn table1_and_section36_regenerate() {
    use energy_model::cacti::{cache_access_times, lsq_delays, CactiParams};
    let p = CactiParams::default();
    // §3.6 numbers within 2 %.
    let d = lsq_delays(&p);
    assert!((d.conventional_128 - 0.881).abs() / 0.881 < 0.02);
    assert!((d.dist_total - 0.714).abs() / 0.714 < 0.02);
    // SAMIE's critical path beats the conventional LSQ by ~23 %.
    assert!(d.conventional_128 / d.dist_total > 1.15);
    // Table 1 within 10 %, improvement shrinking with size/ports.
    for (kb, assoc, ports, conv, known) in energy_model::constants::TABLE1 {
        let m = cache_access_times(&p, kb, assoc, ports);
        assert!((m.conventional_ns - conv).abs() / conv < 0.10);
        assert!((m.way_known_ns - known).abs() / known < 0.10);
    }
}

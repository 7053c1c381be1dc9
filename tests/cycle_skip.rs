//! Event-driven cycle skipping is a pure host-speed optimization: the
//! simulator must produce **bit-identical** [`SimStats`] — cycle count,
//! commit mix, cache counters, flush counters and the entire LSQ
//! activity ledger — with the skipper on (the default) or off, for every
//! design family on every catalog workload. The only observable
//! difference is [`Simulator::skipped_cycles`], which never enters the
//! stats. The same matrix proves the [`PipelineProbe`] seam observes
//! without perturbing: `run_with` a probe equals `run`.

use ooo_sim::{PipelineProbe, SimStats, Simulator, Stage};
use samie_lsq::DesignSpec;
use spec_traces::{all_workloads, Workload};

/// The measured interval's stats and the cycles skipped within it. The
/// latter is the difference of [`Simulator::skipped_cycles`] across the
/// run: that count starts at construction, while `warm_up` resets
/// `SimStats::cycles`.
fn run(design: &DesignSpec, workload: &Workload, skip: bool) -> (SimStats, u64) {
    let mut sim = Simulator::paper(design.build(), workload.build_trace(5));
    sim.set_cycle_skipping(skip);
    sim.warm_up(600);
    let before = sim.skipped_cycles();
    let stats = sim.run(2_500);
    (stats, sim.skipped_cycles() - before)
}

/// One design per family.
fn families() -> Vec<DesignSpec> {
    vec![
        DesignSpec::conventional_paper(),
        DesignSpec::filtered_paper(),
        DesignSpec::samie_paper(),
        "arb".parse().unwrap(),
        DesignSpec::Unbounded,
        DesignSpec::Oracle,
    ]
}

/// The full 6-family × catalog matrix (26 calibrated benchmarks plus the
/// adversarial pack), skip on vs skip off.
#[test]
fn skipping_is_bit_invisible_across_the_design_workload_matrix() {
    let designs = families();
    let mut total_skipped = 0;
    for workload in all_workloads() {
        for design in &designs {
            let (on, skipped) = run(design, &workload, true);
            let (off, off_skipped) = run(design, &workload, false);
            assert_eq!(off_skipped, 0, "skipper fired while disabled");
            assert_eq!(
                on,
                off,
                "stats diverge with skipping on: {} on {}",
                design,
                workload.name()
            );
            total_skipped += skipped;
        }
    }
    assert!(
        total_skipped > 0,
        "the skipper never fired across the whole matrix — dead feature"
    );
}

/// Long-latency stalls are where the skipper earns its keep: on
/// memory-bound work a meaningful share of the measured cycles must be
/// jumped, not stepped. pointer-chase stalls with a full ROB and fetch
/// queue, and SAMIE on alias-storm with a full AddrBuffer refusing the
/// retried address every cycle; both must be skipped.
#[test]
fn skipper_covers_stall_cycles_on_memory_bound_work() {
    let cases = families()
        .into_iter()
        .map(|d| (d, "pointer-chase", 0.9))
        .chain([
            (DesignSpec::samie_paper(), "alias-storm", 0.5),
            (DesignSpec::samie_paper(), "mcf", 0.1),
        ]);
    for (design, workload, floor) in cases {
        let workload = spec_traces::find_workload(workload).unwrap();
        let (stats, skipped) = run(&design, &workload, true);
        let frac = skipped as f64 / stats.cycles as f64;
        assert!(
            frac >= floor,
            "{design} on {}: skipped {frac:.3} of the measured cycles, want >= {floor}",
            workload.name()
        );
    }
}

/// Counts what the pipeline reports through the probe seam.
#[derive(Default)]
struct CountingProbe {
    entered: [u64; 7],
    exited: [u64; 7],
    stepped: u64,
    skipped: u64,
}

impl PipelineProbe for CountingProbe {
    fn enter(&mut self, stage: Stage) {
        self.entered[stage as usize] += 1;
    }

    fn exit(&mut self, stage: Stage, _events: u64) {
        self.exited[stage as usize] += 1;
    }

    fn cycle(&mut self) {
        self.stepped += 1;
    }

    fn skipped(&mut self, k: u64) {
        self.skipped += k;
    }
}

/// A probe on the same matrix leaves every statistic bit-identical, and
/// its stepped plus skipped cycles account for every measured cycle.
#[test]
fn probed_runs_are_bit_identical_and_account_for_every_cycle() {
    for workload in all_workloads() {
        for design in &families() {
            let (plain, _) = run(design, &workload, true);
            let mut sim = Simulator::paper(design.build(), workload.build_trace(5));
            sim.warm_up(600);
            let skipped_before = sim.skipped_cycles();
            let mut probe = CountingProbe::default();
            let probed = sim.run_with(2_500, &mut probe);
            let at = format!("{} on {}", design, workload.name());
            assert_eq!(probed, plain, "probe perturbed the stats: {at}");
            assert_eq!(
                probe.stepped + probe.skipped,
                probed.cycles,
                "stepped + skipped != measured cycles: {at}"
            );
            assert_eq!(probe.skipped, sim.skipped_cycles() - skipped_before, "{at}");
            for stage in Stage::ALL {
                let i = stage as usize;
                assert_eq!(
                    (probe.entered[i], probe.exited[i]),
                    (probe.stepped, probe.stepped),
                    "{} not bracketed once per stepped cycle: {at}",
                    stage.name()
                );
            }
        }
    }
}

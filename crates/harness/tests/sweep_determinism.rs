//! The sweep engine's regression-tracking contract: the same grid under
//! the same seeds produces byte-identical `BENCH_sweep.json` (modulo the
//! wall-clock fields, which `to_json_deterministic` zeroes), regardless
//! of worker count or scheduling order.

use exp_harness::runner::{RunConfig, Runner};
use exp_harness::sweep::SweepGrid;
use exp_harness::{designs_from_specs, run_sweep, BenchSel, DesignSpec};
use ooo_sim::SimConfig;

fn grid(seed: u64) -> SweepGrid {
    SweepGrid {
        designs: designs_from_specs(
            DesignSpec::parse_list("conv:64,samie,filtered:128:1024:2").unwrap(),
        ),
        benchmarks: BenchSel::parse_bench_list("gzip,swim")
            .unwrap()
            .iter()
            .map(|b| b.resolve().unwrap())
            .collect(),
        seeds: vec![seed],
        rc: RunConfig {
            instrs: 12_000,
            warmup: 3_000,
            seed,
        },
        cfg: SimConfig::paper(),
    }
}

#[test]
fn same_grid_and_seed_is_byte_identical() {
    let a = run_sweep(&grid(11), 1, &Runner::direct());
    let b = run_sweep(&grid(11), 1, &Runner::direct());
    assert_eq!(
        a.to_json_deterministic(),
        b.to_json_deterministic(),
        "sweep results must be byte-identical under the same grid + seed"
    );
    // The CSV view shares everything but the timing columns.
    for (ra, rb) in a.table().rows.iter().zip(b.table().rows.iter()) {
        assert_eq!(ra[..9], rb[..9], "non-timing CSV columns must match");
    }
}

#[test]
fn worker_count_does_not_change_results() {
    let serial = run_sweep(&grid(11), 1, &Runner::direct());
    let parallel = run_sweep(&grid(11), 4, &Runner::direct());
    assert_eq!(
        serial.to_json_deterministic(),
        parallel.to_json_deterministic()
    );
}

#[test]
fn different_seed_changes_results() {
    let a = run_sweep(&grid(11), 1, &Runner::direct());
    let b = run_sweep(&grid(12), 1, &Runner::direct());
    assert_ne!(a.to_json_deterministic(), b.to_json_deterministic());
}

/// The number after `"total_sim_ips": ` in a `BENCH_sweep.json`.
fn total_sim_ips(json: &str) -> f64 {
    let key = "\"total_sim_ips\": ";
    let at = json.find(key).expect("total_sim_ips present") + key.len();
    let digits: String = json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().expect("total_sim_ips is an integer")
}

#[test]
fn written_json_round_trips_through_the_baseline_parser() {
    let report = run_sweep(&grid(5), 0, &Runner::direct());
    let dir = std::env::temp_dir().join("samie_sweep_determinism_test");
    let path = report.write(&dir).unwrap();
    assert_eq!(path.file_name().unwrap(), "BENCH_sweep.json");
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(
        total_sim_ips(&json) > 0.0,
        "a timed run must report positive throughput"
    );
    // The deterministic rendition zeroes exactly the timing fields.
    let det = report.to_json_deterministic();
    assert_eq!(total_sim_ips(&det), 0.0);
    assert_eq!(
        json.matches("\"design\"").count(),
        det.matches("\"design\"").count(),
        "both renditions carry every point"
    );
}

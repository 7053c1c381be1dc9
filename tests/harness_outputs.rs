//! Integration tests for the experiment harness: every figure/table
//! generator must produce well-formed tables and valid CSV from real
//! (reduced) runs.

use exp_harness::experiments::{fig3_4, paired, tab1_delay, tab456};
use exp_harness::runner::{run_paired_suite, RunConfig, Runner};
use exp_harness::Table;
use spec_traces::by_name;

fn quick_rc() -> RunConfig {
    RunConfig {
        instrs: 15_000,
        warmup: 4_000,
        seed: 42,
    }
}

fn check_table(t: &Table, expected_rows: usize) {
    assert!(!t.title.is_empty());
    assert_eq!(t.rows.len(), expected_rows, "{}", t.title);
    for row in &t.rows {
        assert_eq!(row.len(), t.headers.len(), "{}", t.title);
    }
    // CSV round-trip sanity: header + one line per row.
    let csv = t.to_csv();
    assert_eq!(csv.lines().count(), expected_rows + 1, "{}", t.title);
}

#[test]
fn paired_figures_produce_complete_tables() {
    let specs = [*by_name("gzip").unwrap(), *by_name("swim").unwrap()];
    let runs = run_paired_suite(specs, &quick_rc(), &Runner::direct());
    assert_eq!(runs.len(), 2);

    check_table(&paired::fig5_table(&runs), 3); // 2 benchmarks + SPEC row
    check_table(&paired::fig6_table(&runs), 2);
    check_table(&paired::fig7_table(&runs), 3);
    check_table(&paired::fig8_table(&runs), 2);
    check_table(&paired::fig9_table(&runs), 3);
    check_table(&paired::fig10_table(&runs), 3);
    check_table(&paired::fig11_table(&runs), 3);
    check_table(&paired::fig12_table(&runs), 2);
    check_table(&paired::summary_table(&runs), 5);
}

#[test]
fn savings_columns_are_finite_and_sane() {
    let specs = [*by_name("gcc").unwrap()];
    let runs = run_paired_suite(specs, &quick_rc(), &Runner::direct());
    let t = paired::fig7_table(&runs);
    // saving_% column parses and lies in (-100, 100).
    for row in &t.rows {
        let v: f64 = row[3].parse().expect("numeric saving");
        assert!(v.abs() < 100.0, "saving {v}");
    }
    let t = paired::fig8_table(&runs);
    for row in &t.rows {
        let sum: f64 = row[1..].iter().map(|c| c.parse::<f64>().unwrap()).sum();
        assert!((sum - 100.0).abs() < 0.5, "breakdown sums to {sum}");
    }
}

#[test]
fn sizing_study_tables() {
    // Two benchmarks, all three geometries, via the real runner path
    // (the full suite is the harness's job; here we check the table
    // shaping).
    let suite = [*by_name("gzip").unwrap(), *by_name("facerec").unwrap()];
    let runs = fig3_4::run_with(&quick_rc(), &Runner::direct(), &suite);
    assert_eq!(runs.len(), 6); // 2 benchmarks x 3 geometries
    let t3 = fig3_4::fig3_table(&runs);
    check_table(&t3, 3); // 2 benchmarks + SPEC
    let t4 = fig3_4::fig4_table(&runs);
    check_table(&t4, 16); // N = 0,4,...,60
                          // The cumulative curve is monotone non-decreasing.
    let counts: Vec<usize> = t4.rows.iter().map(|r| r[1].parse().unwrap()).collect();
    assert!(counts.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn static_tables_regenerate() {
    check_table(&tab1_delay::tab1_table(), 8);
    check_table(&tab1_delay::delay_table(), 7);
    check_table(&tab456::regen_table45(), 3);
    check_table(&tab456::table6(), 9);
    // The one-constant regeneration of the comparison bases stays within
    // 15 % of the published values.
    for row in &tab456::regen_table45().rows {
        let err: f64 = row[4].parse().unwrap();
        assert!(err.abs() < 15.0, "regen error {err}%");
    }
}

#[test]
fn csv_files_land_on_disk() {
    let dir = std::env::temp_dir().join("samie_harness_outputs_test");
    let _ = std::fs::remove_dir_all(&dir);
    let t = tab1_delay::delay_table();
    let path = t.write_csv(&dir).unwrap();
    let content = std::fs::read_to_string(&path).unwrap();
    assert!(content.contains("DistribLSQ total"));
    assert!(path
        .file_name()
        .unwrap()
        .to_str()
        .unwrap()
        .ends_with(".csv"));
}

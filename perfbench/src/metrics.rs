//! The metric catalog: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use std::collections::BTreeMap;

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end host metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: [MetricDef; 6] = [
    m("sim_mips", "Minstr/s", "higher"),
    m("cold_s", "s", "lower"),
    m("warm_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("pass_frac", "ratio", "higher"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload.
pub const PER_LAYER: [MetricDef; 57] = [
    m("workloads.build_us", "us", "lower"),
    m("workloads.ops", "count", "lower"),
    m("workloads.ns_per_op", "ns", "lower"),
    m("riscv.pack_ms", "ms", "lower"),
    m("riscv.oracle_ms", "ms", "lower"),
    m("riscv.retired", "count", "lower"),
    m("core.dispatch.calls", "count", "lower"),
    m("core.dispatch.ns_per_call", "ns", "lower"),
    m("core.address_ready.calls", "count", "lower"),
    m("core.address_ready.ns_per_call", "ns", "lower"),
    m("core.load_forward_status.calls", "count", "lower"),
    m("core.load_forward_status.ns_per_call", "ns", "lower"),
    m("core.commit.calls", "count", "lower"),
    m("core.commit.ns_per_call", "ns", "lower"),
    m("core.tick.calls", "count", "lower"),
    m("core.tick.ns_per_call", "ns", "lower"),
    m("core.tick_idle.calls", "count", "lower"),
    m("core.tick_idle.ns_per_call", "ns", "lower"),
    m("core.flush_all.calls", "count", "lower"),
    m("core.flush_all.ns_per_call", "ns", "lower"),
    m("core.on_line_replaced.calls", "count", "lower"),
    m("core.on_line_replaced.ns_per_call", "ns", "lower"),
    m("core.share", "ratio", "lower"),
    m("core.tick.share", "ratio", "lower"),
    m("core.forwards", "count", "higher"),
    m("core.deadlock_flushes", "count", "lower"),
    m("core.nospace_flushes", "count", "lower"),
    m("mem.l1d_accesses", "count", "lower"),
    m("mem.l1d_miss_rate", "ratio", "lower"),
    m("mem.way_known_frac", "ratio", "higher"),
    m("mem.l2_misses", "count", "lower"),
    m("mem.dtlb_accesses", "count", "lower"),
    m("mem.dtlb_misses", "count", "lower"),
    m("mem.replay_ns_per_access", "ns", "lower"),
    m("sim.cycles", "count", "lower"),
    m("sim.stepped_cycles", "count", "lower"),
    m("sim.skipped_frac", "ratio", "higher"),
    m("sim.committed", "count", "higher"),
    m("sim.ipc", "instr/cycle", "higher"),
    m("sim.mispredicts", "count", "lower"),
    m("sim.ns_per_cycle", "ns", "lower"),
    m("sim.self_ns_per_stepped_cycle", "ns", "lower"),
    m("sim.trace_overhead", "ratio", "lower"),
    m("sim.calibrated_overhead", "ratio", "lower"),
    m("energy.price_us", "us", "lower"),
    m("energy.lsq_saving_pct", "%", "higher"),
    m("energy.dcache_saving_pct", "%", "higher"),
    m("energy.dtlb_saving_pct", "%", "higher"),
    m("store.puts", "count", "lower"),
    m("store.hits", "count", "higher"),
    m("store.misses", "count", "lower"),
    m("store.put_us", "us", "lower"),
    m("store.get_us", "us", "lower"),
    m("store.bytes", "bytes", "lower"),
    m("harness.parallel_eff", "ratio", "higher"),
    m("harness.render_ms", "ms", "lower"),
    m("harness.session_overhead_us", "us", "lower"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Read back a line written by [`result_line`]: attempted, failed and
/// every catalog metric it holds.
pub fn parse_result_line(line: &str) -> Option<(u64, u64, Values)> {
    fn after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = line[line.find(key)? + key.len()..].trim_start();
        Some(rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim())
    }
    let attempted = after(line, "\"attempted\":")?.parse().ok()?;
    let failed = after(line, "\"failed\":")?.parse().ok()?;
    let mut values = Values::new();
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(v) = after(line, &format!("\"{}\": {{\"value\":", d.name)) {
            values.insert(d.name.to_string(), v.parse().ok()?);
        }
    }
    Some((attempted, failed, values))
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics in catalog order.
///
/// # Panics
///
/// Panics if `values` misses a catalog metric or holds a non-finite
/// value — either is a defect in the benchmark itself.
pub fn result_line(defs: &[MetricDef], values: &Values, attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = *values
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let values: Values = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.to_string(), 0.1 + i as f64 * 1e-7))
            .collect();
        let line = result_line(&END_TO_END, &values, 12, 3);
        assert_eq!(parse_result_line(&line), Some((12, 3, values)));
    }
}

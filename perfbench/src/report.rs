//! Rendering: the human-readable metric table and the one-line JSON
//! result (hand-rolled, as everywhere in the repository).

use crate::{Metric, Metrics};

/// End-to-end metrics in the JSON result of an untraced run (the
/// `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: [&str; 7] = [
    "host_inv_per_s",
    "peak_rss_mb",
    "setup_s",
    "virt_p50_ms",
    "virt_p99_ms",
    "slo_pct",
    "virt_throughput_inv_s",
];

/// Per-layer metrics in the JSON result of a traced run (the
/// `per_layer` list of `BENCHMARK.json`): those every workload
/// defines and whose value is not a fixed virtual time. The rest of
/// the per-layer table (per-kernel times, queue and runner phase
/// percentiles, wire time, workload-specific counters) is printed
/// above the JSON line.
pub const PER_LAYER: [&str; 25] = [
    "kernels.exec_share_pct",
    "kernels.exec_us_per_call",
    "kernels.work_ns_per_call",
    "client.poll_ns_per_inv",
    "server.residual_ns_per_inv",
    "trace_overhead_pct",
    "guest.ns_per_fuel",
    "guest.fuel_per_inv",
    "rss.kb_per_client",
    "rss.b_per_inv",
    "dispatch.batch_fill",
    "dispatch.ejected",
    "device.utilization_mean",
    "pool.cold_starts",
    "pool.reaped",
    "dataplane.hit_ratio",
    "dataplane.evictions",
    "workflow.chained_ratio",
    "cold_start_pct",
    "error_pct",
    "retry_amplification",
    "setup.deploy_s",
    "setup.prewarm_s",
    "setup.register_s",
    "setup.inputs_s",
];

/// Formats a value with all its digits (shortest round-trip form).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The human-readable table: one `name = value unit` line per metric.
pub fn table(title: &str, m: &Metrics) -> String {
    let mut out = format!("# {title}\n");
    let width = m.keys().map(String::len).max().unwrap_or(0);
    for (name, Metric { value, unit }) in m {
        out.push_str(&format!("{name:<width$} = {} {unit}\n", number(*value)));
    }
    out
}

/// The JSON result line over the metrics named in `names`.
///
/// # Panics
///
/// If `m` lacks one of `names` — a benchmark bug, not a measurement.
pub fn json(correct: bool, attempted: u64, failed: u64, m: &Metrics, names: &[&str]) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|&n| {
            let Metric { value, unit } = m
                .get(n)
                .unwrap_or_else(|| panic!("metric {n} was not computed"));
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::put;

    #[test]
    fn json_has_the_contract_shape() {
        let mut m = Metrics::new();
        put(&mut m, "a_ms", 1.5, "ms");
        put(&mut m, "b", 2.0, "count");
        let j = json(true, 10, 0, &m, &["a_ms"]);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn non_finite_values_render_as_numbers() {
        assert_eq!(number(f64::NAN), "0.0");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
    }
}

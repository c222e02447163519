//! The metric tables: every name the benchmark reports, with its unit and
//! direction. `BENCHMARK.json` lists the same names; a unit test keeps the
//! two in step.

use crate::stats::Summary;

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Deterministic for a seed (simulated cost, not host time).
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, exact: true }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [MetricDef; 13] = [
    host("setup_s", "s", Lower),
    host("inserts_per_s", "1/s", Higher),
    host("queries_per_s", "1/s", Higher),
    host("insert_us_p50", "us", Lower),
    host("insert_us_p99", "us", Lower),
    host("query_us_p50", "us", Lower),
    host("query_us_p99", "us", Lower),
    host("ns_per_hop", "ns", Lower),
    host("round_ms", "ms", Lower),
    host("peak_rss_mib", "MiB", Lower),
    exact("msgs_per_insert", "msgs"),
    exact("msgs_per_query", "msgs"),
    exact("virt_query_ms_p99", "virt_ms"),
];

/// The per-layer metrics, reported by the traced run of every workload
/// (0 where the workload never enters the layer).
pub const PER_LAYER: [MetricDef; 70] = [
    host("netsim.topology.build_ms", "ms", Lower),
    host("netsim.topology.neighbors_ns", "ns", Lower),
    host("netsim.topology.nearest_node_ns", "ns", Lower),
    host("netsim.topology.mutate_us", "us", Lower),
    host("netsim.topology.compact_ms", "ms", Lower),
    host("netsim.topology.patched_rows", "count", Lower),
    host("gpsr.planar.build_ms", "ms", Lower),
    host("gpsr.greedy.step_ns", "ns", Lower),
    host("gpsr.perimeter.step_ns", "ns", Lower),
    host("gpsr.router.route_us", "us", Lower),
    host("gpsr.router.hops_per_route", "count", Lower),
    host("gpsr.router.perimeter_share", "ratio", Lower),
    host("transport.cached.hit_ns", "ns", Lower),
    host("transport.cached.miss_us", "us", Lower),
    host("transport.cached.hit_rate", "ratio", Higher),
    host("transport.cached.evict_through_us", "us", Lower),
    host("transport.cached.rebuild_ms", "ms", Lower),
    host("transport.lru.evictions", "count", Lower),
    host("transport.ledger.charge_ns_per_hop", "ns", Lower),
    host("transport.clock.leg_ns_per_hop", "ns", Lower),
    host("transport.clock.fanout_ns_per_hop", "ns", Lower),
    host("transport.trace.record_ns", "ns", Lower),
    host("transport.deliver.clean_ns_per_hop", "ns", Lower),
    host("transport.lossy.deliver_ns_per_hop.prr1", "ns", Lower),
    host("transport.lossy.deliver_ns_per_hop.prr36_50", "ns", Lower),
    host("transport.lossy.rtx_share", "ratio", Lower),
    host("transport.lossy.hop_failures", "count", Lower),
    host("transport.lossy.attempts_p99", "count", Lower),
    host("transport.faults.deliver_ns_per_hop.plan0", "ns", Lower),
    host("transport.faults.deliver_ns_per_hop.plan1", "ns", Lower),
    host("transport.faults.deliver_ns_per_hop.plan16", "ns", Lower),
    host("transport.faults.detour_route_us", "us", Lower),
    host("transport.faults.detours", "count", Lower),
    host("core.insert.storage_cell_ns", "ns", Lower),
    host("core.resolve.relevant_cells_us.exact", "us", Lower),
    host("core.resolve.relevant_cells_us.partial1", "us", Lower),
    host("core.resolve.cells_per_query", "count", Lower),
    host("core.system.build_ms", "ms", Lower),
    host("core.system.insert_self_us", "us", Lower),
    host("core.forward.query_self_us", "us", Lower),
    host("core.forward.legs_per_query", "count", Lower),
    host("core.dynamics.epoch_self_ms", "ms", Lower),
    host("core.dynamics.repair_msgs_per_epoch", "msgs", Lower),
    host("core.dynamics.deferred_per_epoch", "count", Lower),
    host("dim.code.of_event_ns", "ns", Lower),
    host("dim.zone.build_ms", "ms", Lower),
    host("dim.zone.zones_overlapping_us", "us", Lower),
    host("dim.system.zones_per_query", "count", Lower),
    host("dim.system.query_self_us", "us", Lower),
    host("ght.hash.locate_ns", "ns", Lower),
    host("ght.table.put_us", "us", Lower),
    host("ght.table.get_us", "us", Lower),
    host("service.backend.shards_of_ns", "ns", Lower),
    host("service.backend.relevant_ids_us", "us", Lower),
    host("service.handle.submit_1t_req_per_s", "1/s", Higher),
    host("service.handle.scaling_2t", "ratio", Higher),
    host("service.handle.query_us_p50_2t", "us", Lower),
    host("service.handle.query_us_p99_2t", "us", Lower),
    host("service.handle.submit_overhead_us", "us", Lower),
    host("service.handle.serve_jobs1_req_per_s", "1/s", Higher),
    host("service.handle.serve_nc_req_per_s", "1/s", Higher),
    host("service.admission.coalesce_ratio", "ratio", Higher),
    host("service.admission.units_per_req", "ratio", Lower),
    host("epoch_ms_p50", "ms", Lower),
    host("epoch_ms_p90", "ms", Lower),
    host("serve_req_per_s", "1/s", Higher),
    host("bench.timer_ns", "ns", Lower),
    host("bench.trace_overhead_pct", "%", Lower),
    host("bench.generator_s", "s", Lower),
    host("bench.verify_s", "s", Lower),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// The definition.
    pub def: MetricDef,
    /// The reported value (the median over rounds or samples, or an exact
    /// count).
    pub value: f64,
    /// Min/quartiles/max over the per-round values behind `value`.
    pub summary: Summary,
    /// The probe refused to stand behind this value (MAD/median > 0.1).
    pub refused: bool,
}

impl MetricRow {
    /// A row whose value is the median of per-round `samples`.
    pub fn median_of(def: MetricDef, samples: &[f64]) -> Self {
        let summary = Summary::of(samples);
        MetricRow { def, value: summary.median, summary, refused: false }
    }

    /// A row holding one value.
    pub fn single(def: MetricDef, value: f64) -> Self {
        MetricRow { def, value, summary: Summary::exact(value), refused: false }
    }
}

/// The definition of end-to-end metric `name`.
///
/// # Panics
///
/// Panics on a name that is not in [`END_TO_END`]: a typo in this package.
pub fn end_to_end(name: &str) -> MetricDef {
    *END_TO_END.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("no metric {name}"))
}

/// The definition of per-layer metric `name`.
///
/// # Panics
///
/// Panics on a name that is not in [`PER_LAYER`]: a typo in this package.
pub fn per_layer(name: &str) -> MetricDef {
    *PER_LAYER.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("no layer metric {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    /// `BENCHMARK.json` and the tables above name the same metrics, with
    /// the same units and directions, in the same order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.word().to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::WorkloadId::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|d| d.name).collect();
        for name in &names {
            assert!(name.len() <= 64, "{name} is too long");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
    }
}

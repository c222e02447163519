//! What a run prints and writes: the metric table for people, the result
//! file for `compare`, and the one-line JSON the driver reads last.

use crate::harness::RunResult;
use crate::json::{number, quote};
use crate::metrics::MetricRow;
use std::fmt::Write as _;

/// The metric rows a run reports: end to end, or per layer when traced.
fn reported(result: &RunResult) -> &[MetricRow] {
    if result.end_to_end.is_empty() {
        &result.per_layer
    } else {
        &result.end_to_end
    }
}

/// The human-readable report.
pub fn table(result: &RunResult, commit: &str, nproc: usize) -> String {
    let c = &result.config;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} (seed {}, commit {commit}, nproc {nproc}{}{}) ==",
        c.workload.name(),
        c.seed,
        if c.quick { ", quick" } else { "" },
        if c.trace { ", traced" } else { "" },
    );
    let _ = writeln!(out, "   {}", result.shape);
    if !c.probes_only {
        let _ = writeln!(
            out,
            "   rounds {}  attempted {}  failed {}  failed_share {:.6}  digest {:016x}",
            result.rounds,
            result.log.attempted,
            result.log.failed(),
            result.log.failed_share(),
            result.digest
        );
    }
    let _ = writeln!(
        out,
        "   {:<46} {:>16} {:<8} {:>7} {:>14} {:>14} {:>14}",
        "metric", "value", "unit", "samples", "min", "median", "max"
    );
    for row in reported(result) {
        let value = if row.refused { "refused".to_string() } else { format!("{:.4}", row.value) };
        let _ = writeln!(
            out,
            "   {:<46} {:>16} {:<8} {:>7} {:>14.4} {:>14.4} {:>14.4}{}",
            row.def.name,
            value,
            row.def.unit,
            row.summary.samples,
            row.summary.min,
            row.summary.median,
            row.summary.max,
            if row.refused { "  (MAD/median > 0.1)" } else { "" },
        );
    }
    if let Some(line) = &result.reconciliation {
        let _ = writeln!(out, "   reconciliation {}: {line}", c.workload.name());
    }
    out
}

fn row_json(row: &MetricRow) -> String {
    let s = &row.summary;
    format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"exact\": {}, \"value\": {}, \
         \"samples\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}, \
         \"refused\": {}}}",
        quote(row.def.name),
        quote(row.def.unit),
        quote(row.def.better.word()),
        row.def.exact,
        number(row.value),
        s.samples,
        number(s.min),
        number(s.q1),
        number(s.median),
        number(s.q3),
        number(s.max),
        row.refused,
    )
}

/// The result file `compare` reads: every row with its sample count and
/// min/quartiles/max over rounds, under the run's commit, seed and `nproc`.
pub fn result_file(result: &RunResult, commit: &str, nproc: usize) -> String {
    let c = &result.config;
    let rows: Vec<String> = reported(result).iter().map(row_json).collect();
    format!(
        "{{\n \"workload\": {},\n \"seed\": {},\n \"seconds\": {},\n \"commit\": {},\n \
         \"nproc\": {nproc},\n \"quick\": {},\n \"trace\": {},\n \"rounds\": {},\n \
         \"attempted\": {},\n \"failed\": {},\n \"failed_share\": {},\n \"digest\": \"{:016x}\",\n \
         \"shape\": {},\n \"metrics\": [\n  {}\n ]\n}}\n",
        quote(c.workload.name()),
        c.seed,
        number(c.seconds),
        quote(commit),
        c.quick,
        c.trace,
        result.rounds,
        result.log.attempted,
        result.log.failed(),
        number(result.log.failed_share()),
        result.digest,
        quote(&result.shape),
        rows.join(",\n  "),
    )
}

/// The last line of standard output: `correct`, `attempted`, `failed`, and
/// every end-to-end (untraced) or per-layer (traced) metric.
pub fn driver_line(result: &RunResult) -> String {
    let metrics: Vec<String> = reported(result)
        .iter()
        .map(|row| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(row.def.name),
                number(row.value),
                quote(row.def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.log.attempted.max(1),
        result.log.failed(),
        metrics.join(", ")
    )
}

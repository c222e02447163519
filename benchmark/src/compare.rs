//! `pool-benchmark compare A B`: per end-to-end metric × workload, is B
//! better, worse, within its bound, or unresolved against A?
//!
//! A and B are result directories (`benchmark/out` copies). The bounds and
//! directions come from `BENCHMARK.json`. The rule, for a relative change Δ
//! of B's value against A's, signed so that positive is worse:
//!
//! * an exact (simulated) metric of two runs on the same seed must match to
//!   the last digit — any change is `worse`, because behaviour moved;
//! * |Δ| ≤ bound: `within-bound`, unless either side's own round-to-round
//!   spread (interquartile range over its median) is wider than the bound —
//!   then the runs cannot show "unchanged" and the row is `unresolved`;
//! * |Δ| > bound: `worse` or `better` when the two sides' interquartile
//!   ranges do not overlap, otherwise `unresolved`.

use crate::json::{parse, Value};
use crate::metrics::Better;
use crate::workloads::WorkloadId;
use std::fmt::Write as _;
use std::path::Path;

/// The four verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B beats A by more than the bound, beyond both spreads.
    Better,
    /// B trails A by more than the bound, beyond both spreads.
    Worse,
    /// The change is inside the bound and both sides are steady enough to say so.
    WithinBound,
    /// The spreads are too wide to tell.
    Unresolved,
}

impl Verdict {
    /// The word printed.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's value and its quartiles over rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// The reported value.
    pub value: f64,
    /// First quartile over rounds.
    pub q1: f64,
    /// Third quartile over rounds.
    pub q3: f64,
}

impl Side {
    /// A side with no spread.
    #[cfg(test)]
    pub fn point(value: f64) -> Self {
        Side { value, q1: value, q3: value }
    }

    fn relative_iqr(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// The verdict for one metric. `must_match` marks an exact metric of two
/// runs on the same seed.
pub fn verdict(better: Better, bound: f64, must_match: bool, a: Side, b: Side) -> Verdict {
    if must_match {
        return if a.value == b.value { Verdict::WithinBound } else { Verdict::Worse };
    }
    if a.value == 0.0 {
        return if b.value == 0.0 { Verdict::WithinBound } else { Verdict::Unresolved };
    }
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (b.value - a.value) / a.value.abs();
    if worse_by.abs() <= bound {
        return if a.relative_iqr().max(b.relative_iqr()) <= bound {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        };
    }
    let disjoint = a.q3 < b.q1 || b.q3 < a.q1;
    match (disjoint, worse_by > 0.0) {
        (false, _) => Verdict::Unresolved,
        (true, true) => Verdict::Worse,
        (true, false) => Verdict::Better,
    }
}

/// An end-to-end metric's entry in `BENCHMARK.json`.
struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

fn bounds_of(benchmark: &Value) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Value::as_str);
            Ok(Bound {
                name: text("name").ok_or("metric without a name")?.to_string(),
                better: match text("better") {
                    Some("higher") => Better::Higher,
                    Some("lower") => Better::Lower,
                    other => return Err(format!("bad direction {other:?}")),
                },
                bound: m.get("bound").and_then(Value::as_f64).ok_or("metric without a bound")?,
            })
        })
        .collect()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn side_of(result: &Value, metric: &str) -> Option<(Side, bool)> {
    let row = result
        .get("metrics")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))?;
    let field = |key: &str| row.get(key).and_then(Value::as_f64);
    let side = Side { value: field("value")?, q1: field("q1")?, q3: field("q3")? };
    Some((side, row.get("exact").and_then(Value::as_bool).unwrap_or(false)))
}

/// Compares result directories `a` and `b` under the bounds of
/// `benchmark_json`. Returns the printed table and whether any row is
/// `worse` (or a digest differs between runs of one seed).
///
/// # Errors
///
/// Unreadable or malformed input files.
pub fn compare(a: &Path, b: &Path, benchmark_json: &Path) -> Result<(String, bool), String> {
    let bounds = bounds_of(&load(benchmark_json)?)?;
    let mut out = String::new();
    let mut counts = [0usize; 4];
    let mut failed = false;
    let _ = writeln!(
        out,
        "{:<18} {:<20} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for workload in WorkloadId::ALL {
        let file = format!("{}.json", workload.name());
        let (Ok(ra), Ok(rb)) = (load(&a.join(&file)), load(&b.join(&file))) else {
            let _ = writeln!(out, "{:<18} (missing on one side, skipped)", workload.name());
            continue;
        };
        let seed = |r: &Value| r.get("seed").and_then(Value::as_f64);
        let same_seed = seed(&ra) == seed(&rb);
        if same_seed {
            let digest = |r: &Value| r.get("digest").and_then(Value::as_str).map(str::to_string);
            let same = digest(&ra) == digest(&rb);
            failed |= !same;
            let _ = writeln!(
                out,
                "{:<18} {:<20} {:>16} {:>16} {:>9} {:>7}  {}",
                workload.name(),
                "digest",
                digest(&ra).unwrap_or_default(),
                digest(&rb).unwrap_or_default(),
                "",
                "exact",
                if same { "within-bound" } else { "worse" }
            );
        }
        for bound in &bounds {
            let (Some((sa, exact)), Some((sb, _))) =
                (side_of(&ra, &bound.name), side_of(&rb, &bound.name))
            else {
                continue;
            };
            let v = verdict(bound.better, bound.bound, exact && same_seed, sa, sb);
            counts[v as usize] += 1;
            failed |= v == Verdict::Worse;
            let change =
                if sa.value == 0.0 { 0.0 } else { (sb.value - sa.value) / sa.value * 100.0 };
            let _ = writeln!(
                out,
                "{:<18} {:<20} {:>16.4} {:>16.4} {:>+8.2}% {:>6.1}%  {}",
                workload.name(),
                bound.name,
                sa.value,
                sb.value,
                change,
                bound.bound * 100.0,
                v.word()
            );
        }
    }
    let _ = writeln!(
        out,
        "summary: {} better, {} worse, {} within-bound, {} unresolved",
        counts[Verdict::Better as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::WithinBound as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, spread: f64) -> Side {
        Side { value, q1: value * (1.0 - spread / 2.0), q3: value * (1.0 + spread / 2.0) }
    }

    #[test]
    fn steady_runs_inside_the_bound_are_within_bound() {
        let v = verdict(Better::Lower, 0.05, false, side(100.0, 0.01), side(102.0, 0.01));
        assert_eq!(v, Verdict::WithinBound);
        let v = verdict(Better::Higher, 0.05, false, side(100.0, 0.01), side(97.0, 0.02));
        assert_eq!(v, Verdict::WithinBound);
    }

    #[test]
    fn a_clear_change_takes_its_direction_from_the_metric() {
        // +20 % on a lower-is-better metric is worse; on higher-is-better, better.
        let (a, b) = (side(100.0, 0.02), side(120.0, 0.02));
        assert_eq!(verdict(Better::Lower, 0.05, false, a, b), Verdict::Worse);
        assert_eq!(verdict(Better::Higher, 0.05, false, a, b), Verdict::Better);
        assert_eq!(verdict(Better::Lower, 0.05, false, b, a), Verdict::Better);
    }

    #[test]
    fn wide_spreads_leave_the_row_unresolved() {
        // Inside the bound, but each side wobbles by 30 %: cannot say "unchanged".
        let v = verdict(Better::Lower, 0.05, false, side(100.0, 0.3), side(101.0, 0.3));
        assert_eq!(v, Verdict::Unresolved);
        // Outside the bound, but the quartile ranges overlap: cannot say "worse".
        let v = verdict(Better::Lower, 0.05, false, side(100.0, 0.3), side(110.0, 0.3));
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_on_one_seed_must_match_to_the_digit() {
        let a = Side::point(24.5716);
        assert_eq!(verdict(Better::Lower, 0.1, true, a, a), Verdict::WithinBound);
        let moved = Side::point(24.5717);
        assert_eq!(verdict(Better::Lower, 0.1, true, a, moved), Verdict::Worse);
        assert_eq!(verdict(Better::Lower, 0.1, true, moved, a), Verdict::Worse, "even downwards");
        // On different seeds the same metric is judged by its bound.
        assert_eq!(verdict(Better::Lower, 0.1, false, a, moved), Verdict::WithinBound);
    }

    #[test]
    fn compare_reads_hand_made_result_pairs() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata");
        let benchmark = dir.join("BENCHMARK.json");
        let (table, failed) = compare(&dir.join("a"), &dir.join("b"), &benchmark).unwrap();
        assert!(failed, "b's queries_per_s dropped by a fifth:\n{table}");
        let verdict_of = |metric: &str| {
            table
                .lines()
                .find(|l| l.starts_with("pool_hot_10k") && l.contains(metric))
                .and_then(|l| l.split_whitespace().last())
                .unwrap_or_else(|| panic!("no {metric} row in:\n{table}"))
                .to_string()
        };
        assert_eq!(verdict_of("digest"), "within-bound");
        assert_eq!(verdict_of("inserts_per_s"), "better");
        assert_eq!(verdict_of("queries_per_s"), "worse");
        assert_eq!(verdict_of("insert_us_p50"), "within-bound");
        assert_eq!(verdict_of("query_us_p99"), "unresolved");
        assert_eq!(verdict_of("msgs_per_query"), "within-bound");
        let (_, failed) = compare(&dir.join("a"), &dir.join("a"), &benchmark).unwrap();
        assert!(!failed, "a run compared with itself has no worse row");
    }
}

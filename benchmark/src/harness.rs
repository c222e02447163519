//! One benchmark run of one workload: verification round, timed rounds,
//! optionally the traced run and the probes, and the metrics they add up to.

use crate::measure::Budget;
use crate::metrics::{end_to_end, per_layer, MetricRow, END_TO_END, PER_LAYER};
use crate::oracle::OpLog;
use crate::probes;
use crate::stats::{median, percentile};
use crate::trace::{Aggregate, TraceRun};
use crate::workloads::{Pass, Round, Workload, WorkloadId};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Timed rounds a run never goes below.
const MIN_ROUNDS: usize = 3;
/// Share of the run length the traced rounds (and their untraced reference
/// rounds) each get.
const TRACE_SHARE: f64 = 0.2;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// The workload.
    pub workload: WorkloadId,
    /// Input seed.
    pub seed: u64,
    /// How long the timed rounds measure, in seconds.
    pub seconds: f64,
    /// Smoke scale.
    pub quick: bool,
    /// Run the traced run (and the probes) instead of the timed rounds.
    pub trace: bool,
    /// Run only the probes, at full quality.
    pub probes_only: bool,
}

/// Everything one run found out.
#[derive(Debug)]
pub struct RunResult {
    /// The configuration.
    pub config: RunConfig,
    /// One line stating the sizes of a round.
    pub shape: String,
    /// Timed (or traced) rounds run.
    pub rounds: usize,
    /// Operations attempted and failed, verification round included.
    pub log: OpLog,
    /// The digest every round reproduced.
    pub digest: u64,
    /// End-to-end metrics (empty in a traced or probes-only run).
    pub end_to_end: Vec<MetricRow>,
    /// Per-layer metrics (empty in an untraced run).
    pub per_layer: Vec<MetricRow>,
    /// The reconciliation line of the traced run.
    pub reconciliation: Option<String>,
    /// The span log of the traced run, for the trace file.
    pub trace: Option<TraceRun>,
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs rounds until `budget` has passed, at least `min` of them, checking
/// each against the verification round's digest.
fn run_rounds(
    workload: &mut dyn Workload,
    budget: Duration,
    min: usize,
    expect_digest: u64,
    serial: bool,
    mut trace: Option<&mut TraceRun>,
) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min || start.elapsed() < budget {
        let round = workload.round(Pass { verify: false, serial, trace: trace.as_deref_mut() })?;
        if round.digest != expect_digest {
            return Err(format!(
                "round {} digest {:016x} differs from the verification round's {expect_digest:016x}",
                rounds.len() + 1,
                round.digest
            ));
        }
        rounds.push(round);
    }
    Ok(rounds)
}

/// Runs `config` to completion.
///
/// # Errors
///
/// The first correctness failure: an answer that violates the oracle, a
/// digest that drifts between rounds, or a failed operation on a workload
/// that injects no faults.
pub fn run(config: RunConfig) -> Result<RunResult, String> {
    let prepare = Instant::now();
    let mut workload = config.workload.prepare(config.seed, config.quick);
    let net_build_s: f64 = workload.net().build_s.iter().sum();
    let generator_s = prepare.elapsed().as_secs_f64() - net_build_s;
    let shape = workload.shape();
    let mut result = RunResult {
        shape,
        rounds: 0,
        log: OpLog::default(),
        digest: 0,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        reconciliation: None,
        trace: None,
        config,
    };
    let config = result.config.clone();

    if config.probes_only {
        let budget = if config.quick { Budget::QUICK } else { Budget::FULL };
        result.per_layer = probes::run(workload.net(), config.seed, budget);
        return Ok(result);
    }

    let verification = workload.round(Pass { verify: true, serial: false, trace: None })?;
    result.digest = verification.digest;
    result.log = verification.log;
    let min_rounds = if config.quick { 1 } else { MIN_ROUNDS };

    if !config.trace {
        let budget = Duration::from_secs_f64(config.seconds);
        let rounds =
            run_rounds(workload.as_mut(), budget, min_rounds, verification.digest, false, None)?;
        let rss = peak_rss_mib();
        for round in &rounds {
            result.log.merge(&round.log);
        }
        result.rounds = rounds.len();
        let topology_s = median(&workload.net().build_s);
        result.end_to_end = end_to_end_rows(&verification, &rounds, topology_s, rss);
    } else {
        // Reference rounds first, untraced but run the way the traced ones
        // are (one client thread), so the two differ by the tracing alone.
        let budget = Duration::from_secs_f64(config.seconds * TRACE_SHARE);
        let reference = run_rounds(workload.as_mut(), budget, 1, verification.digest, true, None)?;
        let mut trace = workload.new_trace();
        let traced =
            run_rounds(workload.as_mut(), budget, 1, verification.digest, true, Some(&mut trace))?;
        for round in reference.iter().chain(&traced) {
            result.log.merge(&round.log);
        }
        result.rounds = traced.len();
        let arms = workload.layer_rows();
        let probe_budget = if config.quick { Budget::QUICK } else { Budget::TRACE };
        let mut rows = probes::run(workload.net(), config.seed, probe_budget);
        let (traced_rows, reconciliation) =
            traced_rows(&trace, &arms, &reference, &traced, generator_s, verification.verify_s);
        rows.extend(traced_rows);
        // Every listed metric is reported, in table order; layers this
        // workload never enters read 0.
        let mut by_name: BTreeMap<&str, MetricRow> =
            rows.into_iter().map(|r| (r.def.name, r)).collect();
        result.per_layer = PER_LAYER
            .iter()
            .map(|def| by_name.remove(def.name).unwrap_or_else(|| MetricRow::single(*def, 0.0)))
            .collect();
        result.reconciliation = Some(reconciliation);
        result.trace = Some(trace);
    }

    if config.workload.fault_free() && result.log.failed() > 0 {
        return Err(format!(
            "{} of {} operations failed on a workload that injects no faults: {:?}",
            result.log.failed(),
            result.log.attempted,
            result.log
        ));
    }
    Ok(result)
}

/// Per-round values of `f`, skipping rounds where it is undefined.
fn per_round(rounds: &[Round], f: impl Fn(&Round) -> Option<f64>) -> Vec<f64> {
    rounds.iter().filter_map(f).collect()
}

fn ns_to_us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&x| x as f64 / 1e3).collect()
}

/// The thirteen end-to-end rows. Every host-time metric is a median over
/// rounds — a latency percentile is the median of the rounds' percentiles,
/// which one disturbed round cannot drag the way it drags a percentile
/// pooled over all rounds; simulated metrics come from the verification
/// round.
fn end_to_end_rows(
    verification: &Round,
    rounds: &[Round],
    topology_s: f64,
    rss_mib: f64,
) -> Vec<MetricRow> {
    let mut rows = Vec::with_capacity(END_TO_END.len());
    let setup: Vec<f64> = rounds.iter().map(|r| topology_s + r.sample.setup_s).collect();
    rows.push(MetricRow::median_of(end_to_end("setup_s"), &setup));
    rows.push(MetricRow::median_of(
        end_to_end("inserts_per_s"),
        &per_round(rounds, |r| r.sample.inserts_per_s()),
    ));
    rows.push(MetricRow::median_of(
        end_to_end("queries_per_s"),
        &per_round(rounds, |r| r.sample.queries_per_s()),
    ));
    for (name, p, inserts) in [
        ("insert_us_p50", 50.0, true),
        ("insert_us_p99", 99.0, true),
        ("query_us_p50", 50.0, false),
        ("query_us_p99", 99.0, false),
    ] {
        let each = per_round(rounds, |r| {
            let lat = if inserts { &r.sample.insert_lat_ns } else { &r.sample.query_lat_ns };
            Some(percentile(&ns_to_us(lat), p))
        });
        rows.push(MetricRow::median_of(end_to_end(name), &each));
    }
    rows.push(MetricRow::median_of(
        end_to_end("ns_per_hop"),
        &per_round(rounds, |r| {
            (r.sample.messages > 0).then(|| r.sample.op_ns() as f64 / r.sample.messages as f64)
        }),
    ));
    rows.push(MetricRow::median_of(
        end_to_end("round_ms"),
        &per_round(rounds, |r| Some(r.sample.round_ns() as f64 / 1e6)),
    ));
    rows.push(MetricRow::single(end_to_end("peak_rss_mib"), rss_mib));
    let sim = &verification.sim;
    let virt_ms: Vec<f64> = sim.virt_query_s.iter().map(|s| s * 1e3).collect();
    for (name, value) in [
        ("msgs_per_insert", sim.insert_messages as f64 / sim.inserts.max(1) as f64),
        ("msgs_per_query", sim.query_messages as f64 / sim.queries.max(1) as f64),
        ("virt_query_ms_p99", percentile(&virt_ms, 99.0)),
    ] {
        rows.push(MetricRow::single(end_to_end(name), value));
    }
    rows
}

/// The per-layer rows that come from spans, counters and arms rather than
/// probes, and the reconciliation line.
fn traced_rows(
    trace: &TraceRun,
    arms: &[(&'static str, f64)],
    reference: &[Round],
    traced: &[Round],
    generator_s: f64,
    verify_s: f64,
) -> (Vec<MetricRow>, String) {
    let spans = trace.log.aggregate();
    let get = |name: &str| spans.get(name).copied().unwrap_or_default();
    let first =
        |names: &[&str]| names.iter().map(|n| get(n)).find(|a| a.count > 0).unwrap_or_default();
    let mean_self = |a: Aggregate, scale: f64| {
        if a.count == 0 {
            0.0
        } else {
            a.self_ns as f64 / a.count as f64 * scale
        }
    };
    let c = &trace.counts;
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let mut rows = Vec::new();
    let mut put = |name: &str, value: f64| rows.push(MetricRow::single(per_layer(name), value));

    let (hit_rate, evictions) = trace.cache_stats();
    put("transport.cached.hit_rate", hit_rate);
    put("transport.lru.evictions", evictions as f64);
    put("transport.lossy.rtx_share", ratio(c.retransmissions, c.transmissions));
    for &(name, value) in arms {
        put(name, value);
    }

    let insert_root = first(&["pool.insert_from", "dim.insert_from", "service.submit.insert"]);
    let pool_query = first(&["pool.query_from", "service.submit.query"]);
    let dim_query = get("dim.query_from");
    put("core.system.insert_self_us", mean_self(insert_root, 1e-3));
    put("core.forward.query_self_us", mean_self(pool_query, 1e-3));
    put("dim.system.query_self_us", mean_self(dim_query, 1e-3));
    // A traced workload runs one scheme: its fan-out and legs are Pool's
    // (cells, splitter legs) or DIM's (zones), never a mix.
    let (cells, zones, legs) = if dim_query.count > 0 {
        (0, c.query_fanout, 0)
    } else {
        (c.query_fanout, 0, c.query_legs)
    };
    put("core.resolve.cells_per_query", ratio(cells, c.queries));
    put("dim.system.zones_per_query", ratio(zones, c.queries));
    put("core.forward.legs_per_query", ratio(legs, c.queries));

    let epoch = get("pool.apply_epoch");
    put("core.dynamics.epoch_self_ms", mean_self(epoch, 1e-6));
    put("core.dynamics.repair_msgs_per_epoch", ratio(c.repair_messages, c.epochs));
    put("core.dynamics.deferred_per_epoch", ratio(c.deferred, c.epochs));
    let epoch_ms: Vec<f64> =
        traced.iter().flat_map(|r| r.sample.epoch_ns.iter().map(|&ns| ns as f64 / 1e6)).collect();
    put("epoch_ms_p50", percentile(&epoch_ms, 50.0));
    put("epoch_ms_p90", percentile(&epoch_ms, 90.0));
    let serve: Vec<f64> = per_round(traced, |r| {
        r.sample.serve.map(|(ns, requests)| requests as f64 / (ns as f64 / 1e9))
    });
    put("serve_req_per_s", median(&serve));

    // Host nanoseconds per operation, traced against untraced.
    let per_op = |rounds: &[Round]| {
        let ops: usize =
            rounds.iter().map(|r| r.sample.insert_lat_ns.len() + r.sample.query_lat_ns.len()).sum();
        let ns: u64 = rounds.iter().map(|r| r.sample.op_ns()).sum();
        ns as f64 / ops.max(1) as f64
    };
    let (untraced_ns, traced_ns) = (per_op(reference), per_op(traced));
    put("bench.trace_overhead_pct", (traced_ns / untraced_ns - 1.0) * 100.0);
    put("bench.generator_s", generator_s);
    put("bench.verify_s", verify_s);

    // Σ(layer cost × count): every replayed child of an insert or query
    // root, per traced operation, against the untraced time per operation.
    let ops = (c.inserts + c.queries).max(1) as f64;
    let roots_ns = (insert_root.total_ns + pool_query.total_ns + dim_query.total_ns) as f64;
    let roots_self_ns = (insert_root.self_ns + pool_query.self_ns + dim_query.self_ns) as f64;
    let explained_ns = (roots_ns - roots_self_ns) / ops;
    let unexplained = 1.0 - explained_ns / untraced_ns;
    let reconciliation = format!(
        "layers explain {:.2} us/op of {:.2} us/op untraced end to end ({:.2} us/op traced); \
         unexplained share {:.1} %",
        explained_ns / 1e3,
        untraced_ns / 1e3,
        traced_ns / 1e3,
        unexplained * 100.0
    );
    (rows, reconciliation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: WorkloadId, trace: bool) -> RunConfig {
        RunConfig { workload, seed: 5, seconds: 0.05, quick: true, trace, probes_only: false }
    }

    /// Two in-process runs of a mini-workload produce the same digest, the
    /// same exact metrics, and all thirteen end-to-end rows.
    #[test]
    fn digests_and_exact_metrics_repeat_across_runs() {
        for workload in [WorkloadId::PoolCold100k, WorkloadId::PoolChurn10k] {
            let a = run(quick(workload, false)).expect("the mini-workload verifies");
            let b = run(quick(workload, false)).expect("the mini-workload verifies");
            assert_eq!(a.digest, b.digest, "{}", workload.name());
            assert_eq!(a.end_to_end.len(), END_TO_END.len());
            for (ra, rb) in a.end_to_end.iter().zip(&b.end_to_end) {
                assert!(ra.value > 0.0, "{} is never 0", ra.def.name);
                if ra.def.exact {
                    assert_eq!(ra.value, rb.value, "{} is exact", ra.def.name);
                }
            }
            let other_seed = run(RunConfig { seed: 6, ..quick(workload, false) }).unwrap();
            assert_ne!(a.digest, other_seed.digest, "another seed is other traffic");
        }
    }

    /// The service's threaded rounds reproduce the digest of its
    /// single-threaded verification round.
    #[test]
    fn the_service_digest_survives_two_client_threads() {
        let result = run(quick(WorkloadId::ServiceMixed2t, false)).expect("invariants hold");
        assert!(result.rounds >= 1 && result.log.failed() == 0);
    }

    /// A traced run reports every per-layer metric and separates the layers
    /// the way the workloads are meant to.
    #[test]
    fn traced_runs_report_every_layer_metric() {
        let value = |result: &RunResult, name: &str| {
            result.per_layer.iter().find(|r| r.def.name == name).expect("listed").value
        };
        let hot = run(quick(WorkloadId::PoolHot10k, true)).unwrap();
        assert_eq!(hot.per_layer.len(), PER_LAYER.len());
        assert!(value(&hot, "transport.cached.hit_rate") > 0.9, "the warm pass fills the cache");
        assert_eq!(value(&hot, "transport.lossy.rtx_share"), 0.0);
        assert!(value(&hot, "core.forward.query_self_us") > 0.0);
        assert!(hot.reconciliation.as_deref().unwrap().contains("unexplained share"));
        assert!(hot.trace.as_ref().unwrap().log.len() > 0);

        let faulty = run(quick(WorkloadId::PoolFaulty3k, true)).unwrap();
        assert!(value(&faulty, "transport.lossy.rtx_share") > 0.0, "the lossy radio retransmits");
        let churn = run(quick(WorkloadId::PoolChurn10k, true)).unwrap();
        assert!(value(&churn, "core.dynamics.repair_msgs_per_epoch") > 0.0);
        assert!(value(&churn, "epoch_ms_p50") > 0.0);
    }
}

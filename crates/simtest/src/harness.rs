//! The differential harness: every generated retrieval runs through every
//! strategy, the baselines, and the dynamic optimizer; each result is
//! differenced against the shadow-`Vec` oracle; then the whole dynamic
//! path is re-run under injected storage faults.

use std::cell::Cell;

use rdb_core::baseline::{estimate_all, PredShape, StaticIndexInfo, StaticJscan, StaticOptimizer};
use rdb_core::request::{Delivery, DeliveryObserver, OptimizeGoal, RetrievalResult};
use rdb_core::tscan::StrategyStep;
use rdb_core::{
    DynamicOptimizer, Fscan, Jscan, JscanConfig, JscanIndex, JscanOutcome,
    KillRules, Sscan, TraceBuffer, TraceEvent, Tracer, Tscan,
};
use rdb_storage::{FaultPolicy, StorageError, Value};

use crate::failure::SimFailure;
use crate::oracle;
use crate::scenario::{OrQuery, Query, Scenario};

/// Harness knobs. Everything has a sane default; the CLI overrides them.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The dynamic run may cost at most this multiple of the cheapest
    /// fully-executed static strategy (guaranteed-best invariant) …
    pub cost_mult: f64,
    /// … plus this flat slack, absorbing estimation overhead on
    /// near-zero-cost retrievals (OLTP shortcuts).
    pub cost_slack: f64,
    /// Fault probabilities for the random-fault campaigns (rate 0 — the
    /// clean differential — always runs first and is implied).
    pub fault_rates: Vec<f64>,
    /// Buffer-pool capacity for durable crash worlds; `None` keeps the
    /// database default. Small values force the beyond-RAM regime, where
    /// recovery and verification evict and re-read pages constantly.
    pub pool_pages: Option<usize>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cost_mult: 3.0,
            cost_slack: 60.0,
            fault_rates: vec![0.01, 0.1],
            pool_pages: None,
        }
    }
}

/// What one seed's campaign did — returned for aggregation and for the
/// determinism check (same seed must yield the identical report).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// Rows in the generated table.
    pub rows: usize,
    /// Indexes in the generated schema.
    pub indexes: usize,
    /// Queries executed.
    pub queries: usize,
    /// Oracle comparisons performed (clean + faulted).
    pub checks: u64,
    /// Dynamic runs executed with a fault policy armed.
    pub fault_runs: u64,
    /// Faulted runs that surfaced a clean `InjectedFault` error.
    pub fault_errors: u64,
    /// Faulted runs that completed with a provably exact result.
    pub fault_ok: u64,
    /// Runs where a mid-competition index death was absorbed (the Jscan
    /// discarded the dead index and the result was still exact).
    pub degraded_ok: u64,
    /// Traced runs whose event stream passed the consistency invariants
    /// (single winner naming the executed strategy, phase costs tiling the
    /// total, switch targets resolving to real stages).
    pub trace_checks: u64,
    /// The OR round's tally, counted apart from the fields above.
    pub or_round: OrReport,
}

/// What one seed's OR round did: two-arm OR requests run through the
/// optimizer's union scan, clean and under random faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OrReport {
    /// OR queries executed.
    pub queries: usize,
    /// Oracle comparisons performed (clean + faulted + re-runs).
    pub checks: u64,
    /// Runs executed with a fault policy armed.
    pub fault_runs: u64,
    /// Faulted runs that surfaced a clean `InjectedFault` error.
    pub fault_errors: u64,
    /// Faulted runs that completed with an exact result.
    pub fault_ok: u64,
}

/// Runs the full campaign for one seed. `Err` carries the check family
/// that tripped plus enough human-readable context to replay.
pub fn run_seed(seed: u64, cfg: &SimConfig) -> Result<SeedReport, SimFailure> {
    let scenario = Scenario::generate(seed);
    let mut report = SeedReport {
        seed,
        rows: scenario.shadow.len(),
        indexes: scenario.indexes.len(),
        queries: scenario.queries.len(),
        ..SeedReport::default()
    };
    let queries = scenario.queries.clone();
    for (qi, query) in queries.iter().enumerate() {
        let ctx = |what: &str| format!("seed {seed} query {qi} [{}] {what}", query.describe());
        clean_differential(&scenario, query, cfg, &mut report).map_err(|e| e.ctx(ctx("clean")))?;
        trace_consistency(&scenario, query, &mut report).map_err(|e| e.ctx(ctx("traced")))?;
        for &rate in &cfg.fault_rates {
            fault_campaign(&scenario, query, qi, rate, &mut report)
                .map_err(|e| e.ctx(ctx("faulted")))?;
        }
        index_death(&scenario, query, &mut report).map_err(|e| e.ctx(ctx("index-death")))?;
    }
    for (qi, query) in scenario.or_queries.iter().enumerate() {
        or_round(&scenario, query, qi, cfg, &mut report.or_round)
            .map_err(|e| e.ctx(format!("seed {seed} OR query {qi} [{}]", query.describe())))?;
    }
    Ok(report)
}

/// The OR round for one query: the optimizer must run the union scan (or
/// end at once when both arms are empty) and deliver exactly the oracle's
/// rows — in RID order, without duplicates, cut at the limit — clean and
/// under each random fault rate, where an `Err` must be the injected
/// fault and a clean re-run must still be exact.
fn or_round(
    scenario: &Scenario,
    query: &OrQuery,
    qi: usize,
    cfg: &SimConfig,
    report: &mut OrReport,
) -> Result<(), SimFailure> {
    let expected = oracle::expected_or_rids(scenario, query);
    let request = scenario.or_request(query);
    let check = |result: &RetrievalResult, what: &str| {
        if !matches!(result.strategy, "UnionScan" | "EndOfData") {
            return Err(SimFailure::execution(format!(
                "{what}: an OR request ran {:?}, not the union scan",
                result.strategy
            )));
        }
        oracle::check_limited(scenario, &expected, &result.deliveries, query.limit, None, what)?;
        oracle::check_rid_order(&result.deliveries, what)
    };
    let clean = |what: &str| {
        scenario.cold();
        let result = DynamicOptimizer::default()
            .run(&request)
            .map_err(|e| SimFailure::execution(format!("{what}: union run died: {e}")))?;
        check(&result, what)
    };
    report.queries += 1;
    clean("union")?;
    report.checks += 1;
    for &rate in &cfg.fault_rates {
        let fault_seed = scenario.seed.wrapping_mul(0x4F52).wrapping_add(qi as u64);
        let fault_seed = fault_seed ^ rate.to_bits();
        arm(scenario, FaultPolicy::random(fault_seed, rate));
        scenario.cold();
        let outcome = DynamicOptimizer::default().run(&request);
        disarm(scenario);
        report.fault_runs += 1;
        match outcome {
            Ok(result) => {
                check(&result, "faulted-union").map_err(|e| {
                    e.ctx(format!("fault rate {rate}: Ok run returned damaged rows"))
                })?;
                report.fault_ok += 1;
                report.checks += 1;
            }
            Err(StorageError::InjectedFault { .. }) => report.fault_errors += 1,
            Err(e) => {
                return Err(SimFailure::fault_contract(format!(
                    "fault rate {rate}: union surfaced a non-injected error: {e}"
                )))
            }
        }
        clean("post-fault-union")
            .map_err(|e| e.ctx(format!("fault rate {rate}: state damaged by faulted union")))?;
        report.checks += 1;
    }
    Ok(())
}

/// Collects a strategy's full (unlimited) delivery stream, plus its cost.
fn drain<E, F>(scenario: &Scenario, mut step: F) -> Result<(Vec<Delivery>, f64), E>
where
    F: FnMut() -> Result<StrategyStep, E>,
{
    scenario.cold();
    let meter = scenario.pool.cost().clone();
    let before = meter.total();
    let mut deliveries = Vec::new();
    loop {
        match step()? {
            StrategyStep::Deliver(rid, record) => deliveries.push(Delivery {
                rid,
                record,
                from_index: false,
            }),
            StrategyStep::Progress => {}
            StrategyStep::Done => break,
        }
    }
    Ok((deliveries, meter.total() - before))
}

fn clean_differential(
    scenario: &Scenario,
    query: &Query,
    cfg: &SimConfig,
    report: &mut SeedReport,
) -> Result<(), SimFailure> {
    let expected = oracle::expected_rids(scenario, query);

    // Tscan: always applicable, delivers in physical order.
    let residual = query.record_pred();
    let mut tscan = Tscan::new(&scenario.table, residual.clone(), scenario.pool.cost().clone());
    let (deliveries, tscan_cost) =
        drain(scenario, || tscan.step()).map_err(|e| SimFailure::execution(format!("Tscan died: {e}")))?;
    oracle::check_full(scenario, &expected, &deliveries, None, "Tscan")?;
    oracle::check_rid_order(&deliveries, "Tscan")?;
    report.checks += 1;
    let mut best_full = tscan_cost;

    // Fscan through every index whose column the predicate restricts:
    // same row set, key-ordered deliveries.
    for conj in &query.conjuncts {
        let Some(pos) = scenario.index_on(conj.col) else {
            continue;
        };
        let tree = &scenario.indexes[pos];
        let mut fscan = Fscan::new(
            &scenario.table,
            tree,
            conj.key_range(),
            residual.clone(),
            scenario.pool.cost().clone(),
        );
        let (deliveries, cost) =
            drain(scenario, || fscan.step()).map_err(|e| SimFailure::execution(format!("Fscan died: {e}")))?;
        oracle::check_full(scenario, &expected, &deliveries, None, "Fscan")?;
        oracle::check_key_order(scenario, &deliveries, conj.col, "Fscan")?;
        report.checks += 1;
        best_full = best_full.min(cost);
    }

    // Sscan when the whole predicate lives on one indexed column: the
    // index is self-sufficient, deliveries carry key tuples.
    if query.conjuncts.len() == 1 {
        let conj = query.conjuncts[0];
        if let Some(pos) = scenario.index_on(conj.col) {
            let tree = &scenario.indexes[pos];
            let mut sscan = Sscan::new(
                tree,
                conj.key_range(),
                std::sync::Arc::new(move |key: &[Value]| conj.matches(&key[0])),
                scenario.pool.cost().clone(),
            );
            scenario.cold();
            let meter = scenario.pool.cost().clone();
            let before = meter.total();
            let mut deliveries = Vec::new();
            loop {
                match sscan.step().map_err(|e| SimFailure::execution(format!("Sscan died: {e}")))? {
                    StrategyStep::Deliver(rid, record) => deliveries.push(Delivery {
                        rid,
                        record,
                        from_index: true,
                    }),
                    StrategyStep::Progress => {}
                    StrategyStep::Done => break,
                }
            }
            oracle::check_full(scenario, &expected, &deliveries, Some(conj.col), "Sscan")?;
            oracle::check_key_order(scenario, &deliveries, conj.col, "Sscan")?;
            report.checks += 1;
            best_full = best_full.min(meter.total() - before);
        }
    }

    // Jscan over the indexed conjuncts: its final list answers exactly the
    // indexed subset of the predicate (the residual is final-stage work).
    let indexed: Vec<_> = query
        .conjuncts
        .iter()
        .filter(|c| scenario.index_on(c.col).is_some())
        .copied()
        .collect();
    if !indexed.is_empty() {
        let jidx: Vec<JscanIndex<'_>> = indexed
            .iter()
            .map(|c| {
                let tree = &scenario.indexes[scenario.index_on(c.col).expect("indexed")];
                let range = c.key_range();
                let estimate = tree.estimate_range(&range, scenario.pool.cost()).estimate;
                JscanIndex {
                    tree,
                    range,
                    estimate,
                }
            })
            .collect();
        scenario.cold();
        let mut jscan = Jscan::new(
            &scenario.table,
            jidx,
            JscanConfig::default(),
            KillRules::default(),
            scenario.pool.cost().clone(),
        );
        let trace = TraceBuffer::shared(4096);
        jscan.set_tracer(Tracer::new(trace.clone()));
        let expected_indexed = oracle::expected_for_conjuncts(scenario, &indexed);
        let outcome = jscan.run();
        // Conjuncts whose scans ran to completion: only those are folded
        // into the final list — a discarded index's restriction legally
        // stays behind for the final-stage residual.
        let completed: Vec<_> = trace
            .take()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ScanCompleted { index, .. } => indexed
                    .iter()
                    .find(|c| *index == format!("IDX_c{}", c.col))
                    .copied(),
                _ => None,
            })
            .collect();
        match outcome {
            JscanOutcome::FinalList(list) => {
                let mut rids = list.to_vec().map_err(|e| SimFailure::execution(format!("RID list died: {e}")))?;
                rids.sort_unstable();
                // Soundness: every row of the full indexed intersection
                // must survive into the list (Jscan never drops rows).
                for rid in &expected_indexed {
                    if rids.binary_search(rid).is_err() {
                        return Err(SimFailure::row_set(format!(
                            "Jscan final list lost qualifying row {rid} \
                             ({} RIDs vs {} expected)",
                            rids.len(),
                            expected_indexed.len()
                        )));
                    }
                }
                // Tightness: the list applies at least the completed
                // scans' conjuncts.
                let mut allowed = oracle::expected_for_conjuncts(scenario, &completed);
                allowed.sort_unstable();
                for rid in &rids {
                    if allowed.binary_search(rid).is_err() {
                        return Err(SimFailure::row_set(format!(
                            "Jscan final list contains {rid}, which fails a \
                             completed scan's restriction"
                        )));
                    }
                }
            }
            JscanOutcome::Empty => {
                if !expected_indexed.is_empty() {
                    return Err(SimFailure::row_set(format!(
                        "Jscan claims empty intersection, oracle says {} rows",
                        expected_indexed.len()
                    )));
                }
            }
            JscanOutcome::UseTscan => {} // a cost verdict, not a row claim
        }
        report.checks += 1;
    }

    // Static baselines, with the query's limit: plan-committed execution.
    let request = scenario.request(query);
    let infos: Vec<StaticIndexInfo> = scenario
        .index_cols
        .iter()
        .zip(&scenario.indexes)
        .map(|(&col, tree)| {
            let shape = match query.conjunct_on(col) {
                Some(c) if c.lo.is_some() && c.lo == c.hi => PredShape::Eq,
                Some(c) if c.lo.is_some() || c.hi.is_some() => PredShape::Range,
                _ => PredShape::None,
            };
            let mut distinct: Vec<&Value> =
                scenario.shadow.iter().map(|(_, row)| &row[col]).collect();
            distinct.sort();
            distinct.dedup();
            StaticIndexInfo {
                entries: tree.len(),
                distinct_keys: distinct.len() as u64,
                avg_fanout: tree.avg_fanout(),
                shape,
                self_sufficient: query.conjuncts.len() == 1 && query.conjuncts[0].col == col,
            }
        })
        .collect();
    let static_opt = StaticOptimizer::default();
    let plan = static_opt.plan(&scenario.table, &infos);
    scenario.cold();
    let result = static_opt
        .execute(plan, &request)
        .map_err(|e| SimFailure::execution(format!("static execute died: {e}")))?;
    check_result(scenario, query, &expected, &result, "static")?;
    report.checks += 1;

    scenario.cold();
    let est = estimate_all(&request);
    let result = StaticJscan
        .run(&request, &est)
        .map_err(|e| SimFailure::execution(format!("static Jscan died: {e}")))?;
    check_result(scenario, query, &expected, &result, "static-jscan")?;
    report.checks += 1;

    // The dynamic optimizer, with a first-row cost probe.
    scenario.cold();
    let meter = scenario.pool.cost().clone();
    let start = meter.total();
    let first_at = Cell::new(f64::NAN);
    let observer: DeliveryObserver<'_> = Box::new(|_d| {
        if first_at.get().is_nan() {
            first_at.set(meter.total() - start);
        }
    });
    let result = DynamicOptimizer::default()
        .run_with_observer(&request, Some(observer))
        .map_err(|e| SimFailure::execution(format!("dynamic run died: {e}")))?;
    check_result(scenario, query, &expected, &result, "dynamic")?;
    report.checks += 1;

    // Cost invariants. The guaranteed-best bound only binds unlimited
    // runs (a limited run may legally stop anywhere); the first-row bound
    // binds any fast-first run that delivered at least one row.
    if query.limit.is_none() && result.cost > cfg.cost_mult * best_full + cfg.cost_slack {
        return Err(SimFailure::cost_bound(format!(
            "guaranteed-best violated: dynamic cost {:.1} vs best static {best_full:.1} \
             (bound {:.1}; strategy {})",
            result.cost,
            cfg.cost_mult * best_full + cfg.cost_slack,
            result.strategy
        )));
    }
    if query.goal == OptimizeGoal::FastFirst
        && !result.deliveries.is_empty()
        && first_at.get().is_finite()
        && first_at.get() > cfg.cost_mult * best_full + cfg.cost_slack
    {
        return Err(SimFailure::cost_bound(format!(
            "fast-first first-row bound violated: first row at {:.1} vs best static {best_full:.1} \
             (strategy {})",
            first_at.get(),
            result.strategy
        )));
    }
    Ok(())
}

/// Lowercased alphanumeric skeleton of a strategy string, so
/// `"BackgroundOnly"`, `"background-only"` and `"background-only (Jscan ->
/// Tscan)"` can be compared for containment.
fn norm(s: &str) -> String {
    s.chars()
        .filter(char::is_ascii_alphanumeric)
        .collect::<String>()
        .to_ascii_lowercase()
}

/// Re-runs the dynamic optimizer with a trace sink attached and asserts
/// the telemetry contract over the emitted event stream:
///
/// 1. exactly one `Winner`, whose strategy names the tactic that actually
///    produced the rows (`RetrievalResult::strategy`) and whose row count
///    matches the deliveries;
/// 2. the `TacticChosen` event names the same tactic;
/// 3. `PhaseCost` events tile the run — their sum equals the result's
///    total cost to float precision;
/// 4. every mid-run `Switch` abandons a real stage for a real stage (a
///    known execution phase or a stage named by the final winner string),
///    and never "switches" to itself.
fn trace_consistency(
    scenario: &Scenario,
    query: &Query,
    report: &mut SeedReport,
) -> Result<(), SimFailure> {
    const STAGES: [&str; 6] = [
        "tscan",
        "fscan",
        "sscan",
        "jscan",
        "foreground",
        "background-only",
    ];
    let request = scenario.request(query);
    let buffer = TraceBuffer::shared(16_384);
    let tracer = Tracer::new(buffer.clone());
    scenario.cold();
    let result = DynamicOptimizer::default()
        .run_traced(&request, None, &tracer)
        .map_err(|e| SimFailure::execution(format!("traced run died: {e}")))?;
    let events = buffer.take();

    let winners: Vec<(&String, f64, usize)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Winner {
                strategy,
                cost,
                rows,
            } => Some((strategy, *cost, *rows)),
            _ => None,
        })
        .collect();
    let [(winner, winner_cost, winner_rows)] = winners[..] else {
        return Err(SimFailure::trace(format!(
            "expected exactly one Winner event, got {}",
            winners.len()
        )));
    };
    if winner_rows != result.deliveries.len() {
        return Err(SimFailure::trace(format!(
            "Winner claims {winner_rows} rows, run delivered {}",
            result.deliveries.len()
        )));
    }
    if !norm(winner).contains(&norm(result.strategy)) {
        return Err(SimFailure::trace(format!(
            "Winner strategy {winner:?} does not name the executed strategy {:?}",
            result.strategy
        )));
    }
    let eps = 1e-6 * result.cost.max(1.0);
    if (winner_cost - result.cost).abs() > eps {
        return Err(SimFailure::trace(format!(
            "Winner cost {winner_cost} != result cost {}",
            result.cost
        )));
    }

    let chosen = events.iter().find_map(|e| match e {
        TraceEvent::TacticChosen { tactic, .. } => Some(tactic),
        _ => None,
    });
    match chosen {
        Some(tactic) if *tactic == result.strategy => {}
        Some(tactic) => {
            return Err(SimFailure::trace(format!(
                "TacticChosen names {tactic:?}, result ran {:?}",
                result.strategy
            )));
        }
        None => return Err(SimFailure::trace("no TacticChosen event")),
    }

    let phase_sum: f64 = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PhaseCost { cost, .. } => Some(*cost),
            _ => None,
        })
        .sum();
    if (phase_sum - result.cost).abs() > eps {
        return Err(SimFailure::trace(format!(
            "phase costs sum to {phase_sum}, run cost {} (phases must tile the run)",
            result.cost
        )));
    }

    for event in &events {
        let TraceEvent::Switch { from, to, .. } = event else {
            continue;
        };
        if from == to {
            return Err(SimFailure::trace(format!("Switch from {from:?} to itself")));
        }
        let legal = |s: &str| STAGES.contains(&s) || norm(winner).contains(&norm(s));
        if !legal(from) || !legal(to) {
            return Err(SimFailure::trace(format!(
                "Switch {from:?} -> {to:?} names an unknown stage (winner {winner:?})"
            )));
        }
    }

    report.trace_checks += 1;
    report.checks += 1;
    Ok(())
}

/// Differential check of a full `RetrievalResult`, honouring the limit.
fn check_result(
    scenario: &Scenario,
    query: &Query,
    expected: &[rdb_storage::Rid],
    result: &RetrievalResult,
    what: &str,
) -> Result<(), SimFailure> {
    let sscan_col = result.sscan_index.map(|pos| scenario.index_cols[pos]);
    oracle::check_limited(
        scenario,
        expected,
        &result.deliveries,
        query.limit,
        sscan_col,
        what,
    )
}

/// Winner strategies in which the foreground finished the retrieval on
/// its own, abandoning a background that was still running.
const FOREGROUND_FINISHES: [&str; 4] = [
    "satisfied)",
    "(Sscan won)",
    "(Sscan completed)",
    "(Fscan alone)",
];

/// Runs the dynamic optimizer with a trace attached, reporting alongside
/// an `Ok` result whether it degraded gracefully: the background Jscan
/// absorbed an index's storage death and the tactic went on to act on
/// what the Jscan concluded without it. A background abandoned to a
/// foreground that finished first concluded nothing.
fn run_watching_faults(
    request: &rdb_core::RetrievalRequest<'_>,
) -> Result<(RetrievalResult, bool), StorageError> {
    let buffer = TraceBuffer::shared(16_384);
    let result =
        DynamicOptimizer::default().run_traced(request, None, &Tracer::new(buffer.clone()))?;
    let events = buffer.take();
    let absorbed = events
        .iter()
        .any(|e| matches!(e, TraceEvent::FaultAbsorbed { .. }));
    let concluded = events.iter().any(|e| match e {
        // A background that gave up says so before its foreground goes on.
        TraceEvent::Switch { from, reason, .. } => {
            from == "jscan" && reason.starts_with("background")
        }
        TraceEvent::Winner { strategy, .. } => {
            !FOREGROUND_FINISHES.iter().any(|f| strategy.ends_with(f))
        }
        _ => false,
    });
    Ok((result, absorbed && concluded))
}

fn arm(scenario: &Scenario, policy: FaultPolicy) {
    scenario.pool.set_fault_policy(Some(policy));
}

fn disarm(scenario: &Scenario) {
    scenario.pool.set_fault_policy(None);
}

/// Runs the dynamic optimizer with random faults armed. Every outcome is
/// legal except a wrong answer: `Ok` must be *exactly* right, `Err` must
/// be the injected fault. Afterwards the same query re-runs clean — the
/// failed run must not have corrupted any shared state.
fn fault_campaign(
    scenario: &Scenario,
    query: &Query,
    qi: usize,
    rate: f64,
    report: &mut SeedReport,
) -> Result<(), SimFailure> {
    let expected = oracle::expected_rids(scenario, query);
    let request = scenario.request(query);
    let fault_seed = scenario
        .seed
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(qi as u64)
        ^ rate.to_bits();
    arm(scenario, FaultPolicy::random(fault_seed, rate));
    scenario.cold();
    let outcome = run_watching_faults(&request);
    disarm(scenario);
    report.fault_runs += 1;
    match outcome {
        Ok((result, absorbed)) => {
            check_result(scenario, query, &expected, &result, "faulted-dynamic")
                .map_err(|e| e.ctx(format!("fault rate {rate}: Ok run returned damaged rows")))?;
            report.fault_ok += 1;
            report.checks += 1;
            if absorbed {
                report.degraded_ok += 1;
            }
        }
        Err(e @ StorageError::InjectedFault { .. }) => {
            drop(e);
            report.fault_errors += 1;
        }
        Err(e) => {
            return Err(SimFailure::fault_contract(format!(
                "fault rate {rate}: surfaced a non-injected error: {e}"
            )));
        }
    }
    // Aftermath: with the policy gone, the exact same retrieval must
    // succeed — temp state released, pool and trees undamaged.
    scenario.cold();
    let result = DynamicOptimizer::default()
        .run(&request)
        .map_err(|e| SimFailure::fault_contract(format!("fault rate {rate}: clean re-run after fault died: {e}")))?;
    check_result(scenario, query, &expected, &result, "post-fault-dynamic")
        .map_err(|e| e.ctx(format!("fault rate {rate}: state damaged by faulted run")))?;
    report.checks += 1;
    Ok(())
}

/// Kills one index's storage a few reads in and re-runs the dynamic
/// optimizer. The heap never faults, so the only legal outcomes are a
/// graceful degradation (exact rows, the dead index discarded) or a clean
/// `InjectedFault` scoped to the dead file (when the tactic had committed
/// to that index outside the competition).
fn index_death(
    scenario: &Scenario,
    query: &Query,
    report: &mut SeedReport,
) -> Result<(), SimFailure> {
    let Some(&conj) = query
        .conjuncts
        .iter()
        .find(|c| scenario.index_on(c.col).is_some())
    else {
        return Ok(());
    };
    let pos = scenario.index_on(conj.col).expect("just checked");
    let dead_file = scenario.indexes[pos].file();
    let expected = oracle::expected_rids(scenario, query);
    let request = scenario.request(query);
    arm(
        scenario,
        FaultPolicy::fail_from_nth(3).scoped_to(dead_file),
    );
    scenario.cold();
    let outcome = run_watching_faults(&request);
    disarm(scenario);
    report.fault_runs += 1;
    match outcome {
        Ok((result, absorbed)) => {
            check_result(scenario, query, &expected, &result, "index-death-dynamic")
                .map_err(|e| e.ctx("index death: Ok run returned damaged rows"))?;
            report.fault_ok += 1;
            report.checks += 1;
            if absorbed {
                report.degraded_ok += 1;
            }
        }
        Err(StorageError::InjectedFault { file, .. }) => {
            if file != dead_file {
                return Err(SimFailure::fault_contract(format!(
                    "index death: fault reported for file {} but only {} was poisoned",
                    file.0, dead_file.0
                )));
            }
            report.fault_errors += 1;
        }
        Err(e) => {
            return Err(SimFailure::fault_contract(format!(
                "index death: surfaced a non-injected error: {e}"
            )))
        }
    }
    scenario.cold();
    let result = DynamicOptimizer::default()
        .run(&request)
        .map_err(|e| SimFailure::fault_contract(format!("index death: clean re-run died: {e}")))?;
    check_result(scenario, query, &expected, &result, "post-index-death-dynamic")
        .map_err(|e| e.ctx("index death: state damaged"))?;
    report.checks += 1;
    Ok(())
}

/// The harness's self-test: deliberately drop one row from a dynamic
/// result and verify the oracle comparison *fails*. A differential
/// harness that cannot catch a missing row is worthless; this proves the
/// teeth are real. Returns `Ok` when the injected bug is caught.
pub fn mutation_check(start_seed: u64) -> Result<(), SimFailure> {
    for seed in start_seed..start_seed.saturating_add(32) {
        let scenario = Scenario::generate(seed);
        let queries = scenario.queries.clone();
        for q in &queries {
            let expected = oracle::expected_rids(&scenario, q);
            if expected.is_empty() {
                continue;
            }
            let mut q = q.clone();
            q.limit = None; // full-set comparison has the sharpest teeth
            scenario.cold();
            let result = DynamicOptimizer::default()
                .run(&scenario.request(&q))
                .map_err(|e| SimFailure::execution(format!("mutation check: dynamic run died: {e}")))?;
            let sscan_col = result.sscan_index.map(|pos| scenario.index_cols[pos]);
            let mut deliveries = result.deliveries;
            deliveries.pop(); // the deliberately injected row-set bug
            return match oracle::check_full(&scenario, &expected, &deliveries, sscan_col, "mutation") {
                Err(_) => Ok(()),
                Ok(()) => Err(SimFailure::mutation(format!(
                    "mutation check FAILED: oracle did not notice a dropped row (seed {seed})"
                ))),
            };
        }
    }
    Err(SimFailure::mutation(
        "mutation check could not find a non-empty retrieval in 32 seeds",
    ))
}

//! Multi-thread differential check (`simtest --threads N`).
//!
//! The same seeded query batch runs concurrently over one shared
//! [`Scenario`]: every OS thread executes the full batch against the
//! shared table/pool with a **private session meter**, and every
//! delivered row set must match the sequential oracle exactly — whatever
//! the cache interference between threads does to costs. Each query runs
//! its tactic cooperatively on its own thread, so the check covers
//! inter-query concurrency over the shared pool.
//!
//! A fault round then arms the shared pool's injection policy while all
//! threads re-run the batch: a fault observed on any thread must surface
//! as a clean [`StorageError::InjectedFault`] — never a panic, a wrong
//! row, or a foreign error — and a sequential re-run after disarming
//! must still match the oracle (no cross-thread state damage).

use rdb_core::DynamicOptimizer;
use rdb_storage::{shared_meter, FaultPolicy, StorageError};

use crate::failure::SimFailure;
use crate::harness::SimConfig;
use crate::oracle;
use crate::scenario::Scenario;

/// Tally of one seed's concurrency campaign.
#[derive(Debug, Default)]
pub struct ConcurrencyReport {
    /// Worker threads used.
    pub threads: usize,
    /// Query executions across all threads (clean round).
    pub queries_run: u64,
    /// Oracle comparisons performed.
    pub checks: u64,
    /// Query executions with a fault policy armed.
    pub fault_runs: u64,
    /// Faulted runs that surfaced a clean `InjectedFault`.
    pub fault_errors: u64,
    /// Faulted runs that completed with exact results anyway.
    pub fault_ok: u64,
}

fn check_result(
    scenario: &Scenario,
    query: &crate::scenario::Query,
    expected: &[rdb_storage::Rid],
    result: &rdb_core::RetrievalResult,
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

/// Runs the concurrency campaign for one seed. Returns the tally, or the
/// first failure (with its check family and enough context to replay).
pub fn concurrency_check(
    seed: u64,
    threads: usize,
    cfg: &SimConfig,
) -> Result<ConcurrencyReport, SimFailure> {
    assert!(threads >= 2, "concurrency check needs at least 2 threads");
    let scenario = Scenario::generate(seed);
    let queries = scenario.queries.clone();
    let expected: Vec<Vec<rdb_storage::Rid>> = queries
        .iter()
        .map(|q| oracle::expected_rids(&scenario, q))
        .collect();

    let optimizer = DynamicOptimizer::default();

    let run_batch = |tid: usize, faulted: bool| -> Result<ConcurrencyReport, SimFailure> {
        let session = shared_meter(scenario.pool.cost_config());
        let mut tally = ConcurrencyReport::default();
        for (qi, query) in queries.iter().enumerate() {
            let ctx = |what: &str| {
                format!(
                    "seed {seed} thread {tid} query {qi} [{}] {what}",
                    query.describe()
                )
            };
            let request = scenario.request(query).with_cost(session.clone());
            let outcome = optimizer.run(&request);
            if faulted {
                tally.fault_runs += 1;
                match outcome {
                    Ok(result) => {
                        check_result(&scenario, query, &expected[qi], &result, "faulted-threaded")
                            .map_err(|e| e.ctx(ctx("Ok faulted run returned damage")))?;
                        tally.fault_ok += 1;
                        tally.checks += 1;
                    }
                    Err(StorageError::InjectedFault { .. }) => tally.fault_errors += 1,
                    Err(e) => {
                        return Err(SimFailure::fault_contract(ctx(&format!(
                            "surfaced a non-injected error: {e}"
                        ))));
                    }
                }
            } else {
                tally.queries_run += 1;
                let result = outcome
                    .map_err(|e| SimFailure::execution(ctx(&format!("clean threaded run died: {e}"))))?;
                check_result(&scenario, query, &expected[qi], &result, "threaded-dynamic")
                    .map_err(|e| e.ctx(ctx("oracle mismatch")))?;
                tally.checks += 1;
            }
            if session.total() <= 0.0 {
                return Err(SimFailure::concurrency(ctx(
                    "session meter never charged: per-thread metering broken",
                )));
            }
        }
        Ok(tally)
    };

    let run_round = |faulted: bool| -> Result<ConcurrencyReport, SimFailure> {
        let run_batch = &run_batch;
        let results: Vec<Result<ConcurrencyReport, SimFailure>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|tid| s.spawn(move || run_batch(tid, faulted)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| {
                        Err(SimFailure::concurrency(format!("seed {seed}: worker thread panicked")))
                    })
                })
                .collect()
        });
        let mut total = ConcurrencyReport {
            threads,
            ..ConcurrencyReport::default()
        };
        for r in results {
            let t = r?;
            total.queries_run += t.queries_run;
            total.checks += t.checks;
            total.fault_runs += t.fault_runs;
            total.fault_errors += t.fault_errors;
            total.fault_ok += t.fault_ok;
        }
        Ok(total)
    };

    // Clean round: all threads, shared cold-ish pool, exact results.
    scenario.cold();
    let mut total = run_round(false)?;

    // Fault rounds: arm the shared pool, hammer it from every thread.
    for (ri, &rate) in cfg.fault_rates.iter().enumerate() {
        let fault_seed = seed
            .wrapping_mul(0xD6E8_FEB8_6659_FD93)
            .wrapping_add(ri as u64)
            ^ rate.to_bits();
        scenario
            .pool
            .set_fault_policy(Some(FaultPolicy::random(fault_seed, rate)));
        scenario.cold();
        let faulted = run_round(true);
        scenario.pool.set_fault_policy(None);
        let faulted = faulted?;
        total.fault_runs += faulted.fault_runs;
        total.fault_errors += faulted.fault_errors;
        total.fault_ok += faulted.fault_ok;
        total.checks += faulted.checks;

        // Aftermath: the world must be undamaged once the policy is gone.
        scenario.cold();
        for (qi, query) in queries.iter().enumerate() {
            let request = scenario.request(query);
            let result = optimizer.run(&request).map_err(|e| {
                SimFailure::fault_contract(format!(
                    "seed {seed} query {qi}: clean re-run after threaded faults died: {e}"
                ))
            })?;
            check_result(&scenario, query, &expected[qi], &result, "post-fault-sequential")
                .map_err(|e| e.ctx(format!("seed {seed} query {qi}: state damaged by threaded faults")))?;
            total.checks += 1;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_check_passes_on_a_seed_spread() {
        let cfg = SimConfig {
            fault_rates: vec![0.05],
            ..SimConfig::default()
        };
        for seed in [1, 7, 42] {
            let report = concurrency_check(seed, 4, &cfg).unwrap();
            assert!(report.queries_run > 0);
            assert!(report.checks > 0);
            assert!(report.fault_runs > 0);
        }
    }
}

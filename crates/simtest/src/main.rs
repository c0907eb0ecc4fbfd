//! `simtest` — seed-campaign driver for the simulation harness.
//!
//! ```text
//! cargo run -p rdb-simtest -- --seeds 500
//! cargo run -p rdb-simtest -- --replay 133742
//! cargo run -p rdb-simtest -- --seeds 64 --fault-rate 0.01
//! cargo run -p rdb-simtest -- --seeds 32 --threads 8
//! ```
//!
//! Every failure prints the offending seed and the exact `--replay`
//! command that reproduces it bit-for-bit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use rdb_simtest::{
    concurrency_check, durable_mutation_check, join_mutation_check, mutation_check,
    run_durable_seed, run_join_seed, run_seed, DurableReport, JoinReport, OrReport, SeedReport,
    SimConfig,
};

struct Args {
    seeds: u64,
    start_seed: u64,
    replay: Option<u64>,
    threads: usize,
    joins: bool,
    durable: bool,
    config: SimConfig,
    skip_mutation_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 100,
        start_seed: 1,
        replay: None,
        threads: 1,
        joins: false,
        durable: false,
        config: SimConfig::default(),
        skip_mutation_check: false,
    };
    let mut rates: Vec<f64> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("--seeds: {e}"))?,
            "--start-seed" => {
                args.start_seed = value("--start-seed")?
                    .parse()
                    .map_err(|e| format!("--start-seed: {e}"))?
            }
            "--replay" => {
                args.replay =
                    Some(value("--replay")?.parse().map_err(|e| format!("--replay: {e}"))?)
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if args.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--fault-rate" => rates.push(
                value("--fault-rate")?
                    .parse()
                    .map_err(|e| format!("--fault-rate: {e}"))?,
            ),
            "--cost-mult" => {
                args.config.cost_mult = value("--cost-mult")?
                    .parse()
                    .map_err(|e| format!("--cost-mult: {e}"))?
            }
            "--cost-slack" => {
                args.config.cost_slack = value("--cost-slack")?
                    .parse()
                    .map_err(|e| format!("--cost-slack: {e}"))?
            }
            "--pool-pages" => {
                let pages: usize = value("--pool-pages")?
                    .parse()
                    .map_err(|e| format!("--pool-pages: {e}"))?;
                if pages == 0 {
                    return Err("--pool-pages must be at least 1".into());
                }
                args.config.pool_pages = Some(pages);
            }
            "--joins" => args.joins = true,
            "--durable" => args.durable = true,
            "--skip-mutation-check" => args.skip_mutation_check = true,
            "--help" | "-h" => {
                println!(
                    "simtest: deterministic differential fuzzing of the dynamic optimizer\n\n\
                     USAGE: simtest [--seeds N] [--start-seed S] [--replay SEED]\n\
                            [--threads T] [--joins] [--durable] [--fault-rate R]...\n\
                            [--cost-mult M] [--cost-slack S] [--pool-pages P]\n\
                            [--skip-mutation-check]\n\n\
                     Fault rates 0 < R < 1 arm random storage faults; the clean\n\
                     differential and a scoped index-death scenario always run.\n\
                     Default fault rates: 0.01 and 0.1.\n\
                     --threads T (T >= 2) additionally runs each seed's query\n\
                     batch concurrently on T OS threads over the shared engine,\n\
                     differencing every thread against the sequential oracle —\n\
                     with and without storage faults armed.\n\
                     --joins runs the multi-table campaign instead: seeded\n\
                     two-table worlds whose join queries race the join\n\
                     competition and are differenced against a naive\n\
                     nested-loop shadow oracle.\n\
                     --durable runs the crash campaign instead: seeded\n\
                     on-disk worlds killed at arbitrary points (clean close,\n\
                     hard crash, WAL segment boundary/mid-record cuts, torn\n\
                     data frames, rotation-window crashes) whose recovered\n\
                     state is differenced against the shadow oracle's\n\
                     snapshot at the kill point.\n\
                     --pool-pages P caps the durable worlds' buffer pool at\n\
                     P pages, forcing the beyond-RAM regime during recovery\n\
                     and verification."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if !rates.is_empty() {
        for &r in &rates {
            if !(0.0..1.0).contains(&r) {
                return Err(format!("--fault-rate {r} out of [0, 1)"));
            }
        }
        args.config.fault_rates = rates.into_iter().filter(|&r| r > 0.0).collect();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simtest: {e}");
            return ExitCode::from(2);
        }
    };

    if args.joins {
        return run_joins_campaign(&args);
    }
    if args.durable {
        return run_durable_campaign(&args);
    }

    if !args.skip_mutation_check {
        match mutation_check(args.replay.unwrap_or(args.start_seed)) {
            Ok(()) => println!("mutation smoke check: oracle caught the injected row drop"),
            Err(e) => {
                eprintln!("simtest: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let seeds: Vec<u64> = match args.replay {
        Some(seed) => vec![seed],
        None => (args.start_seed..args.start_seed + args.seeds).collect(),
    };

    let mut total = SeedReport::default();
    let mut or_total = OrReport::default();
    let mut threaded_queries = 0u64;
    let mut threaded_checks = 0u64;
    let mut threaded_fault_runs = 0u64;
    let mut failures: Vec<(u64, String)> = Vec::new();
    for &seed in &seeds {
        let outcome = catch_unwind(AssertUnwindSafe(|| run_seed(seed, &args.config)));
        match outcome {
            Ok(Ok(report)) => {
                if args.replay.is_some() {
                    println!("{report:#?}");
                }
                total.rows += report.rows;
                total.queries += report.queries;
                total.checks += report.checks;
                total.fault_runs += report.fault_runs;
                total.fault_errors += report.fault_errors;
                total.fault_ok += report.fault_ok;
                total.degraded_ok += report.degraded_ok;
                total.trace_checks += report.trace_checks;
                let or = &report.or_round;
                or_total.queries += or.queries;
                or_total.checks += or.checks;
                or_total.fault_runs += or.fault_runs;
                or_total.fault_errors += or.fault_errors;
                or_total.fault_ok += or.fault_ok;
            }
            Ok(Err(e)) => {
                failures.push((seed, format!("[{:?}] {e}", e.kind)));
                continue;
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                failures.push((seed, format!("PANIC: {msg}")));
                continue;
            }
        }
        if args.threads >= 2 {
            let threads = args.threads;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                concurrency_check(seed, threads, &args.config)
            }));
            match outcome {
                Ok(Ok(report)) => {
                    if args.replay.is_some() {
                        println!("{report:#?}");
                    }
                    threaded_queries += report.queries_run;
                    threaded_checks += report.checks;
                    threaded_fault_runs += report.fault_runs;
                    total.fault_errors += report.fault_errors;
                    total.fault_ok += report.fault_ok;
                }
                Ok(Err(e)) => failures.push((seed, format!("[{threads} threads] [{:?}] {e}", e.kind))),
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    failures.push((seed, format!("[{threads} threads] PANIC: {msg}")));
                }
            }
        }
    }

    println!(
        "simtest: {} seeds, {} queries, {} oracle checks, {} trace-consistency checks, \
         {} faulted runs ({} clean errors, {} exact results, {} graceful index degradations)",
        seeds.len() - failures.len(),
        total.queries,
        total.checks,
        total.trace_checks,
        total.fault_runs,
        total.fault_errors,
        total.fault_ok,
        total.degraded_ok,
    );
    println!(
        "simtest: OR round — {} union queries, {} oracle checks, {} faulted runs \
         ({} clean errors, {} exact results)",
        or_total.queries,
        or_total.checks,
        or_total.fault_runs,
        or_total.fault_errors,
        or_total.fault_ok,
    );
    if args.threads >= 2 {
        println!(
            "simtest: concurrency on {} threads — {} threaded queries, {} oracle checks, \
             {} faulted threaded runs",
            args.threads, threaded_queries, threaded_checks, threaded_fault_runs,
        );
    }

    if failures.is_empty() {
        println!("simtest: all seeds passed");
        ExitCode::SUCCESS
    } else {
        for (seed, e) in &failures {
            eprintln!("simtest: seed {seed} FAILED: {e}");
            eprintln!("  replay with: cargo run -p rdb-simtest -- --replay {seed}");
        }
        eprintln!("simtest: {} of {} seeds failed", failures.len(), seeds.len());
        ExitCode::FAILURE
    }
}

/// The multi-table campaign: every seed grows a two-table world and runs
/// its join queries through the SQL layer's join competition, differenced
/// against the naive nested-loop shadow oracle (see `rdb_simtest::join`).
fn run_joins_campaign(args: &Args) -> ExitCode {
    if !args.skip_mutation_check {
        match join_mutation_check(args.replay.unwrap_or(args.start_seed)) {
            Ok(()) => println!("join mutation smoke check: oracle caught the injected row drop"),
            Err(e) => {
                eprintln!("simtest: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let seeds: Vec<u64> = match args.replay {
        Some(seed) => vec![seed],
        None => (args.start_seed..args.start_seed + args.seeds).collect(),
    };

    let mut total = JoinReport::default();
    let mut failures: Vec<(u64, String)> = Vec::new();
    for &seed in &seeds {
        let outcome = catch_unwind(AssertUnwindSafe(|| run_join_seed(seed, &args.config)));
        match outcome {
            Ok(Ok(report)) => {
                if args.replay.is_some() {
                    println!("{report:#?}");
                }
                total.left_rows += report.left_rows;
                total.right_rows += report.right_rows;
                total.queries += report.queries;
                total.checks += report.checks;
                total.cost_checks += report.cost_checks;
                total.pair_checks += report.pair_checks;
                total.kill_checks += report.kill_checks;
                total.fault_runs += report.fault_runs;
                total.fault_errors += report.fault_errors;
                total.fault_ok += report.fault_ok;
            }
            Ok(Err(e)) => failures.push((seed, format!("[{:?}] {e}", e.kind))),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                failures.push((seed, format!("PANIC: {msg}")));
            }
        }
    }

    println!(
        "simtest joins: {} seeds, {} join queries, {} oracle checks, {} cost-bound checks, \
         {} kill-bound checks, {} pair checks, {} faulted runs ({} clean errors, \
         {} exact results)",
        seeds.len() - failures.len(),
        total.queries,
        total.checks,
        total.cost_checks,
        total.kill_checks,
        total.pair_checks,
        total.fault_runs,
        total.fault_errors,
        total.fault_ok,
    );

    if failures.is_empty() {
        println!("simtest joins: all seeds passed");
        ExitCode::SUCCESS
    } else {
        for (seed, e) in &failures {
            eprintln!("simtest joins: seed {seed} FAILED: {e}");
            eprintln!("  replay with: cargo run -p rdb-simtest -- --joins --replay {seed}");
        }
        eprintln!(
            "simtest joins: {} of {} seeds failed",
            failures.len(),
            seeds.len()
        );
        ExitCode::FAILURE
    }
}

/// The durable crash campaign: every seed grows an on-disk world, kills
/// it eight ways, and differences each recovered database against the
/// shadow oracle's snapshot at the kill point (see `rdb_simtest::durable`).
fn run_durable_campaign(args: &Args) -> ExitCode {
    if !args.skip_mutation_check {
        match durable_mutation_check(args.replay.unwrap_or(args.start_seed)) {
            Ok(()) => println!(
                "durable mutation smoke check: recovery verifier caught the dropped oracle row"
            ),
            Err(e) => {
                eprintln!("simtest: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let seeds: Vec<u64> = match args.replay {
        Some(seed) => vec![seed],
        None => (args.start_seed..args.start_seed + args.seeds).collect(),
    };

    let mut total = DurableReport::default();
    let mut failures: Vec<(u64, String)> = Vec::new();
    for &seed in &seeds {
        let outcome = catch_unwind(AssertUnwindSafe(|| run_durable_seed(seed, &args.config)));
        match outcome {
            Ok(Ok(report)) => {
                if args.replay.is_some() {
                    println!("{report:#?}");
                }
                total.ops += report.ops;
                total.crashes += report.crashes;
                total.checks += report.checks;
                total.replayed += report.replayed;
                total.torn_repaired += report.torn_repaired;
                total.torn_errors += report.torn_errors;
                total.fault_runs += report.fault_runs;
                total.fault_errors += report.fault_errors;
                total.fault_ok += report.fault_ok;
            }
            Ok(Err(e)) => failures.push((seed, format!("[{:?}] {e}", e.kind))),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                failures.push((seed, format!("PANIC: {msg}")));
            }
        }
    }

    println!(
        "simtest durable: {} seeds, {} ops, {} crash recoveries, {} oracle checks, \
         {} WAL records replayed, {} torn frames repaired, {} unrepairable tears \
         surfaced as typed errors, {} faulted runs ({} clean errors, {} exact results)",
        seeds.len() - failures.len(),
        total.ops,
        total.crashes,
        total.checks,
        total.replayed,
        total.torn_repaired,
        total.torn_errors,
        total.fault_runs,
        total.fault_errors,
        total.fault_ok,
    );

    if failures.is_empty() {
        println!("simtest durable: all seeds passed");
        ExitCode::SUCCESS
    } else {
        for (seed, e) in &failures {
            eprintln!("simtest durable: seed {seed} FAILED: {e}");
            eprintln!("  replay with: cargo run -p rdb-simtest -- --durable --replay {seed}");
        }
        eprintln!(
            "simtest durable: {} of {} seeds failed",
            failures.len(),
            seeds.len()
        );
        ExitCode::FAILURE
    }
}

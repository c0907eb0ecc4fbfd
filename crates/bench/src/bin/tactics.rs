//! E11-E14 — the four retrieval tactics of Section 7, each in its home
//! scenario, against the alternatives it must beat.
//!
//! Run: `cargo run --release -p rdb-bench --bin tactics [-- <name>]`
//! where `<name>` ∈ {background-only, fast-first, sorted, index-only};
//! no argument runs all four.

use std::sync::Arc;

use rdb_bench::fixtures::{run_traced, JscanFixture};
use rdb_bench::report::{fmt, print_table};
use rdb_btree::KeyRange;
use rdb_core::{
    DynamicOptimizer, IndexChoice, KeyPred, OptimizeGoal, RecordPred, RetrievalRequest,
    StaticOptimizer, StaticPlan, TraceEvent,
};
use rdb_storage::{Record, Value};

/// E11: total-time + fetch-needed indexes: background-only (Jscan + sorted
/// final fetch) vs committed Fscan vs Tscan.
fn background_only() {
    println!("== E11 background-only tactic (total-time, fetch-needed only) ==\n");
    let f = JscanFixture::build(40_000, &[200, 80], 200_000);
    let dynamic = DynamicOptimizer::default();
    let static_opt = StaticOptimizer::default();
    let mut rows = Vec::new();
    for (a, b) in [(1, 1), (1, 40), (150, 1)] {
        let request = || -> RetrievalRequest<'_> {
            let residual: RecordPred = Arc::new(move |r: &Record| {
                r[0] == Value::Int(a) && r[1] == Value::Int(b)
            });
            RetrievalRequest {
                table: &f.table,
                cost: f.table.pool().cost().clone(),
                indexes: vec![
                    IndexChoice::fetch_needed(&f.indexes[0], KeyRange::eq(a)),
                    IndexChoice::fetch_needed(&f.indexes[1], KeyRange::eq(b)),
                ],
                residual,
                goal: OptimizeGoal::TotalTime,
                order_required: false,
                limit: None,
            }
        };
        f.cold();
        let dynamic_run = dynamic.run(&request()).unwrap();
        f.cold();
        let fscan = static_opt.execute(StaticPlan::Fscan { pos: 0 }, &request()).unwrap();
        f.cold();
        let tscan = static_opt.execute(StaticPlan::Tscan, &request()).unwrap();
        rows.push(vec![
            format!("c0={a},c1={b}"),
            format!("{}", dynamic_run.deliveries.len()),
            fmt(dynamic_run.cost),
            fmt(fscan.cost),
            fmt(tscan.cost),
            dynamic_run.strategy.to_string(),
        ]);
    }
    print_table(
        &["restriction", "rows", "background-only", "Fscan", "Tscan", "tactic"],
        &rows,
    );
}

/// E12: fast-first: early termination ≈ Fscan speed; late termination ≈
/// Jscan totals.
fn fast_first() {
    println!("\n== E12 fast-first tactic (borrowing foreground vs background Jscan) ==\n");
    let f = JscanFixture::build(40_000, &[200, 80], 200_000);
    let dynamic = DynamicOptimizer::default();
    let static_opt = StaticOptimizer::default();
    let mut rows = Vec::new();
    for limit in [Some(1), Some(5), Some(25), None] {
        let request = |goal: OptimizeGoal| -> RetrievalRequest<'_> {
            let residual: RecordPred = Arc::new(move |r: &Record| {
                r[0] == Value::Int(1) && r[1] == Value::Int(1)
            });
            RetrievalRequest {
                table: &f.table,
                cost: f.table.pool().cost().clone(),
                indexes: vec![
                    IndexChoice::fetch_needed(&f.indexes[0], KeyRange::eq(1)),
                    IndexChoice::fetch_needed(&f.indexes[1], KeyRange::eq(1)),
                ],
                residual,
                goal,
                order_required: false,
                limit,
            }
        };
        f.cold();
        let ff = dynamic.run(&request(OptimizeGoal::FastFirst)).unwrap();
        f.cold();
        let bg = dynamic.run(&request(OptimizeGoal::TotalTime)).unwrap();
        f.cold();
        let fscan = static_opt.execute(StaticPlan::Fscan { pos: 0 }, &request(OptimizeGoal::FastFirst)).unwrap();
        rows.push(vec![
            match limit {
                Some(n) => format!("stop after {n}"),
                None => "run to completion".into(),
            },
            format!("{}", ff.deliveries.len()),
            fmt(ff.cost),
            fmt(bg.cost),
            fmt(fscan.cost),
        ]);
    }
    print_table(
        &[
            "termination",
            "rows",
            "fast-first",
            "background-only",
            "Fscan",
        ],
        &rows,
    );
    println!(
        "\nShape: for early termination fast-first ~ Fscan (and far below\n\
         background-only); run to completion it degrades gracefully toward\n\
         the background-only cost instead of Fscan's full random-fetch bill."
    );
}

/// E13: sorted tactic: ordered Fscan + parallel filter-producing Jscan vs
/// Fscan alone vs serial filter-then-scan.
fn sorted() {
    println!("\n== E13 sorted tactic (order-needed Fscan + background Jscan filter) ==\n");
    let f = JscanFixture::build(40_000, &[400, 80], 200_000);
    let dynamic = DynamicOptimizer::default();
    let mut rows = Vec::new();
    for sel in [1i64, 5, 40] {
        // order by id; restriction c0 < sel (selective for small sel).
        let request = |with_bgr: bool| -> RetrievalRequest<'_> {
            let residual: RecordPred =
                Arc::new(move |r: &Record| r[0].as_i64().unwrap() < sel);
            let mut indexes = vec![
                IndexChoice::fetch_needed(&f.indexes[2], KeyRange::all()).with_order(),
            ];
            if with_bgr {
                indexes.push(IndexChoice::fetch_needed(
                    &f.indexes[0],
                    KeyRange::at_most(sel - 1),
                ));
            }
            RetrievalRequest {
                table: &f.table,
                cost: f.table.pool().cost().clone(),
                indexes,
                residual,
                goal: OptimizeGoal::FastFirst,
                order_required: true,
                limit: None,
            }
        };
        f.cold();
        let with_filter = dynamic.run(&request(true)).unwrap();
        f.cold();
        let without = dynamic.run(&request(false)).unwrap();
        rows.push(vec![
            format!("c0<{sel}"),
            format!("{}", with_filter.deliveries.len()),
            fmt(with_filter.cost),
            fmt(without.cost),
            fmt(without.cost / with_filter.cost.max(1e-9)),
        ]);
    }
    print_table(
        &[
            "restriction",
            "rows",
            "sorted (Fscan+Jscan filter)",
            "Fscan alone",
            "saving factor",
        ],
        &rows,
    );
}

/// E14: index-only tactic: best Sscan vs Jscan; the Sscan-is-safer
/// asymmetry. A two-column covering index `(c0, c1)` makes the Sscan
/// self-sufficient for the two-column restriction; the background Jscan
/// works from the single-column index on `c1`.
fn index_only() {
    println!("\n== E14 index-only tactic (self-sufficient Sscan vs background Jscan) ==\n");
    let f = JscanFixture::build(40_000, &[200, 80], 200_000);
    // Build the covering index (c0, c1) by walking the heap (setup cost,
    // excluded from measurements by the cold() + per-run cost deltas).
    let mut covering = rdb_btree::BTree::new(
        "idx_c0_c1",
        rdb_storage::FileId(50),
        f.table.pool().clone(),
        vec![0, 1],
        64,
    );
    let mut scan = f.table.scan();
    while let Some((rid, record)) = scan.next(&f.table, f.table.pool().cost()).unwrap() {
        covering.insert(vec![record[0].clone(), record[1].clone()], rid);
    }

    let dynamic = DynamicOptimizer::default();
    let static_opt = StaticOptimizer::default();
    let mut rows = Vec::new();
    for (label, prefix_bound, bgr_useful) in [
        // The restriction is c1==1 only: the covering index has no usable
        // prefix, so the "worst Sscan scans one entire index" (40k
        // entries); the background Jscan's 500-entry scan of idx_c1
        // completes long before that and wins with a sure RID list.
        ("Sscan unselective: whole-index scan, Jscan wins", false, true),
        // The restriction is the covering prefix c0==1 AND c1==1: Sscan
        // walks just the 200-entry prefix; the broad background range is
        // unproductive, Jscan is abandoned, the safe Sscan finishes.
        ("Sscan selective, bgr unproductive: Sscan wins", true, false),
    ] {
        let request = || -> RetrievalRequest<'_> {
            let kp: KeyPred = if prefix_bound {
                Arc::new(move |k: &[Value]| k[0] == Value::Int(1) && k[1] == Value::Int(1))
            } else {
                Arc::new(move |k: &[Value]| k[1] == Value::Int(1))
            };
            let residual: RecordPred = if prefix_bound {
                Arc::new(move |r: &Record| r[0] == Value::Int(1) && r[1] == Value::Int(1))
            } else {
                Arc::new(move |r: &Record| r[1] == Value::Int(1))
            };
            let sscan_range = if prefix_bound {
                KeyRange {
                    lo: rdb_btree::KeyBound::Inclusive(vec![Value::Int(1)]),
                    hi: rdb_btree::KeyBound::Inclusive(vec![Value::Int(1)]),
                }
            } else {
                KeyRange::all()
            };
            let mut indexes = vec![
                IndexChoice::fetch_needed(&covering, sscan_range).with_self_sufficient(kp),
            ];
            if bgr_useful {
                indexes.push(IndexChoice::fetch_needed(&f.indexes[1], KeyRange::eq(1)));
            } else {
                indexes.push(IndexChoice::fetch_needed(
                    &f.indexes[1],
                    KeyRange::at_most(78),
                ));
            }
            RetrievalRequest {
                table: &f.table,
                cost: f.table.pool().cost().clone(),
                indexes,
                residual,
                goal: OptimizeGoal::TotalTime,
                order_required: false,
                limit: None,
            }
        };
        f.cold();
        let (run, events) = run_traced(&dynamic, &request());
        f.cold();
        // The best static fetch-based comparator for each scenario.
        let fscan = static_opt.execute(
            StaticPlan::Fscan {
                pos: if bgr_useful { 1 } else { 0 },
            },
            &request(),
        ).unwrap();
        assert_eq!(run.deliveries.len(), fscan.deliveries.len());
        rows.push(vec![
            label.into(),
            format!("{}", run.deliveries.len()),
            fmt(run.cost),
            fmt(fscan.cost),
            // How the race was decided: what the winner says ran.
            events
                .into_iter()
                .find_map(|e| match e {
                    TraceEvent::Winner { strategy, .. } => Some(strategy),
                    _ => None,
                })
                .unwrap_or_else(|| run.strategy.to_string()),
        ]);
    }
    print_table(
        &["scenario", "rows", "index-only", "best Fscan", "resolution"],
        &rows,
    );
}

fn main() {
    let arg = std::env::args().nth(1);
    match arg.as_deref() {
        Some("background-only") => background_only(),
        Some("fast-first") => fast_first(),
        Some("sorted") => sorted(),
        Some("index-only") => index_only(),
        _ => {
            background_only();
            fast_first();
            sorted();
            index_only();
        }
    }
}

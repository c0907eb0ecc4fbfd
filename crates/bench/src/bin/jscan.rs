//! E9/E10 — Section 6 / Figure 6: the joint scan.
//!
//! * Selectivity sweep: dynamic Jscan vs statically-thresholded Jscan
//!   \[MoHa90\] vs single-index Fscan vs Tscan. The shape to check: the
//!   dynamic column tracks the best strategy across the whole sweep,
//!   abandoning unproductive index scans mid-run; the static variants are
//!   each catastrophic somewhere.
//! * `--tiers`: the tiered RID-list storage distribution under an
//!   L-shaped result-size workload.
//!
//! Run: `cargo run --release -p rdb-bench --bin jscan [-- --tiers]`

use std::sync::Arc;

use rdb_bench::fixtures::{discards, run_traced, JscanFixture};
use rdb_bench::report::{fmt, print_table};
use rdb_btree::KeyRange;
use rdb_core::baseline::{estimate_all, StaticJscan, StaticJscanConfig};
use rdb_core::ridlist::RidTierConfig;
use rdb_core::{
    DynamicOptimizer, IndexChoice, OptimizeGoal, RecordPred, RetrievalRequest, StaticOptimizer,
    StaticPlan, TraceEvent, Tscan,
};
use rdb_storage::{Record, Value};

fn sweep() {
    // Columns: c0 = i % 1000 (selective eq), c1 = i % m (swept selectivity).
    println!("== Jscan selectivity sweep: AND of two index restrictions ==\n");
    println!("restriction: c0 < K (swept) and c1 = 1 (fixed 1/50)\n");
    let f = JscanFixture::build(50_000, &[1000, 50], 200_000);
    let tscan_cost = Tscan::full_cost(&f.table);
    let dynamic = DynamicOptimizer::default();
    let static_jscan = StaticJscan::new(StaticJscanConfig::default());
    let static_opt = StaticOptimizer::default();

    let mut rows = Vec::new();
    for k in [2i64, 10, 50, 200, 600, 1000] {
        let request = || -> RetrievalRequest<'_> {
            let residual: RecordPred = Arc::new(move |r: &Record| {
                r[0].as_i64().unwrap() < k && r[1] == Value::Int(1)
            });
            RetrievalRequest {
                table: &f.table,
                cost: f.table.pool().cost().clone(),
                indexes: vec![
                    IndexChoice::fetch_needed(&f.indexes[0], KeyRange::at_most(k - 1)),
                    IndexChoice::fetch_needed(&f.indexes[1], KeyRange::eq(1)),
                ],
                residual,
                goal: OptimizeGoal::TotalTime,
                order_required: false,
                limit: None,
            }
        };
        f.cold();
        let (dyn_run, events) = run_traced(&dynamic, &request());
        f.cold();
        let req = request();
        let est = estimate_all(&req);
        let stat = static_jscan.run(&req, &est).unwrap();
        f.cold();
        let fscan = static_opt.execute(StaticPlan::Fscan { pos: 1 }, &request()).unwrap();
        f.cold();
        let tscan = static_opt.execute(StaticPlan::Tscan, &request()).unwrap();
        assert_eq!(dyn_run.deliveries.len(), tscan.deliveries.len());
        let oracle = fscan.cost.min(tscan.cost).min(stat.cost);
        rows.push(vec![
            format!("K={k}"),
            format!("{}", dyn_run.deliveries.len()),
            fmt(dyn_run.cost),
            fmt(stat.cost),
            fmt(fscan.cost),
            fmt(tscan.cost),
            fmt(dyn_run.cost / oracle.max(1e-9)),
            discards(&events).to_string(),
        ]);
    }
    print_table(
        &[
            "sweep",
            "rows",
            "dynamic Jscan",
            "static Jscan[MoHa90]",
            "Fscan(c1)",
            "Tscan",
            "dyn/best-other",
            "scans abandoned",
        ],
        &rows,
    );
    println!("\n(Tscan reference cost: {})", fmt(tscan_cost));
}

fn tiers() {
    println!("\n== Tiered RID storage under an L-shaped result-size workload ==\n");
    let f = JscanFixture::build(50_000, &[50_000], 200_000);
    let dynamic = DynamicOptimizer::default();
    // Result sizes drawn from an L-shape: mostly tiny, occasionally huge.
    let sizes = [0i64, 1, 3, 7, 15, 20, 40, 120, 800, 4000, 9000];
    let mut rows = Vec::new();
    for &s in &sizes {
        let request = {
            let residual: RecordPred =
                Arc::new(move |r: &Record| r[0].as_i64().unwrap() < s);
            RetrievalRequest {
                table: &f.table,
                cost: f.table.pool().cost().clone(),
                indexes: vec![IndexChoice::fetch_needed(
                    &f.indexes[0],
                    KeyRange::at_most(s - 1),
                )],
                residual,
                goal: OptimizeGoal::TotalTime,
                order_required: false,
                limit: None,
            }
        };
        f.cold();
        let (run, events) = run_traced(&dynamic, &request);
        // The final stage fetches the last completed scan's list.
        let final_stage = events
            .iter()
            .any(|e| matches!(e, TraceEvent::PhaseCost { phase, .. } if phase == "final-stage"));
        let final_list = events.iter().rev().find_map(|e| match e {
            TraceEvent::ScanCompleted { kept, .. } => Some(*kept),
            _ => None,
        });
        let tier = match (run.strategy, final_list) {
            ("TinyRangeFetch", _) => "tiny-shortcut",
            ("EndOfData", _) => "empty-shortcut",
            (_, Some(len)) if final_stage => tier_of(len),
            _ => "(direct)",
        };
        rows.push(vec![
            format!("{s} rids"),
            run.strategy.to_string(),
            tier.to_string(),
            fmt(run.cost),
        ]);
    }
    print_table(&["result size", "tactic", "tier", "cost"], &rows);
    println!(
        "\nThe paper's hybrid arrangement: zero -> shortcut, <=20 -> static\n\
         buffer (and the tiny-range initial-stage shortcut), medium -> heap\n\
         buffer, huge -> temp table + bitmap."
    );
}

/// The tier a RID list of `len` entries lands in under the default sizing.
fn tier_of(len: usize) -> &'static str {
    let tiers = RidTierConfig::default();
    match len {
        0 => "empty",
        n if n <= tiers.inline_max => "inline",
        n if n <= tiers.buffer_max => "buffer",
        _ => "spilled",
    }
}

fn main() {
    sweep();
    tiers();
}

//! Ablations of the dynamic optimizer's design choices.
//!
//! * **A1** — the two-stage switch threshold (the paper's "e.g. becomes
//!   95%"): sweep it on a misestimated workload.
//! * **A2** — the tiny-list shortcut of Section 5/6: on vs off on an
//!   OLTP-style point workload.
//! * **A3** — limited simultaneous scanning of adjacent indexes
//!   (Section 6): on vs off when the initial order is wrong.
//! * **A4** — cache interference (Section 3(c)): the same query's cost
//!   under increasing foreign-page pressure.
//!
//! Run: `cargo run --release -p rdb-bench --bin ablation`

use std::sync::Arc;

use rdb_bench::fixtures::{discards, run_traced, JscanFixture};
use rdb_bench::report::{fmt, print_table};
use rdb_btree::KeyRange;
use rdb_core::{
    DynamicConfig, DynamicOptimizer, IndexChoice, Jscan, JscanConfig, JscanIndex, JscanOutcome,
    KillRules, OptimizeGoal, RecordPred, RetrievalRequest,
};
use rdb_storage::{FileId, Record, Value};

/// A1: switch-threshold sweep, on two opposing workloads.
///
/// *abandon-right*: the second index covers 40% of the table — abandoning
/// its scan early is correct, so lower thresholds pay.
/// *abandon-wrong*: the second index is small and its intersection cuts
/// the final fetch well below the guaranteed best — a threshold of 0.3
/// abandons a scan that would have paid off.
/// The paper's 0.95 is near-best on the second workload while giving up
/// little on the first — the compromise the paper chose.
fn threshold_sweep() {
    println!("== A1: two-stage switch threshold (paper uses 0.95) ==\n");
    // abandon-right: c1 <= 1 covers 2/5 of the table.
    let right = JscanFixture::build(30_000, &[500, 5], 200_000);
    // abandon-wrong: c1 == 1 is a 500-entry scan whose intersection (20
    // rids) is far below the 60-rid guaranteed best.
    let wrong = JscanFixture::build(30_000, &[500, 60], 200_000);

    let mut rows = Vec::new();
    for threshold in [0.3f64, 0.6, 0.95, 1.5, 1e9] {
        let run_one = |f: &JscanFixture, hi: i64| -> (usize, f64, usize) {
            let residual: RecordPred = Arc::new(move |r: &Record| {
                r[0] == Value::Int(1) && r[1].as_i64().unwrap() <= hi
            });
            let request = RetrievalRequest {
                table: &f.table,
                cost: f.table.pool().cost().clone(),
                indexes: vec![
                    IndexChoice::fetch_needed(&f.indexes[0], KeyRange::eq(1)),
                    IndexChoice::fetch_needed(&f.indexes[1], KeyRange::at_most(hi)),
                ],
                residual,
                goal: OptimizeGoal::TotalTime,
                order_required: false,
                limit: None,
            };
            let optimizer = DynamicOptimizer::new(DynamicConfig {
                rules: KillRules {
                    switch_threshold: threshold,
                    // Disable the direct spend criterion so the ablation
                    // isolates the two-stage threshold.
                    spend_limit: 1e9,
                },
                jscan: JscanConfig {
                    tiny_list_shortcut: 0,
                    ..JscanConfig::default()
                },
                ..DynamicConfig::default()
            });
            f.cold();
            let (run, events) = run_traced(&optimizer, &request);
            (run.deliveries.len(), run.cost, discards(&events))
        };
        let (_r1, cost_right, ab1) = run_one(&right, 1);
        let (_r2, cost_wrong, ab2) = run_one(&wrong, 1);
        rows.push(vec![
            if threshold > 1e6 {
                "never switch".into()
            } else {
                format!("{threshold}")
            },
            fmt(cost_right),
            ab1.to_string(),
            fmt(cost_wrong),
            ab2.to_string(),
        ]);
    }
    print_table(
        &[
            "threshold",
            "abandon-right cost",
            "abandoned",
            "abandon-wrong cost",
            "abandoned",
        ],
        &rows,
    );
}

/// A2: tiny-list shortcut on/off on point lookups.
fn tiny_shortcut() {
    println!("\n== A2: tiny-list shortcut (<=20 RIDs ends Jscan immediately) ==\n");
    let f = JscanFixture::build(30_000, &[10_000, 5], 200_000);
    let mut rows = Vec::new();
    for (label, shortcut) in [("on (paper)", 20usize), ("off", 0)] {
        let residual: RecordPred =
            Arc::new(|r: &Record| r[0] == Value::Int(7) && r[1].as_i64().unwrap() <= 3);
        let request = RetrievalRequest {
            table: &f.table,
            cost: f.table.pool().cost().clone(),
            indexes: vec![
                IndexChoice::fetch_needed(&f.indexes[0], KeyRange::eq(7)),
                IndexChoice::fetch_needed(&f.indexes[1], KeyRange::at_most(3)),
            ],
            residual,
            goal: OptimizeGoal::TotalTime,
            order_required: false,
            limit: None,
        };
        let optimizer = DynamicOptimizer::new(DynamicConfig {
            jscan: JscanConfig {
                tiny_list_shortcut: shortcut,
                ..JscanConfig::default()
            },
            initial: rdb_core::InitialStage {
                // Disable the *initial-stage* tiny shortcut so the ablation
                // isolates the Jscan-level one.
                tiny_range_threshold: 0,
            },
            ..DynamicConfig::default()
        });
        f.cold();
        let run = optimizer.run(&request).unwrap();
        rows.push(vec![
            label.into(),
            format!("{}", run.deliveries.len()),
            fmt(run.cost),
        ]);
    }
    print_table(&["tiny shortcut", "rows", "cost"], &rows);
}

/// A3: simultaneous adjacent scanning when the preorder is wrong.
fn simultaneous() {
    println!("\n== A3: simultaneous adjacent scans vs sequential (misordered estimates) ==\n");
    let f = JscanFixture::build(30_000, &[5, 300], 200_000);
    let mut rows = Vec::new();
    for (label, simultaneous) in [("sequential (default)", false), ("simultaneous", true)] {
        // Hand Jscan a deliberately wrong order: the big index first.
        let jscan = Jscan::new(
            &f.table,
            vec![
                JscanIndex {
                    tree: &f.indexes[0],
                    range: KeyRange::eq(1),
                    estimate: 10.0, // lie: actually ~6000
                },
                JscanIndex {
                    tree: &f.indexes[1],
                    range: KeyRange::eq(1),
                    estimate: 100.0,
                },
            ],
            JscanConfig {
                simultaneous_adjacent: simultaneous,
                tiny_list_shortcut: 0,
                ..JscanConfig::default()
            },
            // Isolate ordering from abandonment.
            KillRules {
                switch_threshold: 10.0,
                spend_limit: 100.0,
            },
            f.table.pool().cost().clone(),
        );
        f.cold();
        let before = f.cost.total();
        let mut jscan = jscan;
        let outcome = jscan.run();
        let cost = f.cost.total() - before;
        let kept = match &outcome {
            JscanOutcome::FinalList(list) => list.len().to_string(),
            other => format!("{other:?}"),
        };
        rows.push(vec![label.into(), kept, fmt(cost)]);
    }
    print_table(&["mode", "final RIDs", "jscan cost"], &rows);
    println!(
        "\nWith simultaneous scanning the truly smaller index finishes first and\n\
         becomes the filter, repairing the bad preorder mid-flight."
    );
}

/// A4: cache interference (Section 3(c)).
fn interference() {
    println!("\n== A4: cache interference makes identical runs cost differently ==\n");
    let f = JscanFixture::build(30_000, &[500], 200_000);
    let residual: RecordPred = Arc::new(|r: &Record| r[0] == Value::Int(1));
    let request = || RetrievalRequest {
        table: &f.table,
        cost: f.table.pool().cost().clone(),
        indexes: vec![IndexChoice::fetch_needed(&f.indexes[0], KeyRange::eq(1))],
        residual: residual.clone(),
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    };
    let optimizer = DynamicOptimizer::default();
    f.cold();
    let cold = optimizer.run(&request()).unwrap().cost;
    let mut rows = vec![vec!["cold start".to_string(), fmt(cold)]];
    // The fixture pool holds 200k pages; pressure beyond that evicts the
    // query's working set.
    for foreign_pages in [0u32, 100_000, 199_000, 400_000] {
        // Warm up, interfere, measure.
        let _ = optimizer.run(&request()).unwrap();
        f.table.pool().perturb(FileId(4242), foreign_pages);
        let cost = optimizer.run(&request()).unwrap().cost;
        rows.push(vec![format!("warm + {foreign_pages} foreign pages"), fmt(cost)]);
    }
    print_table(&["scenario", "cost"], &rows);
    println!(
        "\nThe same retrieval's cost varies by orders of magnitude with cache\n\
         state alone — the uncertainty source the paper says only run-time\n\
         competition can absorb."
    );
}

fn main() {
    threshold_sweep();
    tiny_shortcut();
    simultaneous();
    interference();
}

//! E6 — the paper's Section 4 host-variable example:
//!
//! ```sql
//! select * from FAMILIES where AGE >= :A1;
//! ```
//!
//! "with parameter :A1 taking values 0 and 200, delivering all or no
//! records in two different runs. In this case, a correct choice between
//! the sequential (>=0) and index (>=200) retrieval strategies can only be
//! done dynamically on a per-run basis."
//!
//! We sweep :A1, comparing the dynamic optimizer against both static
//! commitments and the per-binding oracle.
//!
//! Run: `cargo run --release -p rdb-bench --bin host_var`

use std::sync::Arc;

use rdb_bench::report::{fmt, print_table};
use rdb_btree::KeyRange;
use rdb_core::baseline::{PredShape, StaticIndexInfo};
use rdb_core::{
    DynamicOptimizer, IndexChoice, OptimizeGoal, RecordPred, RetrievalRequest, StaticOptimizer,
    StaticPlan,
};
use rdb_storage::Record;
use rdb_workload::{families_db, FamiliesConfig};

fn main() {
    let rows = 20_000;
    let db = families_db(&FamiliesConfig {
        rows,
        ..FamiliesConfig::default()
    });
    let table = db.heap("FAMILIES").expect("fixture table");
    let idx_age = db
        .indexes("FAMILIES")
        .expect("fixture indexes")
        .iter()
        .find(|i| i.name() == "IDX_AGE")
        .expect("AGE index");

    // Static plans committed once, before :A1 is known.
    let stats = idx_age.stats();
    let static_opt = StaticOptimizer::default();
    let committed = static_opt.plan(
        table,
        &[StaticIndexInfo {
            entries: stats.entries,
            distinct_keys: stats.distinct_keys,
            avg_fanout: stats.avg_fanout,
            shape: PredShape::Range,
            self_sufficient: false,
        }],
    );
    println!(
        "static optimizer committed (1/3 range-selectivity guess): {committed:?}\n"
    );

    let dynamic = DynamicOptimizer::default();
    let request = |a1: i64| -> RetrievalRequest<'_> {
        let residual: RecordPred = Arc::new(move |r: &Record| r[1].as_i64().unwrap() >= a1);
        RetrievalRequest {
            table,
            cost: table.pool().cost().clone(),
            indexes: vec![IndexChoice::fetch_needed(idx_age, KeyRange::at_least(a1))],
            residual,
            goal: OptimizeGoal::TotalTime,
            order_required: false,
            limit: None,
        }
    };

    let mut out = Vec::new();
    for a1 in [0, 20, 50, 80, 90, 95, 99, 100, 200] {
        db.clear_cache();
        let dyn_run = dynamic.run(&request(a1)).unwrap();
        db.clear_cache();
        let stat_committed = static_opt.execute(committed, &request(a1)).unwrap();
        db.clear_cache();
        let stat_tscan = static_opt.execute(StaticPlan::Tscan, &request(a1)).unwrap();
        db.clear_cache();
        let stat_fscan = static_opt.execute(StaticPlan::Fscan { pos: 0 }, &request(a1)).unwrap();
        assert_eq!(dyn_run.deliveries.len(), stat_tscan.deliveries.len());
        let oracle = stat_tscan.cost.min(stat_fscan.cost);
        out.push(vec![
            format!(":A1={a1}"),
            format!("{}", dyn_run.deliveries.len()),
            fmt(dyn_run.cost),
            fmt(stat_committed.cost),
            fmt(stat_tscan.cost),
            fmt(stat_fscan.cost),
            fmt(oracle),
            fmt(dyn_run.cost / oracle.max(1e-9)),
            dyn_run.strategy.to_string(),
        ]);
    }
    print_table(
        &[
            "binding",
            "rows",
            "dynamic",
            "static(committed)",
            "static Tscan",
            "static Fscan",
            "oracle",
            "dyn/oracle",
            "dynamic tactic",
        ],
        &out,
    );
    println!(
        "\nShape to check against the paper: the committed static plan is near-\n\
         optimal on one side of the sweep and catastrophic on the other; the\n\
         dynamic column stays within a small factor of the oracle everywhere,\n\
         switching strategy as :A1 crosses the selectivity crossover."
    );
}

//! Integration tests pitting the dynamic optimizer against the paper's
//! baselines: the Selinger-style static optimizer and the statically-
//! thresholded Jscan of \[MoHa90\].

use std::sync::Arc;

use rdb_btree::{BTree, KeyRange};
use rdb_core::baseline::{estimate_all, PredShape, StaticIndexInfo};
use rdb_core::{
    DynamicOptimizer, IndexChoice, OptimizeGoal, RecordPred, RetrievalRequest, StaticJscan,
    StaticOptimizer, StaticPlan,
};
use rdb_storage::{
    shared_meter, shared_pool, Column, CostConfig, FileId, HeapTable, Record, Schema, SharedCost,
    Value, ValueType,
};

struct Fixture {
    table: HeapTable,
    idx_age: BTree,
    idx_b: BTree,
    #[allow(dead_code)] // keeps the meter alive for the fixture lifetime
    cost: SharedCost,
}

/// FAMILIES-like table: AGE uniform in [0, 100), B = i % mb.
fn families(n: i64, mb: i64) -> Fixture {
    let cost = shared_meter(CostConfig::default());
    let pool = shared_pool(100_000, cost.clone());
    let schema = Schema::new(vec![
        Column::new("age", ValueType::Int),
        Column::new("b", ValueType::Int),
    ]);
    let mut table = HeapTable::with_page_bytes("families", FileId(0), schema, pool.clone(), 1024);
    let mut idx_age = BTree::new("idx_age", FileId(1), pool.clone(), vec![0], 64);
    let mut idx_b = BTree::new("idx_b", FileId(2), pool, vec![1], 64);
    // Deterministic pseudo-random ages so the index is unclustered.
    let mut state = 0xDEADBEEFu64;
    for i in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let age = (state >> 33) as i64 % 100;
        let rid = table
            .insert(Record::new(vec![Value::Int(age), Value::Int(i % mb)]))
            .unwrap();
        idx_age.insert(vec![Value::Int(age)], rid);
        idx_b.insert(vec![Value::Int(i % mb)], rid);
    }
    Fixture {
        table,
        idx_age,
        idx_b,
        cost,
    }
}

fn age_request<'a>(f: &'a Fixture, a1: i64) -> RetrievalRequest<'a> {
    let residual: RecordPred = Arc::new(move |r: &Record| r[0].as_i64().unwrap() >= a1);
    RetrievalRequest {
        table: &f.table,
        cost: f.table.pool().cost().clone(),
        indexes: vec![IndexChoice::fetch_needed(&f.idx_age, KeyRange::at_least(a1))],
        arms: Vec::new(),
        residual,
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    }
}

/// The paper's `select * from FAMILIES where AGE >= :A1` example: a static
/// plan committed at compile time is badly wrong at one end of the
/// parameter space; the dynamic optimizer is near-optimal at both ends.
#[test]
fn host_variable_example_static_vs_dynamic() {
    let f = families(8000, 10);
    let stats = f.idx_age.stats();
    let static_opt = StaticOptimizer::default();
    let plan = static_opt.plan(
        &f.table,
        &[StaticIndexInfo {
            entries: stats.entries,
            distinct_keys: stats.distinct_keys,
            avg_fanout: stats.avg_fanout,
            shape: PredShape::Range,
            self_sufficient: false,
        }],
    );
    let dynamic = DynamicOptimizer::default();

    // :A1 = 0 — everything qualifies. Indexed retrieval is catastrophic
    // here (random fetch per record); Tscan is right.
    f.table.pool().clear();
    let dyn_all = dynamic.run(&age_request(&f, 0)).unwrap();
    f.table.pool().clear();
    let stat_all = static_opt.execute(plan, &age_request(&f, 0)).unwrap();
    assert_eq!(dyn_all.deliveries.len(), 8000);
    assert_eq!(stat_all.deliveries.len(), 8000);

    // :A1 = 99 — ~1% qualifies. Tscan is catastrophic; the index is right.
    f.table.pool().clear();
    let dyn_few = dynamic.run(&age_request(&f, 99)).unwrap();
    f.table.pool().clear();
    let stat_few = static_opt.execute(plan, &age_request(&f, 99)).unwrap();
    assert_eq!(dyn_few.deliveries.len(), stat_few.deliveries.len());

    // Whatever the static optimizer committed to, it loses badly at one
    // end; the dynamic optimizer must be within a bounded factor of the
    // better choice at BOTH ends.
    match plan {
        StaticPlan::Fscan { .. } => {
            assert!(
                stat_all.cost > 2.0 * dyn_all.cost,
                "static index plan must blow up at :A1=0 ({} vs {})",
                stat_all.cost,
                dyn_all.cost
            );
        }
        StaticPlan::Tscan => {
            assert!(
                stat_few.cost > 2.0 * dyn_few.cost,
                "static Tscan plan must blow up at :A1=99 ({} vs {})",
                stat_few.cost,
                dyn_few.cost
            );
        }
        StaticPlan::Sscan { .. } => panic!("no self-sufficient index offered"),
    }
    // Dynamic never does much worse than the best single plan either side.
    assert!(dyn_all.cost <= 2.0 * stat_all.cost.min(dyn_all.cost) + 1.0);
    assert!(dyn_few.cost <= 2.0 * stat_few.cost.min(dyn_few.cost) + 1.0);
}

#[test]
fn static_jscan_cannot_abandon_misestimated_scans() {
    // Two indexes pass the static threshold, but one range turns out to be
    // an order of magnitude larger than estimated selectivity suggests at
    // the leaf level the static plan saw. The static Jscan scans it fully;
    // the dynamic Jscan abandons it mid-scan.
    let cost = shared_meter(CostConfig::default());
    let pool = shared_pool(100_000, cost.clone());
    let schema = Schema::new(vec![
        Column::new("a", ValueType::Int),
        Column::new("b", ValueType::Int),
    ]);
    let mut table = HeapTable::with_page_bytes("t", FileId(0), schema, pool.clone(), 1024);
    let mut ia = BTree::new("idx_a", FileId(1), pool.clone(), vec![0], 64);
    let mut ib = BTree::new("idx_b", FileId(2), pool, vec![1], 64);
    let n = 20_000i64;
    for i in 0..n {
        // a == 1 holds for 20% of records; b == 1 for 0.1%.
        let a = if i % 5 == 0 { 1 } else { i % 1000 + 10 };
        let b = i % 1000;
        let rid = table
            .insert(Record::new(vec![Value::Int(a), Value::Int(b)]))
            .unwrap();
        ia.insert(vec![Value::Int(a)], rid);
        ib.insert(vec![Value::Int(b)], rid);
    }
    let residual: RecordPred =
        Arc::new(|r: &Record| r[0] == Value::Int(1) && r[1] == Value::Int(1));
    let request = RetrievalRequest {
        table: &table,
        cost: table.pool().cost().clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&ib, KeyRange::eq(1)),
            IndexChoice::fetch_needed(&ia, KeyRange::eq(1)),
        ],
        arms: Vec::new(),
        residual,
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    };

    // Static multi-index plan: both indexes below 25% threshold → both
    // scanned fully (idx_a's 4000-entry scan is never abandoned).
    table.pool().clear();
    let static_jscan = StaticJscan;
    let est = estimate_all(&request);
    let stat = static_jscan.run(&request, &est).unwrap();

    table.pool().clear();
    let dynamic = DynamicOptimizer::default();
    let dyn_run = dynamic.run(&request).unwrap();

    let want: Vec<_> = stat.rids();
    let mut got: Vec<_> = dyn_run.rids();
    let mut want = want;
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, want, "both must deliver the same records");
    assert!(
        dyn_run.cost < stat.cost,
        "dynamic Jscan must beat the static one by abandoning the big scan: {} vs {}",
        dyn_run.cost,
        stat.cost
    );
}

#[test]
fn static_selectivity_guesses() {
    let opt = StaticOptimizer::default();
    let info = StaticIndexInfo {
        entries: 1000,
        distinct_keys: 50,
        avg_fanout: 32.0,
        shape: PredShape::Eq,
        self_sufficient: false,
    };
    assert!((opt.guess_selectivity(&info) - 0.02).abs() < 1e-12);
    let range = StaticIndexInfo {
        shape: PredShape::Range,
        ..info
    };
    assert!((opt.guess_selectivity(&range) - 1.0 / 3.0).abs() < 1e-12);
    let none = StaticIndexInfo {
        shape: PredShape::None,
        ..info
    };
    assert_eq!(opt.guess_selectivity(&none), 1.0);
}

#[test]
fn static_plan_prefers_selective_equality_index() {
    let f = families(4000, 1000);
    let stats_b = f.idx_b.stats();
    let plan = StaticOptimizer::default().plan(
        &f.table,
        &[StaticIndexInfo {
            entries: stats_b.entries,
            distinct_keys: stats_b.distinct_keys,
            avg_fanout: stats_b.avg_fanout,
            shape: PredShape::Eq,
            self_sufficient: false,
        }],
    );
    assert_eq!(plan, StaticPlan::Fscan { pos: 0 }, "1/1000 selectivity wins");
}

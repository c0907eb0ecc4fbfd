//! Property-based tests: under arbitrary table shapes, restrictions,
//! goals, and limits, every tactic the dynamic optimizer picks must
//! deliver exactly the rows a brute-force scan selects — no duplicates,
//! no misses — and shortcuts must never change results.

use std::sync::Arc;

use proptest::prelude::*;

use rdb_btree::{BTree, KeyBound, KeyRange};
use rdb_core::{
    DynamicConfig, DynamicOptimizer, IndexChoice, JscanConfig, OptimizeGoal, RecordPred,
    RetrievalRequest,
};
use rdb_storage::{
    shared_meter, shared_pool, Column, CostConfig, FileId, HeapTable, Record, Schema, Value,
    ValueType,
};

struct World {
    table: HeapTable,
    idx_a: BTree,
    idx_b: BTree,
    ma: i64,
    mb: i64,
    n: i64,
}

fn build_world(n: i64, ma: i64, mb: i64, fanout: usize) -> World {
    let pool = shared_pool(100_000, shared_meter(CostConfig::default()));
    let schema = Schema::new(vec![
        Column::new("a", ValueType::Int),
        Column::new("b", ValueType::Int),
        Column::new("id", ValueType::Int),
    ]);
    let mut table = HeapTable::with_page_bytes("t", FileId(0), schema, pool.clone(), 512);
    let mut idx_a = BTree::new("idx_a", FileId(1), pool.clone(), vec![0], fanout);
    let mut idx_b = BTree::new("idx_b", FileId(2), pool, vec![1], fanout);
    for i in 0..n {
        let (a, b) = (i % ma, (i * 7) % mb);
        let rid = table
            .insert(Record::new(vec![Value::Int(a), Value::Int(b), Value::Int(i)]))
            .unwrap();
        idx_a.insert(vec![Value::Int(a)], rid);
        idx_b.insert(vec![Value::Int(b)], rid);
    }
    World {
        table,
        idx_a,
        idx_b,
        ma,
        mb,
        n,
    }
}

fn closed_range(lo: i64, hi: i64) -> KeyRange {
    KeyRange {
        lo: KeyBound::Inclusive(vec![Value::Int(lo)]),
        hi: KeyBound::Inclusive(vec![Value::Int(hi)]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two AND-connected range restrictions, any goal, any tier config:
    /// the delivered id set equals the model.
    #[test]
    fn dynamic_matches_model_under_random_shapes(
        n in 200i64..2000,
        ma in 2i64..60,
        mb in 2i64..60,
        fanout in 4usize..32,
        a_lo in 0i64..60,
        a_len in 0i64..60,
        b_lo in 0i64..60,
        b_len in 0i64..60,
        fast_first in any::<bool>(),
        tiny_shortcut in 0usize..40,
    ) {
        let w = build_world(n, ma, mb, fanout);
        let (a_hi, b_hi) = (a_lo + a_len, b_lo + b_len);
        let residual: RecordPred = Arc::new(move |r: &Record| {
            let a = r[0].as_i64().unwrap();
            let b = r[1].as_i64().unwrap();
            (a_lo..=a_hi).contains(&a) && (b_lo..=b_hi).contains(&b)
        });
        let request = RetrievalRequest {
            table: &w.table,
            indexes: vec![
                IndexChoice::fetch_needed(&w.idx_a, closed_range(a_lo, a_hi)),
                IndexChoice::fetch_needed(&w.idx_b, closed_range(b_lo, b_hi)),
            ],
            arms: Vec::new(),
            residual,
            goal: if fast_first { OptimizeGoal::FastFirst } else { OptimizeGoal::TotalTime },
            order_required: false,
            limit: None,
            cost: w.table.pool().cost().clone(),
        };
        let optimizer = DynamicOptimizer::new(DynamicConfig {
            jscan: JscanConfig {
                tiny_list_shortcut: tiny_shortcut,
                ..JscanConfig::default()
            },
            ..DynamicConfig::default()
        });
        let result = optimizer.run(&request).unwrap();
        let mut got: Vec<i64> = result
            .deliveries
            .iter()
            .map(|d| w.table.fetch(d.rid, w.table.pool().cost()).unwrap()[2].as_i64().unwrap())
            .collect();
        got.sort_unstable();
        let expect: Vec<i64> = (0..w.n)
            .filter(|&i| {
                let a = i % w.ma;
                let b = (i * 7) % w.mb;
                (a_lo..=a_hi).contains(&a) && (b_lo..=b_hi).contains(&b)
            })
            .collect();
        prop_assert_eq!(got, expect, "strategy {}", result.strategy);
    }

    /// Limits: the optimizer delivers exactly min(limit, truth) rows, all
    /// of them valid, and never charges more than the unlimited run.
    #[test]
    fn limits_respected_with_valid_rows(
        n in 200i64..1500,
        ma in 2i64..40,
        a_eq in 0i64..40,
        limit in 1usize..30,
    ) {
        let w = build_world(n, ma, 10, 8);
        let residual: RecordPred = Arc::new(move |r: &Record| r[0] == Value::Int(a_eq));
        let make_request = |lim: Option<usize>| RetrievalRequest {
            table: &w.table,
            indexes: vec![IndexChoice::fetch_needed(&w.idx_a, KeyRange::eq(a_eq))],
            arms: Vec::new(),
            residual: residual.clone(),
            goal: OptimizeGoal::FastFirst,
            order_required: false,
            limit: lim,
            cost: w.table.pool().cost().clone(),
        };
        let optimizer = DynamicOptimizer::default();
        w.table.pool().clear();
        let limited = optimizer.run(&make_request(Some(limit))).unwrap();
        w.table.pool().clear();
        let unlimited = optimizer.run(&make_request(None)).unwrap();
        let truth = (0..w.n).filter(|&i| i % w.ma == a_eq).count();
        prop_assert_eq!(limited.deliveries.len(), truth.min(limit));
        prop_assert_eq!(unlimited.deliveries.len(), truth);
        for d in &limited.deliveries {
            let rec = w.table.fetch(d.rid, w.table.pool().cost()).unwrap();
            prop_assert_eq!(rec[0].as_i64().unwrap(), a_eq);
        }
        prop_assert!(limited.cost <= unlimited.cost + 1.0);
    }

    /// Deliveries are always unique RIDs, whatever happens inside.
    #[test]
    fn no_duplicate_deliveries_ever(
        n in 100i64..800,
        ma in 2i64..20,
        mb in 2i64..20,
        a_eq in 0i64..20,
        b_eq in 0i64..20,
        fast_first in any::<bool>(),
    ) {
        let w = build_world(n, ma, mb, 8);
        let residual: RecordPred = Arc::new(move |r: &Record| {
            r[0] == Value::Int(a_eq) && r[1] == Value::Int(b_eq)
        });
        let request = RetrievalRequest {
            table: &w.table,
            indexes: vec![
                IndexChoice::fetch_needed(&w.idx_a, KeyRange::eq(a_eq)),
                IndexChoice::fetch_needed(&w.idx_b, KeyRange::eq(b_eq)),
            ],
            arms: Vec::new(),
            residual,
            goal: if fast_first { OptimizeGoal::FastFirst } else { OptimizeGoal::TotalTime },
            order_required: false,
            limit: None,
            cost: w.table.pool().cost().clone(),
        };
        let result = DynamicOptimizer::default().run(&request).unwrap();
        let mut rids = result.rids();
        let before = rids.len();
        rids.sort_unstable();
        rids.dedup();
        prop_assert_eq!(rids.len(), before, "duplicate deliveries ({})", result.strategy);
    }
}

//! The paper runs a retrieval's foreground and background stages in
//! parallel; this crate interleaves them in proportional quanta on the
//! session's thread. The rows of that race must not depend on how its
//! quanta interleave: with the background's quantum anywhere from one
//! index entry to a whole index's worth, every competitive tactic delivers
//! the rows of the default cooperative schedule (the sorted one in the
//! same order). Whatever the background spends is billed to the session
//! meter, under the `jscan` phase.

use std::sync::Arc;

use rdb_btree::{BTree, KeyRange};
use rdb_core::{
    DynamicConfig, DynamicOptimizer, IndexChoice, JscanConfig, KeyPred, OptimizeGoal, RecordPred,
    RetrievalRequest, TacticChoice, TraceBuffer, TraceEvent, Tracer,
};
use rdb_storage::{
    shared_meter, shared_pool, Column, CostConfig, FileId, HeapTable, Record, Rid, Schema,
    SharedCost, Value, ValueType,
};

struct Fixture {
    table: HeapTable,
    idx_a: BTree,
    idx_b: BTree,
    cost: SharedCost,
}

fn fixture(n: i64, ma: i64, mb: i64) -> Fixture {
    let cost = shared_meter(CostConfig::default());
    let pool = shared_pool(100_000, cost.clone());
    let schema = Schema::new(vec![
        Column::new("a", ValueType::Int),
        Column::new("b", ValueType::Int),
        Column::new("c", ValueType::Int),
    ]);
    let mut table = HeapTable::with_page_bytes("t", FileId(0), schema, pool.clone(), 1024);
    let mut idx_a = BTree::new("idx_a", FileId(1), pool.clone(), vec![0], 64);
    let mut idx_b = BTree::new("idx_b", FileId(2), pool, vec![1], 64);
    for i in 0..n {
        let (a, b) = (i % ma, i % mb);
        let rid = table
            .insert(Record::new(vec![Value::Int(a), Value::Int(b), Value::Int(i)]))
            .unwrap();
        idx_a.insert(vec![Value::Int(a)], rid);
        idx_b.insert(vec![Value::Int(b)], rid);
    }
    Fixture {
        table,
        idx_a,
        idx_b,
        cost,
    }
}

fn sorted_rids(mut rids: Vec<Rid>) -> Vec<Rid> {
    rids.sort_unstable();
    rids
}

/// Optimizers whose background advances `batch` index entries a quantum,
/// from one entry to more than any fixture index holds for one key.
fn interleavings() -> Vec<(usize, DynamicOptimizer)> {
    [1, 4, 64, 100_000]
        .into_iter()
        .map(|batch| {
            let config = DynamicConfig {
                jscan: JscanConfig {
                    batch,
                    ..JscanConfig::default()
                },
                ..DynamicConfig::default()
            };
            (batch, DynamicOptimizer::new(config))
        })
        .collect()
}

fn fast_first_request(f: &Fixture, va: i64, vb: i64) -> RetrievalRequest<'_> {
    let residual: RecordPred =
        Arc::new(move |r: &Record| r[0] == Value::Int(va) && r[1] == Value::Int(vb));
    RetrievalRequest {
        table: &f.table,
        cost: f.cost.clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(va)),
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::eq(vb)),
        ],
        arms: Vec::new(),
        residual,
        goal: OptimizeGoal::FastFirst,
        order_required: false,
        limit: None,
    }
}

/// Sorted: `a == va and c even`, ordered by the non-unique b, with idx_a's
/// restriction in the background.
fn sorted_request(f: &Fixture, va: i64) -> RetrievalRequest<'_> {
    let residual: RecordPred =
        Arc::new(move |r: &Record| r[0] == Value::Int(va) && r[2].as_i64().unwrap() % 2 == 0);
    RetrievalRequest {
        table: &f.table,
        cost: f.cost.clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::all()).with_order(),
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(va)),
        ],
        arms: Vec::new(),
        residual,
        goal: OptimizeGoal::TotalTime,
        order_required: true,
        limit: None,
    }
}

fn index_only_request(f: &Fixture, va: i64) -> RetrievalRequest<'_> {
    let residual: RecordPred = Arc::new(move |r: &Record| r[0] == Value::Int(va));
    let key_pred: KeyPred = Arc::new(move |k: &[Value]| k[0] == Value::Int(va));
    RetrievalRequest {
        table: &f.table,
        cost: f.cost.clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(va)).with_self_sufficient(key_pred),
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::all()),
        ],
        arms: Vec::new(),
        residual,
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    }
}

#[test]
fn parallel_fast_first_matches_cooperative_rows() {
    let f = fixture(4000, 40, 25);
    let cooperative = DynamicOptimizer::default();
    // (3, 7) share no row: the race must end empty however it interleaves.
    for (va, vb) in [(1, 1), (3, 7), (0, 0), (39, 24)] {
        let request = fast_first_request(&f, va, vb);
        assert_eq!(cooperative.choose(&request).0, TacticChoice::FastFirst);
        f.table.pool().clear();
        let want = sorted_rids(cooperative.run(&request).unwrap().rids());
        for (batch, optimizer) in interleavings() {
            f.table.pool().clear();
            let got = optimizer.run(&request).unwrap();
            assert_eq!(
                sorted_rids(got.rids()),
                want,
                "a={va} b={vb} batch={batch}: {}",
                got.strategy
            );
        }
    }
}

#[test]
fn parallel_sorted_matches_cooperative_rows_and_order() {
    let f = fixture(3000, 30, 20);
    let cooperative = DynamicOptimizer::default();
    let mut delivered = 0;
    // An odd `a` means an odd `c`: 5 and 29 select no row at all.
    for va in [0, 5, 12, 29] {
        let request = sorted_request(&f, va);
        assert_eq!(cooperative.choose(&request).0, TacticChoice::Sorted);
        f.table.pool().clear();
        let want = cooperative.run(&request).unwrap().rids();
        delivered += want.len();
        for (batch, optimizer) in interleavings() {
            f.table.pool().clear();
            let got = optimizer.run(&request).unwrap();
            // The ordered foreground owns delivery: the sequence, not just
            // the set, is the cooperative one whenever the filter arrives.
            assert_eq!(got.rids(), want, "a={va} batch={batch}: {}", got.strategy);
        }
    }
    assert_eq!(delivered, 2 * 3000 / 30, "a = 0 and a = 12 select 100 rows each");
}

#[test]
fn parallel_index_only_matches_cooperative_rows() {
    let f = fixture(3000, 25, 15);
    let cooperative = DynamicOptimizer::default();
    for va in [0, 7, 24] {
        let request = index_only_request(&f, va);
        assert_eq!(cooperative.choose(&request).0, TacticChoice::IndexOnly);
        f.table.pool().clear();
        let want = sorted_rids(cooperative.run(&request).unwrap().rids());
        assert!(!want.is_empty(), "a={va}: the binding selects rows");
        for (batch, optimizer) in interleavings() {
            f.table.pool().clear();
            let got = optimizer.run(&request).unwrap();
            assert_eq!(
                sorted_rids(got.rids()),
                want,
                "a={va} batch={batch}: {}",
                got.strategy
            );
        }
    }
}

#[test]
fn background_work_is_billed_to_the_session_meter() {
    let f = fixture(4000, 40, 25);
    for (batch, optimizer) in interleavings() {
        f.table.pool().clear();
        let before = f.cost.total();
        let result = optimizer.run(&fast_first_request(&f, 3, 7)).unwrap();
        let billed = f.cost.total() - before;
        assert!(
            billed > 0.0,
            "batch={batch}: the session meter must be charged for the race"
        );
        assert!(
            (result.cost - billed).abs() <= 1e-9 * billed,
            "batch={batch}: result cost {} must equal the session-meter delta {billed}",
            result.cost
        );
    }
}

fn phase_costs(events: Vec<TraceEvent>) -> Vec<(String, f64)> {
    events
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::PhaseCost { phase, cost } => Some((phase, cost)),
            _ => None,
        })
        .collect()
}

#[test]
fn background_bill_is_booked_to_the_jscan_phase() {
    let f = fixture(4000, 40, 25);
    let cases = [
        ("fast-first", fast_first_request(&f, 3, 7)),
        ("sorted", sorted_request(&f, 3)),
    ];
    for (tactic, request) in cases {
        let buffer = TraceBuffer::shared(4096);
        f.table.pool().clear();
        let result = DynamicOptimizer::default()
            .run_traced(&request, None, &Tracer::new(buffer.clone()))
            .unwrap();
        let phases = phase_costs(buffer.events());
        let cost_of = |name: &str| -> f64 {
            phases
                .iter()
                .filter(|(phase, _)| phase == name)
                .map(|(_, cost)| cost)
                .sum()
        };
        let noise = 1e-9 * result.cost.max(1.0);
        assert!(
            cost_of("jscan") > 0.0,
            "{tactic}: the background's bill belongs to the jscan phase: {phases:?}"
        );
        assert!(
            cost_of("other") <= noise,
            "{tactic}: nothing may be left over for `other`: {phases:?}"
        );
        let sum: f64 = phases.iter().map(|(_, cost)| cost).sum();
        assert!(
            (sum - result.cost).abs() <= noise,
            "{tactic}: phases {phases:?} must tile the run's cost {}",
            result.cost
        );
    }
}

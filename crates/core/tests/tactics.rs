//! Integration tests: every tactic must deliver exactly the records the
//! restriction selects, and the dynamic decisions must go the way the
//! paper claims.

use std::sync::Arc;

use rdb_btree::{BTree, KeyRange};
use rdb_core::{
    DynamicOptimizer, IndexChoice, KeyPred, OptimizeGoal, RecordPred, RetrievalRequest,
    TacticChoice, TraceBuffer, TraceEvent, Tracer,
};
use rdb_storage::{
    shared_meter, shared_pool, Column, CostConfig, FaultPolicy, FileId, HeapTable, Record, Rid,
    Schema, SharedCost, StorageError, Value, ValueType,
};

/// Test fixture: table(a, b, c) with a = i % ma, b = i % mb, c = i (unique),
/// indexes on a, b, c.
struct Fixture {
    table: HeapTable,
    idx_a: BTree,
    idx_b: BTree,
    idx_c: BTree,
    cost: SharedCost,
    n: i64,
    ma: i64,
    mb: i64,
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
    let mut idx_b = BTree::new("idx_b", FileId(2), pool.clone(), vec![1], 64);
    let mut idx_c = BTree::new("idx_c", FileId(3), pool, vec![2], 64);
    for i in 0..n {
        let (a, b) = (i % ma, i % mb);
        let rid = table
            .insert(Record::new(vec![Value::Int(a), Value::Int(b), Value::Int(i)]))
            .unwrap();
        idx_a.insert(vec![Value::Int(a)], rid);
        idx_b.insert(vec![Value::Int(b)], rid);
        idx_c.insert(vec![Value::Int(i)], rid);
    }
    Fixture {
        table,
        idx_a,
        idx_b,
        idx_c,
        cost,
        n,
        ma,
        mb,
    }
}

impl Fixture {
    /// Ground truth via direct enumeration (no cost charged).
    fn truth(&self, pred: impl Fn(i64, i64, i64) -> bool) -> Vec<i64> {
        (0..self.n)
            .filter(|&i| pred(i % self.ma, i % self.mb, i))
            .collect()
    }

    fn residual_ab(&self, va: i64, vb: i64) -> RecordPred {
        Arc::new(move |r: &Record| {
            r[0] == Value::Int(va) && r[1] == Value::Int(vb)
        })
    }
}

fn delivered_c_values(table: &HeapTable, rids: &[Rid]) -> Vec<i64> {
    let mut out: Vec<i64> = rids
        .iter()
        .map(|&rid| table.fetch(rid, table.pool().cost()).unwrap()[2].as_i64().unwrap())
        .collect();
    out.sort_unstable();
    out
}

/// Fast-first: `a == va and b == vb` over both fetch-needed indexes.
fn fast_first_request(f: &Fixture, va: i64, vb: i64) -> RetrievalRequest<'_> {
    RetrievalRequest {
        table: &f.table,
        cost: f.cost.clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(va)),
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::eq(vb)),
        ],
        arms: Vec::new(),
        residual: f.residual_ab(va, vb),
        goal: OptimizeGoal::FastFirst,
        order_required: false,
        limit: None,
    }
}

/// Sorted: `a == va and c even`, ordered by b, with idx_a in the background.
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

/// Index-only: `a == va` answered by idx_a alone; idx_b's whole range
/// gives the background Jscan work to do.
fn index_only_request(f: &Fixture, va: i64) -> RetrievalRequest<'_> {
    let key_pred: KeyPred = Arc::new(move |k: &[Value]| k[0] == Value::Int(va));
    RetrievalRequest {
        table: &f.table,
        cost: f.cost.clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(va)).with_self_sufficient(key_pred),
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::all()),
        ],
        arms: Vec::new(),
        residual: Arc::new(move |r: &Record| r[0] == Value::Int(va)),
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    }
}

#[test]
fn limit_satisfied_by_fast_first_foreground() {
    let f = fixture(4000, 10, 10);
    let req = RetrievalRequest {
        table: &f.table,
        cost: f.cost.clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(1)),
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::all()),
        ],
        arms: Vec::new(),
        residual: Arc::new(|r: &Record| r[0] == Value::Int(1)),
        goal: OptimizeGoal::FastFirst,
        limit: Some(5),
        order_required: false,
    };
    let buffer = TraceBuffer::shared(4096);
    let result = DynamicOptimizer::default()
        .run_traced(&req, None, &Tracer::new(buffer.clone()))
        .unwrap();
    assert_eq!(result.deliveries.len(), 5, "limit must cap deliveries");
    for d in &result.deliveries {
        let rec = d.record.as_ref().expect("fast-first fetches records");
        assert_eq!(rec[0], Value::Int(1));
    }
    let winner = buffer.events().into_iter().find_map(|e| match e {
        TraceEvent::Winner { strategy, .. } => Some(strategy),
        _ => None,
    });
    assert_eq!(winner.as_deref(), Some("fast-first (foreground satisfied)"));
}

#[test]
fn a_foreground_fault_surfaces_under_every_competitive_tactic() {
    let f = fixture(4000, 40, 25);
    let pool = f.table.pool().clone();
    let (heap, idx_a) = (FileId(0), FileId(1));
    // (tactic, request, the file its foreground reads that dies).
    let cases = [
        (TacticChoice::Sorted, sorted_request(&f, 5), heap),
        (TacticChoice::IndexOnly, index_only_request(&f, 5), idx_a),
        (TacticChoice::FastFirst, fast_first_request(&f, 5, 7), heap),
    ];
    let opt = DynamicOptimizer::default();
    for (tactic, request, dies) in cases {
        assert_eq!(opt.choose(&request).0, tactic);
        pool.clear();
        pool.set_fault_policy(Some(FaultPolicy::fail_from_nth(0).scoped_to(dies)));
        let outcome = opt.run(&request);
        pool.set_fault_policy(None);
        assert!(
            matches!(outcome, Err(StorageError::InjectedFault { .. })),
            "{tactic:?}: the foreground's fault must surface, got {:?}",
            outcome.map(|r| r.strategy)
        );
    }
}

#[test]
fn background_only_matches_truth() {
    let f = fixture(3000, 50, 30);
    let req = RetrievalRequest {
        table: &f.table,
        cost: f.table.pool().cost().clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(7)),
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::eq(7)),
        ],
        arms: Vec::new(),
        residual: f.residual_ab(7, 7),
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    };
    let opt = DynamicOptimizer::default();
    let (choice, _) = opt.choose(&req);
    assert_eq!(choice, TacticChoice::BackgroundOnly);
    let result = opt.run(&req).unwrap();
    let got = delivered_c_values(&f.table, &result.rids());
    let want = f.truth(|a, b, _| a == 7 && b == 7);
    assert_eq!(got, want, "strategy: {}", result.strategy);
}

#[test]
fn fast_first_matches_truth_and_respects_limit() {
    let f = fixture(3000, 50, 30);
    let opt = DynamicOptimizer::default();
    // Unlimited runs: full truth, no duplicates, however the two ranges
    // overlap ((3, 7) shares no row).
    for (va, vb) in [(7, 7), (1, 1), (3, 7), (0, 0), (49, 29)] {
        let req = fast_first_request(&f, va, vb);
        assert_eq!(opt.choose(&req).0, TacticChoice::FastFirst);
        let result = opt.run(&req).unwrap();
        let got = delivered_c_values(&f.table, &result.rids());
        let want = f.truth(|a, b, _| a == va && b == vb);
        assert_eq!(got, want, "a={va} b={vb}: {}", result.strategy);
    }
    // Limited run: delivers exactly `limit` records at a fraction of the
    // cost.
    let mut req = fast_first_request(&f, 7, 7);
    let full_cost = opt.run(&req).unwrap().cost;
    req.limit = Some(2);
    let limited = opt.run(&req).unwrap();
    assert_eq!(limited.deliveries.len(), 2);
    assert!(
        limited.cost < full_cost,
        "early termination {} must beat full {}",
        limited.cost,
        full_cost
    );
}

#[test]
fn index_only_tactic_matches_truth() {
    let f = fixture(2000, 40, 25);
    let opt = DynamicOptimizer::default();
    for va in [3, 0, 7, 39] {
        let req = index_only_request(&f, va);
        assert_eq!(opt.choose(&req).0, TacticChoice::IndexOnly);
        let result = opt.run(&req).unwrap();
        let got = delivered_c_values(&f.table, &result.rids());
        let want = f.truth(|a, _, _| a == va);
        assert_eq!(got, want, "a={va}: {}", result.strategy);
    }
}

#[test]
fn sorted_tactic_delivers_in_order_and_matches_truth() {
    let f = fixture(2000, 10, 40);
    // Order by c (unique index on c provides it); restriction: b == 5.
    let residual: RecordPred = Arc::new(|r: &Record| r[1] == Value::Int(5));
    let req = RetrievalRequest {
        table: &f.table,
        cost: f.table.pool().cost().clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_c, KeyRange::all()).with_order(),
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::eq(5)),
        ],
        arms: Vec::new(),
        residual,
        goal: OptimizeGoal::FastFirst,
        order_required: true,
        limit: None,
    };
    let opt = DynamicOptimizer::default();
    let (choice, _) = opt.choose(&req);
    assert_eq!(choice, TacticChoice::Sorted);
    let result = opt.run(&req).unwrap();
    // In-order delivery: c values strictly increasing as delivered.
    let cs: Vec<i64> = result
        .deliveries
        .iter()
        .map(|d| d.record.as_ref().unwrap()[2].as_i64().unwrap())
        .collect();
    assert!(cs.windows(2).all(|w| w[0] < w[1]), "must deliver ordered");
    let want = f.truth(|_, b, _| b == 5);
    assert_eq!(cs, want, "strategy: {}", result.strategy);

    // Ordered by a non-unique key, the restriction on the background's
    // index: b never decreases, and the rows are the truth.
    for va in [0, 5, 9] {
        let req = sorted_request(&f, va);
        assert_eq!(opt.choose(&req).0, TacticChoice::Sorted);
        f.table.pool().clear();
        let result = opt.run(&req).unwrap();
        let bs: Vec<i64> = result
            .deliveries
            .iter()
            .map(|d| d.record.as_ref().unwrap()[1].as_i64().unwrap())
            .collect();
        assert!(bs.windows(2).all(|w| w[0] <= w[1]), "a={va}: delivered in b order");
        let want = f.truth(|a, _, c| a == va && c % 2 == 0);
        let got = delivered_c_values(&f.table, &result.rids());
        assert_eq!(got, want, "a={va}: {}", result.strategy);
    }
}

#[test]
fn sorted_tactic_filter_saves_fetches() {
    // With a highly selective background index, the Jscan filter must cut
    // the ordered Fscan's fetch count far below the unfiltered run.
    let f = fixture(4000, 400, 40);
    let residual: RecordPred = Arc::new(|r: &Record| r[0] == Value::Int(3));
    let make_req = |with_bgr: bool| {
        let mut indexes = vec![IndexChoice::fetch_needed(&f.idx_c, KeyRange::all()).with_order()];
        if with_bgr {
            indexes.push(IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(3)));
        }
        RetrievalRequest {
            table: &f.table,
            cost: f.table.pool().cost().clone(),
            indexes,
            arms: Vec::new(),
            residual: residual.clone(),
            goal: OptimizeGoal::FastFirst,
            order_required: true,
            limit: None,
        }
    };
    let opt = DynamicOptimizer::default();
    // Cold cache for each run so the comparison is fair.
    f.table.pool().clear();
    let with_filter = opt.run(&make_req(true)).unwrap();
    f.table.pool().clear();
    let baseline = opt.run(&make_req(false)).unwrap();
    let want = f.truth(|a, _, _| a == 3);
    assert_eq!(
        delivered_c_values(&f.table, &with_filter.rids()),
        want,
        "strategy: {}",
        with_filter.strategy
    );
    assert_eq!(delivered_c_values(&f.table, &baseline.rids()), want);
    assert!(
        with_filter.cost < 0.7 * baseline.cost,
        "filtered {} vs unfiltered {}",
        with_filter.cost,
        baseline.cost
    );
}

#[test]
fn fast_first_observer_sees_first_row_early() {
    // The whole point of the fast-first goal: the first delivery must
    // arrive at a small fraction of the total run cost, and the observer
    // streams it out while the run is still going. Background-only's
    // first row waits for the Jscan over both indexes (a = 7: 240 entries,
    // b = 7: 400), which grows with the table, while fast-first's does
    // not; at 4 000 rows exact estimates price that Jscan close enough to
    // fast-first (10.0 against 14.2 units) that the gap is below 2×.
    use std::cell::Cell;
    let f = fixture(12_000, 50, 30);
    let residual: RecordPred = Arc::new(|r: &Record| {
        r[0] == Value::Int(7) && r[1] == Value::Int(7)
    });
    let make_req = |goal| RetrievalRequest {
        table: &f.table,
        cost: f.table.pool().cost().clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(7)),
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::eq(7)),
        ],
        arms: Vec::new(),
        residual: residual.clone(),
        goal,
        order_required: false,
        limit: None,
    };
    let opt = DynamicOptimizer::default();
    let measure = |goal| -> (f64, f64, usize) {
        f.table.pool().clear();
        let cost = { f.table.pool().cost().clone() };
        let start = cost.total();
        let first_at = Cell::new(f64::NAN);
        let observer: rdb_core::DeliveryObserver<'_> = Box::new(|_d| {
            if first_at.get().is_nan() {
                first_at.set(cost.total() - start);
            }
        });
        let result = opt.run_with_observer(&make_req(goal), Some(observer)).unwrap();
        (first_at.get(), result.cost, result.deliveries.len())
    };
    let (ff_first, ff_total, n1) = measure(OptimizeGoal::FastFirst);
    let (bg_first, bg_total, n2) = measure(OptimizeGoal::TotalTime);
    assert_eq!(n1, n2, "same rows either way");
    assert!(ff_first.is_finite() && bg_first.is_finite());
    assert!(
        ff_first < 0.25 * ff_total,
        "fast-first first row at {ff_first} of {ff_total}"
    );
    assert!(
        ff_first < 0.5 * bg_first,
        "fast-first first row ({ff_first}) must beat background-only ({bg_first})"
    );
    let _ = bg_total;
}

#[test]
fn sorted_tactic_correct_with_bitmap_filter() {
    // Force the background Jscan list into the spilled tier so the filter
    // handed to the ordered Fscan is an approximate bitmap: false
    // positives cause extra fetches, but the residual must keep the
    // result exact.
    use rdb_core::{DynamicConfig, JscanConfig, KillRules, RidTierConfig};
    let f = fixture(4000, 8, 40);
    let residual: RecordPred = Arc::new(|r: &Record| r[0] == Value::Int(3));
    let req = RetrievalRequest {
        table: &f.table,
        cost: f.table.pool().cost().clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_c, KeyRange::all()).with_order(),
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(3)),
        ],
        arms: Vec::new(),
        residual,
        goal: OptimizeGoal::FastFirst,
        order_required: true,
        limit: None,
    };
    let opt = DynamicOptimizer::new(DynamicConfig {
        jscan: JscanConfig {
            tiers: RidTierConfig {
                inline_max: 8,
                buffer_max: 16, // 500 background RIDs must spill
                bitmap_bits: 1 << 10,
            },
            tiny_list_shortcut: 0,
            ..JscanConfig::default()
        },
        // Keep the background alive.
        rules: KillRules {
            switch_threshold: 100.0,
            spend_limit: 1e9,
        },
        ..DynamicConfig::default()
    });
    let result = opt.run(&req).unwrap();
    let want = f.truth(|a, _, _| a == 3);
    let cs: Vec<i64> = result
        .deliveries
        .iter()
        .map(|d| d.record.as_ref().unwrap()[2].as_i64().unwrap())
        .collect();
    assert_eq!(cs, want, "bitmap false positives must not alter results");
}

#[test]
fn empty_range_ends_instantly() {
    let f = fixture(2000, 10, 10);
    let req = RetrievalRequest {
        table: &f.table,
        cost: f.table.pool().cost().clone(),
        indexes: vec![IndexChoice::fetch_needed(&f.idx_c, KeyRange::closed(90_000, 99_000))],
        arms: Vec::new(),
        residual: Arc::new(|_: &Record| false),
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    };
    let opt = DynamicOptimizer::default();
    let before = f.cost.total();
    let result = opt.run(&req).unwrap();
    assert_eq!(result.strategy, "EndOfData");
    assert!(result.deliveries.is_empty());
    let spent = f.cost.total() - before;
    assert!(
        spent < 0.1 * rdb_core::Tscan::full_cost(&f.table),
        "empty detection must cost a descent, not a scan ({spent})"
    );
}

#[test]
fn tiny_range_shortcut_fetches_directly() {
    let f = fixture(5000, 10, 10);
    let residual: RecordPred = Arc::new(|r: &Record| {
        let c = r[2].as_i64().unwrap();
        (100..=102).contains(&c)
    });
    let req = RetrievalRequest {
        table: &f.table,
        cost: f.table.pool().cost().clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_c, KeyRange::closed(100, 102)),
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::closed(0, 9)),
        ],
        arms: Vec::new(),
        residual,
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    };
    let opt = DynamicOptimizer::default();
    let result = opt.run(&req).unwrap();
    assert_eq!(result.strategy, "TinyRangeFetch");
    assert_eq!(delivered_c_values(&f.table, &result.rids()), vec![100, 101, 102]);
    assert!(
        result.cost < 0.05 * rdb_core::Tscan::full_cost(&f.table),
        "OLTP shortcut must be near-free (cost {})",
        result.cost
    );
}

#[test]
fn no_indexes_means_tscan() {
    let f = fixture(500, 10, 10);
    let req = RetrievalRequest::table_only(
        &f.table,
        Arc::new(|r: &Record| r[0] == Value::Int(1)),
        OptimizeGoal::TotalTime,
    );
    let opt = DynamicOptimizer::default();
    let (choice, _) = opt.choose(&req);
    assert_eq!(choice, TacticChoice::TscanOnly);
    let result = opt.run(&req).unwrap();
    let want = f.truth(|a, _, _| a == 1);
    assert_eq!(delivered_c_values(&f.table, &result.rids()), want);
}

#[test]
fn unselective_index_degrades_to_tscan_not_catastrophe() {
    // The whole-table range: dynamic Jscan must notice and fall back to
    // Tscan at bounded extra cost.
    let f = fixture(3000, 10, 10);
    let req = RetrievalRequest {
        table: &f.table,
        cost: f.table.pool().cost().clone(),
        indexes: vec![IndexChoice::fetch_needed(&f.idx_a, KeyRange::closed(0, 9))],
        arms: Vec::new(),
        residual: Arc::new(|r: &Record| r[2].as_i64().unwrap() % 2 == 0),
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    };
    let opt = DynamicOptimizer::default();
    let result = opt.run(&req).unwrap();
    let want = f.truth(|_, _, c| c % 2 == 0);
    assert_eq!(delivered_c_values(&f.table, &result.rids()), want);
    let tscan_cost = rdb_core::Tscan::full_cost(&f.table);
    assert!(
        result.cost < 2.0 * tscan_cost,
        "abandoned-competition overhead must stay bounded: {} vs tscan {}",
        result.cost,
        tscan_cost
    );
}

#[test]
fn dynamic_choice_tracks_host_variable() {
    // The paper's `AGE >= :A1` example on a FAMILIES-like table.
    let f = fixture(5000, 10, 10);
    let opt = DynamicOptimizer::default();
    // :A1 = 0 → everything qualifies → Jscan discards the index, Tscan runs.
    let req_all = RetrievalRequest {
        table: &f.table,
        cost: f.table.pool().cost().clone(),
        indexes: vec![IndexChoice::fetch_needed(&f.idx_c, KeyRange::at_least(0))],
        arms: Vec::new(),
        residual: Arc::new(|_: &Record| true),
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    };
    let all = opt.run(&req_all).unwrap();
    assert_eq!(all.deliveries.len(), 5000);
    // :A1 = 4997 → three records → near-free indexed path.
    let req_few = RetrievalRequest {
        table: &f.table,
        cost: f.table.pool().cost().clone(),
        indexes: vec![IndexChoice::fetch_needed(&f.idx_c, KeyRange::at_least(4997))],
        arms: Vec::new(),
        residual: Arc::new(|r: &Record| r[2].as_i64().unwrap() >= 4997),
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    };
    let few = opt.run(&req_few).unwrap();
    assert_eq!(few.deliveries.len(), 3);
    assert!(
        few.cost < 0.05 * all.cost,
        "selective binding {} must be far cheaper than full binding {}",
        few.cost,
        all.cost
    );
}

#[test]
fn sscan_static_when_single_self_sufficient_index() {
    // The range must be big enough not to trip the tiny-range shortcut
    // (which would — correctly — preempt the static Sscan decision).
    let f = fixture(1000, 10, 10);
    let key_pred: KeyPred = Arc::new(|k: &[Value]| k[0].as_i64().unwrap() >= 500);
    let req = RetrievalRequest {
        table: &f.table,
        cost: f.table.pool().cost().clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_c, KeyRange::at_least(500))
                .with_self_sufficient(key_pred),
        ],
        arms: Vec::new(),
        residual: Arc::new(|r: &Record| r[2].as_i64().unwrap() >= 500),
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    };
    let opt = DynamicOptimizer::default();
    let (choice, _) = opt.choose(&req);
    assert_eq!(choice, TacticChoice::SscanStatic);
    let result = opt.run(&req).unwrap();
    assert_eq!(result.deliveries.len(), 500);
    assert!(
        result.deliveries.iter().all(|d| d.from_index),
        "sscan delivers from index keys without fetching records"
    );
}

/// Table-driven check of goal derivation: the plan context above each
/// retrieval decides whether the optimizer races for the first row
/// (`EXISTS`, `LIMIT`) or for total time (`SORT`, aggregates, `DISTINCT`),
/// with cursors resetting to the user's default.
#[test]
fn goal_derivation_follows_plan_context() {
    use rdb_query::plan::{derive_goals, PlanNode};

    fn retrieve() -> PlanNode {
        PlanNode::retrieve(0, "T")
    }

    let cases: Vec<(&str, PlanNode, OptimizeGoal, OptimizeGoal)> = vec![
        (
            "bare retrieval inherits the default",
            retrieve(),
            OptimizeGoal::TotalTime,
            OptimizeGoal::TotalTime,
        ),
        (
            "EXISTS wants the first row fast",
            PlanNode::Exists {
                child: Box::new(retrieve()),
            },
            OptimizeGoal::TotalTime,
            OptimizeGoal::FastFirst,
        ),
        (
            "LIMIT wants the first rows fast",
            PlanNode::Limit {
                n: 3,
                child: Box::new(retrieve()),
            },
            OptimizeGoal::TotalTime,
            OptimizeGoal::FastFirst,
        ),
        (
            "SORT consumes everything before emitting",
            PlanNode::Sort {
                child: Box::new(retrieve()),
            },
            OptimizeGoal::FastFirst,
            OptimizeGoal::TotalTime,
        ),
        (
            "DISTINCT sorts, so total time",
            PlanNode::Distinct {
                child: Box::new(retrieve()),
            },
            OptimizeGoal::FastFirst,
            OptimizeGoal::TotalTime,
        ),
        (
            "aggregates consume everything",
            PlanNode::Aggregate {
                child: Box::new(retrieve()),
            },
            OptimizeGoal::FastFirst,
            OptimizeGoal::TotalTime,
        ),
        (
            "LIMIT over SORT: the sort still gates delivery",
            PlanNode::Limit {
                n: 1,
                child: Box::new(PlanNode::Sort {
                    child: Box::new(retrieve()),
                }),
            },
            OptimizeGoal::TotalTime,
            OptimizeGoal::TotalTime,
        ),
        (
            "SORT over LIMIT: the limit is the nearest controller",
            PlanNode::Sort {
                child: Box::new(PlanNode::Limit {
                    n: 1,
                    child: Box::new(retrieve()),
                }),
            },
            OptimizeGoal::TotalTime,
            OptimizeGoal::FastFirst,
        ),
        (
            "a cursor resets control to the user's default",
            PlanNode::Limit {
                n: 1,
                child: Box::new(PlanNode::Cursor {
                    child: Box::new(retrieve()),
                }),
            },
            OptimizeGoal::TotalTime,
            OptimizeGoal::TotalTime,
        ),
    ];
    for (what, plan, default_goal, want) in cases {
        let goals = derive_goals(&plan, default_goal);
        assert_eq!(goals[&0], want, "{what}");
    }

    // Subqueries restart from the default goal; the EXISTS around the
    // inner retrieval still applies inside the subplan.
    let plan = PlanNode::Sort {
        child: Box::new(retrieve().with_subquery(PlanNode::Exists {
            child: Box::new(PlanNode::retrieve(1, "S")),
        })),
    };
    let goals = derive_goals(&plan, OptimizeGoal::TotalTime);
    assert_eq!(goals[&0], OptimizeGoal::TotalTime, "outer under SORT");
    assert_eq!(goals[&1], OptimizeGoal::FastFirst, "inner under EXISTS");
}

/// A lookup whose rows fit in one leaf but straddle a second-level node
/// boundary of its index must not be answered by a table scan. The
/// paper's `k·f^(l−1)` priced such a range (split at level 3) at `f²`,
/// some 1 700 entries here, whose fetch projects above 95 % of the Tscan,
/// so the competition discarded the index after its first quantum and the
/// lookup Tscanned; the edge-descent count sees the 40 rows it holds.
#[test]
fn straddling_point_lookup_keeps_its_index() {
    let cost = shared_meter(CostConfig::default());
    let pool = shared_pool(100_000, cost.clone());
    let schema = Schema::new(vec![
        Column::new("city", ValueType::Int),
        Column::new("pad", ValueType::Int),
    ]);
    let mut table = HeapTable::with_page_bytes("t", FileId(0), schema, pool.clone(), 1024);
    let mut idx = BTree::new("idx_city", FileId(1), pool, vec![0], 64);
    let (rows, cities) = (12_000i64, 300i64);
    for i in 0..rows {
        let city = (i * 7919) % cities;
        let rid = table
            .insert(Record::new(vec![Value::Int(city), Value::Int(i)]))
            .unwrap();
        idx.insert(vec![Value::Int(city)], rid);
    }
    // Every city holds 40 rows, within one leaf and above one Jscan quantum
    // (16); find those whose range spans two children of the root, one
    // level above the leaves' parents.
    assert_eq!(idx.height(), 3);
    let straddling: Vec<i64> = (0..cities)
        .filter(|&c| idx.estimate_range(&KeyRange::eq(c), &cost).split_level == 3)
        .collect();
    assert!(!straddling.is_empty(), "the fixture must hold a straddling city");
    let opt = DynamicOptimizer::default();
    for city in straddling {
        let range = KeyRange::eq(city);
        assert!(idx.count_range(range.clone(), &cost) as usize <= idx.max_fanout());
        let req = RetrievalRequest {
            table: &table,
            cost: cost.clone(),
            indexes: vec![IndexChoice::fetch_needed(&idx, range)],
            arms: Vec::new(),
            residual: Arc::new(move |r: &Record| r[0] == Value::Int(city)),
            goal: OptimizeGoal::TotalTime,
            order_required: false,
            limit: None,
        };
        let buffer = TraceBuffer::shared(4096);
        let result = opt
            .run_traced(&req, None, &Tracer::new(buffer.clone()))
            .unwrap();
        assert_eq!(result.deliveries.len(), 40);
        let winner = buffer.events().into_iter().find_map(|e| match e {
            TraceEvent::Winner { strategy, .. } => Some(strategy),
            _ => None,
        });
        let winner = winner.expect("a traced run names its winner");
        assert!(
            !winner.contains("Tscan"),
            "city {city}: a 40-row lookup ran {winner}"
        );
    }
}

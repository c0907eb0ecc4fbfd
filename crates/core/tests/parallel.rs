//! The OS-thread background stage must deliver exactly the same row sets
//! as the cooperative tactics, bill all background work to the session
//! meter (under the `jscan` phase), stamp worker-thread trace events with
//! `Stage::Background`, and stop the worker on every way out of a tactic.

use std::sync::Arc;

use rdb_btree::{BTree, KeyRange};
use rdb_core::{
    DynamicConfig, DynamicOptimizer, IndexChoice, KeyPred, OptimizeGoal, RecordPred,
    RetrievalRequest, Stage, TraceBuffer, TraceEvent, TraceSink, Tracer,
};
use rdb_storage::{
    shared_meter, shared_pool, Column, CostConfig, FaultPolicy, FileId, HeapTable, Record, Rid,
    Schema, SharedCost, SharedPool, StorageError, Value, ValueType,
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

fn fast_first_request<'a>(f: &'a Fixture, va: i64, vb: i64) -> RetrievalRequest<'a> {
    let residual: RecordPred =
        Arc::new(move |r: &Record| r[0] == Value::Int(va) && r[1] == Value::Int(vb));
    RetrievalRequest {
        table: &f.table,
        cost: f.cost.clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(va)),
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::eq(vb)),
        ],
        residual,
        goal: OptimizeGoal::FastFirst,
        order_required: false,
        limit: None,
    }
}

#[test]
fn parallel_fast_first_matches_cooperative_rows() {
    let f = fixture(4000, 40, 25);
    let sequential = DynamicOptimizer::default();
    let parallel = DynamicOptimizer::new(DynamicConfig {
        parallel: true,
        ..DynamicConfig::default()
    });
    for (va, vb) in [(1, 1), (3, 7), (0, 0), (39, 24)] {
        f.table.pool().clear();
        let seq = sequential.run(&fast_first_request(&f, va, vb)).unwrap();
        f.table.pool().clear();
        let par = parallel.run(&fast_first_request(&f, va, vb)).unwrap();
        assert_eq!(
            sorted_rids(seq.rids()),
            sorted_rids(par.rids()),
            "a={va} b={vb}: parallel fast-first must deliver the same rows"
        );
        assert!(
            par.strategy.contains("FastFirst"),
            "tactic choice unchanged: {}",
            par.strategy
        );
    }
}

#[test]
fn parallel_sorted_matches_cooperative_rows_and_order() {
    let f = fixture(3000, 30, 20);
    let make_request = |va: i64| -> RetrievalRequest<'_> {
        let residual: RecordPred =
            Arc::new(move |r: &Record| r[0] == Value::Int(va) && r[2].as_i64().unwrap() % 2 == 0);
        RetrievalRequest {
            table: &f.table,
            cost: f.cost.clone(),
            indexes: vec![
                IndexChoice::fetch_needed(&f.idx_b, KeyRange::all()).with_order(),
                IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(va)),
            ],
            residual,
            goal: OptimizeGoal::TotalTime,
            order_required: true,
            limit: None,
        }
    };
    let sequential = DynamicOptimizer::default();
    let parallel = DynamicOptimizer::new(DynamicConfig {
        parallel: true,
        ..DynamicConfig::default()
    });
    for va in [0, 5, 29] {
        f.table.pool().clear();
        let seq = sequential.run(&make_request(va)).unwrap();
        f.table.pool().clear();
        let par = parallel.run(&make_request(va)).unwrap();
        // The ordered foreground owns delivery: order must match exactly,
        // whatever the background filter timing was.
        assert_eq!(
            sorted_rids(seq.rids()),
            sorted_rids(par.rids()),
            "a={va}: parallel sorted must deliver the same rows"
        );
    }
}

#[test]
fn parallel_index_only_matches_cooperative_rows() {
    let f = fixture(3000, 25, 15);
    let make_request = |va: i64| -> RetrievalRequest<'_> {
        let residual: RecordPred = Arc::new(move |r: &Record| r[0] == Value::Int(va));
        let key_pred: KeyPred = Arc::new(move |k: &[Value]| k[0] == Value::Int(va));
        RetrievalRequest {
            table: &f.table,
            cost: f.cost.clone(),
            indexes: vec![
                IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(va))
                    .with_self_sufficient(key_pred),
                IndexChoice::fetch_needed(&f.idx_b, KeyRange::all()),
            ],
            residual,
            goal: OptimizeGoal::TotalTime,
            order_required: false,
            limit: None,
        }
    };
    let sequential = DynamicOptimizer::default();
    let parallel = DynamicOptimizer::new(DynamicConfig {
        parallel: true,
        ..DynamicConfig::default()
    });
    for va in [0, 7, 24] {
        f.table.pool().clear();
        let seq = sequential.run(&make_request(va)).unwrap();
        f.table.pool().clear();
        let par = parallel.run(&make_request(va)).unwrap();
        assert_eq!(
            sorted_rids(seq.rids()),
            sorted_rids(par.rids()),
            "a={va}: parallel index-only must deliver the same rows"
        );
    }
}

#[test]
fn parallel_limit_satisfied_by_foreground() {
    let f = fixture(4000, 10, 10);
    let parallel = DynamicOptimizer::new(DynamicConfig {
        parallel: true,
        ..DynamicConfig::default()
    });
    let residual: RecordPred = Arc::new(|r: &Record| r[0] == Value::Int(1));
    let req = RetrievalRequest {
        table: &f.table,
        cost: f.cost.clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(1)),
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::all()),
        ],
        residual,
        goal: OptimizeGoal::FastFirst,
        limit: Some(5),
        order_required: false,
    };
    let result = parallel.run(&req).unwrap();
    assert_eq!(result.deliveries.len(), 5, "limit must cap deliveries");
    for d in &result.deliveries {
        let rec = d.record.as_ref().expect("fast-first fetches records");
        assert_eq!(rec[0], Value::Int(1));
    }
}

#[test]
fn background_work_is_billed_to_the_session_meter() {
    let f = fixture(4000, 40, 25);
    let parallel = DynamicOptimizer::new(DynamicConfig {
        parallel: true,
        ..DynamicConfig::default()
    });
    f.table.pool().clear();
    let before = f.cost.total();
    let result = parallel.run(&fast_first_request(&f, 3, 7)).unwrap();
    let billed = f.cost.total() - before;
    // The background stage charges a private meter that is absorbed at
    // join; the session meter (and the result's cost) must cover it.
    assert!(
        billed > 0.0,
        "session meter must be charged for background work"
    );
    assert!(
        (result.cost - billed).abs() < 1e-9,
        "result cost {} must equal the session-meter delta {}",
        result.cost,
        billed
    );
}

#[test]
fn worker_trace_events_are_stamped_background() {
    let f = fixture(4000, 40, 25);
    let parallel = DynamicOptimizer::new(DynamicConfig {
        parallel: true,
        ..DynamicConfig::default()
    });
    let buffer = TraceBuffer::shared(4096);
    let tracer = Tracer::new(buffer.clone());
    let _ = parallel
        .run_traced(&fast_first_request(&f, 3, 7), None, &tracer)
        .unwrap();
    let staged = buffer.staged_events();
    assert!(
        staged.iter().any(|(s, _)| *s == Stage::Background),
        "worker-thread events must carry Stage::Background"
    );
    assert!(
        staged.iter().any(|(s, _)| *s == Stage::Foreground),
        "foreground events still present"
    );
}

fn sorted_request<'a>(f: &'a Fixture, va: i64) -> RetrievalRequest<'a> {
    let residual: RecordPred = Arc::new(move |r: &Record| r[0] == Value::Int(va));
    RetrievalRequest {
        table: &f.table,
        cost: f.cost.clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::all()).with_order(),
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(va)),
        ],
        residual,
        goal: OptimizeGoal::TotalTime,
        order_required: true,
        limit: None,
    }
}

fn index_only_request<'a>(f: &'a Fixture, va: i64, vb: i64) -> RetrievalRequest<'a> {
    let residual: RecordPred =
        Arc::new(move |r: &Record| r[0] == Value::Int(va) && r[1] == Value::Int(vb));
    let key_pred: KeyPred = Arc::new(move |k: &[Value]| k[0] == Value::Int(vb));
    RetrievalRequest {
        table: &f.table,
        cost: f.cost.clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::eq(vb)).with_self_sufficient(key_pred),
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(va)),
        ],
        residual,
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    }
}

/// A trace sink that holds the worker thread at the first background
/// event `at` matches until the armed fault has fired. How far the worker
/// gets before the foreground dies is then decided here, not by the OS
/// scheduler: it has done what leads up to that event, and whatever it
/// does afterwards it does with the abandon latch about to be raised.
struct HoldWorkerUntilFault {
    pool: SharedPool,
    at: fn(&TraceEvent) -> bool,
}

impl TraceSink for HoldWorkerUntilFault {
    fn emit(&self, _event: TraceEvent) {}

    fn emit_staged(&self, stage: Stage, event: TraceEvent) {
        if stage != Stage::Background || !(self.at)(&event) {
            return;
        }
        // The deadline only turns a hang (a foreground that never reads
        // the faulted file) into the assertion failure below.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let pending = |p: FaultPolicy| p.faults_injected() == 0;
        while self.pool.fault_policy().is_some_and(pending) && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    }
}

#[test]
fn a_foreground_fault_stops_the_worker() {
    // a: ~6 000 entries per value — the scan a leaked worker would finish;
    // b: ~300 per value.
    let f = fixture(200_000, 33, 640);
    let pool = f.table.pool().clone();
    let (heap, idx_b) = (FileId(0), FileId(2));
    let first_refinement: fn(&TraceEvent) -> bool =
        |e| matches!(e, TraceEvent::EstimateRefined { .. });
    let first_scan_completed: fn(&TraceEvent) -> bool =
        |e| matches!(e, TraceEvent::ScanCompleted { .. });
    // The dearest a Jscan quantum of 16 entries can be: two index leaves
    // read cold, plus per-entry CPU that rounds to nothing.
    let quantum = 2.0 * CostConfig::default().io_read + 0.1;

    // (tactic, request, file that dies under the foreground, where the
    // worker is held, what the worker has legitimately spent by then).
    //
    // Sorted and index-only run their foreground without the worker's
    // help, so the worker is held inside its first quantum. The fast-first
    // foreground can only fetch what the worker has sent it, so there the
    // worker is held once its first index (b, ~300 entries at fanout 64:
    // a descent and half a dozen leaves) is done — the scan that must not
    // happen is the ~6 000 entries of a.
    type Case<'a> = (&'static str, RetrievalRequest<'a>, FileId, fn(&TraceEvent) -> bool, f64);
    let cases: [Case<'_>; 3] = [
        ("sorted", sorted_request(&f, 5), heap, first_refinement, 0.0),
        ("index-only", index_only_request(&f, 5, 7), idx_b, first_refinement, 0.0),
        ("fast-first", fast_first_request(&f, 5, 7), heap, first_scan_completed, 12.0),
    ];
    for (tactic, request, dies, at, head_start) in cases {
        let run = |parallel: bool| -> f64 {
            let optimizer = DynamicOptimizer::new(DynamicConfig {
                parallel,
                ..DynamicConfig::default()
            });
            let tracer = Tracer::new(Arc::new(HoldWorkerUntilFault {
                pool: pool.clone(),
                at,
            }));
            pool.clear();
            pool.set_fault_policy(Some(FaultPolicy::fail_from_nth(0).scoped_to(dies)));
            let before = f.cost.total();
            let outcome = optimizer.run_traced(&request, None, &tracer);
            let billed = f.cost.total() - before;
            pool.set_fault_policy(None);
            assert!(
                matches!(outcome, Err(StorageError::InjectedFault { .. })),
                "{tactic} (parallel: {parallel}): the foreground's fault must surface, got {:?}",
                outcome.map(|r| r.strategy)
            );
            billed
        };
        let cooperative = run(false);
        let threaded = run(true);
        let allowed = cooperative + head_start + 4.0 * quantum;
        assert!(
            threaded <= allowed,
            "{tactic}: a failing threaded run was billed {threaded:.1} units; the cooperative \
             run costs {cooperative:.1}, so a worker stopped within a few quanta bills at \
             most {allowed:.1}"
        );
    }
}

fn phase_costs(events: &[TraceEvent]) -> Vec<(String, f64)> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PhaseCost { phase, cost } => Some((phase.clone(), *cost)),
            _ => None,
        })
        .collect()
}

#[test]
fn background_bill_is_booked_to_the_jscan_phase() {
    let f = fixture(4000, 40, 25);
    let parallel = DynamicOptimizer::new(DynamicConfig {
        parallel: true,
        ..DynamicConfig::default()
    });
    let cases = [
        ("fast-first", fast_first_request(&f, 3, 7)),
        ("sorted", sorted_request(&f, 3)),
    ];
    for (tactic, request) in cases {
        let buffer = TraceBuffer::shared(4096);
        f.table.pool().clear();
        let result = parallel
            .run_traced(&request, None, &Tracer::new(buffer.clone()))
            .unwrap();
        let phases = phase_costs(&buffer.events());
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
            "{tactic}: the worker's bill belongs to the jscan phase: {phases:?}"
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

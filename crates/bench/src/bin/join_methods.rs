//! Join-method bench — every method forced to completion, then the
//! dynamic competition, on four canonical two-table shapes.
//!
//! Each shape builds a PARENT/CHILD pair (LCG-generated, fixed seed)
//! and times each feasible [`rdb_core::JoinMethod`] alone via
//! [`rdb_core::run_join_method`], then the full race via
//! [`rdb_core::run_join`]. Reported per run: wall time (best of 3 after
//! a warm-up pass), cost-meter units, and delivered pairs; pair counts
//! are cross-checked between every method before anything is timed.
//!
//! The first three shapes insert into fanout-32 trees, which price
//! merge-rid out at admission. The fourth, `both-sides`, is built the way
//! `Db::create_index` builds (bulk load, fanout 64) with residuals on
//! both sides and the table cardinalities as row estimates — what the
//! query layer hands the race — so merge-rid is *admitted* and the race
//! has to kill it.
//!
//! **Gate:** the dynamic competition's cost must stay within
//! `JOIN_GATE_MAX` (default 1.5×) of the best static method on every
//! shape. The committed `BENCH_join.json` baseline (bounded 128-page
//! pool, cold pool before every pass) observed ratios of at most 1.19,
//! so 1.5 leaves a noise band without letting a real regression (a lost
//! race, a broken kill heuristic) through. Cost units are deterministic,
//! so the gate is not wall-clock flaky. The same ratio on the clock
//! (`dynamic_over_best_static_ms`) is reported, not gated.
//!
//! Environment knobs:
//!
//! * `JOIN_JSON` — path to write the machine-readable report (the
//!   committed `BENCH_join.json` at the repo root), stamped with the
//!   checkout's commit and the host's parallelism.
//! * `JOIN_GATE_MAX` — dynamic-over-best-static cost ceiling (default
//!   `1.5`; set it empty or huge to effectively disable).
//! * `JOIN_POOL_PAGES` — buffer-pool capacity each shape runs under
//!   (default 128: smaller than the two heaps plus indexes, so every
//!   method races in the beyond-RAM eviction regime rather than with
//!   both tables fully resident).
//!
//! Run: `cargo run --release -p rdb-bench --bin join_methods`

use std::sync::Arc;
use std::time::Instant;

use rdb_bench::report::{commit, host_parallelism, print_table};
use rdb_btree::BTree;
use rdb_core::{
    run_join, run_join_method, JoinMethod, JoinOp, JoinRequest, JoinSide, KillRules, RecordPred,
    SideId, Tracer,
};
use rdb_storage::{
    shared_meter, shared_pool, Column, CostConfig, FileId, HeapTable, Record, Rid, Schema,
    SharedPool, Value, ValueType,
};

struct Shape {
    name: &'static str,
    note: &'static str,
    left: HeapTable,
    right: HeapTable,
    idx_l: BTree,
    idx_r: BTree,
    pool: SharedPool,
    left_residual: Option<(RecordPred, f64)>,
    right_residual: Option<(RecordPred, f64)>,
}

/// How a shape's join-column indexes come to be.
#[derive(Clone, Copy)]
enum IndexBuild {
    /// One insert per row into a fanout-32 tree.
    Inserted,
    /// `Db::create_index`'s way: one bulk load, the default fanout 64.
    DbBulkLoad,
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

fn pool_pages() -> usize {
    std::env::var("JOIN_POOL_PAGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(128)
}

/// An unrestricted shape; the restricted ones set their residuals over
/// it.
fn build_shape(
    name: &'static str,
    note: &'static str,
    n_parent: u64,
    n_child: u64,
    fk: impl Fn(&mut u64) -> i64,
    index_build: IndexBuild,
) -> Shape {
    let pool = shared_pool(pool_pages(), shared_meter(CostConfig::default()));
    let schema = || {
        Schema::new(vec![
            Column::new("K", ValueType::Int),
            Column::new("V", ValueType::Int),
        ])
    };
    let mut left = HeapTable::with_page_bytes("PARENT", FileId(0), schema(), pool.clone(), 2048);
    let mut right = HeapTable::with_page_bytes("CHILD", FileId(1), schema(), pool.clone(), 2048);
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ name.len() as u64;
    let mut parents = Vec::with_capacity(n_parent as usize);
    for i in 0..n_parent as i64 {
        let rid = left
            .insert(Record::new(vec![Value::Int(i), Value::Int(i % 16)]))
            .expect("insert parent");
        parents.push((vec![Value::Int(i)], rid));
    }
    let mut children = Vec::with_capacity(n_child as usize);
    for i in 0..n_child as i64 {
        let k = fk(&mut state);
        let rid = right
            .insert(Record::new(vec![Value::Int(k), Value::Int(i % 32)]))
            .expect("insert child");
        children.push((vec![Value::Int(k)], rid));
    }
    let index = |name: &'static str, file: u32, entries: Vec<(Vec<Value>, Rid)>| match index_build {
        IndexBuild::Inserted => {
            let mut tree = BTree::new(name, FileId(file), pool.clone(), vec![0], 32);
            for (key, rid) in entries {
                tree.insert(key, rid);
            }
            tree
        }
        IndexBuild::DbBulkLoad => {
            BTree::bulk_load(name, FileId(file), pool.clone(), vec![0], 64, entries)
        }
    };
    let idx_l = index("IDX_P", 2, parents);
    let idx_r = index("IDX_C", 3, children);
    Shape {
        name,
        note,
        left,
        right,
        idx_l,
        idx_r,
        pool,
        left_residual: None,
        right_residual: None,
    }
}

fn shapes() -> Vec<Shape> {
    vec![
        build_shape(
            "pk-fk-uniform",
            "2k unique parents, 8k children, FK uniform over the parent keys",
            2_000,
            8_000,
            |s| (lcg(s) % 2_000) as i64,
            IndexBuild::Inserted,
        ),
        build_shape(
            "skewed-fk",
            "2k parents, 8k children, FK quadratically skewed toward low keys",
            2_000,
            8_000,
            |s| {
                let u = (lcg(s) % 10_000) as f64 / 10_000.0;
                (u * u * 2_000.0) as i64
            },
            IndexBuild::Inserted,
        ),
        Shape {
            left_residual: Some((
                Arc::new(|r: &Record| r[1] == Value::Int(3)),
                2_000.0 / 16.0,
            )),
            ..build_shape(
                "selective-left",
                "left residual keeps 1/16 of parents before the join",
                2_000,
                8_000,
                |s| (lcg(s) % 2_000) as i64,
                IndexBuild::Inserted,
            )
        },
        Shape {
            left_residual: Some((Arc::new(|r: &Record| r[1] == Value::Int(3)), 2_000.0)),
            right_residual: Some((Arc::new(|r: &Record| r[1] >= Value::Int(24)), 8_000.0)),
            ..build_shape(
                "both-sides",
                "Db-built indexes (bulk load, fanout 64), residuals keep 1/16 of parents and \
                 1/4 of children, row estimates are the table cardinalities: merge-rid is \
                 admitted",
                2_000,
                8_000,
                |s| (lcg(s) % 2_000) as i64,
                IndexBuild::DbBulkLoad,
            )
        },
    ]
}

impl Shape {
    fn request(&self) -> JoinRequest<'_> {
        let mut l = JoinSide::new(&self.left).on_column(0).with_index(&self.idx_l);
        if let Some((pred, est)) = &self.left_residual {
            l = l.with_residual(pred.clone(), *est);
        }
        let mut r = JoinSide::new(&self.right).on_column(0).with_index(&self.idx_r);
        if let Some((pred, est)) = &self.right_residual {
            r = r.with_residual(pred.clone(), *est);
        }
        JoinRequest::new(l, r, JoinOp::Eq, self.pool.cost().clone())
    }
}

struct Timed {
    label: String,
    pairs: usize,
    cost: f64,
    best_ns: f64,
}

fn time_run(label: String, mut run: impl FnMut() -> (usize, f64)) -> Timed {
    let (pairs, cost) = run(); // warm-up, also the checked answer
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let (p, _) = run();
        assert_eq!(p, pairs, "{label}: pair count drifted between passes");
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    Timed {
        label,
        pairs,
        cost,
        best_ns: best,
    }
}

fn main() {
    let gate_max: f64 = std::env::var("JOIN_GATE_MAX")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.5);
    let mut gate_violations: Vec<String> = Vec::new();
    let rules = KillRules::default();
    let methods = [
        JoinMethod::NestedLoop { outer: SideId::Left },
        JoinMethod::IndexNested { outer: SideId::Left },
        JoinMethod::IndexNested { outer: SideId::Right },
        JoinMethod::Hash { build: SideId::Left },
        JoinMethod::Hash { build: SideId::Right },
        JoinMethod::Merge,
    ];

    let mut json_shapes: Vec<String> = Vec::new();
    for shape in shapes() {
        let mut runs: Vec<Timed> = Vec::new();
        for method in methods {
            runs.push(time_run(method.label().to_string(), || {
                // Every pass starts cold: under the bounded pool, pages a
                // previous method left resident would otherwise subsidise
                // whoever happens to run next.
                shape.pool.clear();
                let out = run_join_method(&shape.request(), method).expect("forced method");
                (out.pairs.len(), out.cost)
            }));
        }
        let truth = runs[0].pairs;
        for r in &runs {
            assert_eq!(r.pairs, truth, "{}: {} disagrees on pairs", shape.name, r.label);
        }
        let mut winner = "";
        runs.push(time_run("dynamic".into(), || {
            shape.pool.clear();
            let out =
                run_join(&shape.request(), &rules, &Tracer::disabled()).expect("join competition");
            assert_eq!(out.pairs.len(), truth, "dynamic disagrees on pairs");
            winner = out.strategy;
            (out.pairs.len(), out.cost)
        }));

        println!("shape {} — {}", shape.name, shape.note);
        let table: Vec<Vec<String>> = runs
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    r.pairs.to_string(),
                    format!("{:.1}", r.cost),
                    format!("{:.2}", r.best_ns / 1e6),
                ]
            })
            .collect();
        print_table(&["method", "pairs", "cost units", "best ms"], &table);
        println!("dynamic winner: {winner}\n");

        let (dynamic, statics) = runs.split_last().expect("dynamic run");
        let best_static =
            |of: fn(&Timed) -> f64| statics.iter().map(of).fold(f64::INFINITY, f64::min);
        let best_static_cost = best_static(|r| r.cost);
        let ratio = dynamic.cost / best_static_cost;
        let ratio_ms = dynamic.best_ns / best_static(|r| r.best_ns);
        println!(
            "dynamic over best static: {ratio:.2}x in cost units (gated), {ratio_ms:.2}x on \
             the clock (reported)\n"
        );
        if ratio > gate_max {
            gate_violations.push(format!(
                "shape {}: dynamic cost {:.1} is {ratio:.2}x the best static \
                 {best_static_cost:.1} (gate {gate_max:.2}x)",
                shape.name, dynamic.cost
            ));
        }
        let entries: Vec<String> = runs
            .iter()
            .map(|r| {
                format!(
                    "      {{\"method\": \"{}\", \"pairs\": {}, \"cost_units\": {:.1}, \"best_ms\": {:.3}}}",
                    r.label,
                    r.pairs,
                    r.cost,
                    r.best_ns / 1e6
                )
            })
            .collect();
        json_shapes.push(format!(
            "    {{\n      \"shape\": \"{}\",\n      \"note\": \"{}\",\n      \"winner\": \"{}\",\n      \"dynamic_over_best_static_cost\": {:.2},\n      \"dynamic_over_best_static_ms\": {:.2},\n      \"runs\": [\n{}\n      ]\n    }}",
            shape.name,
            shape.note,
            winner,
            ratio,
            ratio_ms,
            entries.join(",\n")
        ));
    }

    if let Ok(path) = std::env::var("JOIN_JSON") {
        let out = format!(
            "{{\n  \"bench\": \"crates/bench/src/bin/join_methods.rs\",\n  \
             \"command\": \"JOIN_JSON=BENCH_join.json cargo run --release -p rdb-bench --bin join_methods\",\n  \
             \"commit\": \"{}\",\n  \"host_parallelism\": {},\n  \
             \"note\": \"Every join method forced to completion, then the dynamic competition, on \
             four canonical two-table shapes (three on inserted fanout-32 indexes, one built the \
             way Db::create_index builds, where merge-rid is admitted), all under a bounded buffer pool (JOIN_POOL_PAGES, \
             smaller than the heaps plus indexes) so the race runs in the beyond-RAM eviction \
             regime. Pair counts are cross-checked between all methods before timing. Gated: \
             dynamic cost must stay within JOIN_GATE_MAX (default 1.5x) of the best static method \
             on every shape; dynamic_over_best_static_ms is the same ratio on the clock, \
             reported only.\",\n  \"gate_max\": {:.2},\n  \"pool_pages\": {},\n  \"shapes\": [\n{}\n  ]\n}}\n",
            commit(),
            host_parallelism(),
            gate_max,
            pool_pages(),
            json_shapes.join(",\n")
        );
        std::fs::write(&path, out).expect("write join json");
        println!("wrote {path}");
    }

    if gate_violations.is_empty() {
        println!("join gate: every shape within {gate_max:.2}x of its best static method");
    } else {
        for v in &gate_violations {
            eprintln!("join gate FAILED: {v}");
        }
        std::process::exit(1);
    }
}

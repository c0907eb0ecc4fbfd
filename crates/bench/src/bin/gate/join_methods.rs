//! `join_methods`: every method forced to completion, then the dynamic
//! competition, on five canonical two-table shapes.
//!
//! Each shape builds a PARENT/CHILD pair (LCG-generated, fixed seed)
//! and times each feasible [`rdb_core::JoinMethod`] alone via
//! [`rdb_core::run_join_method`], then the full race via
//! [`rdb_core::run_join`], as the arms of interleaved rounds, each pass
//! from a cold pool. Reported per run: wall time (best of the rounds),
//! cost-meter units, and delivered pairs; pair counts are cross-checked
//! between every method and every pass.
//!
//! The first three shapes insert into fanout-32 trees. The fourth,
//! `both-sides`, is built the way `Db::create_index` builds (bulk load,
//! fanout 64) with residuals on both sides and the table cardinalities as
//! row estimates — what the query layer hands the race. On these four no
//! speculative lane's estimate comes under the hash join's, so the race
//! runs the guaranteed lane alone. The fifth, `l-shaped`, is built the
//! same way with a left residual whose row estimate understates its
//! survivors 31×: index-nested(outer=left) is *admitted*, and the race has
//! to kill it.
//!
//! **Gate:** the dynamic competition's cost must stay within `GATE_MAX`
//! of the best static method on every shape. `GATE_MAX` is
//! 1 + `spend_limit` (1.5): the race spends at most `spend_limit` × the
//! guaranteed lane on speculative lanes, plus a quantum each, before the
//! guaranteed lane runs, and on every shape here the guaranteed lane is
//! the best static method in units. Cost units are deterministic, so the
//! gate is not wall-clock flaky. The same ratio on the clock
//! (`dynamic_over_best_static_ms`) is reported, not gated.

use std::sync::Arc;

use rdb_bench::gate::{interleaved, Bound, Json, Report, Verdicts};
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

/// The buffer pool each shape runs under: smaller than the two heaps
/// plus indexes, so every method races in the beyond-RAM eviction regime
/// rather than with both tables fully resident.
const POOL_PAGES: usize = 128;
/// Passes per method: the clock keeps the best.
const ROUNDS: usize = 3;
/// The gate: dynamic cost over the best static method's, per shape —
/// 1 + `KillRules::default().spend_limit` (see the module doc).
const GATE_MAX: f64 = 1.5;

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
    let pool = shared_pool(POOL_PAGES, shared_meter(CostConfig::default()));
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
            left_residual: Some((Arc::new(|r: &Record| r[1] == Value::Int(3)), 2_000.0 / 16.0)),
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
                 1/4 of children, row estimates are the table cardinalities: nothing \
                 speculative is admitted",
                2_000,
                8_000,
                |s| (lcg(s) % 2_000) as i64,
                IndexBuild::DbBulkLoad,
            )
        },
        Shape {
            left_residual: Some((Arc::new(|r: &Record| r[1] == Value::Int(3)), 4.0)),
            ..build_shape(
                "l-shaped",
                "Db-built indexes (bulk load, fanout 64), left residual keeps 125 parents but \
                 is estimated at 4: index-nested(outer=left) is admitted and killed",
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
        let mut l = JoinSide::new(&self.left)
            .on_column(0)
            .with_index(&self.idx_l);
        if let Some((pred, est)) = &self.left_residual {
            l = l.with_residual(pred.clone(), *est);
        }
        let mut r = JoinSide::new(&self.right)
            .on_column(0)
            .with_index(&self.idx_r);
        if let Some((pred, est)) = &self.right_residual {
            r = r.with_residual(pred.clone(), *est);
        }
        JoinRequest::new(l, r, JoinOp::Eq, self.pool.cost().clone())
    }
}

pub fn run(verdicts: &mut Verdicts) -> Option<Report> {
    let rules = KillRules::default();
    let methods = [
        JoinMethod::NestedLoop {
            outer: SideId::Left,
        },
        JoinMethod::IndexNested {
            outer: SideId::Left,
        },
        JoinMethod::IndexNested {
            outer: SideId::Right,
        },
        JoinMethod::Hash {
            build: SideId::Left,
        },
        JoinMethod::Hash {
            build: SideId::Right,
        },
        JoinMethod::Merge,
    ];

    let arms = methods.len() + 1;
    let mut json_shapes = Vec::new();
    for shape in shapes() {
        // Arm `i` forces `methods[i]`; the last arm is the race. Every
        // pass starts cold: under the bounded pool, pages a previous
        // method left resident would otherwise subsidise whoever happens
        // to run next.
        let rounds = interleaved(ROUNDS, arms, |i| {
            shape.pool.clear();
            let req = shape.request();
            let out = match methods.get(i) {
                Some(&method) => run_join_method(&req, method).expect("forced method"),
                None => run_join(&req, &rules, &Tracer::disabled()).expect("join competition"),
            };
            (out.pairs.len(), out.cost, out.strategy)
        });
        let truth = rounds.0[0][0].out.0;
        for (pairs, _, strategy) in rounds.0.iter().flatten().map(|run| &run.out) {
            assert_eq!(
                *pairs, truth,
                "{}: {strategy} disagrees on pairs",
                shape.name
            );
        }
        let cost = |arm: usize| rounds.0[0][arm].out.1;
        let best_static =
            |of: &dyn Fn(usize) -> f64| (0..arms - 1).map(of).fold(f64::INFINITY, f64::min);
        let ratio = cost(arms - 1) / best_static(&cost);
        let ratio_ms = rounds.best_ns(arms - 1) / best_static(&|arm| rounds.best_ns(arm));
        verdicts.check(
            "join_methods",
            format!("{}: dynamic / best static cost", shape.name),
            ratio,
            Bound::AtMost(GATE_MAX),
        );
        let labels = methods.iter().map(|m| m.label()).chain(["dynamic"]);
        let entries = labels
            .enumerate()
            .map(|(arm, label)| {
                Json::Obj(vec![
                    ("method", Json::str(label)),
                    ("pairs", Json::int(truth)),
                    ("cost_units", Json::num(cost(arm), 1)),
                    ("best_ms", Json::num(rounds.best_ns(arm) / 1e6, 3)),
                ])
            })
            .collect();
        json_shapes.push(Json::Obj(vec![
            ("shape", Json::str(shape.name)),
            ("note", Json::str(shape.note)),
            ("winner", Json::str(rounds.0[0][arms - 1].out.2)),
            ("dynamic_over_best_static_cost", Json::num(ratio, 2)),
            ("dynamic_over_best_static_ms", Json::num(ratio_ms, 2)),
            ("runs", Json::Arr(entries)),
        ]));
    }

    Some(Report {
        file: "BENCH_join.json",
        bench: "crates/bench/src/bin/gate/join_methods.rs",
        note: "Every join method forced to completion, then the dynamic competition, on five \
               canonical two-table shapes (three on inserted fanout-32 indexes, two built the \
               way Db::create_index builds; on l-shaped an understated row estimate admits \
               index-nested and the race kills it), all under a bounded buffer pool (pool_pages, smaller than the heaps plus indexes) so the race runs \
               in the beyond-RAM eviction regime. The methods and the race are timed in \
               interleaved rounds, each pass from a cold pool; best_ms is the best pass. Pair \
               counts are cross-checked between all methods and passes. Gated: dynamic cost \
               must stay within gate_max (1 + spend_limit) of the best static method on every \
               shape; dynamic_over_best_static_ms is the same ratio on the clock, reported only."
            .into(),
        fields: vec![
            ("gate_max", Json::num(GATE_MAX, 2)),
            ("pool_pages", Json::int(POOL_PAGES)),
            ("shapes", Json::Arr(json_shapes)),
        ],
    })
}

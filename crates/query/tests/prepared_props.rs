//! Property tests for prepared statements: over any seeded stream of host
//! variable bindings — interleaved with forced plan-cache invalidations
//! and catalog changes — a [`rdb_query::Prepared`] execution returns the
//! same row set as a fresh ad-hoc execution of the same statement, and the
//! plan-cache counters conserve (`hits + misses == executions`).

use proptest::prelude::*;
use rdb_query::prelude::*;
use rdb_storage::{Column, Schema, ValueType};

/// The statements of the differential, one per producer of the shared
/// finish stage (and the original conjunctive one first).
const STATEMENTS: [&str; 6] = [
    "select * from FAMILIES where AGE >= :A1",
    // OR-connected, both disjuncts on IDX_AGE: union deliveries.
    "select * from FAMILIES where AGE >= :A1 or AGE = 3",
    // ID has no index: post-sort, then truncate (ID is unique, so the
    // surviving rows do not depend on delivery order).
    "select * from FAMILIES where AGE >= :A1 order by ID desc limit to 7 rows",
    "select count(*) from FAMILIES where AGE >= :A1",
    // Covered by IDX_AGE: index-only key deliveries.
    "select AGE from FAMILIES where AGE >= :A1",
    // Join pairs, with the host variable in one side's residual.
    "select ID, X from FAMILIES, KIDS where ID = FK and X >= :A1",
];

/// One step of the prepared-vs-fresh differential workload.
#[derive(Debug, Clone)]
enum PrepOp {
    /// Execute prepared statement `stmt` with this binding and diff it
    /// against an ad-hoc run of the same statement text.
    Exec { stmt: usize, a1: i64 },
    /// Force a full plan-cache invalidation (epoch bump).
    ClearPlans,
    /// Evict every cached page — residency must not affect row sets.
    ClearPool,
}

fn arb_op() -> impl Strategy<Value = PrepOp> {
    // Executions dominate (5/7) so most streams actually exercise the
    // warm-hit path between invalidations.
    (0u8..7, -20i64..140, 0..STATEMENTS.len()).prop_map(|(kind, a1, stmt)| match kind {
        5 => PrepOp::ClearPlans,
        6 => PrepOp::ClearPool,
        _ => PrepOp::Exec { stmt, a1 },
    })
}

fn build_db(rows: i64, rng_seed: u64) -> Db {
    let mut db = Db::builder().page_bytes(1024).open().unwrap();
    db.create_table(
        "FAMILIES",
        Schema::new(vec![
            Column::new("AGE", ValueType::Int),
            Column::new("SIZE", ValueType::Int),
            Column::new("ID", ValueType::Int),
        ]),
    )
    .expect("create table");
    let mut state = rng_seed | 1;
    for i in 0..rows {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let age = (state >> 33) as i64 % 100;
        db.insert(
            "FAMILIES",
            vec![Value::Int(age), Value::Int(i % 5), Value::Int(i)],
        )
        .expect("insert");
    }
    db.create_index("IDX_AGE", "FAMILIES", &["AGE"]).expect("index");
    db.create_table(
        "KIDS",
        Schema::new(vec![
            Column::new("FK", ValueType::Int),
            Column::new("X", ValueType::Int),
        ]),
    )
    .expect("create table");
    for i in 0..rows {
        db.insert("KIDS", vec![Value::Int(i * 7 % rows), Value::Int(i % 120)])
            .expect("insert");
    }
    db
}

/// Rows as a sorted multiset. Prepared and ad-hoc runs must agree on the
/// row *set*; delivery order may legally differ when the remembered
/// tactic changes which strategy reports.
fn row_set(r: &rdb_query::QueryResult) -> Vec<Vec<Value>> {
    let mut out = r.rows.clone();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// The tentpole property: prepared row sets are identical to fresh
    /// execution for every binding in the stream, across invalidations.
    #[test]
    fn prepared_matches_fresh_over_binding_stream(
        rng_seed in any::<u64>(),
        rows in 50i64..400,
        ops in prop::collection::vec(arb_op(), 1..24),
    ) {
        let db = build_db(rows, rng_seed);
        let stmts: Vec<_> = STATEMENTS
            .iter()
            .map(|sql| db.prepare(sql).expect("prepare"))
            .collect();
        let mut execs = 0u64;
        for op in &ops {
            match op {
                PrepOp::Exec { stmt, a1 } => {
                    let sql = STATEMENTS[*stmt];
                    let opts = QueryOptions::new().with_param("A1", *a1);
                    let prepared = stmts[*stmt].execute(&opts).expect("prepared execute");
                    let fresh = db.query(sql, &opts).expect("ad-hoc execute");
                    prop_assert_eq!(&prepared.columns, &fresh.columns);
                    prop_assert_eq!(
                        row_set(&prepared),
                        row_set(&fresh),
                        "{} with A1={} diverged", sql, a1
                    );
                    // Exactly one of hit/miss per prepared execution.
                    prop_assert_eq!(
                        prepared.metrics.plan_cache_hits + prepared.metrics.plan_cache_misses,
                        1,
                        "metrics {:?}", prepared.metrics
                    );
                    execs += 1;
                }
                PrepOp::ClearPlans => db.clear_plan_cache(),
                PrepOp::ClearPool => db.clear_cache(),
            }
        }
        let stats = db.plan_cache_stats();
        // Each prepare() was one miss; every execution then recorded
        // exactly one hit or miss.
        prop_assert_eq!(
            stats.hits + stats.misses,
            execs + STATEMENTS.len() as u64,
            "{:?}", stats
        );
    }

    /// Invalidation via catalog change: a new index mid-stream re-resolves
    /// the skeleton and row sets stay identical to fresh execution.
    #[test]
    fn prepared_survives_catalog_change(
        rng_seed in any::<u64>(),
        rows in 50i64..300,
        bindings in prop::collection::vec(-20i64..140, 2..8),
        split in 0usize..8,
    ) {
        let mut db = build_db(rows, rng_seed);
        let sql = "select * from FAMILIES where AGE >= :A1 and SIZE = 2";
        let split = split.min(bindings.len());
        {
            let stmt = db.prepare(sql).expect("prepare");
            for a1 in &bindings[..split] {
                let opts = QueryOptions::new().with_param("A1", *a1);
                let prepared = stmt.execute(&opts).expect("prepared execute");
                let fresh = db.query(sql, &opts).expect("ad-hoc execute");
                prop_assert_eq!(row_set(&prepared), row_set(&fresh));
            }
        }
        // Catalog change: bumps the generation, staling every skeleton.
        db.create_index("IDX_SIZE", "FAMILIES", &["SIZE"]).expect("index");
        let stmt = db.prepare(sql).expect("re-prepare");
        let mut first = true;
        for a1 in &bindings[split..] {
            let opts = QueryOptions::new().with_param("A1", *a1);
            let prepared = stmt.execute(&opts).expect("prepared execute");
            if first {
                // The cached skeleton predates the new index: stale tag.
                prop_assert_eq!(prepared.metrics.plan_cache_misses, 1, "{:?}", prepared.metrics);
                first = false;
            }
            let fresh = db.query(sql, &opts).expect("ad-hoc execute");
            prop_assert_eq!(row_set(&prepared), row_set(&fresh), "post-catalog binding {}", a1);
        }
    }
}

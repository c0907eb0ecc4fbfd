//! `db.rs`'s `#[cfg(test)] mod tests;`, in its own file: unit tests of the
//! [`Db`] surface — DDL, DML, queries, prepared statements and sessions —
//! end to end through SQL.

use super::*;
use rdb_core::{OptimizeGoal, TraceEvent};
use rdb_storage::{Column, ValueType};

pub(crate) fn db_with_families(n: i64) -> Db {
    let mut db = Db::builder().page_bytes(1024).open().unwrap();
    db.create_table(
        "FAMILIES",
        Schema::new(vec![
            Column::new("AGE", ValueType::Int),
            Column::new("SIZE", ValueType::Int),
            Column::new("ID", ValueType::Int),
        ]),
    )
    .unwrap();
    let mut state = 7u64;
    for i in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let age = (state >> 33) as i64 % 100;
        db.insert(
            "FAMILIES",
            vec![Value::Int(age), Value::Int(i % 7), Value::Int(i)],
        )
        .unwrap();
    }
    db.create_index("IDX_AGE", "FAMILIES", &["AGE"]).unwrap();
    db.create_index("IDX_SIZE", "FAMILIES", &["SIZE"]).unwrap();
    db
}

fn params(pairs: &[(&str, i64)]) -> QueryOptions {
    let mut opts = QueryOptions::new();
    for (k, v) in pairs {
        opts = opts.with_param(*k, *v);
    }
    opts
}

fn no_params() -> QueryOptions {
    QueryOptions::new()
}

#[test]
fn the_papers_query_both_bindings() {
    let db = db_with_families(2000);
    let sql = "select * from FAMILIES where AGE >= :A1";
    db.clear_cache();
    let all = db.query(sql, &params(&[("A1", 0)])).unwrap();
    assert_eq!(all.rows.len(), 2000);
    db.clear_cache();
    let none = db.query(sql, &params(&[("A1", 200)])).unwrap();
    assert_eq!(none.rows.len(), 0);
    assert!(
        none.cost < 0.1 * all.cost,
        "empty binding {} vs full binding {}",
        none.cost,
        all.cost
    );
}

#[test]
fn projection_and_predicate() {
    let db = db_with_families(500);
    let r = db
        .query(
            "select ID from FAMILIES where SIZE = 3 and AGE >= 0",
            &no_params(),
        )
        .unwrap();
    assert_eq!(*r.columns, ["ID"]);
    // SIZE == 3 ⇔ i % 7 == 3.
    let expect: Vec<i64> = (0..500).filter(|i| i % 7 == 3).collect();
    let mut got: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
    got.sort_unstable();
    assert_eq!(got, expect);
}

#[test]
fn order_by_without_index_sorts_after_retrieval() {
    let db = db_with_families(300);
    let r = db
        .query(
            "select ID, AGE from FAMILIES where SIZE = 1 order by ID limit 5",
            &no_params(),
        )
        .unwrap();
    // ORDER BY ID has no index (only AGE/SIZE indexed): post-sort, then
    // limit. i % 7 == 1 → 1, 8, 15, 22, 29.
    let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![1, 8, 15, 22, 29]);
}

#[test]
fn order_by_indexed_column_uses_sorted_tactic() {
    let db = db_with_families(800);
    let r = db
        .query(
            "select AGE, ID from FAMILIES where SIZE = 2 order by AGE",
            &no_params(),
        )
        .unwrap();
    let ages: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
    assert!(ages.windows(2).all(|w| w[0] <= w[1]), "sorted delivery");
    assert_eq!(ages.len(), (0..800).filter(|i| i % 7 == 2).count());
}

#[test]
fn index_only_query_projects_from_keys() {
    let db = db_with_families(1000);
    // Query touching only AGE: IDX_AGE is self-sufficient.
    let r = db
        .query(
            "select AGE from FAMILIES where AGE between 90 and 99",
            &no_params(),
        )
        .unwrap();
    assert!(r.rows.iter().all(|row| {
        let v = row[0].as_i64().unwrap();
        (90..=99).contains(&v)
    }));
    // Count against ground truth via a star query.
    let truth = db
        .query("select * from FAMILIES where AGE >= 90", &no_params())
        .unwrap();
    assert_eq!(r.rows.len(), truth.rows.len());
}

#[test]
fn limit_respected_without_order() {
    let db = db_with_families(1000);
    let r = db
        .query(
            "select * from FAMILIES where SIZE = 4 limit to 3 rows",
            &no_params(),
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn options_override_sql_limit_and_goal() {
    let db = db_with_families(500);
    // No LIMIT in the SQL; the option caps delivery anyway.
    let r = db
        .query(
            "select * from FAMILIES where SIZE = 4",
            &QueryOptions::new().with_limit(3),
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    // An explicit goal override coexists with the limit (it replaces
    // the limit-derived fast-first goal, not the limit itself).
    let r = db
        .query(
            "select * from FAMILIES where SIZE = 4",
            &QueryOptions::new()
                .with_limit(2)
                .with_goal(OptimizeGoal::TotalTime),
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn errors_for_unknown_entities() {
    let db = db_with_families(10);
    assert!(matches!(
        db.query("select * from NOPE", &no_params()),
        Err(QueryError::UnknownTable(t)) if t == "NOPE"
    ));
    assert!(matches!(
        db.query("select MISSING from FAMILIES", &no_params()),
        Err(QueryError::UnknownColumn { column, .. }) if column == "MISSING"
    ));
    assert!(matches!(
        db.query("select * from FAMILIES where NOPE = 1", &no_params()),
        Err(QueryError::UnknownColumn { column, .. }) if column == "NOPE"
    ));
    assert!(matches!(
        db.query("select * from FAMILIES where AGE >= :unbound", &no_params()),
        Err(QueryError::UnboundVar(v)) if v == "unbound"
    ));
    assert!(matches!(
        db.query("select", &no_params()),
        Err(QueryError::Parse(_))
    ));
}

#[test]
fn typed_errors_for_writes() {
    let mut db = db_with_families(10);
    assert!(matches!(
        db.insert("FAMILIES", vec![Value::Int(1)]),
        Err(QueryError::Arity {
            expected: 3,
            got: 1,
            ..
        })
    ));
    assert!(matches!(
        db.insert(
            "FAMILIES",
            vec![Value::Int(1), Value::Str("x".into()), Value::Int(2)],
        ),
        Err(QueryError::TypeMismatch {
            column,
            expected: ValueType::Int,
            got: Some(ValueType::Str),
            ..
        }) if column == "SIZE"
    ));
    assert!(matches!(
        db.insert("FAMILIES", vec![Value::Null, Value::Int(1), Value::Int(2)]),
        Err(QueryError::TypeMismatch { got: None, .. })
    ));
    // Typed errors still render the historical messages.
    let e = db.query("select * from NOPE", &no_params()).unwrap_err();
    assert_eq!(e.to_string(), "no such table NOPE");
}

#[test]
fn create_index_backfills_existing_rows() {
    let mut db = Db::builder().open().unwrap();
    db.create_table("T", Schema::new(vec![Column::new("x", ValueType::Int)]))
        .unwrap();
    for i in 0..100 {
        db.insert("T", vec![Value::Int(i)]).unwrap();
    }
    db.create_index("IDX_X", "T", &["x"]).unwrap();
    let r = db
        .query("select x from T where x between 10 and 12", &no_params())
        .unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn order_by_desc_with_limit() {
    let db = db_with_families(400);
    let r = db
        .query(
            "select ID from FAMILIES where SIZE = 1 order by ID desc limit to 4 rows",
            &no_params(),
        )
        .unwrap();
    let mut expect: Vec<i64> = (0..400).filter(|i| i % 7 == 1).collect();
    expect.reverse();
    expect.truncate(4);
    let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
    assert_eq!(got, expect);
    // DESC on an indexed column is served by a reverse index scan
    // through the Sorted tactic.
    let ages = db
        .query(
            "select AGE from FAMILIES where SIZE = 1 order by AGE desc",
            &no_params(),
        )
        .unwrap();
    let vals: Vec<i64> = ages
        .rows
        .iter()
        .map(|row| row[0].as_i64().unwrap())
        .collect();
    assert!(vals.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn count_star_returns_single_row_and_total_time_goal() {
    let db = db_with_families(1500);
    let r = db
        .query("select count(*) from FAMILIES where SIZE = 4", &no_params())
        .unwrap();
    assert_eq!(*r.columns, ["COUNT"]);
    let expect = (0..1500).filter(|i| i % 7 == 4).count() as i64;
    assert_eq!(r.rows, vec![vec![Value::Int(expect)]]);
    // COUNT with LIMIT still counts everything (aggregate controls the
    // retrieval; the limit would apply to the single output row).
    let limited = db
        .query(
            "select count(*) from FAMILIES where SIZE = 4 limit to 1 rows",
            &no_params(),
        )
        .unwrap();
    assert_eq!(limited.rows, vec![vec![Value::Int(expect)]]);
    // COUNT over an OR restriction goes through the union scan.
    let or = db
        .query(
            "select count(*) from FAMILIES where SIZE = 1 or SIZE = 2",
            &no_params(),
        )
        .unwrap();
    let expect_or = (0..1500).filter(|i| i % 7 == 1 || i % 7 == 2).count() as i64;
    assert_eq!(or.rows, vec![vec![Value::Int(expect_or)]]);
}

#[test]
fn composite_index_prefix_range_used() {
    let mut db = Db::builder().page_bytes(1024).open().unwrap();
    db.create_table(
        "T",
        Schema::new(vec![
            Column::new("region", ValueType::Int),
            Column::new("age", ValueType::Int),
            Column::new("id", ValueType::Int),
        ]),
    )
    .unwrap();
    for i in 0..6000i64 {
        db.insert(
            "T",
            vec![Value::Int(i % 6), Value::Int(i % 100), Value::Int(i)],
        )
        .unwrap();
    }
    db.create_index("IDX_RA", "T", &["region", "age"]).unwrap();
    db.clear_cache();
    let narrow = db
        .query(
            "select id from T where region = 3 and age between 30 and 32",
            &no_params(),
        )
        .unwrap();
    let expect = (0..6000)
        .filter(|i| i % 6 == 3 && (30..=32).contains(&(i % 100)))
        .count();
    assert_eq!(narrow.rows.len(), expect);
    // The composite range must make this far cheaper than the
    // region-only prefix.
    db.clear_cache();
    let broad = db
        .query("select id from T where region = 3", &no_params())
        .unwrap();
    assert!(
        narrow.cost < 0.4 * broad.cost,
        "composite range {} vs prefix-only {}",
        narrow.cost,
        broad.cost
    );
}

#[test]
fn delete_where_maintains_indexes() {
    let mut db = db_with_families(1000);
    let deleted = db
        .delete_where(
            "FAMILIES",
            &crate::expr::Expr::cmp("SIZE", crate::expr::CmpOp::Eq, 3),
            &no_params(),
        )
        .unwrap();
    assert_eq!(deleted, (0..1000).filter(|i| i % 7 == 3).count());
    // Neither the heap nor the index sees the victims any more.
    let via_index = db
        .query("select ID from FAMILIES where SIZE = 3", &no_params())
        .unwrap();
    assert!(via_index.rows.is_empty());
    let all = db
        .query("select ID from FAMILIES where SIZE >= 0", &no_params())
        .unwrap();
    assert_eq!(all.rows.len(), 1000 - deleted);
}

#[test]
fn update_where_moves_index_entries() {
    let mut db = db_with_families(700);
    let updated = db
        .update_where(
            "FAMILIES",
            "SIZE",
            Value::Int(99),
            &crate::expr::Expr::cmp("SIZE", crate::expr::CmpOp::Eq, 2),
            &no_params(),
        )
        .unwrap();
    assert_eq!(updated, (0..700).filter(|i| i % 7 == 2).count());
    let old = db
        .query("select ID from FAMILIES where SIZE = 2", &no_params())
        .unwrap();
    assert!(old.rows.is_empty());
    let new = db
        .query("select ID from FAMILIES where SIZE = 99", &no_params())
        .unwrap();
    assert_eq!(new.rows.len(), updated);
    assert_eq!(db.row_count("FAMILIES"), Some(700));
}

#[test]
fn explain_reports_binding_specific_tactic() {
    let db = db_with_families(3000);
    let sql = "select * from FAMILIES where AGE >= :A1";
    let empty = db.explain(sql, &params(&[("A1", 500)])).unwrap();
    assert!(empty.contains("EndOfData"), "{empty}");
    let selective = db.explain(sql, &params(&[("A1", 99)])).unwrap();
    assert!(
        selective.contains("BackgroundOnly") || selective.contains("TinyRangeFetch"),
        "{selective}"
    );
    let all = db.explain(sql, &params(&[("A1", 0)])).unwrap();
    assert!(all.contains("BackgroundOnly"), "{all}");
    // OR queries route to the union machinery.
    let or = db
        .explain(
            "select * from FAMILIES where AGE = 1 or SIZE = 2",
            &no_params(),
        )
        .unwrap();
    assert!(or.contains("Union"), "{or}");
}

#[test]
fn or_query_matches_union_semantics() {
    let db = db_with_families(2100);
    let r = db
        .query(
            "select ID from FAMILIES where SIZE = 1 or SIZE = 3",
            &no_params(),
        )
        .unwrap();
    let expect = (0..2100).filter(|i| i % 7 == 1 || i % 7 == 3).count();
    assert_eq!(r.rows.len(), expect);
    assert!(r.strategy.contains("Union"), "{}", r.strategy);
}

#[test]
fn duplicate_table_rejected() {
    let mut db = Db::builder().open().unwrap();
    db.create_table("T", Schema::new(vec![Column::new("x", ValueType::Int)]))
        .unwrap();
    assert!(matches!(
        db.create_table("T", Schema::new(vec![Column::new("x", ValueType::Int)])),
        Err(QueryError::DuplicateTable(t)) if t == "T"
    ));
}

#[test]
fn trace_sink_observes_the_run() {
    let db = db_with_families(1500);
    let buf = TraceBuffer::shared(4096);
    let opts = params(&[("A1", 0)]).with_trace(buf.clone());
    let r = db
        .query("select * from FAMILIES where AGE >= :A1", &opts)
        .unwrap();
    let events = buf.events();
    let (strategy, rows) = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Winner { strategy, rows, .. } => Some((strategy.clone(), *rows)),
            _ => None,
        })
        .expect("winner event");
    // The Winner event carries the detailed strategy string
    // ("background-only (Jscan -> Tscan)"); the result carries the
    // tactic name ("BackgroundOnly"). Normalized, the detail must
    // name the same tactic.
    let normalize =
        |s: &str| -> String { s.chars().filter(char::is_ascii_alphanumeric).collect::<String>().to_lowercase() };
    assert!(
        normalize(&strategy).contains(&normalize(r.strategy)),
        "winner {strategy:?} vs strategy {:?}",
        r.strategy
    );
    assert_eq!(rows, r.rows.len());
    // Phase costs tile the run: their sum is the query's total cost.
    let phase_sum: f64 = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PhaseCost { cost, .. } => Some(*cost),
            _ => None,
        })
        .sum();
    assert!(
        (phase_sum - r.cost).abs() <= 1e-6 * r.cost.max(1.0),
        "phases {phase_sum} vs cost {}",
        r.cost
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::TacticChosen { .. })),
        "tactic-chosen event missing"
    );
}

#[test]
fn explain_analyze_renders_timeline_and_json() {
    let db = db_with_families(2000);
    let ea = db
        .explain_analyze(
            "select * from FAMILIES where AGE >= :A1",
            &params(&[("A1", 0)]),
        )
        .unwrap();
    assert!(!ea.events.is_empty());
    assert_eq!(ea.result.rows.len(), 2000);
    let text = ea.render();
    assert!(text.starts_with("EXPLAIN ANALYZE select"), "{text}");
    assert!(text.contains("winner"), "{text}");
    let json = ea.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"events\":["), "{json}");
    assert!(json.contains("\"event\":\"winner\""), "{json}");
    assert!(json.contains("\"event\":\"phase_cost\""), "{json}");
}

#[test]
fn metrics_report_pool_activity() {
    let db = db_with_families(1000);
    db.clear_cache();
    let cold = db
        .query("select * from FAMILIES where AGE >= 0", &no_params())
        .unwrap();
    assert!(cold.metrics.pool_misses > 0, "{:?}", cold.metrics);
    let warm = db
        .query("select * from FAMILIES where AGE >= 0", &no_params())
        .unwrap();
    assert!(warm.metrics.pool_hits > 0, "{:?}", warm.metrics);
}

/// Rows as sorted `(AGE, SIZE, ID)` tuples — prepared and ad-hoc runs
/// must produce the same row *set*; delivery order may differ when the
/// pool's contents change which competitor reports first.
fn sorted_tuples(r: &QueryResult) -> Vec<(i64, i64, i64)> {
    let mut out: Vec<(i64, i64, i64)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row[0].as_i64().unwrap(),
                row[1].as_i64().unwrap(),
                row[2].as_i64().unwrap(),
            )
        })
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn prepared_matches_adhoc_across_bindings() {
    let db = db_with_families(2000);
    let sql = "select * from FAMILIES where AGE >= :A1";
    let stmt = db.prepare(sql).unwrap();
    for (i, a1) in [0i64, 90, 50, 99, 10].into_iter().enumerate() {
        let opts = params(&[("A1", a1)]);
        let prepared = stmt.execute(&opts).unwrap();
        let adhoc = db.query(sql, &opts).unwrap();
        assert_eq!(prepared.columns, adhoc.columns);
        assert_eq!(
            sorted_tuples(&prepared),
            sorted_tuples(&adhoc),
            "binding A1={a1}"
        );
        if i == 0 {
            assert_eq!(prepared.metrics.plan_cache_misses, 1, "{:?}", prepared.metrics);
        } else {
            assert_eq!(prepared.metrics.plan_cache_hits, 1, "{:?}", prepared.metrics);
        }
    }
    let stats = db.plan_cache_stats();
    assert_eq!(stats.statements, 1);
    assert!(stats.hits >= 4, "{stats:?}");
    // Ad-hoc queries never consult the cache.
    let adhoc = db.query(sql, &params(&[("A1", 0)])).unwrap();
    assert_eq!(adhoc.metrics.plan_cache_hits, 0);
    assert_eq!(adhoc.metrics.plan_cache_misses, 0);
}

#[test]
fn prepared_invalidation_on_catalog_change_and_clear() {
    let mut db = db_with_families(1000);
    let sql = "select * from FAMILIES where AGE >= :A1";
    {
        let stmt = db.prepare(sql).unwrap();
        let r = stmt.execute(&params(&[("A1", 50)])).unwrap();
        assert_eq!(r.metrics.plan_cache_misses, 1);
    }
    // A catalog change (new index) bumps the generation: the cached
    // skeleton survives in the cache but its tag is stale.
    db.create_index("IDX_ID", "FAMILIES", &["ID"]).unwrap();
    let inval_before = db.plan_cache_stats().invalidations;
    let stmt = db.prepare(sql).unwrap();
    let opts = params(&[("A1", 50)]);
    let r = stmt.execute(&opts).unwrap();
    assert_eq!(r.metrics.plan_cache_misses, 1, "stale tag must re-resolve");
    assert_eq!(
        db.plan_cache_stats().invalidations,
        inval_before + 1,
        "catalog bump recorded as invalidation"
    );
    assert_eq!(sorted_tuples(&r), sorted_tuples(&db.query(sql, &opts).unwrap()));
    // Warm again, then clear_plan_cache: the in-place wipe reaches this
    // outstanding handle even though the cache map was emptied.
    assert_eq!(stmt.execute(&opts).unwrap().metrics.plan_cache_hits, 1);
    db.clear_plan_cache();
    let r = stmt.execute(&opts).unwrap();
    assert_eq!(
        r.metrics.plan_cache_misses, 1,
        "plan-cache clear must reach outstanding Prepared handles"
    );
    assert_eq!(sorted_tuples(&r), sorted_tuples(&db.query(sql, &opts).unwrap()));
}

#[test]
fn prepared_trace_reports_cache_events() {
    let db = db_with_families(2000);
    let sql = "select * from FAMILIES where AGE >= :A1";
    let stmt = db.prepare(sql).unwrap();
    let outcomes_of = |buf: &std::sync::Arc<TraceBuffer>| -> Vec<String> {
        buf.events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PlanCache { outcome, .. } => Some(outcome.clone()),
                _ => None,
            })
            .collect()
    };
    let cold = TraceBuffer::shared(4096);
    stmt.execute(&params(&[("A1", 90)]).with_trace(cold.clone()))
        .unwrap();
    assert_eq!(outcomes_of(&cold), vec!["miss"], "cold run resolves the skeleton");
    // Same binding again: the skeleton is reused.
    let warm = TraceBuffer::shared(4096);
    stmt.execute(&params(&[("A1", 90)]).with_trace(warm.clone()))
        .unwrap();
    assert_eq!(outcomes_of(&warm), vec!["hit"]);
    // A new binding reuses it too: only the key ranges are re-derived,
    // and the tactic is chosen afresh (AGE >= 200 proves end-of-data).
    let drift = TraceBuffer::shared(4096);
    let r = stmt
        .execute(&params(&[("A1", 200)]).with_trace(drift.clone()))
        .unwrap();
    assert_eq!(outcomes_of(&drift), vec!["hit"]);
    assert_eq!(r.strategy, "EndOfData");
}

#[test]
fn db_and_session_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Db>();
    assert_send_sync::<Session<'static>>();
    assert_send_sync::<QueryOptions>();
}

#[test]
fn sessions_meter_queries_independently() {
    let db = db_with_families(1000);
    let a = db.session();
    let b = db.session();
    let ra = a
        .query("select * from FAMILIES where AGE >= 0", &no_params())
        .unwrap();
    let b_before = b.cost().total();
    assert_eq!(
        b_before, 0.0,
        "session B never ran a query, its meter must be untouched"
    );
    let a_after = a.cost().total();
    let rb = b
        .query("select * from FAMILIES where AGE >= 90", &no_params())
        .unwrap();
    assert!(ra.rows.len() > rb.rows.len());
    assert!(a.cost().total() > 0.0 && b.cost().total() > 0.0);
    assert_eq!(
        a.cost().total(),
        a_after,
        "session B's query must not charge session A's meter"
    );
    // EXPLAIN's estimation descents are the session's too.
    let (db_before, b_before) = (db.cost().total(), b.cost().total());
    b.explain("select * from FAMILIES where AGE >= 90", &no_params())
        .unwrap();
    assert!(b.cost().total() > b_before, "explain charges its own session");
    assert_eq!(
        db.cost().total(),
        db_before,
        "a session's explain must not charge the database's default meter"
    );
}

/// An OR statement runs through the one optimizer entry point, so it is
/// charged like any other statement: to the session's own meter, never to
/// the database's default one, and its metrics read the session's pool
/// work.
#[test]
fn a_sessions_or_query_charges_its_own_meter() {
    let db = db_with_families(2000);
    let session = db.session();
    let db_before = db.cost().total();
    let sql = "select * from FAMILIES where AGE = 1 or SIZE = 2";
    let r = session.query(sql, &no_params()).unwrap();
    assert!(r.cost > 0.0);
    assert_eq!(r.cost, session.cost().total(), "the union charges its session");
    assert_eq!(db.cost().total(), db_before, "not the database's meter");
    assert!(r.metrics.pool_hits + r.metrics.pool_misses > 0, "{:?}", r.metrics);
    assert_eq!(r.strategy, "UnionScan");
    // ID has no index, so this OR runs the conjunctive machinery: a Tscan
    // that must see the same rows.
    let tscan = db.query(&format!("{sql} or ID = -1"), &no_params()).unwrap();
    assert_eq!(tscan.strategy, "TscanOnly");
    assert_eq!(r.rows.len(), tscan.rows.len());
}

/// Concurrent sessions' OR statements each land on their own meter: a
/// result's cost is exactly its session's meter delta, whatever the other
/// sessions charge meanwhile.
#[test]
fn concurrent_or_queries_charge_their_own_sessions() {
    let db = db_with_families(2000);
    let db_before = db.cost().total();
    std::thread::scope(|scope| {
        for age in 0..8 {
            let session = db.session();
            scope.spawn(move || {
                let sql = format!("select ID from FAMILIES where AGE = {age} or SIZE = 2");
                let r = session.query(&sql, &no_params()).unwrap();
                assert!(r.cost > 0.0);
                assert_eq!(r.cost, session.cost().total(), "{sql}");
            });
        }
    });
    assert_eq!(db.cost().total(), db_before, "no session charges the database's meter");
}

#[test]
fn concurrent_sessions_agree_with_sequential_results() {
    let db = db_with_families(2000);
    let sequential = db
        .query("select ID from FAMILIES where SIZE = 3", &no_params())
        .unwrap();
    let mut expect: Vec<i64> = sequential
        .rows
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    expect.sort_unstable();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let session = db.session();
            let expect = expect.clone();
            scope.spawn(move || {
                let r = session
                    .query("select ID from FAMILIES where SIZE = 3", &no_params())
                    .unwrap();
                let mut got: Vec<i64> =
                    r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
                got.sort_unstable();
                assert_eq!(got, expect);
                assert!(r.metrics.pool_hits + r.metrics.pool_misses > 0);
            });
        }
    });
}

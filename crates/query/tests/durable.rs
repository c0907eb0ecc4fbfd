//! Durable-database integration: builder construction, crash recovery,
//! and the contract that the simulated cost meter's I/O unit is grounded
//! in real page reads on a cold cache.

use std::path::PathBuf;

use rdb_query::prelude::*;
use rdb_storage::{Column, Schema, ValueType};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rdb-durable-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn families_schema() -> Schema {
    Schema::new(vec![
        Column::new("ID", ValueType::Int),
        Column::new("AGE", ValueType::Int),
    ])
}

fn build(dir: &PathBuf, rows: i64) -> Db {
    let mut db = Db::builder().path(dir).page_bytes(512).open().unwrap();
    db.create_table("FAMILIES", families_schema()).unwrap();
    for i in 0..rows {
        db.insert("FAMILIES", vec![Value::Int(i), Value::Int(i % 100)])
            .unwrap();
    }
    db.create_index("IDX_AGE", "FAMILIES", &["AGE"]).unwrap();
    db
}

fn ids(db: &Db, sql: &str) -> Vec<i64> {
    let mut out: Vec<i64> = db
        .query(sql, &QueryOptions::new())
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn clean_close_and_reopen_preserves_everything() {
    let dir = temp_dir("clean");
    let db = build(&dir, 500);
    let before = ids(&db, "select ID from FAMILIES where AGE >= 90");
    db.close().unwrap();

    let db = Db::builder().path(&dir).open().unwrap();
    assert!(db.is_durable());
    let report = db.recovery_report().unwrap();
    assert_eq!(report.records_applied, 0, "clean close replays nothing");
    assert_eq!(db.row_count("FAMILIES"), Some(500));
    assert_eq!(ids(&db, "select ID from FAMILIES where AGE >= 90"), before);
    // The rebuilt index serves the query (not just the heap).
    let explained = db
        .explain("select ID from FAMILIES where AGE >= 99", &QueryOptions::new())
        .unwrap();
    assert!(
        explained.contains("IDX_AGE") || !explained.contains("Tscan"),
        "index survives reopen: {explained}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_without_checkpoint_recovers_from_wal() {
    let dir = temp_dir("crash");
    let db = build(&dir, 300);
    let before = ids(&db, "select ID from FAMILIES where AGE < 10");
    // Crash: plain drop, no checkpoint. Everything lives in the WAL.
    drop(db);

    let db = Db::builder().path(&dir).open().unwrap();
    let report = db.recovery_report().unwrap();
    assert!(report.records_applied > 0, "WAL replay did the rebuild");
    assert_eq!(db.row_count("FAMILIES"), Some(300));
    assert_eq!(ids(&db, "select ID from FAMILIES where AGE < 10"), before);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_after_checkpoint_replays_only_the_tail() {
    let dir = temp_dir("tail");
    let mut db = build(&dir, 200);
    let stats = db.checkpoint().unwrap();
    assert!(stats.pages_written > 0);
    // Post-checkpoint mutations: these live only in the WAL.
    let opts = QueryOptions::new();
    let deleted = db
        .delete_where(
            "FAMILIES",
            &rdb_query::Expr::cmp("AGE", rdb_query::CmpOp::Eq, 7i64),
            &opts,
        )
        .unwrap();
    assert_eq!(deleted, 2);
    db.insert("FAMILIES", vec![Value::Int(9999), Value::Int(7)])
        .unwrap();
    let before = ids(&db, "select ID from FAMILIES where AGE = 7");
    drop(db);

    let db = Db::builder().path(&dir).open().unwrap();
    // One WAL record per mutation past the checkpoint: two deletes, one
    // insert.
    assert_eq!(db.recovery_report().unwrap().records_applied, 3);
    assert_eq!(db.row_count("FAMILIES"), Some(199));
    assert_eq!(ids(&db, "select ID from FAMILIES where AGE = 7"), before);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The acceptance contract: on a cold cache, the cost meter's simulated
/// page reads for a table scan equal the *real* page reads the store
/// performed (verify-reads of checksummed disk frames), which equal the
/// table's page count.
#[test]
fn cost_meter_io_unit_matches_real_page_reads_on_cold_cache() {
    let dir = temp_dir("costunit");
    assert_cold_scan_reads_are_misses(build(&dir, 400));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same contract on a database rebuilt by recovery, once a checkpoint
/// has written its redo-dirtied pages back: the recovered heap's pages are
/// read from disk exactly like freshly written ones.
#[test]
fn cost_meter_io_unit_matches_real_page_reads_after_recovery() {
    let dir = temp_dir("costunit-recovered");
    drop(build(&dir, 400)); // the crash
    let db = Db::builder().path(&dir).open().unwrap();
    assert!(db.recovery_report().unwrap().records_applied > 0);
    assert_cold_scan_reads_are_misses(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoints `db` (400 rows of FAMILIES), then scans it cold — one real
/// frame read per page, each one simulated miss — and warm — no reads.
fn assert_cold_scan_reads_are_misses(mut db: Db) {
    db.checkpoint().unwrap();

    let store = db.store().unwrap().clone();
    let pages = u64::from(db.heap("FAMILIES").unwrap().page_count());
    assert!(pages > 3, "need a multi-page table, got {pages}");

    db.clear_cache(); // cold restart
    let real_before = store.stats();
    let result = db
        .query("select * from FAMILIES", &QueryOptions::new())
        .unwrap();
    let real = store.stats().since(&real_before);
    assert_eq!(result.rows.len(), 400);
    assert_eq!(
        real.page_reads, pages,
        "every cold miss of a checkpointed page is one real frame read"
    );
    assert_eq!(
        result.metrics.pool_misses, real.page_reads,
        "simulated I/O unit == real page reads"
    );

    // Warm run: all hits, zero real I/O.
    let real_before = store.stats();
    let warm = db
        .query("select * from FAMILIES", &QueryOptions::new())
        .unwrap();
    assert_eq!(warm.rows.len(), 400);
    assert_eq!(store.stats().since(&real_before).page_reads, 0);
    assert_eq!(warm.metrics.pool_misses, 0);
}

/// One index's `(key, rid)` entries in index order.
type Entries = Vec<(Vec<Value>, rdb_storage::Rid)>;

/// Every index of `table` by name, with its entries.
fn index_entries(db: &Db, table: &str) -> Vec<(String, Entries)> {
    db.indexes(table)
        .unwrap()
        .iter()
        .map(|tree| {
            let entries = tree.range_to_vec(rdb_btree::KeyRange::all(), db.cost());
            (tree.name().to_string(), entries)
        })
        .collect()
}

/// The open path rebuilds a table's indexes in one heap pass: after a
/// crash, each of three indexes — one of them composite — returns exactly
/// the `(key, rid)` sequence it held before, in the catalog's order.
#[test]
fn crash_reopen_rebuilds_every_index_entry_for_entry() {
    let dir = temp_dir("three-indexes");
    let mut db = Db::builder().path(&dir).page_bytes(512).open().unwrap();
    db.create_table(
        "T",
        Schema::new(vec![
            Column::new("ID", ValueType::Int),
            Column::new("A", ValueType::Int),
            Column::new("B", ValueType::Int),
            Column::new("TAG", ValueType::Str),
        ]),
    )
    .unwrap();
    let row = |i: i64| {
        vec![
            Value::Int(i),
            Value::Int(i % 17),
            Value::Int(i % 5),
            Value::Str(format!("t{}", i % 11)),
        ]
    };
    for i in 0..400 {
        db.insert("T", row(i)).unwrap();
    }
    db.create_index("IDX_A", "T", &["A"]).unwrap();
    db.create_index("IDX_B_TAG", "T", &["B", "TAG"]).unwrap();
    db.create_index("IDX_TAG", "T", &["TAG"]).unwrap();
    db.checkpoint().unwrap();
    // Past the checkpoint: the WAL tail recovery must redo.
    let opts = QueryOptions::new();
    let a_is = |v: i64| rdb_query::Expr::cmp("A", rdb_query::CmpOp::Eq, v);
    db.delete_where("T", &a_is(3), &opts).unwrap();
    db.update_where("T", "B", Value::Int(9), &a_is(4), &opts)
        .unwrap();
    for i in 400..520 {
        db.insert("T", row(i)).unwrap();
    }
    let before = index_entries(&db, "T");
    assert_eq!(before.len(), 3);
    drop(db); // the crash

    let db = Db::builder().path(&dir).open().unwrap();
    assert!(db.recovery_report().unwrap().records_applied > 0);
    assert_eq!(index_entries(&db, "T"), before);
    for tree in db.indexes("T").unwrap() {
        tree.check_invariants();
    }
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_frame_without_covering_image_is_a_typed_error() {
    let dir = temp_dir("torn");
    let mut db = build(&dir, 200);
    db.checkpoint().unwrap();
    db.close().unwrap();

    // Corrupt one payload byte of the first data frame of file 0.
    let data = rdb_storage::file_store::FilePageStore::data_path(&dir, rdb_storage::FileId(0));
    let mut bytes = std::fs::read(&data).unwrap();
    let at = rdb_storage::file_store::FRAME_HEADER + 3;
    bytes[at] ^= 0xFF;
    std::fs::write(&data, &bytes).unwrap();

    let err = match Db::builder().path(&dir).open() {
        Ok(_) => panic!("open must fail on the torn frame"),
        Err(e) => e,
    };
    assert!(
        matches!(
            err,
            QueryError::Storage(rdb_storage::StorageError::TornPage { .. })
        ),
        "got {err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explicit_page_bytes_over_frame_budget_is_a_typed_error() {
    let dir = temp_dir("toolarge");
    let err = match Db::builder().path(&dir).page_bytes(64 * 1024).open() {
        Ok(_) => panic!("oversized page_bytes must be rejected"),
        Err(e) => e,
    };
    assert!(matches!(err, QueryError::Storage(_)), "got {err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_scan_read_ahead_surfaces_in_query_metrics() {
    let dir = temp_dir("readahead");
    let mut db = build(&dir, 800);
    db.checkpoint().unwrap();
    db.clear_cache();
    let result = db
        .query("select ID from FAMILIES", &QueryOptions::new())
        .unwrap();
    assert_eq!(result.rows.len(), 800);
    assert!(
        result.metrics.prefetched_pages > 0,
        "cold sequential scan should prefetch: {:?}",
        result.metrics
    );
    assert_eq!(
        result.metrics.prefetch_consumed, result.metrics.prefetched_pages,
        "a full scan consumes its whole window: {:?}",
        result.metrics
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn builder_default_target_is_in_memory() {
    let mut db = Db::builder().config(DbConfig::default()).open().unwrap();
    db.create_table("T", families_schema()).unwrap();
    db.insert("T", vec![Value::Int(1), Value::Int(2)]).unwrap();
    assert_eq!(db.row_count("T"), Some(1));
    assert!(!db.is_durable());
}

//! Proves the paper's "avoiding any run-time allocation" claim for the
//! inline RID tier (Section 6): accumulating up to `inline_max` RIDs and
//! probing a built filter perform **zero** heap allocations per RID.
//!
//! The same allocator proves the join lanes' copy-on-survive rule: a hash
//! join whose rows all fail their residual decodes every one of them into
//! its scratch record and allocates nothing per row. And an untraced
//! Jscan keeps no record of its decisions: completing or discarding a
//! scan allocates nothing.
//!
//! A counting global allocator wraps the system allocator; the assertions
//! compare allocation counts around the hot paths. The count is per
//! thread, so tests running side by side in this binary (and the harness
//! reporting their results) cannot perturb one another's between snapshot
//! and check.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Const-initialized and without a destructor, so touching it from
    /// inside the allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down may already have lost its locals.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates every operation to the system allocator unchanged;
// the only addition is a bump of a plain thread-local counter, which
// cannot violate the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn inline_tier_and_filter_probes_do_not_allocate() {
    use rdb_core::filter::Filter;
    use rdb_core::ridlist::{RidListBuilder, RidTierConfig, INLINE_CAPACITY};
    use rdb_storage::{shared_meter, shared_pool, CostConfig, FileId, Rid};

    let cost = shared_meter(CostConfig::default());
    let pool = shared_pool(64, cost);

    // Building the builder and pushing a full inline tier: no allocations.
    let before = allocations();
    let mut builder = RidListBuilder::new(
        RidTierConfig::default(),
        pool.clone(),
        FileId(9),
        pool.cost().clone(),
    );
    for i in 0..INLINE_CAPACITY {
        builder.push(Rid::new(i as u32, 0));
    }
    assert_eq!(
        allocations() - before,
        0,
        "inline-tier pushes must be allocation-free"
    );

    // Finishing into the inline tier moves the array: still no allocations.
    let before = allocations();
    let list = builder.finish();
    assert_eq!(list.tier(), "inline");
    assert_eq!(allocations() - before, 0, "inline finish must not allocate");

    // Probing a built filter (sorted and bitmap) allocates nothing either,
    // whatever the probe order.
    let sorted = list.filter();
    let mut bitmap = Filter::bitmap(1 << 10);
    for i in 0..200 {
        bitmap.insert(Rid::new(i * 3, 0));
    }
    let before = allocations();
    let mut cursor = 0;
    let mut found = 0usize;
    for i in (0..INLINE_CAPACITY as u32).rev().chain(0..600) {
        if sorted.contains(Rid::new(i, 0)) {
            found += 1;
        }
        if sorted.contains_seq(&mut cursor, Rid::new(i, 0)) {
            found += 1;
        }
        if bitmap.contains(Rid::new(i, 0)) {
            found += 1;
        }
    }
    assert!(found > 0);
    assert_eq!(allocations() - before, 0, "filter probes must not allocate");

    // Sharing a filter over an ascending buffer-tier list is one Rc bump,
    // not a copy: cloning the filter allocates nothing.
    let mut builder = RidListBuilder::new(
        RidTierConfig::default(),
        pool.clone(),
        FileId(10),
        pool.cost().clone(),
    );
    for i in 0..100 {
        builder.push(Rid::new(i, 0));
    }
    let list = builder.finish();
    assert_eq!(list.tier(), "buffer");
    let filter = list.filter();
    let before = allocations();
    let clone = filter.clone();
    assert_eq!(allocations() - before, 0, "filter clones must share storage");
    drop(clone);
}

#[test]
fn hash_join_rows_failing_the_residual_do_not_allocate() {
    use std::sync::Arc;

    use rdb_core::join::hash::HashJoinScan;
    use rdb_core::join::nested::{JoinScan, JoinStepOutcome};
    use rdb_core::join::{JoinOp, JoinRequest, JoinSide, SideId};
    use rdb_storage::{
        shared_meter, shared_pool, Column, CostConfig, FileId, HeapTable, Record, Schema, Value,
        ValueType,
    };

    const ROWS: i64 = 2_000;
    let pool = shared_pool(10_000, shared_meter(CostConfig::default()));
    let table = |name: &str, file: u32| {
        let schema = Schema::new(vec![
            Column::new("K", ValueType::Int),
            Column::new("V", ValueType::Int),
        ]);
        let mut t = HeapTable::with_page_bytes(name, FileId(file), schema, pool.clone(), 2048);
        for i in 0..ROWS {
            t.insert(Record::new(vec![Value::Int(i), Value::Int(i % 7)]))
                .unwrap();
        }
        t
    };
    let (left, right) = (table("L", 0), table("R", 1));
    // Every row is looked at (its Int column read) and rejected.
    let reject = || Arc::new(|r: &Record| r[0].as_i64() == Some(-1));
    let req = JoinRequest::new(
        JoinSide::new(&left).on_column(0).with_residual(reject(), 0.0),
        JoinSide::new(&right).on_column(0).with_residual(reject(), 0.0),
        JoinOp::Eq,
        pool.cost().clone(),
    );

    // Positive control: the counter sees this thread's allocations.
    let before = allocations();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert_eq!(allocations() - before, 1);

    // Warm-up: one whole run faults every page in, and the measured run's
    // first quantum sizes its scratch record.
    let mut warm = HashJoinScan::new(&req, SideId::Left);
    while warm.step(16).unwrap() == JoinStepOutcome::Progress {}
    let mut scan = HashJoinScan::new(&req, SideId::Left);
    assert_eq!(scan.step(16).unwrap(), JoinStepOutcome::Progress);

    let before = allocations();
    while scan.step(16).unwrap() == JoinStepOutcome::Progress {}
    let allocated = allocations() - before;
    assert!(scan.take_pairs().is_empty());
    // Build and probe streamed 2 x 2000 two-Int rows (a `Str` value would
    // still own its bytes). What may allocate is per run, not per row:
    // the chain-head table when the build phase ends.
    assert!(
        allocated <= 2,
        "{allocated} allocations while streaming {} rejected rows",
        2 * ROWS - 16
    );
}

/// A checkpointed two-Int table on a [`rdb_storage::FilePageStore`] behind
/// a 4-page pool, so nearly every page touch is a miss backed by a real
/// frame read. Returns the table, the store and the directory to remove.
fn file_backed_table(
    tag: &str,
    rows: i64,
) -> (
    rdb_storage::HeapTable,
    std::sync::Arc<rdb_storage::FilePageStore>,
    rdb_storage::SharedPool,
    std::path::PathBuf,
) {
    use std::sync::Arc;

    use rdb_storage::{
        shared_meter, shared_pool, Column, CostConfig, DurableCtx, FileId, FilePageStore,
        HeapTable, Record, Schema, SharedStore, Value, ValueType, DURABLE_PAGE_BYTES,
    };

    let dir = std::env::temp_dir().join(format!("rdb-allocfree-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files = Arc::new(FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap());
    let store: SharedStore = files.clone();
    let pool = shared_pool(4, shared_meter(CostConfig::default()));
    let ctx = DurableCtx::new(store, pool.clone(), Vec::new(), Vec::new());
    let schema = Schema::new(vec![
        Column::new("K", ValueType::Int),
        Column::new("V", ValueType::Int),
    ]);
    let mut t =
        HeapTable::with_page_bytes("T", FileId(0), schema, pool.clone(), DURABLE_PAGE_BYTES);
    t.attach_durable(ctx.clone());
    for i in 0..rows {
        t.insert(Record::new(vec![Value::Int(i), Value::Int(i % 7)]))
            .unwrap();
    }
    ctx.checkpoint(b"CAT", |pid| t.page_clone(pid.page)).unwrap();
    t.note_checkpointed();
    pool.clear();
    (t, files, pool, dir)
}

/// The price of a pool miss on a clean checkpointed page is the read:
/// frame into a stack buffer, checked and walked in place, nothing built.
#[test]
fn fetch_that_misses_the_pool_on_a_durable_page_does_not_allocate() {
    use rdb_storage::{PageStore, Record, Rid};

    let (t, files, pool, dir) = file_backed_table("fetch", 40_000);
    let pages = t.page_count();
    assert!(pages >= 64, "need far more pages than the pool holds");
    let cost = pool.cost().clone();
    let mut record = Record::default();
    // Warm-up: opens the data file's handle, sizes the scratch record and
    // this thread's deferred-touch state.
    for p in 0..8 {
        t.fetch_into(Rid::new(p, 0), &cost, &mut record).unwrap();
    }

    let reads_before = files.stats().page_reads;
    let before = allocations();
    // Stride through the file: no page is still resident when revisited.
    let fetches = 200u32;
    for i in 0..fetches {
        t.fetch_into(Rid::new((8 + i * 7) % pages, 1), &cost, &mut record)
            .unwrap();
    }
    let allocated = allocations() - before;
    assert_eq!(
        files.stats().page_reads - reads_before,
        u64::from(fetches),
        "every fetch must have missed and verify-read its frame"
    );
    assert_eq!(allocated, 0, "a miss costs the read, not the allocator");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A cold sequential scan allocates per read-ahead window at most (while
/// the window grows to its depth), never per page.
#[test]
fn cold_sequential_scan_allocates_per_window_not_per_page() {
    use rdb_storage::{PageStore, Record};

    let (t, files, pool, dir) = file_backed_table("scan", 40_000);
    let pages = u64::from(t.page_count());
    let cost = pool.cost().clone();
    let mut record = Record::default();
    // Warm-up as above, through the scan's own entry point.
    let mut scan = t.scan();
    scan.next_into(&t, &cost, &mut record).unwrap();
    pool.clear();

    let stats_before = files.stats();
    let prefetch_before = pool.prefetch_stats();
    let before = allocations();
    let mut scan = t.scan();
    let mut rows = 0u64;
    while scan.next_into(&t, &cost, &mut record).unwrap().is_some() {
        rows += 1;
    }
    let allocated = allocations() - before;
    let read = files.stats().since(&stats_before);
    let windows = pool.prefetch_stats().since(&prefetch_before).runs;
    assert_eq!(rows, 40_000);
    assert_eq!(read.page_reads, pages, "every page was really read");
    assert_eq!(read.batch_reads, windows);
    assert!(windows * 8 < pages, "{windows} windows over {pages} pages");
    // Two vectors may grow per window (frame buffer, outcomes), and only
    // until the depth has settled.
    assert!(
        allocated <= 2 * windows,
        "{allocated} allocations over {windows} windows / {pages} pages"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `T(A, B)` with `A = i % 10` and `B = i % 10` over 150 rows, indexed on
/// both columns: `A = 3` and `B = 4` each match 15 rows, and never the
/// same row.
fn two_index_world() -> (rdb_storage::HeapTable, rdb_btree::BTree, rdb_btree::BTree) {
    use rdb_btree::BTree;
    use rdb_storage::{
        shared_meter, shared_pool, Column, CostConfig, FileId, HeapTable, Record, Schema, Value,
        ValueType,
    };

    let pool = shared_pool(1_000, shared_meter(CostConfig::default()));
    let schema = Schema::new(vec![
        Column::new("A", ValueType::Int),
        Column::new("B", ValueType::Int),
    ]);
    let mut table = HeapTable::with_page_bytes("T", FileId(0), schema, pool.clone(), 1024);
    let mut ia = BTree::new("IDX_A", FileId(1), pool.clone(), vec![0], 16);
    let mut ib = BTree::new("IDX_B", FileId(2), pool, vec![1], 16);
    for i in 0..150 {
        let v = Value::Int(i % 10);
        let rid = table
            .insert(Record::new(vec![v.clone(), v.clone()]))
            .unwrap();
        ia.insert(vec![v.clone()], rid);
        ib.insert(vec![v], rid);
    }
    (table, ia, ib)
}

/// Runs an untraced Jscan over `ranges` (one per index, in order) to the
/// end: the allocations of the whole run (construction included) and of
/// the step that finished it.
fn jscan_allocations(
    table: &rdb_storage::HeapTable,
    indexes: [(&rdb_btree::BTree, rdb_btree::KeyRange); 2],
    rules: rdb_core::KillRules,
) -> (u64, u64, rdb_core::JscanOutcome) {
    use rdb_core::jscan::JscanStatus;
    use rdb_core::{Jscan, JscanConfig, JscanIndex};

    let indexes = Vec::from(indexes.map(|(tree, range)| JscanIndex {
        tree,
        range,
        estimate: 15.0,
    }));
    let config = JscanConfig {
        tiny_list_shortcut: 0,
        ..JscanConfig::default()
    };
    let cost = table.pool().cost().clone();
    let before = allocations();
    let mut jscan = Jscan::new(table, indexes, config, rules, cost);
    let last_step = loop {
        let step = allocations();
        if jscan.step() == JscanStatus::Finished {
            break allocations() - step;
        }
    };
    let outcome = jscan.take_outcome();
    (allocations() - before, last_step, outcome)
}

/// With no tracer attached a Jscan writes down none of its decisions. A
/// run whose lists stay in the inline tier allocates a stated number of
/// times, and the step that completes or discards the last scan allocates
/// nothing: the scans step by RID only (`RangeScan::next_rid`), so no key
/// is copied, and no decision is written down.
#[test]
fn untraced_jscan_decisions_do_not_allocate() {
    use rdb_btree::KeyRange;
    use rdb_core::{JscanOutcome, KillRules};

    let (table, ia, ib) = two_index_world();
    let complete = || [(&ia, KeyRange::eq(3)), (&ib, KeyRange::eq(4))];
    // Warm-up: faults every page in and sizes this thread's pool state.
    let _ = jscan_allocations(&table, complete(), KillRules::default());

    // IDX_A completes a 15-RID inline list; IDX_B keeps none of its 15
    // entries and completes empty: end of data. The 8 allocations open the
    // two scans and install IDX_A's filter; no key is copied, and no kept
    // RID is copied outside its list.
    let (run, last, outcome) = jscan_allocations(&table, complete(), KillRules::default());
    assert!(matches!(outcome, JscanOutcome::Empty), "{outcome:?}");
    assert_eq!((run, last), (8, 0), "(whole run, step completing IDX_B)");

    // IDX_B now covers 30 entries, none kept; a zero spend limit discards
    // it after its first quantum of 16, and IDX_A's list is the final list.
    let discard = KillRules {
        spend_limit: 0.0,
        ..KillRules::default()
    };
    let (run, last, outcome) = jscan_allocations(
        &table,
        [(&ia, KeyRange::eq(3)), (&ib, KeyRange::closed(4, 5))],
        discard,
    );
    assert!(
        matches!(&outcome, JscanOutcome::FinalList(l) if l.len() == 15),
        "{outcome:?}"
    );
    assert_eq!((run, last), (6, 0), "(whole run, step discarding IDX_B)");
}

//! Proves the paper's "avoiding any run-time allocation" claim for the
//! inline RID tier (Section 6): accumulating up to `inline_max` RIDs and
//! probing a built filter perform **zero** heap allocations per RID.
//!
//! The same allocator proves the join lanes' copy-on-survive rule: a hash
//! join whose rows all fail their residual decodes every one of them into
//! its scratch record and allocates nothing per row.
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
    assert!(scan.pairs().is_empty());
    // Build and probe streamed 2 x 2000 two-Int rows (a `Str` value would
    // still own its bytes). What may allocate is per run, not per row:
    // the chain-head table when the build phase ends.
    assert!(
        allocated <= 2,
        "{allocated} allocations while streaming {} rejected rows",
        2 * ROWS - 16
    );
}

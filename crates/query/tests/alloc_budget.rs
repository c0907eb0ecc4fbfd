//! Three allocation budgets: a warm statement's — what the ad-hoc front
//! end (parse plus resolve / lower) and a prepared run allocate — a warm
//! prepared join's, per delivered row, and a clean reopen's, per row of
//! the table it rebuilds.
//!
//! The four warm shapes of the benchmark's `adhoc-warm` mix run on a
//! FAMILIES table whose bindings select a handful of rows. Per shape a
//! counting allocator measures one warm prepared execution (skeleton
//! cached) and one ad-hoc execution of the same statement
//! and binding; the ad-hoc run's surplus over the prepared one is what
//! parsing and resolving the statement cost.
//!
//! Counts at commit `bee4f74`, before the lexer borrowed, resolve stopped
//! copying names and runs stopped formatting a string decision log:
//!
//! | shape        | parse + resolve | prepared run |
//! |--------------|-----------------|--------------|
//! | point-tiny   | 43              | 32           |
//! | top10        | 52              | 54           |
//! | conj3-tiny   | 68              | 32           |
//! | window4-tiny | 70              | 33           |
//!
//! The gates below hold parse + resolve to a third of those, and a
//! prepared run to one allocation above its count once the run stopped
//! building a string log and strategy names and copying output names — so
//! none of them can creep back unnoticed.
//!
//! A warm prepared two-table join in the benchmark's `join-race`
//! `both-sides` shape (2 000 parents, 8 000 children, residuals on both
//! sides) made **1 490 allocations for its 109 delivered rows** at commit
//! `78dc456`: three lanes raced (both hash orientations and merge-rid),
//! every hash build row was kept as its own record, and every delivered
//! pair cloned both records before the finish built its row. The gate
//! below allows one allocation per delivered row plus a fixed allowance
//! for the run, once the race runs one lane when nothing speculative is
//! admitted, the build rows share one value arena and a lane builds the
//! output row itself.
//!
//! A clean reopen of the durable 10 000-row, two-index table below made
//! **40.3 allocations per row** at commit `0f5f207`: the index bulk loader
//! cloned both keys on every sort comparison, each index rescanned the
//! heap, and the recovered pages were cloned into the heap. The gate below
//! holds it to 6 per row once the keys sort in place and move into their
//! leaves, one heap pass feeds both loaders and the pages move.
//!
//! The count is per thread, so the test harness's other threads cannot
//! perturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rdb_query::prelude::*;

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

/// Allocations `f` makes on the calling thread, fewest of three runs.
fn allocations(mut f: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.with(Cell::get);
            f();
            ALLOCATIONS.with(Cell::get) - before
        })
        .min()
        .unwrap_or(0)
}

fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// FAMILIES(ID, AGE, CITY, REGION, INCOME_BAND) with an index on every
/// column but ID. Nine rows in ten live in the first hundred cities; the
/// rest spread thinly over four hundred more, so a tail city holds a
/// handful of rows. INCOME_BAND follows AGE three times in four.
fn families() -> (Db, i64) {
    let mut db = Db::builder().open().unwrap();
    let columns = ["ID", "AGE", "CITY", "REGION", "INCOME_BAND"];
    db.create_table(
        "FAMILIES",
        Schema::new(columns.map(|c| Column::new(c, ValueType::Int)).to_vec()),
    )
    .unwrap();
    let mut state = 1993;
    let mut tail_rows = [0u32; 500];
    for id in 0..10_000i64 {
        let age = (next(&mut state) % 100) as i64;
        let city = if next(&mut state) % 10 < 9 {
            next(&mut state) % 100
        } else {
            100 + next(&mut state) % 400
        } as i64;
        tail_rows[city as usize] += 1;
        let income = if next(&mut state).is_multiple_of(4) {
            (next(&mut state) % 100) as i64
        } else {
            age
        };
        let row = [id, age, city, id / 100, income].map(Value::Int).to_vec();
        db.insert("FAMILIES", row).unwrap();
    }
    for (name, column) in [
        ("IDX_AGE", "AGE"),
        ("IDX_CITY", "CITY"),
        ("IDX_REGION", "REGION"),
        ("IDX_INCOME", "INCOME_BAND"),
    ] {
        db.create_index(name, "FAMILIES", &[column]).unwrap();
    }
    let tiny_city = (100..500).find(|&c| tail_rows[c] == 2).unwrap_or(100) as i64;
    (db, tiny_city)
}

struct Shape {
    name: &'static str,
    sql: &'static str,
    /// The old counts (see the module docs) and the gates.
    front_end_before: u64,
    front_end_max: u64,
    prepared_before: u64,
    prepared_max: u64,
}

const SHAPES: [Shape; 4] = [
    Shape {
        name: "point-tiny",
        sql: "select * from FAMILIES where CITY = :C",
        front_end_before: 43,
        front_end_max: 14,
        prepared_before: 32,
        prepared_max: 17,
    },
    Shape {
        name: "top10",
        sql: "select * from FAMILIES where AGE >= :A1 order by AGE limit to 10 rows",
        front_end_before: 52,
        front_end_max: 17,
        prepared_before: 54,
        prepared_max: 38,
    },
    Shape {
        name: "conj3-tiny",
        sql: "select ID, AGE, CITY from FAMILIES \
              where AGE >= :A1 and INCOME_BAND >= :I and CITY = :C",
        front_end_before: 68,
        front_end_max: 22,
        prepared_before: 32,
        prepared_max: 17,
    },
    Shape {
        name: "window4-tiny",
        sql: "select ID, AGE from FAMILIES \
              where AGE between :L and :H and CITY = :C and INCOME_BAND >= :I",
        front_end_before: 70,
        front_end_max: 23,
        prepared_before: 33,
        prepared_max: 18,
    },
];

#[test]
fn warm_statements_stay_inside_their_allocation_budget() {
    let (db, city) = families();
    let bind = |pairs: &[(&str, i64)]| {
        pairs
            .iter()
            .fold(QueryOptions::new(), |o, &(var, v)| o.with_param(var, v))
    };
    let bindings = [
        bind(&[("C", city)]),
        bind(&[("A1", 95)]),
        bind(&[("A1", 70), ("I", 70), ("C", city)]),
        bind(&[("L", 20), ("H", 60), ("C", city), ("I", 60)]),
    ];
    let mut over = Vec::new();
    for (shape, opts) in SHAPES.iter().zip(&bindings) {
        let stmt = db.prepare(shape.sql).unwrap();
        let expected = db.query(shape.sql, opts).unwrap().rows.len();
        for _ in 0..2 {
            assert_eq!(stmt.execute(opts).unwrap().rows.len(), expected);
        }
        let prepared = allocations(|| {
            stmt.execute(opts).unwrap();
        });
        let adhoc = allocations(|| {
            db.query(shape.sql, opts).unwrap();
        });
        let front_end = adhoc.saturating_sub(prepared);
        println!(
            "{:<13} parse + resolve {front_end:>3} (was {}, budget {}), prepared run {prepared:>3} \
             (was {}, budget {})",
            shape.name,
            shape.front_end_before,
            shape.front_end_max,
            shape.prepared_before,
            shape.prepared_max,
        );
        if front_end > shape.front_end_max || prepared > shape.prepared_max {
            over.push(shape.name);
        }
    }
    assert!(over.is_empty(), "over the allocation budget: {over:?}");
}

/// PARENT(ID, KIND = ID mod 16) and CHILD(FK, X), 2 000 and 8 000 rows,
/// every parent with four children and X spread over 0..32, both join
/// columns indexed: the benchmark's `join-race` tables.
fn parent_child() -> Db {
    let mut db = Db::builder()
        .page_bytes(2048)
        .pool_pages(128)
        .open()
        .unwrap();
    let ints =
        |names: [&str; 2]| Schema::new(names.map(|n| Column::new(n, ValueType::Int)).to_vec());
    db.create_table("PARENT", ints(["ID", "KIND"])).unwrap();
    db.create_table("CHILD", ints(["FK", "X"])).unwrap();
    for id in 0..2_000i64 {
        db.insert("PARENT", vec![Value::Int(id), Value::Int(id % 16)])
            .unwrap();
    }
    let mut state = 1993;
    for i in 0..8_000i64 {
        let x = (next(&mut state) % 32) as i64;
        db.insert("CHILD", vec![Value::Int(i % 2_000), Value::Int(x)])
            .unwrap();
    }
    db.create_index("IDX_P", "PARENT", &["ID"]).unwrap();
    db.create_index("IDX_C", "CHILD", &["FK"]).unwrap();
    db
}

/// What a warm prepared join may allocate beyond one per delivered row:
/// binding both residuals, the request, admission's candidate list and
/// reports, the scan and its scratch records, the growth of the hash
/// arena, the pair list and the result, and the plan-cache lookup.
const JOIN_FIXED_MAX: u64 = 64;

#[test]
fn a_prepared_join_allocates_once_per_delivered_row() {
    let db = parent_child();
    let sql = "select ID, X from PARENT, CHILD where ID = FK and KIND = :K and X >= :X0";
    let stmt = db.prepare(sql).unwrap();
    let opts = QueryOptions::new()
        .with_param("K", 3i64)
        .with_param("X0", 24i64);
    let rows = db.query(sql, &opts).unwrap().rows.len() as u64;
    assert!(rows > 0);
    for _ in 0..2 {
        assert_eq!(stmt.execute(&opts).unwrap().rows.len() as u64, rows);
    }
    let allocated = allocations(|| {
        stmt.execute(&opts).unwrap();
    });
    println!(
        "both-sides join {allocated} allocations for {rows} delivered rows (budget rows + \
         {JOIN_FIXED_MAX})"
    );
    assert!(
        allocated <= rows + JOIN_FIXED_MAX,
        "a warm prepared join made {allocated} allocations for {rows} rows"
    );
}

/// Rows of the reopened table, and the allocations per row a clean reopen
/// may make (see the module docs for the count before).
const REOPEN_ROWS: i64 = 10_000;
const REOPEN_PER_ROW_BEFORE: f64 = 40.3;
const REOPEN_PER_ROW_MAX: f64 = 6.0;

#[test]
fn clean_reopen_stays_inside_its_allocation_budget() {
    let dir = std::env::temp_dir().join(format!("rdb-alloc-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || Db::builder().path(&dir).pool_pages(256).open().unwrap();
    let mut db = open();
    db.create_table(
        "T",
        Schema::new(vec![
            Column::new("ID", ValueType::Int),
            Column::new("K", ValueType::Int),
            Column::new("G", ValueType::Int),
            Column::new("V", ValueType::Int),
            Column::new("PAD", ValueType::Str),
        ]),
    )
    .unwrap();
    db.create_index("IDX_K", "T", &["K"]).unwrap();
    db.create_index("IDX_G", "T", &["G"]).unwrap();
    let mut state = 1993;
    for id in 0..REOPEN_ROWS {
        let k = (next(&mut state) % 2500) as i64;
        let row = vec![
            Value::Int(id),
            Value::Int(k),
            Value::Int(id / 100),
            Value::Int(0),
            Value::Str(format!("{id:0>32}")),
        ];
        db.insert("T", row).unwrap();
    }
    db.close().unwrap();

    let per_row = allocations(|| {
        let db = open();
        assert_eq!(db.row_count("T"), Some(REOPEN_ROWS as u64));
    }) as f64
        / REOPEN_ROWS as f64;
    println!(
        "clean reopen   {per_row:.1} allocations per row (was {REOPEN_PER_ROW_BEFORE}, \
         budget {REOPEN_PER_ROW_MAX})"
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        per_row <= REOPEN_PER_ROW_MAX,
        "a clean reopen made {per_row:.1} allocations per row"
    );
}

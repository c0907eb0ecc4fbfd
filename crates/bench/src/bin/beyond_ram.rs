//! Beyond-RAM I/O gate — the regime the paper's competition model was
//! built for: tables much larger than the buffer pool, where every
//! optimizer mistake costs real disk traffic.
//!
//! Three hard gates, all on a table at least 8x the pool capacity:
//!
//! 1. **Sequential read-ahead** (wall clock, file-backed): a cold full
//!    scan with read-ahead on must not be slower than the same scan with
//!    read-ahead off (`READAHEAD_MIN_SPEEDUP`, default 1.0x). Off, every
//!    miss of a checkpointed page is its own positioned frame read on the
//!    store's open handle; on, the adaptive window batches up to 64
//!    frames into one read, so what it saves is a syscall per page — not,
//!    as it once did, an `open()` per page, which is why the floor is a
//!    sanity bound rather than 1.5x. The run cross-checks grounding both
//!    ways: real page reads equal the cost meter's simulated misses, and
//!    the batched path issues a small fraction of the off-path's reads.
//! 2. **A verified read costs what the read costs** (wall clock, a ratio
//!    taken within one run, so it holds on any box): a checksummed,
//!    structure-checked frame read through the store must cost at most
//!    `VERIFIED_READ_MAX_RATIO` (3x) a bare positioned 4 KiB read of the
//!    same offsets of the same file. This is the gate on the buffer-pool
//!    miss path's own overhead: checksum, handle lookup, image walk.
//! 3. **Scan-resistant retention** (deterministic, simulated): a hot
//!    128-page working set is re-touched between rounds of a big
//!    sequential sweep through a 512-page pool. Midpoint-insertion LRU
//!    must keep the hot set's hit rate at least `RETENTION_MIN_RATIO`x
//!    (default 2x) the pure-LRU baseline — under pure LRU each sweep
//!    flushes the working set, under midpoint insertion single-touch
//!    scan pages die in the old sublist.
//!
//! Environment knobs:
//!
//! * `READAHEAD_MIN_SPEEDUP` — gate 1 floor (default 1.0).
//! * `RETENTION_MIN_RATIO` — gate 3 floor (default 2.0).
//! * `BEYOND_RAM_JSON` — path to write the machine-readable report (the
//!   committed `BENCH_beyond_ram.json` at the repo root), stamped with the
//!   checkout's commit and the host's parallelism.
//!
//! Run: `cargo run --release -p rdb-bench --bin beyond_ram`

use std::path::PathBuf;
use std::time::Instant;

use rdb_bench::report::{commit, host_parallelism, print_table};
use rdb_query::prelude::*;
use rdb_storage::{
    shared_meter, BufferPool, Column, CostConfig, EvictionPolicy, FileId, FilePageStore, PageId,
    Schema, ValueType, FRAME_BYTES,
};

/// Buffer-pool capacity for the file-backed scan gate, in pages.
const POOL_PAGES: usize = 256;

/// Minimum table size relative to the pool (the "beyond-RAM" bar).
const TABLE_OVER_POOL: u32 = 8;

/// Gate 2 ceiling: a verified frame read over a bare positioned read of
/// the same 4 KiB. Not an environment knob — the ratio is box-independent.
const VERIFIED_READ_MAX_RATIO: f64 = 3.0;

fn env_floor(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn bench_dir() -> PathBuf {
    std::env::temp_dir().join(format!("rdb-bench-beyond-ram-{}", std::process::id()))
}

fn best_of<T>(n: usize, mut run: impl FnMut() -> T) -> (T, f64) {
    let mut out = run(); // warm-up pass, also the returned value
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t = Instant::now();
        out = run();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    (out, best)
}

/// Builds the beyond-RAM table: small heap pages over 4K disk frames so
/// the page count dwarfs the pool, then checkpoints so every page has a
/// clean frame (cold misses perform real verify-reads).
fn build(dir: &PathBuf) -> Db {
    let _ = std::fs::remove_dir_all(dir);
    let mut db = Db::builder()
        .path(dir)
        .page_bytes(512)
        .pool_pages(POOL_PAGES)
        .open()
        .expect("open fresh bench db");
    db.create_table(
        "BIGTAB",
        Schema::new(vec![
            Column::new("ID", ValueType::Int),
            Column::new("PAYLOAD", ValueType::Str),
        ]),
    )
    .expect("create table");
    let mut i = 0i64;
    loop {
        db.insert(
            "BIGTAB",
            vec![Value::Int(i), Value::Str(format!("{i:>08}-{}", "x".repeat(350)))],
        )
        .expect("insert row");
        i += 1;
        // Stop once the heap is comfortably past the beyond-RAM bar.
        if i % 1024 == 0 {
            let pages = db.heap("BIGTAB").expect("table").page_count();
            if pages >= TABLE_OVER_POOL * POOL_PAGES as u32 {
                break;
            }
        }
    }
    db.checkpoint().expect("checkpoint");
    db
}

/// One bare positioned read of `buf.len()` bytes at `offset`: what the
/// operating system charges for the bytes, with nothing checked.
fn bare_read(file: &mut std::fs::File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }
}

/// Gate 2's measurement: per-read cost of `verify_page` over every frame
/// of BIGTAB against a bare read of the same offsets through a private
/// handle on the same file, alternating the two pass by pass and keeping
/// each side's best pass. Returns `(verified ns, bare ns)` per read.
fn frame_read_costs(db: &Db, dir: &std::path::Path) -> (f64, f64) {
    let store = db.store().expect("durable store");
    let file = db.heap("BIGTAB").expect("table").file();
    let pages = db.heap("BIGTAB").expect("table").page_count();
    let mut raw = std::fs::File::open(FilePageStore::data_path(dir, file)).expect("data file");
    let mut frame = [0u8; FRAME_BYTES];
    let (mut verified, mut bare) = (f64::INFINITY, f64::INFINITY);
    let before = store.stats();
    const PASSES: u32 = 8; // the first warms both paths and is discarded
    for pass in 0..PASSES {
        let t = Instant::now();
        for p in 0..pages {
            store.verify_page(PageId::new(file, p)).expect("verified read");
        }
        let v = t.elapsed().as_nanos() as f64 / f64::from(pages);
        let t = Instant::now();
        for p in 0..pages {
            bare_read(&mut raw, u64::from(p) * FRAME_BYTES as u64, &mut frame).expect("bare read");
            std::hint::black_box(&frame);
        }
        let b = t.elapsed().as_nanos() as f64 / f64::from(pages);
        if pass > 0 {
            verified = verified.min(v);
            bare = bare.min(b);
        }
    }
    assert_eq!(
        store.stats().since(&before).page_reads,
        u64::from(PASSES * pages),
        "every verify must have read and checked a real frame"
    );
    (verified, bare)
}

/// What gates 1 and 2 measured on the file-backed table.
struct FileGates {
    speedup: f64,
    on_ms: f64,
    off_ms: f64,
    on_reads: u64,
    on_batches: u64,
    off_reads: u64,
    verified_ns: f64,
    bare_ns: f64,
    pages: u32,
    rows: usize,
}

/// Gates 1 and 2: cold sequential scan with read-ahead on vs off, then the
/// verified-vs-bare frame read, on one build of the table.
fn file_gates() -> FileGates {
    let dir = bench_dir();
    let db = build(&dir);
    let opts = QueryOptions::new();
    let store = db.store().expect("durable store").clone();
    let pages = db.heap("BIGTAB").expect("table").page_count();
    let rows = db.row_count("BIGTAB").expect("row count") as usize;
    assert!(
        pages >= TABLE_OVER_POOL * POOL_PAGES as u32,
        "table spans {pages} pages, below the beyond-RAM bar of {}x pool ({} pages)",
        TABLE_OVER_POOL,
        TABLE_OVER_POOL * POOL_PAGES as u32
    );

    let cold_scan = |label: &str| {
        db.clear_cache();
        let before = store.stats();
        let result = db.query("select ID from BIGTAB", &opts).expect(label);
        assert_eq!(result.rows.len(), rows, "{label}: row count");
        let real = store.stats().since(&before);
        assert_eq!(
            real.page_reads, result.metrics.pool_misses,
            "{label}: the cost meter's I/O unit must match real page reads cold"
        );
        real
    };

    db.pool().set_read_ahead(true);
    let (on_stats, on_ns) = best_of(5, || cold_scan("cold scan, read-ahead on"));
    db.pool().set_read_ahead(false);
    let (off_stats, off_ns) = best_of(5, || cold_scan("cold scan, read-ahead off"));
    db.pool().set_read_ahead(true);

    assert!(
        on_stats.batch_reads * 2 <= on_stats.page_reads,
        "read-ahead must batch: {} batched reads for {} pages",
        on_stats.batch_reads,
        on_stats.page_reads
    );
    let (verified_ns, bare_ns) = frame_read_costs(&db, &dir);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "beyond_ram/read_ahead: on {:.2} ms ({} reads in {} batches) vs off {:.2} ms ({} reads)",
        on_ns / 1e6,
        on_stats.page_reads,
        on_stats.batch_reads,
        off_ns / 1e6,
        off_stats.page_reads,
    );
    println!(
        "beyond_ram/frame_read: verified {:.2} us vs bare positioned read {:.2} us",
        verified_ns / 1e3,
        bare_ns / 1e3,
    );
    FileGates {
        speedup: off_ns / on_ns.max(1.0),
        on_ms: on_ns / 1e6,
        off_ms: off_ns / 1e6,
        on_reads: on_stats.page_reads,
        on_batches: on_stats.batch_reads,
        off_reads: off_stats.page_reads,
        verified_ns,
        bare_ns,
        pages,
        rows,
    }
}

/// One retention experiment: warm a hot working set into `pool`, then
/// alternate hot re-touches with sequential sweep chunks and report the
/// hot set's hit rate across the pressured rounds.
fn retention_run(policy: EvictionPolicy) -> f64 {
    const CAPACITY: usize = 512;
    const HOT: u32 = 128;
    const FILLER: u32 = 192;
    const ROUNDS: u32 = 16;
    let pool = BufferPool::with_policy(CAPACITY, 1, policy, shared_meter(CostConfig::default()));
    let cost = pool.cost().clone();
    let hot_file = FileId(0);
    let scan_file = FileId(1);
    let touch_hot = |pool: &BufferPool| {
        for p in 0..HOT {
            pool.access(PageId::new(hot_file, p), &cost);
        }
    };
    // Warmup: fault the hot set in (first touch lands in the old
    // sublist), push filler pages through so the midpoint demotions
    // churn past it, then re-touch — the second touch promotes the hot
    // set into the young sublist, marking it as genuinely re-referenced.
    touch_hot(&pool);
    for p in 0..FILLER {
        pool.access(PageId::new(FileId(2), p), &cost);
    }
    touch_hot(&pool);
    let mut hot_hits = 0u64;
    for round in 0..ROUNDS {
        let before = pool.hits();
        touch_hot(&pool);
        hot_hits += pool.hits() - before;
        // One sweep chunk: a pool-sized run of never-again pages, the
        // canonical beyond-RAM sequential scan.
        let first = round * CAPACITY as u32;
        for p in first..first + CAPACITY as u32 {
            pool.access(PageId::new(scan_file, p), &cost);
        }
    }
    hot_hits as f64 / f64::from(HOT * ROUNDS)
}

fn main() {
    let readahead_floor = env_floor("READAHEAD_MIN_SPEEDUP", 1.0);
    let retention_floor = env_floor("RETENTION_MIN_RATIO", 2.0);

    let FileGates {
        speedup,
        on_ms,
        off_ms,
        on_reads,
        on_batches,
        off_reads,
        verified_ns,
        bare_ns,
        pages,
        rows,
    } = file_gates();
    let read_ratio = verified_ns / bare_ns.max(1.0);

    let mid_rate = retention_run(EvictionPolicy::Midpoint);
    let lru_rate = retention_run(EvictionPolicy::Lru);
    // A zero-hit LRU baseline (each sweep flushes everything) makes the
    // ratio degenerate; the absolute check keeps the gate meaningful.
    let ratio = mid_rate / lru_rate.max(1e-9);
    println!(
        "beyond_ram/retention: midpoint hot hit rate {:.1}% vs pure LRU {:.1}%",
        mid_rate * 100.0,
        lru_rate * 100.0,
    );

    print_table(
        &["gate", "measured", "floor"],
        &[
            vec![
                "cold-scan read-ahead speedup".into(),
                format!("{speedup:.2}x"),
                format!("{readahead_floor:.2}x"),
            ],
            vec![
                "verified frame read / bare 4 KiB read".into(),
                format!("{read_ratio:.2}x"),
                format!("<= {VERIFIED_READ_MAX_RATIO:.2}x"),
            ],
            vec![
                "hot hit rate, midpoint vs LRU".into(),
                format!("{:.1}% / {:.1}%", mid_rate * 100.0, lru_rate * 100.0),
                format!("{retention_floor:.2}x ratio"),
            ],
        ],
    );

    assert!(
        speedup >= readahead_floor,
        "read-ahead gate: cold sequential scan is only {speedup:.2}x over prefetch-off, \
         below the READAHEAD_MIN_SPEEDUP floor of {readahead_floor:.2}x"
    );
    assert!(
        read_ratio <= VERIFIED_READ_MAX_RATIO,
        "frame-read gate: a verified read costs {:.2} us, {read_ratio:.2}x the bare positioned \
         read's {:.2} us — above the {VERIFIED_READ_MAX_RATIO:.2}x ceiling",
        verified_ns / 1e3,
        bare_ns / 1e3
    );
    assert!(
        ratio >= retention_floor && mid_rate >= 0.9,
        "retention gate: midpoint hit rate {:.3} (LRU {:.3}, ratio {ratio:.2}) below the \
         RETENTION_MIN_RATIO floor of {retention_floor:.2}x (and 0.9 absolute)",
        mid_rate,
        lru_rate
    );
    println!("beyond_ram: all three gates passed");

    if let Ok(path) = std::env::var("BEYOND_RAM_JSON") {
        let out = format!(
            "{{\n  \"bench\": \"crates/bench/src/bin/beyond_ram.rs\",\n  \
             \"command\": \"BEYOND_RAM_JSON=BENCH_beyond_ram.json cargo run --release -p rdb-bench --bin beyond_ram\",\n  \
             \"commit\": \"{}\",\n  \"host_parallelism\": {},\n  \
             \"note\": \"Beyond-RAM gates on a table >= 8x pool capacity: cold sequential scan with \
             adaptive read-ahead vs per-page reads on the store's open handle (wall clock, floor \
             {readahead_floor}x: not slower), a verified frame read vs a bare positioned 4 KiB read of \
             the same file in the same run (ratio, ceiling {VERIFIED_READ_MAX_RATIO}x), and hot \
             working-set retention under sequential sweep pressure, midpoint-insertion LRU vs pure \
             LRU (deterministic simulation, floor {retention_floor}x). In-run asserts ground them: \
             real reads == simulated misses cold, the batched path issues <= half the reads, every \
             verify read a real frame.\",\n  \
             \"table_pages\": {pages},\n  \"pool_pages\": {POOL_PAGES},\n  \"rows\": {rows},\n  \
             \"read_ahead\": {{\n    \"speedup\": {speedup:.2},\n    \"on_ms\": {on_ms:.2},\n    \
             \"off_ms\": {off_ms:.2},\n    \"on_page_reads\": {on_reads},\n    \
             \"on_batch_reads\": {on_batches},\n    \"off_page_reads\": {off_reads}\n  }},\n  \
             \"frame_read\": {{\n    \"verified_us\": {:.3},\n    \"bare_us\": {:.3},\n    \
             \"ratio\": {read_ratio:.2},\n    \"ceiling\": {VERIFIED_READ_MAX_RATIO}\n  }},\n  \
             \"retention\": {{\n    \"midpoint_hot_hit_rate\": {mid_rate:.4},\n    \
             \"lru_hot_hit_rate\": {lru_rate:.4}\n  }}\n}}\n",
            commit(),
            host_parallelism(),
            verified_ns / 1e3,
            bare_ns / 1e3,
        );
        std::fs::write(&path, out).expect("write beyond_ram json");
        println!("wrote {path}");
    }
}

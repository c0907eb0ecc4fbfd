//! `beyond_ram`: the regime the paper's competition model was built
//! for — tables much larger than the buffer pool, where every optimizer
//! mistake costs real disk traffic.
//!
//! Three hard gates, all on a table at least 8x the pool capacity:
//!
//! 1. **Sequential read-ahead** (wall clock, file-backed): a cold full
//!    scan with read-ahead on must not be slower than the same scan with
//!    read-ahead off (`READ_AHEAD_FLOOR`, 1.0x; the two are interleaved
//!    rounds, best of each). Off, every miss of a checkpointed page is
//!    its own positioned frame read on the store's open handle; on, the
//!    adaptive window batches up to 64 frames into one read, so what it
//!    saves is a syscall per page — not, as it once did, an `open()` per
//!    page, which is why the floor is a sanity bound rather than 1.5x.
//!    The run cross-checks grounding both ways: real page reads equal the
//!    cost meter's simulated misses, and the batched path issues a small
//!    fraction of the off-path's reads.
//! 2. **A verified read costs what the read costs** (wall clock, a ratio
//!    taken within one run, so it holds on any box): a checksummed,
//!    structure-checked frame read through the store must cost at most
//!    `VERIFIED_READ_MAX_RATIO` (3x) a bare positioned 4 KiB read of the
//!    same offsets of the same file. This is the gate on the buffer-pool
//!    miss path's own overhead: checksum, handle lookup, image walk.
//! 3. **Scan-resistant retention** (deterministic, simulated): a hot
//!    128-page working set is re-touched between rounds of a big
//!    sequential sweep through a 512-page pool. Midpoint-insertion LRU
//!    must keep the hot set's hit rate at least `RETENTION_FLOOR`x (2x)
//!    the pure-LRU baseline, and at least `MIDPOINT_FLOOR` (0.9) absolute
//!    — under pure LRU each sweep flushes the working set, under midpoint
//!    insertion single-touch scan pages die in the old sublist.

use std::path::PathBuf;

use rdb_bench::gate::{interleaved, Bound, Json, Report, Verdicts};
use rdb_query::prelude::*;
use rdb_storage::{
    shared_meter, BufferPool, Column, CostConfig, EvictionPolicy, FileId, FilePageStore, PageId,
    Schema, ValueType, FRAME_BYTES,
};

/// Buffer-pool capacity for the file-backed scan gate, in pages.
const POOL_PAGES: usize = 256;

/// Minimum table size relative to the pool (the "beyond-RAM" bar).
const TABLE_OVER_POOL: u32 = 8;

/// Gate 1 floor: cold-scan time with read-ahead off over on.
const READ_AHEAD_FLOOR: f64 = 1.0;

/// Gate 2 ceiling: a verified frame read over a bare positioned read of
/// the same 4 KiB.
const VERIFIED_READ_MAX_RATIO: f64 = 3.0;

/// Gate 3 floors: the hot set's hit rate under midpoint insertion, over
/// pure LRU's and absolute.
const RETENTION_FLOOR: f64 = 2.0;
const MIDPOINT_FLOOR: f64 = 0.9;

const GATE: &str = "beyond_ram";

fn bench_dir() -> PathBuf {
    std::env::temp_dir().join(format!("rdb-bench-beyond-ram-{}", std::process::id()))
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
            vec![
                Value::Int(i),
                Value::Str(format!("{i:>08}-{}", "x".repeat(350))),
            ],
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
/// handle on the same file, the two as interleaved rounds, keeping each
/// side's best pass. Returns `(verified ns, bare ns)` per read.
fn frame_read_costs(db: &Db, dir: &std::path::Path) -> (f64, f64) {
    const ROUNDS: u32 = 7;
    let store = db.store().expect("durable store");
    let file = db.heap("BIGTAB").expect("table").file();
    let pages = db.heap("BIGTAB").expect("table").page_count();
    let mut raw = std::fs::File::open(FilePageStore::data_path(dir, file)).expect("data file");
    let mut frame = [0u8; FRAME_BYTES];
    let before = store.stats();
    let rounds = interleaved(ROUNDS as usize, 2, |side| {
        for p in 0..pages {
            if side == 0 {
                store
                    .verify_page(PageId::new(file, p))
                    .expect("verified read");
            } else {
                bare_read(&mut raw, u64::from(p) * FRAME_BYTES as u64, &mut frame)
                    .expect("bare read");
                std::hint::black_box(&frame);
            }
        }
    });
    // The warm-up pass verified every page too.
    assert_eq!(
        store.stats().since(&before).page_reads,
        u64::from((ROUNDS + 1) * pages),
        "every verify must have read and checked a real frame"
    );
    let per_read = |side| rounds.best_ns(side) / f64::from(pages);
    (per_read(0), per_read(1))
}

/// Gates 1 and 2: cold sequential scan with read-ahead on vs off, then the
/// verified-vs-bare frame read, on one build of the table. Returns their
/// report fields.
fn file_gates(verdicts: &mut Verdicts) -> Vec<(&'static str, Json)> {
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

    let rounds = interleaved(5, 2, |side| {
        let on = side == 0;
        db.pool().set_read_ahead(on);
        cold_scan(if on {
            "cold scan, read-ahead on"
        } else {
            "cold scan, read-ahead off"
        })
    });
    db.pool().set_read_ahead(true);
    let (on_ns, off_ns) = (rounds.best_ns(0), rounds.best_ns(1));
    let (on_stats, off_stats) = (&rounds.0[0][0].out, &rounds.0[0][1].out);

    assert!(
        on_stats.batch_reads * 2 <= on_stats.page_reads,
        "read-ahead must batch: {} batched reads for {} pages",
        on_stats.batch_reads,
        on_stats.page_reads
    );
    let (verified_ns, bare_ns) = frame_read_costs(&db, &dir);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    let speedup = off_ns / on_ns.max(1.0);
    let read_ratio = verified_ns / bare_ns.max(1.0);
    verdicts.check(
        GATE,
        "cold scan, read-ahead off / on time",
        speedup,
        Bound::AtLeast(READ_AHEAD_FLOOR),
    );
    verdicts.check(
        GATE,
        "verified frame read / bare 4 KiB read",
        read_ratio,
        Bound::AtMost(VERIFIED_READ_MAX_RATIO),
    );
    vec![
        ("table_pages", Json::int(pages)),
        ("pool_pages", Json::int(POOL_PAGES)),
        ("rows", Json::int(rows)),
        (
            "read_ahead",
            Json::Obj(vec![
                ("speedup", Json::num(speedup, 2)),
                ("on_ms", Json::num(on_ns / 1e6, 2)),
                ("off_ms", Json::num(off_ns / 1e6, 2)),
                ("on_page_reads", Json::int(on_stats.page_reads)),
                ("on_batch_reads", Json::int(on_stats.batch_reads)),
                ("off_page_reads", Json::int(off_stats.page_reads)),
            ]),
        ),
        (
            "frame_read",
            Json::Obj(vec![
                ("verified_us", Json::num(verified_ns / 1e3, 3)),
                ("bare_us", Json::num(bare_ns / 1e3, 3)),
                ("ratio", Json::num(read_ratio, 2)),
                ("ceiling", Json::int(VERIFIED_READ_MAX_RATIO)),
            ]),
        ),
    ]
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

pub fn run(verdicts: &mut Verdicts) -> Option<Report> {
    let mut fields = file_gates(verdicts);
    let mid_rate = retention_run(EvictionPolicy::Midpoint);
    let lru_rate = retention_run(EvictionPolicy::Lru);
    // A zero-hit LRU baseline (each sweep flushes everything) makes the
    // ratio degenerate; the absolute floor keeps the gate meaningful.
    let ratio = mid_rate / lru_rate.max(1e-9);
    verdicts.check(
        GATE,
        "hot hit rate, midpoint / LRU",
        ratio,
        Bound::AtLeast(RETENTION_FLOOR),
    );
    verdicts.check(
        GATE,
        "hot hit rate, midpoint",
        mid_rate,
        Bound::AtLeast(MIDPOINT_FLOOR),
    );
    fields.push((
        "retention",
        Json::Obj(vec![
            ("midpoint_hot_hit_rate", Json::num(mid_rate, 4)),
            ("lru_hot_hit_rate", Json::num(lru_rate, 4)),
        ]),
    ));
    Some(Report {
        file: "BENCH_beyond_ram.json",
        bench: "crates/bench/src/bin/gate/beyond_ram.rs",
        note: format!(
            "Beyond-RAM gates on a table >= 8x pool capacity: cold sequential scan with adaptive \
             read-ahead vs per-page reads on the store's open handle (wall clock, interleaved \
             rounds, best of each, floor {READ_AHEAD_FLOOR}x: not slower), a verified frame read \
             vs a bare positioned 4 KiB read of the same file in the same run (ratio, ceiling \
             {VERIFIED_READ_MAX_RATIO}x), and hot working-set retention under sequential sweep \
             pressure, midpoint-insertion LRU vs pure LRU (deterministic simulation, floor \
             {RETENTION_FLOOR}x and {MIDPOINT_FLOOR} absolute). In-run asserts ground them: real \
             reads == simulated misses cold, the batched path issues <= half the reads, every \
             verify read a real frame."
        ),
        fields,
    })
}

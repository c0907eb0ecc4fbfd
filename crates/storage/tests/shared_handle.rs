//! Readers and the checkpoint writer share one data-file handle.
//!
//! [`FilePageStore`] opens `f<N>.rdb` once and serves every frame read and
//! every write-back through that handle with positioned I/O. This test
//! runs the protocol under genuine preemption: two OS threads verify-read
//! the complete frames of one file — singly and in batched runs, each with
//! its own window buffer — while the owner writes new frames behind them
//! into the same file and fsyncs through the same handle. A reader that
//! depended on (or moved) a file cursor would land on the wrong frame and
//! report it torn.
//!
//! Invariants: no verify of a frame that was complete before the readers
//! started ever fails, and the read counters — atomics since they left the
//! WAL mutex — are conserved: `page_reads` equals the number of `Ok`
//! verifies, `batch_reads` the number of runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use rdb_storage::page::Page;
use rdb_storage::{FileId, FilePageStore, PageId, PageStore, DURABLE_PAGE_BYTES};

const FILE: FileId = FileId(0);
/// Frames on disk before the readers start; readers touch only these.
const SETTLED: u32 = 32;
/// Frames of the region the owner keeps writing behind them.
const FRESH: u32 = 64;
/// Whole passes over the settled frames each reader must overlap with the
/// owner's writes.
const MIN_ROUNDS: u64 = 3;

fn page_for(page_no: u32) -> Page {
    let mut page = Page::new(DURABLE_PAGE_BYTES);
    for slot in 0..20u32 {
        page.insert(vec![(page_no + slot) as u8; 100]).unwrap();
    }
    page
}

#[test]
fn readers_share_the_handle_with_a_checkpointing_owner() {
    let dir = std::env::temp_dir().join(format!("rdb-sharedhandle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
    for p in 0..SETTLED {
        store.write_page(PageId::new(FILE, p), &page_for(p), u64::from(p) + 1).unwrap();
    }
    store.sync().unwrap();
    let before = store.stats();

    let start = Barrier::new(3);
    let owner_done = AtomicBool::new(false);
    let rounds = [AtomicU64::new(0), AtomicU64::new(0)];
    let verified = AtomicU64::new(0);
    let runs = AtomicU64::new(0);

    std::thread::scope(|s| {
        for (r, my_rounds) in rounds.iter().enumerate() {
            let (store, start, owner_done) = (&store, &start, &owner_done);
            let (verified, runs) = (&verified, &runs);
            s.spawn(move || {
                let mut window = Vec::new();
                let mut ok = 0u64;
                let mut batched = 0u64;
                start.wait();
                // The flag only ends the loop; it publishes nothing.
                while !owner_done.load(Ordering::Relaxed) {
                    for p in 0..SETTLED {
                        // The two readers walk in opposite directions.
                        let p = if r == 0 { p } else { SETTLED - 1 - p };
                        store
                            .verify_page(PageId::new(FILE, p))
                            .unwrap_or_else(|e| panic!("reader {r}, page {p}: {e}"));
                        ok += 1;
                    }
                    for first in (0..SETTLED).step_by(8) {
                        store.verify_run(FILE, first, 8, &mut window, &mut |outcome| {
                            outcome.unwrap_or_else(|e| panic!("reader {r}, run at {first}: {e}"));
                            ok += 1;
                        });
                        batched += 1;
                    }
                    my_rounds.fetch_add(1, Ordering::Relaxed);
                }
                verified.fetch_add(ok, Ordering::Relaxed);
                runs.fetch_add(batched, Ordering::Relaxed);
            });
        }

        // The owner: write-back of new frames, fsync every few, until both
        // readers have made their passes underneath it.
        start.wait();
        let mut written = 0u32;
        while written < FRESH
            || rounds.iter().any(|r| r.load(Ordering::Relaxed) < MIN_ROUNDS)
        {
            let p = SETTLED + written % FRESH;
            store
                .write_page(PageId::new(FILE, p), &page_for(p), u64::from(SETTLED + written) + 1)
                .unwrap();
            written += 1;
            if written.is_multiple_of(16) {
                store.sync().unwrap();
            }
        }
        store.sync().unwrap();
        owner_done.store(true, Ordering::Relaxed);
    });

    let delta = store.stats().since(&before);
    assert_eq!(
        delta.page_reads,
        verified.load(Ordering::Relaxed),
        "every Ok verify counted exactly once"
    );
    assert_eq!(delta.batch_reads, runs.load(Ordering::Relaxed));
    assert!(delta.page_writes >= u64::from(FRESH));
    // What the owner wrote meanwhile is intact too.
    for p in 0..SETTLED + FRESH {
        assert_eq!(
            store.read_page(PageId::new(FILE, p)).unwrap().map(|(page, _)| page),
            Some(page_for(p)),
            "page {p}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

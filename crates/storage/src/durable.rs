//! Durability glue: WAL logging, fuzzy checkpoints, and redo recovery.
//!
//! [`DurableCtx`] sits between the in-memory structures (heap tables, the
//! buffer pool) and a [`PageStore`](crate::store::PageStore). The
//! division of labour:
//!
//! * **Logging** — every heap insert/delete calls [`DurableCtx::log_insert`]
//!   / [`DurableCtx::log_delete`] *after* applying the change in memory.
//!   The first modification of a page since the last checkpoint logs a
//!   **full page image** (so recovery can repair a torn data frame from
//!   the log alone); later modifications log compact logical deltas. Every
//!   record gets a fresh [`Lsn`]; the page's last-LSN is tracked here and
//!   the page is marked dirty in the pool.
//! * **Checkpointing** — [`DurableCtx::checkpoint`] drains the pool's
//!   dirty set, writes each page's current image (stamped with its last
//!   LSN) through the store, syncs, then seals with
//!   [`checkpoint_done`](crate::store::PageStore::checkpoint_done),
//!   which atomically advances the base
//!   LSN and releases the log. The protocol is fuzzy-capable: begin/end
//!   records bracket the write-back, and recovery's per-page LSN guard
//!   makes a half-finished checkpoint harmless.
//! * **Recovery** — [`recover`] loads every frame, then replays the log
//!   after the base LSN: images apply when newer than the frame (and
//!   always repair torn frames); deltas apply only when `lsn > page_lsn`
//!   (ARIES-lite redo). A torn frame that no surviving image covers is a
//!   typed [`StorageError::TornPage`] — never silent data loss.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use crate::buffer::{PageId, SharedPool};
use crate::error::StorageError;
use crate::page::Page;
use crate::store::{lock, SharedStore};
use crate::wal::{Lsn, WalRecord};

#[derive(Debug, Default)]
struct CtxState {
    /// Pages whose full image is already in the current WAL span.
    imaged: BTreeSet<u64>,
    /// Last LSN applied to each page (packed key) — the stamp a checkpoint
    /// writes into the page's frame.
    page_lsns: BTreeMap<u64, Lsn>,
}

/// The durable half of a database instance: one page store plus the
/// logging/checkpoint state shared by all of its tables.
#[derive(Debug)]
pub struct DurableCtx {
    store: SharedStore,
    pool: SharedPool,
    state: Mutex<CtxState>,
}

/// What a checkpoint did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Dirty pages written back to the store.
    pub pages_written: u64,
    /// LSN of the `CheckpointEnd` record — the new base LSN.
    pub end_lsn: Lsn,
}

impl DurableCtx {
    /// Creates the durable context for `store`, marking dirty pages in
    /// `pool`. `imaged` and `page_lsns` seed the logging state from a
    /// recovery ([`Recovered::imaged`] / per-page LSNs); both are empty
    /// for a fresh database.
    pub fn new(
        store: SharedStore,
        pool: SharedPool,
        imaged: Vec<u64>,
        page_lsns: Vec<(u64, Lsn)>,
    ) -> Arc<DurableCtx> {
        Arc::new(DurableCtx {
            store,
            pool,
            state: Mutex::new(CtxState {
                imaged: imaged.into_iter().collect(),
                page_lsns: page_lsns.into_iter().collect(),
            }),
        })
    }

    /// The underlying page store.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// True when the backend is file-backed (survives the process).
    pub fn is_durable(&self) -> bool {
        self.store.is_durable()
    }

    /// Largest serialized page image the backend accepts (insert placement
    /// checks this so churned pages retire before overflowing a frame).
    pub fn max_image_len(&self) -> usize {
        self.store.max_image_len()
    }

    fn log(&self, page_id: PageId, record: WalRecord) -> Result<(), StorageError> {
        let lsn = self.store.append(&record)?;
        lock(&self.state).page_lsns.insert(page_id.pack(), lsn);
        self.pool.mark_dirty(page_id);
        Ok(())
    }

    /// True when the next modification of `page_id` must log a full image
    /// (first touch since the last checkpoint). Marks it imaged.
    fn claim_first_touch(&self, page_id: PageId) -> bool {
        lock(&self.state).imaged.insert(page_id.pack())
    }

    /// Logs an insert of `bytes` that landed on (`page_id`, `slot`);
    /// `page_after` is the page as it stands after the insert.
    pub fn log_insert(
        &self,
        page_id: PageId,
        slot: u16,
        bytes: &[u8],
        page_after: &Page,
    ) -> Result<(), StorageError> {
        if self.claim_first_touch(page_id) {
            let mut image = Vec::with_capacity(page_after.image_len());
            page_after.encode_image(&mut image)?;
            self.log(page_id, WalRecord::PageImage { page: page_id, image })
        } else {
            self.log(
                page_id,
                WalRecord::Insert {
                    page: page_id,
                    slot,
                    bytes: bytes.to_vec(),
                },
            )
        }
    }

    /// Logs a delete at (`page_id`, `slot`); `page_after` is the page as
    /// it stands after the delete.
    pub fn log_delete(
        &self,
        page_id: PageId,
        slot: u16,
        page_after: &Page,
    ) -> Result<(), StorageError> {
        if self.claim_first_touch(page_id) {
            let mut image = Vec::with_capacity(page_after.image_len());
            page_after.encode_image(&mut image)?;
            self.log(page_id, WalRecord::PageImage { page: page_id, image })
        } else {
            self.log(page_id, WalRecord::Delete { page: page_id, slot })
        }
    }

    /// Logs a full catalog snapshot (every DDL statement does this;
    /// recovery honours the last one in the log).
    pub fn log_catalog(&self, blob: Vec<u8>) -> Result<(), StorageError> {
        self.store.append(&WalRecord::Catalog { blob })?;
        Ok(())
    }

    /// Re-reads and checksum-verifies `page_id`'s frame — the *real* I/O
    /// behind a buffer-pool miss on a clean, checkpointed page. `Ok` for
    /// holes (pages that never reached a checkpoint have no frame yet).
    pub fn verify_read(&self, page_id: PageId) -> Result<(), StorageError> {
        self.store.verify_page(page_id)
    }

    /// Batched [`DurableCtx::verify_read`] over `n` consecutive frames of
    /// `file` starting at `first` — the sequential read-ahead path. One
    /// `each` call per frame in page order; a torn frame poisons only its
    /// own slot, so the caller can defer that error until the scan reaches
    /// the page. `scratch` is the caller's reusable staging buffer (see
    /// [`crate::readahead::ReadAhead`], which owns both ends).
    pub fn verify_read_run(
        &self,
        file: crate::buffer::FileId,
        first: u32,
        n: u32,
        scratch: &mut Vec<u8>,
        each: &mut dyn FnMut(Result<(), StorageError>),
    ) {
        self.store.verify_run(file, first, n, scratch, each);
    }

    /// Runs a checkpoint: drains the pool's dirty set, writes each page's
    /// image (fetched from the owning table via `page_image`) stamped with
    /// its last LSN, syncs, and seals with the new `catalog`. Write-backs
    /// charge page-write cost to the pool's default meter. On error the
    /// undrained pages are re-marked dirty so no modification is ever
    /// silently dropped from the write-back worklist.
    pub fn checkpoint(
        &self,
        catalog: &[u8],
        mut page_image: impl FnMut(PageId) -> Option<Page>,
    ) -> Result<CheckpointStats, StorageError> {
        let dirty = self.pool.take_dirty();
        let result = (|| {
            let begin = self.store.append(&WalRecord::CheckpointBegin)?;
            let mut written = 0u64;
            for &pid in &dirty {
                // A page with no image (its table was dropped or its file
                // is not heap-backed) has nothing to write back.
                let Some(image) = page_image(pid) else { continue };
                let lsn = lock(&self.state)
                    .page_lsns
                    .get(&pid.pack())
                    .copied()
                    .unwrap_or(begin);
                self.store.write_page(pid, &image, lsn)?;
                self.pool.write(pid, self.pool.cost());
                written += 1;
            }
            let end = self.store.append(&WalRecord::CheckpointEnd { begin })?;
            self.store.sync()?;
            self.store.checkpoint_done(catalog, end)?;
            Ok(CheckpointStats {
                pages_written: written,
                end_lsn: end,
            })
        })();
        match result {
            Ok(stats) => {
                lock(&self.state).imaged.clear();
                Ok(stats)
            }
            Err(e) => {
                for pid in dirty {
                    self.pool.mark_dirty(pid);
                }
                Err(e)
            }
        }
    }
}

/// One file's recovered state: its pages in page-number order, their
/// frame/redo LSNs, and which pages the redo pass modified (these are
/// dirty — their frames are stale until the next checkpoint).
#[derive(Debug, Clone, Default)]
pub struct RecoveredFile {
    /// Pages in page-number order (holes are empty pages).
    pub pages: Vec<Page>,
    /// Last LSN applied to each page, parallel to `pages`.
    pub lsns: Vec<Lsn>,
    /// Page numbers the redo pass changed or repaired.
    pub dirty: Vec<u32>,
}

/// How recovery went (numbers for reports and campaign assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL records scanned after the base LSN.
    pub records_scanned: u64,
    /// Records applied (image or delta).
    pub records_applied: u64,
    /// Records skipped by the per-page LSN guard.
    pub records_skipped: u64,
    /// Torn frames repaired from full-page images.
    pub pages_repaired: u64,
    /// True when a torn WAL tail was discarded (crash mid-append).
    pub wal_torn_tail: bool,
}

/// Everything [`recover`] reconstructs from a store.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The last durable catalog blob, overridden by any `Catalog` record
    /// in the redo span.
    pub catalog: Option<Vec<u8>>,
    /// Per-file recovered pages, keyed by `FileId.0`.
    pub files: BTreeMap<u32, RecoveredFile>,
    /// Packed keys of pages whose full image is in the surviving WAL span
    /// (seed for [`DurableCtx::new`]'s `imaged`).
    pub imaged: Vec<u64>,
    /// The redo pass's numbers.
    pub report: RecoveryReport,
}

impl Recovered {
    /// The per-page LSN seed for [`DurableCtx::new`].
    pub fn page_lsns(&self) -> Vec<(u64, Lsn)> {
        let mut out = Vec::new();
        for (file, rec) in &self.files {
            for (page_no, lsn) in rec.lsns.iter().enumerate() {
                if *lsn > 0 {
                    out.push((
                        PageId::new(crate::buffer::FileId(*file), page_no as u32).pack(),
                        *lsn,
                    ));
                }
            }
        }
        out
    }
}

/// Ensures `files` has a slot for (`pid.file`, `pid.page`), growing with
/// empty pages, and returns the file entry.
fn entry_for(
    files: &mut BTreeMap<u32, RecoveredFile>,
    pid: PageId,
    page_bytes: usize,
) -> &mut RecoveredFile {
    let rec = files.entry(pid.file.0).or_default();
    while rec.pages.len() <= pid.page as usize {
        rec.pages.push(Page::new(page_bytes));
        rec.lsns.push(0);
    }
    rec
}

/// ARIES-lite redo recovery: loads every frame the store holds, replays
/// the WAL after the base LSN under the per-page LSN guard, and reports
/// what happened. Fails with a typed error if a torn frame survives with
/// no covering full-page image.
pub fn recover(store: &SharedStore) -> Result<Recovered, StorageError> {
    let page_bytes = store.page_bytes();
    let mut out = Recovered {
        catalog: store.read_catalog()?,
        ..Recovered::default()
    };
    let mut torn: BTreeSet<u64> = BTreeSet::new();

    for file in store.files()? {
        let n = store.file_pages(file)?;
        let rec = out.files.entry(file.0).or_default();
        for page_no in 0..n {
            let pid = PageId::new(file, page_no);
            match store.read_page(pid) {
                Ok(Some((page, lsn))) => {
                    rec.pages.push(page);
                    rec.lsns.push(lsn);
                }
                Ok(None) => {
                    rec.pages.push(Page::new(page_bytes));
                    rec.lsns.push(0);
                }
                Err(StorageError::TornPage { .. }) => {
                    // Hold a placeholder; only a full-page image in the
                    // redo span can make this file openable.
                    torn.insert(pid.pack());
                    rec.pages.push(Page::new(page_bytes));
                    rec.lsns.push(0);
                }
                Err(e) => return Err(e),
            }
        }
    }

    let view = store.wal()?;
    out.report.wal_torn_tail = view.truncated;
    for (lsn, record) in view.entries {
        out.report.records_scanned += 1;
        match record {
            WalRecord::PageImage { page: pid, image } => {
                out.imaged.push(pid.pack());
                let rec = entry_for(&mut out.files, pid, page_bytes);
                let at = pid.page as usize;
                let cur = rec.lsns.get(at).copied().unwrap_or(0);
                let repaired = torn.remove(&pid.pack());
                if repaired {
                    out.report.pages_repaired += 1;
                }
                if lsn > cur || repaired {
                    let decoded = Page::decode_image(page_bytes, &image)?;
                    if let (Some(slot), Some(l)) = (rec.pages.get_mut(at), rec.lsns.get_mut(at)) {
                        *slot = decoded;
                        *l = lsn;
                    }
                    rec.dirty.push(pid.page);
                    out.report.records_applied += 1;
                } else {
                    out.report.records_skipped += 1;
                }
            }
            WalRecord::Insert {
                page: pid,
                slot,
                bytes,
            } => {
                if torn.contains(&pid.pack()) {
                    return Err(StorageError::TornPage {
                        file: pid.file,
                        page: pid.page,
                    });
                }
                let rec = entry_for(&mut out.files, pid, page_bytes);
                let at = pid.page as usize;
                let cur = rec.lsns.get(at).copied().unwrap_or(0);
                if lsn > cur {
                    if let (Some(p), Some(l)) = (rec.pages.get_mut(at), rec.lsns.get_mut(at)) {
                        p.apply_insert_at(slot, bytes);
                        *l = lsn;
                    }
                    rec.dirty.push(pid.page);
                    out.report.records_applied += 1;
                } else {
                    out.report.records_skipped += 1;
                }
            }
            WalRecord::Delete { page: pid, slot } => {
                if torn.contains(&pid.pack()) {
                    return Err(StorageError::TornPage {
                        file: pid.file,
                        page: pid.page,
                    });
                }
                let rec = entry_for(&mut out.files, pid, page_bytes);
                let at = pid.page as usize;
                let cur = rec.lsns.get(at).copied().unwrap_or(0);
                if lsn > cur {
                    if let (Some(p), Some(l)) = (rec.pages.get_mut(at), rec.lsns.get_mut(at)) {
                        p.apply_delete_at(slot);
                        *l = lsn;
                    }
                    rec.dirty.push(pid.page);
                    out.report.records_applied += 1;
                } else {
                    out.report.records_skipped += 1;
                }
            }
            WalRecord::Catalog { blob } => {
                out.catalog = Some(blob);
            }
            WalRecord::CheckpointBegin | WalRecord::CheckpointEnd { .. } => {}
        }
    }

    if let Some(key) = torn.first() {
        let pid = PageId::unpack(*key);
        return Err(StorageError::TornPage {
            file: pid.file,
            page: pid.page,
        });
    }
    for rec in out.files.values_mut() {
        rec.dirty.sort_unstable();
        rec.dirty.dedup();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{shared_pool, FileId};
    use crate::cost::{shared_meter, CostConfig};
    use crate::store::{MemPageStore, PageStore};

    fn setup() -> (SharedStore, SharedPool, Arc<DurableCtx>) {
        let store: SharedStore = Arc::new(MemPageStore::new(256));
        let pool = shared_pool(64, shared_meter(CostConfig::default()));
        let ctx = DurableCtx::new(store.clone(), pool.clone(), Vec::new(), Vec::new());
        (store, pool, ctx)
    }

    fn rec_bytes(x: u8) -> Vec<u8> {
        vec![x; 8]
    }

    #[test]
    fn first_touch_logs_image_then_deltas() {
        let (store, pool, ctx) = setup();
        let pid = PageId::new(FileId(0), 0);
        let mut page = Page::new(256);
        let s0 = page.insert(rec_bytes(1)).unwrap();
        ctx.log_insert(pid, s0, &rec_bytes(1), &page).unwrap();
        let s1 = page.insert(rec_bytes(2)).unwrap();
        ctx.log_insert(pid, s1, &rec_bytes(2), &page).unwrap();
        let view = store.wal().unwrap();
        assert!(matches!(
            view.entries.first(),
            Some((_, WalRecord::PageImage { .. }))
        ));
        assert!(matches!(
            view.entries.get(1),
            Some((_, WalRecord::Insert { slot: 1, .. }))
        ));
        assert!(pool.is_dirty(pid));
        assert_eq!(pool.dirty_len(), 1);
    }

    #[test]
    fn checkpoint_writes_dirty_pages_and_recovery_replays_the_rest() {
        let (store, pool, ctx) = setup();
        let pid = PageId::new(FileId(0), 0);
        let mut page = Page::new(256);
        let s0 = page.insert(rec_bytes(1)).unwrap();
        ctx.log_insert(pid, s0, &rec_bytes(1), &page).unwrap();

        let stats = ctx
            .checkpoint(b"CAT1", |p| (p == pid).then(|| page.clone()))
            .unwrap();
        assert_eq!(stats.pages_written, 1);
        assert_eq!(pool.dirty_len(), 0);
        assert_eq!(store.base_lsn(), stats.end_lsn);

        // Post-checkpoint delta: first touch again logs a fresh image.
        let s1 = page.insert(rec_bytes(2)).unwrap();
        ctx.log_insert(pid, s1, &rec_bytes(2), &page).unwrap();
        let s2 = page.insert(rec_bytes(3)).unwrap();
        ctx.log_insert(pid, s2, &rec_bytes(3), &page).unwrap();

        // "Crash": recover from the store alone.
        let recovered = recover(&store).unwrap();
        assert_eq!(recovered.catalog, Some(b"CAT1".to_vec()));
        let file = recovered.files.get(&0).unwrap();
        let got = file.pages.first().unwrap();
        assert_eq!(got.live_records(), 3);
        assert_eq!(got.slot_bytes(s2), Some(rec_bytes(3).as_slice()));
        assert_eq!(file.dirty, vec![0], "redo-touched pages are dirty");
        assert!(recovered.report.records_applied >= 2);
        assert!(!recovered.imaged.is_empty());
    }

    #[test]
    fn lsn_guard_skips_records_already_in_the_frame() {
        let (store, _pool, ctx) = setup();
        let pid = PageId::new(FileId(0), 0);
        let mut page = Page::new(256);
        let s0 = page.insert(rec_bytes(1)).unwrap();
        ctx.log_insert(pid, s0, &rec_bytes(1), &page).unwrap();
        // Simulate a checkpoint that wrote the frame but crashed before
        // sealing: the frame carries the record's LSN, the WAL keeps it.
        store.write_page(pid, &page, 1).unwrap();
        let recovered = recover(&store).unwrap();
        assert_eq!(recovered.report.records_skipped, 1);
        let file = recovered.files.get(&0).unwrap();
        assert_eq!(file.pages.first().unwrap().live_records(), 1);
        assert!(file.dirty.is_empty(), "nothing replayed, nothing dirty");
    }

    #[test]
    fn failed_checkpoint_remarks_dirty_pages() {
        #[derive(Debug)]
        struct FailingStore(MemPageStore);
        impl PageStore for FailingStore {
            fn is_durable(&self) -> bool {
                false
            }
            fn page_bytes(&self) -> usize {
                self.0.page_bytes()
            }
            fn max_image_len(&self) -> usize {
                usize::MAX
            }
            fn read_page(&self, p: PageId) -> Result<Option<(Page, Lsn)>, StorageError> {
                self.0.read_page(p)
            }
            fn write_page(&self, _: PageId, _: &Page, _: Lsn) -> Result<(), StorageError> {
                Err(StorageError::Io {
                    op: "write",
                    path: "mem".into(),
                    detail: "disk full".into(),
                })
            }
            fn file_pages(&self, f: FileId) -> Result<u32, StorageError> {
                self.0.file_pages(f)
            }
            fn files(&self) -> Result<Vec<FileId>, StorageError> {
                self.0.files()
            }
            fn append(&self, r: &WalRecord) -> Result<Lsn, StorageError> {
                self.0.append(r)
            }
            fn wal(&self) -> Result<crate::wal::WalView, StorageError> {
                self.0.wal()
            }
            fn base_lsn(&self) -> Lsn {
                self.0.base_lsn()
            }
            fn read_catalog(&self) -> Result<Option<Vec<u8>>, StorageError> {
                self.0.read_catalog()
            }
            fn checkpoint_done(&self, c: &[u8], e: Lsn) -> Result<(), StorageError> {
                self.0.checkpoint_done(c, e)
            }
            fn sync(&self) -> Result<(), StorageError> {
                self.0.sync()
            }
            fn stats(&self) -> crate::store::StoreStats {
                self.0.stats()
            }
        }

        let store: SharedStore = Arc::new(FailingStore(MemPageStore::new(256)));
        let pool = shared_pool(64, shared_meter(CostConfig::default()));
        let ctx = DurableCtx::new(store, pool.clone(), Vec::new(), Vec::new());
        let pid = PageId::new(FileId(0), 0);
        let mut page = Page::new(256);
        let s0 = page.insert(rec_bytes(1)).unwrap();
        ctx.log_insert(pid, s0, &rec_bytes(1), &page).unwrap();
        assert!(ctx.checkpoint(b"C", |_| Some(page.clone())).is_err());
        assert!(pool.is_dirty(pid), "failed checkpoint re-marks its worklist");
    }
}

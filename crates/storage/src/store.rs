//! The storage-backend seam: [`PageStore`].
//!
//! Everything above the page level — heap tables, the buffer pool, the
//! query layer — talks to persistent storage through this trait. Two
//! implementations ship:
//!
//! * [`MemPageStore`] (here): pages, WAL, and catalog live in process
//!   memory. Nothing survives the process, but the *protocol* (LSNs,
//!   images, checkpoints, recovery) is identical, which makes the durable
//!   machinery unit-testable without touching a filesystem.
//! * [`crate::FilePageStore`]: the real thing — 4KB checksummed page
//!   frames in per-file segment files, an append-only WAL, and an
//!   atomically replaced header/catalog (see `file_store.rs`).
//!
//! The trait is deliberately image-granular (whole [`Page`]s in and out):
//! the in-memory representation stays the system of record between
//! checkpoints, the store is the crash-durable shadow of it, and the
//! buffer pool decides *when* images move (dirty tracking + write-back).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::buffer::{FileId, PageId};
use crate::error::StorageError;
use crate::page::Page;
use crate::wal::{Lsn, WalRecord, WalView};

/// Counters of *real* storage traffic — the ground truth the simulated
/// cost meter's "I/O unit" is validated against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Page images read (and checksum-verified) from the backend.
    pub page_reads: u64,
    /// Page images written to the backend.
    pub page_writes: u64,
    /// Batched multi-frame reads issued via [`PageStore::read_run`]; the
    /// per-frame outcomes still count in `page_reads`, so
    /// `page_reads / batch_reads` is the realized read-ahead batching
    /// factor.
    pub batch_reads: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// Explicit durability barriers (fsync or equivalent).
    pub syncs: u64,
}

impl StoreStats {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            page_reads: self.page_reads - earlier.page_reads,
            page_writes: self.page_writes - earlier.page_writes,
            batch_reads: self.batch_reads - earlier.batch_reads,
            wal_appends: self.wal_appends - earlier.wal_appends,
            syncs: self.syncs - earlier.syncs,
        }
    }
}

/// A shared handle to a page store.
pub type SharedStore = Arc<dyn PageStore>;

/// The persistent backend behind heap tables: page images keyed by
/// [`PageId`], an LSN-stamped write-ahead log, and a catalog blob.
///
/// Implementations are internally synchronized (`&self` everywhere); the
/// engine's single-writer discipline means mutations never race, but
/// concurrent readers (verify-reads from scan threads) must be safe.
pub trait PageStore: Send + Sync + fmt::Debug {
    /// True when data survives the process (file-backed).
    fn is_durable(&self) -> bool;

    /// The page payload capacity this store was created with. Pages
    /// written through [`PageStore::write_page`] must use this capacity.
    fn page_bytes(&self) -> usize;

    /// Largest serialized page image ([`Page::image_len`]) the backend can
    /// hold — the data-frame payload budget for file stores, unbounded for
    /// memory stores.
    fn max_image_len(&self) -> usize;

    /// Reads and checksum-verifies the image of `page`. `Ok(None)` means
    /// the store holds no frame for it (never checkpointed, or a hole);
    /// a frame that fails its checksum is [`StorageError::TornPage`].
    fn read_page(&self, page: PageId) -> Result<Option<(Page, Lsn)>, StorageError>;

    /// Reads `n` consecutive frames of `file` starting at `first` — the
    /// sequential read-ahead entry point. The result holds one per-frame
    /// outcome in page order, each exactly what [`PageStore::read_page`]
    /// would have returned, so a torn frame poisons only its own slot and
    /// the caller can defer that error until the scan actually reaches the
    /// page. The default implementation loops over `read_page`; backends
    /// with a cheaper batched path (one positioned read for the whole run)
    /// override it and additionally count one `batch_reads` per call.
    fn read_run(
        &self,
        file: FileId,
        first: u32,
        n: u32,
    ) -> Vec<Result<Option<(Page, Lsn)>, StorageError>> {
        (first..first.saturating_add(n))
            .map(|p| self.read_page(PageId::new(file, p)))
            .collect()
    }

    /// [`PageStore::read_page`] without the page: reads the frame and runs
    /// every check `read_page` runs — the real I/O behind a buffer-pool
    /// miss, whose caller already holds the page in memory and only needs
    /// to know the frame is intact. Same outcomes (`Ok` where `read_page`
    /// is `Ok(Some)` or `Ok(None)`, the same error otherwise) and the same
    /// `page_reads` accounting; backends override it to skip building the
    /// [`Page`].
    fn verify_page(&self, page: PageId) -> Result<(), StorageError> {
        self.read_page(page).map(|_| ())
    }

    /// [`PageStore::read_run`] without the pages: one `each` call per
    /// frame in page order, with exactly what [`PageStore::verify_page`]
    /// would have returned for it, counted as `read_run` counts. `scratch`
    /// is the caller's reusable read buffer (a read-ahead window keeps one
    /// across windows); a backend that needs staging space sizes it, its
    /// contents afterwards are unspecified.
    fn verify_run(
        &self,
        file: FileId,
        first: u32,
        n: u32,
        scratch: &mut Vec<u8>,
        each: &mut dyn FnMut(Result<(), StorageError>),
    ) {
        let _ = scratch;
        for outcome in self.read_run(file, first, n) {
            each(outcome.map(|_| ()));
        }
    }

    /// Writes the image of `page` stamped with `lsn` (checkpoint
    /// write-back).
    fn write_page(&self, page: PageId, image: &Page, lsn: Lsn) -> Result<(), StorageError>;

    /// Number of page frames the store holds for `file` (the frame
    /// high-water mark; interior holes read as `None`).
    fn file_pages(&self, file: FileId) -> Result<u32, StorageError>;

    /// Every file the store holds frames for.
    fn files(&self) -> Result<Vec<FileId>, StorageError>;

    /// Appends `record` to the WAL, returning its assigned LSN.
    fn append(&self, record: &WalRecord) -> Result<Lsn, StorageError>;

    /// The decoded WAL: every complete record at or past the checkpoint
    /// base, plus whether a torn tail was discarded.
    fn wal(&self) -> Result<WalView, StorageError>;

    /// LSN of the last completed checkpoint; replay starts after it.
    fn base_lsn(&self) -> Lsn;

    /// The last catalog blob made durable by a checkpoint, if any.
    fn read_catalog(&self) -> Result<Option<Vec<u8>>, StorageError>;

    /// Seals a checkpoint: makes `catalog` durable, advances the base LSN
    /// to `end_lsn`, and releases the log before it. Called only after
    /// every dirty page reached [`PageStore::write_page`] and
    /// [`PageStore::sync`] returned.
    fn checkpoint_done(&self, catalog: &[u8], end_lsn: Lsn) -> Result<(), StorageError>;

    /// Durability barrier: forces written pages and appended WAL records
    /// to stable storage.
    fn sync(&self) -> Result<(), StorageError>;

    /// Real-traffic counters.
    fn stats(&self) -> StoreStats;
}

/// Locks a mutex, recovering the data from a poisoned lock (store state is
/// plain data; a panicking holder leaves it readable).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct MemInner {
    pages: BTreeMap<u64, (Page, Lsn)>,
    wal: Vec<(Lsn, WalRecord)>,
    catalog: Option<Vec<u8>>,
    base_lsn: Lsn,
    next_lsn: Lsn,
    stats: StoreStats,
}

/// The process-memory [`PageStore`]: the default backend, byte-for-byte
/// the same protocol as [`crate::FilePageStore`] minus the files. Used by
/// `Db::builder().in_memory()` and by unit tests of the durable machinery.
#[derive(Debug, Default)]
pub struct MemPageStore {
    inner: Mutex<MemInner>,
    page_bytes: usize,
}

impl MemPageStore {
    /// Creates an empty in-memory store for pages of `page_bytes` payload
    /// capacity.
    pub fn new(page_bytes: usize) -> Self {
        MemPageStore {
            inner: Mutex::new(MemInner {
                next_lsn: 1,
                ..MemInner::default()
            }),
            page_bytes,
        }
    }
}

impl PageStore for MemPageStore {
    fn is_durable(&self) -> bool {
        false
    }

    fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    fn max_image_len(&self) -> usize {
        usize::MAX
    }

    fn read_page(&self, page: PageId) -> Result<Option<(Page, Lsn)>, StorageError> {
        let mut inner = lock(&self.inner);
        let found = inner.pages.get(&page.pack()).cloned();
        if found.is_some() {
            inner.stats.page_reads += 1;
        }
        Ok(found)
    }

    fn write_page(&self, page: PageId, image: &Page, lsn: Lsn) -> Result<(), StorageError> {
        let mut inner = lock(&self.inner);
        inner.pages.insert(page.pack(), (image.clone(), lsn));
        inner.stats.page_writes += 1;
        Ok(())
    }

    fn file_pages(&self, file: FileId) -> Result<u32, StorageError> {
        let inner = lock(&self.inner);
        let lo = PageId::new(file, 0).pack();
        let hi = PageId::new(file, u32::MAX).pack();
        Ok(inner
            .pages
            .range(lo..=hi)
            .next_back()
            .map(|(k, _)| PageId::unpack(*k).page + 1)
            .unwrap_or(0))
    }

    fn files(&self) -> Result<Vec<FileId>, StorageError> {
        let inner = lock(&self.inner);
        let mut files: Vec<FileId> = inner
            .pages
            .keys()
            .map(|k| PageId::unpack(*k).file)
            .collect();
        files.dedup();
        Ok(files)
    }

    fn append(&self, record: &WalRecord) -> Result<Lsn, StorageError> {
        let mut inner = lock(&self.inner);
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        inner.wal.push((lsn, record.clone()));
        inner.stats.wal_appends += 1;
        Ok(lsn)
    }

    fn wal(&self) -> Result<WalView, StorageError> {
        let inner = lock(&self.inner);
        Ok(WalView {
            entries: inner
                .wal
                .iter()
                .filter(|(lsn, _)| *lsn > inner.base_lsn)
                .cloned()
                .collect(),
            clean_bytes: 0,
            truncated: false,
        })
    }

    fn base_lsn(&self) -> Lsn {
        lock(&self.inner).base_lsn
    }

    fn read_catalog(&self) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(lock(&self.inner).catalog.clone())
    }

    fn checkpoint_done(&self, catalog: &[u8], end_lsn: Lsn) -> Result<(), StorageError> {
        let mut inner = lock(&self.inner);
        inner.catalog = Some(catalog.to_vec());
        inner.base_lsn = end_lsn;
        inner.wal.retain(|(lsn, _)| *lsn > end_lsn);
        Ok(())
    }

    fn sync(&self) -> Result<(), StorageError> {
        let mut inner = lock(&self.inner);
        inner.stats.syncs += 1;
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        lock(&self.inner).stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_roundtrips_pages_wal_and_catalog() {
        let store = MemPageStore::new(256);
        let pid = PageId::new(FileId(2), 5);
        let mut page = Page::new(256);
        page.insert(vec![1, 2, 3]).unwrap();
        store.write_page(pid, &page, 9).unwrap();
        let (back, lsn) = store.read_page(pid).unwrap().unwrap();
        assert_eq!(lsn, 9);
        assert_eq!(back.slot_bytes(0), Some(&[1u8, 2, 3][..]));
        assert_eq!(store.read_page(PageId::new(FileId(2), 6)).unwrap(), None);
        assert_eq!(store.file_pages(FileId(2)).unwrap(), 6);
        assert_eq!(store.file_pages(FileId(3)).unwrap(), 0);
        assert_eq!(store.files().unwrap(), vec![FileId(2)]);

        let l1 = store.append(&WalRecord::CheckpointBegin).unwrap();
        let l2 = store
            .append(&WalRecord::Catalog { blob: vec![7] })
            .unwrap();
        assert!(l2 > l1);
        assert_eq!(store.wal().unwrap().entries.len(), 2);

        store.checkpoint_done(&[7, 8], l2).unwrap();
        assert_eq!(store.base_lsn(), l2);
        assert_eq!(store.read_catalog().unwrap(), Some(vec![7, 8]));
        assert!(store.wal().unwrap().entries.is_empty());

        let stats = store.stats();
        assert_eq!(stats.page_reads, 1);
        assert_eq!(stats.page_writes, 1);
        assert_eq!(stats.wal_appends, 2);
    }
}

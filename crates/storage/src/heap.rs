//! Heap tables: the data-record store behind Tscan and all record fetches.
//!
//! Every logical page touch goes through the shared [`crate::BufferPool`], so a
//! full table scan costs one miss per page on a cold cache, and random RID
//! fetches cost one miss per *distinct* page — which is exactly why the
//! paper's background-only tactic sorts RID lists before the final fetch
//! stage (Section 7).

use std::sync::Arc;

use crate::buffer::{Access, FileId, PageId, SharedPool};
use crate::cost::CostMeter;
use crate::durable::DurableCtx;
use crate::error::StorageError;
use crate::page::{Page, DEFAULT_PAGE_BYTES};
use crate::readahead::ReadAhead;
use crate::record::Record;
use crate::rid::Rid;
use crate::schema::Schema;

/// A heap table of slotted pages sharing a buffer pool.
#[derive(Debug)]
pub struct HeapTable {
    name: String,
    file: FileId,
    schema: Schema,
    pages: Vec<Page>,
    pool: SharedPool,
    page_bytes: usize,
    live_records: u64,
    /// Pages known to have free space after deletes (a tiny free-space
    /// map); inserts try these before appending a new page.
    free_hints: Vec<u32>,
    /// When attached, every insert/delete is WAL-logged and every pool
    /// miss on a clean checkpointed page re-reads (and checksum-verifies)
    /// its disk frame — real I/O on the simulated miss path.
    durable: Option<Arc<DurableCtx>>,
    /// Page-number high-water mark of frames the store holds for this
    /// table (advanced by checkpoints); pages past it have no frame yet.
    disk_pages: u32,
}

impl HeapTable {
    /// Creates an empty table with the default page size.
    pub fn new(name: impl Into<String>, file: FileId, schema: Schema, pool: SharedPool) -> Self {
        Self::with_page_bytes(name, file, schema, pool, DEFAULT_PAGE_BYTES)
    }

    /// Creates an empty table with a custom page payload size. Smaller pages
    /// mean more pages for the same data — useful in experiments that need
    /// high page counts without huge record counts.
    pub fn with_page_bytes(
        name: impl Into<String>,
        file: FileId,
        schema: Schema,
        pool: SharedPool,
        page_bytes: usize,
    ) -> Self {
        HeapTable {
            name: name.into(),
            file,
            schema,
            pages: Vec::new(),
            pool,
            page_bytes,
            live_records: 0,
            free_hints: Vec::new(),
            durable: None,
            disk_pages: 0,
        }
    }

    /// Rebuilds a table from recovered pages (see
    /// [`crate::durable::recover`]). Cardinality and the free-space map
    /// are recomputed from the pages; `disk_pages` says how many leading
    /// pages have on-disk frames backing verify-reads.
    #[allow(clippy::too_many_arguments)]
    pub fn from_recovered(
        name: impl Into<String>,
        file: FileId,
        schema: Schema,
        pool: SharedPool,
        page_bytes: usize,
        pages: Vec<Page>,
        durable: Arc<DurableCtx>,
        disk_pages: u32,
    ) -> Self {
        let live_records = pages.iter().map(|p| u64::from(p.live_records())).sum();
        let tail = pages.len().saturating_sub(1);
        let free_hints = pages
            .iter()
            .enumerate()
            .filter(|(i, p)| *i != tail && p.used() < p.capacity())
            .map(|(i, _)| i as u32)
            .collect();
        HeapTable {
            name: name.into(),
            file,
            schema,
            pages,
            pool,
            page_bytes,
            live_records,
            free_hints,
            durable: Some(durable),
            disk_pages,
        }
    }

    /// Attaches the durable context to a freshly created table: from here
    /// on every mutation is WAL-logged and misses on checkpointed pages
    /// perform real verify-reads.
    pub fn attach_durable(&mut self, ctx: Arc<DurableCtx>) {
        self.durable = Some(ctx);
    }

    /// A clone of page `page_no`'s current in-memory image (the
    /// checkpoint's write-back source).
    pub fn page_clone(&self, page_no: u32) -> Option<Page> {
        self.pages.get(page_no as usize).cloned()
    }

    /// Records that a checkpoint wrote every current page: all of them now
    /// have disk frames, so future clean misses verify against disk.
    pub fn note_checkpointed(&mut self) {
        self.disk_pages = self.pages.len() as u32;
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's file id within the shared pool.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of pages.
    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Page payload capacity this table was created with.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Number of live records (the paper's table cardinality `c`).
    pub fn cardinality(&self) -> u64 {
        self.live_records
    }

    /// Shared buffer pool.
    pub fn pool(&self) -> &SharedPool {
        &self.pool
    }

    /// True when `page` can take one more record of `bytes_len` payload
    /// bytes: in-memory capacity, plus — for durable tables — the disk
    /// frame's image budget (a slot-churned page whose serialized image
    /// nears the frame payload limit retires instead of overflowing it).
    fn accepts(&self, page: &Page, bytes_len: usize) -> bool {
        if !page.fits(bytes_len) {
            return false;
        }
        match &self.durable {
            Some(ctx) => page.image_len() + bytes_len + 2 <= ctx.max_image_len(),
            None => true,
        }
    }

    /// Inserts a record, returning its RID. Insertion is free of *read*
    /// cost: experiments measure retrieval, and loading is setup. On a
    /// durable table the insert is WAL-logged (a full page image on the
    /// page's first touch after a checkpoint, a compact delta after); a
    /// logging failure surfaces as the statement's error.
    pub fn insert(&mut self, record: Record) -> Result<Rid, StorageError> {
        self.schema.validate(&record)?;
        let mut bytes = Vec::with_capacity(record.encoded_len());
        record.encode(&mut bytes);
        if bytes.len() + 4 > self.page_bytes {
            return Err(StorageError::RecordTooLarge {
                size: bytes.len(),
                max: self.page_bytes,
            });
        }
        // Placement: the current tail page, then any page the free-space
        // map says has room (space reclaimed by deletes), then a new page.
        let page_no = if self
            .pages
            .last()
            .is_some_and(|p| self.accepts(p, bytes.len()))
        {
            (self.pages.len() - 1) as u32
        } else if let Some(pos) = self.free_hints.iter().position(|&p| {
            self.pages
                .get(p as usize)
                .is_some_and(|pg| self.accepts(pg, bytes.len()))
        }) {
            self.free_hints.swap_remove(pos)
        } else {
            self.pages.push(Page::new(self.page_bytes));
            (self.pages.len() - 1) as u32
        };
        let logged = self.durable.is_some().then(|| bytes.clone());
        let page = self
            .pages
            .get_mut(page_no as usize)
            .ok_or(StorageError::PageOutOfRange {
                page: page_no,
                pages: 0,
            })?;
        let slot = page.insert(bytes)?;
        self.live_records += 1;
        if let (Some(ctx), Some(bytes)) = (self.durable.as_ref(), logged) {
            ctx.log_insert(PageId::new(self.file, page_no), slot, &bytes, page)?;
        }
        Ok(Rid::new(page_no, slot))
    }

    /// On a buffer-pool miss of a durable page, performs the *real* read:
    /// re-reads and checksum-verifies the page's disk frame, so the
    /// simulated miss path carries genuine I/O and surfaces torn frames.
    /// Dirty pages (modified since the last checkpoint) are skipped —
    /// their frames are legitimately stale until write-back.
    fn verify_disk(&self, page_no: u32) -> Result<(), StorageError> {
        let Some(ctx) = &self.durable else {
            return Ok(());
        };
        if page_no >= self.disk_pages {
            return Ok(());
        }
        let pid = PageId::new(self.file, page_no);
        if self.pool.is_dirty(pid) {
            return Ok(());
        }
        ctx.verify_read(pid)
    }

    /// The sequential-scan variant of [`HeapTable::verify_disk`]: with
    /// read-ahead enabled, a miss that no window covers fetches the missed
    /// frame *and* a run of upcoming clean, on-disk, not-yet-resident
    /// frames in one batched store read, parking the per-frame outcomes in
    /// `ra`. Later misses consume their parked outcome instead of touching
    /// the store, so a torn frame still surfaces exactly on its own page.
    fn verify_disk_sequential(
        &self,
        page_no: u32,
        ra: &mut ReadAhead,
    ) -> Result<(), StorageError> {
        let Some(ctx) = &self.durable else {
            return Ok(());
        };
        if page_no >= self.disk_pages {
            return Ok(());
        }
        let pid = PageId::new(self.file, page_no);
        if self.pool.is_dirty(pid) {
            return Ok(());
        }
        if !self.pool.read_ahead_enabled() {
            return ctx.verify_read(pid);
        }
        if let Some(out) = ra.take(page_no) {
            self.pool.note_prefetch_consumed();
            return out;
        }
        // Build a fresh window: the missed page unconditionally, then
        // upcoming pages for as long as they are on disk, clean, and not
        // already resident (a resident page would be a hit — fetching its
        // frame ahead of time is guaranteed waste).
        let mut n = 1u32;
        while n < ra.depth() {
            let Some(q) = page_no.checked_add(n) else {
                break;
            };
            if q >= self.disk_pages {
                break;
            }
            let qid = PageId::new(self.file, q);
            if self.pool.is_dirty(qid) || self.pool.contains(qid) {
                break;
            }
            n += 1;
        }
        ra.fill(page_no, |buf, each| {
            ctx.verify_read_run(self.file, page_no, n, buf, each);
        });
        self.pool.note_prefetch(u64::from(n));
        let out = ra.take(page_no).unwrap_or(Ok(()));
        self.pool.note_prefetch_consumed();
        out
    }

    /// Fetches the record at `rid` owned: [`HeapTable::fetch_into`] with a
    /// fresh record, for callers that keep what they fetch.
    pub fn fetch(&self, rid: Rid, cost: &CostMeter) -> Result<Record, StorageError> {
        let mut record = Record::default();
        self.fetch_into(rid, cost, &mut record)?;
        Ok(record)
    }

    /// Fetches the record at `rid` into `record` (whose allocation is
    /// reused), charging a buffer access for its page and one record's
    /// CPU cost to `cost` (the calling session's meter).
    pub fn fetch_into(
        &self,
        rid: Rid,
        cost: &CostMeter,
        record: &mut Record,
    ) -> Result<(), StorageError> {
        let page = self
            .pages
            .get(rid.page as usize)
            .ok_or(StorageError::PageOutOfRange {
                page: rid.page,
                pages: self.pages.len() as u32,
            })?;
        if self
            .pool
            .try_access(PageId::new(self.file, rid.page), cost)?
            == Access::Miss
        {
            self.verify_disk(rid.page)?;
        }
        cost.charge_records(1);
        let bytes = page.slot_bytes(rid.slot).ok_or(StorageError::InvalidSlot {
            page: rid.page,
            slot: rid.slot,
        })?;
        record.decode_into(bytes)
    }

    /// True if `rid` refers to a live record (no cost charged).
    pub fn exists(&self, rid: Rid) -> bool {
        self.pages
            .get(rid.page as usize)
            .and_then(|p| p.slot_bytes(rid.slot))
            .is_some()
    }

    /// Deletes the record at `rid`.
    pub fn delete(&mut self, rid: Rid) -> Result<(), StorageError> {
        let pages = self.pages.len() as u32;
        let page = self
            .pages
            .get_mut(rid.page as usize)
            .ok_or(StorageError::PageOutOfRange {
                page: rid.page,
                pages,
            })?;
        page.delete(rid.slot).map_err(|_| StorageError::InvalidSlot {
            page: rid.page,
            slot: rid.slot,
        })?;
        self.live_records -= 1;
        if !self.free_hints.contains(&rid.page) {
            self.free_hints.push(rid.page);
        }
        if let Some(ctx) = self.durable.as_ref() {
            ctx.log_delete(PageId::new(self.file, rid.page), rid.slot, page)?;
        }
        Ok(())
    }

    /// Opens a resumable sequential scan (the substrate of Tscan).
    pub fn scan(&self) -> HeapScan {
        HeapScan {
            page: 0,
            slot: 0,
            page_opened: false,
            ra: ReadAhead::new(),
        }
    }
}

/// Resumable cursor over a heap table in physical order.
///
/// The cursor holds no reference to the table, so a strategy can keep it
/// across scheduling quanta; pass the table to [`HeapScan::next`] on each
/// call. Page read cost is charged once per page *entered*.
#[derive(Debug, Clone)]
pub struct HeapScan {
    page: u32,
    slot: u16,
    page_opened: bool,
    /// Sequential read-ahead window for this cursor's miss path (cloned
    /// cursors each carry their own window; a deferred outcome consumed
    /// from one clone re-reads in the other — correct, merely unbatched).
    ra: ReadAhead,
}

impl HeapScan {
    /// Advances to the next live record and returns it owned, `Ok(None)`
    /// at end of table: [`HeapScan::next_into`] with a fresh record per
    /// row, for callers that keep every row they see.
    pub fn next(
        &mut self,
        table: &HeapTable,
        cost: &CostMeter,
    ) -> Result<Option<(Rid, Record)>, StorageError> {
        let mut record = Record::default();
        Ok(self
            .next_into(table, cost, &mut record)?
            .map(|rid| (rid, record)))
    }

    /// Advances to the next live record, decoding it into `record` (whose
    /// allocation is reused) and returning its RID; `Ok(None)` at end of
    /// table. This is the one loop that walks a heap's pages and slots: a
    /// scan that drops most rows decodes into a scratch record and copies
    /// only the survivors.
    ///
    /// Page reads go through the pool's fallible path, so an injected
    /// storage fault (or a record that fails to decode) surfaces as an
    /// `Err` instead of silently ending the scan. Charges go to `cost`,
    /// the calling session's meter.
    pub fn next_into(
        &mut self,
        table: &HeapTable,
        cost: &CostMeter,
        record: &mut Record,
    ) -> Result<Option<Rid>, StorageError> {
        loop {
            let Some(page) = table.pages.get(self.page as usize) else {
                return Ok(None);
            };
            if !self.page_opened {
                if table
                    .pool
                    .try_access(PageId::new(table.file, self.page), cost)?
                    == Access::Miss
                {
                    table.verify_disk_sequential(self.page, &mut self.ra)?;
                }
                self.page_opened = true;
            }
            while (self.slot as usize) < page.slot_count() as usize {
                let slot = self.slot;
                self.slot += 1;
                if let Some(bytes) = page.slot_bytes(slot) {
                    cost.charge_records(1);
                    record.decode_into(bytes)?;
                    return Ok(Some(Rid::new(self.page, slot)));
                }
            }
            self.page += 1;
            self.slot = 0;
            self.page_opened = false;
        }
    }

    /// Fraction of the table already scanned (for progress-based cost
    /// projection): whole pages left behind plus the open page by its
    /// slot fraction. The meter charges a page when it is entered, so
    /// counting only pages already left would make spend/progress
    /// over-project by a whole page's cost on short heaps.
    pub fn progress(&self, table: &HeapTable) -> f64 {
        let Some(page) = table.pages.get(self.page as usize) else {
            return 1.0;
        };
        let within = f64::from(self.slot) / f64::from(page.slot_count().max(1));
        (f64::from(self.page) + within.min(1.0)) / table.pages.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::shared_pool;
    use crate::cost::{shared_meter, CostConfig};
    use crate::schema::Column;
    use crate::value::{Value, ValueType};

    fn table(pool_pages: usize, page_bytes: usize) -> (HeapTable, crate::cost::SharedCost) {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(pool_pages, cost.clone());
        (
            HeapTable::with_page_bytes(
                "t",
                FileId(0),
                Schema::new(vec![Column::new("x", ValueType::Int)]),
                pool,
                page_bytes,
            ),
            cost,
        )
    }

    fn rec(x: i64) -> Record {
        Record::new(vec![Value::Int(x)])
    }

    #[test]
    fn insert_fetch_roundtrip() {
        let (mut t, cost) = table(16, 256);
        let rid = t.insert(rec(42)).unwrap();
        assert_eq!(t.fetch(rid, &cost).unwrap(), rec(42));
    }

    #[test]
    fn records_spill_to_new_pages() {
        let (mut t, _) = table(64, 64);
        for i in 0..20 {
            t.insert(rec(i)).unwrap();
        }
        assert!(t.page_count() > 1, "small pages must force multiple pages");
        assert_eq!(t.cardinality(), 20);
    }

    #[test]
    fn scan_visits_all_in_physical_order() {
        let (mut t, cost) = table(64, 64);
        let mut rids = Vec::new();
        for i in 0..50 {
            rids.push(t.insert(rec(i)).unwrap());
        }
        let mut scan = t.scan();
        let mut seen = Vec::new();
        while let Some((rid, record)) = scan.next(&t, &cost).unwrap() {
            seen.push((rid, record[0].as_i64().unwrap()));
        }
        assert_eq!(seen.len(), 50);
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(seen.iter().map(|s| s.1).collect::<Vec<_>>(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn scan_skips_deleted() {
        let (mut t, cost) = table(64, 1024);
        let rids: Vec<Rid> = (0..10).map(|i| t.insert(rec(i)).unwrap()).collect();
        t.delete(rids[3]).unwrap();
        t.delete(rids[7]).unwrap();
        let mut scan = t.scan();
        let mut vals = Vec::new();
        while let Some((_, record)) = scan.next(&t, &cost).unwrap() {
            vals.push(record[0].as_i64().unwrap());
        }
        assert_eq!(vals, vec![0, 1, 2, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn cold_scan_costs_one_io_per_page() {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(1000, cost.clone());
        let mut t = HeapTable::with_page_bytes(
            "t",
            FileId(0),
            Schema::new(vec![Column::new("x", ValueType::Int)]),
            pool,
            128,
        );
        for i in 0..100 {
            t.insert(rec(i)).unwrap();
        }
        let pages = t.page_count() as u64;
        let before = cost.snapshot();
        let mut scan = t.scan();
        while scan.next(&t, &cost).unwrap().is_some() {}
        let delta = cost.snapshot().since(&before);
        assert_eq!(delta.page_reads, pages);
        assert_eq!(delta.records_examined, 100);
    }

    #[test]
    fn sorted_rid_fetches_hit_cache_within_page() {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(4, cost.clone());
        let mut t = HeapTable::with_page_bytes(
            "t",
            FileId(0),
            Schema::new(vec![Column::new("x", ValueType::Int)]),
            pool,
            1024,
        );
        let rids: Vec<Rid> = (0..60).map(|i| t.insert(rec(i)).unwrap()).collect();
        // Fetch all records in sorted RID order: misses == distinct pages.
        let before = cost.snapshot();
        for &rid in &rids {
            t.fetch(rid, &cost).unwrap();
        }
        let delta = cost.snapshot().since(&before);
        assert_eq!(delta.page_reads as u32, t.page_count());
    }

    #[test]
    fn fetch_errors_on_bad_rid() {
        let (mut t, cost) = table(16, 256);
        let rid = t.insert(rec(1)).unwrap();
        assert!(t.fetch(Rid::new(99, 0), &cost).is_err());
        assert!(t.fetch(Rid::new(rid.page, 99), &cost).is_err());
    }

    #[test]
    fn schema_violation_rejected() {
        let (mut t, _) = table(16, 256);
        assert!(t
            .insert(Record::new(vec![Value::Str("not an int".into())]))
            .is_err());
    }

    #[test]
    fn record_larger_than_page_rejected() {
        let (mut t, _) = table(16, 32);
        let huge = Record::new(vec![Value::Int(1)]);
        // 32-byte page can hold an 11-byte record; make one that can't fit.
        assert!(t.insert(huge).is_ok());
        let (mut t2, _) = table(16, 8);
        assert!(t2.insert(rec(1)).is_err());
    }

    #[test]
    fn deleted_space_is_reused_before_growing() {
        let (mut t, cost) = table(64, 256);
        let rids: Vec<Rid> = (0..100).map(|i| t.insert(rec(i)).unwrap()).collect();
        let pages_before = t.page_count();
        // Free a whole page's worth of records from the middle.
        for &rid in rids.iter().filter(|r| r.page == 1) {
            t.delete(rid).unwrap();
        }
        // Fill the tail page, then keep inserting: the holes on page 1 must
        // absorb inserts before any new page is allocated.
        let mut landed_on_freed_page = false;
        for i in 0..20 {
            let rid = t.insert(rec(1000 + i)).unwrap();
            if rid.page == 1 {
                landed_on_freed_page = true;
            }
            if t.page_count() > pages_before {
                break;
            }
        }
        assert!(landed_on_freed_page, "free-space map must route inserts");
        // Scan still sees a consistent record set.
        let mut scan = t.scan();
        let mut count = 0;
        while scan.next(&t, &cost).unwrap().is_some() {
            count += 1;
        }
        assert_eq!(count as u64, t.cardinality());
    }

    #[test]
    fn fetch_and_scan_surface_injected_faults() {
        let (mut t, cost) = table(64, 64);
        let rids: Vec<Rid> = (0..30).map(|i| t.insert(rec(i)).unwrap()).collect();
        assert!(t.page_count() >= 3, "need multiple pages");
        // Fail the second page read the scan performs.
        t.pool()
            .set_fault_policy(Some(crate::FaultPolicy::fail_from_nth(1)));
        let mut scan = t.scan();
        let mut seen = 0usize;
        let err = loop {
            match scan.next(&t, &cost) {
                Ok(Some(_)) => seen += 1,
                Ok(None) => panic!("scan must hit the injected fault"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, StorageError::InjectedFault { .. }));
        assert!(seen > 0, "first page was delivered before the fault");
        // Random fetches fail the same way, and recover once disarmed.
        assert!(matches!(
            t.fetch(rids[29], &cost),
            Err(StorageError::InjectedFault { .. })
        ));
        t.pool().set_fault_policy(None);
        assert_eq!(t.fetch(rids[29], &cost).unwrap(), rec(29));
    }

    #[test]
    fn durable_table_survives_checkpoint_and_crash() {
        use crate::durable::{recover, DurableCtx};
        use crate::store::{MemPageStore, SharedStore};

        let store: SharedStore = Arc::new(MemPageStore::new(128));
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(256, cost.clone());
        let ctx = DurableCtx::new(store.clone(), pool.clone(), Vec::new(), Vec::new());
        let schema = Schema::new(vec![Column::new("x", ValueType::Int)]);
        let mut t =
            HeapTable::with_page_bytes("t", FileId(0), schema.clone(), pool.clone(), 128);
        t.attach_durable(ctx.clone());

        let rids: Vec<Rid> = (0..40).map(|i| t.insert(rec(i)).unwrap()).collect();
        assert!(t.page_count() > 1);
        assert_eq!(pool.dirty_len() as u32, t.page_count());

        // Checkpoint everything, then keep mutating past it.
        ctx.checkpoint(b"CAT", |pid| t.page_clone(pid.page)).unwrap();
        t.note_checkpointed();
        t.delete(rids[5]).unwrap();
        t.insert(rec(100)).unwrap();

        // "Crash" (drop the in-memory table) and rebuild from the store.
        drop(t);
        let recovered = recover(&store).unwrap();
        let lsns = recovered.page_lsns();
        let file = recovered.files.get(&0).unwrap();
        let disk_pages = file.pages.len() as u32;
        let pages = file.pages.clone();
        let ctx2 = DurableCtx::new(
            store.clone(),
            pool.clone(),
            recovered.imaged.clone(),
            lsns,
        );
        let t2 = HeapTable::from_recovered(
            "t", FileId(0), schema, pool, 128, pages, ctx2, disk_pages,
        );
        assert_eq!(t2.cardinality(), 40);
        let mut scan = t2.scan();
        let mut vals = Vec::new();
        while let Some((_, record)) = scan.next(&t2, &cost).unwrap() {
            vals.push(record[0].as_i64().unwrap());
        }
        let mut expect: Vec<i64> = (0..40).filter(|v| *v != 5).collect();
        expect.push(100);
        vals.sort_unstable();
        expect.sort_unstable();
        assert_eq!(vals, expect);
    }

    #[test]
    fn cold_miss_on_checkpointed_page_performs_real_read() {
        use crate::durable::DurableCtx;
        use crate::store::{MemPageStore, PageStore, SharedStore};

        let mem = Arc::new(MemPageStore::new(128));
        let store: SharedStore = mem.clone();
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(256, cost.clone());
        let ctx = DurableCtx::new(store, pool.clone(), Vec::new(), Vec::new());
        let mut t = HeapTable::with_page_bytes(
            "t",
            FileId(0),
            Schema::new(vec![Column::new("x", ValueType::Int)]),
            pool.clone(),
            128,
        );
        t.attach_durable(ctx.clone());
        for i in 0..40 {
            t.insert(rec(i)).unwrap();
        }
        ctx.checkpoint(b"CAT", |pid| t.page_clone(pid.page)).unwrap();
        t.note_checkpointed();

        // Cold cache: every simulated miss must be backed by one real
        // store read (the cost meter's I/O unit == genuine page I/O).
        pool.clear();
        let before = mem.stats();
        let cost_before = cost.snapshot();
        let mut scan = t.scan();
        while scan.next(&t, &cost).unwrap().is_some() {}
        let real = mem.stats().since(&before);
        let simulated = cost.snapshot().since(&cost_before);
        assert_eq!(real.page_reads, u64::from(t.page_count()));
        assert_eq!(simulated.page_reads, real.page_reads);

        // Warm cache: hits perform no real I/O.
        let before = mem.stats();
        let mut scan = t.scan();
        while scan.next(&t, &cost).unwrap().is_some() {}
        assert_eq!(mem.stats().since(&before).page_reads, 0);
    }

    #[test]
    fn sequential_read_ahead_batches_cold_scan_reads() {
        use crate::durable::DurableCtx;
        use crate::store::{MemPageStore, PageStore, SharedStore};

        let mem = Arc::new(MemPageStore::new(128));
        let store: SharedStore = mem.clone();
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(256, cost.clone());
        let ctx = DurableCtx::new(store, pool.clone(), Vec::new(), Vec::new());
        let mut t = HeapTable::with_page_bytes(
            "t",
            FileId(0),
            Schema::new(vec![Column::new("x", ValueType::Int)]),
            pool.clone(),
            128,
        );
        t.attach_durable(ctx.clone());
        for i in 0..200 {
            t.insert(rec(i)).unwrap();
        }
        ctx.checkpoint(b"CAT", |pid| t.page_clone(pid.page)).unwrap();
        t.note_checkpointed();

        // Cold scan with read-ahead: the window tiles the file, so real
        // reads still equal simulated misses, but far fewer store calls
        // (windows) were issued than pages read.
        pool.clear();
        let before = mem.stats();
        let pf_before = pool.prefetch_stats();
        let cost_before = cost.snapshot();
        let mut scan = t.scan();
        while scan.next(&t, &cost).unwrap().is_some() {}
        let real = mem.stats().since(&before);
        let pf = pool.prefetch_stats().since(&pf_before);
        let simulated = cost.snapshot().since(&cost_before);
        let pages = u64::from(t.page_count());
        assert_eq!(real.page_reads, pages, "read-ahead fetches no extra frames");
        assert_eq!(simulated.page_reads, real.page_reads);
        assert_eq!(pf.prefetched_pages, pages, "windows tile the whole file");
        assert_eq!(pf.consumed_pages, pages, "sequential scan wastes nothing");
        assert_eq!(pf.unused_pages(), 0);
        assert!(
            pf.runs < pages,
            "windows must batch: {} runs for {} pages",
            pf.runs,
            pages
        );
        // The window grows while the scan proves sequential: strictly
        // better than one run per MIN_DEPTH pages.
        assert!(pf.runs <= pages.div_ceil(u64::from(crate::readahead::MIN_DEPTH)));

        // With read-ahead off, the same cold scan issues one store call
        // per page and the prefetch counters stay put.
        pool.set_read_ahead(false);
        pool.clear();
        let before = mem.stats();
        let pf_before = pool.prefetch_stats();
        let mut scan = t.scan();
        while scan.next(&t, &cost).unwrap().is_some() {}
        assert_eq!(mem.stats().since(&before).page_reads, pages);
        assert_eq!(pool.prefetch_stats().since(&pf_before), Default::default());
    }

    #[test]
    fn read_ahead_window_stops_at_dirty_and_resident_pages() {
        use crate::durable::DurableCtx;
        use crate::store::{MemPageStore, PageStore, SharedStore};

        let mem = Arc::new(MemPageStore::new(128));
        let store: SharedStore = mem.clone();
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(256, cost.clone());
        let ctx = DurableCtx::new(store, pool.clone(), Vec::new(), Vec::new());
        let mut t = HeapTable::with_page_bytes(
            "t",
            FileId(0),
            Schema::new(vec![Column::new("x", ValueType::Int)]),
            pool.clone(),
            128,
        );
        t.attach_durable(ctx.clone());
        for i in 0..200 {
            t.insert(rec(i)).unwrap();
        }
        ctx.checkpoint(b"CAT", |pid| t.page_clone(pid.page)).unwrap();
        t.note_checkpointed();
        let pages = u64::from(t.page_count());
        assert!(pages >= 8, "need a few pages to carve up");

        // Dirty one mid-file page; fault another in so it is resident.
        pool.clear();
        let dirty_page = 3u32;
        let resident_page = 6u32;
        pool.mark_dirty(PageId::new(FileId(0), dirty_page));
        // Fault the page in through the pool alone (no disk traffic), as a
        // concurrent reader would have.
        pool.access(PageId::new(FileId(0), resident_page), &cost);
        let before = mem.stats();
        let mut scan = t.scan();
        while scan.next(&t, &cost).unwrap().is_some() {}
        // The dirty page and the resident page are both excluded from
        // verify traffic: dirty frames are stale, resident pages are hits.
        assert_eq!(
            mem.stats().since(&before).page_reads,
            pages - 2,
            "windows must step around dirty and resident pages"
        );
    }

    #[test]
    fn progress_tracks_pages() {
        let (mut t, cost) = table(64, 64);
        for i in 0..30 {
            t.insert(rec(i)).unwrap();
        }
        let mut scan = t.scan();
        assert_eq!(scan.progress(&t), 0.0);
        while scan.next(&t, &cost).unwrap().is_some() {}
        assert!((scan.progress(&t) - 1.0).abs() < 1e-9);
    }
}

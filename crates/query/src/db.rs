//! The top-level [`Db`] handle: construction and the durability
//! lifecycle (open, recover, checkpoint, close), the catalog and its DDL,
//! and the public statement entry points. The entry points are thin: every
//! statement kind — ad-hoc, prepared, `EXPLAIN`, DML — runs through the one
//! pipeline in `exec.rs` (`parse → resolve → bind_args → request → run →
//! finish`); DML lives in `dml.rs`, client sessions in `session.rs`.

use std::collections::BTreeMap;
use std::sync::Arc;

use rdb_btree::BTree;
use rdb_core::{DynamicConfig, DynamicOptimizer, TraceBuffer};
use rdb_storage::{
    recover, shared_meter, shared_pool, CheckpointStats, CostConfig, DurableCtx, FileId,
    FilePageStore, HeapTable, PageId, Record, RecoveryReport, Rid, Schema, SharedCost, SharedPool,
    SharedStore, Value,
};

use crate::catalog::{Catalog, IndexDef, TableDef};
use crate::error::QueryError;
use crate::exec::QueryResult;
use crate::explain::ExplainAnalyze;
use crate::options::QueryOptions;
use crate::parser::{parse_query, QuerySpec};
use crate::prepared::{PlanCache, Prepared};
use crate::session::Session;

/// B-tree fanout of every index [`Db::create_index`] builds.
const INDEX_FANOUT: u32 = 64;

/// Database-wide configuration: the sizes of the pool, the heap pages and
/// the WAL segments. Cost weights, optimizer and sort tuning are the
/// defaults of [`CostConfig`], [`DynamicConfig`] and
/// [`SortConfig`](crate::SortConfig).
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// Heap-page payload bytes.
    pub page_bytes: usize,
    /// WAL segment cap in bytes (durable databases): the log rotates into
    /// a fresh `wal-<seq>.rdb` once the current segment would exceed this.
    pub wal_segment_bytes: u64,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            pool_pages: 10_000,
            page_bytes: 8192,
            wal_segment_bytes: rdb_storage::DEFAULT_WAL_SEGMENT_BYTES,
        }
    }
}

pub(crate) struct TableEntry {
    pub(crate) heap: HeapTable,
    pub(crate) indexes: Vec<BTree>,
    /// The schema's column names in order: the output columns of every
    /// `select *` on this table, shared by reference count.
    pub(crate) column_names: Arc<[String]>,
}

impl TableEntry {
    fn new(heap: HeapTable) -> Self {
        let column_names = heap.schema().columns().iter().map(|c| c.name.clone()).collect();
        TableEntry {
            heap,
            indexes: Vec::new(),
            column_names,
        }
    }
}

/// An embedded single-user database with Rdb/VMS-style dynamic single-
/// table optimization.
///
/// ```
/// use rdb_query::prelude::*;
/// use rdb_storage::{Column, Schema, ValueType};
///
/// let mut db = Db::builder().open()?;
/// db.create_table("FAMILIES", Schema::new(vec![
///     Column::new("ID", ValueType::Int),
///     Column::new("AGE", ValueType::Int),
/// ]))?;
/// for i in 0..1000 {
///     db.insert("FAMILIES", vec![Value::Int(i), Value::Int(i % 100)])?;
/// }
/// db.create_index("IDX_AGE", "FAMILIES", &["AGE"])?;
///
/// // The paper's query: the strategy is chosen per binding.
/// let opts = QueryOptions::new().with_param("A1", 95i64);
/// let result = db.query("select * from FAMILIES where AGE >= :A1", &opts)?;
/// assert_eq!(result.rows.len(), 50);
/// # Ok::<(), QueryError>(())
/// ```
pub struct Db {
    pub(crate) config: DbConfig,
    pub(crate) cost: SharedCost,
    pub(crate) pool: SharedPool,
    tables: BTreeMap<String, TableEntry>,
    next_file: u32,
    /// Statement-text-keyed cache of parsed/resolved plans for
    /// [`Db::prepare`].
    pub(crate) plan_cache: PlanCache,
    /// Bumped on every catalog change (table or index creation); cached
    /// plan skeletons are tagged with the generation they were resolved
    /// under and rebuild themselves when it moves.
    pub(crate) catalog_gen: u64,
    /// Present on durable databases: the WAL/checkpoint machinery shared
    /// by every table.
    durable: Option<Arc<DurableCtx>>,
    /// What recovery did when this database was opened from disk.
    recovery: Option<RecoveryReport>,
}

pub(crate) fn unknown_column(table: &str, column: &str) -> QueryError {
    QueryError::UnknownColumn {
        table: table.to_string(),
        column: column.to_string(),
    }
}

/// The index key of `record`: its values at `key_columns`, in key order.
pub(crate) fn index_key(key_columns: &[usize], record: &Record) -> Vec<Value> {
    key_columns.iter().map(|&c| record[c].clone()).collect()
}

/// **The** index loader, shared by open and `CREATE INDEX`: one pass over
/// `heap` gathers the `(key, rid)` entries of every index in `defs`, then
/// each is bulk-loaded. Rows decode into one scratch record, so the pass
/// allocates only the keys the indexes keep.
fn load_indexes(
    heap: &HeapTable,
    defs: Vec<IndexDef>,
    pool: &SharedPool,
    cost: &SharedCost,
) -> Result<Vec<BTree>, QueryError> {
    let rows = usize::try_from(heap.cardinality()).unwrap_or(0);
    let mut entries: Vec<Vec<(Vec<Value>, Rid)>> =
        defs.iter().map(|_| Vec::with_capacity(rows)).collect();
    let mut scan = heap.scan();
    let mut record = Record::default();
    while let Some(rid) = scan.next_into(heap, cost, &mut record)? {
        for (def, out) in defs.iter().zip(&mut entries) {
            out.push((index_key(&def.key_columns, &record), rid));
        }
    }
    Ok(defs
        .into_iter()
        .zip(entries)
        .map(|(def, entries)| {
            BTree::bulk_load(
                def.name,
                FileId(def.file),
                pool.clone(),
                def.key_columns,
                def.fanout as usize,
                entries,
            )
        })
        .collect())
}

impl Db {
    /// Starts building a database: `Db::builder().open()` for in-memory,
    /// `Db::builder().path(dir).open()` for one that survives the process
    /// (see [`crate::DbBuilder`]).
    pub fn builder() -> crate::DbBuilder {
        crate::DbBuilder::new()
    }

    /// In-memory construction (the builder's `in_memory` target).
    pub(crate) fn open_in_memory(config: DbConfig) -> Self {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(config.pool_pages, cost.clone());
        Db {
            cost,
            pool,
            tables: BTreeMap::new(),
            next_file: 0,
            plan_cache: PlanCache::new(),
            catalog_gen: 0,
            config,
            durable: None,
            recovery: None,
        }
    }

    /// Durable construction (the builder's `path` target): opens or
    /// creates the page files under `dir`, runs redo recovery, moves each
    /// cataloged table's recovered pages into its heap, rebuilds every
    /// table's indexes in one pass over that heap, and marks redo-touched
    /// pages dirty so the next checkpoint writes them back.
    pub(crate) fn open_durable(mut config: DbConfig, dir: &std::path::Path) -> Result<Self, QueryError> {
        let store: SharedStore = Arc::new(FilePageStore::open_with(
            dir,
            config.page_bytes,
            config.wal_segment_bytes,
        )?);
        // An existing database's on-disk page size wins over the config.
        config.page_bytes = store.page_bytes();
        let mut recovered = recover(&store)?;
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(config.pool_pages, cost.clone());
        let ctx = DurableCtx::new(
            store.clone(),
            pool.clone(),
            recovered.imaged.clone(),
            recovered.page_lsns(),
        );
        let catalog = match &recovered.catalog {
            Some(blob) => Catalog::decode(blob)?,
            None => Catalog::default(),
        };

        let mut tables = BTreeMap::new();
        let mut next_file = 0u32;
        for def in &catalog.tables {
            next_file = next_file.max(def.file + 1);
            let file = FileId(def.file);
            // The pages move; the LSNs (read above) and the redo-dirty
            // list (read below) stay behind in the recovered file.
            let pages = recovered
                .files
                .get_mut(&def.file)
                .map(|rec| std::mem::take(&mut rec.pages))
                .unwrap_or_default();
            let heap = HeapTable::from_recovered(
                def.name.clone(),
                file,
                def.schema.clone(),
                pool.clone(),
                def.page_bytes as usize,
                pages,
                ctx.clone(),
                store.file_pages(file)?,
            );
            tables.insert(def.name.clone(), TableEntry::new(heap));
        }
        // Redo-touched pages are dirty: their frames are stale until the
        // next checkpoint writes them back.
        for (file, rec) in &recovered.files {
            for &page_no in &rec.dirty {
                pool.mark_dirty(PageId::new(FileId(*file), page_no));
            }
        }
        // Indexes are definitions, not data: rebuild each table's, in
        // catalog order, through the loader `CREATE INDEX` uses.
        let mut by_table: BTreeMap<String, Vec<IndexDef>> = BTreeMap::new();
        for idef in catalog.indexes {
            next_file = next_file.max(idef.file + 1);
            by_table.entry(idef.table.clone()).or_default().push(idef);
        }
        for (table, defs) in by_table {
            let entry = tables
                .get_mut(&table)
                .ok_or(QueryError::Storage(rdb_storage::StorageError::Corrupt(
                    "catalog index references unknown table",
                )))?;
            entry.indexes = load_indexes(&entry.heap, defs, &pool, &cost)?;
        }

        Ok(Db {
            cost,
            pool,
            tables,
            next_file,
            plan_cache: PlanCache::new(),
            catalog_gen: 0,
            config,
            durable: Some(ctx),
            recovery: Some(recovered.report),
        })
    }

    /// The catalog as currently defined (the blob DDL logs and checkpoints
    /// persist).
    fn snapshot_catalog(&self) -> Catalog {
        let mut cat = Catalog::default();
        for (name, entry) in &self.tables {
            cat.tables.push(TableDef {
                name: name.clone(),
                file: entry.heap.file().0,
                page_bytes: entry.heap.page_bytes() as u32,
                schema: entry.heap.schema().clone(),
            });
            for tree in &entry.indexes {
                cat.indexes.push(IndexDef {
                    name: tree.name().to_string(),
                    table: name.clone(),
                    file: tree.file().0,
                    fanout: tree.max_fanout() as u32,
                    key_columns: tree.key_columns().to_vec(),
                });
            }
        }
        cat
    }

    /// True when the database is backed by files (survives the process).
    pub fn is_durable(&self) -> bool {
        self.durable.as_ref().is_some_and(|c| c.is_durable())
    }

    /// The page store behind a durable database (real-I/O counters live
    /// here), `None` for in-memory databases.
    pub fn store(&self) -> Option<&SharedStore> {
        self.durable.as_ref().map(|c| c.store())
    }

    /// What recovery did when this database was opened from disk, `None`
    /// for in-memory databases.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Checkpoints a durable database: writes every dirty page back to its
    /// disk frame, makes the current catalog durable, and truncates the
    /// WAL. A no-op `Ok` on in-memory databases. There is **no** implicit
    /// checkpoint on drop — callers that want durability at shutdown use
    /// [`Db::close`] (dropping without it is exactly the crash the
    /// recovery path handles).
    pub fn checkpoint(&mut self) -> Result<CheckpointStats, QueryError> {
        let Some(ctx) = self.durable.clone() else {
            return Ok(CheckpointStats::default());
        };
        let blob = self.snapshot_catalog().encode();
        let tables = &self.tables;
        let stats = ctx.checkpoint(&blob, |pid| {
            tables
                .values()
                .find(|t| t.heap.file() == pid.file)
                .and_then(|t| t.heap.page_clone(pid.page))
        })?;
        for entry in self.tables.values_mut() {
            entry.heap.note_checkpointed();
        }
        Ok(stats)
    }

    /// Checkpoints (durable databases) and consumes the handle — the clean
    /// shutdown. Reopening after `close` replays nothing.
    pub fn close(mut self) -> Result<(), QueryError> {
        self.checkpoint().map(|_| ())
    }

    /// Shared cost meter (for experiments).
    pub fn cost(&self) -> &SharedCost {
        &self.cost
    }

    /// Shared buffer pool (for cache-perturbation experiments).
    pub fn pool(&self) -> &SharedPool {
        &self.pool
    }

    /// The single-table optimizer, at the default tuning.
    pub(crate) fn optimizer(&self) -> DynamicOptimizer {
        DynamicOptimizer::new(DynamicConfig::default())
    }

    fn alloc_file(&mut self) -> FileId {
        let f = FileId(self.next_file);
        self.next_file += 1;
        f
    }

    pub(crate) fn table(&self, name: &str) -> Result<&TableEntry, QueryError> {
        self.tables
            .get(name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_string()))
    }

    pub(crate) fn table_mut(&mut self, name: &str) -> Result<&mut TableEntry, QueryError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_string()))
    }

    /// Creates a table.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> Result<(), QueryError> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(QueryError::DuplicateTable(name));
        }
        let file = self.alloc_file();
        let mut heap = HeapTable::with_page_bytes(
            name.clone(),
            file,
            schema,
            self.pool.clone(),
            self.config.page_bytes,
        );
        if let Some(ctx) = &self.durable {
            heap.attach_durable(ctx.clone());
        }
        self.tables.insert(name, TableEntry::new(heap));
        self.catalog_gen += 1;
        self.log_catalog()?;
        Ok(())
    }

    /// WAL-logs the current catalog snapshot (durable databases; every DDL
    /// statement calls this so recovery sees definitions without waiting
    /// for a checkpoint).
    fn log_catalog(&self) -> Result<(), QueryError> {
        if let Some(ctx) = &self.durable {
            ctx.log_catalog(self.snapshot_catalog().encode())?;
        }
        Ok(())
    }

    /// Creates a B-tree index on `columns` of `table` and backfills it.
    pub fn create_index(
        &mut self,
        index_name: impl Into<String>,
        table: &str,
        columns: &[&str],
    ) -> Result<(), QueryError> {
        let file = self.alloc_file();
        let fanout = INDEX_FANOUT;
        let pool = self.pool.clone();
        let cost = self.cost.clone();
        let entry = self.table_mut(table)?;
        let key_columns: Vec<usize> = columns
            .iter()
            .map(|c| {
                entry
                    .heap
                    .schema()
                    .column_index(c)
                    .ok_or_else(|| unknown_column(table, c))
            })
            .collect::<Result<_, _>>()?;
        let def = IndexDef {
            name: index_name.into(),
            table: table.to_string(),
            file: file.0,
            fanout,
            key_columns,
        };
        let tree = load_indexes(&entry.heap, vec![def], &pool, &cost)?;
        entry.indexes.extend(tree);
        self.catalog_gen += 1;
        self.log_catalog()?;
        Ok(())
    }

    /// Number of rows in `table`.
    pub fn row_count(&self, table: &str) -> Option<u64> {
        self.tables.get(table).map(|t| t.heap.cardinality())
    }

    /// Explains a query: parses, resolves, binds, and reports the tactic
    /// the dynamic optimizer chooses for this binding — the one a run of
    /// the same statement, ad hoc or prepared, announces in
    /// [`rdb_core::TraceEvent::TacticChosen`] — without executing the
    /// productive phases. (Estimation runs, as it would in a real
    /// prepare/describe, so the answer is binding-specific.)
    pub fn explain(&self, sql: &str, opts: &QueryOptions) -> Result<String, QueryError> {
        self.explain_on(sql, opts, &self.cost)
    }

    /// Executes the query with tracing attached and returns the result
    /// together with the full decision timeline — the competition's
    /// candidate estimates, refinements, switches, discards, phase costs
    /// and winner. Events also stream to any sink already attached via
    /// [`QueryOptions::with_trace`].
    ///
    /// ```
    /// use rdb_query::prelude::*;
    /// use rdb_storage::{Column, Schema, ValueType};
    ///
    /// let mut db = Db::builder().open()?;
    /// db.create_table("T", Schema::new(vec![Column::new("X", ValueType::Int)]))?;
    /// for i in 0..500 {
    ///     db.insert("T", vec![Value::Int(i % 50)])?;
    /// }
    /// db.create_index("IDX_X", "T", &["X"])?;
    /// let ea = db.explain_analyze("select * from T where X >= 49", &QueryOptions::new())?;
    /// assert!(ea.render().contains("winner"));
    /// # Ok::<(), QueryError>(())
    /// ```
    pub fn explain_analyze(
        &self,
        sql: &str,
        opts: &QueryOptions,
    ) -> Result<ExplainAnalyze, QueryError> {
        let buffer = TraceBuffer::shared(8192);
        let traced = crate::explain::with_capture(opts, buffer.clone());
        let result = self.query(sql, &traced)?;
        Ok(ExplainAnalyze {
            sql: sql.to_string(),
            result,
            events: buffer.take(),
        })
    }

    /// Runs a SQL-ish query with per-run [`QueryOptions`] (host-variable
    /// bindings, goal/limit overrides, tracing). Charges the database's
    /// default meter; concurrent clients should run through [`Db::session`]
    /// handles instead so each gets its own meter.
    pub fn query(&self, sql: &str, opts: &QueryOptions) -> Result<QueryResult, QueryError> {
        let spec = parse_query(sql)?;
        self.query_spec(&spec, opts)
    }

    /// Runs a pre-parsed query (on the database's default meter).
    pub fn query_spec(
        &self,
        spec: &QuerySpec,
        opts: &QueryOptions,
    ) -> Result<QueryResult, QueryError> {
        self.query_spec_on(spec, opts, &self.cost)
    }

    /// Prepares `sql` for repeated execution: the parsed AST and resolved
    /// plan skeleton are cached keyed by statement text, host variables
    /// re-bind per [`Prepared::execute`], and each execution chooses its
    /// tactic afresh for its bindings and options, exactly as an ad-hoc
    /// run does. Charges the
    /// database's default meter; concurrent clients should prepare through
    /// [`Session::prepare`] instead.
    ///
    /// ```
    /// use rdb_query::prelude::*;
    /// use rdb_storage::{Column, Schema, ValueType};
    ///
    /// let mut db = Db::builder().open()?;
    /// db.create_table("T", Schema::new(vec![Column::new("X", ValueType::Int)]))?;
    /// for i in 0..200 {
    ///     db.insert("T", vec![Value::Int(i % 50)])?;
    /// }
    /// db.create_index("IDX_X", "T", &["X"])?;
    /// let stmt = db.prepare("select * from T where X >= :A1")?;
    /// let first = stmt.execute(&QueryOptions::new().with_param("A1", 40i64))?;
    /// let again = stmt.execute(&QueryOptions::new().with_param("A1", 45i64))?;
    /// assert_eq!(first.metrics.plan_cache_misses, 1); // cold skeleton
    /// assert_eq!(again.metrics.plan_cache_hits, 1); // reused skeleton
    /// # Ok::<(), QueryError>(())
    /// ```
    pub fn prepare(&self, sql: &str) -> Result<Prepared<'_>, QueryError> {
        self.prepare_on(sql, self.cost.clone())
    }

    /// Drops every cached plan and wipes cached skeletons in place, so even
    /// [`Prepared`] handles created earlier re-resolve on their next
    /// execution.
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    /// Database-wide plan-cache counters.
    pub fn plan_cache_stats(&self) -> crate::prepared::PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Evicts every cached page (cold restart) — used by experiments.
    pub fn clear_cache(&self) {
        self.pool.clear();
    }

    /// Direct access to a table's heap (experiments and tests).
    pub fn heap(&self, table: &str) -> Option<&HeapTable> {
        self.tables.get(table).map(|t| &t.heap)
    }

    /// Direct access to a table's indexes (experiments and tests).
    pub fn indexes(&self, table: &str) -> Option<&[BTree]> {
        self.tables.get(table).map(|t| t.indexes.as_slice())
    }

    /// Opens a client session: a cheap handle sharing this database's
    /// tables and buffer pool but carrying its **own cost meter**, so the
    /// costs and metrics of concurrent queries don't bleed into each
    /// other. `Db` is `Sync`; wrap it in an [`std::sync::Arc`] (or scoped
    /// threads) and give each OS thread its own session:
    ///
    /// ```
    /// use rdb_query::prelude::*;
    /// use rdb_storage::{Column, Schema, ValueType};
    ///
    /// let mut db = Db::builder().open()?;
    /// db.create_table("T", Schema::new(vec![Column::new("X", ValueType::Int)]))?;
    /// for i in 0..100 {
    ///     db.insert("T", vec![Value::Int(i)])?;
    /// }
    /// std::thread::scope(|scope| {
    ///     for _ in 0..4 {
    ///         let session = db.session();
    ///         scope.spawn(move || {
    ///             let r = session
    ///                 .query("select * from T where X >= 90", &QueryOptions::new())
    ///                 .unwrap();
    ///             assert_eq!(r.rows.len(), 10);
    ///         });
    ///     }
    /// });
    /// # Ok::<(), QueryError>(())
    /// ```
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }
}

#[cfg(test)]
pub(crate) mod tests;
